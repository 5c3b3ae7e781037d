//! Moving an entire NVM filesystem to a new machine (Section VI).
//!
//! The DIMM travels physically (with its ECC lanes); the processor-resident
//! secrets — memory key, OTT key, Merkle root — travel through an
//! authenticated operator channel. The receiving processor authenticates
//! the media against the root before accepting it.
//!
//! ```sh
//! cargo run --release --example module_transfer
//! ```

use fsencr::machine::{Machine, MachineOpts, SecurityMode};
use fsencr_fs::{AccessKind, GroupId, Mode, UserId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let user = UserId::new(1);
    let group = GroupId::new(1);

    // Machine 1: create an encrypted file and fill it.
    let mut m1 = Machine::new(MachineOpts::small_test(), SecurityMode::FsEncr);
    let h = m1.create(user, group, "suitcase.db", Mode::PRIVATE, Some("pw"))?;
    let map = m1.mmap(&h)?;
    m1.write(0, map, 0, b"contents packed for travel")?;
    m1.persist(0, map, 0, 26)?;
    println!("machine 1: wrote and persisted the file");

    // Export: flush everything, spill the OTT, split into parts.
    let (envelope, module) = m1.export_module()?;
    println!("machine 1: exported module (envelope: {envelope:?})");

    // Machine 2: authenticate and adopt the module.
    let mut m2 = Machine::import_module(&envelope, module)?;
    println!("machine 2: module authenticated against the transferred root");

    let h = m2.open(user, &[group], "suitcase.db", AccessKind::Read, Some("pw"))?;
    let map = m2.mmap(&h)?;
    let mut buf = [0u8; 26];
    m2.read(0, map, 0, &mut buf)?;
    assert_eq!(&buf, b"contents packed for travel");
    println!("machine 2: read the file back: OK");

    // A module tampered with in transit is rejected.
    let mut m3 = Machine::new(MachineOpts::small_test(), SecurityMode::FsEncr);
    let h = m3.create(user, group, "x", Mode::PRIVATE, Some("pw"))?;
    let map = m3.mmap(&h)?;
    m3.write(0, map, 0, b"payload")?;
    m3.persist(0, map, 0, 7)?;
    let frame = m3.fs().stat("x").unwrap().page(0).unwrap();
    let addr = fsencr_nvm::PhysAddr::new(m3.controller().layout().mecb_addr(frame).get());
    let (envelope, mut module) = m3.export_module()?;
    let mut evil = module.nvm().peek_line(addr);
    evil[0] ^= 1;
    module.tamper_line(addr, &evil);
    match Machine::import_module(&envelope, module) {
        Err(e) => println!("tampered module rejected: {e}"),
        Ok(_) => unreachable!("tampering must be detected at import"),
    }
    Ok(())
}
