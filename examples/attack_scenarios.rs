//! The paper's threat model, executed (Section III-A, Table I, Section
//! VI): a tour of attacker scenarios against the functional simulator.
//!
//! ```sh
//! cargo run --release --example attack_scenarios
//! ```

use fsencr::machine::{Machine, MachineOpts, SecurityMode};
use fsencr::security;
use fsencr_fs::{AccessKind, FsError, GroupId, Mode, UserId};
use fsencr_nvm::PAGE_BYTES;

const SECRET: &[u8] = b"Q3-LAYOFF-PLAN-DO-NOT-LEAK";

fn build(mode: SecurityMode) -> Machine {
    let mut m = Machine::new(MachineOpts::small_test(), mode);
    let alice = UserId::new(1);
    let h = m
        .create(
            alice,
            GroupId::new(1),
            "hr.doc",
            Mode::PRIVATE,
            Some("alice-pw"),
        )
        .expect("create");
    let map = m.mmap(&h).expect("mmap");
    m.write(0, map, 0, SECRET).expect("write");
    m.persist(0, map, 0, SECRET.len() as u64).expect("persist");
    m.shutdown_flush().expect("flush");
    m
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Attacker X: steals the DIMM, scans it raw ==");
    for mode in [
        SecurityMode::Unencrypted,
        SecurityMode::MemoryOnly,
        SecurityMode::FsEncr,
    ] {
        let m = build(mode);
        let leaked = security::media_contains(&m, SECRET);
        println!("  {mode:<20} secret on media: {leaked}");
    }

    println!("\n== Attacker X escalates: breaks the memory encryption key ==");
    for mode in [SecurityMode::MemoryOnly, SecurityMode::FsEncr] {
        let m = build(mode);
        let mem_key = m.mem_key();
        let leaked = security::attacker_decrypts(&m, &mem_key, &[], SECRET);
        println!("  {mode:<20} secret exposed: {leaked}   (Table I, row 1)");
    }

    println!("\n== Attacker Y: insider with a login, after an accidental chmod 777 ==");
    let mut m = build(SecurityMode::FsEncr);
    let alice = UserId::new(1);
    let mallory = UserId::new(66);
    m.chmod(alice, "hr.doc", Mode::WIDE_OPEN)?;
    match m.open(mallory, &[], "hr.doc", AccessKind::Read, Some("guessed-pw")) {
        Err(e) => println!("  mode bits said yes, the key said: {e}"),
        Ok(_) => unreachable!("wrong passphrase must not open the file"),
    }
    assert!(matches!(
        m.open(mallory, &[], "hr.doc", AccessKind::Read, Some("guessed-pw")),
        Err(fsencr::machine::MachineError::Fs(FsError::BadPassphrase))
    ));

    println!("\n== Attacker Y: boots a different OS (fails admin authentication) ==");
    let mut m = build(SecurityMode::FsEncr);
    let frame = m.fs().stat("hr.doc").unwrap().page(0).unwrap();
    m.crash();
    m.recover();
    m.controller_mut().lock_file_engine();
    let line = fsencr_nvm::PhysAddr::new(frame.get() * PAGE_BYTES as u64);
    let t = m.elapsed();
    let (bytes, _) = m.controller_mut().read_line(t, line)?;
    let visible = bytes
        .windows(SECRET.len().min(16))
        .any(|w| w == &SECRET[..16]);
    println!("  file engine locked; physical reads show plaintext: {visible}");
    assert!(!visible);

    println!("\n== Tampering: attacker rewrites a counter block on the DIMM ==");
    let mut m = build(SecurityMode::FsEncr);
    m.crash(); // drop trusted cached metadata
    m.recover();
    let frame = m.fs().stat("hr.doc").unwrap().page(0).unwrap();
    let mecb = fsencr_nvm::PhysAddr::new(m.controller().layout().mecb_addr(frame).get());
    let mut evil = m.controller().nvm().peek_line(mecb);
    evil[0] ^= 0xff;
    m.controller_mut().tamper_line(mecb, &evil);
    let t = m.elapsed();
    let line = fsencr_nvm::PhysAddr::new(frame.get() * PAGE_BYTES as u64);
    match m.controller_mut().read_line(t, line) {
        Err(e) => println!("  Merkle tree says: {e}"),
        Ok(_) => unreachable!("tampering must be detected"),
    }

    println!("\n== Secure deletion: unlink shreds the counters ==");
    let mut m = build(SecurityMode::FsEncr);
    m.unlink(UserId::new(1), "hr.doc")?;
    let leaked = security::media_contains(&m, SECRET);
    println!("  after unlink, secret recoverable from media: {leaked}");
    assert!(!leaked);

    println!("\nall attack scenarios behaved as the paper promises");
    Ok(())
}
