//! Quickstart: create an encrypted DAX file, write through the FsEncr
//! datapath, and look at what actually landed on the NVM media.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fsencr::machine::{Machine, MachineOpts, SecurityMode};
use fsencr::security;
use fsencr_fs::{AccessKind, GroupId, Mode, UserId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A machine with the paper's Table III configuration, running the
    // full FsEncr design: memory encryption + integrity + the hardware
    // file-encryption engine.
    let mut m = Machine::new(MachineOpts::small_test(), SecurityMode::FsEncr);

    let alice = UserId::new(1);
    let staff = GroupId::new(10);

    // Create an encrypted file. The kernel derives the key-encryption key
    // from the passphrase, generates a fresh file key, wraps it into the
    // inode and installs it in the controller's Open Tunnel Table.
    let handle = m.create(
        alice,
        staff,
        "diary.txt",
        Mode::PRIVATE,
        Some("correct horse"),
    )?;
    println!("created ino {} (group {})", handle.ino, handle.group);

    // Map it DAX-style and access it with plain loads/stores.
    let map = m.mmap(&handle)?;
    let secret = b"Dear diary, the DF-bit works.";
    m.write(0, map, 0, secret)?;
    m.persist(0, map, 0, secret.len() as u64)?;

    let mut back = vec![0u8; secret.len()];
    m.read(0, map, 0, &mut back)?;
    assert_eq!(back, secret);
    println!("read back through the DAX mapping: OK");

    // What does a physical attacker scanning the DIMM see? Ciphertext.
    m.shutdown_flush()?;
    let on_media = security::media_contains(&m, secret);
    println!("plaintext visible on raw media: {on_media}");
    assert!(!on_media);

    // Re-opening needs the passphrase even for the owner (paper,
    // Section VI: this is the defence against accidental chmod 777).
    assert!(m
        .open(
            alice,
            &[staff],
            "diary.txt",
            AccessKind::Read,
            Some("wrong")
        )
        .is_err());
    let again = m.open(
        alice,
        &[staff],
        "diary.txt",
        AccessKind::Read,
        Some("correct horse"),
    )?;
    assert_eq!(again.fek, handle.fek);
    println!("passphrase gate: OK");

    // Peek at the simulator's accounting.
    let stats = m.measurement_snapshot();
    println!(
        "NVM traffic since boot: {} reads, {} writes; metadata cache hit rate {:.1}%",
        stats.nvm_reads,
        stats.nvm_writes,
        100.0 * stats.meta_hit_rate()
    );
    Ok(())
}
