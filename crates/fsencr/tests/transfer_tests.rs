//! Section VI operational features: file copy within the device, module
//! transfer between machines, and counter-overflow re-encryption.

use fsencr::machine::{Machine, MachineError, MachineOpts, SecurityMode};
use fsencr::security;
use fsencr_fs::{AccessKind, GroupId, Mode, UserId};
use fsencr_nvm::PAGE_BYTES;
use fsencr_snapshot::SnapError;

const ALICE: UserId = UserId::new(1);
const STAFF: GroupId = GroupId::new(2);

fn machine() -> Machine {
    let mut opts = MachineOpts::small_test();
    opts.pmem_bytes = 4 << 20;
    Machine::new(opts, SecurityMode::FsEncr)
}

#[test]
fn copy_file_preserves_content_under_new_key() {
    let mut m = machine();
    let src = m
        .create(ALICE, STAFF, "orig", Mode::PRIVATE, Some("src-pw"))
        .unwrap();
    let map = m.mmap(&src).unwrap();
    let payload: Vec<u8> = (0..9000u32).map(|i| (i % 251) as u8).collect();
    m.write(0, map, 0, &payload).unwrap();
    m.persist(0, map, 0, payload.len() as u64).unwrap();
    m.munmap(0, map).unwrap();

    let dst = m
        .copy_file(
            0,
            ALICE,
            &[STAFF],
            "orig",
            "copy",
            Some("src-pw"),
            Some("dst-pw"),
        )
        .unwrap();
    assert_ne!(dst.fek, src.fek, "the copy gets its own key");

    // Content identical through the datapath.
    let dm = m.mmap(&dst).unwrap();
    let mut buf = vec![0u8; payload.len()];
    m.read(0, dm, 0, &mut buf).unwrap();
    assert_eq!(buf, payload);

    // Ciphertext differs on media (different key + counters, no IV reuse).
    m.shutdown_flush().unwrap();
    let src_frame = m.fs().stat("orig").unwrap().page(0).unwrap();
    let dst_frame = m.fs().stat("copy").unwrap().page(0).unwrap();
    let a = m.controller().nvm().peek_line(fsencr_nvm::PhysAddr::new(
        src_frame.get() * PAGE_BYTES as u64,
    ));
    let b = m.controller().nvm().peek_line(fsencr_nvm::PhysAddr::new(
        dst_frame.get() * PAGE_BYTES as u64,
    ));
    assert_ne!(a, b, "same plaintext must encrypt differently per file");

    // Opening the copy requires the copy's passphrase, not the source's.
    assert!(m
        .open(ALICE, &[STAFF], "copy", AccessKind::Read, Some("src-pw"))
        .is_err());
    assert!(m
        .open(ALICE, &[STAFF], "copy", AccessKind::Read, Some("dst-pw"))
        .is_ok());
}

#[test]
fn module_transfer_to_new_machine() {
    let mut m = machine();
    let h = m
        .create(ALICE, STAFF, "portable", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    m.write(0, map, 0, b"travels with the DIMM").unwrap();
    m.persist(0, map, 0, 21).unwrap();

    let (envelope, module) = m.export_module().unwrap();
    let mut m2 = Machine::import_module(&envelope, module).unwrap();

    // The new machine opens and reads the file with the same passphrase.
    let h = m2
        .open(ALICE, &[STAFF], "portable", AccessKind::Write, Some("pw"))
        .unwrap();
    let map = m2.mmap(&h).unwrap();
    let mut buf = [0u8; 21];
    m2.read(0, map, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"travels with the DIMM");

    // And writes keep working (counters continue where they left off).
    m2.write(0, map, 0, b"updated after arrival").unwrap();
    m2.persist(0, map, 0, 21).unwrap();
    m2.read(0, map, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"updated after arrival");
}

#[test]
fn tampered_module_is_rejected_at_import() {
    let mut m = machine();
    let h = m
        .create(ALICE, STAFF, "f", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    m.write(0, map, 0, b"payload").unwrap();
    m.persist(0, map, 0, 7).unwrap();
    let frame = m.fs().stat("f").unwrap().page(0).unwrap();
    let addr = fsencr_nvm::PhysAddr::new(m.controller().layout().mecb_addr(frame).get());

    let (envelope, mut module) = m.export_module().unwrap();
    // In-transit attacker flips a counter bit.
    let mut evil = module.nvm().peek_line(addr);
    evil[0] ^= 1;
    module.tamper_line(addr, &evil);

    let err = Machine::import_module(&envelope, module);
    assert!(err.is_err(), "tampered module must be rejected");
}

#[test]
fn transferred_module_stays_ciphertext_in_transit() {
    let mut m = machine();
    let secret = b"IN-TRANSIT-SECRET-PAYLOAD";
    let h = m
        .create(ALICE, STAFF, "s", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    m.write(0, map, 0, secret).unwrap();
    m.persist(0, map, 0, secret.len() as u64).unwrap();

    let (envelope, module) = m.export_module().unwrap();
    // Rebuild a machine just to reuse the media-scan helper.
    let m2 = Machine::import_module(&envelope, module).unwrap();
    assert!(!security::media_contains(&m2, secret));
}

#[test]
fn minor_counter_overflow_reencrypts_page_transparently() {
    let mut m = machine();
    let h = m
        .create(ALICE, STAFF, "hot", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    // Two distinct lines on the same page: one is hammered past the 7-bit
    // minor limit, the other must survive the page re-encryption.
    m.write(0, map, 64, b"bystander line").unwrap();
    m.persist(0, map, 64, 14).unwrap();
    for i in 0..300u32 {
        m.write(0, map, 0, &i.to_le_bytes()).unwrap();
        m.persist(0, map, 0, 4).unwrap();
    }
    assert!(
        m.snapshot().overflow_reencryptions >= 1,
        "300 persisted writes must overflow a 7-bit minor counter"
    );
    let mut buf = [0u8; 14];
    m.read(0, map, 64, &mut buf).unwrap();
    assert_eq!(&buf, b"bystander line");
    let mut last = [0u8; 4];
    m.read(0, map, 0, &mut last).unwrap();
    assert_eq!(last, 299u32.to_le_bytes());
}

#[test]
fn overflow_survives_crash_recovery() {
    let mut m = machine();
    let h = m
        .create(ALICE, STAFF, "o", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    for i in 0..200u32 {
        m.write(0, map, 0, &i.to_le_bytes()).unwrap();
        m.persist(0, map, 0, 4).unwrap();
    }
    m.crash();
    let report = m.recover();
    assert_eq!(report.unrecoverable, 0, "{report:?}");
    let h = m
        .open(ALICE, &[STAFF], "o", AccessKind::Read, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    let mut buf = [0u8; 4];
    m.read(0, map, 0, &mut buf).unwrap();
    assert_eq!(buf, 199u32.to_le_bytes());
}

#[test]
fn shredding_writes_no_data_lines() {
    // Silent-Shredder's selling point (Section VI): secure deletion via
    // counter reset costs ~zero data-page writes, versus the DoD 5220.22-M
    // multi-pass overwrite. The wear tracker proves it.
    let mut m = machine();
    let h = m
        .create(ALICE, STAFF, "doomed", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    m.write(0, map, 0, &[0xAAu8; PAGE_BYTES]).unwrap();
    m.persist(0, map, 0, PAGE_BYTES as u64).unwrap();
    let frame = m.fs().stat("doomed").unwrap().page(0).unwrap();
    m.munmap(0, map).unwrap();

    let before = m.controller().nvm().wear().page_writes(frame);
    m.unlink(ALICE, "doomed").unwrap();
    let after = m.controller().nvm().wear().page_writes(frame);
    assert_eq!(after, before, "shredding must not write the data page");
    // Yet the content is unrecoverable (verified functionally elsewhere);
    // a DoD triple overwrite would have cost 3 * 64 line writes.
}

#[test]
fn wear_is_spread_across_metadata_and_data() {
    let mut m = machine();
    let h = m
        .create(ALICE, STAFF, "w", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    for i in 0..64u64 {
        m.write(0, map, i * 64, &[i as u8; 64]).unwrap();
        m.persist(0, map, i * 64, 64).unwrap();
    }
    let wear = m.controller().nvm().wear();
    assert!(wear.total_writes() > 64, "counters must add write traffic");
    assert!(wear.pages_touched() >= 2, "data page + metadata pages");
    assert!(wear.worst_wear_fraction() < 1e-3);
}

#[test]
fn fs_image_round_trips_through_media_after_crash() {
    // The on-media filesystem image is self-contained: a machine can
    // remount purely from the DIMM after losing all kernel state.
    let mut m = machine();
    let h = m
        .create(ALICE, STAFF, "remount-me", Mode::GROUP_RW, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    m.write(0, map, 0, b"image-backed").unwrap();
    m.persist(0, map, 0, 12).unwrap();
    m.sync_fs(0).unwrap();
    m.shutdown_flush().unwrap();

    m.crash();
    m.recover();
    // Blow away the in-memory filesystem entirely, then mount from media.
    m.mount_fs(0).unwrap();
    let h = m
        .open(ALICE, &[STAFF], "remount-me", AccessKind::Read, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    let mut buf = [0u8; 12];
    m.read(0, map, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"image-backed");
}

#[test]
fn mount_without_an_image_errors() {
    let mut m = machine();
    let err = m.mount_fs(0);
    assert!(err.is_err(), "fresh device has no image");
}

#[test]
fn torn_fs_image_fails_its_digest() {
    let mut m = machine();
    m.create(ALICE, STAFF, "f", Mode::PRIVATE, Some("pw"))
        .unwrap();
    m.sync_fs(0).unwrap();
    // A sync cut short: part of the image never reached the media.
    let image = m.opts().general_bytes + 64;
    m.heap_write(0, image + 40, &[0u8; 32]).unwrap();
    let err = m.mount_fs(0).unwrap_err();
    assert!(
        matches!(err, MachineError::Image(SnapError::BadDigest)),
        "{err}"
    );
}

#[test]
fn metadata_ops_write_the_journal() {
    let mut m = machine();
    m.begin_measurement();
    m.create(ALICE, STAFF, "j1", Mode::PRIVATE, None).unwrap();
    m.create(ALICE, STAFF, "j2", Mode::PRIVATE, None).unwrap();
    m.rename(ALICE, "j2", "j3").unwrap();
    m.chmod(ALICE, "j3", Mode::WIDE_OPEN).unwrap();
    m.unlink(ALICE, "j3").unwrap();
    let stats = m.measurement_snapshot();
    assert!(stats.nvm_writes >= 5, "five journaled ops: {stats:?}");
}

#[test]
fn crash_immediately_after_overflow_recovers_whole_page() {
    // The hardest recovery case: the very write that overflows a 7-bit
    // minor triggers a page re-encryption under major+1; crashing right
    // after must leave every line recoverable (two-phase persist + the
    // major+1 candidates in recovery).
    let mut m = machine();
    let h = m
        .create(ALICE, STAFF, "ovf", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    m.write(0, map, 128, b"innocent bystander").unwrap();
    m.persist(0, map, 128, 18).unwrap();
    for i in 0..128u32 {
        m.write(0, map, 0, &i.to_le_bytes()).unwrap();
        m.persist(0, map, 0, 4).unwrap();
    }
    assert!(
        m.snapshot().overflow_reencryptions >= 1,
        "overflow must have happened"
    );
    m.crash();
    let report = m.recover();
    assert_eq!(report.unrecoverable, 0, "{report:?}");
    let h = m
        .open(ALICE, &[STAFF], "ovf", AccessKind::Write, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    let mut buf = [0u8; 4];
    m.read(0, map, 0, &mut buf).unwrap();
    assert_eq!(buf, 127u32.to_le_bytes());
    let mut buf = [0u8; 18];
    m.read(0, map, 128, &mut buf).unwrap();
    assert_eq!(&buf, b"innocent bystander");
    // And the machine keeps working after the completed re-encryption.
    m.write(0, map, 0, b"post").unwrap();
    m.persist(0, map, 0, 4).unwrap();
    let mut buf = [0u8; 4];
    m.read(0, map, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"post");
}
