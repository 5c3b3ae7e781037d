//! End-to-end tests of the simulated machine across all security modes.

use fsencr::machine::{Machine, MachineOpts, SecurityMode};
use fsencr::security;
use fsencr_fs::{AccessKind, FsError, GroupId, Mode, UserId};
use fsencr_nvm::PAGE_BYTES;

const ALICE: UserId = UserId::new(1);
const BOB: UserId = UserId::new(2);
const STAFF: GroupId = GroupId::new(3);

fn all_modes() -> [SecurityMode; 4] {
    [
        SecurityMode::Unencrypted,
        SecurityMode::MemoryOnly,
        SecurityMode::FsEncr,
        SecurityMode::Software,
    ]
}

fn machine(mode: SecurityMode) -> Machine {
    Machine::new(MachineOpts::small_test(), mode)
}

#[test]
fn write_read_roundtrip_every_mode() {
    for mode in all_modes() {
        let mut m = machine(mode);
        let h = m
            .create(ALICE, STAFF, "f", Mode::PRIVATE, Some("pw"))
            .unwrap();
        let map = m.mmap(&h).unwrap();
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        m.write(0, map, 100, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        m.read(0, map, 100, &mut buf).unwrap();
        assert_eq!(buf, data, "{mode}");
    }
}

#[test]
fn unencrypted_plain_files_work_in_every_mode() {
    for mode in all_modes() {
        let mut m = machine(mode);
        let h = m
            .create(ALICE, STAFF, "plain", Mode::PRIVATE, None)
            .unwrap();
        let map = m.mmap(&h).unwrap();
        m.write(0, map, 0, b"plain data").unwrap();
        let mut buf = [0u8; 10];
        m.read(0, map, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"plain data", "{mode}");
    }
}

#[test]
fn reads_see_writes_across_cache_pressure() {
    // Write far more data than the hierarchy holds, then verify all.
    let mut m = machine(SecurityMode::FsEncr);
    let h = m
        .create(ALICE, STAFF, "big", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    let page = vec![0xabu8; PAGE_BYTES];
    for p in 0..64u64 {
        let mut data = page.clone();
        data[0] = p as u8;
        m.write(0, map, p * PAGE_BYTES as u64, &data).unwrap();
    }
    for p in 0..64u64 {
        let mut buf = vec![0u8; PAGE_BYTES];
        m.read(0, map, p * PAGE_BYTES as u64, &mut buf).unwrap();
        assert_eq!(buf[0], p as u8);
        assert!(buf[1..].iter().all(|&b| b == 0xab), "page {p}");
    }
}

#[test]
fn time_advances_and_modes_rank_sensibly() {
    // For the same persistent workload: software encryption must be the
    // slowest by far; FsEncr must cost no less than baseline security.
    let mut cycles = std::collections::HashMap::new();
    for mode in all_modes() {
        let mut m = machine(mode);
        let h = m
            .create(ALICE, STAFF, "w", Mode::PRIVATE, Some("pw"))
            .unwrap();
        let map = m.mmap(&h).unwrap();
        m.begin_measurement();
        let val = [7u8; 256];
        for i in 0..200u64 {
            let off = (i * striding(i)) % (64 * PAGE_BYTES as u64 - 256);
            m.write(0, map, off, &val).unwrap();
            // Durable commit: DAX modes persist in place; software
            // encryption pays the msync page-crypto toll.
            m.msync(0, map, off, 256).unwrap();
            let mut buf = [0u8; 256];
            m.read(0, map, off, &mut buf).unwrap();
        }
        cycles.insert(format!("{mode}"), m.measurement_snapshot().cycles);
    }
    let dax = cycles["ext4-dax"] as f64;
    let base = cycles["baseline-security"] as f64;
    let fse = cycles["fsencr"] as f64;
    let soft = cycles["software-encryption"] as f64;
    assert!(base >= dax, "encryption cannot be free");
    assert!(fse >= base * 0.99, "fsencr adds overhead over baseline");
    assert!(
        soft > fse * 1.5,
        "software encryption must be much slower: soft={soft} fse={fse}"
    );
}

fn striding(i: u64) -> u64 {
    // pseudo-random-ish stride pattern
    1 + (i.wrapping_mul(2654435761) % 4096)
}

#[test]
fn persist_survives_crash_with_recovery() {
    let mut m = machine(SecurityMode::FsEncr);
    let h = m
        .create(ALICE, STAFF, "db", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    m.write(0, map, 0, b"committed-record").unwrap();
    m.persist(0, map, 0, 16).unwrap();

    m.crash();
    let report = m.recover();
    assert_eq!(report.unrecoverable, 0, "{report:?}");

    // Remount: open and re-map the file.
    let h = m
        .open(ALICE, &[STAFF], "db", AccessKind::Read, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    let mut buf = [0u8; 16];
    m.read(0, map, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"committed-record");
}

#[test]
fn osiris_repairs_unpersisted_counter_updates() {
    // Hammer the same line with persists so the cached counters run ahead
    // of their media copies, then crash: recovery must repair via ECC.
    let mut m = machine(SecurityMode::FsEncr);
    let h = m
        .create(ALICE, STAFF, "hot", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    for i in 0..13u8 {
        m.write(0, map, 0, &[i; 64]).unwrap();
        m.persist(0, map, 0, 64).unwrap();
    }
    m.crash();
    let report = m.recover();
    assert_eq!(report.unrecoverable, 0, "{report:?}");
    let h = m
        .open(ALICE, &[STAFF], "hot", AccessKind::Read, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    let mut buf = [0u8; 64];
    m.read(0, map, 0, &mut buf).unwrap();
    assert_eq!(buf, [12u8; 64]);
}

#[test]
fn unpersisted_data_is_lost_on_crash() {
    let mut m = machine(SecurityMode::FsEncr);
    let h = m
        .create(ALICE, STAFF, "v", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    m.write(0, map, 0, b"persisted!").unwrap();
    m.persist(0, map, 0, 10).unwrap();
    m.write(0, map, 4096, b"volatile").unwrap(); // no persist
    m.crash();
    m.recover();
    let h = m
        .open(ALICE, &[STAFF], "v", AccessKind::Read, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    let mut buf = [0u8; 10];
    m.read(0, map, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"persisted!");
    let mut buf = [0u8; 8];
    m.read(0, map, 4096, &mut buf).unwrap();
    assert_ne!(&buf, b"volatile", "unflushed data must not survive");
}

#[test]
fn media_tampering_is_detected_on_read() {
    let mut m = machine(SecurityMode::FsEncr);
    let h = m
        .create(ALICE, STAFF, "t", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    m.write(0, map, 0, b"important").unwrap();
    m.persist(0, map, 0, 9).unwrap();
    m.shutdown_flush().unwrap();
    m.crash(); // drop trusted cached metadata

    // Attacker corrupts the page's FECB on media.
    let frame = m.fs().stat("t").unwrap().page(0).unwrap();
    let fecb_addr = fsencr_nvm::PhysAddr::new(m.controller().layout().fecb_addr(frame).get());
    let mut evil = m.controller().nvm().peek_line(fecb_addr);
    evil[4] ^= 0x01;
    m.controller_mut().tamper_line(fecb_addr, &evil);

    let h = m
        .open(ALICE, &[STAFF], "t", AccessKind::Read, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    let mut buf = [0u8; 9];
    let err = m.read(0, map, 0, &mut buf).unwrap_err();
    assert!(
        matches!(err, fsencr::machine::MachineError::Mem(_)),
        "{err}"
    );
}

#[test]
fn unlink_shreds_content() {
    let mut m = machine(SecurityMode::FsEncr);
    let secret = b"SHRED-ME-SECRET-CONTENT-123456";
    let h = m
        .create(ALICE, STAFF, "tmp", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    m.write(0, map, 0, secret).unwrap();
    m.persist(0, map, 0, secret.len() as u64).unwrap();
    let frame = m.fs().stat("tmp").unwrap().page(0).unwrap();
    m.munmap(0, map).unwrap();
    m.unlink(ALICE, "tmp").unwrap();

    // Old ciphertext may remain physically, but no decryption path exists:
    // create a new file reusing the frame and verify the old plaintext is
    // not recoverable through any read.
    let h2 = m
        .create(ALICE, STAFF, "new", Mode::PRIVATE, Some("pw2"))
        .unwrap();
    let map2 = m.mmap(&h2).unwrap();
    let mut probe = vec![0u8; PAGE_BYTES];
    m.read(0, map2, 0, &mut probe).unwrap();
    let new_frame = m.fs().stat("new").unwrap().page(0).unwrap();
    assert_eq!(new_frame, frame, "allocator must reuse the shredded frame");
    assert!(
        !probe.windows(secret.len()).any(|w| w == secret),
        "shredded data resurfaced"
    );
    assert!(!security::media_contains(&m, secret));
}

#[test]
fn boot_lockout_garbles_file_reads() {
    let mut m = machine(SecurityMode::FsEncr);
    let h = m
        .create(ALICE, STAFF, "locked", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    m.write(0, map, 0, b"admin-only-data!").unwrap();
    m.persist(0, map, 0, 16).unwrap();
    m.shutdown_flush().unwrap();

    // Attacker reboots into their own OS: volatile caches are gone and
    // the failed admin authentication locks the file engine.
    let frame = m.fs().stat("locked").unwrap().page(0).unwrap();
    m.crash();
    m.recover();
    m.controller_mut().lock_file_engine();
    let line = fsencr_nvm::PhysAddr::new(frame.get() * PAGE_BYTES as u64);
    let t = m.elapsed();
    let (garbled, _) = m.controller_mut().read_line(t, line).unwrap();
    assert_ne!(
        &garbled[..16],
        b"admin-only-data!",
        "lockout must hide plaintext"
    );

    // Successful re-authentication restores access.
    m.controller_mut().unlock_file_engine();
    let mut buf = [0u8; 16];
    let h = m
        .open(ALICE, &[STAFF], "locked", AccessKind::Read, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    m.read(0, map, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"admin-only-data!");
}

#[test]
fn rekey_preserves_data_and_changes_media() {
    let mut m = machine(SecurityMode::FsEncr);
    let h = m
        .create(ALICE, STAFF, "r", Mode::PRIVATE, Some("old-pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    m.write(0, map, 0, b"rotate me").unwrap();
    m.persist(0, map, 0, 9).unwrap();
    m.shutdown_flush().unwrap();
    let frame = m.fs().stat("r").unwrap().page(0).unwrap();
    let before = m
        .controller()
        .nvm()
        .peek_line(fsencr_nvm::PhysAddr::new(frame.get() * PAGE_BYTES as u64));

    m.rekey(ALICE, "r", "old-pw", "new-pw").unwrap();
    m.shutdown_flush().unwrap();

    let after = m
        .controller()
        .nvm()
        .peek_line(fsencr_nvm::PhysAddr::new(frame.get() * PAGE_BYTES as u64));
    assert_ne!(before, after, "ciphertext must change under the new key");

    // Old passphrase no longer opens; new one reads the same data.
    assert!(matches!(
        m.open(ALICE, &[STAFF], "r", AccessKind::Read, Some("old-pw")),
        Err(fsencr::machine::MachineError::Fs(FsError::BadPassphrase))
    ));
    let h = m
        .open(ALICE, &[STAFF], "r", AccessKind::Read, Some("new-pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    let mut buf = [0u8; 9];
    m.read(0, map, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"rotate me");
}

#[test]
fn software_mode_page_cache_behaves() {
    let mut m = machine(SecurityMode::Software);
    let h = m
        .create(ALICE, STAFF, "sw", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    // touch more pages than the page cache holds to force evictions
    let pages = m.opts().softencr.page_cache_pages + 8;
    for p in 0..pages {
        let tag = [(p % 251) as u8; 32];
        m.write(0, map, (p * PAGE_BYTES) as u64, &tag).unwrap();
    }
    m.persist(0, map, 0, 0).unwrap(); // fsync
    for p in 0..pages {
        let mut buf = [0u8; 32];
        m.read(0, map, (p * PAGE_BYTES) as u64, &mut buf).unwrap();
        assert_eq!(buf, [(p % 251) as u8; 32], "page {p}");
    }
}

#[test]
fn software_mode_hides_plaintext_on_media_after_sync() {
    let mut m = machine(SecurityMode::Software);
    let secret = b"SOFTWARE-ENCRYPTED-SECRET-42";
    let h = m
        .create(ALICE, STAFF, "sw2", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    m.write(0, map, 0, secret).unwrap();
    m.persist(0, map, 0, 0).unwrap();
    m.munmap(0, map).unwrap();
    m.shutdown_flush().unwrap();
    assert!(!security::media_contains(&m, secret));
}

#[test]
fn out_of_bounds_and_bad_map_rejected() {
    use fsencr::machine::MachineError::OutOfBounds;
    const MAP_BYTES: u64 = 1 << 30; // every mapping spans 1 GiB
    for mode in all_modes() {
        let mut m = machine(mode);
        let h = m
            .create(ALICE, STAFF, "b", Mode::PRIVATE, Some("pw"))
            .unwrap();
        let map = m.mmap(&h).unwrap();
        let next = m.mmap(&h).unwrap();
        m.write(0, next, 0, b"next").unwrap();
        assert_eq!(
            m.write(0, map, u64::MAX - 10, b"xx"),
            Err(OutOfBounds),
            "{mode}"
        );
        // `offset + len` wraps past u64::MAX: no page 2^52 is faulted in.
        assert_eq!(m.write(0, map, u64::MAX, b"hi"), Err(OutOfBounds), "{mode}");
        let mut buf = [0u8; 2];
        assert_eq!(
            m.read(0, map, u64::MAX, &mut buf),
            Err(OutOfBounds),
            "{mode}"
        );
        assert_eq!(m.persist(0, map, u64::MAX, 2), Err(OutOfBounds), "{mode}");
        // A range past the mapping is refused before a line is walked,
        // and never reaches the next mapping's pages.
        assert_eq!(m.persist(0, map, 0, 1 << 40), Err(OutOfBounds), "{mode}");
        assert_eq!(
            m.persist(0, map, MAP_BYTES - 64, 128),
            Err(OutOfBounds),
            "{mode}"
        );
        m.persist(0, map, MAP_BYTES - 1, 1).unwrap();
        m.read(0, next, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"ne", "{mode}");
        m.munmap(0, map).unwrap();
        assert!(m.read(0, map, 0, &mut buf).is_err(), "{mode}");
    }
}

#[test]
fn permissions_flow_through_machine() {
    let mut m = machine(SecurityMode::FsEncr);
    m.create(ALICE, STAFF, "priv", Mode::PRIVATE, Some("pw"))
        .unwrap();
    assert!(matches!(
        m.open(BOB, &[STAFF], "priv", AccessKind::Read, Some("pw")),
        Err(fsencr::machine::MachineError::Fs(FsError::PermissionDenied))
    ));
    m.chmod(ALICE, "priv", Mode::WIDE_OPEN).unwrap();
    // mode now allows, but wrong passphrase still fails (paper's chmod-777
    // defence)
    assert!(matches!(
        m.open(BOB, &[STAFF], "priv", AccessKind::Read, Some("guess")),
        Err(fsencr::machine::MachineError::Fs(FsError::BadPassphrase))
    ));
    assert!(m
        .open(BOB, &[STAFF], "priv", AccessKind::Read, Some("pw"))
        .is_ok());
}

#[test]
fn multicore_threads_share_files_correctly() {
    let mut m = machine(SecurityMode::FsEncr);
    let h = m
        .create(ALICE, STAFF, "shared", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    // Core 0 writes, core 1 reads (snoop path).
    m.write(0, map, 0, b"from-core-0").unwrap();
    let mut buf = [0u8; 11];
    m.read(1, map, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"from-core-0");
    // Interleaved per-core regions.
    for core in 0..2usize {
        let off = 8192 + core as u64 * PAGE_BYTES as u64;
        m.write(core, map, off, &[core as u8 + 1; 128]).unwrap();
        m.persist(core, map, off, 128).unwrap();
    }
    for core in 0..2usize {
        let off = 8192 + core as u64 * PAGE_BYTES as u64;
        let mut buf = [0u8; 128];
        m.read(1 - core, map, off, &mut buf).unwrap();
        assert_eq!(buf, [core as u8 + 1; 128]);
    }
}

#[test]
fn measurement_counters_move() {
    let mut m = machine(SecurityMode::FsEncr);
    let h = m
        .create(ALICE, STAFF, "stats", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    m.begin_measurement();
    for i in 0..32u64 {
        m.write(0, map, i * 4096, &[1u8; 64]).unwrap();
        m.persist(0, map, i * 4096, 64).unwrap();
    }
    let stats = m.measurement_snapshot();
    assert!(stats.cycles > 0);
    assert!(stats.nvm_writes >= 32, "persists must reach the device");
    assert!(stats.file_accesses > 0, "file engine must engage");
    assert!(stats.meta_hit_rate() > 0.0);
}

#[test]
fn heap_roundtrip() {
    let mut m = machine(SecurityMode::MemoryOnly);
    let addr = PAGE_BYTES as u64;
    let data: Vec<u8> = (0..1000u32).map(|i| (i % 256) as u8).collect();
    m.heap_write(0, addr, &data).unwrap();
    let mut buf = vec![0u8; 1000];
    m.heap_read(0, addr, &mut buf).unwrap();
    assert_eq!(buf, data);
}

#[test]
#[should_panic(expected = "general region too small for the software page cache")]
fn page_cache_must_fit_general_memory() {
    let mut opts = MachineOpts::small_test();
    // 256 frames plus the reserved first page outgrow 1 MiB.
    opts.softencr.page_cache_pages = 256;
    Machine::new(opts, SecurityMode::Software);
}

#[test]
fn read_only_mappings_reject_writes() {
    let mut m = machine(SecurityMode::FsEncr);
    let h = m
        .create(ALICE, STAFF, "ro", Mode::GROUP_RW, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    m.write(0, map, 0, b"initial").unwrap();
    m.persist(0, map, 0, 7).unwrap();

    let ro = m
        .open(ALICE, &[STAFF], "ro", AccessKind::Read, Some("pw"))
        .unwrap();
    assert!(!ro.writable);
    let ro_map = m.mmap(&ro).unwrap();
    let mut buf = [0u8; 7];
    m.read(0, ro_map, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"initial");
    let err = m.write(0, ro_map, 0, b"nope").unwrap_err();
    assert!(matches!(
        err,
        fsencr::machine::MachineError::Fs(FsError::PermissionDenied)
    ));
}

#[test]
fn rename_keeps_content_and_keys() {
    let mut m = machine(SecurityMode::FsEncr);
    let h = m
        .create(ALICE, STAFF, "old-name", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    m.write(0, map, 0, b"renamed payload").unwrap();
    m.persist(0, map, 0, 15).unwrap();

    m.rename(ALICE, "old-name", "new-name").unwrap();
    assert!(m.fs().stat("old-name").is_none());
    // The old mapping stays valid (rename does not move data)...
    let mut buf = [0u8; 15];
    m.read(0, map, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"renamed payload");
    // ...and the new name opens with the same key.
    let h2 = m
        .open(ALICE, &[STAFF], "new-name", AccessKind::Read, Some("pw"))
        .unwrap();
    assert_eq!(h2.fek, h.fek);
    // Renaming onto an existing name is rejected.
    m.create(ALICE, STAFF, "third", Mode::PRIVATE, None)
        .unwrap();
    assert!(m.rename(ALICE, "new-name", "third").is_err());
    // Only the owner may rename.
    assert!(m.rename(BOB, "new-name", "stolen").is_err());
}

#[test]
fn machine_events_record_lifecycle_in_order() {
    let mut m = machine(SecurityMode::FsEncr);
    m.enable_observer(1 << 12);
    let h = m
        .create(ALICE, STAFF, "traced", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    m.write(0, map, 0, b"x").unwrap();
    m.persist(0, map, 0, 1).unwrap();
    m.munmap(0, map).unwrap();
    m.unlink(ALICE, "traced").unwrap();
    m.crash();
    let report = m.recover();

    assert_eq!(m.observer().spans_dropped(), 0);
    let events: Vec<_> = m
        .observer()
        .spans()
        .filter(|s| s.cat == "machine")
        .copied()
        .collect();
    let pos = |name: &str| events.iter().position(|e| e.name == name);
    let install = pos("key_install").expect("install");
    let fault = pos("page_fault").expect("fault");
    let shred = pos("shred").expect("shred");
    let remove = pos("key_remove").expect("remove");
    let crash = pos("crash").expect("crash");
    let recover = pos("recover").expect("recover");
    assert!(install < fault, "key installed before first access");
    assert!(fault < shred && shred < remove, "deletion after use");
    assert!(crash < recover);
    // Events are zero-length and their timestamps are monotone.
    assert!(events.iter().all(|e| e.duration() == 0));
    let times: Vec<u64> = events.iter().map(|e| e.begin).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
    // Recovery found nothing unrecoverable.
    assert_eq!(events[recover].arg, 0);
    assert_eq!(report.unrecoverable, 0);
}

#[test]
fn chown_writes_one_journal_record() {
    let mut m = machine(SecurityMode::FsEncr);
    m.create(ALICE, STAFF, "owned", Mode::PRIVATE, None)
        .unwrap();
    m.enable_observer(1 << 12);
    let before = m.now(0);
    m.chown(UserId::ROOT, "owned", BOB, STAFF).unwrap();
    assert!(m.now(0) > before, "the journal record costs time");
    let journal: Vec<u64> = m
        .observer()
        .spans()
        .filter(|s| s.cat == "machine" && s.name == "journal")
        .map(|s| s.arg)
        .collect();
    assert_eq!(journal, [5], "chown journals once, with op code 5");
    assert_eq!(m.fs().stat("owned").unwrap().owner(), BOB);
}
