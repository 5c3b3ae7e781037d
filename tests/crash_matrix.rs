//! Crash-consistency matrix: crash points x security modes x workloads.

use fsencr::controller::MemError;
use fsencr::machine::{Machine, MachineError, MachineOpts, MapId, SecurityMode};
use fsencr_fs::{AccessKind, GroupId, Mode, UserId};
use fsencr_workloads::kv::BTreeKv;

const USER: UserId = UserId::new(1);
const GROUP: GroupId = GroupId::new(1);

fn machine(mode: SecurityMode) -> Machine {
    let mut opts = MachineOpts::small_test();
    opts.pmem_bytes = 8 << 20;
    Machine::new(opts, mode)
}

/// Crash after every k-th insert; everything persisted before the crash
/// must survive, in every DAX security mode.
#[test]
fn btree_survives_crashes_at_many_points() {
    for mode in [
        SecurityMode::Unencrypted,
        SecurityMode::MemoryOnly,
        SecurityMode::FsEncr,
    ] {
        for crash_at in [1u64, 7, 33, 130] {
            let mut m = machine(mode);
            let h = m
                .create(USER, GROUP, "db", Mode::PRIVATE, Some("pw"))
                .unwrap();
            let map = m.mmap(&h).unwrap();
            let tree = BTreeKv::create(&mut m, 0, map).unwrap();
            for k in 0..crash_at {
                tree.put(&mut m, 0, k, &[k as u8; 48]).unwrap();
            }
            m.crash();
            let report = m.recover();
            assert_eq!(
                report.unrecoverable, 0,
                "{mode} crash@{crash_at}: {report:?}"
            );

            let h = m
                .open(USER, &[GROUP], "db", AccessKind::Read, Some("pw"))
                .unwrap();
            let map = m.mmap(&h).unwrap();
            let tree = BTreeKv::open(&mut m, 0, map).unwrap();
            let mut buf = Vec::new();
            for k in 0..crash_at {
                assert!(
                    tree.get(&mut m, 0, k, &mut buf).unwrap(),
                    "{mode} crash@{crash_at}: key {k} lost"
                );
                assert_eq!(buf, [k as u8; 48]);
            }
        }
    }
}

/// Repeated crash/recover cycles must not degrade the store.
#[test]
fn repeated_crash_cycles() {
    let mut m = machine(SecurityMode::FsEncr);
    let h = m
        .create(USER, GROUP, "cyc", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let mut map = m.mmap(&h).unwrap();
    let mut tree = BTreeKv::create(&mut m, 0, map).unwrap();
    let mut next_key = 0u64;
    for cycle in 0..5 {
        for _ in 0..20 {
            tree.put(&mut m, 0, next_key, &next_key.to_le_bytes())
                .unwrap();
            next_key += 1;
        }
        m.crash();
        let report = m.recover();
        assert_eq!(report.unrecoverable, 0, "cycle {cycle}: {report:?}");
        let h = m
            .open(USER, &[GROUP], "cyc", AccessKind::Write, Some("pw"))
            .unwrap();
        map = m.mmap(&h).unwrap();
        tree = BTreeKv::open(&mut m, 0, map).unwrap();
        let mut buf = Vec::new();
        for k in 0..next_key {
            assert!(
                tree.get(&mut m, 0, k, &mut buf).unwrap(),
                "cycle {cycle} key {k}"
            );
        }
    }
    assert_eq!(next_key, 100);
}

/// Software mode: a power cut drops the page cache with its frames, and
/// the frames go back to the allocator. Each cycle writes, syncs, crashes
/// and reads back a page-cache-sized file; leaked frames would exhaust
/// general memory within a few cycles.
#[test]
fn software_page_cache_survives_repeated_crashes() {
    let opts = MachineOpts::small_test();
    let pages = opts.softencr.page_cache_pages as u64;
    let mut m = Machine::new(opts, SecurityMode::Software);
    let h = m
        .create(USER, GROUP, "sw", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let mut map = m.mmap(&h).unwrap();
    let mut buf = [0u8; 4096];
    for cycle in 0..8u8 {
        for page in 0..pages {
            m.write(0, map, page * 4096, &[cycle ^ page as u8; 4096])
                .unwrap();
        }
        m.msync(0, map, 0, pages * 4096).unwrap();
        m.crash();
        let report = m.recover();
        assert_eq!(report.unrecoverable, 0, "cycle {cycle}: {report:?}");
        let h = m
            .open(USER, &[GROUP], "sw", AccessKind::Write, Some("pw"))
            .unwrap();
        map = m.mmap(&h).unwrap();
        for page in 0..pages {
            m.read(0, map, page * 4096, &mut buf).unwrap();
            assert_eq!(buf, [cycle ^ page as u8; 4096], "cycle {cycle} page {page}");
        }
    }
}

/// Counters repaired by recovery keep decrypting correctly for
/// subsequent writes (no pad reuse after repair), at any Osiris
/// stop-loss: recovery tries at most `MINOR_LIMIT` counter candidates per
/// line, so periods past the 7-bit minor range recover too.
#[test]
fn writes_after_recovery_remain_consistent() {
    for stop_loss in [4, 127, 128, u32::MAX] {
        let mut opts = MachineOpts::small_test();
        opts.pmem_bytes = 8 << 20;
        opts.config.security.osiris_stop_loss = stop_loss;
        let mut m = Machine::new(opts, SecurityMode::FsEncr);
        let h = m
            .create(USER, GROUP, "f", Mode::PRIVATE, Some("pw"))
            .unwrap();
        let mut map = m.mmap(&h).unwrap();
        for round in 0..3u8 {
            for i in 0..10u64 {
                m.write(0, map, i * 64, &[round * 16 + i as u8; 64])
                    .unwrap();
                m.persist(0, map, i * 64, 64).unwrap();
            }
            m.crash();
            assert_eq!(m.recover().unrecoverable, 0, "stop-loss {stop_loss}");
            let h = m
                .open(USER, &[GROUP], "f", AccessKind::Write, Some("pw"))
                .unwrap();
            map = m.mmap(&h).unwrap();
            let mut buf = [0u8; 64];
            for i in 0..10u64 {
                m.read(0, map, i * 64, &mut buf).unwrap();
                let want = [round * 16 + i as u8; 64];
                assert_eq!(buf, want, "stop-loss {stop_loss} round {round} line {i}");
            }
        }
    }
}

/// A crash in the middle of nothing (clean boot) recovers trivially.
#[test]
fn recovery_on_untouched_machine_is_a_noop() {
    let mut m = machine(SecurityMode::FsEncr);
    m.crash();
    let report = m.recover();
    assert_eq!(report.clean + report.repaired + report.unrecoverable, 0);
}

/// Unencrypted machines have no counters to recover but the API still
/// behaves.
#[test]
fn unencrypted_recovery_reports_empty() {
    let mut m = machine(SecurityMode::Unencrypted);
    let h = m.create(USER, GROUP, "p", Mode::PRIVATE, None).unwrap();
    let map = m.mmap(&h).unwrap();
    m.write(0, map, 0, b"plaintext persists trivially").unwrap();
    m.persist(0, map, 0, 28).unwrap();
    m.crash();
    let report = m.recover();
    assert_eq!(report, fsencr::controller::RecoveryReport::default());
    let h = m.open(USER, &[GROUP], "p", AccessKind::Read, None).unwrap();
    let map = m.mmap(&h).unwrap();
    let mut buf = [0u8; 28];
    m.read(0, map, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"plaintext persists trivially");
}

/// A quarantined MECB is reset to zero by the recovery rebuild. Every
/// line of its page would then decrypt under zero counters, so each read
/// must fail with a typed integrity error instead of returning garbage.
#[test]
fn reset_counter_block_fences_its_page() {
    let mut m = machine(SecurityMode::FsEncr);
    let h = m
        .create(USER, GROUP, "q", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    m.write(0, map, 0, &[0x5a; 4096]).unwrap();
    m.persist(0, map, 0, 4096).unwrap();
    let frame = m.fs().stat("q").unwrap().page(0).unwrap();
    let mecb = m.controller().layout().mecb_addr(frame);
    m.controller_mut().quarantine_line(mecb.get());
    m.crash();
    let report = m.recover();
    assert_eq!(report.metadata_reset, 1, "{report:?}");
    assert_eq!(report.quarantined, 64, "{report:?}");

    let h = m
        .open(USER, &[GROUP], "q", AccessKind::Read, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    let mut buf = [0u8; 64];
    for line in 0..64u64 {
        match m.read(0, map, line * 64, &mut buf) {
            Err(MachineError::Mem(MemError::Integrity(_))) => {}
            other => panic!("line {line}: {other:?} (read {buf:?})"),
        }
    }
}

fn ecc_line(n: u64) -> [u8; 64] {
    let mut line = [0u8; 64];
    for (i, b) in line.iter_mut().enumerate() {
        *b = (n as u8).wrapping_mul(29).wrapping_add(i as u8);
    }
    line
}

/// Writes and persists file lines `0..lines`. Returns the machine and
/// the file's mapping.
fn persist_lines(lines: u64) -> (Machine, MapId) {
    let mut m = machine(SecurityMode::FsEncr);
    let h = m
        .create(USER, GROUP, "ecc", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    for n in 0..lines {
        m.write(0, map, n * 64, &ecc_line(n)).unwrap();
        m.persist(0, map, n * 64, 64).unwrap();
    }
    (m, map)
}

fn assert_lines_read_back(m: &mut Machine, lines: u64, what: &str) {
    let h = m
        .open(USER, &[GROUP], "ecc", AccessKind::Read, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    let mut buf = [0u8; 64];
    for n in 0..lines {
        m.read(0, map, n * 64, &mut buf).unwrap();
        assert_eq!(buf, ecc_line(n), "{what}: line {n}");
    }
}

/// Counters lag their lines (Osiris stop-loss), so after a power cut
/// recovery must match the persisted lines against their ECC checks. A
/// snapshot and a module export must carry every check with them.
#[test]
fn ecc_tags_survive_power_cut_snapshot_and_export() {
    for lines in 8..=11u64 {
        let (mut live, _) = persist_lines(lines);
        let image = live.save_snapshot().unwrap();
        let opts = *live.opts();
        let mut restored = Machine::restore_snapshot(opts, SecurityMode::FsEncr, &image).unwrap();
        assert_eq!(restored.save_snapshot().unwrap(), image, "{lines} lines");

        live.crash();
        let report = live.recover();
        assert_eq!(report.unrecoverable, 0, "{lines} lines: {report:?}");
        assert!(report.repaired > 0, "{lines} lines: {report:?}");
        restored.crash();
        assert_eq!(restored.recover(), report, "{lines} lines: restored copy");
        assert_lines_read_back(&mut live, lines, &format!("{lines} lines, live"));
        assert_lines_read_back(&mut restored, lines, &format!("{lines} lines, restored"));

        // Export flushes the filesystem image and then the dirty data
        // lines written after it: their checks must travel with the
        // module.
        let (mut live, map) = persist_lines(8);
        live.shutdown_flush().unwrap();
        for n in 8..lines {
            live.write(0, map, n * 64, &ecc_line(n)).unwrap();
        }
        let (envelope, module) = live.export_module().unwrap();
        let mut imported = Machine::import_module(&envelope, module).unwrap();
        imported.crash();
        let report = imported.recover();
        assert_eq!(
            report.unrecoverable, 0,
            "{lines} lines, imported: {report:?}"
        );
        assert_lines_read_back(&mut imported, lines, &format!("{lines} lines, imported"));
    }
}

/// Recovery visits pages in ascending order: each OTT lookup refreshes
/// an LRU stamp, so identical machines must recover to identical states.
#[test]
fn recovery_is_deterministic() {
    let run = || {
        let mut m = Machine::new(MachineOpts::small_test(), SecurityMode::FsEncr);
        for f in 0..4u8 {
            let h = m
                .create(USER, GROUP, &format!("f{f}"), Mode::PRIVATE, Some("pw"))
                .unwrap();
            let map = m.mmap(&h).unwrap();
            for page in 0..4u8 {
                let off = u64::from(page) * 4096;
                m.write(0, map, off, &[f * 4 + page; 64]).unwrap();
                m.persist(0, map, off, 64).unwrap();
            }
        }
        m.crash();
        let report = m.recover();
        assert_eq!(report.unrecoverable, 0, "{report:?}");
        m.save_snapshot().unwrap()
    };
    let first = run();
    for attempt in 1..16 {
        assert!(
            run() == first,
            "run {attempt} recovered to a different state"
        );
    }
}

/// Each engine's counter step on its own. Memory-only writes (file
/// engine locked) move line 0's MECB minor 60 ahead of its FECB minor,
/// so hammering line 0 overflows the MECB alone and, later, the FECB
/// alone. A crash right after each page re-encryption must lose
/// nothing: the last acknowledged value and an untouched bystander line
/// both read back.
#[test]
fn one_engine_overflow_survives_crash() {
    let mut m = machine(SecurityMode::FsEncr);
    let h = m
        .create(USER, GROUP, "ovf", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let mut map = m.mmap(&h).unwrap();
    let bystander = [0xb7u8; 64];
    m.write(0, map, 64, &bystander).unwrap();
    m.persist(0, map, 64, 64).unwrap();
    m.controller_mut().lock_file_engine();
    for i in 0..60u8 {
        m.write(0, map, 0, &[0x80 | i; 64]).unwrap();
        m.persist(0, map, 0, 64).unwrap();
    }
    m.controller_mut().unlock_file_engine();

    // Line 0's MECB minor now leads its FECB minor by 60: the MECB
    // overflows first, on the 67th write, and the FECB follows on the
    // 60th write of the next round. After every write the round has
    // seen no page re-encryption until its last write and exactly one
    // then; both engines overflowing together would count two.
    let mut value = 0u8;
    for (engine, writes) in [("MECB", 67u32), ("FECB", 60)] {
        let before = m.measurement_snapshot().overflow_reencryptions;
        let mut last = [0u8; 64];
        for n in 1..=writes {
            value += 1;
            last = [value; 64];
            m.write(0, map, 0, &last).unwrap();
            m.persist(0, map, 0, 64).unwrap();
            let done = m.measurement_snapshot().overflow_reencryptions - before;
            assert_eq!(done, u64::from(n == writes), "{engine}: write {n}");
        }
        m.crash();
        let report = m.recover();
        assert_eq!(report.unrecoverable, 0, "{engine}: {report:?}");
        let h = m
            .open(USER, &[GROUP], "ovf", AccessKind::Write, Some("pw"))
            .unwrap();
        map = m.mmap(&h).unwrap();
        let mut buf = [0u8; 64];
        m.read(0, map, 0, &mut buf).unwrap();
        assert_eq!(buf, last, "{engine}: last acknowledged value");
        m.read(0, map, 64, &mut buf).unwrap();
        assert_eq!(buf, bystander, "{engine}: bystander line");
    }
}
