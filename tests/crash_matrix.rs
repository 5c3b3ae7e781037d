//! Crash-consistency matrix: crash points x security modes x workloads.

use fsencr::controller::MemError;
use fsencr::machine::{MapId, Machine, MachineError, MachineOpts, SecurityMode};
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
    for mode in [SecurityMode::Unencrypted, SecurityMode::MemoryOnly, SecurityMode::FsEncr] {
        for crash_at in [1u64, 7, 33, 130] {
            let mut m = machine(mode);
            let h = m.create(USER, GROUP, "db", Mode::PRIVATE, Some("pw")).unwrap();
            let map = m.mmap(&h).unwrap();
            let tree = BTreeKv::create(&mut m, 0, map).unwrap();
            for k in 0..crash_at {
                tree.put(&mut m, 0, k, &[k as u8; 48]).unwrap();
            }
            m.crash();
            let report = m.recover();
            assert_eq!(report.unrecoverable, 0, "{mode} crash@{crash_at}: {report:?}");

            let h = m.open(USER, &[GROUP], "db", AccessKind::Read, Some("pw")).unwrap();
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
    let h = m.create(USER, GROUP, "cyc", Mode::PRIVATE, Some("pw")).unwrap();
    let mut map = m.mmap(&h).unwrap();
    let mut tree = BTreeKv::create(&mut m, 0, map).unwrap();
    let mut next_key = 0u64;
    for cycle in 0..5 {
        for _ in 0..20 {
            tree.put(&mut m, 0, next_key, &next_key.to_le_bytes()).unwrap();
            next_key += 1;
        }
        m.crash();
        let report = m.recover();
        assert_eq!(report.unrecoverable, 0, "cycle {cycle}: {report:?}");
        let h = m.open(USER, &[GROUP], "cyc", AccessKind::Write, Some("pw")).unwrap();
        map = m.mmap(&h).unwrap();
        tree = BTreeKv::open(&mut m, 0, map).unwrap();
        let mut buf = Vec::new();
        for k in 0..next_key {
            assert!(tree.get(&mut m, 0, k, &mut buf).unwrap(), "cycle {cycle} key {k}");
        }
    }
    assert_eq!(next_key, 100);
}

/// Counters repaired by recovery keep decrypting correctly for
/// subsequent writes (no pad reuse after repair).
#[test]
fn writes_after_recovery_remain_consistent() {
    let mut m = machine(SecurityMode::FsEncr);
    let h = m.create(USER, GROUP, "f", Mode::PRIVATE, Some("pw")).unwrap();
    let mut map = m.mmap(&h).unwrap();
    for round in 0..3u8 {
        for i in 0..10u64 {
            m.write(0, map, i * 64, &[round * 16 + i as u8; 64]).unwrap();
            m.persist(0, map, i * 64, 64).unwrap();
        }
        m.crash();
        assert_eq!(m.recover().unrecoverable, 0);
        let h = m.open(USER, &[GROUP], "f", AccessKind::Write, Some("pw")).unwrap();
        map = m.mmap(&h).unwrap();
        let mut buf = [0u8; 64];
        for i in 0..10u64 {
            m.read(0, map, i * 64, &mut buf).unwrap();
            assert_eq!(buf, [round * 16 + i as u8; 64], "round {round} line {i}");
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
    let h = m.create(USER, GROUP, "q", Mode::PRIVATE, Some("pw")).unwrap();
    let map = m.mmap(&h).unwrap();
    m.write(0, map, 0, &[0x5a; 4096]).unwrap();
    m.persist(0, map, 0, 4096).unwrap();
    let frame = m.fs().stat("q").unwrap().page(0).unwrap();
    let meta_base = m.opts().general_bytes + m.opts().pmem_bytes;
    m.fault_plane().quarantine_line(meta_base + frame.get() * 128);
    m.crash();
    let report = m.recover();
    assert_eq!(report.metadata_reset, 1, "{report:?}");
    assert_eq!(report.quarantined, 64, "{report:?}");

    let h = m.open(USER, &[GROUP], "q", AccessKind::Read, Some("pw")).unwrap();
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

/// Writes and persists file lines 0, 1, 2, ... until exactly `pending`
/// ECC tags wait for their four-lane batch. Returns the machine, the
/// file's mapping and the number of lines written.
fn persist_until_pending(pending: usize) -> (Machine, MapId, u64) {
    let mut m = machine(SecurityMode::FsEncr);
    let h = m.create(USER, GROUP, "ecc", Mode::PRIVATE, Some("pw")).unwrap();
    let map = m.mmap(&h).unwrap();
    let mut n = 0u64;
    while n < 8 || m.controller().ecc().pending() != pending {
        m.write(0, map, n * 64, &ecc_line(n)).unwrap();
        m.persist(0, map, n * 64, 64).unwrap();
        n += 1;
    }
    (m, map, n)
}

fn assert_lines_read_back(m: &mut Machine, lines: u64, what: &str) {
    let h = m.open(USER, &[GROUP], "ecc", AccessKind::Read, Some("pw")).unwrap();
    let map = m.mmap(&h).unwrap();
    let mut buf = [0u8; 64];
    for n in 0..lines {
        m.read(0, map, n * 64, &mut buf).unwrap();
        assert_eq!(buf, ecc_line(n), "{what}: line {n}");
    }
}

/// ECC tags are hashed four at a time, so a power cut can catch up to
/// three recorded tags still waiting for their batch. Recovery, a
/// snapshot and a module export must each see those tags exactly as if
/// they had been hashed on record.
#[test]
fn pending_ecc_tags_survive_power_cut_snapshot_and_export() {
    for pending in 1..=3usize {
        let (mut live, _, lines) = persist_until_pending(pending);
        let tagged = live.controller().ecc().len();
        let image = live.save_snapshot().unwrap();

        // A restored store holds every tag settled; its image must equal
        // the one taken with tags pending.
        let opts = *live.opts();
        let mut restored = Machine::restore_snapshot(opts, SecurityMode::FsEncr, &image).unwrap();
        assert_eq!(restored.controller().ecc().pending(), 0);
        assert_eq!(restored.controller().ecc().len(), tagged, "{pending} pending");
        assert_eq!(restored.save_snapshot().unwrap(), image, "{pending} pending");

        // Cut power on both. Counters lag their lines (Osiris stop-loss),
        // so recovery must match the pending lines against their tags.
        live.crash();
        let report = live.recover();
        assert_eq!(report.unrecoverable, 0, "{pending} pending: {report:?}");
        assert!(report.repaired > 0, "{pending} pending: {report:?}");
        restored.crash();
        assert_eq!(restored.recover(), report, "{pending} pending: restored copy");
        assert_lines_read_back(&mut live, lines, &format!("{pending} pending, live"));
        assert_lines_read_back(&mut restored, lines, &format!("{pending} pending, restored"));

        // Export flushes the filesystem image (one whole batch) and then
        // the dirty data lines, whose tags are still pending when the
        // module leaves: they must travel with it.
        let (mut live, map, persisted) = persist_until_pending(0);
        live.shutdown_flush().unwrap();
        let lines = persisted + pending as u64;
        for n in persisted..lines {
            live.write(0, map, n * 64, &ecc_line(n)).unwrap();
        }
        let tagged = live.controller().ecc().len();
        let (envelope, module) = live.export_module().unwrap();
        let mut imported = Machine::import_module(&envelope, module).unwrap();
        assert_eq!(imported.controller().ecc().pending(), pending, "export scenario");
        assert_eq!(imported.controller().ecc().len(), tagged, "{pending} pending, imported");
        imported.crash();
        let report = imported.recover();
        assert_eq!(report.unrecoverable, 0, "{pending} pending, imported: {report:?}");
        assert_lines_read_back(&mut imported, lines, &format!("{pending} pending, imported"));
    }
}
