//! Crash-consistency matrix: crash points x security modes x workloads.

use fsencr::controller::MemError;
use fsencr::machine::{Machine, MachineError, MachineOpts, SecurityMode};
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
