//! Oracle replay: the paper's security argument, executed.
//!
//! The figure workloads, a passphrase rekey and Osiris crash recovery
//! all run with the runtime security oracles armed — the pad-uniqueness
//! ledger panics if any (key, IV) counter-mode pad is ever issued twice
//! over different content, and the Merkle-coverage walker panics if a
//! persisted metadata line is not reachable from the on-chip root. A
//! clean run here is the paper's counter-discipline and
//! coverage-invariant claims holding over the real datapath, not over a
//! hand-picked unit-test slice.
//!
//! The oracles must also be *free* when disarmed: every figure cell run
//! with its machine unarmed has to measure exactly the same counters,
//! proving the shipping figures owe nothing to observer effects.

use fsencr::machine::{Machine, MachineOpts, SecurityMode};
use fsencr_bench::{pool, profile_cells};
use fsencr_fs::{AccessKind, GroupId, Mode, UserId};
use fsencr_workloads::run_workload;

const ALICE: UserId = UserId::new(1);
const STAFF: GroupId = GroupId::new(3);

#[test]
fn figure_workloads_replay_clean_under_oracles_and_identically_without() {
    // Whisper in all four modes (fig11's cells include every fig3 cell),
    // PMEMKV and the DAX micro-benchmarks: every cell runs once on an
    // armed machine, where any pad reuse or coverage gap aborts the run,
    // and once unarmed through `run_workload`, as the figures run it.
    let tasks: Vec<_> = ["fig8-10", "fig11", "fig12-14"]
        .into_iter()
        .flat_map(|fig| profile_cells(fig, 0.01).unwrap())
        .map(|cell| {
            move || {
                let what = format!("{} under {:?}", cell.label, cell.mode);
                let mut workload = (*cell.factory)();
                let mut m = Machine::new(workload.configure(cell.opts), cell.mode);
                m.controller_mut().set_security_oracles(true);
                workload.setup(&mut m).unwrap();
                m.begin_measurement();
                workload.run(&mut m).unwrap();
                m.sync_cores();
                assert_eq!(
                    m.controller().pad_oracle_distinct() > 0,
                    cell.mode != SecurityMode::Unencrypted,
                    "{what}: the armed ledger records every encrypting cell's pads"
                );

                let unarmed =
                    run_workload(cell.opts, cell.mode, (*cell.factory)().as_mut()).unwrap();
                assert_eq!(
                    m.measurement_snapshot(),
                    unarmed.stats,
                    "{what}: counters must not depend on the oracles"
                );
            }
        })
        .collect();
    pool::run_tasks(tasks);
}

#[test]
fn rekey_and_crash_recovery_replay_clean_under_armed_oracles() {
    let mut m = Machine::new(MachineOpts::small_test(), SecurityMode::FsEncr);
    m.controller_mut().set_security_oracles(true);
    let h = m
        .create(ALICE, STAFF, "ledger", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();

    // Counter-advancing traffic: the same lines re-written and persisted
    // well past the Osiris stop-loss, so cached minors run ahead of
    // their media copies and every fresh pad lands in the ledger.
    for round in 0..12u8 {
        for line in 0..8u64 {
            m.write(0, map, line * 64, &[round ^ line as u8; 64])
                .unwrap();
        }
        m.persist(0, map, 0, 8 * 64).unwrap();
    }
    assert!(
        m.controller().pad_oracle_distinct() > 0,
        "armed ledger must have recorded the write traffic"
    );

    // Rekey: wraps a fresh file key and re-encrypts the file's pages.
    // New-key pads legally coincide with old-key IVs; the ledger keys by
    // (key, IV) so this must replay clean.
    m.rekey(ALICE, "ledger", "pw", "pw2").unwrap();
    m.write(0, map, 0, b"post-rekey write").unwrap();
    m.persist(0, map, 0, 16).unwrap();

    // Crash, Osiris recovery, remount. Recovery re-encrypts lines under
    // counters it proved via the ECC oracle — idempotent re-issues of
    // pre-crash pads over identical content, which the ledger accepts.
    m.crash();
    let report = m.recover();
    assert_eq!(report.unrecoverable, 0, "{report:?}");
    // Exact-repair oracle: with nothing quarantined, the Merkle rebuild
    // must reset precisely zero leaves — the skip-set prediction. (The
    // rebuild itself asserts list equality; the report surfaces the
    // count.)
    assert_eq!(report.metadata_reset, 0, "{report:?}");
    let h = m
        .open(ALICE, &[STAFF], "ledger", AccessKind::Read, Some("pw2"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    let mut buf = [0u8; 16];
    m.read(0, map, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"post-rekey write");

    // Post-recovery writes: recovered counters must advance past every
    // pre-crash issue — a rollback would re-pair an old IV with new
    // bytes and trip the ledger on the spot.
    let h = m
        .open(ALICE, &[STAFF], "ledger", AccessKind::Write, Some("pw2"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    for round in 0..6u8 {
        for line in 0..8u64 {
            m.write(0, map, line * 64, &[0xA0 | round ^ line as u8; 64])
                .unwrap();
        }
        m.persist(0, map, 0, 8 * 64).unwrap();
    }
    m.shutdown_flush().unwrap();
}
