//! Snapshot warm starts must be an implementation detail: the same
//! post-setup snapshots, restored at any worker count and under any
//! pool schedule, must render byte-identical figures. Together with the
//! fault campaign suite (the snapshot-seeded `FAULTS_report.json` is
//! byte-identical across jobs and schedules,
//! `crates/bench/tests/fault_campaign.rs`), this pins the snapshot
//! subsystem to the determinism bar the figures set.
//!
//! Kept as a single test: the snapshot store and the worker pool are
//! process-global, so the phases must run sequentially.

use fsencr_bench as exp;
use fsencr_bench::{pool, snapstore};

#[test]
fn warm_started_figures_are_byte_identical_at_any_jobs_and_schedule() {
    const SCALE: f64 = 0.01;
    let dir = std::env::temp_dir().join(format!("fsencr-snapstore-test-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let render = |figs: (exp::table::Figure, exp::table::Figure, exp::table::Figure)| {
        format!("{}\n{}\n{}", figs.0, figs.1, figs.2)
    };

    // Reference: store disabled, every setup simulated in-process.
    snapstore::configure(None);
    let reference = render(exp::fig12_13_14(SCALE));

    // Cold pass captures post-setup snapshots as it goes. Cells sharing
    // a setup already warm-start within this run (entries are written
    // immediately), so only `stores` is asserted, not all-miss.
    snapstore::configure(Some(dir.clone()));
    let cold = render(exp::fig12_13_14(SCALE));
    let (_, misses, stores) = snapstore::counters();
    snapstore::configure(None);
    assert!(stores > 0, "cold pass must capture snapshots");
    assert!(misses > 0, "cold pass must consult the store");
    assert_eq!(reference, cold, "capturing snapshots changed figure bytes");

    // Warm passes: every worker count and schedule restores the same
    // snapshots — no cold setup anywhere — and must render the same
    // bytes as the fully simulated reference.
    for (jobs, sched) in [
        (1, pool::Schedule::Fifo),
        (4, pool::Schedule::Fifo),
        (1, pool::Schedule::Lifo),
        (4, pool::Schedule::EvenOdd),
        (4, pool::Schedule::Stagger),
    ] {
        pool::set_jobs(jobs);
        pool::set_schedule(sched);
        snapstore::configure(Some(dir.clone()));
        let warm = render(exp::fig12_13_14(SCALE));
        let (hits, misses, _) = snapstore::counters();
        snapstore::configure(None);
        assert!(hits > 0, "jobs={jobs} {sched:?}: warm pass must hit the store");
        assert_eq!(misses, 0, "jobs={jobs} {sched:?}: warm pass fell back to cold setup");
        assert_eq!(reference, warm, "jobs={jobs} {sched:?}: warm start changed figure bytes");
    }
    pool::set_jobs(0);
    pool::set_schedule(pool::Schedule::Fifo);
    std::fs::remove_dir_all(&dir).ok();
}
