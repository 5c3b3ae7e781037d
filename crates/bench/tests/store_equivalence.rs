//! The content-addressed store must be behaviorally invisible. The same
//! figure rendered with the store disabled, cold (every cell simulated
//! and recorded), hot (every cell served, no simulation at all), warm
//! (cell entries deleted, every setup restored from its snapshot at any
//! worker count and pool schedule) and over damaged entries must be
//! byte-identical. A stale, lossy or corrupt entry would show up here as
//! a diff. Together with the fault campaign suite (the snapshot-seeded
//! `FAULTS_report.json` is byte-identical across jobs and schedules,
//! `crates/bench/tests/fault_campaign.rs`), this pins the store to the
//! determinism bar the figures set.
//!
//! Kept as a single test: the store and the worker pool are
//! process-global, so the phases must run sequentially.

use std::path::Path;

use fsencr_bench as exp;
use fsencr_bench::experiments::profile_cells;
use fsencr_bench::pool;
use fsencr_bench::store::{self, Kind};

const SCALE: f64 = 0.01;

fn render() -> String {
    let figs = exp::fig12_13_14(SCALE);
    format!("{}\n{}\n{}", figs.0, figs.1, figs.2)
}

/// Renders the figure with the store enabled at `dir` and returns the
/// bytes with the `(hits, misses)` of each kind.
fn pass(dir: &Path) -> (String, (u64, u64), (u64, u64)) {
    store::configure(Some(dir.to_path_buf()));
    let out = render();
    let counts = (store::counters(Kind::Cell), store::counters(Kind::Setup));
    store::configure(None);
    (out, counts.0, counts.1)
}

fn entry(dir: &Path, key: &str, kind: &str) -> std::path::PathBuf {
    dir.join(format!("{key}.{kind}"))
}

#[test]
fn store_never_changes_figure_bytes() {
    let dir = std::env::temp_dir().join(format!("fsencr-store-test-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Reference: store disabled, every cell and setup simulated.
    store::configure(None);
    let reference = render();
    let cells = profile_cells("fig12-14", SCALE)
        .expect("fig12-14 has a cell matrix")
        .len() as u64;

    // Cold: every cell simulated and recorded. Cells sharing a setup
    // already warm-start within this run (entries are written
    // immediately), so setup misses are asserted non-zero, not total.
    store::configure(Some(dir.clone()));
    let cold = render();
    let (cell, setup, stores) = (
        store::counters(Kind::Cell),
        store::counters(Kind::Setup),
        store::stores(),
    );
    store::configure(None);
    assert_eq!(cell, (0, cells), "a fresh store cannot hit");
    assert!(setup.1 > 0, "cold pass must consult the setup entries");
    assert!(stores > cells, "cold pass must record cells and setups");
    assert_eq!(reference, cold, "recording changed figure bytes");

    // Hot: every cell served without simulating.
    let (hot, cell, setup) = pass(&dir);
    assert_eq!(cell, (cells, 0), "hot pass must not re-simulate anything");
    assert_eq!(setup, (0, 0), "hot pass never reaches a setup");
    assert_eq!(reference, hot, "hot store changed figure bytes");

    // Warm: with only the cell entries gone, every worker count and
    // schedule restores the same setup snapshots — no cold setup
    // anywhere — and renders the reference bytes.
    for (jobs, sched) in [
        (1, pool::Schedule::Fifo),
        (4, pool::Schedule::Fifo),
        (1, pool::Schedule::Lifo),
        (4, pool::Schedule::EvenOdd),
        (4, pool::Schedule::Stagger),
    ] {
        for e in std::fs::read_dir(&dir).expect("store dir") {
            let path = e.expect("dir entry").path();
            if path.extension().is_some_and(|x| x == "cell") {
                std::fs::remove_file(path).expect("delete cell entry");
            }
        }
        pool::set_jobs(jobs);
        pool::set_schedule(sched);
        let (warm, cell, setup) = pass(&dir);
        assert_eq!(
            cell,
            (0, cells),
            "jobs={jobs} {sched:?}: cell entries were deleted"
        );
        assert!(
            setup.0 > 0,
            "jobs={jobs} {sched:?}: warm pass must restore setups"
        );
        assert_eq!(
            setup.1, 0,
            "jobs={jobs} {sched:?}: warm pass fell back to cold setup"
        );
        assert_eq!(
            reference, warm,
            "jobs={jobs} {sched:?}: warm start changed figure bytes"
        );
    }
    pool::set_jobs(0);
    pool::set_schedule(pool::Schedule::Fifo);

    // Damage: flip a byte in cell 0's entry and in its setup entry, and
    // truncate cell 1's entry (same workload, the other mode, so its
    // setup entry is another, intact one). All three must be misses that
    // fall back to simulating, and be rewritten with the original bytes.
    let specs = profile_cells("fig12-14", SCALE).expect("fig12-14 has a cell matrix");
    let cell_key = |i: usize| {
        let s = &specs[i];
        store::key(Kind::Cell, &s.label, s.mode, &s.opts, &(s.factory)().spec())
    };
    let s0 = &specs[0];
    let setup0 = store::key(
        Kind::Setup,
        "",
        s0.mode,
        &s0.opts,
        &(s0.factory)().setup_spec(),
    );
    let damaged = [
        entry(&dir, &cell_key(0), "cell"),
        entry(&dir, &setup0, "setup"),
        entry(&dir, &cell_key(1), "cell"),
    ];
    let originals: Vec<Vec<u8>> = damaged
        .iter()
        .map(|p| std::fs::read(p).expect("entry exists"))
        .collect();
    for (path, bytes) in damaged.iter().zip(&originals).take(2) {
        let mut flipped = bytes.clone();
        flipped[bytes.len() / 2] ^= 0x01;
        std::fs::write(path, flipped).expect("flip a byte");
    }
    std::fs::write(&damaged[2], &originals[2][..originals[2].len() - 3]).expect("truncate");
    let (repaired, cell, setup) = pass(&dir);
    assert_eq!(reference, repaired, "damaged entries changed figure bytes");
    assert_eq!(cell, (cells - 2, 2), "both damaged cell entries must miss");
    assert_eq!(
        setup,
        (1, 1),
        "the damaged setup misses, the intact one restores"
    );
    for (path, bytes) in damaged.iter().zip(&originals) {
        assert_eq!(
            &std::fs::read(path).expect("rewritten"),
            bytes,
            "{}",
            path.display()
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}
