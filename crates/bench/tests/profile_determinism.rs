//! The observability layer must be invisible: profiles are byte-identical
//! at any worker count and under adversarial drain schedules, enabling
//! the observer never changes simulated timing, and the snapshot
//! counters are internally consistent.

use fsencr::machine::{Machine, MachineOpts, SecurityMode};
use fsencr_bench::experiments::profile_cells;
use fsencr_bench::pool::{self, Schedule};
use fsencr_bench::profile::profile;
use fsencr_bench::{fig8_9_10, Figure};
use fsencr_fs::{GroupId, Mode, UserId};
use fsencr_workloads::driver::{profile_workload, run_workload};
use fsencr_workloads::whisper::HashmapBench;

fn render_all(fig: &str) -> (String, String, String) {
    let r = profile(fig, 0.01, 1 << 14).expect("figure must be profilable");
    (r.render_text(), r.to_json(), r.to_chrome_trace())
}

#[test]
fn profile_fig8_is_byte_identical_across_jobs_and_schedules() {
    pool::set_jobs(1);
    let reference = render_all("fig8");
    for jobs in 2..=4 {
        pool::set_jobs(jobs);
        assert_eq!(render_all("fig8"), reference, "jobs={jobs}");
    }
    pool::set_jobs(4);
    for sched in [Schedule::Lifo, Schedule::EvenOdd, Schedule::Stagger] {
        pool::set_schedule(sched);
        assert_eq!(render_all("fig8"), reference, "{sched:?}");
    }
    pool::set_schedule(Schedule::Fifo);
    pool::set_jobs(0);
}

#[test]
fn observation_does_not_perturb_simulated_timing() {
    // The same workload with and without the observer must report
    // bit-identical measured statistics: attribution is pure bookkeeping.
    let plain = run_workload(
        MachineOpts::small_test(),
        SecurityMode::FsEncr,
        &mut HashmapBench::new(512, 2),
    )
    .unwrap()
    .stats;
    let observed = profile_workload(
        MachineOpts::small_test(),
        SecurityMode::FsEncr,
        &mut HashmapBench::new(512, 2),
        1 << 12,
    )
    .unwrap();
    // Every counter plus the read-latency histogram, in one comparison.
    assert_eq!(plain, observed.result.stats);
    // And the observer actually recorded the run.
    assert!(observed.observer.metric("ctrl/write/total_cycles") > 0);
}

/// The observer holds cycle sums and timeline events only; every count
/// (hits, misses, row-buffer outcomes, overflows) is read from the
/// window. A count key creeping back into the observer fails here.
#[test]
fn observer_metrics_are_cycle_sums_only() {
    let cell = |fig: &str, mode: SecurityMode| {
        let spec = profile_cells(fig, 0.01)
            .expect("figure must be profilable")
            .into_iter()
            .find(|c| c.mode == mode)
            .expect("figure must run the mode");
        profile_workload(spec.opts, spec.mode, (spec.factory)().as_mut(), 1 << 12).unwrap()
    };
    for (fig, mode) in [
        ("fig8-10", SecurityMode::FsEncr),
        ("fig11", SecurityMode::Software),
    ] {
        let run = cell(fig, mode);
        let keys: Vec<_> = run.observer.metrics().map(|(k, _)| k).collect();
        assert!(!keys.is_empty(), "{fig} {mode}: nothing attributed");
        for k in keys {
            assert!(
                k.ends_with("_cycles"),
                "{fig} {mode}: count key {k:?} in the observer"
            );
        }
        let w = &run.result.stats;
        assert!(w.nvm_row_hits + w.nvm_row_misses > 0, "{fig} {mode}: {w:?}");
        assert!(
            run.observer.metric("ctrl/write/total_cycles") > 0,
            "{fig} {mode}"
        );
    }
}

/// A profiling run between two figure runs must leave no trace: the
/// figures (observer disabled, as always) stay byte-identical.
#[test]
fn figures_are_unchanged_by_an_interleaved_profile_run() {
    let render = |f: &(Figure, Figure, Figure)| format!("{}{}{}", f.0, f.1, f.2);
    let before = render(&fig8_9_10(0.01));
    let _ = profile("fig8", 0.01, 1 << 12).unwrap();
    let after = render(&fig8_9_10(0.01));
    assert_eq!(before, after);
}

#[test]
fn snapshot_counters_are_internally_consistent() {
    // Pinned workload: file creation plus a strided write/persist/read mix.
    // The legacy accessors this test used to diff against are gone; the
    // invariants they witnessed are stated directly on the snapshot.
    let mut m = Machine::new(MachineOpts::small_test(), SecurityMode::FsEncr);
    let h = m
        .create(
            UserId::new(1),
            GroupId::new(1),
            "pin",
            Mode::PRIVATE,
            Some("pw"),
        )
        .unwrap();
    let map = m.mmap(&h).unwrap();
    for i in 0..96u64 {
        m.write(0, map, i * 4096, &[i as u8; 128]).unwrap();
        m.persist(0, map, i * 4096, 128).unwrap();
    }
    let mut buf = [0u8; 128];
    for i in 0..96u64 {
        m.read(0, map, i * 4096, &mut buf).unwrap();
    }
    m.sync_cores();

    let s = m.snapshot();
    // The pinned mix actually exercised the datapath (reads are absorbed
    // by the cache hierarchy before the controller, so only writes are
    // guaranteed to reach it).
    assert!(s.writes >= 96, "{}", s.writes);
    assert!(s.file_accesses > 0);
    assert!(s.cycles > 0);
    // Per-structure leaf counters partition the coarse totals.
    assert_eq!(
        s.meta_leaf_hits,
        s.meta_mecb_hits + s.meta_fecb_hits + s.meta_spill_hits
    );
    assert_eq!(
        s.meta_leaf_misses,
        s.meta_mecb_misses + s.meta_fecb_misses + s.meta_spill_misses
    );
    // Node fetches and node misses are the same event; every leaf miss
    // starts exactly one climb, each at least one level deep.
    assert_eq!(s.meta_node_misses, s.meta_node_fetches);
    assert_eq!(s.meta_verify_climbs, s.meta_leaf_misses);
    assert!(s.meta_verify_levels >= s.meta_verify_climbs);
    // The derived hit rate is the canonical computation over the
    // snapshot's own counters, bit-for-bit.
    assert_eq!(
        s.meta_hit_rate().to_bits(),
        fsencr_sim::stats::hit_rate(s.meta_cache_hits, s.meta_cache_misses).to_bits()
    );
    assert_eq!(
        s.ott_hit_rate().to_bits(),
        fsencr_sim::stats::hit_rate(s.ott_hits, s.ott_misses).to_bits()
    );
    // The delta of two snapshots isolates a window: counters restart
    // from zero at `begin_measurement` without any reset.
    let mut m2 = m;
    m2.begin_measurement();
    m2.write(0, map, 0, &[0xA5; 64]).unwrap();
    m2.persist(0, map, 0, 64).unwrap();
    m2.sync_cores();
    let d = m2.measurement_snapshot();
    assert!(
        d.writes >= 1 && d.writes < 16,
        "window isolates the tail: {}",
        d.writes
    );
    assert!(d.cycles > 0 && d.cycles < m2.snapshot().cycles);
}
