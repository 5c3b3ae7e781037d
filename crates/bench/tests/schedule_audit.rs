//! The figures must not depend on the worker count or on which worker
//! picked up which cell. This audit renders the registered figures
//! serially under the FIFO schedule, then replays it under every
//! adversarial-but-reproducible drain order the pool supports
//! ([`Schedule`]) at several worker counts, and compares the rendered
//! bytes. The schedules permute pick-up order or perturb completion
//! order without randomness, so a failure replays exactly.
//!
//! `pool::set_jobs`/`pool::set_schedule` are process-global, so this
//! binary holds exactly one test: a second test mutating them
//! concurrently would change the schedule under audit.

use fsencr_bench::pool::{self, Schedule};
use fsencr_bench::{figure_names, render};

/// The small scale every figure determinism test uses.
const SCALE: f64 = 0.01;

/// Adversarial (worker count, schedule) variants compared against the
/// serial FIFO baseline.
const VARIANTS: [(usize, Schedule); 4] = [
    (2, Schedule::Lifo),
    (3, Schedule::EvenOdd),
    (4, Schedule::Stagger),
    (4, Schedule::Fifo),
];

#[test]
fn figures_are_byte_identical_under_every_schedule() {
    let mut divergences = Vec::new();
    // Every registered figure but Fig 15: its 30 cells take longer than
    // the four ablations' 24 together, and this test renders each figure
    // five times.
    for name in figure_names().filter(|&fig| fig != "fig15") {
        pool::set_jobs(1);
        pool::set_schedule(Schedule::Fifo);
        let baseline = render(name, SCALE).expect("a registered figure");
        for (jobs, sched) in VARIANTS {
            pool::set_jobs(jobs);
            pool::set_schedule(sched);
            let got = render(name, SCALE).expect("a registered figure");
            if got != baseline {
                let at = baseline
                    .bytes()
                    .zip(got.bytes())
                    .position(|(x, y)| x != y)
                    .unwrap_or_else(|| baseline.len().min(got.len()));
                divergences.push(format!(
                    "{name}: jobs={jobs} schedule={sched:?} (lengths {} vs {}, first \
                     difference at byte {at})",
                    baseline.len(),
                    got.len(),
                ));
            }
        }
    }
    pool::set_jobs(0);
    pool::set_schedule(Schedule::Fifo);
    assert!(
        divergences.is_empty(),
        "figure bytes diverge from the serial baseline:\n{}",
        divergences.join("\n")
    );
}
