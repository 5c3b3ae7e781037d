//! The figures must not depend on the worker count or on which worker
//! picked up which cell. This audit renders each scalable figure
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
use fsencr_bench::{fig11, fig12_13_14, fig3, fig8_9_10};

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

type Render = fn() -> String;

/// The scalable figures, rendered as the harness prints them. Fig 15
/// is left out: its five renders would double this test's run time.
const FIGURES: [(&str, Render); 4] = [
    ("fig3", || format!("{}", fig3(SCALE))),
    ("fig8-10", || {
        let (a, b, c) = fig8_9_10(SCALE);
        format!("{a}\n{b}\n{c}")
    }),
    ("fig11", || {
        let (a, b, c, d) = fig11(SCALE);
        format!("{a}\n{b}\n{c}\n{d}")
    }),
    ("fig12-14", || {
        let (a, b, c) = fig12_13_14(SCALE);
        format!("{a}\n{b}\n{c}")
    }),
];

#[test]
fn figures_are_byte_identical_under_every_schedule() {
    let mut divergences = Vec::new();
    for (name, render) in FIGURES {
        pool::set_jobs(1);
        pool::set_schedule(Schedule::Fifo);
        let baseline = render();
        for (jobs, sched) in VARIANTS {
            pool::set_jobs(jobs);
            pool::set_schedule(sched);
            let got = render();
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
