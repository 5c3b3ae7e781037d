//! A minimal, dependency-free, offline drop-in for the subset of the
//! [`criterion`](https://crates.io/crates/criterion) API this workspace's
//! benches use (`Criterion::bench_function`, `Bencher::iter`,
//! `criterion_group!`, `criterion_main!`, `black_box`).
//!
//! The build environment has no crates.io access, so the real harness
//! cannot be vendored. This shim keeps `cargo bench` functional: each
//! bench warms up, then measures enough iterations to fill a fixed
//! measurement window and reports mean ns/iter. There are no statistics,
//! plots or baselines. End-to-end and per-layer host time, with
//! calibrated regression bounds, come from the `benchmark/` package that
//! `BENCHMARK.json` declares.

#![forbid(unsafe_code)]

pub use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target wall-clock spent measuring each benchmark.
const MEASURE_WINDOW: Duration = Duration::from_millis(300);
/// Wall-clock spent warming up each benchmark.
const WARMUP_WINDOW: Duration = Duration::from_millis(50);

/// The benchmark driver handed to `criterion_group!` targets.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Runs `routine` as a named benchmark and prints its mean time.
    pub fn bench_function<F>(&mut self, name: &str, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::default();
        routine(&mut b);
        match b.iters {
            0 => println!("{name:40} (no measurement: Bencher::iter never called)"),
            iters => {
                let per_iter = b.elapsed.as_nanos() as f64 / iters as f64;
                println!("{name:40} {per_iter:>12.1} ns/iter ({iters} iters)");
            }
        }
        self
    }
}

/// Times a closure; handed to the function passed to
/// [`Criterion::bench_function`].
#[derive(Debug, Default)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Measures `routine` over a fixed wall-clock window.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        // Warm-up: also sizes the batch so clock reads stay off the
        // measured path for fast routines.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < WARMUP_WINDOW {
            black_box(routine());
            warm_iters += 1;
        }
        let batch = (warm_iters / 50).max(1);
        let start = Instant::now();
        let mut iters = 0u64;
        while start.elapsed() < MEASURE_WINDOW {
            for _ in 0..batch {
                black_box(routine());
            }
            iters += batch;
        }
        self.elapsed = start.elapsed();
        self.iters = iters;
    }
}

/// Declares a group of benchmark functions, mirroring the real macro's
/// `criterion_group!(name, target, ..)` form.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares the bench entry point running every listed group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut b = Bencher::default();
        b.iter(|| black_box(2u64).wrapping_mul(3));
        assert!(b.iters > 0);
        assert!(b.elapsed > Duration::ZERO);
    }

    fn target(c: &mut Criterion) {
        c.bench_function("shim_smoke", |b| b.iter(|| 1u32 + 1));
    }

    criterion_group!(benches, target);

    #[test]
    fn group_runs_targets() {
        benches();
    }
}
