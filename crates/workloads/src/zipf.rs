//! Zipfian key distribution (YCSB's default).
//!
//! Implements the Gray et al. rejection-free zipfian generator used by
//! YCSB, with the classic theta = 0.99 skew. Deterministic given the
//! underlying RNG seed.

use fsencr_sim::SplitMix64;

/// Zipfian-distributed values in `[0, n)`.
///
/// # Examples
///
/// ```
/// use fsencr_workloads::Zipfian;
///
/// let mut z = Zipfian::new(1000, 0.99, 42);
/// let x = z.sample();
/// assert!(x < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
    rng: SplitMix64,
}

fn zeta(n: u64, theta: f64) -> f64 {
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

impl Zipfian {
    /// Creates a generator over `[0, n)` with skew `theta` (YCSB uses
    /// 0.99).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is not in `(0, 1)`.
    pub fn new(n: u64, theta: f64, seed: u64) -> Self {
        assert!(n > 0, "population must be positive");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1)");
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            zeta2,
            rng: SplitMix64::new(seed),
        }
    }

    /// Population size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draws the next zipfian value in `[0, n)` (0 is the hottest).
    pub fn sample(&mut self) -> u64 {
        let u = self.rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.n - 1)
    }

    /// The zeta(2, theta) constant (exposed for tests).
    pub fn zeta2(&self) -> f64 {
        self.zeta2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_in_range() {
        let mut z = Zipfian::new(100, 0.99, 1);
        for _ in 0..10_000 {
            assert!(z.sample() < 100);
        }
    }

    #[test]
    fn distribution_is_skewed() {
        let mut z = Zipfian::new(1000, 0.99, 7);
        let mut counts = vec![0u64; 1000];
        for _ in 0..100_000 {
            counts[z.sample() as usize] += 1;
        }
        // Head must dominate the tail.
        let head: u64 = counts[..10].iter().sum();
        let tail: u64 = counts[500..].iter().sum();
        assert!(
            head > 3 * tail,
            "zipfian not skewed enough: head={head} tail={tail}"
        );
        // And the single hottest key is the most popular.
        let max_idx = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .map(|(i, _)| i)
            .unwrap();
        assert!(
            max_idx < 5,
            "hottest key should be near rank 0, got {max_idx}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = Zipfian::new(50, 0.9, 3);
        let mut b = Zipfian::new(50, 0.9, 3);
        for _ in 0..100 {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn zeta_small_values() {
        assert!((zeta(1, 0.99) - 1.0).abs() < 1e-12);
        let z = Zipfian::new(10, 0.5, 0);
        assert!((z.zeta2() - (1.0 + 1.0 / 2f64.powf(0.5))).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "population must be positive")]
    fn zero_population_panics() {
        Zipfian::new(0, 0.9, 0);
    }

    #[test]
    #[should_panic(expected = "theta must be in")]
    fn bad_theta_panics() {
        Zipfian::new(10, 1.5, 0);
    }
}
