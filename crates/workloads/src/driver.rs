//! Workload harness: construction, setup/measure phases, thread
//! interleaving.
//!
//! Every run reports its measured phase as one
//! [`StatsSnapshot`] delta ([`RunResult::stats`]); figures derive hit
//! rates and latency percentiles from it on read.

use fsencr::machine::{Machine, MachineError, MachineOpts, SecurityMode};
use fsencr::snapshot::StatsSnapshot;
use fsencr_obs::Observer;

/// A benchmark: a setup phase (excluded from measurement, like the
/// paper's fast-forward to the post-file-creation point) and a measured
/// run phase.
pub trait Workload {
    /// Display name (matches Table II, e.g. `Fillrandom-S`).
    fn name(&self) -> String;

    /// Adjusts machine parameters (e.g. a larger DAX region) before
    /// construction.
    fn configure(&self, opts: MachineOpts) -> MachineOpts {
        opts
    }

    /// Creates files and preloads data. Not measured.
    ///
    /// # Errors
    ///
    /// Machine failures.
    fn setup(&mut self, m: &mut Machine) -> Result<(), MachineError>;

    /// The measured phase.
    ///
    /// # Errors
    ///
    /// Machine failures.
    fn run(&mut self, m: &mut Machine) -> Result<(), MachineError>;
}

/// Result of one workload execution under one security mode.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Security mode it ran under.
    pub mode: SecurityMode,
    /// Counters accumulated over the measured phase
    /// ([`Machine::measurement_snapshot`]).
    pub stats: StatsSnapshot,
}

/// Builds a machine, runs `workload` under `mode`, returns the measured
/// statistics.
///
/// # Errors
///
/// Propagates machine failures from setup or run.
pub fn run_workload(
    base_opts: MachineOpts,
    mode: SecurityMode,
    workload: &mut dyn Workload,
) -> Result<RunResult, MachineError> {
    let opts = workload.configure(base_opts);
    let mut m = Machine::new(opts, mode);
    workload.setup(&mut m)?;
    measure(&mut m, workload)
}

/// The measured phase every run shares: opens the measurement window,
/// runs `workload`, drains the cores and reads the window out.
fn measure(m: &mut Machine, workload: &mut dyn Workload) -> Result<RunResult, MachineError> {
    m.begin_measurement();
    workload.run(m)?;
    m.sync_cores();
    Ok(RunResult {
        workload: workload.name(),
        mode: m.mode(),
        stats: m.measurement_snapshot(),
    })
}

/// [`run_workload`] plus cycle attribution: the run phase executes with
/// the machine's observer enabled, and the result carries the observer
/// (cycle sums + spans) next to the usual measured [`StatsSnapshot`].
#[derive(Debug, Clone)]
pub struct ProfiledRun {
    /// The plain result, identical to what [`run_workload`] returns.
    pub result: RunResult,
    /// Cycle-attribution metrics and spans covering the run phase only,
    /// machine lifecycle events included (`machine`-category spans).
    pub observer: Observer,
}

/// Builds a machine, runs `workload` under `mode` with the
/// cycle-attribution observer enabled for the measured phase, and
/// returns stats plus attribution. `span_capacity` bounds the per-run
/// span buffer (0 records metrics only).
///
/// Setup is excluded from attribution the same way it is excluded from
/// measurement: the observer is enabled after [`Workload::setup`].
///
/// # Errors
///
/// Propagates machine failures from setup or run.
pub fn profile_workload(
    base_opts: MachineOpts,
    mode: SecurityMode,
    workload: &mut dyn Workload,
    span_capacity: usize,
) -> Result<ProfiledRun, MachineError> {
    let opts = workload.configure(base_opts);
    let mut m = Machine::new(opts, mode);
    workload.setup(&mut m)?;
    m.enable_observer(span_capacity);
    Ok(ProfiledRun {
        result: measure(&mut m, workload)?,
        observer: m.observer().clone(),
    })
}

/// Pre-faults `bytes` of a mapping (PMDK pool semantics: pools are fully
/// allocated and zeroed at creation, so steady-state operation never
/// takes a first-touch page fault).
///
/// # Errors
///
/// Machine failures.
pub fn prefault(
    m: &mut Machine,
    core: usize,
    map: fsencr::machine::MapId,
    bytes: u64,
) -> Result<(), MachineError> {
    let mut off = 0u64;
    while off < bytes {
        m.write(core, map, off, &[0u8; 1])?;
        off += 4096;
    }
    Ok(())
}

/// Interleaves `ops_per_thread` operations across `threads` simulated
/// threads (thread i pinned to core i), always advancing the thread whose
/// core clock is furthest behind — a fair round-robin under contention.
///
/// # Errors
///
/// Propagates the first failure from `op`.
pub fn interleave<F>(
    m: &mut Machine,
    threads: usize,
    ops_per_thread: usize,
    mut op: F,
) -> Result<(), MachineError>
where
    F: FnMut(&mut Machine, usize, usize) -> Result<(), MachineError>,
{
    let mut done = vec![0usize; threads];
    loop {
        let next = (0..threads)
            .filter(|&t| done[t] < ops_per_thread)
            .min_by_key(|&t| m.now(t));
        let Some(t) = next else { return Ok(()) };
        op(m, t, done[t])?;
        done[t] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsencr_fs::{GroupId, Mode, UserId};

    struct Touch {
        bytes: u64,
    }

    impl Workload for Touch {
        fn name(&self) -> String {
            "touch".to_string()
        }
        fn setup(&mut self, m: &mut Machine) -> Result<(), MachineError> {
            let h = m.create(UserId::new(1), GroupId::new(1), "touch", Mode::PRIVATE, Some("pw"))?;
            let map = m.mmap(&h)?;
            m.write(0, map, 0, &vec![1u8; self.bytes as usize])?;
            m.persist(0, map, 0, self.bytes)?;
            Ok(())
        }
        fn run(&mut self, m: &mut Machine) -> Result<(), MachineError> {
            let h = m.open(
                UserId::new(1),
                &[GroupId::new(1)],
                "touch",
                fsencr_fs::AccessKind::Read,
                Some("pw"),
            )?;
            let map = m.mmap(&h)?;
            let mut buf = vec![0u8; self.bytes as usize];
            m.read(0, map, 0, &mut buf)?;
            assert!(buf.iter().all(|&b| b == 1));
            Ok(())
        }
    }

    #[test]
    fn run_workload_measures_only_the_run_phase() {
        let mut w = Touch { bytes: 8192 };
        let res = run_workload(
            MachineOpts::small_test(),
            SecurityMode::FsEncr,
            &mut w,
        )
        .unwrap();
        assert_eq!(res.workload, "touch");
        assert!(res.stats.cycles > 0);
        // Setup's 128 persisted data lines landed before the measurement
        // window; the run phase only reads (cache-resident), so at most a
        // few stray metadata write-backs may appear.
        assert!(res.stats.nvm_writes < 64, "{}", res.stats.nvm_writes);
    }

    #[test]
    fn interleave_balances_clocks() {
        let mut m = Machine::new(MachineOpts::small_test(), SecurityMode::MemoryOnly);
        let h = m
            .create(UserId::new(1), GroupId::new(1), "f", Mode::PRIVATE, None)
            .unwrap();
        let map = m.mmap(&h).unwrap();
        let mut per_thread = vec![0usize; 2];
        interleave(&mut m, 2, 50, |m, t, i| {
            per_thread[t] += 1;
            m.write(t, map, (t as u64 * 64 + i as u64) * 4096 % (1 << 20), &[t as u8; 32])
        })
        .unwrap();
        assert_eq!(per_thread, vec![50, 50]);
        // Clocks should be within one op of each other.
        let a = m.now(0).get() as f64;
        let b = m.now(1).get() as f64;
        assert!((a - b).abs() / a.max(b) < 0.5, "clocks diverged: {a} vs {b}");
    }
}
