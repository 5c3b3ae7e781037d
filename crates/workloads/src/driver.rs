//! Workload harness: construction, setup/measure phases, thread
//! interleaving.

use fsencr::machine::{Machine, MachineError, MachineOpts, RunStats, SecurityMode};
use fsencr::snapshot::StatsSnapshot;
use fsencr_obs::Observer;

/// A benchmark: a setup phase (excluded from measurement, like the
//  paper's fast-forward to the post-file-creation point) and a measured
/// run phase.
pub trait Workload {
    /// Display name (matches Table II, e.g. `Fillrandom-S`).
    fn name(&self) -> String;

    /// A stable, parameter-complete specification string: two instances
    /// with the same `spec()` behave identically when run. Used as the
    /// content-addressed cache key of experiment cells, so every
    /// constructor parameter that affects the run MUST appear here —
    /// `name()` alone is not enough (e.g. two `DAX-1` configurations can
    /// differ only in their operation count).
    fn spec(&self) -> String {
        self.name()
    }

    /// Adjusts machine parameters (e.g. a larger DAX region) before
    /// construction.
    fn configure(&self, opts: MachineOpts) -> MachineOpts {
        opts
    }

    /// A stable specification of the *setup phase only*: two instances
    /// with the same `setup_spec()` (and machine options) leave the
    /// machine in an identical post-setup state. Used as the
    /// content-addressed key of warm-start snapshots, so it must cover
    /// every parameter `setup` reads — but may omit measured-phase knobs
    /// (operation counts, strides), letting one snapshot warm-start many
    /// scales of the same cell. Defaults to the full [`Workload::spec`],
    /// which is always safe.
    fn setup_spec(&self) -> String {
        self.spec()
    }

    /// Re-attaches to a machine restored from a post-setup snapshot:
    /// rebuilds the host-side state `setup` left in `self` (map handles,
    /// engine shards) *without driving any simulated operation*, so the
    /// restored machine stays bit-identical to one whose setup ran
    /// in-process. Returns `false` (the default) when the workload does
    /// not support warm starts; the caller then falls back to a cold
    /// `setup`.
    fn attach(&mut self, m: &Machine) -> bool {
        let _ = m;
        false
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
    /// Measured counters.
    pub stats: RunStats,
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
    m.begin_measurement();
    workload.run(&mut m)?;
    m.sync_cores();
    Ok(RunResult {
        workload: workload.name(),
        mode,
        stats: m.measurement(),
    })
}

/// Outcome of a [`run_workload_warm`] call.
#[derive(Debug, Clone)]
pub struct WarmRun {
    /// The measured result, identical either way (warm or cold).
    pub result: RunResult,
    /// Whether the run restored its post-setup state from the snapshot.
    pub warm: bool,
    /// Fresh post-setup snapshot bytes to store for the next run — only
    /// present after a cold setup by a warm-start-capable workload.
    pub snapshot: Option<Vec<u8>>,
}

/// [`run_workload`] with snapshot warm-start: when `snapshot` holds a
/// post-setup machine image for this `(opts, mode, setup_spec)` cell,
/// the machine is restored from it and [`Workload::attach`] rebuilds the
/// workload's host-side state, skipping the simulated setup entirely.
/// The snapshot round-trip theorem (see the `snapshot_roundtrip` suite)
/// makes the restored machine bit-identical to one whose setup ran
/// in-process, so the measured statistics are identical either way.
///
/// Restore failures (stale, corrupt, or mismatched bytes) and workloads
/// without [`Workload::attach`] support silently fall back to the cold
/// path: the snapshot store is an accelerator, never a dependency.
///
/// # Errors
///
/// Propagates machine failures from setup or run.
pub fn run_workload_warm(
    base_opts: MachineOpts,
    mode: SecurityMode,
    workload: &mut dyn Workload,
    snapshot: Option<&[u8]>,
) -> Result<WarmRun, MachineError> {
    let opts = workload.configure(base_opts);
    let mut machine = None;
    if let Some(bytes) = snapshot {
        if let Ok(m) = Machine::restore_snapshot(opts, mode, bytes) {
            if workload.attach(&m) {
                machine = Some(m);
            }
        }
    }
    let warm = machine.is_some();
    let mut fresh = None;
    let mut m = match machine {
        Some(m) => m,
        None => {
            let mut m = Machine::new(opts, mode);
            workload.setup(&mut m)?;
            // Only offer a snapshot for storage if this workload can
            // actually consume it next time.
            if workload.attach(&m) {
                fresh = m.save_snapshot().ok();
            }
            m
        }
    };
    m.begin_measurement();
    workload.run(&mut m)?;
    m.sync_cores();
    Ok(WarmRun {
        result: RunResult {
            workload: workload.name(),
            mode,
            stats: m.measurement(),
        },
        warm,
        snapshot: fresh,
    })
}

/// [`run_workload`] plus cycle attribution: the run phase executes with
/// the machine's observer enabled, and the result carries the observer
/// (metrics + spans) and the raw [`StatsSnapshot`] window next to the
/// usual [`RunStats`].
#[derive(Debug, Clone)]
pub struct ProfiledRun {
    /// The plain result, identical to what [`run_workload`] returns.
    pub result: RunResult,
    /// Cycle-attribution metrics and spans covering the run phase only,
    /// machine lifecycle events included (`machine`-category spans).
    pub observer: Observer,
    /// The measurement window as a raw counter snapshot delta.
    pub window: StatsSnapshot,
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
    m.begin_measurement();
    workload.run(&mut m)?;
    m.sync_cores();
    Ok(ProfiledRun {
        result: RunResult {
            workload: workload.name(),
            mode,
            stats: m.measurement(),
        },
        observer: m.observer().clone(),
        window: m.measurement_snapshot(),
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
