//! The simulated workloads: a figure's cells, each built and run by the
//! benchmark itself so that machine construction, setup and the measured
//! run are timed separately.

use fsencr::machine::{Machine, MachineOpts, SecurityMode};
use fsencr::snapshot::StatsSnapshot;
use fsencr_bench::experiments::{profile_cells, ProfileCellSpec};
use fsencr_bench::pool;
use fsencr_obs::Observer;

use crate::spans::Spans;

/// One cell's host times and simulated counters.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Workload label (figure row).
    pub label: String,
    /// Security mode (figure column).
    pub mode: SecurityMode,
    /// Host seconds in `Machine::new`.
    pub new_s: f64,
    /// Host seconds in `Workload::setup`.
    pub setup_s: f64,
    /// Host seconds in `Workload::run` plus the closing `sync_cores`.
    pub run_s: f64,
    /// NVM lines written from machine construction to the end of setup.
    pub setup_writes: u64,
    /// Counters of the measured run (`Machine::measurement_snapshot`).
    pub window: StatsSnapshot,
    /// Run-phase cycle attribution; empty unless the pass was observed.
    pub obs: Observer,
    /// The machine error that ended the cell early, if any.
    pub error: Option<String>,
}

impl CellRun {
    /// Host seconds from the start of `Machine::new` to the end of the run.
    pub fn total_s(&self) -> f64 {
        self.new_s + self.setup_s + self.run_s
    }
}

/// One pass over every cell of a figure.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host seconds from the first cell's start to the last cell's end.
    pub wall_s: f64,
    /// The cells, in the figure's submission order.
    pub cells: Vec<CellRun>,
}

impl Pass {
    /// Sum over cells of machine construction plus setup.
    pub fn setup_s(&self) -> f64 {
        self.cells.iter().map(|c| c.new_s + c.setup_s).sum()
    }

    /// Sum over cells of the measured run.
    pub fn run_s(&self) -> f64 {
        self.cells.iter().map(|c| c.run_s).sum()
    }
}

/// The cells of `figure` at `scale`, in the figure's order.
///
/// # Panics
///
/// If `figure` has no cell list in `fsencr_bench::experiments`.
pub fn figure_cells(figure: &str, scale: f64) -> Vec<ProfileCellSpec> {
    profile_cells(figure, scale).expect("every simulated workload names a figure with cells")
}

/// Runs `specs` on the harness pool. `seed` replaces the machine key
/// seed. With `observe`, each cell's run phase records cycle attribution
/// into its observer (metrics only).
pub fn run_pass(
    specs: &[ProfileCellSpec],
    seed: u64,
    observe: bool,
    spans: &Spans,
    parent: u64,
) -> Pass {
    let (cells, wall_s) = spans.time(
        parent,
        "bench",
        format!("pass of {} cells", specs.len()),
        |pass| {
            let tasks: Vec<_> = specs
                .iter()
                .map(|spec| move || run_cell(spec, seed, observe, spans, pass))
                .collect();
            pool::run_tasks(tasks)
        },
    );
    Pass { wall_s, cells }
}

/// `configure → Machine::new → setup → begin_measurement → run →
/// sync_cores`, the sequence `fsencr_workloads::run_workload` follows,
/// with a span around each public call.
fn run_cell(spec: &ProfileCellSpec, seed: u64, observe: bool, spans: &Spans, pass: u64) -> CellRun {
    let tag = format!("{} [{}]", spec.label, spec.mode);
    let (cell, _) = spans.time(pass, "bench", format!("cell {tag}"), |cell| {
        let mut workload = (spec.factory)();
        let opts = workload.configure(MachineOpts { seed, ..spec.opts });
        let (mut m, new_s) = spans.time(cell, "fsencr", format!("Machine::new {tag}"), |_| {
            Machine::new(opts, spec.mode)
        });
        let (setup, setup_s) = spans.time(cell, "workloads", format!("setup {tag}"), |_| {
            workload.setup(&mut m)
        });
        let setup_writes = m.snapshot().nvm_writes;
        let (run, run_s) = spans.time(cell, "workloads", format!("run {tag}"), |_| {
            setup.and_then(|()| {
                if observe {
                    m.enable_observer(0);
                }
                m.begin_measurement();
                let run = workload.run(&mut m);
                m.sync_cores();
                run
            })
        });
        CellRun {
            label: spec.label.clone(),
            mode: spec.mode,
            new_s,
            setup_s,
            run_s,
            setup_writes,
            window: m.measurement_snapshot(),
            obs: m.observer().clone(),
            error: run.err().map(|e| e.to_string()),
        }
    });
    cell
}
