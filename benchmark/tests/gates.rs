//! The correctness gates hold at this revision and catch a changed
//! statistic.

use fsencr::machine::SecurityMode;
use fsencr::snapshot::StatsSnapshot;
use fsencr_bench::pool;
use fsencr_benchmark::args::Workload;
use fsencr_benchmark::cells::{self, CellRun};
use fsencr_benchmark::gates::{self, Expected};
use fsencr_benchmark::metrics::PassResult;
use fsencr_benchmark::spans::{Spans, ROOT};
use fsencr_obs::Observer;

/// `harness --no-cache fig8-10 0.75` output at the revision that recorded
/// `expected/pmemkv.json`.
const FIG8_10_AT_SCALE: &str = include_str!("../expected/fig8-10_scale0.75.txt");

fn run(w: Workload, label: Option<&str>, seed: u64) -> cells::Pass {
    pool::set_jobs(fsencr_benchmark::JOBS);
    let mut specs = cells::figure_cells(w.figure().expect("simulated workload"), w.scale());
    specs.retain(|s| label.is_none_or(|l| s.label == l));
    cells::run_pass(&specs, seed, false, &Spans::default(), ROOT)
}

fn expected() -> Vec<Expected> {
    gates::parse_expected(gates::PMEMKV_EXPECTED).expect("expected/pmemkv.json parses")
}

#[test]
fn figure_11_and_12_14_rows_equal_harness_full() {
    // Seed 7 is not the harness's key seed: key material must not move
    // simulated statistics.
    for w in [Workload::Whisper, Workload::Dax] {
        let pass = run(w, None, 7);
        let bad = gates::mismatched_rows(&gates::figures(w, &pass.cells), gates::HARNESS_FULL);
        assert!(
            bad.is_empty(),
            "{}: rows {bad:?} differ from harness_full.txt",
            w.name()
        );
        let v = gates::verdict(w, &PassResult::Cells(pass), true, &[]);
        assert_eq!((v.failed, v.problems.len()), (0, 0), "{v:?}");
    }
}

#[test]
fn expected_pmemkv_cells_reproduce_the_harness_figures() {
    let cells: Vec<CellRun> = expected()
        .into_iter()
        .map(|e| CellRun {
            label: e.label,
            mode: [SecurityMode::MemoryOnly, SecurityMode::FsEncr]
                .into_iter()
                .find(|m| m.to_string() == e.mode)
                .expect("fig8-10 cells run in two modes"),
            new_s: 0.0,
            setup_s: 0.0,
            run_s: 0.0,
            setup_writes: 0,
            window: StatsSnapshot {
                cycles: e.cycles,
                nvm_reads: e.nvm_reads,
                nvm_writes: e.nvm_writes,
                ..StatsSnapshot::default()
            },
            obs: Observer::disabled(),
            error: None,
        })
        .collect();
    assert_eq!(cells.len(), 20);
    let bad = gates::mismatched_rows(&gates::figures(Workload::Pmemkv, &cells), FIG8_10_AT_SCALE);
    assert!(
        bad.is_empty(),
        "rows {bad:?} differ from the harness output"
    );
}

#[test]
fn a_tampered_expected_entry_fails_the_pmemkv_gate() {
    let pass = PassResult::Cells(run(Workload::Pmemkv, Some("Readseq-S"), 7));
    let mut expected = expected();
    let clean = gates::verdict(Workload::Pmemkv, &pass, true, &expected);
    assert_eq!((clean.attempted, clean.failed), (2, 0), "{clean:?}");

    let entry = expected
        .iter_mut()
        .find(|e| e.label == "Readseq-S" && e.mode == "fsencr")
        .expect("Readseq-S is recorded");
    entry.nvm_writes += 1;
    let tampered = gates::verdict(Workload::Pmemkv, &pass, true, &expected);
    assert_eq!(tampered.failed, 1, "{tampered:?}");
    assert!(tampered.fail_share > 0.0);
}
