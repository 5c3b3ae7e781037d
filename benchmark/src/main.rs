//! `fsencr-benchmark`: one workload per process. Prints the figures and a
//! metric table, then, as the last line of standard output, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```text
//! fsencr-benchmark run --workload <pmemkv|whisper|dax|faults> --seed N
//!                      [--seconds S] [--trace 0|1] [--scale-override X]
//! fsencr-benchmark expected      # re-record expected/pmemkv.json
//! ```
//!
//! `--seconds` is accepted for the `run_seconds` of `BENCHMARK.json`; each
//! workload is a fixed amount of work, timed in one pass.

#![forbid(unsafe_code)]

use fsencr::machine::MachineOpts;
use fsencr_bench::pool;
use fsencr_benchmark::args::{self, Command, RunArgs, Workload};
use fsencr_benchmark::campaign;
use fsencr_benchmark::cells;
use fsencr_benchmark::gates;
use fsencr_benchmark::metrics::{self, Metric, PassResult};
use fsencr_benchmark::probes;
use fsencr_benchmark::spans::{Spans, ROOT};
use fsencr_benchmark::JOBS;

/// Scale of the untimed warm-up pass (the first timed pass after idle
/// measured up to 30% slow).
const WARMUP_SCALE: f64 = 0.02;
/// Scenarios of the fault campaign's warm-up pass.
const WARMUP_SCENARIOS: u64 = 64;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match args::parse(&argv) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("fsencr-benchmark: {e}\n{}", args::USAGE);
            std::process::exit(2);
        }
    };
    pool::set_jobs(JOBS);
    match cmd {
        Command::Expected => {
            let w = Workload::Pmemkv;
            let figure = w.figure().expect("pmemkv runs a figure");
            let seed = MachineOpts::benchmark().seed;
            let specs = cells::figure_cells(figure, w.scale());
            let pass = cells::run_pass(&specs, seed, false, &Spans::default(), ROOT);
            print!("{}", gates::expected_json(w.scale(), &pass.cells));
        }
        // A completed run exits 0 either way; the result line's `correct`
        // carries the verdict.
        Command::Run(run_args) => run(&run_args),
    }
}

/// Runs one pass of the workload at `scale` inside a top-level span
/// called `name`; returns the pass and that span's id.
fn one_pass(
    a: &RunArgs,
    scale: f64,
    observe: bool,
    spans: &Spans,
    name: &str,
) -> (PassResult, u64) {
    let (pass, _) = spans.time(ROOT, "bench", name, |id| {
        let pass = match a.workload.figure() {
            Some(figure) => PassResult::Cells(cells::run_pass(
                &cells::figure_cells(figure, scale),
                a.seed,
                observe,
                spans,
                id,
            )),
            None => {
                let spec = campaign::spec(campaign::scenarios_at(scale));
                PassResult::Campaign(campaign::run_pass(a.seed, &spec, spans, id))
            }
        };
        (pass, id)
    });
    pass
}

/// Simulated output that must repeat exactly from pass to pass.
fn fingerprint(pass: &PassResult) -> String {
    match pass {
        PassResult::Cells(p) => p
            .cells
            .iter()
            .map(|c| {
                format!(
                    "{} {} {} {} {}\n",
                    c.label, c.mode, c.window.cycles, c.window.nvm_reads, c.window.nvm_writes
                )
            })
            .collect(),
        PassResult::Campaign(c) => c.report.clone(),
    }
}

fn print_outputs(w: Workload, pass: &PassResult) {
    match pass {
        PassResult::Cells(p) => {
            for fig in gates::figures(w, &p.cells) {
                print!("{fig}");
            }
            let measured = gates::overhead_pct(&p.cells);
            match gates::paper_slowdown_pct(w) {
                Some(paper) => println!(
                    "\nFsEncr slowdown over baseline security (geomean): {measured:.2}% vs paper {paper:.2}% (error {:+.2} points)",
                    measured - paper
                ),
                None => println!("\nFsEncr slowdown over baseline security (geomean): {measured:.2}% (the paper gives no average)"),
            }
        }
        PassResult::Campaign(c) => match &c.counts {
            Ok(n) => {
                println!(
                    "\ncampaign: {} scenarios, {} lines audited: {} clean, {} detected, {} indeterminate, {} undetected; {} faults applied, {} recoveries",
                    n.scenarios, n.lines_total, n.lines_clean, n.lines_detected, n.indeterminate, n.undetected, n.applied, n.recoveries
                );
                if n.undetected > 0 {
                    println!(
                        "known failure: {} lines corrupted without detection (benchmark/README.md, \"Known failure\"); counted in fail_share",
                        n.undetected
                    );
                }
            }
            Err(e) => println!("\ncampaign report unreadable: {e}"),
        },
    }
}

/// Estimated host seconds per layer of a traced pass, largest first.
fn layer_table(pass: &PassResult, probes: &probes::Probes, layer: &[Metric]) -> Vec<(String, f64)> {
    let get = |name: &str| {
        layer
            .iter()
            .find(|x| x.name == name)
            .map_or(0.0, |x| x.value)
    };
    let mut rows = match pass {
        PassResult::Cells(p) => vec![
            (
                "setup: Machine::new + Workload::setup (fsencr, workloads)".to_string(),
                p.setup_s(),
            ),
            (
                "run: crypto (probe cost x pads, digests)".to_string(),
                get("crypto.est_s"),
            ),
            (
                "run: nvm (probe cost x device lines)".to_string(),
                get("nvm.est_s"),
            ),
            (
                "run: unattributed (fs, cache, machine, workload logic)".to_string(),
                get("unattributed_s"),
            ),
        ],
        PassResult::Campaign(c) => {
            let n = c.counts.clone().unwrap_or_default();
            let restore = probes.restore_ms * 1e-3 * n.scenarios as f64;
            let recover = probes.recover_ms * 1e-3 * n.recoveries as f64;
            let cpu = get("faults.scenario_ms") * 1e-3 * n.scenarios as f64;
            vec![
                (
                    "snapshot: restore per scenario (probe x scenarios)".to_string(),
                    restore,
                ),
                (
                    "faults: crash + recover (probe x recoveries)".to_string(),
                    recover,
                ),
                (
                    "faults: injector, ops, audit (rest of campaign CPU)".to_string(),
                    cpu - restore - recover,
                ),
                ("faults: campaign_base".to_string(), c.setup_s),
            ]
        }
    };
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows
}

/// Runs the workload and prints its result.
fn run(a: &RunArgs) {
    let w = a.workload;
    let scale = a.scale_override.unwrap_or(w.scale());
    let gated = a.scale_override.is_none();
    let expected = gates::parse_expected(gates::PMEMKV_EXPECTED).unwrap_or_else(|e| {
        eprintln!("fsencr-benchmark: expected/pmemkv.json is malformed: {e}");
        Vec::new()
    });
    let spans = Spans::default();
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "fsencr-benchmark: workload {} seed {} scale {scale} jobs {JOBS} (host parallelism {host}){}",
        w.name(),
        a.seed,
        if a.trace { " traced" } else { "" }
    );

    let warm_scale = match w {
        Workload::Faults => {
            WARMUP_SCENARIOS.min(campaign::scenarios_at(scale)) as f64 / campaign::SCENARIOS as f64
        }
        _ => WARMUP_SCALE.min(scale),
    };
    // The warm-up runs inline on this thread: pool workers that exist
    // before the timed pass leave malloc arenas behind, and whether the
    // timed pass reuses them varies from run to run, moving peak RSS by
    // a whole arena heap.
    pool::set_jobs(1);
    one_pass(a, warm_scale, false, &spans, "warm-up");
    pool::set_jobs(JOBS);

    // One timed pass; a traced run follows it with one observed pass and
    // the probes.
    let pass = one_pass(a, scale, false, &spans, "timed pass").0;
    let traced = a.trace.then(|| {
        let cpu0 = metrics::cpu_seconds();
        let (pass, span) = one_pass(a, scale, true, &spans, "traced pass");
        let cpu = metrics::cpu_seconds() - cpu0;
        let probes = probes::run_all(&spans, ROOT);
        (pass, cpu, probes, span)
    });

    let mut all = vec![&pass];
    all.extend(traced.as_ref().map(|(p, _, _, _)| p));
    let verdicts: Vec<gates::Verdict> = all
        .iter()
        .map(|p| gates::verdict(w, p, gated, &expected))
        .collect();
    let attempted: u64 = verdicts.iter().map(|v| v.attempted).sum();
    let failed: u64 = verdicts.iter().map(|v| v.failed).sum();
    let fail_share = verdicts[verdicts.len() - 1].fail_share;
    let mut problems: Vec<String> = verdicts.iter().flat_map(|v| v.problems.clone()).collect();
    if all.iter().any(|p| fingerprint(p) != fingerprint(all[0])) {
        problems.push("simulated output differs between passes of the same run".to_string());
    }
    print_outputs(w, all[all.len() - 1]);
    let (how, unit) = match (w, gated) {
        (Workload::Faults, _) => (
            "leading scenarios checked against run_campaign_cold",
            "scenarios",
        ),
        (_, true) => ("checked against recorded output", "cells"),
        (_, false) => ("skipped under --scale-override", "cells"),
    };
    println!("\ngates: {how} ({failed} of {attempted} {unit} failed)");
    for p in &problems {
        println!("problem: {p}");
    }
    for (i, p) in all.iter().enumerate() {
        println!(
            "pass {i}: wall {:.3} s, setup {:.3} s, run {:.3} s{}",
            p.wall_s(),
            p.setup_s(),
            p.run_s(),
            if i > 0 { " (traced)" } else { "" }
        );
    }

    let metrics = match &traced {
        None => metrics::end_to_end(&pass),
        Some((traced_pass, cpu, probes, span)) => {
            let layer = metrics::per_layer(traced_pass, probes, *cpu, pass.wall_s(), fail_share);
            println!("\nhost time by layer (traced pass, CPU seconds summed over workers):");
            for (name, s) in layer_table(traced_pass, probes, &layer) {
                println!("  {name:<60} {s:>9.3} s");
            }
            println!("span self time by layer (traced pass, summed over threads):");
            for (name, s) in spans.self_seconds_by_layer(*span) {
                println!("  {name:<60} {s:>9.3} s");
            }
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
            let file = format!("{path}/{}.trace.json", w.name());
            match std::fs::create_dir_all(path)
                .and_then(|()| std::fs::write(&file, spans.to_chrome_trace()))
            {
                Ok(()) => println!("spans: {file}"),
                Err(e) => eprintln!("fsencr-benchmark: could not write {file}: {e}"),
            }
            layer
        }
    };
    println!("\n{:<40} {:>18} unit", "metric", "value");
    for x in &metrics {
        println!("{:<40} {:>18.6} {}", x.name, x.value, x.unit);
    }
    if traced.is_none() {
        println!("fail_share {fail_share:.6} ratio");
    }
    let correct = failed == 0 && problems.is_empty();
    println!(
        "{}",
        metrics::result_line(correct, attempted, failed, &metrics)
    );
}
