//! Experiment driver: regenerates the paper's tables and figures.
//!
//! ```text
//! harness [--jobs N] <experiment> [scale]
//!
//! experiments:
//!   <figure>    a figure or ablation of the `fsencr_bench` registry
//!               (fig3, fig8-10, ..., ablation-partition; the usage line
//!               lists every one)
//!   table1      vulnerability matrix
//!   params      Table III simulation parameters
//!   list        Table II workload descriptions
//!   profile <fig> [scale]
//!               cycle-attribution profile of any figure's cells
//!               -> stdout + PROFILE_<fig>.json + PROFILE_<fig>_trace.json
//!   all         every table and figure above (slow)
//!   snapshot <save|load|info> [PATH]
//!               save/restore/inspect an fsencr-snap/1 machine image
//! ```
//!
//! `scale` in (0, 1] shrinks operation counts; default 1.0. Run with
//! `--release`. Malformed arguments, and any operand after the scale,
//! print the usage line and exit 2.
//!
//! Host-time measurement lives outside this binary: the `benchmark/`
//! package (declared by `BENCHMARK.json`) times the figure suite and a
//! fault campaign end to end and per layer.
//!
//! `--jobs N` sets how many experiment cells run concurrently, at most
//! 256; the default is the host's available parallelism. The figures are
//! identical at any worker count — only the wall-clock changes. Every
//! figure cell is simulated on every run: nothing is memoized between
//! runs.

#![expect(
    clippy::disallowed_types,
    reason = "per-figure wall-clock goes to stderr progress lines, not figures"
)]

use std::time::Instant;

use fsencr::machine::{Machine, MachineError, MachineOpts, SecurityMode};
use fsencr_bench as exp;
use fsencr_fs::{GroupId, Mode, UserId};
use fsencr_sim::{MachineConfig, SplitMix64};

/// The largest `--jobs` the harness accepts: far above the host
/// parallelism this simulator runs on, far below a thread count the OS
/// refuses (`pool::run_tasks` starts one scoped thread per worker).
const MAX_JOBS: usize = 256;

fn usage() -> ! {
    let figs: Vec<_> = exp::figure_names().collect();
    eprintln!(
        "usage: harness [--jobs N] <{}|table1|params|list|all> [scale]\n       harness [--jobs N] profile <{}> [scale]\n       harness [--jobs N] faults [--seed N] [--campaign SPEC] [--out PATH]\n       harness snapshot <save|load|info> [PATH] [--seed N] [--pages N] [--mode M]\n\n--jobs N runs up to N cells concurrently (1 <= N <= {}); figures are\nbyte-identical at any N.\n\n`faults` runs a deterministic fault-injection campaign and writes\nFAULTS_report.json (byte-identical at any --jobs count). SPEC is a\ncomma list like `scenarios=8,ops=64,bitrot=2,torn=1,cuts=1,stuck=1`;\nomitted knobs keep their defaults (`default` for all defaults).\n\n`snapshot save` simulates the reference setup and writes its\nfsencr-snap/1 image (default MACHINE.snap); `load` restores it; `info`\nlists its digest-chained sections without restoring.",
        figs.join("|"),
        figs.join("|"),
        MAX_JOBS
    );
    std::process::exit(2);
}

/// Parses a `--jobs` operand: a worker count in `1..=MAX_JOBS`.
/// Anything else is a usage error, reported before any worker starts.
fn parse_jobs(v: &str) -> usize {
    match v.parse() {
        Ok(n) if (1..=MAX_JOBS).contains(&n) => n,
        _ => usage(),
    }
}

/// Parses an optional `scale` operand: a number in (0, 1], or `default`
/// when absent. Anything else (out of range, NaN, not a number) is a
/// usage error.
fn parse_scale(arg: Option<&String>, default: f64) -> f64 {
    let Some(s) = arg else { return default };
    match s.parse::<f64>() {
        Ok(v) if v > 0.0 && v <= 1.0 => v,
        _ => usage(),
    }
}

/// Writes `contents` to `path`, or reports the failure under `tag` and
/// exits 1.
fn write_or_exit(tag: &str, path: &str, contents: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("[{tag}] write {path}: {e}");
        std::process::exit(1);
    }
}

fn params() {
    let cfg = MachineConfig::paper_defaults();
    println!("\n=== Table III: simulation parameters ===");
    println!(
        "CPU: {} cores @ 1000 MHz, out-of-order x86-64 (modelled request-level)",
        cfg.cpu.cores
    );
    for (name, c) in [("L1", cfg.cpu.l1), ("L2", cfg.cpu.l2), ("L3", cfg.cpu.l3)] {
        println!(
            "{name}: {} KiB, {}-way, {}B lines, {} cycles",
            c.size_bytes / 1024,
            c.ways,
            c.block_bytes,
            c.latency_cycles
        );
    }
    let n = cfg.nvm;
    println!(
        "NVM: {} GiB PCM, {} ranks/ch x {} banks, {} B row buffer, read {} ns / write {} ns",
        n.capacity_bytes >> 30,
        n.ranks_per_channel,
        n.banks_per_rank,
        n.row_buffer_bytes,
        n.read_ns,
        n.write_ns
    );
    println!(
        "timing: tRCD {} ns, tCL {} ns, tBURST {} ns, tWR {} ns",
        n.t_rcd_ns, n.t_cl_ns, n.t_burst_ns, n.t_wr_ns
    );
    let s = cfg.security;
    println!(
        "security: AES {} ns, metadata cache {} KiB {}-way, Merkle 8-ary (<= 9 levels), OTT {} entries @ {} cycles, Osiris stop-loss {}",
        s.aes_ns,
        s.metadata_cache.size_bytes / 1024,
        s.metadata_cache.ways,
        s.ott_entries,
        s.ott_latency_cycles,
        s.osiris_stop_loss
    );
}

/// Prints Table I, or reports the machine failure and exits 1.
fn table1() {
    match exp::table1() {
        Ok(fig) => println!("{fig}"),
        Err(e) => {
            eprintln!("[table1] {e}");
            std::process::exit(1);
        }
    }
}

fn list() {
    println!("\n=== Table II: benchmark descriptions ===");
    let rows = [
        (
            "DAX-1",
            "reads 1 byte after each 16 bytes of a persistent DAX file",
        ),
        (
            "DAX-2",
            "reads 1 byte after each 128 bytes of a persistent DAX file",
        ),
        (
            "DAX-3",
            "initialises two 16 B arrays at two locations and swaps them",
        ),
        (
            "DAX-4",
            "initialises two 128 B arrays at two locations and swaps them",
        ),
        (
            "Fillseq-S/L",
            "btree loads values (64 B / 4 KiB) in sequential key order",
        ),
        ("Fillrandom-S/L", "btree loads values in random key order"),
        ("Overwrite-S/L", "btree replaces values in random key order"),
        ("Readrandom-S/L", "btree reads values in random key order"),
        (
            "Readseq-S/L",
            "btree reads values via an in-order leaf scan",
        ),
        (
            "YCSB",
            "zipfian 50/50 read/update over a persistent hashmap, 2 workers",
        ),
        ("Hashmap", "insert/lookup mix, 128 B records, 2 threads"),
        (
            "CTree",
            "insert/lookup mix on a persistent binary tree, 128 B, 2 threads",
        ),
    ];
    for (name, desc) in rows {
        println!("{name:16} {desc}");
    }
}

/// Parses `--key V` / `--key=V` flags, in order, against `allowed`;
/// anything else (an unknown key, a missing value) is a usage error.
fn flags(args: &[String], allowed: &[&'static str]) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let (key, value) = match arg.split_once('=') {
            Some((key, value)) => (key, value.to_string()),
            None => (
                arg.as_str(),
                rest.next().cloned().unwrap_or_else(|| usage()),
            ),
        };
        let Some(&key) = allowed.iter().find(|&&k| k == key) else {
            usage()
        };
        out.push((key, value));
    }
    out
}

/// `harness faults`: runs a deterministic fault-injection campaign and
/// writes `FAULTS_report.json`. Exits non-zero if any in-coverage
/// corruption went undetected — the report is a pass/fail artifact, not
/// just telemetry.
fn faults(args: &[String]) {
    let mut seed: u64 = 42;
    let mut spec_str = String::from("default");
    let mut out_path = String::from("FAULTS_report.json");
    for (key, v) in flags(args, &["--seed", "--campaign", "--out"]) {
        match key {
            "--seed" => seed = v.parse().unwrap_or_else(|_| usage()),
            "--campaign" => spec_str = v,
            _ => out_path = v,
        }
    }
    let spec: fsencr_faults::CampaignSpec = spec_str.parse().unwrap_or_else(|e| {
        eprintln!("[faults] bad --campaign spec: {e}");
        std::process::exit(2);
    });
    eprintln!("[faults] seed {seed}, campaign {spec}");
    let report = exp::faultcamp::run_campaign(seed, &spec);
    write_or_exit("faults", &out_path, report.to_json());
    eprintln!("[faults] {}", report.summary());
    eprintln!("[faults] wrote {out_path}");
    if report.undetected_in_coverage() > 0 {
        eprintln!(
            "[faults] FAIL: {} in-coverage corruption(s) went undetected",
            report.undetected_in_coverage()
        );
        std::process::exit(1);
    }
}

/// Parses a `--mode` operand; accepts the `Display` names plus common
/// shorthands.
fn parse_mode(s: &str) -> SecurityMode {
    match s {
        "ext4-dax" | "unencrypted" => SecurityMode::Unencrypted,
        "baseline-security" | "memory-only" => SecurityMode::MemoryOnly,
        "fsencr" => SecurityMode::FsEncr,
        "software-encryption" | "software" => SecurityMode::Software,
        _ => usage(),
    }
}

/// The reference setup `harness snapshot save` simulates: one encrypted
/// file of `pages` pages, created, mapped, and every page filled with
/// seeded bytes and persisted.
fn reference_setup(
    seed: u64,
    pages: u64,
    opts: MachineOpts,
    mode: SecurityMode,
) -> Result<Machine, MachineError> {
    const PAGE: u64 = 4096;
    let mut m = Machine::new(opts, mode);
    // The file name is part of the saved image: keep it stable.
    let h = m.create(
        UserId::new(1),
        GroupId::new(1),
        "epochs.bin",
        Mode::PRIVATE,
        Some("pw"),
    )?;
    let map = m.mmap(&h)?;
    let mut rng = SplitMix64::new(seed ^ 0xEF0C);
    let mut page = vec![0u8; PAGE as usize];
    for p in 0..pages {
        for b in page.iter_mut() {
            *b = rng.next_u64() as u8;
        }
        m.write(0, map, p * PAGE, &page)?;
        m.persist(0, map, p * PAGE, PAGE)?;
    }
    Ok(m)
}

/// `harness snapshot <save|load|info> [PATH]`: the snapshot subsystem's
/// CLI. `save` simulates the reference setup (a fully initialised,
/// persisted encrypted file) and writes its post-setup `fsencr-snap/1`
/// image; `load` restores the image and reports the machine it rebuilt;
/// `info` walks the stream's digest-chained sections without restoring
/// anything.
fn snapshot_cmd(args: &[String]) {
    let Some(verb) = args.first() else { usage() };
    let verb = verb.as_str();
    let path = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .map_or("MACHINE.snap", String::as_str);
    let rest = if args.get(1).is_some_and(|a| !a.starts_with("--")) {
        &args[2..]
    } else {
        &args[1..]
    };
    let mut seed: u64 = 0x57AB;
    let mut pages: u64 = 128;
    let mut mode = SecurityMode::FsEncr;
    for (key, v) in flags(rest, &["--seed", "--pages", "--mode"]) {
        match key {
            "--seed" => seed = v.parse().unwrap_or_else(|_| usage()),
            "--pages" => pages = v.parse().unwrap_or_else(|_| usage()),
            _ => mode = parse_mode(&v),
        }
    }
    let opts = MachineOpts::small_test();
    match verb {
        "save" => {
            let t0 = Instant::now();
            let m = reference_setup(seed, pages, opts, mode).unwrap_or_else(|e| {
                eprintln!("[snapshot] setup failed: {e}");
                std::process::exit(1);
            });
            let setup = t0.elapsed();
            let bytes = m.save_snapshot().unwrap_or_else(|e| {
                eprintln!("[snapshot] save refused: {e}");
                std::process::exit(1);
            });
            write_or_exit("snapshot", path, &bytes);
            let sections = fsencr_snapshot::describe(&bytes).map_or(0, |s| s.len());
            eprintln!(
                "[snapshot] wrote {path}: {} bytes, {sections} sections (setup {setup:.2?}, \
                 seed {seed}, {pages} pages, mode {mode})",
                bytes.len()
            );
        }
        "load" => {
            let bytes = std::fs::read(path).unwrap_or_else(|e| {
                eprintln!("[snapshot] read {path}: {e}");
                std::process::exit(1);
            });
            let t0 = Instant::now();
            let m = Machine::restore_snapshot(opts, mode, &bytes).unwrap_or_else(|e| {
                eprintln!("[snapshot] {path}: {e}");
                std::process::exit(1);
            });
            println!(
                "[snapshot] {path}: restored in {:.2?} ({} bytes, machine at cycle {}, mode {mode})",
                t0.elapsed(),
                bytes.len(),
                m.elapsed()
            );
        }
        "info" => {
            let bytes = std::fs::read(path).unwrap_or_else(|e| {
                eprintln!("[snapshot] read {path}: {e}");
                std::process::exit(1);
            });
            match fsencr_snapshot::describe(&bytes) {
                Ok(sections) => {
                    println!(
                        "{path}: fsencr-snap/1, {} bytes, {} sections",
                        bytes.len(),
                        sections.len()
                    );
                    for s in &sections {
                        println!(
                            "  {:<24} {:>12} B  digest {:016x}",
                            s.name, s.payload_len, s.digest
                        );
                    }
                }
                Err(e) => {
                    eprintln!("[snapshot] {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        _ => usage(),
    }
}

/// `harness profile <fig>`: re-runs the figure's cells with the machine
/// observer enabled and emits the per-cell cycle-attribution breakdown,
/// plus JSON and chrome-trace exports next to the working directory.
fn profile(fig: &str, scale: f64) {
    let Some(report) = exp::profile::profile(fig, scale, exp::profile::DEFAULT_SPAN_CAPACITY)
    else {
        let figs: Vec<_> = exp::figure_names().collect();
        eprintln!(
            "[profile] `{fig}` is not a figure (try {})",
            figs.join(", ")
        );
        std::process::exit(2);
    };
    print!("{}", report.render_text());
    let json_path = format!("PROFILE_{fig}.json");
    write_or_exit("profile", &json_path, report.to_json());
    let trace_path = format!("PROFILE_{fig}_trace.json");
    write_or_exit("profile", &trace_path, report.to_chrome_trace());
    eprintln!("[profile] wrote {json_path} and {trace_path}");
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Accept `--jobs N` and `--jobs=N` anywhere on the command line.
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--jobs" {
            let Some(v) = args.get(i + 1) else { usage() };
            exp::pool::set_jobs(parse_jobs(v));
            args.drain(i..i + 2);
        } else if let Some(v) = args[i].strip_prefix("--jobs=") {
            exp::pool::set_jobs(parse_jobs(v));
            args.remove(i);
        } else {
            i += 1;
        }
    }
    let Some(which) = args.first() else { usage() };
    let which = which.clone();
    if which == "profile" {
        let (Some(fig), None) = (args.get(1), args.get(3)) else {
            usage()
        };
        // Profiling defaults to a small scale: the span buffers make
        // full-scale runs memory-heavy.
        let scale = parse_scale(args.get(2), 0.05);
        let t0 = Instant::now();
        profile(fig, scale);
        eprintln!("[harness] completed in {:.1?}", t0.elapsed());
        return;
    }
    if which == "faults" {
        let t0 = Instant::now();
        faults(&args[1..]);
        eprintln!("[harness] completed in {:.1?}", t0.elapsed());
        return;
    }
    if which == "snapshot" {
        snapshot_cmd(&args[1..]);
        return;
    }
    if args.len() > 2 {
        usage();
    }
    let scale = parse_scale(args.get(1), 1.0);

    let t0 = Instant::now();
    match which.as_str() {
        "table1" => table1(),
        "params" => params(),
        "list" => list(),
        "all" => {
            params();
            list();
            table1();
            for text in exp::figure_names().filter_map(|fig| exp::render(fig, scale)) {
                println!("{text}");
            }
        }
        fig => match exp::render(fig, scale) {
            Some(text) => println!("{text}"),
            None => usage(),
        },
    }
    eprintln!("[harness] completed in {:.1?}", t0.elapsed());
}
