//! Metric assembly and the result line the benchmark prints last.

use fsencr::machine::SecurityMode;
use fsencr::snapshot::StatsSnapshot;
use fsencr_obs::Observer;

use crate::campaign::{CampaignPass, Counts};
use crate::cells::Pass;
use crate::gates;
use crate::probes::Probes;
use crate::spans::json_string;
use crate::JOBS;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

fn m(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// One timed pass of either kind of workload.
#[derive(Debug, Clone)]
pub enum PassResult {
    /// A figure's cells.
    Cells(Pass),
    /// A fault campaign.
    Campaign(CampaignPass),
}

impl PassResult {
    /// First cell start to last cell end; the campaign's duration.
    pub fn wall_s(&self) -> f64 {
        match self {
            PassResult::Cells(p) => p.wall_s,
            PassResult::Campaign(c) => c.wall_s,
        }
    }

    /// Sum of `Machine::new` + `Workload::setup`; `campaign_base`.
    pub fn setup_s(&self) -> f64 {
        match self {
            PassResult::Cells(p) => p.setup_s(),
            PassResult::Campaign(c) => c.setup_s,
        }
    }

    /// Sum of `Workload::run` + `sync_cores`; the campaign's duration.
    pub fn run_s(&self) -> f64 {
        match self {
            PassResult::Cells(p) => p.run_s(),
            PassResult::Campaign(c) => c.wall_s,
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds this process has used, all threads included.
pub fn cpu_seconds() -> f64 {
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th, in USER_HZ (100 per second on Linux).
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// The end-to-end metrics of the run's timed pass.
pub fn end_to_end(pass: &PassResult) -> Vec<Metric> {
    vec![
        m("wall_s", "s", pass.wall_s()),
        m("setup_s", "s", pass.setup_s()),
        m("run_s", "s", pass.run_s()),
        m("peak_rss_mb", "MiB", peak_rss_mb()),
    ]
}

const MODES: [SecurityMode; 4] = [
    SecurityMode::Unencrypted,
    SecurityMode::MemoryOnly,
    SecurityMode::FsEncr,
    SecurityMode::Software,
];

/// Observer keys reported as `sim.*` cycle attribution.
const OBS_KEYS: [(&str, &str); 7] = [
    (
        "sim.ctrl.read.pad_exposed_cycles",
        "ctrl/read/pad_exposed_cycles",
    ),
    ("sim.ctrl.read.data_cycles", "ctrl/read/data_cycles"),
    (
        "sim.ctrl.read.mecb_wait_cycles",
        "ctrl/read/mecb_wait_cycles",
    ),
    (
        "sim.ctrl.read.fecb_wait_cycles",
        "ctrl/read/fecb_wait_cycles",
    ),
    (
        "sim.ctrl.write.mecb_wait_cycles",
        "ctrl/write/mecb_wait_cycles",
    ),
    (
        "sim.ctrl.write.pad_wait_cycles",
        "ctrl/write/pad_wait_cycles",
    ),
    ("sim.ott.miss_cycles", "ott/miss_cycles"),
];

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The per-layer metrics of one traced pass. Counts are exact
/// simulated totals over the cells' measured runs; `*_ns`/`*_ms` come
/// from the probes; `*.est_s` charge the counts at the probed cost.
/// Counters a workload does not exercise read 0 (the campaign exposes
/// no machine counters, the figures run no campaign). `pass_cpu_s` is the
/// process CPU time the pass used; `untraced_wall_s` is the wall time of
/// the plain pass run in the same process; `fail_share` is the pass's
/// [`gates::Verdict::fail_share`].
pub fn per_layer(
    pass: &PassResult,
    probes: &Probes,
    pass_cpu_s: f64,
    untraced_wall_s: f64,
    fail_share: f64,
) -> Vec<Metric> {
    let (wall_s, run_s) = (pass.wall_s(), pass.run_s());
    let mut w = StatsSnapshot::default();
    let mut obs = Observer::disabled();
    obs.enable(0);
    let mut setup_lines = 0u64;
    let mut cell_max_s = 0.0f64;
    let (mut setup_by_mode, mut run_by_mode) = ([0.0; 4], [0.0; 4]);
    let mut campaign = Counts::default();
    let (mut scenario_ms, mut overhead_pct) = (0.0, 0.0);
    match pass {
        PassResult::Cells(p) => {
            for c in &p.cells {
                w.merge(&c.window);
                obs.merge(&c.obs);
                setup_lines += c.setup_writes;
                cell_max_s = cell_max_s.max(c.total_s());
                let i = MODES.iter().position(|&mode| mode == c.mode).unwrap_or(0);
                setup_by_mode[i] += c.new_s + c.setup_s;
                run_by_mode[i] += c.run_s;
            }
            overhead_pct = gates::overhead_pct(&p.cells);
        }
        PassResult::Campaign(c) => {
            campaign = c.counts.clone().unwrap_or_default();
            scenario_ms = share(pass_cpu_s * 1e3, campaign.scenarios as f64);
        }
    }
    let pads = (w.reads + w.writes + w.file_accesses) as f64;
    let digests = (w.meta_verify_levels + w.meta_update_bumps) as f64;
    let crypto_est_s = (pads * probes.pad_ns + digests * probes.digest_ns) * 1e-9;
    let nvm_est_s = (w.nvm_reads as f64 * probes.nvm_read_ns
        + w.nvm_writes as f64 * probes.nvm_write_ns)
        * 1e-9;
    let count = |v: u64| v as f64;

    let mut out = vec![
        m(
            "harness.pool_util",
            "ratio",
            share(pass_cpu_s, wall_s * JOBS as f64),
        ),
        m("harness.cell_max_s", "s", cell_max_s),
        m("workloads.setup_lines", "count", count(setup_lines)),
        m(
            "workloads.setup_ns_per_line",
            "ns",
            share(pass.setup_s() * 1e9, setup_lines as f64),
        ),
    ];
    for (i, mode) in MODES.iter().enumerate() {
        out.push(m(
            format!("workloads.setup_s.{mode}"),
            "s",
            setup_by_mode[i],
        ));
    }
    for (i, mode) in MODES.iter().enumerate() {
        out.push(m(format!("workloads.run_s.{mode}"), "s", run_by_mode[i]));
    }
    out.extend([
        m("fsencr.reads", "count", count(w.reads)),
        m("fsencr.writes", "count", count(w.writes)),
        m("fsencr.file_accesses", "count", count(w.file_accesses)),
        m("fsencr.ott_hit_rate", "ratio", w.ott_hit_rate()),
        m("fsencr.ott_evictions", "count", count(w.ott_evictions)),
        m("fsencr.tlb_hit_rate", "ratio", w.tlb_hit_rate()),
        m("fsencr.read_lines_ns", "ns", probes.read_lines_ns),
        m("fsencr.write_lines_ns", "ns", probes.write_lines_ns),
        m("secmem.meta_hit_rate", "ratio", w.meta_hit_rate()),
        m("secmem.verify_climbs", "count", count(w.meta_verify_climbs)),
        m("secmem.verify_levels", "count", count(w.meta_verify_levels)),
        m("secmem.update_bumps", "count", count(w.meta_update_bumps)),
        m(
            "secmem.osiris_persists",
            "count",
            count(w.meta_osiris_persists),
        ),
        m(
            "secmem.evict_writebacks",
            "count",
            count(w.meta_evict_writebacks),
        ),
        m("secmem.node_fetches", "count", count(w.meta_node_fetches)),
        m("secmem.verify_ns", "ns", probes.verify_ns),
        m("secmem.persist_ns", "ns", probes.persist_ns),
        m("crypto.pad_ns", "ns", probes.pad_ns),
        m("crypto.digest_ns", "ns", probes.digest_ns),
        m("crypto.pads", "count", pads),
        m("crypto.digests", "count", digests),
        m("crypto.est_s", "s", crypto_est_s),
        m("crypto.est_share", "ratio", share(crypto_est_s, run_s)),
        m("nvm.reads", "count", count(w.nvm_reads)),
        m("nvm.writes", "count", count(w.nvm_writes)),
        m(
            "nvm.row_hit_rate",
            "ratio",
            share(
                w.nvm_row_hits as f64,
                (w.nvm_row_hits + w.nvm_row_misses) as f64,
            ),
        ),
        m("nvm.read_ns", "ns", probes.nvm_read_ns),
        m("nvm.write_ns", "ns", probes.nvm_write_ns),
        m("nvm.est_s", "s", nvm_est_s),
        m("nvm.est_share", "ratio", share(nvm_est_s, run_s)),
        m("cache.load_ns", "ns", probes.cache_load_ns),
        m("cache.store_ns", "ns", probes.cache_store_ns),
        m("snapshot.save_ms", "ms", probes.save_ms),
        m("snapshot.restore_ms", "ms", probes.restore_ms),
        m("snapshot.bytes", "B", probes.snapshot_bytes as f64),
        m("faults.scenario_ms", "ms", scenario_ms),
        m("faults.recover_ms", "ms", probes.recover_ms),
        m("faults.applied", "count", count(campaign.applied)),
        m("faults.recoveries", "count", count(campaign.recoveries)),
        m("faults.quarantined", "count", count(campaign.quarantined)),
        m(
            "faults.indeterminate",
            "count",
            count(campaign.indeterminate),
        ),
        m("faults.undetected", "count", count(campaign.undetected)),
        m("sim.overhead_pct", "%", overhead_pct),
    ]);
    for (name, key) in OBS_KEYS {
        out.push(m(name, "cycles", count(obs.metric(key))));
    }
    out.extend([
        m("unattributed_s", "s", run_s - crypto_est_s - nvm_est_s),
        m("trace.overhead", "ratio", share(wall_s, untraced_wall_s)),
        m("fail_share", "ratio", fail_share),
    ]);
    out
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_string(&x.name),
                json_string(x.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsencr_bench::jsonio::Json;

    #[test]
    fn result_line_is_json_with_exactly_the_four_keys() {
        let line = result_line(
            true,
            20,
            0,
            &[m("wall_s", "s", 1.25), m("sim.overhead_pct", "%", f64::NAN)],
        );
        let doc = Json::parse(&line).expect("valid JSON");
        let keys: Vec<&String> = doc.as_obj().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let wall = doc
            .get("metrics")
            .and_then(|x| x.get("wall_s"))
            .expect("wall_s");
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn process_counters_read_from_proc() {
        assert!(peak_rss_mb() > 0.0 && cpu_seconds() >= 0.0);
    }
}
