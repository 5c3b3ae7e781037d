//! `harness profile`: deterministic per-cell cycle attribution.
//!
//! Re-runs a figure's cells with the machine's observer enabled and
//! renders *where the cycles went* in each cell — pad generation vs
//! data-fetch overlap, counter-block and key waits, OTT hit and miss
//! cycles — next to the measured window's counts (per-structure
//! metadata-cache hits and misses, Merkle climbs, OTT hits, NVM
//! row-buffer outcomes, overflows). The cells run
//! through the same deterministic pool as the figures, and every export
//! (text, JSON, chrome-trace) is assembled in submission order from
//! sorted metric maps, so output is byte-identical at any `--jobs`
//! worker count and under any [`crate::pool::Schedule`].

use fsencr::machine::SecurityMode;
use fsencr::snapshot::StatsSnapshot;
use fsencr_obs::{json_string, Observer};
use fsencr_workloads::driver::profile_workload;

use crate::experiments::{profile_cells, run_cells};

/// Default span-buffer capacity per cell: enough for small profile
/// scales; overflow is counted (`spans_dropped`), never silent.
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 16;

/// One profiled cell: a `(workload, mode)` run with attribution.
#[derive(Debug, Clone)]
pub struct ProfiledCell {
    /// Workload label (figure row name).
    pub label: String,
    /// Security mode the cell ran under.
    pub mode: SecurityMode,
    /// The measurement window as a raw counter delta.
    pub window: StatsSnapshot,
    /// The run-phase observer: cycle sums, datapath spans and the machine
    /// lifecycle events (page faults, key installs, shreds) as
    /// `machine`-category spans.
    pub observer: Observer,
}

/// A full profile: every cell of one figure, in submission order.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// The figure this profile covers (e.g. `fig8`).
    pub figure: String,
    /// The scale the cells ran at.
    pub scale: f64,
    /// Profiled cells in deterministic submission order.
    pub cells: Vec<ProfiledCell>,
}

/// Runs the cells of `fig` with observation enabled. Returns `None` for
/// anything that is not a figure command (e.g. `table1`).
pub fn profile(fig: &str, scale: f64, span_capacity: usize) -> Option<ProfileReport> {
    let cells = run_cells(&profile_cells(fig, scale)?, |spec| {
        let mut workload = (spec.factory)();
        let run = profile_workload(spec.opts, spec.mode, workload.as_mut(), span_capacity)?;
        Ok(ProfiledCell {
            label: spec.label.clone(),
            mode: spec.mode,
            window: run.result.stats,
            observer: run.observer,
        })
    });
    Some(ProfileReport {
        figure: fig.to_string(),
        scale,
        cells,
    })
}

impl ProfiledCell {
    fn header(&self) -> String {
        format!("{} [{}]", self.label, self.mode)
    }

    /// Recorded machine lifecycle events (`machine`-category spans).
    fn machine_events(&self) -> usize {
        self.observer.spans().filter(|s| s.cat == "machine").count()
    }

    /// The attribution groups the paper's datapath story names: cycle
    /// sums from the observer, plus the window's overflow count.
    fn breakdown(&self) -> Vec<(&'static str, u64)> {
        let m = |k: &'static str| self.observer.metric(k);
        vec![
            ("read total cycles", m("ctrl/read/total_cycles")),
            ("read data-fetch cycles", m("ctrl/read/data_cycles")),
            ("read pad-exposed cycles", m("ctrl/read/pad_exposed_cycles")),
            ("read pad-gen cycles", m("ctrl/read/pad_gen_cycles")),
            ("read mecb-wait cycles", m("ctrl/read/mecb_wait_cycles")),
            ("read fecb-wait cycles", m("ctrl/read/fecb_wait_cycles")),
            ("read key-wait cycles", m("ctrl/read/key_wait_cycles")),
            ("write total cycles", m("ctrl/write/total_cycles")),
            ("write pad-wait cycles", m("ctrl/write/pad_wait_cycles")),
            ("write mecb-wait cycles", m("ctrl/write/mecb_wait_cycles")),
            ("write key-wait cycles", m("ctrl/write/key_wait_cycles")),
            ("write overflows", self.window.overflow_reencryptions),
            ("ott hit cycles", m("ott/hit_cycles")),
            ("ott miss cycles", m("ott/miss_cycles")),
        ]
    }
}

impl ProfileReport {
    /// Human-readable per-cell breakdown.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "profile {} (scale {}): {} cells\n",
            self.figure,
            json_f64(self.scale),
            self.cells.len()
        ));
        for cell in &self.cells {
            out.push_str(&format!("\n== {} ==\n", cell.header()));
            let w = &cell.window;
            out.push_str(&format!(
                "  window: {} cycles, {} reads, {} writes, {} nvm reads, {} nvm writes\n",
                w.cycles, w.reads, w.writes, w.nvm_reads, w.nvm_writes
            ));
            out.push_str(&format!(
                "  caches: meta {:.1}% (mecb {}h/{}m fecb {}h/{}m spill {}h/{}m node {}h/{}m), ott {:.1}%, rows {}h/{}m\n",
                100.0 * w.meta_hit_rate(),
                w.meta_mecb_hits,
                w.meta_mecb_misses,
                w.meta_fecb_hits,
                w.meta_fecb_misses,
                w.meta_spill_hits,
                w.meta_spill_misses,
                w.meta_node_hits,
                w.meta_node_misses,
                100.0 * w.ott_hit_rate(),
                w.nvm_row_hits,
                w.nvm_row_misses
            ));
            out.push_str(&format!(
                "  merkle: {} climbs, {} levels walked, {} parent bumps; osiris persists {}\n",
                w.meta_verify_climbs,
                w.meta_verify_levels,
                w.meta_update_bumps,
                w.meta_osiris_persists
            ));
            out.push_str("  attribution:\n");
            for (name, v) in cell.breakdown() {
                if v > 0 {
                    out.push_str(&format!("    {name:<26} {v}\n"));
                }
            }
            out.push_str(&format!(
                "  spans: {} recorded, {} dropped; machine trace events: {}\n",
                cell.observer.spans().count(),
                cell.observer.spans_dropped(),
                cell.machine_events()
            ));
        }
        out
    }

    /// Machine-readable export: every cell with its full metric map and
    /// counter window. Byte-stable by construction (sorted metric keys,
    /// submission-order cells).
    pub fn to_json(&self) -> String {
        let mut cells = String::new();
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                cells.push(',');
            }
            let mut metrics = String::new();
            for (j, (k, v)) in cell.observer.metrics().enumerate() {
                if j > 0 {
                    metrics.push(',');
                }
                metrics.push_str(&format!("\n        {}: {}", json_string(k), v));
            }
            let mut window = String::new();
            for (j, (k, v)) in cell.window.rows().iter().enumerate() {
                if j > 0 {
                    window.push(',');
                }
                window.push_str(&format!("\n        {}: {}", json_string(k), v));
            }
            cells.push_str(&format!(
                "\n    {{\n      \"label\": {},\n      \"mode\": {},\n      \"metrics\": {{{}\n      }},\n      \"window\": {{{}\n      }},\n      \"spans_recorded\": {},\n      \"spans_dropped\": {},\n      \"trace_events\": {}\n    }}",
                json_string(&cell.label),
                json_string(&cell.mode.to_string()),
                metrics,
                window,
                cell.observer.spans().count(),
                cell.observer.spans_dropped(),
                cell.machine_events()
            ));
        }
        format!(
            "{{\n  \"schema\": \"fsencr-profile/1\",\n  \"figure\": {},\n  \"scale\": {},\n  \"cells\": [{}\n  ]\n}}\n",
            json_string(&self.figure),
            json_f64(self.scale),
            cells
        )
    }

    /// `chrome://tracing` / Perfetto export: one process per cell (pid =
    /// cell index + 1, named by a metadata event), spans in record order —
    /// machine lifecycle events are zero-length spans on the same
    /// timeline.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("[");
        let mut first = true;
        for (i, cell) in self.cells.iter().enumerate() {
            let pid = i + 1;
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n  {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {}, \"tid\": 1, \"args\": {{\"name\": {}}}}}",
                pid,
                json_string(&cell.header())
            ));
            for s in cell.observer.spans() {
                out.push_str(&format!(
                    ",\n  {{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"pid\": {}, \"tid\": 1, \"ts\": {}, \"dur\": {}, \"args\": {{\"arg\": {}}}}}",
                    json_string(s.name),
                    json_string(s.cat),
                    pid,
                    s.begin,
                    s.duration(),
                    s.arg
                ));
            }
        }
        out.push_str("\n]\n");
        out
    }
}

/// Formats an `f64` as a JSON number (finite; NaN/inf degrade to 0).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // Fixed precision: enough digits for the scales and ratios
        // printed here, and never a `1e20`-style exponent.
        format!("{v:.6}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_figure_yields_none() {
        assert!(profile("table1", 0.01, 0).is_none());
        assert!(profile("nonsense", 0.01, 0).is_none());
    }

    #[test]
    fn fig8_profile_attributes_cycles() {
        let report = profile("fig8", 0.01, 1 << 14).expect("fig8 is profilable");
        assert!(!report.cells.is_empty());
        // FsEncr cells must attribute pad generation and metadata waits.
        let fse: Vec<_> = report
            .cells
            .iter()
            .filter(|c| c.mode == SecurityMode::FsEncr)
            .collect();
        assert!(!fse.is_empty());
        // At smoke scale some read-only cells are fully cache-resident, so
        // pad generation is asserted across the mode, not per cell.
        let pad_gen: u64 = fse
            .iter()
            .map(|c| {
                c.observer.metric("ctrl/read/pad_gen_cycles")
                    + c.observer.metric("ctrl/write/pad_gen_cycles")
            })
            .sum();
        assert!(pad_gen > 0);
        for cell in fse {
            assert!(cell.window.cycles > 0, "{}", cell.label);
        }
        // All three exports are well-formed and non-empty.
        let text = report.render_text();
        assert!(text.contains("attribution"));
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"fsencr-profile/1\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let trace = report.to_chrome_trace();
        assert!(trace.starts_with('[') && trace.ends_with("]\n"));
    }

    #[test]
    fn json_scalars_are_finite() {
        assert_eq!(json_f64(4.0), "4.000000");
        assert_eq!(json_f64(f64::NAN), "0.0");
        assert_eq!(json_f64(f64::INFINITY), "0.0");
    }

    #[test]
    fn machine_events_render_as_machine_spans() {
        let mut obs = Observer::default();
        obs.enable(4);
        obs.span("ctrl", "read_line", 10, 25, 64);
        obs.span("machine", "shred", 17, 17, 3);
        let report = ProfileReport {
            figure: "synthetic".to_string(),
            scale: 1.0,
            cells: vec![ProfiledCell {
                label: "cell".to_string(),
                mode: SecurityMode::FsEncr,
                window: StatsSnapshot::default(),
                observer: obs,
            }],
        };
        let trace = report.to_chrome_trace();
        assert!(
            trace.contains("\"name\": \"shred\", \"cat\": \"machine\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": 17, \"dur\": 0, \"args\": {\"arg\": 3}"),
            "{trace}"
        );
        assert!(
            trace.contains("\"name\": \"read_line\", \"cat\": \"ctrl\""),
            "{trace}"
        );
        assert!(report.to_json().contains("\"spans_recorded\": 2"));
        assert!(report.to_json().contains("\"trace_events\": 1"));
        assert!(report.render_text().contains("machine trace events: 1"));
    }
}
