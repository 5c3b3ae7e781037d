//! Correctness gates. A host-speed change must leave every simulated
//! statistic identical, so each pass is checked against recorded output:
//!
//! * `whisper` and `dax` rebuild the Figure 11 and 12-14 rows from the
//!   cell stats and compare them, at the printed four decimals, with the
//!   committed `harness_full.txt`;
//! * `pmemkv` compares each cell's `(cycles, nvm_reads, nvm_writes)` with
//!   `expected/pmemkv.json`, recorded by `fsencr-benchmark expected`;
//! * `faults` compares the leading scenarios of the timed campaign with
//!   the cold reference path and checks that the audit verdicts add up.
//!
//! Machine key seeds do not change simulated statistics, so the figure
//! gates hold for every `--seed`; the campaign gate is seeded like the
//! campaign.

use std::collections::BTreeSet;

use fsencr::machine::SecurityMode;
use fsencr_bench::jsonio::Json;
use fsencr_bench::Figure;

use crate::args::Workload;
use crate::campaign::Counts;
use crate::cells::CellRun;
use crate::metrics::PassResult;

/// The committed paper-scale figure output of the harness.
pub const HARNESS_FULL: &str = include_str!("../../harness_full.txt");
/// Expected per-cell stats of the `pmemkv` workload at its scale.
pub const PMEMKV_EXPECTED: &str = include_str!("../expected/pmemkv.json");

/// The paper's average FsEncr slowdown over baseline security for a
/// workload's headline figure, in percent (`None` where the paper gives
/// no number).
pub fn paper_slowdown_pct(w: Workload) -> Option<f64> {
    match w {
        Workload::Whisper => Some(3.8),
        Workload::Dax => Some(20.03),
        _ => None,
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    a.max(1) as f64 / b.max(1) as f64
}

fn cell<'a>(cells: &'a [CellRun], label: &str, mode: SecurityMode) -> Option<&'a CellRun> {
    cells.iter().find(|c| c.label == label && c.mode == mode)
}

/// Labels in first-appearance order.
fn labels(cells: &[CellRun]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for c in cells {
        if !out.contains(&c.label) {
            out.push(c.label.clone());
        }
    }
    out
}

/// The slowdown / writes / reads triple the harness prints for a figure
/// normalised to baseline security, rebuilt from cell stats.
fn normalized(tag: &str, cells: &[CellRun]) -> Vec<Figure> {
    let mut slow = Figure::new(
        format!("{tag}: FsEncr slowdown (normalized to baseline security)"),
        vec!["slowdown".to_string()],
    );
    let mut writes = Figure::new(
        format!("{tag}: NVM writes (normalized to baseline security)"),
        vec!["writes".to_string()],
    );
    let mut reads = Figure::new(
        format!("{tag}: NVM reads (normalized to baseline security)"),
        vec!["reads".to_string()],
    );
    for label in labels(cells) {
        let (Some(base), Some(fse)) = (
            cell(cells, &label, SecurityMode::MemoryOnly),
            cell(cells, &label, SecurityMode::FsEncr),
        ) else {
            continue;
        };
        let (b, f) = (&base.window, &fse.window);
        slow.push(
            label.clone(),
            vec![f.cycles as f64 / b.cycles.max(1) as f64],
        );
        writes.push(label.clone(), vec![ratio(f.nvm_writes, b.nvm_writes)]);
        reads.push(label, vec![ratio(f.nvm_reads, b.nvm_reads)]);
    }
    vec![slow, writes, reads]
}

/// The figures the harness prints for `w`, rebuilt from the cells of one
/// pass (empty for the fault campaign).
pub fn figures(w: Workload, cells: &[CellRun]) -> Vec<Figure> {
    match w {
        Workload::Pmemkv => normalized("Figures 8-10 (PMEMKV)", cells),
        Workload::Dax => normalized("Figures 12-14 (DAX micro)", cells),
        Workload::Whisper => {
            let mut figs = normalized("Figure 11 (Whisper)", cells);
            let mut reduction = Figure::new(
                "Figure 11 (text): FsEncr reduction of filesystem-encryption overhead vs software [%]",
                vec!["reduction %".to_string()],
            );
            for label in labels(cells) {
                let get = |mode| cell(cells, &label, mode).map(|c| c.window.cycles as f64);
                let (Some(dax), Some(base), Some(fse), Some(soft)) = (
                    get(SecurityMode::Unencrypted),
                    get(SecurityMode::MemoryOnly),
                    get(SecurityMode::FsEncr),
                    get(SecurityMode::Software),
                ) else {
                    continue;
                };
                let ov_soft = soft / dax - 1.0;
                let ov_fse = (fse / base - 1.0).max(0.0);
                reduction.push(label, vec![100.0 * (1.0 - ov_fse / ov_soft.max(1e-9))]);
            }
            figs.push(reduction);
            figs
        }
        Workload::Faults => Vec::new(),
    }
}

/// The printed lines of the block titled `title` in `text` (header and
/// rows, without the title line), as the harness's `Figure` renders them.
fn block<'a>(text: &'a str, title: &str) -> Option<Vec<&'a str>> {
    let marker = format!("=== {title} ===");
    let mut lines = text.lines().skip_while(|l| *l != marker);
    lines.next()?;
    Some(lines.take_while(|l| !l.trim().is_empty()).collect())
}

/// Row labels (first column) whose printed line in `figs` differs from
/// the same figure's line in `reference`. A missing figure reports every
/// one of its rows.
pub fn mismatched_rows(figs: &[Figure], reference: &str) -> BTreeSet<String> {
    let mut bad = BTreeSet::new();
    for fig in figs {
        let printed = fig.to_string();
        let ours = block(&printed, &fig.title).unwrap_or_default();
        let want = block(reference, &fig.title).unwrap_or_default();
        for (i, line) in ours.iter().enumerate().skip(1) {
            if want.get(i) != Some(line) {
                bad.insert(
                    line.split_whitespace()
                        .next()
                        .unwrap_or_default()
                        .to_string(),
                );
            }
        }
        if want.len() != ours.len() {
            bad.insert("geomean".to_string());
        }
    }
    bad
}

/// One expected `pmemkv` cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Workload label.
    pub label: String,
    /// Security mode name as `SecurityMode` displays it.
    pub mode: String,
    /// Simulated cycles of the measured run.
    pub cycles: u64,
    /// NVM line reads of the measured run.
    pub nvm_reads: u64,
    /// NVM line writes of the measured run.
    pub nvm_writes: u64,
}

/// Parses `expected/pmemkv.json`.
///
/// # Errors
///
/// A description of the first malformed entry.
pub fn parse_expected(text: &str) -> Result<Vec<Expected>, String> {
    let json = Json::parse(text)?;
    let cells = json
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("missing `cells` array")?;
    cells
        .iter()
        .map(|c| {
            let s = |k: &str| {
                c.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("cell without `{k}`"))
            };
            let n = |k: &str| {
                c.get(k)
                    .and_then(Json::as_u64)
                    .ok_or(format!("cell without `{k}`"))
            };
            Ok(Expected {
                label: s("label")?,
                mode: s("mode")?,
                cycles: n("cycles")?,
                nvm_reads: n("nvm_reads")?,
                nvm_writes: n("nvm_writes")?,
            })
        })
        .collect()
}

/// Renders the cells of one pass in the `expected/pmemkv.json` format.
pub fn expected_json(scale: f64, cells: &[CellRun]) -> String {
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"label\": \"{}\", \"mode\": \"{}\", \"cycles\": {}, \"nvm_reads\": {}, \"nvm_writes\": {}}}",
                c.label, c.mode, c.window.cycles, c.window.nvm_reads, c.window.nvm_writes
            )
        })
        .collect();
    format!(
        "{{\n  \"scale\": {scale},\n  \"cells\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

/// Indices of the cells that fail `w`'s gate: cells that errored, plus
/// cells whose stats differ from the recorded ones.
pub fn failed_cells(w: Workload, cells: &[CellRun], expected: &[Expected]) -> BTreeSet<usize> {
    let mut bad: BTreeSet<usize> = (0..cells.len())
        .filter(|&i| cells[i].error.is_some())
        .collect();
    match w {
        Workload::Pmemkv => {
            for (i, c) in cells.iter().enumerate() {
                let mode = c.mode.to_string();
                let matches = expected.iter().any(|e| {
                    e.label == c.label
                        && e.mode == mode
                        && (e.cycles, e.nvm_reads, e.nvm_writes)
                            == (c.window.cycles, c.window.nvm_reads, c.window.nvm_writes)
                });
                if !matches {
                    bad.insert(i);
                }
            }
        }
        Workload::Whisper | Workload::Dax => {
            let rows = mismatched_rows(&figures(w, cells), HARNESS_FULL);
            for (i, c) in cells.iter().enumerate() {
                if rows.contains("geomean") || rows.contains(&c.label) {
                    bad.insert(i);
                }
            }
        }
        Workload::Faults => {}
    }
    bad
}

/// Operations attempted and failed in one pass, plus problems that make
/// the whole run incorrect.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Cells run, or campaign scenarios run.
    pub attempted: u64,
    /// Cells that errored or failed the gate, or scenarios whose outcome
    /// differs from the cold reference path.
    pub failed: u64,
    /// `failed ÷ attempted` for cells; for the campaign, lines corrupted
    /// without detection ÷ lines audited (the known failure).
    pub fail_share: f64,
    /// Everything else wrong with the pass, one line each.
    pub problems: Vec<String>,
}

fn share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Judges one pass of `w`. Without `gated` (a scale the gates were not
/// recorded at) only errored cells count as failed.
pub fn verdict(w: Workload, pass: &PassResult, gated: bool, expected: &[Expected]) -> Verdict {
    let mut problems = Vec::new();
    let (attempted, failed, fail_share) = match pass {
        PassResult::Cells(p) => {
            for c in &p.cells {
                if let Some(e) = &c.error {
                    problems.push(format!("{} [{}] failed: {e}", c.label, c.mode));
                }
            }
            let failed = if gated {
                failed_cells(w, &p.cells, expected).len()
            } else {
                p.cells.iter().filter(|c| c.error.is_some()).count()
            } as u64;
            let attempted = p.cells.len() as u64;
            (attempted, failed, share(failed, attempted))
        }
        PassResult::Campaign(c) => {
            let n = c.counts.clone().unwrap_or_else(|e| {
                problems.push(format!("campaign report unreadable: {e}"));
                Counts::default()
            });
            if !n.consistent() {
                problems.push(format!("campaign audit verdicts do not add up: {n:?}"));
            }
            let failed = match &c.mismatched {
                Ok(bad) => {
                    for i in bad {
                        problems.push(format!("scenario {i} differs from run_campaign_cold"));
                    }
                    bad.len() as u64
                }
                Err(e) => {
                    problems.push(format!("cold reference not comparable: {e}"));
                    1
                }
            };
            (
                n.scenarios.max(1),
                failed,
                share(n.undetected, n.lines_total),
            )
        }
    };
    Verdict {
        attempted,
        failed,
        fail_share,
        problems,
    }
}

/// FsEncr's geomean slowdown over baseline security across the pass, in
/// percent (0 when the pass has no such pairs).
pub fn overhead_pct(cells: &[CellRun]) -> f64 {
    let ratios: Vec<f64> = labels(cells)
        .iter()
        .filter_map(|l| {
            let base = cell(cells, l, SecurityMode::MemoryOnly)?;
            let fse = cell(cells, l, SecurityMode::FsEncr)?;
            Some(fse.window.cycles as f64 / base.window.cycles.max(1) as f64)
        })
        .collect();
    if ratios.is_empty() {
        return 0.0;
    }
    let logsum: f64 = ratios.iter().map(|r| r.max(1e-12).ln()).sum();
    100.0 * ((logsum / ratios.len() as f64).exp() - 1.0)
}
