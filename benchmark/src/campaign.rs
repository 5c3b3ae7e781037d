//! The `faults` workload: one seeded `harness faults` campaign per pass,
//! with the default fault mix (bit-rot, torn writes, power cuts, stuck
//! cells).
//!
//! At this size the mix has a known failure: with bit-rot and power cuts
//! in the same scenario some corrupted lines go undetected (see README.md,
//! "Known failure"). That is a property of the simulated system, reported
//! as `fail_share` and `faults.undetected`. The benchmark's own gate is
//! that the timed campaign, which restores every scenario from a shared
//! snapshot, matches the cold reference path scenario for scenario.

use fsencr_bench::faultcamp::{campaign_base, run_campaign, run_campaign_cold};
use fsencr_bench::jsonio::Json;
use fsencr_bench::pool;
use fsencr_faults::CampaignSpec;

use crate::spans::Spans;
use crate::JOBS;

/// Scenarios of one full-size pass.
pub const SCENARIOS: u64 = 4096;
/// The rest of the campaign spec of one pass.
pub const MIX: &str = "ops=128";
/// `campaign_base` calls per pass whose median is the pass's setup time.
const BASE_REPEATS: usize = 15;
/// Leading scenarios re-run, untimed, through `run_campaign_cold`.
pub const REFERENCE_SCENARIOS: u64 = 64;

/// The campaign spec with `scenarios` scenarios.
pub fn spec(scenarios: u64) -> CampaignSpec {
    format!("scenarios={scenarios},{MIX}")
        .parse()
        .expect("the benchmark's campaign spec is valid")
}

/// Scenario count for a scale override (at least 8).
pub fn scenarios_at(scale: f64) -> u64 {
    ((SCENARIOS as f64 * scale) as u64).max(8)
}

/// The per-scenario rows of a report, one line each as
/// `CampaignReport::to_json` writes them.
fn scenario_rows(report: &str) -> Vec<&str> {
    report
        .lines()
        .map(|l| l.trim().trim_end_matches(','))
        .filter(|l| l.starts_with("{\"scenario\": "))
        .collect()
}

/// Indices of the scenarios whose row in `report` differs from the same
/// row of `reference`, a report of the campaign's first `scenarios`
/// scenarios.
///
/// # Errors
///
/// Either report lacks some of those rows.
pub fn mismatched_scenarios(
    report: &str,
    reference: &str,
    scenarios: u64,
) -> Result<Vec<u64>, String> {
    let (timed, want) = (scenario_rows(report), scenario_rows(reference));
    if want.len() as u64 != scenarios || timed.len() < want.len() {
        return Err(format!(
            "{} timed and {} reference scenario rows for {scenarios} scenarios",
            timed.len(),
            want.len()
        ));
    }
    Ok((0..want.len())
        .filter(|&i| timed[i] != want[i])
        .map(|i| i as u64)
        .collect())
}

/// Aggregates of one campaign report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Scenarios run.
    pub scenarios: u64,
    /// Lines audited after the final recovery.
    pub lines_total: u64,
    /// Lines that read back clean.
    pub lines_clean: u64,
    /// Lines refused with a typed error (corruption detected).
    pub lines_detected: u64,
    /// Lines whose durable content is unknowable (outside coverage).
    pub indeterminate: u64,
    /// Silently corrupted lines inside coverage.
    pub undetected: u64,
    /// Faults that changed media bytes.
    pub applied: u64,
    /// Crash recoveries run (mid-run and final).
    pub recoveries: u64,
    /// Lines quarantined at the end of the scenarios.
    pub quarantined: u64,
}

impl Counts {
    /// Reads the aggregates out of `CampaignReport::to_json`.
    ///
    /// # Errors
    ///
    /// A missing or non-integer field.
    pub fn from_report(json: &str) -> Result<Counts, String> {
        let doc = Json::parse(json)?;
        let get = |path: &[&str]| -> Result<u64, String> {
            let mut v = &doc;
            for key in path {
                v = v
                    .get(key)
                    .ok_or_else(|| format!("report has no `{}`", path.join(".")))?;
            }
            v.as_u64()
                .ok_or_else(|| format!("`{}` is not an integer", path.join(".")))
        };
        let scenarios = doc
            .get("per_scenario")
            .and_then(Json::as_arr)
            .ok_or("report has no `per_scenario`")?
            .len() as u64;
        Ok(Counts {
            scenarios,
            lines_total: get(&["audit", "lines_total"])?,
            lines_clean: get(&["audit", "lines_clean"])?,
            lines_detected: get(&["audit", "lines_detected"])?,
            indeterminate: get(&["audit", "lines_indeterminate"])?,
            undetected: get(&["audit", "undetected_in_coverage"])?,
            applied: get(&["injected", "applied"])?,
            recoveries: get(&["recovery", "invocations"])?,
            quarantined: get(&["quarantined_lines"])?,
        })
    }

    /// Whether every audited line has exactly one verdict.
    pub fn consistent(&self) -> bool {
        self.lines_clean + self.lines_detected + self.indeterminate + self.undetected
            == self.lines_total
    }
}

/// One timed campaign.
#[derive(Debug, Clone)]
pub struct CampaignPass {
    /// Host seconds of `run_campaign`.
    pub wall_s: f64,
    /// Median host seconds of `campaign_base` (the campaign's set-up).
    pub setup_s: f64,
    /// The campaign report (`fsencr-faults/1`), byte-stable per seed.
    pub report: String,
    /// Its aggregates, or why they could not be read.
    pub counts: Result<Counts, String>,
    /// Indices of the leading scenarios whose outcome differs from the
    /// cold reference path, or why the reports could not be compared.
    pub mismatched: Result<Vec<u64>, String>,
}

/// Times the campaign's set-up alone, then the whole campaign; then,
/// untimed, checks its leading scenarios against the cold reference.
pub fn run_pass(seed: u64, spec: &CampaignSpec, spans: &Spans, parent: u64) -> CampaignPass {
    let mut base_s: Vec<f64> = (0..BASE_REPEATS)
        .map(|_| {
            spans
                .time(parent, "faults", "campaign_base", |_| {
                    std::hint::black_box(campaign_base(seed));
                })
                .1
        })
        .collect();
    base_s.sort_by(f64::total_cmp);
    let (report, wall_s) = spans.time(parent, "faults", format!("run_campaign {spec}"), |_| {
        run_campaign(seed, spec)
    });
    let report = report.to_json();
    let cold = CampaignSpec {
        scenarios: spec.scenarios.min(REFERENCE_SCENARIOS),
        ..*spec
    };
    // On this thread alone, like the warm-up: reference scenarios spread
    // over pool workers leave extra malloc arenas behind and move peak
    // RSS by up to 12 MiB from run to run.
    pool::set_jobs(1);
    let (reference, _) = spans.time(
        parent,
        "faults",
        format!("run_campaign_cold {cold}"),
        |_| run_campaign_cold(seed, &cold).to_json(),
    );
    pool::set_jobs(JOBS);
    let mismatched = mismatched_scenarios(&report, &reference, cold.scenarios);
    CampaignPass {
        wall_s,
        setup_s: base_s[BASE_REPEATS / 2],
        counts: Counts::from_report(&report),
        mismatched,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_check_finds_a_changed_scenario() {
        let report = run_campaign(3, &spec(4)).to_json();
        let reference = run_campaign_cold(3, &spec(2)).to_json();
        assert_eq!(mismatched_scenarios(&report, &reference, 2), Ok(vec![]));

        let tampered = report.replacen(
            "{\"scenario\": 1, \"planned\": ",
            "{\"scenario\": 1, \"planned\": 9",
            1,
        );
        assert_ne!(tampered, report);
        assert_eq!(mismatched_scenarios(&tampered, &reference, 2), Ok(vec![1]));
        assert!(mismatched_scenarios(&report, &reference, 3).is_err());
    }
}
