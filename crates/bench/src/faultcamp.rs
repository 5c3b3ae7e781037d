//! Deterministic fault-injection campaigns (`harness faults`).
//!
//! A campaign runs `spec.scenarios` independent scenarios. Each scenario
//! builds its own small [`Machine`], fully initialises a file (every line
//! written and persisted, so every line is inside the ECC oracle's
//! recovery coverage), arms the scenario's [`FaultPlan`], drives a seeded
//! stream of write/persist/read operations while the injector applies
//! bit-rot, torn writes, power cuts and wear-out cells, and finally
//! disarms, crash-recovers and audits every file line against a host-side
//! shadow copy.
//!
//! The audit's verdict per line:
//!
//! * **clean** — the read succeeds and matches the shadow (never
//!   corrupted, overwritten since, or repaired by recovery);
//! * **detected** — the read fails with a typed integrity error
//!   (quarantined by recovery's ECC sweep or fenced after a Merkle
//!   verification failure);
//! * **indeterminate** — a mid-operation integrity failure left the
//!   line's *durable* expectation unknowable: a failed write or persist
//!   aborts the batched writeback region at its first error, so only an
//!   unknown prefix of the span reached the device and the ECC record.
//!   Such lines are *provably outside coverage* (and stay there until a
//!   later write + persist succeeds) and are reported separately;
//! * **undetected** — the read succeeds but does not match the shadow.
//!   This is silent corruption inside coverage; the report surfaces it
//!   as `undetected_in_coverage`, which a healthy tree keeps at **0**.
//!
//! Determinism: scenarios share nothing mutable and are joined in
//! submission order by [`crate::pool::run_tasks`], every random choice
//! derives from the campaign seed (init) or `(seed, scenario)` (plans
//! and ops) via [`XorShift64`], and the report contains no wall-clock —
//! so `FAULTS_report.json` is byte-identical at any `--jobs` count and
//! under every [`crate::pool::Schedule`] policy.
//!
//! Scenario setup is *snapshot-seeded*: the post-initialisation machine
//! (file created, mapped, fully written and persisted) depends only on
//! the campaign seed, so it is built **once**, serialised with
//! [`Machine::save_snapshot`], and every scenario restores its own
//! machine from the shared bytes instead of re-simulating the
//! initialisation. The snapshot round-trip theorem (`snapshot_roundtrip`
//! suite) makes the restored machine bit-identical to the one that ran
//! setup in-process — [`campaign_matches_cold_setup`] in the test module
//! pins the resulting report bytes to the cold path's.
//!
//! A scenario's machine costs what it holds, not what the 8-core cache
//! hierarchy could hold: cache sets allocate their ways on first fill,
//! and cache images list resident sets only, so restoring the base image
//! (about 61 KB for seed 7) and dropping the machine afterwards scale
//! with the lines setup touched. Recovery's candidate search strips each
//! memory-layer pad once per counter candidate. What remains per
//! scenario is the simulated work: the ops, the injected faults, the
//! crash recovery and the audit.

use std::collections::BTreeSet;
use std::sync::Arc;

use fsencr::machine::MachineError;
use fsencr::{Machine, MachineOpts, MemError, SecurityMode};
use fsencr_faults::{CampaignSpec, FaultKind, FaultPlan, XorShift64};
use fsencr_fs::{AccessKind, GroupId, Mode, UserId};

use crate::pool;

/// Pages of the campaign file; small enough that a scenario is fast,
/// large enough that faults land on distinct pages.
const FILE_PAGES: u64 = 4;
/// Campaign file size in bytes.
const FILE_BYTES: u64 = FILE_PAGES * 4096;
/// 64-byte lines in the campaign file.
const FILE_LINES: u64 = FILE_BYTES / 64;

/// Summed outcome of one scenario.
#[derive(Debug, Clone, Default)]
struct ScenarioOutcome {
    scenario: u64,
    planned: u64,
    applied: u64,
    benign: u64,
    bit_rot: u64,
    torn_write: u64,
    power_cut: u64,
    stuck_at: u64,
    recoveries: u64,
    rec_clean: u64,
    rec_repaired: u64,
    rec_unrecoverable: u64,
    rec_quarantined: u64,
    detected_during_ops: u64,
    silent_read_garbles: u64,
    lines_clean: u64,
    lines_detected: u64,
    lines_indeterminate: u64,
    lines_undetected: u64,
    quarantined_lines: u64,
}

/// The full campaign report serialised to `FAULTS_report.json`
/// (schema `fsencr-faults/1`, documented in `EXPERIMENTS.md`).
#[derive(Debug, Clone)]
pub struct CampaignReport {
    seed: u64,
    spec: CampaignSpec,
    scenarios: Vec<ScenarioOutcome>,
}

impl CampaignReport {
    fn sum(&self, f: impl Fn(&ScenarioOutcome) -> u64) -> u64 {
        self.scenarios.iter().map(f).sum()
    }

    /// Silently corrupted lines inside coverage — the headline number a
    /// campaign exists to prove is zero.
    pub fn undetected_in_coverage(&self) -> u64 {
        self.sum(|s| s.lines_undetected)
    }

    /// Corrupt or fenced lines the system surfaced as typed errors.
    pub fn detected_lines(&self) -> u64 {
        self.sum(|s| s.lines_detected)
    }

    /// Faults the injector actually applied (media bytes changed).
    pub fn applied_faults(&self) -> u64 {
        self.sum(|s| s.applied)
    }

    /// `detected / (detected + undetected)`; `1` when nothing corrupted.
    fn detection_rate(&self) -> f64 {
        let detected = self.detected_lines();
        let denom = detected + self.undetected_in_coverage();
        if denom == 0 {
            1.0
        } else {
            detected as f64 / denom as f64
        }
    }

    /// Fraction of audited lines that read back clean and correct.
    fn recovery_rate(&self) -> f64 {
        let total = self.sum(|_| FILE_LINES);
        if total == 0 {
            1.0
        } else {
            self.sum(|s| s.lines_clean) as f64 / total as f64
        }
    }

    /// Serialises the report. Pure function of the campaign inputs: no
    /// timestamps, no wall-clock, no host state.
    pub fn to_json(&self) -> String {
        let mut rows = String::new();
        for (i, s) in self.scenarios.iter().enumerate() {
            if i > 0 {
                rows.push_str(",\n");
            }
            rows.push_str(&format!(
                "      {{\"scenario\": {}, \"planned\": {}, \"applied\": {}, \"benign\": {}, \"recoveries\": {}, \"detected_during_ops\": {}, \"silent_read_garbles\": {}, \"lines_clean\": {}, \"lines_detected\": {}, \"lines_indeterminate\": {}, \"undetected_in_coverage\": {}, \"quarantined_lines\": {}}}",
                s.scenario,
                s.planned,
                s.applied,
                s.benign,
                s.recoveries,
                s.detected_during_ops,
                s.silent_read_garbles,
                s.lines_clean,
                s.lines_detected,
                s.lines_indeterminate,
                s.lines_undetected,
                s.quarantined_lines,
            ));
        }
        format!(
            "{{\n  \"schema\": \"fsencr-faults/1\",\n  \"seed\": {},\n  \"spec\": \"{}\",\n  \"lines_per_scenario\": {},\n  \"injected\": {{\n    \"planned\": {},\n    \"applied\": {},\n    \"benign\": {},\n    \"bit_rot\": {},\n    \"torn_write\": {},\n    \"power_cut\": {},\n    \"stuck_at\": {}\n  }},\n  \"recovery\": {{\n    \"invocations\": {},\n    \"clean\": {},\n    \"repaired\": {},\n    \"unrecoverable\": {},\n    \"quarantined\": {}\n  }},\n  \"audit\": {{\n    \"lines_total\": {},\n    \"lines_clean\": {},\n    \"lines_detected\": {},\n    \"lines_indeterminate\": {},\n    \"undetected_in_coverage\": {},\n    \"undetected_outside_coverage\": {}\n  }},\n  \"detection_rate\": \"{:.4}\",\n  \"recovery_rate\": \"{:.4}\",\n  \"quarantined_lines\": {},\n  \"detected_during_ops\": {},\n  \"silent_read_garbles\": {},\n  \"per_scenario\": [\n{}\n    ]\n}}\n",
            self.seed,
            self.spec,
            FILE_LINES,
            self.sum(|s| s.planned),
            self.applied_faults(),
            self.sum(|s| s.benign),
            self.sum(|s| s.bit_rot),
            self.sum(|s| s.torn_write),
            self.sum(|s| s.power_cut),
            self.sum(|s| s.stuck_at),
            self.sum(|s| s.recoveries),
            self.sum(|s| s.rec_clean),
            self.sum(|s| s.rec_repaired),
            self.sum(|s| s.rec_unrecoverable),
            self.sum(|s| s.rec_quarantined),
            self.sum(|_| FILE_LINES),
            self.sum(|s| s.lines_clean),
            self.detected_lines(),
            self.sum(|s| s.lines_indeterminate),
            self.undetected_in_coverage(),
            self.sum(|s| s.lines_indeterminate),
            self.detection_rate(),
            self.recovery_rate(),
            self.sum(|s| s.quarantined_lines),
            self.sum(|s| s.detected_during_ops),
            self.sum(|s| s.silent_read_garbles),
            rows,
        )
    }

    /// One-line human summary for the harness's stderr.
    pub fn summary(&self) -> String {
        format!(
            "{} scenarios, {} faults applied ({} planned): {} lines detected, {} clean, {} indeterminate, {} UNDETECTED; {} quarantined",
            self.scenarios.len(),
            self.applied_faults(),
            self.sum(|s| s.planned),
            self.detected_lines(),
            self.sum(|s| s.lines_clean),
            self.sum(|s| s.lines_indeterminate),
            self.undetected_in_coverage(),
            self.sum(|s| s.quarantined_lines),
        )
    }
}

/// True for errors the datapath raised as typed integrity refusals.
fn is_integrity(e: &MachineError) -> bool {
    matches!(e, MachineError::Mem(MemError::Integrity(_)))
}

/// Fills `buf` from the scenario's op stream.
fn fill_random(rng: &mut XorShift64, buf: &mut [u8]) {
    for chunk in buf.chunks_mut(8) {
        let v = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&v[..chunk.len()]);
    }
}

/// The shared post-initialisation state every scenario starts from: the
/// machine snapshot plus the host-side shadow of the file's content.
/// A pure function of the campaign seed.
pub struct CampaignBase {
    snapshot: Vec<u8>,
    shadow: Vec<u8>,
}

/// A file offset as an index into the shadow copy. Offsets stay below
/// `FILE_BYTES`; anything wider than `usize` would fail the slice bound.
fn at(off: u64) -> usize {
    usize::try_from(off).unwrap_or(usize::MAX)
}

/// Builds the post-initialisation machine in-process: file created,
/// mapped, every line written and persisted before any injector arms,
/// so the ECC oracle covers the whole file and the audit has no
/// out-of-coverage holes by construction.
#[expect(
    clippy::expect_used,
    reason = "a pristine machine with no injector armed accepts every step"
)]
fn setup_base(seed: u64) -> (Machine, fsencr::machine::MapId, Vec<u8>) {
    let mut m = Machine::new(MachineOpts::small_test(), SecurityMode::FsEncr);
    let h = m
        .create(
            UserId::new(1),
            GroupId::new(1),
            "camp.bin",
            Mode::PRIVATE,
            Some("pw"),
        )
        .expect("campaign file creates");
    let map = m.mmap(&h).expect("campaign file maps");
    let mut shadow = vec![0u8; at(FILE_BYTES)];
    let mut init_rng = XorShift64::new(seed).derive(0xF111);
    fill_random(&mut init_rng, &mut shadow);
    for page in 0..FILE_PAGES {
        let off = page * 4096;
        m.write(0, map, off, &shadow[at(off)..at(off + 4096)])
            .expect("pristine machine accepts the init write");
        m.persist(0, map, off, 4096)
            .expect("pristine machine persists the init write");
    }
    (m, map, shadow)
}

/// Serialises the seed's post-initialisation state once, for every
/// scenario to restore from.
#[expect(clippy::expect_used, reason = "no injector is armed during setup")]
pub fn campaign_base(seed: u64) -> CampaignBase {
    let (m, _, shadow) = setup_base(seed);
    let snapshot = m.save_snapshot().expect("no injector armed during setup");
    CampaignBase { snapshot, shadow }
}

/// Runs one scenario and audits the outcome. See the module docs for the
/// exact protocol and verdict taxonomy.
///
/// With a [`CampaignBase`], the scenario restores the shared post-init
/// snapshot; without one it re-simulates the initialisation. Both paths
/// produce identical outcomes (pinned by the test suite).
#[expect(
    clippy::expect_used,
    reason = "the base image and the campaign file are built in-process; losing them is a harness bug, not a verdict"
)]
fn run_scenario(
    seed: u64,
    scenario: u64,
    spec: &CampaignSpec,
    base: Option<&CampaignBase>,
) -> ScenarioOutcome {
    let mut out = ScenarioOutcome {
        scenario,
        ..ScenarioOutcome::default()
    };
    let user = UserId::new(1);
    let group = GroupId::new(1);
    let (mut m, mut map, mut shadow) = match base {
        Some(b) => {
            let m = Machine::restore_snapshot(
                MachineOpts::small_test(),
                SecurityMode::FsEncr,
                &b.snapshot,
            )
            .expect("campaign base snapshot restores");
            let map = m
                .mapping_of("camp.bin")
                .expect("campaign file is mapped in the base");
            (m, map, b.shadow.clone())
        }
        None => setup_base(seed),
    };

    let plan = FaultPlan::generate(seed, scenario, spec);
    out.planned = plan.planned();
    m.controller_mut().set_auto_quarantine(true);
    m.controller_mut().arm_faults(plan);

    // Lines whose *durable* expectation became unknowable. A failed
    // write or persist aborts the batched writeback region at the first
    // error, so an unknown prefix of the span reached the controller
    // (device + ECC record) while the tail kept its old bytes. A
    // read-back cannot disambiguate — it would hit the still-warm cache,
    // which holds the new bytes regardless of what became durable — so
    // the whole span honestly leaves coverage until a later successful
    // write + persist re-anchors each line.
    let mut indeterminate: BTreeSet<u64> = BTreeSet::new();
    let mut rng = XorShift64::new(seed)
        .derive(scenario.wrapping_add(1))
        .derive(0x0505);

    fn mark_indeterminate(indeterminate: &mut BTreeSet<u64>, off: u64, len: u64) {
        for line in off / 64..(off + len) / 64 {
            indeterminate.insert(line);
        }
    }

    for _ in 0..spec.ops {
        let line = rng.next_below(FILE_LINES);
        let off = line * 64;
        let span = 1 + rng.next_below(4);
        let len = (span * 64).min(FILE_BYTES - off);
        let lo = at(off);
        let hi = at(off + len);
        if rng.next_below(100) < 70 {
            let mut buf = vec![0u8; hi - lo];
            fill_random(&mut rng, &mut buf);
            match m.write(0, map, off, &buf) {
                Ok(()) => {
                    // The datapath accepted every line: the ECC oracle now
                    // expects these bytes, so the shadow does too — even
                    // if the device suppressed the media write (that
                    // divergence is exactly what recovery must detect).
                    shadow[lo..hi].copy_from_slice(&buf);
                    for l in off / 64..(off + len) / 64 {
                        indeterminate.remove(&l);
                    }
                    // Under batching the writeback (and the ECC record)
                    // happen inside persist's clwb region, which aborts
                    // at the first error — a failed persist leaves the
                    // span's durable state unknowable.
                    if let Err(e) = m.persist(0, map, off, len) {
                        if is_integrity(&e) {
                            out.detected_during_ops += 1;
                        }
                        mark_indeterminate(&mut indeterminate, off, len);
                    }
                }
                Err(e) => {
                    if is_integrity(&e) {
                        out.detected_during_ops += 1;
                    }
                    // A multi-line write may have applied (and even
                    // evicted) a prefix before failing; the shadow keeps
                    // the old bytes and the span leaves coverage.
                    mark_indeterminate(&mut indeterminate, off, len);
                }
            }
        } else {
            let mut buf = vec![0u8; hi - lo];
            match m.read(0, map, off, &mut buf) {
                Ok(()) => {
                    if buf != shadow[lo..hi] {
                        // Data lines carry no per-read MAC (the paper's
                        // design); garbled reads are silent here and the
                        // recovery audit below must catch the line.
                        out.silent_read_garbles += 1;
                    }
                }
                Err(e) => {
                    if is_integrity(&e) {
                        out.detected_during_ops += 1;
                    }
                }
            }
        }
        if m.controller().power_lost() {
            m.controller_mut().restore_power();
            m.crash();
            let rep = m.recover();
            out.recoveries += 1;
            out.rec_clean += rep.clean;
            out.rec_repaired += rep.repaired;
            out.rec_unrecoverable += rep.unrecoverable;
            out.rec_quarantined += rep.quarantined;
            let h = m
                .open(user, &[group], "camp.bin", AccessKind::Write, Some("pw"))
                .expect("campaign file reopens after power-loss recovery");
            map = m.mmap(&h).expect("campaign file remaps");
        }
    }

    // Disarm before the audit so no *new* faults land during it, then
    // count what the injector actually did.
    if m.controller().power_lost() {
        m.controller_mut().restore_power();
    }
    let events = m.controller_mut().disarm_faults();
    for e in &events {
        if e.changed {
            out.applied += 1;
            match e.kind {
                FaultKind::BitRot => out.bit_rot += 1,
                FaultKind::TornWrite => out.torn_write += 1,
                FaultKind::PowerCut => out.power_cut += 1,
                FaultKind::StuckAt => out.stuck_at += 1,
            }
        } else {
            out.benign += 1;
        }
    }

    // Final crash + recovery: the ECC sweep is where silently-garbled
    // data lines enter coverage and get quarantined.
    m.crash();
    let rep = m.recover();
    out.recoveries += 1;
    out.rec_clean += rep.clean;
    out.rec_repaired += rep.repaired;
    out.rec_unrecoverable += rep.unrecoverable;
    out.rec_quarantined += rep.quarantined;
    let h = m
        .open(user, &[group], "camp.bin", AccessKind::Read, Some("pw"))
        .expect("campaign file reopens for the audit");
    map = m.mmap(&h).expect("campaign file remaps for the audit");

    for line in 0..FILE_LINES {
        let lo = at(line * 64);
        let mut buf = [0u8; 64];
        match m.read(0, map, line * 64, &mut buf) {
            Ok(()) => {
                if buf == shadow[lo..lo + 64] {
                    out.lines_clean += 1;
                } else if indeterminate.contains(&line) {
                    out.lines_indeterminate += 1;
                } else {
                    out.lines_undetected += 1;
                }
            }
            // Typed refusal — quarantine fence or Merkle verdict. The
            // corruption (or conservative fence) was detected.
            Err(_) => out.lines_detected += 1,
        }
    }
    out.quarantined_lines = m.controller().quarantined_lines().count() as u64;
    out
}

/// Runs the whole campaign: the shared post-init machine is built and
/// snapshotted once, then `spec.scenarios` scenarios restore from it and
/// fan out over [`pool::run_tasks`], joined in submission order.
pub fn run_campaign(seed: u64, spec: &CampaignSpec) -> CampaignReport {
    let base = Arc::new(campaign_base(seed));
    let tasks: Vec<_> = (0..spec.scenarios)
        .map(|scenario| {
            let spec = *spec;
            let base = Arc::clone(&base);
            move || run_scenario(seed, scenario, &spec, Some(&base))
        })
        .collect();
    CampaignReport {
        seed,
        spec: *spec,
        scenarios: pool::run_tasks(tasks),
    }
}

/// [`run_campaign`] with every scenario re-simulating its own setup —
/// the reference path the snapshot-seeded one must match byte for byte.
/// Kept for the equivalence tests and the benchmark's reference check.
pub fn run_campaign_cold(seed: u64, spec: &CampaignSpec) -> CampaignReport {
    let tasks: Vec<_> = (0..spec.scenarios)
        .map(|scenario| {
            let spec = *spec;
            move || run_scenario(seed, scenario, &spec, None)
        })
        .collect();
    CampaignReport {
        seed,
        spec: *spec,
        scenarios: pool::run_tasks(tasks),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_campaign_detects_everything_it_corrupts() {
        let spec: CampaignSpec = "scenarios=2,ops=24".parse().unwrap();
        let report = run_campaign(7, &spec);
        assert_eq!(
            report.undetected_in_coverage(),
            0,
            "silent corruption escaped"
        );
        assert!(report.applied_faults() > 0, "campaign injected nothing");
    }

    #[test]
    fn same_seed_same_bytes() {
        let spec: CampaignSpec = "scenarios=2,ops=16".parse().unwrap();
        let a = run_campaign(42, &spec).to_json();
        let b = run_campaign(42, &spec).to_json();
        assert_eq!(a, b);
        let c = run_campaign(43, &spec).to_json();
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn campaign_matches_cold_setup() {
        // The snapshot-seeded path (one shared restored base) must
        // produce byte-identical report JSON to scenarios that each ran
        // their own in-process setup.
        let spec: CampaignSpec = "scenarios=3,ops=16".parse().unwrap();
        let warm = run_campaign(42, &spec).to_json();
        let cold = run_campaign_cold(42, &spec).to_json();
        assert_eq!(
            warm, cold,
            "snapshot-seeded campaign diverged from cold setup"
        );
    }

    #[test]
    fn base_image_holds_only_resident_cache_sets() {
        // Caches encode resident sets only, so the image tracks what
        // setup touched, not the 8-core hierarchy's capacity.
        let bytes = campaign_base(7).snapshot.len();
        assert!(bytes < 75_000, "campaign base image is {bytes} B");
    }
}
