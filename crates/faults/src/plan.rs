//! Campaign specs and per-scenario fault plans.
//!
//! A [`CampaignSpec`] says *how much* to inject; [`FaultPlan::generate`]
//! turns (seed, scenario index, spec) into the concrete trigger-indexed
//! schedule the injector executes. Plans are generated entirely up front:
//! nothing about the machine's runtime behaviour feeds back into *what*
//! gets injected, only into *whether* a trigger index is ever reached
//! (a plan entry whose index lies beyond the scenario's traffic simply
//! never fires — the campaign report counts applied events, not planned
//! ones).

use std::fmt;

use crate::rng::XorShift64;

/// The four fault classes the injector can apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// A persistent bit flip in a media line, applied when the line is
    /// next read over the timed device interface (retention decay).
    BitRot,
    /// The tail of one batched `write_lines` region never reaches the
    /// media (torn write inside a persist span).
    TornWrite,
    /// Power is lost at a persist barrier: every later device write is
    /// dropped until power is restored and the machine crash-recovers.
    PowerCut,
    /// A wear-out cell: from the Nth device write on, one bit of that
    /// line is stuck at a fixed value for every subsequent line write.
    StuckAt,
}

impl FaultKind {
    /// Stable lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::BitRot => "bit_rot",
            FaultKind::TornWrite => "torn_write",
            FaultKind::PowerCut => "power_cut",
            FaultKind::StuckAt => "stuck_at",
        }
    }
}

/// How many scenarios a campaign runs and how many faults of each kind
/// are planned per scenario.
///
/// # Examples
///
/// ```
/// use fsencr_faults::CampaignSpec;
///
/// let spec: CampaignSpec = "scenarios=4,ops=32,bitrot=3".parse().unwrap();
/// assert_eq!(spec.scenarios, 4);
/// assert_eq!(spec.bit_rot, 3);
/// // Unspecified knobs keep their defaults, and Display round-trips.
/// assert_eq!(spec.to_string().parse::<CampaignSpec>().unwrap(), spec);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Independent scenarios (each gets its own machine and fault plan).
    pub scenarios: u64,
    /// Mutating operations per scenario after the fault plan is armed.
    pub ops: u64,
    /// Bit-rot events planned per scenario.
    pub bit_rot: u64,
    /// Torn write regions planned per scenario.
    pub torn: u64,
    /// Power cuts planned per scenario.
    pub power_cuts: u64,
    /// Stuck-at cells planned per scenario.
    pub stuck: u64,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            scenarios: 8,
            ops: 64,
            bit_rot: 2,
            torn: 1,
            power_cuts: 1,
            stuck: 1,
        }
    }
}

impl fmt::Display for CampaignSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scenarios={},ops={},bitrot={},torn={},cuts={},stuck={}",
            self.scenarios, self.ops, self.bit_rot, self.torn, self.power_cuts, self.stuck
        )
    }
}

/// Why a campaign spec string failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// An entry was not of the form `key=value`.
    Malformed(String),
    /// The key is not one of the recognised knobs.
    UnknownKey(String),
    /// The value did not parse as an unsigned integer.
    BadValue(String),
    /// A knob is outside its supported range.
    OutOfRange(&'static str),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Malformed(s) => write!(f, "malformed campaign entry `{s}` (want key=value)"),
            SpecError::UnknownKey(s) => write!(
                f,
                "unknown campaign knob `{s}` (known: scenarios, ops, bitrot, torn, cuts, stuck)"
            ),
            SpecError::BadValue(s) => write!(f, "campaign value in `{s}` is not a number"),
            SpecError::OutOfRange(k) => write!(f, "campaign knob `{k}` is out of range"),
        }
    }
}

impl std::error::Error for SpecError {}

impl std::str::FromStr for CampaignSpec {
    type Err = SpecError;

    /// Parses `scenarios=8,ops=64,bitrot=2,torn=1,cuts=1,stuck=1`.
    /// Every knob is optional; omitted knobs keep their default.
    /// An empty string (or `default`) yields [`CampaignSpec::default`].
    fn from_str(s: &str) -> Result<Self, SpecError> {
        let mut spec = CampaignSpec::default();
        let trimmed = s.trim();
        if trimmed.is_empty() || trimmed == "default" {
            return Ok(spec);
        }
        for entry in trimmed.split(',') {
            let entry = entry.trim();
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| SpecError::Malformed(entry.to_string()))?;
            let n: u64 = value
                .trim()
                .parse()
                .map_err(|_| SpecError::BadValue(entry.to_string()))?;
            match key.trim() {
                "scenarios" => spec.scenarios = n,
                "ops" => spec.ops = n,
                "bitrot" => spec.bit_rot = n,
                "torn" => spec.torn = n,
                "cuts" => spec.power_cuts = n,
                "stuck" => spec.stuck = n,
                other => return Err(SpecError::UnknownKey(other.to_string())),
            }
        }
        if spec.scenarios == 0 || spec.scenarios > 4096 {
            return Err(SpecError::OutOfRange("scenarios"));
        }
        if spec.ops == 0 || spec.ops > 1_000_000 {
            return Err(SpecError::OutOfRange("ops"));
        }
        for (knob, v) in [
            ("bitrot", spec.bit_rot),
            ("torn", spec.torn),
            ("cuts", spec.power_cuts),
            ("stuck", spec.stuck),
        ] {
            if v > 4096 {
                return Err(SpecError::OutOfRange(knob));
            }
        }
        Ok(spec)
    }
}

/// One planned bit flip, fired on the `read_index`-th timed line read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RotEvent {
    /// Zero-based index into the device's read stream.
    pub read_index: u64,
    /// Byte within the 64-byte line.
    pub byte: u8,
    /// Bit within the byte.
    pub bit: u8,
}

/// One planned stuck-at cell, armed on the `write_index`-th line write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckEvent {
    /// Zero-based index into the device's write stream.
    pub write_index: u64,
    /// Byte within the 64-byte line.
    pub byte: u8,
    /// Bit within the byte.
    pub bit: u8,
    /// The value the cell is stuck at from then on.
    pub value: bool,
}

/// One planned torn region: the `region_index`-th batched write region
/// keeps only a seed-derived prefix of its writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornEvent {
    /// Zero-based index into the stream of batched write regions.
    pub region_index: u64,
    /// Fraction (in 1/1000ths) of the region's writes that survive.
    /// At least one write is always dropped so the event is a real tear.
    pub keep_permille: u16,
}

/// The full pre-generated schedule for one scenario.
///
/// Event lists are sorted by trigger index; duplicates are allowed (two
/// rot events may hit the same read).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Campaign seed this plan was generated from.
    pub seed: u64,
    /// Scenario index within the campaign.
    pub scenario: u64,
    /// Planned bit-rot events, sorted by `read_index`.
    pub rot: Vec<RotEvent>,
    /// Planned stuck-at cells, sorted by `write_index`.
    pub stuck: Vec<StuckEvent>,
    /// Planned torn regions, sorted by `region_index`.
    pub torn: Vec<TornEvent>,
    /// Planned power cuts: sorted persist-barrier indices.
    pub cuts: Vec<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful to prove hook neutrality:
    /// an armed-but-empty injector must not perturb the datapath).
    pub fn empty() -> Self {
        FaultPlan {
            seed: 0,
            scenario: 0,
            rot: Vec::with_capacity(0),
            stuck: Vec::with_capacity(0),
            torn: Vec::with_capacity(0),
            cuts: Vec::with_capacity(0),
        }
    }

    /// True when no events are planned.
    pub fn is_empty(&self) -> bool {
        self.rot.is_empty() && self.stuck.is_empty() && self.torn.is_empty() && self.cuts.is_empty()
    }

    /// Total planned events.
    pub fn planned(&self) -> u64 {
        (self.rot.len() + self.stuck.len() + self.torn.len() + self.cuts.len()) as u64
    }

    /// Generates the deterministic plan for `scenario` of a campaign.
    ///
    /// Trigger indices are spread over a traffic horizon derived from
    /// `spec.ops`: a scenario op touches a handful of lines plus their
    /// metadata, so reads/writes use a `16 * ops` horizon while regions
    /// and barriers (one per persist) use `ops` directly. Indices beyond
    /// the scenario's actual traffic simply never fire.
    pub fn generate(seed: u64, scenario: u64, spec: &CampaignSpec) -> Self {
        let mut rng = XorShift64::new(seed).derive(scenario.wrapping_add(1));
        let line_horizon = spec.ops.saturating_mul(16).max(1);
        let barrier_horizon = spec.ops.max(1);
        let rot = (0..spec.bit_rot)
            .map(|_| RotEvent {
                read_index: rng.next_below(line_horizon),
                byte: (rng.next_below(64) & 0x3f) as u8,
                bit: (rng.next_below(8) & 0x7) as u8,
            })
            .collect();
        let stuck = (0..spec.stuck)
            .map(|_| StuckEvent {
                write_index: rng.next_below(line_horizon),
                byte: (rng.next_below(64) & 0x3f) as u8,
                bit: (rng.next_below(8) & 0x7) as u8,
                value: rng.next_below(2) == 1,
            })
            .collect();
        let torn = (0..spec.torn)
            .map(|_| TornEvent {
                region_index: rng.next_below(barrier_horizon),
                keep_permille: (rng.next_below(1000) & 0x3ff) as u16,
            })
            .collect();
        // Bias cuts toward the middle of the run so recovery has both a
        // past to repair and a future to keep exercising.
        let lo = barrier_horizon / 4;
        let cuts = (0..spec.power_cuts)
            .map(|_| lo + rng.next_below(barrier_horizon - lo))
            .collect();
        let mut plan = FaultPlan {
            seed,
            scenario,
            rot,
            stuck,
            torn,
            cuts,
        };
        plan.rot.sort_by_key(|e| e.read_index);
        plan.stuck.sort_by_key(|e| e.write_index);
        plan.torn.sort_by_key(|e| e.region_index);
        plan.cuts.sort_unstable();
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parse_roundtrip_and_defaults() {
        let d = CampaignSpec::default();
        assert_eq!("".parse::<CampaignSpec>().unwrap(), d);
        assert_eq!("default".parse::<CampaignSpec>().unwrap(), d);
        let s: CampaignSpec = "scenarios=3, ops=10, bitrot=0, torn=2, cuts=0, stuck=5"
            .parse()
            .unwrap();
        assert_eq!(
            s,
            CampaignSpec {
                scenarios: 3,
                ops: 10,
                bit_rot: 0,
                torn: 2,
                power_cuts: 0,
                stuck: 5
            }
        );
        assert_eq!(s.to_string().parse::<CampaignSpec>().unwrap(), s);
    }

    #[test]
    fn spec_parse_rejects_garbage() {
        assert!(matches!(
            "frobs=3".parse::<CampaignSpec>(),
            Err(SpecError::UnknownKey(_))
        ));
        assert!(matches!(
            "ops".parse::<CampaignSpec>(),
            Err(SpecError::Malformed(_))
        ));
        assert!(matches!(
            "ops=zebra".parse::<CampaignSpec>(),
            Err(SpecError::BadValue(_))
        ));
        assert!(matches!(
            "scenarios=0".parse::<CampaignSpec>(),
            Err(SpecError::OutOfRange("scenarios"))
        ));
        assert!(matches!(
            "ops=2000000".parse::<CampaignSpec>(),
            Err(SpecError::OutOfRange("ops"))
        ));
    }

    #[test]
    fn plans_are_deterministic_per_seed_and_scenario() {
        let spec = CampaignSpec::default();
        let a = FaultPlan::generate(42, 3, &spec);
        let b = FaultPlan::generate(42, 3, &spec);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::generate(42, 4, &spec));
        assert_ne!(a, FaultPlan::generate(43, 3, &spec));
        assert_eq!(a.planned(), 5);
    }

    #[test]
    fn plan_fields_are_in_range() {
        let spec: CampaignSpec = "scenarios=1,ops=50,bitrot=20,torn=8,cuts=4,stuck=20"
            .parse()
            .unwrap();
        let plan = FaultPlan::generate(7, 0, &spec);
        for e in &plan.rot {
            assert!(usize::from(e.byte) < crate::LINE_BYTES && e.bit < 8);
            assert!(e.read_index < 50 * 16);
        }
        for e in &plan.stuck {
            assert!(usize::from(e.byte) < crate::LINE_BYTES && e.bit < 8);
        }
        for e in &plan.torn {
            assert!(e.keep_permille < 1000 && e.region_index < 50);
        }
        for &c in &plan.cuts {
            assert!(c < 50);
        }
        assert!(plan
            .rot
            .windows(2)
            .all(|w| w[0].read_index <= w[1].read_index));
        assert!(!plan.is_empty());
        assert!(FaultPlan::empty().is_empty());
    }
}
