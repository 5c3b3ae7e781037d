//! The runtime fault injector and the stuck-cell overlay.
//!
//! [`FaultInjector`] executes a [`FaultPlan`]: the NVM device calls
//! [`FaultInjector::on_read`] / [`FaultInjector::on_write`] around every
//! timed line access, the memory controller brackets batched write spans
//! with [`FaultInjector::begin_region`] / [`FaultInjector::end_region`],
//! and the machine reports persist barriers via
//! [`FaultInjector::on_barrier`]. Debug peeks and pokes bypass the
//! injector on purpose — recovery's media inspection and test plumbing
//! must see the device as it really is.
//!
//! [`StuckCells`] is the one piece of fault state that lives *below* the
//! injector, as a `Storage` overlay: once a cell wears out, every later
//! line write through the storage array — including raw debug pokes —
//! has the stuck bit forced, exactly like a physical wear-out failure.
//!
//! The per-access hooks allocate nothing (the crate's `clippy.toml` bans
//! bare `Vec::new`/`VecDeque::new`); the only growth is the bounded
//! event log.

use std::collections::BTreeMap;

use crate::plan::{FaultKind, FaultPlan};
use crate::LINE_BYTES;

/// One bit of a line forced to a fixed value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckMask {
    /// Byte within the 64-byte line.
    pub byte: u8,
    /// Bit within the byte.
    pub bit: u8,
    /// The value the bit is stuck at.
    pub value: bool,
}

impl StuckMask {
    /// Forces the stuck bit in `data`; returns true if a byte changed.
    pub fn apply(&self, data: &mut [u8]) -> bool {
        let Some(slot) = data.get_mut(usize::from(self.byte)) else {
            return false;
        };
        let mask = 1u8 << (self.bit & 0x7);
        let forced = if self.value {
            *slot | mask
        } else {
            *slot & !mask
        };
        let changed = forced != *slot;
        *slot = forced;
        changed
    }
}

/// Stuck-at overlay applied by the storage array on every line write.
///
/// Keyed by line-aligned byte address; a line can accumulate several
/// stuck bits over a long campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StuckCells {
    cells: BTreeMap<u64, Vec<StuckMask>>,
}

impl StuckCells {
    /// Creates an empty overlay.
    pub fn new() -> Self {
        StuckCells::default()
    }

    /// Registers a stuck bit on `line` (line-aligned byte address).
    pub fn add(&mut self, line: u64, mask: StuckMask) {
        self.cells
            .entry(line)
            .or_insert_with(|| Vec::with_capacity(1))
            .push(mask);
    }

    /// True when no cell is stuck (the common case; callers gate on this
    /// before doing any per-write work).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Number of lines with at least one stuck bit.
    pub fn lines(&self) -> usize {
        self.cells.len()
    }

    /// Forces every stuck bit registered for `line` in `data`; returns
    /// true if any byte changed.
    pub fn apply(&self, line: u64, data: &mut [u8]) -> bool {
        let Some(masks) = self.cells.get(&line) else {
            return false;
        };
        let mut changed = false;
        for m in masks {
            changed |= m.apply(data);
        }
        changed
    }
}

/// One applied fault, logged for the campaign's coverage audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Which fault class fired.
    pub kind: FaultKind,
    /// Line-aligned byte address the fault touched (0 for power cuts,
    /// which are not line-scoped).
    pub line: u64,
    /// The trigger-stream index at which it fired (read index for rot,
    /// write index for stuck cells, region index for tears, barrier
    /// index for power cuts).
    pub index: u64,
    /// Kind-specific detail: `byte << 8 | bit` for rot and stuck cells,
    /// the number of dropped writes for torn regions, 0 for power cuts.
    pub detail: u64,
    /// Whether media bytes actually changed (a stuck cell whose planned
    /// value matches the written bit, or a tear that dropped nothing,
    /// is benign and excluded from corruption accounting).
    pub changed: bool,
}

/// What the device should do with a line write the injector saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteOutcome {
    /// Drop the write (torn-region tail or power lost): the media keeps
    /// its previous contents. Timing, stats, and wear still accrue — the
    /// bus transaction happened, the array never latched it.
    pub suppress: bool,
    /// A wear-out cell armed on this write; the device must register it
    /// with the storage overlay before storing.
    pub stuck: Option<StuckMask>,
}

/// Executes a [`FaultPlan`] against the device's access streams.
///
/// The injector is purely reactive and allocation-free on the hook path
/// except for the event log. Cloning it clones the full state, which
/// keeps `NvmDevice: Clone` intact.
///
/// # Examples
///
/// ```
/// use fsencr_faults::{FaultInjector, FaultPlan, CampaignSpec};
///
/// let spec: CampaignSpec = "bitrot=1,stuck=0,torn=0,cuts=0,ops=1".parse().unwrap();
/// let mut inj = FaultInjector::new(FaultPlan::generate(42, 0, &spec));
/// let mut line = [0u8; 64];
/// // Drive enough reads that the single planned rot event fires.
/// let mutated = (0..16).any(|_| inj.on_read(0x1000, &mut line));
/// assert_eq!(mutated, inj.events().len() == 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    plan: FaultPlan,
    reads: u64,
    writes: u64,
    regions: u64,
    barriers: u64,
    next_rot: usize,
    next_stuck: usize,
    next_torn: usize,
    next_cut: usize,
    /// `Some(keep)` while inside a torn region: `keep` writes still pass
    /// before the tail is dropped.
    region_keep: Option<u64>,
    region_dropped: u64,
    torn_index: u64,
    power_lost: bool,
    events: Vec<FaultEvent>,
}

impl FaultInjector {
    /// Creates an injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let planned = usize::try_from(plan.planned()).unwrap_or(0);
        FaultInjector {
            plan,
            reads: 0,
            writes: 0,
            regions: 0,
            barriers: 0,
            next_rot: 0,
            next_stuck: 0,
            next_torn: 0,
            next_cut: 0,
            region_keep: None,
            region_dropped: 0,
            torn_index: 0,
            power_lost: false,
            events: Vec::with_capacity(planned),
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Applied events so far, in firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Drains the event log.
    pub fn take_events(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.events)
    }

    /// (reads, writes, regions, barriers) seen so far.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (self.reads, self.writes, self.regions, self.barriers)
    }

    /// True after a planned power cut fired and power was not restored.
    pub fn power_lost(&self) -> bool {
        self.power_lost
    }

    /// Restores power after a cut; the machine is expected to crash and
    /// recover before relying on the device again.
    pub fn restore_power(&mut self) {
        self.power_lost = false;
    }

    /// Timed line read: applies any bit-rot planned for this read index.
    /// Returns true when `data` was mutated; the device then writes the
    /// decayed bytes back so the rot is persistent, as on real media.
    pub fn on_read(&mut self, line: u64, data: &mut [u8; LINE_BYTES]) -> bool {
        let idx = self.reads;
        self.reads += 1;
        let mut mutated = false;
        while let Some(e) = self.plan.rot.get(self.next_rot) {
            if e.read_index != idx {
                break;
            }
            let byte = usize::from(e.byte) % LINE_BYTES;
            data[byte] ^= 1u8 << (e.bit & 0x7);
            self.events.push(FaultEvent {
                kind: FaultKind::BitRot,
                line,
                index: idx,
                detail: u64::from(e.byte) << 8 | u64::from(e.bit),
                changed: true,
            });
            mutated = true;
            self.next_rot += 1;
        }
        mutated
    }

    /// Timed line write: decides suppression (power lost / torn tail)
    /// and arms any stuck cell planned for this write index. May mutate
    /// `data` when an already-stuck bit disagrees with the new value
    /// (the storage overlay also enforces this; mutating here keeps the
    /// event's `changed` flag honest).
    pub fn on_write(&mut self, line: u64, data: &mut [u8; LINE_BYTES]) -> WriteOutcome {
        let idx = self.writes;
        self.writes += 1;
        let mut out = WriteOutcome::default();
        if self.power_lost {
            out.suppress = true;
        } else if let Some(keep) = &mut self.region_keep {
            if *keep == 0 {
                out.suppress = true;
                self.region_dropped += 1;
            } else {
                *keep -= 1;
            }
        }
        while let Some(e) = self.plan.stuck.get(self.next_stuck) {
            if e.write_index != idx {
                break;
            }
            let mask = StuckMask {
                byte: e.byte,
                bit: e.bit,
                value: e.value,
            };
            let changed = mask.apply(data);
            self.events.push(FaultEvent {
                kind: FaultKind::StuckAt,
                line,
                index: idx,
                detail: u64::from(e.byte) << 8 | u64::from(e.bit),
                changed,
            });
            // Later writes may still flip the bit back; the overlay the
            // device registers from `out.stuck` is what makes it stick.
            out.stuck = Some(mask);
            self.next_stuck += 1;
        }
        out
    }

    /// Opens a batched write region of `writes` line writes. If a torn
    /// event is planned for this region index, only a seed-derived
    /// prefix of the writes will reach the media.
    pub fn begin_region(&mut self, writes: u64) {
        let idx = self.regions;
        self.regions += 1;
        self.region_keep = None;
        self.region_dropped = 0;
        while let Some(e) = self.plan.torn.get(self.next_torn) {
            if e.region_index != idx {
                break;
            }
            // Keep a prefix, dropping at least one write so the planned
            // tear is a real tear even in tiny regions.
            let keep = (writes * u64::from(e.keep_permille) / 1000).min(writes.saturating_sub(1));
            self.region_keep = Some(keep);
            self.torn_index = idx;
            self.next_torn += 1;
        }
    }

    /// Closes the current batched write region, logging the tear (if
    /// one was active) with the number of dropped writes.
    pub fn end_region(&mut self) {
        if self.region_keep.take().is_some() {
            self.events.push(FaultEvent {
                kind: FaultKind::TornWrite,
                line: 0,
                index: self.torn_index,
                detail: self.region_dropped,
                changed: self.region_dropped > 0,
            });
        }
        self.region_dropped = 0;
    }

    /// Persist barrier: returns true when a planned power cut fires at
    /// this barrier index. From then on every device write is dropped
    /// until [`FaultInjector::restore_power`].
    pub fn on_barrier(&mut self) -> bool {
        let idx = self.barriers;
        self.barriers += 1;
        let mut fired = false;
        while let Some(&cut) = self.plan.cuts.get(self.next_cut) {
            if cut != idx {
                break;
            }
            self.next_cut += 1;
            if !self.power_lost {
                self.power_lost = true;
                fired = true;
                self.events.push(FaultEvent {
                    kind: FaultKind::PowerCut,
                    line: 0,
                    index: idx,
                    detail: 0,
                    changed: true,
                });
            }
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{RotEvent, StuckEvent, TornEvent};

    fn plan_with(f: impl FnOnce(&mut FaultPlan)) -> FaultPlan {
        let mut p = FaultPlan::empty();
        f(&mut p);
        p
    }

    #[test]
    fn rot_fires_on_its_read_index_only() {
        let plan = plan_with(|p| {
            p.rot.push(RotEvent {
                read_index: 2,
                byte: 5,
                bit: 3,
            })
        });
        let mut inj = FaultInjector::new(plan);
        let mut line = [0u8; LINE_BYTES];
        assert!(!inj.on_read(64, &mut line));
        assert!(!inj.on_read(64, &mut line));
        assert!(inj.on_read(128, &mut line));
        assert_eq!(line[5], 1 << 3);
        assert!(!inj.on_read(128, &mut line));
        let ev = inj.events();
        assert_eq!(ev.len(), 1);
        assert_eq!(
            (ev[0].kind, ev[0].line, ev[0].index),
            (FaultKind::BitRot, 128, 2)
        );
    }

    #[test]
    fn stuck_cell_arms_and_reports_benign_agreement() {
        let plan = plan_with(|p| {
            p.stuck.push(StuckEvent {
                write_index: 1,
                byte: 0,
                bit: 0,
                value: true,
            })
        });
        let mut inj = FaultInjector::new(plan);
        let mut line = [0xffu8; LINE_BYTES];
        assert!(inj.on_write(0, &mut line).stuck.is_none());
        let out = inj.on_write(0, &mut line);
        let mask = out.stuck.expect("stuck cell armed");
        // Bit already 1 and stuck at 1: applied but benign.
        assert!(!inj.events()[0].changed);
        let mut zeros = [0u8; LINE_BYTES];
        assert!(mask.apply(&mut zeros));
        assert_eq!(zeros[0], 1);
    }

    #[test]
    fn torn_region_drops_the_tail() {
        let plan = plan_with(|p| {
            p.torn.push(TornEvent {
                region_index: 0,
                keep_permille: 500,
            })
        });
        let mut inj = FaultInjector::new(plan);
        let mut line = [0u8; LINE_BYTES];
        inj.begin_region(4);
        let dropped: u32 = (0..4)
            .map(|_| u32::from(inj.on_write(0, &mut line).suppress))
            .sum();
        inj.end_region();
        assert_eq!(dropped, 2);
        let ev = inj.events();
        assert_eq!(ev.len(), 1);
        assert_eq!(
            (ev[0].kind, ev[0].detail, ev[0].changed),
            (FaultKind::TornWrite, 2, true)
        );
        // Next region is untouched.
        inj.begin_region(4);
        assert!(!inj.on_write(0, &mut line).suppress);
        inj.end_region();
        assert_eq!(inj.events().len(), 1);
    }

    #[test]
    fn power_cut_suppresses_until_restored() {
        let plan = plan_with(|p| p.cuts.push(1));
        let mut inj = FaultInjector::new(plan);
        let mut line = [0u8; LINE_BYTES];
        assert!(!inj.on_barrier());
        assert!(inj.on_barrier());
        assert!(inj.power_lost());
        assert!(inj.on_write(0, &mut line).suppress);
        assert!(!inj.on_barrier());
        inj.restore_power();
        assert!(!inj.on_write(0, &mut line).suppress);
        assert_eq!(inj.events().len(), 1);
        assert_eq!(inj.counters().3, 3);
    }

    #[test]
    fn stuck_overlay_applies_per_line() {
        let mut cells = StuckCells::new();
        cells.add(
            128,
            StuckMask {
                byte: 1,
                bit: 7,
                value: false,
            },
        );
        let mut line = [0xffu8; LINE_BYTES];
        assert!(!cells.apply(64, &mut line));
        assert!(cells.apply(128, &mut line));
        assert_eq!(line[1], 0x7f);
        assert!(!cells.apply(128, &mut line));
        assert_eq!(cells.lines(), 1);
        assert!(!cells.is_empty());
    }
}
