//! One coherent, diffable snapshot of every datapath counter.
//!
//! [`StatsSnapshot`] is the only way counters leave the machine: figures,
//! the figure store's cell entries, profiles, the shell's `stats`
//! command and the benchmark all read it. It captures the controller,
//! OTT, metadata-system, NVM and machine-level counters in a single
//! `Copy` value. Measurement is reset-free (no component can zero its
//! counters) — take a snapshot at the start of the window, another at
//! the end, and [`StatsSnapshot::delta`] yields exactly the counters
//! accumulated in between (including the read-latency histogram, diffed
//! bucket-wise). Hit rates and latency percentiles are derived on read
//! ([`StatsSnapshot::meta_hit_rate`],
//! [`Histogram::percentile`](fsencr_sim::Histogram::percentile)).
//!
//! # Examples
//!
//! ```
//! use fsencr::snapshot::StatsSnapshot;
//!
//! let mut before = StatsSnapshot::default();
//! before.reads = 10;
//! let mut after = before;
//! after.reads = 25;
//! assert_eq!(after.delta(&before).reads, 15);
//! ```

use fsencr_sim::{stats::hit_rate, Histogram};

/// Every datapath counter at one instant, as one serializable value.
///
/// All integer fields are monotonic event counts; deltas of snapshots
/// are therefore exact window measurements. The machine-level fields
/// (`cycles`, `tlb_*`) are zero in snapshots taken directly from a bare
/// [`crate::MemoryController`]; [`crate::machine::Machine::snapshot`]
/// fills them in.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StatsSnapshot {
    // -- controller ----------------------------------------------------
    /// Data-line reads served.
    pub reads: u64,
    /// Data-line writes served.
    pub writes: u64,
    /// Reads/writes that took the file-engine (dual-pad) path.
    pub file_accesses: u64,
    /// Page re-encryptions triggered by minor-counter overflow.
    pub overflow_reencryptions: u64,
    /// Pages shredded.
    pub shredded_pages: u64,
    /// Latency distribution of data-line reads (request to plaintext).
    pub read_latency: Histogram,
    // -- OTT -----------------------------------------------------------
    /// OTT lookups that found the key on-chip.
    pub ott_hits: u64,
    /// OTT lookups that fell back to the spill region.
    pub ott_misses: u64,
    /// OTT entries pushed out to the spill region.
    pub ott_evictions: u64,
    // -- metadata system -----------------------------------------------
    /// Metadata-cache hits (all partitions, all request kinds).
    pub meta_cache_hits: u64,
    /// Metadata-cache misses (all partitions, all request kinds).
    pub meta_cache_misses: u64,
    /// Leaf (counter/spilled-OTT) lookups that hit the metadata cache.
    pub meta_leaf_hits: u64,
    /// Leaf lookups that missed and fetched from NVM.
    pub meta_leaf_misses: u64,
    /// Merkle nodes fetched from NVM.
    pub meta_node_fetches: u64,
    /// Dirty metadata lines written back on eviction.
    pub meta_evict_writebacks: u64,
    /// Osiris stop-loss write-throughs.
    pub meta_osiris_persists: u64,
    /// MECB leaf hits.
    pub meta_mecb_hits: u64,
    /// MECB leaf misses.
    pub meta_mecb_misses: u64,
    /// FECB leaf hits.
    pub meta_fecb_hits: u64,
    /// FECB leaf misses.
    pub meta_fecb_misses: u64,
    /// Spilled-OTT leaf hits.
    pub meta_spill_hits: u64,
    /// Spilled-OTT leaf misses.
    pub meta_spill_misses: u64,
    /// Merkle-node lookups served by a trusted on-chip copy.
    pub meta_node_hits: u64,
    /// Merkle-node lookups that fetched from NVM.
    pub meta_node_misses: u64,
    /// Verification climbs started.
    pub meta_verify_climbs: u64,
    /// Total tree levels walked across all climbs.
    pub meta_verify_levels: u64,
    /// Parent-digest updates on the write-back/persist path.
    pub meta_update_bumps: u64,
    // -- NVM -----------------------------------------------------------
    /// Line reads that reached the device.
    pub nvm_reads: u64,
    /// Line writes that reached the device.
    pub nvm_writes: u64,
    /// Device accesses that hit an open row buffer.
    pub nvm_row_hits: u64,
    /// Device accesses that paid a row activation.
    pub nvm_row_misses: u64,
    // -- machine level -------------------------------------------------
    /// Simulated cycles elapsed (max over cores) at snapshot time.
    pub cycles: u64,
    /// TLB hits summed over cores.
    pub tlb_hits: u64,
    /// TLB misses summed over cores.
    pub tlb_misses: u64,
}

impl StatsSnapshot {
    /// Counters accumulated between `base` (earlier) and `self` (later).
    /// Saturating, so a mismatched baseline degrades to zeros instead of
    /// wrapping.
    #[must_use]
    pub fn delta(&self, base: &StatsSnapshot) -> StatsSnapshot {
        let mut out = *self;
        for (slot, b) in field_slots(&mut out).into_iter().zip(field_values(base)) {
            *slot = slot.saturating_sub(b);
        }
        out.read_latency = self.read_latency.delta(&base.read_latency);
        out
    }

    /// Accumulates `other` into `self`, field by field, including the
    /// read-latency histogram, so window deltas measured on separate
    /// machines sum to one figure-equivalent measurement.
    pub fn merge(&mut self, other: &StatsSnapshot) {
        for (slot, v) in field_slots(self).into_iter().zip(field_values(other)) {
            *slot = slot.saturating_add(v);
        }
        self.read_latency.merge(&other.read_latency);
    }

    /// Serializes every counter (declaration order) plus the histogram.
    pub fn snap_save(&self, enc: &mut fsencr_snapshot::Enc) {
        for v in field_values(self) {
            enc.put_u64(v);
        }
        self.read_latency.snap_save(enc);
    }

    /// Restores a snapshot from [`StatsSnapshot::snap_save`] bytes.
    pub fn snap_load(
        dec: &mut fsencr_snapshot::Dec<'_>,
    ) -> Result<StatsSnapshot, fsencr_snapshot::SnapError> {
        let mut out = StatsSnapshot::default();
        for slot in field_slots(&mut out) {
            *slot = dec.get_u64()?;
        }
        out.read_latency = Histogram::snap_load(dec)?;
        Ok(out)
    }

    /// Metadata-cache hit rate over this snapshot's window.
    pub fn meta_hit_rate(&self) -> f64 {
        hit_rate(self.meta_cache_hits, self.meta_cache_misses)
    }

    /// OTT hit rate over this snapshot's window.
    pub fn ott_hit_rate(&self) -> f64 {
        hit_rate(self.ott_hits, self.ott_misses)
    }

    /// TLB hit rate over this snapshot's window.
    pub fn tlb_hit_rate(&self) -> f64 {
        hit_rate(self.tlb_hits, self.tlb_misses)
    }

    /// Every integer counter as stable `(name, value)` rows, in a fixed
    /// order (the struct declaration order). The read-latency histogram
    /// is summarized by its count and p50/p99 bounds.
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        let mut rows: Vec<(&'static str, u64)> = field_names()
            .iter()
            .copied()
            .zip(field_values(self))
            .collect();
        rows.push(("read_latency_count", self.read_latency.count()));
        rows.push(("read_p50", self.read_latency.percentile(0.5)));
        rows.push(("read_p99", self.read_latency.percentile(0.99)));
        rows
    }
}

/// Field order shared by [`field_names`], [`field_values`] and the
/// mutable zip used by `delta` — keep all three in sync.
macro_rules! snapshot_fields {
    ($m:ident) => {
        $m!(
            reads,
            writes,
            file_accesses,
            overflow_reencryptions,
            shredded_pages,
            ott_hits,
            ott_misses,
            ott_evictions,
            meta_cache_hits,
            meta_cache_misses,
            meta_leaf_hits,
            meta_leaf_misses,
            meta_node_fetches,
            meta_evict_writebacks,
            meta_osiris_persists,
            meta_mecb_hits,
            meta_mecb_misses,
            meta_fecb_hits,
            meta_fecb_misses,
            meta_spill_hits,
            meta_spill_misses,
            meta_node_hits,
            meta_node_misses,
            meta_verify_climbs,
            meta_verify_levels,
            meta_update_bumps,
            nvm_reads,
            nvm_writes,
            nvm_row_hits,
            nvm_row_misses,
            cycles,
            tlb_hits,
            tlb_misses
        )
    };
}

fn field_names() -> &'static [&'static str] {
    macro_rules! names {
        ($($f:ident),*) => { &[$(stringify!($f)),*] };
    }
    snapshot_fields!(names)
}

fn field_values(s: &StatsSnapshot) -> Vec<u64> {
    macro_rules! values {
        ($($f:ident),*) => { vec![$(s.$f),*] };
    }
    snapshot_fields!(values)
}

fn field_slots(s: &mut StatsSnapshot) -> Vec<&mut u64> {
    macro_rules! slots {
        ($($f:ident),*) => { vec![$(&mut s.$f),*] };
    }
    snapshot_fields!(slots)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_every_field() {
        let mut before = StatsSnapshot::default();
        let mut after = StatsSnapshot::default();
        // Give every counter a distinct before/after pair.
        for (i, slot) in field_slots(&mut before).into_iter().enumerate() {
            *slot = i as u64;
        }
        for (i, slot) in field_slots(&mut after).into_iter().enumerate() {
            *slot = 10 + 3 * i as u64;
        }
        before.read_latency.record(100);
        after.read_latency = before.read_latency;
        after.read_latency.record(5000);

        let d = after.delta(&before);
        for (i, v) in field_values(&d).into_iter().enumerate() {
            assert_eq!(v, 10 + 2 * i as u64, "field {}", field_names()[i]);
        }
        assert_eq!(d.read_latency.count(), 1);
        assert_eq!(d.read_latency.percentile(1.0), 8192);
    }

    #[test]
    fn delta_saturates_on_mismatched_baseline() {
        let stale = StatsSnapshot {
            reads: 100,
            ..StatsSnapshot::default()
        };
        let fresh = StatsSnapshot::default();
        assert_eq!(fresh.delta(&stale).reads, 0);
    }

    #[test]
    fn rates_follow_the_window() {
        let s = StatsSnapshot {
            meta_cache_hits: 3,
            meta_cache_misses: 1,
            ott_hits: 1,
            ott_misses: 1,
            tlb_hits: 9,
            tlb_misses: 1,
            ..StatsSnapshot::default()
        };
        assert_eq!(s.meta_hit_rate(), 0.75);
        assert_eq!(s.ott_hit_rate(), 0.5);
        assert_eq!(s.tlb_hit_rate(), 0.9);
    }

    #[test]
    fn rows_cover_every_field() {
        let s = StatsSnapshot::default();
        let rows = s.rows();
        assert_eq!(rows.len(), field_names().len() + 3);
        for (row, name) in rows.iter().zip(field_names()) {
            assert_eq!(row.0, *name);
        }
    }
}
