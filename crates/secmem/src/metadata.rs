//! The metadata system: dedicated cache, Bonsai Merkle tree, Osiris
//! stop-loss persistence.
//!
//! Every security-metadata line (MECB, FECB, spilled OTT entry) flows
//! through here. Reads that miss the dedicated metadata cache fetch the
//! line from NVM and verify it against the 8-ary Merkle tree before use;
//! writes are absorbed by the cache and persisted lazily — except that, per
//! Osiris, no counter block may accumulate more than `stop_loss` unpersisted
//! updates, which bounds what crash recovery has to reconstruct.
//!
//! ## Trust and laziness
//!
//! A line resident in the metadata cache is on-chip and therefore trusted.
//! Verification of a fetched line climbs the tree only until it reaches a
//! cached (trusted) ancestor or the on-chip root digest. Conversely, every
//! time a dirty line is written back to NVM, its parent's digest slot is
//! updated *in the cache*, so the following invariant holds: for every line
//! in NVM, the correct digest of its current content is found either in its
//! cached parent or (if the parent is not cached) in its NVM-resident
//! parent. Verification chains therefore always close.
//!
//! ## Zero interpretation
//!
//! Untouched NVM reads as zero. An all-zero tree node is interpreted as the
//! *canonical zero node* of its level (the node whose children are all
//! canonical zero), which gives a freshly-booted device a consistent tree
//! without writing gigabytes of initial hashes.
//!
//! ## One cache, one write-back step
//!
//! The metadata cache is one shared cache or, with Section III-D's
//! partitioning, three (MECBs, FECBs, everything else). Which partition a
//! line uses follows from [`MetadataLayout::kind_of`], the layout's
//! region map, which also feeds the per-structure hit/miss counters.
//! Every write of a metadata line to media, from an Osiris write-through,
//! an explicit persist or an eviction, goes through one step: write the
//! line, then bump its parent digest. `flush` alone splits that step in
//! two passes: it writes every drained line before bumping any parent,
//! since a bump may evict a drained (already clean) line.
//!
//! ## Host-side fast paths
//!
//! Simulated cycle accounting (`mac_cycles` charges, NVM timing) is
//! independent of how fast the host computes digests, so this module
//! optimizes the host work without touching any figure:
//!
//! * every line digest takes one route, `MetadataSystem::line_digest`:
//!   canonical-zero content short-circuits to the precomputed zero
//!   digest, everything else is hashed by the two-compression
//!   [`digest8_line`]. Nothing is memoized, so no digest can outlive the
//!   bytes it describes;
//! * the post-crash rebuild sweeps the tree four lines at a time through
//!   the interleaved [`digest8_lines4`] kernel, on the calling thread;
//! * verification climbs, eviction cascades and flushes run out of
//!   reusable scratch buffers owned by the system instead of per-call
//!   `Vec`s (the crate's `clippy.toml` bans bare `Vec::new`/
//!   `VecDeque::new`).

use std::collections::{BTreeSet, VecDeque};
use std::fmt;

use fsencr_cache::{Cache, Eviction};
use fsencr_crypto::{digest8_line, digest8_lines4};
use fsencr_nvm::{AddrMap, LineAddr, NvmDevice, LINE_BYTES};
use fsencr_sim::config::{CacheConfig, SecurityConfig};
use fsencr_sim::{Counter, Cycle};

use crate::layout::{LineKind, MetadataLayout};

/// Integrity-verification failure: the Merkle tree rejected a fetched line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TamperError {
    /// The line whose verification failed.
    pub addr: LineAddr,
    /// Tree level at which the mismatch was detected (0 = parents of
    /// leaves; `usize::MAX` denotes the on-chip root comparison).
    pub level: usize,
}

impl fmt::Display for TamperError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.level == usize::MAX {
            write!(
                f,
                "integrity violation at {:?}: root digest mismatch",
                self.addr
            )
        } else {
            write!(
                f,
                "integrity violation at {:?}: digest mismatch at tree level {}",
                self.addr, self.level
            )
        }
    }
}

impl std::error::Error for TamperError {}

/// Completion information for one metadata operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaAccess {
    /// Time at which the operation's result is available.
    pub done: Cycle,
}

/// Counters describing metadata-system behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetaStats {
    /// Leaf (counter/OTT) lookups that hit the metadata cache.
    pub leaf_hits: Counter,
    /// Leaf lookups that missed and fetched from NVM.
    pub leaf_misses: Counter,
    /// Merkle nodes fetched from NVM during verification.
    pub node_fetches: Counter,
    /// Dirty lines written back to NVM on eviction.
    pub evict_writebacks: Counter,
    /// Stop-loss write-throughs forced by the Osiris rule.
    pub osiris_persists: Counter,
    /// MECB leaf lookups that hit the metadata cache.
    pub mecb_hits: Counter,
    /// MECB leaf lookups that missed.
    pub mecb_misses: Counter,
    /// FECB leaf lookups that hit the metadata cache.
    pub fecb_hits: Counter,
    /// FECB leaf lookups that missed.
    pub fecb_misses: Counter,
    /// Spilled-OTT leaf lookups that hit the metadata cache.
    pub spill_hits: Counter,
    /// Spilled-OTT leaf lookups that missed.
    pub spill_misses: Counter,
    /// Merkle-node cache lookups that found a trusted on-chip copy.
    pub node_hits: Counter,
    /// Merkle-node cache lookups that had to fetch from NVM
    /// (always equals [`MetaStats::node_fetches`]).
    pub node_misses: Counter,
    /// Verification climbs started (one per leaf miss).
    pub verify_climbs: Counter,
    /// Total tree levels walked across all verification climbs.
    pub verify_levels: Counter,
    /// Parent-digest updates on the write-back/persist path.
    pub update_bumps: Counter,
}

/// The metadata cache partitions for `cfg`, in routing and snapshot
/// order: one shared cache, or (Section III-D) MECBs with half the
/// capacity and FECBs and the remaining lines (OTT spill and tree nodes)
/// with a quarter each.
fn cache_parts(cfg: &SecurityConfig) -> Vec<CacheConfig> {
    if !cfg.partition_metadata_cache {
        return vec![cfg.metadata_cache];
    }
    [2, 4, 4]
        .map(|fraction| CacheConfig {
            size_bytes: cfg.metadata_cache.size_bytes / fraction,
            ..cfg.metadata_cache
        })
        .to_vec()
}

/// The metadata cache + Merkle engine + Osiris persistence state.
#[derive(Debug, Clone)]
pub struct MetadataSystem {
    /// Shared so controllers can hold a handle across `&mut self` calls
    /// without deep-copying the per-level geometry tables.
    layout: std::sync::Arc<MetadataLayout>,
    /// The metadata cache, as the partitions of [`cache_parts`];
    /// [`MetadataSystem::part_of`] routes a line to its partition.
    caches: Vec<Cache>,
    root: [u8; 8],
    /// Canonical all-zero node content per level.
    canon_nodes: Vec<[u8; LINE_BYTES]>,
    /// Digest of the canonical node per level.
    canon_digests: Vec<[u8; 8]>,
    zero_leaf_digest: [u8; 8],
    /// Unpersisted-update counts per cached dirty leaf (Osiris).
    pending: AddrMap<u32>,
    stop_loss: u32,
    mac_cycles: u64,
    stats: MetaStats,
    /// Reusable scratch for [`MetadataSystem::verify_climb`]: the nodes
    /// fetched along the chain, installed on success.
    climb_scratch: Vec<(LineAddr, [u8; LINE_BYTES])>,
    /// Reusable scratch for eviction cascades.
    evict_scratch: VecDeque<Eviction>,
    /// Reusable scratch for full-cache flushes.
    dirty_scratch: Vec<Eviction>,
    /// Merkle-coverage oracle: when on, every line this system persists
    /// to NVM is re-verified reachable from the on-chip root (through
    /// trusted cached ancestors) immediately after the persist completes.
    /// Off by default — one branch per persist when disabled.
    coverage_oracle: bool,
}

impl MetadataSystem {
    /// Creates the system for a layout and security configuration.
    pub fn new(layout: MetadataLayout, cfg: &SecurityConfig) -> Self {
        let zero_leaf_digest = digest8_line(&[0u8; LINE_BYTES]);
        let levels = layout.merkle_levels();
        let mut canon_nodes = Vec::with_capacity(levels);
        let mut canon_digests = Vec::with_capacity(levels);
        let mut child = zero_leaf_digest;
        for _ in 0..levels {
            let mut node = [0u8; LINE_BYTES];
            for slot in 0..8 {
                node[slot * 8..slot * 8 + 8].copy_from_slice(&child);
            }
            let d = digest8_line(&node);
            canon_nodes.push(node);
            canon_digests.push(d);
            child = d;
        }
        // The layout always has >= 1 tree level, so the fallback (an empty
        // digest list) is unreachable; it exists to keep this path
        // panic-free.
        let root = canon_digests.last().copied().unwrap_or(zero_leaf_digest);
        MetadataSystem {
            layout: std::sync::Arc::new(layout),
            caches: cache_parts(cfg).into_iter().map(Cache::new).collect(),
            root,
            canon_nodes,
            canon_digests,
            zero_leaf_digest,
            pending: AddrMap::default(),
            stop_loss: cfg.osiris_stop_loss.max(1),
            mac_cycles: cfg.mac_cycles,
            stats: MetaStats::default(),
            climb_scratch: Vec::with_capacity(16),
            evict_scratch: VecDeque::with_capacity(16),
            dirty_scratch: Vec::with_capacity(64),
            coverage_oracle: false,
        }
    }

    /// Turns the Merkle-coverage oracle on or off for this instance (new
    /// systems start with it off). When on, every persisted line is
    /// checked reachable from the root right after the persist — see
    /// [`MetadataSystem::check_coverage`].
    pub fn set_coverage_oracle(&mut self, on: bool) {
        self.coverage_oracle = on;
    }

    /// Verifies the module invariant for one NVM-resident line, without
    /// side effects: the digest of `addr`'s *media* content must be
    /// found in its parent — the trusted cached copy if the parent is
    /// resident, its NVM image otherwise — and, when the walk never
    /// meets a cached ancestor, the chain must close on the on-chip
    /// root. Accepts covered leaves (counters and OTT spill) and tree
    /// nodes; all-zero media content is interpreted canonically, exactly
    /// as the verification path does.
    ///
    /// Uses only peeks (no cache fills, no LRU touches, no statistics,
    /// no simulated time), so interleaving checks with a workload cannot
    /// change the workload's behaviour.
    ///
    /// # Errors
    ///
    /// [`TamperError`] identifying the tree level at which the digest
    /// chain fails to close (`usize::MAX` for the root comparison).
    pub fn check_coverage(&self, nvm: &NvmDevice, addr: LineAddr) -> Result<(), TamperError> {
        let top = self.layout.merkle_levels() - 1;
        let (mut expected, mut level, mut child) = if self.layout.is_metadata(addr) {
            let bytes = nvm.peek_line(addr.into_phys());
            (
                self.line_digest(&bytes),
                0usize,
                self.layout.leaf_index(addr),
            )
        } else if let Some((lvl, idx)) = self.layout.node_coords(addr) {
            let node = self.interpret_node(lvl, nvm.peek_line(addr.into_phys()));
            let digest = if node == self.canon_nodes[lvl] {
                self.canon_digests[lvl]
            } else {
                self.line_digest(&node)
            };
            if lvl == top {
                return if digest == self.root {
                    Ok(())
                } else {
                    Err(TamperError {
                        addr,
                        level: usize::MAX,
                    })
                };
            }
            (digest, lvl + 1, idx)
        } else {
            // Data lines are pad-protected, not tree-covered; nothing to
            // check. Persist paths never pass one here.
            debug_assert!(
                self.layout.is_data(addr),
                "{addr:?} outside the device layout"
            );
            return Ok(());
        };
        loop {
            let (node_idx, slot) = (child / 8, (child % 8) as usize);
            let node_addr = self.layout.node_addr(level, node_idx);
            if let Some(node) = self.caches[self.part_of(node_addr)].peek(node_addr) {
                // Trusted on-chip ancestor: one slot check closes the chain.
                return if Self::slot_of(node, slot) == expected {
                    Ok(())
                } else {
                    Err(TamperError { addr, level })
                };
            }
            let node = self.interpret_node(level, nvm.peek_line(node_addr.into_phys()));
            if Self::slot_of(&node, slot) != expected {
                return Err(TamperError { addr, level });
            }
            expected = if node == self.canon_nodes[level] {
                self.canon_digests[level]
            } else {
                self.line_digest(&node)
            };
            if level == top {
                return if expected == self.root {
                    Ok(())
                } else {
                    Err(TamperError {
                        addr,
                        level: usize::MAX,
                    })
                };
            }
            level += 1;
            child = node_idx;
        }
    }

    /// Coverage-oracle hook on the persist paths: a violation here means
    /// a line reached NVM whose digest chain does not close — the
    /// invariant every verification climb relies on is broken, so abort
    /// loudly rather than let a later read trust a stale tree.
    fn assert_covered(&self, nvm: &NvmDevice, addr: LineAddr) {
        if !self.coverage_oracle {
            return;
        }
        let check = self.check_coverage(nvm, addr);
        assert!(
            check.is_ok(),
            "merkle-coverage oracle: persisted {addr:?} unreachable from the root: {:?}",
            check.err()
        );
    }

    /// The Osiris stop-loss period: the most updates a cached counter
    /// block may take before it is written through (at least 1).
    pub fn stop_loss(&self) -> u32 {
        self.stop_loss
    }

    /// The layout this system manages.
    pub fn layout(&self) -> &MetadataLayout {
        &self.layout
    }

    /// A shared handle to the layout, for callers that need to keep using
    /// it while mutably borrowing the system (refcount bump, no copy of
    /// the geometry tables).
    pub fn shared_layout(&self) -> std::sync::Arc<MetadataLayout> {
        std::sync::Arc::clone(&self.layout)
    }

    /// The current on-chip root digest.
    pub fn root(&self) -> [u8; 8] {
        self.root
    }

    /// Behaviour counters.
    pub fn stats(&self) -> &MetaStats {
        &self.stats
    }

    /// Raw `(hits, misses)` of the metadata cache (summed across
    /// partitions) — monotonic counters, so snapshot-delta measurement
    /// can compute the hit rate over any window.
    pub fn cache_counts(&self) -> (u64, u64) {
        self.caches.iter().fold((0, 0), |(hits, misses), c| {
            (hits + c.stats().hits.get(), misses + c.stats().misses.get())
        })
    }

    /// Index into `caches` of the partition `addr` routes to: MECBs,
    /// FECBs, then everything else when partitioned; the one shared
    /// cache otherwise.
    fn part_of(&self, addr: LineAddr) -> usize {
        if self.caches.len() == 1 {
            return 0;
        }
        match self.layout.kind_of(addr) {
            LineKind::Mecb => 0,
            LineKind::Fecb => 1,
            LineKind::Data | LineKind::Spill | LineKind::Node => 2,
        }
    }

    fn cache_at(&mut self, addr: LineAddr) -> &mut Cache {
        let part = self.part_of(addr);
        &mut self.caches[part]
    }

    /// Records a leaf-cache outcome in the coarse `leaf_hits` /
    /// `leaf_misses` counter and the per-structure one together.
    fn note_leaf(&mut self, addr: LineAddr, hit: bool) {
        let kind = self.layout.kind_of(addr);
        let s = &mut self.stats;
        let (total, mecb, fecb, spill) = if hit {
            (
                &mut s.leaf_hits,
                &mut s.mecb_hits,
                &mut s.fecb_hits,
                &mut s.spill_hits,
            )
        } else {
            (
                &mut s.leaf_misses,
                &mut s.mecb_misses,
                &mut s.fecb_misses,
                &mut s.spill_misses,
            )
        };
        total.incr();
        match kind {
            LineKind::Mecb => mecb.incr(),
            LineKind::Fecb => fecb.incr(),
            // read_block only ever sees leaves, so Data or Node here would
            // mean a layout bug; fold it into the spill bucket rather than
            // panic.
            LineKind::Spill | LineKind::Data | LineKind::Node => spill.incr(),
        }
    }

    fn interpret_node(&self, level: usize, bytes: [u8; LINE_BYTES]) -> [u8; LINE_BYTES] {
        if bytes == [0u8; LINE_BYTES] {
            self.canon_nodes[level]
        } else {
            bytes
        }
    }

    fn slot_of(node: &[u8; LINE_BYTES], slot: usize) -> [u8; 8] {
        let mut d = [0u8; 8];
        d.copy_from_slice(&node[slot * 8..slot * 8 + 8]);
        d
    }

    fn set_slot(node: &mut [u8; LINE_BYTES], slot: usize, digest: [u8; 8]) {
        node[slot * 8..slot * 8 + 8].copy_from_slice(&digest);
    }

    /// Digest of a line's content — the only digest route of the tree.
    /// All-zero content short-circuits to the precomputed zero-leaf
    /// digest (a faster hash of a known message, not a trust decision);
    /// everything else is hashed. Sound for any input, trusted or
    /// freshly fetched.
    fn line_digest(&self, bytes: &[u8; LINE_BYTES]) -> [u8; 8] {
        if *bytes == [0u8; LINE_BYTES] {
            self.zero_leaf_digest
        } else {
            digest8_line(bytes)
        }
    }

    /// Reads a covered metadata line, fetching and verifying on a cache
    /// miss.
    ///
    /// # Errors
    ///
    /// Returns [`TamperError`] if the fetched line (or any tree node on its
    /// verification path) fails its digest check.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a covered metadata line.
    pub fn read_block(
        &mut self,
        nvm: &mut NvmDevice,
        now: Cycle,
        addr: LineAddr,
    ) -> Result<([u8; LINE_BYTES], MetaAccess), TamperError> {
        // Every partition shares the configured latency.
        let mut t = now + self.caches[0].latency_cycles();
        if let Some(data) = self.cache_at(addr).lookup(addr) {
            let data = *data;
            self.note_leaf(addr, true);
            return Ok((data, MetaAccess { done: t }));
        }
        self.note_leaf(addr, false);

        let (bytes, t_read) = nvm.read_line(t, addr.into_phys());
        t = t_read;
        t = self.verify_climb(nvm, t, addr, &bytes)?;

        t = self.install(nvm, t, addr, bytes, false);
        Ok((bytes, MetaAccess { done: t }))
    }

    /// Verifies `bytes` (the content of covered line `addr`) by climbing
    /// the tree until a cached ancestor or the root. Fetched nodes are
    /// installed in the cache once the chain closes.
    fn verify_climb(
        &mut self,
        nvm: &mut NvmDevice,
        mut t: Cycle,
        addr: LineAddr,
        bytes: &[u8; LINE_BYTES],
    ) -> Result<Cycle, TamperError> {
        let leaf = self.layout.leaf_index(addr);
        let mut expected = self.line_digest(bytes);
        t += self.mac_cycles;
        self.stats.verify_climbs.incr();

        let path = self.layout.path_of_leaf(leaf);
        let top_level = self.layout.merkle_levels() - 1;
        let mut fetched = std::mem::take(&mut self.climb_scratch);
        fetched.clear();
        let verdict = 'climb: {
            for (level, node_idx, slot) in path {
                self.stats.verify_levels.incr();
                let node_addr = self.layout.node_addr(level, node_idx);
                if let Some(node) = self.cache_at(node_addr).lookup(node_addr).copied() {
                    self.stats.node_hits.incr();
                    // Trusted on-chip copy: one check closes the chain.
                    if Self::slot_of(&node, slot) != expected {
                        break 'climb Err(TamperError { addr, level });
                    }
                    t += self.mac_cycles;
                    break 'climb Ok(());
                }
                let (raw, t_read) = nvm.read_line(t, node_addr.into_phys());
                t = t_read + self.mac_cycles;
                self.stats.node_fetches.incr();
                self.stats.node_misses.incr();
                let canonical_zero = raw == [0u8; LINE_BYTES];
                let node = if canonical_zero {
                    self.canon_nodes[level]
                } else {
                    raw
                };
                if Self::slot_of(&node, slot) != expected {
                    break 'climb Err(TamperError { addr, level });
                }
                expected = if canonical_zero {
                    self.canon_digests[level]
                } else {
                    self.line_digest(&node)
                };
                fetched.push((node_addr, node));
                if level == top_level {
                    if expected != self.root {
                        break 'climb Err(TamperError {
                            addr,
                            level: usize::MAX,
                        });
                    }
                    break 'climb Ok(());
                }
            }
            unreachable!("path always terminates at the top level");
        };
        if verdict.is_ok() {
            // The chain closed: every fetched node is now trusted.
            for &(a, b) in &fetched {
                t = self.install(nvm, t, a, b, false);
            }
        }
        fetched.clear();
        self.climb_scratch = fetched;
        verdict.map(|()| t)
    }

    /// Inserts a line into the metadata cache, processing the eviction
    /// cascade (dirty victims are written back and their parents updated).
    fn install(
        &mut self,
        nvm: &mut NvmDevice,
        mut t: Cycle,
        addr: LineAddr,
        bytes: [u8; LINE_BYTES],
        dirty: bool,
    ) -> Cycle {
        // A copy may have (re)appeared in the cache since `bytes` was
        // fetched: the eviction cascade of an earlier install can route a
        // `bump_parent` slot update into this very line. The cached copy
        // is then strictly fresher — clobbering it with the stale fetched
        // image would orphan a child's digest and poison verification.
        if self.cache_at(addr).probe(addr) {
            debug_assert!(!dirty, "install() is only used for clean fills");
            return t;
        }
        let mut queue = std::mem::take(&mut self.evict_scratch);
        queue.clear();
        if let Some(ev) = self.cache_at(addr).insert(addr, bytes, dirty).victim() {
            queue.push_back(ev);
        }
        t = self.drain_queue(nvm, t, &mut queue);
        self.evict_scratch = queue;
        t
    }

    /// The one write-back step: `bytes` (the content of `addr`) go to
    /// media, then the parent digest (or the root) is bumped. It never
    /// cleans the cached line: a caller writing back its own cached copy
    /// cleans it first, and a parent that an earlier bump re-dirtied must
    /// stay dirty.
    #[expect(
        clippy::disallowed_methods,
        reason = "the one write-back step (Osiris write-through, persist, eviction) of counter/digest lines, no user data"
    )]
    fn write_back(
        &mut self,
        nvm: &mut NvmDevice,
        t: Cycle,
        addr: LineAddr,
        bytes: &[u8; LINE_BYTES],
        queue: &mut VecDeque<Eviction>,
    ) -> Cycle {
        let t = nvm.write_line(t, addr.into_phys(), bytes);
        let t = self.bump_parent(nvm, t, addr, bytes, queue);
        // bump_parent just left the parent cached (or bumped the root),
        // so this check closes in one level: cheap enough to run per
        // write-back.
        self.assert_covered(nvm, addr);
        t
    }

    /// After writing `addr` (content `bytes`) to NVM, reflect its new
    /// digest in the parent (cached, dirty) — or update the on-chip root if
    /// `addr` is the top node.
    fn bump_parent(
        &mut self,
        nvm: &mut NvmDevice,
        mut t: Cycle,
        addr: LineAddr,
        bytes: &[u8; LINE_BYTES],
        queue: &mut VecDeque<Eviction>,
    ) -> Cycle {
        let new_digest = self.line_digest(bytes);
        t += self.mac_cycles;
        self.stats.update_bumps.incr();

        let (parent_level, parent_idx, slot) = if self.layout.is_metadata(addr) {
            let leaf = self.layout.leaf_index(addr);
            (0usize, leaf / 8, (leaf % 8) as usize)
        } else if let Some((level, idx)) = self.layout.node_coords(addr) {
            let top = self.layout.merkle_levels() - 1;
            if level == top {
                self.root = new_digest;
                return t;
            }
            (level + 1, idx / 8, (idx % 8) as usize)
        } else {
            // Every address reaching here came from the cache, which only
            // ever holds covered leaves and tree nodes; tolerate (and flag
            // in debug builds) rather than abort the whole machine.
            debug_assert!(false, "{addr:?} is neither a covered leaf nor a tree node");
            return t;
        };

        let parent_addr = self.layout.node_addr(parent_level, parent_idx);
        let cached = self.cache_at(parent_addr).lookup(parent_addr).copied();
        let mut node = match cached {
            Some(n) => {
                self.stats.node_hits.incr();
                n
            }
            None => {
                // Fetch the parent without full climb: its own integrity is
                // re-established transitively — we are about to overwrite
                // one slot and mark it dirty, and its digest will be
                // propagated upward when it is in turn written back.
                let (raw, t_read) = nvm.read_line(t, parent_addr.into_phys());
                t = t_read;
                self.stats.node_fetches.incr();
                self.stats.node_misses.incr();
                self.interpret_node(parent_level, raw)
            }
        };
        Self::set_slot(&mut node, slot, new_digest);
        if let Some(line) = self.cache_at(parent_addr).update(parent_addr) {
            *line = node;
        } else if let Some(ev) = self
            .cache_at(parent_addr)
            .insert(parent_addr, node, true)
            .victim()
        {
            queue.push_back(ev);
        }
        t
    }

    /// Writes a covered metadata line. The line is fetched (and verified)
    /// first if not cached, updated in the cache, and — every
    /// `stop_loss`-th update — written through to NVM per Osiris.
    ///
    /// # Errors
    ///
    /// Propagates verification failures from the fetch-on-miss.
    pub fn write_block(
        &mut self,
        nvm: &mut NvmDevice,
        now: Cycle,
        addr: LineAddr,
        bytes: [u8; LINE_BYTES],
    ) -> Result<MetaAccess, TamperError> {
        let mut t = now + self.caches[0].latency_cycles();
        if !self.cache_at(addr).probe(addr) {
            let (_, acc) = self.read_block(nvm, now, addr)?;
            t = acc.done;
        }
        let line = self.cache_at(addr).update(addr);
        debug_assert!(line.is_some(), "line present after fetch");
        if let Some(line) = line {
            *line = bytes;
        }

        let count = self.pending.entry(addr.get()).or_insert(0);
        *count += 1;
        if *count >= self.stop_loss {
            *count = 0;
            self.stats.osiris_persists.incr();
            self.cache_at(addr).clean(addr);
            let mut queue = std::mem::take(&mut self.evict_scratch);
            queue.clear();
            t = self.write_back(nvm, t, addr, &bytes, &mut queue);
            // The queue only fills if the parent insertion evicted
            // something.
            t = self.drain_queue(nvm, t, &mut queue);
            self.evict_scratch = queue;
        }
        Ok(MetaAccess { done: t })
    }

    /// Forces a covered line to the media *now* (write-through), keeping
    /// it cached clean. Used for rare metadata updates whose durability
    /// recovery depends on — e.g. the FECB identity stamp at page-fault
    /// time, without which post-crash recovery could not tell file pages
    /// from plain memory.
    ///
    /// # Errors
    ///
    /// Propagates verification failures from the fetch-on-miss.
    pub fn persist_block(
        &mut self,
        nvm: &mut NvmDevice,
        now: Cycle,
        addr: LineAddr,
    ) -> Result<Cycle, TamperError> {
        self.persist_blocks(nvm, now, std::slice::from_ref(&addr))
    }

    /// Region variant of the verify path: reads (and on miss, verifies)
    /// a run of covered lines in order, each issued at the previous
    /// completion — exactly a chained [`MetadataSystem::read_block`]
    /// loop. Returns the last completion time.
    ///
    /// # Errors
    ///
    /// Propagates the first verification failure; lines before it have
    /// already been read and installed.
    pub fn verify_lines(
        &mut self,
        nvm: &mut NvmDevice,
        now: Cycle,
        addrs: &[LineAddr],
    ) -> Result<Cycle, TamperError> {
        let mut t = now;
        for &addr in addrs {
            t = self.read_block(nvm, t, addr)?.1.done;
        }
        Ok(t)
    }

    /// Region variant of the persist path: write-through a run of
    /// covered lines in order, each starting where the previous one
    /// completed. Simulated behavior is identical to calling
    /// [`MetadataSystem::persist_block`] per address with chained
    /// completion times; the run shares one eviction queue, and sibling
    /// lines (e.g. a page's MECB and FECB, adjacent under one tree
    /// parent) resolve their climbs against the ancestors the first
    /// line's climb just installed.
    ///
    /// # Errors
    ///
    /// Propagates the first verification failure; lines before it have
    /// already been persisted.
    pub fn persist_blocks(
        &mut self,
        nvm: &mut NvmDevice,
        now: Cycle,
        addrs: &[LineAddr],
    ) -> Result<Cycle, TamperError> {
        let mut queue = std::mem::take(&mut self.evict_scratch);
        let out = addrs
            .iter()
            .try_fold(now, |t, &addr| self.persist_one(nvm, t, addr, &mut queue));
        self.evict_scratch = queue;
        out
    }

    /// One persist_block step against a caller-held eviction queue.
    fn persist_one(
        &mut self,
        nvm: &mut NvmDevice,
        now: Cycle,
        addr: LineAddr,
        queue: &mut VecDeque<Eviction>,
    ) -> Result<Cycle, TamperError> {
        let (bytes, acc) = self.read_block(nvm, now, addr)?;
        self.cache_at(addr).clean(addr);
        self.pending.remove(&addr.get());
        queue.clear();
        let t = self.write_back(nvm, acc.done, addr, &bytes, queue);
        Ok(self.drain_queue(nvm, t, queue))
    }

    fn drain_queue(
        &mut self,
        nvm: &mut NvmDevice,
        mut t: Cycle,
        queue: &mut VecDeque<Eviction>,
    ) -> Cycle {
        let mut guard = 0;
        while let Some(ev) = queue.pop_front() {
            guard += 1;
            assert!(guard < 10_000, "eviction cascade did not terminate");
            if !ev.dirty {
                continue;
            }
            self.stats.evict_writebacks.incr();
            self.pending.remove(&ev.addr.get());
            t = self.write_back(nvm, t, ev.addr, &ev.data, queue);
        }
        t
    }

    /// Flushes every dirty metadata line to NVM (clean shutdown), keeping
    /// the tree consistent. Returns the completion time.
    #[expect(
        clippy::disallowed_methods,
        reason = "shutdown flush of dirty metadata lines"
    )]
    pub fn flush(&mut self, nvm: &mut NvmDevice, now: Cycle) -> Cycle {
        let mut t = now;
        let mut dirty = std::mem::take(&mut self.dirty_scratch);
        let mut queue = std::mem::take(&mut self.evict_scratch);
        // bump_parent dirties parents again; iterate until clean.
        loop {
            dirty.clear();
            for c in &mut self.caches {
                c.drain_dirty_into(&mut dirty);
            }
            if dirty.is_empty() {
                break;
            }
            // Every drained line reaches media before any parent is
            // bumped: a bump's insert can evict a drained line, which is
            // clean by now and dropped, so its media copy must already be
            // the current one when a later bump fetches it back.
            for ev in &dirty {
                t = nvm.write_line(t, ev.addr.into_phys(), &ev.data);
            }
            queue.clear();
            for ev in &dirty {
                t = self.bump_parent(nvm, t, ev.addr, &ev.data, &mut queue);
                self.assert_covered(nvm, ev.addr);
            }
            t = self.drain_queue(nvm, t, &mut queue);
        }
        self.pending.clear();
        self.dirty_scratch = dirty;
        self.evict_scratch = queue;
        t
    }

    /// Power loss: all cached metadata (and pending Osiris state) vanishes.
    /// The on-chip root survives (persistent processor register, Section
    /// III-H).
    pub fn crash(&mut self) {
        self.caches.iter_mut().for_each(Cache::clear);
        self.pending.clear();
    }

    /// Rebuilds the whole Merkle tree from NVM contents and installs the
    /// new root — the final step of post-crash recovery, after counters
    /// have been repaired via the ECC oracle. Returns the (empty) list
    /// of reset leaves, mirroring [`MetadataSystem::rebuild_skipping`].
    pub fn rebuild(&mut self, nvm: &mut NvmDevice) -> Vec<u64> {
        self.rebuild_skipping(nvm, &BTreeSet::new())
    }

    /// [`MetadataSystem::rebuild`] with a quarantine skip list: any leaf
    /// line whose address is in `skip` is *reset to zero on media* and
    /// folded in as the canonical zero leaf, instead of being hashed and
    /// re-trusted. This is the graceful-degradation half of fault
    /// recovery — bytes that already failed Merkle verification must not
    /// be laundered back into the tree by the rebuild. Entries in `skip`
    /// that are not metadata leaf addresses (e.g. quarantined data
    /// lines) are simply ignored.
    ///
    /// The rebuild is serial, on the calling thread. Recovery calls it,
    /// and a fault campaign runs each recovery inside a pool worker
    /// already, so fanning it out would spawn and join fresh threads on
    /// every recovery; a paper-scale rebuild takes milliseconds on one
    /// thread. Quarantined leaves are zeroed *before* the sweep, then the
    /// leaves and each tree level are digested in ascending order, and
    /// every non-canonical node is poked in ascending order.
    ///
    /// Returns the leaf addresses actually reset, in ascending order —
    /// asserted inside to be *exactly* the skip entries that name
    /// metadata leaves (the exact-repair oracle): no covered leaf
    /// outside the skip set is ever rewritten by a rebuild, and every
    /// skip-set leaf is canonical zero on media before the sweep reads
    /// it.
    #[expect(
        clippy::disallowed_methods,
        reason = "Osiris counter recovery pokes reconstructed counters"
    )]
    pub fn rebuild_skipping(&mut self, nvm: &mut NvmDevice, skip: &BTreeSet<u64>) -> Vec<u64> {
        let leaves = self.layout.leaves().collect::<Vec<_>>();
        // Pre-pass: settle the media image the sweep reads —
        // quarantined leaves are reset to zero first.
        let mut repaired = Vec::with_capacity(skip.len());
        if !skip.is_empty() {
            for l in &leaves {
                if skip.contains(&l.get()) {
                    nvm.poke_line(l.into_phys(), &[0u8; LINE_BYTES]);
                    repaired.push(l.get());
                }
            }
        }
        // Exact-repair oracle: cross-check the sweep's repair list
        // against the layout's own leaf predicate. Non-leaf skip
        // entries (quarantined data lines) must be ignored, every
        // predicted leaf must have been reset, and each reset line must
        // read back as canonical zero.
        let predicted: Vec<u64> = skip
            .iter()
            .copied()
            .filter(|&a| a % LINE_BYTES as u64 == 0 && self.layout.is_metadata(LineAddr::new(a)))
            .collect();
        assert_eq!(
            repaired, predicted,
            "rebuild repaired a different leaf set than the skip set predicts"
        );
        for &a in &repaired {
            assert!(
                nvm.peek_line(LineAddr::new(a).into_phys()) == [0u8; LINE_BYTES],
                "skip-set leaf {a:#x} not zero after quarantine reset"
            );
        }

        // Leaf sweep, in fixed-size chunks so the line buffer stays
        // small: zero leaves take the precomputed digest, non-zero
        // leaves hash four at a time through the interleaved lane kernel.
        let zero_leaf = self.zero_leaf_digest;
        const CHUNK: usize = 256;
        let mut lines: Vec<[u8; LINE_BYTES]> = Vec::with_capacity(CHUNK);
        let mut work: Vec<usize> = Vec::with_capacity(CHUNK);
        let mut digests: Vec<[u8; 8]> = Vec::with_capacity(leaves.len());
        for chunk in leaves.chunks(CHUNK) {
            lines.clear();
            work.clear();
            for l in chunk {
                let bytes = nvm.peek_line(l.into_phys());
                if bytes != [0u8; LINE_BYTES] {
                    work.push(lines.len());
                }
                lines.push(bytes);
            }
            let base = digests.len();
            digests.resize(base + lines.len(), zero_leaf);
            digest_lanes(&lines, &work, &mut digests[base..]);
        }

        for level in 0..self.layout.merkle_levels() {
            let nodes = self.layout.nodes_at(level);
            let canon_node = self.canon_nodes[level];
            let canon_level = self.canon_digests[level];
            let canon_child = if level == 0 {
                zero_leaf
            } else {
                self.canon_digests[level - 1]
            };
            let mut next = Vec::with_capacity(usize::try_from(nodes).unwrap_or(0));
            for start in (0..nodes).step_by(CHUNK) {
                let end = (start + CHUNK as u64).min(nodes);
                lines.clear();
                work.clear();
                for idx in start..end {
                    let mut node = canon_node;
                    let mut canonical = true;
                    for slot in 0..8usize {
                        let child = idx * 8 + slot as u64;
                        if let Some(&d) = usize::try_from(child).ok().and_then(|c| digests.get(c)) {
                            Self::set_slot(&mut node, slot, d);
                            if d != canon_child {
                                canonical = false;
                            }
                        }
                    }
                    if !canonical {
                        work.push(lines.len());
                    }
                    lines.push(node);
                }
                let base = next.len();
                next.resize(base + lines.len(), canon_level);
                digest_lanes(&lines, &work, &mut next[base..]);
                // Canonical nodes are not poked: untouched subtrees stay
                // zeroes on media. The rest go out in ascending order.
                for &i in &work {
                    let addr = self.layout.node_addr(level, start + i as u64);
                    nvm.poke_line(addr.into_phys(), &lines[i]);
                }
            }
            digests = next;
        }
        self.root = digests[0];
        self.caches.iter_mut().for_each(Cache::clear);
        self.pending.clear();
        if self.coverage_oracle {
            // Post-crash the cache is empty, so every chain must close on
            // the freshly installed root through NVM-resident nodes alone.
            // Sweep the whole covered region — rebuild is rare enough to
            // afford the full walk.
            for leaf in self.layout.leaves() {
                self.assert_covered(nvm, leaf);
            }
        }
        repaired
    }

    /// Serializes the simulation-visible state: cache partitions (entry
    /// order verbatim — LRU victims fall out of `swap_remove` order),
    /// the on-chip root, pending Osiris deltas (sorted) and behaviour
    /// counters. Scratch buffers are host-side only and start empty at
    /// restore.
    pub fn snap_save(&self, enc: &mut fsencr_snapshot::Enc) {
        enc.put_u8(u8::from(self.caches.len() > 1));
        for c in &self.caches {
            c.snap_save(enc);
        }
        enc.put_bytes(&self.root);
        let mut pending: Vec<(u64, u32)> = self.pending.iter().map(|(k, v)| (*k, *v)).collect();
        pending.sort_unstable();
        enc.put_u64(pending.len() as u64);
        for (addr, count) in pending {
            enc.put_u64(addr);
            enc.put_u32(count);
        }
        let mut stats = self.stats;
        for counter in Self::stat_slots(&mut stats) {
            enc.put_u64(counter.get());
        }
    }

    /// Restores a system for `(layout, cfg)` from
    /// [`MetadataSystem::snap_save`] bytes. The cache partitioning mode
    /// must match the configuration the snapshot was taken under. The
    /// restored instance starts with its coverage oracle off, exactly
    /// like a fresh construction.
    pub fn snap_load(
        layout: MetadataLayout,
        cfg: &SecurityConfig,
        dec: &mut fsencr_snapshot::Dec<'_>,
    ) -> Result<Self, fsencr_snapshot::SnapError> {
        let mut sys = MetadataSystem::new(layout, cfg);
        if dec.get_u8()? != u8::from(sys.caches.len() > 1) {
            return Err(fsencr_snapshot::SnapError::StateMismatch);
        }
        for (cache, part) in sys.caches.iter_mut().zip(cache_parts(cfg)) {
            *cache = Cache::snap_load(part, dec)?;
        }
        sys.root = dec.get_arr8()?;
        let n = dec.get_len()?;
        for _ in 0..n {
            let addr = dec.get_u64()?;
            let count = dec.get_u32()?;
            sys.pending.insert(addr, count);
        }
        for counter in Self::stat_slots(&mut sys.stats) {
            counter.add(dec.get_u64()?);
        }
        Ok(sys)
    }

    /// The behaviour counters in canonical snapshot order.
    fn stat_slots(s: &mut MetaStats) -> [&mut Counter; 16] {
        [
            &mut s.leaf_hits,
            &mut s.leaf_misses,
            &mut s.node_fetches,
            &mut s.evict_writebacks,
            &mut s.osiris_persists,
            &mut s.mecb_hits,
            &mut s.mecb_misses,
            &mut s.fecb_hits,
            &mut s.fecb_misses,
            &mut s.spill_hits,
            &mut s.spill_misses,
            &mut s.node_hits,
            &mut s.node_misses,
            &mut s.verify_climbs,
            &mut s.verify_levels,
            &mut s.update_bumps,
        ]
    }
}

/// Convenience conversion used throughout this module.
trait IntoPhys {
    fn into_phys(self) -> fsencr_nvm::PhysAddr;
}

impl IntoPhys for LineAddr {
    fn into_phys(self) -> fsencr_nvm::PhysAddr {
        fsencr_nvm::PhysAddr::new(self.get())
    }
}

/// Writes the digest of `lines[i]` to `out[i]` for every `i` in `work`,
/// four lines at a time through the interleaved lane kernel.
fn digest_lanes(lines: &[[u8; LINE_BYTES]], work: &[usize], out: &mut [[u8; 8]]) {
    let mut quads = work.chunks_exact(4);
    for q in &mut quads {
        let d = digest8_lines4([&lines[q[0]], &lines[q[1]], &lines[q[2]], &lines[q[3]]]);
        for (&i, digest) in q.iter().zip(d) {
            out[i] = digest;
        }
    }
    for &i in quads.remainder() {
        out[i] = digest8_line(&lines[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsencr_nvm::PageId;
    use fsencr_sim::config::{CacheConfig, NvmConfig, SecurityConfig};

    fn small_cfg() -> SecurityConfig {
        SecurityConfig {
            metadata_cache: CacheConfig {
                size_bytes: 64 * 64, // 64 lines
                ways: 8,
                block_bytes: 64,
                latency_cycles: 3,
            },
            osiris_stop_loss: 4,
            ..SecurityConfig::default()
        }
    }

    fn small_setup() -> (MetadataSystem, NvmDevice) {
        let layout = MetadataLayout::new(64 * 4096, 4096);
        let sys = MetadataSystem::new(layout, &small_cfg());
        let nvm = NvmDevice::new(NvmConfig::default());
        (sys, nvm)
    }

    #[test]
    fn fresh_device_verifies_zero_leaves() {
        let (mut sys, mut nvm) = small_setup();
        let addr = sys.layout().mecb_addr(PageId::new(0));
        let counts = |sys: &MetadataSystem| {
            let stats = sys.stats();
            (stats.mecb_hits.get(), stats.mecb_misses.get())
        };
        let before = counts(&sys);
        let (bytes, acc) = sys.read_block(&mut nvm, Cycle::ZERO, addr).unwrap();
        assert_eq!(bytes, [0u8; 64]);
        let after_miss = counts(&sys);
        assert_eq!((after_miss.0 - before.0, after_miss.1 - before.1), (0, 1));
        // second read hits the cache
        let (_, acc2) = sys.read_block(&mut nvm, acc.done, addr).unwrap();
        let after_hit = counts(&sys);
        assert_eq!(
            (after_hit.0 - after_miss.0, after_hit.1 - after_miss.1),
            (1, 0)
        );
        assert!(acc2.done > acc.done);
    }

    #[test]
    fn write_read_roundtrip_through_cache() {
        let (mut sys, mut nvm) = small_setup();
        let addr = sys.layout().fecb_addr(PageId::new(3));
        let data = [0x42u8; 64];
        let acc = sys.write_block(&mut nvm, Cycle::ZERO, addr, data).unwrap();
        let (bytes, _) = sys.read_block(&mut nvm, acc.done, addr).unwrap();
        assert_eq!(bytes, data);
    }

    #[test]
    fn osiris_stop_loss_forces_persistence() {
        let (mut sys, mut nvm) = small_setup();
        let addr = sys.layout().mecb_addr(PageId::new(1));
        let mut t = Cycle::ZERO;
        for i in 0..4u8 {
            let acc = sys.write_block(&mut nvm, t, addr, [i + 1; 64]).unwrap();
            t = acc.done;
        }
        assert_eq!(sys.stats().osiris_persists.get(), 1);
        // The 4th update reached the media.
        assert_eq!(nvm.peek_line(addr.into_phys()), [4u8; 64]);
    }

    #[test]
    fn persist_blocks_matches_per_line_persists() {
        // Same writes, then persist a page's MECB + FECB plus two sibling
        // pages' counters — region on one system, per-line on the other.
        // Completion time, root, media bytes and every counter must agree.
        let build = || {
            let (mut sys, mut nvm) = small_setup();
            let mut t = Cycle::ZERO;
            for p in 0..4u64 {
                let mecb = sys.layout().mecb_addr(PageId::new(p));
                let fecb = sys.layout().fecb_addr(PageId::new(p));
                t = sys
                    .write_block(&mut nvm, t, mecb, [p as u8 + 1; 64])
                    .unwrap()
                    .done;
                t = sys
                    .write_block(&mut nvm, t, fecb, [p as u8 + 9; 64])
                    .unwrap()
                    .done;
            }
            (sys, nvm, t)
        };
        let (mut region, mut nvm_b, t0) = build();
        let (mut serial, mut nvm_s, t0_s) = build();
        assert_eq!(t0, t0_s);
        let addrs: Vec<LineAddr> = (0..4u64)
            .flat_map(|p| {
                [
                    region.layout().mecb_addr(PageId::new(p)),
                    region.layout().fecb_addr(PageId::new(p)),
                ]
            })
            .collect();
        let t_region = region.persist_blocks(&mut nvm_b, t0, &addrs).unwrap();
        let mut t_serial = t0_s;
        for &addr in &addrs {
            t_serial = serial.persist_block(&mut nvm_s, t_serial, addr).unwrap();
        }
        assert_eq!(t_region, t_serial);
        assert_eq!(region.root(), serial.root());
        for &addr in &addrs {
            assert_eq!(
                nvm_b.peek_line(addr.into_phys()),
                nvm_s.peek_line(addr.into_phys())
            );
        }
        assert_eq!(region.stats(), serial.stats());
        assert_eq!(nvm_b.stats().reads.get(), nvm_s.stats().reads.get());
        assert_eq!(nvm_b.stats().writes.get(), nvm_s.stats().writes.get());
    }

    #[test]
    fn flush_matches_per_line_drain() {
        // Same dirty state flushed twice: once through `flush`, once
        // through an inline replica of its two-pass drain (write every
        // drained line, then bump every parent) built from the write-back
        // primitives. Completion time, root, counters and the entire
        // media image must be bit-identical.
        let build = || {
            let (mut sys, mut nvm) = small_setup();
            let mut t = Cycle::ZERO;
            for p in 0..6u64 {
                let mecb = sys.layout().mecb_addr(PageId::new(p));
                let fecb = sys.layout().fecb_addr(PageId::new(p));
                t = sys
                    .write_block(&mut nvm, t, mecb, [p as u8 + 1; 64])
                    .unwrap()
                    .done;
                t = sys
                    .write_block(&mut nvm, t, fecb, [p as u8 + 31; 64])
                    .unwrap()
                    .done;
            }
            (sys, nvm, t)
        };
        let (mut flushed, mut nvm_b, t0) = build();
        let (mut serial, mut nvm_s, t0_s) = build();
        assert_eq!(t0, t0_s);

        let t_b = flushed.flush(&mut nvm_b, t0);

        // The two-pass drain, spelled out: every drained line is written,
        // then every parent is bumped.
        let mut t_s = t0_s;
        let mut dirty = Vec::new();
        let mut queue = VecDeque::new();
        loop {
            dirty.clear();
            for c in &mut serial.caches {
                c.drain_dirty_into(&mut dirty);
            }
            if dirty.is_empty() {
                break;
            }
            for ev in &dirty {
                t_s = nvm_s.write_line(t_s, ev.addr.into_phys(), &ev.data);
            }
            queue.clear();
            for ev in &dirty {
                t_s = serial.bump_parent(&mut nvm_s, t_s, ev.addr, &ev.data, &mut queue);
            }
            t_s = serial.drain_queue(&mut nvm_s, t_s, &mut queue);
        }
        serial.pending.clear();

        assert_eq!(t_b, t_s, "flush completion time moved");
        assert_eq!(flushed.root(), serial.root());
        assert_eq!(flushed.stats(), serial.stats());
        assert_eq!(nvm_b.stats().reads.get(), nvm_s.stats().reads.get());
        assert_eq!(nvm_b.stats().writes.get(), nvm_s.stats().writes.get());
        let mut frames_b: Vec<u64> = nvm_b.storage().frames().collect();
        frames_b.sort_unstable();
        let mut frames_s: Vec<u64> = nvm_s.storage().frames().collect();
        frames_s.sort_unstable();
        assert_eq!(frames_b, frames_s);
        for f in frames_b {
            assert_eq!(
                nvm_b.storage().snapshot_page(PageId::new(f)),
                nvm_s.storage().snapshot_page(PageId::new(f)),
                "media diverged in frame {f}"
            );
        }
    }

    #[test]
    fn snapshot_roundtrip_preserves_behaviour() {
        // Serialize a warm system mid-stream, restore it, and drive both
        // with identical traffic: every completion time, root and counter
        // must stay bit-identical — the restored system is the original.
        let (mut sys, mut nvm) = small_setup();
        let mut t = Cycle::ZERO;
        for p in 0..5u64 {
            let mecb = sys.layout().mecb_addr(PageId::new(p));
            t = sys
                .write_block(&mut nvm, t, mecb, [p as u8 + 7; 64])
                .unwrap()
                .done;
        }

        let mut enc = fsencr_snapshot::Enc::new();
        enc.begin_section("meta");
        sys.snap_save(&mut enc);
        enc.end_section();
        enc.begin_section("nvm");
        nvm.snap_save(&mut enc).unwrap();
        enc.end_section();
        let bytes = enc.finish();

        let mut dec = fsencr_snapshot::Dec::new(&bytes).unwrap();
        dec.begin_section("meta").unwrap();
        let layout = MetadataLayout::new(64 * 4096, 4096);
        let mut restored = MetadataSystem::snap_load(layout, &small_cfg(), &mut dec).unwrap();
        dec.end_section().unwrap();
        dec.begin_section("nvm").unwrap();
        let mut restored_nvm = NvmDevice::snap_load(NvmConfig::default(), &mut dec).unwrap();
        dec.end_section().unwrap();
        dec.finish().unwrap();

        assert_eq!(restored.root(), sys.root());
        assert_eq!(restored.stats(), sys.stats());
        let mut t2 = t;
        for p in 0..5u64 {
            let fecb = sys.layout().fecb_addr(PageId::new(p));
            let a = sys
                .write_block(&mut nvm, t, fecb, [p as u8 + 77; 64])
                .unwrap();
            let b = restored
                .write_block(&mut restored_nvm, t2, fecb, [p as u8 + 77; 64])
                .unwrap();
            assert_eq!(a, b);
            t = a.done;
            t2 = b.done;
        }
        let tf_a = sys.flush(&mut nvm, t);
        let tf_b = restored.flush(&mut restored_nvm, t2);
        assert_eq!(tf_a, tf_b);
        assert_eq!(sys.root(), restored.root());
        assert_eq!(nvm.stats().reads.get(), restored_nvm.stats().reads.get());
        assert_eq!(nvm.stats().writes.get(), restored_nvm.stats().writes.get());
    }

    /// Writes a few pages of counters, flushes, and crashes, leaving a
    /// cold cache over a populated tree — the worst case for verify
    /// climbs.
    fn cold_populated() -> (MetadataSystem, NvmDevice, Vec<LineAddr>) {
        let (mut sys, mut nvm) = small_setup();
        let mut t = Cycle::ZERO;
        for p in 0..8u64 {
            let mecb = sys.layout().mecb_addr(PageId::new(p));
            let fecb = sys.layout().fecb_addr(PageId::new(p));
            t = sys
                .write_block(&mut nvm, t, mecb, [p as u8 + 1; 64])
                .unwrap()
                .done;
            t = sys
                .write_block(&mut nvm, t, fecb, [p as u8 + 101; 64])
                .unwrap()
                .done;
        }
        sys.flush(&mut nvm, t);
        sys.crash();
        let addrs: Vec<LineAddr> = (0..8u64)
            .flat_map(|p| {
                [
                    sys.layout().mecb_addr(PageId::new(p)),
                    sys.layout().fecb_addr(PageId::new(p)),
                ]
            })
            .collect();
        (sys, nvm, addrs)
    }

    #[test]
    fn verify_lines_matches_per_line_reads() {
        // Region verify vs a chained read_block loop: completion time,
        // root, every stat row and the NVM access counters must be
        // bit-identical.
        let (mut region, mut nvm_b, addrs) = cold_populated();
        let (mut serial, mut nvm_s, _) = cold_populated();
        let t_region = region
            .verify_lines(&mut nvm_b, Cycle::ZERO, &addrs)
            .unwrap();
        let mut t_serial = Cycle::ZERO;
        for &addr in &addrs {
            let (_, acc) = serial.read_block(&mut nvm_s, t_serial, addr).unwrap();
            t_serial = acc.done;
        }
        assert_eq!(t_region, t_serial);
        assert_eq!(region.root(), serial.root());
        assert_eq!(region.stats(), serial.stats());
        assert_eq!(nvm_b.stats().reads.get(), nvm_s.stats().reads.get());
        assert_eq!(nvm_b.stats().writes.get(), nvm_s.stats().writes.get());
    }

    #[test]
    fn verify_lines_tamper_verdict_matches_per_line() {
        // A tampered counter line must produce the exact same typed
        // verdict through the region verify as through a chained
        // read_block loop.
        let (mut region, mut nvm_b, addrs) = cold_populated();
        let (mut serial, mut nvm_s, _) = cold_populated();
        let victim = addrs[5];
        let mut evil = nvm_b.peek_line(victim.into_phys());
        evil[13] ^= 0x40;
        nvm_b.poke_line(victim.into_phys(), &evil);
        nvm_s.poke_line(victim.into_phys(), &evil);
        let be = region
            .verify_lines(&mut nvm_b, Cycle::ZERO, &addrs)
            .unwrap_err();
        let mut serr = None;
        let mut t = Cycle::ZERO;
        for &addr in &addrs {
            match serial.read_block(&mut nvm_s, t, addr) {
                Ok((_, acc)) => t = acc.done,
                Err(e) => {
                    serr = Some(e);
                    break;
                }
            }
        }
        assert_eq!(Some(be), serr);
    }

    #[test]
    fn rebuild_skipping_matches_a_rebuild_over_the_zeroed_leaf() {
        // Twelve non-zero leaves, one of them quarantined: the sweep
        // hashes both full four-lane batches and a remainder.
        let build = || {
            let (mut sys, mut nvm) = small_setup();
            let mut t = Cycle::ZERO;
            for p in 0..12u64 {
                let mecb = sys.layout().mecb_addr(PageId::new(p));
                t = sys
                    .write_block(&mut nvm, t, mecb, [p as u8 + 3; 64])
                    .unwrap()
                    .done;
            }
            sys.flush(&mut nvm, t);
            sys.crash();
            (sys, nvm)
        };
        let node_lines = |sys: &MetadataSystem, nvm: &NvmDevice| -> Vec<[u8; 64]> {
            let mut lines = Vec::with_capacity(64);
            for level in 0..sys.layout().merkle_levels() {
                for idx in 0..sys.layout().nodes_at(level) {
                    lines.push(nvm.peek_line(sys.layout().node_addr(level, idx).into_phys()));
                }
            }
            lines
        };

        // Without a skip set the rebuild reproduces the live root.
        let (mut sys, mut nvm) = build();
        let live_root = sys.root();
        assert!(sys.rebuild(&mut nvm).is_empty());
        assert_eq!(sys.root(), live_root);

        let (mut sys, mut nvm) = build();
        let leaf = sys.layout().mecb_addr(PageId::new(7));
        let skip: BTreeSet<u64> = [leaf.get()].into_iter().collect();
        let repaired = sys.rebuild_skipping(&mut nvm, &skip);
        assert_eq!(
            repaired,
            vec![leaf.get()],
            "rebuild must repair exactly the skip-set leaves"
        );

        let (mut ref_sys, mut ref_nvm) = build();
        ref_nvm.poke_line(leaf.into_phys(), &[0u8; 64]);
        assert!(ref_sys.rebuild(&mut ref_nvm).is_empty());
        assert_ne!(ref_sys.root(), live_root);
        assert_eq!(sys.root(), ref_sys.root());
        assert_eq!(node_lines(&sys, &nvm), node_lines(&ref_sys, &ref_nvm));
    }

    #[test]
    fn dirty_data_survives_flush_and_cold_restart() {
        let (mut sys, mut nvm) = small_setup();
        let addr = sys.layout().mecb_addr(PageId::new(2));
        sys.write_block(&mut nvm, Cycle::ZERO, addr, [7u8; 64])
            .unwrap();
        sys.flush(&mut nvm, Cycle::ZERO);
        // Simulate restart with preserved root.
        sys.crash();
        let (bytes, _) = sys.read_block(&mut nvm, Cycle::ZERO, addr).unwrap();
        assert_eq!(bytes, [7u8; 64]);
    }

    #[test]
    fn tamper_with_counter_is_detected_after_flush() {
        let (mut sys, mut nvm) = small_setup();
        let addr = sys.layout().mecb_addr(PageId::new(5));
        sys.write_block(&mut nvm, Cycle::ZERO, addr, [9u8; 64])
            .unwrap();
        sys.flush(&mut nvm, Cycle::ZERO);
        sys.crash(); // drop the cached (trusted) copies

        // Physical attacker flips a byte in the counter block.
        let mut evil = nvm.peek_line(addr.into_phys());
        evil[0] ^= 0xff;
        nvm.poke_line(addr.into_phys(), &evil);

        let err = sys.read_block(&mut nvm, Cycle::ZERO, addr).unwrap_err();
        assert_eq!(err.addr, addr);
    }

    #[test]
    fn tamper_with_tree_node_is_detected() {
        let (mut sys, mut nvm) = small_setup();
        let addr = sys.layout().mecb_addr(PageId::new(6));
        sys.write_block(&mut nvm, Cycle::ZERO, addr, [1u8; 64])
            .unwrap();
        sys.flush(&mut nvm, Cycle::ZERO);
        sys.crash();

        // Corrupt the level-0 node covering this leaf.
        let leaf = sys.layout().leaf_index(addr);
        let node_addr = sys.layout().node_addr(0, leaf / 8);
        let mut evil = nvm.peek_line(node_addr.into_phys());
        evil[63] ^= 1;
        nvm.poke_line(node_addr.into_phys(), &evil);

        assert!(sys.read_block(&mut nvm, Cycle::ZERO, addr).is_err());
    }

    #[test]
    fn replay_of_old_counter_is_detected() {
        let (mut sys, mut nvm) = small_setup();
        let addr = sys.layout().mecb_addr(PageId::new(7));
        sys.write_block(&mut nvm, Cycle::ZERO, addr, [1u8; 64])
            .unwrap();
        sys.flush(&mut nvm, Cycle::ZERO);
        let old = nvm.peek_line(addr.into_phys());

        sys.write_block(&mut nvm, Cycle::ZERO, addr, [2u8; 64])
            .unwrap();
        sys.flush(&mut nvm, Cycle::ZERO);
        sys.crash();

        // Replay the old (genuinely once-valid) counter value.
        nvm.poke_line(addr.into_phys(), &old);
        assert!(sys.read_block(&mut nvm, Cycle::ZERO, addr).is_err());
    }

    #[test]
    fn rebuild_accepts_tampered_free_state_but_fixes_root() {
        // rebuild() recomputes the tree from whatever is on media — it is
        // only sound after ECC-based counter recovery. Here we just check
        // it yields a self-consistent tree.
        let (mut sys, mut nvm) = small_setup();
        let addr = sys.layout().fecb_addr(PageId::new(1));
        sys.write_block(&mut nvm, Cycle::ZERO, addr, [3u8; 64])
            .unwrap();
        sys.flush(&mut nvm, Cycle::ZERO);
        sys.crash();
        assert!(
            sys.rebuild(&mut nvm).is_empty(),
            "plain rebuild repairs nothing"
        );
        let (bytes, _) = sys.read_block(&mut nvm, Cycle::ZERO, addr).unwrap();
        assert_eq!(bytes, [3u8; 64]);
    }

    #[test]
    fn rebuild_repairs_exactly_the_skip_set_leaves() {
        let (mut sys, mut nvm) = small_setup();
        let mut t = Cycle::ZERO;
        for p in 0..10u64 {
            let mecb = sys.layout().mecb_addr(PageId::new(p));
            t = sys
                .write_block(&mut nvm, t, mecb, [p as u8 + 1; 64])
                .unwrap()
                .done;
        }
        sys.flush(&mut nvm, t);
        sys.crash();

        // Skip set: two quarantined metadata leaves plus a data-line
        // address the rebuild must ignore.
        let q1 = sys.layout().mecb_addr(PageId::new(3)).get();
        let q2 = sys.layout().fecb_addr(PageId::new(8)).get();
        let data_line = 2 * 64; // well inside the data region
        let skip: BTreeSet<u64> = [q1, q2, data_line].into_iter().collect();

        let before: Vec<[u8; 64]> = sys
            .layout()
            .leaves()
            .map(|l| nvm.peek_line(l.into_phys()))
            .collect();
        let repaired = sys.rebuild_skipping(&mut nvm, &skip);

        // The repair list is exactly the metadata members of the skip
        // set, ascending; the data-line entry is ignored.
        assert_eq!(repaired, {
            let mut want = vec![q1, q2];
            want.sort_unstable();
            want
        });
        // Every other covered leaf is byte-identical to its pre-rebuild
        // media image; the repaired ones are canonical zero.
        for (leaf, old) in sys.layout().leaves().zip(&before) {
            let now = nvm.peek_line(leaf.into_phys());
            if repaired.contains(&leaf.get()) {
                assert_eq!(now, [0u8; 64], "repaired leaf {leaf:?} not zeroed");
            } else {
                assert_eq!(now, *old, "rebuild touched non-skip leaf {leaf:?}");
            }
        }
        // And the rebuilt tree verifies over the repaired media.
        let ok = sys.layout().mecb_addr(PageId::new(5));
        let (bytes, _) = sys.read_block(&mut nvm, Cycle::ZERO, ok).unwrap();
        assert_eq!(bytes, [6u8; 64]);
    }

    #[test]
    fn eviction_pressure_keeps_tree_consistent() {
        // Touch far more counter blocks than the 64-line cache holds; the
        // eviction cascade must keep every path verifiable.
        let (mut sys, mut nvm) = small_setup();
        let mut t = Cycle::ZERO;
        for p in 0..64u64 {
            let addr = sys.layout().mecb_addr(PageId::new(p));
            let acc = sys
                .write_block(&mut nvm, t, addr, [p as u8 + 1; 64])
                .unwrap();
            t = acc.done;
        }
        // Re-read everything; all must verify and carry the right data.
        for p in 0..64u64 {
            let addr = sys.layout().mecb_addr(PageId::new(p));
            let (bytes, acc) = sys.read_block(&mut nvm, t, addr).unwrap();
            t = acc.done;
            assert_eq!(bytes, [p as u8 + 1; 64], "page {p}");
        }
        assert!(
            sys.stats().evict_writebacks.get() > 0,
            "pressure must evict"
        );
    }

    #[test]
    fn unverified_read_costs_more_than_cached() {
        let (mut sys, mut nvm) = small_setup();
        let addr = sys.layout().mecb_addr(PageId::new(9));
        let (_, miss) = sys.read_block(&mut nvm, Cycle::ZERO, addr).unwrap();
        let (_, hit) = sys.read_block(&mut nvm, Cycle::ZERO, addr).unwrap();
        assert!(miss.done.get() > 3 * hit.done.get());
    }

    #[test]
    fn partitioned_cache_behaves_like_unified() {
        let layout = MetadataLayout::new(64 * 4096, 4096);
        let cfg = SecurityConfig {
            partition_metadata_cache: true,
            metadata_cache: CacheConfig {
                size_bytes: 64 * 64,
                ways: 8,
                block_bytes: 64,
                latency_cycles: 3,
            },
            ..SecurityConfig::default()
        };
        let mut sys = MetadataSystem::new(layout, &cfg);
        let mut nvm = NvmDevice::new(NvmConfig::default());
        let mut t = Cycle::ZERO;
        // Mixed MECB/FECB traffic with flush + crash in the middle.
        for p in 0..32u64 {
            let page = PageId::new(p);
            t = sys
                .write_block(&mut nvm, t, sys.layout().mecb_addr(page), [p as u8; 64])
                .unwrap()
                .done;
            t = sys
                .write_block(
                    &mut nvm,
                    t,
                    sys.layout().fecb_addr(page),
                    [p as u8 + 100; 64],
                )
                .unwrap()
                .done;
        }
        t = sys.flush(&mut nvm, t);
        sys.crash();
        for p in 0..32u64 {
            let page = PageId::new(p);
            let (m, acc) = sys
                .read_block(&mut nvm, t, sys.layout().mecb_addr(page))
                .unwrap();
            t = acc.done;
            assert_eq!(m, [p as u8; 64]);
            let (f, acc) = sys
                .read_block(&mut nvm, t, sys.layout().fecb_addr(page))
                .unwrap();
            t = acc.done;
            assert_eq!(f, [p as u8 + 100; 64]);
        }
        assert!(sys.cache_counts().0 > 0);
    }

    #[test]
    fn first_leaf_read_counts_one_miss() {
        let (mut sys, mut nvm) = small_setup();
        let addr = sys.layout().mecb_addr(PageId::new(0));
        sys.read_block(&mut nvm, Cycle::ZERO, addr).unwrap();
        assert_eq!(sys.stats().leaf_misses.get(), 1);
        assert_eq!(sys.stats().mecb_misses.get(), 1);
    }

    #[test]
    fn repeated_persist_of_unchanged_content_stays_correct() {
        // persist_block twice without an intervening write: the second
        // bump_parent re-publishes the same leaf digest.
        let (mut sys, mut nvm) = small_setup();
        let addr = sys.layout().fecb_addr(PageId::new(2));
        sys.write_block(&mut nvm, Cycle::ZERO, addr, [0x5au8; 64])
            .unwrap();
        let t = sys.persist_block(&mut nvm, Cycle::ZERO, addr).unwrap();
        let t = sys.persist_block(&mut nvm, t, addr).unwrap();
        sys.flush(&mut nvm, t);
        sys.crash();
        let (bytes, _) = sys.read_block(&mut nvm, Cycle::ZERO, addr).unwrap();
        assert_eq!(bytes, [0x5au8; 64]);
        assert_eq!(nvm.peek_line(addr.into_phys()), [0x5au8; 64]);
    }

    #[test]
    fn coverage_oracle_is_invisible_to_behavior() {
        // Same workload with the oracle on vs off: every completion
        // cycle, the root, and all media bytes must agree — the oracle
        // only peeks.
        let (mut on, mut nvm_on) = small_setup();
        let (mut off, mut nvm_off) = small_setup();
        on.set_coverage_oracle(true);
        let (mut t_on, mut t_off) = (Cycle::ZERO, Cycle::ZERO);
        for p in 0..64u64 {
            let addr = on.layout().mecb_addr(PageId::new(p));
            let data = [p as u8 + 1; 64];
            t_on = on.write_block(&mut nvm_on, t_on, addr, data).unwrap().done;
            t_off = off
                .write_block(&mut nvm_off, t_off, addr, data)
                .unwrap()
                .done;
            assert_eq!(t_on, t_off, "page {p}");
        }
        let addr = on.layout().fecb_addr(PageId::new(0));
        t_on = on.persist_block(&mut nvm_on, t_on, addr).unwrap();
        t_off = off.persist_block(&mut nvm_off, t_off, addr).unwrap();
        assert_eq!(t_on, t_off);
        t_on = on.flush(&mut nvm_on, t_on);
        t_off = off.flush(&mut nvm_off, t_off);
        assert_eq!(t_on, t_off);
        assert_eq!(on.root(), off.root());
        assert_eq!(on.stats(), off.stats());
        for leaf in on.layout().leaves() {
            assert_eq!(
                nvm_on.peek_line(leaf.into_phys()),
                nvm_off.peek_line(leaf.into_phys())
            );
        }
    }

    #[test]
    fn coverage_check_closes_on_live_state_and_rejects_tampering() {
        let (mut sys, mut nvm) = small_setup();
        sys.set_coverage_oracle(true);
        let addr = sys.layout().mecb_addr(PageId::new(4));
        sys.write_block(&mut nvm, Cycle::ZERO, addr, [0x33u8; 64])
            .unwrap();
        let t = sys.persist_block(&mut nvm, Cycle::ZERO, addr).unwrap();
        // Dirty-in-cache sibling: its *media* image (still zero) must
        // also be covered — the invariant speaks about NVM content.
        let sibling = sys.layout().fecb_addr(PageId::new(4));
        sys.write_block(&mut nvm, t, sibling, [0x44u8; 64]).unwrap();
        assert!(sys.check_coverage(&nvm, addr).is_ok());
        assert!(sys.check_coverage(&nvm, sibling).is_ok());
        // A chain through NVM-resident nodes also closes post-crash.
        sys.flush(&mut nvm, t);
        sys.crash();
        assert!(sys.check_coverage(&nvm, addr).is_ok());
        // Tamper the persisted leaf: no trusted ancestor vouches for the
        // new content, so the walk must fail at the first level.
        let mut evil = nvm.peek_line(addr.into_phys());
        evil[0] ^= 0xff;
        nvm.poke_line(addr.into_phys(), &evil);
        let err = sys.check_coverage(&nvm, addr).unwrap_err();
        assert_eq!(err.addr, addr);
        assert_eq!(err.level, 0);
        // Tree nodes are checkable lines in their own right.
        let leaf = sys.layout().leaf_index(addr);
        let node_addr = sys.layout().node_addr(0, leaf / 8);
        assert!(sys.check_coverage(&nvm, node_addr).is_ok());
        let mut evil_node = nvm.peek_line(node_addr.into_phys());
        evil_node[63] ^= 1;
        nvm.poke_line(node_addr.into_phys(), &evil_node);
        assert!(sys.check_coverage(&nvm, node_addr).is_err());
    }

    #[test]
    fn coverage_oracle_rides_eviction_pressure_and_rebuild() {
        // The oracle asserts inside every persist path; pushing an
        // over-capacity workload through flush, crash and rebuild with
        // it enabled exercises those asserts on eviction cascades,
        // Osiris write-throughs and the post-rebuild sweep.
        let (mut sys, mut nvm) = small_setup();
        sys.set_coverage_oracle(true);
        let mut t = Cycle::ZERO;
        for p in 0..64u64 {
            let addr = sys.layout().mecb_addr(PageId::new(p));
            t = sys
                .write_block(&mut nvm, t, addr, [p as u8 + 1; 64])
                .unwrap()
                .done;
        }
        assert!(
            sys.stats().evict_writebacks.get() > 0,
            "pressure must evict"
        );
        t = sys.flush(&mut nvm, t);
        sys.crash();
        sys.rebuild(&mut nvm);
        let (bytes, _) = sys
            .read_block(&mut nvm, t, sys.layout().mecb_addr(PageId::new(7)))
            .unwrap();
        assert_eq!(bytes, [8u8; 64]);
    }

    #[test]
    fn per_structure_counters_partition_the_leaf_totals() {
        let (mut sys, mut nvm) = small_setup();
        let mut t = Cycle::ZERO;
        for p in 0..8u64 {
            let page = PageId::new(p);
            t = sys
                .read_block(&mut nvm, t, sys.layout().mecb_addr(page))
                .unwrap()
                .1
                .done;
            t = sys
                .read_block(&mut nvm, t, sys.layout().fecb_addr(page))
                .unwrap()
                .1
                .done;
        }
        // Cache-resident re-reads.
        for p in 0..8u64 {
            let page = PageId::new(p);
            t = sys
                .read_block(&mut nvm, t, sys.layout().mecb_addr(page))
                .unwrap()
                .1
                .done;
        }
        let s = sys.stats();
        assert_eq!(s.mecb_misses.get(), 8);
        assert_eq!(s.fecb_misses.get(), 8);
        assert_eq!(s.mecb_hits.get(), 8);
        assert_eq!(
            s.mecb_hits.get() + s.fecb_hits.get() + s.spill_hits.get(),
            s.leaf_hits.get()
        );
        assert_eq!(
            s.mecb_misses.get() + s.fecb_misses.get() + s.spill_misses.get(),
            s.leaf_misses.get()
        );
        // Every leaf miss starts exactly one climb, and each climb walks
        // at least one level.
        assert_eq!(s.verify_climbs.get(), s.leaf_misses.get());
        assert!(s.verify_levels.get() >= s.verify_climbs.get());
        // Node fetches and node misses are the same event.
        assert_eq!(s.node_misses.get(), s.node_fetches.get());
    }
}
