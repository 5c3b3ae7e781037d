//! The FsEncr memory controller (Figures 5 and 7).
//!
//! Every 64-byte request that misses the LLC lands here. The controller:
//!
//! 1. decides from the DF (DAX-file) designation whether the request
//!    needs one pad (`OTP_mem`) or two (`OTP_mem XOR OTP_file`);
//! 2. fetches the MECB (and, for file lines, the FECB) through the
//!    Merkle-verified metadata system, generating the pads in parallel
//!    with the data access so AES latency stays off the critical path;
//! 3. for file lines, extracts (Group ID, File ID) from the FECB and
//!    resolves the file key via the OTT, falling back to the encrypted
//!    spill region on an OTT miss;
//! 4. on writes, increments the minor counter(s) — handling minor-counter
//!    overflow by re-encrypting the page under the bumped major — and
//!    lets the metadata system apply the Osiris stop-loss rule.
//!
//! The controller is *functional*: ciphertext really lands in the NVM
//! model and the ECC oracle really drives crash recovery.
//!
//! ## The DF designation
//!
//! In hardware the DF-bit travels inside the physical address (bit 51).
//! In the simulator the caches index by stripped line address, so the
//! controller holds the equivalent information as a set of file-page
//! frames, updated on exactly the same kernel events that would set or
//! clear PTE bits (page fault, unlink). This is behaviourally identical —
//! the set is consulted in zero simulated time, like a wire — and it lets
//! dirty write-backs that arrive without an address tag find their
//! engine. The PTE-level DF-bit is still modelled in `fsencr_fs` for
//! fidelity.

use std::collections::BTreeSet;

use fsencr_crypto::{ctr, Aes128, Key128, PadDomain, PadLedger, ScheduleCache};
use fsencr_faults::{FaultEvent, FaultInjector, FaultPlan};
use fsencr_nvm::{AddrSet, LineAddr, NvmDevice, NvmError, PageId, PhysAddr, LINE_BYTES};
use fsencr_obs::Observer;
use fsencr_secmem::{
    CounterBlock, EccStore, MetaAccess, MetadataLayout, MetadataSystem, TamperError, MINOR_LIMIT,
};
use fsencr_sim::{config::SecurityConfig, Counter, Cycle, Histogram};

use crate::ott::OpenTunnelTable;
use crate::snapshot::StatsSnapshot;
use crate::spill::{OttSpill, SpillError};

// A child module of `controller` (not a sibling) so the region ops can
// drive the private datapath fields directly.
#[path = "batch.rs"]
pub(crate) mod batch;

/// Integrity-verification failures, surfaced as values.
///
/// Detection is the paper's product: when the Merkle-verified metadata
/// system (or the quarantine fence seeded by it) refuses bytes, the
/// datapath reports *what* failed instead of panicking, so a fault
/// campaign can keep running and audit coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityError {
    /// Merkle verification failed — tampering or replay detected.
    Tamper(TamperError),
    /// The line (or metadata covering it) was quarantined after an
    /// earlier integrity failure; access stays fenced until the
    /// quarantine is cleared.
    Quarantined {
        /// The quarantined line (line-aligned byte address).
        line: u64,
    },
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrityError::Tamper(e) => write!(f, "{e}"),
            IntegrityError::Quarantined { line } => {
                write!(
                    f,
                    "line {line:#x} is quarantined after an integrity failure"
                )
            }
        }
    }
}

impl std::error::Error for IntegrityError {}

/// Errors surfaced by the memory datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// An integrity failure (tamper detection or quarantine fence).
    Integrity(IntegrityError),
    /// A file line was accessed but no key for its (gid, fid) exists in
    /// the OTT or the spill region.
    KeyUnavailable {
        /// Group ID from the FECB.
        gid: u32,
        /// File ID from the FECB.
        fid: u32,
    },
    /// The OTT spill region overflowed.
    SpillFull,
    /// The media operation itself was invalid (address out of range or
    /// outside the datapath-addressable window).
    Nvm(NvmError),
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::Integrity(e) => write!(f, "{e}"),
            MemError::KeyUnavailable { gid, fid } => {
                write!(f, "no file key for gid {gid} fid {fid}")
            }
            MemError::SpillFull => f.write_str("ott spill region is full"),
            MemError::Nvm(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MemError {}

impl From<IntegrityError> for MemError {
    fn from(e: IntegrityError) -> Self {
        MemError::Integrity(e)
    }
}

impl From<TamperError> for MemError {
    fn from(e: TamperError) -> Self {
        MemError::Integrity(IntegrityError::Tamper(e))
    }
}

impl From<NvmError> for MemError {
    fn from(e: NvmError) -> Self {
        MemError::Nvm(e)
    }
}

impl From<SpillError> for MemError {
    fn from(e: SpillError) -> Self {
        match e {
            SpillError::Full => MemError::SpillFull,
            SpillError::Tamper(t) => MemError::Integrity(IntegrityError::Tamper(t)),
        }
    }
}

/// Datapath counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CtrlStats {
    /// Latency distribution of data-line reads (request to plaintext).
    pub read_latency: Histogram,
    /// Data-line reads served.
    pub reads: Counter,
    /// Data-line writes served.
    pub writes: Counter,
    /// Reads/writes that took the file-engine (dual-pad) path.
    pub file_accesses: Counter,
    /// Page re-encryptions triggered by minor-counter overflow.
    pub overflow_reencryptions: Counter,
    /// Pages shredded.
    pub shredded_pages: Counter,
}

/// Outcome of post-crash Osiris recovery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Lines whose counters were already consistent on media.
    pub clean: u64,
    /// Lines whose counters were repaired via the ECC oracle.
    pub repaired: u64,
    /// Lines no counter candidate could explain (data loss).
    pub unrecoverable: u64,
    /// Lines newly quarantined by this recovery: the `unrecoverable`
    /// lines (under auto-quarantine) plus every data line of a page
    /// whose counter block the rebuild reset.
    pub quarantined: u64,
    /// Quarantined metadata leaves the Merkle rebuild reset to
    /// canonical zero — exactly the skip-set prediction, enforced by
    /// the rebuild's exact-repair oracle.
    pub metadata_reset: u64,
}

/// The processor-resident secrets that accompany a migrated NVM module:
/// exported through an authenticated operator interaction (Section VI) and
/// installed into the receiving processor.
#[derive(Clone, Copy)]
pub struct ModuleEnvelope {
    /// The general memory-encryption key.
    pub mem_key: Key128,
    /// The OTT key protecting spilled file keys.
    pub ott_key: Key128,
    /// The Merkle root authenticating the module's entire metadata.
    pub root: [u8; 8],
}

impl std::fmt::Debug for ModuleEnvelope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModuleEnvelope")
            .field("root", &self.root)
            .finish_non_exhaustive()
    }
}

/// Whether the controller encrypts at all (plain ext4-DAX baseline versus
/// any secure configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlMode {
    /// Pass-through: no encryption, no metadata, no integrity.
    Unencrypted,
    /// Counter-mode memory encryption + Merkle integrity; the file engine
    /// additionally engages for lines whose page carries the DF
    /// designation.
    Encrypted,
}

/// The memory controller plus the NVM device behind it.
pub struct MemoryController {
    mode: CtrlMode,
    nvm: NvmDevice,
    meta: MetadataSystem,
    ecc: EccStore,
    ott: OpenTunnelTable,
    spill: OttSpill,
    mem_aes: Aes128,
    mem_key: Key128,
    ott_key: Key128,
    /// Expanded AES schedules for file keys, one expansion per key.
    schedules: ScheduleCache,
    /// Frames currently designated as encrypted DAX file pages.
    file_pages: AddrSet,
    /// FsEncr lock-out after failed boot authentication (Section VI).
    locked: bool,
    aes_cycles: u64,
    direct_encryption: bool,
    /// Reused pad buffer so the per-line hot path never re-serializes an
    /// IV four times or juggles fresh 64-byte temporaries.
    pad_scratch: [u8; LINE_BYTES],
    /// Pad-uniqueness oracle: every fresh (key, IV) the encrypt paths
    /// issue is shadow-tracked when enabled; off (one branch) otherwise.
    pad_ledger: PadLedger,
    stats: CtrlStats,
    /// Cycle-attribution observer; disabled (one-branch cost) by default.
    obs: Observer,
    /// Lines fenced off after integrity failures (data lines denied on
    /// the datapath; metadata lines skipped — zeroed, not re-trusted —
    /// by the post-recovery Merkle rebuild). Empty by default: the hot
    /// path pays one `is_empty` branch.
    quarantine: BTreeSet<u64>,
    /// When set, tamper errors and unrecoverable lines quarantine
    /// themselves. Off by default so baseline behaviour is unchanged.
    auto_quarantine: bool,
}

impl std::fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryController")
            .field("mode", &self.mode)
            .field("locked", &self.locked)
            .field("file_pages", &self.file_pages.len())
            .finish_non_exhaustive()
    }
}

impl MemoryController {
    /// Builds the controller.
    ///
    /// `layout` fixes the metadata placement; `mem_key`/`ott_key` are the
    /// processor-fused keys; `cfg` supplies engine latencies, metadata
    /// cache geometry and the Osiris stop-loss bound.
    pub fn new(
        mode: CtrlMode,
        layout: MetadataLayout,
        cfg: &SecurityConfig,
        mem_key: Key128,
        ott_key: Key128,
        nvm: NvmDevice,
    ) -> Self {
        assert!(
            nvm.capacity_bytes() >= layout.total_bytes(),
            "device too small for layout"
        );
        let spill = OttSpill::new(layout.ott_base(), layout.ott_bytes().max(64), &ott_key);
        let meta = MetadataSystem::new(layout, cfg);
        MemoryController {
            mode,
            nvm,
            meta,
            ecc: EccStore::new(),
            ott: OpenTunnelTable::new(cfg.ott_entries, cfg.ott_latency_cycles),
            spill,
            mem_aes: Aes128::new(&mem_key),
            mem_key,
            ott_key,
            schedules: ScheduleCache::new(),
            file_pages: AddrSet::default(),
            locked: false,
            aes_cycles: cfg.aes_ns,
            direct_encryption: cfg.direct_encryption,
            pad_scratch: [0u8; LINE_BYTES],
            pad_ledger: PadLedger::default(),
            stats: CtrlStats::default(),
            obs: Observer::disabled(),
            quarantine: BTreeSet::new(),
            auto_quarantine: false,
        }
    }

    /// The device behind the controller (stats, media inspection).
    pub fn nvm(&self) -> &NvmDevice {
        &self.nvm
    }

    /// Where the data, counter blocks, OTT spill and Merkle nodes live
    /// on the device.
    pub fn layout(&self) -> &MetadataLayout {
        self.meta.layout()
    }

    /// Overwrites a raw media line behind the datapath's back — the
    /// tampering attacker. Integrity verification is expected to catch
    /// the change on the next covered read.
    #[expect(
        clippy::disallowed_methods,
        reason = "attacker-model tampering of the live device"
    )]
    pub fn tamper_line(&mut self, addr: PhysAddr, data: &[u8; LINE_BYTES]) {
        self.nvm.poke_line(addr, data);
    }

    // ------------------------------------------------------------------
    // Fault injection & quarantine (graceful degradation).
    // ------------------------------------------------------------------

    /// Arms a deterministic fault plan on the device. Replaces any
    /// previously armed injector and heals the wear-out overlay first,
    /// so every campaign scenario starts from pristine media.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.nvm.set_fault_injector(None);
        self.nvm.set_fault_injector(Some(FaultInjector::new(plan)));
    }

    /// Disarms the injector (healing stuck cells), returning the log of
    /// every fault it applied.
    pub fn disarm_faults(&mut self) -> Vec<FaultEvent> {
        let events = self
            .nvm
            .fault_injector_mut()
            .map(FaultInjector::take_events)
            .unwrap_or_default();
        self.nvm.set_fault_injector(None);
        events
    }

    /// Mutable access to the armed injector for the barrier/region hooks
    /// and campaign drivers (power-cut polling, event drains).
    pub(crate) fn fault_injector_mut(&mut self) -> Option<&mut FaultInjector> {
        self.nvm.fault_injector_mut()
    }

    /// True while an armed injector has cut power: device writes are
    /// being dropped and the machine should crash-recover.
    pub fn power_lost(&self) -> bool {
        self.nvm
            .fault_injector()
            .is_some_and(FaultInjector::power_lost)
    }

    /// Restores power after a cut. The caller is expected to `crash()`
    /// and `recover()` before trusting the device again.
    pub fn restore_power(&mut self) {
        if let Some(inj) = self.nvm.fault_injector_mut() {
            inj.restore_power();
        }
    }

    /// When enabled, tamper detections on the datapath and unrecoverable
    /// lines found during recovery quarantine themselves. Off by default
    /// (baseline behaviour unchanged).
    pub fn set_auto_quarantine(&mut self, on: bool) {
        self.auto_quarantine = on;
    }

    /// Whether auto-quarantine is enabled.
    pub fn auto_quarantine(&self) -> bool {
        self.auto_quarantine
    }

    /// Manually quarantines a line (line-aligned byte address): the
    /// datapath denies it and Merkle rebuilds refuse to re-trust it.
    pub fn quarantine_line(&mut self, line: u64) {
        self.quarantine.insert(line);
    }

    /// Lifts every quarantine.
    pub fn clear_quarantine(&mut self) {
        self.quarantine.clear();
    }

    /// Currently quarantined lines, in address order.
    pub fn quarantined_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.quarantine.iter().copied()
    }

    /// Turns both runtime security oracles on or off for this
    /// controller: the pad-uniqueness ledger and the metadata system's
    /// Merkle-coverage walker. Off in new controllers: benches pay one
    /// branch per pad or persist and figure bytes are unaffected.
    pub fn set_security_oracles(&mut self, on: bool) {
        self.pad_ledger.set_enabled(on);
        self.meta.set_coverage_oracle(on);
    }

    /// Distinct (key, IV) pads the oracle has recorded (0 when off).
    pub fn pad_oracle_distinct(&self) -> usize {
        self.pad_ledger.distinct_pads()
    }

    /// One coherent copy of every datapath counter (controller, OTT,
    /// metadata system, NVM). Machine-level fields (`cycles`, `tlb_*`)
    /// are left at zero; [`crate::machine::Machine::snapshot`] fills
    /// them. Diff two snapshots with [`StatsSnapshot::delta`] for
    /// reset-free window measurement.
    pub fn snapshot(&self) -> StatsSnapshot {
        let meta = self.meta.stats();
        let ott = self.ott.stats();
        let nvm = self.nvm.stats();
        let (meta_cache_hits, meta_cache_misses) = self.meta.cache_counts();
        StatsSnapshot {
            reads: self.stats.reads.get(),
            writes: self.stats.writes.get(),
            file_accesses: self.stats.file_accesses.get(),
            overflow_reencryptions: self.stats.overflow_reencryptions.get(),
            shredded_pages: self.stats.shredded_pages.get(),
            read_latency: self.stats.read_latency,
            ott_hits: ott.hits.get(),
            ott_misses: ott.misses.get(),
            ott_evictions: ott.evictions.get(),
            meta_cache_hits,
            meta_cache_misses,
            meta_leaf_hits: meta.leaf_hits.get(),
            meta_leaf_misses: meta.leaf_misses.get(),
            meta_node_fetches: meta.node_fetches.get(),
            meta_evict_writebacks: meta.evict_writebacks.get(),
            meta_osiris_persists: meta.osiris_persists.get(),
            meta_mecb_hits: meta.mecb_hits.get(),
            meta_mecb_misses: meta.mecb_misses.get(),
            meta_fecb_hits: meta.fecb_hits.get(),
            meta_fecb_misses: meta.fecb_misses.get(),
            meta_spill_hits: meta.spill_hits.get(),
            meta_spill_misses: meta.spill_misses.get(),
            meta_node_hits: meta.node_hits.get(),
            meta_node_misses: meta.node_misses.get(),
            meta_verify_climbs: meta.verify_climbs.get(),
            meta_verify_levels: meta.verify_levels.get(),
            meta_update_bumps: meta.update_bumps.get(),
            nvm_reads: nvm.reads.get(),
            nvm_writes: nvm.writes.get(),
            nvm_row_hits: self.nvm.row_hits(),
            nvm_row_misses: self.nvm.row_misses(),
            cycles: 0,
            tlb_hits: 0,
            tlb_misses: 0,
        }
    }

    /// Enables the cycle-attribution observer (clearing prior state).
    /// `span_capacity` bounds the recorded span ring; 0 keeps metrics
    /// only. Observation never changes simulated time.
    pub fn enable_observer(&mut self, span_capacity: usize) {
        self.obs.enable(span_capacity);
    }

    /// Disables the observer, restoring the near-zero disabled cost.
    pub fn disable_observer(&mut self) {
        self.obs.disable();
    }

    /// The cycle-attribution observer (metrics + spans).
    pub fn observer(&self) -> &Observer {
        &self.obs
    }

    /// The observer, for the machine's lifecycle events.
    pub(crate) fn obs_mut(&mut self) -> &mut Observer {
        &mut self.obs
    }

    /// The on-chip Merkle root register authenticating all metadata.
    pub fn merkle_root(&self) -> [u8; 8] {
        self.meta.root()
    }

    /// Locks the file engine (failed boot authentication): file lines are
    /// served decrypted by the memory key only, which yields ciphertext
    /// gibberish — exactly the paper's defence against OS-swap attackers.
    pub fn lock_file_engine(&mut self) {
        self.locked = true;
    }

    /// Unlocks the file engine (successful admin authentication).
    pub fn unlock_file_engine(&mut self) {
        self.locked = false;
    }

    /// Generates the pad for `(page, block)` under `counters` into the
    /// scratch buffer and XORs it into `data`: `OTP_mem` under the memory
    /// key, or `OTP_file` under `file_key` for a file block.
    ///
    /// A `fresh` pad (encrypt paths only — never pad stripping) is first
    /// recorded by the pad-uniqueness oracle as a (key, IV,
    /// covered-content) triple, and the controller halts on a genuine
    /// reuse. Zero simulated cost; one real branch when the oracle is off.
    #[expect(
        clippy::disallowed_methods,
        reason = "the controller's pad step: one pad per advanced (counter block, line), checked by the pad-uniqueness oracle"
    )]
    fn xor_pad(
        &mut self,
        data: &mut [u8; LINE_BYTES],
        page: PageId,
        block: u8,
        counters: &CounterBlock,
        file_key: Option<Key128>,
        fresh: bool,
    ) {
        debug_assert_eq!(file_key.is_some(), counters.domain() == PadDomain::File);
        let input = counters.pad_input(page, block);
        let (key, aes) = match file_key {
            Some(k) => (k, self.schedules.get(&k)),
            None => (self.mem_key, &self.mem_aes),
        };
        if fresh {
            let issue = self.pad_ledger.record(&key, &input, data);
            assert!(
                issue.is_ok(),
                "{:?}-pad oracle: {:?}",
                input.domain,
                issue.err()
            );
        }
        ctr::line_pad_into(aes, &input, &mut self.pad_scratch);
        ctr::xor_in_place(data, &self.pad_scratch);
    }

    /// Fetches `page`'s counter block of `domain` through the
    /// Merkle-verified metadata system. Returns the block, its address
    /// and the access.
    fn read_counters(
        &mut self,
        now: Cycle,
        page: PageId,
        domain: PadDomain,
    ) -> Result<(CounterBlock, LineAddr, MetaAccess), MemError> {
        let addr = match domain {
            PadDomain::Memory => self.meta.layout().mecb_addr(page),
            PadDomain::File => self.meta.layout().fecb_addr(page),
        };
        let (bytes, acc) = self.meta.read_block(&mut self.nvm, now, addr)?;
        Ok((CounterBlock::from_bytes(domain, &bytes), addr, acc))
    }

    /// Resolves the file key for `(gid, fid)`: OTT first, spill on miss
    /// (with OTT refill, possibly spilling the OTT's own victim).
    fn resolve_key(&mut self, now: Cycle, gid: u32, fid: u32) -> Result<(Key128, Cycle), MemError> {
        let mut t = now + self.ott.latency_cycles();
        if let Some(key) = self.ott.lookup(gid, fid) {
            self.obs.add("ott/hit_cycles", t.since(now).get());
            return Ok((key, t));
        }
        let (found, t_spill) = self
            .spill
            .lookup(&mut self.meta, &mut self.nvm, t, gid, fid)?;
        t = t_spill + self.aes_cycles; // decrypt the spilled key
        let key = found.ok_or(MemError::KeyUnavailable { gid, fid })?;
        if let Some((vg, vf, vkey)) = self.ott.insert(gid, fid, key) {
            t = self
                .spill
                .insert(&mut self.meta, &mut self.nvm, t, vg, vf, &vkey)?;
        }
        self.obs.add("ott/miss_cycles", t.since(now).get());
        Ok((key, t))
    }

    /// Reads one line (Figure 7, read path). Returns the plaintext and
    /// the completion time.
    ///
    /// This is also the graceful-degradation fence: it validates the
    /// address, denies quarantined lines, and (when auto-quarantine is
    /// on) turns tamper detections into standing quarantines.
    ///
    /// # Errors
    ///
    /// Integrity failures (tampering, quarantined lines), missing file
    /// keys, and invalid media addresses — all typed, never a panic, so
    /// fault campaigns degrade gracefully.
    pub fn read_line(
        &mut self,
        now: Cycle,
        addr: PhysAddr,
    ) -> Result<([u8; LINE_BYTES], Cycle), MemError> {
        self.nvm.check_addr(addr)?;
        if !self.quarantine.is_empty() && self.quarantine.contains(&addr.line().get()) {
            return Err(IntegrityError::Quarantined {
                line: addr.line().get(),
            }
            .into());
        }
        let res = self.read_line_inner(now, addr);
        if self.auto_quarantine {
            if let Err(MemError::Integrity(IntegrityError::Tamper(t))) = &res {
                self.quarantine.insert(t.addr.get());
                self.quarantine.insert(addr.line().get());
            }
        }
        res
    }

    fn read_line_inner(
        &mut self,
        now: Cycle,
        addr: PhysAddr,
    ) -> Result<([u8; LINE_BYTES], Cycle), MemError> {
        let line = addr.line();
        self.stats.reads.incr();
        let (cipher, t_data) = self.nvm.read_line(now, addr);
        if self.mode == CtrlMode::Unencrypted {
            self.stats.read_latency.record(t_data.since(now).get());
            self.obs
                .add("ctrl/read/total_cycles", t_data.since(now).get());
            self.obs
                .add("ctrl/read/data_cycles", t_data.since(now).get());
            self.obs
                .span("ctrl", "read_line", now.get(), t_data.get(), addr.get());
            return Ok((cipher, t_data));
        }
        if !self.meta.layout().is_data(line) {
            return Err(NvmError::OutsideDataRegion { addr: line.get() }.into());
        }
        let page = line.page();
        let block = line.block_in_page();

        // OTP_mem in parallel with the data fetch.
        let (mecb, _, macc) = self.read_counters(now, page, PadDomain::Memory)?;
        // Counter mode generates the pad in parallel with the data fetch;
        // the direct-encryption ablation decrypts only after both the data
        // and the counter are available.
        let t_pad_mem = macc.done + self.aes_cycles;
        self.obs
            .add("ctrl/read/mecb_wait_cycles", macc.done.since(now).get());
        self.obs.add("ctrl/read/pad_gen_cycles", self.aes_cycles);

        let mut plain = cipher;
        self.xor_pad(&mut plain, page, block, &mecb, None, false);
        let mut done = if self.direct_encryption {
            t_data.max(macc.done) + self.aes_cycles
        } else {
            t_data.max(t_pad_mem)
        };

        if self.file_pages.contains(&page.get()) && !self.locked {
            self.stats.file_accesses.incr();
            let (fecb, _, facc) = self.read_counters(now, page, PadDomain::File)?;
            let (key, t_key) = self.resolve_key(facc.done, fecb.gid(), fecb.fid())?;
            self.obs
                .add("ctrl/read/fecb_wait_cycles", facc.done.since(now).get());
            self.obs
                .add("ctrl/read/key_wait_cycles", t_key.since(facc.done).get());
            self.obs.add("ctrl/read/pad_gen_cycles", self.aes_cycles);
            self.xor_pad(&mut plain, page, block, &fecb, Some(key), false);
            done = if self.direct_encryption {
                done.max(t_key) + self.aes_cycles
            } else {
                done.max(t_key + self.aes_cycles)
            };
        }
        let done = done + 1; // final XOR
        self.stats.read_latency.record(done.since(now).get());
        self.obs
            .add("ctrl/read/total_cycles", done.since(now).get());
        self.obs
            .add("ctrl/read/data_cycles", t_data.since(now).get());
        self.obs.add(
            "ctrl/read/pad_exposed_cycles",
            done.get().saturating_sub(t_data.get()),
        );
        self.obs
            .span("ctrl", "read_line", now.get(), done.get(), addr.get());
        Ok((plain, done))
    }

    /// Writes one line (Figure 7, write path). Returns the completion
    /// time.
    ///
    /// Like [`Self::read_line`], this is a graceful-degradation fence
    /// (address validation, quarantine healing, auto-quarantine of tamper
    /// detections).
    ///
    /// # Errors
    ///
    /// Integrity failures and missing file keys.
    pub fn write_line(
        &mut self,
        now: Cycle,
        addr: PhysAddr,
        plaintext: &[u8; LINE_BYTES],
    ) -> Result<Cycle, MemError> {
        self.nvm.check_addr(addr)?;
        // Writes *heal* a quarantined line rather than bouncing off it:
        // a full-line write re-records the ECC belief and bumps fresh
        // counters, so nothing of the distrusted bytes survives —
        // bad-sector rewrite semantics. Reads stay fenced until then.
        if !self.quarantine.is_empty() {
            self.quarantine.remove(&addr.line().get());
        }
        let res = self.write_line_inner(now, addr, plaintext);
        if self.auto_quarantine {
            if let Err(MemError::Integrity(IntegrityError::Tamper(t))) = &res {
                self.quarantine.insert(t.addr.get());
                self.quarantine.insert(addr.line().get());
            }
        }
        res
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "the encrypt-then-write boundary: counter-mode ciphertext, or plaintext in the unencrypted baseline by design"
    )]
    fn write_line_inner(
        &mut self,
        now: Cycle,
        addr: PhysAddr,
        plaintext: &[u8; LINE_BYTES],
    ) -> Result<Cycle, MemError> {
        let line = addr.line();
        self.stats.writes.incr();
        if self.mode == CtrlMode::Unencrypted {
            let t_end = self.nvm.write_line(now, addr, plaintext);
            self.obs
                .add("ctrl/write/total_cycles", t_end.since(now).get());
            self.obs
                .span("ctrl", "write_line", now.get(), t_end.get(), addr.get());
            return Ok(t_end);
        }
        if !self.meta.layout().is_data(line) {
            return Err(NvmError::OutsideDataRegion { addr: line.get() }.into());
        }
        let page = line.page();
        let block = line.block_in_page();

        // OTP_mem: the memory engine's counter step, then its pad.
        let (mut mecb, mecb_addr, macc) = self.read_counters(now, page, PadDomain::Memory)?;
        let m_done = self.advance_counter(macc.done, page, block, mecb_addr, &mut mecb, None)?;
        let mut t_pads = m_done + self.aes_cycles;
        self.obs
            .add("ctrl/write/mecb_wait_cycles", m_done.since(now).get());
        self.obs.add("ctrl/write/pad_gen_cycles", self.aes_cycles);

        let mut cipher = *plaintext;
        self.xor_pad(&mut cipher, page, block, &mecb, None, true);

        if self.file_pages.contains(&page.get()) && !self.locked {
            self.stats.file_accesses.incr();
            let (mut fecb, fecb_addr, facc) = self.read_counters(now, page, PadDomain::File)?;
            let (key, t_key) = self.resolve_key(facc.done, fecb.gid(), fecb.fid())?;
            self.obs
                .add("ctrl/write/key_wait_cycles", t_key.since(facc.done).get());
            let f_done =
                self.advance_counter(t_key, page, block, fecb_addr, &mut fecb, Some(key))?;
            self.xor_pad(&mut cipher, page, block, &fecb, Some(key), true);
            t_pads = t_pads.max(f_done + self.aes_cycles);
            self.obs.add("ctrl/write/pad_gen_cycles", self.aes_cycles);
        }

        self.ecc.record(line, plaintext);
        self.obs
            .add("ctrl/write/pad_wait_cycles", t_pads.since(now).get());
        let t_end = self.nvm.write_line(t_pads + 1, addr, &cipher);
        self.obs
            .add("ctrl/write/total_cycles", t_end.since(now).get());
        self.obs
            .span("ctrl", "write_line", now.get(), t_end.get(), addr.get());
        Ok(t_end)
    }

    /// The one write-path counter step, shared by both engines: bumps
    /// `block`'s minor in `counters` (the counter block at `addr`) and
    /// writes the block back. Returns the write-back's completion.
    ///
    /// On minor overflow it is two-phase. First it pins the exact
    /// pre-carry minors on media, so a crash mid re-encryption leaves
    /// every old line at delta zero. Then it carries into the major and
    /// re-pads the whole page (64 reads + 64 writes, as the paper
    /// describes). Last, after the write-back, it persists the carried
    /// block: a major bump moves the page's pads further than the Osiris
    /// stop-loss window can recover, so it must reach the media before
    /// any line encrypted under it does.
    fn advance_counter(
        &mut self,
        now: Cycle,
        page: PageId,
        block: u8,
        addr: LineAddr,
        counters: &mut CounterBlock,
        file_key: Option<Key128>,
    ) -> Result<Cycle, MemError> {
        let mut t = now;
        let overflowed = counters.increment(block as usize);
        if overflowed {
            self.meta
                .write_block(&mut self.nvm, t, addr, counters.to_bytes())?;
            t = self.meta.persist_block(&mut self.nvm, t, addr)?;
            let old = *counters;
            counters.carry_major();
            self.stats.overflow_reencryptions.incr();
            t = self.repad_page(t, page, file_key, &old, counters) + self.aes_cycles;
            counters.increment(block as usize);
        }
        let acc = self
            .meta
            .write_block(&mut self.nvm, t, addr, counters.to_bytes())?;
        if overflowed {
            self.meta.persist_block(&mut self.nvm, acc.done, addr)?;
        }
        Ok(acc.done)
    }

    // ------------------------------------------------------------------
    // MMIO protocol: what the kernel tells the controller (Section III-F).
    // ------------------------------------------------------------------

    /// Kernel MMIO: install a file key (file creation / open).
    ///
    /// # Errors
    ///
    /// Spill-region failures if the OTT evicts a victim.
    pub fn install_key(
        &mut self,
        now: Cycle,
        gid: u32,
        fid: u32,
        key: Key128,
    ) -> Result<Cycle, MemError> {
        let mut t = now + 1; // MMIO register write
        if let Some((vg, vf, vkey)) = self.ott.insert(gid, fid, key) {
            t = self
                .spill
                .insert(&mut self.meta, &mut self.nvm, t, vg, vf, &vkey)?;
        }
        Ok(t)
    }

    /// Kernel MMIO: remove a file key everywhere (file deletion).
    ///
    /// # Errors
    ///
    /// Spill-region integrity failures.
    pub fn remove_key(&mut self, now: Cycle, gid: u32, fid: u32) -> Result<Cycle, MemError> {
        self.ott.remove(gid, fid);
        let (_, t) = self
            .spill
            .remove(&mut self.meta, &mut self.nvm, now + 1, gid, fid)?;
        Ok(t)
    }

    /// Kernel MMIO, page-fault path: stamp `page`'s FECB with the owning
    /// (gid, fid) and designate the frame as a DF page.
    ///
    /// # Errors
    ///
    /// Metadata integrity failures.
    pub fn stamp_file_page(
        &mut self,
        now: Cycle,
        page: PageId,
        gid: u32,
        fid: u32,
    ) -> Result<Cycle, MemError> {
        let (mut fecb, fecb_addr, acc) = self.read_counters(now, page, PadDomain::File)?;
        fecb.stamp(gid, fid);
        let acc = self
            .meta
            .write_block(&mut self.nvm, acc.done, fecb_addr, fecb.to_bytes())?;
        // The identity stamp must be durable: post-crash recovery decides
        // "is this a file page?" from the on-media FECB. Page faults are
        // rare, so the write-through is cheap.
        let t = self
            .meta
            .persist_block(&mut self.nvm, acc.done, fecb_addr)?;
        self.file_pages.insert(page.get());
        Ok(t)
    }

    /// Removes the DF designation (page unmapped from a file).
    pub fn clear_file_page(&mut self, page: PageId) {
        self.file_pages.remove(&page.get());
    }

    /// Silent-Shredder-style secure deletion (Section VI): bump the
    /// page's major counters and reset the minors, making every previous
    /// OTP unreproducible — the old ciphertext decrypts to gibberish even
    /// with the correct key. ECC tags are dropped so recovery cannot
    /// resurrect the data either.
    ///
    /// # Errors
    ///
    /// Metadata integrity failures.
    pub fn shred_page(&mut self, now: Cycle, page: PageId) -> Result<Cycle, MemError> {
        self.stats.shredded_pages.incr();
        let engines: &[PadDomain] = if self.file_pages.contains(&page.get()) {
            &[PadDomain::Memory, PadDomain::File]
        } else {
            &[PadDomain::Memory]
        };
        let mut t = now;
        for &domain in engines {
            let (mut counters, addr, acc) = self.read_counters(t, page, domain)?;
            counters.carry_major();
            if domain == PadDomain::File {
                counters.stamp(0, 0);
            }
            t = self
                .meta
                .write_block(&mut self.nvm, acc.done, addr, counters.to_bytes())?
                .done;
        }
        self.file_pages.remove(&page.get());
        self.ecc.clear_page(page);
        Ok(t)
    }

    // ------------------------------------------------------------------
    // Crash consistency (Section III-H).
    // ------------------------------------------------------------------

    /// Clean shutdown: flush all dirty metadata.
    pub fn flush(&mut self, now: Cycle) -> Cycle {
        self.meta.flush(&mut self.nvm, now)
    }

    /// Power loss. Cached metadata and pending Osiris state vanish; the
    /// OTT survives (flushed with backup power, as the paper's second
    /// option); the on-chip root register survives.
    pub fn crash(&mut self) {
        self.meta.crash();
    }

    /// Osiris recovery: for every line the ECC oracle knows about, try
    /// counter candidates up to the stop-loss bound, repair the on-media
    /// counter blocks, then rebuild the Merkle tree.
    #[expect(
        clippy::disallowed_methods,
        reason = "recovery poke of re-encrypted lines and repaired counters"
    )]
    pub fn recover(&mut self) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        if self.mode == CtrlMode::Unencrypted {
            return report;
        }
        // Visit the ECC-tagged data lines in address order, so pages go
        // in ascending order: each OTT lookup below refreshes an LRU
        // stamp, and identical machines must recover to identical states.
        // The data region is page-aligned, so whole pages leave it.
        let data_bytes = self.meta.layout().data_bytes();
        let layout = self.meta.shared_layout();
        let tagged = self.ecc.pages();
        for (page, lines) in tagged.take_while(|(page, _)| page.base().get() < data_bytes) {
            let mecb_raw = self
                .nvm
                .peek_line(PhysAddr::new(layout.mecb_addr(page).get()));
            let mecb = CounterBlock::from_bytes(PadDomain::Memory, &mecb_raw);
            let fecb_raw = self
                .nvm
                .peek_line(PhysAddr::new(layout.fecb_addr(page).get()));
            let fecb = CounterBlock::from_bytes(PadDomain::File, &fecb_raw);
            let is_file = fecb.is_owned();
            let key = if is_file {
                self.file_pages.insert(page.get());
                self.ott.lookup(fecb.gid(), fecb.fid()).or_else(|| {
                    self.spill
                        .lookup(
                            &mut self.meta,
                            &mut self.nvm,
                            Cycle::ZERO,
                            fecb.gid(),
                            fecb.fid(),
                        )
                        .ok()
                        .and_then(|(k, _)| k)
                })
            } else {
                None
            };

            // Phase 1: per-line candidate search over both engines'
            // counters. A page that is not a file page has one file
            // "candidate", its stored block, and no file layer.
            struct Found {
                line: LineAddr,
                plain: [u8; LINE_BYTES],
                mem: CounterBlock,
                file: CounterBlock,
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "grows only to the page's ECC-tagged lines: a full-page reservation raised the fault campaign's peak RSS"
            )]
            let mut finds: Vec<Found> = Vec::new();
            for line in lines {
                let block = line.block_in_page();
                let cipher = self.nvm.peek_line(PhysAddr::new(line.get()));
                let mem_cands = self.candidates(&mecb, block);
                let file_cands = if is_file {
                    self.candidates(&fecb, block)
                } else {
                    vec![(fecb, 0)]
                };
                // A file pad does not depend on the memory candidate, so
                // each one is computed at most once per line, on first use.
                let mut file_pads: Vec<Option<[u8; LINE_BYTES]>> = vec![None; file_cands.len()];
                let mut found = None;
                'search: for &(mem, dm) in &mem_cands {
                    // The memory layer is outermost: strip it once per
                    // memory candidate, not once per (memory, file) pair.
                    let mut mem_plain = cipher;
                    self.xor_pad(&mut mem_plain, page, block, &mem, None, false);
                    for (&(file, df), pad) in file_cands.iter().zip(&mut file_pads) {
                        let mut plain = mem_plain;
                        if is_file {
                            let Some(k) = key else { continue };
                            let pad = pad.get_or_insert_with(|| {
                                let mut p = [0u8; LINE_BYTES];
                                self.xor_pad(&mut p, page, block, &file, Some(k), false);
                                p
                            });
                            ctr::xor_in_place(&mut plain, pad);
                        }
                        if self.ecc.check(line, &plain) {
                            found = Some((
                                Found {
                                    line,
                                    plain,
                                    mem,
                                    file,
                                },
                                dm + df,
                            ));
                            break 'search;
                        }
                    }
                }
                match found {
                    Some((f, delta)) => {
                        if delta == 0 {
                            report.clean += 1;
                        } else {
                            report.repaired += 1;
                        }
                        finds.push(f);
                    }
                    None => {
                        report.unrecoverable += 1;
                        // No candidate explains the media bytes: the line
                        // is lost. Under auto-quarantine it stays fenced
                        // so later reads fail typed instead of returning
                        // silent garbage.
                        if self.auto_quarantine && self.quarantine.insert(line.get()) {
                            report.quarantined += 1;
                        }
                    }
                }
            }

            // Phase 2: finalize. If any line was caught mid-overflow,
            // complete the page re-encryption under the carried major;
            // otherwise just roll the minors forward.
            let final_mecb = settle(&mecb, finds.iter().map(|f| (f.line, f.mem)));
            let final_fecb = settle(&fecb, finds.iter().map(|f| (f.line, f.file)));
            if final_mecb.major() != mecb.major() || final_fecb.major() != fecb.major() {
                // Re-encrypt every recovered line under the final counters.
                // Re-encryption starts from recovered plaintext, so the
                // mem-pad record (digest of `f.plain`) lines up exactly
                // with what the write path recorded for the same IV —
                // idempotent replays stay clean, genuinely-new counter
                // collisions trip the oracle. The file pad is applied
                // *over* the mem layer, whose counters recovery may have
                // rolled, so its covered bytes aren't comparable across
                // contexts; it is applied unrecorded (the write path,
                // its dominant issuer, still checks every file IV).
                for f in &finds {
                    let block = f.line.block_in_page();
                    let mut cipher = f.plain;
                    self.xor_pad(&mut cipher, page, block, &final_mecb, None, true);
                    if let Some(k) = key {
                        self.xor_pad(&mut cipher, page, block, &final_fecb, Some(k), false);
                    }
                    self.nvm.poke_line(PhysAddr::new(f.line.get()), &cipher);
                }
            }
            if final_mecb != mecb || final_fecb != fecb {
                self.nvm.poke_line(
                    PhysAddr::new(layout.mecb_addr(page).get()),
                    &final_mecb.to_bytes(),
                );
                if is_file {
                    self.nvm.poke_line(
                        PhysAddr::new(layout.fecb_addr(page).get()),
                        &final_fecb.to_bytes(),
                    );
                }
            }
        }
        // Rebuild the Merkle tree over the repaired media. Quarantined
        // metadata lines are *skipped* — zeroed rather than re-trusted —
        // so bytes that already failed verification can never be
        // laundered back into the tree by a rebuild.
        let reset = self.meta.rebuild_skipping(&mut self.nvm, &self.quarantine);
        report.metadata_reset = reset.len() as u64;
        // A reset MECB or FECB reads back as zero counters, so every data
        // line of its page would decrypt to garbage without an error.
        // Fence them all; a later write heals each line.
        for &leaf in &reset {
            if let Some(page) = layout.counter_page(LineAddr::new(leaf)) {
                for line in page.lines() {
                    if self.quarantine.insert(line.get()) {
                        report.quarantined += 1;
                    }
                }
            }
        }
        // A skipped (zeroed) metadata leaf is now canonical, Merkle-
        // covered zero; keeping it fenced would re-zero it on every
        // future rebuild even as its counters legitimately evolve, so
        // metadata entries leave the quarantine here. Data-line fences
        // persist until a write heals them.
        self.quarantine.retain(|&l| l < data_bytes);
        report
    }

    // ------------------------------------------------------------------
    // Module transfer (Section VI, "Moving Entire Filesystem To New
    // Machine").
    // ------------------------------------------------------------------

    /// Exports the processor-resident secrets after flushing every OTT
    /// entry to the encrypted spill region and all metadata to media. The
    /// envelope travels through an authenticated operator channel; the
    /// DIMM (with its ECC lanes) travels physically.
    ///
    /// # Errors
    ///
    /// Spill or metadata failures during the flush.
    pub fn export_module(&mut self, now: Cycle) -> Result<ModuleEnvelope, MemError> {
        let mut t = now;
        for (gid, fid, key) in self.ott.drain() {
            t = self
                .spill
                .insert(&mut self.meta, &mut self.nvm, t, gid, fid, &key)?;
        }
        self.meta.flush(&mut self.nvm, t);
        Ok(ModuleEnvelope {
            mem_key: self.mem_key,
            ott_key: self.ott_key,
            root: self.meta.root(),
        })
    }

    /// Imports a transferred module on a new processor: reconstructs the
    /// metadata system over the migrated device, authenticates it against
    /// the envelope's root digest, and rebuilds the DF-page designations
    /// from the on-media FECB identities.
    ///
    /// # Errors
    ///
    /// [`IntegrityError::Tamper`] (wrapped in [`MemError::Integrity`]) if
    /// the media does not hash to the envelope's root — the module was
    /// modified in transit.
    pub fn import_module(
        layout: MetadataLayout,
        cfg: &SecurityConfig,
        envelope: &ModuleEnvelope,
        nvm: NvmDevice,
        ecc: EccStore,
    ) -> Result<Self, MemError> {
        let mut ctrl = MemoryController::new(
            CtrlMode::Encrypted,
            layout,
            cfg,
            envelope.mem_key,
            envelope.ott_key,
            nvm,
        );
        ctrl.ecc = ecc;
        ctrl.meta.rebuild(&mut ctrl.nvm);
        if ctrl.meta.root() != envelope.root {
            return Err(MemError::from(TamperError {
                addr: LineAddr::new(ctrl.meta.layout().meta_base()),
                level: usize::MAX,
            }));
        }
        // Re-derive the DF designations from the on-media FECB stamps.
        let layout = ctrl.meta.shared_layout();
        let frames: Vec<u64> = ctrl.nvm.storage().frames().collect();
        for frame in frames {
            let byte = frame * fsencr_nvm::PAGE_BYTES as u64;
            if byte >= layout.data_bytes() {
                continue;
            }
            let page = PageId::new(frame);
            let fecb_raw = ctrl
                .nvm
                .peek_line(PhysAddr::new(layout.fecb_addr(page).get()));
            if CounterBlock::from_bytes(PadDomain::File, &fecb_raw).is_owned() {
                ctrl.file_pages.insert(frame);
            }
        }
        Ok(ctrl)
    }

    /// Decomposes the controller into the parts that physically travel
    /// with the DIMM: the device contents and its ECC lanes.
    pub fn into_media(self) -> (NvmDevice, EccStore) {
        (self.nvm, self.ecc)
    }

    /// Serializes the full controller state: keys, device, metadata
    /// system, ECC lanes, OTT and datapath counters. Host-side
    /// accelerators (schedule cache, pad scratch, observer, oracles) are
    /// not state — a restored controller rebuilds them cold, which the
    /// batch-equivalence suites prove cycle-neutral. The spill region
    /// lives entirely on media, so it needs no section of its own.
    ///
    /// # Errors
    ///
    /// [`SnapError::InjectorArmed`] while a fault injector is armed —
    /// campaign scaffolding must be disarmed before checkpointing.
    pub fn snap_save(
        &self,
        enc: &mut fsencr_snapshot::Enc,
    ) -> Result<(), fsencr_snapshot::SnapError> {
        enc.put_bytes(self.mem_key.as_bytes());
        enc.put_bytes(self.ott_key.as_bytes());
        self.nvm.snap_save(enc)?;
        self.meta.snap_save(enc);
        self.ecc.snap_save(enc);
        self.ott.snap_save(enc);
        let mut frames: Vec<u64> = self.file_pages.iter().copied().collect();
        frames.sort_unstable();
        enc.put_u64(frames.len() as u64);
        for f in frames {
            enc.put_u64(f);
        }
        enc.put_bool(self.locked);
        enc.put_bool(self.auto_quarantine);
        enc.put_u64(self.quarantine.len() as u64);
        for &line in &self.quarantine {
            enc.put_u64(line);
        }
        self.stats.read_latency.snap_save(enc);
        enc.put_u64(self.stats.reads.get());
        enc.put_u64(self.stats.writes.get());
        enc.put_u64(self.stats.file_accesses.get());
        enc.put_u64(self.stats.overflow_reencryptions.get());
        enc.put_u64(self.stats.shredded_pages.get());
        Ok(())
    }

    /// Restores a controller from [`MemoryController::snap_save`] bytes.
    /// `mode`, `layout` and the configs come from the live machine
    /// options — the snapshot carries state, not configuration — and a
    /// device that does not fit the layout is a [`SnapError::StateMismatch`].
    pub fn snap_load(
        mode: CtrlMode,
        layout: MetadataLayout,
        cfg: &SecurityConfig,
        nvm_cfg: fsencr_sim::config::NvmConfig,
        dec: &mut fsencr_snapshot::Dec<'_>,
    ) -> Result<Self, fsencr_snapshot::SnapError> {
        let mem_key = Key128::from_bytes(dec.get_arr16()?);
        let ott_key = Key128::from_bytes(dec.get_arr16()?);
        let nvm = NvmDevice::snap_load(nvm_cfg, dec)?;
        if nvm.capacity_bytes() < layout.total_bytes() {
            return Err(fsencr_snapshot::SnapError::StateMismatch);
        }
        let mut ctrl = MemoryController::new(mode, layout.clone(), cfg, mem_key, ott_key, nvm);
        ctrl.meta = MetadataSystem::snap_load(layout, cfg, dec)?;
        ctrl.ecc = EccStore::snap_load(dec)?;
        ctrl.ott = OpenTunnelTable::snap_load(cfg.ott_entries, dec)?;
        let n = dec.get_count(8)?;
        ctrl.file_pages = AddrSet::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            ctrl.file_pages.insert(dec.get_u64()?);
        }
        ctrl.locked = dec.get_bool()?;
        ctrl.auto_quarantine = dec.get_bool()?;
        let q = dec.get_len()?;
        for _ in 0..q {
            ctrl.quarantine.insert(dec.get_u64()?);
        }
        ctrl.stats.read_latency = Histogram::snap_load(dec)?;
        ctrl.stats.reads.add(dec.get_u64()?);
        ctrl.stats.writes.add(dec.get_u64()?);
        ctrl.stats.file_accesses.add(dec.get_u64()?);
        ctrl.stats.overflow_reencryptions.add(dec.get_u64()?);
        ctrl.stats.shredded_pages.add(dec.get_u64()?);
        Ok(ctrl)
    }

    /// Osiris counter candidates for line `block` of a page whose stored
    /// counter block is `stored`, each with its distance from the stored
    /// counters. The stored minor rolls forward by up to the stop-loss
    /// bound; interleaved with those, the carried major with small
    /// minors, since a crash can catch a minor-overflow page
    /// re-encryption in flight. No minor reaches [`MINOR_LIMIT`], so the
    /// walk stops there whatever the stop-loss.
    fn candidates(&self, stored: &CounterBlock, block: u8) -> Vec<(CounterBlock, u32)> {
        let block = usize::from(block);
        let mut carried = *stored;
        carried.carry_major();
        let last =
            u8::try_from(self.meta.stop_loss()).map_or(MINOR_LIMIT - 1, |s| s.min(MINOR_LIMIT - 1));
        let mut out = Vec::with_capacity(2 * (usize::from(last) + 1));
        for d in 0..=last {
            // Both terms are below MINOR_LIMIT, so the sum fits a u8.
            let minor = stored.minor(block) + d;
            if minor < MINOR_LIMIT {
                let mut cand = *stored;
                cand.set(stored.major(), block, minor);
                out.push((cand, u32::from(d)));
            }
            let mut cand = carried;
            cand.set(carried.major(), block, d);
            out.push((cand, 1 + u32::from(d)));
        }
        out
    }
}

/// Recovery's final counter block for one engine: `stored`, carried if
/// any recovered line's winning candidate was, with each recovered
/// line's minor set to its winner's — or to zero when the page carried
/// but that line's winner predates the carry.
fn settle(
    stored: &CounterBlock,
    wins: impl Iterator<Item = (LineAddr, CounterBlock)> + Clone,
) -> CounterBlock {
    let mut fin = *stored;
    let carried = wins.clone().any(|(_, c)| c.major() != stored.major());
    if carried {
        fin.carry_major();
    }
    for (line, cand) in wins {
        let block = usize::from(line.block_in_page());
        let minor = if carried && cand.major() == stored.major() {
            0
        } else {
            cand.minor(block)
        };
        fin.set(fin.major(), block, minor);
    }
    fin
}

#[cfg(test)]
mod tests {
    use fsencr_sim::config::NvmConfig;

    use super::*;

    const GID: u32 = 1;

    /// Recovery visits the tagged pages in ascending address order, not
    /// in the order their lines were written. Each file page's OTT
    /// lookup refreshes its key's LRU stamp, so the visit order decides
    /// which key a full table evicts next.
    #[test]
    fn recovery_visits_pages_in_ascending_order() {
        let cfg = SecurityConfig {
            ott_entries: 3,
            ..SecurityConfig::default()
        };
        let mut ctrl = MemoryController::new(
            CtrlMode::Encrypted,
            MetadataLayout::new(16 * 4096, 8192),
            &cfg,
            Key128::from_seed(1),
            Key128::from_seed(2),
            NvmDevice::new(NvmConfig::default()),
        );
        let mut t = Cycle::ZERO;
        for fid in 1..=3 {
            t = ctrl
                .install_key(t, GID, fid, Key128::from_seed(0xF0 + u64::from(fid)))
                .unwrap();
        }
        // Page 2 belongs to file 3, page 5 to file 1, page 9 to file 2.
        for (page, fid) in [(2, 3), (5, 1), (9, 2)] {
            t = ctrl
                .stamp_file_page(t, PageId::new(page), GID, fid)
                .unwrap();
        }
        // Lines are written out of order, across pages and within each.
        for (page, block) in [(9u64, 40u8), (2, 63), (5, 1), (9, 3), (2, 0), (5, 62)] {
            let addr = PhysAddr::new(page * 4096 + u64::from(block) * 64);
            t = ctrl.write_line(t, addr, &[block; LINE_BYTES]).unwrap();
        }
        ctrl.flush(t);
        ctrl.crash();
        let report = ctrl.recover();
        assert_eq!(
            (report.clean + report.repaired, report.unrecoverable),
            (6, 0)
        );
        // Pages 2, 5, 9 in that order leave file 3 least recently used,
        // then file 1, then file 2.
        for (fid, victim) in [(4, 3), (5, 1), (6, 2)] {
            t = ctrl
                .install_key(t, GID, fid, Key128::from_seed(0xF0 + u64::from(fid)))
                .unwrap();
            assert_eq!(ctrl.ott.lookup(GID, victim), None, "installing file {fid}");
        }
    }
}
