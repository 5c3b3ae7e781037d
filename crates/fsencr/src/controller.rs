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

use std::collections::{BTreeSet, HashMap, HashSet};

use fsencr_crypto::{ctr, Aes128, Key128, PadDomain, PadInput, PadLedger, ScheduleCache};
use fsencr_faults::{FaultEvent, FaultInjector, FaultPlan};
use fsencr_nvm::{LineAddr, NvmDevice, NvmError, PageId, PhysAddr, LINE_BYTES};
use fsencr_obs::Observer;
use fsencr_secmem::{EccStore, Fecb, Mecb, MetadataLayout, MetadataSystem, TamperError};
use fsencr_sim::{config::SecurityConfig, Counter, Cycle, Histogram, StatSource};

use crate::ott::OpenTunnelTable;
use crate::snapshot::StatsSnapshot;
use crate::spill::{OttSpill, SpillError};

// A child module of `controller` (not a sibling) so the batched region
// ops can drive the private datapath fields directly; the file lives at
// `src/batch.rs` where the hot-alloc lint scopes it.
#[path = "batch.rs"]
pub(crate) mod batch;

use batch::{RegionRun, Repad};

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
                write!(f, "line {line:#x} is quarantined after an integrity failure")
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
    file_pages: HashSet<u64>,
    /// FsEncr lock-out after failed boot authentication (Section VI).
    locked: bool,
    aes_cycles: u64,
    direct_encryption: bool,
    stop_loss: u32,
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
            ott: OpenTunnelTable::new(cfg.ott_entries(), cfg.ott_latency_cycles),
            spill,
            mem_aes: Aes128::new(&mem_key),
            mem_key,
            ott_key,
            schedules: ScheduleCache::new(),
            file_pages: HashSet::new(),
            locked: false,
            aes_cycles: cfg.aes_ns,
            direct_encryption: cfg.direct_encryption,
            stop_loss: cfg.osiris_stop_loss.max(1),
            pad_scratch: [0u8; LINE_BYTES],
            pad_ledger: PadLedger::new(),
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

    /// The ECC lanes: the per-line Osiris tags that travel with the
    /// device.
    pub fn ecc(&self) -> &EccStore {
        &self.ecc
    }

    /// Raw mutable device access. Debug/attack surface only — production
    /// callers go through the datapath; tests and attack fixtures that
    /// need to corrupt media directly reach for this, visibly.
    pub fn debug_nvm_mut(&mut self) -> &mut NvmDevice {
        &mut self.nvm
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

    /// The armed fault injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.nvm.fault_injector()
    }

    /// Mutable access to the armed injector for the barrier/region hooks
    /// and campaign drivers (power-cut polling, event drains).
    pub(crate) fn fault_injector_mut(&mut self) -> Option<&mut FaultInjector> {
        self.nvm.fault_injector_mut()
    }

    /// True while an armed injector has cut power: device writes are
    /// being dropped and the machine should crash-recover.
    pub fn power_lost(&self) -> bool {
        self.nvm.fault_injector().is_some_and(FaultInjector::power_lost)
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

    /// Turns the pad-uniqueness oracle on or off for this controller.
    /// New controllers honour [`fsencr_crypto::oracle::set_pads_enabled`];
    /// this overrides per instance. Off by default: benches pay one
    /// branch per pad and figure bytes are unaffected.
    pub fn set_pad_oracle(&mut self, on: bool) {
        self.pad_ledger.set_enabled(on);
    }

    /// Distinct (key, IV) pads the oracle has recorded (0 when off).
    pub fn pad_oracle_distinct(&self) -> usize {
        self.pad_ledger.distinct_pads()
    }

    /// Turns the metadata system's Merkle-coverage oracle on or off for
    /// this controller. New controllers honour
    /// [`fsencr_secmem::set_coverage_enabled`]; this overrides per
    /// instance. Off by default, like the pad oracle.
    pub fn set_coverage_oracle(&mut self, on: bool) {
        self.meta.set_coverage_oracle(on);
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

    /// Whether the frame is currently a DF (encrypted DAX file) page.
    pub fn is_file_page(&self, page: PageId) -> bool {
        self.file_pages.contains(&page.get())
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

    /// Whether the file engine is locked out.
    pub fn is_locked(&self) -> bool {
        self.locked
    }

    /// The `OTP_mem` IV for `(page, block)` under `mecb`'s counters.
    fn mem_pad_input(page: PageId, block: u8, mecb: &Mecb) -> PadInput {
        PadInput {
            page_id: page.get(),
            block_in_page: block,
            major: mecb.major(),
            minor: mecb.minor(block as usize),
            domain: PadDomain::Memory,
        }
    }

    /// The `OTP_file` IV for `(page, block)` under `fecb`'s counters.
    fn file_pad_input(page: PageId, block: u8, fecb: &Fecb) -> PadInput {
        PadInput {
            page_id: page.get(),
            block_in_page: block,
            major: fecb.major() as u64,
            minor: fecb.minor(block as usize),
            domain: PadDomain::File,
        }
    }

    /// Generates `OTP_mem` for `(page, block)` into the scratch buffer and
    /// XORs it into `data`.
    fn xor_mem_pad(&mut self, data: &mut [u8; LINE_BYTES], page: PageId, block: u8, mecb: &Mecb) {
        let input = Self::mem_pad_input(page, block, mecb);
        ctr::line_pad_into(&self.mem_aes, &input, &mut self.pad_scratch);
        ctr::xor_in_place(data, &self.pad_scratch);
    }

    /// [`Self::xor_mem_pad`] for *fresh* pad issue (encrypt paths only —
    /// never pad stripping): the pad-uniqueness oracle records the
    /// (key, IV, covered-content) triple before the XOR and the
    /// controller halts on a genuine reuse. Zero simulated cost; one
    /// real branch when the oracle is off.
    fn fresh_mem_pad(&mut self, data: &mut [u8; LINE_BYTES], page: PageId, block: u8, mecb: &Mecb) {
        let input = Self::mem_pad_input(page, block, mecb);
        let issue = self.pad_ledger.record(&self.mem_key, &input, data);
        assert!(issue.is_ok(), "memory-pad oracle: {:?}", issue.err());
        ctr::line_pad_into(&self.mem_aes, &input, &mut self.pad_scratch);
        ctr::xor_in_place(data, &self.pad_scratch);
    }

    /// Generates `OTP_file` under `key` into the scratch buffer and XORs
    /// it into `data`.
    fn xor_file_pad(
        &mut self,
        data: &mut [u8; LINE_BYTES],
        key: Key128,
        page: PageId,
        block: u8,
        fecb: &Fecb,
    ) {
        let input = Self::file_pad_input(page, block, fecb);
        let aes = self.schedules.get(&key);
        ctr::line_pad_into(aes, &input, &mut self.pad_scratch);
        ctr::xor_in_place(data, &self.pad_scratch);
    }

    /// [`Self::xor_file_pad`] with the expanded schedule supplied by the
    /// caller (a [`RegionRun`] holds it across a batch, skipping the
    /// per-line schedule-cache probe).
    fn xor_file_pad_with(
        &mut self,
        data: &mut [u8; LINE_BYTES],
        aes: &Aes128,
        page: PageId,
        block: u8,
        fecb: &Fecb,
    ) {
        let input = Self::file_pad_input(page, block, fecb);
        ctr::line_pad_into(aes, &input, &mut self.pad_scratch);
        ctr::xor_in_place(data, &self.pad_scratch);
    }

    /// [`Self::xor_file_pad_with`] for fresh pad issue (encrypt paths
    /// only): oracle-recorded like [`Self::fresh_mem_pad`]. `key` is the
    /// unexpanded form of `aes`, identifying the epoch in the ledger.
    fn fresh_file_pad_with(
        &mut self,
        data: &mut [u8; LINE_BYTES],
        aes: &Aes128,
        key: Key128,
        page: PageId,
        block: u8,
        fecb: &Fecb,
    ) {
        let input = Self::file_pad_input(page, block, fecb);
        let issue = self.pad_ledger.record(&key, &input, data);
        assert!(issue.is_ok(), "file-pad oracle: {:?}", issue.err());
        ctr::line_pad_into(aes, &input, &mut self.pad_scratch);
        ctr::xor_in_place(data, &self.pad_scratch);
    }

    /// Resolves the file key for `(gid, fid)`: OTT first, spill on miss
    /// (with OTT refill, possibly spilling the OTT's own victim).
    fn resolve_key(
        &mut self,
        now: Cycle,
        gid: u32,
        fid: u32,
    ) -> Result<(Key128, Cycle), MemError> {
        let mut t = now + self.ott.latency_cycles();
        if let Some(key) = self.ott.lookup(gid, fid) {
            self.obs.incr("ott/hits");
            self.obs.add("ott/hit_cycles", t.since(now).get());
            return Ok((key, t));
        }
        self.obs.incr("ott/misses");
        let (found, t_spill) = self
            .spill
            .lookup(&mut self.meta, &mut self.nvm, t, gid, fid)?;
        t = t_spill + self.aes_cycles; // decrypt the spilled key
        let key = found.ok_or(MemError::KeyUnavailable { gid, fid })?;
        self.obs.incr("ott/fills");
        if let Some((vg, vf, vkey)) = self.ott.insert(gid, fid, key) {
            self.obs.incr("ott/spills");
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
        let mut run = RegionRun::new();
        self.read_line_with(now, addr, &mut run)
    }

    /// [`Self::read_line`] threading a caller-held [`RegionRun`] memo, the
    /// building block of [`Self::read_lines`]. Identical simulated
    /// behaviour; the memo only short-circuits byte-identical counter
    /// parses and redundant schedule probes.
    ///
    /// This wrapper is also the graceful-degradation fence: it validates
    /// the address, denies quarantined lines, and (when auto-quarantine
    /// is on) turns tamper detections into standing quarantines.
    pub(crate) fn read_line_with(
        &mut self,
        now: Cycle,
        addr: PhysAddr,
        run: &mut RegionRun,
    ) -> Result<([u8; LINE_BYTES], Cycle), MemError> {
        self.nvm.check_addr(addr)?;
        if !self.quarantine.is_empty() && self.quarantine.contains(&addr.line().get()) {
            return Err(IntegrityError::Quarantined { line: addr.line().get() }.into());
        }
        let res = self.read_line_inner(now, addr, run);
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
        run: &mut RegionRun,
    ) -> Result<([u8; LINE_BYTES], Cycle), MemError> {
        let line = addr.line();
        self.stats.reads.incr();
        let row_base = self.row_base();
        let (cipher, t_data) = self.nvm.read_line(now, addr);
        if self.mode == CtrlMode::Unencrypted {
            self.stats.read_latency.record(t_data.since(now).get());
            self.obs.add("ctrl/read/total_cycles", t_data.since(now).get());
            self.obs.add("ctrl/read/data_cycles", t_data.since(now).get());
            self.note_rows("ctrl/read/row_hits", "ctrl/read/row_misses", row_base);
            self.obs.span("ctrl", "read_line", now.get(), t_data.get(), addr.get());
            return Ok((cipher, t_data));
        }
        if !self.meta.layout().is_data(line) {
            return Err(NvmError::OutsideDataRegion { addr: line.get() }.into());
        }
        let page = line.page();
        let block = line.block_in_page();

        // OTP_mem in parallel with the data fetch.
        let mecb_addr = self.meta.layout().mecb_addr(page);
        let (mecb_bytes, macc) = self.meta.read_block(&mut self.nvm, now, mecb_addr)?;
        let mecb = run.mecb(&mecb_bytes);
        // Counter mode generates the pad in parallel with the data fetch;
        // the direct-encryption ablation decrypts only after both the data
        // and the counter are available.
        let t_pad_mem = macc.done + self.aes_cycles;
        self.obs.incr(if macc.cache_hit {
            "ctrl/read/mecb_hits"
        } else {
            "ctrl/read/mecb_misses"
        });
        self.obs.add("ctrl/read/mecb_wait_cycles", macc.done.since(now).get());
        self.obs.add("ctrl/read/pad_gen_cycles", self.aes_cycles);

        let mut plain = cipher;
        self.xor_mem_pad(&mut plain, page, block, &mecb);
        let mut done = if self.direct_encryption {
            t_data.max(macc.done) + self.aes_cycles
        } else {
            t_data.max(t_pad_mem)
        };

        if self.file_pages.contains(&page.get()) && !self.locked {
            self.stats.file_accesses.incr();
            let fecb_addr = self.meta.layout().fecb_addr(page);
            let (fecb_bytes, facc) = self.meta.read_block(&mut self.nvm, now, fecb_addr)?;
            let fecb = run.fecb(&fecb_bytes);
            let (key, t_key) = self.resolve_key(facc.done, fecb.gid(), fecb.fid())?;
            self.obs.incr(if facc.cache_hit {
                "ctrl/read/fecb_hits"
            } else {
                "ctrl/read/fecb_misses"
            });
            self.obs.add("ctrl/read/fecb_wait_cycles", facc.done.since(now).get());
            self.obs.add("ctrl/read/key_wait_cycles", t_key.since(facc.done).get());
            self.obs.add("ctrl/read/pad_gen_cycles", self.aes_cycles);
            let aes = run.schedule(key, &mut self.schedules);
            self.xor_file_pad_with(&mut plain, aes, page, block, &fecb);
            done = if self.direct_encryption {
                done.max(t_key) + self.aes_cycles
            } else {
                done.max(t_key + self.aes_cycles)
            };
        }
        let done = done + 1; // final XOR
        self.stats.read_latency.record(done.since(now).get());
        self.obs.add("ctrl/read/total_cycles", done.since(now).get());
        self.obs.add("ctrl/read/data_cycles", t_data.since(now).get());
        self.obs
            .add("ctrl/read/pad_exposed_cycles", done.get().saturating_sub(t_data.get()));
        self.note_rows("ctrl/read/row_hits", "ctrl/read/row_misses", row_base);
        self.obs.span("ctrl", "read_line", now.get(), done.get(), addr.get());
        Ok((plain, done))
    }

    /// Row-buffer counter baseline, captured only while observing so the
    /// disabled path stays branch-cheap.
    fn row_base(&self) -> Option<(u64, u64)> {
        if self.obs.is_enabled() {
            Some((self.nvm.row_hits(), self.nvm.row_misses()))
        } else {
            None
        }
    }

    /// Attributes the row-buffer outcomes accumulated since `base` to the
    /// given metric keys.
    fn note_rows(&mut self, hits_key: &'static str, misses_key: &'static str, base: Option<(u64, u64)>) {
        if let Some((h, m)) = base {
            self.obs.add(hits_key, self.nvm.row_hits().saturating_sub(h));
            self.obs.add(misses_key, self.nvm.row_misses().saturating_sub(m));
        }
    }

    /// Writes one line (Figure 7, write path). Returns the completion
    /// time.
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
        let mut run = RegionRun::new();
        self.write_line_with(now, addr, plaintext, &mut run)
    }

    /// [`Self::write_line`] threading a caller-held [`RegionRun`] memo,
    /// the building block of [`Self::write_lines`]. Identical simulated
    /// behaviour; the memo only short-circuits byte-identical counter
    /// parses and redundant schedule probes.
    ///
    /// Like the read twin, this wrapper is the graceful-degradation
    /// fence (address validation, quarantine denial, auto-quarantine of
    /// tamper detections).
    pub(crate) fn write_line_with(
        &mut self,
        now: Cycle,
        addr: PhysAddr,
        plaintext: &[u8; LINE_BYTES],
        run: &mut RegionRun,
    ) -> Result<Cycle, MemError> {
        self.nvm.check_addr(addr)?;
        // Writes *heal* a quarantined line rather than bouncing off it:
        // a full-line write re-records the ECC belief and bumps fresh
        // counters, so nothing of the distrusted bytes survives —
        // bad-sector rewrite semantics. Reads stay fenced until then.
        if !self.quarantine.is_empty() {
            self.quarantine.remove(&addr.line().get());
        }
        let res = self.write_line_inner(now, addr, plaintext, run);
        if self.auto_quarantine {
            if let Err(MemError::Integrity(IntegrityError::Tamper(t))) = &res {
                self.quarantine.insert(t.addr.get());
                self.quarantine.insert(addr.line().get());
            }
        }
        res
    }

    fn write_line_inner(
        &mut self,
        now: Cycle,
        addr: PhysAddr,
        plaintext: &[u8; LINE_BYTES],
        run: &mut RegionRun,
    ) -> Result<Cycle, MemError> {
        let line = addr.line();
        self.stats.writes.incr();
        let row_base = self.row_base();
        if self.mode == CtrlMode::Unencrypted {
            let t_end = self.nvm.write_line(now, addr, plaintext);
            self.obs.add("ctrl/write/total_cycles", t_end.since(now).get());
            self.note_rows("ctrl/write/row_hits", "ctrl/write/row_misses", row_base);
            self.obs.span("ctrl", "write_line", now.get(), t_end.get(), addr.get());
            return Ok(t_end);
        }
        if !self.meta.layout().is_data(line) {
            return Err(NvmError::OutsideDataRegion { addr: line.get() }.into());
        }
        let page = line.page();
        let block = line.block_in_page();

        // Memory counter: increment minor, handling overflow.
        let mecb_addr = self.meta.layout().mecb_addr(page);
        let (mecb_bytes, macc) = self.meta.read_block(&mut self.nvm, now, mecb_addr)?;
        self.obs.incr(if macc.cache_hit {
            "ctrl/write/mecb_hits"
        } else {
            "ctrl/write/mecb_misses"
        });
        let mut mecb = run.mecb(&mecb_bytes);
        let mut t = macc.done;
        let mut mecb_overflowed = false;
        if mecb.increment(block as usize) {
            // Two-phase overflow: first pin the exact pre-carry minors on
            // media (so a crash mid-re-encryption leaves every old line at
            // delta zero), then re-encrypt, then persist the carried block.
            self.meta
                .write_block(&mut self.nvm, t, mecb_addr, mecb.to_bytes())?;
            t = self.meta.persist_block(&mut self.nvm, t, mecb_addr)?;
            t = self.reencrypt_page_mem(t, page, &mecb)?;
            mecb.carry_major();
            mecb.increment(block as usize);
            mecb_overflowed = true;
            self.obs.incr("ctrl/write/overflows");
        }
        let macc = self
            .meta
            .write_block(&mut self.nvm, t, mecb_addr, mecb.to_bytes())?;
        run.note_mecb(mecb);
        if mecb_overflowed {
            // A major-counter bump moves the whole page's pads further
            // than the Osiris stop-loss window can recover; it must reach
            // the media before any line encrypted under it does.
            self.meta.persist_block(&mut self.nvm, macc.done, mecb_addr)?;
        }
        let mut t_pads = macc.done + self.aes_cycles;
        self.obs.add("ctrl/write/mecb_wait_cycles", macc.done.since(now).get());
        self.obs.add("ctrl/write/pad_gen_cycles", self.aes_cycles);

        let mut cipher = *plaintext;
        self.fresh_mem_pad(&mut cipher, page, block, &mecb);

        if self.file_pages.contains(&page.get()) && !self.locked {
            self.stats.file_accesses.incr();
            let fecb_addr = self.meta.layout().fecb_addr(page);
            let (fecb_bytes, facc) = self.meta.read_block(&mut self.nvm, now, fecb_addr)?;
            self.obs.incr(if facc.cache_hit {
                "ctrl/write/fecb_hits"
            } else {
                "ctrl/write/fecb_misses"
            });
            let mut fecb = run.fecb(&fecb_bytes);
            let mut tf = facc.done;
            let (key, t_key) = self.resolve_key(tf, fecb.gid(), fecb.fid())?;
            self.obs.add("ctrl/write/key_wait_cycles", t_key.since(facc.done).get());
            tf = t_key;
            let mut fecb_overflowed = false;
            if fecb.increment(block as usize) {
                self.meta
                    .write_block(&mut self.nvm, tf, fecb_addr, fecb.to_bytes())?;
                tf = self.meta.persist_block(&mut self.nvm, tf, fecb_addr)?;
                tf = self.reencrypt_page_file(tf, page, key, &fecb)?;
                fecb.carry_major();
                fecb.increment(block as usize);
                fecb_overflowed = true;
                self.obs.incr("ctrl/write/overflows");
            }
            let facc = self
                .meta
                .write_block(&mut self.nvm, tf, fecb_addr, fecb.to_bytes())?;
            run.note_fecb(fecb);
            if fecb_overflowed {
                self.meta.persist_block(&mut self.nvm, facc.done, fecb_addr)?;
            }
            let aes = run.schedule(key, &mut self.schedules);
            self.fresh_file_pad_with(&mut cipher, aes, key, page, block, &fecb);
            t_pads = t_pads.max(facc.done + self.aes_cycles);
            self.obs.add("ctrl/write/pad_gen_cycles", self.aes_cycles);
        }

        self.ecc.record(line, plaintext);
        self.obs.add("ctrl/write/pad_wait_cycles", t_pads.since(now).get());
        let t_end = self.nvm.write_line(t_pads + 1, addr, &cipher);
        self.obs.add("ctrl/write/total_cycles", t_end.since(now).get());
        self.note_rows("ctrl/write/row_hits", "ctrl/write/row_misses", row_base);
        self.obs.span("ctrl", "write_line", now.get(), t_end.get(), addr.get());
        Ok(t_end)
    }

    /// Minor-counter overflow: re-pad every line of `page` from the old
    /// memory counters to `(major + 1, minor = 0)`. Costs 64 reads + 64
    /// writes, as the paper describes.
    fn reencrypt_page_mem(&mut self, now: Cycle, page: PageId, old: &Mecb) -> Result<Cycle, MemError> {
        self.stats.overflow_reencryptions.incr();
        let mut new = *old;
        new.carry_major();
        let t = self.repad_page(now, page, &Repad::Mem { old: *old, new })?;
        Ok(t + self.aes_cycles)
    }

    /// Same as [`Self::reencrypt_page_mem`] but for the file-pad component.
    fn reencrypt_page_file(
        &mut self,
        now: Cycle,
        page: PageId,
        key: Key128,
        old: &Fecb,
    ) -> Result<Cycle, MemError> {
        self.stats.overflow_reencryptions.incr();
        let mut new = *old;
        new.carry_major();
        let t = self.repad_page(now, page, &Repad::File { key, old: *old, new })?;
        Ok(t + self.aes_cycles)
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
        let fecb_addr = self.meta.layout().fecb_addr(page);
        let (bytes, acc) = self.meta.read_block(&mut self.nvm, now, fecb_addr)?;
        let mut fecb = Fecb::from_bytes(&bytes);
        fecb.stamp(gid, fid);
        let acc = self
            .meta
            .write_block(&mut self.nvm, acc.done, fecb_addr, fecb.to_bytes())?;
        // The identity stamp must be durable: post-crash recovery decides
        // "is this a file page?" from the on-media FECB. Page faults are
        // rare, so the write-through is cheap.
        let t = self.meta.persist_block(&mut self.nvm, acc.done, fecb_addr)?;
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
        let mecb_addr = self.meta.layout().mecb_addr(page);
        let (bytes, acc) = self.meta.read_block(&mut self.nvm, now, mecb_addr)?;
        let mut mecb = Mecb::from_bytes(&bytes);
        mecb.carry_major();
        let mut t = self
            .meta
            .write_block(&mut self.nvm, acc.done, mecb_addr, mecb.to_bytes())?
            .done;
        if self.file_pages.contains(&page.get()) {
            let fecb_addr = self.meta.layout().fecb_addr(page);
            let (bytes, acc) = self.meta.read_block(&mut self.nvm, t, fecb_addr)?;
            let mut fecb = Fecb::from_bytes(&bytes);
            fecb.carry_major();
            fecb.stamp(0, 0);
            t = self
                .meta
                .write_block(&mut self.nvm, acc.done, fecb_addr, fecb.to_bytes())?
                .done;
            self.file_pages.remove(&page.get());
        }
        for line in page.lines() {
            self.ecc.clear(line);
        }
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
        self.obs.incr("ctrl/crashes");
        self.meta.crash();
    }

    /// Osiris recovery: for every line the ECC oracle knows about, try
    /// counter candidates up to the stop-loss bound, repair the on-media
    /// counter blocks, then rebuild the Merkle tree.
    pub fn recover(&mut self) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        if self.mode == CtrlMode::Unencrypted {
            return report;
        }
        // Collect tagged lines grouped by page.
        let mut pages: HashMap<u64, Vec<LineAddr>> = HashMap::new();
        for line in self.tagged_data_lines() {
            pages.entry(line.page().get()).or_default().push(line);
        }
        let layout = self.meta.shared_layout();
        for (page_no, lines) in pages {
            let page = PageId::new(page_no);
            let mecb_raw = self.nvm.peek_line(PhysAddr::new(layout.mecb_addr(page).get()));
            let mecb = Mecb::from_bytes(&mecb_raw);
            let fecb_raw = self.nvm.peek_line(PhysAddr::new(layout.fecb_addr(page).get()));
            let fecb = Fecb::from_bytes(&fecb_raw);
            let is_file = fecb.gid() != 0 || fecb.fid() != 0;
            let key = if is_file {
                self.file_pages.insert(page.get());
                match self.ott.lookup(fecb.gid(), fecb.fid()) {
                    Some(k) => Some(k),
                    None => self
                        .spill
                        .lookup(&mut self.meta, &mut self.nvm, Cycle::ZERO, fecb.gid(), fecb.fid())
                        .ok()
                        .and_then(|(k, _)| k),
                }
            } else {
                None
            };

            // Phase 1: per-line candidate search. A crash can catch a
            // minor-overflow page re-encryption in flight, so candidates
            // include the next major with small minors.
            struct Found {
                line: LineAddr,
                block: usize,
                plain: [u8; LINE_BYTES],
                m_bump: bool,
                m_minor: u8,
                f_bump: bool,
                f_minor: u8,
                delta: u32,
            }
            let mut finds: Vec<Found> = Vec::new();
            let mut any_m_bump = false;
            let mut any_f_bump = false;
            for line in lines {
                let block = line.block_in_page() as usize;
                let cipher = self.nvm.peek_line(PhysAddr::new(line.get()));
                let mut mem_cands: Vec<(bool, u8)> = Vec::new();
                for dm in 0..=self.stop_loss {
                    let v = mecb.minor(block) as u32 + dm;
                    if v < 128 {
                        mem_cands.push((false, v as u8));
                    }
                    mem_cands.push((true, dm as u8));
                }
                let file_cands: Vec<(bool, u8)> = if is_file {
                    let mut c = Vec::new();
                    for df in 0..=self.stop_loss {
                        let v = fecb.minor(block) as u32 + df;
                        if v < 128 {
                            c.push((false, v as u8));
                        }
                        c.push((true, df as u8));
                    }
                    c
                } else {
                    vec![(false, 0)]
                };
                let mut found = None;
                'search: for &(m_bump, m_minor) in &mem_cands {
                    for &(f_bump, f_minor) in &file_cands {
                        let mut cand = Mecb::new();
                        cand.set(mecb.major() + m_bump as u64, block, m_minor);
                        let mut plain = cipher;
                        self.xor_mem_pad(&mut plain, page, block as u8, &cand);
                        if is_file {
                            let Some(k) = key else { continue };
                            let mut fcand = Fecb::new(fecb.gid(), fecb.fid());
                            fcand.set(fecb.major() + f_bump as u32, block, f_minor);
                            self.xor_file_pad(&mut plain, k, page, block as u8, &fcand);
                        }
                        if self.ecc.check(line, &plain) {
                            let delta_m = if m_bump {
                                1 + m_minor as u32
                            } else {
                                (m_minor - mecb.minor(block)) as u32
                            };
                            let delta_f = if !is_file {
                                0
                            } else if f_bump {
                                1 + f_minor as u32
                            } else {
                                (f_minor - fecb.minor(block)) as u32
                            };
                            found = Some(Found {
                                line,
                                block,
                                plain,
                                m_bump,
                                m_minor,
                                f_bump,
                                f_minor,
                                delta: delta_m + delta_f,
                            });
                            break 'search;
                        }
                    }
                }
                match found {
                    Some(f) => {
                        any_m_bump |= f.m_bump;
                        any_f_bump |= f.f_bump;
                        if f.delta == 0 {
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
            // complete the page re-encryption under the bumped major;
            // otherwise just roll the minors forward.
            let mut final_mecb = mecb;
            let mut final_fecb = fecb;
            if any_m_bump {
                final_mecb.carry_major();
            }
            if any_f_bump {
                final_fecb.carry_major();
            }
            let mut counters_changed = any_m_bump || any_f_bump;
            for f in &finds {
                let target_m = if any_m_bump {
                    if f.m_bump { f.m_minor } else { 0 }
                } else {
                    f.m_minor
                };
                if final_mecb.minor(f.block) != target_m {
                    final_mecb.set(final_mecb.major(), f.block, target_m);
                    counters_changed = true;
                }
                if is_file {
                    let target_f = if any_f_bump {
                        if f.f_bump { f.f_minor } else { 0 }
                    } else {
                        f.f_minor
                    };
                    if final_fecb.minor(f.block) != target_f {
                        final_fecb.set(final_fecb.major(), f.block, target_f);
                        counters_changed = true;
                    }
                }
            }
            if any_m_bump || any_f_bump {
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
                    let mut cipher = f.plain;
                    let mut cand = Mecb::new();
                    cand.set(final_mecb.major(), f.block, final_mecb.minor(f.block));
                    self.fresh_mem_pad(&mut cipher, page, f.block as u8, &cand);
                    if is_file {
                        if let Some(k) = key {
                            let mut fcand = Fecb::new(fecb.gid(), fecb.fid());
                            fcand.set(final_fecb.major(), f.block, final_fecb.minor(f.block));
                            self.xor_file_pad(&mut cipher, k, page, f.block as u8, &fcand);
                        }
                    }
                    self.nvm.poke_line(PhysAddr::new(f.line.get()), &cipher);
                }
            }
            if counters_changed {
                self.nvm
                    .poke_line(PhysAddr::new(layout.mecb_addr(page).get()), &final_mecb.to_bytes());
                if is_file {
                    self.nvm
                        .poke_line(PhysAddr::new(layout.fecb_addr(page).get()), &final_fecb.to_bytes());
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
        let data_bytes = self.meta.layout().data_bytes();
        self.quarantine.retain(|&l| l < data_bytes);
        self.obs.incr("ctrl/recoveries");
        self.obs.add("ctrl/recover/clean", report.clean);
        self.obs.add("ctrl/recover/repaired", report.repaired);
        self.obs.add("ctrl/recover/unrecoverable", report.unrecoverable);
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
            let fecb_raw = ctrl.nvm.peek_line(PhysAddr::new(layout.fecb_addr(page).get()));
            let fecb = Fecb::from_bytes(&fecb_raw);
            if fecb.gid() != 0 || fecb.fid() != 0 {
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
        ctrl.ott = OpenTunnelTable::snap_load(cfg.ott_entries(), dec)?;
        let n = dec.get_len()?;
        ctrl.file_pages = HashSet::with_capacity(n);
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

    fn tagged_data_lines(&self) -> Vec<LineAddr> {
        let data_bytes = self.meta.layout().data_bytes();
        let mut lines: Vec<LineAddr> = self
            .ecc
            .lines()
            .filter(|l| l.get() < data_bytes)
            .collect();
        lines.sort_by_key(|l| l.get());
        lines
    }
}

impl StatSource for MemoryController {
    fn stat_rows(&self) -> Vec<(String, u64)> {
        let mut rows = vec![
            ("ctrl.reads".to_string(), self.stats.reads.get()),
            ("ctrl.writes".to_string(), self.stats.writes.get()),
            ("ctrl.file_accesses".to_string(), self.stats.file_accesses.get()),
            (
                "ctrl.overflow_reencryptions".to_string(),
                self.stats.overflow_reencryptions.get(),
            ),
            ("ctrl.shredded_pages".to_string(), self.stats.shredded_pages.get()),
        ];
        rows.extend(self.nvm.stat_rows());
        rows.extend(self.meta.stat_rows());
        rows.extend(self.ott.stat_rows());
        rows
    }
}
