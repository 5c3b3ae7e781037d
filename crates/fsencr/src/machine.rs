//! The full simulated system.
//!
//! `Machine` wires the pieces together the way Figure 7 does: workload
//! threads (one per core) issue byte-granular reads/writes against
//! memory-mapped DAX files; accesses flow through the cache hierarchy; LLC
//! misses and write-backs reach the [`MemoryController`]; the controller
//! talks to the PCM device and the metadata system. The kernel-side
//! events — page faults, key installs, unlink, `chmod` — go through the
//! filesystem model and the MMIO protocol.
//!
//! Four security configurations are selectable, matching the evaluation:
//!
//! | mode | hardware | software |
//! |---|---|---|
//! | [`SecurityMode::Unencrypted`] | none | plain ext4-DAX |
//! | [`SecurityMode::MemoryOnly`] | counter-mode memory encryption + Merkle | plain DAX (the paper's **baseline security**) |
//! | [`SecurityMode::FsEncr`] | baseline + the FsEncr file engine | DF-bit set at page faults |
//! | [`SecurityMode::Software`] | baseline hardware | eCryptfs model: page cache + page-granular software crypto |
//!
//! `read`, `write` and `persist` share one file-page walk. The modes
//! differ only in where a mapped page lives: an encrypted file under
//! software encryption resolves to its DRAM page-cache frame (filled and
//! written back by one software-crypto page copy), every other mapping
//! to its own DAX frame.

use std::collections::HashMap;
use std::ops::Range;

use fsencr_cache::{CacheLine, Hierarchy};
use fsencr_crypto::{ctr, Key128, PadDomain, PadInput};
use fsencr_fs::{
    AccessKind, DaxFs, FileHandle, FsError, GroupId, Ino, Mode, PageCacheModel, PageTable, Pte,
    SoftEncrConfig, UserId,
};
use fsencr_nvm::{LineAddr, PageId, PhysAddr, LINE_BYTES, PAGE_BYTES};
use fsencr_secmem::MetadataLayout;
use fsencr_sim::{Cycle, MachineConfig};
use fsencr_snapshot::SnapError;

use fsencr_obs::Observer;

use crate::controller::{CtrlMode, MemError, MemoryController, ModuleEnvelope, RecoveryReport};
use crate::snapshot::StatsSnapshot;
use crate::tlb::{Tlb, PAGE_WALK_CYCLES, TLB_ENTRIES};

/// Kernel cycles charged per minor page fault (trap, fault handler,
/// mapping insertion).
pub const FAULT_CYCLES: u64 = 1800;

/// Cycles charged per MMIO exchange with the controller at file
/// create/open/delete (register writes + key transport).
pub const MMIO_CYCLES: u64 = 300;

/// Cycles charged for the fence ending a persist (`clwb*; sfence`).
pub const FENCE_CYCLES: u64 = 10;

/// Cycles a streaming 4 KiB page copy occupies the core (hardware
/// prefetchers and write-combining hide most per-line latency; the page
/// moves at roughly memcpy speed).
pub const PAGE_COPY_CYCLES: u64 = 1200;

/// Pages reserved at the head of the DAX region for the filesystem's own
/// on-media metadata: the filesystem image written by
/// [`Machine::sync_fs`] (first [`FS_IMAGE_PAGES`]) and the metadata
/// journal ring (the rest).
pub const FS_META_PAGES: u64 = 64;

/// Pages of the reserved area holding the filesystem image.
pub const FS_IMAGE_PAGES: u64 = 56;

/// Bytes of the image area left for the image after its 64-byte length
/// header.
const FS_IMAGE_CAPACITY: u64 = FS_IMAGE_PAGES * PAGE_BYTES as u64 - 64;

/// Kernel cycles charged per journaled metadata operation (transaction
/// setup + commit record), in addition to the journal-record writes.
pub const JOURNAL_CYCLES: u64 = 500;

/// Which security configuration the machine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SecurityMode {
    /// Plain ext4-DAX, no encryption at all (Figure 3's normalisation
    /// baseline).
    Unencrypted,
    /// Counter-mode memory encryption + integrity, no file engine — the
    /// paper's "Baseline Security" (Figures 8-15 normalise to this).
    MemoryOnly,
    /// The paper's contribution: baseline + hardware file encryption.
    FsEncr,
    /// Baseline hardware + eCryptfs-style software file encryption.
    Software,
}

impl std::fmt::Display for SecurityMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SecurityMode::Unencrypted => "ext4-dax",
            SecurityMode::MemoryOnly => "baseline-security",
            SecurityMode::FsEncr => "fsencr",
            SecurityMode::Software => "software-encryption",
        };
        f.write_str(s)
    }
}

/// Machine construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct MachineOpts {
    /// Architectural configuration (Table III by default).
    pub config: MachineConfig,
    /// Bytes of general (non-DAX) memory: heaps, page cache.
    pub general_bytes: u64,
    /// Bytes of the DAX-formatted persistent region.
    pub pmem_bytes: u64,
    /// Bytes reserved for the encrypted OTT spill region.
    pub ott_spill_bytes: u64,
    /// Seed for keys and FEK generation.
    pub seed: u64,
    /// Software-encryption cost model (used in [`SecurityMode::Software`]).
    pub softencr: SoftEncrConfig,
}

impl MachineOpts {
    /// Unit-test scale: 1 MiB general + 1 MiB DAX, 64-page software page
    /// cache (fits the general region). Callers override the fields they
    /// vary:
    ///
    /// ```
    /// use fsencr::MachineOpts;
    ///
    /// let mut opts = MachineOpts::small_test();
    /// opts.pmem_bytes = 2 << 20;
    /// opts.config.security.metadata_cache.size_bytes = 128 << 10;
    /// assert_eq!(opts.general_bytes, 1 << 20); // default kept
    /// ```
    pub fn small_test() -> Self {
        MachineOpts {
            config: MachineConfig::paper_defaults(),
            general_bytes: 1 << 20,
            pmem_bytes: 1 << 20,
            ott_spill_bytes: 4096,
            seed: 0xF5EC,
            softencr: SoftEncrConfig {
                page_cache_pages: 64,
                ..SoftEncrConfig::default()
            },
        }
    }

    /// The paper's benchmark scale: 32 MiB general + 64 MiB DAX, enough
    /// to exceed every cache while keeping simulations fast. The software
    /// page cache is sized like real DRAM page caches relative to the
    /// working sets (4096 pages = 16 MiB): capacity misses are rare and
    /// the software-encryption cost is dominated by per-syscall layering
    /// and per-fsync page crypto, as in the paper's eCryptfs measurement.
    pub fn benchmark() -> Self {
        MachineOpts {
            config: MachineConfig::paper_defaults(),
            general_bytes: 32 << 20,
            pmem_bytes: 64 << 20,
            ott_spill_bytes: 256 << 10,
            seed: 0xF5EC,
            softencr: SoftEncrConfig {
                page_cache_pages: 4096,
                ..SoftEncrConfig::default()
            },
        }
    }
}

impl Default for MachineOpts {
    fn default() -> Self {
        MachineOpts::benchmark()
    }
}

/// Errors surfaced by machine operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// Filesystem-level failure.
    Fs(FsError),
    /// Memory-datapath failure (integrity violation, missing key).
    Mem(MemError),
    /// Access beyond the mapped file region.
    OutOfBounds,
    /// The operation is not supported in the current security mode.
    Unsupported(&'static str),
    /// The on-media filesystem image is torn, foreign or corrupt.
    Image(SnapError),
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::Fs(e) => write!(f, "{e}"),
            MachineError::Mem(e) => write!(f, "{e}"),
            MachineError::OutOfBounds => f.write_str("access beyond mapping"),
            MachineError::Unsupported(what) => write!(f, "unsupported in this mode: {what}"),
            MachineError::Image(e) => write!(f, "filesystem image: {e}"),
        }
    }
}

impl std::error::Error for MachineError {}

impl From<FsError> for MachineError {
    fn from(e: FsError) -> Self {
        MachineError::Fs(e)
    }
}

impl From<MemError> for MachineError {
    fn from(e: MemError) -> Self {
        MachineError::Mem(e)
    }
}

/// Identifier of an mmap'ed region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MapId(u32);

#[derive(Debug, Clone, Copy)]
struct Mapping {
    ino: Ino,
    fek: Option<Key128>,
    base: u64,
    bytes: u64,
    writable: bool,
}

const MAP_STRIDE: u64 = 1 << 30;
const MAP_BASE: u64 = 1 << 40;

/// The frames the filesystem allocates from: the DAX region past its
/// reserved metadata area, as `(first frame, frame count)`.
fn fs_region(opts: &MachineOpts) -> (u64, u64) {
    let (general, pmem) = (opts.general_bytes, opts.pmem_bytes);
    let page = PAGE_BYTES as u64;
    (
        general / page + FS_META_PAGES,
        (pmem / page).saturating_sub(FS_META_PAGES),
    )
}

/// The controller's mode and metadata layout for a machine in `mode`:
/// the prelude of every controller construction (new, restored or
/// imported).
fn ctrl_prelude(opts: &MachineOpts, mode: SecurityMode) -> (CtrlMode, MetadataLayout) {
    let ctrl_mode = if mode == SecurityMode::Unencrypted {
        CtrlMode::Unencrypted
    } else {
        CtrlMode::Encrypted
    };
    let data_bytes = opts.general_bytes + opts.pmem_bytes;
    (
        ctrl_mode,
        MetadataLayout::new(data_bytes, opts.ott_spill_bytes),
    )
}

/// Splits the `len` bytes at `start` at `UNIT`-byte boundaries, yielding
/// `(unit index, offset in unit, span of the caller's buffer)`: the page
/// walk over a mapped range and the line walk over a physical one.
#[expect(
    clippy::cast_possible_truncation,
    reason = "the offset in a unit is below `UNIT`, a `usize`"
)]
fn spans<const UNIT: usize>(
    start: u64,
    len: usize,
) -> impl Iterator<Item = (u64, usize, Range<usize>)> {
    let mut pos = 0usize;
    std::iter::from_fn(move || {
        (pos < len).then(|| {
            let at = start + pos as u64;
            let within = (at % UNIT as u64) as usize;
            let take = (UNIT - within).min(len - pos);
            pos += take;
            (at / UNIT as u64, within, pos - take..pos)
        })
    })
}

/// The `arg` of a per-file machine event: `(gid << 32) | fid`.
fn file_tag(gid: u32, fid: u32) -> u64 {
    (u64::from(gid) << 32) | u64::from(fid)
}

/// The physically travelling half of a module transfer: the DIMM with its
/// contents (including the on-media filesystem image) and its ECC lanes.
#[derive(Debug)]
pub struct TransferredModule {
    nvm: fsencr_nvm::NvmDevice,
    ecc: fsencr_secmem::EccStore,
    opts: MachineOpts,
}

impl TransferredModule {
    /// The travelling DIMM — what the in-transit attacker reads
    /// (ciphertext only). Lent immutably, so raw writes do not build:
    ///
    /// ```compile_fail,E0596
    /// use fsencr::{Machine, MachineOpts, SecurityMode};
    /// use fsencr_nvm::PhysAddr;
    ///
    /// let m = Machine::new(MachineOpts::small_test(), SecurityMode::FsEncr);
    /// let (_envelope, module) = m.export_module().unwrap();
    /// module.nvm().poke_line(PhysAddr::new(0), &[0u8; 64]);
    /// ```
    pub fn nvm(&self) -> &fsencr_nvm::NvmDevice {
        &self.nvm
    }

    /// Overwrites a raw media line of the travelling DIMM — the
    /// in-transit tampering attacker. Import-time authentication against
    /// the envelope's root digest is expected to catch it.
    #[expect(
        clippy::disallowed_methods,
        reason = "attacker-model tampering of exported module images"
    )]
    pub fn tamper_line(&mut self, addr: PhysAddr, data: &[u8; LINE_BYTES]) {
        self.nvm.poke_line(addr, data);
    }
}

/// The simulated system: cores, caches, controller, NVM, filesystem.
///
/// Code outside this crate reaches the machine's device immutably only:
/// [`Machine::controller`] lends `&MemoryController`, whose
/// [`MemoryController::nvm`] lends `&NvmDevice`. The one raw media write
/// is [`MemoryController::tamper_line`], reached through
/// [`Machine::controller_mut`]; this does not compile:
///
/// ```compile_fail,E0596
/// use fsencr::{Machine, MachineOpts, SecurityMode};
/// use fsencr_nvm::PhysAddr;
///
/// let mut m = Machine::new(MachineOpts::small_test(), SecurityMode::FsEncr);
/// m.controller().nvm().poke_line(PhysAddr::new(0), &[0u8; 64]);
/// ```
#[derive(Debug)]
pub struct Machine {
    mode: SecurityMode,
    opts: MachineOpts,
    hier: Hierarchy,
    ctrl: MemoryController,
    fs: DaxFs,
    pt: PageTable,
    mappings: HashMap<u32, Mapping>,
    next_map: u32,
    clocks: Vec<Cycle>,
    // Heap (general region) bump allocator.
    heap_next: u64,
    // Software-encryption state.
    page_cache: PageCacheModel,
    /// File pages that hold valid software-encrypted content on media
    /// (written back at least once). Pages outside this set read as
    /// zeroes, matching hole/fresh-block semantics.
    sw_valid: std::collections::HashSet<(u32, usize)>,
    sw_schedules: fsencr_crypto::ScheduleCache,
    mem_key: Key128,
    journal_cursor: u64,
    tlbs: Vec<Tlb>,
    baseline: StatsSnapshot,
    /// Reused write-back collection buffer for batched persists.
    persist_scratch: Vec<(PhysAddr, [u8; LINE_BYTES])>,
}

impl Machine {
    /// Builds a machine in the given security mode.
    ///
    /// # Panics
    ///
    /// Panics if the regions are not page-aligned or do not fit the
    /// configured device.
    pub fn new(opts: MachineOpts, mode: SecurityMode) -> Self {
        assert_eq!(opts.general_bytes % PAGE_BYTES as u64, 0);
        assert_eq!(opts.pmem_bytes % PAGE_BYTES as u64, 0);
        let (ctrl_mode, layout) = ctrl_prelude(&opts, mode);
        let nvm = fsencr_nvm::NvmDevice::new(opts.config.nvm);
        let mem_key = Key128::from_seed(opts.seed ^ 0x4d45_4d4b_4559);
        let ott_key = Key128::from_seed(opts.seed ^ 0x4f54_544b_4559);
        let ctrl = MemoryController::new(
            ctrl_mode,
            layout,
            &opts.config.security,
            mem_key,
            ott_key,
            nvm,
        );
        Machine::assemble(mode, opts, ctrl, mem_key)
    }

    /// Shared constructor body for [`Machine::new`] and
    /// [`Machine::import_module`]: formats a fresh filesystem and starts
    /// every volatile structure (caches, TLBs, page table, clocks) blank.
    fn assemble(
        mode: SecurityMode,
        opts: MachineOpts,
        ctrl: MemoryController,
        mem_key: Key128,
    ) -> Self {
        assert!(
            opts.pmem_bytes / PAGE_BYTES as u64 > FS_META_PAGES,
            "DAX region too small for the filesystem metadata area"
        );
        let (base, pages) = fs_region(&opts);
        let fs = DaxFs::format(base, pages, opts.seed);
        let cores = opts.config.cpu.cores;
        Machine {
            mode,
            opts,
            hier: Hierarchy::new(&opts.config.cpu),
            ctrl,
            fs,
            pt: PageTable::new(),
            mappings: HashMap::new(),
            next_map: 1,
            clocks: vec![Cycle::ZERO; cores],
            heap_next: PAGE_BYTES as u64,
            page_cache: PageCacheModel::new(opts.softencr.page_cache_pages),
            sw_valid: std::collections::HashSet::new(),
            sw_schedules: fsencr_crypto::ScheduleCache::new(),
            mem_key,
            journal_cursor: 0,
            tlbs: (0..cores).map(|_| Tlb::new(TLB_ENTRIES)).collect(),
            baseline: StatsSnapshot::default(),
            persist_scratch: Vec::with_capacity(PAGE_BYTES / LINE_BYTES),
        }
    }

    /// The machine's security mode.
    pub fn mode(&self) -> SecurityMode {
        self.mode
    }

    /// Construction options.
    pub fn opts(&self) -> &MachineOpts {
        &self.opts
    }

    /// The memory controller (statistics, attacker-model inspection).
    pub fn controller(&self) -> &MemoryController {
        &self.ctrl
    }

    /// The memory controller, mutably: fault plans, power-cut control,
    /// quarantine knobs, security oracles, the boot-auth lock and the
    /// tampering attacker ([`MemoryController::tamper_line`]).
    pub fn controller_mut(&mut self) -> &mut MemoryController {
        &mut self.ctrl
    }

    /// The filesystem model.
    pub fn fs(&self) -> &DaxFs {
        &self.fs
    }

    /// The memory encryption key — exposed for the "memory key revealed"
    /// attacker experiments of Section VI / Table I.
    pub fn mem_key(&self) -> Key128 {
        self.mem_key
    }

    // ------------------------------------------------------------------
    // Time.
    // ------------------------------------------------------------------

    /// Current local time of `core`.
    pub fn now(&self, core: usize) -> Cycle {
        self.clocks[core]
    }

    /// The machine-wide clock (max over cores).
    pub fn elapsed(&self) -> Cycle {
        self.clocks.iter().copied().max().unwrap_or(Cycle::ZERO)
    }

    /// Charges pure compute time to a core.
    pub fn advance(&mut self, core: usize, cycles: u64) {
        self.clocks[core] += cycles;
    }

    /// Barrier: aligns every core to the latest clock.
    pub fn sync_cores(&mut self) {
        let max = self.elapsed();
        for c in &mut self.clocks {
            *c = max;
        }
    }

    /// One coherent snapshot of every counter in the machine: the
    /// controller datapath (see [`MemoryController::snapshot`]) plus the
    /// machine-level clock and TLB totals. Reset-free: diff two
    /// snapshots with [`StatsSnapshot::delta`] to measure a window.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut s = self.ctrl.snapshot();
        s.cycles = self.elapsed().get();
        let (h, m) = self.tlbs.iter().fold((0u64, 0u64), |(h, m), t| {
            (h + t.stats().hits.get(), m + t.stats().misses.get())
        });
        s.tlb_hits = h;
        s.tlb_misses = m;
        s
    }

    /// Starts a measurement window: synchronizes the cores and remembers
    /// the current [`Machine::snapshot`] as the window baseline. No
    /// counter is reset, so nested/outer observers keep their totals.
    pub fn begin_measurement(&mut self) {
        self.sync_cores();
        self.baseline = self.snapshot();
    }

    /// Counters accumulated since [`Machine::begin_measurement`] (or
    /// since construction, if it was never called).
    pub fn measurement_snapshot(&self) -> StatsSnapshot {
        self.snapshot().delta(&self.baseline)
    }

    // ------------------------------------------------------------------
    // Deterministic snapshots (`fsencr-snap/1`).
    // ------------------------------------------------------------------

    /// Fingerprint binding a snapshot to the exact construction
    /// parameters: restoring under different options or a different
    /// security mode would silently change simulated behaviour, so it is
    /// rejected up front instead.
    fn config_fingerprint(opts: &MachineOpts, mode: SecurityMode) -> u64 {
        fsencr_snapshot::fnv1a64_once(format!("{opts:?}|{mode:?}").as_bytes())
    }

    /// Serializes the complete simulation-visible machine state in the
    /// canonical `fsencr-snap/1` format. A machine restored from these
    /// bytes with [`Machine::restore_snapshot`] (under the same options
    /// and mode) continues bit-identically — same simulated cycles, same
    /// media, same Merkle root, same statistics — as one that never
    /// stopped. Host-side accelerators (schedule caches, scratch
    /// buffers, observers, oracles) are rebuilt cold; the batch- and
    /// observer-equivalence suites prove them cycle-neutral.
    ///
    /// # Errors
    ///
    /// [`fsencr_snapshot::SnapError::InjectorArmed`] while a fault
    /// injector or stuck-cell overlay is armed — campaign scaffolding is
    /// host state; disarm before checkpointing.
    pub fn save_snapshot(&self) -> Result<Vec<u8>, fsencr_snapshot::SnapError> {
        let mut enc = fsencr_snapshot::Enc::new();

        enc.begin_section("machine");
        enc.put_u64(Self::config_fingerprint(&self.opts, self.mode));
        enc.put_bytes(self.mem_key.as_bytes());
        enc.put_u32(self.next_map);
        enc.put_u64(self.heap_next);
        enc.put_u64(self.journal_cursor);
        enc.put_u64(self.clocks.len() as u64);
        for c in &self.clocks {
            enc.put_u64(c.get());
        }
        let mut maps: Vec<(u32, Mapping)> = self.mappings.iter().map(|(k, v)| (*k, *v)).collect();
        maps.sort_unstable_by_key(|(k, _)| *k);
        enc.put_u64(maps.len() as u64);
        for (id, m) in maps {
            enc.put_u32(id);
            enc.put_u32(m.ino.get());
            match m.fek {
                Some(k) => {
                    enc.put_bool(true);
                    enc.put_bytes(k.as_bytes());
                }
                None => enc.put_bool(false),
            }
            enc.put_u64(m.base);
            enc.put_u64(m.bytes);
            enc.put_bool(m.writable);
        }
        let mut valid: Vec<(u32, u64)> = self
            .sw_valid
            .iter()
            .map(|&(ino, page)| (ino, page as u64))
            .collect();
        valid.sort_unstable();
        enc.put_u64(valid.len() as u64);
        for (ino, page) in valid {
            enc.put_u32(ino);
            enc.put_u64(page);
        }
        enc.end_section();

        enc.begin_section("hier");
        self.hier.snap_save(&mut enc);
        enc.end_section();

        enc.begin_section("ctrl");
        self.ctrl.snap_save(&mut enc)?;
        enc.end_section();

        enc.begin_section("fs");
        self.fs.snap_save(&mut enc);
        self.fs.keyring().snap_save(&mut enc);
        self.page_cache.snap_save(&mut enc);
        self.pt.snap_save(&mut enc);
        enc.end_section();

        enc.begin_section("tlbs");
        enc.put_u64(self.tlbs.len() as u64);
        for tlb in &self.tlbs {
            tlb.snap_save(&mut enc);
        }
        enc.end_section();

        enc.begin_section("stats");
        self.baseline.snap_save(&mut enc);
        enc.end_section();

        Ok(enc.finish())
    }

    /// Restores a machine from [`Machine::save_snapshot`] bytes.
    ///
    /// `opts` and `mode` come from the caller — a snapshot carries state,
    /// never configuration — and must match the saving machine's exactly
    /// (checked via a fingerprint).
    ///
    /// # Errors
    ///
    /// [`fsencr_snapshot::SnapError::StateMismatch`] on a fingerprint
    /// mismatch; decode errors on corrupt or truncated bytes.
    pub fn restore_snapshot(
        opts: MachineOpts,
        mode: SecurityMode,
        bytes: &[u8],
    ) -> Result<Machine, fsencr_snapshot::SnapError> {
        let mut dec = fsencr_snapshot::Dec::new(bytes)?;

        dec.begin_section("machine")?;
        if dec.get_u64()? != Self::config_fingerprint(&opts, mode) {
            return Err(SnapError::StateMismatch);
        }
        let mem_key = Key128::from_bytes(dec.get_arr16()?);
        let next_map = dec.get_u32()?;
        let heap_next = dec.get_u64()?;
        let journal_cursor = dec.get_u64()?;
        let cores = dec.get_len()?;
        if cores != opts.config.cpu.cores {
            return Err(SnapError::StateMismatch);
        }
        let mut clocks = Vec::with_capacity(cores);
        for _ in 0..cores {
            clocks.push(Cycle::new(dec.get_u64()?));
        }
        let n_maps = dec.get_count(26)?;
        let mut mappings = HashMap::with_capacity(n_maps);
        for _ in 0..n_maps {
            let id = dec.get_u32()?;
            let ino = Ino::try_new(dec.get_u32()?).ok_or(SnapError::Corrupt("mapping inode"))?;
            let fek = if dec.get_bool()? {
                Some(Key128::from_bytes(dec.get_arr16()?))
            } else {
                None
            };
            let base = dec.get_u64()?;
            let bytes = dec.get_u64()?;
            let writable = dec.get_bool()?;
            mappings.insert(
                id,
                Mapping {
                    ino,
                    fek,
                    base,
                    bytes,
                    writable,
                },
            );
        }
        let n_valid = dec.get_count(12)?;
        let mut sw_valid = std::collections::HashSet::with_capacity(n_valid);
        for _ in 0..n_valid {
            let ino = dec.get_u32()?;
            let page = usize::try_from(dec.get_u64()?)
                .map_err(|_| SnapError::Corrupt("page-cache page"))?;
            sw_valid.insert((ino, page));
        }
        dec.end_section()?;

        dec.begin_section("hier")?;
        let hier = Hierarchy::snap_load(&opts.config.cpu, &mut dec)?;
        dec.end_section()?;

        dec.begin_section("ctrl")?;
        let (ctrl_mode, layout) = ctrl_prelude(&opts, mode);
        let ctrl = MemoryController::snap_load(
            ctrl_mode,
            layout,
            &opts.config.security,
            opts.config.nvm,
            &mut dec,
        )?;
        dec.end_section()?;

        dec.begin_section("fs")?;
        let mut fs = DaxFs::snap_load(&mut dec)?;
        if fs.region() != fs_region(&opts) {
            return Err(SnapError::StateMismatch);
        }
        fs.keyring_mut().snap_load(&mut dec)?;
        let page_cache = PageCacheModel::snap_load(opts.softencr.page_cache_pages, &mut dec)?;
        let pt = PageTable::snap_load(&mut dec)?;
        dec.end_section()?;

        dec.begin_section("tlbs")?;
        let n_tlbs = dec.get_len()?;
        if n_tlbs != cores {
            return Err(SnapError::StateMismatch);
        }
        let mut tlbs = Vec::with_capacity(cores);
        for _ in 0..cores {
            tlbs.push(Tlb::snap_load(TLB_ENTRIES, &mut dec)?);
        }
        dec.end_section()?;

        dec.begin_section("stats")?;
        let baseline = StatsSnapshot::snap_load(&mut dec)?;
        dec.end_section()?;

        dec.finish()?;

        Ok(Machine {
            mode,
            opts,
            hier,
            ctrl,
            fs,
            pt,
            mappings,
            next_map,
            clocks,
            heap_next,
            page_cache,
            sw_valid,
            sw_schedules: fsencr_crypto::ScheduleCache::new(),
            mem_key,
            journal_cursor,
            tlbs,
            baseline,
            persist_scratch: Vec::with_capacity(PAGE_BYTES / LINE_BYTES),
        })
    }

    // ------------------------------------------------------------------
    // Observation (cycle-attribution).
    // ------------------------------------------------------------------

    /// Enables the controller's cycle-attribution observer.
    /// `span_capacity` bounds the per-event span buffer (0 keeps spans
    /// off while still collecting metrics).
    pub fn enable_observer(&mut self, span_capacity: usize) {
        self.ctrl.enable_observer(span_capacity);
    }

    /// The controller's observer (metrics + recorded spans).
    pub fn observer(&self) -> &Observer {
        self.ctrl.observer()
    }

    /// Records a lifecycle event (page fault, key install/remove, shred,
    /// journal record, crash, recovery) as a zero-length `machine` span
    /// on the observer, so it shares one timeline with the datapath
    /// spans. Costs one branch while the observer is disabled.
    fn event(&mut self, name: &'static str, at: Cycle, arg: u64) {
        self.ctrl
            .obs_mut()
            .span("machine", name, at.get(), at.get(), arg);
    }

    // ------------------------------------------------------------------
    // Filesystem operations (kernel + MMIO protocol).
    // ------------------------------------------------------------------

    /// Logs a user in (derives their session KEK).
    pub fn login(&mut self, user: UserId, passphrase: &str) {
        self.fs.login(user, passphrase);
    }

    /// Creates a file; for encrypted files in FsEncr mode the FEK is
    /// installed in the controller's OTT via MMIO.
    ///
    /// # Errors
    ///
    /// Filesystem or spill-region failures.
    pub fn create(
        &mut self,
        user: UserId,
        group: GroupId,
        name: &str,
        mode: Mode,
        passphrase: Option<&str>,
    ) -> Result<FileHandle, MachineError> {
        let handle = self.fs.create(user, group, name, mode, passphrase)?;
        self.journal_op(0, 1)?;
        self.install_handle_key(&handle)?;
        Ok(handle)
    }

    /// Opens a file; re-installs the key in case the OTT lost it across a
    /// reboot.
    ///
    /// # Errors
    ///
    /// Filesystem (permission/passphrase) or spill-region failures.
    pub fn open(
        &mut self,
        user: UserId,
        groups: &[GroupId],
        name: &str,
        access: AccessKind,
        passphrase: Option<&str>,
    ) -> Result<FileHandle, MachineError> {
        let handle = self.fs.open(user, groups, name, access, passphrase)?;
        self.install_handle_key(&handle)?;
        Ok(handle)
    }

    fn install_handle_key(&mut self, handle: &FileHandle) -> Result<(), MachineError> {
        if self.mode == SecurityMode::FsEncr {
            if let Some(fek) = handle.fek {
                let at = self.clocks[0];
                self.event(
                    "key_install",
                    at,
                    file_tag(handle.group.get(), handle.ino.get()),
                );
                self.clocks[0] += MMIO_CYCLES;
                let done = self.ctrl.install_key(
                    self.clocks[0],
                    handle.group.get(),
                    handle.ino.get(),
                    fek,
                )?;
                self.clocks[0] = done;
            }
        }
        Ok(())
    }

    /// Deletes a file: shreds its pages, removes its key from the OTT and
    /// spill region, and unmaps any PTEs.
    ///
    /// # Errors
    ///
    /// Filesystem or metadata failures.
    pub fn unlink(&mut self, user: UserId, name: &str) -> Result<(), MachineError> {
        let un = self.fs.unlink(user, name)?;
        self.journal_op(0, 2)?;
        self.page_cache.flush_file(un.ino); // deleted: no write-back
        self.clocks[0] += MMIO_CYCLES;
        let mut t = self.clocks[0];
        for frame in &un.freed {
            for line in frame.lines() {
                self.hier.clflush(line); // discard: content is being shredded
            }
            if self.mode != SecurityMode::Unencrypted {
                self.event("shred", t, frame.get());
                t = self.ctrl.shred_page(t, *frame)?;
            }
            self.ctrl.clear_file_page(*frame);
            self.pt.unmap_frame(*frame);
        }
        // TLB shootdown: stale translations to freed frames must die.
        for tlb in &mut self.tlbs {
            tlb.flush();
        }
        if un.was_encrypted && self.mode == SecurityMode::FsEncr {
            self.event("key_remove", t, file_tag(un.group.get(), un.ino.get()));
            t = self.ctrl.remove_key(t, un.group.get(), un.ino.get())?;
        }
        self.clocks[0] = t;
        // Mappings pointing at the file become invalid.
        self.mappings.retain(|_, m| m.ino != un.ino);
        Ok(())
    }

    /// Renames a file.
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn rename(&mut self, user: UserId, from: &str, to: &str) -> Result<(), MachineError> {
        self.fs.rename(user, from, to)?;
        self.journal_op(0, 3)
    }

    /// `chmod` passthrough.
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn chmod(&mut self, user: UserId, name: &str, mode: Mode) -> Result<(), MachineError> {
        self.fs.chmod(user, name, mode)?;
        self.journal_op(0, 4)
    }

    /// `chown` (root only), journaled like `chmod`.
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn chown(
        &mut self,
        user: UserId,
        name: &str,
        owner: UserId,
        group: GroupId,
    ) -> Result<(), MachineError> {
        self.fs.chown(user, name, owner, group)?;
        self.journal_op(0, 5)
    }

    /// Rotates a file's key (Section VI): in FsEncr mode every allocated
    /// page is re-encrypted under the new FEK (the eager variant of the
    /// paper's scheme), then the new key replaces the old in the OTT.
    ///
    /// # Errors
    ///
    /// Filesystem failures, or [`MachineError::Unsupported`] in software
    /// mode.
    pub fn rekey(
        &mut self,
        user: UserId,
        name: &str,
        old_passphrase: &str,
        new_passphrase: &str,
    ) -> Result<(), MachineError> {
        if self.mode == SecurityMode::Software {
            return Err(MachineError::Unsupported("rekey under software encryption"));
        }
        let inode = self.fs.stat(name).ok_or(FsError::NotFound)?;
        let ino = inode.ino();
        let group = inode.group();
        let frames: Vec<PageId> = inode.mapped_pages().collect();
        let (_old, new_fek) = self.fs.rekey(user, name, old_passphrase, new_passphrase)?;

        if self.mode == SecurityMode::FsEncr {
            // Flush dirty plaintext so the reads below see current data,
            // then read *everything* under the old key before switching —
            // the key swap is global per (gid, fid).
            self.flush_hierarchy()?;
            let mut t = self.elapsed();
            let mut pages_plain: Vec<(PageId, Vec<[u8; LINE_BYTES]>)> =
                Vec::with_capacity(frames.len());
            for frame in frames {
                let mut page_plain = Vec::with_capacity(64);
                let addrs: Vec<PhysAddr> = frame.lines().map(|l| PhysAddr::new(l.get())).collect();
                t = self.ctrl.read_lines(t, &addrs, &mut page_plain)?;
                pages_plain.push((frame, page_plain));
            }
            t += MMIO_CYCLES;
            t = self.ctrl.install_key(t, group.get(), ino.get(), new_fek)?;
            for (frame, page_plain) in pages_plain {
                let writes: Vec<(PhysAddr, [u8; LINE_BYTES])> = frame
                    .lines()
                    .map(|l| PhysAddr::new(l.get()))
                    .zip(page_plain)
                    .collect();
                t = self.ctrl.write_lines(t, &writes)?;
            }
            self.clocks[0] = self.clocks[0].max(t);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Mapping and data path.
    // ------------------------------------------------------------------

    /// Maps a file into the (single, shared) address space.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; kept fallible for future quota
    /// enforcement.
    pub fn mmap(&mut self, handle: &FileHandle) -> Result<MapId, MachineError> {
        let id = self.next_map;
        self.next_map += 1;
        let base = MAP_BASE + id as u64 * MAP_STRIDE;
        self.mappings.insert(
            id,
            Mapping {
                ino: handle.ino,
                fek: handle.fek,
                base,
                bytes: MAP_STRIDE,
                writable: handle.writable,
            },
        );
        Ok(MapId(id))
    }

    /// Finds an existing mapping of the file at `path` without driving a
    /// single simulated cycle — a host-side inspection for a machine
    /// restored from a snapshot, such as a fault-campaign scenario
    /// reaching the file its base image mapped. Returns the oldest
    /// (lowest-id) live mapping of the file's inode.
    pub fn mapping_of(&self, path: &str) -> Option<MapId> {
        let ino = self.fs.stat(path)?.ino();
        self.lowest_mapping(ino).map(|(id, _)| MapId(id))
    }

    /// The live mapping of `ino` with the lowest map id: a pick among
    /// several mappings of one file that does not depend on hash order.
    fn lowest_mapping(&self, ino: Ino) -> Option<(u32, Mapping)> {
        self.mappings
            .iter()
            .filter(|(_, m)| m.ino == ino)
            .min_by_key(|(&id, _)| id)
            .map(|(&id, &m)| (id, m))
    }

    /// Unmaps a region. In software mode, dirty page-cache pages are
    /// written back first (close semantics).
    ///
    /// # Errors
    ///
    /// Write-back failures in software mode.
    pub fn munmap(&mut self, core: usize, map: MapId) -> Result<(), MachineError> {
        if let Some(m) = self.mappings.get(&map.0).copied() {
            if self.page_cached(&m) {
                let dirty = self.page_cache.flush_file(m.ino);
                self.sw_write_back(core, &m, dirty)?;
            }
        }
        self.mappings.remove(&map.0);
        for tlb in &mut self.tlbs {
            tlb.flush();
        }
        Ok(())
    }

    /// The mapping behind `map`, if the `len` bytes at `offset` lie
    /// inside it.
    fn mapped_range(&self, map: MapId, offset: u64, len: u64) -> Result<Mapping, MachineError> {
        let m = *self.mappings.get(&map.0).ok_or(MachineError::OutOfBounds)?;
        match offset.checked_add(len) {
            Some(end) if end <= m.bytes => Ok(m),
            _ => Err(MachineError::OutOfBounds),
        }
    }

    /// Whether `m`'s pages live in the eCryptfs page cache (an encrypted
    /// file under software encryption) rather than in their DAX frames.
    fn page_cached(&self, m: &Mapping) -> bool {
        self.mode == SecurityMode::Software && m.fek.is_some()
    }

    /// Physical base of the frame backing `page` of a mapping: its
    /// page-cache frame (filled on a miss) or its DAX frame (faulted in
    /// on first touch).
    fn page_base(
        &mut self,
        core: usize,
        m: &Mapping,
        page: usize,
        write: bool,
    ) -> Result<u64, MachineError> {
        if self.page_cached(m) {
            self.sw_touch(core, m, page, write)
        } else {
            Ok(self.resolve_page(core, m, page)?.get() * PAGE_BYTES as u64)
        }
    }

    /// [`Machine::page_base`] without touching anything: the base of the
    /// frame backing `page`, or `None` when the page is not resident.
    fn resident_base(&self, m: &Mapping, page: usize) -> Option<u64> {
        if self.page_cached(m) {
            self.page_cache.frame(m.ino, page)
        } else {
            let vpn = m.base / PAGE_BYTES as u64 + page as u64;
            self.pt
                .pte(vpn)
                .map(|pte| pte.frame.get() * PAGE_BYTES as u64)
        }
    }

    /// Resolves the physical frame backing `page_idx` of a mapping,
    /// faulting it in (allocation + FECB stamp + PTE install) on first
    /// touch.
    fn resolve_page(
        &mut self,
        core: usize,
        m: &Mapping,
        page_idx: usize,
    ) -> Result<PageId, MachineError> {
        let vpn = m.base / PAGE_BYTES as u64 + page_idx as u64;
        // MMU: TLB hit is free (folded into the access); a miss walks the
        // page table before either succeeding or faulting.
        if let Some(pte) = self.tlbs[core].lookup(vpn) {
            return Ok(pte.frame);
        }
        self.advance(core, PAGE_WALK_CYCLES);
        if let Some(pte) = self.pt.pte(vpn) {
            self.tlbs[core].insert(vpn, pte);
            return Ok(pte.frame);
        }
        // Page fault.
        self.clocks[core] += FAULT_CYCLES;
        let pf = self.fs.ensure_page(m.ino, page_idx)?;
        let df = pf.df && self.mode == SecurityMode::FsEncr;
        if df {
            let done = self.ctrl.stamp_file_page(
                self.clocks[core],
                pf.frame,
                pf.group.get(),
                pf.ino.get(),
            )?;
            self.clocks[core] = done;
        }
        self.pt.map(
            vpn,
            Pte {
                frame: pf.frame,
                df,
            },
        );
        self.tlbs[core].insert(
            vpn,
            Pte {
                frame: pf.frame,
                df,
            },
        );
        let at = self.clocks[core];
        self.event("page_fault", at, pf.frame.get());
        if pf.newly_allocated {
            // A recycled inode number must not inherit the software-mode
            // validity of a deleted file's page: the fresh frame is zero.
            self.sw_valid.remove(&(m.ino.get(), page_idx));
            self.journal_op(core, 6)?;
            // The kernel zeroes freshly allocated file blocks *durably*
            // before exposing them (DAX block zeroing uses non-temporal
            // stores + flush): this establishes valid ciphertext for the
            // zero content that survives an immediate crash.
            let now = self.clocks[core];
            for line in pf.frame.lines() {
                self.ctrl
                    .write_line(now, PhysAddr::new(line.get()), &[0u8; LINE_BYTES])?;
                let wbs = self.hier.fill(core, line, [0u8; LINE_BYTES]);
                for wb in &wbs {
                    self.write_back(now, wb)?;
                }
            }
        }
        Ok(pf.frame)
    }

    /// Hands one dirty line evicted or cleaned from the hierarchy to the
    /// controller at `at`. Returns the write's completion time.
    fn write_back(&mut self, at: Cycle, wb: &CacheLine) -> Result<Cycle, MemError> {
        self.ctrl
            .write_line(at, PhysAddr::new(wb.addr.get()), &wb.data)
    }

    /// Loads one line through the hierarchy, fetching from the controller
    /// on a full miss. Returns the line's plaintext.
    fn load_line(&mut self, core: usize, line: LineAddr) -> Result<[u8; LINE_BYTES], MemError> {
        let out = self.hier.load(core, line);
        self.clocks[core] += out.latency;
        let now = self.clocks[core];
        for wb in &out.writebacks {
            self.write_back(now, wb)?;
        }
        match out.data {
            Some(data) => Ok(data),
            None => {
                let (data, done) = self.ctrl.read_line(now, PhysAddr::new(line.get()))?;
                self.clocks[core] = done;
                let wbs = self.hier.fill(core, line, data);
                for wb in &wbs {
                    self.write_back(done, wb)?;
                }
                Ok(data)
            }
        }
    }

    /// Stores one full line through the hierarchy (write-allocate, no
    /// fetch). Write-backs are posted.
    fn store_line(
        &mut self,
        core: usize,
        line: LineAddr,
        data: [u8; LINE_BYTES],
    ) -> Result<(), MemError> {
        let (_hit, latency, wbs) = self.hier.store(core, line, data);
        self.clocks[core] += latency;
        let now = self.clocks[core];
        for wb in &wbs {
            self.write_back(now, wb)?;
        }
        Ok(())
    }

    /// Byte-granular read of `buf.len()` bytes at physical address `base`.
    fn read_bytes(&mut self, core: usize, base: u64, buf: &mut [u8]) -> Result<(), MemError> {
        for (line, in_line, span) in spans::<LINE_BYTES>(base, buf.len()) {
            let data = self.load_line(core, LineAddr::new(line * LINE_BYTES as u64))?;
            let take = span.len();
            buf[span].copy_from_slice(&data[in_line..in_line + take]);
        }
        Ok(())
    }

    /// Byte-granular write of `data` at physical address `base`
    /// (read-modify-write for partial lines, allocate-no-fetch for full
    /// lines).
    fn write_bytes(&mut self, core: usize, base: u64, data: &[u8]) -> Result<(), MemError> {
        for (line, in_line, span) in spans::<LINE_BYTES>(base, data.len()) {
            let line = LineAddr::new(line * LINE_BYTES as u64);
            let take = span.len();
            let mut merged = if take == LINE_BYTES {
                [0u8; LINE_BYTES]
            } else {
                self.load_line(core, line)?
            };
            merged[in_line..in_line + take].copy_from_slice(&data[span]);
            self.store_line(core, line, merged)?;
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes from a mapped file at `offset`.
    ///
    /// # Errors
    ///
    /// Mapping, filesystem, or memory-path failures;
    /// [`MachineError::OutOfBounds`] when the range leaves the mapping.
    pub fn read(
        &mut self,
        core: usize,
        map: MapId,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<(), MachineError> {
        let m = self.mapped_range(map, offset, buf.len() as u64)?;
        for (page, in_page, span) in spans::<PAGE_BYTES>(offset, buf.len()) {
            let page = usize::try_from(page).map_err(|_| MachineError::OutOfBounds)?;
            let base = self.page_base(core, &m, page, false)?;
            self.read_bytes(core, base + in_page as u64, &mut buf[span])?;
        }
        Ok(())
    }

    /// Writes `data` to a mapped file at `offset`.
    ///
    /// # Errors
    ///
    /// Mapping, filesystem, or memory-path failures;
    /// [`MachineError::OutOfBounds`] when the range leaves the mapping.
    pub fn write(
        &mut self,
        core: usize,
        map: MapId,
        offset: u64,
        data: &[u8],
    ) -> Result<(), MachineError> {
        let m = self.mapped_range(map, offset, data.len() as u64)?;
        if !m.writable {
            return Err(MachineError::Fs(FsError::PermissionDenied));
        }
        for (page, in_page, span) in spans::<PAGE_BYTES>(offset, data.len()) {
            let page = usize::try_from(page).map_err(|_| MachineError::OutOfBounds)?;
            let base = self.page_base(core, &m, page, true)?;
            self.write_bytes(core, base + in_page as u64, &data[span])?;
        }
        self.fs.grow(m.ino, offset + data.len() as u64);
        Ok(())
    }

    /// Persists a mapped range: `clwb` every covered resident line, then
    /// a fence. Under DAX the core waits for the write completions — this
    /// is where write-intensive persistent workloads feel the encryption
    /// overhead.
    ///
    /// # Errors
    ///
    /// Mapping or memory-path failures;
    /// [`MachineError::OutOfBounds`] when the range leaves the mapping.
    pub fn persist(
        &mut self,
        core: usize,
        map: MapId,
        offset: u64,
        len: u64,
    ) -> Result<(), MachineError> {
        // Persist barriers are the power-cut trigger points of the fault
        // model: an armed injector counts them and may drop power here,
        // before any of this barrier's write-backs reach the media. One
        // branch when disarmed.
        if let Some(inj) = self.ctrl.fault_injector_mut() {
            inj.on_barrier();
        }
        let m = self.mapped_range(map, offset, len)?;
        let len = usize::try_from(len).map_err(|_| MachineError::OutOfBounds)?;
        // `clwb` never touches the controller and every write-back is
        // issued at the same fence-pending clock, so the evictions are
        // collected first and fanned out as one region write.
        let mut scratch = std::mem::take(&mut self.persist_scratch);
        scratch.clear();
        for (page, in_page, span) in spans::<PAGE_BYTES>(offset, len) {
            let page = usize::try_from(page).map_err(|_| MachineError::OutOfBounds)?;
            let Some(base) = self.resident_base(&m, page) else {
                continue;
            };
            for (line, _, _) in spans::<LINE_BYTES>(base + in_page as u64, span.len()) {
                if let Some(wb) = self.hier.clwb(LineAddr::new(line * LINE_BYTES as u64)) {
                    scratch.push((PhysAddr::new(wb.addr.get()), wb.data));
                }
            }
        }
        let res = self.ctrl.write_lines_at(self.clocks[core], &scratch);
        scratch.clear();
        self.persist_scratch = scratch;
        let done = res?;
        // `clwb` on a page-cache frame flushes the DRAM copy only — it is
        // NOT durable, triggers no encryption and the core does not wait
        // for it. This is the broken persistence model the paper warns
        // about; durability requires an explicit [`Machine::msync`].
        if !self.page_cached(&m) {
            self.clocks[core] = done;
        }
        self.clocks[core] += FENCE_CYCLES;
        Ok(())
    }

    /// Durable sync (`msync`/`fsync`): in software mode this is where the
    /// stacked filesystem encrypts dirty pages and writes them back; in
    /// DAX modes it is equivalent to [`Machine::persist`].
    ///
    /// # Errors
    ///
    /// Mapping or memory-path failures;
    /// [`MachineError::OutOfBounds`] when the range leaves the mapping.
    pub fn msync(
        &mut self,
        core: usize,
        map: MapId,
        offset: u64,
        len: u64,
    ) -> Result<(), MachineError> {
        let m = self.mapped_range(map, offset, len)?;
        if !self.page_cached(&m) {
            return self.persist(core, map, offset, len);
        }
        self.advance(core, self.opts.softencr.syscall_cycles);
        let dirty = self.page_cache.clean_file(m.ino);
        self.sw_write_back(core, &m, dirty)?;
        self.clocks[core] += FENCE_CYCLES;
        Ok(())
    }

    /// Charges the cost of one file-API system call *if* the machine runs
    /// software encryption — syscall-driven applications (e.g. YCSB's
    /// storage engine) traverse the kernel and the stacked eCryptfs layer
    /// per operation, while under DAX they use direct loads/stores.
    pub fn syscall_overhead(&mut self, core: usize) {
        if self.mode == SecurityMode::Software {
            self.advance(core, self.opts.softencr.syscall_cycles);
        }
    }

    // ------------------------------------------------------------------
    // Heap (general, non-file memory).
    // ------------------------------------------------------------------

    /// Reads from general memory.
    ///
    /// # Errors
    ///
    /// Memory-path failures.
    pub fn heap_read(
        &mut self,
        core: usize,
        addr: u64,
        buf: &mut [u8],
    ) -> Result<(), MachineError> {
        Ok(self.read_bytes(core, addr, buf)?)
    }

    /// Writes to general memory.
    ///
    /// # Errors
    ///
    /// Memory-path failures.
    pub fn heap_write(&mut self, core: usize, addr: u64, data: &[u8]) -> Result<(), MachineError> {
        Ok(self.write_bytes(core, addr, data)?)
    }

    // ------------------------------------------------------------------
    // Software-encryption (eCryptfs) path.
    // ------------------------------------------------------------------

    #[expect(
        clippy::disallowed_methods,
        reason = "eCryptfs comparator mints counterless pads by design"
    )]
    fn sw_pad(&mut self, fek: Key128, frame: PageId, block: u8) -> [u8; LINE_BYTES] {
        let aes = self.sw_schedules.get(&fek);
        ctr::line_pad_with(
            aes,
            &PadInput {
                page_id: frame.get(),
                block_in_page: block,
                major: 0,
                minor: 0,
                domain: PadDomain::File,
            },
        )
    }

    /// Moves one file page between its DAX `frame` and its page-cache
    /// frame at `pc_base` through eCryptfs's software crypto: a fill
    /// decrypts the file frame into the page cache; a write-back encrypts
    /// the page-cache copy into the file frame and `clwb`s each line. The
    /// write-back is *posted*: fsync waits until the stores reach the
    /// persistence domain (the controller), not until the PCM array
    /// commits.
    ///
    /// The copy streams at memcpy speed: the functional loads and stores
    /// move the bytes (and count as NVM traffic), but the core-visible
    /// time is the streaming-copy constant plus the software crypto, not
    /// 64 serialized miss latencies.
    fn sw_copy_page(
        &mut self,
        core: usize,
        m: &Mapping,
        frame: PageId,
        pc_base: u64,
        write_back: bool,
    ) -> Result<(), MachineError> {
        let fek = m.fek.ok_or(MachineError::Unsupported(
            "software crypto on an unencrypted file",
        ))?;
        let file_base = frame.get() * PAGE_BYTES as u64;
        let (src, dst) = if write_back {
            (pc_base, file_base)
        } else {
            (file_base, pc_base)
        };
        let t0 = self.clocks[core];
        for (blk, off) in (0u8..).zip((0..PAGE_BYTES as u64).step_by(LINE_BYTES)) {
            let mut data = self.load_line(core, LineAddr::new(src + off))?;
            ctr::xor_in_place(&mut data, &self.sw_pad(fek, frame, blk));
            let dst_line = LineAddr::new(dst + off);
            self.store_line(core, dst_line, data)?;
            if write_back {
                if let Some(wb) = self.hier.clwb(dst_line) {
                    self.write_back(self.clocks[core], &wb)?;
                }
            }
        }
        self.clocks[core] = t0 + PAGE_COPY_CYCLES;
        self.advance(core, self.opts.softencr.page_crypt_cycles());
        Ok(())
    }

    /// Writes the `(page, page-cache frame)` pairs of `m`'s file back to
    /// their DAX frames; each becomes valid ciphertext on media.
    fn sw_write_back(
        &mut self,
        core: usize,
        m: &Mapping,
        pages: impl IntoIterator<Item = (usize, u64)>,
    ) -> Result<(), MachineError> {
        for (page, pc_base) in pages {
            let frame = self.resolve_page(core, m, page)?;
            self.sw_copy_page(core, m, frame, pc_base, true)?;
            self.sw_valid.insert((m.ino.get(), page));
        }
        Ok(())
    }

    /// The page-cache frame of `page`: a miss writes a dirty victim back
    /// and fills the page from its DAX frame.
    fn sw_touch(
        &mut self,
        core: usize,
        m: &Mapping,
        page: usize,
        write: bool,
    ) -> Result<u64, MachineError> {
        // A miss with no released frame bump-allocates general memory.
        let outcome = self
            .page_cache
            .touch(m.ino, page, write, || {
                let frame = self.heap_next;
                let end = frame
                    .checked_add(PAGE_BYTES as u64)
                    .filter(|&end| end <= self.opts.general_bytes)?;
                self.heap_next = end;
                Some(frame)
            })
            .ok_or(MachineError::Fs(FsError::NoSpace))?;
        if let Some((v_ino, v_page, true, v_frame)) = outcome.evicted {
            // The victim belongs to some open mapping of v_ino; with
            // several, the lowest map id pays the write-back.
            if let Some((_, vm)) = self.lowest_mapping(v_ino) {
                self.sw_write_back(core, &vm, [(v_page, v_frame)])?;
            }
        }
        if outcome.fill {
            let frame = self.resolve_page(core, m, page)?;
            self.advance(core, self.opts.softencr.fill_overhead_cycles);
            if self.sw_valid.contains(&(m.ino.get(), page)) {
                self.sw_copy_page(core, m, frame, outcome.frame, false)?;
            } else {
                // Hole / fresh block: reads as zeroes without touching media.
                self.write_bytes(core, outcome.frame, &[0u8; PAGE_BYTES])?;
            }
        }
        Ok(outcome.frame)
    }

    fn fs_meta_base(&self) -> u64 {
        self.opts.general_bytes
    }

    /// Writes one journal record for a metadata-mutating operation —
    /// ext4-DAX journals metadata synchronously, so every create/unlink/
    /// chmod/chown/rename/extent-allocation pays a small durable write.
    /// `op` is the record's code: 1 create, 2 unlink, 3 rename, 4 chmod,
    /// 5 chown, 6 extent allocation.
    fn journal_op(&mut self, core: usize, op: u8) -> Result<(), MachineError> {
        self.advance(core, JOURNAL_CYCLES);
        let ring_base = self.fs_meta_base() + FS_IMAGE_PAGES * PAGE_BYTES as u64;
        let ring_lines = (FS_META_PAGES - FS_IMAGE_PAGES) * (PAGE_BYTES / LINE_BYTES) as u64;
        let line =
            LineAddr::new(ring_base + (self.journal_cursor % ring_lines) * LINE_BYTES as u64);
        self.journal_cursor += 1;
        let at = self.elapsed();
        self.event("journal", at, u64::from(op));
        let mut record = [0u8; LINE_BYTES];
        record[0] = op;
        record[1..9].copy_from_slice(&self.journal_cursor.to_le_bytes());
        record[9..17].copy_from_slice(&self.elapsed().get().to_le_bytes());
        self.store_line(core, line, record)?;
        if let Some(wb) = self.hier.clwb(line) {
            let done = self.write_back(self.clocks[core], &wb)?;
            self.clocks[core] = self.clocks[core].max(done) + FENCE_CYCLES;
        }
        Ok(())
    }

    /// Writes [`DaxFs::image`] into its reserved on-media area (the
    /// `umount`-time full image; incremental durability between syncs
    /// comes from the journal). The image holds no session keys.
    ///
    /// # Errors
    ///
    /// [`FsError::NoSpace`] when the image outgrows the reserved area
    /// (nothing is written), or memory-path failures.
    pub fn sync_fs(&mut self, core: usize) -> Result<(), MachineError> {
        let image = self.fs.image();
        if image.len() as u64 > FS_IMAGE_CAPACITY {
            return Err(FsError::NoSpace.into());
        }
        let base = self.fs_meta_base();
        self.heap_write(core, base, &(image.len() as u64).to_le_bytes())?;
        self.heap_write(core, base + 64, &image)?;
        // Persist the whole image range.
        let mut fence_at = self.clocks[core];
        for (line, _, _) in spans::<LINE_BYTES>(base, 64 + image.len()) {
            if let Some(wb) = self.hier.clwb(LineAddr::new(line * LINE_BYTES as u64)) {
                fence_at = fence_at.max(self.write_back(self.clocks[core], &wb)?);
            }
        }
        self.clocks[core] = fence_at + FENCE_CYCLES;
        Ok(())
    }

    /// Mounts the filesystem from its on-media image, replacing the
    /// in-memory state (used after module transfer, and usable after a
    /// crash to prove the image is self-contained). Users log in again
    /// afterwards.
    ///
    /// # Errors
    ///
    /// [`FsError::InvalidArgument`] when no image was synced,
    /// [`MachineError::Image`] for a torn, foreign or corrupt one, or
    /// memory-path failures.
    pub fn mount_fs(&mut self, core: usize) -> Result<(), MachineError> {
        let base = self.fs_meta_base();
        let mut len_bytes = [0u8; 8];
        self.heap_read(core, base, &mut len_bytes)?;
        let len = usize::try_from(u64::from_le_bytes(len_bytes)).unwrap_or(0);
        if len == 0 || len as u64 > FS_IMAGE_CAPACITY {
            return Err(MachineError::Fs(FsError::InvalidArgument(
                "no filesystem image on media",
            )));
        }
        let mut image = vec![0u8; len];
        self.heap_read(core, base + 64, &mut image)?;
        let fs = DaxFs::from_image(&image).map_err(MachineError::Image)?;
        if fs.region() != fs_region(&self.opts) {
            return Err(MachineError::Image(SnapError::StateMismatch));
        }
        self.fs = fs;
        Ok(())
    }

    /// Copies `src` into a new encrypted file `dst` *through the
    /// processor* (Section VI, "Copying or Moving Files Within Same
    /// Device"): every line is decrypted on the way in and re-encrypted
    /// under the destination's own key and counters on the way out, so
    /// spatial uniqueness of the IVs is preserved and no pad is ever
    /// reused.
    ///
    /// # Errors
    ///
    /// Filesystem or memory-path failures.
    #[allow(clippy::too_many_arguments)] // mirrors the full open()+create() surface
    pub fn copy_file(
        &mut self,
        core: usize,
        user: UserId,
        groups: &[GroupId],
        src: &str,
        dst: &str,
        src_passphrase: Option<&str>,
        dst_passphrase: Option<&str>,
    ) -> Result<FileHandle, MachineError> {
        let src_handle = self.open(user, groups, src, AccessKind::Read, src_passphrase)?;
        let (size, group) = {
            let inode = self.fs.inode(src_handle.ino).ok_or(FsError::NotFound)?;
            (inode.size(), inode.group())
        };
        let dst_handle = self.create(user, group, dst, Mode::PRIVATE, dst_passphrase)?;
        let src_map = self.mmap(&src_handle)?;
        let dst_map = self.mmap(&dst_handle)?;
        let mut buf = vec![0u8; PAGE_BYTES];
        let mut off = 0u64;
        while off < size {
            let take = usize::try_from(size - off).map_or(PAGE_BYTES, |left| left.min(PAGE_BYTES));
            self.read(core, src_map, off, &mut buf[..take])?;
            self.write(core, dst_map, off, &buf[..take])?;
            self.persist(core, dst_map, off, take as u64)?;
            off += take as u64;
        }
        self.munmap(core, src_map)?;
        self.munmap(core, dst_map)?;
        Ok(dst_handle)
    }

    /// Exports this machine's NVM module for transfer to another machine
    /// (Section VI): flushes everything, spills the OTT, and splits the
    /// machine into the physically travelling parts and the secret
    /// envelope.
    ///
    /// # Errors
    ///
    /// Flush failures.
    pub fn export_module(mut self) -> Result<(ModuleEnvelope, TransferredModule), MachineError> {
        self.shutdown_flush()?;
        let envelope = self.ctrl.export_module(self.elapsed())?;
        let (nvm, ecc) = self.ctrl.into_media();
        Ok((
            envelope,
            TransferredModule {
                nvm,
                ecc,
                opts: self.opts,
            },
        ))
    }

    /// Builds a machine around a transferred module on a *new* processor,
    /// authenticating the media against the envelope's root digest.
    ///
    /// # Errors
    ///
    /// [`crate::IntegrityError::Tamper`] (wrapped in
    /// [`MemError::Integrity`]) if the module was modified in transit.
    pub fn import_module(
        envelope: &ModuleEnvelope,
        module: TransferredModule,
    ) -> Result<Self, MachineError> {
        let opts = module.opts;
        let (_, layout) = ctrl_prelude(&opts, SecurityMode::FsEncr);
        let ctrl = MemoryController::import_module(
            layout,
            &opts.config.security,
            envelope,
            module.nvm,
            module.ecc,
        )?;
        // `assemble` formats a placeholder filesystem; the real state is
        // mounted from the on-media image below.
        let mut machine = Machine::assemble(SecurityMode::FsEncr, opts, ctrl, envelope.mem_key);
        machine.mount_fs(0)?;
        Ok(machine)
    }

    // ------------------------------------------------------------------
    // Lifecycle: shutdown, crash, recovery.
    // ------------------------------------------------------------------

    fn flush_hierarchy(&mut self) -> Result<(), MemError> {
        let dirty = self.hier.flush_all();
        let mut t = self.elapsed();
        for wb in &dirty {
            t = self.write_back(t, wb)?;
        }
        for c in &mut self.clocks {
            *c = t.max(*c);
        }
        Ok(())
    }

    /// Clean shutdown: flushes caches and metadata.
    ///
    /// # Errors
    ///
    /// Memory-path failures during the flush.
    pub fn shutdown_flush(&mut self) -> Result<(), MachineError> {
        self.sync_fs(0)?;
        self.flush_hierarchy()?;
        let t = self.ctrl.flush(self.elapsed());
        for c in &mut self.clocks {
            *c = t;
        }
        Ok(())
    }

    /// Power loss: all volatile state (CPU caches, metadata cache, page
    /// cache) vanishes; page tables and mappings die with the processes.
    pub fn crash(&mut self) {
        let at = self.elapsed();
        self.event("crash", at, 0);
        self.hier.drop_all();
        self.ctrl.crash();
        // The page cache's frames die with it; its allocator starts over.
        self.page_cache = PageCacheModel::new(self.opts.softencr.page_cache_pages);
        self.heap_next = PAGE_BYTES as u64;
        self.pt = PageTable::new();
        self.mappings.clear();
        for tlb in &mut self.tlbs {
            tlb.flush();
        }
    }

    /// Post-crash recovery: Osiris counter repair + Merkle rebuild.
    pub fn recover(&mut self) -> RecoveryReport {
        let report = self.ctrl.recover();
        let at = self.elapsed();
        self.event("recover", at, report.unrecoverable);
        report
    }
}
