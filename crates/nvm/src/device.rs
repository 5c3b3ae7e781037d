//! The assembled NVM device: contents plus timing plus statistics.

use fsencr_faults::FaultInjector;
use fsencr_sim::{config::NvmConfig, Counter, Cycle};

use crate::addr::{LineAddr, PhysAddr, LINE_BYTES};
use crate::error::NvmError;
use crate::storage::Storage;
use crate::timing::{AccessKind, BankTiming};
use crate::wear::WearTracker;

/// Access counters reported by the device.
///
/// "Number of reads/writes" in Figures 9, 10, 13 and 14 of the paper are
/// exactly these counters — every 64-byte burst that reaches the DIMM,
/// whether it carries data, encryption counters, Merkle nodes or spilled
/// OTT entries.
#[derive(Debug, Clone, Copy, Default)]
pub struct NvmStats {
    /// 64-byte read bursts served.
    pub reads: Counter,
    /// 64-byte write bursts served.
    pub writes: Counter,
}

/// A PCM DIMM: sparse contents, bank timing, and access counters.
///
/// # Examples
///
/// ```
/// use fsencr_nvm::{NvmDevice, PhysAddr, LINE_BYTES};
/// use fsencr_sim::{config::NvmConfig, Cycle};
///
/// let mut nvm = NvmDevice::new(NvmConfig::default());
/// let addr = PhysAddr::new(4096);
/// nvm.write_line(Cycle::ZERO, addr, &[1u8; LINE_BYTES]);
/// assert_eq!(nvm.stats().writes.get(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct NvmDevice {
    storage: Storage,
    timing: BankTiming,
    stats: NvmStats,
    wear: WearTracker,
    capacity_bytes: u64,
    /// Armed fault injector, if any. `None` (the default) costs exactly
    /// one branch per timed line access; peeks and pokes bypass it so
    /// recovery's media inspection and test plumbing stay undistorted.
    faults: Option<Box<FaultInjector>>,
}

impl NvmDevice {
    /// Creates a device with the given configuration.
    pub fn new(cfg: NvmConfig) -> Self {
        NvmDevice {
            storage: Storage::new(),
            timing: BankTiming::new(cfg),
            stats: NvmStats::default(),
            wear: WearTracker::new(),
            capacity_bytes: cfg.capacity_bytes,
            faults: None,
        }
    }

    /// Reads one line, returning its contents and the completion time.
    ///
    /// # Panics
    ///
    /// Panics if the address is beyond the configured capacity.
    pub fn read_line(&mut self, now: Cycle, addr: PhysAddr) -> ([u8; LINE_BYTES], Cycle) {
        let line = self.checked_line(addr);
        self.stats.reads.incr();
        let done = self.timing.access(now, line, AccessKind::Read);
        let mut data = self.storage.read_line_hot(line);
        if self.faults.is_some() {
            self.faulted_read(line, &mut data);
        }
        (data, done)
    }

    /// Writes one line, returning the completion time. Raw: callers
    /// outside this crate are the memory controller's encrypt path and
    /// the metadata engine, each under an audited
    /// `#[expect(clippy::disallowed_methods)]`.
    ///
    /// # Panics
    ///
    /// Panics if the address is beyond the configured capacity.
    pub fn write_line(&mut self, now: Cycle, addr: PhysAddr, data: &[u8; LINE_BYTES]) -> Cycle {
        let line = self.checked_line(addr);
        self.stats.writes.incr();
        self.wear.record(line);
        let done = self.timing.access(now, line, AccessKind::Write);
        if self.faults.is_some() {
            self.faulted_write(line, data);
        } else {
            self.storage.write_line(line, data);
        }
        done
    }

    /// Slow path of [`NvmDevice::read_line`] with an injector armed:
    /// applies planned bit-rot and persists the decayed bytes, so the
    /// flip sticks exactly like retention loss on real media.
    fn faulted_read(&mut self, line: LineAddr, data: &mut [u8; LINE_BYTES]) {
        if let Some(inj) = self.faults.as_deref_mut() {
            if inj.on_read(line.get(), data) {
                self.storage.write_line(line, data);
            }
        }
    }

    /// Slow path of [`NvmDevice::write_line`] with an injector armed:
    /// consults the injector for suppression (power lost, torn-region
    /// tail) and registers newly worn stuck-at cells with the storage
    /// overlay before storing. Timing, stats, and wear have already
    /// accrued — the bus transaction happened either way.
    fn faulted_write(&mut self, line: LineAddr, data: &[u8; LINE_BYTES]) {
        let mut buf = *data;
        let Some(inj) = self.faults.as_deref_mut() else {
            return;
        };
        let outcome = inj.on_write(line.get(), &mut buf);
        if let Some(mask) = outcome.stuck {
            self.storage.stuck_cells_mut().add(line.get(), mask);
        }
        if !outcome.suppress {
            self.storage.write_line(line, &buf);
        }
    }

    /// Validates an address against the device capacity without touching
    /// timing or statistics — the value-typed twin of the panicking
    /// check inside [`NvmDevice::read_line`] / [`NvmDevice::write_line`].
    pub fn check_addr(&self, addr: PhysAddr) -> Result<LineAddr, NvmError> {
        let stripped = addr.strip_df().get();
        if stripped < self.capacity_bytes {
            Ok(addr.line())
        } else {
            Err(NvmError::OutOfRange {
                addr: stripped,
                capacity: self.capacity_bytes,
            })
        }
    }

    /// Arms (or, with `None`, disarms) a fault injector. Disarming also
    /// heals the storage wear-out overlay, restoring a pristine device.
    pub fn set_fault_injector(&mut self, injector: Option<FaultInjector>) {
        if injector.is_none() {
            self.storage.set_stuck_cells(None);
        }
        self.faults = injector.map(Box::new);
    }

    /// The armed fault injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.faults.as_deref()
    }

    /// Mutable access to the armed fault injector, if any (region and
    /// barrier hooks in the layers above report through this).
    pub fn fault_injector_mut(&mut self) -> Option<&mut FaultInjector> {
        self.faults.as_deref_mut()
    }

    fn checked_line(&self, addr: PhysAddr) -> LineAddr {
        let stripped = addr.strip_df().get();
        assert!(
            stripped < self.capacity_bytes,
            "address {stripped:#x} beyond device capacity {:#x}",
            self.capacity_bytes
        );
        addr.line()
    }

    /// Zero-time peek at the raw media — what a physical attacker sees.
    /// Does not disturb timing or statistics.
    pub fn peek_line(&self, addr: PhysAddr) -> [u8; LINE_BYTES] {
        self.storage.read_line(addr.line())
    }

    /// Zero-time raw write: the tampering attacker, crash recovery and
    /// test fixtures. Does not disturb timing or statistics. Like
    /// [`NvmDevice::write_line`], clippy rejects it outside this crate
    /// except under an audited `#[expect(clippy::disallowed_methods)]`.
    pub fn poke_line(&mut self, addr: PhysAddr, data: &[u8; LINE_BYTES]) {
        self.storage.write_line(addr.line(), data);
    }

    /// Direct access to the underlying byte store (media-level inspection).
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Access counters.
    pub fn stats(&self) -> &NvmStats {
        &self.stats
    }

    /// Row-buffer hits observed by the timing model.
    pub fn row_hits(&self) -> u64 {
        self.timing.row_hits()
    }

    /// Row-buffer misses observed by the timing model.
    pub fn row_misses(&self) -> u64 {
        self.timing.row_misses()
    }

    /// Configured capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Write-endurance accounting (per-page write counts).
    pub fn wear(&self) -> &WearTracker {
        &self.wear
    }

    /// Serializes media contents, bank timing, access counters and wear.
    /// Fails while a fault injector is armed: campaign scaffolding is
    /// host state and must be disarmed before checkpointing.
    pub fn snap_save(
        &self,
        enc: &mut fsencr_snapshot::Enc,
    ) -> Result<(), fsencr_snapshot::SnapError> {
        if self.faults.is_some() {
            return Err(fsencr_snapshot::SnapError::InjectorArmed);
        }
        self.storage.snap_save(enc)?;
        self.timing.snap_save(enc);
        enc.put_u64(self.stats.reads.get());
        enc.put_u64(self.stats.writes.get());
        self.wear.snap_save(enc);
        enc.put_u64(self.capacity_bytes);
        Ok(())
    }

    /// Restores a device for `cfg` from [`NvmDevice::snap_save`] bytes.
    /// No injector is armed on the restored device.
    pub fn snap_load(
        cfg: NvmConfig,
        dec: &mut fsencr_snapshot::Dec<'_>,
    ) -> Result<NvmDevice, fsencr_snapshot::SnapError> {
        let storage = Storage::snap_load(dec)?;
        let timing = BankTiming::snap_load(cfg, dec)?;
        let mut stats = NvmStats::default();
        stats.reads.add(dec.get_u64()?);
        stats.writes.add(dec.get_u64()?);
        let wear = WearTracker::snap_load(dec)?;
        let capacity_bytes = dec.get_u64()?;
        if capacity_bytes != cfg.capacity_bytes {
            return Err(fsencr_snapshot::SnapError::StateMismatch);
        }
        Ok(NvmDevice {
            storage,
            timing,
            stats,
            wear,
            capacity_bytes,
            faults: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> NvmDevice {
        NvmDevice::new(NvmConfig::default())
    }

    #[test]
    fn read_returns_written_data_and_advances_time() {
        let mut nvm = device();
        let addr = PhysAddr::new(64 * 100);
        let data = [0x5au8; LINE_BYTES];
        let t1 = nvm.write_line(Cycle::ZERO, addr, &data);
        assert!(t1 > Cycle::ZERO);
        let (read, t2) = nvm.read_line(t1, addr);
        assert_eq!(read, data);
        assert!(t2 > t1);
    }

    #[test]
    fn stats_count_bursts() {
        let mut nvm = device();
        let addr = PhysAddr::new(0);
        nvm.write_line(Cycle::ZERO, addr, &[0u8; LINE_BYTES]);
        nvm.read_line(Cycle::ZERO, addr);
        nvm.read_line(Cycle::ZERO, addr);
        assert_eq!(nvm.stats().writes.get(), 1);
        assert_eq!(nvm.stats().reads.get(), 2);
        assert_eq!(nvm.row_hits() + nvm.row_misses(), 3);
    }

    #[test]
    fn peek_and_poke_bypass_timing() {
        let mut nvm = device();
        let addr = PhysAddr::new(4096);
        nvm.poke_line(addr, &[9u8; LINE_BYTES]);
        assert_eq!(nvm.peek_line(addr), [9u8; LINE_BYTES]);
        assert_eq!(nvm.stats().reads.get(), 0);
        assert_eq!(nvm.stats().writes.get(), 0);
    }

    #[test]
    fn df_bit_stripped_before_media() {
        let mut nvm = device();
        let plain = PhysAddr::new(8192);
        nvm.write_line(Cycle::ZERO, plain.with_df(), &[3u8; LINE_BYTES]);
        assert_eq!(nvm.peek_line(plain), [3u8; LINE_BYTES]);
    }

    #[test]
    #[should_panic(expected = "beyond device capacity")]
    fn capacity_is_enforced() {
        let mut nvm = device();
        nvm.read_line(Cycle::ZERO, PhysAddr::new(17 << 30));
    }

    #[test]
    fn check_addr_is_the_typed_capacity_check() {
        let nvm = device();
        assert!(nvm.check_addr(PhysAddr::new(4096)).is_ok());
        assert!(matches!(
            nvm.check_addr(PhysAddr::new(17 << 30)),
            Err(crate::NvmError::OutOfRange { .. })
        ));
    }

    #[test]
    fn armed_injector_applies_rot_and_suppression_but_not_peeks() {
        use fsencr_faults::plan::RotEvent;
        use fsencr_faults::{FaultInjector, FaultPlan};

        let mut nvm = device();
        let addr = PhysAddr::new(4096);
        nvm.write_line(Cycle::ZERO, addr, &[0u8; LINE_BYTES]);

        let mut plan = FaultPlan::empty();
        plan.rot.push(RotEvent {
            read_index: 0,
            byte: 0,
            bit: 0,
        });
        plan.cuts.push(0);
        nvm.set_fault_injector(Some(FaultInjector::new(plan)));

        // Peek bypasses the injector; the timed read decays the line...
        assert_eq!(nvm.peek_line(addr), [0u8; LINE_BYTES]);
        let (rotted, _) = nvm.read_line(Cycle::ZERO, addr);
        assert_eq!(rotted[0], 1);
        // ...and the decay is persistent on the media.
        assert_eq!(nvm.peek_line(addr)[0], 1);

        // Power cut at barrier 0: subsequent timed writes are dropped,
        // but stats and wear still accrue.
        let writes_before = nvm.stats().writes.get();
        if let Some(inj) = nvm.fault_injector_mut() {
            assert!(inj.on_barrier());
        }
        nvm.write_line(Cycle::ZERO, addr, &[0xffu8; LINE_BYTES]);
        assert_eq!(nvm.peek_line(addr)[1], 0);
        assert_eq!(nvm.stats().writes.get(), writes_before + 1);

        // Disarming restores the plain datapath.
        let events = nvm
            .fault_injector_mut()
            .map(|i| i.take_events())
            .unwrap_or_default();
        assert_eq!(events.len(), 2);
        nvm.set_fault_injector(None);
        nvm.write_line(Cycle::ZERO, addr, &[0xffu8; LINE_BYTES]);
        assert_eq!(nvm.peek_line(addr), [0xffu8; LINE_BYTES]);
    }

    #[test]
    fn stuck_cells_overlay_forces_bits_even_for_pokes() {
        use fsencr_faults::StuckMask;

        let mut nvm = device();
        let addr = PhysAddr::new(8192);
        nvm.storage.stuck_cells_mut().add(
            addr.line().get(),
            StuckMask {
                byte: 3,
                bit: 0,
                value: true,
            },
        );
        nvm.poke_line(addr, &[0u8; LINE_BYTES]);
        assert_eq!(nvm.peek_line(addr)[3], 1);
        nvm.write_line(Cycle::ZERO, addr, &[0u8; LINE_BYTES]);
        assert_eq!(nvm.peek_line(addr)[3], 1);
        nvm.storage.set_stuck_cells(None);
        nvm.poke_line(addr, &[0u8; LINE_BYTES]);
        assert_eq!(nvm.peek_line(addr)[3], 0);
    }
}
