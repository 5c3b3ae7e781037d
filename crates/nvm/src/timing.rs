//! Bank-level PCM timing with the RoRaBaChCo address mapping.
//!
//! Table III specifies 2 ranks/channel, 8 banks/rank, a 1 KiB row buffer,
//! the open-adaptive page policy and RoRaBaChCo address interleaving. The
//! model charges, per access:
//!
//! * **row-buffer hit** — `tCL + tBURST`;
//! * **row-buffer miss** — close the old row (a dirty PCM row buffer pays
//!   the 150 ns array write) + `tRCD` + the 60 ns PCM array read + `tCL +
//!   tBURST`;
//! * **write recovery** — writes additionally occupy the bank for `tWR`
//!   after the burst, which is how write-intensive workloads back-pressure.
//!
//! The open-adaptive policy keeps rows open while they are hitting and
//! switches a bank to closed-page operation after a streak of misses, which
//! removes the dirty-row close from the critical path of streaming writes.

use fsencr_sim::{config::NvmConfig, Cycle, Resource};

use crate::addr::LineAddr;

/// Whether an access reads or writes the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A 64-byte read burst.
    Read,
    /// A 64-byte write burst.
    Write,
}

/// Decoded RoRaBaChCo coordinates of a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BankCoord {
    /// Flat bank index across channels and ranks.
    pub bank: usize,
    /// Row within the bank.
    pub row: u64,
}

#[derive(Debug, Clone)]
struct BankState {
    server: Resource,
    open_row: Option<u64>,
    dirty: bool,
    miss_streak: u32,
    closed_mode: bool,
    last_row: Option<u64>,
}

impl BankState {
    fn new() -> Self {
        BankState {
            server: Resource::new(),
            open_row: None,
            dirty: false,
            miss_streak: 0,
            closed_mode: false,
            last_row: None,
        }
    }
}

/// Per-bank timing model for the PCM device.
#[derive(Debug, Clone)]
pub struct BankTiming {
    cfg: NvmConfig,
    banks: Vec<BankState>,
    row_hits: u64,
    row_misses: u64,
}

impl BankTiming {
    /// Creates the timing model for a device configuration.
    pub fn new(cfg: NvmConfig) -> Self {
        let banks = (0..cfg.total_banks()).map(|_| BankState::new()).collect();
        BankTiming {
            cfg,
            banks,
            row_hits: 0,
            row_misses: 0,
        }
    }

    /// Decodes a line address with RoRaBaChCo interleaving
    /// (row : rank : bank : channel : column, from MSB to LSB).
    pub fn decode(&self, line: LineAddr) -> BankCoord {
        let lines_per_row = (self.cfg.row_buffer_bytes / 64).max(1);
        let mut v = line.get() / 64;
        v /= lines_per_row; // column bits consumed
        let channel = (v % self.cfg.channels as u64) as usize;
        v /= self.cfg.channels as u64;
        let bank_in_rank = (v % self.cfg.banks_per_rank as u64) as usize;
        v /= self.cfg.banks_per_rank as u64;
        let rank = (v % self.cfg.ranks_per_channel as u64) as usize;
        v /= self.cfg.ranks_per_channel as u64;
        let row = v;
        let bank = (channel * self.cfg.ranks_per_channel + rank) * self.cfg.banks_per_rank
            + bank_in_rank;
        BankCoord { bank, row }
    }

    /// Charges one access and returns its completion time.
    pub fn access(&mut self, now: Cycle, line: LineAddr, kind: AccessKind) -> Cycle {
        let coord = self.decode(line);
        let cfg = self.cfg;
        let bank = &mut self.banks[coord.bank];

        // Open-adaptive recovery: in closed mode, an access that *would*
        // have hit the previously used row signals returning locality, so
        // the bank reverts to open-page operation.
        if bank.closed_mode && bank.last_row == Some(coord.row) {
            bank.closed_mode = false;
            bank.miss_streak = 0;
        }

        let hit = bank.open_row == Some(coord.row);
        let mut service_ns = 0u64;

        if hit {
            self.row_hits += 1;
            bank.miss_streak = 0;
        } else {
            self.row_misses += 1;
            if bank.last_row != Some(coord.row) {
                bank.miss_streak += 1;
            }
            if bank.miss_streak >= cfg.adaptive_miss_threshold {
                bank.closed_mode = true;
            }
            // Closing a dirty open row writes the row buffer back to the
            // PCM array; in closed mode the close already happened off the
            // critical path.
            if bank.open_row.is_some() && bank.dirty && !bank.closed_mode {
                service_ns += cfg.write_ns;
            }
            // Activate: array read into the row buffer.
            service_ns += cfg.t_rcd_ns + cfg.read_ns;
            bank.open_row = Some(coord.row);
            bank.dirty = false;
        }

        // Column access + burst.
        service_ns += cfg.t_cl_ns + cfg.t_burst_ns;

        let extra_occupancy = match kind {
            AccessKind::Read => 0,
            AccessKind::Write => {
                bank.dirty = true;
                cfg.t_wr_ns
            }
        };

        // The requester sees the service latency; the bank stays busy for
        // any write-recovery tail beyond that.
        let done = bank.server.serve(now, Cycle::from_ns(service_ns + extra_occupancy));
        if bank.closed_mode {
            // Closed-page mode: precharge immediately after the access. The
            // array commit of a dirty buffer is covered by the tWR tail.
            bank.open_row = None;
            bank.dirty = false;
        }
        bank.last_row = Some(coord.row);
        // The requester observes completion at the end of the burst; the
        // write-recovery tail only occupies the bank.
        done - Cycle::from_ns(extra_occupancy)
    }

    /// Row-buffer hits observed so far.
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Row-buffer misses observed so far.
    pub fn row_misses(&self) -> u64 {
        self.row_misses
    }

    /// Serializes every bank's occupancy and row-buffer state.
    pub fn snap_save(&self, enc: &mut fsencr_snapshot::Enc) {
        enc.put_u64(self.banks.len() as u64);
        for bank in &self.banks {
            bank.server.snap_save(enc);
            enc.put_opt_u64(bank.open_row);
            enc.put_bool(bank.dirty);
            enc.put_u32(bank.miss_streak);
            enc.put_bool(bank.closed_mode);
            enc.put_opt_u64(bank.last_row);
        }
        enc.put_u64(self.row_hits);
        enc.put_u64(self.row_misses);
    }

    /// Restores a timing model for `cfg` from [`BankTiming::snap_save`]
    /// bytes. The bank count must match the configuration.
    pub fn snap_load(
        cfg: NvmConfig,
        dec: &mut fsencr_snapshot::Dec<'_>,
    ) -> Result<BankTiming, fsencr_snapshot::SnapError> {
        let n = dec.get_len()?;
        if n != cfg.total_banks() {
            return Err(fsencr_snapshot::SnapError::StateMismatch);
        }
        let mut banks = Vec::with_capacity(n);
        for _ in 0..n {
            let server = Resource::snap_load(dec)?;
            let open_row = dec.get_opt_u64()?;
            let dirty = dec.get_bool()?;
            let miss_streak = dec.get_u32()?;
            let closed_mode = dec.get_bool()?;
            let last_row = dec.get_opt_u64()?;
            banks.push(BankState {
                server,
                open_row,
                dirty,
                miss_streak,
                closed_mode,
                last_row,
            });
        }
        let row_hits = dec.get_u64()?;
        let row_misses = dec.get_u64()?;
        Ok(BankTiming {
            cfg,
            banks,
            row_hits,
            row_misses,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NvmConfig {
        NvmConfig::default()
    }

    #[test]
    fn decode_spreads_rows_across_banks() {
        let t = BankTiming::new(cfg());
        // Consecutive row-buffer-sized chunks land in different banks.
        let a = t.decode(LineAddr::new(0));
        let b = t.decode(LineAddr::new(1024));
        assert_ne!((a.bank, a.row), (b.bank, b.row));
        assert_ne!(a.bank, b.bank, "RoRaBaChCo interleaves banks above columns");
    }

    #[test]
    fn decode_same_row_within_row_buffer() {
        let t = BankTiming::new(cfg());
        let a = t.decode(LineAddr::new(0));
        let b = t.decode(LineAddr::new(960)); // last line of the same 1 KiB row
        assert_eq!((a.bank, a.row), (b.bank, b.row));
    }

    #[test]
    fn decode_stays_in_range() {
        let t = BankTiming::new(cfg());
        for i in 0..10_000u64 {
            let c = t.decode(LineAddr::new(i * 64 * 7919)); // scatter
            assert!(c.bank < cfg().total_banks());
        }
    }

    #[test]
    fn first_access_is_a_row_miss() {
        let mut t = BankTiming::new(cfg());
        let done = t.access(Cycle::ZERO, LineAddr::new(0), AccessKind::Read);
        // tRCD(55) + read(60) + tCL(13) + tBURST(5)
        assert_eq!(done.get(), 55 + 60 + 13 + 5);
        assert_eq!(t.row_misses(), 1);
        assert_eq!(t.row_hits(), 0);
    }

    #[test]
    fn second_access_same_row_hits() {
        let mut t = BankTiming::new(cfg());
        let d1 = t.access(Cycle::ZERO, LineAddr::new(0), AccessKind::Read);
        let d2 = t.access(d1, LineAddr::new(64), AccessKind::Read);
        assert_eq!((d2 - d1).get(), 13 + 5, "row hit is tCL+tBURST");
        assert_eq!(t.row_hits(), 1);
    }

    #[test]
    fn write_recovery_delays_next_access() {
        let mut t = BankTiming::new(cfg());
        let d1 = t.access(Cycle::ZERO, LineAddr::new(0), AccessKind::Write);
        // Requester sees the burst complete without tWR...
        assert_eq!(d1.get(), 55 + 60 + 13 + 5);
        // ...but the next access to the same bank waits out the recovery.
        let d2 = t.access(d1, LineAddr::new(64), AccessKind::Read);
        assert_eq!((d2 - d1).get(), 150 + 13 + 5);
    }

    #[test]
    fn dirty_row_close_costs_array_write() {
        let mut t = BankTiming::new(cfg());
        // Write to row 0 of bank 0 (dirty), then read a different row of
        // the same bank: the close must pay the 150 ns write-back.
        let lines_per_row = 1024 / 64;
        let banks_rows_stride = 1024 * 8 * 2; // one full row of every bank
        let same_bank_next_row = LineAddr::new(banks_rows_stride);
        let t0 = t.decode(LineAddr::new(0));
        let t1 = t.decode(same_bank_next_row);
        assert_eq!(t0.bank, t1.bank);
        assert_ne!(t0.row, t1.row);
        let _ = lines_per_row;

        let d1 = t.access(Cycle::ZERO, LineAddr::new(0), AccessKind::Write);
        let d2 = t.access(d1, same_bank_next_row, AccessKind::Read);
        // tWR tail + dirty close (150) + tRCD + read + tCL + tBURST
        assert_eq!((d2 - d1).get(), 150 + 150 + 55 + 60 + 13 + 5);
    }

    #[test]
    fn banks_operate_in_parallel() {
        let mut t = BankTiming::new(cfg());
        let d1 = t.access(Cycle::ZERO, LineAddr::new(0), AccessKind::Read);
        // Different bank: no queueing behind bank 0.
        let d2 = t.access(Cycle::ZERO, LineAddr::new(1024), AccessKind::Read);
        assert_eq!(d1, d2);
    }

    #[test]
    fn adaptive_policy_engages_after_miss_streak() {
        let mut t = BankTiming::new(cfg());
        // Hammer alternating rows of one bank to force misses.
        let stride = 1024 * 8 * 2; // next row, same bank (ch=1)
        let mut now = Cycle::ZERO;
        let mut last_delta = 0;
        for i in 0..12u64 {
            let line = LineAddr::new((i % 2) * stride as u64 * 2);
            let done = t.access(now, line, AccessKind::Write);
            last_delta = (done - now).get();
            now = done;
        }
        // After the streak the dirty-close falls off the critical path:
        // the last misses cost activate+col only, plus tWR occupancy.
        assert!(last_delta <= 150 + 55 + 60 + 13 + 5 + 150);
        assert!(t.row_misses() >= 10);
    }
}
