//! Region operations over the controller datapath.
//!
//! A region request (a page re-key, a persist flush, a page
//! re-encryption) touches many lines in one call. Each region op is a
//! plain loop over the one line body,
//! [`MemoryController::read_line`]/[`MemoryController::write_line`], so
//! every line pays its own counter-block reads, OTT lookup and pads, and
//! simulated cycles, statistics and media state are those of the
//! equivalent per-line loop by construction. The ops only fix the issue
//! timing (chained or fan-out) and, for writes, open one torn-write
//! fault scope around the whole region.
//!
//! `tests/batch_equivalence.rs` checks the region ops against explicit
//! per-line loops under chained and fan-out timing.

use fsencr_crypto::Key128;
use fsencr_nvm::{PageId, PhysAddr, LINE_BYTES};
use fsencr_secmem::CounterBlock;
use fsencr_sim::Cycle;

use super::{MemError, MemoryController};

impl MemoryController {
    /// Chained region read: line `i` is issued at line `i - 1`'s
    /// completion (the first at `now`), exactly like a serial
    /// [`MemoryController::read_line`] loop. Plaintexts are appended to
    /// `out`; the return value is the final completion time.
    ///
    /// # Errors
    ///
    /// Integrity failures and missing file keys, as per line reads.
    pub fn read_lines(
        &mut self,
        now: Cycle,
        addrs: &[PhysAddr],
        out: &mut Vec<[u8; LINE_BYTES]>,
    ) -> Result<Cycle, MemError> {
        let mut t = now;
        for &addr in addrs {
            let (plain, done) = self.read_line(t, addr)?;
            out.push(plain);
            t = done;
        }
        Ok(t)
    }

    /// Chained region write: write `i` is issued at write `i - 1`'s
    /// completion (the first at `now`). Returns the final completion
    /// time.
    ///
    /// # Errors
    ///
    /// Integrity failures and missing file keys, as per line writes.
    pub fn write_lines(
        &mut self,
        now: Cycle,
        writes: &[(PhysAddr, [u8; LINE_BYTES])],
    ) -> Result<Cycle, MemError> {
        // Torn-write fault scope: an armed injector may drop the tail of
        // the device writes issued inside this region (data lines *and*
        // metadata write-backs — a tear cuts wherever the bus happened
        // to be). One branch when disarmed.
        if let Some(inj) = self.fault_injector_mut() {
            inj.begin_region(writes.len() as u64);
        }
        let res = writes
            .iter()
            .try_fold(now, |t, (addr, data)| self.write_line(t, *addr, data));
        if let Some(inj) = self.fault_injector_mut() {
            inj.end_region();
        }
        res
    }

    /// Fan-out region write: every line is issued at `now` — the
    /// `clwb*; sfence` persist pattern, where the core posts all the
    /// write-backs and waits only for the slowest. Returns the latest
    /// completion (at least `now`).
    ///
    /// # Errors
    ///
    /// Integrity failures and missing file keys, as per line writes.
    pub fn write_lines_at(
        &mut self,
        now: Cycle,
        writes: &[(PhysAddr, [u8; LINE_BYTES])],
    ) -> Result<Cycle, MemError> {
        // Same torn-write fault scope as `write_lines`.
        if let Some(inj) = self.fault_injector_mut() {
            inj.begin_region(writes.len() as u64);
        }
        let res = writes.iter().try_fold(now, |fence_at, (addr, data)| {
            Ok(fence_at.max(self.write_line(now, *addr, data)?))
        });
        if let Some(inj) = self.fault_injector_mut() {
            inj.end_region();
        }
        res
    }

    /// Re-pads every line of `page` from the `old` counters to the `new`
    /// ones, in their engine (`file_key` for a file block): read at the
    /// previous completion, strip the old pad, apply the new, write at
    /// the read's completion. Returns the last write's completion.
    #[expect(
        clippy::disallowed_methods,
        reason = "re-pads ciphertext under freshly advanced counters: the device receives ciphertext only"
    )]
    pub(crate) fn repad_page(
        &mut self,
        now: Cycle,
        page: PageId,
        file_key: Option<Key128>,
        old: &CounterBlock,
        new: &CounterBlock,
    ) -> Cycle {
        let mut t = now;
        for line in page.lines() {
            let block = line.block_in_page();
            let (cipher, t_read) = self.nvm.read_line(t, PhysAddr::new(line.get()));
            // Pad-oracle note: repad strips one layer and re-applies it
            // while the *other* layer stays in the bytes, so the content
            // a fresh pad covers here isn't comparable with what the
            // write path records for the same counters — these
            // applications are deliberately unrecorded. Their IV
            // freshness is structural: `carry_major` has just advanced
            // the major, and no path ever re-issues an old major.
            let mut data = cipher;
            self.xor_pad(&mut data, page, block, old, file_key, false);
            self.xor_pad(&mut data, page, block, new, file_key, false);
            t = self
                .nvm
                .write_line(t_read, PhysAddr::new(line.get()), &data);
        }
        t
    }
}
