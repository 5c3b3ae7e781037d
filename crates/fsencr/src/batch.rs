//! Page-batched region operations over the controller datapath.
//!
//! A region request (a multi-line `Machine::read`/`write`, a persist
//! flush, a page re-encryption) touches many lines of the same 4 KiB
//! page, and every one of those lines shares the page's MECB, FECB and
//! file key. The per-line path re-parses the counter blocks and re-probes
//! the schedule cache for each line anyway, because it cannot know the
//! next request is the same page.
//!
//! [`RegionRun`] is the host-side memo that removes that redundancy
//! without touching simulated time:
//!
//! * every **simulated** access is still issued per line — the metadata
//!   system sees one `read_block` per line (cache hits/misses and LRU
//!   recency unchanged), the OTT sees one lookup per file line (hit/miss
//!   counters and LRU unchanged), and the NVM sees the same bursts in
//!   the same order at the same cycles;
//! * only the **pure** work is amortized: `Mecb`/`Fecb::from_bytes` is
//!   skipped when `read_block` returns the same 64 bytes (the parse is a
//!   pure function of those bytes, so the memo is self-validating by
//!   byte compare — no invalidation protocol needed), and the expanded
//!   AES schedule is held across lines while the resolved key is
//!   unchanged instead of being re-fetched from the [`ScheduleCache`]
//!   per pad. Merkle digests are not memoized here: every climb hashes
//!   through the metadata system's one digest route.
//!
//! The slice-form region ops ([`MemoryController::read_lines`],
//! [`MemoryController::write_lines`], [`MemoryController::write_lines_at`])
//! drive one memo across a whole address run and replay the per-line
//! cycle accounting exactly. They are the only route `Machine` takes to
//! the controller; `tests/batch_equivalence.rs` keeps the per-line
//! [`MemoryController::read_line`]/[`MemoryController::write_line`]
//! loops as the reference and proves the region ops bit-identical to
//! them in plaintext, cycles, errors, statistics and Merkle roots.

use fsencr_crypto::{Aes128, Key128, ScheduleCache};
use fsencr_nvm::{PageId, PhysAddr, LINE_BYTES};
use fsencr_secmem::{Fecb, Mecb};
use fsencr_sim::Cycle;

use super::{MemError, MemoryController};

/// Host-side parse/schedule memo for one region run.
///
/// Threading one `RegionRun` through a run of line operations lets the
/// controller skip byte-identical counter-block re-parses and redundant
/// schedule-cache probes. The memo never changes simulated behaviour:
/// its keys are the full inputs of the pure computations it caches, so a
/// stale entry can never match fresh different state.
#[derive(Clone)]
pub struct RegionRun {
    mecb: Option<([u8; LINE_BYTES], Mecb)>,
    fecb: Option<([u8; LINE_BYTES], Fecb)>,
    key: Option<(Key128, Aes128)>,
}

impl std::fmt::Debug for RegionRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegionRun")
            .field("mecb", &self.mecb.as_ref().map(|(_, m)| m))
            .field("fecb", &self.fecb.as_ref().map(|(_, f)| f))
            .field("key", &self.key.as_ref().map(|_| "<schedule>"))
            .finish()
    }
}

impl RegionRun {
    /// A fresh, empty memo.
    pub fn new() -> Self {
        RegionRun {
            mecb: None,
            fecb: None,
            key: None,
        }
    }

    /// Parses an MECB, reusing the previous parse when `read_block`
    /// returned the same 64 bytes.
    pub(crate) fn mecb(&mut self, bytes: &[u8; LINE_BYTES]) -> Mecb {
        match &self.mecb {
            Some((b, parsed)) if b == bytes => *parsed,
            _ => {
                let parsed = Mecb::from_bytes(bytes);
                self.mecb = Some((*bytes, parsed));
                parsed
            }
        }
    }

    /// Records the MECB the write path just stored, so the next line of
    /// the run skips the re-parse of the bytes it knows it wrote.
    /// (`Mecb::from_bytes(to_bytes(m)) == m` for every reachable state —
    /// full-width little-endian major, exact 7-bit minor packing.)
    pub(crate) fn note_mecb(&mut self, value: Mecb) {
        self.mecb = Some((value.to_bytes(), value));
    }

    /// Parses an FECB, reusing the previous parse when byte-identical.
    pub(crate) fn fecb(&mut self, bytes: &[u8; LINE_BYTES]) -> Fecb {
        match &self.fecb {
            Some((b, parsed)) if b == bytes => *parsed,
            _ => {
                let parsed = Fecb::from_bytes(bytes);
                self.fecb = Some((*bytes, parsed));
                parsed
            }
        }
    }

    /// Records the FECB the write path just stored.
    pub(crate) fn note_fecb(&mut self, value: Fecb) {
        self.fecb = Some((value.to_bytes(), value));
    }

    /// The expanded schedule for `key`, held across lines while the
    /// resolved key is unchanged; falls back to the shared cache (one
    /// clone per key change) otherwise.
    pub(crate) fn schedule(&mut self, key: Key128, cache: &mut ScheduleCache) -> &Aes128 {
        if !matches!(&self.key, Some((k, _)) if *k == key) {
            self.key = None;
        }
        let (_, aes) = self
            .key
            .get_or_insert_with(|| (key, cache.get(&key).clone()));
        aes
    }
}

/// Which pad pair a page re-encryption strips and re-applies.
pub(crate) enum Repad {
    /// Memory-engine minor overflow: old MECB pads out, carried MECB
    /// pads in.
    Mem {
        /// Pre-overflow counter block.
        old: Mecb,
        /// Post-carry counter block.
        new: Mecb,
    },
    /// File-engine minor overflow under the page's resolved key.
    File {
        /// The file key both pad generations use.
        key: Key128,
        /// Pre-overflow counter block.
        old: Fecb,
        /// Post-carry counter block.
        new: Fecb,
    },
}

impl MemoryController {
    /// Chained region read: line `i` is issued at line `i - 1`'s
    /// completion (the first at `now`), exactly like a serial
    /// [`MemoryController::read_line`] loop. Plaintexts are appended to
    /// `out`; the return value is the final completion time.
    ///
    /// One [`RegionRun`] memo spans the whole slice, so same-page lines
    /// share the counter-block parses and the expanded file-key
    /// schedule. Simulated cycles, statistics and media state are
    /// bit-identical to the per-line loop.
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
        let mut run = RegionRun::new();
        let mut t = now;
        for &addr in addrs {
            let (plain, done) = self.read_line_with(t, addr, &mut run)?;
            out.push(plain);
            t = done;
        }
        Ok(t)
    }

    /// Chained region write: write `i` is issued at write `i - 1`'s
    /// completion (the first at `now`). Returns the final completion
    /// time. Same batching contract as [`MemoryController::read_lines`].
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
        let mut run = RegionRun::new();
        let res = writes.iter().try_fold(now, |t, (addr, data)| {
            self.write_line_with(t, *addr, data, &mut run)
        });
        if let Some(inj) = self.fault_injector_mut() {
            inj.end_region();
        }
        res
    }

    /// Fan-out region write: every line is issued at `now` — the
    /// `clwb*; sfence` persist pattern, where the core posts all the
    /// write-backs and waits only for the slowest. Returns the latest
    /// completion (at least `now`). Same batching contract as
    /// [`MemoryController::read_lines`].
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
        let mut run = RegionRun::new();
        let res = writes.iter().try_fold(now, |fence_at, (addr, data)| {
            Ok(fence_at.max(self.write_line_with(now, *addr, data, &mut run)?))
        });
        if let Some(inj) = self.fault_injector_mut() {
            inj.end_region();
        }
        res
    }

    /// Re-pads every line of `page`: read at the previous completion,
    /// strip the old pad, apply the new, write at the read's completion —
    /// the exact access interleave of the legacy overflow loops, with the
    /// file-key schedule resolved once per page instead of twice per
    /// line.
    pub(crate) fn repad_page(
        &mut self,
        now: Cycle,
        page: PageId,
        repad: &Repad,
    ) -> Result<Cycle, MemError> {
        let mut run = RegionRun::new();
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
            match repad {
                Repad::Mem { old, new } => {
                    self.xor_mem_pad(&mut data, page, block, old);
                    self.xor_mem_pad(&mut data, page, block, new);
                }
                Repad::File { key, old, new } => {
                    let aes = run.schedule(*key, &mut self.schedules);
                    self.xor_file_pad_with(&mut data, aes, page, block, old);
                    self.xor_file_pad_with(&mut data, aes, page, block, new);
                }
            }
            t = self.nvm.write_line(t_read, PhysAddr::new(line.get()), &data);
        }
        Ok(t)
    }
}
