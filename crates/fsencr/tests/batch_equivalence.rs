//! Region-op equivalence: the controller's region operations — the only
//! route `Machine` takes onto the datapath — must be *bit-identical* to
//! the per-line reference kept here:
//!
//! * [`MemoryController::read_lines`] against a chained per-line
//!   `read_line` loop (line `i` issued at line `i - 1`'s completion);
//! * [`MemoryController::write_lines`] against a chained per-line
//!   `write_line` loop;
//! * [`MemoryController::write_lines_at`] against a fan-out per-line
//!   `write_line` loop (every line issued at `now`, the completion is the
//!   maximum).
//!
//! Two identically built controllers run the same operation stream, one
//! through the region ops and one through the reference loops. After
//! every operation the plaintexts, completion cycles and errors must be
//! equal; at the end, the full statistics snapshots and Merkle roots.

use proptest::prelude::*;

use fsencr::controller::{CtrlMode, MemError, MemoryController};
use fsencr_crypto::Key128;
use fsencr_nvm::{NvmDevice, PageId, PhysAddr, LINE_BYTES, PAGE_BYTES};
use fsencr_secmem::MetadataLayout;
use fsencr_sim::config::{NvmConfig, SecurityConfig};
use fsencr_sim::{Cycle, SplitMix64};

type Line = [u8; LINE_BYTES];
/// One compared operation: the outer error is a failed equivalence
/// check, the inner result the datapath outcome both sides agreed on.
type Step<T> = Result<Result<T, MemError>, TestCaseError>;

const PAGES: u64 = 8;
const LINES_PER_PAGE: u64 = (PAGE_BYTES / LINE_BYTES) as u64;
const GID: u32 = 7;
/// DF pages and the file owning each: two files, one spanning two pages.
const FILE_PAGES: [(u64, u32); 3] = [(1, 1), (2, 1), (5, 2)];
/// Pages outside any file (memory pads only).
const PLAIN_PAGES: [u64; 5] = [0, 3, 4, 6, 7];
/// Writes to one line in an overflow hammer: past the 7-bit minor
/// counter, so the page re-encryption (`repad_page`) runs.
const HAMMER_WRITES: usize = 130;

fn line_addr(page: u64, line: u64) -> PhysAddr {
    PhysAddr::new(page * PAGE_BYTES as u64 + line * LINE_BYTES as u64)
}

fn file_key(fid: u32, epoch: u64) -> Key128 {
    Key128::from_seed(0xF11E_0000 ^ (u64::from(fid) << 32) ^ epoch)
}

fn layout() -> MetadataLayout {
    MetadataLayout::new(PAGES * PAGE_BYTES as u64, 8192)
}

/// A controller with both files' keys installed and their pages stamped.
/// The metadata cache is small, so region ops also drive evictions.
fn controller() -> (MemoryController, Cycle) {
    let mut cfg = SecurityConfig::default();
    cfg.metadata_cache.size_bytes = 4096;
    let mut c = MemoryController::new(
        CtrlMode::Encrypted,
        layout(),
        &cfg,
        Key128::from_seed(1),
        Key128::from_seed(2),
        NvmDevice::new(NvmConfig::default()),
    );
    let mut t = Cycle::ZERO;
    for fid in [1, 2] {
        t = c.install_key(t, GID, fid, file_key(fid, 0)).unwrap();
    }
    for (page, fid) in FILE_PAGES {
        t = c.stamp_file_page(t, PageId::new(page), GID, fid).unwrap();
    }
    (c, t)
}

/// Reference for `read_lines`: chained per-line reads.
fn read_lines_ref(
    c: &mut MemoryController,
    now: Cycle,
    addrs: &[PhysAddr],
    out: &mut Vec<Line>,
) -> Result<Cycle, MemError> {
    let mut t = now;
    for &addr in addrs {
        let (plain, done) = c.read_line(t, addr)?;
        out.push(plain);
        t = done;
    }
    Ok(t)
}

/// Reference for `write_lines`: chained per-line writes.
fn write_lines_ref(
    c: &mut MemoryController,
    now: Cycle,
    writes: &[(PhysAddr, Line)],
) -> Result<Cycle, MemError> {
    let mut t = now;
    for (addr, data) in writes {
        t = c.write_line(t, *addr, data)?;
    }
    Ok(t)
}

/// Reference for `write_lines_at`: fan-out per-line writes, waiting for
/// the slowest.
fn write_lines_at_ref(
    c: &mut MemoryController,
    now: Cycle,
    writes: &[(PhysAddr, Line)],
) -> Result<Cycle, MemError> {
    let mut fence_at = now;
    for (addr, data) in writes {
        fence_at = fence_at.max(c.write_line(now, *addr, data)?);
    }
    Ok(fence_at)
}

/// `n` lines drawn from `seed` over every page, in arbitrary order
/// (repeats allowed), plus one file-page line and one plain-page line
/// shuffled in — so every region spans at least two pages and both the
/// file and the memory-only datapath.
fn region(seed: u64, n: usize) -> Vec<PhysAddr> {
    let mut rng = SplitMix64::new(seed);
    let mut addrs: Vec<PhysAddr> = (0..n)
        .map(|_| line_addr(rng.next_below(PAGES), rng.next_below(LINES_PER_PAGE)))
        .collect();
    let (file_page, _) = FILE_PAGES[rng.next_below(FILE_PAGES.len() as u64) as usize];
    let plain_page = PLAIN_PAGES[rng.next_below(PLAIN_PAGES.len() as u64) as usize];
    addrs.push(line_addr(file_page, rng.next_below(LINES_PER_PAGE)));
    addrs.push(line_addr(plain_page, rng.next_below(LINES_PER_PAGE)));
    for i in (1..addrs.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        addrs.swap(i, j);
    }
    addrs
}

/// Distinct line contents for a write region.
fn payload(addrs: &[PhysAddr], tag: u8) -> Vec<(PhysAddr, Line)> {
    addrs
        .iter()
        .enumerate()
        .map(|(i, &addr)| {
            let mut data = [tag.wrapping_add(i as u8); LINE_BYTES];
            data[0] = i as u8;
            (addr, data)
        })
        .collect()
}

/// Every line of `fid`'s pages, in page order.
fn file_lines(fid: u32) -> Vec<PhysAddr> {
    FILE_PAGES
        .iter()
        .filter(|&&(_, f)| f == fid)
        .flat_map(|&(page, _)| (0..LINES_PER_PAGE).map(move |l| line_addr(page, l)))
        .collect()
}

/// Two identically built controllers: `region` serves every operation
/// through the region ops, `reference` through the per-line loops.
struct Pair {
    region: MemoryController,
    reference: MemoryController,
    t: Cycle,
}

impl Pair {
    fn new() -> Self {
        let (region, t) = controller();
        let (reference, t_ref) = controller();
        assert_eq!(t, t_ref);
        Pair {
            region,
            reference,
            t,
        }
    }

    /// Asserts equal outcomes and advances the shared clock on success.
    fn settle(
        &mut self,
        region: Result<Cycle, MemError>,
        reference: Result<Cycle, MemError>,
    ) -> Step<Cycle> {
        prop_assert_eq!(&region, &reference);
        if let Ok(t) = region {
            self.t = t;
        }
        Ok(region)
    }

    fn read(&mut self, addrs: &[PhysAddr]) -> Step<Vec<Line>> {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let ra = self.region.read_lines(self.t, addrs, &mut got);
        let rb = read_lines_ref(&mut self.reference, self.t, addrs, &mut want);
        prop_assert_eq!(&got, &want);
        Ok(self.settle(ra, rb)?.map(|_| got))
    }

    fn write(&mut self, writes: &[(PhysAddr, Line)]) -> Step<Cycle> {
        let ra = self.region.write_lines(self.t, writes);
        let rb = write_lines_ref(&mut self.reference, self.t, writes);
        self.settle(ra, rb)
    }

    fn write_at(&mut self, writes: &[(PhysAddr, Line)]) -> Step<Cycle> {
        let ra = self.region.write_lines_at(self.t, writes);
        let rb = write_lines_at_ref(&mut self.reference, self.t, writes);
        self.settle(ra, rb)
    }

    /// Minor-overflow hammer: [`HAMMER_WRITES`] writes to one line in a
    /// single region (chained or fan-out), then a read-back.
    fn hammer(&mut self, addr: PhysAddr, tag: u8, fan_out: bool) -> Result<(), TestCaseError> {
        let before = self.region.snapshot().overflow_reencryptions;
        let writes: Vec<(PhysAddr, Line)> = (0..HAMMER_WRITES)
            .map(|i| (addr, [tag ^ (i % 251) as u8; LINE_BYTES]))
            .collect();
        let res = if fan_out {
            self.write_at(&writes)?
        } else {
            self.write(&writes)?
        };
        prop_assert!(res.is_ok(), "hammer failed: {:?}", res);
        prop_assert!(
            self.region.snapshot().overflow_reencryptions > before,
            "hammer must overflow a minor counter"
        );
        let back = self.read(&[addr])?;
        prop_assert_eq!(back, Ok(vec![writes[HAMMER_WRITES - 1].1]));
        Ok(())
    }

    fn flush(&mut self) -> Result<(), TestCaseError> {
        let ta = self.region.flush(self.t);
        let tb = self.reference.flush(self.t);
        prop_assert_eq!(ta, tb);
        self.t = ta;
        Ok(())
    }

    fn crash_recover(&mut self) -> Result<(), TestCaseError> {
        self.region.crash();
        self.reference.crash();
        prop_assert_eq!(self.region.recover(), self.reference.recover());
        prop_assert_eq!(self.region.merkle_root(), self.reference.merkle_root());
        Ok(())
    }

    /// `Machine::rekey`'s sequence on one file: read every line under the
    /// old key, install the new key, write the plaintext back.
    fn rekey(&mut self, fid: u32, epoch: u64) -> Step<()> {
        let addrs = file_lines(fid);
        let plain = match self.read(&addrs)? {
            Ok(plain) => plain,
            Err(e) => return Ok(Err(e)),
        };
        let ra = self
            .region
            .install_key(self.t, GID, fid, file_key(fid, epoch));
        let rb = self
            .reference
            .install_key(self.t, GID, fid, file_key(fid, epoch));
        if let Err(e) = self.settle(ra, rb)? {
            return Ok(Err(e));
        }
        let writes: Vec<(PhysAddr, Line)> =
            addrs.iter().copied().zip(plain.iter().copied()).collect();
        prop_assert!(self.write(&writes)?.is_ok(), "rekey write-back failed");
        prop_assert_eq!(self.read(&addrs)?, Ok(plain), "rekeyed file reads back");
        Ok(Ok(()))
    }

    /// Flush, crash (dropping the trusted cached metadata), flip one bit
    /// of a file page's FECB on media, then read a region covering that
    /// page: both sides must fail with the same integrity error.
    fn tampered_fecb_read(&mut self, page: u64, seed: u64) -> Result<(), TestCaseError> {
        self.flush()?;
        self.region.crash();
        self.reference.crash();
        let fecb = PhysAddr::new(layout().fecb_addr(PageId::new(page)).get());
        for c in [&mut self.region, &mut self.reference] {
            let mut evil = c.nvm().peek_line(fecb);
            evil[4] ^= 0x01;
            c.debug_nvm_mut().poke_line(fecb, &evil);
        }
        let mut addrs = region(seed, 4);
        addrs.insert(2, line_addr(page, seed % LINES_PER_PAGE));
        let res = self.read(&addrs)?;
        prop_assert!(
            matches!(res, Err(MemError::Integrity(_))),
            "tampered FECB must fail verification, got {:?}",
            res
        );
        Ok(())
    }

    fn assert_converged(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.region.snapshot(), self.reference.snapshot());
        prop_assert_eq!(self.region.merkle_root(), self.reference.merkle_root());
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn region_ops_match_the_per_line_reference(
        ops in prop::collection::vec(
            (0u8..10, any::<u64>(), 1usize..48, any::<u8>(), any::<bool>()),
            1..24,
        ),
        tamper in (0usize..FILE_PAGES.len(), any::<u64>()),
    ) {
        let mut p = Pair::new();
        for (epoch, (kind, seed, n, tag, flag)) in ops.into_iter().enumerate() {
            let addrs = region(seed, n);
            // Each op compares both sides itself; after a dirty crash a
            // region may legitimately fail, as long as both fail alike.
            match kind {
                0 | 1 => {
                    let _ = p.read(&addrs)?;
                }
                2 | 3 => {
                    let _ = p.write(&payload(&addrs, tag))?;
                }
                4 | 5 => {
                    let _ = p.write_at(&payload(&addrs, tag))?;
                }
                6 => {
                    // `flag` picks a file line (MECB and FECB overflow) or
                    // a plain line (MECB only).
                    let page = if flag {
                        FILE_PAGES[seed as usize % FILE_PAGES.len()].0
                    } else {
                        PLAIN_PAGES[seed as usize % PLAIN_PAGES.len()]
                    };
                    p.hammer(line_addr(page, u64::from(tag) % LINES_PER_PAGE), tag, seed & 1 == 1)?;
                }
                7 => p.flush()?,
                8 => {
                    if flag {
                        p.flush()?;
                    }
                    p.crash_recover()?;
                }
                _ => {
                    let _ = p.rekey(if flag { 1 } else { 2 }, epoch as u64 + 1)?;
                }
            }
        }
        p.assert_converged()?;
        p.tampered_fecb_read(FILE_PAGES[tamper.0].0, tamper.1)?;
        p.assert_converged()?;
    }
}

#[test]
fn overflow_hammer_matches_on_file_and_plain_lines() -> Result<(), TestCaseError> {
    let mut p = Pair::new();
    for (page, fan_out) in [(1, false), (5, true), (0, false), (6, true)] {
        p.hammer(line_addr(page, 9), 0x5A, fan_out)?;
        prop_assert!(p.write(&payload(&region(page, 16), 0x33))?.is_ok());
    }
    p.assert_converged()
}

#[test]
fn flush_crash_recover_matches() -> Result<(), TestCaseError> {
    let mut p = Pair::new();
    for round in 0..3u64 {
        prop_assert!(p.write(&payload(&region(round, 40), round as u8))?.is_ok());
        prop_assert!(p
            .write_at(&payload(&region(round + 10, 40), !(round as u8)))?
            .is_ok());
        if round == 1 {
            p.flush()?;
        }
        p.crash_recover()?;
        let _ = p.read(&region(round + 20, 40))?;
    }
    p.assert_converged()
}

#[test]
fn install_key_rekey_matches() -> Result<(), TestCaseError> {
    let mut p = Pair::new();
    prop_assert!(p.write(&payload(&file_lines(1), 0x11))?.is_ok());
    prop_assert!(p.write_at(&payload(&file_lines(2), 0x22))?.is_ok());
    for (fid, epoch) in [(1, 1), (2, 1), (1, 2)] {
        prop_assert!(p.rekey(fid, epoch)?.is_ok(), "rekey of file {} failed", fid);
    }
    p.assert_converged()
}

#[test]
fn tampered_fecb_read_matches() -> Result<(), TestCaseError> {
    let mut p = Pair::new();
    prop_assert!(p.write_at(&payload(&region(3, 32), 0x77))?.is_ok());
    p.tampered_fecb_read(2, 3)?;
    p.assert_converged()
}
