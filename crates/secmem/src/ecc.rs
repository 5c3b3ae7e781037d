//! Osiris ECC emulation.
//!
//! Osiris (MICRO'18) observes that the ECC bits stored with every data line
//! can double as a counter-recovery oracle: decrypt the line with a
//! candidate counter, check the ECC, and the counter that yields a clean
//! check is the one that encrypted the line. Real hardware gets this for
//! free from the DIMM's ECC lanes; the simulator emulates the lanes with a
//! side store holding a 64-bit check of each line's *plaintext* and
//! address, written atomically with the data line (it physically rides in
//! the same burst).
//!
//! The check is keyless and every step of it is invertible per word, so it
//! hides nothing about the plaintext from whoever reads it. The lane stays
//! confidential only because it is **not** addressable memory and no
//! attacker handle (the controller's `nvm()` and `tamper_line`, a
//! transferred module's `nvm()` and `tamper_line`) reaches the store.
//! Keep it that way: exposing the lane would leak plaintext.

use fsencr_nvm::{AddrMap, LineAddr, PageId};

/// 64-byte lines per 4 KiB page: one presence bit each.
const LINES_PER_PAGE: usize = fsencr_nvm::PAGE_BYTES / fsencr_nvm::LINE_BYTES;

/// The Osiris check of `plaintext` at `addr`. Seeded with the address,
/// each little-endian word folds in as `h = rotl((h ^ word) · K, 31)`,
/// then murmur3's `fmix64` finalises. Every step is a bijection of `h`,
/// so a change confined to one word, or to the address alone, always
/// changes the check.
fn line_check(addr: u64, plaintext: &[u8; 64]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = addr;
    for word in plaintext.chunks_exact(8) {
        let mut le = [0u8; 8];
        le.copy_from_slice(word);
        h = (h ^ u64::from_le_bytes(le)).wrapping_mul(K).rotate_left(31);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The ECC lanes of one 4 KiB page: bit `i` of `present` says line `i`
/// has a check, and `checks[i]` holds it.
#[derive(Debug, Clone)]
struct PageChecks {
    present: u64,
    checks: [u64; LINES_PER_PAGE],
}

impl PageChecks {
    const EMPTY: PageChecks = PageChecks {
        present: 0,
        checks: [0; LINES_PER_PAGE],
    };
}

/// The lines of `page` whose bit is set in `present`, ascending.
fn present_lines(page: PageId, present: u64) -> impl Iterator<Item = LineAddr> {
    page.lines()
        .enumerate()
        .filter(move |(i, _)| present >> i & 1 == 1)
        .map(|(_, line)| line)
}

/// Per-line ECC checks over plaintext, the Osiris recovery oracle.
///
/// The checks are grouped by page, one record per 4 KiB page that has
/// any, the way line writes arrive (a page fill is 64 consecutive
/// lines): a run of writes to one page touches one small record, and
/// shredding a page drops it whole.
///
/// # Examples
///
/// ```
/// use fsencr_secmem::EccStore;
/// use fsencr_nvm::LineAddr;
///
/// let mut ecc = EccStore::new();
/// let line = LineAddr::new(0x1000);
/// ecc.record(line, &[1u8; 64]);
/// assert!(ecc.check(line, &[1u8; 64]));
/// assert!(!ecc.check(line, &[2u8; 64]));
/// ```
#[derive(Debug, Clone, Default)]
pub struct EccStore {
    pages: AddrMap<Box<PageChecks>>,
}

impl EccStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        EccStore::default()
    }

    /// Records the check for a line being written with `plaintext`; the
    /// last write to a line wins.
    pub fn record(&mut self, line: LineAddr, plaintext: &[u8; 64]) {
        self.put(line, line_check(line.get(), plaintext));
    }

    fn put(&mut self, line: LineAddr, check: u64) {
        let page = self
            .pages
            .entry(line.page().get())
            .or_insert_with(|| Box::new(PageChecks::EMPTY));
        let i = line.block_in_page();
        page.present |= 1 << i;
        page.checks[usize::from(i)] = check;
    }

    /// Checks a candidate plaintext against the stored check. Lines that
    /// were never written have none and fail.
    pub fn check(&self, line: LineAddr, plaintext: &[u8; 64]) -> bool {
        let i = line.block_in_page();
        self.pages.get(&line.page().get()).is_some_and(|page| {
            page.present >> i & 1 == 1
                && page.checks[usize::from(i)] == line_check(line.get(), plaintext)
        })
    }

    /// Drops every check of `page` (page shredding).
    pub fn clear_page(&mut self, page: PageId) {
        self.pages.remove(&page.get());
    }

    /// Every page with a recorded line, in ascending order, each with
    /// its recorded lines in ascending order. Recovery walks this
    /// instead of the whole address space.
    pub fn pages(&self) -> impl Iterator<Item = (PageId, impl Iterator<Item = LineAddr>)> {
        let mut pages: Vec<(u64, u64)> = self
            .pages
            .iter()
            .map(|(&page, checks)| (page, checks.present))
            .collect();
        pages.sort_unstable();
        pages.into_iter().map(|(page, present)| {
            let page = PageId::new(page);
            (page, present_lines(page, present))
        })
    }

    /// Serializes every check in ascending line order: the count, then
    /// `(line, check)` pairs.
    pub fn snap_save(&self, enc: &mut fsencr_snapshot::Enc) {
        let mut pages: Vec<_> = self.pages.iter().collect();
        pages.sort_unstable_by_key(|(&page, _)| page);
        let count: u64 = pages
            .iter()
            .map(|(_, c)| u64::from(c.present.count_ones()))
            .sum();
        enc.put_u64(count);
        for (&page, c) in pages {
            for line in present_lines(PageId::new(page), c.present) {
                enc.put_u64(line.get());
                enc.put_u64(c.checks[usize::from(line.block_in_page())]);
            }
        }
    }

    /// Restores a store from [`EccStore::snap_save`] bytes.
    ///
    /// # Errors
    ///
    /// [`fsencr_snapshot::SnapError::Corrupt`] for a line address that
    /// is not 64-byte aligned or carries the DF-bit; the usual decode
    /// errors for truncated bytes.
    pub fn snap_load(
        dec: &mut fsencr_snapshot::Dec<'_>,
    ) -> Result<EccStore, fsencr_snapshot::SnapError> {
        let n = dec.get_count(16)?;
        let mut store = EccStore::new();
        for _ in 0..n {
            let raw = dec.get_u64()?;
            let line = LineAddr::new(raw);
            if line.get() != raw {
                return Err(fsencr_snapshot::SnapError::Corrupt("ecc line"));
            }
            store.put(line, dec.get_u64()?);
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    fn snap_bytes(ecc: &EccStore) -> Vec<u8> {
        let mut enc = fsencr_snapshot::Enc::new();
        enc.begin_section("ecc");
        ecc.snap_save(&mut enc);
        enc.end_section();
        enc.finish()
    }

    fn reload(image: &[u8]) -> EccStore {
        let mut dec = fsencr_snapshot::Dec::new(image).unwrap();
        dec.begin_section("ecc").unwrap();
        let loaded = EccStore::snap_load(&mut dec).unwrap();
        dec.end_section().unwrap();
        loaded
    }

    /// The store's contract as a plain map from line to its last written
    /// plaintext: `check` is plaintext equality.
    #[derive(Default)]
    struct Reference {
        plains: BTreeMap<u64, [u8; 64]>,
    }

    impl Reference {
        fn snap_bytes(&self) -> Vec<u8> {
            let mut enc = fsencr_snapshot::Enc::new();
            enc.begin_section("ecc");
            enc.put_u64(self.plains.len() as u64);
            for (line, plain) in &self.plains {
                enc.put_u64(*line);
                enc.put_u64(line_check(*line, plain));
            }
            enc.end_section();
            enc.finish()
        }
    }

    /// The highest line a `LineAddr` can hold.
    const TOP: u64 = !(fsencr_nvm::DF_BIT | 63);

    /// Line addresses across page edges: the first three and the last
    /// line of page 0 (4032), the first and last of page 1 (4096,
    /// 8128), a high page, and the two top lines of the highest page.
    const LINES: [u64; 9] = [0, 64, 128, 4032, 4096, 8128, 1 << 38, TOP - 64, TOP];

    /// Compares `pages`, `snap_save` and every `(line, plaintext)` check,
    /// unwritten and relocated lines included.
    fn assert_matches(ecc: &EccStore, reference: &Reference, plains: &[[u8; 64]], what: &str) {
        let mut pages = Vec::new();
        let mut walked = Vec::new();
        for (page, lines) in ecc.pages() {
            pages.push(page.get());
            for l in lines {
                assert_eq!(l.page(), page, "{what}: line outside its page");
                walked.push(l.get());
            }
        }
        let want: Vec<u64> = reference.plains.keys().copied().collect();
        assert_eq!(walked, want, "{what}: lines in ascending order");
        let mut want_pages: Vec<u64> = want
            .iter()
            .map(|&l| LineAddr::new(l).page().get())
            .collect();
        want_pages.dedup();
        assert_eq!(pages, want_pages, "{what}: pages in ascending order");
        for line in LINES {
            for plain in plains {
                let want = reference.plains.get(&line) == Some(plain);
                assert_eq!(
                    ecc.check(LineAddr::new(line), plain),
                    want,
                    "{what}: check {line}"
                );
            }
        }
        assert_eq!(snap_bytes(ecc), reference.snap_bytes(), "{what}: snap_save");
    }

    /// After a page clear, a clone and a reloaded image must agree with the
    /// reference as well: an emptied page leaves no trace in either.
    fn assert_cleared(ecc: &EccStore, reference: &Reference, plains: &[[u8; 64]], what: &str) {
        assert_matches(
            &ecc.clone(),
            reference,
            plains,
            &format!("{what} cleared clone"),
        );
        let reloaded = reload(&snap_bytes(ecc));
        assert_matches(
            &reloaded,
            reference,
            plains,
            &format!("{what} cleared reload"),
        );
    }

    #[test]
    fn store_matches_reference_map() {
        // Few lines and few distinct plaintexts, so rewrites, clears and
        // matching checks all happen often.
        let plains: Vec<[u8; 64]> = (0..5u8).map(|i| [i.wrapping_mul(0x3d); 64]).collect();
        for seed in 0..48u64 {
            let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut next = move |n: usize| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % n as u64) as usize
            };
            let mut ecc = EccStore::new();
            let mut reference = Reference::default();
            for step in 0..20 + next(40) {
                let line = LINES[next(LINES.len())];
                let plain = &plains[next(plains.len())];
                let what = format!("seed {seed} step {step}");
                match next(8) {
                    0..=4 => {
                        ecc.record(LineAddr::new(line), plain);
                        reference.plains.insert(line, *plain);
                    }
                    5 | 6 => {
                        let page = LineAddr::new(line).page();
                        ecc.clear_page(page);
                        reference
                            .plains
                            .retain(|&l, _| LineAddr::new(l).page() != page);
                        assert_cleared(&ecc, &reference, &plains, &what);
                    }
                    _ => {
                        assert_matches(&ecc.clone(), &reference, &plains, &format!("{what} clone"))
                    }
                }
                assert_matches(&ecc, &reference, &plains, &what);
            }
            let image = snap_bytes(&ecc);
            let loaded = reload(&image);
            assert_matches(
                &loaded,
                &reference,
                &plains,
                &format!("seed {seed} reloaded"),
            );
            assert_eq!(snap_bytes(&loaded), image, "seed {seed}: reload round trip");
        }
    }

    #[test]
    fn unaligned_or_tagged_lines_in_an_image_fail_typed() {
        for raw in [65, 4096 | fsencr_nvm::DF_BIT] {
            let mut enc = fsencr_snapshot::Enc::new();
            enc.begin_section("ecc");
            enc.put_u64(1);
            enc.put_u64(raw);
            enc.put_u64(0);
            enc.end_section();
            let image = enc.finish();
            let mut dec = fsencr_snapshot::Dec::new(&image).unwrap();
            dec.begin_section("ecc").unwrap();
            assert_eq!(
                EccStore::snap_load(&mut dec).err(),
                Some(fsencr_snapshot::SnapError::Corrupt("ecc line")),
                "line {raw:#x}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_check() {
        let mut x: u64 = 0x243f_6a88_85a3_08d3;
        let mut next = move || {
            x = x
                .wrapping_mul(0xd129_42dc_4cbb_3d4d)
                .wrapping_add(0xb504_f333);
            x
        };
        for _ in 0..16 {
            let mut line = [0u8; 64];
            for chunk in line.chunks_exact_mut(8) {
                chunk.copy_from_slice(&next().to_le_bytes());
            }
            let addr = next();
            let base = line_check(addr, &line);
            for bit in 0..512 {
                let mut flipped = line;
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(line_check(addr, &flipped), base, "line bit {bit}");
            }
            for bit in 0..64 {
                assert_ne!(
                    line_check(addr ^ (1 << bit), &line),
                    base,
                    "address bit {bit}"
                );
            }
        }
    }
}
