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
//! attacker plane (`ModuleInspect`, `ModuleFault`, `FaultPlane`) reaches
//! the store. Keep it that way: exposing the lane would leak plaintext.

use std::collections::HashMap;

use fsencr_nvm::LineAddr;

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

/// Per-line ECC checks over plaintext, the Osiris recovery oracle.
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
    tags: HashMap<u64, u64>,
}

impl EccStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        EccStore::default()
    }

    /// Records the check for a line being written with `plaintext`; the
    /// last write to a line wins.
    pub fn record(&mut self, line: LineAddr, plaintext: &[u8; 64]) {
        self.tags
            .insert(line.get(), line_check(line.get(), plaintext));
    }

    /// Checks a candidate plaintext against the stored check. Lines that
    /// were never written have none and fail.
    pub fn check(&self, line: LineAddr, plaintext: &[u8; 64]) -> bool {
        self.tags.get(&line.get()) == Some(&line_check(line.get(), plaintext))
    }

    /// Drops the check (page shredding).
    pub fn clear(&mut self, line: LineAddr) {
        self.tags.remove(&line.get());
    }

    /// Iterates every recorded line (recovery walks this instead of the
    /// whole address space).
    pub fn lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.tags.keys().copied().map(LineAddr::new)
    }

    /// Serializes every check in sorted line order.
    pub fn snap_save(&self, enc: &mut fsencr_snapshot::Enc) {
        let mut entries: Vec<(u64, u64)> = self.tags.iter().map(|(k, v)| (*k, *v)).collect();
        entries.sort_unstable();
        enc.put_u64(entries.len() as u64);
        for (line, tag) in entries {
            enc.put_u64(line);
            enc.put_u64(tag);
        }
    }

    /// Restores a store from [`EccStore::snap_save`] bytes.
    pub fn snap_load(
        dec: &mut fsencr_snapshot::Dec<'_>,
    ) -> Result<EccStore, fsencr_snapshot::SnapError> {
        let n = dec.get_count(16)?;
        let mut tags = HashMap::with_capacity(n);
        for _ in 0..n {
            let line = dec.get_u64()?;
            tags.insert(line, dec.get_u64()?);
        }
        Ok(EccStore { tags })
    }
}

#[cfg(test)]
mod tests {
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
        plains: HashMap<u64, [u8; 64]>,
    }

    impl Reference {
        fn snap_bytes(&self) -> Vec<u8> {
            let mut entries: Vec<_> = self.plains.iter().collect();
            entries.sort_unstable_by_key(|(line, _)| **line);
            let mut enc = fsencr_snapshot::Enc::new();
            enc.begin_section("ecc");
            enc.put_u64(entries.len() as u64);
            for (line, plain) in entries {
                enc.put_u64(*line);
                enc.put_u64(line_check(*line, plain));
            }
            enc.end_section();
            enc.finish()
        }
    }

    /// Line addresses up to the highest one a `LineAddr` can hold.
    const LINES: [u64; 6] = [0, 64, 128, 4096, 1 << 38, !(fsencr_nvm::DF_BIT | 63)];

    /// Compares `lines`, `snap_save` and every `(line, plaintext)` check,
    /// unwritten and relocated lines included.
    fn assert_matches(ecc: &EccStore, reference: &Reference, plains: &[[u8; 64]], what: &str) {
        let mut lines: Vec<u64> = ecc.lines().map(|l| l.get()).collect();
        lines.sort_unstable();
        let mut want: Vec<u64> = reference.plains.keys().copied().collect();
        want.sort_unstable();
        assert_eq!(lines, want, "{what}: lines");
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
                match next(7) {
                    0..=4 => {
                        ecc.record(LineAddr::new(line), plain);
                        reference.plains.insert(line, *plain);
                    }
                    5 => {
                        ecc.clear(LineAddr::new(line));
                        reference.plains.remove(&line);
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
