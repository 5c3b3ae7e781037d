//! Counter-mode one-time-pad generation (Figure 2 of the paper).
//!
//! The Initialization Vector packs spatial uniqueness (page ID + block
//! offset within the page), temporal uniqueness (per-block minor counter +
//! per-page major counter) and a domain tag that separates the memory
//! encryption engine's pads (`OTP_mem`) from the file encryption engine's
//! (`OTP_file`). One 64-byte cache line needs four AES blocks; a 2-bit lane
//! index inside the IV keeps the four pads distinct.

use crate::aes::Aes128;
use crate::key::Key128;

/// Which encryption engine a pad belongs to.
///
/// Stacked encryption XORs one pad from each domain (Section III-F of the
/// paper); tagging the IV guarantees the two engines can never collide even
/// if their counters happen to match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PadDomain {
    /// General memory encryption (`OTP_mem`, MECB counters).
    Memory,
    /// DAX-file encryption (`OTP_file`, FECB counters).
    File,
}

impl PadDomain {
    fn tag(self) -> u8 {
        match self {
            PadDomain::Memory => 0x4d, // 'M'
            PadDomain::File => 0x46,   // 'F'
        }
    }
}

/// Everything that goes into a counter-mode IV for one 64-byte line.
///
/// # Examples
///
/// ```
/// use fsencr_crypto::{line_pad, Key128, PadDomain, PadInput};
///
/// let key = Key128::from_seed(9);
/// let input = PadInput {
///     page_id: 0x1234,
///     block_in_page: 3,
///     major: 7,
///     minor: 2,
///     domain: PadDomain::Memory,
/// };
/// let pad = line_pad(&key, &input);
/// assert_eq!(pad.len(), 64);
/// // A different minor counter produces an unrelated pad.
/// let next = line_pad(&key, &PadInput { minor: 3, ..input });
/// assert_ne!(pad, next);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PadInput {
    /// Physical page number (spatial uniqueness; 48 bits used).
    pub page_id: u64,
    /// 64-byte block index within the 4 KiB page, `0..64`.
    pub block_in_page: u8,
    /// Per-page major counter (64-bit in MECBs, 32-bit in FECBs).
    pub major: u64,
    /// Per-block 7-bit minor counter.
    pub minor: u8,
    /// Engine domain tag.
    pub domain: PadDomain,
}

impl PadInput {
    /// Serializes the IV for one 16-byte lane (`lane` in `0..4`).
    ///
    /// Layout: bytes 0-5 page ID (LE48), byte 6 packs the block index (low
    /// 6 bits) and the lane (high 2 bits), byte 7 the domain tag, bytes
    /// 8-14 the major counter (LE56), byte 15 the minor counter.
    ///
    /// # Panics
    ///
    /// Panics if `block_in_page >= 64` or `lane >= 4`.
    pub fn iv_for_lane(&self, lane: u8) -> [u8; 16] {
        assert!(self.block_in_page < 64, "block_in_page out of range");
        assert!(lane < 4, "lane out of range");
        let mut iv = [0u8; 16];
        iv[..6].copy_from_slice(&self.page_id.to_le_bytes()[..6]);
        iv[6] = self.block_in_page | (lane << 6);
        iv[7] = self.domain.tag();
        iv[8..15].copy_from_slice(&self.major.to_le_bytes()[..7]);
        iv[15] = self.minor;
        iv
    }
}

/// Generates the 64-byte one-time pad for one cache line.
pub fn line_pad(key: &Key128, input: &PadInput) -> [u8; 64] {
    let aes = Aes128::new(key);
    line_pad_with(&aes, input)
}

/// Like [`line_pad`] but reuses an expanded key schedule (the hot path in
/// the simulator — key expansion dominates otherwise).
pub fn line_pad_with(aes: &Aes128, input: &PadInput) -> [u8; 64] {
    let mut pad = [0u8; 64];
    line_pad_into(aes, input, &mut pad);
    pad
}

/// Like [`line_pad_with`] but writes into a caller-owned buffer, so
/// per-line callers can reuse one pad allocation. Routes through the
/// 4-lane kernel ([`ctr_pads_n`]): the four counter blocks of one line
/// are independent, so their AES rounds interleave for ILP.
///
/// # Panics
///
/// Panics if `input.block_in_page >= 64`.
pub fn line_pad_into(aes: &Aes128, input: &PadInput, pad: &mut [u8; 64]) {
    ctr_pads_n(aes, input, 4, pad);
}

/// The multi-lane CTR pad kernel: generates the 64-byte pad for one line
/// with `lanes` counter blocks in flight at once.
///
/// `lanes == 1` encrypts the four counter blocks one at a time (the
/// block-at-a-time path this kernel replaces, kept as the benchmark
/// comparator); `lanes == 4` advances all four through the AES rounds
/// together via [`Aes128::encrypt_ctr_lanes`]. Both produce bit-identical
/// pads — the lane count only changes host instruction-level
/// parallelism, never the ciphertext.
///
/// # Panics
///
/// Panics if `lanes` is neither 1 nor 4, or if `input.block_in_page >= 64`.
pub fn ctr_pads_n(aes: &Aes128, input: &PadInput, lanes: usize, pad: &mut [u8; 64]) {
    assert!(lanes == 1 || lanes == 4, "lane count must be 1 or 4");
    if lanes == 4 {
        // The four lane IVs differ only in the lane bits of byte 6, so
        // the specialized kernel shares most of rounds 1-2 across lanes.
        let blocks = aes.encrypt_ctr_lanes(input.iv_for_lane(0));
        for (chunk, block) in pad.chunks_exact_mut(16).zip(blocks.iter()) {
            chunk.copy_from_slice(block);
        }
    } else {
        let mut iv = input.iv_for_lane(0);
        for (lane, chunk) in (0u8..).zip(pad.chunks_exact_mut(16)) {
            iv[6] = input.block_in_page | (lane << 6);
            chunk.copy_from_slice(&aes.encrypt_block(iv));
        }
    }
}

/// XORs `pad` into `data` in place — the encrypt *and* decrypt operation of
/// counter mode.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn xor_in_place(data: &mut [u8], pad: &[u8]) {
    assert_eq!(data.len(), pad.len(), "pad length mismatch");
    for (d, p) in data.iter_mut().zip(pad.iter()) {
        *d ^= p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PadInput {
        PadInput {
            page_id: 0xABCD_EF01_2345,
            block_in_page: 17,
            major: 99,
            minor: 5,
            domain: PadDomain::Memory,
        }
    }

    #[test]
    fn iv_layout_is_injective_in_every_field() {
        let base = sample();
        let base_iv = base.iv_for_lane(0);
        let variants = [
            PadInput {
                page_id: base.page_id + 1,
                ..base
            },
            PadInput {
                block_in_page: 18,
                ..base
            },
            PadInput { major: 100, ..base },
            PadInput { minor: 6, ..base },
            PadInput {
                domain: PadDomain::File,
                ..base
            },
        ];
        for v in variants {
            assert_ne!(v.iv_for_lane(0), base_iv, "{v:?} collided");
        }
        assert_ne!(base.iv_for_lane(1), base_iv);
    }

    #[test]
    fn lanes_do_not_collide_with_block_index() {
        // block 1 lane 0 vs block 1+64? impossible (block<64). But lane bits
        // occupy the top of byte 6; make sure block 63 lane 0 differs from
        // block 63 lane 1.
        let a = PadInput {
            block_in_page: 63,
            ..sample()
        };
        assert_ne!(a.iv_for_lane(0)[6], a.iv_for_lane(1)[6]);
    }

    #[test]
    #[should_panic(expected = "block_in_page out of range")]
    fn oversized_block_panics() {
        PadInput {
            block_in_page: 64,
            ..sample()
        }
        .iv_for_lane(0);
    }

    #[test]
    #[should_panic(expected = "lane out of range")]
    fn oversized_lane_panics() {
        sample().iv_for_lane(4);
    }

    #[test]
    fn pad_roundtrip() {
        let key = Key128::from_seed(123);
        let pad = line_pad(&key, &sample());
        let mut data = [0u8; 64];
        for (i, d) in data.iter_mut().enumerate() {
            *d = i as u8;
        }
        let original = data;
        xor_in_place(&mut data, &pad);
        assert_ne!(data, original, "encryption must change the data");
        xor_in_place(&mut data, &pad);
        assert_eq!(data, original);
    }

    #[test]
    fn pads_differ_between_domains() {
        let key = Key128::from_seed(3);
        let mem = line_pad(&key, &sample());
        let file = line_pad(
            &key,
            &PadInput {
                domain: PadDomain::File,
                ..sample()
            },
        );
        assert_ne!(mem, file);
    }

    #[test]
    fn pads_differ_between_minors() {
        let key = Key128::from_seed(3);
        let a = line_pad(&key, &sample());
        let b = line_pad(
            &key,
            &PadInput {
                minor: 6,
                ..sample()
            },
        );
        assert_ne!(a, b);
        // and every 16-byte lane differs, not just one
        for lane in 0..4 {
            assert_ne!(a[16 * lane..16 * lane + 16], b[16 * lane..16 * lane + 16]);
        }
    }

    #[test]
    fn cached_schedule_matches_fresh() {
        let key = Key128::from_seed(55);
        let aes = Aes128::new(&key);
        assert_eq!(line_pad(&key, &sample()), line_pad_with(&aes, &sample()));
    }

    #[test]
    fn into_variant_matches_and_overwrites() {
        let key = Key128::from_seed(55);
        let aes = Aes128::new(&key);
        let mut buf = [0xAAu8; 64];
        line_pad_into(&aes, &sample(), &mut buf);
        assert_eq!(buf, line_pad_with(&aes, &sample()));
        // Reuse must fully overwrite the previous contents.
        let other = PadInput {
            minor: 6,
            ..sample()
        };
        line_pad_into(&aes, &other, &mut buf);
        assert_eq!(buf, line_pad_with(&aes, &other));
    }

    #[test]
    #[should_panic(expected = "pad length mismatch")]
    fn xor_length_mismatch_panics() {
        let mut d = [0u8; 4];
        xor_in_place(&mut d, &[0u8; 5]);
    }

    #[test]
    fn multi_lane_pads_match_block_at_a_time() {
        let aes = Aes128::new(&Key128::from_seed(0xbeef));
        let mut one = [0u8; 64];
        let mut four = [0u8; 64];
        for page_id in [0u64, 1, 0xABCD_EF01_2345] {
            for block_in_page in [0u8, 17, 63] {
                for domain in [PadDomain::Memory, PadDomain::File] {
                    let input = PadInput {
                        page_id,
                        block_in_page,
                        major: 7 + u64::from(block_in_page),
                        minor: block_in_page & 0x7f,
                        domain,
                    };
                    ctr_pads_n(&aes, &input, 1, &mut one);
                    ctr_pads_n(&aes, &input, 4, &mut four);
                    assert_eq!(one, four, "{input:?}");
                    assert_eq!(four, line_pad_with(&aes, &input));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "lane count must be 1 or 4")]
    fn unsupported_lane_count_panics() {
        let aes = Aes128::new(&Key128::from_seed(1));
        ctr_pads_n(&aes, &sample(), 2, &mut [0u8; 64]);
    }
}
