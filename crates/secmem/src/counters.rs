//! The split-counter block (Figure 6 of the paper).
//!
//! A 64-byte counter block covers one 4 KiB page (64 lines): an 8-byte
//! header, then 64 seven-bit minors in the remaining 56 bytes. Both
//! engines share one [`CounterBlock`] and one counter protocol; the
//! [`PadDomain`] tag picks the header. The MECB spends all eight bytes
//! on a 64-bit major. The FECB is an MECB that gives 32 bits of its
//! major to the owning 18-bit Group ID and 14-bit File ID — file
//! counters only need to outlive the file, not the device.

use fsencr_crypto::{PadDomain, PadInput};
use fsencr_nvm::PageId;

/// Minor counters per block — one per 64-byte line of a 4 KiB page.
pub const MINORS_PER_BLOCK: usize = 64;

/// Exclusive upper bound of a 7-bit minor counter.
pub const MINOR_LIMIT: u8 = 128;

const MINOR_BITS: usize = 7;

/// Minors per packed word: eight 7-bit minors fill the low 56 bits of a
/// little-endian `u64`, i.e. exactly seven bytes of the block.
const MINORS_PER_WORD: usize = 8;

/// Bytes each group of [`MINORS_PER_WORD`] minors occupies.
const WORD_BYTES: usize = MINORS_PER_WORD * MINOR_BITS / 8;

/// Packs 64 seven-bit values into 56 bytes, LSB-first: minor `i` lands at
/// bit `7 * i` of the little-endian bit stream. Works a word at a time —
/// eight minors per `u64`, seven bytes per word.
fn pack_minors(minors: &[u8; MINORS_PER_BLOCK], out: &mut [u8]) {
    debug_assert_eq!(out.len(), 56);
    for (group, bytes) in minors
        .chunks_exact(MINORS_PER_WORD)
        .zip(out.chunks_exact_mut(WORD_BYTES))
    {
        let mut word = 0u64;
        for (j, &m) in group.iter().enumerate() {
            debug_assert!(m < MINOR_LIMIT);
            word |= u64::from(m) << (MINOR_BITS * j);
        }
        bytes.copy_from_slice(&word.to_le_bytes()[..WORD_BYTES]);
    }
}

/// Unpacks 64 seven-bit values from 56 bytes; the inverse of
/// [`pack_minors`].
fn unpack_minors(bytes: &[u8]) -> [u8; MINORS_PER_BLOCK] {
    debug_assert_eq!(bytes.len(), 56);
    let mut minors = [0u8; MINORS_PER_BLOCK];
    for (group, chunk) in minors
        .chunks_exact_mut(MINORS_PER_WORD)
        .zip(bytes.chunks_exact(WORD_BYTES))
    {
        let mut le = [0u8; 8];
        le[..WORD_BYTES].copy_from_slice(chunk);
        let word = u64::from_le_bytes(le);
        for (j, m) in group.iter_mut().enumerate() {
            *m = ((word >> (MINOR_BITS * j)) & 0x7f) as u8;
        }
    }
    minors
}

/// Maximum Group ID value (18 bits).
pub const GID_LIMIT: u32 = 1 << 18;

/// Maximum File ID value (14 bits).
pub const FID_LIMIT: u32 = 1 << 14;

/// A split-counter block of either engine: a per-page major counter
/// plus 64 seven-bit minors, tagged with the [`PadDomain`] whose pads it
/// drives. A file block also carries its owner's Group ID and File ID;
/// a memory block's are always zero.
///
/// # Examples
///
/// ```
/// use fsencr_crypto::PadDomain;
/// use fsencr_secmem::{CounterBlock, MINOR_LIMIT};
///
/// let mut b = CounterBlock::new(PadDomain::Memory);
/// for _ in 0..(MINOR_LIMIT as u32 - 1) {
///     assert!(!b.increment(0));
/// }
/// // The 128th increment overflows the 7-bit minor.
/// assert!(b.increment(0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterBlock {
    domain: PadDomain,
    gid: u32,
    fid: u32,
    major: u64,
    minors: [u8; MINORS_PER_BLOCK],
}

impl CounterBlock {
    /// A fresh all-zero block of `domain`'s engine (a file block starts
    /// with no owner).
    pub fn new(domain: PadDomain) -> Self {
        CounterBlock {
            domain,
            gid: 0,
            fid: 0,
            major: 0,
            minors: [0; MINORS_PER_BLOCK],
        }
    }

    /// The engine whose pads this block drives.
    pub fn domain(&self) -> PadDomain {
        self.domain
    }

    /// The 18-bit Group ID of the owning file (0 in a memory block).
    pub fn gid(&self) -> u32 {
        self.gid
    }

    /// The 14-bit File ID of the owning file (0 in a memory block).
    pub fn fid(&self) -> u32 {
        self.fid
    }

    /// Whether the block names an owning file: the on-media test for
    /// "is this a DAX-file page?".
    pub fn is_owned(&self) -> bool {
        self.gid != 0 || self.fid != 0
    }

    /// The per-page major counter: 64 bits in an MECB, 32 in an FECB.
    pub fn major(&self) -> u64 {
        self.major
    }

    /// The minor counter of line `block` (0..64).
    ///
    /// # Panics
    ///
    /// Panics if `block >= 64`.
    pub fn minor(&self, block: usize) -> u8 {
        self.minors[block]
    }

    /// The IV of line `block` of `page` under these counters, in the
    /// block's pad domain — the one IV layout of both engines, the
    /// controller's and the attacker model's.
    pub fn pad_input(&self, page: PageId, block: u8) -> PadInput {
        PadInput {
            page_id: page.get(),
            block_in_page: block,
            major: self.major,
            minor: self.minor(block as usize),
            domain: self.domain,
        }
    }

    /// Increments the minor counter of `block`. Returns `true` when the
    /// minor overflowed — the caller must then call
    /// [`CounterBlock::carry_major`] and re-encrypt the whole page.
    pub fn increment(&mut self, block: usize) -> bool {
        if self.minors[block] + 1 >= MINOR_LIMIT {
            true
        } else {
            self.minors[block] += 1;
            false
        }
    }

    /// Handles a minor overflow: bumps the major counter (an FECB's
    /// wraps at 2^32, like its field) and resets every minor to zero.
    pub fn carry_major(&mut self) {
        self.major = self.wrap(self.major.wrapping_add(1));
        self.minors = [0; MINORS_PER_BLOCK];
    }

    /// Forces specific counter values (used by recovery and tests). An
    /// FECB keeps the low 32 bits of `major`.
    ///
    /// # Panics
    ///
    /// Panics if `minor >= 128`.
    pub fn set(&mut self, major: u64, block: usize, minor: u8) {
        assert!(minor < MINOR_LIMIT);
        self.major = self.wrap(major);
        self.minors[block] = minor;
    }

    /// Re-stamps a file block's owner (page fault handler path: the
    /// kernel tells the controller which file now owns the page).
    ///
    /// # Panics
    ///
    /// Panics on a memory block, or if `gid` exceeds 18 bits or `fid`
    /// exceeds 14 bits.
    pub fn stamp(&mut self, gid: u32, fid: u32) {
        assert!(
            self.domain == PadDomain::File,
            "only a file block has an owner"
        );
        assert!(gid < GID_LIMIT, "group ID exceeds 18 bits");
        assert!(fid < FID_LIMIT, "file ID exceeds 14 bits");
        self.gid = gid;
        self.fid = fid;
    }

    /// `major` cut to the width of this block's major field.
    fn wrap(&self, major: u64) -> u64 {
        match self.domain {
            PadDomain::Memory => major,
            PadDomain::File => major & u64::from(u32::MAX),
        }
    }

    /// Serializes to the 64-byte in-memory representation. Only the
    /// 8-byte header depends on the engine: an MECB's 64-bit major, or
    /// an FECB's `(gid << 14) | fid` word followed by its 32-bit major.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        let major = self.major.to_le_bytes();
        match self.domain {
            PadDomain::Memory => out[..8].copy_from_slice(&major),
            PadDomain::File => {
                out[..4].copy_from_slice(&((self.gid << 14) | self.fid).to_le_bytes());
                out[4..8].copy_from_slice(&major[..4]);
            }
        }
        pack_minors(&self.minors, &mut out[8..64]);
        out
    }

    /// Parses the 64-byte in-memory representation of a `domain` block.
    pub fn from_bytes(domain: PadDomain, bytes: &[u8; 64]) -> Self {
        let mut head = [0u8; 8];
        head.copy_from_slice(&bytes[..8]);
        let head = u64::from_le_bytes(head);
        let mut block = CounterBlock::new(domain);
        match domain {
            PadDomain::Memory => block.major = head,
            PadDomain::File => {
                let id_word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
                block.gid = id_word >> 14;
                block.fid = id_word & (FID_LIMIT - 1);
                block.major = head >> 32;
            }
        }
        block.minors = unpack_minors(&bytes[8..64]);
        block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-serial codec the word packer replaced, kept as the
    /// reference: one minor at a time, split across a byte boundary
    /// where needed.
    fn pack_minors_bitwise(minors: &[u8; MINORS_PER_BLOCK]) -> [u8; 56] {
        let mut out = [0u8; 56];
        for (i, &m) in minors.iter().enumerate() {
            let bit = i * MINOR_BITS;
            let byte = bit / 8;
            let shift = bit % 8;
            out[byte] |= m << shift;
            if shift > 1 {
                out[byte + 1] |= m >> (8 - shift);
            }
        }
        out
    }

    fn unpack_minors_bitwise(bytes: &[u8; 56]) -> [u8; MINORS_PER_BLOCK] {
        let mut minors = [0u8; MINORS_PER_BLOCK];
        for (i, m) in minors.iter_mut().enumerate() {
            let bit = i * MINOR_BITS;
            let byte = bit / 8;
            let shift = bit % 8;
            let mut v = (bytes[byte] >> shift) as u16;
            if shift > 1 {
                v |= (bytes[byte + 1] as u16) << (8 - shift);
            }
            *m = (v & 0x7f) as u8;
        }
        minors
    }

    fn assert_codecs_agree(minors: &[u8; MINORS_PER_BLOCK], what: &str) {
        let mut packed = [0u8; 56];
        pack_minors(minors, &mut packed);
        assert_eq!(packed, pack_minors_bitwise(minors), "pack {what}");
        assert_eq!(unpack_minors(&packed), *minors, "round trip {what}");
        assert_eq!(
            unpack_minors(&packed),
            unpack_minors_bitwise(&packed),
            "unpack {what}"
        );
    }

    #[test]
    fn word_packer_matches_bitwise_codec_on_every_single_minor() {
        for i in 0..MINORS_PER_BLOCK {
            for v in 1..MINOR_LIMIT {
                let mut minors = [0u8; MINORS_PER_BLOCK];
                minors[i] = v;
                assert_codecs_agree(&minors, &format!("minor {i} = {v}"));
            }
        }
    }

    #[test]
    fn word_packer_matches_bitwise_codec_on_random_blocks() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..512 {
            let mut minors = [0u8; MINORS_PER_BLOCK];
            for m in minors.iter_mut() {
                *m = (next() % u64::from(MINOR_LIMIT)) as u8;
            }
            assert_codecs_agree(&minors, &format!("round {round}"));
            // Every 56-byte image is a valid block: the unpackers must
            // agree on arbitrary bytes too.
            let mut bytes = [0u8; 56];
            for b in bytes.iter_mut() {
                *b = next() as u8;
            }
            assert_eq!(
                unpack_minors(&bytes),
                unpack_minors_bitwise(&bytes),
                "round {round}"
            );
        }
    }

    #[test]
    fn minor_packing_roundtrips_all_patterns() {
        let mut minors = [0u8; MINORS_PER_BLOCK];
        for (i, m) in minors.iter_mut().enumerate() {
            *m = ((i * 37) % 128) as u8;
        }
        let mut packed = [0u8; 56];
        pack_minors(&minors, &mut packed);
        assert_eq!(unpack_minors(&packed), minors);
    }

    #[test]
    fn minor_packing_extremes() {
        let minors = [127u8; MINORS_PER_BLOCK];
        let mut packed = [0u8; 56];
        pack_minors(&minors, &mut packed);
        assert_eq!(packed, [0xffu8; 56]);
        assert_eq!(unpack_minors(&packed), minors);
    }

    fn file_block(gid: u32, fid: u32) -> CounterBlock {
        let mut f = CounterBlock::new(PadDomain::File);
        f.stamp(gid, fid);
        f
    }

    #[test]
    fn block_layout_matches_figure_6() {
        assert_eq!(MINORS_PER_BLOCK, 64);
        assert_eq!(MINOR_LIMIT, 128);
        assert_eq!(GID_LIMIT, 1 << 18);
        assert_eq!(FID_LIMIT, 1 << 14);
        // MECB: the 64-bit major, little-endian, at bytes 0..8.
        let mut m = CounterBlock::new(PadDomain::Memory);
        m.set(0x0123_4567_89ab_cdef, 63, 127);
        assert_eq!(
            m.to_bytes()[..8],
            [0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01]
        );
        // FECB: the ID word `(gid << 14) | fid` at 0..4, then the 32-bit
        // major at 4..8, both little-endian. (3 << 14) | 5 = 0xc005.
        let mut f = file_block(3, 5);
        f.set(0xdead_beef, 17, 99);
        assert_eq!(
            f.to_bytes()[..8],
            [0x05, 0xc0, 0x00, 0x00, 0xef, 0xbe, 0xad, 0xde]
        );
        // The widest IDs fill the 32-bit word exactly.
        let widest = file_block(GID_LIMIT - 1, FID_LIMIT - 1);
        assert_eq!(widest.to_bytes()[..8], [0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0]);
        // 64 x 7-bit minors fill bytes 8..64 bit-exactly.
        let mut full = CounterBlock::new(PadDomain::Memory);
        for block in 0..MINORS_PER_BLOCK {
            full.set(0, block, MINOR_LIMIT - 1);
        }
        let bytes = full.to_bytes();
        assert_eq!(bytes[..8], [0u8; 8]);
        assert_eq!(bytes[8..], [0xffu8; 56]);
    }

    #[test]
    fn mecb_roundtrip() {
        let mut b = CounterBlock::new(PadDomain::Memory);
        b.set(0xdeadbeef_12345678, 7, 99);
        b.set(0xdeadbeef_12345678, 63, 1);
        let bytes = b.to_bytes();
        assert_eq!(CounterBlock::from_bytes(PadDomain::Memory, &bytes), b);
    }

    #[test]
    fn mecb_increment_and_overflow() {
        let mut b = CounterBlock::new(PadDomain::Memory);
        for i in 1..=127u8 {
            assert!(!b.increment(3));
            assert_eq!(b.minor(3), i);
        }
        assert!(b.increment(3), "128th increment -> overflow signalled");
        // counter unchanged until carry
        assert_eq!(b.minor(3), 127);
        b.carry_major();
        assert_eq!(b.major(), 1);
        assert_eq!(b.minor(3), 0);
        assert_eq!(b.minor(0), 0);
    }

    #[test]
    fn fecb_identity_packing() {
        // extreme IDs exercise the 18/14-bit boundary
        let f = file_block(GID_LIMIT - 1, FID_LIMIT - 1);
        let back = CounterBlock::from_bytes(PadDomain::File, &f.to_bytes());
        assert_eq!(back.gid(), GID_LIMIT - 1);
        assert_eq!(back.fid(), FID_LIMIT - 1);
    }

    #[test]
    fn fecb_major_wraps_at_32_bits() {
        let mut f = file_block(1, 2);
        f.set(u64::from(u32::MAX), 5, 9);
        f.carry_major();
        assert_eq!((f.major(), f.minor(5)), (0, 0));
        f.set((1 << 32) | 7, 0, 0);
        assert_eq!(f.major(), 7);
        assert_eq!(CounterBlock::from_bytes(PadDomain::File, &f.to_bytes()), f);
        let mut m = CounterBlock::new(PadDomain::Memory);
        m.set(u64::from(u32::MAX), 0, 0);
        m.carry_major();
        assert_eq!(m.major(), 1 << 32);
    }

    #[test]
    #[should_panic(expected = "group ID exceeds 18 bits")]
    fn oversized_gid_panics() {
        file_block(GID_LIMIT, 0);
    }

    #[test]
    #[should_panic(expected = "file ID exceeds 14 bits")]
    fn oversized_fid_panics() {
        file_block(0, FID_LIMIT);
    }

    #[test]
    #[should_panic(expected = "only a file block has an owner")]
    fn memory_block_has_no_owner() {
        CounterBlock::new(PadDomain::Memory).stamp(1, 1);
    }

    #[test]
    fn fecb_stamp_preserves_counters() {
        let mut f = file_block(1, 1);
        f.increment(0);
        f.increment(0);
        f.stamp(5, 9);
        assert_eq!(f.minor(0), 2);
        assert_eq!((f.gid(), f.fid()), (5, 9));
        assert!(f.is_owned());
        f.stamp(0, 0);
        assert!(!f.is_owned());
    }
}
