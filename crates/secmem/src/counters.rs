//! Split-counter block codecs (Figure 6 of the paper).
//!
//! A 64-byte counter block covers one 4 KiB page (64 lines). The classic
//! MECB packs a 64-bit major counter and 64 seven-bit minors into exactly
//! 64 bytes. The FECB trades major-counter width for identity: 18-bit
//! Group ID + 14-bit File ID + 32-bit major + the same 64 seven-bit
//! minors — file counters only need to outlive the file, not the device.

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

/// Memory Encryption Counter Block: 64-bit major + 64 x 7-bit minors.
///
/// # Examples
///
/// ```
/// use fsencr_secmem::{Mecb, MINOR_LIMIT};
///
/// let mut b = Mecb::new();
/// for _ in 0..(MINOR_LIMIT as u32 - 1) {
///     assert!(!b.increment(0));
/// }
/// // The 128th increment overflows the 7-bit minor.
/// assert!(b.increment(0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mecb {
    major: u64,
    minors: [u8; MINORS_PER_BLOCK],
}

impl Default for Mecb {
    fn default() -> Self {
        Mecb::new()
    }
}

impl Mecb {
    /// A fresh all-zero counter block.
    pub fn new() -> Self {
        Mecb {
            major: 0,
            minors: [0; MINORS_PER_BLOCK],
        }
    }

    /// The per-page major counter.
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

    /// Increments the minor counter of `block`. Returns `true` when the
    /// minor overflowed — the caller must then call
    /// [`Mecb::carry_major`] and re-encrypt the whole page.
    pub fn increment(&mut self, block: usize) -> bool {
        if self.minors[block] + 1 >= MINOR_LIMIT {
            true
        } else {
            self.minors[block] += 1;
            false
        }
    }

    /// Handles a minor overflow: bumps the major counter and resets every
    /// minor to zero.
    pub fn carry_major(&mut self) {
        self.major += 1;
        self.minors = [0; MINORS_PER_BLOCK];
    }

    /// Forces specific counter values (used by recovery and tests).
    pub fn set(&mut self, major: u64, block: usize, minor: u8) {
        assert!(minor < MINOR_LIMIT);
        self.major = major;
        self.minors[block] = minor;
    }

    /// Serializes to the 64-byte in-memory representation.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..8].copy_from_slice(&self.major.to_le_bytes());
        pack_minors(&self.minors, &mut out[8..64]);
        out
    }

    /// Parses the 64-byte in-memory representation.
    pub fn from_bytes(bytes: &[u8; 64]) -> Self {
        let mut major_bytes = [0u8; 8];
        major_bytes.copy_from_slice(&bytes[..8]);
        Mecb {
            major: u64::from_le_bytes(major_bytes),
            minors: unpack_minors(&bytes[8..64]),
        }
    }
}

/// Maximum Group ID value (18 bits).
pub const GID_LIMIT: u32 = 1 << 18;

/// Maximum File ID value (14 bits).
pub const FID_LIMIT: u32 = 1 << 14;

/// File Encryption Counter Block: Group ID (18b) + File ID (14b) +
/// 32-bit major + 64 x 7-bit minors (Figure 6).
///
/// # Examples
///
/// ```
/// use fsencr_secmem::Fecb;
///
/// let mut f = Fecb::new(3, 17);
/// f.increment(2);
/// let bytes = f.to_bytes();
/// let back = Fecb::from_bytes(&bytes);
/// assert_eq!(back.gid(), 3);
/// assert_eq!(back.fid(), 17);
/// assert_eq!(back.minor(2), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fecb {
    gid: u32,
    fid: u32,
    major: u32,
    minors: [u8; MINORS_PER_BLOCK],
}

impl Default for Fecb {
    fn default() -> Self {
        Fecb::new(0, 0)
    }
}

impl Fecb {
    /// A fresh counter block stamped with the owning group and file.
    ///
    /// # Panics
    ///
    /// Panics if `gid` exceeds 18 bits or `fid` exceeds 14 bits.
    pub fn new(gid: u32, fid: u32) -> Self {
        assert!(gid < GID_LIMIT, "group ID exceeds 18 bits");
        assert!(fid < FID_LIMIT, "file ID exceeds 14 bits");
        Fecb {
            gid,
            fid,
            major: 0,
            minors: [0; MINORS_PER_BLOCK],
        }
    }

    /// The 18-bit Group ID embedded in the block.
    pub fn gid(&self) -> u32 {
        self.gid
    }

    /// The 14-bit File ID embedded in the block.
    pub fn fid(&self) -> u32 {
        self.fid
    }

    /// The 32-bit per-page major counter.
    pub fn major(&self) -> u32 {
        self.major
    }

    /// The minor counter of line `block` (0..64).
    pub fn minor(&self, block: usize) -> u8 {
        self.minors[block]
    }

    /// Re-stamps the identity (page fault handler path: the kernel tells
    /// the controller which file now owns the page).
    pub fn stamp(&mut self, gid: u32, fid: u32) {
        assert!(gid < GID_LIMIT, "group ID exceeds 18 bits");
        assert!(fid < FID_LIMIT, "file ID exceeds 14 bits");
        self.gid = gid;
        self.fid = fid;
    }

    /// Increments the minor counter of `block`; `true` signals overflow.
    pub fn increment(&mut self, block: usize) -> bool {
        if self.minors[block] + 1 >= MINOR_LIMIT {
            true
        } else {
            self.minors[block] += 1;
            false
        }
    }

    /// Handles a minor overflow: bumps the major and resets the minors.
    pub fn carry_major(&mut self) {
        self.major += 1;
        self.minors = [0; MINORS_PER_BLOCK];
    }

    /// Forces specific counter values (used by crash recovery).
    ///
    /// # Panics
    ///
    /// Panics if `minor >= 128`.
    pub fn set(&mut self, major: u32, block: usize, minor: u8) {
        assert!(minor < MINOR_LIMIT);
        self.major = major;
        self.minors[block] = minor;
    }

    /// Serializes to the 64-byte in-memory representation.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        let id_word = (self.gid << 14) | self.fid;
        out[..4].copy_from_slice(&id_word.to_le_bytes());
        out[4..8].copy_from_slice(&self.major.to_le_bytes());
        pack_minors(&self.minors, &mut out[8..64]);
        out
    }

    /// Parses the 64-byte in-memory representation.
    pub fn from_bytes(bytes: &[u8; 64]) -> Self {
        let mut word = [0u8; 4];
        word.copy_from_slice(&bytes[..4]);
        let id_word = u32::from_le_bytes(word);
        let mut major = [0u8; 4];
        major.copy_from_slice(&bytes[4..8]);
        Fecb {
            gid: id_word >> 14,
            fid: id_word & (FID_LIMIT - 1),
            major: u32::from_le_bytes(major),
            minors: unpack_minors(&bytes[8..64]),
        }
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
        assert_eq!(unpack_minors(&packed), unpack_minors_bitwise(&packed), "unpack {what}");
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
            assert_eq!(unpack_minors(&bytes), unpack_minors_bitwise(&bytes), "round {round}");
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

    #[test]
    fn mecb_roundtrip() {
        let mut b = Mecb::new();
        b.set(0xdeadbeef_12345678, 7, 99);
        b.set(0xdeadbeef_12345678, 63, 1);
        let bytes = b.to_bytes();
        assert_eq!(Mecb::from_bytes(&bytes), b);
    }

    #[test]
    fn mecb_increment_and_overflow() {
        let mut b = Mecb::new();
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
        let f = Fecb::new(GID_LIMIT - 1, FID_LIMIT - 1);
        let back = Fecb::from_bytes(&f.to_bytes());
        assert_eq!(back.gid(), GID_LIMIT - 1);
        assert_eq!(back.fid(), FID_LIMIT - 1);
    }

    #[test]
    #[should_panic(expected = "group ID exceeds 18 bits")]
    fn oversized_gid_panics() {
        Fecb::new(GID_LIMIT, 0);
    }

    #[test]
    #[should_panic(expected = "file ID exceeds 14 bits")]
    fn oversized_fid_panics() {
        Fecb::new(0, FID_LIMIT);
    }

    #[test]
    fn fecb_stamp_preserves_counters() {
        let mut f = Fecb::new(1, 1);
        f.increment(0);
        f.increment(0);
        f.stamp(5, 9);
        assert_eq!(f.minor(0), 2);
        assert_eq!((f.gid(), f.fid()), (5, 9));
    }

    #[test]
    fn blocks_are_exactly_64_bytes_and_distinct() {
        let m = Mecb::new().to_bytes();
        let mut f = Fecb::new(1, 2);
        f.increment(0);
        assert_eq!(m.len(), 64);
        assert_ne!(f.to_bytes(), m);
    }

    #[test]
    fn default_impls() {
        assert_eq!(Mecb::default(), Mecb::new());
        assert_eq!(Fecb::default().gid(), 0);
    }
}
