//! `fsencr-snap/1`: the canonical, digest-chained binary snapshot codec.
//!
//! Every state-bearing crate in the workspace serializes its private
//! fields through [`Enc`] and restores them through [`Dec`]. The format
//! is deliberately boring so that byte-identity is easy to reason about:
//!
//! * A fixed ASCII magic (`fsencr-snap/1\n`) opens the stream.
//! * The stream is a strict sequence of named *sections*. Each section
//!   frames its payload with a length, and seals it with an FNV-1a-64
//!   digest chained over (previous digest, section name, payload). A
//!   flipped bit anywhere — including in a section name or in the
//!   ordering of sections — changes every subsequent digest, so
//!   corruption is detected at the first damaged section rather than as
//!   a mysterious divergence later.
//! * All multi-byte integers are little-endian. All map- or set-like
//!   containers are written in sorted key order; containers whose
//!   in-memory order is behavioral (LRU victim selection via
//!   `swap_remove`) are written verbatim. This makes encoding a pure
//!   function of machine state.
//!
//! The codec itself is policy-free: it does not know what a Machine is.
//! Writers call `begin_section`/`end_section` around primitive puts;
//! readers mirror the exact sequence and finish with [`Dec::finish`],
//! which insists every byte was consumed.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

/// Stream magic: format name + version, newline-terminated so `head -1`
/// on a snapshot file identifies it.
pub const MAGIC: &[u8; 14] = b"fsencr-snap/1\n";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-64 over `bytes`, continuing from `state`. Used both for the
/// section chain digests and (by callers) for content-address keys.
pub fn fnv1a64(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Convenience: FNV-1a-64 of `bytes` from the standard offset basis.
pub fn fnv1a64_once(bytes: &[u8]) -> u64 {
    fnv1a64(FNV_OFFSET, bytes)
}

/// Everything that can go wrong while decoding a snapshot. Encoding is
/// infallible by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapError {
    /// The stream ended before the expected data.
    Truncated,
    /// The stream does not start with `fsencr-snap/1\n`.
    BadMagic,
    /// A section's chained digest did not match its payload.
    BadDigest,
    /// The reader asked for a section with a different name than the
    /// one framed in the stream (wrong order, wrong version, or a
    /// foreign snapshot).
    WrongSection,
    /// Structurally valid bytes that decode to an impossible value;
    /// the tag names the field.
    Corrupt(&'static str),
    /// A snapshot cannot be taken while a fault injector is armed:
    /// injector state is host-side campaign scaffolding, not machine
    /// state, and restoring around it would silently disarm faults.
    InjectorArmed,
    /// The snapshot was taken under a different machine configuration
    /// (MachineOpts/SecurityMode fingerprint mismatch).
    StateMismatch,
}

impl core::fmt::Display for SnapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadMagic => write!(f, "not an fsencr-snap/1 stream"),
            SnapError::BadDigest => write!(f, "section digest mismatch"),
            SnapError::WrongSection => write!(f, "unexpected section name"),
            SnapError::Corrupt(what) => write!(f, "corrupt field: {what}"),
            SnapError::InjectorArmed => {
                write!(f, "cannot snapshot while a fault injector is armed")
            }
            SnapError::StateMismatch => {
                write!(f, "snapshot taken under different machine options")
            }
        }
    }
}

/// Canonical snapshot writer. Appends sections to an owned buffer;
/// [`Enc::finish`] returns the completed byte stream.
pub struct Enc {
    out: Vec<u8>,
    chain: u64,
    /// (offset of the reserved length slot, offset of payload start)
    /// for the currently open section, if any.
    open: Option<(usize, usize)>,
}

impl Default for Enc {
    fn default() -> Self {
        Self::new()
    }
}

impl Enc {
    pub fn new() -> Self {
        let mut out = Vec::with_capacity(4096);
        out.extend_from_slice(MAGIC);
        Enc {
            out,
            chain: FNV_OFFSET,
            open: None,
        }
    }

    /// Open a named section. Sections must not nest; the name is part
    /// of the digest chain, so readers must ask for it verbatim.
    pub fn begin_section(&mut self, name: &str) {
        debug_assert!(self.open.is_none(), "sections must not nest");
        debug_assert!(name.len() <= u8::MAX as usize);
        let name_bytes = name.as_bytes();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "section names are short literals; the debug_assert above bounds them"
        )]
        self.out.push(name_bytes.len() as u8);
        self.out.extend_from_slice(name_bytes);
        self.chain = fnv1a64(self.chain, name_bytes);
        let len_slot = self.out.len();
        self.out.extend_from_slice(&[0u8; 8]);
        self.open = Some((len_slot, self.out.len()));
    }

    /// Seal the current section: back-patch the payload length and
    /// append the chained digest.
    pub fn end_section(&mut self) {
        if let Some((len_slot, start)) = self.open.take() {
            let payload_len = (self.out.len() - start) as u64;
            let le = payload_len.to_le_bytes();
            for (i, b) in le.iter().enumerate() {
                self.out[len_slot + i] = *b;
            }
            self.chain = fnv1a64(self.chain, &self.out[start..]);
            let digest = self.chain;
            self.out.extend_from_slice(&digest.to_le_bytes());
        } else {
            debug_assert!(false, "end_section without begin_section");
        }
    }

    pub fn put_u8(&mut self, v: u8) {
        self.out.push(v);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.out.push(u8::from(v));
    }

    pub fn put_u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Raw bytes, no framing. The caller's schema must fix the length.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.out.extend_from_slice(v);
    }

    /// Length-prefixed byte string.
    pub fn put_blob(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.out.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_blob(v.as_bytes());
    }

    /// Tagged optional `u64` (absent values cost one byte).
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_u64(x);
            }
            None => self.put_u8(0),
        }
    }

    /// Number of payload bytes written so far (excluding framing).
    pub fn written(&self) -> usize {
        self.out.len()
    }

    /// Complete the stream and hand back the bytes.
    pub fn finish(self) -> Vec<u8> {
        debug_assert!(self.open.is_none(), "finish with an open section");
        self.out
    }
}

/// Canonical snapshot reader. Mirrors the writer's section sequence;
/// every get is bounds-checked against the open section, and the
/// section digest is verified eagerly in [`Dec::begin_section`] before
/// any payload byte is interpreted.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    chain: u64,
    section_end: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Result<Self, SnapError> {
        if buf.len() < MAGIC.len() {
            return Err(SnapError::Truncated);
        }
        if &buf[..MAGIC.len()] != MAGIC {
            return Err(SnapError::BadMagic);
        }
        Ok(Dec {
            buf,
            pos: MAGIC.len(),
            chain: FNV_OFFSET,
            section_end: MAGIC.len(),
        })
    }

    fn take(&mut self, n: usize, limit: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        if end > limit {
            return Err(SnapError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Open the next section, which must be named `name`. Verifies the
    /// chained digest over the whole payload before returning.
    pub fn begin_section(&mut self, name: &str) -> Result<(), SnapError> {
        debug_assert!(self.pos == self.section_end, "previous section not drained");
        let total = self.buf.len();
        let name_len = self.take(1, total)?[0] as usize;
        let got_name = self.take(name_len, total)?;
        if got_name != name.as_bytes() {
            return Err(SnapError::WrongSection);
        }
        self.chain = fnv1a64(self.chain, got_name);
        let len_bytes = self.take(8, total)?;
        let payload_len = u64::from_le_bytes(arr8(len_bytes));
        let payload_len = usize::try_from(payload_len).map_err(|_| SnapError::Truncated)?;
        let payload_start = self.pos;
        let payload_end = payload_start
            .checked_add(payload_len)
            .ok_or(SnapError::Truncated)?;
        let digest_end = payload_end.checked_add(8).ok_or(SnapError::Truncated)?;
        if digest_end > total {
            return Err(SnapError::Truncated);
        }
        self.chain = fnv1a64(self.chain, &self.buf[payload_start..payload_end]);
        let stored = u64::from_le_bytes(arr8(&self.buf[payload_end..digest_end]));
        if stored != self.chain {
            return Err(SnapError::BadDigest);
        }
        self.section_end = payload_end;
        Ok(())
    }

    /// Close the current section. Fails if the reader's schema consumed
    /// fewer bytes than the writer produced (a schema drift tell).
    pub fn end_section(&mut self) -> Result<(), SnapError> {
        if self.pos != self.section_end {
            return Err(SnapError::Corrupt("section not fully consumed"));
        }
        // Skip over the trailing digest (already verified).
        self.pos += 8;
        self.section_end = self.pos;
        Ok(())
    }

    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1, self.section_end)?[0])
    }

    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool")),
        }
    }

    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        let s = self.take(4, self.section_end)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        let s = self.take(8, self.section_end)?;
        Ok(u64::from_le_bytes(arr8(s)))
    }

    /// A `u64` that must fit in `usize` (collection lengths).
    pub fn get_len(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.get_u64()?).map_err(|_| SnapError::Corrupt("length"))
    }

    /// A collection count whose entries take at least `min_entry` bytes
    /// each. A count the rest of the open section cannot hold is
    /// `Corrupt`, so a hostile count never sizes an allocation.
    pub fn get_count(&mut self, min_entry: usize) -> Result<usize, SnapError> {
        let n = self.get_len()?;
        if n > self.section_end.saturating_sub(self.pos) / min_entry.max(1) {
            return Err(SnapError::Corrupt("count"));
        }
        Ok(n)
    }

    /// Raw bytes of a schema-fixed length.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        self.take(n, self.section_end)
    }

    /// Length-prefixed byte string.
    pub fn get_blob(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.get_len()?;
        self.take(n, self.section_end)
    }

    /// Tagged optional `u64` (mirrors [`Enc::put_opt_u64`]).
    pub fn get_opt_u64(&mut self) -> Result<Option<u64>, SnapError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_u64()?)),
            _ => Err(SnapError::Corrupt("option tag")),
        }
    }

    pub fn get_arr16(&mut self) -> Result<[u8; 16], SnapError> {
        let s = self.take(16, self.section_end)?;
        let mut a = [0u8; 16];
        a.copy_from_slice(s);
        Ok(a)
    }

    pub fn get_arr8(&mut self) -> Result<[u8; 8], SnapError> {
        let s = self.take(8, self.section_end)?;
        Ok(arr8(s))
    }

    /// The stream must be fully consumed — trailing bytes mean the
    /// reader and writer disagree about the schema.
    pub fn finish(self) -> Result<(), SnapError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapError::Corrupt("trailing bytes"))
        }
    }
}

fn arr8(s: &[u8]) -> [u8; 8] {
    let mut a = [0u8; 8];
    a.copy_from_slice(&s[..8]);
    a
}

/// One section frame as reported by [`describe`]: name, payload size,
/// and the chained digest that seals it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section name as framed in the stream.
    pub name: String,
    /// Payload bytes (name, length, and digest framing excluded).
    pub payload_len: u64,
    /// Chained FNV-1a-64 digest sealing the section.
    pub digest: u64,
}

/// Walks a snapshot stream section by section without interpreting any
/// payload, verifying the digest chain as it goes — the inspection
/// backend for `harness snapshot info`. Unlike [`Dec`], it needs no
/// knowledge of each section's internal schema, so it works on any
/// `fsencr-snap/1` stream regardless of who wrote it.
///
/// # Errors
///
/// The first framing or digest failure encountered.
pub fn describe(buf: &[u8]) -> Result<Vec<SectionInfo>, SnapError> {
    let magic = buf.get(..MAGIC.len()).ok_or(SnapError::Truncated)?;
    if magic != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let mut pos = MAGIC.len();
    let mut chain = FNV_OFFSET;
    let mut out = Vec::with_capacity(16);
    while pos < buf.len() {
        let name_len = *buf.get(pos).ok_or(SnapError::Truncated)? as usize;
        pos += 1;
        let name_end = pos.checked_add(name_len).ok_or(SnapError::Truncated)?;
        let name_bytes = buf.get(pos..name_end).ok_or(SnapError::Truncated)?;
        pos = name_end;
        chain = fnv1a64(chain, name_bytes);
        let len_end = pos.checked_add(8).ok_or(SnapError::Truncated)?;
        let len_bytes = buf.get(pos..len_end).ok_or(SnapError::Truncated)?;
        let payload_len = u64::from_le_bytes(arr8(len_bytes));
        pos = len_end;
        let plen = usize::try_from(payload_len).map_err(|_| SnapError::Truncated)?;
        let payload_end = pos.checked_add(plen).ok_or(SnapError::Truncated)?;
        let payload = buf.get(pos..payload_end).ok_or(SnapError::Truncated)?;
        chain = fnv1a64(chain, payload);
        let digest_end = payload_end.checked_add(8).ok_or(SnapError::Truncated)?;
        let digest_bytes = buf
            .get(payload_end..digest_end)
            .ok_or(SnapError::Truncated)?;
        let stored = u64::from_le_bytes(arr8(digest_bytes));
        if stored != chain {
            return Err(SnapError::BadDigest);
        }
        let name = core::str::from_utf8(name_bytes)
            .map_err(|_| SnapError::Corrupt("section name"))?
            .to_string();
        out.push(SectionInfo {
            name,
            payload_len,
            digest: stored,
        });
        pos = digest_end;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut e = Enc::new();
        e.begin_section("alpha");
        e.put_u64(0xdead_beef_cafe_f00d);
        e.put_u32(7);
        e.put_bool(true);
        e.put_str("hello");
        e.end_section();
        e.begin_section("beta");
        e.put_blob(&[1, 2, 3]);
        e.put_bytes(&[9; 16]);
        e.end_section();
        e.finish()
    }

    #[test]
    fn roundtrip() {
        let bytes = sample();
        assert_eq!(&bytes[..MAGIC.len()], MAGIC);
        let mut d = Dec::new(&bytes).unwrap();
        d.begin_section("alpha").unwrap();
        assert_eq!(d.get_u64().unwrap(), 0xdead_beef_cafe_f00d);
        assert_eq!(d.get_u32().unwrap(), 7);
        assert!(d.get_bool().unwrap());
        assert_eq!(d.get_blob().unwrap(), b"hello");
        d.end_section().unwrap();
        d.begin_section("beta").unwrap();
        assert_eq!(d.get_blob().unwrap(), &[1, 2, 3]);
        assert_eq!(d.get_bytes(16).unwrap(), &[9u8; 16]);
        d.end_section().unwrap();
        d.finish().unwrap();
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(sample(), sample());
    }

    #[test]
    fn truncation_at_every_prefix_is_detected() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            let r = (|| -> Result<(), SnapError> {
                let mut d = Dec::new(prefix)?;
                d.begin_section("alpha")?;
                d.get_u64()?;
                d.get_u32()?;
                d.get_bool()?;
                d.get_blob()?;
                d.end_section()?;
                d.begin_section("beta")?;
                d.get_blob()?;
                d.get_bytes(16)?;
                d.end_section()?;
                d.finish()
            })();
            assert!(r.is_err(), "prefix of {cut} bytes decoded cleanly");
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = sample();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let r = (|| -> Result<u64, SnapError> {
                let mut d = Dec::new(&bad)?;
                d.begin_section("alpha")?;
                let v = d.get_u64()?;
                d.get_u32()?;
                d.get_bool()?;
                d.get_blob()?;
                d.end_section()?;
                d.begin_section("beta")?;
                d.get_blob()?;
                d.get_bytes(16)?;
                d.end_section()?;
                d.finish()?;
                Ok(v)
            })();
            assert!(r.is_err(), "bit flip at byte {i} went undetected");
        }
    }

    #[test]
    fn wrong_section_name_rejected() {
        let bytes = sample();
        let mut d = Dec::new(&bytes).unwrap();
        assert_eq!(d.begin_section("gamma"), Err(SnapError::WrongSection));
    }

    #[test]
    fn section_order_is_enforced_by_chain() {
        // Swapping two independently valid streams' sections cannot be
        // simulated directly (lengths differ), but reading beta first
        // must fail on the name check.
        let bytes = sample();
        let mut d = Dec::new(&bytes).unwrap();
        assert!(d.begin_section("beta").is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample();
        bytes.push(0);
        let mut d = Dec::new(&bytes).unwrap();
        d.begin_section("alpha").unwrap();
        d.get_u64().unwrap();
        d.get_u32().unwrap();
        d.get_bool().unwrap();
        d.get_blob().unwrap();
        d.end_section().unwrap();
        d.begin_section("beta").unwrap();
        d.get_blob().unwrap();
        d.get_bytes(16).unwrap();
        d.end_section().unwrap();
        assert_eq!(d.finish(), Err(SnapError::Corrupt("trailing bytes")));
    }

    #[test]
    fn underconsumed_section_rejected() {
        let bytes = sample();
        let mut d = Dec::new(&bytes).unwrap();
        d.begin_section("alpha").unwrap();
        d.get_u64().unwrap();
        assert_eq!(
            d.end_section(),
            Err(SnapError::Corrupt("section not fully consumed"))
        );
    }

    #[test]
    fn count_is_bounded_by_the_section_remainder() {
        // Two 8-byte entries follow each count: 2 fits, 3 does not.
        for (count, ok) in [(2u64, true), (3, false), (1 << 40, false)] {
            let mut e = Enc::new();
            e.begin_section("list");
            e.put_u64(count);
            e.put_u64(7);
            e.put_u64(9);
            e.end_section();
            let bytes = e.finish();
            let mut d = Dec::new(&bytes).unwrap();
            d.begin_section("list").unwrap();
            let got = d.get_count(8);
            if ok {
                assert_eq!(got, Ok(2));
            } else {
                assert_eq!(got, Err(SnapError::Corrupt("count")), "count {count}");
            }
        }
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            Dec::new(b"not-a-snapshot----"),
            Err(SnapError::BadMagic)
        ));
        assert!(matches!(Dec::new(b"short"), Err(SnapError::Truncated)));
    }

    #[test]
    fn describe_lists_sections_without_a_schema() {
        let bytes = sample();
        let info = describe(&bytes).unwrap();
        assert_eq!(info.len(), 2);
        assert_eq!(info[0].name, "alpha");
        // u64 + u32 + bool + len-prefixed "hello"
        assert_eq!(info[0].payload_len, 8 + 4 + 1 + 8 + 5);
        assert_eq!(info[1].name, "beta");
        assert_eq!(info[1].payload_len, 8 + 3 + 16);
    }

    #[test]
    fn describe_detects_every_bit_flip() {
        let bytes = sample();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(describe(&bad).is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn fnv_vectors() {
        // Known FNV-1a-64 vectors.
        assert_eq!(fnv1a64_once(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64_once(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64_once(b"foobar"), 0x85944171f73967e8);
    }
}
