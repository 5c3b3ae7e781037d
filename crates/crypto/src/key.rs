//! 128-bit key material.

use std::fmt;

/// A 128-bit symmetric key.
///
/// Used for the memory encryption key, per-file keys (FEKs), the OTT key
/// and key-encryption keys. The `Debug` representation is redacted so keys
/// never leak into logs; use [`Key128::as_bytes`] deliberately when raw
/// material is required.
///
/// # Examples
///
/// ```
/// use fsencr_crypto::Key128;
///
/// let key = Key128::from_bytes([7u8; 16]);
/// assert_eq!(key.as_bytes()[0], 7);
/// assert_eq!(format!("{key:?}"), "Key128(<redacted>)");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key128([u8; 16]);

impl Key128 {
    /// Creates a key from raw bytes.
    pub const fn from_bytes(bytes: [u8; 16]) -> Self {
        Key128(bytes)
    }

    /// Derives a key deterministically from a 64-bit seed by expanding it
    /// with SplitMix64-style mixing. Intended for simulations and tests; a
    /// real deployment would use a hardware RNG.
    pub fn from_seed(seed: u64) -> Self {
        let mut state = seed;
        let mut out = [0u8; 16];
        for chunk in out.chunks_mut(8) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            chunk.copy_from_slice(&z.to_le_bytes());
        }
        Key128(out)
    }

    /// Raw key bytes.
    pub const fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }
}

impl fmt::Debug for Key128 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Key128(<redacted>)")
    }
}

impl From<[u8; 16]> for Key128 {
    fn from(bytes: [u8; 16]) -> Self {
        Key128(bytes)
    }
}

impl From<Key128> for [u8; 16] {
    fn from(key: Key128) -> Self {
        key.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_deterministic_and_distinct() {
        let a = Key128::from_seed(1);
        let b = Key128::from_seed(1);
        let c = Key128::from_seed(2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a.as_bytes(), &[0u8; 16]);
    }

    #[test]
    fn debug_is_redacted() {
        let key = Key128::from_seed(42);
        // the fixed redacted form proves no key material reaches the output
        assert_eq!(format!("{key:?}"), "Key128(<redacted>)");
    }

    #[test]
    fn conversions_roundtrip() {
        let bytes = [9u8; 16];
        let key = Key128::from(bytes);
        let back: [u8; 16] = key.into();
        assert_eq!(back, bytes);
    }
}
