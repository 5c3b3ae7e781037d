//! Expanded-key-schedule cache for CTR pad generation.
//!
//! AES-128 key expansion costs ten rounds of S-box work per key — more
//! than encrypting a block — yet file pads are only ever generated under
//! a handful of live file keys. [`ScheduleCache`] memoizes the expanded
//! [`Aes128`] schedule per [`Key128`], so the controller's file-pad paths
//! and the software-encryption model expand each file key once instead
//! of once per line. (The memory key is expanded once, when the
//! controller is built, and never goes through the cache.)
//!
//! The cache is purely a host-side optimization: expansion is
//! deterministic, so a cached schedule is bit-identical to a fresh one
//! and simulated cycle accounting is unaffected.

use std::collections::HashMap;

use crate::aes::Aes128;
use crate::key::Key128;

/// Memoized AES-128 key schedules, keyed by the raw 128-bit key.
///
/// # Examples
///
/// ```
/// use fsencr_crypto::{Key128, ScheduleCache};
///
/// let mut cache = ScheduleCache::new();
/// let key = Key128::from_bytes([7u8; 16]);
/// let ct = cache.get(&key).encrypt_block([0u8; 16]);
/// assert_eq!(cache.get(&key).encrypt_block([0u8; 16]), ct);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScheduleCache {
    schedules: HashMap<Key128, Aes128>,
}

impl ScheduleCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ScheduleCache::default()
    }

    /// Returns the expanded schedule for `key`, expanding and caching it
    /// on first use.
    pub fn get(&mut self, key: &Key128) -> &Aes128 {
        self.schedules
            .entry(*key)
            .or_insert_with(|| Aes128::new(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_schedule_is_bit_identical_to_fresh_expansion() {
        let mut cache = ScheduleCache::new();
        for seed in 0u8..16 {
            let key = Key128::from_bytes([seed; 16]);
            let fresh = Aes128::new(&key);
            let block = [seed.wrapping_mul(3); 16];
            assert_eq!(
                cache.get(&key).encrypt_block(block),
                fresh.encrypt_block(block)
            );
            // Second lookup must serve the same schedule.
            assert_eq!(
                cache.get(&key).encrypt_block(block),
                fresh.encrypt_block(block)
            );
        }
    }
}
