//! The pad-uniqueness oracle: a zero-dependency shadow tracker for
//! counter-mode IVs.
//!
//! Counter-mode encryption is one-time-pad encryption with a generated
//! pad: reusing a (key, IV) pair across two different plaintexts hands
//! an attacker their XOR. The paper's counter discipline (per-line
//! minors, per-page majors, Osiris-recoverable) exists to make reuse
//! impossible; this ledger turns that argument into a runtime check.
//!
//! A [`PadLedger`] records, for every *fresh* pad application the
//! memory controller performs, the triple (key bytes, lane-0 IV,
//! 8-byte digest of the bytes the pad covers). Seeing the same
//! (key, IV) again is fine **iff** the covered bytes are identical —
//! that is idempotent re-encryption, which crash recovery does by
//! design when it rebuilds a line under counters it just proved. The
//! same (key, IV) over *different* bytes is a hard violation.
//!
//! The ledger is off by default and costs one branch per pad when
//! disabled; benches run with it off so figure bytes are unaffected.
//! Its owner arms it per instance with [`PadLedger::set_enabled`].

use std::collections::BTreeMap;

use crate::ctr::PadInput;
use crate::key::Key128;
use crate::sha256::digest8_line;

/// A detected (key, IV) reuse over differing content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PadReuse {
    /// The serialized IV that repeated.
    pub iv: [u8; 16],
    /// Digest of the bytes the pad covered the first time.
    pub first_digest: [u8; 8],
    /// Digest of the bytes it was asked to cover now.
    pub second_digest: [u8; 8],
}

impl std::fmt::Display for PadReuse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "counter-mode pad reuse: IV {:02x?} issued twice over different content \
             (digest {:02x?} then {:02x?})",
            self.iv, self.first_digest, self.second_digest
        )
    }
}

/// Shadow tracker of every fresh (key, IV) pad issued by one
/// controller. Keyed per instance, not globally: parallel bench
/// workers replay identical-seed machines whose pads legitimately
/// coincide across instances. [`PadLedger::default`] starts disabled.
#[derive(Debug, Default)]
pub struct PadLedger {
    enabled: bool,
    seen: BTreeMap<([u8; 16], [u8; 16]), [u8; 8]>,
}

impl PadLedger {
    /// Turns tracking on or off for this instance. Turning it off also
    /// drops the ledger so a later re-enable starts fresh.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        if !on {
            self.seen.clear();
        }
    }

    /// Number of distinct (key, IV) pads recorded so far.
    pub fn distinct_pads(&self) -> usize {
        self.seen.len()
    }

    /// Records one fresh pad application: `covered` is the 64-byte
    /// buffer content immediately before the pad is XORed in.
    ///
    /// # Errors
    ///
    /// [`PadReuse`] when this (key, IV) was already issued over
    /// different content. Identical content is accepted (idempotent
    /// re-encryption during recovery).
    pub fn record(
        &mut self,
        key: &Key128,
        input: &PadInput,
        covered: &[u8; 64],
    ) -> Result<(), PadReuse> {
        if !self.enabled {
            return Ok(());
        }
        let iv = input.iv_for_lane(0);
        let digest = digest8_line(covered);
        match self.seen.insert((*key.as_bytes(), iv), digest) {
            Some(first) if first != digest => Err(PadReuse {
                iv,
                first_digest: first,
                second_digest: digest,
            }),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctr::PadDomain;

    fn sample(minor: u8) -> PadInput {
        PadInput {
            page_id: 0x1234,
            block_in_page: 7,
            major: 3,
            minor,
            domain: PadDomain::Memory,
        }
    }

    #[test]
    fn disabled_ledger_records_nothing() {
        let mut ledger = PadLedger::default();
        let key = Key128::from_seed(1);
        assert!(ledger.record(&key, &sample(0), &[0xAA; 64]).is_ok());
        assert!(ledger.record(&key, &sample(0), &[0xBB; 64]).is_ok());
        assert_eq!(ledger.distinct_pads(), 0);
    }

    #[test]
    fn fresh_ivs_and_idempotent_replays_are_clean() {
        let mut ledger = PadLedger::default();
        ledger.set_enabled(true);
        let key = Key128::from_seed(1);
        assert!(ledger.record(&key, &sample(0), &[0xAA; 64]).is_ok());
        assert!(ledger.record(&key, &sample(1), &[0xBB; 64]).is_ok());
        // Same IV, same content: recovery re-encrypting in place.
        assert!(ledger.record(&key, &sample(0), &[0xAA; 64]).is_ok());
        assert_eq!(ledger.distinct_pads(), 2);
    }

    #[test]
    fn reuse_over_different_content_is_reported() {
        let mut ledger = PadLedger::default();
        ledger.set_enabled(true);
        let key = Key128::from_seed(1);
        assert!(ledger.record(&key, &sample(0), &[0xAA; 64]).is_ok());
        let err = ledger.record(&key, &sample(0), &[0xBB; 64]);
        let reuse = match err {
            Err(r) => r,
            Ok(()) => unreachable!("reuse must be detected"),
        };
        assert_eq!(reuse.iv, sample(0).iv_for_lane(0));
        assert!(format!("{reuse}").contains("pad reuse"));
    }

    #[test]
    fn distinct_keys_never_collide() {
        let mut ledger = PadLedger::default();
        ledger.set_enabled(true);
        assert!(ledger
            .record(&Key128::from_seed(1), &sample(0), &[0xAA; 64])
            .is_ok());
        // Same IV under a rekeyed epoch covers new content legally.
        assert!(ledger
            .record(&Key128::from_seed(2), &sample(0), &[0xBB; 64])
            .is_ok());
        assert_eq!(ledger.distinct_pads(), 2);
    }

    #[test]
    fn disabling_clears_state() {
        let mut ledger = PadLedger::default();
        ledger.set_enabled(true);
        let key = Key128::from_seed(1);
        assert!(ledger.record(&key, &sample(0), &[0xAA; 64]).is_ok());
        ledger.set_enabled(false);
        ledger.set_enabled(true);
        assert!(ledger.record(&key, &sample(0), &[0xCC; 64]).is_ok());
    }
}
