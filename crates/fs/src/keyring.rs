//! The kernel keyring: session KEKs and file-key generation.
//!
//! Mirrors the Linux keyring usage of eCryptfs/fscrypt (Section III-E):
//! logging in derives a per-user Key-Encryption-Key from the passphrase
//! with PBKDF2; file keys (FEKs) are freshly generated per file and stored
//! only in wrapped form. Unwrapping with a wrong passphrase fails loudly
//! thanks to the authenticated wrap.

use std::collections::HashMap;

use fsencr_crypto::{kdf, Key128, KeyWrap};
use fsencr_sim::SplitMix64;

use crate::error::FsError;
use crate::perm::UserId;

/// PBKDF2 iterations used for session-key derivation. Deliberately small:
/// the simulator derives keys frequently and the security argument is
/// structural, not computational.
const KDF_ITERATIONS: u32 = 16;

/// Per-user session keys plus a deterministic FEK generator.
///
/// # Examples
///
/// ```
/// use fsencr_fs::{Keyring, UserId};
///
/// let mut kr = Keyring::new(42);
/// let alice = UserId::new(1);
/// kr.login(alice, "correct horse");
/// let fek = kr.generate_fek();
/// let wrapped = kr.wrap(alice, &fek).unwrap();
/// assert_eq!(kr.unwrap_with("correct horse", alice, &wrapped), Some(fek));
/// assert_eq!(kr.unwrap_with("wrong", alice, &wrapped), None);
/// ```
#[derive(Debug)]
pub struct Keyring {
    sessions: HashMap<UserId, Key128>,
    rng: SplitMix64,
}

impl Keyring {
    /// Creates a keyring; `seed` drives FEK generation deterministically.
    pub fn new(seed: u64) -> Self {
        Keyring {
            sessions: HashMap::new(),
            rng: SplitMix64::new(seed ^ 0x6b65_7972_696e_6700),
        }
    }

    /// Salt used for a user's KEK derivation (per-user, stable).
    fn salt_for(user: UserId) -> [u8; 8] {
        let mut salt = *b"fsencr\0\0";
        salt[6] = (user.get() & 0xff) as u8;
        salt[7] = ((user.get() >> 8) & 0xff) as u8;
        salt
    }

    /// Derives and stores the session KEK for `user`.
    pub fn login(&mut self, user: UserId, passphrase: &str) {
        let kek = kdf::derive_kek(passphrase, &Self::salt_for(user), KDF_ITERATIONS);
        self.sessions.insert(user, kek);
    }

    /// Drops the user's session key.
    pub fn logout(&mut self, user: UserId) {
        self.sessions.remove(&user);
    }

    /// Serializes the keyring: RNG state plus every session KEK, sorted by
    /// user id. Session keys are volatile kernel state, but a checkpoint
    /// must carry them so a restored machine accepts the same opens.
    pub fn snap_save(&self, enc: &mut fsencr_snapshot::Enc) {
        enc.put_u64(self.rng.state());
        let mut entries: Vec<(u32, [u8; 16])> = self
            .sessions
            .iter()
            .map(|(u, k)| (u.get(), *k.as_bytes()))
            .collect();
        entries.sort_unstable_by_key(|(u, _)| *u);
        enc.put_u64(entries.len() as u64);
        for (uid, kek) in entries {
            enc.put_u32(uid);
            enc.put_bytes(&kek);
        }
    }

    /// Restores a keyring from [`Keyring::snap_save`] bytes.
    pub fn snap_load(
        dec: &mut fsencr_snapshot::Dec<'_>,
    ) -> Result<Keyring, fsencr_snapshot::SnapError> {
        let rng = SplitMix64::new(dec.get_u64()?);
        let n = dec.get_count(20)?;
        let mut sessions = HashMap::with_capacity(n);
        for _ in 0..n {
            let uid = dec.get_u32()?;
            let kek = Key128::from_bytes(dec.get_arr16()?);
            sessions.insert(UserId::new(uid), kek);
        }
        Ok(Keyring { sessions, rng })
    }

    /// Whether the user has an active session.
    pub fn is_logged_in(&self, user: UserId) -> bool {
        self.sessions.contains_key(&user)
    }

    /// The FEK generator's internal state (persisted with the filesystem
    /// so remounts never regenerate a previously issued key).
    pub fn rng_state(&self) -> u64 {
        self.rng.state()
    }

    /// Restores the FEK generator state from a persisted snapshot.
    pub fn set_rng_state(&mut self, state: u64) {
        self.rng = SplitMix64::new(state);
    }

    /// Generates a fresh 128-bit File Encryption Key.
    pub fn generate_fek(&mut self) -> Key128 {
        let mut bytes = [0u8; 16];
        self.rng.fill_bytes(&mut bytes);
        Key128::from_bytes(bytes)
    }

    /// Wraps `fek` under the user's session KEK.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotLoggedIn`] without a session.
    pub fn wrap(&self, user: UserId, fek: &Key128) -> Result<KeyWrap, FsError> {
        let kek = self.sessions.get(&user).ok_or(FsError::NotLoggedIn)?;
        Ok(KeyWrap::wrap(kek, fek))
    }

    /// Unwraps using the user's *session* KEK.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotLoggedIn`] without a session, or
    /// [`FsError::BadPassphrase`] if the tag check fails (the session
    /// passphrase differs from the one that wrapped the key).
    pub fn unwrap(&self, user: UserId, wrapped: &KeyWrap) -> Result<Key128, FsError> {
        let kek = self.sessions.get(&user).ok_or(FsError::NotLoggedIn)?;
        wrapped.unwrap_key(kek).ok_or(FsError::BadPassphrase)
    }

    /// Unwraps with an explicitly supplied passphrase (open-time prompt,
    /// as in the paper's accidental-`chmod` defence). Returns `None` when
    /// the passphrase is wrong.
    pub fn unwrap_with(&self, passphrase: &str, owner: UserId, wrapped: &KeyWrap) -> Option<Key128> {
        let kek = kdf::derive_kek(passphrase, &Self::salt_for(owner), KDF_ITERATIONS);
        wrapped.unwrap_key(&kek)
    }

    /// Derives the KEK a given passphrase would produce for `owner`
    /// (used when creating files).
    pub fn kek_for(passphrase: &str, owner: UserId) -> Key128 {
        kdf::derive_kek(passphrase, &Self::salt_for(owner), KDF_ITERATIONS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn login_logout_cycle() {
        let mut kr = Keyring::new(1);
        let u = UserId::new(7);
        assert!(!kr.is_logged_in(u));
        kr.login(u, "pw");
        assert!(kr.is_logged_in(u));
        kr.logout(u);
        assert!(!kr.is_logged_in(u));
    }

    #[test]
    fn wrap_requires_session() {
        let mut kr = Keyring::new(1);
        let u = UserId::new(1);
        let fek = kr.generate_fek();
        assert_eq!(kr.wrap(u, &fek).unwrap_err(), FsError::NotLoggedIn);
        kr.login(u, "pw");
        assert!(kr.wrap(u, &fek).is_ok());
    }

    #[test]
    fn unwrap_roundtrip_and_wrong_session() {
        let mut kr = Keyring::new(1);
        let u = UserId::new(1);
        kr.login(u, "pw");
        let fek = kr.generate_fek();
        let w = kr.wrap(u, &fek).unwrap();
        assert_eq!(kr.unwrap(u, &w).unwrap(), fek);

        // Re-login with a different passphrase: unwrap must fail.
        kr.login(u, "other");
        assert_eq!(kr.unwrap(u, &w).unwrap_err(), FsError::BadPassphrase);
    }

    #[test]
    fn feks_are_unique_and_seed_deterministic() {
        let mut a = Keyring::new(9);
        let mut b = Keyring::new(9);
        let f1 = a.generate_fek();
        let f2 = a.generate_fek();
        assert_ne!(f1, f2);
        assert_eq!(b.generate_fek(), f1);
        assert_eq!(b.generate_fek(), f2);
    }

    #[test]
    fn salts_are_per_user() {
        // Same passphrase, different users -> different KEKs, so one
        // user's passphrase cannot unwrap another user's identically
        // protected key.
        let mut kr = Keyring::new(1);
        let alice = UserId::new(1);
        let bob = UserId::new(2);
        kr.login(alice, "shared");
        let fek = kr.generate_fek();
        let w = kr.wrap(alice, &fek).unwrap();
        assert_eq!(kr.unwrap_with("shared", bob, &w), None);
        assert_eq!(kr.unwrap_with("shared", alice, &w), Some(fek));
    }
}
