//! AES-128 block cipher (FIPS-197).
//!
//! The S-box and its inverse are *computed* at first use (multiplicative
//! inverse in GF(2^8) followed by the affine transform) rather than
//! transcribed, and the whole cipher is validated against the FIPS-197
//! appendix vectors in the test module.
//!
//! The hot path ([`Aes128::encrypt_block`]/[`Aes128::decrypt_block`]) is
//! a 32-bit T-table implementation: each round is 16 table lookups and a
//! handful of XORs, with the tables derived *from the computed S-box* at
//! first use so the algebraic derivation stays the single source of
//! truth. The original byte-wise FIPS-197 transcription lives in the test
//! module as the reference the T-table rounds are cross-validated
//! against, next to the FIPS-197 vectors. No
//! constant-time tricks are attempted because the "hardware" here is a
//! simulation model, not a production cipher.

use std::sync::OnceLock;

use crate::key::Key128;

const ROUNDS: usize = 10;
/// 32-bit round-key words (4 per round plus the whitening key).
const RK_WORDS: usize = 4 * (ROUNDS + 1);

/// The AES-128 block cipher with a precomputed key schedule.
///
/// # Examples
///
/// ```
/// use fsencr_crypto::{Aes128, Key128};
///
/// // FIPS-197 Appendix C.1
/// let key = Key128::from_bytes([
///     0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
///     0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f,
/// ]);
/// let pt = [
///     0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
///     0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff,
/// ];
/// let aes = Aes128::new(&key);
/// let ct = aes.encrypt_block(pt);
/// assert_eq!(ct[0], 0x69);
/// assert_eq!(aes.decrypt_block(ct), pt);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    /// Big-endian packed encryption round keys for the T-table path.
    enc_words: [u32; RK_WORDS],
    /// Decryption round keys for the equivalent inverse cipher: the
    /// encryption schedule reversed, with `InvMixColumns` applied to the
    /// middle rounds.
    dec_words: [u32; RK_WORDS],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Aes128(<key schedule redacted>)")
    }
}

/// GF(2^8) multiply-by-x (the `xtime` primitive from FIPS-197).
#[inline]
fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// GF(2^8) multiplication with the AES reduction polynomial.
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

fn compute_sboxes() -> ([u8; 256], [u8; 256]) {
    // Multiplicative inverses via brute force (256*255 trials, once).
    let mut inv = [0u8; 256];
    for a in 1..=255u8 {
        for b in 1..=255u8 {
            if gmul(a, b) == 1 {
                inv[a as usize] = b;
                break;
            }
        }
    }
    let mut sbox = [0u8; 256];
    let mut inv_sbox = [0u8; 256];
    for x in 0..256usize {
        let i = inv[x];
        // Affine transform: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63
        let s = i
            ^ i.rotate_left(1)
            ^ i.rotate_left(2)
            ^ i.rotate_left(3)
            ^ i.rotate_left(4)
            ^ 0x63;
        sbox[x] = s;
        inv_sbox[s as usize] = x as u8;
    }
    (sbox, inv_sbox)
}

fn sboxes() -> &'static ([u8; 256], [u8; 256]) {
    static SBOXES: OnceLock<([u8; 256], [u8; 256])> = OnceLock::new();
    SBOXES.get_or_init(compute_sboxes)
}

/// The 32-bit lookup tables of the T-table formulation: `te[j][x]` is
/// column `j` of `MixColumns` applied to `SubBytes(x)`, packed big-endian
/// (row 0 in the most significant byte); `td[j][x]` likewise for the
/// inverse cipher. One block encryption is then 4 table lookups + 4 XORs
/// per column per round instead of byte-wise `xtime`/`gmul` arithmetic.
struct Tables {
    te: [[u32; 256]; 4],
    td: [[u32; 256]; 4],
    sbox: [u8; 256],
    inv_sbox: [u8; 256],
}

/// MixColumns matrix (row-major) and its inverse, from FIPS-197 5.1.3 /
/// 5.3.3.
const MIX: [[u8; 4]; 4] = [[2, 3, 1, 1], [1, 2, 3, 1], [1, 1, 2, 3], [3, 1, 1, 2]];
const INV_MIX: [[u8; 4]; 4] = [
    [0x0e, 0x0b, 0x0d, 0x09],
    [0x09, 0x0e, 0x0b, 0x0d],
    [0x0d, 0x09, 0x0e, 0x0b],
    [0x0b, 0x0d, 0x09, 0x0e],
];

fn compute_tables() -> Tables {
    let (sbox, inv_sbox) = *sboxes();
    let mut te = [[0u32; 256]; 4];
    let mut td = [[0u32; 256]; 4];
    for x in 0..256usize {
        let s = sbox[x];
        let i = inv_sbox[x];
        for j in 0..4 {
            let mut e = 0u32;
            let mut d = 0u32;
            for (row, (m, im)) in MIX.iter().zip(INV_MIX.iter()).enumerate() {
                e |= u32::from(gmul(s, m[j])) << (24 - 8 * row);
                d |= u32::from(gmul(i, im[j])) << (24 - 8 * row);
            }
            te[j][x] = e;
            td[j][x] = d;
        }
    }
    Tables { te, td, sbox, inv_sbox }
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(compute_tables)
}

#[inline]
fn sub(b: u8) -> u8 {
    sboxes().0[b as usize]
}

impl Aes128 {
    /// Expands `key` into the full round-key schedule.
    pub fn new(key: &Key128) -> Self {
        let mut w = [[0u8; 4]; 4 * (ROUNDS + 1)];
        for (i, word) in w.iter_mut().take(4).enumerate() {
            word.copy_from_slice(&key.as_bytes()[4 * i..4 * i + 4]);
        }
        let mut rcon: u8 = 1;
        for i in 4..4 * (ROUNDS + 1) {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for t in temp.iter_mut() {
                    *t = sub(*t);
                }
                temp[0] ^= rcon;
                rcon = xtime(rcon);
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; ROUNDS + 1];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        let enc_words = pack_words(&round_keys);
        // Equivalent inverse cipher (FIPS-197 5.3.5): reverse the
        // schedule and push InvMixColumns through the middle round keys
        // so decryption rounds have the same lookup structure as
        // encryption rounds.
        let mut dec_keys = [[0u8; 16]; ROUNDS + 1];
        for (r, dk) in dec_keys.iter_mut().enumerate() {
            *dk = round_keys[ROUNDS - r];
            if r != 0 && r != ROUNDS {
                inv_mix_columns(dk);
            }
        }
        let dec_words = pack_words(&dec_keys);
        Aes128 { enc_words, dec_words }
    }

    /// Encrypts one 16-byte block (T-table fast path).
    pub fn encrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        let t = tables();
        let rk = &self.enc_words;
        let mut s = [0u32; 4];
        for (c, sc) in s.iter_mut().enumerate() {
            let b = [block[4 * c], block[4 * c + 1], block[4 * c + 2], block[4 * c + 3]];
            *sc = u32::from_be_bytes(b) ^ rk[c];
        }
        for round in 1..ROUNDS {
            let base = 4 * round;
            let mut n = [0u32; 4];
            for (c, nc) in n.iter_mut().enumerate() {
                // ShiftRows: row r of column c reads column (c + r) % 4.
                *nc = t.te[0][(s[c] >> 24) as usize]
                    ^ t.te[1][((s[(c + 1) & 3] >> 16) & 0xff) as usize]
                    ^ t.te[2][((s[(c + 2) & 3] >> 8) & 0xff) as usize]
                    ^ t.te[3][(s[(c + 3) & 3] & 0xff) as usize]
                    ^ rk[base + c];
            }
            s = n;
        }
        // Final round: SubBytes + ShiftRows only (no MixColumns).
        let mut out = [0u8; 16];
        for (c, chunk) in out.chunks_exact_mut(4).enumerate() {
            let w = (u32::from(t.sbox[(s[c] >> 24) as usize]) << 24)
                | (u32::from(t.sbox[((s[(c + 1) & 3] >> 16) & 0xff) as usize]) << 16)
                | (u32::from(t.sbox[((s[(c + 2) & 3] >> 8) & 0xff) as usize]) << 8)
                | u32::from(t.sbox[(s[(c + 3) & 3] & 0xff) as usize]);
            chunk.copy_from_slice(&(w ^ rk[4 * ROUNDS + c]).to_be_bytes());
        }
        out
    }

    /// Encrypts four 16-byte blocks with their rounds interleaved.
    ///
    /// Bit-identical to four [`Aes128::encrypt_block`] calls, but the
    /// four states advance through each round together: the table lookups
    /// of lane *k+1* issue while lane *k*'s are still in flight, so the
    /// serial lookup→XOR dependency chain of one block no longer bounds
    /// throughput. For the CTR-pad case — four counter blocks differing
    /// only in their lane bits — prefer [`Aes128::encrypt_ctr_lanes`],
    /// which additionally shares the barely-diverged first two rounds.
    pub fn encrypt_blocks4(&self, blocks: [[u8; 16]; 4]) -> [[u8; 16]; 4] {
        let t = tables();
        let rk = &self.enc_words;
        // Lane-major state: s[lane][column].
        let mut s = [[0u32; 4]; 4];
        for (lane, block) in s.iter_mut().zip(blocks.iter()) {
            for (c, sc) in lane.iter_mut().enumerate() {
                let b = [block[4 * c], block[4 * c + 1], block[4 * c + 2], block[4 * c + 3]];
                *sc = u32::from_be_bytes(b) ^ rk[c];
            }
        }
        for round in 1..ROUNDS {
            let base = 4 * round;
            let mut n = [[0u32; 4]; 4];
            // The lane loop is innermost so the four independent chains
            // interleave within each column computation.
            for c in 0..4 {
                for (lane, nl) in n.iter_mut().enumerate() {
                    nl[c] = t.te[0][(s[lane][c] >> 24) as usize]
                        ^ t.te[1][((s[lane][(c + 1) & 3] >> 16) & 0xff) as usize]
                        ^ t.te[2][((s[lane][(c + 2) & 3] >> 8) & 0xff) as usize]
                        ^ t.te[3][(s[lane][(c + 3) & 3] & 0xff) as usize]
                        ^ rk[base + c];
                }
            }
            s = n;
        }
        let mut out = [[0u8; 16]; 4];
        for (lane, ol) in out.iter_mut().enumerate() {
            for (c, chunk) in ol.chunks_exact_mut(4).enumerate() {
                let w = (u32::from(t.sbox[(s[lane][c] >> 24) as usize]) << 24)
                    | (u32::from(t.sbox[((s[lane][(c + 1) & 3] >> 16) & 0xff) as usize]) << 16)
                    | (u32::from(t.sbox[((s[lane][(c + 2) & 3] >> 8) & 0xff) as usize]) << 8)
                    | u32::from(t.sbox[(s[lane][(c + 3) & 3] & 0xff) as usize]);
                chunk.copy_from_slice(&(w ^ rk[4 * ROUNDS + c]).to_be_bytes());
            }
        }
        out
    }

    /// Encrypts the four CTR counter blocks of one cache-line pad.
    ///
    /// `iv` is the lane-0 counter block; lane *k*'s block is `iv` with
    /// `k` written into the top two bits of byte 6 (the lane field of
    /// [`crate::PadInput::iv_for_lane`]). Because the four blocks differ
    /// *only* in those two bits, the first two AES rounds barely diverge
    /// and most of their T-table work can be computed once:
    ///
    /// * after the initial `AddRoundKey` only state column 1 varies, and
    ///   only in its byte 2, so round 1 produces three lane-invariant
    ///   output columns plus one that differs in a single `te2` lookup
    ///   (19 lookups instead of 64);
    /// * entering round 2 only state column 3 varies, and each output
    ///   column consumes exactly one of its bytes, so the other three
    ///   contributions fold into shared partials (28 lookups instead
    ///   of 64).
    ///
    /// From round 3 the states are fully diverged; lanes then advance in
    /// interleaved pairs so two independent lookup→XOR chains are always
    /// in flight without spilling four full states out of registers.
    /// Bit-identical to four [`Aes128::encrypt_block`] calls on the four
    /// lane IVs.
    ///
    /// # Panics
    ///
    /// Panics if the lane bits of `iv[6]` are not zero.
    pub fn encrypt_ctr_lanes(&self, iv: [u8; 16]) -> [[u8; 16]; 4] {
        assert_eq!(iv[6] & 0xc0, 0, "lane bits of byte 6 must be clear");
        let t = tables();
        let rk = &self.enc_words;
        let c0 = u32::from_be_bytes([iv[0], iv[1], iv[2], iv[3]]) ^ rk[0];
        let c1 = u32::from_be_bytes([iv[4], iv[5], iv[6], iv[7]]) ^ rk[1];
        let c2 = u32::from_be_bytes([iv[8], iv[9], iv[10], iv[11]]) ^ rk[2];
        let c3 = u32::from_be_bytes([iv[12], iv[13], iv[14], iv[15]]) ^ rk[3];

        // Round 1: three lane-invariant columns, one shared partial. The
        // lane bits sit in bits 15:14 of column 1 (byte 6 is its byte 2),
        // consumed only by output column 3's te2 contribution.
        let a0 = t.te[0][b0(c0)] ^ t.te[1][b1(c1)] ^ t.te[2][b2(c2)] ^ t.te[3][b3(c3)] ^ rk[4];
        let a1 = t.te[0][b0(c1)] ^ t.te[1][b1(c2)] ^ t.te[2][b2(c3)] ^ t.te[3][b3(c0)] ^ rk[5];
        let a2 = t.te[0][b0(c2)] ^ t.te[1][b1(c3)] ^ t.te[2][b2(c0)] ^ t.te[3][b3(c1)] ^ rk[6];
        let a3p = t.te[0][b0(c3)] ^ t.te[1][b1(c0)] ^ t.te[3][b3(c2)] ^ rk[7];

        // Round 2 shared partials: only column 3 (`a3`) varies by lane,
        // and each output column reads exactly one of its bytes.
        let r0p = t.te[0][b0(a0)] ^ t.te[1][b1(a1)] ^ t.te[2][b2(a2)] ^ rk[8];
        let r1p = t.te[0][b0(a1)] ^ t.te[1][b1(a2)] ^ t.te[3][b3(a0)] ^ rk[9];
        let r2p = t.te[0][b0(a2)] ^ t.te[2][b2(a0)] ^ t.te[3][b3(a1)] ^ rk[10];
        let r3p = t.te[1][b1(a0)] ^ t.te[2][b2(a1)] ^ t.te[3][b3(a2)] ^ rk[11];

        let mut out = [[0u8; 16]; 4];
        for pair in 0..2usize {
            let lanes = [2 * pair as u32, 2 * pair as u32 + 1];
            let a3 = lanes.map(|l| a3p ^ t.te[2][b2(c1 ^ (l << 14))]);
            let mut x = [
                r0p ^ t.te[3][b3(a3[0])],
                r1p ^ t.te[2][b2(a3[0])],
                r2p ^ t.te[1][b1(a3[0])],
                r3p ^ t.te[0][b0(a3[0])],
            ];
            let mut y = [
                r0p ^ t.te[3][b3(a3[1])],
                r1p ^ t.te[2][b2(a3[1])],
                r2p ^ t.te[1][b1(a3[1])],
                r3p ^ t.te[0][b0(a3[1])],
            ];
            for round in 3..ROUNDS {
                let base = 4 * round;
                let nx = te_round(t, rk, base, x);
                let ny = te_round(t, rk, base, y);
                x = nx;
                y = ny;
            }
            out[2 * pair] = te_final(t, rk, x);
            out[2 * pair + 1] = te_final(t, rk, y);
        }
        out
    }

    /// Decrypts one 16-byte block (T-table equivalent inverse cipher).
    pub fn decrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        let t = tables();
        let rk = &self.dec_words;
        let mut s = [0u32; 4];
        for (c, sc) in s.iter_mut().enumerate() {
            let b = [block[4 * c], block[4 * c + 1], block[4 * c + 2], block[4 * c + 3]];
            *sc = u32::from_be_bytes(b) ^ rk[c];
        }
        for round in 1..ROUNDS {
            let base = 4 * round;
            let mut n = [0u32; 4];
            for (c, nc) in n.iter_mut().enumerate() {
                // InvShiftRows: row r of column c reads column (c - r) % 4.
                *nc = t.td[0][(s[c] >> 24) as usize]
                    ^ t.td[1][((s[(c + 3) & 3] >> 16) & 0xff) as usize]
                    ^ t.td[2][((s[(c + 2) & 3] >> 8) & 0xff) as usize]
                    ^ t.td[3][(s[(c + 1) & 3] & 0xff) as usize]
                    ^ rk[base + c];
            }
            s = n;
        }
        let mut out = [0u8; 16];
        for (c, chunk) in out.chunks_exact_mut(4).enumerate() {
            let w = (u32::from(t.inv_sbox[(s[c] >> 24) as usize]) << 24)
                | (u32::from(t.inv_sbox[((s[(c + 3) & 3] >> 16) & 0xff) as usize]) << 16)
                | (u32::from(t.inv_sbox[((s[(c + 2) & 3] >> 8) & 0xff) as usize]) << 8)
                | u32::from(t.inv_sbox[(s[(c + 1) & 3] & 0xff) as usize]);
            chunk.copy_from_slice(&(w ^ rk[4 * ROUNDS + c]).to_be_bytes());
        }
        out
    }
}

/// Packs a byte round-key schedule into big-endian 32-bit column words.
/// Byte extractors for the T-table formulation: `bN` pulls byte `N` of a
/// big-endian-packed state column (0 = most significant).
#[inline(always)]
fn b0(w: u32) -> usize {
    (w >> 24) as usize
}

#[inline(always)]
fn b1(w: u32) -> usize {
    ((w >> 16) & 0xff) as usize
}

#[inline(always)]
fn b2(w: u32) -> usize {
    ((w >> 8) & 0xff) as usize
}

#[inline(always)]
fn b3(w: u32) -> usize {
    (w & 0xff) as usize
}

/// One full T-table round (SubBytes + ShiftRows + MixColumns +
/// AddRoundKey) on a single block's four columns.
#[inline(always)]
fn te_round(t: &Tables, rk: &[u32; RK_WORDS], base: usize, s: [u32; 4]) -> [u32; 4] {
    [
        t.te[0][b0(s[0])] ^ t.te[1][b1(s[1])] ^ t.te[2][b2(s[2])] ^ t.te[3][b3(s[3])] ^ rk[base],
        t.te[0][b0(s[1])] ^ t.te[1][b1(s[2])] ^ t.te[2][b2(s[3])] ^ t.te[3][b3(s[0])] ^ rk[base + 1],
        t.te[0][b0(s[2])] ^ t.te[1][b1(s[3])] ^ t.te[2][b2(s[0])] ^ t.te[3][b3(s[1])] ^ rk[base + 2],
        t.te[0][b0(s[3])] ^ t.te[1][b1(s[0])] ^ t.te[2][b2(s[1])] ^ t.te[3][b3(s[2])] ^ rk[base + 3],
    ]
}

/// The final round (SubBytes + ShiftRows + AddRoundKey, no MixColumns),
/// serialized to output bytes.
#[inline(always)]
fn te_final(t: &Tables, rk: &[u32; RK_WORDS], s: [u32; 4]) -> [u8; 16] {
    let mut out = [0u8; 16];
    for (c, chunk) in out.chunks_exact_mut(4).enumerate() {
        let w = (u32::from(t.sbox[b0(s[c])]) << 24)
            | (u32::from(t.sbox[b1(s[(c + 1) & 3])]) << 16)
            | (u32::from(t.sbox[b2(s[(c + 2) & 3])]) << 8)
            | u32::from(t.sbox[b3(s[(c + 3) & 3])]);
        chunk.copy_from_slice(&(w ^ rk[4 * ROUNDS + c]).to_be_bytes());
    }
    out
}

fn pack_words(keys: &[[u8; 16]; ROUNDS + 1]) -> [u32; RK_WORDS] {
    let mut out = [0u32; RK_WORDS];
    for (i, w) in out.iter_mut().enumerate() {
        let k = &keys[i / 4];
        let c = 4 * (i % 4);
        *w = u32::from_be_bytes([k[c], k[c + 1], k[c + 2], k[c + 3]]);
    }
    out
}

/// `InvMixColumns` on a column-major state (s[r + 4c] is row r, column
/// c, as in FIPS-197); the key schedule pushes it through the decryption
/// round keys.
fn inv_mix_columns(s: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
        s[4 * c] = gmul(col[0], 0x0e) ^ gmul(col[1], 0x0b) ^ gmul(col[2], 0x0d) ^ gmul(col[3], 0x09);
        s[4 * c + 1] =
            gmul(col[0], 0x09) ^ gmul(col[1], 0x0e) ^ gmul(col[2], 0x0b) ^ gmul(col[3], 0x0d);
        s[4 * c + 2] =
            gmul(col[0], 0x0d) ^ gmul(col[1], 0x09) ^ gmul(col[2], 0x0e) ^ gmul(col[3], 0x0b);
        s[4 * c + 3] =
            gmul(col[0], 0x0b) ^ gmul(col[1], 0x0d) ^ gmul(col[2], 0x09) ^ gmul(col[3], 0x0e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The byte-wise FIPS-197 reference rounds: the readable specification
    // of the cipher, which the T-table path is cross-validated against.

    impl Aes128 {
        /// Round key `r` as bytes, unpacked from the T-table schedule.
        fn round_key(&self, r: usize) -> [u8; 16] {
            let mut rk = [0u8; 16];
            for (c, chunk) in rk.chunks_exact_mut(4).enumerate() {
                chunk.copy_from_slice(&self.enc_words[4 * r + c].to_be_bytes());
            }
            rk
        }

        /// Encrypts one block with the byte-wise FIPS-197 reference rounds.
        fn encrypt_block_ref(&self, block: [u8; 16]) -> [u8; 16] {
            let mut s = block;
            add_round_key(&mut s, &self.round_key(0));
            for round in 1..ROUNDS {
                sub_bytes(&mut s);
                shift_rows(&mut s);
                mix_columns(&mut s);
                add_round_key(&mut s, &self.round_key(round));
            }
            sub_bytes(&mut s);
            shift_rows(&mut s);
            add_round_key(&mut s, &self.round_key(ROUNDS));
            s
        }

        /// Decrypts one block with the byte-wise FIPS-197 reference rounds.
        fn decrypt_block_ref(&self, block: [u8; 16]) -> [u8; 16] {
            let mut s = block;
            add_round_key(&mut s, &self.round_key(ROUNDS));
            inv_shift_rows(&mut s);
            inv_sub_bytes(&mut s);
            for round in (1..ROUNDS).rev() {
                add_round_key(&mut s, &self.round_key(round));
                inv_mix_columns(&mut s);
                inv_shift_rows(&mut s);
                inv_sub_bytes(&mut s);
            }
            add_round_key(&mut s, &self.round_key(0));
            s
        }
    }

    // State is column-major as in FIPS-197: s[r + 4c] is row r, column c.

    fn add_round_key(s: &mut [u8; 16], rk: &[u8; 16]) {
        for (b, k) in s.iter_mut().zip(rk.iter()) {
            *b ^= k;
        }
    }

    fn sub_bytes(s: &mut [u8; 16]) {
        for b in s.iter_mut() {
            *b = sub(*b);
        }
    }

    fn inv_sub_bytes(s: &mut [u8; 16]) {
        for b in s.iter_mut() {
            *b = sboxes().1[*b as usize];
        }
    }

    fn shift_rows(s: &mut [u8; 16]) {
        // Row r shifts left by r. Row r occupies indices r, r+4, r+8, r+12.
        for r in 1..4 {
            let row = [s[r], s[r + 4], s[r + 8], s[r + 12]];
            for c in 0..4 {
                s[r + 4 * c] = row[(c + r) % 4];
            }
        }
    }

    fn inv_shift_rows(s: &mut [u8; 16]) {
        for r in 1..4 {
            let row = [s[r], s[r + 4], s[r + 8], s[r + 12]];
            for c in 0..4 {
                s[r + 4 * c] = row[(c + 4 - r) % 4];
            }
        }
    }

    fn mix_columns(s: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
            s[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
            s[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
            s[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
            s[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
        }
    }

    fn hex16(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for (i, o) in out.iter_mut().enumerate() {
            *o = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    #[test]
    fn sbox_known_entries() {
        let (sbox, inv_sbox) = *sboxes();
        // Spot values from the FIPS-197 table.
        assert_eq!(sbox[0x00], 0x63);
        assert_eq!(sbox[0x01], 0x7c);
        assert_eq!(sbox[0x53], 0xed);
        assert_eq!(sbox[0xff], 0x16);
        // Inverse really inverts.
        for x in 0..256 {
            assert_eq!(inv_sbox[sbox[x] as usize] as usize, x);
        }
    }

    #[test]
    fn fips197_appendix_b() {
        let key = Key128::from_bytes(hex16("2b7e151628aed2a6abf7158809cf4f3c"));
        let pt = hex16("3243f6a8885a308d313198a2e0370734");
        let expect = hex16("3925841d02dc09fbdc118597196a0b32");
        let aes = Aes128::new(&key);
        assert_eq!(aes.encrypt_block(pt), expect);
        assert_eq!(aes.decrypt_block(expect), pt);
    }

    #[test]
    fn fips197_appendix_c1() {
        let key = Key128::from_bytes(hex16("000102030405060708090a0b0c0d0e0f"));
        let pt = hex16("00112233445566778899aabbccddeeff");
        let expect = hex16("69c4e0d86a7b0430d8cdb78070b4c55a");
        let aes = Aes128::new(&key);
        assert_eq!(aes.encrypt_block(pt), expect);
        assert_eq!(aes.decrypt_block(expect), pt);
    }

    #[test]
    fn roundtrip_many_random_blocks() {
        let key = Key128::from_seed(0xdead_beef);
        let aes = Aes128::new(&key);
        let mut block = [0u8; 16];
        for i in 0..200u32 {
            for (j, b) in block.iter_mut().enumerate() {
                *b = (i as u8).wrapping_mul(31).wrapping_add(j as u8 * 17);
            }
            let ct = aes.encrypt_block(block);
            assert_ne!(ct, block, "ciphertext must differ from plaintext");
            assert_eq!(aes.decrypt_block(ct), block);
        }
    }

    #[test]
    fn different_keys_differ() {
        let pt = [42u8; 16];
        let a = Aes128::new(&Key128::from_seed(1)).encrypt_block(pt);
        let b = Aes128::new(&Key128::from_seed(2)).encrypt_block(pt);
        assert_ne!(a, b);
    }

    #[test]
    fn reference_matches_fips197_vectors() {
        let key = Key128::from_bytes(hex16("2b7e151628aed2a6abf7158809cf4f3c"));
        let pt = hex16("3243f6a8885a308d313198a2e0370734");
        let expect = hex16("3925841d02dc09fbdc118597196a0b32");
        let aes = Aes128::new(&key);
        assert_eq!(aes.encrypt_block_ref(pt), expect);
        assert_eq!(aes.decrypt_block_ref(expect), pt);
    }

    #[test]
    fn ttable_matches_reference_rounds() {
        for seed in 0..8u64 {
            let aes = Aes128::new(&Key128::from_seed(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
            let mut block = [0u8; 16];
            for i in 0..64u32 {
                for (j, b) in block.iter_mut().enumerate() {
                    *b = (i as u8)
                        .wrapping_mul(97)
                        .wrapping_add((j as u8).wrapping_mul(29))
                        .wrapping_add(seed as u8);
                }
                let fast = aes.encrypt_block(block);
                assert_eq!(fast, aes.encrypt_block_ref(block));
                assert_eq!(aes.decrypt_block(fast), aes.decrypt_block_ref(fast));
                assert_eq!(aes.decrypt_block(fast), block);
            }
        }
    }

    #[test]
    fn ttable_columns_match_mixed_sbox() {
        // te[0][x] must equal MixColumns applied to a column whose only
        // non-zero byte is SubBytes(x) in row 0 (and likewise per table).
        let t = tables();
        for x in 0..256usize {
            for j in 0..4 {
                let mut col = [0u8; 16];
                col[j] = t.sbox[x];
                mix_columns(&mut col);
                let expect =
                    u32::from_be_bytes([col[0], col[1], col[2], col[3]]);
                assert_eq!(t.te[j][x], expect, "te[{j}][{x:#x}]");

                let mut icol = [0u8; 16];
                icol[j] = t.inv_sbox[x];
                inv_mix_columns(&mut icol);
                let iexpect =
                    u32::from_be_bytes([icol[0], icol[1], icol[2], icol[3]]);
                assert_eq!(t.td[j][x], iexpect, "td[{j}][{x:#x}]");
            }
        }
    }

    #[test]
    fn four_lane_encrypt_matches_single_block() {
        for seed in 0..4u64 {
            let aes = Aes128::new(&Key128::from_seed(seed.wrapping_mul(0x517c_c1b7_2722_0a95)));
            let mut blocks = [[0u8; 16]; 4];
            for round in 0..16u32 {
                for (lane, block) in blocks.iter_mut().enumerate() {
                    for (j, b) in block.iter_mut().enumerate() {
                        *b = (round as u8)
                            .wrapping_mul(53)
                            .wrapping_add((lane as u8).wrapping_mul(101))
                            .wrapping_add((j as u8).wrapping_mul(19));
                    }
                }
                let interleaved = aes.encrypt_blocks4(blocks);
                for (lane, block) in blocks.iter().enumerate() {
                    assert_eq!(
                        interleaved[lane],
                        aes.encrypt_block(*block),
                        "seed {seed} round {round} lane {lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn ctr_lane_kernel_matches_single_block() {
        for seed in 0..4u64 {
            let aes = Aes128::new(&Key128::from_seed(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
            for step in 0..32u32 {
                // Exercise every IV byte, keeping byte 6 a legal lane-0
                // value (lane bits clear).
                let mut iv = [0u8; 16];
                for (j, b) in iv.iter_mut().enumerate() {
                    *b = (step as u8).wrapping_mul(71).wrapping_add((j as u8).wrapping_mul(29));
                }
                iv[6] &= 0x3f;
                let lanes = aes.encrypt_ctr_lanes(iv);
                for (lane, got) in lanes.iter().enumerate() {
                    let mut block = iv;
                    block[6] |= (lane as u8) << 6;
                    assert_eq!(
                        *got,
                        aes.encrypt_block(block),
                        "seed {seed} step {step} lane {lane}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "lane bits of byte 6 must be clear")]
    fn ctr_lane_kernel_rejects_set_lane_bits() {
        let aes = Aes128::new(&Key128::from_seed(1));
        let mut iv = [0u8; 16];
        iv[6] = 0x40;
        aes.encrypt_ctr_lanes(iv);
    }

    #[test]
    fn gmul_identities() {
        for a in 0..=255u8 {
            assert_eq!(gmul(a, 1), a);
            assert_eq!(gmul(a, 0), 0);
            assert_eq!(gmul(a, 2), xtime(a));
        }
        // Known product: 0x57 * 0x83 = 0xc1 (FIPS-197 4.2 example)
        assert_eq!(gmul(0x57, 0x83), 0xc1);
    }

    #[test]
    fn debug_redacts_schedule() {
        let aes = Aes128::new(&Key128::from_seed(3));
        assert_eq!(format!("{aes:?}"), "Aes128(<key schedule redacted>)");
    }
}
