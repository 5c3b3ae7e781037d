//! SHA-256 (FIPS 180-4).
//!
//! Used by the Bonsai Merkle tree and by HMAC/PBKDF2. Streaming interface
//! plus a one-shot convenience function; validated against the NIST
//! short-message vectors in the test module.
//!
//! The Merkle tree hashes nothing but 64-byte cache lines, so the module
//! also provides [`sha256_line`]/[`digest8_line`]: a 64-byte message is
//! exactly one data block plus one constant padding block. The fast path
//! runs two compressions straight out of the input with no buffer copies:
//! the data block's message schedule is fused into the rounds (a 16-word
//! ring instead of a materialized 64-word array), and the padding block's
//! entire `K[i] + w[i]` addend table is computed at compile time.

pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Streaming SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use fsencr_crypto::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// let digest = h.finalize();
/// assert_eq!(digest[0], 0xba); // "abc" -> ba7816bf...
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while data.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&data[..64]);
            self.compress(&block);
            data = &data[64..];
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffered = data.len();
        }
    }

    /// Finishes the computation and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // `0x80` and the zero fill go in with one slice write; a tail
        // with no room for the length spills into one extra block.
        let n = self.buffered;
        self.buffer[n] = 0x80;
        self.buffer[n + 1..].fill(0);
        if n >= 56 {
            let block = self.buffer;
            self.compress(&block);
            self.buffer = [0u8; 64];
        }
        self.buffer[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buffer;
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        compress_scheduled(&mut self.state, &schedule(block));
    }
}

/// Expands one 64-byte block into its 64-word message schedule.
///
/// `const` so the fixed padding block of a 64-byte message can be
/// scheduled at compile time ([`LINE_PAD_SCHEDULE`]).
const fn schedule(block: &[u8; 64]) -> [u32; 64] {
    let mut w = [0u32; 64];
    let mut i = 0;
    while i < 16 {
        w[i] = u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
        i += 1;
    }
    while i < 64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
        i += 1;
    }
    w
}

/// Runs the 64 compression rounds for an already-expanded schedule and
/// folds the result into `state`.
fn compress_scheduled(state: &mut [u32; 8], w: &[u32; 64]) {
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The padding block every 64-byte message ends with: `0x80`, 55 zero
/// bytes, then the 64-bit big-endian bit length (512).
const LINE_PAD_BLOCK: [u8; 64] = {
    let mut b = [0u8; 64];
    b[0] = 0x80;
    let len_bits = 512u64.to_be_bytes();
    let mut i = 0;
    while i < 8 {
        b[56 + i] = len_bits[i];
        i += 1;
    }
    b
};

/// Compile-time message schedule of [`LINE_PAD_BLOCK`].
const LINE_PAD_SCHEDULE: [u32; 64] = schedule(&LINE_PAD_BLOCK);

/// [`LINE_PAD_SCHEDULE`] with the round constants pre-added: the padding
/// compression's `K[i] + w[i]` term is fully known at compile time.
pub(crate) const LINE_PAD_KW: [u32; 64] = {
    let mut kw = [0u32; 64];
    let mut i = 0;
    while i < 64 {
        kw[i] = K[i].wrapping_add(LINE_PAD_SCHEDULE[i]);
        i += 1;
    }
    kw
};

/// One compression round on eight named working variables; `$kw` is the
/// combined `K[i] + w[i]` addend. Naming the variables (instead of
/// shuffling an array) lets the optimizer keep all eight in registers
/// and turn the rotation into pure renaming across unrolled rounds.
macro_rules! sha_round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {{
        let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
        let ch = ($e & $f) ^ ((!$e) & $g);
        let t1 = $h.wrapping_add(s1).wrapping_add(ch).wrapping_add($kw);
        let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
        let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
        $h = $g;
        $g = $f;
        $f = $e;
        $e = $d.wrapping_add(t1);
        $d = $c;
        $c = $b;
        $b = $a;
        $a = t1.wrapping_add(s0.wrapping_add(maj));
    }};
}

/// Folds the working variables back into the chaining state.
macro_rules! sha_fold {
    ($state:ident, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident) => {{
        $state[0] = $state[0].wrapping_add($a);
        $state[1] = $state[1].wrapping_add($b);
        $state[2] = $state[2].wrapping_add($c);
        $state[3] = $state[3].wrapping_add($d);
        $state[4] = $state[4].wrapping_add($e);
        $state[5] = $state[5].wrapping_add($f);
        $state[6] = $state[6].wrapping_add($g);
        $state[7] = $state[7].wrapping_add($h);
    }};
}

/// Compresses one raw data block with the message schedule fused into
/// the rounds: the expanded words live in a 16-entry ring instead of a
/// 64-word array, so no full schedule is ever materialized.
#[inline(always)]
fn compress_block_fused(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (wi, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *wi = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for j in 0..16 {
        sha_round!(a, b, c, d, e, f, g, h, K[j].wrapping_add(w[j]));
    }
    for chunk in 1..4usize {
        for j in 0..16 {
            let w15 = w[(j + 1) & 15];
            let w2 = w[(j + 14) & 15];
            let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
            let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
            let wi = w[j]
                .wrapping_add(s0)
                .wrapping_add(w[(j + 9) & 15])
                .wrapping_add(s1);
            w[j] = wi;
            sha_round!(a, b, c, d, e, f, g, h, K[16 * chunk + j].wrapping_add(wi));
        }
    }
    sha_fold!(state, a, b, c, d, e, f, g, h);
}

/// Compresses the constant padding block: every `K[i] + w[i]` addend is
/// the compile-time [`LINE_PAD_KW`] table.
#[inline(always)]
fn compress_line_pad(state: &mut [u32; 8]) {
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for kwi in LINE_PAD_KW {
        sha_round!(a, b, c, d, e, f, g, h, kwi);
    }
    sha_fold!(state, a, b, c, d, e, f, g, h);
}

#[inline(always)]
fn line_state(line: &[u8; 64]) -> [u32; 8] {
    let mut state = H0;
    compress_block_fused(&mut state, line);
    compress_line_pad(&mut state);
    state
}

/// One-shot SHA-256 of exactly one 64-byte line: two compressions — the
/// data block with the schedule fused into the rounds, the padding block
/// from a compile-time `K + w` table. Bit-identical to `sha256(line)`.
pub fn sha256_line(line: &[u8; 64]) -> [u8; 32] {
    let state = line_state(line);
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// First 8 bytes of [`sha256_line`] — the Merkle slot digest width.
/// Bit-identical to truncating `sha256(line)`.
pub fn digest8_line(line: &[u8; 64]) -> [u8; 8] {
    let state = line_state(line);
    let mut out = [0u8; 8];
    out[..4].copy_from_slice(&state[0].to_be_bytes());
    out[4..].copy_from_slice(&state[1].to_be_bytes());
    out
}

/// One-shot SHA-256.
///
/// # Examples
///
/// ```
/// use fsencr_crypto::sha256;
/// let d = sha256(b"");
/// assert_eq!(d[0], 0xe3); // empty string -> e3b0c442...
/// ```
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex32(s: &str) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, o) in out.iter_mut().enumerate() {
            *o = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    #[test]
    fn nist_empty() {
        assert_eq!(
            sha256(b""),
            hex32("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            sha256(b"abc"),
            hex32("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
        );
    }

    #[test]
    fn nist_448_bits() {
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            hex32("248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize(),
            hex32("cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
        let oneshot = sha256(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn line_fast_path_matches_streaming() {
        // Deterministic pseudo-random lines plus structured edge cases.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x = x
                .wrapping_mul(0xd129_42dc_4cbb_3d4d)
                .wrapping_add(0xb504_f333);
            x
        };
        let mut lines: Vec<[u8; 64]> = vec![[0u8; 64], [0xff; 64], [0x80; 64]];
        for _ in 0..256 {
            let mut line = [0u8; 64];
            for chunk in line.chunks_exact_mut(8) {
                chunk.copy_from_slice(&next().to_be_bytes());
            }
            lines.push(line);
        }
        for (i, line) in lines.iter().enumerate() {
            let reference = sha256(line);
            assert_eq!(sha256_line(line), reference, "line {i}");
            assert_eq!(digest8_line(line), reference[..8], "line {i}");
        }
    }

    #[test]
    fn line_pad_schedule_matches_runtime_expansion() {
        // The const evaluation must agree with the runtime scheduler.
        assert_eq!(LINE_PAD_SCHEDULE, schedule(&LINE_PAD_BLOCK));
        assert_eq!(LINE_PAD_BLOCK[0], 0x80);
        assert_eq!(&LINE_PAD_BLOCK[56..], &512u64.to_be_bytes());
    }

    #[test]
    fn boundary_lengths() {
        // Lengths straddling the padding boundary (55, 56, 63, 64, 65 bytes)
        // exercise the two-block finalization path.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xabu8; len];
            let a = sha256(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), a, "len {len}");
        }
    }
}
