//! Four-lane interleaved SHA-256 for the parallel Merkle rebuild and the
//! batched Osiris ECC tags.
//!
//! A single SHA-256 compression is one long serial dependency chain: each
//! round's `a`/`e` feed the next round, so a scalar core spends most of
//! its issue slots waiting. Hashing four *independent* 64-byte lines at
//! once breaks that ceiling: the four message schedules and four sets of
//! working variables have no cross-lane data flow, so the four chains
//! interleave in the out-of-order window (and, with the lane-wise
//! `[u32; 4]` layout below, auto-vectorize to SIMD on targets that have
//! it). Same 16-word-ring schedule trick as [`crate::sha256_line`], four
//! schedules in flight.
//!
//! The post-crash tree rebuild in `fsencr_secmem` hashes leaves and
//! nodes four at a time through [`digest8_lines4`]; odd remainders fall
//! back to the one-shot path. Verification climbs and write-backs hash
//! one line at a time through `digest8_line`. The controller's Osiris
//! ECC store settles its per-write tags four at a time through
//! [`ecc_tags4`].
//! Every entry point is cross-validated against its one-lane
//! counterpart and the streaming `sha256` in the tests, and the kernel
//! is pure safe Rust.

use crate::sha256::{ecc_tail_block, H0, K, LINE_PAD_KW};

/// One value per lane; all round arithmetic is lane-wise over this type.
type Lanes = [u32; 4];

#[inline(always)]
fn splat(x: u32) -> Lanes {
    [x; 4]
}

/// One compression round across all four lanes. Mirrors `sha_round!` in
/// `sha256.rs` but with every working variable widened to [`Lanes`]; the
/// per-lane loop bodies carry no cross-lane dependencies.
#[inline(always)]
fn round4(st: &mut [Lanes; 8], kw: Lanes) {
    let mut t1 = [0u32; 4];
    let mut t2 = [0u32; 4];
    for l in 0..4 {
        let e = st[4][l];
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & st[5][l]) ^ ((!e) & st[6][l]);
        t1[l] = st[7][l].wrapping_add(s1).wrapping_add(ch).wrapping_add(kw[l]);
        let a = st[0][l];
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & st[1][l]) ^ (a & st[2][l]) ^ (st[1][l] & st[2][l]);
        t2[l] = t1[l].wrapping_add(s0.wrapping_add(maj));
    }
    st[7] = st[6];
    st[6] = st[5];
    st[5] = st[4];
    for l in 0..4 {
        st[4][l] = st[3][l].wrapping_add(t1[l]);
    }
    st[3] = st[2];
    st[2] = st[1];
    st[1] = st[0];
    st[0] = t2;
}

/// Compresses four independent data blocks with the message schedule
/// fused into the rounds — four 16-entry word rings in flight, never a
/// materialized 64-word schedule.
#[inline(always)]
fn compress_blocks4(state: &mut [Lanes; 8], blocks: [&[u8; 64]; 4]) {
    let mut w = [[0u32; 4]; 16];
    for (j, word) in w.iter_mut().enumerate() {
        for l in 0..4 {
            let b = &blocks[l][4 * j..4 * j + 4];
            word[l] = u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
        }
    }
    let mut vars = *state;
    for (j, &word) in w.iter().enumerate() {
        let mut kw = [0u32; 4];
        for l in 0..4 {
            kw[l] = K[j].wrapping_add(word[l]);
        }
        round4(&mut vars, kw);
    }
    for chunk in 1..4usize {
        for j in 0..16 {
            let mut kw = [0u32; 4];
            for l in 0..4 {
                let w15 = w[(j + 1) & 15][l];
                let w2 = w[(j + 14) & 15][l];
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                let wi = w[j][l]
                    .wrapping_add(s0)
                    .wrapping_add(w[(j + 9) & 15][l])
                    .wrapping_add(s1);
                w[j][l] = wi;
                kw[l] = K[16 * chunk + j].wrapping_add(wi);
            }
            round4(&mut vars, kw);
        }
    }
    for v in 0..8 {
        for l in 0..4 {
            state[v][l] = state[v][l].wrapping_add(vars[v][l]);
        }
    }
}

/// Compresses the constant one-line padding block on all four lanes:
/// each round's `K + w` addend is the compile-time scalar
/// `LINE_PAD_KW[i]` broadcast across the lanes.
#[inline(always)]
fn compress_line_pad4(state: &mut [Lanes; 8]) {
    let mut vars = *state;
    for kwi in LINE_PAD_KW {
        round4(&mut vars, splat(kwi));
    }
    for v in 0..8 {
        for l in 0..4 {
            state[v][l] = state[v][l].wrapping_add(vars[v][l]);
        }
    }
}

#[inline(always)]
fn initial_states4() -> [Lanes; 8] {
    let mut state = [splat(0); 8];
    for (v, h) in H0.iter().enumerate() {
        state[v] = splat(*h);
    }
    state
}

/// The first eight digest bytes of every lane.
#[inline(always)]
fn digest8_of4(state: &[Lanes; 8]) -> [[u8; 8]; 4] {
    let mut out = [[0u8; 8]; 4];
    for l in 0..4 {
        out[l][..4].copy_from_slice(&state[0][l].to_be_bytes());
        out[l][4..].copy_from_slice(&state[1][l].to_be_bytes());
    }
    out
}

#[inline(always)]
fn line_states4(lines: [&[u8; 64]; 4]) -> [Lanes; 8] {
    let mut state = initial_states4();
    compress_blocks4(&mut state, lines);
    compress_line_pad4(&mut state);
    state
}

/// SHA-256 of four independent 64-byte lines at once. Lane `l` of the
/// result is bit-identical to `sha256_line(lines[l])`.
pub fn sha256_lines4(lines: [&[u8; 64]; 4]) -> [[u8; 32]; 4] {
    let state = line_states4(lines);
    let mut out = [[0u8; 32]; 4];
    for (v, word) in state.iter().enumerate() {
        for l in 0..4 {
            out[l][4 * v..4 * v + 4].copy_from_slice(&word[l].to_be_bytes());
        }
    }
    out
}

/// First eight digest bytes of four independent 64-byte lines — the
/// Bonsai node-slot width. Lane `l` is bit-identical to
/// `digest8_line(lines[l])`.
pub fn digest8_lines4(lines: [&[u8; 64]; 4]) -> [[u8; 8]; 4] {
    digest8_of4(&line_states4(lines))
}

/// Osiris ECC tags of four lines at once: two four-lane compressions,
/// the line blocks and then the address-and-padding blocks. Lane `l` is
/// bit-identical to `ecc_tag(lines[l], addrs[l])`.
pub fn ecc_tags4(lines: [&[u8; 64]; 4], addrs: [u64; 4]) -> [[u8; 8]; 4] {
    let mut state = initial_states4();
    compress_blocks4(&mut state, lines);
    let tails = addrs.map(ecc_tail_block);
    compress_blocks4(&mut state, [&tails[0], &tails[1], &tails[2], &tails[3]]);
    digest8_of4(&state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{digest8_line, ecc_tag, sha256, sha256_line};

    fn pattern_lines() -> Vec<[u8; 64]> {
        // Same multiplicative PRNG pattern the one-shot fast-path test
        // uses, so the lanes see realistic mixed-bit content.
        let mut x: u64 = 0x243f_6a88_85a3_08d3;
        let mut lines = Vec::with_capacity(64);
        for _ in 0..64 {
            let mut line = [0u8; 64];
            for chunk in line.chunks_exact_mut(8) {
                x = x.wrapping_mul(0xd129_42dc_4cbb_3d4d).wrapping_add(0xb504_f333);
                chunk.copy_from_slice(&x.to_le_bytes());
            }
            lines.push(line);
        }
        lines
    }

    #[test]
    fn four_lanes_match_four_one_shot_calls() {
        let lines = pattern_lines();
        for quad in lines.chunks_exact(4) {
            let got = sha256_lines4([&quad[0], &quad[1], &quad[2], &quad[3]]);
            for l in 0..4 {
                assert_eq!(got[l], sha256_line(&quad[l]), "lane {l}");
            }
        }
    }

    #[test]
    fn digest8_lanes_match_one_shot() {
        let lines = pattern_lines();
        for quad in lines.chunks_exact(4) {
            let got = digest8_lines4([&quad[0], &quad[1], &quad[2], &quad[3]]);
            for l in 0..4 {
                assert_eq!(got[l], digest8_line(&quad[l]), "lane {l}");
            }
        }
    }

    #[test]
    fn ecc_tags_match_sha256_of_line_and_address() {
        let lines = pattern_lines();
        let edges = [0u64, 64, 1 << 38, u64::MAX & !63];
        for (q, quad) in lines.chunks_exact(4).enumerate() {
            // Edge addresses on every lane position, mixed with
            // per-quad ordinary ones.
            let mut addrs = [0u64; 4];
            for (l, a) in addrs.iter_mut().enumerate() {
                *a = if (q + l) % 2 == 0 {
                    edges[(q + l) / 2 % 4]
                } else {
                    (q * 4 + l) as u64 * 4096 + 192
                };
            }
            let got = ecc_tags4([&quad[0], &quad[1], &quad[2], &quad[3]], addrs);
            for l in 0..4 {
                let mut msg = [0u8; 72];
                msg[..64].copy_from_slice(&quad[l]);
                msg[64..].copy_from_slice(&addrs[l].to_le_bytes());
                let want = &sha256(&msg)[..8];
                assert_eq!(got[l], want, "quad {q} lane {l}");
                assert_eq!(ecc_tag(&quad[l], addrs[l]), want, "quad {q} lane {l}");
            }
        }
    }

    #[test]
    fn lanes_are_independent() {
        // Perturbing one lane's input must not leak into the others.
        let zero = [0u8; 64];
        let mut hot = [0u8; 64];
        hot[17] = 0xA5;
        let base = sha256_lines4([&zero, &zero, &zero, &zero]);
        let mixed = sha256_lines4([&zero, &hot, &zero, &zero]);
        assert_eq!(mixed[0], base[0]);
        assert_ne!(mixed[1], base[1]);
        assert_eq!(mixed[2], base[2]);
        assert_eq!(mixed[3], base[3]);
    }

    #[test]
    fn duplicate_inputs_collapse_to_equal_lanes() {
        let mut line = [0u8; 64];
        for (i, b) in line.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(31).wrapping_add(7);
        }
        let got = sha256_lines4([&line, &line, &line, &line]);
        assert_eq!(got[0], got[1]);
        assert_eq!(got[1], got[2]);
        assert_eq!(got[2], got[3]);
        assert_eq!(got[0], sha256_line(&line));
    }
}
