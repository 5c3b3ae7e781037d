//! Counter-mode pads minted outside `crates/crypto` and the controller:
//! one `PadInput` reused for two different lines. The same (key, IV)
//! pair twice hands an attacker `a XOR b` for free.

use fsencr_crypto::{line_pad, xor_in_place, Key128, PadDomain, PadInput};

/// Encrypts two lines under one pad input: textbook IV reuse.
pub fn encrypt_pair(key: &Key128, a: &mut [u8; 64], b: &mut [u8; 64]) {
    let input = PadInput {
        page_id: 7,
        block_in_page: 0,
        major: 1,
        minor: 3,
        domain: PadDomain::File,
    };
    let pad = line_pad(key, &input); // seeded
    xor_in_place(a, &pad);
    let pad_again = line_pad(key, &input); // seeded
    xor_in_place(b, &pad_again);
}
