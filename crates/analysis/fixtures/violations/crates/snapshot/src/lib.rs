//! Seeded-violation fixture: a fake snapshot-codec module that trips
//! `hot-alloc` (encode/decode runs once per restore over
//! megabyte-scale payloads and must size its scratch up front). Never
//! compiled.
//! A doc-comment Vec::new() here must NOT be flagged.

pub fn decode_section(payload: &[u8]) -> Vec<u8> {
    let mut out: Vec<u8> = Vec::new();
    out.extend_from_slice(payload);
    let sized_is_fine = Vec::<u8>::with_capacity(payload.len());
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_allocate() {
        let scratch: Vec<u8> = Vec::new();
    }
}
