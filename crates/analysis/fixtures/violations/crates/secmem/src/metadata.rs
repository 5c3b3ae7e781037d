//! Seeded-violation fixture: a fake verification climb that trips
//! `hot-alloc` — the metadata system's climbs and eviction cascades run
//! on every metadata miss and must reuse the system's scratch vectors,
//! never allocate per call. Never compiled.
//! A doc-comment Vec::new() here must NOT be flagged.

pub fn climb_chain(leaves: &[u64]) -> Vec<[u8; 64]> {
    let mut pending = Vec::new();
    let mut climbs: VecDeque<u64> = VecDeque::new();
    for &leaf in leaves {
        climbs.push_back(leaf);
        pending.push([0u8; 64]);
    }
    let sized_is_fine = Vec::<[u8; 64]>::with_capacity(leaves.len());
    pending
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_allocate() {
        let scratch: Vec<u8> = Vec::new();
    }
}
