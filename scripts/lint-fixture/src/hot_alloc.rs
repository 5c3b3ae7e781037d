//! A verification climb that allocates per call instead of reusing the
//! owning struct's scratch.

/// Collects the leaves to climb from.
pub fn climb_chain(leaves: &[u64]) -> Vec<u64> {
    let mut pending = Vec::new(); // seeded
    pending.extend_from_slice(leaves);
    // A sized allocation stays legal.
    let mut sized = Vec::with_capacity(leaves.len());
    sized.extend_from_slice(&pending);
    sized
}
