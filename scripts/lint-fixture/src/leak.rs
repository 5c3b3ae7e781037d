//! Plaintext reaching the media around the `MemoryController`
//! encryption boundary: directly, and from a closure one call away
//! (a call edge that a name-based resolver cannot see).

use fsencr_nvm::{NvmDevice, PhysAddr, LINE_BYTES};
use fsencr_sim::Cycle;

/// Writes `plain` to NVM without ever touching the encrypt pipeline.
pub fn dump_plain(nvm: &mut NvmDevice, addr: PhysAddr, plain: &[u8; LINE_BYTES]) {
    nvm.poke_line(addr, plain); // seeded
}

/// A "fast checkpoint" that skips the controller: one hop from the
/// leak, through a closure.
pub fn checkpoint_fast(nvm: &mut NvmDevice, lines: &[(PhysAddr, [u8; LINE_BYTES])]) {
    let mut store = |addr, data| nvm.write_line(Cycle::ZERO, addr, data); // seeded
    for (addr, data) in lines {
        store(*addr, data);
    }
}
