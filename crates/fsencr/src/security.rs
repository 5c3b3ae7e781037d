//! Attacker models and the Table I vulnerability analysis.
//!
//! The simulator is functional, so the paper's security claims can be
//! *executed* rather than argued: an attacker here is a procedure that
//! reads the raw DIMM contents (and optionally holds some subset of keys)
//! and tries to locate known plaintext. Table I's three system models map
//! onto the machine's security modes:
//!
//! * **System A** — memory encryption only ([`super::SecurityMode::MemoryOnly`]).
//! * **System B** — one additional key for the whole filesystem
//!   (modelled as FsEncr with every file sharing a single passphrase-key).
//! * **System C** — FsEncr proper: dedicated keys per file.

use fsencr_crypto::{ctr, Aes128, Key128, PadDomain};
use fsencr_nvm::{LineAddr, PageId, PhysAddr, LINE_BYTES, PAGE_BYTES};
use fsencr_secmem::CounterBlock;

use crate::machine::Machine;

/// Scans the raw media for `needle`. This is attacker X with *no* keys:
/// the cold-boot / stolen-DIMM scan.
pub fn media_contains(machine: &Machine, needle: &[u8]) -> bool {
    assert!(!needle.is_empty() && needle.len() <= PAGE_BYTES);
    let storage = machine.controller().nvm().storage();
    let mut frames: Vec<u64> = storage.frames().collect();
    frames.sort_unstable();
    for frame in frames {
        let page = storage.snapshot_page(PageId::new(frame));
        if page.windows(needle.len()).any(|w| w == needle) {
            return true;
        }
    }
    false
}

/// Attacker who has obtained the memory-encryption key (and possibly some
/// file keys): decrypts every data line using the on-media counters —
/// exactly what booting a different OS achieves once the memory key is
/// broken — and scans for `needle`.
#[expect(
    clippy::disallowed_methods,
    reason = "attacker model reconstructs pads to demonstrate reuse leakage"
)]
pub fn attacker_decrypts(
    machine: &Machine,
    mem_key: &Key128,
    file_keys: &[Key128],
    needle: &[u8],
) -> bool {
    assert!(!needle.is_empty() && needle.len() <= PAGE_BYTES);
    let ctrl = machine.controller();
    let storage = ctrl.nvm().storage();
    let mem_aes = Aes128::new(mem_key);
    let file_aes: Vec<Aes128> = file_keys.iter().map(Aes128::new).collect();

    let layout = ctrl.layout();
    let mut frames: Vec<u64> = storage
        .frames()
        .filter(|f| (f * PAGE_BYTES as u64) < layout.data_bytes())
        .collect();
    frames.sort_unstable();
    // The attacker reads counters straight from the media — they are
    // stored in plaintext (integrity-protected, not secret).
    let counters = |domain, addr: LineAddr| {
        CounterBlock::from_bytes(domain, &ctrl.nvm().peek_line(PhysAddr::new(addr.get())))
    };

    for frame in frames {
        let page = PageId::new(frame);
        let mecb = counters(PadDomain::Memory, layout.mecb_addr(page));
        let fecb = counters(PadDomain::File, layout.fecb_addr(page));

        // Strips one engine's pads from every line of the page.
        let strip = |bytes: &mut [u8; PAGE_BYTES], aes: &Aes128, counters: &CounterBlock| {
            for (blk, line) in (0u8..).zip(bytes.chunks_exact_mut(LINE_BYTES)) {
                ctr::xor_in_place(
                    line,
                    &ctr::line_pad_with(aes, &counters.pad_input(page, blk)),
                );
            }
        };
        let leaks = |bytes: &[u8; PAGE_BYTES]| bytes.windows(needle.len()).any(|w| w == needle);

        let mut mem_plain = storage.snapshot_page(page);
        strip(&mut mem_plain, &mem_aes, &mecb);
        if leaks(&mem_plain) {
            return true;
        }
        if fecb.is_owned() {
            // Additionally try every file key the attacker holds.
            for aes in &file_aes {
                let mut attempt = mem_plain;
                strip(&mut attempt, aes, &fecb);
                if leaks(&attempt) {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{MachineOpts, SecurityMode};
    use fsencr_fs::{GroupId, Mode, UserId};

    const SECRET: &[u8] = b"TOP-SECRET-PAYROLL-RECORD-0001";

    fn machine_with_secret(mode: SecurityMode) -> (Machine, Key128) {
        let mut m = Machine::new(MachineOpts::small_test(), mode);
        let user = UserId::new(1);
        let h = m
            .create(user, GroupId::new(1), "payroll", Mode::PRIVATE, Some("pw"))
            .unwrap();
        let fek = h.fek.unwrap();
        let map = m.mmap(&h).unwrap();
        m.write(0, map, 0, SECRET).unwrap();
        m.persist(0, map, 0, SECRET.len() as u64).unwrap();
        m.shutdown_flush().unwrap();
        (m, fek)
    }

    #[test]
    fn unencrypted_media_leaks_plaintext() {
        let (m, _) = machine_with_secret(SecurityMode::Unencrypted);
        assert!(
            media_contains(&m, SECRET),
            "plain DAX leaves plaintext on media"
        );
    }

    #[test]
    fn encrypted_media_hides_plaintext() {
        for mode in [SecurityMode::MemoryOnly, SecurityMode::FsEncr] {
            let (m, _) = machine_with_secret(mode);
            assert!(!media_contains(&m, SECRET), "{mode}: plaintext leaked");
        }
    }

    #[test]
    fn table1_system_a_falls_with_memory_key() {
        // System A: memory encryption only. Memory key revealed => data
        // exposed.
        let (m, _) = machine_with_secret(SecurityMode::MemoryOnly);
        let mem_key = m.mem_key();
        assert!(attacker_decrypts(&m, &mem_key, &[], SECRET));
    }

    #[test]
    fn table1_system_c_survives_memory_key() {
        // System C (FsEncr): memory key alone is NOT enough for file data.
        let (m, _) = machine_with_secret(SecurityMode::FsEncr);
        let mem_key = m.mem_key();
        assert!(!attacker_decrypts(&m, &mem_key, &[], SECRET));
    }

    #[test]
    fn table1_system_c_falls_with_both_keys() {
        // ... but memory key + the file's own key exposes it, as Table I's
        // last row concedes.
        let (m, fek) = machine_with_secret(SecurityMode::FsEncr);
        let mem_key = m.mem_key();
        let keys = vec![fek];
        let leaked = attacker_decrypts(&m, &mem_key, &keys, SECRET);
        assert!(leaked);
    }

    #[test]
    fn table1_other_files_key_does_not_help() {
        // Per-file keys contain the blast radius: a *different* file's key
        // plus the memory key still reveals nothing about this file.
        let (mut m, _fek) = machine_with_secret(SecurityMode::FsEncr);
        let user = UserId::new(1);
        let h2 = m
            .create(user, GroupId::new(1), "other", Mode::PRIVATE, Some("pw2"))
            .unwrap();
        let other_key = h2.fek.unwrap();
        let map = m.mmap(&h2).unwrap();
        m.write(0, map, 0, b"unrelated-file-content").unwrap();
        m.persist(0, map, 0, 22).unwrap();
        m.shutdown_flush().unwrap();
        let mem_key = m.mem_key();
        let keys = vec![other_key];
        assert!(!attacker_decrypts(&m, &mem_key, &keys, SECRET));
    }
}
