//! Pins the bytes of one machine snapshot image per security mode.
//!
//! Host-side layouts of the address-keyed state (the ECC lane store,
//! NVM contents, wear counters, TLBs, the page table, pending metadata
//! updates) must not show in the image: each section is written in a
//! canonical order, so a change of map type, hasher or grouping leaves
//! the bytes alone. The script below touches every one of those
//! sections, and the image's FNV-1a-64 digest moves if any of them
//! drifts. A change that is meant to alter the image format updates
//! `PINNED` and says why.

use fsencr::machine::MachineError;
use fsencr::{Machine, MachineOpts, SecurityMode};
use fsencr_fs::{GroupId, Mode, UserId};
use fsencr_snapshot::fnv1a64_once;

const PAGE: u64 = 4096;
const USER: UserId = UserId::new(1);

/// FNV-1a-64 of `scripted_machine(mode).save_snapshot()`, per mode.
const PINNED: [(SecurityMode, u64); 4] = [
    (SecurityMode::Unencrypted, 0x236e_7320_5e07_881a),
    (SecurityMode::MemoryOnly, 0xc146_cdd3_9907_68a5),
    (SecurityMode::FsEncr, 0x6e94_eca3_abe3_ff66),
    (SecurityMode::Software, 0x33d2_ccb4_d1ea_5bfa),
];

/// Two encrypted files, written and made durable, then one rekeyed
/// and the other unlinked (its pages are shredded).
fn scripted_machine(mode: SecurityMode) -> Machine {
    let mut m = Machine::new(MachineOpts::small_test(), mode);
    for (f, name) in ["keep.bin", "gone.bin"].into_iter().enumerate() {
        let h = m
            .create(USER, GroupId::new(1), name, Mode::PRIVATE, Some("pw"))
            .expect("create");
        let map = m.mmap(&h).expect("mmap");
        for p in 0..3u64 {
            let page: Vec<u8> = (0..PAGE)
                .map(|i| (i.wrapping_mul(7) ^ p.wrapping_mul(0x9E) ^ f as u64) as u8)
                .collect();
            m.write(0, map, p * PAGE, &page).expect("write");
        }
        m.msync(0, map, 0, 3 * PAGE).expect("msync");
    }
    match m.rekey(USER, "keep.bin", "pw", "pw2") {
        Err(MachineError::Unsupported(_)) if mode == SecurityMode::Software => {}
        other => other.expect("rekey"),
    }
    m.unlink(USER, "gone.bin").expect("unlink");
    m
}

#[test]
fn scripted_snapshot_images_are_pinned() {
    let got: Vec<(SecurityMode, u64)> = PINNED
        .iter()
        .map(|(mode, _)| {
            let image = scripted_machine(*mode).save_snapshot().expect("save");
            (*mode, fnv1a64_once(&image))
        })
        .collect();
    assert_eq!(
        got,
        PINNED,
        "snapshot images changed: {:#018x?}",
        got.iter().map(|(_, d)| *d).collect::<Vec<_>>()
    );
}
