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
use fsencr_fs::{AccessKind, GroupId, Mode, UserId};
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

/// FNV-1a-64 of `recovered_machine().save_snapshot()`.
const RECOVERED_PIN: u64 = 0xf9cf_17a7_a381_220c;

/// Line contents of the `n`-th write to `line` in [`recovered_machine`].
fn line_bytes(line: u64, n: u64) -> [u8; 64] {
    std::array::from_fn(|i| (i as u64 ^ line.wrapping_mul(0x3B) ^ n.wrapping_mul(0x5D)) as u8)
}

/// Writes in [`recovered_machine`]: `(line, times)`, each write
/// persisted on its own.
const RECOVERY_WRITES: [(u64, u64); 4] = [(0, 6), (67, 5), (130, 1), (131, 4)];

/// A FsEncr file whose lines were persisted up to six times at the
/// default Osiris stop-loss of 4, then a power cut and recovery. Line 0
/// leaves both its MECB and FECB minors two updates ahead of media, so
/// recovery repairs both engines' counters on media before the image
/// is taken.
fn recovered_machine() -> Machine {
    let mut m = Machine::new(MachineOpts::small_test(), SecurityMode::FsEncr);
    let h = m
        .create(
            USER,
            GroupId::new(1),
            "osiris.bin",
            Mode::PRIVATE,
            Some("pw"),
        )
        .expect("create");
    let map = m.mmap(&h).expect("mmap");
    for (line, times) in RECOVERY_WRITES {
        for n in 0..times {
            m.write(0, map, line * 64, &line_bytes(line, n))
                .expect("write");
            m.persist(0, map, line * 64, 64).expect("persist");
        }
    }
    m.crash();
    let report = m.recover();
    assert!(report.repaired > 0, "{report:?}");
    assert_eq!(report.unrecoverable, 0, "{report:?}");
    m
}

#[test]
fn recovered_snapshot_image_is_pinned() {
    let mut m = recovered_machine();
    let image = m.save_snapshot().expect("save");
    let got = fnv1a64_once(&image);
    assert_eq!(got, RECOVERED_PIN, "recovered image changed: {got:#018x}");
    let h = m
        .open(
            USER,
            &[GroupId::new(1)],
            "osiris.bin",
            AccessKind::Read,
            Some("pw"),
        )
        .expect("open");
    let map = m.mmap(&h).expect("mmap");
    for (line, times) in RECOVERY_WRITES {
        let mut buf = [0u8; 64];
        m.read(0, map, line * 64, &mut buf).expect("read");
        assert_eq!(buf, line_bytes(line, times - 1), "line {line}");
    }
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
