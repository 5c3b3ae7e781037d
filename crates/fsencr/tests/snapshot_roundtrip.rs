//! Snapshot round-trip equivalence: a machine restored from
//! `Machine::save_snapshot` bytes must continue *bit-identically* — same
//! simulated cycles, same plaintext, same statistics snapshot, same
//! Merkle root — to the machine that never stopped, across arbitrary
//! operation streams including crash/rebuild cycles and rekeys. The
//! snapshot is full-fidelity: re-serializing the restored machine yields
//! byte-identical `fsencr-snap/1` output.

use std::ops::Range;

use proptest::prelude::*;

use fsencr::machine::{Machine, MachineOpts, MapId, SecurityMode};
use fsencr_faults::FaultPlan;
use fsencr_fs::{AccessKind, GroupId, Mode, UserId};
use fsencr_nvm::PAGE_BYTES;
use fsencr_snapshot::{describe, fnv1a64, fnv1a64_once, Dec, Enc, SnapError, MAGIC};

const ALICE: UserId = UserId::new(1);
const STAFF: GroupId = GroupId::new(3);
const SPAN: u64 = 6 * PAGE_BYTES as u64;

/// A machine with an encrypted (DF) file and a plain file mapped.
fn build(mode: SecurityMode) -> (Machine, MapId, MapId) {
    let mut m = Machine::new(MachineOpts::small_test(), mode);
    let enc = m
        .create(ALICE, STAFF, "enc", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let plain = m.create(ALICE, STAFF, "plain", Mode::PRIVATE, None).unwrap();
    let enc_map = m.mmap(&enc).unwrap();
    let plain_map = m.mmap(&plain).unwrap();
    (m, enc_map, plain_map)
}

/// One op applied identically to both machines, with lockstep asserts.
/// `maps` are the current (enc, plain) mappings of each machine.
fn drive_pair(
    a: &mut Machine,
    b: &mut Machine,
    a_maps: &mut (MapId, MapId),
    b_maps: &mut (MapId, MapId),
    op: (u8, bool, u64, usize, u8),
) -> Result<(), TestCaseError> {
    let (kind, enc, off, len, tag) = op;
    let (am, bm) = if enc {
        (a_maps.0, b_maps.0)
    } else {
        (a_maps.1, b_maps.1)
    };
    let off = off.min(SPAN - 1);
    let len = len.min((SPAN - off) as usize);
    let reopen = |m: &mut Machine| -> (MapId, MapId) {
        let enc = m
            .open(ALICE, &[STAFF], "enc", AccessKind::Write, Some("pw"))
            .unwrap();
        let plain = m
            .open(ALICE, &[STAFF], "plain", AccessKind::Write, None)
            .unwrap();
        (m.mmap(&enc).unwrap(), m.mmap(&plain).unwrap())
    };
    match kind {
        0..=2 => {
            let data = vec![tag; len];
            prop_assert_eq!(a.write(0, am, off, &data), b.write(0, bm, off, &data));
        }
        3 | 4 => {
            let mut got_a = vec![0u8; len];
            let mut got_b = vec![0u8; len];
            prop_assert_eq!(a.read(0, am, off, &mut got_a), b.read(0, bm, off, &mut got_b));
            prop_assert_eq!(&got_a, &got_b);
        }
        5 | 6 => {
            let data = vec![tag; len];
            a.write(0, am, off, &data).unwrap();
            b.write(0, bm, off, &data).unwrap();
            a.persist(0, am, off, len as u64).unwrap();
            b.persist(0, bm, off, len as u64).unwrap();
        }
        7 => {
            a.msync(0, am, 0, SPAN).unwrap();
            b.msync(0, bm, 0, SPAN).unwrap();
        }
        8 => {
            // Rekey the encrypted file on both machines: new FEK from the
            // (snapshotted) keyring RNG, page re-encryption on media.
            prop_assert_eq!(
                a.rekey(ALICE, "enc", "pw", "pw").is_ok(),
                b.rekey(ALICE, "enc", "pw", "pw").is_ok()
            );
        }
        _ => {
            // Dirty crash + recovery rebuild, then remap both sides.
            a.crash();
            b.crash();
            prop_assert_eq!(a.recover(), b.recover());
            prop_assert_eq!(a.merkle_root(), b.merkle_root());
            *a_maps = reopen(a);
            *b_maps = reopen(b);
        }
    }
    prop_assert_eq!(a.elapsed(), b.elapsed());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// The tentpole property: snapshot mid-stream, restore, and the
    /// restored machine is indistinguishable from the one that kept
    /// running — through writes, reads, persists, msyncs, rekeys and
    /// crash/recovery, in every security mode (Software mode's eCryptfs
    /// page cache included) — down to byte-identical re-serialized
    /// snapshots.
    #[test]
    fn restored_machine_continues_bit_identically(
        prefix in prop::collection::vec(
            (0u8..8, any::<bool>(), 0u64..SPAN, 1usize..1024, any::<u8>()),
            1..10,
        ),
        suffix in prop::collection::vec(
            (0u8..10, any::<bool>(), 0u64..SPAN, 1usize..1024, any::<u8>()),
            1..12,
        ),
        mode in 0usize..4,
    ) {
        let mode = [
            SecurityMode::Unencrypted,
            SecurityMode::MemoryOnly,
            SecurityMode::FsEncr,
            SecurityMode::Software,
        ][mode];
        let (mut a, enc_map, plain_map) = build(mode);
        let mut a_maps = (enc_map, plain_map);

        // Warm the machine with the prefix stream (against itself: the
        // drive harness wants a pair, so clone the op effects manually).
        for &(kind, enc, off, len, tag) in &prefix {
            let m = if enc { a_maps.0 } else { a_maps.1 };
            let off = off.min(SPAN - 1);
            let len = len.min((SPAN - off) as usize);
            match kind {
                0..=2 => { let _ = a.write(0, m, off, &vec![tag; len]); }
                3 | 4 => { let mut buf = vec![0u8; len]; let _ = a.read(0, m, off, &mut buf); }
                5 | 6 => {
                    a.write(0, m, off, &vec![tag; len]).unwrap();
                    a.persist(0, m, off, len as u64).unwrap();
                }
                _ => { a.msync(0, m, 0, SPAN).unwrap(); }
            }
        }

        let bytes = a.save_snapshot().unwrap();
        let mut b = Machine::restore_snapshot(
            MachineOpts::small_test(), mode, &bytes,
        ).unwrap();
        let mut b_maps = a_maps; // identical histories => identical MapIds

        // Immediately re-serializing the restored machine reproduces the
        // snapshot byte for byte (full fidelity, no lossy fields).
        prop_assert_eq!(&b.save_snapshot().unwrap(), &bytes);
        prop_assert_eq!(a.elapsed(), b.elapsed());
        prop_assert_eq!(a.snapshot(), b.snapshot());
        prop_assert_eq!(a.merkle_root(), b.merkle_root());

        for &op in &suffix {
            drive_pair(&mut a, &mut b, &mut a_maps, &mut b_maps, op)?;
        }

        prop_assert_eq!(a.snapshot(), b.snapshot());
        prop_assert_eq!(a.merkle_root(), b.merkle_root());
        prop_assert_eq!(a.measurement_snapshot(), b.measurement_snapshot());
        // The final states serialize identically too.
        prop_assert_eq!(a.save_snapshot().unwrap(), b.save_snapshot().unwrap());
    }

    /// Corrupting any single byte of a snapshot is detected — the chained
    /// section digests refuse the restore (or the magic/length checks do).
    #[test]
    fn corrupted_snapshots_are_rejected(flip in 0usize..4096, bit in 0u8..8) {
        let (mut m, enc_map, _) = build(SecurityMode::FsEncr);
        m.write(0, enc_map, 0, b"snapshot-me").unwrap();
        m.persist(0, enc_map, 0, 11).unwrap();
        let mut bytes = m.save_snapshot().unwrap();
        let idx = flip % bytes.len();
        bytes[idx] ^= 1 << bit;
        prop_assert!(
            Machine::restore_snapshot(MachineOpts::small_test(), SecurityMode::FsEncr, &bytes)
                .is_err(),
            "byte {} bit {} flip went undetected", idx, bit
        );
    }
}

#[test]
fn snapshot_refuses_armed_injector() {
    let (mut m, _, _) = build(SecurityMode::FsEncr);
    m.fault_plane().arm(FaultPlan::empty());
    assert!(matches!(m.save_snapshot(), Err(SnapError::InjectorArmed)));
    m.fault_plane().disarm();
    assert!(m.save_snapshot().is_ok());
}

#[test]
fn restore_rejects_config_mismatch() {
    let (m, _, _) = build(SecurityMode::FsEncr);
    let bytes = m.save_snapshot().unwrap();
    // Wrong mode.
    assert!(matches!(
        Machine::restore_snapshot(MachineOpts::small_test(), SecurityMode::MemoryOnly, &bytes),
        Err(SnapError::StateMismatch)
    ));
    // Wrong options (different seed).
    let other = MachineOpts::preset(fsencr::machine::Preset::SmallTest)
        .seed(0xDEAD)
        .build();
    assert!(matches!(
        Machine::restore_snapshot(other, SecurityMode::FsEncr, &bytes),
        Err(SnapError::StateMismatch)
    ));
}

#[test]
fn truncated_snapshot_is_rejected() {
    let (m, _, _) = build(SecurityMode::FsEncr);
    let bytes = m.save_snapshot().unwrap();
    for cut in [0, 5, 14, 40, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            Machine::restore_snapshot(
                MachineOpts::small_test(),
                SecurityMode::FsEncr,
                &bytes[..cut]
            )
            .is_err(),
            "truncation at {cut} went undetected"
        );
    }
}

#[test]
fn software_mode_round_trips() {
    // The software-encryption state (page cache, frame map, valid set,
    // keyring sessions) rides in the snapshot too.
    let (mut a, enc_map, _) = build(SecurityMode::Software);
    a.write(0, enc_map, 100, b"soft-encrypted-content").unwrap();
    a.msync(0, enc_map, 0, 4096).unwrap();
    a.write(0, enc_map, 4096, b"second page").unwrap();

    let bytes = a.save_snapshot().unwrap();
    let mut b =
        Machine::restore_snapshot(MachineOpts::small_test(), SecurityMode::Software, &bytes)
            .unwrap();

    let mut got_a = vec![0u8; 22];
    let mut got_b = vec![0u8; 22];
    a.read(0, enc_map, 100, &mut got_a).unwrap();
    b.read(0, enc_map, 100, &mut got_b).unwrap();
    assert_eq!(got_a, got_b);
    assert_eq!(&got_a, b"soft-encrypted-content");
    a.msync(0, enc_map, 0, 2 * 4096).unwrap();
    b.msync(0, enc_map, 0, 2 * 4096).unwrap();
    assert_eq!(a.elapsed(), b.elapsed());
    assert_eq!(a.snapshot(), b.snapshot());
    assert_eq!(a.save_snapshot().unwrap(), b.save_snapshot().unwrap());
}

/// A valid filesystem payload, as `DaxFs::snap_save` writes it: two
/// files with holes, plus a free inode and free frames from an unlink.
fn fs_payload() -> Vec<u8> {
    let (mut m, enc_map, plain_map) = build(SecurityMode::FsEncr);
    m.write(0, enc_map, 3 * PAGE_BYTES as u64, b"fourth").unwrap();
    m.write(0, plain_map, PAGE_BYTES as u64, b"second").unwrap();
    let tmp = m.create(ALICE, STAFF, "tmp", Mode::PRIVATE, None).unwrap();
    let tmp_map = m.mmap(&tmp).unwrap();
    m.write(0, tmp_map, 0, &[1; 2 * PAGE_BYTES]).unwrap();
    m.unlink(ALICE, "tmp").unwrap();
    let mut enc = Enc::new();
    let start = enc.written();
    m.fs().snap_save(&mut enc);
    enc.finish()[start..].to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The section digest is keyless, so crafted filesystem bytes reach
    /// `DaxFs::snap_load`: byte flips and truncations of a valid payload,
    /// framed with a fresh digest, decode to `Ok` or a typed error —
    /// never a panic.
    #[test]
    fn hostile_fs_payloads_never_panic(
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 0..6),
        keep in any::<usize>(),
    ) {
        static PAYLOAD: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        let original = PAYLOAD.get_or_init(fs_payload);
        let mut payload = original.clone();
        for (at, mask) in flips {
            let i = at % payload.len();
            payload[i] ^= mask;
        }
        payload.truncate(keep % (original.len() + 1));
        let mut enc = Enc::new();
        enc.begin_section("fs");
        enc.put_bytes(&payload);
        enc.end_section();
        let bytes = enc.finish();
        let mut dec = Dec::new(&bytes).unwrap();
        dec.begin_section("fs").unwrap();
        let loaded = fsencr_fs::DaxFs::snap_load(&mut dec);
        if payload == *original {
            prop_assert!(loaded.is_ok());
        }
    }
}

/// A whole-machine image: two encrypted files, written and persisted.
fn two_file_image(mode: SecurityMode) -> Vec<u8> {
    let mut m = Machine::new(MachineOpts::small_test(), mode);
    for (name, tag) in [("a", 0xa5u8), ("b", 0x5a)] {
        let h = m.create(ALICE, STAFF, name, Mode::PRIVATE, Some("pw")).unwrap();
        let map = m.mmap(&h).unwrap();
        m.write(0, map, 100, &[tag; 2 * PAGE_BYTES]).unwrap();
        m.persist(0, map, 0, 3 * PAGE_BYTES as u64).unwrap();
    }
    m.save_snapshot().unwrap()
}

/// `(name, payload)` byte ranges of every section frame, in order.
fn frames(bytes: &[u8]) -> Vec<(Range<usize>, Range<usize>)> {
    let mut pos = MAGIC.len();
    describe(bytes)
        .unwrap()
        .iter()
        .map(|s| {
            let name = pos + 1..pos + 1 + s.name.len();
            let payload = name.end + 8..name.end + 8 + s.payload_len as usize;
            pos = payload.end + 8;
            (name, payload)
        })
        .collect()
}

/// Re-seals every section digest, so edited payloads get past
/// `Dec::begin_section` and reach the section decoders.
fn rechain(bytes: &mut [u8], frames: &[(Range<usize>, Range<usize>)]) {
    let mut chain = fnv1a64_once(&[]);
    for (name, payload) in frames {
        chain = fnv1a64(fnv1a64(chain, &bytes[name.clone()]), &bytes[payload.clone()]);
        bytes[payload.end..payload.end + 8].copy_from_slice(&chain.to_le_bytes());
    }
}

/// Reads, writes and persists file `a`, then crashes, recovers and
/// reads again. Every step may fail, but only with a typed error.
fn exercise(m: &mut Machine) {
    let mut buf = [0u8; 256];
    let mut touch = |m: &mut Machine| {
        let map = m
            .open(ALICE, &[STAFF], "a", AccessKind::Write, Some("pw"))
            .and_then(|h| m.mmap(&h));
        if let Ok(map) = map {
            let _ = m.read(0, map, 0, &mut buf);
            let _ = m.write(0, map, 50, b"hostile");
            let _ = m.persist(0, map, 0, PAGE_BYTES as u64);
        }
    };
    touch(m);
    m.crash();
    let _ = m.recover();
    touch(m);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The section digests are keyless, so a crafted whole-machine image
    /// reaches every section decoder: 1-3 flipped or overwritten payload
    /// bytes in one section, re-sealed, restore to a machine or fail with
    /// a typed error, and a restored machine survives
    /// read/write/persist/crash/recover/read on typed errors alone —
    /// never a panic.
    #[test]
    fn hostile_machine_images_never_panic(
        software in any::<bool>(),
        section in any::<usize>(),
        edits in prop::collection::vec((any::<usize>(), any::<u8>(), any::<bool>()), 1..4),
    ) {
        static IMAGES: std::sync::OnceLock<[Vec<u8>; 2]> = std::sync::OnceLock::new();
        let images = IMAGES.get_or_init(|| {
            [two_file_image(SecurityMode::FsEncr), two_file_image(SecurityMode::Software)]
        });
        let (mode, image) = if software {
            (SecurityMode::Software, &images[1])
        } else {
            (SecurityMode::FsEncr, &images[0])
        };
        let mut bytes = image.clone();
        let frames = frames(&bytes);
        let (_, payload) = frames[section % frames.len()].clone();
        prop_assume!(!payload.is_empty());
        for (at, value, overwrite) in edits {
            let i = payload.start + at % payload.len();
            bytes[i] = if overwrite { value } else { bytes[i] ^ value.max(1) };
        }
        rechain(&mut bytes, &frames);
        prop_assert!(describe(&bytes).is_ok());
        if let Ok(mut m) = Machine::restore_snapshot(MachineOpts::small_test(), mode, &bytes) {
            exercise(&mut m);
        }
    }
}

/// A loader whose collection count sizes an allocation must turn a
/// hostile count into a typed error, not abort on the allocation: the
/// section digest is keyless, so a crafted image passes it.
#[test]
fn hostile_collection_counts_are_typed_errors() {
    use fsencr::controller::CtrlMode;
    use fsencr::{MemoryController, OpenTunnelTable};
    use fsencr_fs::{DaxFs, Keyring, PageTable};
    use fsencr_nvm::{NvmDevice, Storage, WearTracker};
    use fsencr_secmem::{EccStore, MetadataLayout, MetadataSystem};

    type Prefix = Box<dyn Fn(&mut Enc)>;
    type Load = Box<dyn Fn(&mut Dec<'_>) -> Result<(), SnapError>>;
    let opts = MachineOpts::small_test();
    let cfg = opts.config.security;
    let nvm_cfg = opts.config.nvm;
    let layout = MetadataLayout::new(opts.general_bytes + opts.pmem_bytes, opts.ott_spill_bytes);
    let ctrl_layout = layout.clone();
    let no_prefix = || -> Prefix { Box::new(|_| {}) };
    let table: Vec<(&str, Prefix, Load)> = vec![
        ("storage", no_prefix(), Box::new(|d| Storage::snap_load(d).map(drop))),
        ("wear", no_prefix(), Box::new(|d| WearTracker::snap_load(d).map(drop))),
        ("pagetable", no_prefix(), Box::new(|d| PageTable::snap_load(d).map(drop))),
        ("keyring", no_prefix(), Box::new(|d| Keyring::default().snap_load(d))),
        ("ecc", no_prefix(), Box::new(|d| EccStore::snap_load(d).map(drop))),
        (
            "controller file pages",
            Box::new(move |e| {
                e.put_bytes(&[0u8; 32]);
                NvmDevice::new(nvm_cfg).snap_save(e).unwrap();
                MetadataSystem::new(layout.clone(), &cfg).snap_save(e);
                EccStore::new().snap_save(e);
                OpenTunnelTable::new(cfg.ott_entries, cfg.ott_latency_cycles).snap_save(e);
            }),
            Box::new(move |d| {
                MemoryController::snap_load(CtrlMode::Encrypted, ctrl_layout.clone(), &cfg, nvm_cfg, d)
                    .map(drop)
            }),
        ),
    ];
    // The filesystem's four counts, each behind the valid fields that
    // precede it: row k writes stages 0..=k, then the hostile count.
    let stages: [fn(&mut Enc); 4] = [
        |e| [7, 100, 8, 4].iter().for_each(|&w| e.put_u64(w)), // FEK generator, allocator region
        |e| {
            e.put_u64(0); // no free frames
            e.put_u32(2); // inode high-water mark
        },
        |e| e.put_u64(0), // no free inodes
        |e| {
            e.put_u64(1); // one file, up to its page slots
            e.put_str("a");
            [1, 1, 1, 0o600].iter().for_each(|&w| e.put_u32(w));
            e.put_u64(0);
            e.put_bool(false);
        },
    ];
    let fs_rows = ["fs free frames", "fs free inodes", "fs files", "fs page slots"]
        .into_iter()
        .enumerate()
        .map(|(k, name)| -> (&str, Prefix, Load) {
            let prefix = move |e: &mut Enc| stages[..=k].iter().for_each(|stage| stage(e));
            (name, Box::new(prefix), Box::new(|d| DaxFs::snap_load(d).map(drop)))
        });
    for (name, prefix, load) in table.into_iter().chain(fs_rows) {
        let mut enc = Enc::new();
        enc.begin_section("hostile");
        prefix(&mut enc);
        enc.put_u64(1 << 40);
        enc.put_bytes(&[0u8; 64]);
        enc.end_section();
        let image = enc.finish();
        let mut dec = Dec::new(&image).unwrap();
        dec.begin_section("hostile").unwrap();
        assert_eq!(load(&mut dec), Err(SnapError::Corrupt("count")), "{name}");
    }
}
