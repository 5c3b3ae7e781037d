//! The eCryptfs (software filesystem encryption) model in detail:
//! page-cache behaviour, msync durability, the broken-persistence hazard
//! the paper warns about, and media confidentiality.

use fsencr::machine::{Machine, MachineOpts, SecurityMode};
use fsencr::security;
use fsencr_fs::{AccessKind, GroupId, Mode, UserId};
use fsencr_nvm::PAGE_BYTES;

const ALICE: UserId = UserId::new(1);
const STAFF: GroupId = GroupId::new(1);

fn machine() -> Machine {
    let mut opts = MachineOpts::small_test();
    opts.pmem_bytes = 4 << 20;
    opts.general_bytes = 2 << 20;
    Machine::new(opts, SecurityMode::Software)
}

#[test]
fn reads_and_writes_flow_through_the_page_cache() {
    let mut m = machine();
    let h = m
        .create(ALICE, STAFF, "f", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    m.write(0, map, 100, b"cached write").unwrap();
    let mut buf = [0u8; 12];
    m.read(0, map, 100, &mut buf).unwrap();
    assert_eq!(&buf, b"cached write");
}

#[test]
fn clwb_persist_is_not_durable_under_software_encryption() {
    // The paper's core complaint: with eCryptfs, the PMDK persistence
    // primitives act on the page-cache copy and do NOT make data durable.
    let mut m = machine();
    let h = m
        .create(ALICE, STAFF, "f", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    m.write(0, map, 0, b"thought-it-was-safe").unwrap();
    m.persist(0, map, 0, 19).unwrap(); // clwb-style: page-cache only
    m.crash();
    m.recover();
    let h = m
        .open(ALICE, &[STAFF], "f", AccessKind::Read, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    let mut buf = [0u8; 19];
    m.read(0, map, 0, &mut buf).unwrap();
    assert_ne!(
        &buf, b"thought-it-was-safe",
        "clwb must not be durable here"
    );
}

#[test]
fn msync_is_durable_under_software_encryption() {
    let mut m = machine();
    let h = m
        .create(ALICE, STAFF, "f", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    m.write(0, map, 0, b"msynced-and-safe").unwrap();
    m.msync(0, map, 0, 16).unwrap();
    m.crash();
    m.recover();
    let h = m
        .open(ALICE, &[STAFF], "f", AccessKind::Read, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    let mut buf = [0u8; 16];
    m.read(0, map, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"msynced-and-safe");
}

#[test]
fn msync_costs_page_granular_crypto() {
    // A 1-byte durable update pays a whole page of software AES — the
    // "4 KiB granularity for every access" the paper measures.
    let mut m = machine();
    let h = m
        .create(ALICE, STAFF, "f", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    m.write(0, map, 0, &[1u8]).unwrap();
    m.msync(0, map, 0, 1).unwrap();

    let before = m.now(0);
    m.write(0, map, 0, &[2u8]).unwrap();
    m.msync(0, map, 0, 1).unwrap();
    let cost = m.now(0).since(before).get();
    let crypt = m.opts().softencr.page_crypt_cycles();
    assert!(
        cost >= crypt,
        "msync cost {cost} must include page crypto {crypt}"
    );
}

#[test]
fn eviction_writes_back_dirty_pages_encrypted() {
    let mut m = machine();
    let h = m
        .create(ALICE, STAFF, "big", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    let pages = m.opts().softencr.page_cache_pages + 16;
    let secret = b"EVICTION-WRITEBACK-SECRET";
    m.write(0, map, 0, secret).unwrap();
    // Touch enough other pages to evict page 0 from the page cache.
    for p in 1..=pages {
        m.write(0, map, (p * PAGE_BYTES) as u64, &[p as u8; 8])
            .unwrap();
    }
    // Page 0 was written back on eviction: it must be readable (decrypted
    // on re-fill) and must be ciphertext on media.
    let mut buf = [0u8; 25];
    m.read(0, map, 0, &mut buf).unwrap();
    assert_eq!(&buf, secret);
    m.shutdown_flush().unwrap();
    assert!(!security::media_contains(&m, secret));
}

#[test]
fn munmap_flushes_dirty_pages() {
    let mut m = machine();
    let h = m
        .create(ALICE, STAFF, "f", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    m.write(0, map, 0, b"closed-cleanly").unwrap();
    m.munmap(0, map).unwrap();
    // Remap and read: content survived the close-time writeback.
    let h = m
        .open(ALICE, &[STAFF], "f", AccessKind::Read, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    let mut buf = [0u8; 14];
    m.read(0, map, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"closed-cleanly");
}

#[test]
fn syscall_overhead_only_applies_in_software_mode() {
    for (mode, expect_overhead) in [
        (SecurityMode::Software, true),
        (SecurityMode::FsEncr, false),
        (SecurityMode::Unencrypted, false),
    ] {
        let mut m = Machine::new(MachineOpts::small_test(), mode);
        let before = m.now(0);
        m.syscall_overhead(0);
        let delta = m.now(0).since(before).get();
        assert_eq!(delta > 0, expect_overhead, "{mode}");
    }
}

#[test]
fn software_mode_unencrypted_files_bypass_the_page_cache() {
    // Non-passphrase files keep plain DAX behaviour even in software mode
    // (eCryptfs only stacks over encrypted files).
    let mut m = machine();
    let h = m
        .create(ALICE, STAFF, "plain", Mode::PRIVATE, None)
        .unwrap();
    let map = m.mmap(&h).unwrap();
    m.write(0, map, 0, b"direct").unwrap();
    m.persist(0, map, 0, 6).unwrap(); // true DAX persist
    m.crash();
    m.recover();
    let h = m
        .open(ALICE, &[STAFF], "plain", AccessKind::Read, None)
        .unwrap();
    let map = m.mmap(&h).unwrap();
    let mut buf = [0u8; 6];
    m.read(0, map, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"direct", "plain files keep DAX durability");
}

#[test]
fn a_recycled_inode_reads_zeros_not_the_deleted_files_pads() {
    let mut m = machine();
    let a = m
        .create(ALICE, STAFF, "a", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&a).unwrap();
    m.write(0, map, 0, b"deleted contents").unwrap();
    m.msync(0, map, 0, PAGE_BYTES as u64).unwrap();
    m.munmap(0, map).unwrap();
    m.unlink(ALICE, "a").unwrap();

    let b = m
        .create(ALICE, STAFF, "b", Mode::PRIVATE, Some("pw2"))
        .unwrap();
    assert_eq!(b.ino, a.ino, "the inode number is recycled");
    let map = m.mmap(&b).unwrap();
    let mut buf = vec![0xaau8; PAGE_BYTES];
    m.read(0, map, 0, &mut buf).unwrap();
    let nonzero = buf.iter().filter(|&&x| x != 0).count();
    assert_eq!(
        nonzero, 0,
        "a fresh page of the new file must read as zeros"
    );
}

#[test]
fn page_cache_frame_reuse_is_deterministic() {
    // munmap releases the file's page-cache frames; filling another file
    // reuses them. Two identical runs must end in identical state.
    let run = || {
        let mut m = machine();
        let span = 16 * PAGE_BYTES;
        let a = m
            .create(ALICE, STAFF, "a", Mode::PRIVATE, Some("pw"))
            .unwrap();
        let map = m.mmap(&a).unwrap();
        m.write(0, map, 0, &vec![7u8; span]).unwrap();
        m.munmap(0, map).unwrap();
        let b = m
            .create(ALICE, STAFF, "b", Mode::PRIVATE, Some("pw"))
            .unwrap();
        let map = m.mmap(&b).unwrap();
        m.write(0, map, 0, &vec![9u8; span]).unwrap();
        m.save_snapshot().unwrap()
    };
    assert!(
        run() == run(),
        "two identical runs saved different snapshots"
    );
}

#[test]
fn dirty_victim_write_back_does_not_depend_on_hash_order() {
    // Two live mappings of one file: a dirty page-cache victim is written
    // back through one of them, and which one must not depend on hash
    // order. Identical runs must end in identical state.
    let run = || {
        let mut m = machine();
        let h = m
            .create(ALICE, STAFF, "f", Mode::PRIVATE, Some("pw"))
            .unwrap();
        let map = m.mmap(&h).unwrap();
        m.mmap(&h).unwrap();
        let pages = m.opts().softencr.page_cache_pages + 16;
        for p in 0..pages {
            m.write(0, map, (p * PAGE_BYTES) as u64, &[p as u8; 64])
                .unwrap();
        }
        m.save_snapshot().unwrap()
    };
    let first = run();
    for attempt in 1..8 {
        assert!(run() == first, "run {attempt} saved a different snapshot");
    }
}
