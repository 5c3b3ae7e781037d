//! Cross-crate integration: filesystem + controller + caches + NVM +
//! workload engines working together.

use fsencr::machine::{Machine, MachineOpts, SecurityMode};
use fsencr::security;
use fsencr_fs::{AccessKind, GroupId, Mode, UserId};
use fsencr_workloads::kv::{BTreeKv, CtreeKv, HashKv};

const ALICE: UserId = UserId::new(1);
const BOB: UserId = UserId::new(2);
const STAFF: GroupId = GroupId::new(7);

fn machine() -> Machine {
    let mut opts = MachineOpts::small_test();
    opts.pmem_bytes = 8 << 20;
    Machine::new(opts, SecurityMode::FsEncr)
}

#[test]
fn multiple_files_users_and_engines_coexist() {
    let mut m = machine();

    // Alice: a B+Tree store. Bob: a hashmap. Shared: a plain group file.
    let ha = m
        .create(ALICE, STAFF, "alice.db", Mode::PRIVATE, Some("a-pw"))
        .unwrap();
    let hb = m
        .create(BOB, STAFF, "bob.db", Mode::PRIVATE, Some("b-pw"))
        .unwrap();
    let hs = m
        .create(ALICE, STAFF, "shared.log", Mode::GROUP_RW, None)
        .unwrap();

    let map_a = m.mmap(&ha).unwrap();
    let map_b = m.mmap(&hb).unwrap();
    let map_s = m.mmap(&hs).unwrap();

    let tree = BTreeKv::create(&mut m, 0, map_a).unwrap();
    let table = HashKv::create(&mut m, 1, map_b, 512, 128).unwrap();

    for k in 0..200u64 {
        tree.put(&mut m, 0, k, &k.to_le_bytes()).unwrap();
        table.put(&mut m, 1, k + 1, &[k as u8; 128]).unwrap();
    }
    m.write(0, map_s, 0, b"both users can read this").unwrap();
    m.persist(0, map_s, 0, 24).unwrap();

    let mut buf = Vec::new();
    for k in 0..200u64 {
        assert!(tree.get(&mut m, 0, k, &mut buf).unwrap());
        assert!(table.get(&mut m, 1, k + 1, &mut buf).unwrap());
    }

    // Bob can open the group file but not Alice's encrypted store.
    assert!(m
        .open(BOB, &[STAFF], "shared.log", AccessKind::Read, None)
        .is_ok());
    assert!(m
        .open(BOB, &[STAFF], "alice.db", AccessKind::Read, Some("b-pw"))
        .is_err());

    // Even the non-passphrase file is covered by the general memory
    // encryption layer, so no plaintext reaches the raw media.
    m.shutdown_flush().unwrap();
    assert!(!security::media_contains(&m, b"both users can read this"));
}

#[test]
fn keys_survive_ott_pressure_through_spill() {
    // More encrypted files than a tiny OTT holds: keys must spill to the
    // encrypted region and come back on demand.
    let mut opts = MachineOpts::small_test();
    opts.pmem_bytes = 8 << 20;
    opts.config.security.ott_entries = 4;
    let mut m = Machine::new(opts, SecurityMode::FsEncr);

    let mut maps = Vec::new();
    for i in 0..12 {
        let h = m
            .create(
                ALICE,
                STAFF,
                &format!("file-{i}"),
                Mode::PRIVATE,
                Some("pw"),
            )
            .unwrap();
        let map = m.mmap(&h).unwrap();
        m.write(0, map, 0, format!("content-{i}").as_bytes())
            .unwrap();
        m.persist(0, map, 0, 16).unwrap();
        maps.push(map);
    }
    // Revisit every file: 8 of the 12 keys must have spilled.
    for (i, map) in maps.iter().enumerate() {
        let mut buf = vec![0u8; 16];
        m.read(0, *map, 0, &mut buf).unwrap();
        assert!(
            buf.starts_with(format!("content-{i}").as_bytes()),
            "file {i}"
        );
    }
    let s = m.snapshot();
    assert!(
        s.ott_evictions >= 8,
        "OTT must have spilled: {} evictions",
        s.ott_evictions
    );
}

#[test]
fn ctree_and_btree_survive_crash_together() {
    let mut m = machine();
    let h1 = m
        .create(ALICE, STAFF, "t1", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let h2 = m
        .create(ALICE, STAFF, "t2", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let m1 = m.mmap(&h1).unwrap();
    let m2 = m.mmap(&h2).unwrap();
    let btree = BTreeKv::create(&mut m, 0, m1).unwrap();
    let ctree = CtreeKv::create(&mut m, 1, m2, 64).unwrap();
    for k in 1..100u64 {
        btree.put(&mut m, 0, k, &[k as u8; 32]).unwrap();
        ctree
            .put(
                &mut m,
                1,
                k.wrapping_mul(0x9E3779B97F4A7C15),
                &[k as u8; 64],
            )
            .unwrap();
    }
    m.crash();
    assert_eq!(m.recover().unrecoverable, 0);

    let h1 = m
        .open(ALICE, &[STAFF], "t1", AccessKind::Read, Some("pw"))
        .unwrap();
    let h2 = m
        .open(ALICE, &[STAFF], "t2", AccessKind::Read, Some("pw"))
        .unwrap();
    let m1 = m.mmap(&h1).unwrap();
    let m2 = m.mmap(&h2).unwrap();
    let btree = BTreeKv::open(&mut m, 0, m1).unwrap();
    let ctree = CtreeKv::open(&mut m, 1, m2).unwrap();
    let mut buf = Vec::new();
    for k in 1..100u64 {
        assert!(btree.get(&mut m, 0, k, &mut buf).unwrap(), "btree key {k}");
        assert_eq!(buf, [k as u8; 32]);
        assert!(
            ctree
                .get(&mut m, 1, k.wrapping_mul(0x9E3779B97F4A7C15), &mut buf)
                .unwrap(),
            "ctree key {k}"
        );
    }
}

#[test]
fn deleting_one_file_leaves_others_intact() {
    let mut m = machine();
    let keep = m
        .create(ALICE, STAFF, "keep", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let kill = m
        .create(ALICE, STAFF, "kill", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let mk = m.mmap(&keep).unwrap();
    let mx = m.mmap(&kill).unwrap();
    m.write(0, mk, 0, b"keep me around").unwrap();
    m.persist(0, mk, 0, 14).unwrap();
    m.write(0, mx, 0, b"doomed content").unwrap();
    m.persist(0, mx, 0, 14).unwrap();

    m.munmap(0, mx).unwrap();
    m.unlink(ALICE, "kill").unwrap();

    let mut buf = [0u8; 14];
    m.read(0, mk, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"keep me around");
    assert!(m.fs().stat("kill").is_none());
    assert_eq!(m.fs().file_count(), 1);
}

#[test]
fn stats_expose_the_defence_in_depth_structure() {
    let mut m = machine();
    let h = m
        .create(ALICE, STAFF, "f", Mode::PRIVATE, Some("pw"))
        .unwrap();
    let map = m.mmap(&h).unwrap();
    m.begin_measurement();
    for i in 0..64u64 {
        m.write(0, map, i * 4096, &[i as u8; 64]).unwrap();
        m.persist(0, map, i * 4096, 64).unwrap();
    }
    let s = m.measurement_snapshot();
    // Every persisted file line engaged the file engine on top of memory
    // encryption.
    assert!(s.file_accesses >= 64, "{s:?}");
    assert!(s.ott_hits > 0, "{s:?}");
    // And every layer beneath it counted its share of the same window:
    // the persists reached the NVM and the counter leaves were served
    // from the metadata cache.
    assert!(s.nvm_writes >= 64, "{s:?}");
    assert!(s.meta_leaf_hits > 0, "{s:?}");
}
