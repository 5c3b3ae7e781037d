//! Differential property tests: the persistent engines against
//! `std::collections` reference models, running on the full FsEncr
//! machine.

use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

use fsencr::machine::{Machine, MachineOpts, SecurityMode};
use fsencr_fs::{GroupId, Mode, UserId};
use fsencr_workloads::kv::{BTreeKv, CtreeKv, HashKv};

fn machine() -> Machine {
    let mut opts = MachineOpts::small_test();
    opts.pmem_bytes = 8 << 20;
    Machine::new(opts, SecurityMode::FsEncr)
}

#[derive(Debug, Clone)]
enum KvOp {
    Put { key: u64, len: usize },
    Get { key: u64 },
}

fn kv_ops() -> impl Strategy<Value = Vec<KvOp>> {
    prop::collection::vec(
        prop_oneof![
            2 => (0u64..300, 1usize..200).prop_map(|(key, len)| KvOp::Put { key, len }),
            1 => (0u64..300).prop_map(|key| KvOp::Get { key }),
        ],
        1..120,
    )
}

fn value_for(key: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (key as u8).wrapping_add(i as u8))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn btree_agrees_with_btreemap(ops in kv_ops()) {
        let mut m = machine();
        let h = m.create(UserId::new(1), GroupId::new(1), "t", Mode::PRIVATE, Some("pw")).unwrap();
        let map = m.mmap(&h).unwrap();
        let tree = BTreeKv::create(&mut m, 0, map).unwrap();
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut buf = Vec::new();
        for op in &ops {
            match op {
                KvOp::Put { key, len } => {
                    let v = value_for(*key, *len);
                    tree.put(&mut m, 0, *key, &v).unwrap();
                    model.insert(*key, v);
                }
                KvOp::Get { key } => {
                    let found = tree.get(&mut m, 0, *key, &mut buf).unwrap();
                    match model.get(key) {
                        Some(v) => {
                            prop_assert!(found);
                            prop_assert_eq!(&buf, v);
                        }
                        None => prop_assert!(!found),
                    }
                }
            }
        }
        // Scan yields exactly the model, in order.
        let mut scanned: Vec<(u64, Vec<u8>)> = Vec::new();
        tree.scan(&mut m, 0, |k, v| scanned.push((k, v.to_vec()))).unwrap();
        let expect: Vec<(u64, Vec<u8>)> = model.into_iter().collect();
        prop_assert_eq!(scanned, expect);
    }

    #[test]
    fn hashmap_agrees_with_hashmap(keys in prop::collection::vec((1u64..500, any::<u8>()), 1..150)) {
        let mut m = machine();
        let h = m.create(UserId::new(1), GroupId::new(1), "h", Mode::PRIVATE, Some("pw")).unwrap();
        let map = m.mmap(&h).unwrap();
        let kv = HashKv::create(&mut m, 0, map, 1024, 64).unwrap();
        let mut model: HashMap<u64, [u8; 64]> = HashMap::new();
        for (key, tag) in &keys {
            let v = [*tag; 64];
            kv.put(&mut m, 0, *key, &v).unwrap();
            model.insert(*key, v);
        }
        let mut buf = Vec::new();
        for key in 1u64..500 {
            let found = kv.get(&mut m, 0, key, &mut buf).unwrap();
            match model.get(&key) {
                Some(v) => {
                    prop_assert!(found, "key {} missing", key);
                    prop_assert_eq!(buf.as_slice(), v.as_slice());
                }
                None => prop_assert!(!found, "phantom key {}", key),
            }
        }
    }

    #[test]
    fn ctree_agrees_with_btreemap(keys in prop::collection::vec((any::<u64>(), any::<u8>()), 1..100)) {
        let mut m = machine();
        let h = m.create(UserId::new(1), GroupId::new(1), "c", Mode::PRIVATE, Some("pw")).unwrap();
        let map = m.mmap(&h).unwrap();
        let kv = CtreeKv::create(&mut m, 0, map, 32).unwrap();
        let mut model: BTreeMap<u64, [u8; 32]> = BTreeMap::new();
        for (key, tag) in &keys {
            let v = [*tag; 32];
            kv.put(&mut m, 0, *key, &v).unwrap();
            model.insert(*key, v);
        }
        let mut buf = Vec::new();
        for (key, v) in &model {
            prop_assert!(kv.get(&mut m, 0, *key, &mut buf).unwrap());
            prop_assert_eq!(buf.as_slice(), v.as_slice());
        }
    }

    #[test]
    fn btree_survives_random_crash_points(
        n_before in 1u64..150,
        value_len in 8usize..128,
    ) {
        let mut m = machine();
        let h = m.create(UserId::new(1), GroupId::new(1), "cr", Mode::PRIVATE, Some("pw")).unwrap();
        let map = m.mmap(&h).unwrap();
        let tree = BTreeKv::create(&mut m, 0, map).unwrap();
        for k in 0..n_before {
            tree.put(&mut m, 0, k, &value_for(k, value_len)).unwrap();
        }
        m.crash();
        prop_assert_eq!(m.recover().unrecoverable, 0);
        let h = m.open(UserId::new(1), &[GroupId::new(1)], "cr", fsencr_fs::AccessKind::Read, Some("pw")).unwrap();
        let map = m.mmap(&h).unwrap();
        let tree = BTreeKv::open(&mut m, 0, map).unwrap();
        let mut buf = Vec::new();
        for k in 0..n_before {
            prop_assert!(tree.get(&mut m, 0, k, &mut buf).unwrap(), "key {} lost", k);
            prop_assert_eq!(&buf, &value_for(k, value_len));
        }
    }
}
