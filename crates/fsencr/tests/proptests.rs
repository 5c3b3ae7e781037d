//! Property tests for the FsEncr structures: OTT + spill as one logical
//! key store, and controller read/write consistency under random traffic.

use proptest::prelude::*;
use std::collections::HashMap;

use fsencr::controller::{CtrlMode, MemoryController};
use fsencr::ott::OpenTunnelTable;
use fsencr_crypto::Key128;
use fsencr_nvm::{NvmDevice, PageId, PhysAddr};
use fsencr_secmem::MetadataLayout;
use fsencr_sim::config::{NvmConfig, SecurityConfig};
use fsencr_sim::Cycle;

fn controller(ott_entries: usize) -> MemoryController {
    let layout = MetadataLayout::new(64 * 4096, 8192);
    let cfg = SecurityConfig {
        ott_entries,
        ..SecurityConfig::default()
    };
    MemoryController::new(
        CtrlMode::Encrypted,
        layout,
        &cfg,
        Key128::from_seed(1),
        Key128::from_seed(2),
        NvmDevice::new(NvmConfig::default()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn ott_lru_is_a_correct_cache(ops in prop::collection::vec((0u32..40, any::<bool>()), 1..200)) {
        // The OTT alone: whatever is inserted must be found until evicted;
        // eviction only happens at capacity.
        let mut ott = OpenTunnelTable::new(8, 20);
        let mut inserted = std::collections::HashSet::new();
        for (fid, insert) in ops {
            if insert {
                if let Some((_, vfid, _)) = ott.insert(1, fid, Key128::from_seed(fid as u64)) {
                    prop_assert!(inserted.remove(&vfid), "evicted a phantom {vfid}");
                }
                inserted.insert(fid);
                prop_assert!(inserted.len() <= 8);
            } else {
                let hit = ott.lookup(1, fid).is_some();
                prop_assert_eq!(hit, inserted.contains(&fid));
            }
        }
        let mut held: Vec<u32> = ott.drain().into_iter().map(|(_, fid, _)| fid).collect();
        held.sort_unstable();
        let mut want: Vec<u32> = inserted.into_iter().collect();
        want.sort_unstable();
        prop_assert_eq!(held, want);
    }

    #[test]
    fn key_store_with_spill_never_loses_keys(fids in prop::collection::vec(1u32..200, 1..60)) {
        // Tiny OTT forces constant spilling; install/resolve must still be
        // a perfect key-value store.
        let mut ctrl = controller(2);
        let mut model: HashMap<u32, Key128> = HashMap::new();
        let mut t = Cycle::ZERO;
        for fid in &fids {
            let key = Key128::from_seed(0x1000 + *fid as u64);
            t = ctrl.install_key(t, 1, *fid, key).unwrap();
            model.insert(*fid, key);
        }
        // Resolve every key through the data path: stamp a page per fid
        // and write/read a line.
        for (i, (fid, _key)) in model.iter().enumerate() {
            let page = PageId::new(i as u64);
            t = ctrl.stamp_file_page(t, page, 1, *fid).unwrap();
            let addr = PhysAddr::new(page.base().get());
            let data = [*fid as u8; 64];
            t = ctrl.write_line(t, addr, &data).unwrap();
            let (back, done) = ctrl.read_line(t, addr).unwrap();
            t = done;
            prop_assert_eq!(back, data, "fid {} roundtrip failed", fid);
        }
    }

    #[test]
    fn controller_is_a_consistent_line_store(
        ops in prop::collection::vec((0u64..32, any::<u8>(), any::<bool>()), 1..120)
    ) {
        let mut ctrl = controller(64);
        // Half the pages are file pages.
        let mut t = Cycle::ZERO;
        for p in 0..16u64 {
            t = ctrl.install_key(t, 1, p as u32 + 1, Key128::from_seed(p)).unwrap();
            t = ctrl.stamp_file_page(t, PageId::new(p), 1, p as u32 + 1).unwrap();
        }
        let mut model: HashMap<u64, [u8; 64]> = HashMap::new();
        for (line, tag, is_write) in ops {
            let addr = PhysAddr::new(line * 4096); // one line per page, mixed df/non-df
            if is_write {
                let data = [tag; 64];
                t = ctrl.write_line(t, addr, &data).unwrap();
                model.insert(line, data);
            } else {
                let (got, done) = ctrl.read_line(t, addr).unwrap();
                t = done;
                // Below the kernel (which zeroes fresh pages), reading a
                // never-written line decrypts raw zero media into garbage;
                // only written lines have defined contents.
                if let Some(expect) = model.get(&line) {
                    prop_assert_eq!(&got, expect, "line {}", line);
                }
            }
        }
    }

    #[test]
    fn locked_engine_never_reveals_file_plaintext(tag in any::<u8>(), page in 0u64..8) {
        let mut ctrl = controller(64);
        let mut t = ctrl.install_key(Cycle::ZERO, 1, 7, Key128::from_seed(9)).unwrap();
        t = ctrl.stamp_file_page(t, PageId::new(page), 1, 7).unwrap();
        let addr = PhysAddr::new(page * 4096);
        let data = [tag; 64];
        t = ctrl.write_line(t, addr, &data).unwrap();
        ctrl.lock_file_engine();
        let (got, _) = ctrl.read_line(t, addr).unwrap();
        prop_assert_ne!(got, data, "locked engine must not decrypt file lines");
        ctrl.unlock_file_engine();
        let (got, _) = ctrl.read_line(t, addr).unwrap();
        prop_assert_eq!(got, data);
    }
}
