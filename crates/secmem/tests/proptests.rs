//! Property tests for counter codecs, metadata layout geometry, and the
//! metadata system's consistency under random update/flush/crash traffic.

use proptest::prelude::*;

use fsencr_nvm::{NvmDevice, PageId};
use fsencr_secmem::{Fecb, Mecb, MetadataLayout, MetadataSystem};
use fsencr_sim::config::{CacheConfig, NvmConfig, SecurityConfig};
use fsencr_sim::Cycle;

proptest! {
    #[test]
    fn mecb_roundtrips_any_state(major in any::<u64>(),
                                 minors in prop::collection::vec(0u8..128, 64)) {
        let mut b = Mecb::new();
        for (i, &m) in minors.iter().enumerate() {
            b.set(major, i, m);
        }
        let back = Mecb::from_bytes(&b.to_bytes());
        prop_assert_eq!(back, b);
        for (i, &m) in minors.iter().enumerate() {
            prop_assert_eq!(back.minor(i), m);
        }
    }

    #[test]
    fn fecb_roundtrips_any_state(gid in 0u32..(1 << 18),
                                 fid in 0u32..(1 << 14),
                                 increments in prop::collection::vec(0usize..64, 0..200)) {
        let mut f = Fecb::new(gid, fid);
        for &block in &increments {
            if f.increment(block) {
                f.carry_major();
            }
        }
        let back = Fecb::from_bytes(&f.to_bytes());
        prop_assert_eq!(back, f);
        prop_assert_eq!(back.gid(), gid);
        prop_assert_eq!(back.fid(), fid);
    }

    #[test]
    fn layout_paths_always_terminate_at_the_single_top(pages in 1u64..512, ott_lines in 0u64..64) {
        let layout = MetadataLayout::new(pages * 4096, ott_lines * 64);
        let leaves = layout.leaves().count() as u64;
        prop_assert_eq!(leaves, pages * 2 + ott_lines);
        let (top_level, top_idx) = layout.top();
        prop_assert_eq!(top_idx, 0);
        prop_assert_eq!(layout.nodes_at(top_level), 1);
        for leaf in [0, leaves / 2, leaves - 1] {
            let path = layout.path_of_leaf(leaf);
            prop_assert_eq!(path.len(), layout.merkle_levels());
            prop_assert_eq!(path.last().copied(), Some((top_level, 0, ((leaf >> (3 * (path.len() as u32 - 1))) % 8) as usize)));
            // every node on the path is in range
            for (level, idx, slot) in path {
                prop_assert!(idx < layout.nodes_at(level));
                prop_assert!(slot < 8);
                let addr = layout.node_addr(level, idx);
                prop_assert_eq!(layout.node_coords(addr), Some((level, idx)));
            }
        }
    }

    #[test]
    fn metadata_system_is_a_consistent_store(
        ops in prop::collection::vec((0u64..24, any::<u8>(), any::<bool>()), 1..80),
        crash_points in prop::collection::vec(any::<bool>(), 1..80),
    ) {
        let layout = MetadataLayout::new(24 * 4096, 512);
        let cfg = SecurityConfig {
            metadata_cache: CacheConfig {
                size_bytes: 16 * 64, // 16 lines: heavy eviction pressure
                ways: 4,
                block_bytes: 64,
                latency_cycles: 3,
            },
            ..SecurityConfig::default()
        };
        let mut sys = MetadataSystem::new(layout, &cfg);
        let mut nvm = NvmDevice::new(NvmConfig::default());
        let mut model: std::collections::HashMap<u64, [u8; 64]> = std::collections::HashMap::new();
        let mut t = Cycle::ZERO;

        for (i, (page, tag, use_fecb)) in ops.iter().enumerate() {
            let addr = if *use_fecb {
                sys.layout().fecb_addr(PageId::new(*page))
            } else {
                sys.layout().mecb_addr(PageId::new(*page))
            };
            let data = [*tag; 64];
            let acc = sys.write_block(&mut nvm, t, addr, data).unwrap();
            t = acc.done;
            model.insert(addr.get(), data);

            // Periodic clean restart: flush + crash must preserve all data.
            if crash_points.get(i).copied().unwrap_or(false) {
                t = sys.flush(&mut nvm, t);
                sys.crash();
            }
        }
        // Every block readable with the right contents and verified
        // integrity.
        for (addr, expect) in &model {
            let (got, acc) = sys
                .read_block(&mut nvm, t, fsencr_nvm::LineAddr::new(*addr))
                .unwrap();
            t = acc.done;
            prop_assert_eq!(got, *expect);
        }
    }
}

/// Regression: a clean install() used to clobber a cached node that the
/// eviction cascade of an *earlier* install had just updated via
/// `bump_parent`, orphaning a child's digest. Found by
/// `metadata_system_is_a_consistent_store`; minimal input pinned here.
#[test]
fn regression_install_must_not_clobber_fresher_cached_nodes() {
    let ops: Vec<(u64, u8, bool)> = vec![
        (12, 35, false), (0, 172, false), (2, 253, true), (22, 18, false),
        (22, 54, true), (17, 44, false), (12, 100, true), (12, 48, false),
        (14, 89, false), (9, 207, true), (16, 28, true), (7, 81, false),
        (22, 129, false), (3, 115, false), (1, 248, false), (10, 207, true),
        (15, 226, false), (0, 65, false), (11, 252, true), (21, 138, true),
        (3, 172, false), (13, 248, true), (8, 168, false), (3, 146, false),
        (16, 149, true), (3, 235, true), (8, 88, true), (2, 219, true),
        (5, 237, true), (20, 145, false),
    ];
    let crash_points = [false, true, false, false, true, true, true];

    let layout = MetadataLayout::new(24 * 4096, 512);
    let cfg = SecurityConfig {
        metadata_cache: CacheConfig {
            size_bytes: 16 * 64,
            ways: 4,
            block_bytes: 64,
            latency_cycles: 3,
        },
        ..SecurityConfig::default()
    };
    let mut sys = MetadataSystem::new(layout, &cfg);
    let mut nvm = NvmDevice::new(NvmConfig::default());
    let mut model: std::collections::HashMap<u64, [u8; 64]> = std::collections::HashMap::new();
    let mut t = Cycle::ZERO;
    for (i, (page, tag, use_fecb)) in ops.iter().enumerate() {
        let addr = if *use_fecb {
            sys.layout().fecb_addr(PageId::new(*page))
        } else {
            sys.layout().mecb_addr(PageId::new(*page))
        };
        let data = [*tag; 64];
        t = sys.write_block(&mut nvm, t, addr, data).unwrap().done;
        model.insert(addr.get(), data);
        if crash_points.get(i).copied().unwrap_or(false) {
            t = sys.flush(&mut nvm, t);
            sys.crash();
        }
    }
    for (addr, expect) in &model {
        let (got, acc) = sys
            .read_block(&mut nvm, t, fsencr_nvm::LineAddr::new(*addr))
            .unwrap();
        t = acc.done;
        assert_eq!(got, *expect);
    }
}
