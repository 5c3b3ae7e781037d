//! Property tests for the filesystem substrate: the permission matrix,
//! the allocator, and namespace consistency under random operations.

use proptest::prelude::*;
use std::collections::HashMap;

use fsencr_fs::{AccessKind, DaxFs, FsError, GroupId, Mode, PageAllocator, UserId};

proptest! {
    #[test]
    fn mode_matrix_matches_bit_arithmetic(bits in 0u16..0o1000, owner in any::<bool>(), group in any::<bool>()) {
        let mode = Mode::new(bits);
        let shift = if owner { 6 } else if group { 3 } else { 0 };
        prop_assert_eq!(
            mode.allows(AccessKind::Read, owner, group),
            bits >> shift & 0o4 != 0
        );
        prop_assert_eq!(
            mode.allows(AccessKind::Write, owner, group),
            bits >> shift & 0o2 != 0
        );
    }

    #[test]
    fn allocator_never_double_allocates(ops in prop::collection::vec(any::<bool>(), 1..300)) {
        let mut alloc = PageAllocator::new(100, 64);
        let mut live = Vec::new();
        let mut seen_live = std::collections::HashSet::new();
        for do_alloc in ops {
            if do_alloc || live.is_empty() {
                if let Some(page) = alloc.alloc() {
                    prop_assert!(seen_live.insert(page.get()), "frame {} double-allocated", page.get());
                    prop_assert!((100..164).contains(&page.get()));
                    live.push(page);
                }
            } else {
                let page = live.swap_remove(live.len() / 2);
                seen_live.remove(&page.get());
                alloc.free(page);
            }
            prop_assert_eq!((alloc.region().1 - alloc.available()) as usize, live.len());
        }
    }

    #[test]
    fn namespace_tracks_a_reference_map(
        ops in prop::collection::vec((0u8..16, any::<bool>()), 1..100)
    ) {
        let user = UserId::new(1);
        let group = GroupId::new(1);
        let mut fs = DaxFs::format(0, 256, 7);
        let mut model: HashMap<String, bool> = HashMap::new(); // name -> encrypted
        for (n, encrypted) in ops {
            let name = format!("file-{n}");
            let pass = if encrypted { Some("pw") } else { None };
            match fs.create(user, group, &name, Mode::PRIVATE, pass) {
                Ok(h) => {
                    prop_assert!(!model.contains_key(&name), "created a duplicate {name}");
                    prop_assert_eq!(h.fek.is_some(), encrypted);
                    model.insert(name, encrypted);
                }
                Err(FsError::AlreadyExists) => {
                    prop_assert!(model.contains_key(&name));
                    // flip: remove it instead
                    fs.unlink(user, &name).unwrap();
                    model.remove(&name);
                }
                Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
            }
            prop_assert_eq!(fs.file_count(), model.len());
        }
        // Every model entry opens with the right credentials.
        for (name, encrypted) in &model {
            let res = fs.open(user, &[group], name, AccessKind::Read,
                              if *encrypted { Some("pw") } else { None });
            prop_assert!(res.is_ok(), "{name}: {res:?}");
        }
        // Listing is consistent and sorted.
        let mut names: Vec<String> = model.keys().cloned().collect();
        names.sort();
        let listed: Vec<String> = fs.list().map(|(n, _)| n.to_string()).collect();
        prop_assert_eq!(listed, names);
    }

    #[test]
    fn page_placement_is_stable_and_disjoint(
        files in prop::collection::vec(0usize..8, 1..40)
    ) {
        let user = UserId::new(1);
        let group = GroupId::new(1);
        let mut fs = DaxFs::format(0, 256, 3);
        let mut handles = Vec::new();
        for i in 0..4 {
            handles.push(fs.create(user, group, &format!("f{i}"), Mode::PRIVATE, None).unwrap());
        }
        let mut placements: HashMap<(u32, usize), u64> = HashMap::new();
        let mut owners: HashMap<u64, (u32, usize)> = HashMap::new();
        for (i, page_idx) in files.iter().enumerate() {
            let h = &handles[i % handles.len()];
            let pf = fs.ensure_page(h.ino, *page_idx).unwrap();
            let key = (h.ino.get(), *page_idx);
            if let Some(prev) = placements.get(&key) {
                prop_assert_eq!(*prev, pf.frame.get(), "placement must be stable");
            } else {
                placements.insert(key, pf.frame.get());
                // No two (file, page) pairs may share a frame.
                prop_assert!(
                    owners.insert(pf.frame.get(), key).is_none(),
                    "frame {} double-mapped", pf.frame.get()
                );
            }
        }
    }
}
