//! Cache snapshot images list resident sets only: the round trip keeps
//! way order, an empty hierarchy encodes in a few hundred bytes, and a
//! hostile set listing is a typed error.

use proptest::prelude::*;

use fsencr_cache::{Cache, Hierarchy};
use fsencr_nvm::LineAddr;
use fsencr_sim::config::{CacheConfig, CpuConfig};
use fsencr_snapshot::{Dec, Enc, SnapError};

/// 2 sets x 4 ways: even line numbers share set 0.
fn small_cfg() -> CacheConfig {
    CacheConfig {
        size_bytes: 8 * 64,
        ways: 4,
        block_bytes: 64,
        latency_cycles: 1,
    }
}

fn line(n: u64) -> LineAddr {
    LineAddr::new(n * 64)
}

fn image_of(c: &Cache) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.begin_section("cache");
    c.snap_save(&mut enc);
    enc.end_section();
    enc.finish()
}

fn load(cfg: CacheConfig, image: &[u8]) -> Result<Cache, SnapError> {
    let mut dec = Dec::new(image)?;
    dec.begin_section("cache")?;
    let c = Cache::snap_load(cfg, &mut dec)?;
    dec.end_section()?;
    dec.finish()?;
    Ok(c)
}

/// A section whose payload is written by `body`, digest and all, so
/// `snap_load` sees exactly those bytes.
fn hand_image(body: impl FnOnce(&mut Enc)) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.begin_section("cache");
    body(&mut enc);
    enc.end_section();
    enc.finish()
}

fn put_entry(enc: &mut Enc, tag: u64) {
    enc.put_u64(tag);
    enc.put_bytes(&[tag as u8; 64]);
    enc.put_bool(false);
    enc.put_u64(tag);
}

fn put_trailer(enc: &mut Enc) {
    for _ in 0..5 {
        enc.put_u64(0); // stamp, hits, misses, fills, evictions
    }
}

#[test]
fn round_trip_keeps_swap_remove_way_order() {
    let mut c = Cache::new(small_cfg());
    for n in [0, 2, 4, 6] {
        c.insert(line(n), [n as u8; 64], n % 4 == 0);
    }
    // Line 0 is LRU in way 0; its eviction swaps line 6 into way 0.
    assert!(c.lookup(line(2)).is_some());
    let victim = c
        .insert(line(8), [8; 64], true)
        .victim()
        .expect("set 0 is full");
    assert_eq!(victim.addr, line(0));
    c.insert(line(1), [1; 64], false);

    let image = image_of(&c);
    let mut restored = load(small_cfg(), &image).expect("load");
    assert_eq!(
        image_of(&restored),
        image,
        "save -> load -> save changed the image"
    );

    // Both copies keep evicting the same victims in the same order.
    for n in [10, 12, 14, 3, 5, 7, 9] {
        let a = c.insert(line(n), [n as u8; 64], false);
        let b = restored.insert(line(n), [n as u8; 64], false);
        assert_eq!(a, b, "eviction after inserting line {n} diverged");
    }
    assert_eq!(image_of(&restored), image_of(&c));
}

#[test]
fn empty_paper_hierarchy_image_is_under_one_kib() {
    let cpu = CpuConfig::default();
    let mut enc = Enc::new();
    enc.begin_section("hier");
    Hierarchy::new(&cpu).snap_save(&mut enc);
    enc.end_section();
    let image = enc.finish();
    assert!(
        image.len() < 1024,
        "empty hierarchy image is {} bytes",
        image.len()
    );

    let mut dec = Dec::new(&image).expect("magic");
    dec.begin_section("hier").expect("section");
    let h = Hierarchy::snap_load(&cpu, &mut dec).expect("load");
    dec.end_section().expect("consumed");
    let mut again = Enc::new();
    again.begin_section("hier");
    h.snap_save(&mut again);
    again.end_section();
    assert_eq!(again.finish(), image);
}

#[test]
fn hostile_set_listings_are_typed_errors() {
    let cfg = small_cfg();
    let cases: [(&str, Vec<u8>, SnapError); 6] = [
        (
            "set index past the set count",
            hand_image(|e| {
                e.put_u64(2);
                e.put_u64(1);
                e.put_u64(2);
                e.put_u64(1);
                put_entry(e, 1);
                put_trailer(e);
            }),
            SnapError::Corrupt("set index"),
        ),
        (
            "repeated set index",
            hand_image(|e| {
                e.put_u64(2);
                e.put_u64(2);
                for _ in 0..2 {
                    e.put_u64(1);
                    e.put_u64(1);
                    put_entry(e, 1);
                }
                put_trailer(e);
            }),
            SnapError::Corrupt("set order"),
        ),
        (
            "descending set index",
            hand_image(|e| {
                e.put_u64(2);
                e.put_u64(2);
                for idx in [1, 0] {
                    e.put_u64(idx);
                    e.put_u64(1);
                    put_entry(e, idx);
                }
                put_trailer(e);
            }),
            SnapError::Corrupt("set order"),
        ),
        (
            "empty listed set",
            hand_image(|e| {
                e.put_u64(2);
                e.put_u64(1);
                e.put_u64(0);
                e.put_u64(0);
                put_trailer(e);
                e.put_bytes(&[0; 64]); // room for the one listing it claims
            }),
            SnapError::Corrupt("empty set"),
        ),
        (
            "overfull set",
            hand_image(|e| {
                e.put_u64(2);
                e.put_u64(1);
                e.put_u64(0);
                e.put_u64(5);
                for t in 0..5 {
                    put_entry(e, t);
                }
                put_trailer(e);
            }),
            SnapError::Corrupt("set overfull"),
        ),
        (
            "resident count the section cannot hold",
            hand_image(|e| {
                e.put_u64(2);
                e.put_u64(u64::MAX);
                put_trailer(e);
            }),
            SnapError::Corrupt("count"),
        ),
    ];
    for (what, image, want) in cases {
        match load(cfg, &image) {
            Err(got) => assert_eq!(got, want, "{what}"),
            Ok(_) => panic!("{what}: accepted"),
        }
    }
}

#[test]
fn dense_images_from_before_sparse_encoding_are_rejected() {
    // The old layout: the set count, then a length for every set.
    let image = hand_image(|e| {
        e.put_u64(2);
        e.put_u64(1);
        put_entry(e, 0);
        e.put_u64(0);
        put_trailer(e);
    });
    assert!(load(small_cfg(), &image).is_err());
    let empty_old = hand_image(|e| {
        e.put_u64(2);
        e.put_u64(0);
        e.put_u64(0);
        put_trailer(e);
    });
    assert!(load(small_cfg(), &empty_old).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Arbitrary payload bytes behind a valid set-count header decode to
    /// a cache or a typed error, never a panic.
    #[test]
    fn arbitrary_payloads_never_panic(
        resident in 0u64..4,
        body in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let image = hand_image(|e| {
            e.put_u64(2);
            e.put_u64(resident);
            e.put_bytes(&body);
        });
        if let Ok(c) = load(small_cfg(), &image) {
            prop_assert!(c.resident() <= 8);
        }
    }
}
