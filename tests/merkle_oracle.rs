//! Merkle oracle: a seeded stream of metadata writes, persists, reads
//! and flushes over a thrashing 16-line metadata cache, run once with
//! the shared cache and once with the partitioned one, with the
//! coverage oracle on. After every flush the live root must equal the
//! root a from-scratch rebuild computes over the media, reads must
//! return the last value written, a crashed copy must reject both a
//! flipped leaf byte and a replayed older leaf image, and the system's
//! snapshot must round-trip byte for byte and be refused under the
//! other cache layout.

#![allow(
    clippy::disallowed_methods,
    reason = "the tampering attacker pokes raw media lines"
)]

use std::collections::BTreeMap;

use fsencr_nvm::{LineAddr, NvmDevice, PhysAddr};
use fsencr_secmem::{MetadataLayout, MetadataSystem};
use fsencr_sim::config::{CacheConfig, NvmConfig, SecurityConfig};
use fsencr_sim::{Cycle, SplitMix64};
use fsencr_snapshot::{Dec, Enc, SnapError};

const OPS: usize = 1500;

fn layout() -> MetadataLayout {
    MetadataLayout::new(24 * 4096, 512)
}

fn config(partitioned: bool) -> SecurityConfig {
    SecurityConfig {
        metadata_cache: CacheConfig {
            size_bytes: 16 * 64,
            ways: 4,
            block_bytes: 64,
            latency_cycles: 3,
        },
        osiris_stop_loss: 4,
        partition_metadata_cache: partitioned,
        ..SecurityConfig::default()
    }
}

fn snapshot(sys: &MetadataSystem) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.begin_section("meta");
    sys.snap_save(&mut enc);
    enc.end_section();
    enc.finish()
}

fn restore(image: &[u8], cfg: &SecurityConfig) -> Result<MetadataSystem, SnapError> {
    let mut dec = Dec::new(image)?;
    dec.begin_section("meta")?;
    let sys = MetadataSystem::snap_load(layout(), cfg, &mut dec)?;
    dec.end_section()?;
    dec.finish()?;
    Ok(sys)
}

fn phys(addr: LineAddr) -> PhysAddr {
    PhysAddr::new(addr.get())
}

/// A crashed copy of the live state: cache and Osiris state dropped,
/// on-chip root kept.
fn crashed(sys: &MetadataSystem, nvm: &NvmDevice) -> (MetadataSystem, NvmDevice) {
    let (mut sys, nvm) = (sys.clone(), nvm.clone());
    sys.crash();
    (sys, nvm)
}

/// Some leaf's most recent flushed image that differs from its current
/// content, searching from leaf address `from` onward (wrapping).
fn older_image(
    history: &BTreeMap<u64, Vec<[u8; 64]>>,
    model: &BTreeMap<u64, [u8; 64]>,
    from: u64,
) -> Option<(u64, [u8; 64])> {
    history
        .range(from..)
        .chain(history.range(..from))
        .find_map(|(&a, images)| {
            let current = model[&a];
            images
                .iter()
                .rev()
                .find(|&&old| old != current)
                .map(|&old| (a, old))
        })
}

fn run(partitioned: bool) {
    let cfg = config(partitioned);
    let mut sys = MetadataSystem::new(layout(), &cfg);
    sys.set_coverage_oracle(true);
    let mut nvm = NvmDevice::new(NvmConfig::default());
    let leaves: Vec<LineAddr> = sys.layout().leaves().collect();
    let mut rng = SplitMix64::new(0x6d65_726b_6c65);
    let mut model: BTreeMap<u64, [u8; 64]> = BTreeMap::new();
    // Media images each leaf has held at some flush, oldest first.
    let mut history: BTreeMap<u64, Vec<[u8; 64]>> = BTreeMap::new();
    let mut t = Cycle::ZERO;
    let (mut flushes, mut replays) = (0u32, 0u32);

    for op in 0..OPS {
        let addr = leaves[rng.next_below(leaves.len() as u64) as usize];
        match rng.next_below(16) {
            0..=7 => {
                let mut data = [0u8; 64];
                rng.fill_bytes(&mut data);
                t = sys.write_block(&mut nvm, t, addr, data).unwrap().done;
                model.insert(addr.get(), data);
            }
            8..=9 => t = sys.persist_block(&mut nvm, t, addr).unwrap(),
            10..=14 => {
                let (bytes, acc) = sys.read_block(&mut nvm, t, addr).unwrap();
                let want = model.get(&addr.get()).copied().unwrap_or([0u8; 64]);
                assert_eq!(bytes, want, "op {op}: read of {addr:?}");
                t = acc.done;
            }
            _ => {
                t = sys.flush(&mut nvm, t);
                flushes += 1;

                let (mut rebuilt, mut rebuilt_nvm) = crashed(&sys, &nvm);
                rebuilt.rebuild(&mut rebuilt_nvm);
                assert_eq!(rebuilt.root(), sys.root(), "op {op}: rebuilt root differs");

                // The snapshot round-trips byte for byte and keeps the
                // root; the other cache layout refuses it.
                let image = snapshot(&sys);
                let restored = restore(&image, &cfg).unwrap();
                assert_eq!(restored.root(), sys.root(), "op {op}: restored root");
                assert!(snapshot(&restored) == image, "op {op}: snapshot not stable");
                assert_eq!(
                    restore(&image, &config(!partitioned)).err(),
                    Some(SnapError::StateMismatch),
                    "op {op}: other cache layout accepted"
                );

                for (&a, &bytes) in &model {
                    let images = history.entry(a).or_default();
                    if images.last() != Some(&bytes) {
                        images.push(bytes);
                    }
                }

                // A flipped byte in a written leaf fails its climb.
                let victim = addr;
                let (mut c, mut c_nvm) = crashed(&sys, &nvm);
                let mut evil = c_nvm.peek_line(phys(victim));
                evil[op % 64] ^= 0x01;
                c_nvm.poke_line(phys(victim), &evil);
                let err = c.read_block(&mut c_nvm, t, victim).unwrap_err();
                assert_eq!(err.addr, victim, "op {op}");

                // Replaying an older image of a leaf fails too.
                if let Some((a, old)) = older_image(&history, &model, addr.get()) {
                    let a = LineAddr::new(a);
                    let (mut c, mut c_nvm) = crashed(&sys, &nvm);
                    c_nvm.poke_line(phys(a), &old);
                    assert!(
                        c.read_block(&mut c_nvm, t, a).is_err(),
                        "op {op}: replay accepted"
                    );
                    replays += 1;
                }
            }
        }
    }
    assert!(flushes >= 50, "stream too short: {flushes} flushes");
    assert!(replays >= 20, "too few replay checks: {replays}");
    assert!(
        sys.stats().evict_writebacks.get() > 0,
        "the cache never thrashed"
    );
}

#[test]
fn live_root_matches_rebuild_and_rejects_tamper_and_replay() {
    run(false);
}

#[test]
fn partitioned_live_root_matches_rebuild_and_rejects_tamper_and_replay() {
    run(true);
}
