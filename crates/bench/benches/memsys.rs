//! Criterion benches for the memory-system substrates: NVM device,
//! cache hierarchy, metadata system.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fsencr_cache::Hierarchy;
use fsencr_nvm::{LineAddr, NvmDevice, PageId, PhysAddr};
use fsencr_secmem::{MetadataLayout, MetadataSystem};
use fsencr_sim::config::{CacheConfig, CpuConfig, NvmConfig, SecurityConfig};
use fsencr_sim::Cycle;

fn bench_nvm(c: &mut Criterion) {
    c.bench_function("nvm_read_line", |b| {
        let mut nvm = NvmDevice::new(NvmConfig::default());
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 4096;
            nvm.read_line(Cycle::ZERO, black_box(PhysAddr::new(i * 64)))
        })
    });
    c.bench_function("nvm_write_line", |b| {
        let mut nvm = NvmDevice::new(NvmConfig::default());
        let data = [7u8; 64];
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 4096;
            nvm.write_line(Cycle::ZERO, black_box(PhysAddr::new(i * 64)), &data)
        })
    });
}

fn bench_hierarchy(c: &mut Criterion) {
    c.bench_function("hierarchy_l1_hit", |b| {
        let mut h = Hierarchy::new(&CpuConfig::default());
        h.fill(0, LineAddr::new(0), [1u8; 64]);
        b.iter(|| h.load(0, black_box(LineAddr::new(0))))
    });
    c.bench_function("hierarchy_store_stream", |b| {
        let mut h = Hierarchy::new(&CpuConfig::default());
        let mut i = 0u64;
        b.iter(|| {
            i += 64;
            h.store(0, black_box(LineAddr::new(i % (32 << 20))), [i as u8; 64])
        })
    });
}

fn bench_metadata(c: &mut Criterion) {
    c.bench_function("metadata_read_hit", |b| {
        let layout = MetadataLayout::new(1 << 20, 4096);
        let mut sys = MetadataSystem::new(layout, &SecurityConfig::default());
        let mut nvm = NvmDevice::new(NvmConfig::default());
        let addr = sys.layout().mecb_addr(PageId::new(0));
        sys.read_block(&mut nvm, Cycle::ZERO, addr).unwrap();
        b.iter(|| sys.read_block(&mut nvm, Cycle::ZERO, black_box(addr)).unwrap())
    });
    c.bench_function("metadata_read_miss_verify", |b| {
        let layout = MetadataLayout::new(64 << 20, 4096);
        let mut sys = MetadataSystem::new(layout, &SecurityConfig::default());
        let mut nvm = NvmDevice::new(NvmConfig::default());
        let mut p = 0u64;
        b.iter(|| {
            p = (p + 97) % 16384; // stride past the cache
            let addr = sys.layout().mecb_addr(PageId::new(p));
            sys.read_block(&mut nvm, Cycle::ZERO, black_box(addr)).unwrap()
        })
    });
    c.bench_function("metadata_write_osiris", |b| {
        let layout = MetadataLayout::new(1 << 20, 4096);
        let mut sys = MetadataSystem::new(layout, &SecurityConfig::default());
        let mut nvm = NvmDevice::new(NvmConfig::default());
        let addr = sys.layout().mecb_addr(PageId::new(1));
        let mut v = 0u8;
        b.iter(|| {
            v = v.wrapping_add(1);
            sys.write_block(&mut nvm, Cycle::ZERO, black_box(addr), [v; 64]).unwrap()
        })
    });
}

/// A metadata system with `pages` persisted MECB leaves and a metadata
/// cache of `cache_lines` lines — small caches force per-line verify
/// climbs to re-hash shared ancestors, which is exactly the redundancy
/// the batched region ops remove.
fn populated(pages: u64, cache_lines: usize) -> (MetadataSystem, NvmDevice, Vec<LineAddr>, Cycle) {
    let layout = MetadataLayout::new(pages * 4096, 4096);
    let cfg = SecurityConfig {
        metadata_cache: CacheConfig {
            size_bytes: cache_lines * 64,
            ways: 8,
            block_bytes: 64,
            latency_cycles: 3,
        },
        ..SecurityConfig::default()
    };
    let mut sys = MetadataSystem::new(layout, &cfg);
    let mut nvm = NvmDevice::new(NvmConfig::default());
    let mut t = Cycle::ZERO;
    let addrs: Vec<LineAddr> =
        (0..pages).map(|p| sys.layout().mecb_addr(PageId::new(p))).collect();
    for (i, &addr) in addrs.iter().enumerate() {
        t = sys
            .write_block(&mut nvm, t, addr, [i as u8 + 1; 64])
            .unwrap()
            .done;
    }
    t = sys.flush(&mut nvm, t);
    (sys, nvm, addrs, t)
}

fn bench_merkle(c: &mut Criterion) {
    // Region verify (`verify_lines`) from the same cold post-crash state
    // each iteration.
    for n in [1usize, 8, 64] {
        c.bench_function(&format!("merkle_verify_{n}"), |b| {
            let (mut sys, mut nvm, addrs, _) = populated(64, 16);
            b.iter(|| {
                sys.crash();
                sys.verify_lines(&mut nvm, Cycle::ZERO, black_box(&addrs[..n])).unwrap()
            })
        });
    }
    // Region persist (`persist_blocks`) of freshly dirtied leaves. The
    // cache is large enough to hold the working set: the cost is the
    // host-side hashing of the new leaf contents.
    for n in [1usize, 8, 64] {
        c.bench_function(&format!("merkle_persist_{n}"), |b| {
            let (mut sys, mut nvm, addrs, mut t) = populated(64, 256);
            let mut v = 0u8;
            b.iter(|| {
                v = v.wrapping_add(1);
                for (i, &addr) in addrs[..n].iter().enumerate() {
                    let bytes = [v ^ (i as u8).wrapping_mul(3); 64];
                    t = sys.write_block(&mut nvm, t, addr, bytes).unwrap().done;
                }
                t = sys.persist_blocks(&mut nvm, t, black_box(&addrs[..n])).unwrap();
                t
            })
        });
    }
}

criterion_group!(benches, bench_nvm, bench_hierarchy, bench_metadata, bench_merkle);
criterion_main!(benches);
