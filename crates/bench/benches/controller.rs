//! Criterion benches for the FsEncr memory controller: the per-access
//! cost of the baseline-security path versus the dual-pad file path.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fsencr::controller::{CtrlMode, MemoryController};
use fsencr::ott::OpenTunnelTable;
use fsencr_crypto::Key128;
use fsencr_nvm::{NvmDevice, PageId, PhysAddr};
use fsencr_secmem::MetadataLayout;
use fsencr_sim::config::{NvmConfig, SecurityConfig};
use fsencr_sim::Cycle;

fn controller(file_page: bool) -> MemoryController {
    let layout = MetadataLayout::new(16 << 20, 4096);
    let mut ctrl = MemoryController::new(
        CtrlMode::Encrypted,
        layout,
        &SecurityConfig::default(),
        Key128::from_seed(1),
        Key128::from_seed(2),
        NvmDevice::new(NvmConfig::default()),
    );
    if file_page {
        ctrl.install_key(Cycle::ZERO, 3, 5, Key128::from_seed(9)).unwrap();
        ctrl.stamp_file_page(Cycle::ZERO, PageId::new(0), 3, 5).unwrap();
    }
    // Prime the line so reads decrypt real ciphertext.
    ctrl.write_line(Cycle::ZERO, PhysAddr::new(0), &[0x11u8; 64]).unwrap();
    ctrl
}

fn bench_read_paths(c: &mut Criterion) {
    c.bench_function("ctrl_read_baseline_security", |b| {
        let mut ctrl = controller(false);
        b.iter(|| ctrl.read_line(Cycle::ZERO, black_box(PhysAddr::new(0))).unwrap())
    });
    c.bench_function("ctrl_read_fsencr_file_line", |b| {
        let mut ctrl = controller(true);
        b.iter(|| ctrl.read_line(Cycle::ZERO, black_box(PhysAddr::new(0))).unwrap())
    });
}

fn bench_write_paths(c: &mut Criterion) {
    c.bench_function("ctrl_write_baseline_security", |b| {
        let mut ctrl = controller(false);
        let data = [0x22u8; 64];
        b.iter(|| ctrl.write_line(Cycle::ZERO, black_box(PhysAddr::new(64)), &data).unwrap())
    });
    c.bench_function("ctrl_write_fsencr_file_line", |b| {
        let mut ctrl = controller(true);
        let data = [0x22u8; 64];
        b.iter(|| ctrl.write_line(Cycle::ZERO, black_box(PhysAddr::new(64)), &data).unwrap())
    });
}

fn bench_region_reads(c: &mut Criterion) {
    // A primed DF page: region reads at batch sizes 1/8/64.
    for lines in [1usize, 8, 64] {
        let addrs: Vec<PhysAddr> =
            (0..lines as u64).map(|l| PhysAddr::new(l * 64)).collect();
        c.bench_function(&format!("ctrl_read_lines_{lines}"), |b| {
            let mut ctrl = controller(true);
            for &addr in &addrs {
                ctrl.write_line(Cycle::ZERO, addr, &[0x33u8; 64]).unwrap();
            }
            let mut t = Cycle::ZERO;
            let mut out = Vec::with_capacity(lines);
            b.iter(|| {
                out.clear();
                t = ctrl.read_lines(t, black_box(&addrs), &mut out).unwrap();
                out[0][0]
            })
        });
    }
}

fn bench_ott(c: &mut Criterion) {
    c.bench_function("ott_lookup_hit_1024_entries", |b| {
        let mut ott = OpenTunnelTable::new(1024, 20);
        for i in 0..1024u32 {
            ott.insert(i % 8, i, Key128::from_seed(i as u64));
        }
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 1024;
            ott.lookup(black_box(i % 8), black_box(i))
        })
    });
}

criterion_group!(benches, bench_read_paths, bench_write_paths, bench_region_reads, bench_ott);
criterion_main!(benches);
