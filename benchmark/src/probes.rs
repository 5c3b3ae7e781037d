//! Per-layer host-time probes. Each probe calls only the layer's live
//! public entry point (no fast-vs-slow pairs) and reports the median of
//! five timing windows, so one descheduled window cannot move it.

use std::time::{Duration, Instant};

use fsencr::controller::{CtrlMode, MemoryController};
use fsencr::machine::{Machine, MachineOpts, SecurityMode};
use fsencr_cache::Hierarchy;
use fsencr_crypto::{ctr_pads_n, digest8_lines4, Aes128, Key128, PadDomain, PadInput};
use fsencr_fs::{GroupId, Mode, UserId};
use fsencr_nvm::{LineAddr, NvmDevice, PageId, PhysAddr};
use fsencr_secmem::{MetadataLayout, MetadataSystem};
use fsencr_sim::config::{CacheConfig, NvmConfig, SecurityConfig};
use fsencr_sim::{Cycle, MachineConfig};

use crate::spans::Spans;

const WINDOWS: usize = 5;
/// Lines in the region the datapath probes work on: one file page.
const REGION: u64 = 64;

/// Host cost of one unit of work per layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// `ctr_pads_n` (4 lanes): ns per 64-byte pad.
    pub pad_ns: f64,
    /// `digest8_lines4`: ns per line digest.
    pub digest_ns: f64,
    /// `NvmDevice::read_line`: ns per line.
    pub nvm_read_ns: f64,
    /// `NvmDevice::write_line`: ns per line.
    pub nvm_write_ns: f64,
    /// `Hierarchy::load` (+ `fill` on a miss), working set 2x L3: ns per load.
    pub cache_load_ns: f64,
    /// `Hierarchy::store`, working set 2x L3: ns per store.
    pub cache_store_ns: f64,
    /// `MemoryController::read_lines` over a file page: ns per line.
    pub read_lines_ns: f64,
    /// `MemoryController::write_lines` over a file page: ns per line.
    pub write_lines_ns: f64,
    /// `MetadataSystem::verify_lines`, cold 64-line region: ns per line.
    pub verify_ns: f64,
    /// `MetadataSystem::persist_blocks`, dirty 64-line region: ns per line.
    pub persist_ns: f64,
    /// `Machine::save_snapshot` of the campaign base machine: ms.
    pub save_ms: f64,
    /// `Machine::restore_snapshot` of that image: ms.
    pub restore_ms: f64,
    /// Size of that image in bytes.
    pub snapshot_bytes: u64,
    /// `Machine::crash` + `Machine::recover` on the base machine: ms.
    pub recover_ms: f64,
}

/// Median of [`WINDOWS`] calls of `window`.
fn median_of_windows(mut window: impl FnMut() -> f64) -> f64 {
    let mut v: Vec<f64> = (0..WINDOWS).map(|_| window()).collect();
    v.sort_by(f64::total_cmp);
    v[WINDOWS / 2]
}

/// Nanoseconds per unit of `units` units done by `f`.
fn ns_per(units: u64, f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64 / units as f64
}

fn pad_ns() -> f64 {
    let aes = Aes128::new(&Key128::from_seed(0xba7c));
    let mut input = PadInput {
        page_id: 0x88,
        block_in_page: 5,
        major: 3,
        minor: 0,
        domain: PadDomain::File,
    };
    let mut pad = [0u8; 64];
    median_of_windows(|| {
        ns_per(16_384, || {
            for _ in 0..16_384 {
                input.minor = (input.minor + 1) & 0x7f;
                ctr_pads_n(&aes, &input, 4, &mut pad);
                std::hint::black_box(&pad);
            }
        })
    })
}

fn digest_ns() -> f64 {
    let mut lines = [[0u8; 64]; 4];
    for (i, line) in lines.iter_mut().enumerate() {
        line.fill(i as u8 * 61 + 5);
    }
    median_of_windows(|| {
        ns_per(4 * 4_096, || {
            for _ in 0..4_096 {
                let [l0, l1, l2, l3] = &lines;
                let d = digest8_lines4([l0, l1, l2, l3]);
                // Chain the digests back in so no call can be elided.
                for (line, digest) in lines.iter_mut().zip(d.iter()) {
                    line[..8].copy_from_slice(digest);
                }
            }
        })
    })
}

fn nvm_ns() -> (f64, f64) {
    const LINES: u64 = 4_096;
    let mut nvm = NvmDevice::new(NvmConfig::default());
    let addrs: Vec<PhysAddr> = (0..LINES).map(|i| PhysAddr::new(i * 64)).collect();
    let mut t = Cycle::ZERO;
    for &a in &addrs {
        t = nvm.write_line(t, a, &[1u8; 64]);
    }
    let write = median_of_windows(|| {
        ns_per(LINES, || {
            for (i, &a) in addrs.iter().enumerate() {
                t = nvm.write_line(t, a, &[i as u8; 64]);
            }
        })
    });
    let read = median_of_windows(|| {
        ns_per(LINES, || {
            for &a in &addrs {
                let (data, done) = nvm.read_line(t, a);
                std::hint::black_box(data);
                t = done;
            }
        })
    });
    (read, write)
}

fn cache_ns() -> (f64, f64) {
    let cpu = MachineConfig::paper_defaults().cpu;
    let mut h = Hierarchy::new(&cpu);
    let lines = 2 * cpu.l3.size_bytes as u64 / 64;
    let load = median_of_windows(|| {
        ns_per(lines, || {
            for i in 0..lines {
                let addr = LineAddr::new(i * 64);
                if h.load(0, addr).data.is_none() {
                    std::hint::black_box(h.fill(0, addr, [i as u8; 64]));
                }
            }
        })
    });
    let store = median_of_windows(|| {
        ns_per(lines, || {
            for i in 0..lines {
                std::hint::black_box(h.store(0, LineAddr::new(i * 64), [i as u8; 64]));
            }
        })
    });
    (load, store)
}

/// A controller with one primed file page: key installed, FECB stamped,
/// every line written once.
fn primed_controller() -> (MemoryController, Vec<PhysAddr>, Cycle) {
    let mut ctrl = MemoryController::new(
        CtrlMode::Encrypted,
        MetadataLayout::new(REGION * 4096, 8192),
        &SecurityConfig::default(),
        Key128::from_seed(1),
        Key128::from_seed(2),
        NvmDevice::new(NvmConfig::default()),
    );
    let mut t = ctrl
        .install_key(Cycle::ZERO, 1, 7, Key128::from_seed(0xfee))
        .expect("fresh OTT accepts a key");
    let page = PageId::new(2);
    t = ctrl
        .stamp_file_page(t, page, 1, 7)
        .expect("fresh tree verifies");
    let addrs: Vec<PhysAddr> = page.lines().map(|l| PhysAddr::new(l.get())).collect();
    for (i, &addr) in addrs.iter().enumerate() {
        t = ctrl
            .write_line(t, addr, &[i as u8; 64])
            .expect("primed page writes cleanly");
    }
    (ctrl, addrs, t)
}

fn datapath_ns() -> (f64, f64) {
    const ROUNDS: u64 = 64;
    let (mut ctrl, addrs, mut t) = primed_controller();
    let mut out = Vec::with_capacity(addrs.len());
    let read = median_of_windows(|| {
        ns_per(ROUNDS * REGION, || {
            for _ in 0..ROUNDS {
                out.clear();
                t = ctrl
                    .read_lines(t, &addrs, &mut out)
                    .expect("primed page reads back");
            }
        })
    });
    let mut writes: Vec<(PhysAddr, [u8; 64])> = addrs.iter().map(|&a| (a, [0; 64])).collect();
    let write = median_of_windows(|| {
        ns_per(ROUNDS * REGION, || {
            for _ in 0..ROUNDS {
                for (_, data) in &mut writes {
                    data[0] = data[0].wrapping_add(1);
                }
                t = ctrl
                    .write_lines(t, &writes)
                    .expect("primed page writes back");
            }
        })
    });
    (read, write)
}

/// 64 persisted MECB leaves behind a metadata cache of `cache_lines`.
fn populated_tree(cache_lines: usize) -> (MetadataSystem, NvmDevice, Vec<LineAddr>, Cycle) {
    let cfg = SecurityConfig {
        metadata_cache: CacheConfig {
            size_bytes: cache_lines * 64,
            ways: 8,
            block_bytes: 64,
            latency_cycles: 3,
        },
        ..SecurityConfig::default()
    };
    let mut sys = MetadataSystem::new(MetadataLayout::new(REGION * 4096, 4096), &cfg);
    let mut nvm = NvmDevice::new(NvmConfig::default());
    let addrs: Vec<LineAddr> = (0..REGION)
        .map(|p| sys.layout().mecb_addr(PageId::new(p)))
        .collect();
    let mut t = Cycle::ZERO;
    for (i, &addr) in addrs.iter().enumerate() {
        t = sys
            .write_block(&mut nvm, t, addr, [i as u8 + 1; 64])
            .expect("fresh tree verifies")
            .done;
    }
    t = sys.flush(&mut nvm, t);
    (sys, nvm, addrs, t)
}

/// Verify: re-colds the tree with `crash` before each timed region.
/// Persist: dirties every leaf before each timed region. Only the region
/// call itself is timed.
fn secmem_ns() -> (f64, f64) {
    const ROUNDS: u64 = 32;
    let per_line = |spent: Duration| spent.as_nanos() as f64 / (ROUNDS * REGION) as f64;
    let verify = {
        let (mut sys, mut nvm, addrs, _) = populated_tree(8);
        median_of_windows(|| {
            let mut spent = Duration::ZERO;
            for _ in 0..ROUNDS {
                sys.crash();
                let start = Instant::now();
                sys.verify_lines(&mut nvm, Cycle::ZERO, &addrs)
                    .expect("tree verifies");
                spent += start.elapsed();
            }
            per_line(spent)
        })
    };
    let persist = {
        let (mut sys, mut nvm, addrs, mut t) = populated_tree(256);
        let mut v = 0u8;
        median_of_windows(|| {
            let mut spent = Duration::ZERO;
            for _ in 0..ROUNDS {
                v = v.wrapping_add(1);
                for (i, &addr) in addrs.iter().enumerate() {
                    let bytes = [v ^ (i as u8).wrapping_mul(3); 64];
                    t = sys
                        .write_block(&mut nvm, t, addr, bytes)
                        .expect("cached line writes cleanly")
                        .done;
                }
                let start = Instant::now();
                t = sys
                    .persist_blocks(&mut nvm, t, &addrs)
                    .expect("persist verified lines");
                spent += start.elapsed();
            }
            per_line(spent)
        })
    };
    (verify, persist)
}

/// The machine a fault campaign starts from: a 4-page encrypted file,
/// every line written and persisted.
fn campaign_base_machine() -> Machine {
    let mut m = Machine::new(MachineOpts::small_test(), SecurityMode::FsEncr);
    let h = m
        .create(
            UserId::new(1),
            GroupId::new(1),
            "camp.bin",
            Mode::PRIVATE,
            Some("pw"),
        )
        .expect("campaign file creates");
    let map = m.mmap(&h).expect("campaign file maps");
    for page in 0..4u64 {
        let data: Vec<u8> = (0..4096u64).map(|i| (i * 31 + page * 7) as u8).collect();
        m.write(0, map, page * 4096, &data)
            .expect("pristine machine accepts the write");
        m.persist(0, map, page * 4096, 4096)
            .expect("pristine machine persists the write");
    }
    m
}

fn snapshot_and_recover() -> (f64, f64, u64, f64) {
    let base = campaign_base_machine();
    let opts = *base.opts();
    let mut bytes = Vec::new();
    let save_ms = median_of_windows(|| {
        let start = Instant::now();
        bytes = base.save_snapshot().expect("no injector armed");
        start.elapsed().as_secs_f64() * 1e3
    });
    let restore = || {
        Machine::restore_snapshot(opts, SecurityMode::FsEncr, &bytes).expect("snapshot restores")
    };
    let restore_ms = median_of_windows(|| {
        let start = Instant::now();
        let m = restore();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(m.elapsed());
        ms
    });
    let recover_ms = median_of_windows(|| {
        let mut m = restore();
        let start = Instant::now();
        m.crash();
        std::hint::black_box(m.recover());
        start.elapsed().as_secs_f64() * 1e3
    });
    (save_ms, restore_ms, bytes.len() as u64, recover_ms)
}

/// Runs every probe, each inside a span of its layer.
pub fn run_all(spans: &Spans, parent: u64) -> Probes {
    let mut p = Probes::default();
    spans.time(parent, "bench", "probes", |probes| {
        (p.pad_ns, _) = spans.time(probes, "crypto", "probe ctr_pads_n", |_| pad_ns());
        (p.digest_ns, _) = spans.time(probes, "crypto", "probe digest8_lines4", |_| digest_ns());
        ((p.nvm_read_ns, p.nvm_write_ns), _) =
            spans.time(probes, "nvm", "probe NvmDevice", |_| nvm_ns());
        ((p.cache_load_ns, p.cache_store_ns), _) =
            spans.time(probes, "cache", "probe Hierarchy", |_| cache_ns());
        ((p.read_lines_ns, p.write_lines_ns), _) =
            spans.time(probes, "fsencr", "probe MemoryController", |_| {
                datapath_ns()
            });
        ((p.verify_ns, p.persist_ns), _) =
            spans.time(probes, "secmem", "probe MetadataSystem", |_| secmem_ns());
        ((p.save_ms, p.restore_ms, p.snapshot_bytes, p.recover_ms), _) =
            spans.time(probes, "snapshot", "probe snapshot + recover", |_| {
                snapshot_and_recover()
            });
    });
    p
}
