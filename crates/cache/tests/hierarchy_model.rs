//! The hierarchy against a byte-carrying reference model.
//!
//! `RefCache` and `RefHierarchy` keep every line's 64 bytes inside the
//! way that holds it and copy them on every migration: the simplest
//! statement of the exclusive L1/L2/L3 policy. `Hierarchy` keeps the
//! bytes in one line store and moves slot handles instead. Random
//! operation sequences on small two-core geometries must agree on every
//! returned value (data, latency, hit flag, write-back order), on the
//! `flush_all` order and on the snapshot image bytes, across a
//! `snap_save` → `snap_load` round trip.

use proptest::prelude::*;

use fsencr_cache::{CacheLine, Hierarchy};
use fsencr_nvm::{LineAddr, LINE_BYTES};
use fsencr_sim::config::{CacheConfig, CpuConfig};
use fsencr_sim::Cycle;
use fsencr_snapshot::{Dec, Enc};

type Line = [u8; LINE_BYTES];

#[derive(Debug, Clone)]
struct Entry {
    tag: u64,
    data: Line,
    dirty: bool,
    lru: u64,
}

/// Set-associative, write-back, true-LRU cache holding line bytes.
#[derive(Debug, Clone)]
struct RefCache {
    cfg: CacheConfig,
    sets: Vec<Vec<Entry>>,
    stamp: u64,
    hits: u64,
    misses: u64,
    fills: u64,
    evictions: u64,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        RefCache {
            cfg,
            sets: vec![Vec::new(); cfg.sets()],
            stamp: 0,
            hits: 0,
            misses: 0,
            fills: 0,
            evictions: 0,
        }
    }

    fn index_of(&self, addr: LineAddr) -> (usize, u64) {
        let line_no = addr.get() / LINE_BYTES as u64;
        let sets = self.sets.len() as u64;
        ((line_no % sets) as usize, line_no / sets)
    }

    fn addr_of(&self, set: usize, tag: u64) -> LineAddr {
        LineAddr::new((tag * self.sets.len() as u64 + set as u64) * LINE_BYTES as u64)
    }

    fn lookup(&mut self, addr: LineAddr) -> Option<Line> {
        let (set, tag) = self.index_of(addr);
        self.stamp += 1;
        let stamp = self.stamp;
        match self.sets[set].iter_mut().find(|e| e.tag == tag) {
            Some(e) => {
                e.lru = stamp;
                self.hits += 1;
                Some(e.data)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn update(&mut self, addr: LineAddr, data: &Line) -> bool {
        let (set, tag) = self.index_of(addr);
        self.stamp += 1;
        let stamp = self.stamp;
        match self.sets[set].iter_mut().find(|e| e.tag == tag) {
            Some(e) => {
                e.lru = stamp;
                e.data = *data;
                e.dirty = true;
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Inserts or overwrites a line; returns the victim `(addr, data,
    /// dirty)` of a full set.
    fn insert(
        &mut self,
        addr: LineAddr,
        data: Line,
        dirty: bool,
    ) -> Option<(LineAddr, Line, bool)> {
        let (set, tag) = self.index_of(addr);
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(e) = self.sets[set].iter_mut().find(|e| e.tag == tag) {
            e.data = data;
            e.dirty = e.dirty || dirty;
            e.lru = stamp;
            return None;
        }
        let mut victim = None;
        if self.sets[set].len() >= self.cfg.ways {
            let idx = (0..self.sets[set].len())
                .min_by_key(|&i| self.sets[set][i].lru)
                .expect("a full set has ways");
            let e = self.sets[set].swap_remove(idx);
            victim = Some((self.addr_of(set, e.tag), e.data, e.dirty));
            self.evictions += 1;
        }
        self.sets[set].push(Entry {
            tag,
            data,
            dirty,
            lru: stamp,
        });
        self.fills += 1;
        victim
    }

    fn invalidate(&mut self, addr: LineAddr) -> Option<(Line, bool)> {
        let (set, tag) = self.index_of(addr);
        let idx = self.sets[set].iter().position(|e| e.tag == tag)?;
        let e = self.sets[set].swap_remove(idx);
        Some((e.data, e.dirty))
    }

    fn clean(&mut self, addr: LineAddr) -> Option<Line> {
        let (set, tag) = self.index_of(addr);
        let e = self.sets[set]
            .iter_mut()
            .find(|e| e.tag == tag && e.dirty)?;
        e.dirty = false;
        Some(e.data)
    }

    fn drain_dirty(&mut self) -> Vec<CacheLine> {
        let mut out = Vec::new();
        for set in 0..self.sets.len() {
            for way in 0..self.sets[set].len() {
                if self.sets[set][way].dirty {
                    self.sets[set][way].dirty = false;
                    let e = &self.sets[set][way];
                    out.push(CacheLine {
                        addr: self.addr_of(set, e.tag),
                        data: e.data,
                    });
                }
            }
        }
        out
    }

    fn snap_save(&self, enc: &mut Enc) {
        enc.put_u64(self.sets.len() as u64);
        enc.put_u64(self.sets.iter().filter(|s| !s.is_empty()).count() as u64);
        for (idx, set) in self.sets.iter().enumerate().filter(|(_, s)| !s.is_empty()) {
            enc.put_u64(idx as u64);
            enc.put_u64(set.len() as u64);
            for e in set {
                enc.put_u64(e.tag);
                enc.put_bytes(&e.data);
                enc.put_bool(e.dirty);
                enc.put_u64(e.lru);
            }
        }
        for v in [
            self.stamp,
            self.hits,
            self.misses,
            self.fills,
            self.evictions,
        ] {
            enc.put_u64(v);
        }
    }
}

/// The exclusive hierarchy with bytes in every way.
#[derive(Debug, Clone)]
struct RefHierarchy {
    l1: Vec<RefCache>,
    l2: Vec<RefCache>,
    l3: RefCache,
}

impl RefHierarchy {
    fn new(cfg: &CpuConfig) -> Self {
        RefHierarchy {
            l1: vec![RefCache::new(cfg.l1); cfg.cores],
            l2: vec![RefCache::new(cfg.l2); cfg.cores],
            l3: RefCache::new(cfg.l3),
        }
    }

    fn insert_l1(
        &mut self,
        core: usize,
        addr: LineAddr,
        data: Line,
        dirty: bool,
        wbs: &mut Vec<CacheLine>,
    ) {
        let Some((a1, d1, x1)) = self.l1[core].insert(addr, data, dirty) else {
            return;
        };
        let Some((a2, d2, x2)) = self.l2[core].insert(a1, d1, x1) else {
            return;
        };
        if let Some((a3, d3, true)) = self.l3.insert(a2, d2, x2) {
            wbs.push(CacheLine { addr: a3, data: d3 });
        }
    }

    fn snoop_remote(&mut self, core: usize, addr: LineAddr) -> Option<(Line, bool)> {
        (0..self.l1.len()).filter(|&o| o != core).find_map(|o| {
            self.l1[o]
                .invalidate(addr)
                .or_else(|| self.l2[o].invalidate(addr))
        })
    }

    fn load(&mut self, core: usize, addr: LineAddr) -> (Option<Line>, Cycle, Vec<CacheLine>) {
        let mut latency = Cycle::new(self.l1[core].cfg.latency_cycles);
        let mut wbs = Vec::new();
        if let Some(data) = self.l1[core].lookup(addr) {
            return (Some(data), latency, wbs);
        }
        latency += self.l2[core].cfg.latency_cycles;
        let found = if self.l2[core].lookup(addr).is_some() {
            self.l2[core].invalidate(addr)
        } else {
            latency += self.l3.cfg.latency_cycles;
            if self.l3.lookup(addr).is_some() {
                self.l3.invalidate(addr)
            } else {
                self.snoop_remote(core, addr)
            }
        };
        if let Some((data, dirty)) = found {
            self.insert_l1(core, addr, data, dirty, &mut wbs);
        }
        (found.map(|(data, _)| data), latency, wbs)
    }

    fn fill(&mut self, core: usize, addr: LineAddr, data: Line) -> Vec<CacheLine> {
        let mut wbs = Vec::new();
        self.insert_l1(core, addr, data, false, &mut wbs);
        wbs
    }

    fn store(&mut self, core: usize, addr: LineAddr, data: Line) -> (bool, Cycle, Vec<CacheLine>) {
        let mut latency = Cycle::new(self.l1[core].cfg.latency_cycles);
        let mut wbs = Vec::new();
        if self.l1[core].update(addr, &data) {
            return (true, latency, wbs);
        }
        latency += self.l2[core].cfg.latency_cycles;
        let mut hit = self.l2[core].invalidate(addr).is_some();
        if !hit {
            latency += self.l3.cfg.latency_cycles;
            hit = self.l3.invalidate(addr).is_some() || self.snoop_remote(core, addr).is_some();
        }
        self.insert_l1(core, addr, data, true, &mut wbs);
        (hit, latency, wbs)
    }

    fn caches(&mut self) -> impl Iterator<Item = &mut RefCache> {
        self.l1
            .iter_mut()
            .chain(&mut self.l2)
            .chain(std::iter::once(&mut self.l3))
    }

    fn clwb(&mut self, addr: LineAddr) -> Option<CacheLine> {
        let data = self.caches().find_map(|c| c.clean(addr))?;
        Some(CacheLine { addr, data })
    }

    fn clflush(&mut self, addr: LineAddr) -> Option<CacheLine> {
        let mut dirty_copy = None;
        for c in self.caches() {
            if let Some((data, true)) = c.invalidate(addr) {
                dirty_copy = Some(CacheLine { addr, data });
            }
        }
        dirty_copy
    }

    fn flush_all(&mut self) -> Vec<CacheLine> {
        let mut out: Vec<CacheLine> = self.caches().flat_map(|c| c.drain_dirty()).collect();
        out.sort_by_key(|l| l.addr.get());
        out
    }

    fn drop_all(&mut self) {
        for c in self.caches() {
            c.sets.iter_mut().for_each(Vec::clear);
        }
    }

    fn snap_save(&self, enc: &mut Enc) {
        enc.put_u64(self.l1.len() as u64);
        for c in self
            .l1
            .iter()
            .chain(&self.l2)
            .chain(std::iter::once(&self.l3))
        {
            c.snap_save(enc);
        }
    }
}

fn image(save: impl FnOnce(&mut Enc)) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.begin_section("hier");
    save(&mut enc);
    enc.end_section();
    enc.finish()
}

fn restore(cfg: &CpuConfig, bytes: &[u8]) -> Hierarchy {
    let mut dec = Dec::new(bytes).expect("image header");
    dec.begin_section("hier").expect("hier section");
    let h = Hierarchy::snap_load(cfg, &mut dec).expect("image loads");
    dec.end_section().expect("section end");
    h
}

/// Two cores; every level has `sets` sets of `ways` ways.
fn cpu(geometry: [(usize, usize); 3]) -> CpuConfig {
    let mk = |(sets, ways): (usize, usize), lat| CacheConfig {
        size_bytes: sets * ways * LINE_BYTES,
        ways,
        block_bytes: LINE_BYTES,
        latency_cycles: lat,
    };
    CpuConfig {
        cores: 2,
        l1: mk(geometry[0], 2),
        l2: mk(geometry[1], 20),
        l3: mk(geometry[2], 32),
    }
}

#[derive(Debug, Clone)]
enum Op {
    Load { core: usize, line: u64 },
    Fill { core: usize, line: u64, tag: u8 },
    Store { core: usize, line: u64, tag: u8 },
    Clwb { line: u64 },
    Clflush { line: u64 },
    FlushAll,
    DropAll,
    RoundTrip,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Up to 40 lines: past the 20-line capacity of the smallest
    // geometry, within reach of hits in the largest (80 lines).
    let line = 0u64..40;
    prop_oneof![
        4 => (0usize..2, line.clone()).prop_map(|(core, line)| Op::Load { core, line }),
        2 => (0usize..2, line.clone(), any::<u8>())
            .prop_map(|(core, line, tag)| Op::Fill { core, line, tag }),
        4 => (0usize..2, line.clone(), any::<u8>())
            .prop_map(|(core, line, tag)| Op::Store { core, line, tag }),
        1 => line.clone().prop_map(|line| Op::Clwb { line }),
        1 => line.prop_map(|line| Op::Clflush { line }),
        1 => Just(Op::FlushAll),
        1 => Just(Op::DropAll),
        1 => Just(Op::RoundTrip),
    ]
}

/// Distinct bytes per line and tag, so a line read from the wrong slot
/// shows.
fn data_of(line: u64, tag: u8) -> Line {
    let mut d = [tag; LINE_BYTES];
    d[..8].copy_from_slice(&line.to_le_bytes());
    d
}

fn level() -> impl Strategy<Value = (usize, usize)> {
    (2usize..5, 2usize..5)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn hierarchy_matches_byte_carrying_model(
        l1 in level(),
        l2 in level(),
        l3 in level(),
        ops in prop::collection::vec(op_strategy(), 1..300),
    ) {
        let cfg = cpu([l1, l2, l3]);
        let mut h = Hierarchy::new(&cfg);
        let mut model = RefHierarchy::new(&cfg);
        for (i, op) in ops.into_iter().enumerate() {
            let at = |line: u64| LineAddr::new(line * LINE_BYTES as u64);
            match op {
                Op::Load { core, line } => {
                    let out = h.load(core, at(line));
                    let want = model.load(core, at(line));
                    prop_assert_eq!((out.data, out.latency, out.writebacks), want, "op {}: load", i);
                }
                Op::Fill { core, line, tag } => {
                    let data = data_of(line, tag);
                    prop_assert_eq!(h.fill(core, at(line), data), model.fill(core, at(line), data), "op {}: fill", i);
                }
                Op::Store { core, line, tag } => {
                    let data = data_of(line, tag);
                    prop_assert_eq!(h.store(core, at(line), data), model.store(core, at(line), data), "op {}: store", i);
                }
                Op::Clwb { line } => {
                    prop_assert_eq!(h.clwb(at(line)), model.clwb(at(line)), "op {}: clwb", i);
                }
                Op::Clflush { line } => {
                    prop_assert_eq!(h.clflush(at(line)), model.clflush(at(line)), "op {}: clflush", i);
                }
                Op::FlushAll => {
                    prop_assert_eq!(h.flush_all(), model.flush_all(), "op {}: flush_all", i);
                }
                Op::DropAll => {
                    h.drop_all();
                    model.drop_all();
                }
                Op::RoundTrip => {
                    let bytes = image(|enc| h.snap_save(enc));
                    prop_assert_eq!(&bytes, &image(|enc| model.snap_save(enc)), "op {}: image", i);
                    h = restore(&cfg, &bytes);
                }
            }
        }
        prop_assert_eq!(image(|enc| h.snap_save(enc)), image(|enc| model.snap_save(enc)), "final image");
        prop_assert_eq!(h.flush_all(), model.flush_all(), "final flush_all");
    }
}
