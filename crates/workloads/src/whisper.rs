//! Whisper-style workloads (Table II, bottom block): YCSB, Hashmap,
//! CTree.
//!
//! * **YCSB** — zipfian 50/50 read/update over a persistent hash table,
//!   2 workers, 128 B records (the paper's R/W ratio = 0.5, Workers = 2).
//! * **Hashmap** — insert/lookup mix on the persistent open-addressing
//!   table, data-size 128 B, 2 threads.
//! * **CTree** — insert/lookup mix on the persistent binary tree,
//!   data-size 128 B, 2 threads.

use fsencr::machine::{Machine, MachineError, MachineOpts};
use fsencr_fs::{GroupId, Mode, UserId};
use fsencr_sim::SplitMix64;

use crate::driver::{interleave, prefault, Workload};
use crate::kv::{CtreeKv, HashKv};
use crate::zipf::Zipfian;

const VALUE_BYTES: usize = 128;
/// Per-operation compute of the PMDK transactional machinery (undo-log
/// management, range tracking) the real Whisper structures run.
const OP_COMPUTE_CYCLES: u64 = 3000;
/// YCSB runs a full storage engine per operation (request parsing,
/// transaction bookkeeping), modelled as extra compute.
const YCSB_COMPUTE_CYCLES: u64 = 1500;
/// Whisper's persistent structures batch durable syncs (group commit).
const MSYNC_BATCH: u64 = 4;

/// The YCSB driver (50% reads, 50% updates, zipfian keys).
#[derive(Debug)]
pub struct Ycsb {
    records_per_worker: u64,
    ops_per_worker: u64,
    workers: usize,
    tables: Vec<HashKv>,
}

impl Ycsb {
    /// Fully parameterised constructor.
    ///
    /// # Panics
    ///
    /// Panics on zero counts.
    pub fn new(records_per_worker: u64, ops_per_worker: u64, workers: usize) -> Self {
        assert!(records_per_worker > 0 && ops_per_worker > 0 && workers > 0);
        Ycsb {
            records_per_worker,
            ops_per_worker,
            workers,
            tables: Vec::new(),
        }
    }
}

impl Workload for Ycsb {
    fn name(&self) -> String {
        "YCSB".to_string()
    }

    fn configure(&self, mut opts: MachineOpts) -> MachineOpts {
        let slots = (self.records_per_worker * 2).next_power_of_two();
        let bytes_per_worker = 4096 + slots * 192;
        opts.pmem_bytes = (bytes_per_worker * self.workers as u64 * 2)
            .next_power_of_two()
            .max(32 << 20);
        opts
    }

    fn setup(&mut self, m: &mut Machine) -> Result<(), MachineError> {
        self.tables.clear();
        for w in 0..self.workers {
            let h = m.create(
                UserId::new(1),
                GroupId::new(1),
                &format!("ycsb-{w}.db"),
                Mode::PRIVATE,
                Some("bench"),
            )?;
            let map = m.mmap(&h)?;
            let slots = (self.records_per_worker * 2).next_power_of_two();
            prefault(m, w, map, 4096 + slots * 192)?;
            let table = HashKv::create(m, w, map, slots, VALUE_BYTES as u64)?;
            for k in 0..self.records_per_worker {
                table.put(m, w, k + 1, &[k as u8; VALUE_BYTES])?;
            }
            self.tables.push(table);
        }
        Ok(())
    }

    fn run(&mut self, m: &mut Machine) -> Result<(), MachineError> {
        let tables = self.tables.clone();
        let mut zipfs: Vec<Zipfian> = (0..self.workers)
            .map(|w| Zipfian::new(self.records_per_worker, 0.99, 42 + w as u64))
            .collect();
        let mut coins: Vec<SplitMix64> = (0..self.workers)
            .map(|w| SplitMix64::new(7 + w as u64))
            .collect();
        let mut buf = Vec::new();
        interleave(m, self.workers, self.ops_per_worker as usize, |m, w, _| {
            m.advance(w, YCSB_COMPUTE_CYCLES);
            // YCSB's storage engine talks to the file through the kernel:
            // under software encryption every operation traverses the
            // syscall + stacked-VFS path, and committed updates msync.
            m.syscall_overhead(w);
            let key = zipfs[w].sample() + 1;
            if coins[w].next_f64() < 0.5 {
                let found = tables[w].get(m, w, key, &mut buf)?;
                debug_assert!(found);
                Ok(())
            } else {
                tables[w].put(m, w, key, &[key as u8; VALUE_BYTES])?;
                m.msync(w, tables[w].map_id(), 0, 0)
            }
        })
    }
}

/// The Whisper "Hashmap" benchmark: insert/lookup mix, 128 B records.
#[derive(Debug)]
pub struct HashmapBench {
    ops_per_thread: u64,
    threads: usize,
    tables: Vec<HashKv>,
}

impl HashmapBench {
    /// Fully parameterised constructor.
    ///
    /// # Panics
    ///
    /// Panics on zero counts.
    pub fn new(ops_per_thread: u64, threads: usize) -> Self {
        assert!(ops_per_thread > 0 && threads > 0);
        HashmapBench {
            ops_per_thread,
            threads,
            tables: Vec::new(),
        }
    }
}

impl Workload for HashmapBench {
    fn name(&self) -> String {
        "Hashmap".to_string()
    }

    fn configure(&self, mut opts: MachineOpts) -> MachineOpts {
        let slots = (self.ops_per_thread * 2).next_power_of_two();
        opts.pmem_bytes = ((4096 + slots * 192) * self.threads as u64 * 2)
            .next_power_of_two()
            .max(32 << 20);
        opts
    }

    fn setup(&mut self, m: &mut Machine) -> Result<(), MachineError> {
        self.tables.clear();
        for t in 0..self.threads {
            let h = m.create(
                UserId::new(1),
                GroupId::new(1),
                &format!("hashmap-{t}.db"),
                Mode::PRIVATE,
                Some("bench"),
            )?;
            let map = m.mmap(&h)?;
            let slots = (self.ops_per_thread * 2).next_power_of_two();
            prefault(m, t, map, 4096 + slots * 192)?;
            self.tables
                .push(HashKv::create(m, t, map, slots, VALUE_BYTES as u64)?);
        }
        Ok(())
    }

    fn run(&mut self, m: &mut Machine) -> Result<(), MachineError> {
        let tables = self.tables.clone();
        let mut rngs: Vec<SplitMix64> = (0..self.threads)
            .map(|t| SplitMix64::new(31 + t as u64))
            .collect();
        let mut inserted = vec![0u64; self.threads];
        let mut buf = Vec::new();
        interleave(m, self.threads, self.ops_per_thread as usize, |m, t, _| {
            m.advance(t, OP_COMPUTE_CYCLES);
            // 50% inserts of fresh keys, 50% lookups of inserted ones;
            // durable syncs are group-committed every MSYNC_BATCH inserts.
            if inserted[t] == 0 || rngs[t].next_f64() < 0.5 {
                inserted[t] += 1;
                tables[t].put(m, t, inserted[t], &[inserted[t] as u8; VALUE_BYTES])?;
                if inserted[t].is_multiple_of(MSYNC_BATCH) {
                    m.msync(t, tables[t].map_id(), 0, 0)?;
                }
                Ok(())
            } else {
                let key = 1 + rngs[t].next_below(inserted[t]);
                tables[t].get(m, t, key, &mut buf).map(|_| ())
            }
        })
    }
}

/// The Whisper "CTree" benchmark: insert/lookup mix on the persistent
/// binary tree, 128 B records.
#[derive(Debug)]
pub struct CtreeBench {
    ops_per_thread: u64,
    threads: usize,
    trees: Vec<CtreeKv>,
}

impl CtreeBench {
    /// Fully parameterised constructor.
    ///
    /// # Panics
    ///
    /// Panics on zero counts.
    pub fn new(ops_per_thread: u64, threads: usize) -> Self {
        assert!(ops_per_thread > 0 && threads > 0);
        CtreeBench {
            ops_per_thread,
            threads,
            trees: Vec::new(),
        }
    }
}

impl Workload for CtreeBench {
    fn name(&self) -> String {
        "CTree".to_string()
    }

    fn configure(&self, mut opts: MachineOpts) -> MachineOpts {
        opts.pmem_bytes = (self.ops_per_thread * 192 * self.threads as u64 * 4)
            .next_power_of_two()
            .max(32 << 20);
        opts
    }

    fn setup(&mut self, m: &mut Machine) -> Result<(), MachineError> {
        self.trees.clear();
        for t in 0..self.threads {
            let h = m.create(
                UserId::new(1),
                GroupId::new(1),
                &format!("ctree-{t}.db"),
                Mode::PRIVATE,
                Some("bench"),
            )?;
            let map = m.mmap(&h)?;
            prefault(m, t, map, 4096 + self.ops_per_thread * 192 * 2)?;
            self.trees
                .push(CtreeKv::create(m, t, map, VALUE_BYTES as u64)?);
        }
        Ok(())
    }

    fn run(&mut self, m: &mut Machine) -> Result<(), MachineError> {
        let trees = self.trees.clone();
        let mut rngs: Vec<SplitMix64> = (0..self.threads)
            .map(|t| SplitMix64::new(53 + t as u64))
            .collect();
        let mut keys: Vec<Vec<u64>> = vec![Vec::new(); self.threads];
        let mut buf = Vec::new();
        interleave(m, self.threads, self.ops_per_thread as usize, |m, t, _| {
            m.advance(t, OP_COMPUTE_CYCLES);
            if keys[t].is_empty() || rngs[t].next_f64() < 0.5 {
                let key = rngs[t].next_u64() | 1;
                keys[t].push(key);
                trees[t].put(m, t, key, &[key as u8; VALUE_BYTES])?;
                if (keys[t].len() as u64).is_multiple_of(MSYNC_BATCH) {
                    m.msync(t, trees[t].map_id(), 0, 0)?;
                }
                Ok(())
            } else {
                let key = keys[t][rngs[t].next_below(keys[t].len() as u64) as usize];
                trees[t].get(m, t, key, &mut buf).map(|_| ())
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_workload;
    use fsencr::machine::SecurityMode;

    #[test]
    fn ycsb_runs_and_reads_hit() {
        let mut w = Ycsb::new(256, 256, 2);
        let res = run_workload(MachineOpts::small_test(), SecurityMode::FsEncr, &mut w).unwrap();
        assert_eq!(res.workload, "YCSB");
        assert!(res.stats.cycles > 0);
        assert!(res.stats.file_accesses > 0);
    }

    #[test]
    fn hashmap_and_ctree_run() {
        let mut hm = HashmapBench::new(128, 2);
        let r1 = run_workload(MachineOpts::small_test(), SecurityMode::FsEncr, &mut hm).unwrap();
        assert!(r1.stats.cycles > 0);
        let mut ct = CtreeBench::new(128, 2);
        let r2 = run_workload(MachineOpts::small_test(), SecurityMode::FsEncr, &mut ct).unwrap();
        assert!(r2.stats.cycles > 0);
    }

    #[test]
    fn ycsb_software_mode_is_much_slower() {
        let mut w1 = Ycsb::new(128, 128, 2);
        let dax = run_workload(
            MachineOpts::small_test(),
            SecurityMode::Unencrypted,
            &mut w1,
        )
        .unwrap();
        let mut w2 = Ycsb::new(128, 128, 2);
        let soft =
            run_workload(MachineOpts::small_test(), SecurityMode::Software, &mut w2).unwrap();
        assert!(
            soft.stats.cycles > dax.stats.cycles * 2,
            "software {} vs dax {}",
            soft.stats.cycles,
            dax.stats.cycles
        );
    }
}
