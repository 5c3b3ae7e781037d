//! PMEMKV-style `db_bench` workloads (Table II, middle block).
//!
//! Ten variants: {fillseq, fillrandom, overwrite, readrandom, readseq} x
//! {S = 64 B, L = 4 KiB values}, two threads, BTree engine. Each thread
//! owns a shard (its own tree file), the lock-free way pmemkv benchmarks
//! scale, so the memory system sees two concurrent, independent access
//! streams.

use fsencr::machine::{Machine, MachineError, MachineOpts};
use fsencr_fs::{GroupId, Mode, UserId};
use fsencr_sim::SplitMix64;

use crate::driver::{interleave, prefault, Workload};
use crate::kv::BTreeKv;

/// Which `db_bench` workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DbBench {
    /// Load values in sequential key order.
    FillSeq,
    /// Load values in random key order.
    FillRandom,
    /// Replace values of preloaded keys in random order.
    Overwrite,
    /// Read preloaded values in random key order.
    ReadRandom,
    /// Read preloaded values in sequential order (leaf-chain scan).
    ReadSeq,
    /// Delete preloaded keys in random order (a `db_bench` workload
    /// beyond the paper's Table II, exercising the removal paths).
    DeleteRandom,
}

impl DbBench {
    fn label(self) -> &'static str {
        match self {
            DbBench::FillSeq => "Fillseq",
            DbBench::FillRandom => "Fillrandom",
            DbBench::Overwrite => "Overwrite",
            DbBench::ReadRandom => "Readrandom",
            DbBench::ReadSeq => "Readseq",
            DbBench::DeleteRandom => "Deleterandom",
        }
    }

    fn needs_preload(self) -> bool {
        matches!(
            self,
            DbBench::Overwrite | DbBench::ReadRandom | DbBench::ReadSeq | DbBench::DeleteRandom
        )
    }
}

/// Cycles of application logic charged per KV operation (hashing,
/// comparisons, buffer management) in addition to the simulated memory
/// accesses.
const OP_COMPUTE_CYCLES: u64 = 200;

/// A configurable PMEMKV benchmark instance.
#[derive(Debug)]
pub struct PmemKv {
    bench: DbBench,
    value_bytes: usize,
    keys_per_thread: u64,
    ops_per_thread: u64,
    threads: usize,
    trees: Vec<BTreeKv>,
}

impl PmemKv {
    /// Fully parameterised constructor.
    ///
    /// # Panics
    ///
    /// Panics on zero sizes/counts.
    pub fn new(
        bench: DbBench,
        value_bytes: usize,
        keys_per_thread: u64,
        ops_per_thread: u64,
        threads: usize,
    ) -> Self {
        assert!(value_bytes > 0 && keys_per_thread > 0 && ops_per_thread > 0 && threads > 0);
        PmemKv {
            bench,
            value_bytes,
            keys_per_thread,
            ops_per_thread,
            threads,
            trees: Vec::new(),
        }
    }

    fn key_of(thread: usize, i: u64) -> u64 {
        ((thread as u64 + 1) << 48) | i
    }

    fn value_for(&self, key: u64) -> Vec<u8> {
        let mut v = vec![0u8; self.value_bytes];
        for (i, b) in v.iter_mut().enumerate() {
            *b = (key as u8).wrapping_add(i as u8);
        }
        v
    }

    /// A random existing key index sequence per thread.
    fn shuffled_indices(&self, thread: usize) -> Vec<u64> {
        let mut idx: Vec<u64> = (0..self.keys_per_thread).collect();
        let mut rng = SplitMix64::new(0x1234_5678 + thread as u64);
        for i in (1..idx.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            idx.swap(i, j);
        }
        idx
    }
}

impl Workload for PmemKv {
    fn name(&self) -> String {
        let size = if self.value_bytes >= 4096 { "L" } else { "S" };
        format!("{}-{}", self.bench.label(), size)
    }

    fn configure(&self, mut opts: MachineOpts) -> MachineOpts {
        // Room for shards: keys * (value + entry + node amortisation) * 2,
        // with slack for splits and the value log.
        let per_thread = self.keys_per_thread
            * (self.value_bytes as u64 + 64)
            + (self.ops_per_thread * self.value_bytes as u64)
            + (4 << 20);
        opts.pmem_bytes = (per_thread * self.threads as u64).next_power_of_two().max(32 << 20);
        opts
    }

    fn setup(&mut self, m: &mut Machine) -> Result<(), MachineError> {
        let user = UserId::new(1);
        let group = GroupId::new(1);
        self.trees.clear();
        // PMDK pools are fully allocated at creation time; pre-fault the
        // space the benchmark will use so the measured phase sees no
        // first-touch page faults.
        let pool_bytes = self.keys_per_thread * (self.value_bytes as u64 + 96)
            + self.ops_per_thread * self.value_bytes as u64
            + (1 << 20);
        for t in 0..self.threads {
            let h = m.create(user, group, &format!("pmemkv-{t}.db"), Mode::PRIVATE, Some("bench"))?;
            let map = m.mmap(&h)?;
            prefault(m, t, map, pool_bytes)?;
            self.trees.push(BTreeKv::create(m, t, map)?);
        }
        if self.bench.needs_preload() {
            for t in 0..self.threads {
                for i in 0..self.keys_per_thread {
                    let key = Self::key_of(t, i);
                    let v = self.value_for(key);
                    self.trees[t].put(m, t, key, &v)?;
                }
            }
        }
        Ok(())
    }

    fn run(&mut self, m: &mut Machine) -> Result<(), MachineError> {
        let trees = self.trees.clone();
        match self.bench {
            DbBench::FillSeq => {
                let ops = self.ops_per_thread.min(self.keys_per_thread);
                interleave(m, self.threads, ops as usize, |m, t, i| {
                    m.advance(t, OP_COMPUTE_CYCLES);
                    let key = Self::key_of(t, i as u64);
                    trees[t].put(m, t, key, &self.value_for(key))
                })
            }
            DbBench::FillRandom => {
                let order: Vec<Vec<u64>> = (0..self.threads).map(|t| self.shuffled_indices(t)).collect();
                let ops = self.ops_per_thread.min(self.keys_per_thread);
                interleave(m, self.threads, ops as usize, |m, t, i| {
                    m.advance(t, OP_COMPUTE_CYCLES);
                    let key = Self::key_of(t, order[t][i]);
                    trees[t].put(m, t, key, &self.value_for(key))
                })
            }
            DbBench::Overwrite => {
                let order: Vec<Vec<u64>> = (0..self.threads).map(|t| self.shuffled_indices(t)).collect();
                interleave(m, self.threads, self.ops_per_thread as usize, |m, t, i| {
                    m.advance(t, OP_COMPUTE_CYCLES);
                    let key = Self::key_of(t, order[t][i % order[t].len()]);
                    trees[t].put(m, t, key, &self.value_for(key ^ 0xff))
                })
            }
            DbBench::ReadRandom => {
                let mut rngs: Vec<SplitMix64> =
                    (0..self.threads).map(|t| SplitMix64::new(77 + t as u64)).collect();
                let mut buf = Vec::new();
                interleave(m, self.threads, self.ops_per_thread as usize, |m, t, _| {
                    m.advance(t, OP_COMPUTE_CYCLES);
                    let key = Self::key_of(t, rngs[t].next_below(self.keys_per_thread));
                    let found = trees[t].get(m, t, key, &mut buf)?;
                    debug_assert!(found);
                    Ok(())
                })
            }
            DbBench::DeleteRandom => {
                let order: Vec<Vec<u64>> = (0..self.threads).map(|t| self.shuffled_indices(t)).collect();
                let ops = self.ops_per_thread.min(self.keys_per_thread);
                interleave(m, self.threads, ops as usize, |m, t, i| {
                    m.advance(t, OP_COMPUTE_CYCLES);
                    let key = Self::key_of(t, order[t][i]);
                    let existed = trees[t].delete(m, t, key)?;
                    debug_assert!(existed);
                    Ok(())
                })
            }
            DbBench::ReadSeq => {
                // Each thread scans its shard once (or until the op budget).
                let budget = self.ops_per_thread;
                for (t, tree) in trees.iter().enumerate().take(self.threads) {
                    let mut left = budget;
                    tree.scan(m, t, |_k, _v| {
                        left = left.saturating_sub(1);
                    })?;
                    m.advance(t, OP_COMPUTE_CYCLES * budget.saturating_sub(left));
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_workload;
    use fsencr::machine::SecurityMode;

    fn tiny(bench: DbBench) -> PmemKv {
        PmemKv::new(bench, 64, 64, 64, 2)
    }

    #[test]
    fn all_benches_run_under_fsencr() {
        for bench in [
            DbBench::FillSeq,
            DbBench::FillRandom,
            DbBench::Overwrite,
            DbBench::ReadRandom,
            DbBench::ReadSeq,
        ] {
            let mut w = tiny(bench);
            let res = run_workload(MachineOpts::small_test(), SecurityMode::FsEncr, &mut w)
                .unwrap_or_else(|e| panic!("{bench:?}: {e}"));
            assert!(res.stats.cycles > 0, "{bench:?}");
        }
    }

    #[test]
    fn names_match_table_ii() {
        assert_eq!(tiny(DbBench::FillSeq).name(), "Fillseq-S");
        assert_eq!(PmemKv::new(DbBench::ReadRandom, 4096, 8, 8, 2).name(), "Readrandom-L");
    }

    #[test]
    fn write_benches_write_more_than_read_benches() {
        let mut fill = tiny(DbBench::FillRandom);
        let mut read = tiny(DbBench::ReadRandom);
        let w = run_workload(MachineOpts::small_test(), SecurityMode::MemoryOnly, &mut fill).unwrap();
        let r = run_workload(MachineOpts::small_test(), SecurityMode::MemoryOnly, &mut read).unwrap();
        assert!(
            w.stats.nvm_writes > r.stats.nvm_writes * 2,
            "fill={} read={}",
            w.stats.nvm_writes,
            r.stats.nvm_writes
        );
    }
}
