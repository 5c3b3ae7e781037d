//! The in-house DAX micro-benchmarks (Table II, top block).
//!
//! * **DAX-1 / DAX-2** — read one byte after every 16 / 128 bytes of a
//!   large memory-mapped persistent file. DAX-1's stride keeps several
//!   accesses inside each 64-byte line and every access inside the same
//!   counter block; DAX-2 sweeps pages 32x faster, stressing the metadata
//!   cache exactly as Section V-B describes.
//! * **DAX-3 / DAX-4** — initialise two arrays of 16 / 128 bytes at two
//!   (pseudo-random) locations and swap their contents: random placement,
//!   sequential access inside each array, persisted on every swap.

use fsencr::machine::{Machine, MachineError, MachineOpts, MapId};
use fsencr_fs::{GroupId, Mode, UserId};
use fsencr_sim::SplitMix64;

use crate::driver::Workload;

/// DAX-1/DAX-2: strided 1-byte reads.
#[derive(Debug)]
pub struct DaxStride {
    stride: u64,
    file_bytes: u64,
    reads: u64,
    map: Option<MapId>,
}

impl DaxStride {
    /// Fully parameterised constructor.
    ///
    /// # Panics
    ///
    /// Panics on zero parameters.
    pub fn new(stride: u64, file_bytes: u64, reads: u64) -> Self {
        assert!(stride > 0 && file_bytes > 0 && reads > 0);
        DaxStride {
            stride,
            file_bytes,
            reads,
            map: None,
        }
    }
}

impl Workload for DaxStride {
    fn name(&self) -> String {
        match self.stride {
            16 => "DAX-1".to_string(),
            128 => "DAX-2".to_string(),
            s => format!("DAX-stride-{s}"),
        }
    }

    fn configure(&self, mut opts: MachineOpts) -> MachineOpts {
        opts.pmem_bytes = (self.file_bytes * 2).next_power_of_two().max(32 << 20);
        opts
    }

    fn setup(&mut self, m: &mut Machine) -> Result<(), MachineError> {
        let h = m.create(
            UserId::new(1),
            GroupId::new(1),
            "dax-stride.bin",
            Mode::PRIVATE,
            Some("bench"),
        )?;
        let map = m.mmap(&h)?;
        // Materialise the file: write it page by page, persisted.
        let page = vec![0x77u8; 4096];
        for off in (0..self.file_bytes).step_by(4096) {
            m.write(0, map, off, &page)?;
            m.persist(0, map, off, 4096)?;
        }
        self.map = Some(map);
        Ok(())
    }

    fn run(&mut self, m: &mut Machine) -> Result<(), MachineError> {
        let map = self.map.expect("setup ran");
        let mut byte = [0u8; 1];
        for i in 0..self.reads {
            let off = (i * self.stride) % self.file_bytes;
            m.read(0, map, off, &mut byte)?;
        }
        Ok(())
    }
}

/// DAX-3/DAX-4: init-and-swap of two small arrays at changing locations.
#[derive(Debug)]
pub struct DaxSwap {
    elem_bytes: usize,
    file_bytes: u64,
    swaps: u64,
    map: Option<MapId>,
}

impl DaxSwap {
    /// Fully parameterised constructor.
    ///
    /// # Panics
    ///
    /// Panics on zero parameters.
    pub fn new(elem_bytes: usize, file_bytes: u64, swaps: u64) -> Self {
        assert!(elem_bytes > 0 && file_bytes > 0 && swaps > 0);
        DaxSwap {
            elem_bytes,
            file_bytes,
            swaps,
            map: None,
        }
    }
}

impl Workload for DaxSwap {
    fn name(&self) -> String {
        match self.elem_bytes {
            16 => "DAX-3".to_string(),
            128 => "DAX-4".to_string(),
            s => format!("DAX-swap-{s}"),
        }
    }

    fn configure(&self, mut opts: MachineOpts) -> MachineOpts {
        opts.pmem_bytes = (self.file_bytes * 2).next_power_of_two().max(32 << 20);
        opts
    }

    fn setup(&mut self, m: &mut Machine) -> Result<(), MachineError> {
        let h = m.create(
            UserId::new(1),
            GroupId::new(1),
            "dax-swap.bin",
            Mode::PRIVATE,
            Some("bench"),
        )?;
        self.map = Some(m.mmap(&h)?);
        Ok(())
    }

    fn run(&mut self, m: &mut Machine) -> Result<(), MachineError> {
        let map = self.map.expect("setup ran");
        let mut rng = SplitMix64::new(0xDA5);
        let elem = self.elem_bytes as u64;
        let span = self.file_bytes - elem;
        let mut a_buf = vec![0u8; self.elem_bytes];
        let mut b_buf = vec![0u8; self.elem_bytes];
        for i in 0..self.swaps {
            // Two random locations.
            let a = rng.next_below(span) & !15;
            let b = rng.next_below(span) & !15;
            // Initialise both arrays.
            a_buf.fill(i as u8);
            b_buf.fill((i as u8).wrapping_add(1));
            m.write(0, map, a, &a_buf)?;
            m.write(0, map, b, &b_buf)?;
            m.persist(0, map, a, elem)?;
            m.persist(0, map, b, elem)?;
            // Swap: read both, write crosswise, persist.
            m.read(0, map, a, &mut a_buf)?;
            m.read(0, map, b, &mut b_buf)?;
            m.write(0, map, a, &b_buf)?;
            m.write(0, map, b, &a_buf)?;
            m.persist(0, map, a, elem)?;
            m.persist(0, map, b, elem)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_workload;
    use fsencr::machine::SecurityMode;

    #[test]
    fn stride_benchmarks_run() {
        let mut w = DaxStride::new(16, 1 << 20, 2000);
        let res = run_workload(MachineOpts::small_test(), SecurityMode::FsEncr, &mut w).unwrap();
        assert_eq!(res.workload, "DAX-1");
        assert!(res.stats.cycles > 0);
    }

    #[test]
    fn wider_stride_misses_more_metadata() {
        // DAX-2 touches 8x more pages per byte read than DAX-1, so its
        // metadata hit rate must be lower under FsEncr. The 16 MiB file is
        // written in setup so the region the reads start in has been
        // evicted from the CPU caches by the time the run phase begins.
        let mut w1 = DaxStride::new(16, 16 << 20, 20_000);
        let mut w2 = DaxStride::new(128, 16 << 20, 20_000);
        let mut opts = MachineOpts::small_test();
        // Shrink the metadata cache so the 4 MiB file exceeds its reach.
        opts.config.security.metadata_cache.size_bytes = 16 << 10;
        let r1 = run_workload(opts, SecurityMode::FsEncr, &mut w1).unwrap();
        let r2 = run_workload(opts, SecurityMode::FsEncr, &mut w2).unwrap();
        assert!(
            r2.stats.meta_hit_rate() < r1.stats.meta_hit_rate(),
            "dax1 hit {} vs dax2 hit {}",
            r1.stats.meta_hit_rate(),
            r2.stats.meta_hit_rate()
        );
    }

    #[test]
    fn swap_benchmarks_run_and_write() {
        let mut w = DaxSwap::new(16, 1 << 20, 500);
        let res = run_workload(MachineOpts::small_test(), SecurityMode::FsEncr, &mut w).unwrap();
        assert_eq!(res.workload, "DAX-3");
        assert!(res.stats.nvm_writes > 500, "persists must reach NVM");
    }
}
