//! Simulation parameters.
//!
//! Defaults reproduce Table III of the paper: an 8-core 1 GHz out-of-order
//! x86-64 host, three cache levels, a DDR-attached PCM main memory, a 40 ns
//! AES engine, a 512 KiB metadata cache and a 9-level 8-ary Merkle tree.
//! Fractional nanosecond figures (tCL = 12.5 ns) are rounded up to whole
//! cycles, the conservative choice at a 1 GHz clock.

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Cache block size in bytes.
    pub block_bytes: usize,
    /// Access latency in core cycles.
    pub latency_cycles: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly or any field is zero.
    pub fn sets(&self) -> usize {
        assert!(
            self.size_bytes > 0 && self.ways > 0 && self.block_bytes > 0,
            "cache geometry fields must be positive"
        );
        let lines = self.size_bytes / self.block_bytes;
        assert_eq!(
            lines % self.ways,
            0,
            "cache lines ({lines}) must divide evenly into {} ways",
            self.ways
        );
        lines / self.ways
    }
}

/// Processor-side configuration (Table III, "Processor").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuConfig {
    /// Number of cores (workload threads map 1:1 onto cores). Cores run
    /// at the paper's 1 GHz, so one cycle is one nanosecond throughout.
    pub cores: usize,
    /// L1 data cache: private, 2 cycles, 32 KiB, 8-way.
    pub l1: CacheConfig,
    /// L2 cache: private, 20 cycles, 512 KiB, 8-way.
    pub l2: CacheConfig,
    /// L3 cache: shared, 32 cycles, 4 MiB, 64-way.
    pub l3: CacheConfig,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            cores: 8,
            l1: CacheConfig {
                size_bytes: 32 << 10,
                ways: 8,
                block_bytes: 64,
                latency_cycles: 2,
            },
            l2: CacheConfig {
                size_bytes: 512 << 10,
                ways: 8,
                block_bytes: 64,
                latency_cycles: 20,
            },
            l3: CacheConfig {
                size_bytes: 4 << 20,
                ways: 64,
                block_bytes: 64,
                latency_cycles: 32,
            },
        }
    }
}

/// DDR-based PCM main memory (Table III, "DDR-based PCM Main Memory").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NvmConfig {
    /// Total capacity in bytes (16 GiB in the paper).
    pub capacity_bytes: u64,
    /// Memory channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks_per_channel: usize,
    /// Banks per rank.
    pub banks_per_rank: usize,
    /// Row-buffer size in bytes (1 KiB).
    pub row_buffer_bytes: u64,
    /// PCM array read latency in ns (row activation cost), 60 ns.
    pub read_ns: u64,
    /// PCM array write latency in ns, 150 ns.
    pub write_ns: u64,
    /// tRCD: activate-to-column-command delay, 55 ns.
    pub t_rcd_ns: u64,
    /// tCL: column access latency, 12.5 ns rounded up to 13.
    pub t_cl_ns: u64,
    /// tBURST: data burst on the bus, 5 ns.
    pub t_burst_ns: u64,
    /// tWR: write recovery, 150 ns.
    pub t_wr_ns: u64,
    /// Row-buffer misses tolerated before the open-adaptive policy closes
    /// the row eagerly.
    pub adaptive_miss_threshold: u32,
}

impl Default for NvmConfig {
    fn default() -> Self {
        NvmConfig {
            capacity_bytes: 16 << 30,
            channels: 1,
            ranks_per_channel: 2,
            banks_per_rank: 8,
            row_buffer_bytes: 1 << 10,
            read_ns: 60,
            write_ns: 150,
            t_rcd_ns: 55,
            t_cl_ns: 13,
            t_burst_ns: 5,
            t_wr_ns: 150,
            adaptive_miss_threshold: 4,
        }
    }
}

impl NvmConfig {
    /// Total banks across all channels and ranks.
    pub fn total_banks(&self) -> usize {
        self.channels * self.ranks_per_channel * self.banks_per_rank
    }
}

/// Encryption-engine and security-metadata parameters
/// (Table III, "Encryption Parameters", plus Section III structures).
///
/// The Merkle tree is 8-ary in code and its depth follows from the
/// protected capacity (`MetadataLayout::merkle_levels`, at most 9 levels
/// at paper scale), so neither is a setting. The paper's OTT of eight
/// fully-associative 128-entry sub-tables searched in parallel is
/// modelled as one 1024-entry LRU table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecurityConfig {
    /// AES pad-generation latency in ns (40 ns).
    pub aes_ns: u64,
    /// Dedicated metadata cache for MECB/FECB/Merkle nodes: 512 KiB, 8-way.
    pub metadata_cache: CacheConfig,
    /// Osiris stop-loss period: counters are persisted every N updates.
    pub osiris_stop_loss: u32,
    /// OTT capacity in entries (8 x 128 = 1024).
    pub ott_entries: usize,
    /// OTT lookup latency in cycles (20, traded against TLB-like power).
    pub ott_latency_cycles: u64,
    /// Hash/MAC latency charged per Merkle level verified, in cycles.
    pub mac_cycles: u64,
    /// Ablation: model *direct* (ECB-style) encryption instead of counter
    /// mode — pad/decryption latency serialises after the data fetch
    /// instead of overlapping it (Section II-C of the paper explains why
    /// CTR mode wins).
    pub direct_encryption: bool,
    /// Section III-D option: statically partition the metadata cache per
    /// metadata kind (half for MECBs, a quarter each for FECBs and
    /// Merkle-tree nodes) instead of sharing it.
    pub partition_metadata_cache: bool,
}

impl Default for SecurityConfig {
    fn default() -> Self {
        SecurityConfig {
            aes_ns: 40,
            metadata_cache: CacheConfig {
                size_bytes: 512 << 10,
                ways: 8,
                block_bytes: 64,
                latency_cycles: 3,
            },
            osiris_stop_loss: 4,
            ott_entries: 1024,
            ott_latency_cycles: 20,
            mac_cycles: 40,
            direct_encryption: false,
            partition_metadata_cache: false,
        }
    }
}

/// Top-level machine configuration aggregating all subsystems.
///
/// # Examples
///
/// ```
/// use fsencr_sim::MachineConfig;
///
/// let cfg = MachineConfig::default();
/// assert_eq!(cfg.cpu.cores, 8);
/// assert_eq!(cfg.nvm.read_ns, 60);
/// assert_eq!(cfg.security.aes_ns, 40);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Processor and cache hierarchy.
    pub cpu: CpuConfig,
    /// PCM main memory.
    pub nvm: NvmConfig,
    /// Encryption engines and metadata structures.
    pub security: SecurityConfig,
}

impl MachineConfig {
    /// The paper's Table III configuration.
    pub fn paper_defaults() -> Self {
        MachineConfig {
            cpu: CpuConfig::default(),
            nvm: NvmConfig::default(),
            security: SecurityConfig::default(),
        }
    }
}

impl Default for MachineConfig {
    /// Defaults to [`MachineConfig::paper_defaults`] (Table III).
    fn default() -> Self {
        MachineConfig::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table_iii() {
        let cfg = MachineConfig::paper_defaults();
        assert_eq!(cfg.cpu.cores, 8);
        assert_eq!(cfg.cpu.l1.size_bytes, 32 << 10);
        assert_eq!(cfg.cpu.l1.latency_cycles, 2);
        assert_eq!(cfg.cpu.l2.size_bytes, 512 << 10);
        assert_eq!(cfg.cpu.l2.latency_cycles, 20);
        assert_eq!(cfg.cpu.l3.size_bytes, 4 << 20);
        assert_eq!(cfg.cpu.l3.ways, 64);
        assert_eq!(cfg.cpu.l3.latency_cycles, 32);
        assert_eq!(cfg.nvm.capacity_bytes, 16 << 30);
        assert_eq!(cfg.nvm.read_ns, 60);
        assert_eq!(cfg.nvm.write_ns, 150);
        assert_eq!(cfg.nvm.ranks_per_channel, 2);
        assert_eq!(cfg.nvm.banks_per_rank, 8);
        assert_eq!(cfg.nvm.row_buffer_bytes, 1024);
        assert_eq!(cfg.security.aes_ns, 40);
        assert_eq!(cfg.security.metadata_cache.size_bytes, 512 << 10);
        assert_eq!(cfg.security.metadata_cache.ways, 8);
        assert_eq!(cfg.security.ott_entries, 1024);
        assert_eq!(cfg.security.ott_latency_cycles, 20);
        assert_eq!(cfg.security.osiris_stop_loss, 4);
        assert_eq!(cfg.security.mac_cycles, 40);
    }

    #[test]
    fn cache_geometry() {
        let cfg = CpuConfig::default();
        assert_eq!(cfg.l1.sets(), 64);
        assert_eq!(cfg.l2.sets(), 1024);
        assert_eq!(cfg.l3.sets(), 1024);
    }

    #[test]
    #[should_panic(expected = "must divide evenly")]
    fn bad_geometry_panics() {
        CacheConfig {
            size_bytes: 640,
            ways: 3,
            block_bytes: 64,
            latency_cycles: 1,
        }
        .sets();
    }

    #[test]
    fn total_banks() {
        assert_eq!(NvmConfig::default().total_banks(), 16);
    }
}
