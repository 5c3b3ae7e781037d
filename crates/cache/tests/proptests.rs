//! Differential property tests: the cache hierarchy against a flat
//! reference memory. Whatever sequence of loads, stores, flushes and
//! fills occurs, a load must always observe the latest store.

use proptest::prelude::*;
use std::collections::HashMap;

use fsencr_cache::Hierarchy;
use fsencr_nvm::LineAddr;
use fsencr_sim::config::{CacheConfig, CpuConfig};

fn tiny_cpu() -> CpuConfig {
    let mk = |size: usize, ways: usize, lat: u64| CacheConfig {
        size_bytes: size,
        ways,
        block_bytes: 64,
        latency_cycles: lat,
    };
    CpuConfig {
        cores: 2,
        freq_mhz: 1000,
        l1: mk(4 * 64, 2, 2),
        l2: mk(8 * 64, 2, 20),
        l3: mk(16 * 64, 4, 32),
    }
}

#[derive(Debug, Clone)]
enum Op {
    Load { core: usize, line: u64 },
    Store { core: usize, line: u64, tag: u8 },
    Clwb { line: u64 },
    Clflush { line: u64 },
    FlushAll,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let line = 0u64..48; // enough lines to overflow the 28-line hierarchy
    prop_oneof![
        3 => (0usize..2, line.clone()).prop_map(|(core, line)| Op::Load { core, line }),
        3 => (0usize..2, line.clone(), any::<u8>())
            .prop_map(|(core, line, tag)| Op::Store { core, line, tag }),
        1 => line.clone().prop_map(|line| Op::Clwb { line }),
        1 => line.prop_map(|line| Op::Clflush { line }),
        1 => Just(Op::FlushAll),
    ]
}

proptest! {
    #[test]
    fn hierarchy_is_coherent_with_backing_memory(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut h = Hierarchy::new(&tiny_cpu());
        // The backing "memory": absorbs write-backs.
        let mut memory: HashMap<u64, [u8; 64]> = HashMap::new();
        // The reference model: last value stored per line.
        let mut model: HashMap<u64, [u8; 64]> = HashMap::new();

        let absorb = |memory: &mut HashMap<u64, [u8; 64]>, wbs: Vec<fsencr_cache::CacheLine>| {
            for wb in wbs {
                memory.insert(wb.addr.get() / 64, wb.data);
            }
        };

        for op in ops {
            match op {
                Op::Store { core, line, tag } => {
                    let data = [tag; 64];
                    let (_, _, wbs) = h.store(core, LineAddr::new(line * 64), data);
                    absorb(&mut memory, wbs);
                    model.insert(line, data);
                }
                Op::Load { core, line } => {
                    let out = h.load(core, LineAddr::new(line * 64));
                    absorb(&mut memory, out.writebacks);
                    let observed = match out.data {
                        Some(d) => d,
                        None => {
                            let d = memory.get(&line).copied().unwrap_or([0u8; 64]);
                            absorb(&mut memory, h.fill(core, LineAddr::new(line * 64), d));
                            d
                        }
                    };
                    let expect = model.get(&line).copied().unwrap_or([0u8; 64]);
                    prop_assert_eq!(observed, expect, "line {} diverged", line);
                }
                Op::Clwb { line } => {
                    if let Some(wb) = h.clwb(LineAddr::new(line * 64)) {
                        memory.insert(line, wb.data);
                    }
                }
                Op::Clflush { line } => {
                    if let Some(wb) = h.clflush(LineAddr::new(line * 64)) {
                        memory.insert(line, wb.data);
                    }
                }
                Op::FlushAll => {
                    absorb(&mut memory, h.flush_all());
                }
            }
        }

        // Final flush: memory must now equal the model exactly.
        let wbs = h.flush_all();
        for wb in wbs {
            memory.insert(wb.addr.get() / 64, wb.data);
        }
        for (line, expect) in &model {
            let got = memory.get(line).copied().unwrap_or([0u8; 64]);
            prop_assert_eq!(got, *expect, "after flush, line {} diverged", line);
        }
    }
}
