//! The experiments: one function per paper table/figure, plus ablations.
//!
//! Every figure decomposes into independent *cells* — one `(workload,
//! security mode, machine config)` simulation each. The cell lists are
//! built in deterministic source order, fanned out across worker threads
//! (see [`crate::pool`]), and gathered back in submission order before the
//! figure is assembled, so the output is identical to a serial run at any
//! worker count.

use std::sync::Arc;

use fsencr::machine::{MachineError, MachineOpts, SecurityMode};
use fsencr::security;
use fsencr::snapshot::StatsSnapshot;
use fsencr_crypto::Key128;
use fsencr_fs::{GroupId, Mode, UserId};
use fsencr_workloads::daxmicro::{DaxStride, DaxSwap};
use fsencr_workloads::driver::{run_workload, Workload};
use fsencr_workloads::pmemkv::{DbBench, PmemKv};
use fsencr_workloads::whisper::{CtreeBench, HashmapBench, Ycsb};

use crate::pool;
use crate::table::Figure;

use fsencr::machine::Machine;

#[expect(
    clippy::cast_possible_truncation,
    reason = "scale is in (0, 1], so the product fits the u64 it came from"
)]
fn scaled(n: u64, scale: f64) -> u64 {
    ((n as f64 * scale) as u64).max(32)
}

/// Bytes of the DAX micro-benchmark file at `scale`: 24 MiB scaled (never
/// below a fifth), rounded down to whole pages.
#[expect(
    clippy::cast_possible_truncation,
    reason = "at most 24 MiB: scale.max(0.2) is in [0.2, 1]"
)]
fn dax_file_bytes(scale: f64) -> u64 {
    ((24 << 20) as f64 * scale.max(0.2)) as u64 / 4096 * 4096
}

/// Aborts the figure a failed cell belongs to: the figure has no value
/// for that cell, so it stops the way a failed assertion does.
#[expect(
    clippy::panic,
    reason = "a figure with a failed cell has nothing to render"
)]
pub(crate) fn cell_failed(label: &str, mode: SecurityMode, e: MachineError) -> ! {
    panic!("{label} under {mode}: {e}")
}

fn run_with(opts: MachineOpts, mode: SecurityMode, w: &mut dyn Workload) -> StatsSnapshot {
    run_workload(opts, mode, w)
        .unwrap_or_else(|e| cell_failed(&w.name(), mode, e))
        .stats
}

/// Builds a fresh workload instance per cell run.
pub type Factory = Box<dyn Fn() -> Box<dyn Workload> + Send + Sync>;

/// Runs every cell (concurrently when the pool has more than one worker)
/// and returns the stats in the cells' submission order.
fn run_cells(cells: Vec<ProfileCellSpec>) -> Vec<StatsSnapshot> {
    let tasks: Vec<_> = cells
        .into_iter()
        .map(|cell| move || run_with(cell.opts, cell.mode, (*cell.factory)().as_mut()))
        .collect();
    pool::run_tasks(tasks)
}

fn whisper_factories(scale: f64) -> Vec<(String, Factory)> {
    let n = scaled(16 * 1024, scale);
    vec![
        (
            "YCSB".to_string(),
            Box::new(move || Box::new(Ycsb::new(n, n, 2)) as Box<dyn Workload>) as Factory,
        ),
        (
            "Hashmap".to_string(),
            Box::new(move || Box::new(HashmapBench::new(n, 2)) as Box<dyn Workload>),
        ),
        (
            "CTree".to_string(),
            Box::new(move || Box::new(CtreeBench::new(n, 2)) as Box<dyn Workload>),
        ),
    ]
}

fn pmemkv_factories(scale: f64) -> Vec<(String, Factory)> {
    let mut out: Vec<(String, Factory)> = Vec::new();
    for bench in [
        DbBench::FillRandom,
        DbBench::FillSeq,
        DbBench::Overwrite,
        DbBench::ReadRandom,
        DbBench::ReadSeq,
    ] {
        for large in [false, true] {
            // Working sets exceed the 4.5 MiB cache hierarchy so that the
            // read benchmarks actually exercise the memory system.
            let (value, keys, ops) = if large {
                (4096usize, scaled(3072, scale), scaled(3072, scale))
            } else {
                (64usize, scaled(32768, scale), scaled(16384, scale))
            };
            let name = PmemKv::new(bench, value, 32, 32, 2).name();
            out.push((
                name,
                Box::new(move || {
                    Box::new(PmemKv::new(bench, value, keys, ops, 2)) as Box<dyn Workload>
                }),
            ));
        }
    }
    out
}

fn daxmicro_factories(scale: f64) -> Vec<(String, Factory)> {
    let file = dax_file_bytes(scale);
    let reads = scaled(400_000, scale);
    let swaps = scaled(60_000, scale);
    vec![
        (
            "DAX-1".to_string(),
            Box::new(move || Box::new(DaxStride::new(16, file, reads)) as Box<dyn Workload>)
                as Factory,
        ),
        (
            "DAX-2".to_string(),
            Box::new(move || Box::new(DaxStride::new(128, file, reads)) as Box<dyn Workload>),
        ),
        (
            "DAX-3".to_string(),
            Box::new(move || Box::new(DaxSwap::new(16, file, swaps)) as Box<dyn Workload>),
        ),
        (
            "DAX-4".to_string(),
            Box::new(move || Box::new(DaxSwap::new(128, file, swaps)) as Box<dyn Workload>),
        ),
    ]
}

/// One independent experiment cell: an owned `(workload, mode, config)`
/// triple that the figures and [`crate::profile`] fan out across the
/// pool. The factory is shared (`Arc`) because one workload row appears
/// once per security mode or configuration.
pub struct ProfileCellSpec {
    /// Workload label, used for the figure row.
    pub label: String,
    /// Machine configuration for the cell.
    pub opts: MachineOpts,
    /// Security mode the cell runs under.
    pub mode: SecurityMode,
    /// Builds a fresh workload instance for the run.
    pub factory: Arc<Factory>,
}

/// A figure's labelled workload rows and the security modes each runs
/// under.
type Matrix = (Vec<(String, Factory)>, &'static [SecurityMode]);

/// The cell matrix of a paper figure: its workload rows and the security
/// modes every row runs under. The figure and its profile both read it.
/// `None` for subcommands without one (`table1`, `fig15`, ablations).
fn matrix(fig: &str, scale: f64) -> Option<Matrix> {
    use SecurityMode::{FsEncr, MemoryOnly, Software, Unencrypted};
    Some(match fig {
        "fig3" => (whisper_factories(scale), &[Unencrypted, Software]),
        "fig8" | "fig9" | "fig10" | "fig8-10" => (pmemkv_factories(scale), &[MemoryOnly, FsEncr]),
        "fig11" => (
            whisper_factories(scale),
            &[Unencrypted, MemoryOnly, FsEncr, Software],
        ),
        "fig12" | "fig13" | "fig14" | "fig12-14" => {
            (daxmicro_factories(scale), &[MemoryOnly, FsEncr])
        }
        _ => return None,
    })
}

/// Runs the cell matrix of `fig` (its [`profile_cells`]) and returns its
/// row labels and stats: `stats[i * modes + j]` is row `i` under the
/// matrix's mode `j`.
fn run_matrix(fig: &str, scale: f64) -> (Vec<String>, Vec<StatsSnapshot>) {
    let cells = profile_cells(fig, scale).unwrap_or_default();
    // A row's cells are adjacent and rows have distinct labels.
    let mut names: Vec<String> = cells.iter().map(|c| c.label.clone()).collect();
    names.dedup();
    (names, run_cells(cells))
}

/// The cell list of `fig` at `scale`, in the same deterministic
/// workload-major order the figure itself runs them. Returns `None` for
/// subcommands without a profilable workload/mode matrix (`table1`,
/// `fig15`, ablations).
pub fn profile_cells(fig: &str, scale: f64) -> Option<Vec<ProfileCellSpec>> {
    let (factories, modes) = matrix(fig, scale)?;
    Some(
        factories
            .into_iter()
            .flat_map(|(label, factory)| {
                let factory = Arc::new(factory);
                modes.iter().map(move |&mode| ProfileCellSpec {
                    label: label.clone(),
                    opts: MachineOpts::benchmark(),
                    mode,
                    factory: factory.clone(),
                })
            })
            .collect(),
    )
}

/// Figure 3: slowdown of software filesystem encryption (eCryptfs model)
/// over plain ext4-DAX, Whisper benchmarks.
pub fn fig3(scale: f64) -> Figure {
    let (names, stats) = run_matrix("fig3", scale);
    let mut fig = Figure::new(
        "Figure 3: software-encryption slowdown (normalized to ext4-dax)",
        vec!["slowdown".to_string()],
    );
    for (i, name) in names.into_iter().enumerate() {
        let dax = stats[2 * i];
        let soft = stats[2 * i + 1];
        fig.push(name, vec![soft.cycles as f64 / dax.cycles as f64]);
    }
    fig
}

/// Assembles the slowdown / writes / reads triple from per-workload
/// `(baseline security, FsEncr)` stat pairs.
fn normalized_from(
    tag: &str,
    rows: Vec<(String, StatsSnapshot, StatsSnapshot)>,
) -> (Figure, Figure, Figure) {
    let mut slow = Figure::new(
        format!("{tag}: FsEncr slowdown (normalized to baseline security)"),
        vec!["slowdown".to_string()],
    );
    let mut writes = Figure::new(
        format!("{tag}: NVM writes (normalized to baseline security)"),
        vec!["writes".to_string()],
    );
    let mut reads = Figure::new(
        format!("{tag}: NVM reads (normalized to baseline security)"),
        vec!["reads".to_string()],
    );
    for (name, base, fse) in rows {
        slow.push(name.clone(), vec![fse.cycles as f64 / base.cycles as f64]);
        writes.push(
            name.clone(),
            vec![fse.nvm_writes.max(1) as f64 / base.nvm_writes.max(1) as f64],
        );
        reads.push(
            name,
            vec![fse.nvm_reads.max(1) as f64 / base.nvm_reads.max(1) as f64],
        );
    }
    (slow, writes, reads)
}

/// Runs the `(baseline security, FsEncr)` matrix of `fig` and assembles
/// its normalized triple.
fn normalized_figures(tag: &str, fig: &str, scale: f64) -> (Figure, Figure, Figure) {
    let (names, stats) = run_matrix(fig, scale);
    let rows = names
        .into_iter()
        .enumerate()
        .map(|(i, name)| (name, stats[2 * i], stats[2 * i + 1]))
        .collect();
    normalized_from(tag, rows)
}

/// Figures 8, 9, 10: PMEMKV slowdown / writes / reads, FsEncr normalized
/// to baseline security.
pub fn fig8_9_10(scale: f64) -> (Figure, Figure, Figure) {
    normalized_figures("Figures 8-10 (PMEMKV)", "fig8-10", scale)
}

/// Figure 11 (a,b,c): Whisper slowdown / writes / reads, plus the
/// software-encryption comparison the text quotes (98.33% overhead
/// reduction). All four security modes run once per workload and the four
/// figures are assembled from that single matrix.
pub fn fig11(scale: f64) -> (Figure, Figure, Figure, Figure) {
    let (names, stats) = run_matrix("fig11", scale);
    // The matrix's modes: ext4-dax, baseline security, FsEncr, software.
    let row = |i: usize, j: usize| stats[i * 4 + j];
    let rows = names
        .iter()
        .enumerate()
        .map(|(i, name)| (name.clone(), row(i, 1), row(i, 2)))
        .collect();
    let (slow, writes, reads) = normalized_from("Figure 11 (Whisper)", rows);
    let mut reduction = Figure::new(
        "Figure 11 (text): FsEncr reduction of filesystem-encryption overhead vs software [%]",
        vec!["reduction %".to_string()],
    );
    for (i, name) in names.into_iter().enumerate() {
        let (dax, base, fse, soft) = (row(i, 0), row(i, 1), row(i, 2), row(i, 3));
        let ov_soft = soft.cycles as f64 / dax.cycles as f64 - 1.0;
        let ov_fse = (fse.cycles as f64 / base.cycles as f64 - 1.0).max(0.0);
        let red = 100.0 * (1.0 - ov_fse / ov_soft.max(1e-9));
        reduction.push(name, vec![red]);
    }
    (slow, writes, reads, reduction)
}

/// Figures 12, 13, 14: synthetic DAX micro-benchmarks, FsEncr normalized
/// to baseline security.
pub fn fig12_13_14(scale: f64) -> (Figure, Figure, Figure) {
    normalized_figures("Figures 12-14 (DAX micro)", "fig12-14", scale)
}

/// Figure 15: sensitivity of FsEncr overhead to metadata-cache size for
/// Fillrandom-L, Hashmap and DAX-2. Values are percent slowdown over the
/// baseline-security machine with the *same* cache size.
pub fn fig15(scale: f64) -> Figure {
    let sizes: &[(usize, &str)] = &[
        (128 << 10, "128KB"),
        (256 << 10, "256KB"),
        (512 << 10, "512KB"),
        (1 << 20, "1MB"),
        (2 << 20, "2MB"),
    ];
    let mut fig = Figure::new(
        "Figure 15: FsEncr slowdown [%] vs metadata-cache size",
        sizes.iter().map(|(_, n)| n.to_string()).collect(),
    );
    let n_large = scaled(3072, scale);
    let n_ops = scaled(16 * 1024, scale);
    let file = dax_file_bytes(scale);
    let reads = scaled(400_000, scale);
    let workloads: Vec<(String, Arc<Factory>)> = vec![
        (
            "Fillrandom-L".to_string(),
            Arc::new(Box::new(move || {
                Box::new(PmemKv::new(DbBench::FillRandom, 4096, n_large, n_large, 2))
                    as Box<dyn Workload>
            })),
        ),
        (
            "Hashmap".to_string(),
            Arc::new(Box::new(move || {
                Box::new(HashmapBench::new(n_ops, 2)) as Box<dyn Workload>
            })),
        ),
        (
            "DAX-2".to_string(),
            Arc::new(Box::new(move || {
                Box::new(DaxStride::new(128, file, reads)) as Box<dyn Workload>
            })),
        ),
    ];
    let mut cells = Vec::new();
    for (name, factory) in &workloads {
        for (bytes, size_name) in sizes {
            let mut opts = MachineOpts::benchmark();
            opts.config.security.metadata_cache.size_bytes = *bytes;
            for mode in [SecurityMode::MemoryOnly, SecurityMode::FsEncr] {
                cells.push(ProfileCellSpec {
                    label: format!("{name}/{size_name}"),
                    opts,
                    mode,
                    factory: Arc::clone(factory),
                });
            }
        }
    }
    let stats = run_cells(cells);
    for (w, (name, _)) in workloads.iter().enumerate() {
        let mut row = Vec::new();
        for s in 0..sizes.len() {
            let at = (w * sizes.len() + s) * 2;
            let (base, fse) = (stats[at], stats[at + 1]);
            row.push(100.0 * (fse.cycles as f64 / base.cycles as f64 - 1.0));
        }
        fig.push(name.clone(), row);
    }
    fig
}

const SECRET: &[u8] = b"CLASSIFIED-RECORD-FOR-TABLE-I";

fn secret_machine(
    mode: SecurityMode,
    extra_file: bool,
) -> Result<(Machine, Key128, Option<Key128>), MachineError> {
    let mut m = Machine::new(MachineOpts::small_test(), mode);
    let user = UserId::new(1);
    let h = m.create(user, GroupId::new(1), "secret", Mode::PRIVATE, Some("pw"))?;
    let fek = h.fek.unwrap_or(Key128::from_seed(0));
    let map = m.mmap(&h)?;
    m.write(0, map, 0, SECRET)?;
    m.persist(0, map, 0, SECRET.len() as u64)?;
    let other = if extra_file {
        let h2 = m.create(user, GroupId::new(1), "other", Mode::PRIVATE, Some("pw2"))?;
        let map2 = m.mmap(&h2)?;
        m.write(0, map2, 0, b"unrelated")?;
        m.persist(0, map2, 0, 9)?;
        h2.fek
    } else {
        None
    };
    m.shutdown_flush()?;
    Ok((m, fek, other))
}

/// Table I: vulnerability of systems A (memory encryption only), B (one
/// filesystem key) and C (per-file keys) as the attacker accumulates
/// keys. 1 = the secret is exposed, 0 = protected.
///
/// # Errors
///
/// A machine failure while writing the secret.
pub fn table1() -> Result<Figure, MachineError> {
    let mut fig = Figure::new(
        "Table I: vulnerability (1 = secret exposed)",
        vec![
            "System A".to_string(),
            "System B".to_string(),
            "System C".to_string(),
        ],
    );
    fig.summarize = false;

    // System A: memory encryption only.
    let (ma, _, _) = secret_machine(SecurityMode::MemoryOnly, false)?;
    // System B: whole-filesystem key, modelled as FsEncr with the single
    // shared key protecting the secret.
    let (mb, fs_key, _) = secret_machine(SecurityMode::FsEncr, false)?;
    // System C: per-file keys; the attacker's "single filesystem key" is
    // some *other* file's key.
    let (mc, file_key, other_key) = secret_machine(SecurityMode::FsEncr, true)?;
    let all_keys_c: Vec<Key128> = other_key.into_iter().chain([file_key]).collect();

    let mem_a = ma.mem_key();
    let mem_b = mb.mem_key();
    let mem_c = mc.mem_key();

    let leak = |m: &Machine, mem: &Key128, keys: &[Key128]| -> f64 {
        security::attacker_decrypts(m, mem, keys, SECRET) as u8 as f64
    };

    fig.push(
        "memory key revealed",
        vec![
            leak(&ma, &mem_a, &[]),
            leak(&mb, &mem_b, &[]),
            leak(&mc, &mem_c, &[]),
        ],
    );
    fig.push(
        "+ single fs key revealed",
        vec![
            leak(&ma, &mem_a, &[]),
            leak(&mb, &mem_b, &[fs_key]),
            leak(&mc, &mem_c, other_key.as_slice()),
        ],
    );
    fig.push(
        "+ all file keys revealed",
        vec![
            leak(&ma, &mem_a, &[]),
            leak(&mb, &mem_b, &[fs_key]),
            leak(&mc, &mem_c, &all_keys_c),
        ],
    );
    Ok(fig)
}

/// Ablation: OTT lookup latency (the paper trades 1 cycle for 20 to save
/// power — how far can that go?).
pub fn ablation_ott(scale: f64) -> Figure {
    let mut fig = Figure::new(
        "Ablation: OTT lookup latency vs YCSB slowdown over baseline",
        vec!["slowdown".to_string()],
    );
    let n = scaled(8 * 1024, scale);
    let factory: Arc<Factory> = Arc::new(Box::new(move || {
        Box::new(Ycsb::new(n, n, 2)) as Box<dyn Workload>
    }));
    let latencies = [1u64, 20, 100, 400];
    let mut cells = vec![ProfileCellSpec {
        label: "YCSB/baseline".to_string(),
        opts: MachineOpts::benchmark(),
        mode: SecurityMode::MemoryOnly,
        factory: Arc::clone(&factory),
    }];
    for lat in latencies {
        let mut opts = MachineOpts::benchmark();
        opts.config.security.ott_latency_cycles = lat;
        cells.push(ProfileCellSpec {
            label: format!("YCSB/ott-latency-{lat}"),
            opts,
            mode: SecurityMode::FsEncr,
            factory: Arc::clone(&factory),
        });
    }
    let stats = run_cells(cells);
    let base = stats[0];
    for (i, lat) in latencies.iter().enumerate() {
        fig.push(
            format!("ott-latency-{lat}"),
            vec![stats[i + 1].cycles as f64 / base.cycles as f64],
        );
    }
    fig
}

/// Ablation: Osiris stop-loss period vs write-heavy overhead (persisting
/// counters more often costs writes; less often lengthens recovery).
pub fn ablation_osiris(scale: f64) -> Figure {
    let mut fig = Figure::new(
        "Ablation: Osiris stop-loss vs Overwrite-S (normalized to stop-loss 4)",
        vec!["slowdown".to_string(), "nvm writes".to_string()],
    );
    let n = scaled(4096, scale);
    let factory: Arc<Factory> = Arc::new(Box::new(move || {
        Box::new(PmemKv::new(DbBench::Overwrite, 64, n, n, 2)) as Box<dyn Workload>
    }));
    let stop_losses = [1u32, 2, 4, 8, 16];
    let mut cells = vec![ProfileCellSpec {
        label: "Overwrite-S/reference".to_string(),
        opts: MachineOpts::benchmark(),
        mode: SecurityMode::FsEncr,
        factory: Arc::clone(&factory),
    }];
    for stop_loss in stop_losses {
        let mut opts = MachineOpts::benchmark();
        opts.config.security.osiris_stop_loss = stop_loss;
        cells.push(ProfileCellSpec {
            label: format!("Overwrite-S/stop-loss-{stop_loss}"),
            opts,
            mode: SecurityMode::FsEncr,
            factory: Arc::clone(&factory),
        });
    }
    let stats = run_cells(cells);
    let reference = stats[0];
    for (i, stop_loss) in stop_losses.iter().enumerate() {
        let r = stats[i + 1];
        fig.push(
            format!("stop-loss-{stop_loss}"),
            vec![
                r.cycles as f64 / reference.cycles as f64,
                r.nvm_writes as f64 / reference.nvm_writes.max(1) as f64,
            ],
        );
    }
    fig
}

/// Ablation: shared vs partitioned metadata cache (Section III-D floats
/// partitioning MECB/FECB/Merkle capacity; does it help or hurt?).
pub fn ablation_partition(scale: f64) -> Figure {
    let mut fig = Figure::new(
        "Ablation: metadata-cache partitioning (FsEncr slowdown over baseline security)",
        vec!["shared".to_string(), "partitioned".to_string()],
    );
    let n_large = scaled(3072, scale);
    let file = dax_file_bytes(scale);
    let reads = scaled(400_000, scale);
    let factories: Vec<(String, Arc<Factory>)> = vec![
        (
            "Fillrandom-L".to_string(),
            Arc::new(Box::new(move || {
                Box::new(PmemKv::new(DbBench::FillRandom, 4096, n_large, n_large, 2))
                    as Box<dyn Workload>
            })),
        ),
        (
            "DAX-2".to_string(),
            Arc::new(Box::new(move || {
                Box::new(DaxStride::new(128, file, reads)) as Box<dyn Workload>
            })),
        ),
    ];
    let mut cells = Vec::new();
    for (name, factory) in &factories {
        for partitioned in [false, true] {
            let mut opts = MachineOpts::benchmark();
            opts.config.security.partition_metadata_cache = partitioned;
            for mode in [SecurityMode::MemoryOnly, SecurityMode::FsEncr] {
                cells.push(ProfileCellSpec {
                    label: format!("{name}/partitioned-{partitioned}"),
                    opts,
                    mode,
                    factory: Arc::clone(factory),
                });
            }
        }
    }
    let stats = run_cells(cells);
    for (i, (name, _)) in factories.iter().enumerate() {
        let mut row = Vec::new();
        for p in 0..2 {
            let at = (i * 2 + p) * 2;
            row.push(stats[at + 1].cycles as f64 / stats[at].cycles as f64);
        }
        fig.push(name.clone(), row);
    }
    fig
}

/// Ablation: counter-mode vs direct (serialized) encryption — Section
/// II-C's justification for CTR mode.
pub fn ablation_direct(scale: f64) -> Figure {
    let mut fig = Figure::new(
        "Ablation: CTR vs direct encryption (normalized to ext4-dax)",
        vec!["ctr".to_string(), "direct".to_string()],
    );
    let file = dax_file_bytes(scale);
    let reads = scaled(200_000, scale);
    let factories: Vec<(String, Arc<Factory>)> = vec![
        (
            "DAX-1".to_string(),
            Arc::new(Box::new(move || {
                Box::new(DaxStride::new(16, file, reads)) as Box<dyn Workload>
            })),
        ),
        (
            "Readrandom-S".to_string(),
            Arc::new(Box::new(move || {
                Box::new(PmemKv::new(
                    DbBench::ReadRandom,
                    64,
                    scaled(32768, scale),
                    scaled(16384, scale),
                    2,
                )) as Box<dyn Workload>
            })),
        ),
    ];
    let mut direct_opts = MachineOpts::benchmark();
    direct_opts.config.security.direct_encryption = true;
    let mut cells = Vec::new();
    for (name, factory) in &factories {
        cells.push(ProfileCellSpec {
            label: name.clone(),
            opts: MachineOpts::benchmark(),
            mode: SecurityMode::Unencrypted,
            factory: Arc::clone(factory),
        });
        cells.push(ProfileCellSpec {
            label: name.clone(),
            opts: MachineOpts::benchmark(),
            mode: SecurityMode::FsEncr,
            factory: Arc::clone(factory),
        });
        cells.push(ProfileCellSpec {
            label: format!("{name}/direct"),
            opts: direct_opts,
            mode: SecurityMode::FsEncr,
            factory: Arc::clone(factory),
        });
    }
    let stats = run_cells(cells);
    for (i, (name, _)) in factories.iter().enumerate() {
        let (dax, ctr, direct) = (stats[3 * i], stats[3 * i + 1], stats[3 * i + 2]);
        fig.push(
            name.clone(),
            vec![
                ctr.cycles as f64 / dax.cycles as f64,
                direct.cycles as f64 / dax.cycles as f64,
            ],
        );
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper_matrix() {
        let fig = table1().unwrap();
        // Row 1: only A falls.
        assert_eq!(fig.value("memory key revealed", "System A"), Some(1.0));
        assert_eq!(fig.value("memory key revealed", "System B"), Some(0.0));
        assert_eq!(fig.value("memory key revealed", "System C"), Some(0.0));
        // Row 2: A and B fall, C still stands.
        assert_eq!(fig.value("+ single fs key revealed", "System B"), Some(1.0));
        assert_eq!(fig.value("+ single fs key revealed", "System C"), Some(0.0));
        // Row 3: everything falls.
        assert_eq!(fig.value("+ all file keys revealed", "System C"), Some(1.0));
    }

    #[test]
    fn fig3_shows_software_overhead() {
        let fig = fig3(0.02);
        for (name, v) in &fig.rows {
            assert!(v[0] > 1.2, "{name}: software slowdown {v:?} too small");
        }
    }

    #[test]
    fn smoke_fig8_shapes() {
        let (slow, writes, reads) = fig8_9_10(0.01);
        for (name, v) in &slow.rows {
            assert!(v[0] > 0.9 && v[0] < 3.0, "{name} slowdown {v:?}");
        }
        // At smoke scale the absolute read/write counts are tiny, so the
        // ratios are noisy; just require them to be sane.
        for fig in [&writes, &reads] {
            for (name, v) in &fig.rows {
                assert!(v[0] > 0.2 && v[0] < 10.0, "{name} ratio {v:?} insane");
            }
        }
    }
}
