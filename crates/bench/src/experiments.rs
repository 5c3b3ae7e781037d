//! The experiments: every paper figure and ablation is a declared cell
//! grid, plus Table I.
//!
//! A figure's grid has workload rows and columns (machine options and a
//! security mode); each `(row, column)` pair is one independent
//! simulation cell. [`profile_cells`] lists a grid's cells row-major,
//! [`figures`] fans them out across worker threads (see [`crate::pool`]),
//! gathers the stats back in submission order and hands
//! `stats[row][col]` to the figure's reducer, so the output is identical
//! to a serial run at any worker count. One registry lists every figure
//! command ([`figure_names`]).

use std::sync::Arc;

use fsencr::machine::{Machine, MachineError, MachineOpts, SecurityMode};
use fsencr::security;
use fsencr::snapshot::StatsSnapshot;
use fsencr_crypto::Key128;
use fsencr_fs::{GroupId, Mode, UserId};
use fsencr_sim::config::SecurityConfig;
use fsencr_workloads::daxmicro::{DaxStride, DaxSwap};
use fsencr_workloads::driver::{run_workload, Workload};
use fsencr_workloads::pmemkv::{DbBench, PmemKv};
use fsencr_workloads::whisper::{CtreeBench, HashmapBench, Ycsb};

use crate::pool;
use crate::table::Figure;

use DbBench::{FillRandom, FillSeq, Overwrite, ReadRandom, ReadSeq};
use SecurityMode::{FsEncr, MemoryOnly, Software, Unencrypted};

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

/// Builds a fresh workload instance per cell run.
pub type Factory = Box<dyn Fn() -> Box<dyn Workload> + Send + Sync>;

/// One independent experiment cell: an owned `(workload, mode, config)`
/// triple that the figures and [`crate::profile`] fan out across the
/// pool. The factory is shared (`Arc`) because one workload row appears
/// once per grid column.
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

/// A labelled workload row of a grid.
type Row = (String, Arc<Factory>);

fn row(label: &str, make: impl Fn() -> Box<dyn Workload> + Send + Sync + 'static) -> Row {
    (label.to_string(), Arc::new(Box::new(make)))
}

/// A grid column: the suffix its cells' labels carry after the row name
/// (empty or `/tag`), and the machine options and mode every row runs
/// under.
type Column = (String, MachineOpts, SecurityMode);

/// One column per mode, all on the benchmark machine with its security
/// configuration edited by `edit`.
fn cols(tag: &str, edit: impl Fn(&mut SecurityConfig), modes: &[SecurityMode]) -> Vec<Column> {
    let mut opts = MachineOpts::benchmark();
    edit(&mut opts.config.security);
    modes.iter().map(|&m| (tag.into(), opts, m)).collect()
}

/// A figure's simulated grid: each row's label and its stats, one per
/// column.
type Stats = [(String, Vec<StatsSnapshot>)];

/// One figure command's cells and the reducer that turns their stats into
/// the figures it prints.
struct Grid {
    rows: Vec<Row>,
    cols: Vec<Column>,
    reduce: fn(&Stats) -> Vec<Figure>,
}

impl Grid {
    /// Every row under every column, row-major.
    fn cells(&self) -> Vec<ProfileCellSpec> {
        let cell = |(row, factory): &Row, (tag, opts, mode): &Column| ProfileCellSpec {
            label: format!("{row}{tag}"),
            opts: *opts,
            mode: *mode,
            factory: Arc::clone(factory),
        };
        let cells = self
            .rows
            .iter()
            .flat_map(|r| self.cols.iter().map(move |c| cell(r, c)));
        cells.collect()
    }
}

/// A figure command, its aliases and its grid.
type Entry = (&'static str, &'static [&'static str], fn(f64) -> Grid);

/// The figure registry: every figure command, in the order `harness all`
/// prints them.
const REGISTRY: [Entry; 9] = [
    ("fig3", &[], fig3),
    ("fig8-10", &["fig8", "fig9", "fig10"], fig8_10),
    ("fig11", &[], fig11),
    ("fig12-14", &["fig12", "fig13", "fig14"], fig12_14),
    ("fig15", &[], fig15),
    ("ablation-ott", &[], ablation_ott),
    ("ablation-osiris", &[], ablation_osiris),
    ("ablation-direct", &[], ablation_direct),
    ("ablation-partition", &[], ablation_partition),
];

/// Every figure command, in registry order (aliases left out).
pub fn figure_names() -> impl Iterator<Item = &'static str> {
    REGISTRY.iter().map(|&(name, _, _)| name)
}

fn grid(fig: &str, scale: f64) -> Option<Grid> {
    let (_, _, grid) = REGISTRY.iter().find(|e| e.0 == fig || e.1.contains(&fig))?;
    Some(grid(scale))
}

/// The cell list of figure command `fig` at `scale`, in the order the
/// figure itself runs them. `None` for anything that is not a figure
/// command (`table1`, `params`, `list`).
pub fn profile_cells(fig: &str, scale: f64) -> Option<Vec<ProfileCellSpec>> {
    Some(grid(fig, scale)?.cells())
}

/// Runs every cell of figure command `fig` at `scale` (concurrently when
/// the pool has more than one worker) and returns the figures it prints.
/// `None` for anything that is not a figure command.
pub fn figures(fig: &str, scale: f64) -> Option<Vec<Figure>> {
    let grid = grid(fig, scale)?;
    let stats = run_cells(&grid.cells(), |cell| {
        Ok(run_workload(cell.opts, cell.mode, (cell.factory)().as_mut())?.stats)
    });
    let labels = grid.rows.into_iter().map(|(label, _)| label);
    let rows: Vec<_> = labels
        .zip(stats.chunks(grid.cols.len()).map(<[_]>::to_vec))
        .collect();
    Some((grid.reduce)(&rows))
}

/// The one cell runner: `run` on every cell, concurrently when the pool
/// has more than one worker, with the results in the cells' order. A
/// failed cell aborts the figure it belongs to, the way a failed
/// assertion does: the figure has no value for that cell.
#[expect(
    clippy::panic,
    reason = "a figure with a failed cell has nothing to render"
)]
pub(crate) fn run_cells<T: Send>(
    cells: &[ProfileCellSpec],
    run: impl Fn(&ProfileCellSpec) -> Result<T, MachineError> + Sync,
) -> Vec<T> {
    let run = &run;
    let tasks = cells.iter().map(|cell| {
        move || run(cell).unwrap_or_else(|e| panic!("{} under {}: {e}", cell.label, cell.mode))
    });
    pool::run_tasks(tasks.collect())
}

/// What the harness prints for figure command `fig` at `scale`: its
/// figures, concatenated. `None` for anything that is not a figure
/// command.
pub fn render(fig: &str, scale: f64) -> Option<String> {
    let figs = figures(fig, scale)?;
    Some(figs.iter().map(ToString::to_string).collect())
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den as f64
}

/// A figure with one row per grid row, valued by `values` over that
/// row's stats.
fn per_row(
    title: &str,
    cols: &[&str],
    stats: &Stats,
    values: impl Fn(&[StatsSnapshot]) -> Vec<f64>,
) -> Figure {
    let mut fig = Figure::new(title, cols.iter().map(|c| c.to_string()).collect());
    for (label, s) in stats {
        fig.push(label.clone(), values(s));
    }
    fig
}

/// The slowdown / writes / reads triple of FsEncr (column `fse`)
/// normalized to baseline security (column `base`).
fn normalized(tag: &str, stats: &Stats, base: usize, fse: usize) -> Vec<Figure> {
    let title = |what: &str| format!("{tag}: {what} (normalized to baseline security)");
    vec![
        per_row(&title("FsEncr slowdown"), &["slowdown"], stats, |s| {
            vec![ratio(s[fse].cycles, s[base].cycles)]
        }),
        per_row(&title("NVM writes"), &["writes"], stats, |s| {
            vec![ratio(s[fse].nvm_writes.max(1), s[base].nvm_writes.max(1))]
        }),
        per_row(&title("NVM reads"), &["reads"], stats, |s| {
            vec![ratio(s[fse].nvm_reads.max(1), s[base].nvm_reads.max(1))]
        }),
    ]
}

/// Table II's PMEMKV rows: every db_bench benchmark with small (64 B)
/// and large (4 KiB) values.
fn pmemkv_rows(scale: f64) -> Vec<Row> {
    // Working sets exceed the 4.5 MiB cache hierarchy so that the read
    // benchmarks actually exercise the memory system.
    let small = (64, scaled(32768, scale), scaled(16384, scale));
    let large = (4096, scaled(3072, scale), scaled(3072, scale));
    let benches = [FillRandom, FillSeq, Overwrite, ReadRandom, ReadSeq];
    let rows = benches.into_iter().flat_map(|bench| {
        [small, large].map(|(value, keys, ops)| {
            let label = PmemKv::new(bench, value, 32, 32, 2).name();
            row(&label, move || {
                Box::new(PmemKv::new(bench, value, keys, ops, 2))
            })
        })
    });
    rows.collect()
}

/// Table II's Whisper rows.
fn whisper_rows(scale: f64) -> Vec<Row> {
    let n = scaled(16 * 1024, scale);
    vec![
        row("YCSB", move || Box::new(Ycsb::new(n, n, 2))),
        row("Hashmap", move || Box::new(HashmapBench::new(n, 2))),
        row("CTree", move || Box::new(CtreeBench::new(n, 2))),
    ]
}

/// Table II's DAX micro-benchmark rows.
fn dax_rows(scale: f64) -> Vec<Row> {
    let file = dax_file_bytes(scale);
    let (reads, swaps) = (scaled(400_000, scale), scaled(60_000, scale));
    vec![
        row("DAX-1", move || Box::new(DaxStride::new(16, file, reads))),
        row("DAX-2", move || Box::new(DaxStride::new(128, file, reads))),
        row("DAX-3", move || Box::new(DaxSwap::new(16, file, swaps))),
        row("DAX-4", move || Box::new(DaxSwap::new(128, file, swaps))),
    ]
}

/// The Table II rows named `names`, in that order.
fn table2(scale: f64, names: &[&str]) -> Vec<Row> {
    let all = [pmemkv_rows(scale), whisper_rows(scale), dax_rows(scale)].concat();
    let named = |name| all.iter().filter(move |(label, _)| label == name).cloned();
    names.iter().flat_map(named).collect()
}

/// Figure 3: slowdown of software filesystem encryption (eCryptfs model)
/// over plain ext4-DAX, Whisper benchmarks.
fn fig3(scale: f64) -> Grid {
    Grid {
        rows: whisper_rows(scale),
        cols: cols("", |_| {}, &[Unencrypted, Software]),
        reduce: |stats| {
            let title = "Figure 3: software-encryption slowdown (normalized to ext4-dax)";
            vec![per_row(title, &["slowdown"], stats, |s| {
                vec![ratio(s[1].cycles, s[0].cycles)]
            })]
        },
    }
}

/// Figures 8, 9, 10: PMEMKV slowdown / writes / reads, FsEncr normalized
/// to baseline security.
fn fig8_10(scale: f64) -> Grid {
    Grid {
        rows: pmemkv_rows(scale),
        cols: cols("", |_| {}, &[MemoryOnly, FsEncr]),
        reduce: |stats| normalized("Figures 8-10 (PMEMKV)", stats, 0, 1),
    }
}

/// Figure 11 (a,b,c): Whisper slowdown / writes / reads, plus the
/// software-encryption comparison the text quotes (98.33% overhead
/// reduction). All four security modes run once per workload.
fn fig11(scale: f64) -> Grid {
    Grid {
        rows: whisper_rows(scale),
        cols: cols("", |_| {}, &[Unencrypted, MemoryOnly, FsEncr, Software]),
        reduce: |stats| {
            let mut figs = normalized("Figure 11 (Whisper)", stats, 1, 2);
            let title = "Figure 11 (text): FsEncr reduction of filesystem-encryption overhead vs software [%]";
            figs.push(per_row(title, &["reduction %"], stats, |s| {
                let ov_soft = ratio(s[3].cycles, s[0].cycles) - 1.0;
                let ov_fse = (ratio(s[2].cycles, s[1].cycles) - 1.0).max(0.0);
                vec![100.0 * (1.0 - ov_fse / ov_soft.max(1e-9))]
            }));
            figs
        },
    }
}

/// Figures 12, 13, 14: synthetic DAX micro-benchmarks, FsEncr normalized
/// to baseline security.
fn fig12_14(scale: f64) -> Grid {
    Grid {
        rows: dax_rows(scale),
        cols: cols("", |_| {}, &[MemoryOnly, FsEncr]),
        reduce: |stats| normalized("Figures 12-14 (DAX micro)", stats, 0, 1),
    }
}

/// Figure 15's metadata-cache sizes.
const CACHE_SIZES: [(usize, &str); 5] = [
    (128 << 10, "128KB"),
    (256 << 10, "256KB"),
    (512 << 10, "512KB"),
    (1 << 20, "1MB"),
    (2 << 20, "2MB"),
];

/// Figure 15: sensitivity of FsEncr overhead to metadata-cache size for
/// Fillrandom-L, Hashmap and DAX-2. Values are percent slowdown over the
/// baseline-security machine with the *same* cache size.
fn fig15(scale: f64) -> Grid {
    let col = |(bytes, size)| {
        let edit = |s: &mut SecurityConfig| s.metadata_cache.size_bytes = bytes;
        cols(&format!("/{size}"), edit, &[MemoryOnly, FsEncr])
    };
    Grid {
        rows: table2(scale, &["Fillrandom-L", "Hashmap", "DAX-2"]),
        cols: CACHE_SIZES.into_iter().flat_map(col).collect(),
        reduce: |stats| {
            let title = "Figure 15: FsEncr slowdown [%] vs metadata-cache size";
            let sizes = CACHE_SIZES.map(|(_, size)| size);
            vec![per_row(title, &sizes, stats, |s| {
                let slowdown = |p: &[StatsSnapshot]| ratio(p[1].cycles, p[0].cycles) - 1.0;
                s.chunks(2).map(|p| 100.0 * slowdown(p)).collect()
            })]
        },
    }
}

const OTT_LATENCIES: [u64; 4] = [1, 20, 100, 400];

/// Ablation: OTT lookup latency (the paper trades 1 cycle for 20 to save
/// power — how far can that go?). Column 0 is baseline security; the
/// figure has one row per latency.
fn ablation_ott(scale: f64) -> Grid {
    let n = scaled(8 * 1024, scale);
    let col = |lat| {
        let edit = |s: &mut SecurityConfig| s.ott_latency_cycles = lat;
        cols(&format!("/ott-latency-{lat}"), edit, &[FsEncr])
    };
    let latencies = OTT_LATENCIES.into_iter().flat_map(col);
    Grid {
        rows: vec![row("YCSB", move || Box::new(Ycsb::new(n, n, 2)))],
        cols: cols("/baseline", |_| {}, &[MemoryOnly])
            .into_iter()
            .chain(latencies)
            .collect(),
        reduce: |stats| {
            let title = "Ablation: OTT lookup latency vs YCSB slowdown over baseline";
            let mut fig = Figure::new(title, vec!["slowdown".to_string()]);
            let s = &stats[0].1;
            for (lat, r) in OTT_LATENCIES.iter().zip(&s[1..]) {
                fig.push(
                    format!("ott-latency-{lat}"),
                    vec![ratio(r.cycles, s[0].cycles)],
                );
            }
            vec![fig]
        },
    }
}

/// Osiris stop-loss periods; the third, 4, is the paper's and the
/// ablation's reference.
const STOP_LOSSES: [u32; 5] = [1, 2, 4, 8, 16];

/// Ablation: Osiris stop-loss period vs write-heavy overhead (persisting
/// counters more often costs writes; less often lengthens recovery). The
/// figure has one row per period.
fn ablation_osiris(scale: f64) -> Grid {
    let n = scaled(4096, scale);
    let col = |n| {
        let edit = |s: &mut SecurityConfig| s.osiris_stop_loss = n;
        cols(&format!("/stop-loss-{n}"), edit, &[FsEncr])
    };
    Grid {
        rows: vec![row("Overwrite-S", move || {
            Box::new(PmemKv::new(Overwrite, 64, n, n, 2))
        })],
        cols: STOP_LOSSES.into_iter().flat_map(col).collect(),
        reduce: |stats| {
            let title = "Ablation: Osiris stop-loss vs Overwrite-S (normalized to stop-loss 4)";
            let mut fig = Figure::new(title, vec!["slowdown".into(), "nvm writes".into()]);
            let (s, reference) = (&stats[0].1, stats[0].1[2]);
            for (stop_loss, r) in STOP_LOSSES.iter().zip(s) {
                let slowdown = ratio(r.cycles, reference.cycles);
                let writes = ratio(r.nvm_writes, reference.nvm_writes.max(1));
                fig.push(format!("stop-loss-{stop_loss}"), vec![slowdown, writes]);
            }
            vec![fig]
        },
    }
}

/// Ablation: shared vs partitioned metadata cache (Section III-D floats
/// partitioning MECB/FECB/Merkle capacity; does it help or hurt?).
fn ablation_partition(scale: f64) -> Grid {
    let col = |p| {
        let edit = |s: &mut SecurityConfig| s.partition_metadata_cache = p;
        cols(&format!("/partitioned-{p}"), edit, &[MemoryOnly, FsEncr])
    };
    Grid {
        rows: table2(scale, &["Fillrandom-L", "DAX-2"]),
        cols: [false, true].into_iter().flat_map(col).collect(),
        reduce: |stats| {
            let title =
                "Ablation: metadata-cache partitioning (FsEncr slowdown over baseline security)";
            vec![per_row(title, &["shared", "partitioned"], stats, |s| {
                s.chunks(2)
                    .map(|p| ratio(p[1].cycles, p[0].cycles))
                    .collect()
            })]
        },
    }
}

/// Ablation: counter-mode vs direct (serialized) encryption — Section
/// II-C's justification for CTR mode.
fn ablation_direct(scale: f64) -> Grid {
    let (file, reads) = (dax_file_bytes(scale), scaled(200_000, scale));
    let dax1 = row("DAX-1", move || Box::new(DaxStride::new(16, file, reads)));
    let direct = cols("/direct", |s| s.direct_encryption = true, &[FsEncr]);
    Grid {
        rows: [vec![dax1], table2(scale, &["Readrandom-S"])].concat(),
        cols: [cols("", |_| {}, &[Unencrypted, FsEncr]), direct].concat(),
        reduce: |stats| {
            let title = "Ablation: CTR vs direct encryption (normalized to ext4-dax)";
            vec![per_row(title, &["ctr", "direct"], stats, |s| {
                vec![
                    ratio(s[1].cycles, s[0].cycles),
                    ratio(s[2].cycles, s[0].cycles),
                ]
            })]
        },
    }
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

    let leak = |m: &Machine, keys: &[Key128]| -> f64 {
        security::attacker_decrypts(m, &m.mem_key(), keys, SECRET) as u8 as f64
    };

    // System A has no file keys to reveal.
    let rows: [(&str, &[Key128], &[Key128]); 3] = [
        ("memory key revealed", &[], &[]),
        ("+ single fs key revealed", &[fs_key], other_key.as_slice()),
        ("+ all file keys revealed", &[fs_key], &all_keys_c),
    ];
    for (label, b_keys, c_keys) in rows {
        fig.push(
            label,
            vec![leak(&ma, &[]), leak(&mb, b_keys), leak(&mc, c_keys)],
        );
    }
    Ok(fig)
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
    fn every_figure_command_has_its_cell_grid() {
        // Cells per figure, in registry order, at any scale.
        let counts = [6, 20, 12, 8, 30, 5, 5, 6, 8];
        for scale in [0.01, 1.0] {
            for ((fig, aliases, _), n) in REGISTRY.into_iter().zip(counts) {
                for name in aliases.iter().chain([&fig]) {
                    let cells = profile_cells(name, scale).unwrap();
                    let mut keys: Vec<_> = (cells.iter())
                        .map(|c| format!("{} {} {:?}", c.label, c.mode, c.opts))
                        .collect();
                    keys.sort();
                    keys.dedup();
                    let what = "cells, each (label, mode, opts) once";
                    assert_eq!((cells.len(), keys.len()), (n, n), "{name} {what}");
                }
            }
        }
        for other in ["table1", "params", "list", "all", "fig16"] {
            assert!(profile_cells(other, 0.01).is_none(), "{other}");
        }
    }

    #[test]
    fn fig3_shows_software_overhead() {
        let figs = figures("fig3", 0.02).unwrap();
        for (name, v) in &figs[0].rows {
            assert!(v[0] > 1.2, "{name}: software slowdown {v:?} too small");
        }
    }

    #[test]
    fn smoke_fig8_shapes() {
        let figs = figures("fig8-10", 0.01).unwrap();
        for (name, v) in &figs[0].rows {
            assert!(v[0] > 0.9 && v[0] < 3.0, "{name} slowdown {v:?}");
        }
        // At smoke scale the absolute read/write counts are tiny, so the
        // ratios are noisy; just require them to be sane.
        for fig in &figs[1..] {
            for (name, v) in &fig.rows {
                assert!(v[0] > 0.2 && v[0] < 10.0, "{name} ratio {v:?} insane");
            }
        }
    }
}
