//! Command-line parsing. Every malformed argument becomes an [`ArgError`]
//! (exit code 2), never a panic.

use std::fmt;

/// Usage text printed with every argument error.
pub const USAGE: &str =
    "usage: fsencr-benchmark run --workload <pmemkv|whisper|dax|faults> --seed N \
[--seconds S] [--trace 0|1] [--scale-override X]\n       fsencr-benchmark expected";

/// The benchmark's workloads. Each runs closed-loop batch work: every
/// cell (or scenario) runs to completion before the pass ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figures 8-10 cells: PMEMKV db_bench under baseline security and FsEncr.
    Pmemkv,
    /// Figure 11 cells: Whisper YCSB/Hashmap/CTree under all four modes.
    Whisper,
    /// Figures 12-14 cells: the four DAX micro-benchmarks.
    Dax,
    /// A seeded fault-injection campaign.
    Faults,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Pmemkv,
        Workload::Whisper,
        Workload::Dax,
        Workload::Faults,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Pmemkv => "pmemkv",
            Workload::Whisper => "whisper",
            Workload::Dax => "dax",
            Workload::Faults => "faults",
        }
    }

    /// The harness figure whose cell list the workload runs; `None` for
    /// the fault campaign.
    pub fn figure(self) -> Option<&'static str> {
        match self {
            Workload::Pmemkv => Some("fig8-10"),
            Workload::Whisper => Some("fig11"),
            Workload::Dax => Some("fig12-14"),
            Workload::Faults => None,
        }
    }

    /// Scale of one timed pass. The correctness gates are recorded at
    /// exactly this scale.
    pub fn scale(self) -> f64 {
        match self {
            Workload::Pmemkv => 0.75,
            _ => 1.0,
        }
    }
}

/// What to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one workload and print its metrics.
    Run(RunArgs),
    /// Print the expected per-cell stats of the `pmemkv` workload.
    Expected,
}

/// Arguments of `run`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of the machine keys (simulated workloads) or of the campaign.
    pub seed: u64,
    /// Run the traced variant that prints the per-layer metrics.
    pub trace: bool,
    /// Replaces the workload's scale (smoke runs); disables the gates,
    /// which are recorded at the workload's own scale.
    pub scale_override: Option<f64>,
}

/// A rejected command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand was given.
    MissingCommand,
    /// The subcommand is not `run` or `expected`.
    UnknownCommand(String),
    /// An option the subcommand does not take.
    UnknownFlag(String),
    /// An option was given without its value.
    MissingValue(&'static str),
    /// A required option was not given.
    Missing(&'static str),
    /// The workload name is not one of [`Workload::ALL`].
    UnknownWorkload(String),
    /// The seed is not an unsigned 64-bit integer.
    BadSeed(String),
    /// `--seconds` is not a positive number.
    BadSeconds(String),
    /// The trace switch is not `0` or `1`.
    BadTrace(String),
    /// The scale is not a number in `(0, 1]`.
    BadScale(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => f.write_str("missing subcommand"),
            ArgError::UnknownCommand(s) => write!(f, "unknown subcommand `{s}`"),
            ArgError::UnknownFlag(s) => write!(f, "unknown option `{s}`"),
            ArgError::MissingValue(s) => write!(f, "option `{s}` needs a value"),
            ArgError::Missing(s) => write!(f, "option `{s}` is required"),
            ArgError::UnknownWorkload(s) => write!(
                f,
                "unknown workload `{s}` (known: pmemkv, whisper, dax, faults)"
            ),
            ArgError::BadSeed(s) => write!(f, "seed `{s}` is not an unsigned 64-bit integer"),
            ArgError::BadSeconds(s) => write!(f, "seconds `{s}` is not a positive number"),
            ArgError::BadTrace(s) => write!(f, "trace `{s}` is not 0 or 1"),
            ArgError::BadScale(s) => write!(f, "scale `{s}` is not a number in (0, 1]"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// The first malformed, unknown or missing argument.
pub fn parse(args: &[String]) -> Result<Command, ArgError> {
    let (cmd, rest) = args.split_first().ok_or(ArgError::MissingCommand)?;
    match cmd.as_str() {
        "run" => parse_run(rest).map(Command::Run),
        "expected" => match rest.first() {
            Some(extra) => Err(ArgError::UnknownFlag(extra.clone())),
            None => Ok(Command::Expected),
        },
        other => Err(ArgError::UnknownCommand(other.to_string())),
    }
}

fn parse_run(args: &[String]) -> Result<RunArgs, ArgError> {
    let mut workload = None;
    let mut seed = None;
    let mut trace = false;
    let mut scale_override = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name: &'static str = match flag.as_str() {
            "--workload" => "--workload",
            "--seed" => "--seed",
            "--seconds" => "--seconds",
            "--trace" => "--trace",
            "--scale-override" => "--scale-override",
            other => return Err(ArgError::UnknownFlag(other.to_string())),
        };
        let value = it.next().ok_or(ArgError::MissingValue(name))?;
        match name {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| ArgError::UnknownWorkload(value.clone()))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| ArgError::BadSeed(value.clone()))?,
                );
            }
            // `run_seconds` of BENCHMARK.json, which its runner passes to
            // every run. Each workload is a fixed amount of work timed in
            // one pass, so the value is checked and otherwise unused.
            "--seconds" => {
                value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| ArgError::BadSeconds(value.clone()))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(ArgError::BadTrace(value.clone())),
                };
            }
            _ => {
                scale_override = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 1.0)
                        .ok_or_else(|| ArgError::BadScale(value.clone()))?,
                );
            }
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or(ArgError::Missing("--workload"))?,
        seed: seed.ok_or(ArgError::Missing("--seed"))?,
        trace,
        scale_override,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Command, ArgError> {
        let args: Vec<String> = s.split_whitespace().map(str::to_string).collect();
        parse(&args)
    }

    #[test]
    fn parses_a_full_run_line() {
        let cmd =
            parse_str("run --workload dax --seed 7 --seconds 12 --trace 1 --scale-override 0.01");
        assert_eq!(
            cmd,
            Ok(Command::Run(RunArgs {
                workload: Workload::Dax,
                seed: 7,
                trace: true,
                scale_override: Some(0.01),
            }))
        );
        assert_eq!(parse_str("expected"), Ok(Command::Expected));
    }

    #[test]
    fn rejects_bad_arguments_with_typed_errors() {
        let cases = [
            ("", ArgError::MissingCommand),
            ("walk", ArgError::UnknownCommand("walk".into())),
            (
                "run --workload nope --seed 1",
                ArgError::UnknownWorkload("nope".into()),
            ),
            (
                "run --workload dax --seed -1",
                ArgError::BadSeed("-1".into()),
            ),
            (
                "run --workload dax --seed 1 --seconds 0",
                ArgError::BadSeconds("0".into()),
            ),
            (
                "run --workload dax --seed 1 --trace 2",
                ArgError::BadTrace("2".into()),
            ),
            (
                "run --workload dax --seed 1 --scale-override 1.5",
                ArgError::BadScale("1.5".into()),
            ),
            (
                "run --workload dax --seed 1 --scale-override NaN",
                ArgError::BadScale("NaN".into()),
            ),
            ("run --workload dax", ArgError::Missing("--seed")),
            ("run --seed 1", ArgError::Missing("--workload")),
            ("run --workload", ArgError::MissingValue("--workload")),
            ("run --jobs 4", ArgError::UnknownFlag("--jobs".into())),
        ];
        for (line, want) in cases {
            assert_eq!(parse_str(line), Err(want), "{line:?}");
        }
    }
}
