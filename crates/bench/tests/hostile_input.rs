//! `fsenctl` scripts and the harness's JSON artifacts are outside input:
//! any command line yields an output line (an `error: ...` line when it
//! is malformed), and any text parses to a value or a typed error. None
//! of them may panic.

use proptest::prelude::*;

use fsencr::machine::{MachineOpts, SecurityMode};
use fsencr_bench::jsonio::Json;
use fsencr_bench::shell::{Shell, ShellOutcome};

/// Every command the shell knows, plus an unknown one, each with the
/// kind of each argument it takes (see [`pool`]).
const COMMANDS: &[(&str, &str)] = &[
    ("create", "nugmp"),
    ("open", "nup"),
    ("close", "n"),
    ("write", "not"),
    ("read", "noo"),
    ("persist", "noo"),
    ("msync", "n"),
    ("chmod", "nmu"),
    ("unlink", "nu"),
    ("copy", "nnupp"),
    ("rekey", "nupp"),
    ("ls", ""),
    ("stat", "n"),
    ("stats", ""),
    ("mode", ""),
    ("scan", "t"),
    ("crash", ""),
    ("recover", ""),
    ("flush", ""),
    ("lock", ""),
    ("unlock", ""),
    ("profile", "wo"),
    ("help", ""),
    ("frobnicate", "t"),
];

/// The values tried for one kind of argument: names that exist and one
/// that does not, IDs and modes at and past their bounds, offsets and
/// lengths at line, page and `u64` edges, bad radix prefixes and signs.
fn pool(kind: u8) -> &'static [&'static str] {
    match kind {
        b'n' => &["f", "g", "h"],
        b'u' => &["1", "2", "0", "0x1", "4294967296", "-1"],
        b'g' => &["1", "2", "262143", "262144", "0x"],
        b'm' => &["600", "640", "777", "1000", "8", "0o7"],
        b'o' => &[
            "0",
            "1",
            "63",
            "64",
            "4095",
            "4096",
            "65536",
            "0x10",
            "-1",
            "18446744073709551615",
            "18446744073709551616",
        ],
        b'p' => &["pw", "pw2"],
        b'w' => &["on", "off", "json", "x"],
        _ => &["hi", "é", "\u{0}", "two words"],
    }
}

/// One command line: `COMMANDS[cmd]` with its arguments picked from
/// their pools by `picks`. `arity` 6 drops the last argument and 7 adds
/// a stray one; any other value keeps the command well formed.
fn command_line(cmd: usize, arity: u8, picks: &[usize]) -> String {
    let (word, kinds) = COMMANDS[cmd];
    let mut kinds = kinds.as_bytes().to_vec();
    match arity {
        6 => {
            kinds.pop();
        }
        7 => kinds.push(b't'),
        _ => {}
    }
    let mut line = word.to_string();
    for (kind, pick) in kinds.into_iter().zip(picks) {
        let values = pool(kind);
        line.push(' ');
        line.push_str(values[pick % values.len()]);
    }
    line
}

const MODES: [SecurityMode; 4] = [
    SecurityMode::Unencrypted,
    SecurityMode::MemoryOnly,
    SecurityMode::FsEncr,
    SecurityMode::Software,
];

/// Runs `lines` on a fresh shell in `mode` after creating two files, and
/// checks every command answers without panicking.
fn run_script(mode: SecurityMode, lines: &[String]) -> Result<(), TestCaseError> {
    let mut shell = Shell::new(mode, MachineOpts::small_test());
    let preamble = ["create f 1 1 600 pw", "create g 2 2 640"];
    for line in preamble
        .iter()
        .copied()
        .chain(lines.iter().map(String::as_str))
    {
        match shell.exec(line) {
            ShellOutcome::Output(_) => {}
            ShellOutcome::Quit => prop_assert!(
                matches!(line.split_whitespace().next(), Some("quit" | "exit")),
                "{line:?} quit"
            ),
        }
    }
    Ok(())
}

/// JSON fragments: every structural byte, escapes (good, bad, cut
/// short, lone surrogates), literals whole and truncated, numbers that
/// do and do not parse, and multi-byte characters.
const JSON_TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\"k\"",
    "\\",
    "\\u",
    "\\u00e9",
    "\\ud800",
    "\\u+041",
    "\\uzzzz",
    "\\q",
    "true",
    "tru",
    "false",
    "null",
    "nul",
    "0",
    "-",
    "1e999",
    "-0.5e-3",
    "18446744073709551616",
    "+",
    ".",
    "e",
    " ",
    "\n",
    "é",
    "€",
    "𝄞",
    "\u{0}",
];

/// Parses `src` and, on success, reads the value back through the
/// accessors the benchmark uses.
fn check_json(src: &str) -> Result<(), TestCaseError> {
    if let Ok(v) = Json::parse(src) {
        let _ = (v.get("k"), v.as_str(), v.as_u64(), v.as_f64(), v.as_arr());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn shell_scripts_never_panic(
        mode in 0usize..MODES.len(),
        script in prop::collection::vec(
            (0usize..COMMANDS.len(), 0u8..8, prop::collection::vec(0usize..16, 6)),
            1..24,
        ),
    ) {
        let lines: Vec<String> = script
            .iter()
            .map(|(cmd, arity, picks)| command_line(*cmd, *arity, picks))
            .collect();
        run_script(MODES[mode], &lines)?;
    }

    #[test]
    fn shell_arbitrary_lines_never_panic(
        mode in 0usize..MODES.len(),
        raw in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 1..8),
    ) {
        let lines: Vec<String> =
            raw.iter().map(|b| String::from_utf8_lossy(b).into_owned()).collect();
        run_script(MODES[mode], &lines)?;
    }

    #[test]
    fn json_arbitrary_bytes_parse_or_fail_typed(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        check_json(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn json_token_soup_parses_or_fails_typed(
        picks in prop::collection::vec(0usize..JSON_TOKENS.len(), 0..24),
    ) {
        let src: String = picks.iter().map(|&i| JSON_TOKENS[i]).collect();
        check_json(&src)?;
    }
}
