//! Campaign specs are outside input (`harness faults --campaign`): any
//! string parses to a spec within its range checks or to a typed
//! [`SpecError`], and never panics.

use proptest::prelude::*;

use fsencr_faults::{CampaignSpec, SpecError};

/// Fragments that reach every branch of the parser: knob names (known
/// and not), separators, padding, and numbers at and past each bound.
const TOKENS: &[&str] = &[
    "scenarios",
    "ops",
    "bitrot",
    "torn",
    "cuts",
    "stuck",
    "default",
    "seed",
    "=",
    "==",
    ",",
    ",,",
    " ",
    "\t",
    "0",
    "1",
    "64",
    "4096",
    "4097",
    "1000000",
    "1000001",
    "-1",
    "+7",
    "18446744073709551615",
    "18446744073709551616",
    "0x10",
    "é",
    "\u{0}",
];

/// Parses `input` and checks the verdict is well formed.
fn check(input: &str) -> Result<(), TestCaseError> {
    match input.parse::<CampaignSpec>() {
        Ok(spec) => {
            prop_assert!(
                (1..=4096).contains(&spec.scenarios),
                "scenarios {}",
                spec.scenarios
            );
            prop_assert!((1..=1_000_000).contains(&spec.ops), "ops {}", spec.ops);
            for v in [spec.bit_rot, spec.torn, spec.power_cuts, spec.stuck] {
                prop_assert!(v <= 4096, "fault knob {v}");
            }
            prop_assert_eq!(spec.to_string().parse::<CampaignSpec>(), Ok(spec));
        }
        Err(e) => {
            prop_assert!(!e.to_string().is_empty());
            if let SpecError::OutOfRange(knob) = e {
                prop_assert!(
                    ["scenarios", "ops", "bitrot", "torn", "cuts", "stuck"].contains(&knob),
                    "unknown knob {knob}"
                );
            }
        }
    }
    Ok(())
}

/// Knob names, known and not.
const KEYS: &[&str] = &[
    "scenarios",
    "ops",
    "bitrot",
    "torn",
    "cuts",
    "stuck",
    "seed",
    " ops ",
    "",
];
/// Values at and past each bound, and ones that are not counts.
const VALUES: &[&str] = &[
    "0",
    "1",
    "64",
    " 4096",
    "4097",
    "1000000",
    "1000001",
    "-1",
    "",
    "18446744073709551616",
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_parse_or_fail_typed(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        check(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn token_soup_parses_or_fails_typed(picks in prop::collection::vec(0usize..TOKENS.len(), 0..16)) {
        let input: String = picks.iter().map(|&i| TOKENS[i]).collect();
        check(&input)?;
    }

    #[test]
    fn key_value_lists_parse_or_fail_typed(
        entries in prop::collection::vec((0usize..KEYS.len(), 0usize..VALUES.len()), 0..7),
    ) {
        let input: Vec<String> =
            entries.iter().map(|&(k, v)| format!("{}={}", KEYS[k], VALUES[v])).collect();
        check(&input.join(","))?;
    }
}
