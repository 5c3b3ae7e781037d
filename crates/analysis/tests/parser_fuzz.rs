//! Fuzzing the analyzer with the analyzer's own medicine: the item
//! parser enforces no-panic rules on the workspace, so it had better
//! not panic itself. Generated token streams — nested generics,
//! lifetimes, `cfg` attrs, macro-ish brackets, plain garbage — must
//! never panic [`analysis::items::parse`], and every item it does
//! recover must carry self-consistent spans ([`FileItems::validate`]).
//!
//! [`FileItems::validate`]: analysis::items::FileItems::validate

use proptest::prelude::*;

use analysis::items::{self, FileItems};

/// Source fragments the generator splices together. Deliberately
/// hostile: unclosed brackets, stray keywords, generic soup, attrs in
/// odd places, lifetimes, raw macro-ish content.
const FRAGMENTS: [&str; 32] = [
    "fn",
    "impl",
    "struct",
    "use",
    "pub",
    "where",
    "for",
    "self",
    "&mut self",
    "mod m",
    "#[cfg(test)]",
    "#[inline(always)]",
    "'a",
    "'static",
    "<",
    ">",
    "<T: Iterator<Item = &'a [u8; 64]>>",
    "(",
    ")",
    "{",
    "}",
    "[u8; 64]",
    "::",
    "->",
    ";",
    ",",
    "x.y.z.write_line(now, addr, &data)",
    "PadInput { page_id: 1 }",
    "vec![1, 2, 3]",
    "\"a { string } with ( brackets\"",
    "ident",
    "0xDEAD_BEEF",
];

/// A parse must neither panic nor produce items whose spans lie.
fn assert_well_formed(src: &str) -> Result<(), TestCaseError> {
    let parsed = items::parse(src);
    if let Err(msg) = parsed.validate() {
        return Err(TestCaseError::fail(format!(
            "invalid items for {src:?}: {msg}"
        )));
    }
    // Determinism: the same source parses to the same item skeleton.
    let again = items::parse(src);
    prop_assert_eq!(skeleton(&parsed), skeleton(&again));
    Ok(())
}

/// A comparable digest of the parse result (names, spans, call counts).
fn skeleton(items: &FileItems) -> Vec<(String, usize, usize, usize)> {
    items
        .fns
        .iter()
        .map(|f| (f.qualified(), f.span.start, f.span.end, f.calls.len()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn random_fragment_streams_never_panic_the_parser(
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..120),
        seps in prop::collection::vec(0u8..3, 0..120),
    ) {
        let mut src = String::new();
        for (i, &pick) in picks.iter().enumerate() {
            src.push_str(FRAGMENTS[pick]);
            match seps.get(i).copied().unwrap_or(0) {
                0 => src.push(' '),
                1 => src.push('\n'),
                _ => {}
            }
        }
        assert_well_formed(&src)?;
    }

    #[test]
    fn deeply_nested_generics_and_bodies_round_trip(
        depth in 0usize..24,
        body_calls in 0usize..8,
        test_attr in 0u8..2,
    ) {
        // fn f<T: A<B<C<...>>>>(x: &T) -> X<...> { g(); g(); ... }
        let mut generics = String::from("T");
        for _ in 0..depth {
            generics = format!("Wrap<{generics}>");
        }
        let attr = if test_attr == 1 { "#[cfg(test)]\nmod t {" } else { "" };
        let calls = "g(x);\n".repeat(body_calls);
        let close = if test_attr == 1 { "}" } else { "" };
        let src = format!(
            "{attr}\nfn deep<A: Iterator<Item = {generics}>>(x: &{generics}) -> {generics} {{\n{calls}}}\n{close}"
        );
        let parsed = items::parse(&src);
        prop_assert!(parsed.validate().is_ok());
        let f = parsed.fns.iter().find(|f| f.name == "deep");
        prop_assert!(f.is_some(), "parser lost the fn item in {src:?}");
        let f = f.expect("checked above");
        prop_assert_eq!(f.calls.len(), body_calls);
        prop_assert_eq!(f.in_test, test_attr == 1);
    }

    #[test]
    fn truncated_real_items_never_panic(cut in 0usize..400) {
        // Chop a realistic impl mid-token-stream: the parser sees
        // exactly this shape on every half-saved editor buffer.
        let src = "impl<'a, T: AsRef<[u8]>> MemoryController {\n\
                   pub fn write_line(&mut self, addr: PhysAddr, plain: &'a [u8; 64]) -> Cycle {\n\
                   let pad = line_pad_with(&self.mem_aes, &PadInput { page_id: 3, minor: 1 });\n\
                   self.nvm.write_line(now, addr, &cipher)\n}\n}\n";
        let cut = cut.min(src.len());
        // Cut only at char boundaries (ASCII source, so everywhere).
        assert_well_formed(&src[..cut])?;
    }
}

#[test]
fn fuzz_corpus_regressions_parse_clean() {
    // Shapes that broke (or nearly broke) earlier parser drafts; kept
    // as a deterministic corpus so they can never break silently again.
    let corpus = [
        "",
        "fn",
        "fn (",
        "fn f",
        "fn f(",
        "fn f() -> [u8; 64] { g() }",
        "fn f() -> fn(i32) -> i32 { g }",
        "impl T for",
        "impl Trait for Type { fn m(&self); }",
        "struct S;",
        "struct S(u8, NvmDevice);",
        "use a::{b, c as d};",
        "trait X { fn m(&self) -> Y<Z<W>>; }",
        "fn f<const N: usize>(x: [u8; N]) {}",
        "}}}}((((<<<<",
        "fn f() { \"fn g() { nvm.poke_line(a, b) }\" ; }",
    ];
    for src in corpus {
        let parsed = items::parse(src);
        assert!(parsed.validate().is_ok(), "{src:?}");
    }
    // The string-literal case must not leak a phantom call site.
    let parsed = items::parse("fn f() { \"nvm.poke_line(a, b)\"; }");
    let f = &parsed.fns[0];
    assert!(f.calls.is_empty(), "calls leaked out of a string literal");
}
