//! A minimal Rust lexer — just enough structure for the lint pass.
//!
//! The lint rules only need identifiers and punctuation with line
//! numbers, with comments (including doc comments, so doctests are
//! exempt), string/char literals and lifetimes reliably skipped so that
//! the word `unwrap` inside a string or a `///` example never trips a
//! rule. Numbers and string bodies are folded into opaque
//! [`TokenKind::Literal`] tokens.

/// What a token is, as far as the lint rules care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`unwrap`, `as`, `mod`, …).
    Ident,
    /// A single punctuation character (`.`, `#`, `!`, `{`, …).
    Punct,
    /// A string/char/number literal or a lifetime, body elided.
    Literal,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token text; for [`TokenKind::Literal`] only the leading
    /// character is kept (the body is never rule-relevant).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
    /// Classification.
    pub kind: TokenKind,
}

impl Token {
    /// Whether this is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Whether this is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into rule-relevant tokens, skipping comments entirely.
pub fn lex(src: &str) -> Vec<Token> {
    let chars: Vec<char> = src.chars().collect();
    let len = chars.len();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    let at = |i: usize| chars.get(i).copied();

    while i < len {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comments, including `///` and `//!` doc comments.
        if c == '/' && at(i + 1) == Some('/') {
            while i < len && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // Block comments, nested.
        if c == '/' && at(i + 1) == Some('*') {
            let mut depth = 1;
            i += 2;
            while i < len && depth > 0 {
                if chars[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if chars[i] == '/' && at(i + 1) == Some('*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && at(i + 1) == Some('/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            continue;
        }
        // Raw (and raw byte) strings: r"…", r#"…"#, br#"…"#.
        if c == 'r' || (c == 'b' && at(i + 1) == Some('r')) {
            let mut j = i + if c == 'b' { 2 } else { 1 };
            let mut hashes = 0usize;
            while at(j) == Some('#') {
                hashes += 1;
                j += 1;
            }
            if at(j) == Some('"') {
                let start_line = line;
                j += 1;
                'raw: while j < len {
                    if chars[j] == '\n' {
                        line += 1;
                        j += 1;
                        continue;
                    }
                    if chars[j] == '"' {
                        let mut k = 0;
                        while k < hashes && at(j + 1 + k) == Some('#') {
                            k += 1;
                        }
                        if k == hashes {
                            j += 1 + hashes;
                            break 'raw;
                        }
                    }
                    j += 1;
                }
                out.push(Token {
                    text: "\"".to_string(),
                    line: start_line,
                    kind: TokenKind::Literal,
                });
                i = j;
                continue;
            }
            // Not a raw string: fall through to identifier lexing.
        }
        // Plain and byte strings.
        if c == '"' || (c == 'b' && at(i + 1) == Some('"')) {
            let start_line = line;
            i += if c == 'b' { 2 } else { 1 };
            while i < len {
                match chars[i] {
                    '\\' => i += 2,
                    '"' => {
                        i += 1;
                        break;
                    }
                    '\n' => {
                        line += 1;
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            out.push(Token {
                text: "\"".to_string(),
                line: start_line,
                kind: TokenKind::Literal,
            });
            continue;
        }
        // Char literals vs lifetimes.
        if c == '\'' {
            if at(i + 1) == Some('\\') {
                // Escaped char literal: skip to the closing quote.
                i += 2;
                while i < len && chars[i] != '\'' {
                    i += 1;
                }
                i += 1;
                out.push(Token {
                    text: "'".to_string(),
                    line,
                    kind: TokenKind::Literal,
                });
            } else if at(i + 2) == Some('\'') && at(i + 1) != Some('\'') {
                // 'x'
                i += 3;
                out.push(Token {
                    text: "'".to_string(),
                    line,
                    kind: TokenKind::Literal,
                });
            } else {
                // Lifetime: consume the name so it is never mistaken for
                // a rule-relevant identifier.
                i += 1;
                while i < len && is_ident_continue(chars[i]) {
                    i += 1;
                }
                out.push(Token {
                    text: "'".to_string(),
                    line,
                    kind: TokenKind::Literal,
                });
            }
            continue;
        }
        // Identifiers and keywords.
        if is_ident_start(c) {
            let start = i;
            while i < len && is_ident_continue(chars[i]) {
                i += 1;
            }
            out.push(Token {
                text: chars[start..i].iter().collect(),
                line,
                kind: TokenKind::Ident,
            });
            continue;
        }
        // Numbers (digits, `_`, suffixes/hex letters, float points — but
        // never a `..` range operator).
        if c.is_ascii_digit() {
            while i < len && (is_ident_continue(chars[i])) {
                i += 1;
            }
            if at(i) == Some('.') && at(i + 1).is_some_and(|d| d.is_ascii_digit()) {
                i += 1;
                while i < len && is_ident_continue(chars[i]) {
                    i += 1;
                }
            }
            out.push(Token {
                text: c.to_string(),
                line,
                kind: TokenKind::Literal,
            });
            continue;
        }
        out.push(Token {
            text: c.to_string(),
            line,
            kind: TokenKind::Punct,
        });
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_are_invisible() {
        let src = r##"
            // unwrap in a line comment
            /// doc: x.unwrap()
            /* block /* nested unwrap */ still comment */
            let s = "unwrap() inside a string";
            let r = r#"raw "unwrap" body"#;
            let c = '\u{7f}';
            real_ident();
        "##;
        let ids = idents(src);
        assert!(!ids.iter().any(|t| t == "unwrap"));
        assert!(ids.iter().any(|t| t == "real_ident"));
    }

    #[test]
    fn lifetimes_are_not_identifiers() {
        let ids = idents("fn f<'unwrap>(x: &'unwrap str) {}");
        assert_eq!(ids.iter().filter(|t| *t == "unwrap").count(), 0, "{ids:?}");
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "/* a\nb\nc */\nmark";
        let toks = lex(src);
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].text, "mark");
        assert_eq!(toks[0].line, 4);
    }

    #[test]
    fn ranges_are_not_floats() {
        let toks = lex("0u64..48");
        let dots = toks.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2);
    }
}
