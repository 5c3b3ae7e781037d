//! An item-level parse of one source file, built on [`crate::lexer`].
//!
//! The lint pass only needs a token stream; the security-invariant
//! passes need *structure*: which functions exist, which `impl` block
//! (and therefore which self type) each one lives in, what its
//! parameters' types are, which struct fields name which types, what
//! `use` declarations alias, and — most importantly — every call site
//! inside every function body, classified as a method call (with its
//! receiver chain), a path call or a bare call. [`parse`] extracts all
//! of that without ever panicking on malformed input: an item that
//! cannot be understood is simply skipped, never mis-attributed.
//!
//! Spans are half-open token-index ranges into the lexed stream. The
//! parser guarantees the invariants checked by [`FileItems::validate`]
//! (spans in bounds, bodies inside their items, call sites inside their
//! bodies) for *any* input — the proptest fuzz suite holds it to that.

use crate::lexer::{lex, Token, TokenKind};
use crate::lint::test_mask;

/// A half-open `[start, end)` range of token indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index of the first token of the item.
    pub start: usize,
    /// Index one past the last token of the item.
    pub end: usize,
}

impl Span {
    /// Whether `other` lies entirely within this span.
    pub fn contains(&self, other: &Span) -> bool {
        self.start <= other.start && other.end <= self.end
    }
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `receiver.name(…)` — a method call.
    Method(String),
    /// `a::b::name(…)` — a path call; segments in source order.
    Path(Vec<String>),
    /// `name(…)` — a bare call (free function, closure, tuple struct).
    Bare(String),
}

impl Callee {
    /// The final name segment — the function actually invoked.
    pub fn name(&self) -> &str {
        match self {
            Callee::Method(n) | Callee::Bare(n) => n,
            Callee::Path(segs) => segs.last().map_or("", |s| s.as_str()),
        }
    }
}

/// The receiver of a method call, as far as tokens can tell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Receiver {
    /// A plain dotted ident chain: `self.nvm.…` → `["self", "nvm"]`.
    Chain(Vec<String>),
    /// Anything else (call result, index expression, literal, …).
    Expr,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// 1-based source line of the callee name.
    pub line: u32,
    /// Token index of the callee name.
    pub token: usize,
    /// What is being called.
    pub callee: Callee,
    /// The receiver chain for method calls, `None` otherwise.
    pub receiver: Option<Receiver>,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Self type of the enclosing `impl` block, if any.
    pub self_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Tokens from the `fn` keyword through the closing `}` or `;`.
    pub span: Span,
    /// Tokens strictly inside the body braces (empty span if bodiless).
    pub body: Span,
    /// Whether the item sits under `#[cfg(test)]`.
    pub in_test: bool,
    /// Parameter names with the identifier set of their written types.
    pub params: Vec<(String, Vec<String>)>,
    /// Every call site in the body, in source order.
    pub calls: Vec<CallSite>,
}

impl FnItem {
    /// `Type::name` for methods, plain `name` for free functions.
    pub fn qualified(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One struct definition's named fields.
#[derive(Debug, Clone)]
pub struct StructItem {
    /// The struct's name.
    pub name: String,
    /// Field names with the identifier set of their written types.
    pub fields: Vec<(String, Vec<String>)>,
}

/// One `use` declaration, flattened.
#[derive(Debug, Clone)]
pub struct UseItem {
    /// Every identifier mentioned in the use path (groups flattened).
    pub idents: Vec<String>,
    /// `as` renames: `(original, alias)` pairs.
    pub aliases: Vec<(String, String)>,
}

/// A struct-literal construction site (`Name { … }`), recorded for
/// types whose construction is security-relevant (e.g. `PadInput`).
#[derive(Debug, Clone)]
pub struct LiteralSite {
    /// The constructed type's name.
    pub name: String,
    /// 1-based source line.
    pub line: u32,
    /// Token index of the type name.
    pub token: usize,
    /// Whether the site sits under `#[cfg(test)]`.
    pub in_test: bool,
}

/// Everything the item parser extracted from one file.
#[derive(Debug, Clone, Default)]
pub struct FileItems {
    /// All functions, in source order.
    pub fns: Vec<FnItem>,
    /// All structs with named fields.
    pub structs: Vec<StructItem>,
    /// All `use` declarations.
    pub uses: Vec<UseItem>,
    /// All struct-literal constructions of watched types.
    pub literals: Vec<LiteralSite>,
    /// Number of tokens the file lexed into (for span validation).
    pub token_count: usize,
}

/// Rust keywords that can be followed by `(` without being a call.
const NON_CALL_KEYWORDS: [&str; 18] = [
    "if", "else", "while", "for", "loop", "match", "return", "in", "as", "let", "ref", "mut",
    "pub", "where", "fn", "use", "mod", "move",
];

/// Type names whose struct-literal constructions are recorded.
const WATCHED_LITERALS: [&str; 1] = ["PadInput"];

/// Parses `src` into items. Never panics; unparseable stretches are
/// skipped.
pub fn parse(src: &str) -> FileItems {
    let tokens = lex(src);
    parse_tokens(&tokens)
}

/// Like [`parse`] but over an already-lexed stream.
pub fn parse_tokens(tokens: &[Token]) -> FileItems {
    let mask = test_mask(tokens);
    let mut out = FileItems {
        token_count: tokens.len(),
        ..FileItems::default()
    };

    // Impl stack: (self type, brace depth *inside* the impl block).
    let mut impl_stack: Vec<(String, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < tokens.len() {
        let tok = &tokens[i];
        if tok.is_punct('{') {
            depth += 1;
            i += 1;
            continue;
        }
        if tok.is_punct('}') {
            depth = depth.saturating_sub(1);
            while matches!(impl_stack.last(), Some((_, d)) if *d > depth) {
                impl_stack.pop();
            }
            i += 1;
            continue;
        }
        if tok.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        match tok.text.as_str() {
            "impl" => {
                if let Some((self_ty, body_start)) = parse_impl_header(tokens, i) {
                    impl_stack.push((self_ty, depth + 1));
                    depth += 1;
                    i = body_start + 1;
                } else {
                    i += 1;
                }
            }
            "fn" => {
                if let Some((item, next)) = parse_fn(tokens, i, &mask, impl_stack.last()) {
                    i = next;
                    out.fns.push(item);
                } else {
                    i += 1;
                }
            }
            "struct" => {
                if let Some((item, next)) = parse_struct(tokens, i) {
                    i = next;
                    out.structs.push(item);
                } else {
                    i += 1;
                }
            }
            "use" => {
                let (item, next) = parse_use(tokens, i);
                i = next;
                out.uses.push(item);
            }
            _ => i += 1,
        }
    }

    // Watched struct literals mostly appear *inside* fn bodies, which
    // the item loop above consumes wholesale — so scan the full token
    // stream independently. `Name {` with a non-path, non-keyword left
    // neighbour is treated as a struct literal; `use`/`struct`/`::`
    // contexts were already claimed by the items themselves.
    for (idx, tok) in tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident || !WATCHED_LITERALS.contains(&tok.text.as_str()) {
            continue;
        }
        if !tokens.get(idx + 1).is_some_and(|n| n.is_punct('{')) {
            continue;
        }
        // `mod PadInput {` etc. can't happen for watched names, but a
        // path segment (`foo::PadInput {`) still counts as constructing
        // the type, so only item-introducer keywords disqualify.
        let introduced = idx > 0
            && matches!(
                tokens[idx - 1].text.as_str(),
                "struct" | "enum" | "union" | "trait" | "mod" | "impl" | "fn"
            );
        if introduced {
            continue;
        }
        out.literals.push(LiteralSite {
            name: tok.text.clone(),
            line: tok.line,
            token: idx,
            in_test: mask.get(idx).copied().unwrap_or(false),
        });
    }
    out
}

/// From the `impl` keyword, finds the self type and the index of the
/// opening `{` of the impl body. Handles generics and `impl Trait for
/// Type` (the self type is the path after `for`).
fn parse_impl_header(tokens: &[Token], impl_idx: usize) -> Option<(String, usize)> {
    let mut i = impl_idx + 1;
    i = skip_generics(tokens, i);
    let mut last_path_head: Option<String> = None;
    let mut self_ty: Option<String> = None;
    while i < tokens.len() {
        let tok = &tokens[i];
        if tok.is_punct('{') {
            return self_ty.or(last_path_head).map(|ty| (ty, i));
        }
        if tok.is_punct(';') {
            return None;
        }
        if tok.is_ident("for") {
            // What follows `for` is the self type; restart capture.
            last_path_head = None;
            self_ty = None;
            i += 1;
            continue;
        }
        if tok.is_ident("where") {
            // Freeze whatever we captured; scan on for the `{`.
            if self_ty.is_none() {
                self_ty = last_path_head.take();
            }
            i += 1;
            continue;
        }
        if tok.kind == TokenKind::Ident && !tok.is_ident("dyn") && !tok.is_ident("impl") {
            // Remember the head of the most recent path segment run; the
            // final run before `{`/`where` names the type. Generic
            // arguments are skipped so `Display for Foo<T>` yields Foo.
            last_path_head = Some(tok.text.clone());
            i += 1;
            // Swallow the rest of a `::`-joined path, keeping the last
            // segment (`fmt::Display` → Display).
            while i + 1 < tokens.len()
                && tokens[i].is_punct(':')
                && tokens[i + 1].is_punct(':')
                && tokens
                    .get(i + 2)
                    .is_some_and(|t| t.kind == TokenKind::Ident)
            {
                last_path_head = Some(tokens[i + 2].text.clone());
                i += 3;
            }
            i = skip_generics(tokens, i);
            continue;
        }
        i += 1;
    }
    None
}

/// Skips a balanced `<…>` generics group starting at `i`, if present.
fn skip_generics(tokens: &[Token], mut i: usize) -> usize {
    if !tokens.get(i).is_some_and(|t| t.is_punct('<')) {
        return i;
    }
    let mut depth = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('<') {
            depth += 1;
        } else if tokens[i].is_punct('>') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i + 1;
            }
        } else if tokens[i].is_punct('{') || tokens[i].is_punct(';') {
            // Unbalanced — bail without consuming the structural token.
            return i;
        }
        i += 1;
    }
    i
}

/// Finds the index of the matching closer for the opener at `open`,
/// or `None` if the stream ends first.
fn matching(tokens: &[Token], open: usize, open_ch: char, close_ch: char) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].is_punct(open_ch) {
            depth += 1;
        } else if tokens[i].is_punct(close_ch) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

/// Parses one `fn` item starting at the `fn` keyword. Returns the item
/// and the index to resume scanning at (inside the body, so nested fns
/// are found by the caller's main loop — we deliberately resume *after*
/// the whole item and extract nested calls ourselves).
fn parse_fn(
    tokens: &[Token],
    fn_idx: usize,
    mask: &[bool],
    enclosing_impl: Option<&(String, usize)>,
) -> Option<(FnItem, usize)> {
    let name_tok = tokens.get(fn_idx + 1)?;
    if name_tok.kind != TokenKind::Ident {
        return None; // `fn(` pointer type, not an item
    }
    let name = name_tok.text.clone();
    let mut i = skip_generics(tokens, fn_idx + 2);
    if !tokens.get(i).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    let params_close = matching(tokens, i, '(', ')')?;
    let params = parse_params(tokens, i + 1, params_close);
    i = params_close + 1;
    // Skip the return type / where clause up to the body or `;`. The
    // `;` inside `-> [u8; 64]` or `-> fn(i32)` must not end the item,
    // so nesting of every bracket kind is tracked.
    let mut angle = 0usize;
    let mut nested = 0usize;
    while i < tokens.len() {
        let tok = &tokens[i];
        if tok.is_punct('<') {
            angle += 1;
        } else if tok.is_punct('>') {
            angle = angle.saturating_sub(1);
        } else if tok.is_punct('[') || tok.is_punct('(') {
            nested += 1;
        } else if tok.is_punct(']') || tok.is_punct(')') {
            nested = nested.saturating_sub(1);
        } else if angle == 0 && nested == 0 && tok.is_punct(';') {
            // Bodiless (trait method declaration).
            let span = Span {
                start: fn_idx,
                end: i + 1,
            };
            let body = Span { start: i, end: i };
            return Some((
                FnItem {
                    name,
                    self_ty: enclosing_impl.map(|(ty, _)| ty.clone()),
                    line: tokens[fn_idx].line,
                    span,
                    body,
                    in_test: mask.get(fn_idx).copied().unwrap_or(false),
                    params,
                    calls: Vec::new(),
                },
                i + 1,
            ));
        } else if angle == 0 && nested == 0 && tok.is_punct('{') {
            let close = matching(tokens, i, '{', '}')?;
            let span = Span {
                start: fn_idx,
                end: close + 1,
            };
            let body = Span {
                start: i + 1,
                end: close,
            };
            let calls = extract_calls(tokens, body);
            return Some((
                FnItem {
                    name,
                    self_ty: enclosing_impl.map(|(ty, _)| ty.clone()),
                    line: tokens[fn_idx].line,
                    span,
                    body,
                    in_test: mask.get(fn_idx).copied().unwrap_or(false)
                        || mask.get(body.start).copied().unwrap_or(false),
                    params,
                    calls,
                },
                close + 1,
            ));
        }
        i += 1;
    }
    None
}

/// Parses the parameter list tokens in `(start..end)` into
/// `(name, type idents)` pairs, split at top-level commas.
fn parse_params(tokens: &[Token], start: usize, end: usize) -> Vec<(String, Vec<String>)> {
    let mut params = Vec::new();
    let mut i = start;
    let mut piece_start = start;
    let mut depth = 0usize;
    while i <= end {
        let at_end = i == end;
        let splits = at_end || (depth == 0 && tokens[i].is_punct(','));
        if !at_end {
            if tokens[i].is_punct('(') || tokens[i].is_punct('[') || tokens[i].is_punct('<') {
                depth += 1;
            } else if tokens[i].is_punct(')') || tokens[i].is_punct(']') || tokens[i].is_punct('>')
            {
                depth = depth.saturating_sub(1);
            }
        }
        if splits {
            if let Some(param) = parse_one_param(tokens, piece_start, i) {
                params.push(param);
            }
            piece_start = i + 1;
        }
        i += 1;
    }
    params
}

/// One parameter: the name is the first ident before the `:` (skipping
/// `mut`), the type is the set of idents after it. `self` receivers
/// yield `("self", [])`.
fn parse_one_param(tokens: &[Token], start: usize, end: usize) -> Option<(String, Vec<String>)> {
    let mut colon = None;
    for i in start..end {
        if tokens[i].is_punct(':')
            && !tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !(i > start && tokens[i - 1].is_punct(':'))
        {
            colon = Some(i);
            break;
        }
    }
    let Some(colon) = colon else {
        // `self`, `&self`, `&mut self`
        return (start..end)
            .find(|&i| tokens[i].is_ident("self"))
            .map(|_| ("self".to_string(), Vec::new()));
    };
    let name = (start..colon)
        .rev()
        .map(|i| &tokens[i])
        .find(|t| t.kind == TokenKind::Ident && !t.is_ident("mut"))?
        .text
        .clone();
    let ty: Vec<String> = (colon + 1..end)
        .map(|i| &tokens[i])
        .filter(|t| {
            t.kind == TokenKind::Ident
                && !matches!(t.text.as_str(), "mut" | "dyn" | "impl" | "ref" | "const")
        })
        .map(|t| t.text.clone())
        .collect();
    Some((name, ty))
}

/// Extracts every call site in `body` (token indices), in source order.
fn extract_calls(tokens: &[Token], body: Span) -> Vec<CallSite> {
    let mut calls = Vec::new();
    for idx in body.start..body.end.min(tokens.len()) {
        let tok = &tokens[idx];
        if tok.kind != TokenKind::Ident {
            continue;
        }
        if !tokens.get(idx + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        if NON_CALL_KEYWORDS.contains(&tok.text.as_str()) {
            continue;
        }
        // `fn name(` inside the body is a nested declaration, not a call.
        if idx > 0 && tokens[idx - 1].is_ident("fn") {
            continue;
        }
        let (callee, receiver) = classify_call(tokens, body, idx);
        calls.push(CallSite {
            line: tok.line,
            token: idx,
            callee,
            receiver,
        });
    }
    calls
}

/// Classifies the call at `idx` (the callee name token) and, for method
/// calls, walks the receiver chain backwards.
fn classify_call(tokens: &[Token], body: Span, idx: usize) -> (Callee, Option<Receiver>) {
    let name = tokens[idx].text.clone();
    let prev = |i: usize| {
        i.checked_sub(1)
            .filter(|p| *p >= body.start)
            .map(|p| &tokens[p])
    };

    if prev(idx).is_some_and(|p| p.is_punct('.')) {
        // Method call: walk `ident . ident . … .` backwards.
        let mut chain = Vec::new();
        let mut j = idx - 1; // at the `.`
        while let Some(recv_idx) = j.checked_sub(1).filter(|p| *p >= body.start) {
            let recv = &tokens[recv_idx];
            if recv.kind == TokenKind::Ident {
                chain.push(recv.text.clone());
                match recv_idx.checked_sub(1).filter(|p| *p >= body.start) {
                    Some(p) if tokens[p].is_punct('.') => {
                        j = p;
                        continue;
                    }
                    _ => {
                        chain.reverse();
                        return (Callee::Method(name), Some(Receiver::Chain(chain)));
                    }
                }
            }
            // `foo().bar(`, `a[i].bar(`, `"x".bar(` — expression receiver.
            return (Callee::Method(name), Some(Receiver::Expr));
        }
        return (Callee::Method(name), Some(Receiver::Expr));
    }

    if idx >= 2 && tokens[idx - 1].is_punct(':') && tokens[idx - 2].is_punct(':') {
        // Path call: walk `ident :: ident :: … ::` backwards.
        let mut segs = vec![name];
        let mut j = idx - 2; // at the first `:`
        while let Some(seg_idx) = j.checked_sub(1).filter(|p| *p >= body.start) {
            let seg = &tokens[seg_idx];
            if seg.kind == TokenKind::Ident {
                segs.push(seg.text.clone());
                match seg_idx.checked_sub(2).filter(|p| *p + 1 >= body.start) {
                    Some(p) if tokens[p].is_punct(':') && tokens[p + 1].is_punct(':') => {
                        j = p;
                        continue;
                    }
                    _ => break,
                }
            } else if seg.is_punct('>') {
                // `Foo::<T>::new` / `<Foo as Bar>::f` — give up on the
                // prefix; the final segments collected so far suffice.
                break;
            } else {
                break;
            }
        }
        segs.reverse();
        return (Callee::Path(segs), None);
    }

    (Callee::Bare(name), None)
}

/// Parses a `struct` item from the `struct` keyword. Only brace
/// structs contribute fields; tuple and unit structs are recorded with
/// none. Returns the item and the index after it.
fn parse_struct(tokens: &[Token], struct_idx: usize) -> Option<(StructItem, usize)> {
    let name_tok = tokens.get(struct_idx + 1)?;
    if name_tok.kind != TokenKind::Ident {
        return None;
    }
    let name = name_tok.text.clone();
    let mut i = skip_generics(tokens, struct_idx + 2);
    // Tuple struct: skip the paren group, then expect `;` or a where
    // clause we don't need.
    if tokens.get(i).is_some_and(|t| t.is_punct('(')) {
        let close = matching(tokens, i, '(', ')')?;
        return Some((
            StructItem {
                name,
                fields: Vec::new(),
            },
            close + 1,
        ));
    }
    // Scan past a possible where clause to the body or `;`.
    while i < tokens.len() && !tokens[i].is_punct('{') && !tokens[i].is_punct(';') {
        i += 1;
    }
    if !tokens.get(i).is_some_and(|t| t.is_punct('{')) {
        return Some((
            StructItem {
                name,
                fields: Vec::new(),
            },
            i + 1,
        ));
    }
    let close = matching(tokens, i, '{', '}')?;
    let fields = parse_params(tokens, i + 1, close)
        .into_iter()
        .filter(|(n, _)| n != "self")
        .collect();
    Some((StructItem { name, fields }, close + 1))
}

/// Parses a `use` declaration from the `use` keyword; returns the item
/// and the index after the terminating `;`.
fn parse_use(tokens: &[Token], use_idx: usize) -> (UseItem, usize) {
    let mut idents = Vec::new();
    let mut aliases = Vec::new();
    let mut i = use_idx + 1;
    while i < tokens.len() && !tokens[i].is_punct(';') {
        if tokens[i].is_ident("as") {
            if let (Some(orig), Some(alias)) =
                (i.checked_sub(1).map(|p| &tokens[p]), tokens.get(i + 1))
            {
                if orig.kind == TokenKind::Ident && alias.kind == TokenKind::Ident {
                    aliases.push((orig.text.clone(), alias.text.clone()));
                }
            }
            i += 1;
            continue;
        }
        if tokens[i].kind == TokenKind::Ident {
            idents.push(tokens[i].text.clone());
        }
        i += 1;
    }
    (UseItem { idents, aliases }, (i + 1).min(tokens.len()))
}

impl FileItems {
    /// Checks the parser's span invariants against the stream length it
    /// reported. Returns the first violated invariant, for the fuzz
    /// suite and for defensive callers.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.token_count;
        for f in &self.fns {
            if f.span.start > f.span.end || f.span.end > n {
                return Err(format!(
                    "fn {}: span {:?} out of bounds (len {n})",
                    f.name, f.span
                ));
            }
            if !(f.span.contains(&f.body) || (f.body.start == f.body.end && f.body.end <= n)) {
                return Err(format!(
                    "fn {}: body {:?} escapes span {:?}",
                    f.name, f.body, f.span
                ));
            }
            for c in &f.calls {
                if c.token < f.body.start || c.token >= f.body.end {
                    return Err(format!(
                        "fn {}: call `{}` at token {} outside body {:?}",
                        f.name,
                        c.callee.name(),
                        c.token,
                        f.body
                    ));
                }
            }
        }
        for l in &self.literals {
            if l.token >= n {
                return Err(format!(
                    "literal {}: token {} out of bounds",
                    l.name, l.token
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_src(src: &str) -> FileItems {
        let items = parse(src);
        items.validate().expect("span invariants");
        items
    }

    #[test]
    fn finds_free_and_impl_fns() {
        let src = "
            pub fn free(x: u64) -> u64 { helper(x) }
            struct Ctl { nvm: NvmDevice, key: Key128 }
            impl Ctl {
                fn write(&mut self, addr: PhysAddr) {
                    self.nvm.write_line(addr, &[0; 64]);
                }
            }
            impl std::fmt::Display for Ctl {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { todo(f) }
            }
        ";
        let items = parse_src(src);
        let names: Vec<String> = items.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(names, vec!["free", "Ctl::write", "Ctl::fmt"]);
        assert_eq!(items.structs.len(), 1);
        assert_eq!(items.structs[0].name, "Ctl");
        assert_eq!(
            items.structs[0].fields[0],
            ("nvm".into(), vec!["NvmDevice".into()])
        );
    }

    #[test]
    fn classifies_call_sites() {
        let src = "
            fn f(nvm: &mut NvmDevice) {
                nvm.poke_line(a, &d);
                self.meta.flush(n);
                Key128::from_seed(1);
                helper(2);
                foo().bar();
                mac!(arg);
            }
        ";
        let items = parse_src(src);
        let calls = &items.fns[0].calls;
        assert_eq!(calls[0].callee, Callee::Method("poke_line".into()));
        assert_eq!(calls[0].receiver, Some(Receiver::Chain(vec!["nvm".into()])));
        assert_eq!(
            calls[1].receiver,
            Some(Receiver::Chain(vec!["self".into(), "meta".into()]))
        );
        assert_eq!(
            calls[2].callee,
            Callee::Path(vec!["Key128".into(), "from_seed".into()])
        );
        assert_eq!(calls[3].callee, Callee::Bare("helper".into()));
        // `foo()` bare + `.bar()` on an expression receiver.
        assert_eq!(calls[4].callee, Callee::Bare("foo".into()));
        assert_eq!(calls[5].callee, Callee::Method("bar".into()));
        assert_eq!(calls[5].receiver, Some(Receiver::Expr));
        // `mac!(…)` is not a call site (`!` breaks ident-`(` adjacency).
        assert_eq!(calls.len(), 6);
    }

    #[test]
    fn params_capture_type_idents() {
        let src = "fn g(mut nvm: &mut NvmDevice, pair: (u32, Key128), n: usize) {}";
        let items = parse_src(src);
        let params = &items.fns[0].params;
        assert_eq!(params[0], ("nvm".into(), vec!["NvmDevice".into()]));
        assert_eq!(
            params[1],
            ("pair".into(), vec!["u32".into(), "Key128".into()])
        );
        assert_eq!(params[2], ("n".into(), vec!["usize".into()]));
    }

    #[test]
    fn generics_and_where_clauses_survive() {
        let src = "
            impl<T: Clone> Wrapper<T> where T: Default {
                fn get<U>(&self, x: U) -> Option<T> { inner(x) }
            }
            fn turbo() { Vec::<u8>::new(); }
        ";
        let items = parse_src(src);
        assert_eq!(items.fns[0].qualified(), "Wrapper::get");
        let c = &items.fns[1].calls[0];
        assert_eq!(c.callee.name(), "new");
    }

    #[test]
    fn test_code_is_marked() {
        let src = "
            fn hot() {}
            #[cfg(test)]
            mod tests {
                fn t() { device().poke_line(a, &d); }
            }
        ";
        let items = parse_src(src);
        assert!(!items.fns[0].in_test);
        assert!(items.fns[1].in_test);
    }

    #[test]
    fn watched_struct_literals_are_recorded() {
        let src = "
            fn mint() -> [u8; 64] {
                let input = PadInput { page_id: 1, block_in_page: 0, major: 0, minor: 0, domain: PadDomain::Memory };
                line_pad(&key, &input)
            }
        ";
        let items = parse_src(src);
        assert_eq!(items.literals.len(), 1);
        assert_eq!(items.literals[0].name, "PadInput");
        assert!(!items.literals[0].in_test);
    }

    #[test]
    fn use_aliases_are_captured() {
        let src = "use fsencr_nvm::{NvmDevice as RawDev, Storage};";
        let items = parse_src(src);
        assert_eq!(
            items.uses[0].aliases,
            vec![("NvmDevice".into(), "RawDev".into())]
        );
        assert!(items.uses[0].idents.iter().any(|i| i == "Storage"));
    }

    #[test]
    fn malformed_input_never_panics() {
        for src in [
            "fn",
            "fn (",
            "impl {",
            "fn f(x: ) {",
            "impl for {}",
            "fn f() { a.b.(); }",
            "use ;",
            "struct S {",
            "fn f<T(&self) {}",
            ") } fn f( } {",
        ] {
            let items = parse(src);
            items.validate().unwrap_or_else(|e| panic!("{src:?}: {e}"));
        }
    }

    #[test]
    fn bodiless_trait_methods_have_empty_bodies() {
        let src = "trait T { fn decl(&self, x: u64) -> u64; }";
        let items = parse_src(src);
        assert_eq!(items.fns[0].name, "decl");
        assert_eq!(items.fns[0].body.start, items.fns[0].body.end);
        assert!(items.fns[0].calls.is_empty());
    }
}
