//! The annotation pass over a lexed token stream: which tokens sit in
//! `#[cfg(test)]` / `#[test]` scope, which function encloses each
//! token, and which `// check:allow(RULE, reason)` pragmas the file
//! declares.
//!
//! The pass is a single linear walk tracking brace structure. It is
//! deliberately approximate where full parsing would be required — the
//! linter's job is to catch the 99% case cheaply and loudly, with
//! pragmas as the escape hatch for the rest.

use crate::lexer::{Token, TokenKind};

/// One function item discovered in the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnInfo {
    /// The identifier after `fn`.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
}

/// One `check:allow` pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    /// The rule id inside the parens, e.g. `R2`.
    pub rule: String,
    /// The line the pragma comment starts on.
    pub line: u32,
    /// The justification after the comma (may be empty — the rules
    /// treat an empty reason as unexplained).
    pub reason: String,
}

/// Sentinel for "token is outside every function body".
pub const NO_FN: usize = usize::MAX;

/// A token stream plus everything the rules need to know about each
/// token's surroundings.
#[derive(Debug)]
pub struct Annotated {
    pub tokens: Vec<Token>,
    /// Per token: inside a `#[cfg(test)]` or `#[test]` item body.
    pub in_test: Vec<bool>,
    /// Per token: index into [`Annotated::fns`], or [`NO_FN`].
    pub fn_id: Vec<usize>,
    pub fns: Vec<FnInfo>,
    pub pragmas: Vec<Pragma>,
}

struct Scope {
    test: bool,
    fn_id: usize,
}

/// Runs the annotation pass.
pub fn annotate(tokens: Vec<Token>) -> Annotated {
    let mut in_test = vec![false; tokens.len()];
    let mut fn_id = vec![NO_FN; tokens.len()];
    let mut fns: Vec<FnInfo> = Vec::new();
    let mut pragmas = Vec::new();

    let mut stack: Vec<Scope> = Vec::new();
    // Attributes arm the *next* item: `#[cfg(test)]`/`#[test]` arm test
    // scope, `fn name` arms a function body.
    // Arms are consumed by the next `{` (the item body) and cleared by
    // a `;` outside parentheses (a body-less item).
    let mut armed_test = false;
    let mut armed_fn: Option<FnInfo> = None;
    let mut paren_depth = 0usize;

    let mut i = 0;
    while i < tokens.len() {
        let cur_test = stack.last().is_some_and(|s| s.test);
        let cur_fn = stack.last().map_or(NO_FN, |s| s.fn_id);
        in_test[i] = cur_test;
        fn_id[i] = cur_fn;

        match &tokens[i].kind {
            TokenKind::Comment(text) => {
                if let Some(pragma) = parse_pragma(text, tokens[i].line) {
                    pragmas.push(pragma);
                }
            }
            TokenKind::Punct('#') => {
                // `#[attr…]`: scan the bracketed tokens; `#![…]` (inner
                // attributes) arm nothing.
                let inner = tokens.get(i + 1).is_some_and(|t| t.is_punct('!'));
                let open = i + 1 + usize::from(inner);
                if tokens.get(open).is_some_and(|t| t.is_punct('[')) {
                    let close = matching(&tokens, open, '[', ']');
                    if !inner && attr_is_test(&tokens[open + 1..close]) {
                        armed_test = true;
                    }
                    // Annotate and skip the attribute body wholesale so
                    // `#[cfg(test)]` never reads as an item ident.
                    for j in i..close.min(tokens.len()) {
                        in_test[j] = cur_test;
                        fn_id[j] = cur_fn;
                    }
                    i = close; // the `]` itself is handled below
                }
            }
            TokenKind::Punct('(') => paren_depth += 1,
            TokenKind::Punct(')') => paren_depth = paren_depth.saturating_sub(1),
            TokenKind::Punct(';') if paren_depth == 0 => {
                armed_test = false;
                armed_fn = None;
            }
            TokenKind::Punct('{') => {
                let id = match armed_fn.take() {
                    Some(info) => {
                        fns.push(info);
                        fns.len() - 1
                    }
                    None => cur_fn,
                };
                stack.push(Scope {
                    test: cur_test || std::mem::take(&mut armed_test),
                    fn_id: id,
                });
            }
            TokenKind::Punct('}') => {
                stack.pop();
            }
            TokenKind::Ident(word) if word == "fn" && paren_depth == 0 => {
                if let Some(TokenKind::Ident(name)) = tokens.get(i + 1).map(|t| &t.kind) {
                    armed_fn = Some(FnInfo {
                        name: name.clone(),
                        line: tokens[i].line,
                    });
                }
            }
            _ => {}
        }
        i += 1;
    }

    Annotated {
        tokens,
        in_test,
        fn_id,
        fns,
        pragmas,
    }
}

/// Index of the token closing the bracket opened at `open` (which must
/// hold `open_c`), or `tokens.len()` when unbalanced.
fn matching(tokens: &[Token], open: usize, open_c: char, close_c: char) -> usize {
    let mut depth = 0usize;
    for (j, tok) in tokens.iter().enumerate().skip(open) {
        if tok.is_punct(open_c) {
            depth += 1;
        } else if tok.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    tokens.len()
}

/// `true` for `#[test]` and `#[cfg(test)]`-style attribute bodies:
/// either the body is exactly the ident `test`, or it contains the
/// contiguous run `cfg ( test` / `cfg ( any ( test`. `cfg(not(test))`
/// does not match.
fn attr_is_test(body: &[Token]) -> bool {
    let idents_and_puncts: Vec<&TokenKind> = body.iter().map(|t| &t.kind).collect();
    if let [TokenKind::Ident(only)] = idents_and_puncts.as_slice() {
        return only == "test";
    }
    for w in body.windows(3) {
        let cfg_open = w[0].ident() == Some("cfg") && w[1].is_punct('(');
        let any_open = w[0].ident() == Some("any") && w[1].is_punct('(');
        if (cfg_open || any_open) && w[2].ident() == Some("test") {
            return true;
        }
    }
    false
}

/// Parses `check:allow(RULE, reason…)` out of a comment's text. The
/// directive must open the comment (only comment markers and
/// whitespace before it), so prose *mentioning* the syntax — like this
/// doc comment — is not a pragma.
fn parse_pragma(text: &str, line: u32) -> Option<Pragma> {
    let head = text.trim_start_matches(['/', '*', '!', ' ', '\t']);
    let body = head.strip_prefix("check:allow(")?;
    let body = &body[..body.find(')')?];
    let (rule, reason) = match body.split_once(',') {
        Some((rule, reason)) => (rule.trim(), reason.trim()),
        None => (body.trim(), ""),
    };
    Some(Pragma {
        rule: rule.to_string(),
        line,
        reason: reason.to_string(),
    })
}
