//! Fixture tests for the hand-rolled lexer and the scope/annotation
//! pass: the tricky token shapes (raw strings, nested block comments),
//! the `#[cfg(test)]` boundaries the rules rely on, and a property
//! test that lexing is total over arbitrary byte soup.

use proptest::prelude::*;
use tnn_check::lexer::{lex, TokenKind};
use tnn_check::scope::annotate;

/// The identifier tokens of `src`, in order.
fn idents(src: &str) -> Vec<String> {
    lex(src)
        .into_iter()
        .filter_map(|t| match t.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        })
        .collect()
}

#[test]
fn strings_hide_their_contents() {
    // `.unwrap()` inside a string literal must not look like a call.
    let toks = idents(r#"let msg = "please .unwrap() me"; x.not_unwrap();"#);
    assert!(!toks.iter().any(|t| t == "unwrap"), "{toks:?}");
    assert!(toks.iter().any(|t| t == "not_unwrap"));
}

#[test]
fn raw_strings_with_hashes() {
    // The quote inside `r#"…"…"#` is literal text, and the `.lock()`
    // after the raw string must still tokenize.
    let src = r##"let s = r#"quote " inside .unwrap()"#; m.lock();"##;
    let toks = idents(src);
    assert!(!toks.iter().any(|t| t == "unwrap"), "{toks:?}");
    assert!(toks.iter().any(|t| t == "lock"));
}

#[test]
fn byte_and_cstring_literals() {
    let toks = idents(r##"let a = b"panic!"; let b = br#"panic!"#; let c = b'!';"##);
    assert!(!toks.iter().any(|t| t == "panic"), "{toks:?}");
}

#[test]
fn raw_identifiers_are_identifiers() {
    let toks = idents("let r#type = 1; r#fn();");
    // `r#ident` keeps the `r` prefix as an ident and the tail ident.
    assert!(toks.iter().any(|t| t == "type"));
}

#[test]
fn nested_block_comments_close_correctly() {
    let src = "/* outer /* inner .unwrap() */ still comment */ x.lock()";
    let toks = idents(src);
    assert!(!toks.iter().any(|t| t == "unwrap"), "{toks:?}");
    assert!(toks.iter().any(|t| t == "lock"));
}

#[test]
fn line_comments_preserve_text_for_pragmas() {
    let toks = lex("foo(); // check:allow(R2, a reason)");
    let comment = toks
        .iter()
        .find_map(|t| match &t.kind {
            TokenKind::Comment(text) => Some(text.clone()),
            _ => None,
        })
        .unwrap();
    assert!(comment.contains("check:allow(R2, a reason)"));
}

#[test]
fn lifetimes_are_not_char_literals() {
    // `'a` must not swallow `, T>` as a char literal body.
    let toks = idents("fn f<'a, T>(x: &'a T) -> &'a T { x }");
    assert!(toks.iter().any(|t| t == "T"));
    // And a real char literal containing a quote-worthy char still closes.
    let toks = idents(r"let c = 'x'; let d = '\''; y.lock();");
    assert!(toks.iter().any(|t| t == "lock"));
}

#[test]
fn line_numbers_survive_multiline_tokens() {
    let src = "let a = \"two\nline string\";\nb.lock();";
    let toks = lex(src);
    let lock = toks.iter().find(|t| t.ident() == Some("lock")).unwrap();
    assert_eq!(lock.line, 3);
}

#[test]
fn cfg_test_scope_covers_the_module_body() {
    let src = "
        fn prod() { a.unwrap(); }
        #[cfg(test)]
        mod tests {
            fn helper() { b.unwrap(); }
            #[test]
            fn case() { c.unwrap(); }
        }
        fn prod2() { d.unwrap(); }
    ";
    let ann = annotate(lex(src));
    for (tok, in_test) in ann.tokens.iter().zip(&ann.in_test) {
        match tok.ident() {
            Some("a") | Some("d") => assert!(!in_test, "{tok:?} wrongly in test scope"),
            Some("b") | Some("c") => assert!(in_test, "{tok:?} missed test scope"),
            _ => {}
        }
    }
}

#[test]
fn test_attribute_arms_only_the_next_item() {
    let src = "
        #[test]
        fn case() { x.unwrap(); }
        fn prod() { y.unwrap(); }
    ";
    let ann = annotate(lex(src));
    for (tok, in_test) in ann.tokens.iter().zip(&ann.in_test) {
        match tok.ident() {
            Some("x") => assert!(in_test),
            Some("y") => assert!(!in_test, "#[test] leaked past its item"),
            _ => {}
        }
    }
}

#[test]
fn cfg_not_test_is_not_test_scope() {
    let src = "#[cfg(not(test))] mod prod { fn f() { x.unwrap(); } }";
    let ann = annotate(lex(src));
    for (tok, in_test) in ann.tokens.iter().zip(&ann.in_test) {
        if tok.ident() == Some("x") {
            assert!(!in_test, "cfg(not(test)) misread as test scope");
        }
    }
}

#[test]
fn fn_and_impl_owners_are_tracked() {
    let src = "
        impl<K: Eq, V> Cache<K, V> {
            fn probe(&self) { hit(); }
        }
        impl Display for Wrapper {
            fn fmt(&self) { go(); }
        }
        fn free() { run(); }
    ";
    let ann = annotate(lex(src));
    let names: Vec<&str> = ann.fns.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["probe", "fmt", "free"]);
    // Each body token belongs to its own function, impl blocks or not.
    for (call, owner) in [("hit", "probe"), ("go", "fmt"), ("run", "free")] {
        let at = ann
            .tokens
            .iter()
            .position(|t| t.ident() == Some(call))
            .unwrap();
        assert_eq!(ann.fns[ann.fn_id[at]].name, owner);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Lexing is total: any byte soup (lossily decoded) produces a
    /// token stream without panicking, and annotation survives it too.
    #[test]
    fn lex_never_panics(bytes in prop::collection::vec(0u8..=255u8, 0..200)) {
        let src = String::from_utf8_lossy(&bytes);
        let tokens = lex(&src);
        let _ = annotate(tokens);
    }

    /// Rust-ish soup: the interesting delimiters at high density, to
    /// drive the string/comment/char state machine harder than uniform
    /// bytes would.
    #[test]
    fn lex_never_panics_on_delimiter_soup(parts in prop::collection::vec(0usize..12, 0..80)) {
        const ATOMS: [&str; 12] = [
            "\"", "'", "r#\"", "#", "/*", "*/", "//", "\n", "\\", "b\"", "ident", "{",
        ];
        let src: String = parts.iter().map(|&i| ATOMS[i]).collect();
        let tokens = lex(&src);
        let _ = annotate(tokens);
    }
}
