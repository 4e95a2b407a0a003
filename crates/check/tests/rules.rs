//! Fixture tests for rules R1–R3 and R5: each rule has at least one fixture
//! proving it fires and one proving the pragma/allowlist suppresses
//! it, plus hygiene coverage for unused or unexplained exemptions.

use tnn_check::config::{Allowlist, Config, LockDecl};
use tnn_check::rules::{check_files, FileUnit, Report};
use tnn_check::unit_from_source;

fn run(config: &Config, files: &[(&str, &str)]) -> Report {
    let units: Vec<FileUnit> = files
        .iter()
        .map(|(path, src)| unit_from_source(path, src))
        .collect();
    check_files(&units, config)
}

fn rules_of(report: &Report) -> Vec<&str> {
    report.findings.iter().map(|f| f.rule.as_str()).collect()
}

// ---------------------------------------------------------------- R1

#[test]
fn r1_fires_on_wall_clock_in_prod_code() {
    let config = Config::default();
    let report = run(
        &config,
        &[(
            "crates/x/src/m.rs",
            "fn f() { let t = std::time::Instant::now(); }",
        )],
    );
    assert_eq!(rules_of(&report), ["R1"]);
    assert_eq!(report.findings[0].line, 1);
}

#[test]
fn r1_covers_systemtime_and_sleep() {
    let config = Config::default();
    let report = run(
        &config,
        &[(
            "crates/x/src/m.rs",
            "fn f() { SystemTime::now(); thread::sleep(d); }",
        )],
    );
    assert_eq!(rules_of(&report), ["R1", "R1"]);
}

#[test]
fn r1_skips_tests_and_test_files() {
    let config = Config::default();
    let report = run(
        &config,
        &[
            (
                "crates/x/src/m.rs",
                "#[cfg(test)] mod t { fn f() { Instant::now(); } }",
            ),
            ("crates/x/tests/it.rs", "fn f() { Instant::now(); }"),
        ],
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn r1_allowlist_prefix_suppresses() {
    let config = Config {
        r1_allow: Allowlist::parse("crates/x/src/  this module owns the clock"),
        ..Config::default()
    };
    let report = run(
        &config,
        &[("crates/x/src/m.rs", "fn f() { Instant::now(); }")],
    );
    assert!(report.findings.is_empty());
    assert!(report.warnings.is_empty(), "used entry must not warn");
}

#[test]
fn r1_pragma_suppresses() {
    let config = Config::default();
    let report = run(
        &config,
        &[(
            "crates/x/src/m.rs",
            "fn f() {\n    // check:allow(R1, startup banner timestamp only)\n    Instant::now();\n}",
        )],
    );
    assert!(report.findings.is_empty());
    assert!(report.warnings.is_empty());
}

// ---------------------------------------------------------------- R2

fn r2_config() -> Config {
    Config {
        r2_scopes: vec!["crates/serve/src/".to_string()],
        ..Config::default()
    }
}

#[test]
fn r2_fires_on_unwrap_expect_panic() {
    let report = run(
        &r2_config(),
        &[(
            "crates/serve/src/server.rs",
            "fn f() { a.unwrap(); b.expect(\"msg\"); panic!(\"no\"); }",
        )],
    );
    assert_eq!(rules_of(&report), ["R2", "R2", "R2"]);
}

#[test]
fn r2_is_scoped_to_declared_crates() {
    let report = run(
        &r2_config(),
        &[("crates/geom/src/a.rs", "fn f() { a.unwrap(); }")],
    );
    assert!(report.findings.is_empty());
}

#[test]
fn r2_skips_cfg_test_code() {
    let report = run(
        &r2_config(),
        &[(
            "crates/serve/src/server.rs",
            "#[cfg(test)] mod t { #[test] fn f() { a.unwrap(); } }",
        )],
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn r2_pragma_on_previous_line_suppresses() {
    let report = run(
        &r2_config(),
        &[(
            "crates/serve/src/server.rs",
            "fn f() {\n    // check:allow(R2, guarded by the is_empty check above)\n    a.unwrap();\n}",
        )],
    );
    assert!(report.findings.is_empty());
    assert!(report.warnings.is_empty());
}

#[test]
fn r2_allowlist_site_key_suppresses() {
    let config = Config {
        r2_allow: Allowlist::parse("crates/serve/src/server.rs:1  construction-time only"),
        ..r2_config()
    };
    let report = run(
        &config,
        &[("crates/serve/src/server.rs", "fn f() { a.unwrap(); }")],
    );
    assert!(report.findings.is_empty());
    assert!(report.warnings.is_empty());
}

#[test]
fn r2_ignores_unwrap_or_else() {
    let report = run(
        &r2_config(),
        &[(
            "crates/serve/src/server.rs",
            "fn f() { m.lock().unwrap_or_else(|e| e.into_inner()); }",
        )],
    );
    let r2: Vec<_> = report.findings.iter().filter(|f| f.rule == "R2").collect();
    assert!(r2.is_empty(), "{r2:?}");
}

// ---------------------------------------------------------------- R3

fn r3_config() -> Config {
    Config {
        locks: vec![
            LockDecl {
                name: "outer".into(),
                fields: vec!["outer_lock".into()],
                files: vec![],
                rank: 0,
            },
            LockDecl {
                name: "inner".into(),
                fields: vec!["inner_lock".into()],
                files: vec![],
                rank: 1,
            },
        ],
        ..Config::default()
    }
}

#[test]
fn r3_fires_on_undeclared_lock() {
    let report = run(
        &r3_config(),
        &[("crates/x/src/m.rs", "fn f() { self.mystery.lock(); }")],
    );
    assert_eq!(rules_of(&report), ["R3"]);
    assert!(report.findings[0].message.contains("mystery"));
}

#[test]
fn r3_fires_on_inverted_nesting() {
    let src = "
        fn f(&self) {
            let b = self.inner_lock.lock();
            let a = self.outer_lock.lock();
        }
    ";
    let report = run(&r3_config(), &[("crates/x/src/m.rs", src)]);
    assert_eq!(rules_of(&report), ["R3"]);
    assert!(report.findings[0].message.contains("outer"));
}

#[test]
fn r3_accepts_declared_order() {
    let src = "
        fn f(&self) {
            let a = self.outer_lock.lock();
            let b = self.inner_lock.lock();
        }
    ";
    let report = run(&r3_config(), &[("crates/x/src/m.rs", src)]);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn r3_sibling_blocks_do_not_nest() {
    // Each block drops its guard before the next opens: no inversion.
    let src = "
        fn f(&self) {
            { let b = self.inner_lock.lock(); }
            { let a = self.outer_lock.lock(); }
        }
    ";
    let report = run(&r3_config(), &[("crates/x/src/m.rs", src)]);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn r3_separate_functions_do_not_nest() {
    let src = "
        fn f(&self) { let b = self.inner_lock.lock(); }
        fn g(&self) { let a = self.outer_lock.lock(); }
    ";
    let report = run(&r3_config(), &[("crates/x/src/m.rs", src)]);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn r3_resolves_method_call_receivers() {
    let config = Config {
        locks: vec![LockDecl {
            name: "stripe".into(),
            fields: vec!["shard".into()],
            files: vec![],
            rank: 0,
        }],
        ..Config::default()
    };
    let report = run(
        &config,
        &[(
            "crates/x/src/m.rs",
            "fn f(&self) { self.shard(&key).lock(); }",
        )],
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn r3_ignores_io_write_on_undeclared_receivers() {
    // `.write()`/`.read()` only count when the receiver is a declared
    // lock — io writers must not trip the rule.
    let report = run(
        &r3_config(),
        &[("crates/x/src/m.rs", "fn f() { some_file.write(); }")],
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn r3_file_scoping_distinguishes_same_field_name() {
    let config = Config {
        locks: vec![LockDecl {
            name: "serve.state".into(),
            fields: vec!["state".into()],
            files: vec!["crates/serve/".into()],
            rank: 0,
        }],
        ..Config::default()
    };
    // Same field name outside the declared file prefix: undeclared.
    let report = run(
        &config,
        &[
            (
                "crates/serve/src/server.rs",
                "fn f(&self) { self.state.lock(); }",
            ),
            (
                "crates/other/src/o.rs",
                "fn f(&self) { self.state.lock(); }",
            ),
        ],
    );
    assert_eq!(rules_of(&report), ["R3"]);
    assert_eq!(report.findings[0].path, "crates/other/src/o.rs");
}

#[test]
fn r3_allowlist_suppresses() {
    let config = Config {
        r3_allow: Allowlist::parse(
            "crates/x/src/m.rs:1  transitional lock pending hierarchy entry",
        ),
        ..r3_config()
    };
    let report = run(
        &config,
        &[("crates/x/src/m.rs", "fn f() { self.mystery.lock(); }")],
    );
    assert!(report.findings.is_empty());
    assert!(report.warnings.is_empty());
}

// ---------------------------------------------------------------- R5

#[test]
fn r5_fires_on_crate_root_without_forbid() {
    let config = Config::default();
    let report = run(&config, &[("crates/x/src/lib.rs", "pub fn f() {}")]);
    assert_eq!(rules_of(&report), ["R5"]);
}

#[test]
fn r5_accepts_forbid_and_skips_non_roots() {
    let config = Config::default();
    let report = run(
        &config,
        &[
            (
                "crates/x/src/lib.rs",
                "#![forbid(unsafe_code)]\npub fn f() {}",
            ),
            ("crates/x/src/helper.rs", "pub fn g() {}"),
        ],
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn r5_checks_bin_roots_and_allowlists_by_prefix() {
    let config = Config {
        r5_allow: Allowlist::parse("crates/legacy/  ffi crate pending safe rewrite"),
        ..Config::default()
    };
    let report = run(
        &config,
        &[
            ("crates/x/src/bin/tool.rs", "fn main() {}"),
            ("crates/legacy/src/lib.rs", "pub fn f() {}"),
        ],
    );
    assert_eq!(rules_of(&report), ["R5"]);
    assert_eq!(report.findings[0].path, "crates/x/src/bin/tool.rs");
    assert!(report.warnings.is_empty());
}

// ----------------------------------------------------------- hygiene

#[test]
fn unused_pragma_warns() {
    let config = Config::default();
    let report = run(
        &config,
        &[(
            "crates/x/src/m.rs",
            "#![forbid(unsafe_code)]\n// check:allow(R2, stale excuse)\npub fn f() {}",
        )],
    );
    assert!(report.findings.is_empty());
    assert_eq!(report.warnings.len(), 1);
    assert!(report.warnings[0].message.contains("suppresses nothing"));
}

#[test]
fn pragma_without_reason_warns() {
    let report = run(
        &r2_config(),
        &[(
            "crates/serve/src/server.rs",
            "fn f() {\n    // check:allow(R2)\n    a.unwrap();\n}",
        )],
    );
    assert!(report.findings.is_empty(), "pragma still suppresses");
    assert_eq!(report.warnings.len(), 1);
    assert!(report.warnings[0].message.contains("no reason"));
}

#[test]
fn unused_and_todo_allowlist_entries_warn() {
    let config = Config {
        r2_allow: Allowlist::parse("crates/serve/src/gone.rs:9  TODO: justify"),
        ..r2_config()
    };
    let report = run(&config, &[("crates/serve/src/server.rs", "fn f() {}")]);
    assert!(report.findings.is_empty());
    // One warning for unused, one for the TODO reason.
    assert_eq!(report.warnings.len(), 2, "{:?}", report.warnings);
    assert!(report
        .warnings
        .iter()
        .any(|w| w.message.contains("still says TODO")));
}

#[test]
fn doc_comments_mentioning_pragmas_are_not_pragmas() {
    let config = Config::default();
    let report = run(
        &config,
        &[(
            "crates/x/src/helper.rs",
            "/// Suppress with `// check:allow(R2, reason)` pragmas.\npub fn f() {}",
        )],
    );
    assert!(report.warnings.is_empty(), "{:?}", report.warnings);
}
