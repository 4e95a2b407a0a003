//! The rule implementations (R1–R3, R5) plus allowlist/pragma hygiene.
//!
//! Every rule reports [`Finding`]s; a finding is suppressed by a
//! `// check:allow(RULE, reason)` pragma on the same line or the line
//! above, or by an entry in the rule's `check/rN.allow` file. Pragmas
//! and allowlist entries that suppress nothing, or carry no reason,
//! become *warnings* — fatal only under `--deny-warnings` (the CI
//! mode), so local bootstrapping with `--fix-allowlist` stays usable.

use std::collections::BTreeSet;

use crate::config::Config;
use crate::scope::Annotated;

/// One rule violation (or, in [`Report::warnings`], a hygiene issue).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// `R1`, `R2`, `R3` or `R5`, or `hygiene` for warnings.
    pub rule: String,
    /// Repo-relative path (forward slashes).
    pub path: String,
    pub line: u32,
    pub message: String,
    /// The key `--fix-allowlist` would append to the rule's allowlist
    /// to suppress this finding.
    pub allow_key: String,
}

impl Finding {
    pub fn render(&self) -> String {
        format!(
            "{} {}:{} — {}",
            self.rule, self.path, self.line, self.message
        )
    }
}

/// One lexed + annotated source file.
#[derive(Debug)]
pub struct FileUnit {
    /// Repo-relative path with forward slashes.
    pub path: String,
    pub annotated: Annotated,
    /// Lives under a `tests/` or `benches/` directory: integration
    /// tests get the same exemptions as `#[cfg(test)]` scope.
    pub is_test_file: bool,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Rule violations — always fatal.
    pub findings: Vec<Finding>,
    /// Hygiene issues — fatal under `--deny-warnings`.
    pub warnings: Vec<Finding>,
}

/// Mutable bookkeeping shared by the rules: which pragmas and
/// allowlist entries earned their keep this run.
struct Usage {
    /// `pragma_used[unit][pragma_idx]`.
    pragma_used: Vec<Vec<bool>>,
    /// Allowlist keys that suppressed at least one finding, per rule
    /// (index 0 = R1, 1 = R2, 2 = R3, 3 = R5).
    allow_used: [BTreeSet<String>; 4],
}

/// Index into [`Usage::allow_used`] for a rule id.
fn rule_slot(rule: &str) -> usize {
    match rule {
        "R1" => 0,
        "R2" => 1,
        "R3" => 2,
        _ => 3,
    }
}

impl Usage {
    fn mark_allow(&mut self, rule: &str, key: &str) {
        self.allow_used[rule_slot(rule)].insert(key.to_string());
    }
}

/// Runs every rule over `units` under `config`.
pub fn check_files(units: &[FileUnit], config: &Config) -> Report {
    let mut report = Report::default();
    let mut usage = Usage {
        pragma_used: units
            .iter()
            .map(|u| vec![false; u.annotated.pragmas.len()])
            .collect(),
        allow_used: Default::default(),
    };

    for (idx, unit) in units.iter().enumerate() {
        r1_determinism(unit, idx, config, &mut usage, &mut report);
        r2_fail_closed(unit, idx, config, &mut usage, &mut report);
        r3_lock_order(unit, idx, config, &mut usage, &mut report);
        r5_forbid_unsafe(unit, config, &mut usage, &mut report);
    }
    hygiene(units, config, &usage, &mut report);
    report
}

// ---------------------------------------------------------------- R1

/// R1 determinism: `Instant::now`, `SystemTime::now`, and
/// `thread::sleep` are forbidden in non-test code outside the approved
/// module list (`check/r1.allow`, path-prefix keyed). Wall-clock reads
/// in decision paths break the replay guarantee that every fault/serve
/// decision is a pure function of `(seed, channel, seq, attempt)`.
fn r1_determinism(
    unit: &FileUnit,
    unit_idx: usize,
    config: &Config,
    usage: &mut Usage,
    report: &mut Report,
) {
    if unit.is_test_file {
        return;
    }
    let ann = &unit.annotated;
    let toks = &ann.tokens;
    for i in 0..toks.len() {
        if ann.in_test[i] {
            continue;
        }
        // `Instant :: now` / `SystemTime :: now` / `thread :: sleep`.
        let called = |head: &str, tail: &str| -> bool {
            toks[i].ident() == Some(head)
                && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 3).and_then(|t| t.ident()) == Some(tail)
        };
        let what = if called("Instant", "now") {
            "Instant::now"
        } else if called("SystemTime", "now") {
            "SystemTime::now"
        } else if called("thread", "sleep") {
            "thread::sleep"
        } else {
            continue;
        };
        let line = toks[i].line;
        // Suppression: pragma, then path-prefix allowlist.
        if pragma_or_prefix(unit, unit_idx, "R1", line, config, usage) {
            continue;
        }
        report.findings.push(Finding {
            rule: "R1".into(),
            path: unit.path.clone(),
            line,
            message: format!(
                "{what} in non-test code: wall-clock reads break deterministic replay \
                 (approve the module in check/r1.allow or remove the call)"
            ),
            allow_key: unit.path.clone(),
        });
    }
}

/// Pragma on the finding's line (or the line above), else a path-prefix
/// allowlist entry for the rule.
fn pragma_or_prefix(
    unit: &FileUnit,
    unit_idx: usize,
    rule: &str,
    line: u32,
    config: &Config,
    usage: &mut Usage,
) -> bool {
    for (i, p) in unit.annotated.pragmas.iter().enumerate() {
        if p.rule == rule && (p.line == line || p.line + 1 == line) {
            usage.pragma_used[unit_idx][i] = true;
            return true;
        }
    }
    let allow = match rule {
        "R1" => &config.r1_allow,
        _ => &config.r5_allow,
    };
    if let Some(entry) = allow.lookup_prefix(&unit.path) {
        let key = entry.key.clone();
        usage.mark_allow(rule, &key);
        return true;
    }
    false
}

// ---------------------------------------------------------------- R2

/// R2 fail-closed: `.unwrap()` / `.expect(` / `panic!` are forbidden in
/// non-test code of the serving crates (`[r2] scopes` in
/// check/config.toml). A worker that panics takes its queue slot and
/// its in-flight jobs with it; errors must propagate as `TnnError`.
fn r2_fail_closed(
    unit: &FileUnit,
    unit_idx: usize,
    config: &Config,
    usage: &mut Usage,
    report: &mut Report,
) {
    if !config.r2_scopes.iter().any(|p| unit.path.starts_with(p)) {
        return;
    }
    let ann = &unit.annotated;
    let toks = &ann.tokens;
    for i in 0..toks.len() {
        if ann.in_test[i] {
            continue;
        }
        let what = if toks[i].is_punct('.') && toks.get(i + 2).is_some_and(|t| t.is_punct('(')) {
            match toks.get(i + 1).and_then(|t| t.ident()) {
                Some("unwrap") => ".unwrap()",
                Some("expect") => ".expect(",
                _ => continue,
            }
        } else if toks[i].ident() == Some("panic")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
        {
            "panic!"
        } else {
            continue;
        };
        let line = toks[i].line;
        let key = format!("{}:{}", unit.path, line);
        if suppress_site(unit, unit_idx, "R2", line, &config.r2_allow, &key, usage) {
            continue;
        }
        report.findings.push(Finding {
            rule: "R2".into(),
            path: unit.path.clone(),
            line,
            message: format!(
                "{what} in non-test serving code: propagate a TnnError instead, or \
                 justify with `// check:allow(R2, reason)`"
            ),
            allow_key: key,
        });
    }
}

/// Pragma, else an exact-key allowlist entry.
fn suppress_site(
    unit: &FileUnit,
    unit_idx: usize,
    rule: &str,
    line: u32,
    allow: &crate::config::Allowlist,
    key: &str,
    usage: &mut Usage,
) -> bool {
    for (i, p) in unit.annotated.pragmas.iter().enumerate() {
        if p.rule == rule && (p.line == line || p.line + 1 == line) {
            usage.pragma_used[unit_idx][i] = true;
            return true;
        }
    }
    if allow.lookup(key).is_some() {
        usage.mark_allow(rule, key);
        return true;
    }
    false
}

// ---------------------------------------------------------------- R3

/// One lock acquisition observed while scanning a file.
struct Acquisition {
    /// Token indices of the `{` braces open at the acquisition site —
    /// a guard is (lexically) still held at a later site iff its scope
    /// path is a prefix of the later site's path.
    scope_path: Vec<usize>,
    fn_id: usize,
    rank: usize,
    name: String,
    line: u32,
}

/// R3 lock order: every `.lock()` receiver must name a lock declared in
/// `docs/locks.toml`, and while one guard is lexically held, further
/// acquisitions must move *inward* (higher rank) through the declared
/// hierarchy. `.read()`/`.write()` receivers are checked only when they
/// name a declared lock (so `io::Write::write` stays quiet).
fn r3_lock_order(
    unit: &FileUnit,
    unit_idx: usize,
    config: &Config,
    usage: &mut Usage,
    report: &mut Report,
) {
    if unit.is_test_file || config.locks.is_empty() {
        return;
    }
    let ann = &unit.annotated;
    let toks = &ann.tokens;
    let mut scope_path: Vec<usize> = Vec::new();
    let mut held: Vec<Acquisition> = Vec::new();

    for i in 0..toks.len() {
        if toks[i].is_punct('{') {
            scope_path.push(i);
            continue;
        }
        if toks[i].is_punct('}') {
            scope_path.pop();
            continue;
        }
        if ann.in_test[i] || !toks[i].is_punct('.') {
            continue;
        }
        // `.lock()` / `.read()` / `.write()` — zero-argument calls only.
        let method = match toks.get(i + 1).and_then(|t| t.ident()) {
            Some(m @ ("lock" | "read" | "write")) => m,
            _ => continue,
        };
        if !(toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(')')))
        {
            continue;
        }
        let line = toks[i].line;
        let key = format!("{}:{}", unit.path, line);
        let receiver = receiver_of(toks, i);
        let decl = receiver
            .as_deref()
            .and_then(|r| config.lock_for(r, &unit.path));
        let Some(decl) = decl else {
            if method == "lock"
                && !suppress_site(unit, unit_idx, "R3", line, &config.r3_allow, &key, usage)
            {
                let recv = receiver.as_deref().unwrap_or("<expression>");
                report.findings.push(Finding {
                    rule: "R3".into(),
                    path: unit.path.clone(),
                    line,
                    message: format!(
                        "`.lock()` on `{recv}` names no lock declared in docs/locks.toml — \
                         declare it in the hierarchy (or allowlist the site)"
                    ),
                    allow_key: key,
                });
            }
            continue;
        };
        let (rank, name) = (decl.rank, decl.name.clone());
        let fn_id = ann.fn_id[i];
        for prior in &held {
            if prior.fn_id != fn_id
                || scope_path.len() < prior.scope_path.len()
                || scope_path[..prior.scope_path.len()] != prior.scope_path[..]
            {
                continue; // different function, or the prior guard's block closed
            }
            if prior.rank > rank
                && !suppress_site(unit, unit_idx, "R3", line, &config.r3_allow, &key, usage)
            {
                report.findings.push(Finding {
                    rule: "R3".into(),
                    path: unit.path.clone(),
                    line,
                    message: format!(
                        "acquires `{name}` while `{}` (acquired line {}) is still held — \
                         docs/locks.toml orders `{name}` outside `{}`, so this nesting \
                         can deadlock against the declared order",
                        prior.name, prior.line, prior.name
                    ),
                    allow_key: key.clone(),
                });
            }
        }
        held.push(Acquisition {
            scope_path: scope_path.clone(),
            fn_id,
            rank,
            name,
            line,
        });
    }
}

/// The field/variable identifier a method-call chain hangs off, walking
/// back from the `.` at `dot`: skips balanced `(...)`/`[...]` groups
/// (so `self.shard(&key).lock()` resolves to `shard`), returns the
/// first identifier found.
fn receiver_of(toks: &[crate::lexer::Token], dot: usize) -> Option<String> {
    let mut j = dot;
    while j > 0 {
        j -= 1;
        match &toks[j].kind {
            crate::lexer::TokenKind::Ident(name) => return Some(name.clone()),
            crate::lexer::TokenKind::Punct(c @ (')' | ']')) => {
                let open = if *c == ')' { '(' } else { '[' };
                let mut depth = 1u32;
                while j > 0 && depth > 0 {
                    j -= 1;
                    if toks[j].is_punct(*c) {
                        depth += 1;
                    } else if toks[j].is_punct(open) {
                        depth -= 1;
                    }
                }
            }
            crate::lexer::TokenKind::Punct('.') => {}
            _ => return None,
        }
    }
    None
}

// ---------------------------------------------------------------- R5

/// R5: every crate root (`src/lib.rs`, `src/main.rs`, `src/bin/*.rs`)
/// must carry `#![forbid(unsafe_code)]` — `deny` can be overridden by
/// a stray `#[allow]`, `forbid` cannot.
fn r5_forbid_unsafe(unit: &FileUnit, config: &Config, usage: &mut Usage, report: &mut Report) {
    let is_root = unit.path.ends_with("src/lib.rs")
        || unit.path.ends_with("src/main.rs")
        || unit.path.contains("/src/bin/");
    if !is_root {
        return;
    }
    let toks = &unit.annotated.tokens;
    let has_forbid = (0..toks.len()).any(|i| {
        toks[i].is_punct('#')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('['))
            && toks.get(i + 3).and_then(|t| t.ident()) == Some("forbid")
            && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 5).and_then(|t| t.ident()) == Some("unsafe_code")
    });
    if has_forbid {
        return;
    }
    if let Some(entry) = config.r5_allow.lookup_prefix(&unit.path) {
        let key = entry.key.clone();
        usage.mark_allow("R5", &key);
        return;
    }
    report.findings.push(Finding {
        rule: "R5".into(),
        path: unit.path.clone(),
        line: 1,
        message: "crate root lacks `#![forbid(unsafe_code)]`".into(),
        allow_key: unit.path.clone(),
    });
}

// ----------------------------------------------------------- hygiene

/// Post-pass: pragmas and allowlist entries must (a) suppress something
/// and (b) carry a reason. Violations are warnings — fatal only under
/// `--deny-warnings`, so `--fix-allowlist` bootstrap output (reasons
/// stamped `TODO`) is locally runnable but cannot land in CI.
fn hygiene(units: &[FileUnit], config: &Config, usage: &Usage, report: &mut Report) {
    for (u, unit) in units.iter().enumerate() {
        for (i, p) in unit.annotated.pragmas.iter().enumerate() {
            if !usage.pragma_used[u][i] {
                report.warnings.push(Finding {
                    rule: "hygiene".into(),
                    path: unit.path.clone(),
                    line: p.line,
                    message: format!(
                        "check:allow({}) pragma suppresses nothing — remove it",
                        p.rule
                    ),
                    allow_key: String::new(),
                });
            } else if p.reason.is_empty() || p.reason.starts_with("TODO") {
                let what = if p.reason.is_empty() {
                    "carries no reason"
                } else {
                    "still says TODO"
                };
                report.warnings.push(Finding {
                    rule: "hygiene".into(),
                    path: unit.path.clone(),
                    line: p.line,
                    message: format!(
                        "check:allow({}) pragma {what} — every exemption must say why",
                        p.rule
                    ),
                    allow_key: String::new(),
                });
            }
        }
    }
    let lists = [
        ("R1", "check/r1.allow", &config.r1_allow),
        ("R2", "check/r2.allow", &config.r2_allow),
        ("R3", "check/r3.allow", &config.r3_allow),
        ("R5", "check/r5.allow", &config.r5_allow),
    ];
    for (rule, file, allow) in lists {
        for entry in &allow.entries {
            if !usage.allow_used[rule_slot(rule)].contains(&entry.key) {
                report.warnings.push(Finding {
                    rule: "hygiene".into(),
                    path: file.into(),
                    line: entry.line,
                    message: format!("unused {rule} allowlist entry `{}` — remove it", entry.key),
                    allow_key: String::new(),
                });
            }
            if entry.reason.is_empty() || entry.reason.starts_with("TODO") {
                let what = if entry.reason.is_empty() {
                    "carries no reason"
                } else {
                    "still says TODO"
                };
                report.warnings.push(Finding {
                    rule: "hygiene".into(),
                    path: file.into(),
                    line: entry.line,
                    message: format!(
                        "{rule} allowlist entry `{}` {what} — every exemption must say why",
                        entry.key
                    ),
                    allow_key: String::new(),
                });
            }
        }
    }
}
