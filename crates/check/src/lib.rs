//! `tnn-check` — the workspace invariant linter.
//!
//! The repo's load-bearing guarantees (bit-identical fault replay,
//! fail-closed serving, a declared lock order) are enforced
//! dynamically by equivalence gates; this crate enforces them
//! *statically*, so a violation is caught at the change that introduces
//! it rather than at the test that happens to exercise it. Four live
//! rules:
//!
//! | rule | invariant |
//! |------|-----------|
//! | R1   | no wall-clock reads (`Instant::now`, `SystemTime::now`, `thread::sleep`) outside approved timing modules |
//! | R2   | no `.unwrap()` / `.expect(` / `panic!` in non-test serving code |
//! | R3   | every `.lock()` names a declared lock; nested acquisitions respect the docs/locks.toml order |
//! | R4   | retired: stats conservation is now compile-checked (`tnn_trace::stats!` generates `merge`; each `conserved()` destructures its struct exhaustively) |
//! | R5   | every crate root carries `#![forbid(unsafe_code)]` |
//!
//! Deliberately dependency-free: [`lexer`] hand-rolls a total Rust
//! lexer (no `syn`), [`scope`] annotates test-cfg and function scope,
//! [`config`] parses the TOML subset the config files use, and
//! [`rules`] runs the rules over the annotated streams. See
//! `docs/ANALYSIS.md` for the rule catalog and escape hatches.

#![forbid(unsafe_code)]

pub mod config;
pub mod lexer;
pub mod rules;
pub mod scope;

use std::path::Path;

use rules::FileUnit;

/// Lexes + annotates one source string into a checkable unit.
/// `path` must be repo-relative with forward slashes.
pub fn unit_from_source(path: &str, src: &str) -> FileUnit {
    let is_test_file = path
        .split('/')
        .any(|part| part == "tests" || part == "benches");
    FileUnit {
        path: path.to_string(),
        annotated: scope::annotate(lexer::lex(src)),
        is_test_file,
    }
}

/// Walks `root`'s lintable source (`src/` and `crates/`), returning an
/// annotated unit per `.rs` file. `target/` and hidden directories are
/// skipped. Read failures abort — a file the linter cannot see is a
/// file it cannot vouch for.
pub fn collect_units(root: &Path) -> Result<Vec<FileUnit>, String> {
    let mut paths = Vec::new();
    for top in ["src", "crates"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut paths)?;
        }
    }
    paths.sort();
    let mut units = Vec::new();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .map_err(|_| format!("{} escaped the root", path.display()))?
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        units.push(unit_from_source(&rel, &src));
    }
    Ok(units)
}

fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}
