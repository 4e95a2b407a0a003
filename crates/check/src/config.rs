//! Configuration loading: a TOML-subset parser for `check/config.toml`
//! and `docs/locks.toml`, plus the flat `key  reason` allowlist format
//! shared by every rule.
//!
//! The subset covers exactly what the two config files use — `[section]`
//! tables, `[[section]]` array-of-tables, `key = "string"`, and
//! `key = ["list", "of", "strings"]` — and rejects nothing it does not
//! understand (unknown keys are preserved so rules can look them up).

use std::collections::BTreeMap;
use std::path::Path;

/// One table from a TOML-subset document: string and string-list
/// values keyed by bare identifier.
#[derive(Debug, Default, Clone)]
pub struct Table {
    pub strings: BTreeMap<String, String>,
    pub lists: BTreeMap<String, Vec<String>>,
}

impl Table {
    /// The string value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.strings.get(key).map(String::as_str)
    }

    /// The list value for `key`, or an empty slice.
    pub fn list(&self, key: &str) -> &[String] {
        self.lists.get(key).map_or(&[], Vec::as_slice)
    }
}

/// A parsed TOML-subset document: named tables plus array-of-tables.
#[derive(Debug, Default)]
pub struct Document {
    pub tables: BTreeMap<String, Table>,
    pub arrays: BTreeMap<String, Vec<Table>>,
}

impl Document {
    /// The single table `name`, or an empty one.
    pub fn table(&self, name: &str) -> Table {
        self.tables.get(name).cloned().unwrap_or_default()
    }

    /// All `[[name]]` entries, in file order.
    pub fn array(&self, name: &str) -> &[Table] {
        self.arrays.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Parses the TOML subset. Lines it cannot read become errors — config
/// typos must not silently disable a rule.
pub fn parse_toml(src: &str, origin: &str) -> Result<Document, String> {
    let mut doc = Document::default();
    // Borrow-checker-friendly current-table handle: the table under
    // construction lives here and is committed on the next header/EOF.
    let mut current: Option<(String, bool, Table)> = None;

    fn commit(doc: &mut Document, current: &mut Option<(String, bool, Table)>) {
        if let Some((name, is_array, table)) = current.take() {
            if is_array {
                doc.arrays.entry(name).or_default().push(table);
            } else {
                doc.tables.insert(name, table);
            }
        }
    }

    for (idx, raw) in src.lines().enumerate() {
        let line = raw.trim();
        let err = |msg: &str| format!("{origin}:{}: {msg}: `{raw}`", idx + 1);
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            commit(&mut doc, &mut current);
            current = Some((header.trim().to_string(), true, Table::default()));
        } else if let Some(header) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            commit(&mut doc, &mut current);
            current = Some((header.trim().to_string(), false, Table::default()));
        } else if let Some((key, value)) = line.split_once('=') {
            let key = key.trim().to_string();
            let value = value.trim();
            let table = match &mut current {
                Some((_, _, table)) => table,
                None => return Err(err("key outside any [section]")),
            };
            if let Some(list) = value.strip_prefix('[') {
                let list = list.strip_suffix(']').ok_or_else(|| err("unclosed list"))?;
                let mut items = Vec::new();
                for item in list.split(',') {
                    let item = item.trim();
                    if item.is_empty() {
                        continue; // trailing comma
                    }
                    items.push(unquote(item).ok_or_else(|| err("unquoted list item"))?);
                }
                table.lists.insert(key, items);
            } else {
                let value = unquote(value).ok_or_else(|| err("unquoted value"))?;
                table.strings.insert(key, value);
            }
        } else {
            return Err(err("unrecognized line"));
        }
    }
    commit(&mut doc, &mut current);
    Ok(doc)
}

fn unquote(s: &str) -> Option<String> {
    s.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(str::to_string)
}

/// One allowlist entry: a rule-specific key plus the human reason the
/// exemption exists.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub key: String,
    pub reason: String,
    pub line: u32,
}

/// A rule's allowlist file: `key  whitespace  reason` per line, `#`
/// comments and blanks ignored.
#[derive(Debug, Default)]
pub struct Allowlist {
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    pub fn parse(src: &str) -> Allowlist {
        let mut entries = Vec::new();
        for (idx, raw) in src.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, reason) = match line.split_once(char::is_whitespace) {
                Some((key, reason)) => (key, reason.trim()),
                None => (line, ""),
            };
            entries.push(AllowEntry {
                key: key.to_string(),
                reason: reason.to_string(),
                line: (idx + 1) as u32,
            });
        }
        Allowlist { entries }
    }

    /// The entry matching `key` exactly, if any.
    pub fn lookup(&self, key: &str) -> Option<&AllowEntry> {
        self.entries.iter().find(|e| e.key == key)
    }

    /// The entry whose key is a path prefix of `path`, if any.
    pub fn lookup_prefix(&self, path: &str) -> Option<&AllowEntry> {
        self.entries.iter().find(|e| path.starts_with(&e.key))
    }
}

/// One declared lock: its hierarchy name, the field/receiver
/// identifiers that acquire it, and the file-path prefixes where those
/// identifiers mean *this* lock (empty = anywhere).
#[derive(Debug, Clone)]
pub struct LockDecl {
    pub name: String,
    pub fields: Vec<String>,
    pub files: Vec<String>,
    /// Position in the declared order: lower = outermost (acquired
    /// first).
    pub rank: usize,
}

/// The full linter configuration, assembled from `check/config.toml`,
/// `docs/locks.toml`, and the per-rule allowlists.
#[derive(Debug, Default)]
pub struct Config {
    /// R1: path prefixes where wall-clock/sleep calls are approved.
    pub r1_allow: Allowlist,
    /// R2: pragma-site keys `path:line` (written by --fix-allowlist).
    pub r2_allow: Allowlist,
    /// R3: lock-site keys `path:line`.
    pub r3_allow: Allowlist,
    /// R5: path prefixes of crates exempt from forbid(unsafe_code).
    pub r5_allow: Allowlist,
    /// R2 scope: path prefixes of crates whose non-test code must be
    /// panic-free.
    pub r2_scopes: Vec<String>,
    /// R3: declared locks, outermost first.
    pub locks: Vec<LockDecl>,
}

impl Config {
    /// Loads everything under `root` (the repo checkout). Missing
    /// allowlist files are treated as empty; a missing or malformed
    /// config/locks file is an error.
    pub fn load(root: &Path) -> Result<Config, String> {
        let read = |rel: &str| -> Result<String, String> {
            std::fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))
        };
        let read_opt = |rel: &str| std::fs::read_to_string(root.join(rel)).unwrap_or_default();

        let main = parse_toml(&read("check/config.toml")?, "check/config.toml")?;
        let locks_doc = parse_toml(&read("docs/locks.toml")?, "docs/locks.toml")?;

        let mut locks = Vec::new();
        for (rank, table) in locks_doc.array("lock").iter().enumerate() {
            let name = table
                .get("name")
                .ok_or_else(|| format!("docs/locks.toml: [[lock]] #{} missing name", rank + 1))?
                .to_string();
            locks.push(LockDecl {
                name,
                fields: table.list("fields").to_vec(),
                files: table.list("files").to_vec(),
                rank,
            });
        }

        Ok(Config {
            r1_allow: Allowlist::parse(&read_opt("check/r1.allow")),
            r2_allow: Allowlist::parse(&read_opt("check/r2.allow")),
            r3_allow: Allowlist::parse(&read_opt("check/r3.allow")),
            r5_allow: Allowlist::parse(&read_opt("check/r5.allow")),
            r2_scopes: main.table("r2").list("scopes").to_vec(),
            locks,
        })
    }

    /// The declared lock a `.lock()` receiver identifier names in
    /// `path`, honoring each declaration's file scoping.
    pub fn lock_for(&self, field: &str, path: &str) -> Option<&LockDecl> {
        self.locks.iter().find(|lock| {
            lock.fields.iter().any(|f| f == field)
                && (lock.files.is_empty() || lock.files.iter().any(|p| path.starts_with(p)))
        })
    }
}
