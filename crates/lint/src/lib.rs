//! `cloudmc-lint`: a dependency-free, workspace-aware static analyzer that
//! turns the simulator's cross-cutting invariants — determinism,
//! additive-only stats schema, no-panic library paths — into machine-checked
//! lint rules. (Snapshot coverage is not among them: `cloudmc_snap`'s
//! `snap_fields!` makes a field missing from a struct's snapshot list a
//! compile error.)
//!
//! The build environment is offline, so there is no `syn`: analysis is
//! token-level (see [`lexer`]) with shallow structural views (see [`items`]).
//! Rules are named and individually suppressible with
//! `// simlint: allow(<rule>) <reason>` on the offending line or the line
//! above it; an empty reason is itself a violation. The `no-unsafe` rule has
//! no escape hatch.

#![forbid(unsafe_code)]

pub mod items;
pub mod lexer;
pub mod rules;
pub mod schema;

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

use lexer::LexedFile;

/// Registry of every rule: `(id, one-line description)`.
pub const RULES: &[(&str, &str)] = &[
    (
        "hash-iter",
        "no HashMap/HashSet iteration in sim/memctrl/dram/cpu non-test code \
         outside the cloudmc_snap::det sorted-iteration helpers",
    ),
    (
        "wall-clock",
        "no Instant::now/SystemTime outside telemetry/bench; profile-gated \
         sites need an explicit annotation",
    ),
    (
        "panic",
        "no unwrap()/expect()/panic!/unimplemented!/todo! in library-crate \
         non-test code without an annotated invariant",
    ),
    (
        "stats-schema",
        "stats JSON keys in crates/sim/src/stats.rs must match the checked-in \
         stats_schema.txt; keys are additive-only",
    ),
    (
        "no-unsafe",
        "no `unsafe` anywhere in the workspace (no escape hatch)",
    ),
    (
        "float-merge",
        "no f32/f64 inside merge* functions: thread-merged stats accumulate \
         in integers for order-independent results",
    ),
    (
        "io-access",
        "no std::fs/std::env from sim/dram/memctrl/cpu; I/O stays in bench \
         and the telemetry sinks",
    ),
];

/// A rule hit before suppression processing.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Rule id (one of [`RULES`]).
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl Candidate {
    /// Convenience constructor.
    #[must_use]
    pub fn new(rule: &'static str, line: u32, message: String) -> Self {
        Candidate {
            rule,
            line,
            message,
        }
    }
}

/// One confirmed (unsuppressed) violation.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule id.
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Analyzer output.
#[derive(Debug)]
pub struct Report {
    /// Violations, sorted by `(file, line, rule)`.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of candidates silenced by a justified annotation.
    pub suppressed: usize,
}

/// Analyzer configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root (the directory holding the root `Cargo.toml`).
    pub root: PathBuf,
    /// Rules to enforce (ids from [`RULES`]).
    pub enabled: BTreeSet<String>,
}

impl Config {
    /// All rules enabled against `root`.
    #[must_use]
    pub fn all_rules(root: impl Into<PathBuf>) -> Self {
        Config {
            root: root.into(),
            enabled: RULES.iter().map(|(id, _)| (*id).to_owned()).collect(),
        }
    }

    fn on(&self, rule: &str) -> bool {
        self.enabled.contains(rule)
    }
}

/// One scanned source file.
pub struct SourceFile {
    /// Owning crate (`cloudmc` for the root crate, directory name otherwise).
    pub crate_name: String,
    /// Bare file name (`system.rs`).
    pub file_name: String,
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    /// Lexed contents.
    pub lexed: LexedFile,
}

/// Walks and lexes every workspace source file under `root`: the root
/// crate's `src/` plus each `crates/<name>/src/` except `crates/lint`
/// itself. `third_party/` and `target/` are never entered.
pub fn load_workspace(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut files = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&crates_dir)
            .map_err(|e| format!("read {}: {e}", crates_dir.display()))?
        {
            let entry = entry.map_err(|e| format!("read {}: {e}", crates_dir.display()))?;
            names.push(entry.path());
        }
        names.sort();
        for dir in names {
            let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "lint" || !dir.is_dir() {
                continue;
            }
            let src = dir.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let crate_name = match rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
        {
            Some(name) => name.to_owned(),
            None => "cloudmc".to_owned(),
        };
        let file_name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        out.push(SourceFile {
            crate_name,
            file_name,
            rel_path: rel,
            lexed: lexer::lex(&text),
        });
    }
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| format!("read {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "third_party" && name != "target" {
                collect_rs(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// A candidate awaiting suppression processing: the index of the file it was
/// found in and the hit itself.
type PendingCandidate = (usize, Candidate);

/// Runs every enabled rule and applies suppressions.
pub fn analyze(config: &Config) -> Result<Report, String> {
    let files = load_workspace(&config.root)?;
    let mut cands: Vec<PendingCandidate> = Vec::new();

    for (fi, sf) in files.iter().enumerate() {
        let mut local = Vec::new();
        if config.on("hash-iter") {
            rules::hash_iter(&sf.crate_name, &sf.file_name, &sf.lexed, &mut local);
        }
        if config.on("wall-clock") {
            rules::wall_clock(&sf.crate_name, &sf.lexed, &mut local);
        }
        if config.on("panic") {
            rules::panic_paths(&sf.crate_name, &sf.lexed, &mut local);
        }
        if config.on("no-unsafe") {
            rules::no_unsafe(&sf.lexed, &mut local);
        }
        if config.on("float-merge") {
            rules::float_merge(&sf.crate_name, &sf.lexed, &mut local);
        }
        if config.on("io-access") {
            rules::io_access(&sf.crate_name, &sf.lexed, &mut local);
        }
        cands.extend(local.into_iter().map(|c| (fi, c)));
    }

    if config.on("stats-schema") {
        if let Some(fi) = files
            .iter()
            .position(|f| f.rel_path == schema::STATS_SOURCE)
        {
            let keys = schema::extract_keys(&files[fi].lexed);
            let schema_text = std::fs::read_to_string(config.root.join(schema::SCHEMA_FILE)).ok();
            for c in schema::check(&keys, schema_text.as_deref()) {
                cands.push((fi, c));
            }
        }
    }

    let mut diagnostics = Vec::new();
    let mut suppressed = 0usize;
    for (fi, cand) in cands {
        // `no-unsafe` has no annotation escape.
        let suppression = if cand.rule == "no-unsafe" {
            None
        } else {
            files[fi]
                .lexed
                .suppressions_covering(cand.line)
                .find(|s| s.rule == cand.rule)
                .map(|s| (s.line, s.reason.clone()))
        };
        match suppression {
            Some((line, reason)) if reason.is_empty() => diagnostics.push(Diagnostic {
                rule: cand.rule.to_owned(),
                file: files[fi].rel_path.clone(),
                line,
                message: format!(
                    "suppression for `{}` is missing its justification — write \
                     `// simlint: allow({}) <reason>`",
                    cand.rule, cand.rule
                ),
            }),
            Some(_) => suppressed += 1,
            None => diagnostics.push(Diagnostic {
                rule: cand.rule.to_owned(),
                file: files[fi].rel_path.clone(),
                line: cand.line,
                message: cand.message,
            }),
        }
    }
    diagnostics.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    diagnostics.dedup_by(|a, b| {
        a.file == b.file && a.line == b.line && a.rule == b.rule && a.message == b.message
    });

    Ok(Report {
        diagnostics,
        files_scanned: files.len(),
        suppressed,
    })
}

/// Regenerates `stats_schema.txt` from the current stats source. Returns the
/// number of keys written.
pub fn update_schema(root: &Path) -> Result<usize, String> {
    let src_path = root.join(schema::STATS_SOURCE);
    let text = std::fs::read_to_string(&src_path)
        .map_err(|e| format!("read {}: {e}", src_path.display()))?;
    let keys = schema::extract_keys(&lexer::lex(&text));
    let out_path = root.join(schema::SCHEMA_FILE);
    std::fs::write(&out_path, schema::render_schema(&keys))
        .map_err(|e| format!("write {}: {e}", out_path.display()))?;
    Ok(keys.len())
}

/// Nearest ancestor of `start` (inclusive) whose `Cargo.toml` declares a
/// `[workspace]` — how `simlint` and `repro lint` locate the tree to scan.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Renders a report as a JSON object (hand-written: the workspace is
/// dependency-free).
#[must_use]
pub fn report_to_json(report: &Report) -> String {
    let mut s = String::from("{\"diagnostics\":[");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"rule\":{},\"file\":{},\"line\":{},\"message\":{}}}",
            json_str(&d.rule),
            json_str(&d.file),
            d.line,
            json_str(&d.message)
        ));
    }
    s.push_str(&format!(
        "],\"files_scanned\":{},\"suppressed\":{},\"violations\":{}}}",
        report.files_scanned,
        report.suppressed,
        report.diagnostics.len()
    ));
    s
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
