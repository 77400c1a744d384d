//! Integration tests: every rule against the known-bad / known-good fixture
//! trees, a mutation test for the cross-file stats-schema rule, and a
//! self-check that the live workspace is violation-free.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use cloudmc_lint::{analyze, update_schema, Config, Report};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn analyze_all(root: PathBuf) -> Report {
    analyze(&Config::all_rules(root)).expect("analyze fixture tree")
}

fn analyze_rule(root: PathBuf, rule: &str) -> Report {
    let enabled: BTreeSet<String> = [rule.to_owned()].into_iter().collect();
    analyze(&Config { root, enabled }).expect("analyze fixture tree")
}

/// Asserts the bad tree reports `rule` in `file`, and the good tree reports
/// `rule` nowhere.
fn assert_hit_and_clean(rule: &str, bad_file: &str) {
    let bad = analyze_rule(fixture_root("bad"), rule);
    assert!(
        bad.diagnostics
            .iter()
            .any(|d| d.rule == rule && d.file == bad_file),
        "expected a `{rule}` diagnostic in {bad_file}, got: {:#?}",
        bad.diagnostics
    );
    let good = analyze_rule(fixture_root("good"), rule);
    assert!(
        good.diagnostics.iter().all(|d| d.rule != rule),
        "good tree must be clean for `{rule}`, got: {:#?}",
        good.diagnostics
    );
}

#[test]
fn hash_iter_hits_bad_and_passes_good() {
    assert_hit_and_clean("hash-iter", "crates/sim/src/hash_bad.rs");
}

#[test]
fn wall_clock_hits_bad_and_passes_good() {
    assert_hit_and_clean("wall-clock", "crates/sim/src/clock_bad.rs");
}

#[test]
fn panic_hits_bad_and_passes_good() {
    assert_hit_and_clean("panic", "crates/sim/src/panic_bad.rs");
}

#[test]
fn stats_schema_hits_bad_and_passes_good() {
    assert_hit_and_clean("stats-schema", "crates/sim/src/stats.rs");
    let bad = analyze_rule(fixture_root("bad"), "stats-schema");
    // Both drift directions are reported: a schema key gone from the source
    // and a new source key missing from the schema.
    assert!(
        bad.diagnostics
            .iter()
            .any(|d| d.rule == "stats-schema" && d.message.contains("row_hits")),
        "removed key `row_hits` must be reported: {:#?}",
        bad.diagnostics
    );
    assert!(
        bad.diagnostics
            .iter()
            .any(|d| d.rule == "stats-schema" && d.message.contains("writes")),
        "unlisted key `writes` must be reported: {:#?}",
        bad.diagnostics
    );
}

#[test]
fn no_unsafe_hits_bad_and_passes_good() {
    assert_hit_and_clean("no-unsafe", "crates/cpu/src/unsafe_bad.rs");
}

#[test]
fn float_merge_hits_bad_and_passes_good() {
    assert_hit_and_clean("float-merge", "crates/memctrl/src/merge_bad.rs");
}

#[test]
fn io_access_hits_bad_and_passes_good() {
    assert_hit_and_clean("io-access", "crates/dram/src/io_bad.rs");
}

#[test]
fn suppression_without_reason_is_itself_a_violation() {
    let bad = analyze_rule(fixture_root("bad"), "panic");
    assert!(
        bad.diagnostics.iter().any(|d| {
            d.rule == "panic"
                && d.file == "crates/sim/src/empty_reason.rs"
                && d.message.contains("justification")
        }),
        "reason-less suppression must be flagged: {:#?}",
        bad.diagnostics
    );
}

#[test]
fn justified_suppression_is_counted_not_reported() {
    let good = analyze_rule(fixture_root("good"), "wall-clock");
    assert!(good.diagnostics.is_empty());
    assert_eq!(
        good.suppressed, 1,
        "the annotated Instant::now in clock_good.rs counts as suppressed"
    );
}

#[test]
fn good_tree_is_fully_clean_under_all_rules() {
    let good = analyze_all(fixture_root("good"));
    assert!(
        good.diagnostics.is_empty(),
        "good tree must pass every rule: {:#?}",
        good.diagnostics
    );
    assert!(good.files_scanned >= 6);
}

// ---------------------------------------------------------------------------
// Mutation tests: start from clean sources, inject one regression, and
// assert simlint catches it.
// ---------------------------------------------------------------------------

/// Builds a throwaway workspace tree from `(relative path, contents)` pairs,
/// runs `f` against its root, and cleans up.
fn with_temp_tree(name: &str, files: &[(&str, &str)], f: impl FnOnce(&Path)) {
    let root = std::env::temp_dir().join(format!("simlint-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for (rel, text) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("fixture paths have parents"))
            .expect("create fixture dir");
        std::fs::write(&path, text).expect("write fixture file");
    }
    f(&root);
    let _ = std::fs::remove_dir_all(&root);
}

const STATS_SOURCE: &str = "\
pub struct SimStats { pub reads: u64, pub writes: u64 }
impl SimStats {
    pub fn to_json(&self) -> String {
        format!(\"{{\\\"reads\\\":{},\\\"writes\\\":{}}}\", self.reads, self.writes)
    }
}
";

#[test]
fn mutation_key_deleted_from_schema_file_is_reported() {
    // In-sync schema passes…
    with_temp_tree(
        "schema-clean",
        &[
            ("crates/sim/src/stats.rs", STATS_SOURCE),
            ("stats_schema.txt", "reads\nwrites\n"),
        ],
        |root| {
            let report = analyze_rule(root.to_path_buf(), "stats-schema");
            assert!(
                report.diagnostics.is_empty(),
                "in-sync schema must pass: {:#?}",
                report.diagnostics
            );
        },
    );
    // …and deleting the `writes` line from stats_schema.txt is caught.
    with_temp_tree(
        "schema-mutated",
        &[
            ("crates/sim/src/stats.rs", STATS_SOURCE),
            ("stats_schema.txt", "reads\n"),
        ],
        |root| {
            let report = analyze_rule(root.to_path_buf(), "stats-schema");
            assert!(
                report
                    .diagnostics
                    .iter()
                    .any(|d| d.rule == "stats-schema" && d.message.contains("writes")),
                "deleted schema key `writes` must be reported: {:#?}",
                report.diagnostics
            );
        },
    );
}

#[test]
fn update_schema_regenerates_a_passing_schema() {
    with_temp_tree(
        "schema-regen",
        &[("crates/sim/src/stats.rs", STATS_SOURCE)],
        |root| {
            // No schema file at all is a violation…
            let before = analyze_rule(root.to_path_buf(), "stats-schema");
            assert!(!before.diagnostics.is_empty());
            // …and --update-schema repairs it.
            let n = update_schema(root).expect("regenerate schema");
            assert_eq!(n, 2, "two keys: reads, writes");
            let after = analyze_rule(root.to_path_buf(), "stats-schema");
            assert!(
                after.diagnostics.is_empty(),
                "regenerated schema must pass: {:#?}",
                after.diagnostics
            );
        },
    );
}

// ---------------------------------------------------------------------------
// Live workspace self-check.
// ---------------------------------------------------------------------------

#[test]
fn live_workspace_has_zero_violations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let report = analyze_all(root);
    assert!(
        report.diagnostics.is_empty(),
        "the workspace must lint clean — fix or annotate:\n{}",
        report
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.files_scanned > 50,
        "sanity: the real tree was scanned"
    );
}
