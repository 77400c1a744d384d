//! The same-answers corpus: the four benchmark workloads and 296 generated
//! configurations (`support::draw`) at 5k warm-up + 30k measured CPU
//! cycles, one line each in `tests/data/answers.txt`:
//! `index label stats-digest image-digest section-tags`. The stats digest
//! is `fnv1a` of `SimStats::to_json`; the image digest is that of the
//! snapshot at the end of warm-up (`-` where snapshots are refused), and a
//! tag per image section names where a changed state went apart. A row
//! drawn past a validation bound reads `refused` and the error.
//!
//! Every row also checks request and fault conservation. Every fifth row
//! and each benchmark row check that the reference loop equals the event
//! kernel (statistics, telemetry series and spans) and that a restore from
//! the warm image re-snapshots byte for byte and measures the same; a
//! traced row replays its recording (`support::corpus`). The equivalence
//! tests of the other files name the checked rows that cover them.

mod support;

use std::collections::BTreeSet;
use std::path::Path;

use cloudmc::memctrl::{
    AddressMapping, PagePolicyKind, PowerPolicyKind, QosPolicyKind, SchedulerKind,
};
use cloudmc::workloads::Workload;
use support::corpus::{self, Answer, CHECKED, ROWS};

#[test]
fn answers_match_tests_data_answers_txt() {
    let mut text = "# index label stats-digest image-digest section-tags\n".to_owned();
    let (mut failures, mut seen) = (Vec::new(), BTreeSet::<&str>::new());
    for (line, facts) in run_all() {
        text += line;
        text.push('\n');
        match facts {
            Ok(facts) => seen.extend(facts.iter().map(String::as_str)),
            Err(e) => failures.push(e.clone()),
        }
    }
    let written = Path::new(env!("CARGO_TARGET_TMPDIR")).join("answers.txt");
    std::fs::write(&written, &text).expect("write the new answers");
    let pinned = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/answers.txt");
    let expected = std::fs::read_to_string(&pinned).unwrap_or_default();
    if expected != text {
        failures.push(mismatch(&expected, &text, &written, &pinned));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    let mut missing = required();
    missing.retain(|fact| !seen.contains(fact.as_str()));
    assert!(missing.is_empty(), "no row exercised {missing:?}");
}

/// Runs every row on scoped worker threads and returns the answers in row
/// order, so the file does not depend on the thread count `n`. Row `i` runs
/// on worker `i / CHECKED % n`, so each worker gets its share of checked
/// rows.
fn run_all() -> Vec<&'static Answer> {
    let n = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let stripe = move |w: usize| {
        for i in (0..ROWS).filter(|i| i / CHECKED % n == w) {
            corpus::answer(i);
        }
    };
    std::thread::scope(|s| {
        for w in 0..n {
            s.spawn(move || stripe(w));
        }
    });
    (0..ROWS).map(corpus::answer).collect()
}

/// What the rows must have exercised between them: every workload,
/// scheduler, page policy, power policy, mapping, QoS policy and channel
/// count, and in the checked rows the behaviours the hand-picked matrices
/// assert they reach.
fn required() -> Vec<String> {
    let mut facts = Workload::all().map(|w| w.acronym().to_owned()).to_vec();
    facts.extend(SchedulerKind::all().map(|s| s.label().to_owned()));
    facts.extend(PagePolicyKind::all().map(|p| p.to_string()));
    facts.extend(PowerPolicyKind::all().map(|p| p.to_string()));
    for p in &PowerPolicyKind::all()[1..] {
        facts.push(format!("power-down under {p}"));
    }
    facts.extend(AddressMapping::all().map(|m| m.to_string()));
    facts.extend(QosPolicyKind::all().map(|q| format!("qos:{q}")));
    facts.extend(["1ch", "2ch", "4ch", "demand reads", "DMA reads", "replay"].map(str::to_owned));
    let behaviours = ["faults and scrub reads", "telemetry series and spans"];
    facts.extend(behaviours.map(str::to_owned));
    facts.push("every tenant of a mix served".to_owned());
    facts
}

/// The section tags of a line; a row without an image has none.
fn tags(line: &str) -> Vec<&str> {
    let fields: Vec<&str> = line.split(' ').collect();
    match fields.get(3) {
        Some(&image) if image != "-" && !line.starts_with('#') => fields[4..].to_vec(),
        _ => Vec::new(),
    }
}

/// The failure for a corpus that no longer matches the pinned file: the
/// first changed line, the sections of the first row whose warm image
/// changed, and the `cp` that installs the new file.
fn mismatch(expected: &str, actual: &str, written: &Path, pinned: &Path) -> String {
    let (mut old, mut new): (Vec<_>, Vec<_>) =
        (expected.lines().collect(), actual.lines().collect());
    let n = old.len().max(new.len());
    old.resize(n, "");
    new.resize(n, "");
    let differ: Vec<usize> = (0..n).filter(|&i| old[i] != new[i]).collect();
    let (written, pinned) = (written.display(), pinned.display());
    let changed = differ.len();
    let mut msg = format!("{pinned} differs from this build's answers in {changed} lines");
    if let Some(&i) = differ.first() {
        let (line, was, now) = (i + 1, old[i], new[i]);
        msg += &format!("; first at line {line}:\n  pinned: {was}\n  now:    {now}");
    }
    let images = differ.iter().map(|&i| (new[i], tags(old[i]), tags(new[i])));
    let mut images = images.filter(|(_, a, b)| !a.is_empty() && !b.is_empty() && a != b);
    if let Some((line, was, now)) = images.next() {
        let row = line.split(' ').take(2).collect::<Vec<_>>().join(" ");
        msg += &format!("\nfirst row whose warm image differs: {row}\n  differing sections:");
        let pairs = was.iter().zip(&now).enumerate();
        for (k, (a, _)) in pairs.filter(|(_, (a, b))| a != b) {
            msg += &format!(" {} (section {k})", a.split(':').next().unwrap_or(a));
        }
    }
    let install = "If the change is intended, install the new answers with";
    msg + &format!("\n{install}\n  cp {written} {pinned}")
}
