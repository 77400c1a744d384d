//! `benchmark compare A.json B.json`: applies the benchmark's own bounds to
//! two result files written by `benchmark all --out` — A the parent, B the
//! change (or two sets of the same code, for the repeatability criterion).
//!
//! Per end-to-end metric × workload it prints one verdict:
//!
//! * **regressed** — B's median is worse than A's by more than the bound;
//! * **improved** — B's median is better by more than the spread of A's own
//!   runs (its interquartile distance) and B wins at least nine tenths of the
//!   seed-paired runs (never from a single run a side: its spread is unknown);
//! * **unresolved** — either side's run-to-run spread is wider than the
//!   bound, so neither of the above can be told from noise (unless every run
//!   of one side beats every run of the other, which decides it);
//! * **unchanged** — otherwise.
//!
//! Count metrics (simulated statistics over a fixed window) must be exactly
//! equal for every workload and seed the two files share.

use crate::estimate::{quantile, quartiles, sorted};
use crate::json::{self, Value};
use crate::metrics::{self, Better, Kind, MetricDef};
use crate::suite::RunRecord;
use crate::{workloads, Args};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct ResultFile {
    pub scale: String,
    pub seconds: f64,
    pub runs: Vec<RunRecord>,
}

pub fn parse_file(text: &str) -> Result<ResultFile, String> {
    let doc = json::parse(text)?;
    let meta = doc.get("meta").ok_or("no `meta` block")?;
    Ok(ResultFile {
        scale: meta
            .get("scale")
            .and_then(Value::as_str)
            .ok_or("meta has no `scale`")?
            .to_owned(),
        seconds: meta
            .get("seconds")
            .and_then(Value::as_f64)
            .ok_or("meta has no `seconds`")?,
        runs: doc
            .get("runs")
            .and_then(Value::as_array)
            .ok_or("no `runs` array")?
            .iter()
            .map(RunRecord::from_json)
            .collect::<Result<_, _>>()?,
    })
}

/// How much worse `b` is than `a` as a share of `a`, positive = worse.
fn worse_by(metric: &MetricDef, a: f64, b: f64) -> f64 {
    match metric.better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

/// Interquartile distance as a share of the median; 0 for a single run
/// (whose spread is unknown, not nil — the report says so).
fn spread(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |[q1, q2, q3]| (q3 - q1) / q2)
}

pub struct Row {
    pub verdict: Verdict,
    pub median_a: f64,
    pub median_b: f64,
    pub spread_a: f64,
    pub spread_b: f64,
}

/// The verdict for one metric on one workload. `a` and `b` hold one value
/// per run, in seed order.
pub fn judge(metric: &MetricDef, a: &[f64], b: &[f64]) -> Row {
    let bound = metric.bound.unwrap_or(0.0);
    let median_a = quantile(&sorted(a), 0.5);
    let median_b = quantile(&sorted(b), 0.5);
    let (spread_a, spread_b) = (spread(a), spread(b));
    let worse = worse_by(metric, median_a, median_b);
    let every_b_beats_every_a = a
        .iter()
        .all(|&x| b.iter().all(|&y| worse_by(metric, x, y) < 0.0));
    let every_a_beats_every_b = a
        .iter()
        .all(|&x| b.iter().all(|&y| worse_by(metric, x, y) > 0.0));
    let pairs = a.len().min(b.len());
    let b_wins = a
        .iter()
        .zip(b)
        .filter(|(&x, &y)| worse_by(metric, x, y) < 0.0)
        .count();
    let verdict = if spread_a > bound || spread_b > bound {
        if every_b_beats_every_a && -worse > spread_a {
            Verdict::Improved
        } else if every_a_beats_every_b && worse > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Regressed
    } else if pairs >= 2 && -worse > spread_a && b_wins * 10 >= pairs * 9 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Row {
        verdict,
        median_a,
        median_b,
        spread_a,
        spread_b,
    }
}

/// One value per run of `workload` that measured `metric`, in seed order.
pub fn values_of(runs: &[RunRecord], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    let mut runs: Vec<&RunRecord> = runs
        .iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .collect();
    runs.sort_by_key(|r| r.seed);
    runs.iter().filter_map(|r| r.metric(metric)).collect()
}

pub struct Comparison {
    pub regressed: usize,
    pub unresolved: usize,
    pub count_mismatches: usize,
    pub counts_compared: usize,
    /// The table, one line per metric × workload, then any count mismatches.
    pub report: Vec<String>,
}

/// Compares two parsed files.
pub fn compare(a: &ResultFile, b: &ResultFile) -> Result<Comparison, String> {
    if a.scale != b.scale {
        return Err(format!(
            "refusing to compare scale `{}` with scale `{}`",
            a.scale, b.scale
        ));
    }
    if a.seconds != b.seconds {
        return Err(format!(
            "refusing to compare runs of {} s with runs of {} s",
            a.seconds, b.seconds
        ));
    }
    for (label, file) in [("A", a), ("B", b)] {
        if let Some(bad) = file.runs.iter().find(|r| !r.correct || r.failed > 0) {
            return Err(format!(
                "file {label} holds a failed run ({} seed {}): nothing to compare",
                bad.workload, bad.seed
            ));
        }
    }

    let mut out = Comparison {
        regressed: 0,
        unresolved: 0,
        count_mismatches: 0,
        counts_compared: 0,
        report: Vec::new(),
    };
    out.report.push(format!(
        "{:<10} {:<13} {:>12} {:>12} {:>8} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound"
    ));
    for def in &workloads::WORKLOADS {
        for metric in metrics::END_TO_END {
            let va = values_of(&a.runs, def.name, false, metric.name);
            let vb = values_of(&b.runs, def.name, false, metric.name);
            if va.is_empty() || vb.is_empty() {
                return Err(format!(
                    "{} {} is missing from one of the files",
                    def.name, metric.name
                ));
            }
            let row = judge(metric, &va, &vb);
            match row.verdict {
                Verdict::Regressed => out.regressed += 1,
                Verdict::Unresolved => out.unresolved += 1,
                Verdict::Improved | Verdict::Unchanged => {}
            }
            out.report.push(format!(
                "{:<10} {:<13} {:>12.4} {:>12.4} {:>+7.2}% {:>8.2}% {:>8.2}% {:>5.0}%  {}{}",
                def.name,
                metric.name,
                row.median_a,
                row.median_b,
                (row.median_b / row.median_a - 1.0) * 100.0,
                row.spread_a * 100.0,
                row.spread_b * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                row.verdict.label(),
                if va.len() < 2 || vb.len() < 2 {
                    " (single run: spread unknown)"
                } else {
                    ""
                }
            ));
        }
    }

    // Simulated statistics: exact, per workload and seed.
    for ra in a.runs.iter().filter(|r| r.trace) {
        let Some(rb) = b
            .runs
            .iter()
            .find(|r| r.trace && r.workload == ra.workload && r.seed == ra.seed)
        else {
            continue;
        };
        for metric in metrics::PER_LAYER.iter().filter(|m| m.kind == Kind::Count) {
            out.counts_compared += 1;
            let (x, y) = (ra.metric(metric.name), rb.metric(metric.name));
            if x.map(f64::to_bits) != y.map(f64::to_bits) {
                out.count_mismatches += 1;
                out.report.push(format!(
                    "COUNT MISMATCH {} seed {} {}: {x:?} vs {y:?}",
                    ra.workload, ra.seed, metric.name
                ));
            }
        }
    }
    out.report.push(format!(
        "counts: {} compared, {} differ; end-to-end: {} regressed, {} unresolved",
        out.counts_compared, out.count_mismatches, out.regressed, out.unresolved
    ));
    Ok(out)
}

pub fn run(args: &Args) -> Result<bool, String> {
    args.reject_unknown(&[])?;
    let [path_a, path_b] = args.positional.as_slice() else {
        return Err("usage: benchmark compare A.json B.json".to_owned());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| parse_file(&text).map_err(|e| format!("{path}: {e}")))
    };
    let outcome = compare(&read(path_a)?, &read(path_b)?)?;
    for line in &outcome.report {
        println!("{line}");
    }
    Ok(outcome.regressed == 0 && outcome.count_mismatches == 0)
}
