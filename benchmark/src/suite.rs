//! `benchmark all`: the one documented command — self-tests, then every
//! workload, each run in its own process (so `peak_rss_mib` is that
//! workload's own and no run inherits another's warm allocator or caches),
//! strictly one after another (the host has two cores; the measured process
//! gets one to itself).

use std::process::{Command, Stdio};

use crate::estimate::{quantile, quartiles, sorted};
use crate::json::{self, obj, Value};
use crate::run::Scale;
use crate::{compare, meta, metrics, selftest, workloads, Args};

/// `run_seconds` of BENCHMARK.json (held equal by a self-test): how long one
/// full-scale run measures.
pub const FULL_SECONDS: f64 = 20.0;

pub fn default_seconds(scale: Scale) -> f64 {
    match scale {
        Scale::Full => FULL_SECONDS,
        Scale::Quick => 0.5,
    }
}

/// One finished child run, as stored in a result file.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)`; units are recoverable from the metric tables.
    pub metrics: Vec<(String, f64)>,
    /// The run's own provenance block (slice length and count, timer cost…).
    pub meta: Value,
}

impl RunRecord {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, value)| *value)
    }

    pub fn to_json(&self) -> Value {
        obj([
            ("workload", Value::Str(self.workload.clone())),
            ("seed", Value::Num(self.seed as f64)),
            ("trace", Value::Bool(self.trace)),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("meta", self.meta.clone()),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value)| {
                            let unit = metrics::find(name).map_or("", |m| m.unit);
                            (
                                name.clone(),
                                obj([
                                    ("value", Value::Num(*value)),
                                    ("unit", Value::Str(unit.to_owned())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Self, String> {
        let field = |key: &str| v.get(key).ok_or_else(|| format!("run without `{key}`"));
        let number = |key: &str| {
            field(key)?
                .as_f64()
                .ok_or_else(|| format!("run `{key}` is not a number"))
        };
        let metrics = field("metrics")?
            .as_object()
            .ok_or("run `metrics` is not an object")?
            .iter()
            .map(|(name, m)| {
                m.get("value")
                    .and_then(Value::as_f64)
                    .map(|value| (name.clone(), value))
                    .ok_or_else(|| format!("metric `{name}` has no numeric value"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            workload: field("workload")?
                .as_str()
                .ok_or("run `workload` is not a string")?
                .to_owned(),
            seed: number("seed")? as u64,
            trace: field("trace")?
                .as_bool()
                .ok_or("run `trace` is not a boolean")?,
            correct: field("correct")?
                .as_bool()
                .ok_or("run `correct` is not a boolean")?,
            attempted: number("attempted")? as u64,
            failed: number("failed")? as u64,
            metrics,
            meta: v.get("meta").cloned().unwrap_or(Value::Null),
        })
    }
}

/// Runs this executable again as `benchmark --workload … --trace …`, echoes
/// its report, and parses the result line. The child is always waited for.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if scale == Scale::Quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout
        .lines()
        .next_back()
        .ok_or_else(|| format!("the {workload} run printed nothing ({})", output.status))?;
    let line = json::parse(last).map_err(|e| format!("the {workload} run's result line: {e}"))?;
    let meta = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("meta "))
        .and_then(|text| json::parse(text).ok())
        .unwrap_or(Value::Null);
    let mut members = vec![
        ("workload".to_owned(), Value::Str(workload.to_owned())),
        ("seed".to_owned(), Value::Num(seed as f64)),
        ("trace".to_owned(), Value::Bool(trace)),
        ("meta".to_owned(), meta),
    ];
    members.extend(line.as_object().unwrap_or(&[]).iter().cloned());
    let mut record = RunRecord::from_json(&Value::Obj(members))?;
    // A child that reports success but exits non-zero (or the reverse) is
    // itself a failure.
    record.correct &= output.status.success();
    Ok(record)
}

fn print_summary(runs: &[RunRecord]) {
    println!("\n== end-to-end summary (median [q1 .. q3] over runs) ==");
    for def in &workloads::WORKLOADS {
        for metric in metrics::END_TO_END {
            let values = compare::values_of(runs, def.name, false, metric.name);
            let median = quantile(&sorted(&values), 0.5);
            match quartiles(&values) {
                Some([q1, _, q3]) => println!(
                    "{:<10} {:<13} {median:>12.4} [{q1:.4} .. {q3:.4}] {} n={} spread={:.2}% bound={:.0}%",
                    def.name,
                    metric.name,
                    metric.unit,
                    values.len(),
                    (q3 - q1) / median * 100.0,
                    metric.bound.unwrap_or(0.0) * 100.0
                ),
                None => println!(
                    "{:<10} {:<13} {median:>12.4} {} n={}",
                    def.name,
                    metric.name,
                    metric.unit,
                    values.len()
                ),
            }
        }
    }
}

pub fn run_all(args: &Args) -> Result<bool, String> {
    args.reject_unknown(&["--seed", "--runs", "--seconds", "--out"])?;
    let scale = args.scale();
    let seed: u64 = args.number("--seed", 1)?;
    let runs: u64 = args.number("--runs", if scale == Scale::Quick { 1 } else { 3 })?;
    let seconds: f64 = args.number("--seconds", default_seconds(scale))?;
    if runs == 0 {
        return Err("--runs must be at least 1".to_owned());
    }

    if !selftest::run_all() {
        return Ok(false);
    }

    let mut records = Vec::new();
    for def in &workloads::WORKLOADS {
        for r in 0..runs {
            records.push(run_child(def.name, seed + r, seconds, false, scale)?);
        }
        records.push(run_child(def.name, seed, seconds, true, scale)?);
    }
    print_summary(&records);

    let failed: Vec<String> = records
        .iter()
        .filter(|r| !r.correct)
        .map(|r| format!("{} seed {} trace {}", r.workload, r.seed, u8::from(r.trace)))
        .collect();
    if failed.is_empty() {
        println!("all {} runs correct", records.len());
    } else {
        println!("FAILED runs: {}", failed.join("; "));
    }

    if let Some(path) = args.get("--out") {
        let mut meta = meta::host();
        meta.extend([
            ("scale".to_owned(), Value::Str(scale.label().to_owned())),
            ("seconds".to_owned(), Value::Num(seconds)),
            ("first_seed".to_owned(), Value::Num(seed as f64)),
            ("runs_per_workload".to_owned(), Value::Num(runs as f64)),
        ]);
        let file = obj([
            ("meta", Value::Obj(meta)),
            (
                "runs",
                Value::Arr(records.iter().map(RunRecord::to_json).collect()),
            ),
        ]);
        std::fs::write(path, file.render() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(failed.is_empty())
}
