//! `benchmark`: the cloudmc performance ledger (see README.md).
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]   one run (what BENCHMARK.json's command invokes)
//! benchmark all [--seed N] [--runs R] [--seconds S] [--quick] [--out FILE]
//!                                                                     self-tests, then every workload
//! benchmark selftest                                                  the harness's own tests
//! benchmark compare A.json B.json                                     apply the bounds to two `all --out` files
//! ```

mod checks;
mod compare;
mod estimate;
mod json;
mod layers;
mod meta;
mod metrics;
mod refloop;
mod run;
mod selftest;
mod suite;
mod timed;
mod workloads;

use std::process::ExitCode;

use json::Value;
use metrics::MetricDef;
use run::{RunOutcome, Scale};

/// `--key value` pairs and bare flags after the subcommand.
pub struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    const FLAGS: [&'static str; 1] = ["--quick"];

    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut args = Self {
            pairs: Vec::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            if Self::FLAGS.contains(&arg.as_str()) {
                args.flags.push(arg.clone());
            } else if arg.starts_with("--") {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                args.pairs.push((arg.clone(), value.clone()));
            } else {
                args.positional.push(arg.clone());
            }
        }
        Ok(args)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{key}: `{text}` is not a valid number")),
        }
    }

    fn scale(&self) -> Scale {
        if self.flags.iter().any(|f| f == "--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self
            .pairs
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((key, _)) => Err(format!("unknown option {key}")),
            None => Ok(()),
        }
    }
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed`, `metrics`. A metric of the mode that was not measured (or is not
/// a finite number) is one more failed operation.
fn result_line(outcome: &mut RunOutcome, expected: &[MetricDef]) -> Value {
    let mut metrics = Vec::new();
    for def in expected {
        match outcome.metrics.iter().find(|(name, _)| *name == def.name) {
            Some((_, value)) if value.is_finite() => metrics.push((
                def.name.to_owned(),
                json::obj([
                    ("value", Value::Num(*value)),
                    ("unit", Value::Str(def.unit.to_owned())),
                ]),
            )),
            _ => outcome
                .ops
                .record(def.name, Err("metric was not measured".to_owned())),
        }
    }
    json::obj([
        ("correct", Value::Bool(outcome.ops.failed == 0)),
        ("attempted", Value::Num(outcome.ops.attempted as f64)),
        ("failed", Value::Num(outcome.ops.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
}

/// One run of one workload, as BENCHMARK.json's command invokes it.
fn run_one(args: &Args) -> Result<bool, String> {
    args.reject_unknown(&["--workload", "--seed", "--seconds", "--trace"])?;
    let name = args.get("--workload").ok_or("--workload is required")?;
    let def = workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    let seed: u64 = args.number("--seed", 1)?;
    let scale = args.scale();
    let seconds: f64 = args.number("--seconds", suite::default_seconds(scale))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let trace = match args.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };

    println!(
        "# cloudmc benchmark: workload={} seed={seed} seconds={seconds} trace={} scale={}",
        def.name,
        u8::from(trace),
        scale.label()
    );
    println!("# why: {}", def.why);
    let (mut outcome, expected) = if trace {
        (
            run::per_layer(def, seed, seconds, scale),
            metrics::PER_LAYER,
        )
    } else {
        (
            run::end_to_end(def, seed, seconds, scale),
            metrics::END_TO_END,
        )
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (name, value) in &outcome.metrics {
        let unit = metrics::find(name).map_or("", |m| m.unit);
        println!("{name} {value} {unit}");
    }
    println!(
        "meta {}",
        meta::collect(def, seed, seconds, trace, scale, &outcome.meta).render()
    );
    println!("{}", result_line(&mut outcome, expected).render());
    Ok(outcome.ops.failed == 0)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match raw.first().map(String::as_str) {
        Some("all" | "selftest" | "compare") => (raw[0].as_str(), &raw[1..]),
        _ => ("run", &raw[..]),
    };
    let outcome = Args::parse(rest).and_then(|args| match command {
        "all" => suite::run_all(&args),
        "selftest" => Ok(selftest::run_all()),
        "compare" => compare::run(&args),
        _ => run_one(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
