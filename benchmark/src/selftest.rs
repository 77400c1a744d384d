//! The harness's own tests, run by `benchmark selftest`, at the start of
//! `benchmark all`, and by `cargo test` (one wrapper test). They check the
//! measuring instrument, not the simulator: estimators on known vectors, the
//! metric tables against BENCHMARK.json and its limits, the API surface the
//! harness is allowed to touch, the oracle on a smoke of every workload, and
//! `compare`'s verdicts.

use crate::checks;
use crate::compare::{self, Verdict};
use crate::estimate::{quantile, quartiles, summarize};
use crate::json::{self, Value};
use crate::metrics::{self, Better, Kind, MetricDef, END_TO_END, PER_LAYER};
use crate::refloop::{NoTrace, RefSystem};
use crate::suite::FULL_SECONDS;
use crate::timed;
use crate::workloads::WORKLOADS;

type Test = (&'static str, fn() -> Result<(), String>);

const TESTS: &[Test] = &[
    ("estimators_on_known_vectors", estimators_on_known_vectors),
    ("quartiles_match_python", quartiles_match_python),
    ("json_round_trips", json_round_trips),
    ("names_units_and_limits", names_units_and_limits),
    ("benchmark_json_agrees", benchmark_json_agrees),
    ("pinned_api_surface", pinned_api_surface),
    ("reference_loop_smoke", reference_loop_smoke),
    ("seeds_differ_and_pass", seeds_differ_and_pass),
    ("compare_verdicts", compare_verdicts),
];

/// Runs every self-test, printing one line each; `true` when all pass.
pub fn run_all() -> bool {
    let mut failed = 0;
    for (name, test) in TESTS {
        match test() {
            Ok(()) => println!("selftest {name} ... ok"),
            Err(why) => {
                failed += 1;
                println!("selftest {name} ... FAILED: {why}");
            }
        }
    }
    println!("selftest: {} passed, {failed} failed", TESTS.len() - failed);
    failed == 0
}

fn ensure(condition: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if condition {
        Ok(())
    } else {
        Err(what())
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * b.abs().max(1.0)
}

fn estimators_on_known_vectors() -> Result<(), String> {
    // 0..=100: every percentile is its own index.
    let ramp: Vec<f64> = (0..=100).map(f64::from).collect();
    for (q, want) in [
        (0.10, 10.0),
        (0.50, 50.0),
        (0.99, 99.0),
        (0.0, 0.0),
        (1.0, 100.0),
    ] {
        let got = quantile(&ramp, q);
        ensure(close(got, want), || {
            format!("quantile({q}) = {got}, want {want}")
        })?;
    }
    // Interpolation between ranks.
    ensure(close(quantile(&[1.0, 2.0], 0.5), 1.5), || {
        "midpoint".to_owned()
    })?;
    ensure(quantile(&[], 0.5).is_nan(), || {
        "empty input must be NaN".to_owned()
    })?;
    // Nine fast slices and one slice ten times slower (a host hiccup): the
    // fast decile and the median ignore it, p99 sees it, and it is the one
    // slice counted as slow. Order of arrival must not matter.
    let mut times = vec![1.0; 9];
    times.insert(3, 10.0);
    let s = summarize(&times);
    ensure(
        s.n == 10 && close(s.fast, 1.0) && close(s.median, 1.0),
        || format!("hiccup moved fast decile or median: {s:?}"),
    )?;
    ensure(s.p99 > 9.0, || format!("p99 missed the hiccup: {s:?}"))?;
    ensure(close(s.slow_share, 0.1), || format!("slow share: {s:?}"))
}

fn quartiles_match_python() -> Result<(), String> {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let got = quartiles(&ten).ok_or("no quartiles of ten values")?;
    ensure(
        got.iter().zip([2.75, 5.5, 8.25]).all(|(g, w)| close(*g, w)),
        || format!("{got:?}"),
    )?;
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    let got = quartiles(&[3.0, 1.0, 2.0]).ok_or("no quartiles of three values")?;
    ensure(
        got.iter().zip([1.0, 2.0, 3.0]).all(|(g, w)| close(*g, w)),
        || format!("{got:?}"),
    )?;
    ensure(quartiles(&[1.0]).is_none(), || {
        "one value has no quartiles".to_owned()
    })
}

fn json_round_trips() -> Result<(), String> {
    let text = r#"{"a":[1,2.5,-0.03,true,null],"b":{"c":"x\"y\\z\n"},"d":0.1}"#;
    let value = json::parse(text)?;
    ensure(value.render() == text, || {
        format!("rendered {}", value.render())
    })?;
    // Every digit of a measured value survives.
    let measured = 2.671924615302172_f64;
    let back = json::parse(&Value::Num(measured).render())?;
    ensure(back.as_f64() == Some(measured), || "lost digits".to_owned())?;
    for bad in ["", "{", "[1,]", "{\"a\":1,}", "1 2", "\"open", "nul"] {
        ensure(json::parse(bad).is_err(), || format!("accepted `{bad}`"))?;
    }
    Ok(())
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// The limits BENCHMARK.json is held to by the driver, applied to the tables
/// it is generated from.
fn names_units_and_limits() -> Result<(), String> {
    ensure((2..=8).contains(&WORKLOADS.len()), || {
        "2 to 8 workloads".to_owned()
    })?;
    ensure((1..=16).contains(&END_TO_END.len()), || {
        "1 to 16 end-to-end metrics".to_owned()
    })?;
    ensure((1..=128).contains(&PER_LAYER.len()), || {
        "1 to 128 per-layer metrics".to_owned()
    })?;
    let mut seen = std::collections::BTreeSet::new();
    for name in WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
    {
        ensure(valid_name(name), || format!("bad name `{name}`"))?;
        ensure(seen.insert(name), || format!("name `{name}` used twice"))?;
    }
    for w in &WORKLOADS {
        ensure(w.why.len() <= 200 && !w.why.contains('\n'), || {
            format!("{}: why must be one line of at most 200 characters", w.name)
        })?;
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        ensure(valid_unit(m.unit), || {
            format!("{}: bad unit `{}`", m.name, m.unit)
        })?;
    }
    for m in END_TO_END {
        let bound = m.bound.ok_or_else(|| format!("{} has no bound", m.name))?;
        ensure(bound > 0.0 && bound <= 0.25 && m.kind == Kind::Host, || {
            format!("{}: bound {bound} outside (0, 0.25]", m.name)
        })?;
    }
    ensure(PER_LAYER.iter().all(|m| m.bound.is_none()), || {
        "per-layer metrics carry no bound".to_owned()
    })?;
    let setup = metrics::find("setup_s").ok_or("no setup_s metric")?;
    let largest = END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    ensure(
        setup.unit == "s" && setup.better == Better::Lower && setup.bound == Some(largest),
        || "setup_s must be in s, lower-is-better, with the largest bound".to_owned(),
    )
}

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn benchmark_json_agrees() -> Result<(), String> {
    ensure(BENCHMARK_JSON.len() <= 64 * 1024, || {
        "larger than 64 KiB".to_owned()
    })?;
    let doc = json::parse(BENCHMARK_JSON)?;
    let keys: Vec<&str> = doc
        .as_object()
        .ok_or("not an object")?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    ensure(
        keys == [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
        || format!("keys are {keys:?}"),
    )?;
    let strings = |key: &str| -> Result<Vec<&str>, String> {
        doc.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("`{key}` is not an array"))?
            .iter()
            .map(|v| {
                v.as_str()
                    .ok_or_else(|| format!("`{key}` holds a non-string"))
            })
            .collect()
    };
    ensure(strings("paths")? == ["benchmark"], || {
        "paths must be [\"benchmark\"]".to_owned()
    })?;
    let command = strings("command")?;
    ensure(
        command.iter().any(|arg| arg.starts_with("benchmark/")) && command.len() <= 32,
        || format!("command {command:?} must name a file under benchmark/"),
    )?;
    ensure(
        doc.get("run_seconds").and_then(Value::as_f64) == Some(FULL_SECONDS),
        || format!("run_seconds must equal the harness's {FULL_SECONDS}"),
    )?;

    let entries = |key: &str| {
        doc.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("`{key}` is not an array"))
    };
    let text = |entry: &Value, key: &str| -> Result<String, String> {
        entry
            .get(key)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("entry without `{key}`"))
    };
    let listed = entries("workloads")?;
    ensure(listed.len() == WORKLOADS.len(), || {
        "workload count differs".to_owned()
    })?;
    for (entry, def) in listed.iter().zip(&WORKLOADS) {
        ensure(
            text(entry, "name")? == def.name && text(entry, "why")? == def.why,
            || format!("workload {} differs from BENCHMARK.json", def.name),
        )?;
    }
    let check_metrics = |key: &str, table: &[MetricDef], bounded: bool| -> Result<(), String> {
        let listed = entries(key)?;
        ensure(listed.len() == table.len(), || {
            format!("`{key}` count differs")
        })?;
        for (entry, def) in listed.iter().zip(table) {
            let same = text(entry, "name")? == def.name
                && text(entry, "unit")? == def.unit
                && text(entry, "better")? == def.better.label()
                && entry.get("bound").and_then(Value::as_f64) == def.bound
                && entry.as_object().map_or(0, <[_]>::len) == if bounded { 4 } else { 3 };
            ensure(same, || {
                format!("metric {} differs from BENCHMARK.json", def.name)
            })?;
        }
        Ok(())
    };
    check_metrics("end_to_end", END_TO_END, true)?;
    check_metrics("per_layer", PER_LAYER, false)
}

/// The harness's own sources, embedded so the check needs no file system.
const SOURCES: &[(&str, &str)] = &[
    ("checks.rs", include_str!("checks.rs")),
    ("compare.rs", include_str!("compare.rs")),
    ("estimate.rs", include_str!("estimate.rs")),
    ("json.rs", include_str!("json.rs")),
    ("layers.rs", include_str!("layers.rs")),
    ("main.rs", include_str!("main.rs")),
    ("meta.rs", include_str!("meta.rs")),
    ("metrics.rs", include_str!("metrics.rs")),
    ("refloop.rs", include_str!("refloop.rs")),
    ("run.rs", include_str!("run.rs")),
    ("selftest.rs", include_str!("selftest.rs")),
    ("suite.rs", include_str!("suite.rs")),
    ("timed.rs", include_str!("timed.rs")),
    ("workloads.rs", include_str!("workloads.rs")),
];

/// Later performance and simplification PRs may not edit this directory, so
/// the harness must not name anything they plan to change: the kernel
/// selection knobs, the per-layer "when can you next act" surface, the
/// scheduler dispatch internals and the in-program profiler. Each banned name
/// is spelled in two halves here so this file does not match itself.
fn pinned_api_surface() -> Result<(), String> {
    let modules = include_str!("main.rs")
        .lines()
        .filter(|l| l.starts_with("mod "))
        .count();
    ensure(SOURCES.len() == modules + 1, || {
        format!(
            "SOURCES lists {} files, main.rs declares {modules} modules",
            SOURCES.len()
        )
    })?;
    const BANNED: &[[&str; 2]] = &[
        ["fast_", "forward"],
        ["event_", "driven"],
        [".thr", "eads"],
        ["thr", "eads:"],
        ["next_", "event_cycle"],
        ["next_", "due_cycle"],
        ["next_", "ready_dram_cycle"],
        ["next_", "action_cycle"],
        ["next_", "wake"],
        ["cached_", "next_due"],
        ["run", "way("],
        ["Scheduler", "Impl"],
        ["Sched", "Context"],
        ["Box", "ed("],
        ["Kernel", "Profiler"],
        ["profile_", "kernel"],
        ["tick_", "event"],
        ["skip_", "dram_cycles"],
    ];
    for (file, text) in SOURCES {
        for halves in BANNED {
            let name = halves.concat();
            if let Some(line) = text.lines().position(|l| l.contains(&name)) {
                return Err(format!("{file}:{} names `{name}`", line + 1));
            }
        }
    }
    Ok(())
}

/// Smoke-sized configuration of a workload: short warm-up, so the oracle
/// comparison takes milliseconds.
fn smoke_config(def: &crate::workloads::WorkloadDef, seed: u64) -> cloudmc_sim::SystemConfig {
    let mut cfg = def.config(seed, 5_000);
    cfg.measure_cpu_cycles = 15_000;
    cfg
}

fn reference_loop_smoke() -> Result<(), String> {
    for def in &WORKLOADS {
        let cfg = smoke_config(def, 1);
        let mut reference = RefSystem::new(&cfg)?;
        reference.run(20_000, &mut NoTrace);
        checks::reference_loop(&cfg, &reference).map_err(|why| format!("{}: {why}", def.name))?;
    }
    Ok(())
}

fn seeds_differ_and_pass() -> Result<(), String> {
    for def in &WORKLOADS {
        let mut windows = Vec::new();
        for seed in [1, 2] {
            let cfg = smoke_config(def, seed);
            let tag = |why: String| format!("{} seed {seed}: {why}", def.name);
            windows.push(checks::determinism(&cfg, 15_000).map_err(tag)?);
            checks::reference_loop_from_cold(&cfg, 20_000).map_err(tag)?;
            let (mut sim, _) = timed::setup(&cfg).map_err(tag)?;
            checks::fork_identity(&mut sim, &cfg, 10_000).map_err(tag)?;
            checks::conservation(&sim).map_err(tag)?;
        }
        ensure(windows[0] != windows[1], || {
            format!("{}: seeds 1 and 2 simulated identical statistics", def.name)
        })?;
    }
    Ok(())
}

fn compare_verdicts() -> Result<(), String> {
    // Stand-ins with a fixed 5% bound, so the cases do not move when the
    // benchmark's real bounds are retuned.
    let metric = |better| MetricDef {
        name: "stand_in",
        unit: "x",
        better,
        bound: Some(0.05),
        kind: Kind::Host,
    };
    let (mcps, setup) = (&metric(Better::Higher), &metric(Better::Lower));
    let tight = [
        100.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7, 100.0,
    ];
    let scaled = |k: f64| tight.map(|v| v * k);
    let noisy = [
        100.0, 120.0, 80.0, 110.0, 90.0, 125.0, 75.0, 105.0, 95.0, 100.0,
    ];
    type Case<'a> = (&'a str, &'a MetricDef, &'a [f64], &'a [f64], Verdict);
    let cases: [Case<'_>; 7] = [
        ("same", mcps, &tight, &tight, Verdict::Unchanged),
        ("10% slower", mcps, &tight, &scaled(0.9), Verdict::Regressed),
        ("10% faster", mcps, &tight, &scaled(1.1), Verdict::Improved),
        (
            "3% slower is within the bound",
            mcps,
            &tight,
            &scaled(0.97),
            Verdict::Unchanged,
        ),
        ("noisy sides", mcps, &noisy, &noisy, Verdict::Unresolved),
        (
            "noisy but every run better",
            mcps,
            &noisy,
            &noisy.map(|v| v * 2.0),
            Verdict::Improved,
        ),
        (
            "lower-is-better metric got 30% bigger",
            setup,
            &tight,
            &scaled(1.3),
            Verdict::Regressed,
        ),
    ];
    for (what, metric, a, b, want) in cases {
        let got = compare::judge(metric, a, b).verdict;
        ensure(got == want, || format!("{what}: {got:?}, want {want:?}"))?;
    }

    // File level: scales never mix, and a moved count is reported.
    let file = |scale: &str, reads: f64| {
        let e2e: Vec<String> = END_TO_END
            .iter()
            .map(|m| format!(r#""{}":{{"value":10,"unit":"{}"}}"#, m.name, m.unit))
            .collect();
        let runs: Vec<String> = WORKLOADS
            .iter()
            .flat_map(|w| {
                [
                    format!(
                        r#"{{"workload":"{}","seed":1,"trace":false,"correct":true,"attempted":5,"failed":0,"metrics":{{{}}}}}"#,
                        w.name,
                        e2e.join(",")
                    ),
                    format!(
                        r#"{{"workload":"{}","seed":1,"trace":true,"correct":true,"attempted":5,"failed":0,"metrics":{{"memctrl.reads_completed":{{"value":{reads},"unit":"count"}}}}}}"#,
                        w.name
                    ),
                ]
            })
            .collect();
        compare::parse_file(&format!(
            r#"{{"meta":{{"scale":"{scale}","seconds":20}},"runs":[{}]}}"#,
            runs.join(",")
        ))
    };
    let full = file("full", 1000.0)?;
    ensure(
        compare::compare(&full, &file("quick", 1000.0)?).is_err(),
        || "compared a full file with a quick one".to_owned(),
    )?;
    let same = compare::compare(&full, &file("full", 1000.0)?)?;
    ensure(
        same.regressed == 0 && same.count_mismatches == 0 && same.counts_compared > 0,
        || "identical files must compare clean".to_owned(),
    )?;
    let moved = compare::compare(&full, &file("full", 1001.0)?)?;
    ensure(moved.count_mismatches == WORKLOADS.len(), || {
        format!("{} count mismatches reported", moved.count_mismatches)
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn selftests_pass() {
        assert!(super::run_all());
    }
}
