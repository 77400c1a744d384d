//! The rows of the same-answers corpus (`tests/answers.rs`) and the checks
//! each row gets. A test that names corpus rows (`covers`) runs them
//! through the same checks, once per test binary.

use std::error::Error;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use cloudmc::sim::{
    run_system, SimError, SimStats, Simulator, Snapshot, SystemConfig, WorkloadSource,
};
use cloudmc::snap::fnv1a;
use cloudmc::telemetry::{SpanRecord, TelemetrySample};

use super::{benchmark_rows, draw, section_tags, shrink, Draw};

/// The four benchmark rows and 296 generated ones.
pub const ROWS: usize = 300;

/// Every `CHECKED`-th row, and each benchmark row, is a checked row: it
/// also holds the reference loop to the event kernel and a restore from
/// the warm image to the uninterrupted run.
pub const CHECKED: usize = 5;

pub fn checked(index: usize) -> bool {
    index < 4 || index.is_multiple_of(CHECKED)
}

/// Row `index`: a benchmark row, or `draw(index)`.
pub fn row(index: usize) -> Draw {
    match benchmark_rows().get(index) {
        Some(row) => row.clone(),
        None => draw(index as u64),
    }
}

/// A row's line, and what it exercised or why it failed.
pub type Answer = (String, Result<Vec<String>, String>);

/// Row `index`'s answer, computed once per test binary.
pub fn answer(index: usize) -> &'static Answer {
    static ANSWERS: [OnceLock<Answer>; ROWS] = [const { OnceLock::new() }; ROWS];
    ANSWERS[index].get_or_init(|| run(index, &row(index)))
}

/// Asserts that `rows` are checked rows that pass every check, that each
/// of them exercised every fact in `each`, and that between them they
/// exercised every fact in `between` (the facts of `answer`).
pub fn covers<S: AsRef<str>>(rows: &[usize], each: &[&str], between: &[S]) {
    let mut seen = Vec::new();
    for &index in rows {
        assert!(checked(index), "row {index} is not a checked row");
        let facts = answer(index).1.as_ref().unwrap_or_else(|e| panic!("{e}"));
        let has = |fact: &&str| facts.iter().any(|f| f == fact);
        assert!(each.iter().all(has), "row {index} exercised only {facts:?}");
        seen.extend(facts);
    }
    for fact in between.iter().map(AsRef::as_ref) {
        assert!(
            seen.iter().any(|f| *f == fact),
            "no row of {rows:?} exercised {fact}"
        );
    }
}

/// A run's measured statistics with the telemetry it collected.
pub type Observed = (SimStats, Vec<TelemetrySample>, Vec<SpanRecord>);

type Failure = Box<dyn Error>;

/// Row `index`'s answer; a failure (a panic included) names the row, and a
/// row that failed before its line was written reads `failed`.
fn run(index: usize, row: &Draw) -> Answer {
    let mut line = String::new();
    let error = match catch_unwind(AssertUnwindSafe(|| check(index, row, &mut line))) {
        Ok(Ok(facts)) => return (line, Ok(facts)),
        Ok(Err(e)) => e.to_string(),
        Err(_) => "panicked".to_owned(),
    };
    if line.is_empty() {
        line = format!("{index} {} failed", row.label);
    }
    (line, Err(format!("row {index} {}: {error}", row.label)))
}

/// Writes row `index`'s line, runs its checks and returns what it
/// exercised: the parts of its label, and for a checked row the behaviours
/// its checks reached.
fn check(index: usize, row: &Draw, line: &mut String) -> Result<Vec<String>, Failure> {
    let label = &row.label;
    if let Some(field) = row.invalid {
        let Err(SimError::Config(msg)) = Simulator::new(row.cfg.clone()) else {
            return Err(format!("{field} past its bound did not fail as a config error").into());
        };
        *line = format!("{index} {label} refused - {msg}");
        return Ok(Vec::new());
    }
    let name = format!("answers-{}-{index}.trace", std::process::id());
    let trace = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let (mut cfg, mut replay) = (row.cfg.clone(), row.cfg.clone());
    if row.trace {
        cfg.trace_record = Some(trace.clone());
        replay.source = WorkloadSource::Trace(trace.clone());
    }
    let mut sim = Simulator::new(cfg.clone())?;
    sim.run_warmup();
    let warm = conserved(&sim);
    let image = sim.system().snapshot().ok();
    let stats = sim.run_measurement()?;
    let observed = collected(&sim, stats);
    let s = &observed.0;
    let digest = fnv1a(s.to_json().as_bytes());
    *line = format!("{index} {label} {digest:016x} ");
    match &image {
        None => line.push('-'),
        Some(image) => {
            *line += &format!("{:016x}", fnv1a(image.as_bytes()));
            for (section, tag) in section_tags(image.as_bytes()) {
                *line += &format!(" {section}:{tag:04x}");
            }
        }
    }
    warm?;
    conserved(&sim)?;
    reliability(&cfg, s)?;
    telemetry(&cfg, &observed)?;
    if row.trace && run_system(replay.clone())? != *s {
        return Err("the replay diverged from the recording".into());
    }
    let checked = checked(index);
    // A traced row holds the reference loop to the replay.
    if checked && observe(Simulator::reference(replay))? != observed {
        let what = "the reference loop diverged from the event kernel";
        return Err(shrunk(what, &row.cfg, |c| {
            let reference = observe(Simulator::reference(c.clone())).ok();
            reference != observe(Simulator::new(c.clone())).ok()
        }));
    }
    let resumed = image.as_ref().filter(|_| checked);
    if let Some(image) = resumed {
        if let Err(e) = restores(&cfg, image, s) {
            return Err(shrunk(&e.to_string(), &cfg, |c| {
                let mut warm = Simulator::new(c.clone()).expect("valid config");
                warm.run_warmup();
                let image = warm.system().snapshot().expect("snapshot");
                restores(c, &image, &warm.run_measurement().expect("run")).is_err()
            }));
        }
    }
    std::fs::remove_file(&trace).ok();

    let mut facts: Vec<String> = label.split(['/', '+', '@']).map(str::to_owned).collect();
    let tenancy = row.cfg.tenancy();
    let dma = tenancy.tenants().any(|t| t.workload.dma_per_kcycle > 0.0);
    let power_down = format!("power-down under {}", row.cfg.mc.power_policy);
    let served = |per_tenant: &[u64]| s.tenants > 1 && per_tenant.iter().all(|&n| n > 0);
    let tenants = served(&s.instructions_per_tenant) && served(&s.reads_completed_per_tenant);
    let faults = s.faults_injected > 0 && s.scrub_reads_completed > 0;
    let series = !observed.1.is_empty() && !observed.2.is_empty();
    let far = row.cfg.l2.bank_latency >= 50 && row.cfg.l2.crossbar_latency >= 40;
    for (exercised, fact) in [
        (s.power_down_fraction > 0.0, power_down.as_str()),
        (faults, "faults and scrub reads"),
        (cfg.mc.fault_model.is_none(), "fault-free"),
        (s.reads_completed > 0, "demand reads"),
        (dma && s.reads_completed > 0, "DMA reads"),
        (series, "telemetry series and spans"),
        (row.trace, "replay"),
        (resumed.is_some(), "resumed"),
        (s.tenants == 1, "solo"),
        (tenants, "every tenant of a mix served"),
        (far, "far fills"),
    ] {
        if checked && exercised {
            facts.push(fact.to_owned());
        }
    }
    Ok(facts)
}

/// The measured statistics with the telemetry the run collected.
fn collected(sim: &Simulator, stats: SimStats) -> Observed {
    let system = sim.system();
    (
        stats,
        system.telemetry_series().to_vec(),
        system.telemetry_spans().to_vec(),
    )
}

/// Runs `sim` through its warm-up and measurement.
pub fn observe(sim: Result<Simulator, SimError>) -> Result<Observed, SimError> {
    let mut sim = sim?;
    sim.run_warmup();
    let stats = sim.run_measurement()?;
    Ok(collected(&sim, stats))
}

/// Restores `image` of `cfg`: it must re-snapshot byte for byte and measure
/// `measured`.
fn restores(cfg: &SystemConfig, image: &Snapshot, measured: &SimStats) -> Result<(), Failure> {
    let mut resumed = Simulator::from_snapshot(cfg.clone(), image)?;
    if resumed.system().snapshot()? != *image {
        return Err("restore → snapshot is not the identity".into());
    }
    if resumed.run_measurement()? != *measured {
        return Err("the run resumed from the warm image diverged".into());
    }
    Ok(())
}

/// Whether a failure has been shrunk: shrinking reruns its row many times,
/// so only the first failure found is.
static SHRUNK: AtomicBool = AtomicBool::new(false);

/// A failure of `cfg`; the first one found also names the smallest run
/// length and channel count that shrinking still finds it at.
fn shrunk(what: &str, cfg: &SystemConfig, fails: impl Fn(&SystemConfig) -> bool) -> Failure {
    if SHRUNK.swap(true, Ordering::Relaxed) {
        return what.into();
    }
    let c = shrink(cfg.clone(), fails);
    let (warm, measure, channels) = (c.warmup_cpu_cycles, c.measure_cpu_cycles, c.num_channels);
    let at = format!("{warm} + {measure} cycles on {channels} channels");
    format!("{what}; shrunk, it still fails at {at}").into()
}

/// Every request sent is completed or still in flight.
fn conserved(sim: &Simulator) -> Result<(), String> {
    let system = sim.system();
    let sent = system.memory_reads_sent() + system.memory_writes_sent();
    let completed = system.controller_stats().completed();
    let in_flight = system.requests_in_flight();
    if sent == completed + in_flight {
        return Ok(());
    }
    let at = system.cpu_cycle();
    Err(format!(
        "cycle {at}: {sent} sent, {completed} completed + {in_flight} in flight"
    ))
}

/// The fault ledger balances; without a fault model every reliability
/// counter is 0.
fn reliability(cfg: &SystemConfig, s: &SimStats) -> Result<(), String> {
    let resolved = s.faults_corrected + s.faults_uncorrectable + s.faults_latent;
    if cfg.mc.fault_model.is_some() {
        return match s.faults_injected == resolved {
            true => Ok(()),
            false => Err(format!(
                "{} faults injected, {resolved} resolved",
                s.faults_injected
            )),
        };
    }
    let counters = [
        s.ecc_corrected,
        s.ecc_detected_uncorrectable,
        s.ecc_miscorrects,
        s.demand_retries,
        s.scrub_reads_issued,
        s.scrub_reads_completed,
        s.scrub_corrected,
        s.scrub_uncorrectable,
        s.rows_retired,
        s.lines_poisoned,
        s.poisoned_reads,
        s.faults_injected,
        resolved,
        s.rows_retired_per_rank.iter().sum(),
        s.retired_capacity_bytes,
    ];
    match counters.iter().all(|&n| n == 0) {
        true => Ok(()),
        false => Err(format!(
            "reliability counters without a fault model: {counters:?}"
        )),
    }
}

/// Samples land on exact interval boundaries; spans are sampled by id.
fn telemetry(cfg: &SystemConfig, (_, series, spans): &Observed) -> Result<(), String> {
    let t = &cfg.telemetry;
    let (interval, every) = (t.sample_interval, t.span_sample_every);
    let samples = cfg.total_cpu_cycles().checked_div(interval).unwrap_or(0);
    let cycles = series.iter().map(|s| s.cycle);
    if cycles.ne((1..=samples).map(|i| i * interval)) {
        return Err(format!("samples off the {interval}-cycle boundaries"));
    }
    let bad = |s: &&SpanRecord| {
        !s.id.is_multiple_of(every) || s.enqueue > s.issue || s.issue > s.completion
    };
    match spans.iter().find(bad) {
        Some(span) => Err(format!("span {span:?}, sampled every {every}")),
        None => Ok(()),
    }
}
