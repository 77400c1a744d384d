//! Provenance: what produced a result, carried by every run and every result
//! file so numbers from different hosts, builds or scales are never compared
//! by accident.
//!
//! Nothing here shells out. The git revision and compiler version cannot be
//! known from inside the process (the driver's checkout is not even a git
//! repository), so the caller passes them in the environment:
//! `BENCH_GIT_DESCRIBE="$(git describe --always --dirty)"` and
//! `BENCH_RUSTC_VERSION="$(rustc --version)"`.

use crate::json::Value;
use crate::refloop::SamplingTracer;
use crate::run::Scale;
use crate::timed::SLICES_PER_SYSTEM;
use crate::workloads::WorkloadDef;

fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

fn env_or_unknown(key: &str) -> Value {
    text(std::env::var(key).unwrap_or_else(|_| "unknown".to_owned()))
}

/// Host and build facts shared by every run of one invocation.
pub fn host() -> Vec<(String, Value)> {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    [
        ("nproc", Value::Num(nproc as f64)),
        ("threads", Value::Num(1.0)),
        ("cargo_profile", text(profile)),
        ("rustc_version", env_or_unknown("BENCH_RUSTC_VERSION")),
        ("git_describe", env_or_unknown("BENCH_GIT_DESCRIBE")),
        ("harness_version", text(env!("CARGO_PKG_VERSION"))),
    ]
    .into_iter()
    .map(|(key, value)| (key.to_owned(), value))
    .collect()
}

/// The `meta` block of one run: the host facts, the run's parameters, and
/// what the run `measured` about itself (sample counts, timer cost).
pub fn collect(
    def: &WorkloadDef,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    measured: &[(&'static str, f64)],
) -> Value {
    let run = [
        ("scale", text(scale.label())),
        ("workload", text(def.name)),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("trace", Value::Bool(trace)),
        ("slice_cycles", Value::Num(def.slice_cycles as f64)),
        ("slices_per_system", Value::Num(SLICES_PER_SYSTEM as f64)),
        ("warmup_cycles", Value::Num(scale.warmup_cycles() as f64)),
        (
            "trace_stride",
            Value::Num(f64::from(SamplingTracer::STRIDE)),
        ),
    ];
    let measured = measured
        .iter()
        .map(|&(key, value)| (key, Value::Num(value)));
    let mut members = host();
    members.extend(
        run.into_iter()
            .chain(measured)
            .map(|(key, value)| (key.to_owned(), value)),
    );
    Value::Obj(members)
}
