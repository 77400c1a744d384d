//! Trace capture & replay round-trip tracking: wall-clock cost of recording
//! a run, replay throughput against the synthetic generators, and the
//! checked-in golden mini-trace that pins the generator↔trace contract.
//!
//! [`trace_study`] returns a [`Report`] of two tables — the round trips
//! (records, trace bytes, wall seconds, overhead ratios) and the golden
//! check — which `repro trace` prints and writes as `BENCH_trace.json`, so
//! the trace subsystem's overhead is tracked alongside the paper's figures.
//! Every point asserts the record→replay equivalence guarantee
//! (bit-identical `SimStats`) before reporting timings.

use std::path::PathBuf;
use std::time::Instant;

use cloudmc_sim::{run_system, SimError, SimStats, SystemConfig, WorkloadSource};
use cloudmc_workloads::{MixSpec, TenantSpec, Workload};

use crate::experiments::{baseline_config, Scale};
use crate::report::{Report, Table};
use crate::sweep::SweepError;

/// The pinned configuration of the golden mini-trace at `tests/data/`: a
/// small latency-critical Web Search + batch TPC-H Q6 mix, short enough to
/// keep the checked-in file a few tens of kilobytes.
#[must_use]
pub fn golden_config() -> SystemConfig {
    let mix = MixSpec::new(TenantSpec::latency_critical(Workload::WebSearch, 2))
        .and(TenantSpec::batch(Workload::TpchQ6, 2));
    let mut cfg = SystemConfig::mixed(mix);
    cfg.warmup_cpu_cycles = 1_000;
    cfg.measure_cpu_cycles = 4_000;
    cfg.seed = 42;
    cfg
}

/// Path of the checked-in golden mini-trace.
#[must_use]
pub fn golden_trace_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/golden_mix.trace")
}

/// Regenerates the golden mini-trace in place from [`golden_config`]. Only
/// for deliberate generator changes: `tests/trace_replay_equivalence.rs`
/// pins the file against the generators byte for byte.
///
/// # Errors
///
/// The run's [`SimError`], including a sink that cannot be written.
pub fn regenerate_golden_trace() -> Result<PathBuf, SimError> {
    let path = golden_trace_path();
    let mut cfg = golden_config();
    cfg.trace_record = Some(path.clone());
    run_system(cfg)?;
    Ok(path)
}

/// The study's failure at point `label`.
fn failed(label: &str, reason: impl ToString) -> SweepError {
    SweepError::Failed {
        label: label.to_owned(),
        reason: reason.to_string(),
    }
}

/// Runs `cfg`; returns its statistics and wall-clock seconds.
fn timed(name: &str, cfg: SystemConfig) -> Result<(SimStats, f64), SweepError> {
    let start = Instant::now();
    let stats = run_system(cfg).map_err(|e| failed(name, e))?;
    Ok((stats, start.elapsed().as_secs_f64().max(1e-9)))
}

/// One record/replay round trip of `cfg`: records, trace bytes, then the
/// wall-clock seconds of the plain synthetic run, the recording and the
/// replay, and the last two over the first.
fn measure_point(name: &str, cfg: SystemConfig) -> Result<Vec<f64>, SweepError> {
    let trace = std::env::temp_dir().join(format!(
        "cloudmc_repro_trace_{name}_{}.trace",
        std::process::id()
    ));
    let round_trip = || -> Result<[f64; 3], SweepError> {
        // Host-cache warm-up, then the plain synthetic run.
        timed(name, cfg.clone())?;
        let (synthetic, synthetic_wall_s) = timed(name, cfg.clone())?;

        let mut record_cfg = cfg.clone();
        record_cfg.trace_record = Some(trace.clone());
        let (recorded, record_wall_s) = timed(name, record_cfg)?;
        assert_eq!(synthetic, recorded, "{name}: recording perturbed the run");

        let mut replay_cfg = cfg.clone();
        replay_cfg.source = WorkloadSource::Trace(trace.clone());
        let (replayed, replay_wall_s) = timed(name, replay_cfg)?;
        assert_eq!(
            recorded, replayed,
            "{name}: replay diverged from the recording"
        );
        Ok([synthetic_wall_s, record_wall_s, replay_wall_s])
    };
    let walls = round_trip();
    let trace_bytes = std::fs::metadata(&trace).map(|m| m.len()).unwrap_or(0);
    // Count records streaming — a standard-scale trace is tens of MB.
    let records = std::fs::File::open(&trace)
        .map(|f| std::io::BufRead::lines(std::io::BufReader::new(f)).count() as u64)
        .unwrap_or(0);
    std::fs::remove_file(&trace).ok();
    let [synthetic, record, replay] = walls?;
    Ok(vec![
        records as f64,
        trace_bytes as f64,
        synthetic,
        record,
        replay,
        record / synthetic,
        replay / synthetic,
    ])
}

/// The golden mini-trace replayed against the synthetic run of its pinned
/// configuration: a one-row table.
fn check_golden() -> Result<Table, SweepError> {
    let cfg = golden_config();
    let (synthetic, _) = timed("golden", cfg.clone())?;
    let mut replay_cfg = cfg;
    replay_cfg.source = WorkloadSource::Trace(golden_trace_path());
    let (replayed, _) = timed("golden", replay_cfg)?;
    if synthetic != replayed {
        return Err(failed(
            "golden",
            "the golden trace replay diverged from the generators (regenerate \
             tests/data/golden_mix.trace if the generator change is deliberate)",
        ));
    }
    let mut table = Table::new(
        "trace golden: the checked-in mini-trace replayed",
        ["trace_bytes", "user_instructions", "bit_identical"]
            .map(str::to_owned)
            .to_vec(),
    );
    table.note = "bit_identical 1 = the replay matched the generators".to_owned();
    let trace_bytes = std::fs::metadata(golden_trace_path()).map_or(0, |m| m.len());
    table.push_row(
        "golden",
        vec![trace_bytes as f64, replayed.user_instructions as f64, 1.0],
    );
    Ok(table)
}

/// Runs the trace round-trip study at `scale`: the golden-trace check, then
/// a solo scale-out stream and a latency-critical + batch mix. The report
/// holds two tables, `trace` (a row per round trip) and `trace golden`, and
/// no points.
///
/// # Errors
///
/// [`SweepError::Failed`] naming the point whose run failed, or `golden`
/// when the golden trace no longer replays bit-identically.
///
/// # Panics
///
/// Panics if a round trip breaks the record→replay equivalence guarantee.
pub fn trace_study(scale: &Scale) -> Result<Report, SweepError> {
    let mix = MixSpec::new(TenantSpec::latency_critical(Workload::WebSearch, 8))
        .and(TenantSpec::batch(Workload::TpchQ6, 8));
    let mut mixed = SystemConfig::mixed(mix);
    mixed.warmup_cpu_cycles = scale.warmup_cpu_cycles;
    mixed.measure_cpu_cycles = scale.measure_cpu_cycles;
    mixed.seed = scale.seed;
    let golden = check_golden()?;
    let mut round_trips = Table::new(
        "trace: record/replay round trip (bit-identical stats asserted)",
        [
            "records",
            "trace_bytes",
            "synthetic_wall_s",
            "record_wall_s",
            "replay_wall_s",
            "record_overhead",
            "replay_ratio",
        ]
        .map(str::to_owned)
        .to_vec(),
    );
    round_trips.note = "overhead and ratio are wall time over the plain synthetic run's".to_owned();
    for (name, cfg) in [
        ("web_search", baseline_config(Workload::WebSearch, scale)),
        ("ws+tpch_q6", mixed),
    ] {
        round_trips.push_row(name, measure_point(name, cfg)?);
    }
    Ok(Report {
        tables: vec![round_trips, golden],
        points: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::RunMeta;

    #[test]
    fn report_runs_and_serializes() {
        let scale = Scale {
            warmup_cpu_cycles: 2_000,
            measure_cpu_cycles: 10_000,
            seed: 1,
            threads: 1,
        };
        let report = trace_study(&scale).unwrap();
        let round_trips = report.table("trace").unwrap();
        for name in ["web_search", "ws+tpch_q6"] {
            let cell = |column: &str| round_trips.value(name, column).unwrap();
            assert!(cell("records") > 0.0);
            assert!(cell("trace_bytes") > 0.0);
            assert!(cell("record_wall_s") > 0.0 && cell("replay_wall_s") > 0.0);
        }
        let golden = report.table("trace golden").unwrap();
        assert_eq!(golden.value("golden", "bit_identical"), Some(1.0));
        let json = report.to_json(&RunMeta::collect("quick", None), "trace_record_replay");
        assert!(json.contains("\"web_search\""));
        assert!(json.contains("\"ws+tpch_q6\""));
        assert!(json.contains("\"golden\""));
        assert!(golden.to_text().contains("golden"));
    }

    #[test]
    fn golden_config_is_small_and_valid() {
        let cfg = golden_config();
        cfg.validate().unwrap();
        assert_eq!(cfg.core_count(), 4);
        assert!(cfg.total_cpu_cycles() <= 5_000);
    }
}
