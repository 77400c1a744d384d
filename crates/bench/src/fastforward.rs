//! The fast-forward smoke gate: the event kernel against the per-cycle
//! reference loop (`Simulator::reference`, the test oracle) on an idle-heavy
//! stream, two dense streams, and a four-channel dense stream.
//!
//! `repro fastforward` asserts the two drivers bit-identical on every point,
//! prints their simulated-CPU-cycles-per-second side by side (the one table
//! of [`fastforward_report`]'s [`Report`]), and fails if
//! the event kernel runs a dense stream slower than the reference loop.
//! Nothing is written: the repository's host-time record is the ledger in
//! `benchmark/`.

use std::time::Instant;

use cloudmc_sim::{SimError, SimStats, Simulator, SystemConfig};
use cloudmc_workloads::Workload;

use crate::experiments::{baseline_config, Scale};
use crate::report::{Report, Table};
use crate::sweep::SweepError;

/// The idle-intensity factor of the benchmark's low-arrival-rate stream.
///
/// 2% of Web Search's off-chip rate models the low-utilization phases cloud
/// services spend most of their wall-clock in: tens of thousands of compute
/// instructions between memory events per core.
pub const IDLE_INTENSITY: f64 = 0.02;

/// The idle-heavy configuration: Web Search scaled to [`IDLE_INTENSITY`].
#[must_use]
pub fn idle_heavy_config(scale: &Scale) -> SystemConfig {
    let mut cfg = baseline_config(Workload::WebSearch, scale);
    cfg.workload = cfg.workload.with_intensity(IDLE_INTENSITY);
    cfg
}

/// The dense configuration: the unmodified TPC-H Q6 scan, the most
/// bandwidth-bound stream in the suite (the fast-forward's worst case).
#[must_use]
pub fn dense_config(scale: &Scale) -> SystemConfig {
    baseline_config(Workload::TpchQ6, scale)
}

/// Runs `sim` to completion; returns its stats and simulated CPU cycles per
/// wall-clock second.
fn timed_run(sim: Simulator) -> Result<(SimStats, f64), SimError> {
    let total = sim.system().config().total_cpu_cycles();
    let start = Instant::now();
    let stats = sim.try_run()?;
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    Ok((stats, total as f64 / wall))
}

/// One row: the reference loop's and the event kernel's throughput on
/// `cfg`, and the second over the first.
fn measure_point(name: &str, cfg: &SystemConfig) -> Result<Vec<f64>, SimError> {
    let event_sim = || Simulator::new(cfg.clone());
    // Warm the instruction/data caches of the *host* with one throwaway run,
    // then time each driver, pinning the event kernel to the reference.
    timed_run(event_sim()?)?;
    let (event_stats, event) = timed_run(event_sim()?)?;
    let (reference_stats, reference) = timed_run(Simulator::reference(cfg.clone())?)?;
    assert_eq!(
        event_stats, reference_stats,
        "{name}: the event kernel must stay bit-identical to the reference loop"
    );
    Ok(vec![reference, event, event / reference])
}

/// Runs all four points at `scale`. The report's one table, `fastforward`,
/// has a row per point: simulated CPU cycles per second under each driver
/// and their ratio (`speedup`); it has no points.
///
/// # Errors
///
/// [`SweepError::Failed`] naming the point whose configuration cannot run.
///
/// # Panics
///
/// Panics if the two drivers' statistics differ on a point.
pub fn fastforward_report(scale: &Scale) -> Result<Report, SweepError> {
    let mut four_channel = dense_config(scale);
    four_channel.num_channels = 4;
    let mut table = Table::new(
        "fastforward: throughput in simulated CPU cycles per second",
        ["reference_cycles_per_s", "event_cycles_per_s", "speedup"]
            .map(str::to_owned)
            .to_vec(),
    );
    table.note = "speedup = event kernel over the per-cycle reference loop".to_owned();
    for (name, cfg) in [
        ("idle_heavy", idle_heavy_config(scale)),
        ("web_search", baseline_config(Workload::WebSearch, scale)),
        ("tpch_q6", dense_config(scale)),
        ("tpch_q6_4ch", four_channel),
    ] {
        let row = measure_point(name, &cfg).map_err(|e| SweepError::Failed {
            label: name.to_owned(),
            reason: e.to_string(),
        })?;
        table.push_row(name, row);
    }
    Ok(Report {
        tables: vec![table],
        points: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_runs_and_serializes() {
        let scale = Scale {
            warmup_cpu_cycles: 2_000,
            measure_cpu_cycles: 10_000,
            seed: 1,
            threads: 1,
        };
        // `fastforward_report` itself asserts event == reference per point.
        let report = fastforward_report(&scale).unwrap();
        let table = report.table("fastforward").unwrap();
        let names: Vec<_> = table.rows.iter().map(|(label, _)| label.as_str()).collect();
        assert_eq!(
            names,
            ["idle_heavy", "web_search", "tpch_q6", "tpch_q6_4ch"]
        );
        assert!(table.to_text().contains("speedup"));
        assert!(names
            .iter()
            .all(|name| table.value(name, "speedup").unwrap() > 0.0));
    }
}
