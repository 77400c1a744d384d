//! The fast-forward smoke gate: the event kernel against the per-cycle
//! reference loop (`Simulator::reference`, the test oracle) on an idle-heavy
//! stream, two dense streams, and a four-channel dense stream.
//!
//! `repro fastforward` asserts the two drivers bit-identical on every point,
//! prints their simulated-CPU-cycles-per-second side by side, and fails if
//! the event kernel runs a dense stream slower than the reference loop.
//! Nothing is written: the repository's host-time record is the ledger in
//! `benchmark/`.

use std::time::Instant;

use cloudmc_sim::{SimStats, Simulator, SystemConfig};
use cloudmc_workloads::Workload;

use crate::experiments::{baseline_config, Scale};

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

/// One point: the same workload under both drivers.
#[derive(Debug, Clone)]
pub struct FastForwardPoint {
    /// Point name (`idle_heavy`, `tpch_q6`, ...).
    pub name: &'static str,
    /// Simulated CPU cycles per wall-clock second of the reference loop.
    pub reference_cycles_per_sec: f64,
    /// Simulated CPU cycles per wall-clock second of the event kernel.
    pub event_cycles_per_sec: f64,
}

impl FastForwardPoint {
    /// The event kernel over the reference loop.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.event_cycles_per_sec / self.reference_cycles_per_sec
    }
}

/// All four points.
#[derive(Debug, Clone)]
pub struct FastForwardReport {
    /// Idle-heavy and dense points.
    pub points: Vec<FastForwardPoint>,
}

/// Runs `sim` to completion; returns its stats and simulated CPU cycles per
/// wall-clock second.
fn timed_run(sim: Simulator) -> (SimStats, f64) {
    let total = sim.system().config().total_cpu_cycles();
    let start = Instant::now();
    let stats = sim.try_run().expect("benchmark run completes");
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    (stats, total as f64 / wall)
}

fn measure_point(name: &'static str, cfg: SystemConfig) -> FastForwardPoint {
    let event_sim = || Simulator::new(cfg.clone()).expect("valid benchmark configuration");
    // Warm the instruction/data caches of the *host* with one throwaway run,
    // then time each driver, pinning the event kernel to the reference.
    let _ = timed_run(event_sim());
    let (event_stats, event_cycles_per_sec) = timed_run(event_sim());
    let (reference_stats, reference_cycles_per_sec) =
        timed_run(Simulator::reference(cfg.clone()).expect("valid benchmark configuration"));
    assert_eq!(
        event_stats, reference_stats,
        "{name}: the event kernel must stay bit-identical to the reference loop"
    );
    FastForwardPoint {
        name,
        reference_cycles_per_sec,
        event_cycles_per_sec,
    }
}

/// Runs all four points at `scale`.
#[must_use]
pub fn fastforward_report(scale: &Scale) -> FastForwardReport {
    let mut four_channel = dense_config(scale);
    four_channel.num_channels = 4;
    FastForwardReport {
        points: vec![
            measure_point("idle_heavy", idle_heavy_config(scale)),
            measure_point("web_search", baseline_config(Workload::WebSearch, scale)),
            measure_point("tpch_q6", dense_config(scale)),
            measure_point("tpch_q6_4ch", four_channel),
        ],
    }
}

impl FastForwardReport {
    /// Human-readable summary for the terminal.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::from(
            "fast-forward throughput (simulated CPU cycles / second)\n\
             point            reference          event   speedup\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:<15} {:>10.0}   {:>12.0}   {:>6.2}x\n",
                p.name,
                p.reference_cycles_per_sec,
                p.event_cycles_per_sec,
                p.speedup()
            ));
        }
        out
    }
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
        let report = fastforward_report(&scale);
        let names: Vec<_> = report.points.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            ["idle_heavy", "web_search", "tpch_q6", "tpch_q6_4ch"]
        );
        assert!(report.to_text().contains("speedup"));
        assert!(report.points.iter().all(|p| p.speedup() > 0.0));
    }
}
