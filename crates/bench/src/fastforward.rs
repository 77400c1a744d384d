//! Fast-forward performance tracking: simulated-CPU-cycles-per-second of
//! the event kernel against the per-cycle reference loop
//! (`Simulator::reference`, the test oracle) on an idle-heavy stream, two
//! dense streams, and a four-channel dense stream.
//!
//! The `repro fastforward` experiment serializes the result as
//! `BENCH_fastforward.json` so the performance trajectory of the simulator
//! itself is tracked alongside the paper's figures; the event kernel is
//! asserted bit-identical to the reference loop as a side effect of
//! measuring it.

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

/// Throughput of one configuration under one driver.
#[derive(Debug, Clone, Copy)]
pub struct Throughput {
    /// Simulated CPU cycles per wall-clock second.
    pub cycles_per_sec: f64,
    /// Wall-clock seconds for the run.
    pub wall_seconds: f64,
}

/// One benchmark point: the same workload under both drivers.
#[derive(Debug, Clone)]
pub struct FastForwardPoint {
    /// Point name (`idle_heavy`, `tpch_q6`, ...).
    pub name: &'static str,
    /// Total simulated CPU cycles per run.
    pub simulated_cpu_cycles: u64,
    /// The per-cycle reference loop.
    pub reference: Throughput,
    /// The event kernel.
    pub event: Throughput,
}

impl FastForwardPoint {
    /// Headline speedup: the event kernel over the reference loop.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.event.cycles_per_sec / self.reference.cycles_per_sec
    }
}

/// The full report: both points plus the scale they ran at.
#[derive(Debug, Clone)]
pub struct FastForwardReport {
    /// Idle-heavy and dense benchmark points.
    pub points: Vec<FastForwardPoint>,
}

fn timed_run(sim: Simulator) -> (SimStats, Throughput) {
    let total = sim.system().config().total_cpu_cycles();
    let start = Instant::now();
    let stats = sim.run();
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    (
        stats,
        Throughput {
            cycles_per_sec: total as f64 / wall,
            wall_seconds: wall,
        },
    )
}

fn measure_point(name: &'static str, cfg: SystemConfig) -> FastForwardPoint {
    let event_sim = || Simulator::new(cfg.clone()).expect("valid benchmark configuration");
    // Warm the instruction/data caches of the *host* with one throwaway run,
    // then time each driver, pinning the event kernel to the reference.
    let _ = timed_run(event_sim());
    let (event_stats, event) = timed_run(event_sim());
    let (reference_stats, reference) =
        timed_run(Simulator::reference(cfg.clone()).expect("valid benchmark configuration"));
    assert_eq!(
        event_stats, reference_stats,
        "{name}: the event kernel must stay bit-identical to the reference loop"
    );
    FastForwardPoint {
        name,
        simulated_cpu_cycles: cfg.total_cpu_cycles(),
        reference,
        event,
    }
}

/// A representative full-intensity scale-out stream (Web Search, unscaled).
#[must_use]
pub fn scale_out_config(scale: &Scale) -> SystemConfig {
    baseline_config(Workload::WebSearch, scale)
}

/// The dense scan on a four-channel backend.
#[must_use]
pub fn four_channel_dense_config(scale: &Scale) -> SystemConfig {
    let mut cfg = dense_config(scale);
    cfg.num_channels = 4;
    cfg
}

/// Runs all benchmark points at `scale`.
#[must_use]
pub fn fastforward_report(scale: &Scale) -> FastForwardReport {
    FastForwardReport {
        points: vec![
            measure_point("idle_heavy", idle_heavy_config(scale)),
            measure_point("web_search", scale_out_config(scale)),
            measure_point("tpch_q6", dense_config(scale)),
            measure_point("tpch_q6_4ch", four_channel_dense_config(scale)),
        ],
    }
}

impl FastForwardReport {
    /// Machine-readable JSON for `BENCH_fastforward.json`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"benchmark\": \"event_driven_fast_forward\",\n");
        out.push_str("  \"unit\": \"simulated_cpu_cycles_per_second\",\n");
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"simulated_cpu_cycles\": {}, \
                 \"reference_cycles_per_sec\": {:.0}, \"event_cycles_per_sec\": {:.0}, \
                 \"speedup\": {:.3}}}{}\n",
                p.name,
                p.simulated_cpu_cycles,
                p.reference.cycles_per_sec,
                p.event.cycles_per_sec,
                p.speedup(),
                if i + 1 == self.points.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

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
                p.reference.cycles_per_sec,
                p.event.cycles_per_sec,
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
        let report = fastforward_report(&scale);
        assert_eq!(report.points.len(), 4);
        let json = report.to_json();
        assert!(json.contains("\"idle_heavy\""));
        assert!(json.contains("\"web_search\""));
        assert!(json.contains("\"tpch_q6\""));
        assert!(json.contains("\"tpch_q6_4ch\""));
        assert!(json.contains("reference_cycles_per_sec"));
        assert!(json.contains("event_cycles_per_sec"));
        assert!(json.contains("\"speedup\""));
        assert!(report.to_text().contains("speedup"));
        for p in &report.points {
            assert!(p.reference.wall_seconds > 0.0);
            assert!(p.event.cycles_per_sec > 0.0);
        }
    }
}
