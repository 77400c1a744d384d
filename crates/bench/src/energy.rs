//! The energy experiment: does the cheapest-to-build policy also burn the
//! least power?
//!
//! The paper conjectures (Section 5) that the simplest scheduling and page
//! policies would also be the cheapest, but defers the measurement to future
//! work. This experiment runs it: all five paper schedulers crossed with the
//! four paper page policies and every rank power-management policy, on two
//! workload extremes — an idle-heavy stream (Web Search throttled to 2% of
//! its off-chip rate, the utilization cloud services actually sit at most of
//! the day) and the dense TPC-H Q6 scan. `repro energy` serializes the
//! result as `BENCH_energy.json`.

use cloudmc_memctrl::{PagePolicyKind, PowerPolicyKind};
use cloudmc_sim::{mean, SimStats, SystemConfig};

use crate::experiments::{paper_schedulers, Scale};
use crate::fastforward::{dense_config, idle_heavy_config};
use crate::sweep::{run_each, SweepError, SweepOptions};

/// One point of the sweep: a (workload, scheduler, page, power) combination.
#[derive(Debug, Clone)]
pub struct EnergyPoint {
    /// Workload label (`idle_heavy`, `tpch_q6`).
    pub workload: &'static str,
    /// Full measured statistics, including the energy fields.
    pub stats: SimStats,
}

/// Results of the full energy sweep.
#[derive(Debug, Clone)]
pub struct EnergyReport {
    /// One point per configuration, in sweep order.
    pub points: Vec<EnergyPoint>,
}

/// The two workload extremes of the sweep as (label, config) pairs.
fn workload_configs(scale: &Scale) -> [(&'static str, SystemConfig); 2] {
    [
        ("idle_heavy", idle_heavy_config(scale)),
        ("tpch_q6", dense_config(scale)),
    ]
}

/// Runs the energy sweep: 2 workloads x 5 schedulers x 4 page policies x
/// every power policy, one seed per point.
///
/// # Errors
///
/// The executor's [`SweepError`]: a point that failed, or a `--max-cells`
/// stop.
pub fn energy_study(scale: &Scale, sweep: &SweepOptions) -> Result<EnergyReport, SweepError> {
    let schedulers = paper_schedulers();
    let mut cells = Vec::new();
    let mut workloads = Vec::new();
    for (workload, base) in workload_configs(scale) {
        for (label, scheduler) in &schedulers {
            for page in PagePolicyKind::paper_set() {
                for power in PowerPolicyKind::all() {
                    let mut cfg = base.clone();
                    cfg.mc.scheduler = *scheduler;
                    cfg.mc.page_policy = page;
                    cfg.mc.power_policy = power;
                    cells.push((format!("{workload}/{label}/{page}/{power}"), cfg));
                    workloads.push(workload);
                }
            }
        }
    }
    let points = workloads
        .into_iter()
        .zip(run_each("energy", &cells, scale.threads, sweep)?)
        .map(|(workload, stats)| EnergyPoint { workload, stats })
        .collect();
    Ok(EnergyReport { points })
}

impl EnergyReport {
    /// Points for one workload and power policy.
    fn select(&self, workload: &str, power: &str) -> impl Iterator<Item = &EnergyPoint> {
        let power = power.to_owned();
        let workload = workload.to_owned();
        self.points
            .iter()
            .filter(move |p| p.workload == workload && p.stats.power_policy == power)
    }

    /// Mean background energy (mJ) over all scheduler/page combinations of
    /// one workload under one power policy.
    #[must_use]
    pub fn mean_background_energy_mj(&self, workload: &str, power: &str) -> f64 {
        mean(
            self.select(workload, power)
                .map(|p| p.stats.dram_background_energy_mj),
        )
    }

    /// Mean total energy (mJ) for one workload under one power policy.
    #[must_use]
    pub fn mean_energy_mj(&self, workload: &str, power: &str) -> f64 {
        mean(self.select(workload, power).map(|p| p.stats.dram_energy_mj))
    }

    /// Mean average read latency (DRAM cycles) for one workload under one
    /// power policy.
    #[must_use]
    pub fn mean_read_latency(&self, workload: &str, power: &str) -> f64 {
        mean(
            self.select(workload, power)
                .map(|p| p.stats.avg_read_latency_dram),
        )
    }

    /// Machine-readable JSON for `BENCH_energy.json`: a summary block per
    /// (workload, power policy) plus every raw point.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"benchmark\": \"dram_energy\",\n");
        out.push_str("  \"unit\": \"millijoules_per_measurement_window\",\n");
        out.push_str("  \"summary\": [\n");
        let workloads = ["idle_heavy", "tpch_q6"];
        let mut first = true;
        for workload in workloads {
            for power in PowerPolicyKind::all() {
                let power = power.to_string();
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                out.push_str(&format!(
                    "    {{\"workload\": \"{workload}\", \"power_policy\": \"{power}\", \
                     \"mean_energy_mj\": {:.6}, \"mean_background_energy_mj\": {:.6}, \
                     \"mean_read_latency_dram\": {:.3}}}",
                    self.mean_energy_mj(workload, &power),
                    self.mean_background_energy_mj(workload, &power),
                    self.mean_read_latency(workload, &power),
                ));
            }
        }
        out.push_str("\n  ],\n  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"workload\": \"{}\", \"stats\": {}}}{}\n",
                p.workload,
                p.stats.to_json(),
                if i + 1 == self.points.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Human-readable summary for the terminal: per workload and power
    /// policy, averaged over the scheduler x page-policy grid.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::from(
            "DRAM energy by power policy (mean over 5 schedulers x 4 page policies)\n",
        );
        for workload in ["idle_heavy", "tpch_q6"] {
            out.push_str(&format!(
                "\n{workload}\n{:<14} {:>12} {:>14} {:>12} {:>12} {:>10}\n",
                "power policy",
                "energy(mJ)",
                "background(mJ)",
                "power(mW)",
                "latency(cy)",
                "PD resid%"
            ));
            for power in PowerPolicyKind::all() {
                let power = power.to_string();
                let pd = mean(
                    self.select(workload, &power)
                        .map(|p| p.stats.power_down_fraction),
                );
                let mw = mean(
                    self.select(workload, &power)
                        .map(|p| p.stats.avg_dram_power_mw),
                );
                out.push_str(&format!(
                    "{:<14} {:>12.3} {:>14.3} {:>12.1} {:>12.1} {:>10.1}\n",
                    power,
                    self.mean_energy_mj(workload, &power),
                    self.mean_background_energy_mj(workload, &power),
                    mw,
                    self.mean_read_latency(workload, &power),
                    pd * 100.0,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_study_shows_background_savings_on_idle_workload() {
        let scale = Scale {
            warmup_cpu_cycles: 2_000,
            measure_cpu_cycles: 30_000,
            seed: 1,
            threads: crate::default_threads(),
        };
        let report = energy_study(&scale, &SweepOptions::default()).unwrap();
        // 2 workloads x 5 schedulers x 4 page policies x 4 power policies.
        assert_eq!(report.points.len(), 160);
        for power in ["immediate", "idle-timer", "power-aware"] {
            let with = report.mean_background_energy_mj("idle_heavy", power);
            let without = report.mean_background_energy_mj("idle_heavy", "none");
            assert!(
                with < without,
                "{power}: background energy {with} must undercut none {without}"
            );
        }
        // Power-down is a latency trade: the dense stream must still finish
        // with sane latencies under every policy.
        for power in PowerPolicyKind::all() {
            let lat = report.mean_read_latency("tpch_q6", &power.to_string());
            assert!(lat > 0.0, "{power}: dense stream must complete reads");
        }
        let json = report.to_json();
        assert!(json.contains("\"benchmark\": \"dram_energy\""));
        assert!(json.contains("\"summary\""));
        assert!(json.contains("\"power_policy\": \"idle-timer\""));
        assert!(report.to_text().contains("power policy"));
    }
}
