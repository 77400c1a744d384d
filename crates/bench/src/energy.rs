//! The energy experiment: does the cheapest-to-build policy also burn the
//! least power?
//!
//! The paper conjectures (Section 5) that the simplest scheduling and page
//! policies would also be the cheapest, but defers the measurement to future
//! work. This experiment runs it: all five paper schedulers crossed with the
//! four paper page policies and every rank power-management policy, on two
//! workload extremes — an idle-heavy stream (Web Search throttled to 2% of
//! its off-chip rate, the utilization cloud services actually sit at most of
//! the day) and the dense TPC-H Q6 scan. [`energy_study`] returns a
//! [`Report`]: one table per workload (rows: power policies; columns: mean
//! energy, background energy, power, read latency and power-down share over
//! the scheduler x page-policy grid) plus every point's statistics.
//! `repro energy` prints the tables and writes the report as
//! `BENCH_energy.json`.

use cloudmc_memctrl::{PagePolicyKind, PowerPolicyKind};
use cloudmc_sim::{mean, SimStats, SystemConfig};

use crate::experiments::{paper_schedulers, Scale};
use crate::fastforward::{dense_config, idle_heavy_config};
use crate::report::{Report, Table};
use crate::sweep::{run_each, SweepError, SweepOptions};

/// The two workload extremes of the sweep as (label, config) pairs.
fn workload_configs(scale: &Scale) -> [(&'static str, SystemConfig); 2] {
    [
        ("idle_heavy", idle_heavy_config(scale)),
        ("tpch_q6", dense_config(scale)),
    ]
}

/// Runs the energy sweep: 2 workloads x 5 schedulers x 4 page policies x
/// every power policy, one seed per point. The report holds one table per
/// workload, named after it (`energy idle_heavy`, `energy tpch_q6`): a row
/// per power policy, each column the mean over the scheduler x page-policy
/// grid.
///
/// # Errors
///
/// The executor's [`SweepError`]: a point that failed, or a `--max-cells`
/// stop.
pub fn energy_study(scale: &Scale, sweep: &SweepOptions) -> Result<Report, SweepError> {
    let schedulers = paper_schedulers();
    let workloads = workload_configs(scale);
    let mut cells = Vec::new();
    for (workload, base) in &workloads {
        for (label, scheduler) in &schedulers {
            for page in PagePolicyKind::paper_set() {
                for power in PowerPolicyKind::all() {
                    let mut cfg = base.clone();
                    cfg.mc.scheduler = *scheduler;
                    cfg.mc.page_policy = page;
                    cfg.mc.power_policy = power;
                    cells.push((format!("{workload}/{label}/{page}/{power}"), cfg));
                }
            }
        }
    }
    let stats = run_each("energy", &cells, scale.threads, sweep)?;
    let points: Vec<(String, SimStats)> = cells.into_iter().map(|(l, _)| l).zip(stats).collect();
    let columns = [
        "energy_mj",
        "background_energy_mj",
        "power_mw",
        "read_latency_dram",
        "power_down_share",
    ];
    let tables = workloads.iter().map(|(workload, _)| {
        let mut table = Table::new(
            format!(
                "energy {workload}: DRAM energy by power policy \
                 (mean over 5 schedulers x 4 page policies)"
            ),
            columns.map(str::to_owned).to_vec(),
        );
        table.note = "energy in mJ per measurement window, power in mW, read latency in \
                      DRAM cycles, power_down_share of rank time in power-down"
            .to_owned();
        let prefix = format!("{workload}/");
        for power in PowerPolicyKind::all() {
            let power = power.to_string();
            let cell = |f: fn(&SimStats) -> f64| {
                mean(
                    points
                        .iter()
                        .filter(|(label, s)| label.starts_with(&prefix) && s.power_policy == power)
                        .map(|(_, s)| f(s)),
                )
            };
            let row = vec![
                cell(|s| s.dram_energy_mj),
                cell(|s| s.dram_background_energy_mj),
                cell(|s| s.avg_dram_power_mw),
                cell(|s| s.avg_read_latency_dram),
                cell(|s| s.power_down_fraction),
            ];
            table.push_row(power, row);
        }
        table
    });
    Ok(Report {
        tables: tables.collect(),
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::RunMeta;

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
        let idle = report.table("energy idle_heavy").unwrap();
        let background = |power: &str| idle.value(power, "background_energy_mj").unwrap();
        for power in ["immediate", "idle-timer", "power-aware"] {
            let with = background(power);
            let without = background("none");
            assert!(
                with < without,
                "{power}: background energy {with} must undercut none {without}"
            );
        }
        // The table's declared claim says the same and holds.
        let claims = crate::figures::claims_for(&idle.title);
        assert_eq!(claims.len(), 1);
        let (verdict, worst, _) = claims[0].check(idle).unwrap();
        assert_eq!(verdict, crate::figures::Verdict::Holds, "{worst:?}");
        // Power-down is a latency trade: the dense stream must still finish
        // with sane latencies under every policy.
        let dense = report.table("energy tpch_q6").unwrap();
        for power in PowerPolicyKind::all() {
            let lat = dense
                .value(&power.to_string(), "read_latency_dram")
                .unwrap();
            assert!(lat > 0.0, "{power}: dense stream must complete reads");
        }
        let json = report.to_json(&RunMeta::collect("quick", None), "dram_energy");
        assert!(json.contains("\"benchmark\": \"dram_energy\""));
        assert!(json.contains("\"tables\""));
        assert!(json.contains("{\"label\": \"idle-timer\", \"values\": ["));
        assert!(idle.to_text().contains("power_down_share"));
    }
}
