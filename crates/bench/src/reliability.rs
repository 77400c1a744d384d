//! The reliability experiment: what do DRAM faults, ECC handling and patrol
//! scrubbing cost a consolidated cloud node?
//!
//! The paper's controllers are evaluated on fault-free memory; production
//! cloud nodes run with ECC, patrol scrub and page/row retirement, and all
//! of that machinery competes with demand traffic for the very controller
//! resources the paper studies. This experiment co-locates a
//! latency-critical service with batch analytics (the flagship mix of the
//! QoS study) and sweeps transient-fault rates × patrol-scrub intervals ×
//! rank power policies under the poison-and-continue uncorrectable policy,
//! against a fault-free baseline per power policy. Reported per point:
//! corrected/uncorrectable counts, demand retries, scrub bandwidth overhead
//! (scrub reads as a fraction of all serviced reads), rows retired, poisoned
//! lines, and the latency-critical tenant's slowdown versus the fault-free
//! baseline — one row each of the [`Report`]'s one table, next to every
//! point's statistics. `repro reliability` prints the table, gates on the
//! fault ledger and the scrub traffic, and writes the report as
//! `BENCH_reliability.json`.
//!
//! The power-policy axis is the paper tie-in: the fault model scales
//! transient-flip probability with power-state residency (cells in
//! power-down and self-refresh are refreshed less aggressively), so the
//! energy savings of Section 5's power policies buy a measurable reliability
//! cost — exactly the kind of cross-subsystem interaction the controller
//! has to arbitrate.

use cloudmc_memctrl::{FaultConfig, PowerPolicyKind, UncorrectablePolicy};
use cloudmc_sim::{SimStats, SystemConfig};
use cloudmc_workloads::{MixSpec, TenantSpec, Workload};

use crate::experiments::Scale;
use crate::report::{Report, Table};
use crate::sweep::{run_each, SweepError, SweepOptions};

/// Transient-fault rates of the sweep, in expected flips per million
/// active-state reads (scaled up by the fault model in low-power states).
pub const FAULT_RATES_PER_MILLION: [u64; 2] = [50, 500];

/// Patrol-scrub intervals of the sweep in DRAM cycles per scrub read
/// (0 = scrubbing off).
pub const SCRUB_INTERVALS: [u64; 2] = [0, 250];

/// Rank power policies of the sweep: none (always active) versus the
/// idle-timer power-down policy, whose low-power residency raises the
/// modeled transient-fault rate.
#[must_use]
pub fn power_policies() -> [PowerPolicyKind; 2] {
    [PowerPolicyKind::None, PowerPolicyKind::IdleTimer]
}

/// The tenant mix the sweep runs: the QoS study's flagship pairing of a
/// latency-critical scale-out service with batch decision support.
#[must_use]
pub fn reliability_mix() -> MixSpec {
    MixSpec::new(TenantSpec::latency_critical(Workload::WebSearch, 8))
        .and(TenantSpec::batch(Workload::TpchQ6, 8))
}

/// The fault model for one sweep point: poison-and-continue (a sweep must
/// survive uncorrectable errors), a pinch of planted stuck cells so the
/// discovery/retirement path is exercised, and the given transient rate and
/// scrub cadence.
#[must_use]
pub fn sweep_fault_config(rate_per_million: u64, scrub_interval: u64, seed: u64) -> FaultConfig {
    let mut fc = FaultConfig::baseline();
    fc.seed = seed;
    fc.transient_rate_fp = FaultConfig::rate_per_million_reads(rate_per_million);
    fc.scrub_interval = scrub_interval;
    fc.stuck_rows_per_rank = 2;
    fc.retire_threshold = 3;
    fc.on_uncorrectable = UncorrectablePolicy::PoisonAndContinue;
    fc
}

/// Scrub bandwidth overhead: patrol reads as a fraction of all reads the
/// devices serviced (demand + scrub).
fn scrub_overhead(stats: &SimStats) -> f64 {
    let scrub = stats.scrub_reads_completed as f64;
    let total = scrub + stats.reads_completed as f64;
    if total == 0.0 {
        0.0
    } else {
        scrub / total
    }
}

fn mixed_config(scale: &Scale, power: PowerPolicyKind) -> SystemConfig {
    let mut cfg = SystemConfig::mixed(reliability_mix());
    cfg.warmup_cpu_cycles = scale.warmup_cpu_cycles;
    cfg.measure_cpu_cycles = scale.measure_cpu_cycles;
    cfg.seed = scale.seed;
    cfg.mc.power_policy = power;
    cfg
}

/// Runs the reliability sweep: a fault-free baseline per power policy
/// (labelled `r0/scrub0/<power>`), then every fault rate × scrub interval ×
/// power policy with poison-and-continue (`r<rate>/scrub<interval>/<power>`,
/// rate-major), one seed per point. The report's one table, `reliability`,
/// has a row per point; its `lc_slowdown` is the latency-critical tenant's
/// `IPC_clean / IPC_faulty` against the baseline of the same power policy
/// (1.0 for the baselines themselves).
///
/// # Errors
///
/// The executor's [`SweepError`]: a point that failed, or a `--max-cells`
/// stop.
pub fn reliability_study(scale: &Scale, sweep: &SweepOptions) -> Result<Report, SweepError> {
    let powers = power_policies();
    // (rate, scrub interval, power index) per point; the baselines (rate 0)
    // come first, one per power policy in `powers` order.
    let mut specs: Vec<(u64, u64, usize)> = (0..powers.len()).map(|p| (0, 0, p)).collect();
    for &rate in &FAULT_RATES_PER_MILLION {
        for &scrub in &SCRUB_INTERVALS {
            for p in 0..powers.len() {
                specs.push((rate, scrub, p));
            }
        }
    }
    let cells: Vec<(String, SystemConfig)> = specs
        .iter()
        .map(|&(rate, scrub, p)| {
            let power = powers[p];
            let mut cfg = mixed_config(scale, power);
            if rate > 0 {
                cfg.mc.fault_model = Some(sweep_fault_config(rate, scrub, scale.seed));
            }
            (format!("r{rate}/scrub{scrub}/{power}"), cfg)
        })
        .collect();
    let results = run_each("reliability", &cells, scale.threads, sweep)?;
    let mut table = Table::new(
        "reliability: ws+tpch_q6 mix, poison-and-continue; \
         LC slowdown vs fault-free baseline",
        [
            "rate_per_million",
            "scrub_interval",
            "ecc_corrected",
            "ecc_detected_uncorrectable",
            "demand_retries",
            "scrub_reads_completed",
            "scrub_overhead",
            "rows_retired",
            "lines_poisoned",
            "faults_injected",
            "faults_latent",
            "lc_slowdown",
        ]
        .map(str::to_owned)
        .to_vec(),
    );
    table.note = "rate in flips per million reads, scrub interval in DRAM cycles \
                  (0 = off), scrub_overhead = scrub reads / all reads"
        .to_owned();
    for ((label, _), (&(rate, scrub, p), stats)) in cells.iter().zip(specs.iter().zip(&results)) {
        let lc_slowdown = if rate == 0 {
            1.0
        } else {
            let faulty_ipc = stats.tenant_ipc(0);
            if faulty_ipc > 0.0 {
                results[p].tenant_ipc(0) / faulty_ipc
            } else {
                f64::INFINITY
            }
        };
        table.push_row(
            label.clone(),
            vec![
                rate as f64,
                scrub as f64,
                stats.ecc_corrected as f64,
                stats.ecc_detected_uncorrectable as f64,
                stats.demand_retries as f64,
                stats.scrub_reads_completed as f64,
                scrub_overhead(stats),
                stats.rows_retired as f64,
                stats.lines_poisoned as f64,
                stats.faults_injected as f64,
                stats.faults_latent as f64,
                lc_slowdown,
            ],
        );
    }
    let points = cells
        .into_iter()
        .map(|(label, _)| label)
        .zip(results)
        .collect();
    Ok(Report {
        tables: vec![table],
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::RunMeta;

    #[test]
    fn reliability_study_reports_errors_overhead_and_slowdown() {
        let scale = Scale {
            warmup_cpu_cycles: 4_000,
            measure_cpu_cycles: 40_000,
            seed: 1,
            threads: crate::default_threads(),
        };
        let report = reliability_study(&scale, &SweepOptions::default()).unwrap();
        // 2 baselines, then 2 rates x 2 scrub intervals x 2 power policies.
        assert_eq!(report.points.len(), 10);
        let (baselines, points) = report.points.split_at(2);
        for (_, b) in baselines {
            assert_eq!(b.ecc_corrected, 0, "fault-free baseline saw ECC");
            assert_eq!(b.faults_injected, 0);
            assert_eq!(b.scrub_reads_issued, 0);
        }
        let table = report.table("reliability").unwrap();
        let cell = |label: &str, column: &str| table.value(label, column).unwrap();
        for (label, stats) in points {
            assert!(stats.faults_injected > 0, "{label}: no faults");
            let lc_slowdown = cell(label, "lc_slowdown");
            assert!(
                lc_slowdown.is_finite() && lc_slowdown > 0.0,
                "{label}: degenerate slowdown {lc_slowdown}"
            );
            if cell(label, "scrub_interval") > 0.0 {
                assert!(stats.scrub_reads_issued > 0, "{label}: no scrubs");
                assert!(
                    cell(label, "scrub_overhead") > 0.0,
                    "{label}: free scrubbing"
                );
            } else {
                assert_eq!(stats.scrub_reads_issued, 0, "{label}");
            }
            // Conservation holds on every point.
            assert_eq!(
                stats.faults_injected,
                stats.faults_corrected + stats.faults_uncorrectable + stats.faults_latent,
                "{label}: ledger out of balance"
            );
        }
        // The higher fault rate injects more faults than the lower one under
        // identical conditions.
        let errors_at = |rate: f64| -> u64 {
            points
                .iter()
                .filter(|(label, _)| cell(label, "rate_per_million") == rate)
                .map(|(_, stats)| stats.faults_injected)
                .sum()
        };
        assert!(errors_at(500.0) > errors_at(50.0));
        let json = report.to_json(&RunMeta::collect("quick", None), "reliability");
        assert!(json.contains("\"benchmark\": \"reliability\""));
        assert!(json.contains("\"scrub_overhead\""));
        assert!(json.contains("{\"label\": \"r500/scrub250/idle-timer\", \"stats\": {"));
        assert!(table.to_text().contains("lc_slowdown"));
    }
}
