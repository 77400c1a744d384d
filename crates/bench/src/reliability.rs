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
//! baseline. `repro reliability` serializes everything as
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

/// One point of the sweep.
#[derive(Debug, Clone)]
pub struct ReliabilityPoint {
    /// Transient-fault rate in flips per million reads (0 for the fault-free
    /// baselines).
    pub rate_per_million: u64,
    /// Patrol-scrub interval in DRAM cycles (0 = off).
    pub scrub_interval: u64,
    /// Power policy label.
    pub power_policy: String,
    /// Full measured statistics, including the reliability counters.
    pub stats: SimStats,
    /// Latency-critical tenant slowdown versus the fault-free baseline under
    /// the same power policy (`IPC_clean / IPC_faulty`; 1.0 = faults were
    /// free).
    pub lc_slowdown: f64,
}

impl ReliabilityPoint {
    /// Sweep-point label, e.g. `r500/scrub250/idle-timer`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "r{}/scrub{}/{}",
            self.rate_per_million, self.scrub_interval, self.power_policy
        )
    }

    /// Scrub bandwidth overhead: patrol reads as a fraction of all reads the
    /// devices serviced (demand + scrub).
    #[must_use]
    pub fn scrub_overhead(&self) -> f64 {
        let scrub = self.stats.scrub_reads_completed as f64;
        let total = scrub + self.stats.reads_completed as f64;
        if total == 0.0 {
            0.0
        } else {
            scrub / total
        }
    }
}

/// Results of the full reliability sweep.
#[derive(Debug, Clone)]
pub struct ReliabilityReport {
    /// Fault-free baselines, one per power policy, in [`power_policies`]
    /// order (their `rate_per_million` is 0 and `lc_slowdown` is 1.0).
    pub baselines: Vec<ReliabilityPoint>,
    /// Faulty points: rate × scrub interval × power policy, rate-major.
    pub points: Vec<ReliabilityPoint>,
}

fn mixed_config(scale: &Scale, power: PowerPolicyKind) -> SystemConfig {
    let mut cfg = SystemConfig::mixed(reliability_mix());
    cfg.warmup_cpu_cycles = scale.warmup_cpu_cycles;
    cfg.measure_cpu_cycles = scale.measure_cpu_cycles;
    cfg.seed = scale.seed;
    cfg.mc.power_policy = power;
    cfg
}

/// Runs the reliability sweep: a fault-free baseline per power policy, then
/// every fault rate × scrub interval × power policy with poison-and-continue,
/// one seed per point.
///
/// # Errors
///
/// The executor's [`SweepError`]: a point that failed, or a `--max-cells`
/// stop.
pub fn reliability_study(
    scale: &Scale,
    sweep: &SweepOptions,
) -> Result<ReliabilityReport, SweepError> {
    let powers = power_policies();
    let mut cells: Vec<(String, SystemConfig)> = powers
        .iter()
        .map(|&power| (format!("clean/{power}"), mixed_config(scale, power)))
        .collect();
    for &rate in &FAULT_RATES_PER_MILLION {
        for &scrub in &SCRUB_INTERVALS {
            for &power in &powers {
                let mut cfg = mixed_config(scale, power);
                cfg.mc.fault_model = Some(sweep_fault_config(rate, scrub, scale.seed));
                cells.push((format!("r{rate}/scrub{scrub}/{power}"), cfg));
            }
        }
    }
    let mut results = run_each("reliability", &cells, scale.threads, sweep)?;
    let faulty = results.split_off(powers.len());
    let baselines: Vec<ReliabilityPoint> = powers
        .iter()
        .zip(results)
        .map(|(&power, stats)| ReliabilityPoint {
            rate_per_million: 0,
            scrub_interval: 0,
            power_policy: power.to_string(),
            stats,
            lc_slowdown: 1.0,
        })
        .collect();
    let mut faulty = faulty.into_iter();
    let mut points = Vec::new();
    for &rate in &FAULT_RATES_PER_MILLION {
        for &scrub in &SCRUB_INTERVALS {
            for (p, &power) in powers.iter().enumerate() {
                let stats = faulty.next().expect("faulty run present");
                let clean_ipc = baselines[p].stats.tenant_ipc(0);
                let faulty_ipc = stats.tenant_ipc(0);
                let lc_slowdown = if faulty_ipc > 0.0 {
                    clean_ipc / faulty_ipc
                } else {
                    f64::INFINITY
                };
                points.push(ReliabilityPoint {
                    rate_per_million: rate,
                    scrub_interval: scrub,
                    power_policy: power.to_string(),
                    stats,
                    lc_slowdown,
                });
            }
        }
    }
    Ok(ReliabilityReport { baselines, points })
}

impl ReliabilityReport {
    fn all_points(&self) -> impl Iterator<Item = &ReliabilityPoint> {
        self.baselines.iter().chain(self.points.iter())
    }

    /// Machine-readable JSON for `BENCH_reliability.json`: a summary block
    /// per point plus every raw run (baselines included), whose `stats`
    /// objects carry the full reliability counter set.
    #[must_use]
    pub fn to_json(&self) -> String {
        let total = self.baselines.len() + self.points.len();
        let mut out = String::from("{\n  \"benchmark\": \"reliability\",\n");
        out.push_str("  \"unit\": \"errors_and_slowdown_vs_fault_free\",\n  \"summary\": [\n");
        for (i, p) in self.all_points().enumerate() {
            out.push_str(&format!(
                "    {{\"label\": \"{}\", \"rate_per_million\": {}, \"scrub_interval\": {}, \
                 \"power_policy\": \"{}\", \"ecc_corrected\": {}, \
                 \"ecc_detected_uncorrectable\": {}, \"demand_retries\": {}, \
                 \"scrub_reads_completed\": {}, \"scrub_overhead\": {:.6}, \
                 \"rows_retired\": {}, \"lines_poisoned\": {}, \"faults_injected\": {}, \
                 \"faults_latent\": {}, \"lc_slowdown\": {:.4}}}{}\n",
                p.label(),
                p.rate_per_million,
                p.scrub_interval,
                p.power_policy,
                p.stats.ecc_corrected,
                p.stats.ecc_detected_uncorrectable,
                p.stats.demand_retries,
                p.stats.scrub_reads_completed,
                p.scrub_overhead(),
                p.stats.rows_retired,
                p.stats.lines_poisoned,
                p.stats.faults_injected,
                p.stats.faults_latent,
                p.lc_slowdown,
                if i + 1 == total { "" } else { "," }
            ));
        }
        out.push_str("  ],\n  \"points\": [\n");
        for (i, p) in self.all_points().enumerate() {
            out.push_str(&format!(
                "    {{\"label\": \"{}\", \"stats\": {}}}{}\n",
                p.label(),
                p.stats.to_json(),
                if i + 1 == total { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Human-readable summary for the terminal.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::from(
            "reliability (ws+tpch_q6 mix, poison-and-continue; \
             LC slowdown vs fault-free baseline)\n\n",
        );
        out.push_str(&format!(
            "{:<26} {:>9} {:>7} {:>8} {:>9} {:>7} {:>8} {:>8}\n",
            "point",
            "corrected",
            "uncorr",
            "retries",
            "scrub ovh",
            "retired",
            "poisoned",
            "LC slow"
        ));
        for p in self.all_points() {
            out.push_str(&format!(
                "{:<26} {:>9} {:>7} {:>8} {:>8.2}% {:>7} {:>8} {:>8.3}\n",
                p.label(),
                p.stats.ecc_corrected,
                p.stats.ecc_detected_uncorrectable,
                p.stats.demand_retries,
                p.scrub_overhead() * 100.0,
                p.stats.rows_retired,
                p.stats.lines_poisoned,
                p.lc_slowdown,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliability_study_reports_errors_overhead_and_slowdown() {
        let scale = Scale {
            warmup_cpu_cycles: 4_000,
            measure_cpu_cycles: 40_000,
            seed: 1,
            threads: crate::default_threads(),
        };
        let report = reliability_study(&scale, &SweepOptions::default()).unwrap();
        assert_eq!(report.baselines.len(), 2);
        // 2 rates x 2 scrub intervals x 2 power policies.
        assert_eq!(report.points.len(), 8);
        for b in &report.baselines {
            assert_eq!(b.stats.ecc_corrected, 0, "fault-free baseline saw ECC");
            assert_eq!(b.stats.faults_injected, 0);
            assert_eq!(b.stats.scrub_reads_issued, 0);
        }
        for p in &report.points {
            assert!(p.stats.faults_injected > 0, "{}: no faults", p.label());
            assert!(
                p.lc_slowdown.is_finite() && p.lc_slowdown > 0.0,
                "{}: degenerate slowdown {}",
                p.label(),
                p.lc_slowdown
            );
            if p.scrub_interval > 0 {
                assert!(p.stats.scrub_reads_issued > 0, "{}: no scrubs", p.label());
                assert!(p.scrub_overhead() > 0.0, "{}: free scrubbing", p.label());
            } else {
                assert_eq!(p.stats.scrub_reads_issued, 0, "{}", p.label());
            }
            // Conservation holds on every point.
            assert_eq!(
                p.stats.faults_injected,
                p.stats.faults_corrected + p.stats.faults_uncorrectable + p.stats.faults_latent,
                "{}: ledger out of balance",
                p.label()
            );
        }
        // The higher fault rate injects more faults than the lower one under
        // identical conditions.
        let errors_at = |rate: u64| -> u64 {
            report
                .points
                .iter()
                .filter(|p| p.rate_per_million == rate)
                .map(|p| p.stats.faults_injected)
                .sum()
        };
        assert!(errors_at(500) > errors_at(50));
        let json = report.to_json();
        assert!(json.contains("\"benchmark\": \"reliability\""));
        assert!(json.contains("\"scrub_overhead\""));
        assert!(json.contains("\"lc_slowdown\""));
        assert!(report.to_text().contains("LC slow"));
    }
}
