//! The multi-tenant QoS experiment: what does co-location cost each tenant,
//! and how much of it can the controller's QoS policies claw back?
//!
//! The paper evaluates its schedulers on workloads running *alone*; on a
//! consolidated cloud node they share the memory controller with other
//! tenants, and fairness schedulers like ATLAS and PAR-BS were designed for
//! exactly that regime. This experiment runs ≥3 two/three-tenant mixes (a
//! latency-critical service co-located with batch analytics) under all five
//! paper schedulers crossed with the QoS policies (`none`,
//! `static-partition`, `priority-boost`), plus each tenant *alone* on the
//! same core allocation as the slowdown baseline. Reported per point:
//! per-tenant slowdown (`IPC_alone / IPC_shared`), weighted speedup
//! (`Σ IPC_shared/IPC_alone`), max slowdown, and Jain's fairness index over
//! the per-tenant speedups. `repro qos` serializes everything as
//! `BENCH_qos.json`.

use cloudmc_memctrl::QosPolicyKind;
use cloudmc_sim::{mean, SimStats, SystemConfig};
use cloudmc_workloads::{MixSpec, TenantSpec, Workload, WorkloadSpec};

use crate::experiments::{baseline_config, paper_schedulers, Scale};
use crate::sweep::{run_each, SweepError, SweepOptions};

/// The tenant mixes of the sweep as `(label, mix)` pairs: a latency-critical
/// scale-out service paired with decision-support or transactional batch
/// work, on the paper's 16-core pod.
#[must_use]
pub fn paper_mixes() -> Vec<(&'static str, MixSpec)> {
    vec![
        (
            "ws+tpch_q6",
            MixSpec::new(TenantSpec::latency_critical(Workload::WebSearch, 8))
                .and(TenantSpec::batch(Workload::TpchQ6, 8)),
        ),
        (
            "ds+tpch_q17",
            MixSpec::new(TenantSpec::latency_critical(Workload::DataServing, 8))
                .and(TenantSpec::batch(Workload::TpchQ17, 8)),
        ),
        (
            "ws+ms+tpcc",
            MixSpec::new(TenantSpec::latency_critical(Workload::WebSearch, 8))
                .and(TenantSpec::batch(Workload::MediaStreaming, 4))
                .and(TenantSpec::batch(Workload::TpcC1, 4)),
        ),
    ]
}

/// One point of the sweep: a (mix, scheduler, QoS policy) combination with
/// its alone-run baselines folded in.
#[derive(Debug, Clone)]
pub struct QosPoint {
    /// Mix label (see [`paper_mixes`]).
    pub mix: &'static str,
    /// Scheduler label.
    pub scheduler: String,
    /// QoS policy label.
    pub qos_policy: String,
    /// Full measured statistics of the shared run, including the per-tenant
    /// fields.
    pub stats: SimStats,
    /// Aggregate IPC of each tenant running alone on the same core
    /// allocation under the same scheduler (QoS has no effect alone).
    pub alone_ipc: Vec<f64>,
    /// Per-tenant slowdown: `IPC_alone / IPC_shared` (≥ 1 under contention).
    pub slowdown: Vec<f64>,
}

impl QosPoint {
    /// Weighted speedup: `Σ_t IPC_shared_t / IPC_alone_t` (the number of
    /// "alone-run equivalents" of work the consolidated node sustains;
    /// `tenant_count` means co-location was free).
    #[must_use]
    pub fn weighted_speedup(&self) -> f64 {
        self.slowdown
            .iter()
            .map(|&s| if s > 0.0 { 1.0 / s } else { 0.0 })
            .sum()
    }

    /// The worst tenant's slowdown.
    #[must_use]
    pub fn max_slowdown(&self) -> f64 {
        self.slowdown.iter().copied().fold(0.0, f64::max)
    }

    /// The worst *latency-critical* tenant's slowdown (the QoS target
    /// metric); falls back to [`QosPoint::max_slowdown`] if the mix has no
    /// latency-critical tenant.
    #[must_use]
    pub fn lc_slowdown(&self) -> f64 {
        let lc = self
            .slowdown
            .iter()
            .zip(self.stats.tenant_latency_critical.iter())
            .filter(|(_, &lc)| lc)
            .map(|(&s, _)| s)
            .fold(0.0, f64::max);
        if lc > 0.0 {
            lc
        } else {
            self.max_slowdown()
        }
    }

    /// Jain's fairness index over the per-tenant speedups
    /// (`(Σx)² / (n·Σx²)`; 1.0 = perfectly even slowdowns).
    #[must_use]
    pub fn fairness(&self) -> f64 {
        let speedups: Vec<f64> = self
            .slowdown
            .iter()
            .map(|&s| if s > 0.0 { 1.0 / s } else { 0.0 })
            .collect();
        let sum: f64 = speedups.iter().sum();
        let sum_sq: f64 = speedups.iter().map(|x| x * x).sum();
        if sum_sq == 0.0 {
            0.0
        } else {
            sum * sum / (speedups.len() as f64 * sum_sq)
        }
    }
}

/// Results of the full QoS sweep.
#[derive(Debug, Clone)]
pub struct QosReport {
    /// One point per (mix, scheduler, QoS policy), in sweep order.
    pub points: Vec<QosPoint>,
}

/// A shared-run configuration for `mix` at `scale`.
fn mixed_config(mix: MixSpec, scale: &Scale) -> SystemConfig {
    let mut cfg = SystemConfig::mixed(mix);
    cfg.warmup_cpu_cycles = scale.warmup_cpu_cycles;
    cfg.measure_cpu_cycles = scale.measure_cpu_cycles;
    cfg.seed = scale.seed;
    cfg
}

/// Runs the QoS sweep: every mix × 5 schedulers × every QoS policy, plus the
/// alone-run baselines (one per mix tenant per scheduler), one seed per
/// point.
///
/// # Errors
///
/// The executor's [`SweepError`]: a point that failed, or a `--max-cells`
/// stop.
pub fn qos_study(scale: &Scale, sweep: &SweepOptions) -> Result<QosReport, SweepError> {
    let mixes = paper_mixes();
    let schedulers = paper_schedulers();
    // Alone baselines first: each tenant on its own core allocation with the
    // whole memory system to itself (QoS policies are inert with one tenant,
    // so one baseline per scheduler covers all policies). Mixes reuse
    // workloads (Web Search appears twice), so baselines are deduplicated by
    // (scheduler, tenant spec).
    let mut alone_keys: Vec<(usize, WorkloadSpec)> = Vec::new();
    let mut cells = Vec::new();
    for (_, mix) in &mixes {
        for (s, (sched_label, scheduler)) in schedulers.iter().enumerate() {
            for tenant in mix.tenants() {
                if alone_keys
                    .iter()
                    .any(|(ks, spec)| *ks == s && *spec == tenant.workload)
                {
                    continue;
                }
                alone_keys.push((s, tenant.workload));
                let mut cfg = baseline_config(tenant.workload.workload, scale);
                cfg.workload = tenant.workload;
                cfg.mc.scheduler = *scheduler;
                let label = format!("alone/{}/{sched_label}", tenant.workload.workload);
                cells.push((label, cfg));
            }
        }
    }
    let alone_count = cells.len();
    for (mix_label, mix) in &mixes {
        for (sched_label, scheduler) in &schedulers {
            for qos in QosPolicyKind::all() {
                let mut cfg = mixed_config(*mix, scale);
                cfg.mc.scheduler = *scheduler;
                cfg.mc.qos.policy = qos;
                cells.push((format!("{mix_label}/{sched_label}/{qos}"), cfg));
            }
        }
    }
    let mut results = run_each("qos", &cells, scale.threads, sweep)?;
    let shared = results.split_off(alone_count);
    let alone_results = results;
    let alone_ipc_of = |s: usize, spec: &WorkloadSpec| -> f64 {
        let idx = alone_keys
            .iter()
            .position(|(ks, kspec)| *ks == s && kspec == spec)
            .expect("alone baseline present for every (scheduler, tenant)");
        alone_results[idx].user_ipc()
    };
    let mut shared = shared.into_iter();
    let mut points = Vec::new();
    for (mix_label, mix) in &mixes {
        for (s, (sched_label, _)) in schedulers.iter().enumerate() {
            let alone: Vec<f64> = mix
                .tenants()
                .map(|tenant| alone_ipc_of(s, &tenant.workload))
                .collect();
            for qos in QosPolicyKind::all() {
                let stats = shared.next().expect("shared run present");
                let slowdown: Vec<f64> = alone
                    .iter()
                    .enumerate()
                    .map(|(t, &base)| {
                        let shared_ipc = stats.tenant_ipc(t);
                        if shared_ipc > 0.0 {
                            base / shared_ipc
                        } else {
                            f64::INFINITY
                        }
                    })
                    .collect();
                points.push(QosPoint {
                    mix: mix_label,
                    scheduler: sched_label.clone(),
                    qos_policy: qos.to_string(),
                    stats,
                    alone_ipc: alone.clone(),
                    slowdown,
                });
            }
        }
    }
    Ok(QosReport { points })
}

impl QosReport {
    /// Points for one mix under one QoS policy (all schedulers).
    fn select<'a>(&'a self, mix: &'a str, qos: &'a str) -> impl Iterator<Item = &'a QosPoint> {
        self.points
            .iter()
            .filter(move |p| p.mix == mix && p.qos_policy == qos)
    }

    /// Mean (over schedulers) worst latency-critical slowdown for one mix
    /// under one QoS policy — the headline number QoS is judged by.
    #[must_use]
    pub fn mean_lc_slowdown(&self, mix: &str, qos: &str) -> f64 {
        mean(self.select(mix, qos).map(QosPoint::lc_slowdown))
    }

    /// Mean (over schedulers) weighted speedup for one mix and QoS policy.
    #[must_use]
    pub fn mean_weighted_speedup(&self, mix: &str, qos: &str) -> f64 {
        mean(self.select(mix, qos).map(QosPoint::weighted_speedup))
    }

    /// Machine-readable JSON for `BENCH_qos.json`: a summary block per
    /// (mix, scheduler, QoS policy) plus every raw shared-run point.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"benchmark\": \"multi_tenant_qos\",\n");
        out.push_str("  \"unit\": \"slowdown_vs_alone_run\",\n  \"summary\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let slowdowns: Vec<String> = p.slowdown.iter().map(|s| format!("{s:.4}")).collect();
            out.push_str(&format!(
                "    {{\"mix\": \"{}\", \"scheduler\": \"{}\", \"qos_policy\": \"{}\", \
                 \"slowdown_per_tenant\": [{}], \"weighted_speedup\": {:.4}, \
                 \"max_slowdown\": {:.4}, \"lc_slowdown\": {:.4}, \"fairness\": {:.4}}}{}\n",
                p.mix,
                p.scheduler,
                p.qos_policy,
                slowdowns.join(", "),
                p.weighted_speedup(),
                p.max_slowdown(),
                p.lc_slowdown(),
                p.fairness(),
                if i + 1 == self.points.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"mix\": \"{}\", \"stats\": {}}}{}\n",
                p.mix,
                p.stats.to_json(),
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
            "multi-tenant QoS (slowdown vs alone run; LC = latency-critical tenant)\n",
        );
        let mut last_mix = "";
        for p in &self.points {
            if p.mix != last_mix {
                out.push_str(&format!(
                    "\n{}\n{:<12} {:<18} {:>8} {:>8} {:>9} {:>9} {:>8} {:>8} {:>8}\n",
                    p.mix,
                    "scheduler",
                    "qos policy",
                    "LC slow",
                    "max slow",
                    "w.speedup",
                    "fairness",
                    "p50 lat",
                    "p95 lat",
                    "p99 lat"
                ));
                last_mix = p.mix;
            }
            out.push_str(&format!(
                "{:<12} {:<18} {:>8.3} {:>8.3} {:>9.3} {:>9.3} {:>8.1} {:>8.1} {:>8.1}\n",
                p.scheduler,
                p.qos_policy,
                p.lc_slowdown(),
                p.max_slowdown(),
                p.weighted_speedup(),
                p.fairness(),
                p.stats.read_latency_p50_dram,
                p.stats.read_latency_p95_dram,
                p.stats.read_latency_p99_dram,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qos_study_protects_the_latency_critical_tenant() {
        let scale = Scale {
            warmup_cpu_cycles: 4_000,
            measure_cpu_cycles: 40_000,
            seed: 1,
            threads: crate::default_threads(),
        };
        let report = qos_study(&scale, &SweepOptions::default()).unwrap();
        // 3 mixes x 5 schedulers x 3 QoS policies.
        assert_eq!(report.points.len(), 45);
        for p in &report.points {
            assert_eq!(p.slowdown.len(), p.stats.tenants);
            assert!(p.stats.tenants >= 2);
            assert!(
                p.slowdown.iter().all(|s| s.is_finite() && *s > 0.0),
                "{}/{}/{}: degenerate slowdowns {:?}",
                p.mix,
                p.scheduler,
                p.qos_policy,
                p.slowdown
            );
            let f = p.fairness();
            assert!((0.0..=1.0 + 1e-9).contains(&f), "fairness {f} out of range");
        }
        // The headline acceptance property: boosting the latency-critical
        // tenant must reduce its worst-case slowdown vs no QoS on the
        // flagship mix (averaged over the five schedulers).
        let none = report.mean_lc_slowdown("ws+tpch_q6", "none");
        let boost = report.mean_lc_slowdown("ws+tpch_q6", "priority-boost");
        assert!(
            boost < none,
            "priority-boost must cut LC slowdown: {boost:.3} vs {none:.3}"
        );
        let json = report.to_json();
        assert!(json.contains("\"benchmark\": \"multi_tenant_qos\""));
        assert!(json.contains("\"qos_policy\": \"static-partition\""));
        assert!(json.contains("\"lc_slowdown\""));
        assert!(report.to_text().contains("w.speedup"));
    }
}
