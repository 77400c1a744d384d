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
//! same core allocation as the slowdown baseline. [`qos_study`] returns a
//! [`Report`] with one table per mix whose row per (scheduler, QoS policy)
//! holds the latency-critical tenant's slowdown, the max slowdown, weighted
//! speedup (`Σ IPC_shared/IPC_alone`), Jain's fairness index over the
//! per-tenant speedups, the p50/p95/p99 read latency and each tenant's
//! slowdown (`IPC_alone / IPC_shared`); a `mean/<policy>` row per QoS
//! policy averages the schedulers. `repro qos` prints the tables and writes
//! the report, with every shared run's statistics, as `BENCH_qos.json`.

use cloudmc_memctrl::QosPolicyKind;
use cloudmc_sim::{mean, SystemConfig};
use cloudmc_workloads::{MixSpec, TenantSpec, Workload, WorkloadSpec};

use crate::experiments::{baseline_config, paper_schedulers, Scale};
use crate::report::{Report, Table};
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

/// A tenant's speedup under co-location, `1 / slowdown` (0 for a tenant
/// that made no progress alone).
fn speedup(slowdown: f64) -> f64 {
    if slowdown > 0.0 {
        1.0 / slowdown
    } else {
        0.0
    }
}

/// Weighted speedup: `Σ_t IPC_shared_t / IPC_alone_t` (the number of
/// "alone-run equivalents" of work the consolidated node sustains; the
/// tenant count means co-location was free).
fn weighted_speedup(slowdown: &[f64]) -> f64 {
    slowdown.iter().copied().map(speedup).sum()
}

/// The worst tenant's slowdown.
fn max_slowdown(slowdown: &[f64]) -> f64 {
    slowdown.iter().copied().fold(0.0, f64::max)
}

/// The worst *latency-critical* tenant's slowdown (the QoS target metric);
/// the worst tenant's if the mix has no latency-critical tenant.
fn lc_slowdown(slowdown: &[f64], latency_critical: &[bool]) -> f64 {
    let lc = slowdown
        .iter()
        .zip(latency_critical)
        .filter(|(_, &lc)| lc)
        .map(|(&s, _)| s)
        .fold(0.0, f64::max);
    if lc > 0.0 {
        lc
    } else {
        max_slowdown(slowdown)
    }
}

/// Jain's fairness index over the per-tenant speedups
/// (`(Σx)² / (n·Σx²)`; 1.0 = perfectly even slowdowns).
fn fairness(slowdown: &[f64]) -> f64 {
    let sum = weighted_speedup(slowdown);
    let sum_sq: f64 = slowdown.iter().map(|&s| speedup(s) * speedup(s)).sum();
    if sum_sq == 0.0 {
        0.0
    } else {
        sum * sum / (slowdown.len() as f64 * sum_sq)
    }
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
/// point. The report holds one table per mix, named after it (`qos
/// ws+tpch_q6`, ...): a `scheduler/qos` row per shared run, then a
/// `mean/qos` row per QoS policy averaging the schedulers; its points are
/// the shared runs.
///
/// # Errors
///
/// The executor's [`SweepError`]: a point that failed, or a `--max-cells`
/// stop.
pub fn qos_study(scale: &Scale, sweep: &SweepOptions) -> Result<Report, SweepError> {
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
    let mut shared = cells[alone_count..]
        .iter()
        .map(|(label, _)| label.clone())
        .zip(shared);
    let mut tables = Vec::new();
    let mut points = Vec::new();
    for (mix_label, mix) in &mixes {
        let mut columns: Vec<String> = [
            "lc_slowdown",
            "max_slowdown",
            "weighted_speedup",
            "fairness",
            "p50_latency_dram",
            "p95_latency_dram",
            "p99_latency_dram",
        ]
        .map(str::to_owned)
        .to_vec();
        let tenants: Vec<String> = mix
            .tenants()
            .map(|t| t.workload.workload.acronym().to_owned())
            .collect();
        columns.extend((0..tenants.len()).map(|t| format!("slowdown_t{t}")));
        let mut table = Table::new(
            format!("qos {mix_label}: slowdown vs alone run (LC = latency-critical tenant)"),
            columns,
        );
        table.note = format!(
            "tenants t0..: {}; p50/p95/p99 read latency in DRAM cycles",
            tenants.join(", ")
        );
        for (s, (sched_label, _)) in schedulers.iter().enumerate() {
            let alone: Vec<f64> = mix
                .tenants()
                .map(|tenant| alone_ipc_of(s, &tenant.workload))
                .collect();
            for qos in QosPolicyKind::all() {
                let (label, stats) = shared.next().expect("shared run present");
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
                let mut row = vec![
                    lc_slowdown(&slowdown, &stats.tenant_latency_critical),
                    max_slowdown(&slowdown),
                    weighted_speedup(&slowdown),
                    fairness(&slowdown),
                    stats.read_latency_p50_dram,
                    stats.read_latency_p95_dram,
                    stats.read_latency_p99_dram,
                ];
                row.extend(slowdown);
                table.push_row(format!("{sched_label}/{qos}"), row);
                points.push((label, stats));
            }
        }
        let means: Vec<(String, Vec<f64>)> = QosPolicyKind::all()
            .into_iter()
            .map(|qos| {
                let suffix = format!("/{qos}");
                let runs: Vec<&Vec<f64>> = table
                    .rows
                    .iter()
                    .filter(|(label, _)| label.ends_with(&suffix))
                    .map(|(_, values)| values)
                    .collect();
                let mean_of = |c: usize| mean(runs.iter().map(|values| values[c]));
                (
                    format!("mean/{qos}"),
                    (0..table.columns.len()).map(mean_of).collect(),
                )
            })
            .collect();
        for (label, values) in means {
            table.push_row(label, values);
        }
        tables.push(table);
    }
    Ok(Report { tables, points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::RunMeta;

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
        assert_eq!(report.tables.len(), 3);
        let mut points = report.points.iter();
        for table in &report.tables {
            let tenant_columns: Vec<&String> = table
                .columns
                .iter()
                .filter(|c| c.starts_with("slowdown_t"))
                .collect();
            for (label, _) in table.rows.iter().filter(|(l, _)| !l.starts_with("mean/")) {
                let (_, stats) = points.next().expect("one point per shared run");
                assert_eq!(tenant_columns.len(), stats.tenants);
                assert!(stats.tenants >= 2);
                let slowdown: Vec<f64> = tenant_columns
                    .iter()
                    .map(|c| table.value(label, c).unwrap())
                    .collect();
                assert!(
                    slowdown.iter().all(|s| s.is_finite() && *s > 0.0),
                    "{}/{label}: degenerate slowdowns {slowdown:?}",
                    table.title
                );
                let f = table.value(label, "fairness").unwrap();
                assert!((0.0..=1.0 + 1e-9).contains(&f), "fairness {f} out of range");
            }
        }
        // The headline acceptance property: boosting the latency-critical
        // tenant must reduce its worst-case slowdown vs no QoS on the
        // flagship mix (averaged over the five schedulers).
        let flagship = report.table("qos ws+tpch_q6").unwrap();
        let none = flagship.value("mean/none", "lc_slowdown").unwrap();
        let boost = flagship
            .value("mean/priority-boost", "lc_slowdown")
            .unwrap();
        assert!(
            boost < none,
            "priority-boost must cut LC slowdown: {boost:.3} vs {none:.3}"
        );
        // The table's declared claim says the same and holds.
        let claims = crate::figures::claims_for(&flagship.title);
        assert_eq!(claims.len(), 1);
        let (verdict, worst, _) = claims[0].check(flagship).unwrap();
        assert_eq!(verdict, crate::figures::Verdict::Holds, "{worst:?}");
        let json = report.to_json(&RunMeta::collect("quick", None), "multi_tenant_qos");
        assert!(json.contains("\"benchmark\": \"multi_tenant_qos\""));
        assert!(json.contains("{\"label\": \"FR-FCFS/static-partition\", \"values\": ["));
        assert!(json.contains("\"lc_slowdown\""));
        assert!(flagship.to_text().contains("weighted_speedup"));
    }
}
