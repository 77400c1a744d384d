//! Invariants of the multi-tenant QoS subsystem.
//!
//! * **Per-tenant request conservation** — at any observation point, every
//!   tenant's requests sent equal its completions plus its requests still in
//!   flight (queued, in DRAM, or parked in retry buckets). QoS reordering
//!   may delay a tenant, never lose or misattribute it.
//! * **Determinism** — identical seeds give bit-identical per-tenant stats;
//!   different seeds actually change the streams.
//! * **Protection** — the priority boost must reduce the latency-critical
//!   tenant's read latency on a contended mix, and the batch tenant pays,
//!   keeping total completions conserved.

mod support;

use cloudmc::memctrl::{QosPolicyKind, MAX_TENANTS};
use cloudmc::sim::{run_system, SimStats, System, SystemConfig};
use support::lc_batch_mix;

fn small_mixed(qos: QosPolicyKind, seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::mixed(lc_batch_mix());
    cfg.warmup_cpu_cycles = 10_000;
    cfg.measure_cpu_cycles = 60_000;
    cfg.seed = seed;
    cfg.mc.qos.policy = qos;
    cfg
}

/// Per-tenant conservation at arbitrary mid-run observation points, with the
/// QoS arbiter actively reordering service.
#[test]
fn per_tenant_requests_are_conserved_mid_run() {
    for qos in QosPolicyKind::all() {
        let mut system = System::new(small_mixed(qos, 2)).unwrap();
        for _ in 0..12 {
            system.run_cycles(5_000);
            let sent = system.memory_sent_per_tenant();
            let in_flight = system.requests_in_flight_per_tenant();
            let stats = system.controller_stats();
            for t in 0..MAX_TENANTS {
                let completed =
                    stats.reads_completed_per_tenant[t] + stats.writes_completed_per_tenant[t];
                assert_eq!(
                    sent[t],
                    completed + in_flight[t],
                    "{qos}: tenant {t} lost requests (sent {} vs completed {} + {} in flight)",
                    sent[t],
                    completed,
                    in_flight[t]
                );
            }
            // The per-tenant breakdown must also partition the totals.
            assert_eq!(
                sent.iter().sum::<u64>(),
                system.memory_reads_sent() + system.memory_writes_sent()
            );
        }
    }
}

/// Identical seeds are bit-identical per tenant; different seeds differ.
#[test]
fn per_tenant_stats_are_deterministic_across_seeds() {
    for qos in [QosPolicyKind::None, QosPolicyKind::PriorityBoost] {
        let a = run_system(small_mixed(qos, 7)).unwrap();
        let b = run_system(small_mixed(qos, 7)).unwrap();
        assert_eq!(a, b, "{qos}: same seed must be bit-identical");
        let c = run_system(small_mixed(qos, 8)).unwrap();
        assert_ne!(
            a.instructions_per_tenant, c.instructions_per_tenant,
            "{qos}: different seeds must differ"
        );
    }
}

/// The boost protects the latency-critical tenant on a contended mix: its
/// average read latency drops versus no QoS, while conservation still holds
/// (satellite check that protection is redistribution, not loss).
#[test]
fn priority_boost_reduces_latency_critical_read_latency() {
    let run = |qos: QosPolicyKind| -> SimStats { run_system(small_mixed(qos, 3)).unwrap() };
    let none = run(QosPolicyKind::None);
    let boost = run(QosPolicyKind::PriorityBoost);
    assert!(
        boost.avg_read_latency_per_tenant[0] < none.avg_read_latency_per_tenant[0],
        "boost must cut the LC tenant's latency: {} vs {}",
        boost.avg_read_latency_per_tenant[0],
        none.avg_read_latency_per_tenant[0]
    );
    // Both tenants keep completing work under either policy.
    for stats in [&none, &boost] {
        assert!(stats.reads_completed_per_tenant.iter().all(|&r| r > 0));
    }
}
