//! The four benchmark workloads: which system each builds and why.
//!
//! Every workload is a closed system (the simulated cores block on their own
//! misses; there is no arrival schedule), one process per run, single
//! threaded, telemetry off, default kernel. The only input is the seed, which
//! drives the synthetic instruction streams, the DMA injector and — on
//! `mix_full` — the fault model.

use cloudmc_memctrl::{
    FaultConfig, ParBsConfig, PowerPolicyKind, QosPolicyKind, SchedulerKind, UncorrectablePolicy,
};
use cloudmc_sim::SystemConfig;
use cloudmc_workloads::{MixSpec, TenantSpec, Workload};

#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    /// CPU cycles per timed slice: long enough (≥10 ms of host time) that
    /// timer cost and scheduler jitter are noise, short enough that a run
    /// yields hundreds of samples for the fast decile.
    pub slice_cycles: u64,
    /// One line for BENCHMARK.json (≤200 characters).
    pub why: &'static str,
    build: fn(u64) -> SystemConfig,
}

impl WorkloadDef {
    /// The system this workload simulates, for `seed`. Statistics and slices
    /// start after the functional prewarm (code and hot data installed in the
    /// caches) plus `warmup_cycles` of timed warm-up, so the modelled caches
    /// and controller queues are in steady state.
    pub fn config(&self, seed: u64, warmup_cycles: u64) -> SystemConfig {
        let mut cfg = (self.build)(seed);
        cfg.seed = seed;
        cfg.functional_warmup = true;
        cfg.warmup_cpu_cycles = warmup_cycles;
        cfg
    }
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "ws_dense",
        slice_cycles: 50_000,
        why: "Paper Table 2 baseline on Web Search: low MPKI, most cycles stepped, host time mostly frontend (cpu+workloads); controller changes should barely move it.",
        build: |_| SystemConfig::baseline(Workload::WebSearch),
    },
    WorkloadDef {
        name: "q6_stream",
        slice_cycles: 50_000,
        why: "Same system on the TPC-H Q6 scan: ~5x the DRAM reads per cycle, queues stay occupied, backend (memctrl+dram) is the largest share; frontend-only changes should move it little.",
        build: |_| SystemConfig::baseline(Workload::TpchQ6),
    },
    WorkloadDef {
        name: "ws_idle",
        slice_cycles: 1_000_000,
        why: "Web Search at 2% intensity: most cycles are jumped, host time is next-event computation and lazy catch-up (sim kernel); dense-path changes are predicted not to move it.",
        build: |_| {
            let mut cfg = SystemConfig::baseline(Workload::WebSearch);
            cfg.workload = cfg.workload.with_intensity(0.02);
            cfg
        },
    },
    WorkloadDef {
        name: "mix_full",
        slice_cycles: 50_000,
        why: "WSx8 + Q6x8 tenants, PAR-BS, static-partition QoS, idle-timer power, faults+scrub, 2 shards: every per-tick branch dead in the common config is live, so special-casing shows its cost.",
        build: |seed| {
            let mix = MixSpec::new(TenantSpec::latency_critical(Workload::WebSearch, 8))
                .and(TenantSpec::batch(Workload::TpchQ6, 8));
            let mut cfg = SystemConfig::mixed(mix);
            cfg.mc.scheduler = SchedulerKind::ParBs(ParBsConfig::default());
            cfg.mc.qos.policy = QosPolicyKind::StaticPartition;
            cfg.mc.power_policy = PowerPolicyKind::IdleTimer;
            cfg.mc.fault_model = Some(FaultConfig {
                seed,
                transient_rate_fp: FaultConfig::rate_per_million_reads(100),
                scrub_interval: 20_000,
                stuck_rows_per_rank: 2,
                retire_threshold: 3,
                on_uncorrectable: UncorrectablePolicy::PoisonAndContinue,
                ..FaultConfig::baseline()
            });
            cfg.num_channels = 2;
            cfg
        },
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}
