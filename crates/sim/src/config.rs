//! Full-system configuration.

use std::path::PathBuf;

use cloudmc_cpu::{CoreConfig, L2Config};
use cloudmc_dram::EnergyParams;
use cloudmc_memctrl::{McConfig, SchedulerKind};
use cloudmc_telemetry::TelemetryConfig;
use cloudmc_workloads::{MixSpec, Workload, WorkloadSource, WorkloadSpec};

use crate::error::SimError;

// The controller's per-tenant accounting arrays and the workload mix must
// agree on how many tenants can exist.
const _: () = assert!(cloudmc_workloads::MAX_TENANTS == cloudmc_memctrl::MAX_TENANTS);

/// Clock ratio of the model: the cores run at 2 GHz and the DRAM command
/// clock at 800 MHz (DDR3-1600), i.e. 2 DRAM cycles per 5 CPU cycles.
pub const DRAM_CYCLES_PER_5_CPU_CYCLES: u64 = 2;

/// Configuration of one full-system simulation run.
///
/// Defaults reproduce the paper's baseline (Table 2): a 16-core in-order pod
/// with 32 KB L1s and a shared 4 MB L2, an FR-FCFS single-channel controller
/// with the open-adaptive page policy, driven by one of the twelve workload
/// models.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Statistical workload model driving the cores (the only tenant unless
    /// [`SystemConfig::mix`] is set, in which case this mirrors tenant 0).
    pub workload: WorkloadSpec,
    /// Multi-tenant workload mix: heterogeneous workloads bound to core
    /// groups, each tagged with a tenant id that rides every request into
    /// the memory controller. `None` (the default) runs `workload` alone as
    /// tenant 0 — the pre-tenancy behaviour.
    pub mix: Option<MixSpec>,
    /// Where the per-core instruction streams come from: the synthetic
    /// generators (the default), or replay of a recorded trace file. Replay
    /// keeps the tenancy/core layout of `workload`/`mix` (which must match
    /// the recorded run) and supports the event-horizon fast-forward;
    /// replaying a trace recorded from a synthetic run reproduces its
    /// statistics bit for bit (`tests/trace_replay_equivalence.rs`).
    pub source: WorkloadSource,
    /// Record every op the cores consume (with its core binding; the tenant
    /// follows from the mix's core groups) to this trace file, enabling
    /// later [`WorkloadSource::Trace`] replay. `None` (the default) records
    /// nothing.
    pub trace_record: Option<PathBuf>,
    /// Per-core configuration (L1 caches, MSHRs).
    pub core: CoreConfig,
    /// Shared L2 configuration.
    pub l2: L2Config,
    /// Memory controller and DRAM configuration. `mc.dram.channels` is
    /// multiplied by [`SystemConfig::num_channels`] before the controller is
    /// built; every other field is used as written (`num_cores`, the QoS
    /// tenant metadata and the ATLAS quantum are derived, see
    /// [`SystemConfig::effective_mc`]).
    pub mc: McConfig,
    /// DRAM energy parameters (per-event charges and per-state background
    /// powers); pick the preset matching `mc.dram.timing`.
    pub energy: EnergyParams,
    /// Channel-count multiplier: the one memory controller is built with
    /// `num_channels * mc.dram.channels` channels, placed in the address by
    /// `mc.mapping` like any other channel bits (the default `RoRaBaCoCh`
    /// interleaves consecutive cache blocks across them). The product must
    /// be a power of two no larger than
    /// [`DramConfig::MAX_CHANNELS`](cloudmc_dram::DramConfig::MAX_CHANNELS).
    /// The default of 1 leaves `mc.dram.channels` as written.
    pub num_channels: usize,
    /// Random seed for workload generation and DMA injection.
    pub seed: u64,
    /// CPU cycles of warm-up before statistics are collected.
    pub warmup_cpu_cycles: u64,
    /// CPU cycles of measurement after warm-up.
    pub measure_cpu_cycles: u64,
    /// Functionally install the instruction working set and hot data of each
    /// core into the caches before simulation starts, standing in for the
    /// billion-instruction functional warm-up of the paper's methodology.
    pub functional_warmup: bool,
    /// Telemetry layers for this run: interval time-series sampling, span
    /// tracing, and the kernel self-profiler. Defaults to everything off,
    /// which is guaranteed free on the tick path and leaves `SimStats`
    /// bit-identical (`tests/telemetry_equivalence.rs`). Systems with any
    /// layer active refuse to snapshot (`SimError::Snapshot`).
    pub telemetry: TelemetryConfig,
}

impl SystemConfig {
    /// Baseline configuration for `workload` (Table 2 plus the calibrated
    /// workload spec).
    #[must_use]
    pub fn baseline(workload: Workload) -> Self {
        let spec = workload.spec();
        let mut mc = McConfig::baseline();
        mc.num_cores = spec.cores;
        Self {
            workload: spec,
            mix: None,
            source: WorkloadSource::Synthetic,
            trace_record: None,
            core: CoreConfig::default(),
            l2: L2Config::baseline(),
            mc,
            energy: EnergyParams::ddr3_1600(),
            num_channels: 1,
            seed: 1,
            warmup_cpu_cycles: 250_000,
            measure_cpu_cycles: 1_000_000,
            functional_warmup: true,
            telemetry: TelemetryConfig::default(),
        }
    }

    /// Baseline configuration driving a multi-tenant `mix` (Table 2 system
    /// parameters; `workload` mirrors tenant 0 for labelling).
    ///
    /// # Panics
    ///
    /// Panics if the mix is empty.
    #[must_use]
    pub fn mixed(mix: MixSpec) -> Self {
        let mut cfg = Self::baseline(mix.tenant(0).workload.workload);
        cfg.workload = mix.tenant(0).workload;
        cfg.mix = Some(mix);
        cfg.mc.num_cores = mix.total_cores();
        cfg
    }

    /// The tenancy in effect: the explicit mix, or the single workload as a
    /// solo tenant-0 mix.
    #[must_use]
    pub fn tenancy(&self) -> MixSpec {
        self.mix.unwrap_or_else(|| MixSpec::solo(self.workload))
    }

    /// Total cores over all tenants.
    #[must_use]
    pub fn core_count(&self) -> usize {
        self.tenancy().total_cores()
    }

    /// Total simulated CPU cycles (warm-up plus measurement), saturating at
    /// `u64::MAX`; [`SystemConfig::validate`] rejects a sum that overflows.
    #[must_use]
    pub fn total_cpu_cycles(&self) -> u64 {
        self.warmup_cpu_cycles
            .saturating_add(self.measure_cpu_cycles)
    }

    /// DRAM cycles corresponding to `cpu_cycles` under the fixed clock ratio
    /// (rounded down), exact over the whole `u64` range.
    #[must_use]
    pub fn cpu_to_dram_cycles(cpu_cycles: u64) -> u64 {
        cpu_cycles / 5 * DRAM_CYCLES_PER_5_CPU_CYCLES
            + cpu_cycles % 5 * DRAM_CYCLES_PER_5_CPU_CYCLES / 5
    }

    /// The effective memory-controller configuration: the channel count
    /// multiplied by [`SystemConfig::num_channels`], the ATLAS quantum scaled
    /// to the run length, and `num_cores` plus the QoS layer's tenant
    /// metadata (count, latency-criticality, bandwidth weights set to core
    /// counts) overwritten from the mix. Callers only choose
    /// `mc.qos.policy`; everything else follows the tenancy.
    #[must_use]
    pub fn effective_mc(&self) -> McConfig {
        let mut mc = self.mc;
        // Saturating: an overflowing product is not a power of two, so
        // validation rejects it like any other bad channel count.
        mc.dram.channels = mc.dram.channels.saturating_mul(self.num_channels);
        mc.num_cores = self.core_count();
        let tenancy = self.tenancy();
        mc.qos.tenants = tenancy.tenant_count();
        for (t, tenant) in tenancy.tenants().enumerate() {
            mc.qos.latency_critical[t] = tenant.latency_critical;
            #[expect(
                clippy::cast_possible_truncation,
                reason = "a simulable core count is far below u32::MAX"
            )]
            {
                mc.qos.share[t] = tenant.cores() as u32;
            }
        }
        if let SchedulerKind::Atlas(mut atlas) = mc.scheduler {
            let total_dram = Self::cpu_to_dram_cycles(self.total_cpu_cycles()).max(1);
            // Aim for roughly 10 quanta over the whole run, as a stand-in for
            // the hundreds of quanta of a full-length simulation; a run long
            // enough for that keeps the configured quantum. The starvation
            // threshold is deliberately *not* scaled: its ratio to the memory
            // latency (not to the quantum) is what bounds how long a
            // deprioritized core can be denied service, which is the effect
            // the paper attributes ATLAS's losses to.
            let target_quantum = (total_dram / 10).max(10_000);
            if target_quantum < atlas.quantum {
                atlas.quantum = target_quantum;
                mc.scheduler = SchedulerKind::Atlas(atlas);
            }
        }
        mc
    }

    /// Validates every field the build reads: the tenancy (the mix, or the
    /// solo workload), the cores, the L2, the run length, the controller as
    /// [`SystemConfig::effective_mc`] derives it, telemetry, and the trace
    /// paths. A configuration that passes builds without a panic.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] describing the first inconsistency.
    pub fn validate(&self) -> Result<(), SimError> {
        self.tenancy().validate().map_err(invalid("workload"))?;
        self.core.validate().map_err(invalid("core"))?;
        self.l2.validate().map_err(invalid("l2"))?;
        if self
            .warmup_cpu_cycles
            .checked_add(self.measure_cpu_cycles)
            .is_none()
        {
            return Err(SimError::Config(format!(
                "warmup_cpu_cycles ({}) + measure_cpu_cycles ({}) overflows u64",
                self.warmup_cpu_cycles, self.measure_cpu_cycles
            )));
        }
        // Validate the controller configuration as it will actually be
        // built: the tenant metadata filled in from the mix, and the one
        // channel-count rule applied to `num_channels * mc.dram.channels`.
        self.effective_mc().validate().map_err(invalid("mc"))?;
        if self.measure_cpu_cycles == 0 {
            return Err(SimError::Config(
                "measure_cpu_cycles must be non-zero".to_owned(),
            ));
        }
        self.telemetry.validate().map_err(invalid("telemetry"))?;
        if let (WorkloadSource::Trace(replay), Some(record)) = (&self.source, &self.trace_record) {
            if replay == record {
                return Err(SimError::Config(format!(
                    "trace_record and the replay source are the same file `{}`",
                    replay.display()
                )));
            }
        }
        Ok(())
    }
}

/// Turns a component's validation message into a [`SimError::Config`] that
/// names the [`SystemConfig`] field it came from.
pub(crate) fn invalid(field: &'static str) -> impl FnOnce(String) -> SimError {
    move |msg| SimError::Config(format!("{field}: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudmc_cpu::CacheConfig;
    use cloudmc_dram::DramConfig;
    use cloudmc_memctrl::{AtlasConfig, RlConfig};

    /// The message of the [`SimError::Config`] `cfg` fails validation with.
    fn config_error(cfg: &SystemConfig) -> String {
        match cfg.validate() {
            Err(SimError::Config(msg)) => msg,
            other => panic!("expected a configuration error, got {other:?}"),
        }
    }

    #[test]
    fn baseline_validates_for_every_workload() {
        for w in Workload::all() {
            let cfg = SystemConfig::baseline(w);
            cfg.validate().unwrap();
            assert_eq!(cfg.mc.num_cores, w.spec().cores);
        }
    }

    #[test]
    fn clock_ratio_is_2_to_5() {
        assert_eq!(SystemConfig::cpu_to_dram_cycles(5), 2);
        assert_eq!(SystemConfig::cpu_to_dram_cycles(1_000_000), 400_000);
    }

    #[test]
    fn atlas_quantum_is_scaled_to_run_length() {
        let mut cfg = SystemConfig::baseline(Workload::MapReduce);
        cfg.mc.scheduler = SchedulerKind::Atlas(AtlasConfig::default());
        let effective = cfg.effective_mc();
        match effective.scheduler {
            SchedulerKind::Atlas(a) => {
                assert!(a.quantum < AtlasConfig::default().quantum);
                let total_dram = SystemConfig::cpu_to_dram_cycles(cfg.total_cpu_cycles());
                assert!(a.quantum <= total_dram / 5);
            }
            other => panic!("expected ATLAS, got {other:?}"),
        }
    }

    #[test]
    fn run_length_overflow_is_a_typed_error() {
        assert_eq!(SystemConfig::cpu_to_dram_cycles(u64::MAX), u64::MAX / 5 * 2);
        for scheduler in [
            SchedulerKind::FrFcfs,
            SchedulerKind::Atlas(AtlasConfig::default()),
        ] {
            let mut cfg = SystemConfig::baseline(Workload::WebSearch);
            cfg.mc.scheduler = scheduler;
            cfg.measure_cpu_cycles = u64::MAX;
            let err = config_error(&cfg);
            assert!(err.contains("overflows"), "{err}");
            assert!(matches!(
                crate::Simulator::new(cfg.clone()),
                Err(SimError::Config(_))
            ));
            // Long but representable: valid, and long enough for ten ATLAS
            // quanta at the configured length, so nothing is scaled.
            cfg.measure_cpu_cycles = u64::MAX / 2 + 1;
            cfg.validate().unwrap();
            assert_eq!(cfg.effective_mc().scheduler, scheduler);
        }
    }

    #[test]
    fn zero_refresh_interval_with_refresh_enabled_is_a_config_error() {
        let mut cfg = SystemConfig::baseline(Workload::WebSearch);
        cfg.warmup_cpu_cycles = 1_000;
        cfg.measure_cpu_cycles = 1_000;
        cfg.mc.dram.timing.t_refi = 0;
        let err = crate::Simulator::new(cfg)
            .and_then(crate::Simulator::try_run)
            .unwrap_err();
        match err {
            SimError::Config(msg) => assert!(msg.contains("t_refi"), "{msg}"),
            other => panic!("expected a configuration error, got {other:?}"),
        }
    }

    /// Fields that size allocations made at construction are bounded first:
    /// 512 ranks or banks overflowed the 8-bit rank/bank field of a queue
    /// key, and `1 << 40` ranks, queue slots, MSHR entries or cache bytes
    /// and `1 << 36` L2 banks aborted on the allocation. The core rows (an L1 geometry that does not divide into
    /// sets, unequal L1 block sizes, an empty MSHR file, a solo tenant over
    /// the 64-core bound) passed validation and then panicked in the build.
    /// A zero crossbar latency silently behaved as one cycle: both kernels
    /// deliver a cycle's fills before the phase that posts them.
    /// The scheduler rows: an ATLAS quantum of 0 looped forever at its
    /// first boundary, zero RL tables or table entries panicked in the
    /// build, and `1 << 20` tables of `1 << 20` entries never finished.
    #[test]
    fn validate_bounds_bank_count_and_queue_capacity() {
        type Set = fn(&mut SystemConfig, usize);
        fn rl(num_tables: usize, table_size: usize) -> SchedulerKind {
            SchedulerKind::Rl(RlConfig {
                num_tables,
                table_size,
                ..RlConfig::default()
            })
        }
        let cases: [(&str, usize, Set); 19] = [
            ("ranks_per_channel", 512, |c, v| {
                c.mc.dram.ranks_per_channel = v
            }),
            ("banks_per_rank", 512, |c, v| c.mc.dram.banks_per_rank = v),
            ("ranks_per_channel", 1 << 40, |c, v| {
                c.mc.dram.ranks_per_channel = v;
            }),
            ("read_queue_capacity", 1 << 40, |c, v| {
                c.mc.read_queue_capacity = v;
            }),
            ("size_bytes (0)", 0, |c, v| c.core.l1d.size_bytes = v as u64),
            ("associativity (3)", 3, |c, v| c.core.l1i.associativity = v),
            ("l1i.block_bytes", 128, |c, v| {
                c.core.l1i.block_bytes = v as u64
            }),
            ("block_bytes (48)", 48, |c, v| {
                c.core.l1d.block_bytes = v as u64
            }),
            ("max_outstanding_misses (0)", 0, |c, v| {
                c.core.max_outstanding_misses = v;
            }),
            ("max_outstanding_misses", 1 << 40, |c, v| {
                c.core.max_outstanding_misses = v;
            }),
            ("cores", 65, |c, v| c.workload.cores = v),
            ("l1d: size_bytes", 1 << 40, |c, v| {
                c.core.l1d.size_bytes = v as u64;
            }),
            ("l2: bank: size_bytes", 1 << 40, |c, v| {
                c.l2.bank.size_bytes = v as u64;
            }),
            ("l2: banks", 1 << 36, |c, v| c.l2.banks = v),
            ("l2: crossbar_latency", 0, |c, v| {
                c.l2.crossbar_latency = v as u64;
            }),
            ("quantum", 0, |c, v| {
                c.mc.scheduler = SchedulerKind::Atlas(AtlasConfig {
                    quantum: v as u64,
                    ..AtlasConfig::default()
                });
            }),
            ("num_tables", 0, |c, v| c.mc.scheduler = rl(v, 256)),
            ("table_size", 0, |c, v| c.mc.scheduler = rl(32, v)),
            ("num_tables", 1 << 20, |c, v| c.mc.scheduler = rl(v, v)),
        ];
        for (field, value, set) in cases {
            let mut cfg = SystemConfig::baseline(Workload::WebSearch);
            cfg.warmup_cpu_cycles = 1_000;
            cfg.measure_cpu_cycles = 1_000;
            set(&mut cfg, value);
            match crate::Simulator::new(cfg).and_then(crate::Simulator::try_run) {
                Err(SimError::Config(msg)) => assert!(
                    msg.contains(field) && msg.contains(&value.to_string()),
                    "{field} = {value}: {msg}"
                ),
                other => panic!("{field} = {value}: expected a configuration error, got {other:?}"),
            }
        }
        // The bounds themselves validate.
        let mut cfg = SystemConfig::baseline(Workload::WebSearch);
        cfg.mc.dram.ranks_per_channel = 8;
        cfg.mc.dram.banks_per_rank = DramConfig::MAX_BANKS_PER_CHANNEL / 8;
        cfg.mc.read_queue_capacity = McConfig::MAX_QUEUE_CAPACITY;
        cfg.mc.write_queue_capacity = McConfig::MAX_QUEUE_CAPACITY;
        cfg.core.max_outstanding_misses = CoreConfig::MAX_OUTSTANDING_MISSES;
        cfg.workload.cores = 64;
        let max_lines_bytes = CacheConfig::MAX_LINES * 64;
        cfg.core.l1i.size_bytes = max_lines_bytes;
        cfg.core.l1d.size_bytes = max_lines_bytes;
        cfg.l2.bank.size_bytes = max_lines_bytes;
        cfg.l2.banks = L2Config::MAX_BANKS;
        cfg.validate().unwrap();
        cfg.mc.scheduler = rl(RlConfig::MAX_TABLES, RlConfig::MAX_TABLE_SIZE);
        cfg.validate().unwrap();
        cfg.mc.scheduler = rl(1, 1);
        cfg.validate().unwrap();
        cfg.mc.scheduler = SchedulerKind::Atlas(AtlasConfig {
            quantum: 1,
            ..AtlasConfig::default()
        });
        cfg.validate().unwrap();
    }

    #[test]
    fn mixed_config_derives_tenancy_metadata() {
        use cloudmc_memctrl::QosPolicyKind;
        use cloudmc_workloads::TenantSpec;
        let mix = MixSpec::new(TenantSpec::latency_critical(Workload::WebSearch, 8))
            .and(TenantSpec::batch(Workload::TpchQ6, 8));
        let mut cfg = SystemConfig::mixed(mix);
        cfg.mc.qos.policy = QosPolicyKind::StaticPartition;
        cfg.validate().unwrap();
        assert_eq!(cfg.core_count(), 16);
        assert_eq!(cfg.tenancy().tenant_count(), 2);
        let mc = cfg.effective_mc();
        assert_eq!(mc.num_cores, 16);
        assert_eq!(mc.qos.tenants, 2);
        assert_eq!(mc.qos.latency_critical[..2], [true, false]);
        assert_eq!(mc.qos.share[..2], [8, 8]);
        // Solo configs reduce to a one-tenant mix with QoS inert.
        let solo = SystemConfig::baseline(Workload::WebSearch);
        assert_eq!(solo.tenancy().tenant_count(), 1);
        assert_eq!(solo.effective_mc().qos.tenants, 1);
    }

    #[test]
    fn invalid_mix_fails_validation() {
        use cloudmc_workloads::TenantSpec;
        let mut bad = Workload::WebSearch.spec();
        bad.cores = 4;
        bad.burstiness = 5.0;
        let mix = MixSpec::new(TenantSpec::batch(Workload::TpchQ6, 8)).and(TenantSpec {
            workload: bad,
            latency_critical: false,
        });
        let mut cfg = SystemConfig::baseline(Workload::TpchQ6);
        cfg.mix = Some(mix);
        let err = config_error(&cfg);
        assert!(err.contains("tenant 1"), "{err}");
    }

    #[test]
    fn validate_rejects_zero_measurement() {
        let mut cfg = SystemConfig::baseline(Workload::WebSearch);
        cfg.measure_cpu_cycles = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_recording_over_the_replay_source() {
        let mut cfg = SystemConfig::baseline(Workload::WebSearch);
        assert_eq!(cfg.source, WorkloadSource::Synthetic);
        assert_eq!(cfg.trace_record, None);
        cfg.source = WorkloadSource::Trace("/tmp/a.trace".into());
        cfg.trace_record = Some("/tmp/a.trace".into());
        let err = config_error(&cfg);
        assert!(err.contains("same file"), "{err}");
        cfg.trace_record = Some("/tmp/b.trace".into());
        // Distinct paths pass config validation (the replay file is only
        // opened when the system is built).
        cfg.validate().unwrap();
    }

    #[test]
    fn validate_bounds_channel_count() {
        let mut cfg = SystemConfig::baseline(Workload::WebSearch);
        assert_eq!(cfg.num_channels, 1);
        // One rule on the product, whichever knob carries it: a typed error,
        // never a capacity overflow or a 2^40-element allocation.
        for num_channels in [0usize, 3, 65, 128, usize::MAX] {
            cfg.num_channels = num_channels;
            let err = config_error(&cfg);
            assert!(
                err.contains("channels"),
                "num_channels {num_channels}: {err}"
            );
            assert!(crate::System::new(cfg.clone()).is_err());
        }
        cfg.num_channels = 1;
        cfg.mc.dram.channels = 1 << 40;
        let err = config_error(&cfg);
        assert!(err.contains("channels"), "{err}");
        assert!(crate::System::new(cfg.clone()).is_err());
        cfg.mc.dram.channels = 16;
        cfg.num_channels = 8;
        assert!(cfg.validate().is_err(), "the bound is on the product");
        cfg.num_channels = 4;
        cfg.validate().unwrap();
        assert_eq!(cfg.effective_mc().dram.channels, 64);
        assert_eq!(cfg.mc.dram.channels, 16, "the written config is untouched");
    }
}
