//! The metric tables: the single in-code declaration of every metric's name,
//! unit, direction and (end-to-end only) regression bound. `BENCHMARK.json`
//! must list exactly these; the `benchmark_json_agrees` self-test holds the
//! two together.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// What a metric measures, which decides how two runs of it compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host time (or host memory): noisy, compared through medians, spreads
    /// and bounds.
    Host,
    /// A simulated statistic over a fixed cycle window: a pure function of
    /// workload and seed, so two commits that model the same hardware must
    /// agree **exactly**. A change meant only to speed the simulator up that
    /// moves any of these has changed the model.
    Count,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression. `Some` on end-to-end metrics only.
    pub bound: Option<f64>,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        kind: Kind::Host,
    }
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        kind: Kind::Host,
    }
}

/// Count metrics have no better direction of their own (a different count is
/// a different model); `better` records which way a *design* change would
/// want them to go, as BENCHMARK.json requires one.
const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        kind: Kind::Count,
    }
}

use Better::{Higher, Lower};

/// What a user of the simulator pays, reported by `--trace 0`.
///
/// `failed_share` from the issue is deliberately not here: it is expected to
/// be exactly 0, which a bounded ratio metric cannot be. Failures are carried
/// by the result line's `attempted`/`failed`/`correct` fields and the exit
/// code instead.
pub const END_TO_END: &[MetricDef] = &[
    e2e("sim_mcps", "Mcycles/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("fork_ms", "ms", Lower, 0.20),
    e2e("peak_rss_mib", "MiB", Lower, 0.10),
];

/// Where the host time goes and what was simulated, reported by `--trace 1`.
pub const PER_LAYER: &[MetricDef] = &[
    // sim: spans around the layer calls of the traced reference loop.
    host("sim.frontend.tick_share", "share", Lower),
    host("sim.frontend.tick_ns", "ns", Lower),
    host("sim.frontend.fill_share", "share", Lower),
    host("sim.frontend.fill_ns", "ns", Lower),
    host("sim.backend.submit_share", "share", Lower),
    host("sim.backend.submit_ns", "ns", Lower),
    host("sim.backend.tick_share", "share", Lower),
    host("sim.backend.tick_ns", "ns", Lower),
    host("sim.kernel.glue_share", "share", Lower),
    host("sim.kernel.ref_mcps", "Mcycles/s", Higher),
    host("sim.kernel.event_speedup", "x", Higher),
    host("trace.overhead_pct", "%", Lower),
    host("trace.attributed_share", "share", Higher),
    host("trace.timer_ns", "ns", Lower),
    // Isolated layer kernels on this workload's own op/address stream.
    host("workloads.next_op_ns", "ns", Lower),
    host("cpu.core_tick_ns", "ns", Lower),
    host("cpu.l1_access_ns", "ns", Lower),
    host("cpu.l2_access_ns", "ns", Lower),
    host("memctrl.map_decode_ns", "ns", Lower),
    host("memctrl.enqueue_ns", "ns", Lower),
    host("memctrl.tick_ns.frfcfs", "ns", Lower),
    host("memctrl.tick_ns.fcfs_banks", "ns", Lower),
    host("memctrl.tick_ns.parbs", "ns", Lower),
    host("memctrl.tick_ns.atlas", "ns", Lower),
    host("memctrl.tick_ns.rl", "ns", Lower),
    host("dram.cmd_ns", "ns", Lower),
    host("snap.snapshot_ms", "ms", Lower),
    host("snap.restore_ms", "ms", Lower),
    host("snap.image_kib", "KiB", Lower),
    host("telemetry.hist_record_ns", "ns", Lower),
    host("telemetry.on_cost_pct", "%", Lower),
    // host: derived from the untraced timed slices of the same run.
    host("host.ns_per_mem_req", "ns", Lower),
    host("host.ns_per_instruction", "ns", Lower),
    host("host.sim_mcps_median", "Mcycles/s", Higher),
    host("host.slice_ms_p99", "ms", Lower),
    host("host.slow_slice_share", "share", Lower),
    host("host.slices", "count", Higher),
    // Simulated statistics over the fixed count window (bit-exact).
    count("cpu.instructions", "count", Higher),
    count("cpu.user_ipc", "insn/cycle", Higher),
    count("cpu.l2_mpki", "1/kinsn", Lower),
    count("memctrl.reads_completed", "count", Higher),
    count("memctrl.writes_completed", "count", Higher),
    count("memctrl.row_hit_rate", "share", Higher),
    count("memctrl.single_access_row_share", "share", Lower),
    count("memctrl.avg_read_queue_len", "requests", Lower),
    count("memctrl.avg_read_latency_dram", "dram_cycles", Lower),
    count("memctrl.read_latency_p99_dram", "dram_cycles", Lower),
    count("memctrl.demand_retries", "count", Lower),
    count("memctrl.power_down_fraction", "share", Higher),
    count("memctrl.ecc_corrected", "count", Lower),
    count("memctrl.scrub_reads", "count", Lower),
    count("dram.activates", "count", Lower),
    count("dram.commands", "count", Lower),
    count("dram.bandwidth_utilization", "share", Higher),
    count("dram.energy_mj", "mJ", Lower),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}
