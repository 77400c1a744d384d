//! One benchmark run of one workload: the end-to-end run (`--trace 0`) and
//! the per-layer run (`--trace 1`).
//!
//! End-to-end metrics are never taken from a traced run. The per-layer run
//! repeats a (shorter) untraced timed phase only to derive the `host.*`
//! figures and the event-kernel speed-up, then spends the rest of its budget
//! on the traced reference loop, the isolated layer kernels and the
//! telemetry-cost twin.

use std::time::{Duration, Instant};

use cloudmc_dram::ChannelStats;
use cloudmc_sim::{SimStats, Simulator, SystemConfig};
use cloudmc_telemetry::TelemetryConfig;

use crate::checks;
use crate::estimate::{summarize, TimeSummary};
use crate::layers;
use crate::refloop::{NoTrace, RefSystem, SamplingTracer, Span};
use crate::timed::{self, Ops, Plan, Timed};
use crate::workloads::WorkloadDef;

/// How much simulated work the fixed-length parts of a run cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark of record.
    Full,
    /// A smoke run (`--quick`): same code paths, far fewer cycles. Its
    /// numbers are never compared with full-scale ones.
    Quick,
}

impl Scale {
    pub fn label(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Quick => "quick",
        }
    }

    /// CPU cycles of timed warm-up before any statistic or slice is taken.
    pub fn warmup_cycles(self) -> u64 {
        match self {
            Scale::Full => 200_000,
            Scale::Quick => 50_000,
        }
    }

    /// Cycles the cold-started reference loop runs before it is compared
    /// with the default-kernel `Simulator`.
    fn oracle_cycles(self) -> u64 {
        2 * self.warmup_cycles()
    }

    /// Length of the measured window every count metric comes from.
    fn count_window(self) -> u64 {
        match self {
            Scale::Full => 1_000_000,
            Scale::Quick => 100_000,
        }
    }

    /// Cycles of the traced reference loop (after its untraced warm-up).
    fn traced_cycles(self) -> u64 {
        self.count_window()
    }
}

pub struct RunOutcome {
    /// `(metric name, value)` in table order.
    pub metrics: Vec<(&'static str, f64)>,
    pub ops: Ops,
    /// Diagnostics for the human-readable report (medians, p99s, sample
    /// counts beside every fast decile).
    pub notes: Vec<String>,
    /// Sample counts and timer cost, for the run's `meta` block.
    pub meta: Vec<(&'static str, f64)>,
}

fn mcps(cycles: u64, seconds: f64) -> f64 {
    cycles as f64 / seconds / 1e6
}

fn note_summary(notes: &mut Vec<String>, what: &str, unit_scale: f64, unit: &str, s: &TimeSummary) {
    notes.push(format!(
        "{what}: n={} fast-decile={:.4} median={:.4} p99={:.4} {unit}, slow-share={:.2}",
        s.n,
        s.fast * unit_scale,
        s.median * unit_scale,
        s.p99 * unit_scale,
        s.slow_share
    ));
}

/// The two checks made on the warm, long-running system itself.
fn check_warm_system(def: &WorkloadDef, cfg: &SystemConfig, sim: &mut Simulator, ops: &mut Ops) {
    ops.record(
        "check.fork_identity",
        checks::fork_identity(sim, cfg, def.slice_cycles),
    );
    ops.record("check.conservation", checks::conservation(sim));
}

/// `--trace 0`: the end-to-end metrics.
pub fn end_to_end(def: &WorkloadDef, seed: u64, seconds: f64, scale: Scale) -> RunOutcome {
    let cfg = def.config(seed, scale.warmup_cycles());
    let mut ops = Ops::default();
    let mut notes = Vec::new();
    let mut metrics = Vec::new();
    let mut meta = Vec::new();

    match timed::timed_phase(&cfg, def.slice_cycles, Plan::end_to_end(seconds), &mut ops) {
        Ok(Timed {
            mut sim,
            slice_s,
            setup_s,
            forks,
            first_system_peak_rss_mib,
        }) => {
            let slices = summarize(&slice_s);
            let setups = summarize(&setup_s);
            let fork_total: Vec<f64> = forks.iter().map(|f| f.snapshot_s + f.restore_s).collect();
            let fork = summarize(&fork_total);
            note_summary(&mut notes, "slice time", 1e3, "ms", &slices);
            note_summary(&mut notes, "setup time", 1.0, "s", &setups);
            note_summary(&mut notes, "fork time", 1e3, "ms", &fork);
            meta.extend([
                ("slices", slices.n as f64),
                ("setup_samples", setups.n as f64),
                ("fork_samples", fork.n as f64),
            ]);
            metrics.push(("sim_mcps", mcps(def.slice_cycles, slices.fast)));
            metrics.push(("setup_s", setups.fast));
            metrics.push(("fork_ms", fork.fast * 1e3));
            match first_system_peak_rss_mib {
                Some(mib) => metrics.push(("peak_rss_mib", mib)),
                None => ops.record("peak_rss", Err("no VmHWM in /proc/self/status".to_owned())),
            }
            if let Some(mib) = timed::peak_rss_mib() {
                notes.push(format!(
                    "process VmHWM after the last slice, harness set-ups and forks included: {mib:.2} MiB"
                ));
            }
            check_warm_system(def, &cfg, &mut sim, &mut ops);
        }
        Err(why) => ops.record("timed phase", Err(why)),
    }
    ops.record(
        "check.reference_loop",
        checks::reference_loop_from_cold(&cfg, scale.oracle_cycles()),
    );
    ops.record(
        "check.determinism",
        checks::determinism(&cfg, def.slice_cycles.max(100_000)).map(|_| ()),
    );
    RunOutcome {
        metrics,
        ops,
        notes,
        meta,
    }
}

/// Cost of one `Instant::now()` read in ns: the fast decile over batches of
/// back-to-back reads.
fn timer_cost_ns() -> f64 {
    const READS: usize = 10_000;
    let batches: Vec<f64> = (0..50)
        .map(|_| {
            let start = Instant::now();
            let mut last = start;
            for _ in 0..READS {
                last = std::hint::black_box(Instant::now());
            }
            (last - start).as_secs_f64() / READS as f64
        })
        .collect();
    summarize(&batches).fast * 1e9
}

struct Traced {
    /// Untraced and traced per-slice seconds of the twin reference loops.
    untraced: TimeSummary,
    traced: TimeSummary,
    tracer: SamplingTracer,
    /// Wall seconds of the whole untraced / traced loop (sum over slices).
    untraced_wall_s: f64,
    traced_wall_s: f64,
}

const REF_SLICE_CYCLES: u64 = 10_000;

/// Twin reference loops from the same configuration — one untraced, one
/// traced — warmed up untraced and then advanced in alternating slices, so
/// both see the same host phases and the tracing overhead is their ratio.
/// Both are then held to the default-kernel `Simulator` (the oracle check),
/// which also proves the tracer did not perturb the simulation.
fn traced_reference(cfg: &SystemConfig, scale: Scale, ops: &mut Ops) -> Result<Traced, String> {
    let mut plain = RefSystem::new(cfg)?;
    let mut probed = RefSystem::new(cfg)?;
    plain.run(cfg.warmup_cpu_cycles, &mut NoTrace);
    probed.run(cfg.warmup_cpu_cycles, &mut NoTrace);
    let mut tracer = SamplingTracer::new();
    let (mut plain_s, mut probed_s) = (Vec::new(), Vec::new());
    for _ in 0..scale.traced_cycles() / REF_SLICE_CYCLES {
        let t = Instant::now();
        plain.run(REF_SLICE_CYCLES, &mut NoTrace);
        plain_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        probed.run(REF_SLICE_CYCLES, &mut tracer);
        probed_s.push(t.elapsed().as_secs_f64());
    }
    ops.attempted += (plain_s.len() + probed_s.len()) as u64;
    ops.record(
        "check.reference_loop",
        checks::reference_loop(cfg, &plain).and_then(|()| {
            checks::Observed::of_reference(&probed)
                .same_as(&checks::Observed::of_reference(&plain))
                .map_err(|why| format!("traced vs untraced reference: {why}"))
        }),
    );
    Ok(Traced {
        untraced: summarize(&plain_s),
        traced: summarize(&probed_s),
        untraced_wall_s: plain_s.iter().sum(),
        traced_wall_s: probed_s.iter().sum(),
        tracer,
    })
}

/// `telemetry.on_cost_pct`: twin systems, time series every 10 000 cycles
/// and 1-in-64 request spans on one of them, advanced in alternating slices.
fn telemetry_cost_pct(
    def: &WorkloadDef,
    cfg: &SystemConfig,
    budget: Duration,
) -> Result<f64, String> {
    let mut on_cfg = cfg.clone();
    on_cfg.telemetry = TelemetryConfig {
        sample_interval: 10_000,
        span_sample_every: 64,
        ..TelemetryConfig::default()
    };
    let (mut off, _) = timed::setup(cfg)?;
    let (mut on, _) = timed::setup(&on_cfg)?;
    let (mut off_s, mut on_s) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while off_s.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        off.system_mut().run_cycles(def.slice_cycles);
        off_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        on.system_mut().run_cycles(def.slice_cycles);
        on_s.push(t.elapsed().as_secs_f64());
    }
    if on.system().telemetry_series().is_empty() {
        return Err("telemetry was on but recorded no samples".to_owned());
    }
    Ok((summarize(&on_s).fast / summarize(&off_s).fast - 1.0) * 100.0)
}

fn count_metrics(stats: &SimStats, device: &ChannelStats, out: &mut Vec<(&'static str, f64)>) {
    out.extend([
        ("cpu.instructions", stats.user_instructions as f64),
        ("cpu.user_ipc", stats.user_ipc()),
        ("cpu.l2_mpki", stats.l2_mpki),
        ("memctrl.reads_completed", stats.reads_completed as f64),
        ("memctrl.writes_completed", stats.writes_completed as f64),
        ("memctrl.row_hit_rate", stats.row_buffer_hit_rate),
        (
            "memctrl.single_access_row_share",
            stats.single_access_activation_fraction,
        ),
        ("memctrl.avg_read_queue_len", stats.avg_read_queue_len),
        ("memctrl.avg_read_latency_dram", stats.avg_read_latency_dram),
        ("memctrl.read_latency_p99_dram", stats.read_latency_p99_dram),
        ("memctrl.demand_retries", stats.demand_retries as f64),
        ("memctrl.power_down_fraction", stats.power_down_fraction),
        ("memctrl.ecc_corrected", stats.ecc_corrected as f64),
        ("memctrl.scrub_reads", stats.scrub_reads_completed as f64),
        ("dram.activates", device.activates as f64),
        (
            "dram.commands",
            (device.activates + device.precharges + device.reads + device.writes + device.refreshes)
                as f64,
        ),
        ("dram.bandwidth_utilization", stats.bandwidth_utilization),
        ("dram.energy_mj", stats.dram_energy_mj),
    ]);
}

/// `--trace 1`: the per-layer metrics.
pub fn per_layer(def: &WorkloadDef, seed: u64, seconds: f64, scale: Scale) -> RunOutcome {
    let cfg = def.config(seed, scale.warmup_cycles());
    let mut ops = Ops::default();
    let mut notes = Vec::new();
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    let mut meta = Vec::new();
    let bare_timer_ns = timer_cost_ns();
    meta.push(("bare_timer_ns", bare_timer_ns));

    // Simulated statistics first: they also scale the host.* figures.
    let window = checks::determinism(&cfg, scale.count_window());
    let counts = ops.take("check.determinism", window);

    // Untraced event-kernel slices, rotated like the end-to-end run's: a
    // third of the budget.
    let plan = Plan {
        budget: Duration::from_secs_f64(seconds * 0.35),
        fork_samples: ((seconds * 0.5).round() as usize).clamp(3, 10),
    };
    let mut event_fast_s = None;
    match timed::timed_phase(&cfg, def.slice_cycles, plan, &mut ops) {
        Ok(Timed {
            mut sim,
            slice_s,
            forks,
            ..
        }) => {
            let slices = summarize(&slice_s);
            note_summary(&mut notes, "event-kernel slice time", 1e3, "ms", &slices);
            event_fast_s = Some(slices.fast);
            let ns_per_cycle = slices.fast * 1e9 / def.slice_cycles as f64;
            if let Some((stats, _)) = &counts {
                let requests = (stats.reads_completed + stats.writes_completed) as f64;
                let cycles = stats.cpu_cycles as f64;
                metrics.push(("host.ns_per_mem_req", ns_per_cycle * cycles / requests));
                metrics.push((
                    "host.ns_per_instruction",
                    ns_per_cycle * cycles / stats.user_instructions as f64,
                ));
            }
            metrics.push((
                "host.sim_mcps_median",
                mcps(def.slice_cycles, slices.median),
            ));
            metrics.push(("host.slice_ms_p99", slices.p99 * 1e3));
            metrics.push(("host.slow_slice_share", slices.slow_share));
            metrics.push(("host.slices", slices.n as f64));
            meta.extend([
                ("slices", slices.n as f64),
                ("fork_samples", forks.len() as f64),
            ]);
            let snapshot: Vec<f64> = forks.iter().map(|f| f.snapshot_s).collect();
            let restore: Vec<f64> = forks.iter().map(|f| f.restore_s).collect();
            metrics.push(("snap.snapshot_ms", summarize(&snapshot).fast * 1e3));
            metrics.push(("snap.restore_ms", summarize(&restore).fast * 1e3));
            if let Some(f) = forks.last() {
                metrics.push(("snap.image_kib", f.image_bytes as f64 / 1024.0));
            }
            check_warm_system(def, &cfg, &mut sim, &mut ops);
        }
        Err(why) => ops.record("timed phase", Err(why)),
    }

    match traced_reference(&cfg, scale, &mut ops) {
        Ok(t) => {
            note_summary(
                &mut notes,
                "reference-loop slice time",
                1e3,
                "ms",
                &t.untraced,
            );
            note_summary(&mut notes, "traced-loop slice time", 1e3, "ms", &t.traced);
            let ref_fast_s_per_cycle = t.untraced.fast / REF_SLICE_CYCLES as f64;
            metrics.push((
                "sim.kernel.ref_mcps",
                mcps(REF_SLICE_CYCLES, t.untraced.fast),
            ));
            if let Some(event_fast) = event_fast_s {
                let event_s_per_cycle = event_fast / def.slice_cycles as f64;
                metrics.push((
                    "sim.kernel.event_speedup",
                    ref_fast_s_per_cycle / event_s_per_cycle,
                ));
            }
            metrics.push((
                "trace.overhead_pct",
                (t.traced.fast / t.untraced.fast - 1.0) * 100.0,
            ));

            // Each stretch between two timer reads contains one read's cost,
            // and a read costs more inside the loop than back to back (it
            // drains the pipeline the simulated cycle had filled). So the
            // cost is taken in place: a sampled cycle's mean duration minus
            // an unsampled cycle's, over the stretches a sampled cycle is
            // cut into (each ends in one read).
            let tr = &t.tracer;
            let raw_ns: f64 = tr.nanos.iter().map(|&n| n as f64).sum();
            let stretches: f64 = tr.calls.iter().map(|&n| n as f64).sum();
            let sampled = tr.sampled_cycles as f64;
            let unsampled = scale.traced_cycles() as f64 - sampled;
            let mean_unsampled_ns = (t.traced_wall_s * 1e9 - raw_ns) / unsampled;
            let timer_ns = ((raw_ns - sampled * mean_unsampled_ns) / stretches).max(0.0);
            metrics.push(("trace.timer_ns", timer_ns));

            // Remove the probe's cost from every stretch, scale the sampled
            // cycles up to all cycles, and hold the result against the
            // *untraced* twin's wall time for the same cycles — a loop no
            // probe ever touched, so `trace.attributed_share` is an
            // independent check that the spans add up to what the loop costs
            // when nobody is watching.
            let net = |span: Span| {
                let i = span as usize;
                (tr.nanos[i] as f64 - tr.calls[i] as f64 * timer_ns).max(0.0)
            };
            let stride = f64::from(SamplingTracer::STRIDE);
            let share = |span: Span| net(span) * stride / (t.untraced_wall_s * 1e9);
            let per_call = |span: Span| net(span) / (tr.calls[span as usize].max(1)) as f64;
            let attributed: f64 = Span::ALL.into_iter().map(share).sum();
            metrics.extend([
                ("sim.frontend.tick_share", share(Span::FrontendTick)),
                ("sim.frontend.tick_ns", per_call(Span::FrontendTick)),
                ("sim.frontend.fill_share", share(Span::FrontendFill)),
                ("sim.frontend.fill_ns", per_call(Span::FrontendFill)),
                ("sim.backend.submit_share", share(Span::BackendSubmit)),
                ("sim.backend.submit_ns", per_call(Span::BackendSubmit)),
                ("sim.backend.tick_share", share(Span::BackendTick)),
                ("sim.backend.tick_ns", per_call(Span::BackendTick)),
                ("sim.kernel.glue_share", share(Span::Glue)),
                ("trace.attributed_share", attributed),
            ]);
            notes.push(format!(
                "traced {} of {} cycles ({} spans, {} timer reads)",
                tr.sampled_cycles,
                scale.traced_cycles(),
                tr.calls.iter().sum::<u64>(),
                tr.timer_reads()
            ));
        }
        Err(why) => ops.record("traced reference loop", Err(why)),
    }

    let kernel_budget = Duration::from_secs_f64(seconds * 0.02);
    metrics.extend(layers::run_all(&cfg, kernel_budget, &mut ops));

    let telemetry_budget = Duration::from_secs_f64(seconds * 0.1);
    let telemetry_cost = telemetry_cost_pct(def, &cfg, telemetry_budget);
    if let Some(pct) = ops.take("telemetry twin", telemetry_cost) {
        metrics.push(("telemetry.on_cost_pct", pct));
    }

    if let Some((stats, device)) = &counts {
        count_metrics(stats, device, &mut metrics);
        notes.push(format!(
            "model unvalidated (no reference results in the repository); single-access row share {:.3} vs the paper's 0.77-0.90 band, as a sanity note only",
            stats.single_access_activation_fraction
        ));
    }
    RunOutcome {
        metrics,
        ops,
        notes,
        meta,
    }
}
