//! Text dashboard over the telemetry subsystem: runs a latency-critical +
//! batch tenant mix with every observability layer on and renders what came
//! back — the interval time series (with an IPC bar chart), the end-of-run
//! latency percentiles, a digest of the sampled request spans, and the
//! kernel self-profile.
//!
//! Telemetry collection is in-memory here; set `series_path`/`span_path` in
//! `TelemetryConfig` to stream the same records to JSON-lines files instead.
//!
//! Run with:
//! ```text
//! cargo run --release --example telemetry_dashboard
//! ```

use cloudmc::sim::{Simulator, SystemConfig};
use cloudmc::telemetry::{KernelPhase, SpanOutcome, TelemetryConfig};
use cloudmc::workloads::{MixSpec, TenantSpec, Workload};

/// An ASCII bar scaled so that `max` fills the full width.
fn bar(value: f64, max: f64, width: usize) -> String {
    let filled = if max > 0.0 {
        ((value / max) * width as f64).round() as usize
    } else {
        0
    };
    "#".repeat(filled.min(width))
}

fn main() -> Result<(), String> {
    let mix = MixSpec::new(TenantSpec::latency_critical(Workload::WebSearch, 8))
        .and(TenantSpec::batch(Workload::TpchQ6, 8));
    let mut cfg = SystemConfig::mixed(mix);
    cfg.warmup_cpu_cycles = 20_000;
    cfg.measure_cpu_cycles = 160_000;
    cfg.telemetry = TelemetryConfig {
        sample_interval: 15_000,
        span_sample_every: 32,
        profile_kernel: true,
        ..TelemetryConfig::default()
    };
    let interval = cfg.telemetry.sample_interval;

    let mut sim = Simulator::new(cfg).map_err(|e| e.to_string())?;
    sim.run_warmup();
    let stats = sim.run_measurement().map_err(|e| e.to_string())?;

    println!("== time series (window = {interval} CPU cycles) ==");
    println!(
        "{:>9} {:>6} {:>7} {:>8} {:>6} {:>6} {:>11}  ipc",
        "cycle", "ipc", "reads", "avg lat", "hit%", "queue", "share t0/t1"
    );
    let series = sim.system().telemetry_series();
    let peak_ipc = series.iter().map(|s| s.ipc).fold(0.0f64, f64::max);
    for s in series {
        println!(
            "{:>9} {:>6.3} {:>7} {:>8.1} {:>6.1} {:>6.2} {:>5.2}/{:<5.2}  {}",
            s.cycle,
            s.ipc,
            s.reads_completed,
            s.avg_read_latency,
            s.row_hit_rate * 100.0,
            s.avg_read_queue,
            s.bandwidth_share.first().copied().unwrap_or(1.0),
            s.bandwidth_share.get(1).copied().unwrap_or(0.0),
            bar(s.ipc, peak_ipc, 24),
        );
    }

    println!("\n== read latency (DRAM cycles, measurement window) ==");
    println!(
        "avg {:.1}   p50 {:.1}   p95 {:.1}   p99 {:.1}   max {}",
        stats.avg_read_latency_dram,
        stats.read_latency_p50_dram,
        stats.read_latency_p95_dram,
        stats.read_latency_p99_dram,
        stats.read_latency_max_dram,
    );

    let spans = sim.system().telemetry_spans();
    println!(
        "\n== sampled request spans (1 in 32 by id; {} captured) ==",
        spans.len()
    );
    for outcome in [SpanOutcome::Hit, SpanOutcome::Miss, SpanOutcome::Conflict] {
        let matching: Vec<_> = spans.iter().filter(|s| s.outcome == outcome).collect();
        let avg_queue = if matching.is_empty() {
            0.0
        } else {
            matching.iter().map(|s| s.queue_delay() as f64).sum::<f64>() / matching.len() as f64
        };
        let avg_total = if matching.is_empty() {
            0.0
        } else {
            matching.iter().map(|s| s.latency() as f64).sum::<f64>() / matching.len() as f64
        };
        println!(
            "row {:<9} {:>5} spans   avg queue wait {:>6.1}   avg total {:>6.1}",
            outcome.as_str(),
            matching.len(),
            avg_queue,
            avg_total,
        );
    }
    if let Some(span) = spans.first() {
        println!(
            "first span: request {} ({}, tenant {}, channel {}): enqueue {} -> issue {} -> \
             complete {} ({}, {} retries)",
            span.id,
            span.access.as_str(),
            span.tenant,
            span.channel,
            span.enqueue,
            span.issue,
            span.completion,
            span.outcome.as_str(),
            span.retries,
        );
    }

    if let Some(profile) = sim.system().kernel_profile() {
        println!("\n== kernel self-profile ==");
        for (name, phase) in [
            ("frontend", KernelPhase::Frontend),
            ("backend", KernelPhase::Backend),
            ("next due", KernelPhase::NextDue),
        ] {
            let fraction = profile.fraction(phase);
            println!(
                "{:<12} {:>5.1}%  {}",
                name,
                fraction * 100.0,
                bar(fraction, 1.0, 40)
            );
        }
        println!(
            "{} cycles stepped, {} jumped; {:.0} simulated CPU cycles per host us",
            profile.stepped_cpu_cycles,
            profile.jumped_cpu_cycles,
            profile.cycles_per_host_micro(),
        );
        let channel_cycles = profile.ticked_channel_cycles + profile.skipped_channel_cycles;
        println!(
            "{} channel-cycles ticked, {} skipped ({:.1}% ticked)",
            profile.ticked_channel_cycles,
            profile.skipped_channel_cycles,
            100.0 * profile.ticked_channel_cycles as f64 / channel_cycles.max(1) as f64,
        );
        println!(
            "{} ops generated, {} interval draws, {} exact (ln) draws ({:.1}%)",
            profile.ops_generated,
            profile.interval_draws,
            profile.exact_draws,
            100.0 * profile.exact_draws as f64 / profile.interval_draws.max(1) as f64,
        );
    }
    Ok(())
}
