//! Observability must be invisible and deterministic — the two invariants
//! the telemetry subsystem is built on:
//!
//! 1. **Off ⇒ free.** With every telemetry layer disabled, `SimStats` is
//!    bit-identical to a run that never heard of telemetry, and enabling any
//!    layer still leaves `SimStats` bit-identical (observation must not
//!    perturb the simulation).
//! 2. **On ⇒ reproducible.** The interval time series and the sampled span
//!    trace are element-for-element identical between the event kernel and
//!    the per-cycle reference loop, for any seed — because samples land on
//!    exact cycle boundaries and span ids are minted in arrival order. The
//!    telemetry rows of `tests/answers.rs` also check this on generated
//!    configurations.

mod support;

use cloudmc::memctrl::{PowerPolicyKind, SchedulerKind};
use cloudmc::sim::{Simulator, SystemConfig};
use cloudmc::telemetry::{SpanRecord, TelemetryConfig, TelemetrySample};
use cloudmc::workloads::Workload;
use support::corpus::{covers, observe, Observed};
use support::{lc_batch_mix, small};

const INTERVAL: u64 = 7_000; // deliberately not a divisor of the run length
const SPAN_EVERY: u64 = 16;

fn with_telemetry(mut cfg: SystemConfig) -> SystemConfig {
    cfg.telemetry = TelemetryConfig {
        sample_interval: INTERVAL,
        span_sample_every: SPAN_EVERY,
        ..TelemetryConfig::default()
    };
    cfg
}

/// Runs `cfg` on the event kernel.
fn run_telemetry(cfg: &SystemConfig) -> Observed {
    observe(Simulator::new(cfg.clone())).expect("valid config")
}

/// Runs `cfg` on the reference loop and on the event kernel and demands
/// identical stats, series and spans.
fn assert_telemetry_equivalent(cfg: SystemConfig, label: &str) -> Observed {
    let reference = observe(Simulator::reference(cfg.clone())).expect("valid config");
    let event = run_telemetry(&cfg);
    assert_eq!(
        event, reference,
        "{label}: event kernel diverged from the reference loop"
    );
    reference
}

/// Invariant 1, both directions: the default config and an explicit
/// telemetry-off config are the same run, and turning every layer on leaves
/// `SimStats` bit-identical to both.
#[test]
fn telemetry_never_perturbs_stats() {
    for seed in [1u64, 7] {
        let plain = small(Workload::TpchQ6, seed);
        let (reference, series, spans) = run_telemetry(&plain);
        assert!(
            series.is_empty() && spans.is_empty(),
            "off must collect nothing"
        );

        let mut off = plain.clone();
        off.telemetry = TelemetryConfig::off();
        let (off_stats, _, _) = run_telemetry(&off);
        assert_eq!(off_stats, reference, "explicit off must equal the default");

        let mut all = with_telemetry(plain.clone());
        all.telemetry.profile_kernel = true;
        let (on_stats, on_series, on_spans) = run_telemetry(&all);
        assert_eq!(
            on_stats, reference,
            "seed {seed}: enabling telemetry changed SimStats"
        );
        assert!(!on_series.is_empty() && !on_spans.is_empty());

        // Profiler-only: telemetry is "active" (snapshots refuse) yet collects
        // no series or spans, and still must not perturb the run.
        let mut profiled = plain.clone();
        profiled.telemetry.profile_kernel = true;
        let (prof_stats, prof_series, prof_spans) = run_telemetry(&profiled);
        assert_eq!(prof_stats, reference);
        assert!(prof_series.is_empty() && prof_spans.is_empty());
    }
}

/// Invariant 2 on generated rows: identical series and spans under the
/// reference loop and the event kernel, samples on exact interval
/// boundaries and spans sampled by id (every telemetry row of the corpus
/// checks the last two), a DMA-driven Web Frontend among them.
#[test]
fn series_and_spans_are_identical_across_kernels_and_threads() {
    covers(&[95, 220], &["telemetry series and spans"], &["DMA reads"]);
}

/// Invariant 2 where it is hardest: a two-channel backend, a
/// latency-critical/batch tenant mix, and a non-FCFS scheduler. Per-tenant
/// bandwidth shares must agree across both kernels too.
#[test]
fn two_channel_tenant_mix_series_are_identical() {
    let mut cfg = SystemConfig::mixed(lc_batch_mix());
    cfg.warmup_cpu_cycles = 10_000;
    cfg.measure_cpu_cycles = 60_000;
    cfg.seed = 5;
    cfg.num_channels = 2;
    cfg.mc.scheduler = SchedulerKind::paper_set()[1];
    let cfg = with_telemetry(cfg);
    let (stats, series, spans) = assert_telemetry_equivalent(cfg, "two-channel mix");
    assert_eq!(stats.tenants, 2);
    // Spans name the controller's channel, and both channels serve traffic.
    for channel in 0..2 {
        assert!(spans.iter().any(|s| s.channel == channel));
    }
    assert!(spans.iter().all(|s| s.channel < 2));
    let mut saw_traffic = false;
    for s in &series {
        assert_eq!(s.bandwidth_share.len(), 2, "one share per tenant");
        let total: f64 = s.bandwidth_share.iter().sum();
        if s.reads_completed + s.writes_completed > 0 {
            saw_traffic = true;
            assert!(
                (total - 1.0).abs() < 1e-9,
                "shares must sum to 1 when traffic completed, got {total}"
            );
        }
    }
    assert!(saw_traffic, "mix must complete requests in some window");
}

/// A sample is the same window arithmetic as `SimStats`: with no warm-up and
/// one interval spanning the whole measurement, the single sample equals the
/// run's statistics bit for bit, and with several intervals the per-window
/// counts add up to them.
#[test]
fn one_full_window_sample_equals_simstats_bit_for_bit() {
    let mut cfg = small(Workload::WebSearch, 9);
    cfg.warmup_cpu_cycles = 0;
    // Idle enough that ranks power down, so no compared ratio is a trivial 0.
    cfg.workload = cfg.workload.with_intensity(0.02);
    cfg.mc.power_policy = PowerPolicyKind::IdleTimer;
    cfg.telemetry.sample_interval = cfg.measure_cpu_cycles;
    let (stats, series, _) = run_telemetry(&cfg);
    let [sample] = series.as_slice() else {
        panic!("expected exactly one sample, got {}", series.len());
    };
    assert!(stats.reads_completed > 0 && stats.power_down_fraction > 0.0);
    assert_eq!(sample.reads_completed, stats.reads_completed);
    assert_eq!(sample.writes_completed, stats.writes_completed);
    for (name, sampled, measured) in [
        ("ipc", sample.ipc, stats.user_ipc()),
        (
            "avg_read_latency",
            sample.avg_read_latency,
            stats.avg_read_latency_dram,
        ),
        (
            "row_hit_rate",
            sample.row_hit_rate,
            stats.row_buffer_hit_rate,
        ),
        (
            "avg_read_queue",
            sample.avg_read_queue,
            stats.avg_read_queue_len,
        ),
        (
            "power_down_fraction",
            sample.power_down_fraction,
            stats.power_down_fraction,
        ),
    ] {
        assert_eq!(sampled.to_bits(), measured.to_bits(), "{name}");
    }

    cfg.telemetry.sample_interval = cfg.measure_cpu_cycles / 6;
    let (split_stats, windows, _) = run_telemetry(&cfg);
    assert_eq!(split_stats, stats);
    assert_eq!(windows.len(), 6);
    let reads: u64 = windows.iter().map(|w| w.reads_completed).sum();
    assert_eq!(reads, stats.reads_completed);
}

/// The JSON-lines sinks round-trip: every series sample and span written at
/// the end of the measurement parses back to the in-memory record.
#[test]
fn jsonl_sinks_round_trip() {
    let dir = std::env::temp_dir().join("cloudmc_telemetry_equivalence");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let series_path = dir.join("series.jsonl");
    let span_path = dir.join("spans.jsonl");
    let mut cfg = with_telemetry(small(Workload::TpchQ6, 3));
    cfg.telemetry.series_path = Some(series_path.clone());
    cfg.telemetry.span_path = Some(span_path.clone());
    let (_, series, spans) = run_telemetry(&cfg);

    let series_file = std::fs::read_to_string(&series_path).expect("series file");
    let parsed: Vec<TelemetrySample> = series_file
        .lines()
        .map(|l| TelemetrySample::from_jsonl(l).expect("well-formed series line"))
        .collect();
    assert_eq!(parsed, series);

    let span_file = std::fs::read_to_string(&span_path).expect("span file");
    let parsed: Vec<SpanRecord> = span_file
        .lines()
        .map(|l| SpanRecord::from_jsonl(l).expect("well-formed span line"))
        .collect();
    assert_eq!(parsed, spans);
    let _ = std::fs::remove_dir_all(&dir);
}
