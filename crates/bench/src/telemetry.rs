//! Telemetry overhead tracking: wall-clock cost of each observability layer
//! (interval time series, span tracing, kernel self-profiler) on the dense
//! TPC-H Q6 scan — the stream with the least idle time for the hooks to hide
//! in. The layer stack is cumulative: `series` enables the time series,
//! `series_spans` adds span tracing, `all` adds the self-profiler.
//!
//! The `repro telemetry` experiment serializes the result as
//! `BENCH_telemetry.json`. Two invariants are asserted as a side effect of
//! measuring:
//!
//! - every layer leaves `SimStats` bit-identical to the telemetry-off run
//!   (observation must not perturb the simulation), and
//! - the enabled layers actually produce data (non-empty series/spans and a
//!   profile whose phase times were populated).
//!
//! The `off` point is measured against a separate telemetry-off reference
//! run of the same binary, so its "overhead" is an honest A/B bound on what
//! the disabled hooks cost (noise included); the `repro` binary gates it at
//! ≤2% at standard scale and above.

use std::time::Instant;

use cloudmc_sim::{SimStats, Simulator, SystemConfig};
use cloudmc_telemetry::{KernelProfile, TelemetryConfig};

use crate::experiments::Scale;
use crate::fastforward::dense_config;

/// Timed repetitions per layer; the fastest is reported (minimum damps
/// scheduler noise far better than the mean on short runs).
pub const TELEMETRY_REPEATS: usize = 3;

/// One measured observability layer.
#[derive(Debug, Clone)]
pub struct TelemetryPoint {
    /// Layer name (`off`, `series`, `series_spans`, `all`).
    pub name: &'static str,
    /// Best-of-[`TELEMETRY_REPEATS`] wall-clock seconds for the run.
    pub wall_seconds: f64,
    /// Simulated CPU cycles per wall-clock second at that best time.
    pub cycles_per_sec: f64,
    /// Relative cost versus the telemetry-off reference run
    /// (`wall / off_wall - 1`; negative values are measurement noise).
    pub overhead_vs_off: f64,
    /// Interval samples the layer collected (0 when the series is off).
    pub series_samples: usize,
    /// Request spans the layer collected (0 when tracing is off).
    pub spans: usize,
}

/// The full overhead report for `BENCH_telemetry.json`.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// One point per layer, `off` first.
    pub points: Vec<TelemetryPoint>,
    /// Kernel self-profile from the `all` layer's fastest run.
    pub profile: Option<KernelProfile>,
}

/// The dense benchmark configuration with `layers` applied.
#[must_use]
pub fn telemetry_config(scale: &Scale, layers: TelemetryConfig) -> SystemConfig {
    let mut cfg = dense_config(scale);
    cfg.telemetry = layers;
    cfg
}

/// The cumulative layer stack measured by the study, `off` first.
#[must_use]
pub fn telemetry_layers(scale: &Scale) -> Vec<(&'static str, TelemetryConfig)> {
    // ~32 samples over the measurement window: enough for a dashboard,
    // sparse enough that sampling cost is dominated by the hooks, not the
    // sample computation itself.
    let interval = (scale.measure_cpu_cycles / 32).max(1);
    let series = TelemetryConfig {
        sample_interval: interval,
        ..TelemetryConfig::off()
    };
    let series_spans = TelemetryConfig {
        span_sample_every: 8,
        ..series.clone()
    };
    let all = TelemetryConfig {
        profile_kernel: true,
        ..series_spans.clone()
    };
    vec![
        ("off", TelemetryConfig::off()),
        ("series", series),
        ("series_spans", series_spans),
        ("all", all),
    ]
}

struct LayerRun {
    stats: SimStats,
    wall_seconds: f64,
    series_samples: usize,
    spans: usize,
    profile: Option<KernelProfile>,
}

fn timed_layer(cfg: &SystemConfig) -> LayerRun {
    let mut best: Option<LayerRun> = None;
    for _ in 0..TELEMETRY_REPEATS {
        let mut sim = Simulator::new(cfg.clone()).expect("valid benchmark configuration");
        let start = Instant::now();
        sim.run_warmup();
        let stats = sim
            .run_measurement()
            .expect("telemetry benchmark run failed");
        let wall_seconds = start.elapsed().as_secs_f64().max(1e-9);
        let run = LayerRun {
            series_samples: sim.system().telemetry_series().len(),
            spans: sim.system().telemetry_spans().len(),
            profile: sim.system().kernel_profile(),
            stats,
            wall_seconds,
        };
        if best
            .as_ref()
            .is_none_or(|b| run.wall_seconds < b.wall_seconds)
        {
            best = Some(run);
        }
    }
    best.expect("at least one repeat")
}

/// Runs the overhead study at `scale`: a telemetry-off reference, then every
/// layer of [`telemetry_layers`], asserting bit-identical statistics and
/// non-empty telemetry output along the way.
///
/// # Panics
///
/// Panics if any layer perturbs `SimStats`, or if an enabled layer produced
/// no data — both indicate the telemetry plumbing is broken.
#[must_use]
pub fn telemetry_study(scale: &Scale) -> TelemetryReport {
    let total_cycles = scale.warmup_cpu_cycles + scale.measure_cpu_cycles;
    // Warm the host caches with one throwaway run, then take the reference.
    let reference_cfg = telemetry_config(scale, TelemetryConfig::off());
    let _ = timed_layer(&reference_cfg);
    let reference = timed_layer(&reference_cfg);
    let mut points = Vec::new();
    let mut profile = None;
    for (name, layers) in telemetry_layers(scale) {
        let cfg = telemetry_config(scale, layers.clone());
        let run = timed_layer(&cfg);
        assert_eq!(
            run.stats, reference.stats,
            "layer `{name}` must leave SimStats bit-identical to telemetry off"
        );
        if layers.series_enabled() {
            assert!(
                run.series_samples > 0,
                "layer `{name}` collected no samples"
            );
        }
        if layers.spans_enabled() {
            assert!(run.spans > 0, "layer `{name}` collected no spans");
        }
        if layers.profile_kernel {
            let p = run
                .profile
                .clone()
                .expect("profiler layer returns a profile");
            assert!(p.total_nanos > 0, "profiler recorded no wall time");
            profile = Some(p);
        }
        points.push(TelemetryPoint {
            name,
            wall_seconds: run.wall_seconds,
            cycles_per_sec: total_cycles as f64 / run.wall_seconds,
            overhead_vs_off: run.wall_seconds / reference.wall_seconds - 1.0,
            series_samples: run.series_samples,
            spans: run.spans,
        });
    }
    TelemetryReport { points, profile }
}

impl TelemetryReport {
    /// The measured point for one layer name, if present.
    #[must_use]
    pub fn point(&self, name: &str) -> Option<&TelemetryPoint> {
        self.points.iter().find(|p| p.name == name)
    }

    /// Machine-readable JSON for `BENCH_telemetry.json`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"benchmark\": \"telemetry_overhead\",\n");
        out.push_str("  \"unit\": \"wall_seconds_best_of_repeats\",\n");
        out.push_str(&format!(
            "  \"repeats\": {TELEMETRY_REPEATS},\n  \"points\": [\n"
        ));
        for (i, p) in self.points.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"wall_seconds\": {:.6}, \
                 \"cycles_per_sec\": {:.0}, \"overhead_vs_off\": {:.4}, \
                 \"series_samples\": {}, \"spans\": {}}}{}\n",
                p.name,
                p.wall_seconds,
                p.cycles_per_sec,
                p.overhead_vs_off,
                p.series_samples,
                p.spans,
                if i + 1 == self.points.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");
        match &self.profile {
            Some(p) => out.push_str(&format!("  \"profile\": {}\n", p.to_json())),
            None => out.push_str("  \"profile\": null\n"),
        }
        out.push_str("}\n");
        out
    }

    /// Human-readable summary for the terminal.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::from(
            "telemetry overhead on dense TPC-H Q6 (best of repeats; vs telemetry-off reference)\n\
             layer             wall [s]   cycles/s    overhead   samples    spans\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:<15} {:>10.4} {:>10.0} {:>+9.2}% {:>9} {:>8}\n",
                p.name,
                p.wall_seconds,
                p.cycles_per_sec,
                p.overhead_vs_off * 100.0,
                p.series_samples,
                p.spans,
            ));
        }
        if let Some(p) = &self.profile {
            out.push_str(&format!(
                "kernel profile (all layers on): frontend {:.1}% backend {:.1}% \
                 event-queue {:.1}%; {} cycles stepped, {} jumped\n",
                p.fraction(cloudmc_telemetry::KernelPhase::Frontend) * 100.0,
                p.fraction(cloudmc_telemetry::KernelPhase::Backend) * 100.0,
                p.fraction(cloudmc_telemetry::KernelPhase::EventQueue) * 100.0,
                p.stepped_cpu_cycles,
                p.jumped_cpu_cycles,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_runs_and_serializes() {
        let scale = Scale {
            warmup_cpu_cycles: 2_000,
            measure_cpu_cycles: 10_000,
            seed: 1,
            threads: 1,
        };
        let report = telemetry_study(&scale);
        assert_eq!(report.points.len(), 4);
        assert_eq!(report.points[0].name, "off");
        assert_eq!(report.points[0].series_samples, 0);
        assert_eq!(report.points[0].spans, 0);
        let series = report.point("series").unwrap();
        assert!(series.series_samples > 0);
        let spans = report.point("series_spans").unwrap();
        assert!(spans.spans > 0);
        let profile = report.profile.as_ref().expect("profiled layer ran");
        assert_eq!(
            profile.stepped_cpu_cycles + profile.jumped_cpu_cycles,
            profile.cpu_cycles
        );
        let json = report.to_json();
        assert!(json.contains("\"benchmark\": \"telemetry_overhead\""));
        assert!(json.contains("\"name\": \"all\""));
        assert!(json.contains("\"profile\": {"));
        assert!(report.to_text().contains("overhead"));
    }
}
