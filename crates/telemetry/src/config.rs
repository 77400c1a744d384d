//! Telemetry configuration block.

use std::path::PathBuf;

/// Which telemetry layers a simulation runs with.
///
/// Embedded in the simulator's `SystemConfig` as the `telemetry` field; the
/// default is everything off, which the simulator guarantees costs nothing
/// on the tick path and leaves `SimStats` bit-identical.
///
/// # Examples
///
/// ```
/// use cloudmc_telemetry::TelemetryConfig;
///
/// let cfg = TelemetryConfig {
///     sample_interval: 10_000,
///     span_sample_every: 64,
///     ..TelemetryConfig::default()
/// };
/// assert!(cfg.is_active());
/// assert!(TelemetryConfig::default().validate().is_ok());
/// assert!(!TelemetryConfig::default().is_active());
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Interval-time-series sample period in CPU cycles; `0` disables the
    /// time series. Samples are taken at every multiple of the interval
    /// (warmup included), on exact cycles under every kernel.
    pub sample_interval: u64,
    /// Optional JSON-lines file the time series is written to when the run
    /// finishes (one [`TelemetrySample`](crate::TelemetrySample) per line).
    pub series_path: Option<PathBuf>,
    /// Span-trace sampling period in request ids; `0` disables tracing.
    /// A request is traced when `id % span_sample_every == 0`, which is
    /// deterministic across kernels because ids are minted in arrival
    /// order.
    pub span_sample_every: u64,
    /// Optional JSON-lines file sampled spans are written to when the run
    /// finishes (one [`SpanRecord`](crate::SpanRecord) per line).
    pub span_path: Option<PathBuf>,
    /// Enables the kernel self-profiler (wall-clock and simulated-cycle
    /// accounting per kernel phase).
    pub profile_kernel: bool,
}

impl TelemetryConfig {
    /// Everything off (the default).
    #[must_use]
    pub fn off() -> Self {
        Self::default()
    }

    /// `true` when the interval time-series is enabled.
    #[must_use]
    pub fn series_enabled(&self) -> bool {
        self.sample_interval > 0
    }

    /// `true` when span tracing is enabled.
    #[must_use]
    pub fn spans_enabled(&self) -> bool {
        self.span_sample_every > 0
    }

    /// `true` when any telemetry layer is active.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.series_enabled() || self.spans_enabled() || self.profile_kernel
    }

    /// Checks internal consistency, returning a human-readable reason on
    /// failure (an output path without its producing layer enabled).
    ///
    /// # Errors
    ///
    /// Returns a description of the inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.series_path.is_some() && !self.series_enabled() {
            return Err(
                "telemetry series_path set but sample_interval is 0 (time series disabled)".into(),
            );
        }
        if self.span_path.is_some() && !self.spans_enabled() {
            return Err(
                "telemetry span_path set but span_sample_every is 0 (span tracing disabled)".into(),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_off_and_valid() {
        let cfg = TelemetryConfig::off();
        assert!(!cfg.is_active());
        assert!(!cfg.series_enabled());
        assert!(!cfg.spans_enabled());
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn orphan_output_paths_fail_validation() {
        let cfg = TelemetryConfig {
            series_path: Some("series.jsonl".into()),
            ..TelemetryConfig::default()
        };
        assert!(cfg.validate().unwrap_err().contains("series_path"));
        let cfg = TelemetryConfig {
            span_path: Some("spans.jsonl".into()),
            ..TelemetryConfig::default()
        };
        assert!(cfg.validate().unwrap_err().contains("span_path"));
    }

    #[test]
    fn each_layer_activates_independently() {
        for cfg in [
            TelemetryConfig {
                sample_interval: 1,
                ..TelemetryConfig::default()
            },
            TelemetryConfig {
                span_sample_every: 1,
                ..TelemetryConfig::default()
            },
            TelemetryConfig {
                profile_kernel: true,
                ..TelemetryConfig::default()
            },
        ] {
            assert!(cfg.is_active(), "{cfg:?}");
            assert!(cfg.validate().is_ok());
        }
    }
}
