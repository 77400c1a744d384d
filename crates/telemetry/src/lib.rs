//! Observability primitives for the `cloudmc` simulator.
//!
//! This crate is a dependency leaf (std only) providing the data types the
//! rest of the workspace threads telemetry through:
//!
//! - [`LatencyHistogram`] — mergeable log2-bucket histograms used for
//!   read-latency tails (p50/p95/p99/max) per channel and per tenant.
//! - [`TelemetryConfig`] — knob block embedded in the simulator's
//!   `SystemConfig` selecting which telemetry layers are active.
//! - [`TelemetrySample`] — one windowed-delta sample of an interval
//!   time-series, serialized as compact JSON-lines.
//! - [`SpanRecord`] — one sampled request-lifecycle span
//!   (enqueue → first issue → row outcome → completion).
//! - [`KernelProfiler`] / [`KernelProfile`] — wall-clock and simulated-cycle
//!   accounting per kernel phase.
//!
//! Everything here is deterministic: histograms merge associatively and
//! commutatively, samples and spans carry only values derived from simulator
//! counters, and all JSON encoding is hand-rolled with stable key order so
//! byte-for-byte comparison across kernels and hosts is meaningful.

#![forbid(unsafe_code)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unimplemented,
    clippy::todo
)]
// No `clippy::disallowed_methods` pair, unlike the other library crates: this
// crate owns the file sinks and the host-time profiler.

mod config;
mod hist;
mod jsonl;
mod profile;
mod series;
mod sink;
mod span;

pub use config::TelemetryConfig;
pub use hist::{LatencyHistogram, HIST_BUCKETS};
pub use profile::{KernelPhase, KernelProfile, KernelProfiler};
pub use series::TelemetrySample;
pub use sink::write_jsonl_file;
pub use span::{SpanAccess, SpanOutcome, SpanRecord};
