//! Whole-system checkpoints: an opaque byte image of a [`System`]'s mutable
//! state, restorable onto a freshly built system under the *same*
//! configuration.
//!
//! A snapshot captures every bit of architectural and micro-architectural
//! state a run accumulates — core pipelines and caches, workload-generator
//! RNG streams, DMA credit, controller queues, scheduler/page/power policy
//! state, DRAM bank timing and power states, the fault-injection ledger, and
//! all statistics counters — but none of the state that is a pure function of
//! the configuration (geometries, timing tables). Restoring
//! therefore means: build a fresh [`System`] from the configuration (without
//! the functional prewarm, whose cache contents the image carries), then
//! overlay the saved mutable state. Which fields are which is declared once
//! per type, next to the struct, in [`cloudmc_snap::snap_fields!`]: the saved
//! fields in wire order and the skipped ones each with its reason; the
//! generated [`cloudmc_snap::Snap`] impl destructures the struct
//! exhaustively, so a new field that is in neither list does not compile.
//! Loads are in place and validate what they read — discriminants, lengths
//! against the configured shapes, and every index, DRAM coordinate and core
//! number against the geometry of the system receiving it — so a damaged
//! image is a typed error, not a panic some cycles later. The restored
//! system continues *bit-identically* to the original: running it to the end
//! of the measurement produces exactly the [`SimStats`](crate::SimStats) the
//! uninterrupted run would have produced.
//!
//! The wire format (little-endian throughout) is a versioned envelope from
//! the `cloudmc-snap` crate:
//!
//! ```text
//! magic "CMCSNAP1" | format version u32 | config fingerprint u64
//!   | body (tagged sections) | checksum u64 over all prior bytes
//! ```
//!
//! The checksum is [`cloudmc_snap::checksum`], four word-parallel lanes. The
//! config fingerprint is an FNV-1a hash of the [`SystemConfig`]'s `Debug`
//! rendering; restoring under any differing configuration fails with a typed
//! [`SimError::Snapshot`] before a single body byte is parsed, as do
//! truncation and corruption (checksum first, then per-field bounds checks
//! naming the failing section and byte offset). Snapshots are not portable
//! across format versions.
//!
//! Systems with attached trace taps ([`WorkloadSource::Trace`] replay or
//! [`SystemConfig::trace_record`] capture), an active telemetry sink or the
//! reference driver cannot be snapshotted; each is reported as a typed
//! error, never silently dropped state.
//!
//! [`System`]: crate::System
//! [`SystemConfig`]: crate::SystemConfig
//! [`SystemConfig::trace_record`]: crate::SystemConfig::trace_record
//! [`SimError::Snapshot`]: crate::SimError::Snapshot
//! [`WorkloadSource::Trace`]: cloudmc_workloads::WorkloadSource::Trace

use cloudmc_snap::fnv1a;

use crate::config::SystemConfig;

/// An opaque, self-validating byte image of a [`System`](crate::System)'s
/// mutable state at one instant, produced by
/// [`System::snapshot`](crate::System::snapshot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    bytes: Vec<u8>,
}

impl Snapshot {
    /// Wraps raw snapshot bytes (e.g. read from storage). Validation happens
    /// on restore, not here.
    #[must_use]
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self { bytes }
    }

    /// The raw snapshot bytes (envelope included).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the snapshot, returning the raw bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Size of the snapshot image in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the image is empty (an empty image is never a valid snapshot).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// The configuration fingerprint embedded in every snapshot: an FNV-1a hash
/// of the configuration's `Debug` rendering. Two configurations that differ
/// in *any* field — the seed and the warm-up and measurement windows
/// included — fingerprint differently, which is deliberately conservative:
/// a snapshot is only ever restored onto the exact configuration that
/// produced it. The experiment executor in `cloudmc-bench` keys its resume
/// cache by the same value, so a cached cell is only ever reused for the
/// configuration that computed it.
#[must_use]
pub fn config_fingerprint(cfg: &SystemConfig) -> u64 {
    fnv1a(format!("{cfg:?}").as_bytes())
}
