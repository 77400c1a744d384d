//! Typed errors for simulation runs.
//!
//! The simulator never panics on bad input or on modeled hardware failure:
//! configuration problems, trace I/O problems and fail-stop uncorrectable
//! memory errors all surface as [`SimError`] values from
//! [`Simulator::try_run`](crate::Simulator::try_run) so harnesses (the
//! `repro` binary, CI sweeps, library users) can report them and move on to
//! the next run.

/// An error surfaced by a simulation run instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The system configuration failed validation before the run started:
    /// any [`SystemConfig::validate`](crate::SystemConfig::validate) failure,
    /// and, when the system is built, a controller configuration the
    /// controller rejects or a `trace_record` path that resolves to the
    /// replay source on disk.
    Config(String),
    /// Trace I/O failed. When the system is built: the replay file cannot
    /// be opened or the `trace_record` sink cannot be created. During the
    /// run: the replay trace was unreadable or malformed, or the capture
    /// sink failed; the run's statistics would be garbage.
    Trace(String),
    /// A detected-uncorrectable memory error occurred under the fail-stop
    /// policy ([`UncorrectablePolicy::FailStop`]). The message pins the
    /// channel/rank/bank/row coordinates, the request id and the DRAM cycle
    /// of the first such error.
    ///
    /// [`UncorrectablePolicy::FailStop`]: cloudmc_memctrl::UncorrectablePolicy::FailStop
    Uncorrectable(String),
    /// A checkpoint could not be taken or restored: the bytes were truncated
    /// or corrupted (the message names the failing section and byte offset),
    /// the snapshot was taken under a different configuration (fingerprint
    /// mismatch), or the system holds state the format cannot capture (trace
    /// taps, an active telemetry sink, the reference driver).
    Snapshot(String),
    /// Writing a telemetry output file (time series or span trace) failed;
    /// the in-memory series and spans are still intact but the on-disk
    /// artifact is incomplete.
    Telemetry(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Config(msg) => write!(f, "invalid configuration: {msg}"),
            Self::Trace(msg) => write!(f, "trace I/O failed: {msg}"),
            Self::Uncorrectable(msg) => write!(f, "fail-stop: {msg}"),
            Self::Snapshot(msg) => write!(f, "snapshot: {msg}"),
            Self::Telemetry(msg) => write!(f, "telemetry I/O failed: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Lets a `Result<_, String>` caller (a binary's `main`, the sweep
/// executor's cell results) apply `?` to a [`SimError`].
impl From<SimError> for String {
    fn from(err: SimError) -> Self {
        err.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prefixes_each_variant() {
        assert_eq!(
            SimError::Config("bad".to_owned()).to_string(),
            "invalid configuration: bad"
        );
        assert_eq!(
            SimError::Trace("eof".to_owned()).to_string(),
            "trace I/O failed: eof"
        );
        assert!(SimError::Uncorrectable("rank 1".to_owned())
            .to_string()
            .starts_with("fail-stop: "));
        assert_eq!(
            SimError::Snapshot("bad magic".to_owned()).to_string(),
            "snapshot: bad magic"
        );
        assert_eq!(
            SimError::Telemetry("disk full".to_owned()).to_string(),
            "telemetry I/O failed: disk full"
        );
    }

    #[test]
    fn converts_into_string_for_legacy_callers() {
        let s: String = SimError::Trace("eof".to_owned()).into();
        assert_eq!(s, "trace I/O failed: eof");
    }
}
