//! Interval time-series samples.

use crate::jsonl;

/// One windowed-delta sample of the interval time-series.
///
/// Every field except [`cycle`](Self::cycle) describes the window *ending*
/// at `cycle` (deltas or window averages, never cumulative totals), so a
/// series plots directly as a trajectory. Samples are taken at every
/// multiple of the configured interval, on exact CPU-cycle boundaries under
/// both the event kernel and the per-cycle reference loop, which makes two
/// series from equivalent runs comparable element by element.
///
/// Serialized as one compact JSON object per line via
/// [`to_jsonl`](Self::to_jsonl); parsed back with
/// [`from_jsonl`](Self::from_jsonl).
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetrySample {
    /// CPU cycle at the end of the window (a multiple of the interval).
    pub cycle: u64,
    /// Committed user instructions per CPU cycle over the window.
    pub ipc: f64,
    /// Demand reads completed in the window.
    pub reads_completed: u64,
    /// Writes completed in the window.
    pub writes_completed: u64,
    /// Mean demand-read latency over the window, in DRAM cycles (0 when no
    /// reads completed).
    pub avg_read_latency: f64,
    /// Row-buffer hit fraction of requests serviced in the window.
    pub row_hit_rate: f64,
    /// Mean read-queue occupancy over the window (all channels).
    pub avg_read_queue: f64,
    /// Fraction of the window's completed requests belonging to each tenant
    /// (empty in single-tenant runs; sums to 1 when any request completed).
    pub bandwidth_share: Vec<f64>,
    /// Fraction of rank-cycles spent powered down in the window.
    pub power_down_fraction: f64,
    /// Reliability events (corrected + uncorrectable + retries) in the
    /// window.
    pub reliability_events: u64,
}

impl TelemetrySample {
    /// Encodes the sample as one compact JSON line (no trailing newline).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        format!(
            concat!(
                "{{\"cycle\":{},\"ipc\":{},\"reads_completed\":{},",
                "\"writes_completed\":{},\"avg_read_latency\":{},",
                "\"row_hit_rate\":{},\"avg_read_queue\":{},",
                "\"bandwidth_share\":{},\"power_down_fraction\":{},",
                "\"reliability_events\":{}}}"
            ),
            self.cycle,
            self.ipc,
            self.reads_completed,
            self.writes_completed,
            self.avg_read_latency,
            self.row_hit_rate,
            self.avg_read_queue,
            jsonl::f64_array(&self.bandwidth_share),
            self.power_down_fraction,
            self.reliability_events,
        )
    }

    /// Parses a line produced by [`to_jsonl`](Self::to_jsonl); `None` when
    /// any field is missing or malformed.
    #[must_use]
    pub fn from_jsonl(line: &str) -> Option<Self> {
        Some(Self {
            cycle: jsonl::field_u64(line, "cycle")?,
            ipc: jsonl::field_f64(line, "ipc")?,
            reads_completed: jsonl::field_u64(line, "reads_completed")?,
            writes_completed: jsonl::field_u64(line, "writes_completed")?,
            avg_read_latency: jsonl::field_f64(line, "avg_read_latency")?,
            row_hit_rate: jsonl::field_f64(line, "row_hit_rate")?,
            avg_read_queue: jsonl::field_f64(line, "avg_read_queue")?,
            bandwidth_share: jsonl::field_f64_array(line, "bandwidth_share")?,
            power_down_fraction: jsonl::field_f64(line, "power_down_fraction")?,
            reliability_events: jsonl::field_u64(line, "reliability_events")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetrySample {
        TelemetrySample {
            cycle: 50_000,
            ipc: 0.875,
            reads_completed: 1234,
            writes_completed: 56,
            avg_read_latency: 41.25,
            row_hit_rate: 0.625,
            avg_read_queue: 3.5,
            bandwidth_share: vec![0.5, 0.25, 0.25],
            power_down_fraction: 0.125,
            reliability_events: 2,
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let s = sample();
        let line = s.to_jsonl();
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert_eq!(TelemetrySample::from_jsonl(&line), Some(s));
    }

    #[test]
    fn single_tenant_empty_share_round_trips() {
        let s = TelemetrySample {
            bandwidth_share: Vec::new(),
            ..sample()
        };
        assert_eq!(TelemetrySample::from_jsonl(&s.to_jsonl()), Some(s));
    }

    #[test]
    fn malformed_line_is_none() {
        assert_eq!(TelemetrySample::from_jsonl("{\"cycle\":1}"), None);
        assert_eq!(TelemetrySample::from_jsonl("not json"), None);
    }
}
