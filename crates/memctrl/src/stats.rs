//! Statistics collected by the memory controller.

use cloudmc_dram::DramCycles;
use cloudmc_telemetry::LatencyHistogram;

use crate::request::{CompletedRequest, RowBufferOutcome, TenantId, MAX_TENANTS};

/// Counters and accumulators for one memory controller (all channels).
///
/// These feed every figure of the paper's evaluation: average memory access
/// latency (Fig. 3/10/14), row-buffer hit rate (Fig. 2/9/13), queue lengths
/// (Fig. 5/6), bandwidth utilization (Fig. 7) and the single-access row
/// activation histogram (Fig. 8).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct McStats {
    /// Completed read requests.
    pub reads_completed: u64,
    /// Completed write requests.
    pub writes_completed: u64,
    /// Sum of read latencies (arrival to data return), DRAM cycles.
    pub total_read_latency: DramCycles,
    /// Requests that hit an already-open row.
    pub row_hits: u64,
    /// Requests that found the bank precharged (row miss / empty).
    pub row_misses: u64,
    /// Requests that found a different row open (row conflict).
    pub row_conflicts: u64,
    /// Histogram of column accesses served per row activation, indexed by
    /// access count (index 0 = activations closed with zero accesses,
    /// index 1 = single-access activations, ...). The last bucket aggregates
    /// everything at or above the bucket count.
    pub activation_reuse: Vec<u64>,
    /// Number of cycles over which queue lengths were sampled.
    pub queue_samples: u64,
    /// Sum of read-queue occupancies over all samples and channels.
    pub read_queue_occupancy_sum: u64,
    /// Sum of write-queue occupancies over all samples and channels.
    pub write_queue_occupancy_sum: u64,
    /// Power-down actions taken by the power policy (fast/slow entries,
    /// including deepening transitions).
    pub power_downs: u64,
    /// Self-refresh entries taken by the power policy.
    pub self_refreshes: u64,
    /// Rank wakes, whether triggered by demand arrival or a due refresh.
    pub power_wakes: u64,
    /// Precharges issued by the power policy to clear a rank for power-down
    /// (power-aware policy only).
    pub power_precharges: u64,
    /// Reads completed per tenant (multi-tenant QoS accounting; index =
    /// tenant id, unused slots stay zero).
    pub reads_completed_per_tenant: [u64; MAX_TENANTS],
    /// Writes completed per tenant.
    pub writes_completed_per_tenant: [u64; MAX_TENANTS],
    /// Sum of read latencies per tenant, DRAM cycles.
    pub read_latency_per_tenant: [DramCycles; MAX_TENANTS],
    /// Row-buffer hits per tenant.
    pub row_hits_per_tenant: [u64; MAX_TENANTS],
    /// Row misses (bank empty) per tenant.
    pub row_misses_per_tenant: [u64; MAX_TENANTS],
    /// Row conflicts per tenant.
    pub row_conflicts_per_tenant: [u64; MAX_TENANTS],
    /// Sum of per-cycle read-queue occupancies per tenant (same sample count
    /// as [`McStats::queue_samples`]).
    pub read_queue_occupancy_per_tenant: [u64; MAX_TENANTS],
    /// Demand-read errors SEC-DED corrected (reliability subsystem; all of
    /// the following stay zero when no fault model is configured).
    pub ecc_corrected: u64,
    /// Demand-read errors detected but beyond correction.
    pub ecc_detected_uncorrectable: u64,
    /// Multi-bit errors that aliased to a valid codeword and silently
    /// "corrected" to wrong data (demand or scrub).
    pub ecc_miscorrects: u64,
    /// Demand re-reads issued after a corrected error (bounded backoff).
    pub demand_retries: u64,
    /// Patrol-scrub reads emitted into the queues.
    pub scrub_reads_issued: u64,
    /// Patrol-scrub reads whose data returned.
    pub scrub_reads_completed: u64,
    /// Errors corrected by patrol scrub.
    pub scrub_corrected: u64,
    /// Detected-uncorrectable errors found by patrol scrub.
    pub scrub_uncorrectable: u64,
    /// Rows retired by the repeat-offender policy.
    pub rows_retired: u64,
    /// Lines marked poisoned under poison-and-continue.
    pub lines_poisoned: u64,
    /// Demand reads that consumed a poisoned line.
    pub poisoned_reads: u64,
    /// Log2-bucket histogram of demand-read latencies (arrival to data
    /// return, DRAM cycles) across every channel this block covers.
    pub read_latency_hist: LatencyHistogram,
}

/// Number of buckets kept in the activation-reuse histogram.
pub const ACTIVATION_REUSE_BUCKETS: usize = 33;

impl McStats {
    /// Creates zeroed statistics.
    #[must_use]
    pub fn new() -> Self {
        Self {
            activation_reuse: vec![0; ACTIVATION_REUSE_BUCKETS],
            ..Self::default()
        }
    }

    /// Records a completed request.
    pub fn record_completion(&mut self, done: &CompletedRequest) {
        let latency = done.latency();
        let tenant = done.request.tenant.min(MAX_TENANTS - 1);
        match done.outcome {
            RowBufferOutcome::Hit => {
                self.row_hits += 1;
                self.row_hits_per_tenant[tenant] += 1;
            }
            RowBufferOutcome::Miss => {
                self.row_misses += 1;
                self.row_misses_per_tenant[tenant] += 1;
            }
            RowBufferOutcome::Conflict => {
                self.row_conflicts += 1;
                self.row_conflicts_per_tenant[tenant] += 1;
            }
        }
        if done.request.kind.is_read() {
            self.reads_completed += 1;
            self.total_read_latency += latency;
            self.read_latency_hist.record(latency);
            self.reads_completed_per_tenant[tenant] += 1;
            self.read_latency_per_tenant[tenant] += latency;
        } else {
            self.writes_completed += 1;
            self.writes_completed_per_tenant[tenant] += 1;
        }
    }

    /// Records that a row activation was closed after `accesses` column accesses.
    pub fn record_activation_closed(&mut self, accesses: u64) {
        if self.activation_reuse.is_empty() {
            self.activation_reuse = vec![0; ACTIVATION_REUSE_BUCKETS];
        }
        let idx = (accesses as usize).min(self.activation_reuse.len() - 1);
        self.activation_reuse[idx] += 1;
    }

    /// Records one per-cycle sample of queue occupancies.
    pub fn sample_queues(&mut self, read_len: usize, write_len: usize) {
        self.sample_queues_n(read_len, write_len, 1);
    }

    /// Records `n` consecutive per-cycle samples during which the queue
    /// occupancies did not change — the bulk form used when the kernel
    /// fast-forwards over cycles it has proven eventless. Equivalent to
    /// calling [`McStats::sample_queues`] `n` times.
    pub fn sample_queues_n(&mut self, read_len: usize, write_len: usize, n: u64) {
        self.queue_samples += n;
        self.read_queue_occupancy_sum += read_len as u64 * n;
        self.write_queue_occupancy_sum += write_len as u64 * n;
    }

    /// Records `n` consecutive per-cycle samples of per-tenant read-queue
    /// occupancy. Call alongside [`McStats::sample_queues_n`] with the same
    /// `n` so both share [`McStats::queue_samples`].
    pub fn sample_tenant_reads_n(&mut self, tenant_lens: &[usize; MAX_TENANTS], n: u64) {
        for (sum, &len) in self
            .read_queue_occupancy_per_tenant
            .iter_mut()
            .zip(tenant_lens.iter())
        {
            *sum += len as u64 * n;
        }
    }

    /// Total completed requests.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.reads_completed + self.writes_completed
    }

    /// Average read latency in DRAM cycles.
    #[must_use]
    pub fn avg_read_latency(&self) -> f64 {
        if self.reads_completed == 0 {
            0.0
        } else {
            self.total_read_latency as f64 / self.reads_completed as f64
        }
    }

    /// Row-buffer hit rate over all serviced requests (0.0–1.0).
    #[must_use]
    pub fn row_buffer_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Fraction of row activations that served exactly one column access.
    #[must_use]
    pub fn single_access_activation_fraction(&self) -> f64 {
        let total: u64 = self.activation_reuse.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.activation_reuse.get(1).copied().unwrap_or(0) as f64 / total as f64
        }
    }

    /// Time-averaged read-queue occupancy.
    #[must_use]
    pub fn avg_read_queue_len(&self) -> f64 {
        if self.queue_samples == 0 {
            0.0
        } else {
            self.read_queue_occupancy_sum as f64 / self.queue_samples as f64
        }
    }

    /// Time-averaged write-queue occupancy.
    #[must_use]
    pub fn avg_write_queue_len(&self) -> f64 {
        if self.queue_samples == 0 {
            0.0
        } else {
            self.write_queue_occupancy_sum as f64 / self.queue_samples as f64
        }
    }

    /// Total requests (reads plus writes) completed for one tenant.
    #[must_use]
    pub fn completed_for_tenant(&self, tenant: TenantId) -> u64 {
        if tenant >= MAX_TENANTS {
            return 0;
        }
        self.reads_completed_per_tenant[tenant] + self.writes_completed_per_tenant[tenant]
    }

    /// Average read latency observed by one tenant, in DRAM cycles.
    #[must_use]
    pub fn avg_read_latency_for_tenant(&self, tenant: TenantId) -> f64 {
        if tenant >= MAX_TENANTS || self.reads_completed_per_tenant[tenant] == 0 {
            return 0.0;
        }
        self.read_latency_per_tenant[tenant] as f64 / self.reads_completed_per_tenant[tenant] as f64
    }

    /// One tenant's share of the delivered data bandwidth (0.0–1.0): every
    /// completed request transfers exactly one cache block, so the share is
    /// the tenant's fraction of completed requests.
    #[must_use]
    pub fn bandwidth_share_for_tenant(&self, tenant: TenantId) -> f64 {
        let total = self.completed();
        if total == 0 {
            0.0
        } else {
            self.completed_for_tenant(tenant) as f64 / total as f64
        }
    }

    /// Row-buffer hit rate over one tenant's serviced requests (0.0–1.0).
    #[must_use]
    pub fn row_hit_rate_for_tenant(&self, tenant: TenantId) -> f64 {
        if tenant >= MAX_TENANTS {
            return 0.0;
        }
        let total = self.row_hits_per_tenant[tenant]
            + self.row_misses_per_tenant[tenant]
            + self.row_conflicts_per_tenant[tenant];
        if total == 0 {
            0.0
        } else {
            self.row_hits_per_tenant[tenant] as f64 / total as f64
        }
    }

    /// Time-averaged read-queue occupancy attributable to one tenant.
    #[must_use]
    pub fn avg_read_queue_len_for_tenant(&self, tenant: TenantId) -> f64 {
        if tenant >= MAX_TENANTS || self.queue_samples == 0 {
            return 0.0;
        }
        self.read_queue_occupancy_per_tenant[tenant] as f64 / self.queue_samples as f64
    }
}

// The one field list: snapshot image, cross-channel `merge`, window `delta`.
// The reuse histogram's bucket count is fixed, so its stored length is checked.
cloudmc_snap::counter_fields! {
    McStats {
        reads_completed,
        writes_completed,
        total_read_latency,
        row_hits,
        row_misses,
        row_conflicts,
        activation_reuse: fixed,
        queue_samples,
        read_queue_occupancy_sum,
        write_queue_occupancy_sum,
        power_downs,
        self_refreshes,
        power_wakes,
        power_precharges,
        reads_completed_per_tenant,
        writes_completed_per_tenant,
        read_latency_per_tenant,
        row_hits_per_tenant,
        row_misses_per_tenant,
        row_conflicts_per_tenant,
        read_queue_occupancy_per_tenant,
        ecc_corrected,
        ecc_detected_uncorrectable,
        ecc_miscorrects,
        demand_retries,
        scrub_reads_issued,
        scrub_reads_completed,
        scrub_corrected,
        scrub_uncorrectable,
        rows_retired,
        lines_poisoned,
        poisoned_reads,
        read_latency_hist,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{AccessKind, MemoryRequest};
    use cloudmc_dram::{ChannelStats, FaultLedger, Location};
    use cloudmc_snap::Counter;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn completed(
        kind: AccessKind,
        core: usize,
        outcome: RowBufferOutcome,
        latency: u64,
    ) -> CompletedRequest {
        CompletedRequest {
            request: MemoryRequest::new(1, kind, 0, core, 100),
            channel: 0,
            location: Location::new(0, 0, 0, 0),
            issue: 100 + latency.saturating_sub(10),
            completion: 100 + latency,
            outcome,
            retries: 0,
        }
    }

    #[test]
    fn record_completion_updates_latency_and_hits() {
        let mut s = McStats::new();
        s.record_completion(&completed(AccessKind::Read, 1, RowBufferOutcome::Hit, 30));
        s.record_completion(&completed(
            AccessKind::Read,
            1,
            RowBufferOutcome::Conflict,
            90,
        ));
        s.record_completion(&completed(AccessKind::Write, 2, RowBufferOutcome::Miss, 60));
        assert_eq!(s.reads_completed, 2);
        assert_eq!(s.writes_completed, 1);
        assert!((s.avg_read_latency() - 60.0).abs() < 1e-9);
        assert!((s.row_buffer_hit_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn activation_histogram_and_single_access_fraction() {
        let mut s = McStats::new();
        s.record_activation_closed(1);
        s.record_activation_closed(1);
        s.record_activation_closed(1);
        s.record_activation_closed(5);
        assert!((s.single_access_activation_fraction() - 0.75).abs() < 1e-9);
        // Out-of-range counts land in the last bucket without panicking.
        s.record_activation_closed(10_000);
        assert_eq!(*s.activation_reuse.last().unwrap(), 1);
    }

    #[test]
    fn queue_sampling_averages() {
        let mut s = McStats::new();
        s.sample_queues(4, 10);
        s.sample_queues(6, 30);
        assert!((s.avg_read_queue_len() - 5.0).abs() < 1e-9);
        assert!((s.avg_write_queue_len() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_return_zeroes() {
        let s = McStats::new();
        assert_eq!(s.avg_read_latency(), 0.0);
        assert_eq!(s.row_buffer_hit_rate(), 0.0);
        assert_eq!(s.avg_read_queue_len(), 0.0);
        assert_eq!(s.single_access_activation_fraction(), 0.0);
    }

    #[test]
    fn per_tenant_completion_accounting() {
        let mut s = McStats::new();
        let mut hit = completed(AccessKind::Read, 0, RowBufferOutcome::Hit, 40);
        hit.request.tenant = 0;
        let mut conflict = completed(AccessKind::Read, 1, RowBufferOutcome::Conflict, 120);
        conflict.request.tenant = 1;
        let mut write = completed(AccessKind::Write, 1, RowBufferOutcome::Miss, 60);
        write.request.tenant = 1;
        s.record_completion(&hit);
        s.record_completion(&conflict);
        s.record_completion(&write);
        assert_eq!(s.reads_completed_per_tenant[..2], [1, 1]);
        assert_eq!(s.writes_completed_per_tenant[..2], [0, 1]);
        assert!((s.avg_read_latency_for_tenant(0) - 40.0).abs() < 1e-9);
        assert!((s.avg_read_latency_for_tenant(1) - 120.0).abs() < 1e-9);
        assert!((s.row_hit_rate_for_tenant(0) - 1.0).abs() < 1e-9);
        assert!((s.row_hit_rate_for_tenant(1) - 0.0).abs() < 1e-9);
        assert!((s.bandwidth_share_for_tenant(1) - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.completed_for_tenant(1), 2);
        // Out-of-range tenant queries are zero, not a panic.
        assert_eq!(s.avg_read_latency_for_tenant(99), 0.0);
        assert_eq!(s.bandwidth_share_for_tenant(99), 0.0);
    }

    #[test]
    fn per_tenant_queue_sampling_shares_the_sample_count() {
        let mut s = McStats::new();
        s.sample_queues_n(5, 0, 10);
        s.sample_tenant_reads_n(&[3, 2, 0, 0], 10);
        assert!((s.avg_read_queue_len_for_tenant(0) - 3.0).abs() < 1e-9);
        assert!((s.avg_read_queue_len_for_tenant(1) - 2.0).abs() < 1e-9);
        assert_eq!(s.avg_read_queue_len_for_tenant(3), 0.0);
    }

    #[test]
    fn read_latencies_feed_the_histograms() {
        let mut s = McStats::new();
        let mut read = completed(AccessKind::Read, 0, RowBufferOutcome::Hit, 30);
        read.request.tenant = 1;
        s.record_completion(&read);
        s.record_completion(&completed(AccessKind::Write, 0, RowBufferOutcome::Miss, 60));
        // Only reads are recorded; writes leave the histogram untouched.
        assert_eq!(s.read_latency_hist.count(), 1);
        assert_eq!(s.read_latency_hist.max(), Some(30));
    }

    /// The contract every counter block must honour, whatever its fields:
    /// merging `b` into `a` and reading the result since `a` gives back `b`,
    /// and a block since itself is all-zero (`zero`). `same` is the
    /// field-for-field comparison.
    fn merge_then_delta_round_trips<T: Counter + Clone + std::fmt::Debug>(
        mut generate: impl FnMut(&mut StdRng) -> T,
        zero: &T,
        same: impl Fn(&T, &T),
    ) {
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..64 {
            let (before, b) = (generate(&mut rng), generate(&mut rng));
            let mut a = before.clone();
            a.merge(&b);
            same(&a.delta(&before), &b);
            same(&a.delta(&a), zero);
        }
    }

    fn count(rng: &mut StdRng) -> u64 {
        rng.gen_range(0u64..1 << 40)
    }

    fn histogram(rng: &mut StdRng) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for _ in 0..rng.gen_range(0usize..40) {
            h.record(1 << rng.gen_range(0u32..30));
            h.record(count(rng));
        }
        h
    }

    /// Equal bucket for bucket; a window's maximum is only known to its
    /// bucket's upper edge, so `max` may exceed the truth up to that bound.
    fn same_histogram(window: &LatencyHistogram, truth: &LatencyHistogram) {
        assert_eq!(window.bucket_counts(), truth.bucket_counts());
        assert_eq!((window.count(), window.sum()), (truth.count(), truth.sum()));
        let (got, want) = (window.max().unwrap_or(0), truth.max().unwrap_or(0));
        let bound = LatencyHistogram::bucket_bounds(LatencyHistogram::bucket_index(want)).1;
        assert!(want <= got && got <= bound, "{want} <= {got} <= {bound}");
    }

    #[test]
    fn every_counter_block_round_trips_through_merge_and_delta() {
        merge_then_delta_round_trips(
            |rng| ChannelStats {
                activates: count(rng),
                precharges: count(rng),
                reads: count(rng),
                writes: count(rng),
                refreshes: count(rng),
                data_bus_busy_cycles: count(rng),
                active_standby_cycles: count(rng),
                precharge_standby_cycles: count(rng),
                power_down_fast_cycles: count(rng),
                power_down_slow_cycles: count(rng),
                self_refresh_cycles: count(rng),
                power_down_entries: count(rng),
                self_refresh_entries: count(rng),
                power_wakes: count(rng),
            },
            &ChannelStats::default(),
            |a, b| assert_eq!(a, b),
        );
        merge_then_delta_round_trips(
            |rng| FaultLedger {
                injected: count(rng),
                corrected: count(rng),
                uncorrectable: count(rng),
                latent: count(rng),
            },
            &FaultLedger::default(),
            |a, b| assert_eq!(a, b),
        );
        merge_then_delta_round_trips(histogram, &LatencyHistogram::new(), same_histogram);
        let per_tenant = |rng: &mut StdRng| std::array::from_fn(|_| count(rng));
        merge_then_delta_round_trips(
            |rng| McStats {
                reads_completed: count(rng),
                writes_completed: count(rng),
                total_read_latency: count(rng),
                row_hits: count(rng),
                row_misses: count(rng),
                row_conflicts: count(rng),
                activation_reuse: (0..ACTIVATION_REUSE_BUCKETS).map(|_| count(rng)).collect(),
                queue_samples: count(rng),
                read_queue_occupancy_sum: count(rng),
                write_queue_occupancy_sum: count(rng),
                power_downs: count(rng),
                self_refreshes: count(rng),
                power_wakes: count(rng),
                power_precharges: count(rng),
                reads_completed_per_tenant: per_tenant(rng),
                writes_completed_per_tenant: per_tenant(rng),
                read_latency_per_tenant: per_tenant(rng),
                row_hits_per_tenant: per_tenant(rng),
                row_misses_per_tenant: per_tenant(rng),
                row_conflicts_per_tenant: per_tenant(rng),
                read_queue_occupancy_per_tenant: per_tenant(rng),
                ecc_corrected: count(rng),
                ecc_detected_uncorrectable: count(rng),
                ecc_miscorrects: count(rng),
                demand_retries: count(rng),
                scrub_reads_issued: count(rng),
                scrub_reads_completed: count(rng),
                scrub_corrected: count(rng),
                scrub_uncorrectable: count(rng),
                rows_retired: count(rng),
                lines_poisoned: count(rng),
                poisoned_reads: count(rng),
                read_latency_hist: histogram(rng),
            },
            &McStats::new(),
            |window, truth| {
                same_histogram(&window.read_latency_hist, &truth.read_latency_hist);
                let mut window = window.clone();
                window.read_latency_hist = truth.read_latency_hist.clone();
                assert_eq!(&window, truth);
            },
        );
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = McStats::new();
        let mut b = McStats::new();
        a.record_completion(&completed(AccessKind::Read, 0, RowBufferOutcome::Hit, 10));
        b.record_completion(&completed(
            AccessKind::Read,
            1,
            RowBufferOutcome::Conflict,
            50,
        ));
        b.record_activation_closed(1);
        b.sample_queues(3, 7);
        b.ecc_corrected = 2;
        b.ecc_detected_uncorrectable = 1;
        b.demand_retries = 4;
        b.scrub_reads_issued = 9;
        b.rows_retired = 1;
        b.lines_poisoned = 3;
        b.poisoned_reads = 5;
        a.merge(&b);
        assert_eq!(a.reads_completed, 2);
        assert_eq!(a.row_conflicts, 1);
        assert_eq!(a.queue_samples, 1);
        assert_eq!(a.activation_reuse[1], 1);
        assert_eq!(a.ecc_corrected, 2);
        assert_eq!(a.ecc_detected_uncorrectable, 1);
        assert_eq!(a.demand_retries, 4);
        assert_eq!(a.scrub_reads_issued, 9);
        assert_eq!(a.rows_retired, 1);
        assert_eq!(a.lines_poisoned, 3);
        assert_eq!(a.poisoned_reads, 5);
    }
}
