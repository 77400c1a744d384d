//! The memory-side backend: the [`MemoryController`] behind a submission
//! interface that never refuses a request.
//!
//! The controller is built from [`SystemConfig::effective_mc`], so its
//! channel count is `num_channels * mc.dram.channels` and the configured
//! [`AddressMapping`](cloudmc_memctrl::AddressMapping) — nothing in this
//! layer — decides which address bits select the channel.
//!
//! The backend runs entirely in the DRAM clock domain: the kernel calls
//! [`Tick::tick`] once per DRAM cycle and collects the requests whose data
//! completed. New backends (e.g. a CXL-attached tier or an HBM stack) plug in
//! here: anything that accepts [`MemoryRequest`]s and implements
//! [`Tick<Event = CompletedRequest>`](crate::kernel::Tick) can stand behind
//! the same kernel.
//!
//! Requests rejected by a full controller queue wait in per-(channel, kind)
//! retry buckets. Admission for a given `(channel, kind)` is strictly FIFO
//! and depends only on that queue's occupancy, so retrying just each
//! bucket's head is equivalent to a full `O(waiting)` rescan — at
//! `O(accepted)` cost per cycle. (Fresh requests never overtake parked ones
//! for the same queue, so back-pressure can shift individual latencies but
//! not reorder a queue's arrivals.)

use std::collections::{BTreeMap, VecDeque};

use cloudmc_dram::{ChannelStats, DramCycles, FaultLedger};
use cloudmc_memctrl::{
    AccessKind, CompletedRequest, McStats, MemoryController, MemoryRequest, PickWork, MAX_TENANTS,
};

use cloudmc_snap::{snap_fields, SnapError, SnapReader};

use crate::config::{invalid, SystemConfig};
use crate::error::SimError;
use crate::kernel::Tick;

/// Retry bucket key: requests queue per channel, per direction, because
/// controller admission is decided exactly at that granularity. A `BTreeMap`
/// keeps drain order deterministic.
type RetryKey = (usize, AccessKind);

/// The memory controller plus the retry buckets for back-pressured requests.
///
/// Two drives exist and must not be mixed on one backend:
/// [`Backend::tick_event`] runs only the channels whose due bound has been
/// reached (the event kernel), the every-channel [`Tick::tick`] ignores the
/// bounds (the per-cycle reference loop).
#[derive(Debug)]
pub struct Backend {
    mc: MemoryController,
    retry: BTreeMap<RetryKey, VecDeque<MemoryRequest>>,
    retry_len: usize,
}

impl Backend {
    /// Builds the controller from `cfg.effective_mc()`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if the controller configuration is
    /// invalid.
    pub fn new(cfg: &SystemConfig) -> Result<Self, SimError> {
        Ok(Self {
            mc: MemoryController::new(cfg.effective_mc()).map_err(invalid("mc"))?,
            retry: BTreeMap::new(),
            retry_len: 0,
        })
    }

    /// Total DRAM channels.
    #[must_use]
    pub fn total_channels(&self) -> usize {
        self.mc.channel_count()
    }

    /// Submits a request at DRAM cycle `now`, parking it in a retry bucket if
    /// the target queue is full. Back-pressure queueing delay stays part of
    /// the observed latency because `request.arrival` is never rewritten.
    pub fn submit(&mut self, request: MemoryRequest, now: DramCycles) {
        // The bucket key needs the decoded channel, but `enqueue` decodes
        // internally anyway — so only pay for an extra decode off the fast
        // path (a backlog exists, or the controller just rejected).
        if self.retry_len > 0 {
            let key = (self.mc.decode(request.addr).channel, request.kind);
            // FIFO per bucket: never overtake an already-waiting request for
            // the same queue.
            if self.retry.get(&key).is_some_and(|q| !q.is_empty()) {
                self.retry.entry(key).or_default().push_back(request);
                self.retry_len += 1;
                return;
            }
        }
        if let Err(rejected) = self.mc.enqueue(request, now) {
            let channel = self.mc.decode(rejected.addr).channel;
            self.retry
                .entry((channel, rejected.kind))
                .or_default()
                .push_back(rejected);
            self.retry_len += 1;
        }
    }

    /// Re-attempts each retry bucket's head while its target queue has space.
    fn drain_retries(&mut self, now: DramCycles) {
        if self.retry_len == 0 {
            return;
        }
        for queue in self.retry.values_mut() {
            while let Some(&head) = queue.front() {
                if self.mc.enqueue(head, now).is_err() {
                    break;
                }
                queue.pop_front();
                self.retry_len -= 1;
            }
        }
    }

    /// Requests queued or in flight inside the controller.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.mc.pending()
    }

    /// Requests waiting in retry buckets for controller queue space.
    #[must_use]
    pub fn retry_backlog(&self) -> usize {
        self.retry_len
    }

    /// Requests queued, in flight, or parked in retry buckets, per tenant
    /// (per-tenant request-conservation checks; walks the retry buckets, so
    /// not for the per-cycle hot path).
    #[must_use]
    pub fn pending_per_tenant(&self) -> [u64; MAX_TENANTS] {
        let mut out = self.mc.pending_per_tenant();
        for request in self.retry.values().flatten() {
            out[request.tenant.min(MAX_TENANTS - 1)] += 1;
        }
        out
    }

    /// Controller statistics merged across all channels.
    #[must_use]
    pub fn stats(&self) -> McStats {
        self.mc.stats()
    }

    /// What the scheduler picks of every channel read and checked (see
    /// [`MemoryController::pick_work`]): a host-side work count.
    #[must_use]
    pub fn pick_work(&self) -> PickWork {
        self.mc.pick_work()
    }

    /// Fault-injection conservation ledger merged across all channels. All
    /// zeros when no fault model is configured.
    #[must_use]
    pub fn fault_ledger(&self) -> FaultLedger {
        self.mc.fault_ledger()
    }

    /// The first fail-stop uncorrectable-error description latched by any
    /// channel, if one occurred (lowest channel index wins for determinism).
    #[must_use]
    pub fn fault_error(&self) -> Option<&str> {
        self.mc.fault_error()
    }

    /// Retired-row counts per rank, channel-major (all zeros when no fault
    /// model is configured).
    #[must_use]
    pub fn rows_retired_per_rank(&self) -> Vec<u64> {
        self.mc.rows_retired_per_rank()
    }

    /// The earliest DRAM cycle at which any channel may have work, read from
    /// the controller's cached per-channel bounds — O(channels) arithmetic,
    /// no timing walk (see the
    /// [next-due contract](crate::kernel#the-next-due-contract)). While a
    /// retry backlog exists admission is retried every tick, so the backend
    /// is due now (0).
    #[must_use]
    pub fn next_due(&self) -> DramCycles {
        if self.retry_len > 0 {
            return 0;
        }
        self.mc.next_due()
    }

    /// Accounts for `cycles` DRAM cycles the kernel has proven eventless for
    /// every channel (bulk queue-occupancy sampling; see
    /// [`MemoryController::skip_dram_cycles`]).
    pub fn skip_dram_cycles(&mut self, cycles: u64) {
        self.mc.skip_dram_cycles(cycles);
    }

    /// Event-driven DRAM tick: after retrying parked requests, only the
    /// channels that are due run (see [`MemoryController::tick_due`]).
    /// Returns how many channels ran a full tick.
    pub fn tick_event(&mut self, now: DramCycles, events: &mut Vec<CompletedRequest>) -> usize {
        self.drain_retries(now);
        self.mc.tick_due(now, events)
    }

    /// Recomputes the parked-request count from the restored retry buckets
    /// and rejects a bucket keyed by a channel that does not exist, or a
    /// parked request naming a core the controller has no slot for.
    fn finish_restore(&mut self, r: &SnapReader<'_>) -> Result<(), SnapError> {
        self.retry_len = self.retry.values().map(VecDeque::len).sum();
        for (&(channel, _), queue) in &self.retry {
            if channel >= self.mc.channel_count() {
                return Err(r.bad_value(format!("retry bucket channel {channel} out of range")));
            }
            for request in queue {
                request.check_core(r, self.mc.config().num_cores)?;
            }
        }
        Ok(())
    }

    /// Device-level statistics summed over every channel (command counters
    /// only; residency via [`Backend::device_totals_at`]).
    #[must_use]
    pub fn device_totals(&self) -> ChannelStats {
        let mut total = ChannelStats::default();
        for ch in 0..self.mc.channel_count() {
            total.merge(self.mc.channel_device_stats(ch));
        }
        total
    }

    /// Device-level statistics summed over every channel, including
    /// power-state residency accrued up to DRAM cycle `now` in closed form
    /// (exact under fast-forward).
    #[must_use]
    pub fn device_totals_at(&self, now: DramCycles) -> ChannelStats {
        let mut total = ChannelStats::default();
        for ch in 0..self.mc.channel_count() {
            total.merge(&self.mc.channel_device_stats_at(ch, now));
        }
        total
    }
}

impl Tick for Backend {
    type Event = CompletedRequest;

    /// Advances every channel by one DRAM cycle after retrying parked
    /// requests, reporting the requests whose data completed this cycle.
    fn tick(&mut self, now: u64, events: &mut Vec<CompletedRequest>) {
        self.drain_retries(now);
        self.mc.tick(now, events);
    }
}

snap_fields! {
    Backend {
        section: "backend",
        saved: { mc, retry },
        skipped: {
            retry_len: "derived: sum of retry bucket lengths; rebuilt by finish_restore",
        },
        after_load: Self::finish_restore,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudmc_workloads::Workload;

    fn backend(num_channels: usize) -> Backend {
        let mut cfg = SystemConfig::baseline(Workload::TpchQ6);
        cfg.num_channels = num_channels;
        Backend::new(&cfg).unwrap()
    }

    fn drain(backend: &mut Backend, cycles: u64) -> Vec<CompletedRequest> {
        let mut done = Vec::new();
        for c in 0..cycles {
            backend.tick(c, &mut done);
        }
        done
    }

    #[test]
    fn blocks_interleave_across_channels() {
        let mut be = backend(4);
        assert_eq!(be.total_channels(), 4);
        for block in 0..8u64 {
            be.submit(
                MemoryRequest::new(block, AccessKind::Read, block * 64, 0, 0),
                0,
            );
        }
        let mut done = drain(&mut be, 500);
        done.sort_by_key(|d| d.request.id);
        let channels: Vec<usize> = done.iter().map(|d| d.channel).collect();
        assert_eq!(channels, [0, 1, 2, 3, 0, 1, 2, 3]);
        // Consecutive blocks of one channel stay consecutive within it,
        // preserving row locality, and the address itself is never rewritten.
        assert_eq!(done[0].location.column + 1, done[4].location.column);
        assert_eq!(done[0].location.row, done[4].location.row);
        assert_eq!(done[4].request.addr, 4 * 64);
    }

    #[test]
    fn requests_complete_across_channels() {
        let mut be = backend(2);
        for i in 0..16u64 {
            be.submit(
                MemoryRequest::new(i, AccessKind::Read, i * 64, (i % 16) as usize, 0),
                0,
            );
        }
        let done = drain(&mut be, 500);
        assert_eq!(done.len(), 16);
        assert_eq!(be.stats().reads_completed, 16);
        assert_eq!(be.pending(), 0);
        assert_eq!(be.retry_backlog(), 0);
        // Both channels saw traffic.
        for channel in 0..2 {
            assert_eq!(done.iter().filter(|d| d.channel == channel).count(), 8);
        }
        assert_eq!(be.device_totals().reads, 16);
    }

    #[test]
    fn backpressure_parks_and_eventually_serves_requests() {
        let mut cfg = SystemConfig::baseline(Workload::TpchQ6);
        cfg.mc.read_queue_capacity = 2;
        cfg.num_channels = 1;
        let mut be = Backend::new(&cfg).unwrap();
        for i in 0..12u64 {
            be.submit(
                MemoryRequest::new(i, AccessKind::Read, i * 0x2_0000, 0, 0),
                0,
            );
        }
        assert!(be.retry_backlog() > 0, "tiny queue must reject some");
        let done = drain(&mut be, 3_000);
        assert_eq!(done.len(), 12, "parked requests must eventually complete");
        assert_eq!(be.retry_backlog(), 0);
    }

    #[test]
    fn retry_preserves_fifo_order_per_queue() {
        let mut cfg = SystemConfig::baseline(Workload::TpchQ6);
        cfg.mc.read_queue_capacity = 1;
        let mut be = Backend::new(&cfg).unwrap();
        // Same bank and row: service order follows arrival order.
        for i in 0..6u64 {
            be.submit(MemoryRequest::new(i, AccessKind::Read, i * 64, 0, 0), 0);
        }
        let done = drain(&mut be, 5_000);
        let order: Vec<u64> = done.iter().map(|d| d.request.id).collect();
        assert_eq!(order, [0, 1, 2, 3, 4, 5]);
    }
}
