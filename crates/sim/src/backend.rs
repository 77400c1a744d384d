//! The memory-side backend: one or more [`MemoryController`] shards behind a
//! single submission interface.
//!
//! The seed simulator hard-wired exactly one controller; the backend
//! generalizes that to `SystemConfig::num_channels` independent controller
//! shards. Cache blocks are interleaved across shards by block address
//! ([`Backend::route`]), and the shard-selection bits are stripped before the
//! request reaches a controller ([`Backend::localize`]) so that each shard
//! sees a dense address stream with the same row locality a single-controller
//! system would — exactly how real channel interleaving behaves. With
//! `num_channels = 1` the routing and localization are the identity and the
//! system behaves like the seed's single controller. (Service order under
//! backpressure is not bit-identical to the seed: the seed let fresh requests
//! overtake parked ones between retry scans, whereas the retry buckets here
//! are strictly FIFO per queue — a fairness improvement, but one that can
//! shift individual latencies whenever a controller queue fills.)
//!
//! The backend runs entirely in the DRAM clock domain: the kernel calls
//! [`Tick::tick`] once per DRAM cycle and collects the requests whose data
//! completed. New backends (e.g. a CXL-attached tier or an HBM stack) plug in
//! here: anything that accepts [`MemoryRequest`]s and implements
//! [`Tick<Event = CompletedRequest>`](crate::kernel::Tick) can stand behind
//! the same kernel.
//!
//! Requests rejected by a full controller queue wait in per-(shard, channel,
//! kind) retry buckets. Admission for a given `(channel, kind)` is strictly
//! FIFO and depends only on that queue's occupancy, so retrying just each
//! bucket's head is equivalent to the seed's full `O(waiting)` rescan — at
//! `O(accepted)` cost per cycle.

use std::collections::{BTreeMap, VecDeque};

use cloudmc_dram::{ChannelStats, DramCycles, FaultLedger};
use cloudmc_memctrl::{
    AccessKind, CompletedRequest, McStats, MemoryController, MemoryRequest, MAX_TENANTS,
};

use cloudmc_snap::{snap_fields, SnapError, SnapReader};

use crate::config::SystemConfig;
use crate::kernel::Tick;

/// Retry bucket key: requests queue per shard, per channel, per direction,
/// because controller admission is decided exactly at that granularity.
/// A `BTreeMap` (not a `HashMap`) keeps drain order deterministic.
type RetryKey = (usize, usize, AccessKind);

/// One or more memory-controller shards selected by block-address
/// interleaving, plus the retry buckets for back-pressured requests.
///
/// `next_due` caches, per shard, a DRAM cycle before which the shard
/// provably has nothing to do — bounds may undershoot (a stale-past bound
/// just means "due now") but never overshoot: ticks refresh the bound from
/// the controller's own timing walk, and `submit`/retry admission pull it
/// back to the admission cycle. Only [`Backend::tick_event`] maintains the
/// bounds; the every-shard [`Tick::tick`] neither reads nor refreshes them,
/// so the two must not be mixed on one backend.
#[derive(Debug)]
pub struct Backend {
    shards: Vec<MemoryController>,
    next_due: Vec<DramCycles>,
    retry: BTreeMap<RetryKey, VecDeque<MemoryRequest>>,
    retry_len: usize,
}

impl Backend {
    /// Builds `cfg.num_channels` controller shards from `cfg.effective_mc()`.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem if the controller configuration
    /// is invalid.
    pub fn new(cfg: &SystemConfig) -> Result<Self, String> {
        let mc_cfg = cfg.effective_mc();
        let num_shards = cfg.num_channels.max(1);
        let shards = (0..num_shards)
            .map(|shard| {
                // Decorrelate the fault model across shards: with a shared
                // seed every shard would plant stuck/hard rows at identical
                // coordinates and flip the same transient bits, which is not
                // how independent DIMMs fail. The per-shard offset is a pure
                // function of the shard index, so determinism is preserved.
                let mut shard_cfg = mc_cfg;
                if let Some(fault) = shard_cfg.fault_model.as_mut() {
                    fault.seed = fault
                        .seed
                        .wrapping_add((shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                }
                MemoryController::new(shard_cfg)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            shards,
            next_due: vec![0; num_shards],
            retry: BTreeMap::new(),
            retry_len: 0,
        })
    }

    /// Number of controller shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total DRAM channels across all shards.
    #[must_use]
    pub fn total_channels(&self) -> usize {
        self.shards
            .iter()
            .map(MemoryController::channel_count)
            .sum()
    }

    /// One shard's controller (diagnostics).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn shard(&self, shard: usize) -> &MemoryController {
        &self.shards[shard]
    }

    /// The shard serving `addr`: cache blocks interleave across shards.
    #[must_use]
    pub fn route(&self, addr: u64) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            ((addr >> 6) % self.shards.len() as u64) as usize
        }
    }

    /// Strips the shard-selection bits out of `addr`, compacting the block
    /// index so each shard sees a dense, row-local address stream.
    #[must_use]
    pub fn localize(&self, addr: u64) -> u64 {
        if self.shards.len() == 1 {
            addr
        } else {
            (((addr >> 6) / self.shards.len() as u64) << 6) | (addr & 63)
        }
    }

    /// Submits a request at DRAM cycle `now`, parking it in a retry bucket if
    /// the target queue is full. Back-pressure queueing delay stays part of
    /// the observed latency because `request.arrival` is never rewritten.
    pub fn submit(&mut self, mut request: MemoryRequest, now: DramCycles) {
        let shard = self.route(request.addr);
        request.addr = self.localize(request.addr);
        // New work invalidates the shard's cached readiness bound: it may now
        // have something to do as early as this very cycle.
        self.next_due[shard] = self.next_due[shard].min(now);
        // The bucket key needs the decoded channel, but `enqueue` decodes
        // internally anyway — so only pay for an extra decode off the fast
        // path (a backlog exists, or the controller just rejected).
        if self.retry_len > 0 {
            let channel = self.shards[shard].decode(request.addr).channel;
            let key = (shard, channel, request.kind);
            // FIFO per bucket: never overtake an already-waiting request for
            // the same queue.
            if self.retry.get(&key).is_some_and(|q| !q.is_empty()) {
                self.retry.entry(key).or_default().push_back(request);
                self.retry_len += 1;
                return;
            }
        }
        if let Err(rejected) = self.shards[shard].enqueue(request, now) {
            let channel = self.shards[shard].decode(rejected.addr).channel;
            self.retry
                .entry((shard, channel, rejected.kind))
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
        let Self {
            shards,
            next_due,
            retry,
            retry_len,
            ..
        } = self;
        for ((shard, _channel, kind), queue) in retry.iter_mut() {
            let mc = &mut shards[*shard];
            while let Some(&head) = queue.front() {
                if !mc.can_accept(head.addr, *kind) {
                    break;
                }
                // simlint: allow(panic) guarded by the can_accept check above
                mc.enqueue(head, now).expect("can_accept was just checked");
                // An admitted request invalidates the shard's cached bound.
                next_due[*shard] = next_due[*shard].min(now);
                queue.pop_front();
                *retry_len -= 1;
            }
        }
    }

    /// Requests queued or in flight inside the controllers.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.shards.iter().map(MemoryController::pending).sum()
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
        let mut out = [0u64; MAX_TENANTS];
        for shard in &self.shards {
            for (slot, v) in out.iter_mut().zip(shard.pending_per_tenant()) {
                *slot += v;
            }
        }
        for queue in self.retry.values() {
            for request in queue {
                out[request.tenant.min(MAX_TENANTS - 1)] += 1;
            }
        }
        out
    }

    /// Controller statistics merged across all shards.
    #[must_use]
    pub fn stats(&self) -> McStats {
        let mut total = McStats::new(self.shards[0].config().num_cores);
        for shard in &self.shards {
            total.merge(&shard.stats());
        }
        total
    }

    /// Fault-injection conservation ledger merged across all shards. All
    /// zeros when no fault model is configured.
    #[must_use]
    pub fn fault_ledger(&self) -> FaultLedger {
        let mut total = FaultLedger::default();
        for shard in &self.shards {
            total.merge(&shard.fault_ledger());
        }
        total
    }

    /// The first fail-stop uncorrectable-error description latched by any
    /// shard, if one occurred (lowest shard index wins for determinism).
    #[must_use]
    pub fn fault_error(&self) -> Option<&str> {
        self.shards.iter().find_map(MemoryController::fault_error)
    }

    /// Retired-row counts per rank, concatenated shard-major then
    /// channel-major (all zeros when no fault model is configured).
    #[must_use]
    pub fn rows_retired_per_rank(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.rows_retired_per_rank());
        }
        out
    }

    /// The earliest DRAM cycle at or after `now` at which any shard may have
    /// work, read from the cached per-shard bounds — O(shards) arithmetic,
    /// no controller timing walk. While a retry backlog exists the backend
    /// must be ticked every cycle (admission is retried per tick), so `now`
    /// is returned. `u64::MAX` means the whole backend is quiescent.
    #[must_use]
    pub fn cached_next_due(&self, now: DramCycles) -> DramCycles {
        if self.retry_len > 0 {
            return now;
        }
        self.next_due
            .iter()
            .copied()
            .min()
            .unwrap_or(DramCycles::MAX)
            .max(now)
    }

    /// Accounts for `cycles` DRAM cycles the kernel has proven eventless for
    /// every shard (bulk queue-occupancy sampling; see
    /// [`MemoryController::skip_dram_cycles`]).
    pub fn skip_dram_cycles(&mut self, cycles: u64) {
        for shard in &mut self.shards {
            shard.skip_dram_cycles(cycles);
        }
    }

    /// Event-driven DRAM tick: only shards whose cached bound says they are
    /// due run the full controller tick; the rest account the cycle as a
    /// skip (keeping queue-occupancy sample counts identical to the
    /// every-shard [`Tick::tick`]). A due shard's bound is refreshed from
    /// the tick's outcome by `bound_after_tick`.
    pub fn tick_event(&mut self, now: DramCycles, events: &mut Vec<CompletedRequest>) {
        self.drain_retries(now);
        for (mc, due) in self.shards.iter_mut().zip(&mut self.next_due) {
            if *due <= now {
                let worked = mc.tick(now, events);
                *due = bound_after_tick(mc, worked, now);
            } else {
                mc.skip_dram_cycles(1);
            }
        }
    }

    /// Recomputes the parked-request count from the restored retry buckets
    /// and rejects a bucket keyed by a shard or channel that does not exist,
    /// or a parked request naming a core the controllers have no slot for.
    fn finish_restore(&mut self, r: &SnapReader<'_>) -> Result<(), SnapError> {
        self.retry_len = self.retry.values().map(VecDeque::len).sum();
        for (&(shard, channel, _), queue) in &self.retry {
            let Some(mc) = self.shards.get(shard) else {
                return Err(r.bad_value(format!("retry bucket shard {shard} out of range")));
            };
            if channel >= mc.channel_count() {
                return Err(r.bad_value(format!("retry bucket channel {channel} out of range")));
            }
            for request in queue {
                request.check_core(r, mc.config().num_cores)?;
            }
        }
        Ok(())
    }

    /// Device-level statistics summed over every channel of every shard
    /// (command counters only; residency via [`Backend::device_totals_at`]).
    #[must_use]
    pub fn device_totals(&self) -> ChannelStats {
        let mut total = ChannelStats::default();
        for shard in &self.shards {
            for ch in 0..shard.channel_count() {
                total.merge(shard.channel_device_stats(ch));
            }
        }
        total
    }

    /// Device-level statistics summed over every channel of every shard,
    /// including power-state residency accrued up to DRAM cycle `now` in
    /// closed form (exact under fast-forward).
    #[must_use]
    pub fn device_totals_at(&self, now: DramCycles) -> ChannelStats {
        let mut total = ChannelStats::default();
        for shard in &self.shards {
            for ch in 0..shard.channel_count() {
                total.merge(&shard.channel_device_stats_at(ch, now));
            }
        }
        total
    }
}

/// A shard's next-due bound after an executed tick at `now`.
///
/// A shard with queued or in-flight requests is simply polled again next
/// tick, like the reference loop: its fences (bus turnaround, tRCD, a transfer
/// in flight) are a handful of DRAM cycles, and the full
/// [`MemoryController::next_ready_dram_cycle`] walk — every inflight entry,
/// every rank's refresh state, every queued request's earliest legal command,
/// plus scheduler/page/power timers — costs more than the no-op ticks it
/// would skip. Only a *drained* shard takes the walk, where the bound is a
/// refresh or policy-timer horizon hundreds of cycles out and skipping pays.
fn bound_after_tick(mc: &MemoryController, worked: bool, now: DramCycles) -> DramCycles {
    if worked || mc.pending() > 0 {
        now + 1
    } else {
        mc.next_ready_dram_cycle(now + 1).max(now + 1)
    }
}

impl Tick for Backend {
    type Event = CompletedRequest;

    /// Advances every shard by one DRAM cycle after retrying parked requests,
    /// reporting the requests whose data completed this cycle.
    fn tick(&mut self, now: u64, events: &mut Vec<CompletedRequest>) {
        self.drain_retries(now);
        for shard in &mut self.shards {
            shard.tick(now, events);
        }
    }
}

snap_fields! {
    Backend {
        section: "backend",
        saved: { shards: fixed, next_due: fixed, retry },
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
    fn single_shard_routing_is_identity() {
        let be = backend(1);
        for addr in [0u64, 64, 0x1234_5678, u64::MAX - 63] {
            assert_eq!(be.route(addr), 0);
            assert_eq!(be.localize(addr), addr);
        }
    }

    #[test]
    fn blocks_interleave_across_shards() {
        let be = backend(4);
        assert_eq!(be.shard_count(), 4);
        assert_eq!(be.total_channels(), 4);
        let shards: Vec<usize> = (0..8u64).map(|b| be.route(b * 64)).collect();
        assert_eq!(shards, [0, 1, 2, 3, 0, 1, 2, 3]);
        // Consecutive blocks of one shard stay consecutive after
        // localization, preserving row locality.
        assert_eq!(be.localize(0), 0);
        assert_eq!(be.localize(4 * 64), 64);
        assert_eq!(be.localize(8 * 64 + 17), 128 + 17);
    }

    #[test]
    fn requests_complete_across_shards() {
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
        // Both shards saw traffic.
        assert!(be.shard(0).stats().reads_completed > 0);
        assert!(be.shard(1).stats().reads_completed > 0);
        assert!(be.device_totals().reads > 0);
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
