//! Parallelism-Aware Batch Scheduling (Mutlu & Moscibroda, ISCA 2008).

use std::collections::HashSet;

use cloudmc_snap::{snap_fields, SnapError, SnapReader};

use crate::queue::QueueEntry;
use crate::request::{CompletedRequest, RequestId};
use crate::sched::{first_ready, SchedContext, SchedDecision};

/// PAR-BS parameters (Table 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParBsConfig {
    /// Maximum number of requests marked per core per bank when a batch forms.
    pub batching_cap: usize,
}

impl Default for ParBsConfig {
    fn default() -> Self {
        Self { batching_cap: 5 }
    }
}

/// PAR-BS: groups the oldest requests of every core into a batch that is
/// prioritized over all other requests, and ranks cores within the batch
/// shortest-job-first to minimize average stall time.
#[derive(Debug)]
pub struct ParBs {
    cfg: ParBsConfig,
    num_cores: usize,
    marked: HashSet<RequestId>,
    /// `core_rank[c]` is the priority position of core `c` in the current
    /// batch (0 = highest priority).
    core_rank: Vec<usize>,
    batches_formed: u64,
}

impl ParBs {
    /// Creates a PAR-BS scheduler for `num_cores` cores.
    #[must_use]
    pub fn new(cfg: ParBsConfig, num_cores: usize) -> Self {
        Self {
            cfg,
            num_cores,
            marked: HashSet::new(),
            core_rank: vec![0; num_cores],
            batches_formed: 0,
        }
    }

    /// Number of batches formed so far (exposed for tests/diagnostics).
    #[must_use]
    pub fn batches_formed(&self) -> u64 {
        self.batches_formed
    }

    /// Whether request `id` is part of the current batch.
    #[must_use]
    pub fn is_marked(&self, id: RequestId) -> bool {
        self.marked.contains(&id)
    }

    /// Every restored priority position must name one of the cores.
    fn check_restored(&mut self, r: &SnapReader<'_>) -> Result<(), SnapError> {
        if let Some(rank) = self.core_rank.iter().find(|&&rank| rank >= self.num_cores) {
            return Err(r.bad_value(format!(
                "core rank {rank} out of range for {} cores",
                self.num_cores
            )));
        }
        Ok(())
    }

    fn rank_of(&self, core: usize) -> usize {
        self.core_rank.get(core).copied().unwrap_or(usize::MAX)
    }

    /// Forms a new batch from the active queue: the oldest `batching_cap`
    /// requests per (core, bank) are marked, then cores are ranked
    /// shortest-job-first (a core's "job length" is its maximum number of
    /// marked requests to any single bank).
    fn form_batch(&mut self, ctx: &SchedContext<'_>) {
        self.marked.clear();
        let banks_per_rank = ctx.channel.banks_per_rank();
        let total_banks = ctx.channel.rank_count() * banks_per_rank;
        // marked_count[core][flat_bank]
        let mut marked_count = vec![vec![0usize; total_banks]; self.num_cores];
        for entry in ctx.active_queue().iter() {
            let core = entry.request.core.min(self.num_cores.saturating_sub(1));
            let flat = entry.location.flat_bank(banks_per_rank);
            if marked_count[core][flat] < self.cfg.batching_cap {
                marked_count[core][flat] += 1;
                self.marked.insert(entry.request.id);
            }
        }
        if self.marked.is_empty() {
            return;
        }
        self.batches_formed += 1;
        // Shortest job first: rank cores by their maximum per-bank load.
        let mut loads: Vec<(usize, usize, usize)> = (0..self.num_cores)
            .map(|core| {
                let max_bank = marked_count[core].iter().copied().max().unwrap_or(0);
                let total: usize = marked_count[core].iter().sum();
                (core, max_bank, total)
            })
            .collect();
        loads.sort_by_key(|&(core, max_bank, total)| (max_bank, total, core));
        for (position, &(core, _, _)) in loads.iter().enumerate() {
            self.core_rank[core] = position;
        }
    }

    fn batch_exhausted(&self, ctx: &SchedContext<'_>) -> bool {
        if self.marked.is_empty() {
            return true;
        }
        // The batch is done when none of the marked requests is still queued.
        !ctx.active_queue()
            .iter()
            .any(|e| self.marked.contains(&e.request.id))
    }

    pub(crate) fn pick(&mut self, ctx: &SchedContext<'_>) -> Option<SchedDecision> {
        if ctx.active_queue().is_empty() {
            return None;
        }
        if self.batch_exhausted(ctx) {
            self.form_batch(ctx);
        }
        // Priority order: batched > row-hit > core rank > age. The first two
        // passes implement "batched first"; within a pass `first_ready`
        // prefers ready column commands (row hits), and the iteration order
        // (core rank, then age) breaks the remaining ties.
        let mut batched: Vec<&QueueEntry> = Vec::new();
        let mut unbatched: Vec<&QueueEntry> = Vec::new();
        for entry in ctx.active_queue().iter() {
            if self.marked.contains(&entry.request.id) {
                batched.push(entry);
            } else {
                unbatched.push(entry);
            }
        }
        let rank_then_age = |a: &&QueueEntry, b: &&QueueEntry| {
            self.rank_of(a.request.core)
                .cmp(&self.rank_of(b.request.core))
                .then(a.enqueued_at.cmp(&b.enqueued_at))
                .then(a.request.id.cmp(&b.request.id))
        };
        batched.sort_by(rank_then_age);
        unbatched.sort_by(rank_then_age);
        first_ready(batched, ctx).or_else(|| first_ready(unbatched, ctx))
    }

    pub(crate) fn on_complete(&mut self, done: &CompletedRequest) {
        self.marked.remove(&done.request.id);
    }
}

snap_fields! {
    ParBs {
        saved: { marked, core_rank: fixed, batches_formed },
        skipped: {
            cfg: "config-derived",
            num_cores: "config-derived",
        },
        after_load: Self::check_restored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::RequestQueue;
    use crate::request::{AccessKind, MemoryRequest};
    use cloudmc_dram::{Command, DramChannel, DramConfig, Location};

    fn push(q: &mut RequestQueue, id: u64, core: usize, bank: usize, row: u64, at: u64) {
        q.push(
            MemoryRequest::new(id, AccessKind::Read, 0, core, at),
            Location::new(0, bank, row, 0),
            at,
        )
        .unwrap();
    }

    fn ctx<'a>(
        ch: &'a DramChannel,
        rq: &'a RequestQueue,
        wq: &'a RequestQueue,
        now: u64,
    ) -> SchedContext<'a> {
        SchedContext::new(now, ch, rq, wq, false, 4)
    }

    #[test]
    fn batch_caps_marked_requests_per_core_and_bank() {
        let cfg = DramConfig::baseline();
        let ch = DramChannel::new(&cfg);
        let mut rq = RequestQueue::new(32);
        let wq = RequestQueue::new(32);
        // Core 0 floods bank 0 with 8 requests; only 5 may be marked.
        for i in 0..8 {
            push(&mut rq, i, 0, 0, i, i);
        }
        let mut s = ParBs::new(ParBsConfig::default(), 4);
        let c = ctx(&ch, &rq, &wq, 10);
        let _ = s.pick(&c);
        assert_eq!(s.batches_formed(), 1);
        let marked: Vec<bool> = (0..8).map(|i| s.is_marked(i)).collect();
        assert_eq!(marked.iter().filter(|&&m| m).count(), 5);
        assert!(
            marked[..5].iter().all(|&m| m),
            "the oldest 5 must be marked"
        );
    }

    #[test]
    fn shortest_job_core_is_ranked_first() {
        let cfg = DramConfig::baseline();
        let ch = DramChannel::new(&cfg);
        let mut rq = RequestQueue::new(32);
        let wq = RequestQueue::new(32);
        // Core 1 has 3 requests to bank 0 (long job); core 2 has 1 request to
        // bank 1 (short job). All banks are closed, so everything is an
        // activate candidate and ranking decides the order.
        push(&mut rq, 0, 1, 0, 10, 0);
        push(&mut rq, 1, 1, 0, 11, 1);
        push(&mut rq, 2, 1, 0, 12, 2);
        push(&mut rq, 3, 2, 1, 20, 3);
        let mut s = ParBs::new(ParBsConfig::default(), 4);
        let d = s.pick(&ctx(&ch, &rq, &wq, 10)).unwrap();
        // Core 2 (shortest job) wins: its activate goes first despite being youngest.
        assert_eq!(d.command, Command::activate(Location::new(0, 1, 20, 0)));
    }

    #[test]
    fn batched_requests_beat_unbatched_ones() {
        let cfg = DramConfig::baseline();
        let ch = DramChannel::new(&cfg);
        let mut rq = RequestQueue::new(32);
        let wq = RequestQueue::new(32);
        push(&mut rq, 0, 0, 0, 1, 0);
        let mut s = ParBs::new(ParBsConfig::default(), 4);
        // First pick forms a batch containing request 0.
        let _ = s.pick(&ctx(&ch, &rq, &wq, 0));
        assert!(s.is_marked(0));
        // A new request arrives after batch formation: not marked.
        push(&mut rq, 1, 1, 1, 2, 1);
        let d = s.pick(&ctx(&ch, &rq, &wq, 5)).unwrap();
        assert_eq!(d.command, Command::activate(Location::new(0, 0, 1, 0)));
        assert!(!s.is_marked(1));
    }

    #[test]
    fn new_batch_forms_when_previous_batch_drains() {
        let cfg = DramConfig::baseline();
        let ch = DramChannel::new(&cfg);
        let mut rq = RequestQueue::new(32);
        let wq = RequestQueue::new(32);
        push(&mut rq, 0, 0, 0, 1, 0);
        let mut s = ParBs::new(ParBsConfig::default(), 4);
        let _ = s.pick(&ctx(&ch, &rq, &wq, 0));
        assert_eq!(s.batches_formed(), 1);
        // Request 0 completes and leaves the queue.
        rq.remove(0);
        push(&mut rq, 1, 1, 0, 2, 10);
        let _ = s.pick(&ctx(&ch, &rq, &wq, 10));
        assert_eq!(s.batches_formed(), 2);
        assert!(s.is_marked(1));
    }

    #[test]
    fn empty_queue_returns_none() {
        let cfg = DramConfig::baseline();
        let ch = DramChannel::new(&cfg);
        let rq = RequestQueue::new(4);
        let wq = RequestQueue::new(4);
        let mut s = ParBs::new(ParBsConfig::default(), 4);
        assert!(s.pick(&ctx(&ch, &rq, &wq, 0)).is_none());
    }
}
