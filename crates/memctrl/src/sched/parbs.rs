//! Parallelism-Aware Batch Scheduling (Mutlu & Moscibroda, ISCA 2008).
//!
//! When no request of the current batch is left in the active queue, a new
//! batch marks the oldest `batching_cap` requests per (core, bank) and
//! ranks the cores shortest-job-first. Each pick is then one pass over the
//! active queue keeping the least `(unbatched, column < activate <
//! precharge, core rank, arrival, id)` among the ready candidates
//! ([`min_ready`]). Batch formation counts into buffers sized when the
//! scheduler is built and clears only the cells the queue touched.

use std::collections::BTreeSet;

use cloudmc_dram::DramConfig;
use cloudmc_snap::{snap_fields, SnapError, SnapReader};

use crate::queue::QueueEntry;
use crate::request::{CompletedRequest, RequestId};
use crate::sched::{min_ready, SchedContext, SchedDecision};

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

/// Flat banks a per-core row of [`ParBs`]'s count table covers.
const BANKS: usize = DramConfig::MAX_BANKS_PER_CHANNEL;

/// PAR-BS: groups the oldest requests of every core into a batch that is
/// prioritized over all other requests, and ranks cores within the batch
/// shortest-job-first to minimize average stall time.
#[derive(Debug)]
pub struct ParBs {
    cfg: ParBsConfig,
    num_cores: usize,
    /// The current batch. Ordered, so the image lists the ids ascending.
    marked: BTreeSet<RequestId>,
    /// `core_rank[c]` is the priority position of core `c` in the current
    /// batch (0 = highest priority).
    core_rank: Vec<usize>,
    batches_formed: u64,
    /// Batch-formation scratch: marked requests per (core, flat bank), row
    /// `core` at `core * BANKS`. All zero between formations.
    marked_count: Vec<u16>,
    /// Batch-formation scratch: `(largest per-bank count, total, core)` per
    /// core, sorted into the shortest-job-first order.
    loads: Vec<(usize, usize, usize)>,
}

impl ParBs {
    /// Creates a PAR-BS scheduler for `num_cores` cores.
    #[must_use]
    pub fn new(cfg: ParBsConfig, num_cores: usize) -> Self {
        Self {
            cfg,
            num_cores,
            marked: BTreeSet::new(),
            core_rank: vec![0; num_cores],
            batches_formed: 0,
            marked_count: vec![0; num_cores * BANKS],
            loads: vec![(0, 0, 0); num_cores],
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

    /// The count-table cell of `entry`'s (core, flat bank); cores past the
    /// last share its row.
    fn count_cell(&self, entry: &QueueEntry, banks_per_rank: usize) -> usize {
        let core = entry.request.core.min(self.num_cores.saturating_sub(1));
        core * BANKS + entry.location.flat_bank(banks_per_rank)
    }

    /// Forms a new batch from the active queue: the oldest `batching_cap`
    /// requests per (core, bank) are marked, then cores are ranked
    /// shortest-job-first (a core's "job length" is its maximum number of
    /// marked requests to any single bank, then its total, then its index).
    fn form_batch(&mut self, ctx: &SchedContext<'_>) {
        self.marked.clear();
        for (core, load) in self.loads.iter_mut().enumerate() {
            *load = (0, 0, core);
        }
        let banks_per_rank = ctx.channel.banks_per_rank();
        let queue = ctx.active_queue();
        for entry in queue.iter() {
            let cell = self.count_cell(entry, banks_per_rank);
            let count = usize::from(self.marked_count[cell]);
            if count < self.cfg.batching_cap {
                self.marked_count[cell] += 1;
                self.marked.insert(entry.request.id);
                let load = &mut self.loads[cell / BANKS];
                load.0 = load.0.max(count + 1);
                load.1 += 1;
            }
        }
        // Only the queue's own cells were touched.
        for entry in queue.iter() {
            let cell = self.count_cell(entry, banks_per_rank);
            self.marked_count[cell] = 0;
        }
        if self.marked.is_empty() {
            return;
        }
        self.batches_formed += 1;
        // Each key ends in its core, so the unstable sort is the stable one.
        self.loads.sort_unstable();
        for (position, &(_, _, core)) in self.loads.iter().enumerate() {
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
        // Batched before unbatched, then a ready column access before an
        // activate before a precharge, then core rank, age and id.
        let candidates = ctx.active_queue().iter().map(|e| {
            let unbatched = !self.marked.contains(&e.request.id);
            let order = (self.rank_of(e.request.core), e.enqueued_at, e.request.id);
            (unbatched, order, e)
        });
        min_ready(candidates, ctx)
    }

    pub(crate) fn on_complete(&mut self, done: &CompletedRequest) {
        self.marked.remove(&done.request.id);
    }

    /// The sort-based pick this scheduler used before [`min_ready`]: an
    /// allocating batch formation, both candidate lists sorted by
    /// `(core rank, arrival, id)`, and [`crate::sched::first_ready`] over
    /// the batched list, then the unbatched one. The oracle of the
    /// differential tests.
    #[cfg(test)]
    pub(super) fn pick_reference(&mut self, ctx: &SchedContext<'_>) -> Option<SchedDecision> {
        use crate::sched::first_ready;
        if ctx.active_queue().is_empty() {
            return None;
        }
        if self.batch_exhausted(ctx) {
            self.marked.clear();
            let banks_per_rank = ctx.channel.banks_per_rank();
            let total_banks = ctx.channel.rank_count() * banks_per_rank;
            let mut marked_count = vec![vec![0usize; total_banks]; self.num_cores];
            for entry in ctx.active_queue().iter() {
                let core = entry.request.core.min(self.num_cores.saturating_sub(1));
                let flat = entry.location.flat_bank(banks_per_rank);
                if marked_count[core][flat] < self.cfg.batching_cap {
                    marked_count[core][flat] += 1;
                    self.marked.insert(entry.request.id);
                }
            }
            if !self.marked.is_empty() {
                self.batches_formed += 1;
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
        }
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
}

snap_fields! {
    ParBs {
        saved: { marked, core_rank: fixed, batches_formed },
        skipped: {
            cfg: "config-derived",
            num_cores: "config-derived",
            marked_count: "scratch, zero between formations",
            loads: "scratch, rewritten by each formation",
        },
        after_load: Self::check_restored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank_table::BankTable;
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
        banks: &'a BankTable,
        now: u64,
    ) -> SchedContext<'a> {
        SchedContext::new(now, ch, rq, wq, banks, false, 4)
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
        let banks = BankTable::scan(&ch, &rq, &wq);
        let c = ctx(&ch, &rq, &wq, &banks, 10);
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
        let banks = BankTable::scan(&ch, &rq, &wq);
        let d = s.pick(&ctx(&ch, &rq, &wq, &banks, 10)).unwrap();
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
        let banks = BankTable::scan(&ch, &rq, &wq);
        let _ = s.pick(&ctx(&ch, &rq, &wq, &banks, 0));
        assert!(s.is_marked(0));
        // A new request arrives after batch formation: not marked.
        push(&mut rq, 1, 1, 1, 2, 1);
        let banks = BankTable::scan(&ch, &rq, &wq);
        let d = s.pick(&ctx(&ch, &rq, &wq, &banks, 5)).unwrap();
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
        let banks = BankTable::scan(&ch, &rq, &wq);
        let _ = s.pick(&ctx(&ch, &rq, &wq, &banks, 0));
        assert_eq!(s.batches_formed(), 1);
        // Request 0 completes and leaves the queue.
        rq.remove(0);
        push(&mut rq, 1, 1, 0, 2, 10);
        let banks = BankTable::scan(&ch, &rq, &wq);
        let _ = s.pick(&ctx(&ch, &rq, &wq, &banks, 10));
        assert_eq!(s.batches_formed(), 2);
        assert!(s.is_marked(1));
    }

    /// The marks save as one ascending `u64` run, the bytes the `HashSet`
    /// they once lived in wrote through its sorted codec. A load rejects a
    /// run that is not strictly ascending.
    #[test]
    fn marks_save_as_the_sorted_run_the_hash_set_wrote() {
        use cloudmc_snap::{checksum, Snap, SnapWriter};

        let cfg = DramConfig::baseline();
        let ch = DramChannel::new(&cfg);
        let mut rq = RequestQueue::new(32);
        let wq = RequestQueue::new(32);
        let ids = [9, 2, 7, 4];
        for (i, &id) in ids.iter().enumerate() {
            push(&mut rq, id, i % 4, i, 1, i as u64);
        }
        let mut s = ParBs::new(ParBsConfig::default(), 4);
        let banks = BankTable::scan(&ch, &rq, &wq);
        let _ = s.pick(&ctx(&ch, &rq, &wq, &banks, 10));
        let mut w = SnapWriter::new(0);
        s.save(&mut w);
        let image = w.finish();

        let mut sorted: Vec<RequestId> = ids.to_vec();
        sorted.sort_unstable();
        let mut w = SnapWriter::new(0);
        sorted.save(&mut w);
        let run = w.finish();
        let run = &run[..run.len() - 8];
        assert_eq!(&image[..run.len()], run, "same bytes as the sorted run");
        let word = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap());
        let first = 20 + 8;
        let saved: Vec<u64> = (0..4).map(|i| word(first + 8 * i)).collect();
        assert_eq!(saved, [2, 4, 7, 9]);

        // Swap the first two ids and reseal: the load refuses the image.
        let mut body = image[..image.len() - 8].to_vec();
        body[first..first + 16].rotate_left(8);
        body.extend_from_slice(&checksum(&body).to_le_bytes());
        let mut r = SnapReader::new(&body, 0).unwrap();
        let err = ParBs::new(ParBsConfig::default(), 4)
            .load(&mut r)
            .unwrap_err();
        assert!(
            err.to_string().contains("set keys not strictly ascending"),
            "{err}"
        );
    }

    #[test]
    fn empty_queue_returns_none() {
        let cfg = DramConfig::baseline();
        let ch = DramChannel::new(&cfg);
        let rq = RequestQueue::new(4);
        let wq = RequestQueue::new(4);
        let mut s = ParBs::new(ParBsConfig::default(), 4);
        let banks = BankTable::scan(&ch, &rq, &wq);
        assert!(s.pick(&ctx(&ch, &rq, &wq, &banks, 0)).is_none());
    }
}
