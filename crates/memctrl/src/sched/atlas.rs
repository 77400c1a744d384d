//! ATLAS: Adaptive per-Thread Least-Attained-Service scheduling
//! (Kim et al., HPCA 2010).
//!
//! Core ranks change only at quantum boundaries (`Scheduler::on_cycle`). A
//! pick is one pass over the active queue keeping the least ready
//! candidate ([`min_ready`]): starved requests first, by arrival then
//! queue position; then the rest by `(core rank, arrival, id)`, a ready
//! column access before an activate before a precharge within each group.

use cloudmc_dram::DramCycles;
use cloudmc_snap::{snap_fields, SnapError, SnapReader};

use crate::request::{CompletedRequest, RowBufferOutcome};
use crate::sched::{min_ready, SchedContext, SchedDecision};

/// ATLAS parameters (Table 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtlasConfig {
    /// Quantum length in DRAM cycles; core ranks are recomputed at quantum
    /// boundaries. The paper uses 10 M cycles.
    pub quantum: DramCycles,
    /// Exponential-smoothing weight given to the just-finished quantum when
    /// updating the long-term attained service of a core.
    pub alpha: f64,
    /// Requests older than this many cycles are prioritized unconditionally.
    pub starvation_threshold: DramCycles,
}

impl Default for AtlasConfig {
    fn default() -> Self {
        Self {
            quantum: 10_000_000,
            alpha: 0.875,
            starvation_threshold: 50_000,
        }
    }
}

/// ATLAS scheduler: cores that attained the least memory service so far are
/// prioritized, on the premise that they are the most vulnerable to
/// interference. Ranking is recomputed once per quantum from exponentially
/// smoothed attained service.
#[derive(Debug)]
pub struct Atlas {
    cfg: AtlasConfig,
    num_cores: usize,
    /// Long-term (smoothed) attained service per core.
    total_service: Vec<f64>,
    /// Attained service accumulated during the current quantum.
    quantum_service: Vec<f64>,
    /// Priority position per core (0 = highest priority).
    core_rank: Vec<usize>,
    quantum_end: DramCycles,
    quanta_elapsed: u64,
}

impl Atlas {
    /// Creates an ATLAS scheduler for `num_cores` cores.
    #[must_use]
    pub fn new(cfg: AtlasConfig, num_cores: usize) -> Self {
        Self {
            cfg,
            num_cores,
            total_service: vec![0.0; num_cores],
            quantum_service: vec![0.0; num_cores],
            core_rank: vec![0; num_cores],
            quantum_end: cfg.quantum,
            quanta_elapsed: 0,
        }
    }

    /// Number of completed ranking quanta.
    #[must_use]
    pub fn quanta_elapsed(&self) -> u64 {
        self.quanta_elapsed
    }

    /// Current priority position of `core` (0 = highest priority).
    #[must_use]
    pub fn rank_of(&self, core: usize) -> usize {
        self.core_rank.get(core).copied().unwrap_or(usize::MAX)
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

    fn end_quantum(&mut self) {
        self.quanta_elapsed += 1;
        for core in 0..self.num_cores {
            self.total_service[core] = self.cfg.alpha * self.quantum_service[core]
                + (1.0 - self.cfg.alpha) * self.total_service[core];
            self.quantum_service[core] = 0.0;
        }
        // Least attained service gets the highest priority (lowest rank value).
        let mut order: Vec<usize> = (0..self.num_cores).collect();
        order.sort_by(|&a, &b| {
            self.total_service[a]
                .partial_cmp(&self.total_service[b])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        for (position, &core) in order.iter().enumerate() {
            self.core_rank[core] = position;
        }
    }

    /// Approximate bank service time of one completed request, used to charge
    /// attained service to its core.
    fn service_cost(outcome: RowBufferOutcome) -> f64 {
        match outcome {
            RowBufferOutcome::Hit => 15.0,
            RowBufferOutcome::Miss => 26.0,
            RowBufferOutcome::Conflict => 37.0,
        }
    }

    pub(crate) fn on_cycle(&mut self, ctx: &SchedContext<'_>) {
        while ctx.now >= self.quantum_end {
            self.end_quantum();
            self.quantum_end += self.cfg.quantum;
        }
    }

    /// The ranking quantum must end at its exact cycle relative to request
    /// completions (service attained before the boundary belongs to the old
    /// quantum), so the kernel may never fast-forward across it.
    pub(crate) fn next_due(&self) -> DramCycles {
        self.quantum_end
    }

    pub(crate) fn on_complete(&mut self, done: &CompletedRequest) {
        let core = done.request.core;
        if let Some(s) = self.quantum_service.get_mut(core) {
            *s += Self::service_cost(done.outcome);
        }
    }

    pub(crate) fn pick(&mut self, ctx: &SchedContext<'_>) -> Option<SchedDecision> {
        let queue = ctx.active_queue();
        if queue.is_empty() {
            return None;
        }
        // Rule 1: requests over the starvation threshold go first, oldest
        // (then first queued) first. Rules 2-4: higher-ranked core first,
        // then row hit, then age. `min_ready` puts a ready column access
        // before an activate before a precharge within each group.
        let candidates = queue.iter().enumerate().map(|(i, e)| {
            if e.age(ctx.now) > self.cfg.starvation_threshold {
                (false, (0, e.enqueued_at, 0, i), e)
            } else {
                let rank = self.rank_of(e.request.core);
                (true, (rank, e.enqueued_at, e.request.id, 0), e)
            }
        });
        min_ready(candidates, ctx)
    }

    /// The sort-based pick this scheduler used before [`min_ready`]: the
    /// starved entries stably sorted by arrival, then every entry sorted
    /// by `(core rank, arrival, id)`, each through
    /// [`crate::sched::first_ready`]. The oracle of the differential tests.
    #[cfg(test)]
    pub(super) fn pick_reference(&mut self, ctx: &SchedContext<'_>) -> Option<SchedDecision> {
        use crate::queue::QueueEntry;
        use crate::sched::first_ready;
        let queue = ctx.active_queue();
        if queue.is_empty() {
            return None;
        }
        let mut starved: Vec<&QueueEntry> = queue
            .iter()
            .filter(|e| e.age(ctx.now) > self.cfg.starvation_threshold)
            .collect();
        if !starved.is_empty() {
            starved.sort_by_key(|e| e.enqueued_at);
            if let Some(d) = first_ready(starved, ctx) {
                return Some(d);
            }
        }
        let mut entries: Vec<&QueueEntry> = queue.iter().collect();
        entries.sort_by(|a, b| {
            self.rank_of(a.request.core)
                .cmp(&self.rank_of(b.request.core))
                .then(a.enqueued_at.cmp(&b.enqueued_at))
                .then(a.request.id.cmp(&b.request.id))
        });
        first_ready(entries, ctx)
    }
}

snap_fields! {
    Atlas {
        saved: {
            total_service: fixed,
            quantum_service: fixed,
            core_rank: fixed,
            quantum_end,
            quanta_elapsed,
        },
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

    fn completed(core: usize, outcome: RowBufferOutcome) -> CompletedRequest {
        CompletedRequest {
            request: MemoryRequest::new(999, AccessKind::Read, 0, core, 0),
            channel: 0,
            location: Location::new(0, 0, 0, 0),
            issue: 80,
            completion: 100,
            outcome,
            retries: 0,
        }
    }

    #[test]
    fn quantum_boundary_reranks_cores() {
        let cfg = AtlasConfig {
            quantum: 1000,
            alpha: 0.875,
            starvation_threshold: 50_000,
        };
        let mut s = Atlas::new(cfg, 4);
        // Core 0 consumes a lot of service, core 1 a little.
        for _ in 0..10 {
            s.on_complete(&completed(0, RowBufferOutcome::Conflict));
        }
        s.on_complete(&completed(1, RowBufferOutcome::Hit));
        let dram_cfg = DramConfig::baseline();
        let ch = DramChannel::new(&dram_cfg);
        let rq = RequestQueue::new(4);
        let wq = RequestQueue::new(4);
        let banks = BankTable::scan(&ch, &rq, &wq);
        s.on_cycle(&ctx(&ch, &rq, &wq, &banks, 1000));
        assert_eq!(s.quanta_elapsed(), 1);
        // Cores 2 and 3 attained nothing: highest priority. Core 0 is last.
        assert_eq!(s.rank_of(0), 3);
        assert!(s.rank_of(1) < s.rank_of(0));
        assert!(s.total_service[0] > s.total_service[1]);
    }

    #[test]
    fn lower_service_core_wins_after_ranking() {
        let cfg = AtlasConfig {
            quantum: 100,
            alpha: 1.0,
            starvation_threshold: 50_000,
        };
        let mut s = Atlas::new(cfg, 4);
        for _ in 0..5 {
            s.on_complete(&completed(0, RowBufferOutcome::Conflict));
        }
        let dram_cfg = DramConfig::baseline();
        let ch = DramChannel::new(&dram_cfg);
        let mut rq = RequestQueue::new(8);
        let wq = RequestQueue::new(8);
        // Older request from the heavy core 0, younger from the light core 1,
        // to different banks (both are activate candidates).
        push(&mut rq, 1, 0, 0, 5, 0);
        push(&mut rq, 2, 1, 1, 6, 10);
        let banks = BankTable::scan(&ch, &rq, &wq);
        let c = ctx(&ch, &rq, &wq, &banks, 150);
        s.on_cycle(&c);
        let d = s.pick(&c).unwrap();
        assert_eq!(d.command, Command::activate(Location::new(0, 1, 6, 0)));
    }

    #[test]
    fn starved_request_overrides_ranking() {
        let cfg = AtlasConfig {
            quantum: 100,
            alpha: 1.0,
            starvation_threshold: 500,
        };
        let mut s = Atlas::new(cfg, 4);
        for _ in 0..5 {
            s.on_complete(&completed(0, RowBufferOutcome::Conflict));
        }
        let dram_cfg = DramConfig::baseline();
        let ch = DramChannel::new(&dram_cfg);
        let mut rq = RequestQueue::new(8);
        let wq = RequestQueue::new(8);
        push(&mut rq, 1, 0, 0, 5, 0); // heavy core, but very old
        push(&mut rq, 2, 1, 1, 6, 590);
        let banks = BankTable::scan(&ch, &rq, &wq);
        let c = ctx(&ch, &rq, &wq, &banks, 600);
        s.on_cycle(&c);
        let d = s.pick(&c).unwrap();
        assert_eq!(d.command, Command::activate(Location::new(0, 0, 5, 0)));
    }

    #[test]
    fn behaves_like_frfcfs_before_first_quantum() {
        let mut s = Atlas::new(AtlasConfig::default(), 4);
        let dram_cfg = DramConfig::baseline();
        let mut ch = DramChannel::new(&dram_cfg);
        ch.issue(&Command::activate(Location::new(0, 0, 9, 0)), 0);
        let mut rq = RequestQueue::new(8);
        let wq = RequestQueue::new(8);
        push(&mut rq, 1, 0, 0, 5, 0); // conflict, older
        push(&mut rq, 2, 1, 0, 9, 1); // hit, younger
        let now = dram_cfg.timing.t_ras;
        let banks = BankTable::scan(&ch, &rq, &wq);
        let c = ctx(&ch, &rq, &wq, &banks, now);
        s.on_cycle(&c);
        let d = s.pick(&c).unwrap();
        assert_eq!(
            d.request_id,
            Some(2),
            "row hit should win while ranks are equal"
        );
    }

    #[test]
    fn empty_queue_returns_none() {
        let mut s = Atlas::new(AtlasConfig::default(), 4);
        let dram_cfg = DramConfig::baseline();
        let ch = DramChannel::new(&dram_cfg);
        let rq = RequestQueue::new(4);
        let wq = RequestQueue::new(4);
        let banks = BankTable::scan(&ch, &rq, &wq);
        assert!(s.pick(&ctx(&ch, &rq, &wq, &banks, 0)).is_none());
    }
}
