//! Reinforcement-learning (self-optimizing) memory scheduler, after
//! Ipek et al., ISCA 2008.
//!
//! The scheduler treats command selection as a Markov decision process. Each
//! cycle it enumerates the legal commands derivable from the pending
//! requests, estimates a Q-value for every candidate with a set of hashed
//! feature tables (a CMAC-style tile coding), picks the best one
//! ε-greedily, and updates the previous decision's Q-value with a SARSA rule
//! using a reward of 1 for data-transferring commands (READ/WRITE) and 0
//! otherwise.
//!
//! A feature vector's table indices depend on nothing else, so each is
//! hashed once, on its first use, into a table indexed by a dense feature
//! code; a pick then costs one pass over the queues to collect the ready
//! candidates plus `num_tables` lookups per candidate it scores (an
//! exploratory pick scores only the candidate it draws).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use cloudmc_snap::{snap_fields, SnapError, SnapReader};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cloudmc_dram::{CommandKind, DramCycles};

use crate::queue::{bank_row_key, QueueEntry};
use crate::sched::{progress_for, SchedContext, SchedDecision};

/// RL scheduler parameters (Table 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RlConfig {
    /// Number of hashed Q-value tables (tilings).
    pub num_tables: usize,
    /// Entries per Q-value table.
    pub table_size: usize,
    /// Learning rate α.
    pub alpha: f64,
    /// Discount rate γ.
    pub gamma: f64,
    /// Probability ε of taking a random (exploratory) action.
    pub epsilon: f64,
    /// Requests older than this are scheduled unconditionally.
    pub starvation_threshold: DramCycles,
    /// Seed for the exploration random number generator.
    pub seed: u64,
}

impl RlConfig {
    /// Largest `num_tables` that validates. Every candidate of every pick
    /// hashes its features once per table, so the count bounds a pick's work.
    pub const MAX_TABLES: usize = 256;

    /// Largest `table_size` that validates. The tables are allocated when
    /// the scheduler is built, `num_tables × table_size` entries per channel.
    pub const MAX_TABLE_SIZE: usize = 4096;
}

impl Default for RlConfig {
    fn default() -> Self {
        Self {
            num_tables: 32,
            table_size: 256,
            alpha: 0.1,
            gamma: 0.95,
            epsilon: 0.05,
            starvation_threshold: 10_000,
            seed: 0xC10D_DC0D,
        }
    }
}

/// Feature vector describing one (state, action) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Features {
    action: u8,
    row_hit: bool,
    read_q_bucket: u8,
    write_q_bucket: u8,
    same_row_pending: u8,
    age_bucket: u8,
    is_write_request: bool,
}

/// Distinct [`Features::code`]s.
const FEATURE_CODES: usize = 5 * 7 * 7 * 4 * 5 * 2;

// A memo slot holds a table index plus one.
const _: () = assert!(RlConfig::MAX_TABLE_SIZE < u16::MAX as usize);

impl Features {
    /// A dense code in `0..FEATURE_CODES` of every field but `row_hit`,
    /// which [`RlScheduler::features`] derives from the action.
    fn code(&self) -> usize {
        let mut code = usize::from(self.action);
        code = code * 7 + usize::from(self.read_q_bucket);
        code = code * 7 + usize::from(self.write_q_bucket);
        code = code * 4 + usize::from(self.same_row_pending);
        code = code * 5 + usize::from(self.age_bucket);
        code * 2 + usize::from(self.is_write_request)
    }
}

/// Self-optimizing RL memory scheduler.
#[derive(Debug)]
pub struct RlScheduler {
    cfg: RlConfig,
    tables: Vec<Vec<f64>>,
    rng: StdRng,
    /// Previous decision awaiting its SARSA update: table indices, Q estimate
    /// and immediate reward.
    prev: Option<(Vec<usize>, f64, f64)>,
    decisions: u64,
    exploratory_decisions: u64,
    /// The table indices of each feature code, hashed on the code's first
    /// use: the `num_tables` slots from `code * num_tables` hold each index
    /// plus one, or zero until hashed.
    memo: Vec<u16>,
    /// Pick scratch: the ready candidates, one per distinct command.
    candidates: Vec<(Features, SchedDecision)>,
    /// Pick scratch: the chosen candidate's table indices.
    chosen_indices: Vec<usize>,
}

impl RlScheduler {
    /// Creates an RL scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `num_tables` or `table_size` is zero or above
    /// [`RlConfig::MAX_TABLES`] or [`RlConfig::MAX_TABLE_SIZE`].
    #[must_use]
    pub fn new(cfg: RlConfig) -> Self {
        assert!(cfg.num_tables > 0, "num_tables must be non-zero");
        assert!(cfg.table_size > 0, "table_size must be non-zero");
        assert!(
            cfg.num_tables <= RlConfig::MAX_TABLES && cfg.table_size <= RlConfig::MAX_TABLE_SIZE,
            "RL tables above RlConfig::MAX_TABLES x RlConfig::MAX_TABLE_SIZE"
        );
        Self {
            tables: vec![vec![0.0; cfg.table_size]; cfg.num_tables],
            rng: StdRng::seed_from_u64(cfg.seed),
            prev: None,
            decisions: 0,
            exploratory_decisions: 0,
            memo: vec![0; FEATURE_CODES * cfg.num_tables],
            candidates: Vec::new(),
            chosen_indices: Vec::with_capacity(cfg.num_tables),
            cfg,
        }
    }

    /// Total decisions taken.
    #[must_use]
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Decisions that were exploratory (random) rather than greedy.
    #[must_use]
    pub fn exploratory_decisions(&self) -> u64 {
        self.exploratory_decisions
    }

    /// Restored Q-tables and the pending SARSA update must have the shape
    /// the configuration fixes, and every pending index must address a table
    /// entry.
    fn check_restored(&mut self, r: &SnapReader<'_>) -> Result<(), SnapError> {
        if let Some(table) = self
            .tables
            .iter()
            .find(|table| table.len() != self.cfg.table_size)
        {
            return Err(r.bad_value(format!(
                "{} Q-table entries, expected {}",
                table.len(),
                self.cfg.table_size
            )));
        }
        if let Some((indices, _, _)) = &self.prev {
            if indices.len() != self.cfg.num_tables {
                return Err(r.bad_value(format!(
                    "{} pending indices, expected {}",
                    indices.len(),
                    self.cfg.num_tables
                )));
            }
            if let Some(i) = indices.iter().find(|&&i| i >= self.cfg.table_size) {
                return Err(r.bad_value(format!(
                    "pending index {i} out of range for table size {}",
                    self.cfg.table_size
                )));
            }
        }
        Ok(())
    }

    fn bucket(len: usize) -> u8 {
        match len {
            0 => 0,
            1..=2 => 1,
            3..=5 => 2,
            6..=10 => 3,
            11..=20 => 4,
            21..=40 => 5,
            _ => 6,
        }
    }

    fn age_bucket(age: DramCycles) -> u8 {
        match age {
            0..=63 => 0,
            64..=255 => 1,
            256..=1023 => 2,
            1024..=4095 => 3,
            _ => 4,
        }
    }

    fn features(ctx: &SchedContext<'_>, entry: &QueueEntry, decision: &SchedDecision) -> Features {
        let action = match decision.command.kind {
            CommandKind::Activate => 0,
            CommandKind::Precharge => 1,
            CommandKind::Read { .. } => 2,
            CommandKind::Write { .. } => 3,
            CommandKind::Refresh => 4,
        };
        // Pending requests to the entry's row (itself included), counted
        // to three over the queues' packed key columns.
        let loc = entry.location;
        let key = bank_row_key(loc.rank, loc.bank, loc.row);
        let same_row_pending = (ctx.read_q.keys().iter().chain(ctx.write_q.keys()))
            .filter(|&&k| k == key)
            .take(3)
            .count() as u8;
        Features {
            action,
            row_hit: matches!(
                decision.command.kind,
                CommandKind::Read { .. } | CommandKind::Write { .. }
            ),
            read_q_bucket: Self::bucket(ctx.read_q.len()),
            write_q_bucket: Self::bucket(ctx.write_q.len()),
            same_row_pending,
            age_bucket: Self::age_bucket(entry.age(ctx.now)),
            is_write_request: !entry.request.kind.is_read(),
        }
    }

    /// The offset in [`Self::memo`] of `features`' table indices, hashing
    /// them on the code's first use.
    fn memo_at(&mut self, features: &Features) -> usize {
        let at = features.code() * self.cfg.num_tables;
        let slots = &mut self.memo[at..at + self.cfg.num_tables];
        if slots[0] == 0 {
            for (t, slot) in slots.iter_mut().enumerate() {
                let mut hasher = DefaultHasher::new();
                t.hash(&mut hasher);
                features.hash(&mut hasher);
                *slot = ((hasher.finish() as usize) % self.cfg.table_size + 1) as u16;
            }
        }
        at
    }

    /// The Q estimate of the candidate whose indices are at `at` in
    /// [`Self::memo`]: the mean of its entries, summed in table order.
    fn q_value(&self, at: usize) -> f64 {
        self.memo[at..at + self.cfg.num_tables]
            .iter()
            .zip(&self.tables)
            .map(|(&slot, table)| table[usize::from(slot) - 1])
            .sum::<f64>()
            / self.cfg.num_tables as f64
    }

    /// Scores `features` and copies its table indices into
    /// [`Self::chosen_indices`], returning its Q estimate.
    fn score_chosen(&mut self, features: &Features) -> f64 {
        let at = self.memo_at(features);
        self.chosen_indices.clear();
        self.chosen_indices.extend(
            self.memo[at..at + self.cfg.num_tables]
                .iter()
                .map(|&slot| usize::from(slot) - 1),
        );
        self.q_value(at)
    }

    /// Takes `decision`, whose indices are in [`Self::chosen_indices`] and
    /// whose Q estimate is `q`: the SARSA update of the previous decision,
    /// then this one becomes the previous decision.
    fn commit(&mut self, decision: &SchedDecision, q: f64) -> SchedDecision {
        if let Some((indices, q_prev, reward)) = &self.prev {
            let delta = self.cfg.alpha * (reward + self.cfg.gamma * q - q_prev);
            for (t, &i) in indices.iter().enumerate() {
                self.tables[t][i] += delta;
            }
        }
        let reward = Self::reward_of(decision);
        match &mut self.prev {
            Some((indices, q_prev, r)) => {
                indices.clone_from(&self.chosen_indices);
                *q_prev = q;
                *r = reward;
            }
            None => self.prev = Some((self.chosen_indices.clone(), q, reward)),
        }
        self.decisions += 1;
        *decision
    }

    fn reward_of(decision: &SchedDecision) -> f64 {
        if decision.command.kind.is_column() {
            1.0
        } else {
            0.0
        }
    }

    /// Collects all commands that could legally issue this cycle into
    /// [`Self::candidates`], one per distinct command, first requester
    /// first, from both queues.
    fn collect_candidates(&mut self, ctx: &SchedContext<'_>) {
        self.candidates.clear();
        for entry in ctx.read_q.iter().chain(ctx.write_q.iter()) {
            if let Some(decision) = progress_for(entry, ctx) {
                if self
                    .candidates
                    .iter()
                    .any(|(_, seen)| seen.command == decision.command)
                {
                    continue;
                }
                let features = Self::features(ctx, entry, &decision);
                self.candidates.push((features, decision));
            }
        }
    }

    pub(crate) fn pick(&mut self, ctx: &SchedContext<'_>) -> Option<SchedDecision> {
        // Starvation guard: the oldest over-threshold request is served with
        // whatever command makes progress for it.
        let starved = ctx
            .read_q
            .iter()
            .chain(ctx.write_q.iter())
            .filter(|e| e.age(ctx.now) > self.cfg.starvation_threshold)
            .min_by_key(|e| e.enqueued_at);
        if let Some(entry) = starved {
            if let Some(d) = progress_for(entry, ctx) {
                let q = self.score_chosen(&Self::features(ctx, entry, &d));
                return Some(self.commit(&d, q));
            }
        }

        self.collect_candidates(ctx);
        if self.candidates.is_empty() {
            return None;
        }
        // The draws do not depend on the scores, so an exploratory pick
        // scores only the candidate it draws.
        let explore = self.rng.gen_bool(self.cfg.epsilon.clamp(0.0, 1.0));
        let (chosen, q) = if explore {
            self.exploratory_decisions += 1;
            let chosen = self.rng.gen_range(0..self.candidates.len());
            let features = self.candidates[chosen].0;
            (chosen, self.score_chosen(&features))
        } else {
            // The greedy choice, with `Iterator::max_by`'s tie rule: a later
            // candidate replaces the best unless the best scores strictly
            // higher.
            let mut best = (0, f64::NAN);
            for i in 0..self.candidates.len() {
                let features = self.candidates[i].0;
                let at = self.memo_at(&features);
                let q = self.q_value(at);
                if i == 0 || best.1.partial_cmp(&q) != Some(std::cmp::Ordering::Greater) {
                    best = (i, q);
                }
            }
            let features = self.candidates[best.0].0;
            (best.0, self.score_chosen(&features))
        };
        let decision = self.candidates[chosen].1;
        Some(self.commit(&decision, q))
    }
}

snap_fields! {
    RlScheduler {
        saved: {
            tables: fixed,
            rng: via(StdRng::state, StdRng::set_state),
            prev,
            decisions,
            exploratory_decisions,
        },
        skipped: {
            cfg: "config-derived",
            memo: "derived from the configuration on use",
            candidates: "pick scratch",
            chosen_indices: "pick scratch",
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
    use crate::sched::Scheduler;
    use cloudmc_dram::{Command, DramChannel, DramConfig, Location};

    fn push(q: &mut RequestQueue, id: u64, kind: AccessKind, bank: usize, row: u64, at: u64) {
        q.push(
            MemoryRequest::new(id, kind, 0, id as usize % 16, at),
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
        SchedContext::new(now, ch, rq, wq, banks, false, 16)
    }

    #[test]
    fn picks_a_legal_command_and_counts_decisions() {
        let cfg = DramConfig::baseline();
        let ch = DramChannel::new(&cfg);
        let mut rq = RequestQueue::new(8);
        let wq = RequestQueue::new(8);
        push(&mut rq, 1, AccessKind::Read, 0, 5, 0);
        let mut s = RlScheduler::new(RlConfig::default());
        let banks = BankTable::scan(&ch, &rq, &wq);
        let d = s.pick(&ctx(&ch, &rq, &wq, &banks, 0)).unwrap();
        assert_eq!(d.command, Command::activate(Location::new(0, 0, 5, 0)));
        assert!(ch.can_issue(&d.command, 0));
        assert_eq!(s.decisions(), 1);
    }

    #[test]
    fn considers_writes_without_write_mode() {
        let cfg = DramConfig::baseline();
        let ch = DramChannel::new(&cfg);
        let rq = RequestQueue::new(8);
        let mut wq = RequestQueue::new(8);
        push(&mut wq, 2, AccessKind::Write, 1, 7, 0);
        let mut s = Scheduler::Rl(RlScheduler::new(RlConfig::default()));
        assert!(s.manages_write_drain());
        let banks = BankTable::scan(&ch, &rq, &wq);
        let d = s.pick(&ctx(&ch, &rq, &wq, &banks, 0)).unwrap();
        assert_eq!(d.command, Command::activate(Location::new(0, 1, 7, 0)));
    }

    #[test]
    fn learning_reinforces_data_transfers() {
        let cfg = DramConfig::baseline();
        let mut ch = DramChannel::new(&cfg);
        ch.issue(&Command::activate(Location::new(0, 0, 5, 0)), 0);
        let mut rq = RequestQueue::new(8);
        let wq = RequestQueue::new(8);
        push(&mut rq, 1, AccessKind::Read, 0, 5, 0);
        let mut s = RlScheduler::new(RlConfig {
            epsilon: 0.0,
            ..RlConfig::default()
        });
        // Take the same rewarding decision repeatedly; its Q-value must grow.
        let banks = BankTable::scan(&ch, &rq, &wq);
        let c = ctx(&ch, &rq, &wq, &banks, cfg.timing.t_rcd);
        let d = s.pick(&c).unwrap();
        assert!(d.command.kind.is_read());
        let total_before: f64 = s.tables.iter().flatten().sum();
        for _ in 0..20 {
            let _ = s.pick(&c);
        }
        let total_after: f64 = s.tables.iter().flatten().sum();
        assert!(
            total_after > total_before,
            "repeated rewarded actions must increase Q mass ({total_before} -> {total_after})"
        );
    }

    #[test]
    fn exploration_rate_roughly_matches_epsilon() {
        let cfg = DramConfig::baseline();
        let ch = DramChannel::new(&cfg);
        let mut rq = RequestQueue::new(8);
        let wq = RequestQueue::new(8);
        push(&mut rq, 1, AccessKind::Read, 0, 5, 0);
        push(&mut rq, 2, AccessKind::Read, 1, 6, 0);
        let mut s = RlScheduler::new(RlConfig {
            epsilon: 0.5,
            ..RlConfig::default()
        });
        for _ in 0..400 {
            let banks = BankTable::scan(&ch, &rq, &wq);
            let _ = s.pick(&ctx(&ch, &rq, &wq, &banks, 0));
        }
        let rate = s.exploratory_decisions() as f64 / s.decisions() as f64;
        assert!((0.35..0.65).contains(&rate), "exploration rate {rate}");
    }

    #[test]
    fn starved_request_is_forced() {
        let cfg = DramConfig::baseline();
        let ch = DramChannel::new(&cfg);
        let mut rq = RequestQueue::new(8);
        let wq = RequestQueue::new(8);
        push(&mut rq, 1, AccessKind::Read, 0, 5, 0);
        push(&mut rq, 2, AccessKind::Read, 1, 6, 11_000);
        let mut s = RlScheduler::new(RlConfig::default());
        let banks = BankTable::scan(&ch, &rq, &wq);
        let d = s.pick(&ctx(&ch, &rq, &wq, &banks, 11_050)).unwrap();
        // Request 1 is 11050 cycles old (over the 10K threshold): forced first.
        assert_eq!(d.command, Command::activate(Location::new(0, 0, 5, 0)));
    }

    /// Every feature vector [`RlScheduler::features`] can build has its own
    /// code, and its memoised indices are the SipHash ones: a fresh
    /// `DefaultHasher` fed the table index, then the features.
    #[test]
    fn memo_codes_are_distinct_and_hold_the_sip_hash_indices() {
        let mut s = RlScheduler::new(RlConfig::default());
        let mut seen = vec![false; FEATURE_CODES];
        for action in 0..5u8 {
            for read_q_bucket in 0..7 {
                for write_q_bucket in 0..7 {
                    for same_row_pending in 0..4 {
                        for age_bucket in 0..5 {
                            for is_write_request in [false, true] {
                                let features = Features {
                                    action,
                                    row_hit: matches!(action, 2 | 3),
                                    read_q_bucket,
                                    write_q_bucket,
                                    same_row_pending,
                                    age_bucket,
                                    is_write_request,
                                };
                                let code = features.code();
                                assert!(!seen[code], "{features:?} shares code {code}");
                                seen[code] = true;
                                let at = s.memo_at(&features);
                                for t in 0..s.cfg.num_tables {
                                    let mut hasher = DefaultHasher::new();
                                    t.hash(&mut hasher);
                                    features.hash(&mut hasher);
                                    let index = (hasher.finish() as usize) % s.cfg.table_size;
                                    assert_eq!(usize::from(s.memo[at + t]) - 1, index);
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "every code is reachable");
    }

    #[test]
    fn empty_queues_return_none() {
        let cfg = DramConfig::baseline();
        let ch = DramChannel::new(&cfg);
        let rq = RequestQueue::new(8);
        let wq = RequestQueue::new(8);
        let mut s = RlScheduler::new(RlConfig::default());
        let banks = BankTable::scan(&ch, &rq, &wq);
        assert!(s.pick(&ctx(&ch, &rq, &wq, &banks, 0)).is_none());
    }

    #[test]
    #[should_panic(expected = "num_tables must be non-zero")]
    fn zero_tables_panics() {
        let _ = RlScheduler::new(RlConfig {
            num_tables: 0,
            ..RlConfig::default()
        });
    }
}
