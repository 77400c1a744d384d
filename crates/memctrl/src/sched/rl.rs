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

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use cloudmc_snap::{snap_fields, SnapError, SnapReader};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cloudmc_dram::{CommandKind, DramCycles};

use crate::queue::QueueEntry;
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
}

impl RlScheduler {
    /// Creates an RL scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `num_tables` or `table_size` is zero.
    #[must_use]
    pub fn new(cfg: RlConfig) -> Self {
        assert!(cfg.num_tables > 0, "num_tables must be non-zero");
        assert!(cfg.table_size > 0, "table_size must be non-zero");
        Self {
            tables: vec![vec![0.0; cfg.table_size]; cfg.num_tables],
            rng: StdRng::seed_from_u64(cfg.seed),
            prev: None,
            decisions: 0,
            exploratory_decisions: 0,
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

    fn features(
        &self,
        ctx: &SchedContext<'_>,
        entry: &QueueEntry,
        decision: &SchedDecision,
    ) -> Features {
        let action = match decision.command.kind {
            CommandKind::Activate => 0,
            CommandKind::Precharge => 1,
            CommandKind::Read { .. } => 2,
            CommandKind::Write { .. } => 3,
            CommandKind::Refresh => 4,
        };
        let loc = entry.location;
        let same_row_pending = (ctx.read_q.iter().chain(ctx.write_q.iter()))
            .filter(|e| {
                e.location.rank == loc.rank
                    && e.location.bank == loc.bank
                    && e.location.row == loc.row
            })
            .count()
            .min(3) as u8;
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

    fn table_indices(&self, features: &Features) -> Vec<usize> {
        (0..self.cfg.num_tables)
            .map(|t| {
                let mut hasher = DefaultHasher::new();
                t.hash(&mut hasher);
                features.hash(&mut hasher);
                (hasher.finish() as usize) % self.cfg.table_size
            })
            .collect()
    }

    fn q_value(&self, indices: &[usize]) -> f64 {
        indices
            .iter()
            .enumerate()
            .map(|(t, &i)| self.tables[t][i])
            .sum::<f64>()
            / self.cfg.num_tables as f64
    }

    /// SARSA update of the previous decision given the Q-value of the action
    /// just chosen.
    fn learn(&mut self, q_next: f64) {
        if let Some((indices, q_prev, reward)) = self.prev.take() {
            let delta = self.cfg.alpha * (reward + self.cfg.gamma * q_next - q_prev);
            for (t, &i) in indices.iter().enumerate() {
                self.tables[t][i] += delta;
            }
        }
    }

    fn reward_of(decision: &SchedDecision) -> f64 {
        if decision.command.kind.is_column() {
            1.0
        } else {
            0.0
        }
    }

    /// Collects all commands that could legally issue this cycle, one per
    /// pending request, from both queues.
    fn candidates<'q>(&self, ctx: &SchedContext<'q>) -> Vec<(&'q QueueEntry, SchedDecision)> {
        let mut seen_commands = Vec::new();
        let mut out = Vec::new();
        for entry in ctx.read_q.iter().chain(ctx.write_q.iter()) {
            if let Some(decision) = progress_for(entry, ctx) {
                if seen_commands.contains(&decision.command) {
                    continue;
                }
                seen_commands.push(decision.command);
                out.push((entry, decision));
            }
        }
        out
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
                let features = self.features(ctx, entry, &d);
                let indices = self.table_indices(&features);
                let q = self.q_value(&indices);
                self.learn(q);
                self.prev = Some((indices, q, Self::reward_of(&d)));
                self.decisions += 1;
                return Some(d);
            }
        }

        let candidates = self.candidates(ctx);
        if candidates.is_empty() {
            return None;
        }
        let scored: Vec<(Vec<usize>, f64, SchedDecision)> = candidates
            .iter()
            .map(|(entry, decision)| {
                let features = self.features(ctx, entry, decision);
                let indices = self.table_indices(&features);
                let q = self.q_value(&indices);
                (indices, q, *decision)
            })
            .collect();
        let explore = self.rng.gen_bool(self.cfg.epsilon.clamp(0.0, 1.0));
        let chosen = if explore {
            self.exploratory_decisions += 1;
            self.rng.gen_range(0..scored.len())
        } else {
            scored
                .iter()
                .enumerate()
                .max_by(|a, b| {
                    a.1 .1
                        .partial_cmp(&b.1 .1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(i, _)| i)
                .unwrap_or(0)
        };
        #[expect(clippy::expect_used, reason = "chosen is sampled modulo scored.len()")]
        let (indices, q, decision) = scored
            .into_iter()
            .nth(chosen)
            .expect("chosen index in range");
        self.learn(q);
        self.prev = Some((indices, q, Self::reward_of(&decision)));
        self.decisions += 1;
        Some(decision)
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
        skipped: { cfg: "config-derived" },
        after_load: Self::check_restored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        now: u64,
    ) -> SchedContext<'a> {
        SchedContext::new(now, ch, rq, wq, false, 16)
    }

    #[test]
    fn picks_a_legal_command_and_counts_decisions() {
        let cfg = DramConfig::baseline();
        let ch = DramChannel::new(&cfg);
        let mut rq = RequestQueue::new(8);
        let wq = RequestQueue::new(8);
        push(&mut rq, 1, AccessKind::Read, 0, 5, 0);
        let mut s = RlScheduler::new(RlConfig::default());
        let d = s.pick(&ctx(&ch, &rq, &wq, 0)).unwrap();
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
        let d = s.pick(&ctx(&ch, &rq, &wq, 0)).unwrap();
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
        let c = ctx(&ch, &rq, &wq, cfg.timing.t_rcd);
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
            let _ = s.pick(&ctx(&ch, &rq, &wq, 0));
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
        let d = s.pick(&ctx(&ch, &rq, &wq, 11_050)).unwrap();
        // Request 1 is 11050 cycles old (over the 10K threshold): forced first.
        assert_eq!(d.command, Command::activate(Location::new(0, 0, 5, 0)));
    }

    #[test]
    fn empty_queues_return_none() {
        let cfg = DramConfig::baseline();
        let ch = DramChannel::new(&cfg);
        let rq = RequestQueue::new(8);
        let wq = RequestQueue::new(8);
        let mut s = RlScheduler::new(RlConfig::default());
        assert!(s.pick(&ctx(&ch, &rq, &wq, 0)).is_none());
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
