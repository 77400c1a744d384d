//! Memory scheduling algorithms.
//!
//! A [`Scheduler`] is asked once per DRAM cycle (per channel) for the next
//! command to issue, given the pending request queues and the device state.
//! It is one enum with a variant per algorithm (Section 2.1 of the paper):
//!
//! * [`Scheduler::Fcfs`] — strict first-come-first-served (head-of-line
//!   blocking), [`fcfs::pick`].
//! * [`Scheduler::FcfsBanks`] — per-bank FCFS exploiting bank-level
//!   parallelism, [`fcfs::pick_banks`].
//! * [`Scheduler::FrFcfs`] — first-ready FCFS, the paper's baseline,
//!   [`frfcfs::pick`].
//! * [`Scheduler::ParBs`] — parallelism-aware batch scheduling
//!   ([`parbs::ParBs`]).
//! * [`Scheduler::Atlas`] — adaptive per-thread least-attained-service
//!   ([`atlas::Atlas`]).
//! * [`Scheduler::Rl`] — reinforcement-learning self-optimizing scheduler
//!   ([`rl::RlScheduler`]).
//!
//! # The pick contract
//!
//! A pick runs on every tick of a busy channel, so it costs what its
//! algorithm needs and nothing more: **at most one pass over the queues it
//! reads, no heap allocation, and a `wait` that covers every evaluated
//! candidate.** A pick that returns `None` has evaluated all of its
//! candidates, so [`SchedContext::wait`] bounds when any could issue.
//!
//! - A ranking scheduler tests each entry through [`progress_for`], names
//!   its priority as a key per entry and lets [`min_ready`] keep the least
//!   ready one (no sort). `FCFS_banks` walks the queue in arrival order,
//!   which already is its key order, through [`first_ready`].
//! - FR-FCFS ([`frfcfs::pick`]) checks legality **once per (bank, class)**
//!   from the channel's [`BankTable`]: every entry of one bank and class
//!   issues the same command kind at the same bank, so they share one
//!   legality, and its `wait` covers every (bank, class) it evaluated. It
//!   then reads only the winning entry.
//!
//! [`SchedContext::work`] counts what the picks read and checked.
//! Buffers a pick needs are allocated when the scheduler is built and
//! reused.

pub mod atlas;
pub mod fcfs;
pub mod frfcfs;
pub mod parbs;
pub mod rl;

use std::cell::Cell;

use cloudmc_dram::{Command, CommandKind, DramChannel, DramCycles};
use cloudmc_snap::{Snap, SnapError, SnapReader, SnapWriter};

use crate::bank_table::BankTable;
use crate::queue::{QueueEntry, RequestQueue};
use crate::request::{AccessKind, CompletedRequest, RequestId};

pub use atlas::{Atlas, AtlasConfig};
pub use parbs::{ParBs, ParBsConfig};
pub use rl::{RlConfig, RlScheduler};

/// Read-only view of one channel's controller state offered to schedulers.
#[derive(Debug)]
pub struct SchedContext<'a> {
    /// Current DRAM cycle.
    pub now: DramCycles,
    /// Device state of the channel.
    pub channel: &'a DramChannel,
    /// Pending reads.
    pub read_q: &'a RequestQueue,
    /// Pending writes (write-backs, DMA writes).
    pub write_q: &'a RequestQueue,
    /// The per-bank demand of both queues against the open rows.
    pub banks: &'a BankTable,
    /// Whether the controller is draining writes this cycle.
    pub write_mode: bool,
    /// Number of cores sharing the controller.
    pub num_cores: usize,
    /// The earliest cycle at which a candidate evaluated this cycle and
    /// found not ready becomes legal (`u64::MAX` until one is found):
    /// lowered by [`progress_for`], read by the controller after a pick that
    /// issued nothing.
    pub wait: Cell<DramCycles>,
    /// What the picks on this context read and checked: a host-side count,
    /// not simulated state.
    pub work: Cell<PickWork>,
}

impl<'a> SchedContext<'a> {
    /// A view of one channel at `now` with no wait bound yet.
    #[must_use]
    pub fn new(
        now: DramCycles,
        channel: &'a DramChannel,
        read_q: &'a RequestQueue,
        write_q: &'a RequestQueue,
        banks: &'a BankTable,
        write_mode: bool,
        num_cores: usize,
    ) -> Self {
        Self {
            now,
            channel,
            read_q,
            write_q,
            banks,
            write_mode,
            num_cores,
            wait: Cell::new(DramCycles::MAX),
            work: Cell::new(PickWork::default()),
        }
    }

    /// The queue the controller is currently serving (reads unless draining
    /// writes).
    #[must_use]
    pub fn active_queue(&self) -> &RequestQueue {
        if self.write_mode {
            self.write_q
        } else {
            self.read_q
        }
    }

    /// The access kind of the queue the controller is currently serving.
    #[must_use]
    pub fn active_kind(&self) -> AccessKind {
        if self.write_mode {
            AccessKind::Write
        } else {
            AccessKind::Read
        }
    }

    /// Adds to [`Self::work`].
    #[inline]
    pub fn add_work(&self, entries_read: u64, keys_read: u64, legality_checks: u64) {
        let mut work = self.work.get();
        work.entries_read += entries_read;
        work.keys_read += keys_read;
        work.legality_checks += legality_checks;
        self.work.set(work);
    }
}

/// Work the scheduler picks and the QoS arbiter did on a channel: queue
/// entries read, packed key words scanned and `earliest_legal` evaluations.
/// A deterministic, host-side count (never in a snapshot or in the
/// simulated statistics) of the cost a pick pays per tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PickWork {
    /// Full [`QueueEntry`] records read.
    pub entries_read: u64,
    /// Packed [`crate::queue::bank_row_key`] words scanned.
    pub keys_read: u64,
    /// Legality evaluations ([`DramChannel::earliest_legal`] calls).
    pub legality_checks: u64,
}

impl std::ops::AddAssign for PickWork {
    fn add_assign(&mut self, rhs: Self) {
        self.entries_read += rhs.entries_read;
        self.keys_read += rhs.keys_read;
        self.legality_checks += rhs.legality_checks;
    }
}

/// A command chosen by a scheduler, optionally completing a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedDecision {
    /// The DRAM command to issue this cycle.
    pub command: Command,
    /// The request this command completes (set only for the column access
    /// that transfers the request's data).
    pub request_id: Option<RequestId>,
}

/// The next command that serves `entry` from the channel's current row
/// state: its column access when the row is open, a precharge when another
/// row is open, an activate when the bank is idle. The one statement of this
/// rule, used by the schedulers (through [`progress_for`]) and by the
/// controller's event horizon.
#[must_use]
pub fn progress_command(entry: &QueueEntry, channel: &DramChannel) -> Command {
    let loc = entry.location;
    match channel.open_row(loc.rank, loc.bank) {
        Some(row) if row == loc.row => match entry.request.kind {
            AccessKind::Read => Command::read(loc, false),
            AccessKind::Write => Command::write(loc, false),
        },
        Some(_) => Command::precharge(loc),
        None => Command::activate(loc),
    }
}

/// The decision that makes progress on `entry` *this cycle*, if its
/// [`progress_command`] is legal now. Only the column access carries the
/// request id. The one legality test of every scheduler and the QoS
/// arbiter: a candidate that is not ready lowers [`SchedContext::wait`] to
/// the cycle its command becomes legal, so a pick that issues nothing
/// bounds when any candidate it evaluated can issue.
#[must_use]
pub fn progress_for(entry: &QueueEntry, ctx: &SchedContext<'_>) -> Option<SchedDecision> {
    ctx.add_work(1, 0, 1);
    let command = progress_command(entry, ctx.channel);
    let legal = ctx.channel.earliest_legal(&command)?;
    if legal > ctx.now || !ctx.channel.command_bus_free(ctx.now) {
        ctx.wait.set(ctx.wait.get().min(legal));
        return None;
    }
    Some(SchedDecision {
        command,
        request_id: command.kind.is_column().then_some(entry.request.id),
    })
}

/// Picks the first entry (by the iteration order of `entries`) for which a
/// column command is ready, then the first for which an activate is ready,
/// then the first for which a precharge is ready.
///
/// This is the work-conserving "first ready" skeleton shared by FR-FCFS and
/// the ranking schedulers; they differ only in how `entries` is ordered.
#[must_use]
pub fn first_ready<'a, I>(entries: I, ctx: &SchedContext<'_>) -> Option<SchedDecision>
where
    I: IntoIterator<Item = &'a QueueEntry>,
{
    let mut best_activate = None;
    let mut best_precharge = None;
    for decision in entries.into_iter().filter_map(|e| progress_for(e, ctx)) {
        match decision.command.kind {
            CommandKind::Activate => {
                best_activate.get_or_insert(decision);
            }
            CommandKind::Precharge => {
                best_precharge.get_or_insert(decision);
            }
            // A column access: a ready data transfer wins outright.
            _ => return Some(decision),
        }
    }
    best_activate.or(best_precharge)
}

/// Rank of a ready command in the first-ready order: a column access, then
/// an activate, then a precharge.
fn ready_class(kind: CommandKind) -> u8 {
    match kind {
        CommandKind::Activate => 1,
        CommandKind::Precharge => 2,
        _ => 0,
    }
}

/// The one-pass pick of the ranking schedulers. Each candidate comes with a
/// `group` (`false` first) and an `order` within it, and the pick is the
/// ready decision with the least `(group, class, order)`, where the class
/// puts a column access before an activate before a precharge.
///
/// That is what sorting the candidates by `(group, order)` and running
/// [`first_ready`] over each group in turn returns, without the sort or a
/// buffer. Keys must be unique. A candidate whose best possible key (a
/// ready column access) cannot beat the current best is not evaluated; the
/// pick then issues, so [`SchedContext::wait`] is not read. A pick that
/// returns `None` has evaluated every candidate.
#[must_use]
pub fn min_ready<'a, K, I>(candidates: I, ctx: &SchedContext<'_>) -> Option<SchedDecision>
where
    K: Ord,
    I: IntoIterator<Item = (bool, K, &'a QueueEntry)>,
{
    let mut best: Option<(bool, u8, K, SchedDecision)> = None;
    for (group, order, entry) in candidates {
        let beats = |class: u8, best: &Option<(bool, u8, K, SchedDecision)>| {
            best.as_ref()
                .is_none_or(|(g, c, o, _)| (group, class, &order) < (*g, *c, o))
        };
        if !beats(0, &best) {
            continue;
        }
        if let Some(decision) = progress_for(entry, ctx) {
            let class = ready_class(decision.command.kind);
            if beats(class, &best) {
                best = Some((group, class, order, decision));
            }
        }
    }
    best.map(|(_, _, _, decision)| decision)
}

/// A memory scheduling algorithm: one variant per algorithm, each method a
/// `match` over them.
///
/// The controller consults its scheduler once per DRAM cycle per channel, so
/// dispatch sits on the hottest path of the whole simulator: every method
/// compiles to a jump table over inlined bodies rather than virtual calls.
#[derive(Debug)]
pub enum Scheduler {
    /// Strict first-come-first-served ([`fcfs::pick`]).
    Fcfs,
    /// Per-bank FCFS, the paper's `FCFS_banks` ([`fcfs::pick_banks`]).
    FcfsBanks,
    /// First-ready FCFS, the paper's baseline ([`frfcfs::pick`]).
    FrFcfs,
    /// Parallelism-aware batch scheduling.
    ParBs(ParBs),
    /// Adaptive per-thread least-attained-service.
    Atlas(Atlas),
    /// The reinforcement-learning scheduler.
    Rl(RlScheduler),
}

impl Scheduler {
    /// Chooses the command to issue this cycle, if any.
    ///
    /// Every candidate is tested through [`progress_for`], so a pick that
    /// returns `None` has left in [`SchedContext::wait`] the earliest cycle
    /// at which any candidate it evaluated becomes legal. Until then, with
    /// queues and device state unchanged, the same pick issues nothing: the
    /// controller skips the channel to that cycle.
    #[inline]
    pub fn pick(&mut self, ctx: &SchedContext<'_>) -> Option<SchedDecision> {
        match self {
            Self::Fcfs => fcfs::pick(ctx),
            Self::FcfsBanks => fcfs::pick_banks(ctx),
            Self::FrFcfs => frfcfs::pick(ctx),
            Self::ParBs(s) => s.pick(ctx),
            Self::Atlas(s) => s.pick(ctx),
            Self::Rl(s) => s.pick(ctx),
        }
    }

    /// Observes a completed request.
    #[inline]
    pub fn on_complete(&mut self, done: &CompletedRequest) {
        match self {
            Self::ParBs(s) => s.on_complete(done),
            Self::Atlas(s) => s.on_complete(done),
            _ => {}
        }
    }

    /// Called once per cycle before `pick` (for quantum/bookkeeping updates).
    ///
    /// The simulation kernel may *skip* provably eventless cycles, so this is
    /// not guaranteed to run at every cycle: implementations must be written
    /// in catch-up style (`while now >= boundary { ... }`) so that one call
    /// at a later `now` leaves the scheduler in the same state as a call per
    /// cycle would have. Work that must happen at an exact cycle relative to
    /// request completions must additionally be announced through
    /// [`Scheduler::next_due`] so the kernel never skips past it.
    #[inline]
    pub fn on_cycle(&mut self, ctx: &SchedContext<'_>) {
        if let Self::Atlas(s) = self {
            s.on_cycle(ctx);
        }
    }

    /// The next cycle at which this scheduler changes state *on its own*
    /// (e.g. a ranking-quantum boundary), independent of queue contents,
    /// under the next-due contract stated in `cloudmc-sim`'s `kernel`
    /// module. `u64::MAX` is a scheduler with no time-driven state of its
    /// own.
    #[inline]
    #[must_use]
    pub fn next_due(&self) -> DramCycles {
        match self {
            Self::Atlas(s) => s.next_due(),
            _ => DramCycles::MAX,
        }
    }

    /// Whether the scheduler handles the read/write interleaving itself.
    ///
    /// When `false` the controller drains writes using high/low watermarks
    /// on the write queue and the scheduler only sees the active queue. The
    /// RL scheduler returns `true` and freely mixes reads and writes.
    #[inline]
    #[must_use]
    pub fn manages_write_drain(&self) -> bool {
        matches!(self, Self::Rl(_))
    }
}

impl Snap for Scheduler {
    const MIN_BYTES: usize = 0;

    fn save(&self, w: &mut SnapWriter) {
        match self {
            Self::Fcfs | Self::FcfsBanks | Self::FrFcfs => {}
            Self::ParBs(s) => s.save(w),
            Self::Atlas(s) => s.save(w),
            Self::Rl(s) => s.save(w),
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        match self {
            Self::Fcfs | Self::FcfsBanks | Self::FrFcfs => Ok(()),
            Self::ParBs(s) => s.load(r),
            Self::Atlas(s) => s.load(r),
            Self::Rl(s) => s.load(r),
        }
    }
}

/// Identifier for constructing schedulers by name, with the per-algorithm
/// parameters of Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerKind {
    /// Strict first-come-first-served over a single queue.
    Fcfs,
    /// Per-bank FCFS (the paper's `FCFS_banks`).
    FcfsBanks,
    /// First-ready FCFS (the paper's baseline).
    FrFcfs,
    /// Parallelism-aware batch scheduling.
    ParBs(ParBsConfig),
    /// Adaptive per-thread least-attained-service scheduling.
    Atlas(AtlasConfig),
    /// Reinforcement-learning scheduler.
    Rl(RlConfig),
}

impl SchedulerKind {
    /// The five algorithms compared in Figures 1–7, with Table 3 parameters.
    #[must_use]
    pub fn paper_set() -> [Self; 5] {
        [
            Self::FrFcfs,
            Self::FcfsBanks,
            Self::ParBs(ParBsConfig::default()),
            Self::Atlas(AtlasConfig::default()),
            Self::Rl(RlConfig::default()),
        ]
    }

    /// Every implemented algorithm: strict FCFS, then [`Self::paper_set`].
    #[must_use]
    pub fn all() -> [Self; 6] {
        let [a, b, c, d, e] = Self::paper_set();
        [Self::Fcfs, a, b, c, d, e]
    }

    /// Instantiates the scheduler the controller holds.
    #[must_use]
    pub fn build(self, num_cores: usize) -> Scheduler {
        match self {
            Self::Fcfs => Scheduler::Fcfs,
            Self::FcfsBanks => Scheduler::FcfsBanks,
            Self::FrFcfs => Scheduler::FrFcfs,
            Self::ParBs(cfg) => Scheduler::ParBs(ParBs::new(cfg, num_cores)),
            Self::Atlas(cfg) => Scheduler::Atlas(Atlas::new(cfg, num_cores)),
            Self::Rl(cfg) => Scheduler::Rl(RlScheduler::new(cfg)),
        }
    }

    /// Checks the algorithm's parameters: an ATLAS quantum of at least one
    /// cycle, and RL table dimensions within [`RlConfig::MAX_TABLES`] and
    /// [`RlConfig::MAX_TABLE_SIZE`].
    ///
    /// # Errors
    ///
    /// Returns a description naming the first out-of-range field and its
    /// value.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Self::Atlas(cfg) if cfg.quantum == 0 => {
                Err("ATLAS quantum (0) must be at least 1".to_owned())
            }
            Self::Rl(cfg) => {
                for (name, value, max) in [
                    ("num_tables", cfg.num_tables, RlConfig::MAX_TABLES),
                    ("table_size", cfg.table_size, RlConfig::MAX_TABLE_SIZE),
                ] {
                    if !(1..=max).contains(&value) {
                        return Err(format!("RL {name} ({value}) must be in 1..={max}"));
                    }
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Canonical short name used in figures.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Fcfs => "FCFS",
            Self::FcfsBanks => "FCFS_Banks",
            Self::FrFcfs => "FR-FCFS",
            Self::ParBs(_) => "PAR-BS",
            Self::Atlas(_) => "ATLAS",
            Self::Rl(_) => "RL",
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for SchedulerKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "fcfs" => Ok(Self::Fcfs),
            "fcfs_banks" | "fcfs-banks" => Ok(Self::FcfsBanks),
            "fr-fcfs" | "frfcfs" => Ok(Self::FrFcfs),
            "par-bs" | "parbs" => Ok(Self::ParBs(ParBsConfig::default())),
            "atlas" => Ok(Self::Atlas(AtlasConfig::default())),
            "rl" => Ok(Self::Rl(RlConfig::default())),
            other => Err(format!("unknown scheduler `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::MemoryRequest;
    use cloudmc_dram::{DramConfig, Location};

    fn fixture() -> (DramChannel, RequestQueue, RequestQueue) {
        let cfg = DramConfig::baseline();
        (
            DramChannel::new(&cfg),
            RequestQueue::new(16),
            RequestQueue::new(16),
        )
    }

    fn entry(id: u64, kind: AccessKind, rank: usize, bank: usize, row: u64) -> QueueEntry {
        QueueEntry {
            request: MemoryRequest::new(id, kind, 0, 0, 0),
            location: Location::new(rank, bank, row, 0),
            enqueued_at: 0,
        }
    }

    #[test]
    fn progress_for_idle_bank_is_activate() {
        let (ch, rq, wq) = fixture();
        let banks = BankTable::scan(&ch, &rq, &wq);
        let ctx = SchedContext::new(0, &ch, &rq, &wq, &banks, false, 16);
        let e = entry(1, AccessKind::Read, 0, 0, 5);
        let d = progress_for(&e, &ctx).unwrap();
        assert_eq!(d.request_id, None);
        assert_eq!(d.command, Command::activate(e.location));
    }

    #[test]
    fn progress_for_open_row_is_column_with_request_id() {
        let (mut ch, rq, wq) = fixture();
        ch.issue(&Command::activate(Location::new(0, 0, 5, 0)), 0);
        let now = ch.timing().t_rcd;
        let banks = BankTable::scan(&ch, &rq, &wq);
        let ctx = SchedContext::new(now, &ch, &rq, &wq, &banks, false, 16);
        let e = entry(9, AccessKind::Write, 0, 0, 5);
        let d = progress_for(&e, &ctx).unwrap();
        assert_eq!(d.request_id, Some(9));
        assert!(d.command.kind.is_write());
        assert_eq!(
            ch.open_row(e.location.rank, e.location.bank),
            Some(e.location.row)
        );
    }

    #[test]
    fn progress_for_conflict_is_precharge_after_tras() {
        let (mut ch, rq, wq) = fixture();
        ch.issue(&Command::activate(Location::new(0, 0, 5, 0)), 0);
        let e = entry(2, AccessKind::Read, 0, 0, 9);
        let t_ras = ch.timing().t_ras;
        let banks = BankTable::scan(&ch, &rq, &wq);
        let early = SchedContext::new(1, &ch, &rq, &wq, &banks, false, 16);
        assert_eq!(progress_for(&e, &early), None);
        assert_eq!(
            early.wait.get(),
            t_ras,
            "a blocked candidate bounds the wait"
        );
        let banks = BankTable::scan(&ch, &rq, &wq);
        let late = SchedContext::new(t_ras, &ch, &rq, &wq, &banks, false, 16);
        let d = progress_for(&e, &late).unwrap();
        assert_eq!(d.command, Command::precharge(e.location));
        assert_eq!(d.request_id, None);
    }

    #[test]
    fn first_ready_prefers_column_over_activate() {
        let (mut ch, rq, wq) = fixture();
        ch.issue(&Command::activate(Location::new(0, 0, 5, 0)), 0);
        let now = ch.timing().t_rcd;
        let banks = BankTable::scan(&ch, &rq, &wq);
        let ctx = SchedContext::new(now, &ch, &rq, &wq, &banks, false, 16);
        // Oldest entry needs an activate, a younger one is a ready hit.
        let miss = entry(1, AccessKind::Read, 0, 1, 7);
        let hit = entry(2, AccessKind::Read, 0, 0, 5);
        let picked = first_ready([&miss, &hit], &ctx).unwrap();
        assert_eq!(picked.request_id, Some(2));
    }

    #[test]
    fn active_queue_follows_write_mode() {
        let (ch, mut rq, mut wq) = fixture();
        rq.push(
            MemoryRequest::new(1, AccessKind::Read, 0, 0, 0),
            Location::new(0, 0, 0, 0),
            0,
        )
        .unwrap();
        wq.push(
            MemoryRequest::new(2, AccessKind::Write, 0, 0, 0),
            Location::new(0, 0, 0, 0),
            0,
        )
        .unwrap();
        let banks = BankTable::scan(&ch, &rq, &wq);
        let read_ctx = SchedContext::new(0, &ch, &rq, &wq, &banks, false, 16);
        assert_eq!(read_ctx.active_queue().oldest().unwrap().request.id, 1);
        let write_ctx = SchedContext {
            write_mode: true,
            ..read_ctx
        };
        assert_eq!(write_ctx.active_queue().oldest().unwrap().request.id, 2);
    }

    /// Differential tests of the one-pass picks against the sort-based
    /// picks they replaced (`ParBs::pick_reference`,
    /// `Atlas::pick_reference`, `fcfs::pick_banks_reference`), and of the
    /// per-bank FR-FCFS pick against [`first_ready`] over the queue: the
    /// same decision on every pick, and the same wait bound when nothing
    /// issues.
    mod oracle {
        use super::*;
        use crate::request::RowBufferOutcome;
        use cloudmc_dram::PowerDownMode;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// A baseline channel after random progress commands: rows open and
        /// closed, activate, column and precharge fences pending, and now
        /// and then rank 1 powered down.
        fn random_channel(rng: &mut StdRng) -> (DramChannel, DramCycles) {
            let mut ch = DramChannel::new(&DramConfig::baseline());
            let mut now = 0;
            for _ in 0..rng.gen_range(0..48usize) {
                now += rng.gen_range(0..10u64);
                let loc = Location::new(
                    rng.gen_range(0..2usize),
                    rng.gen_range(0..8usize),
                    rng.gen_range(0..3u64),
                    0,
                );
                let cmd = match ch.open_row(loc.rank, loc.bank) {
                    Some(row) if row == loc.row && rng.gen_bool(0.5) => Command::read(loc, false),
                    Some(row) if row == loc.row => Command::write(loc, false),
                    Some(_) => Command::precharge(loc),
                    None => Command::activate(loc),
                };
                if ch.can_issue(&cmd, now) {
                    ch.issue(&cmd, now);
                }
            }
            if rng.gen_bool(0.2) && ch.can_enter_power_down(1, PowerDownMode::Fast, now) {
                ch.enter_power_down(1, PowerDownMode::Fast, now);
            }
            (ch, now + rng.gen_range(0..20u64))
        }

        fn reference_pick(s: &mut Scheduler, ctx: &SchedContext<'_>) -> Option<SchedDecision> {
            match s {
                Scheduler::FrFcfs => first_ready(ctx.active_queue().iter(), ctx),
                Scheduler::FcfsBanks => fcfs::pick_banks_reference(ctx),
                Scheduler::ParBs(p) => p.pick_reference(ctx),
                Scheduler::Atlas(a) => a.pick_reference(ctx),
                other => unreachable!("no reference pick for {other:?}"),
            }
        }

        /// Drives a fresh pair of `kind` schedulers through random arrivals,
        /// picks and completions on one evolving channel, 1–16 cores, in and
        /// out of write mode, now and then picking again on the cycle of the
        /// last issue (a busy command bus). Counts `[column, activate,
        /// precharge, none, busy bus]` picks into `seen`.
        fn run_case(rng: &mut StdRng, kind: SchedulerKind, seen: &mut [usize; 5]) {
            let num_cores = rng.gen_range(1..17usize);
            let mut new = kind.build(num_cores);
            let mut reference = kind.build(num_cores);
            let (mut ch, mut now) = random_channel(rng);
            let mut rq = RequestQueue::new(48);
            let mut wq = RequestQueue::new(48);
            let mut arrivals = 0u64;
            for _ in 0..rng.gen_range(10..60usize) {
                for _ in 0..rng.gen_range(0..4usize) {
                    // Unique ids whose order differs from arrival order.
                    let id = arrivals.wrapping_mul(2_654_435_761) % (1 << 32);
                    arrivals += 1;
                    let write = rng.gen_bool(0.35);
                    let access = if write {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    // Arrival ties, and now and then an older arrival
                    // cycle (a retried request keeps its own).
                    let at = if rng.gen_bool(0.15) {
                        rng.gen_range(0..now + 1)
                    } else {
                        now
                    };
                    let core = rng.gen_range(0..num_cores + 1);
                    let loc = Location::new(
                        rng.gen_range(0..2usize),
                        rng.gen_range(0..8usize),
                        rng.gen_range(0..3u64),
                        rng.gen_range(0..4u64),
                    );
                    let q = if write { &mut wq } else { &mut rq };
                    let _ = q.push(MemoryRequest::new(id, access, 0, core, at), loc, at);
                }
                let write_mode = rng.gen_bool(0.3);
                seen[4] += usize::from(!ch.command_bus_free(now));
                let banks = BankTable::scan(&ch, &rq, &wq);
                let got_ctx = SchedContext::new(now, &ch, &rq, &wq, &banks, write_mode, num_cores);
                let want_ctx = SchedContext::new(now, &ch, &rq, &wq, &banks, write_mode, num_cores);
                new.on_cycle(&got_ctx);
                reference.on_cycle(&want_ctx);
                let got = new.pick(&got_ctx);
                let want = reference_pick(&mut reference, &want_ctx);
                assert_eq!(got, want, "{kind} at {now}");
                let Some(decision) = got else {
                    assert_eq!(got_ctx.wait.get(), want_ctx.wait.get(), "{kind} wait");
                    seen[3] += 1;
                    now += rng.gen_range(1..8u64);
                    continue;
                };
                seen[usize::from(ready_class(decision.command.kind))] += 1;
                ch.issue(&decision.command, now);
                if let Some(id) = decision.request_id {
                    let entry = rq.remove(id).or_else(|| wq.remove(id)).unwrap();
                    let done = CompletedRequest {
                        request: entry.request,
                        channel: 0,
                        location: entry.location,
                        issue: now,
                        completion: now + 20,
                        outcome: RowBufferOutcome::Hit,
                        retries: 0,
                    };
                    new.on_complete(&done);
                    reference.on_complete(&done);
                }
                now += rng.gen_range(0..8u64);
            }
        }

        fn differential(seed: u64, kind: impl Fn(&mut StdRng) -> SchedulerKind) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut seen = [0; 5];
            for _ in 0..300 {
                let kind = kind(&mut rng);
                run_case(&mut rng, kind, &mut seen);
            }
            assert!(
                seen.iter().all(|&n| n > 0),
                "a decision class was never exercised: {seen:?}"
            );
        }

        #[test]
        fn parbs_one_pass_pick_matches_the_sorted_pick() {
            differential(0x9A4B5, |rng| {
                SchedulerKind::ParBs(ParBsConfig {
                    batching_cap: rng.gen_range(1..9usize),
                })
            });
        }

        #[test]
        fn atlas_one_pass_pick_matches_the_sorted_pick() {
            differential(0xA71A5, |rng| {
                SchedulerKind::Atlas(AtlasConfig {
                    quantum: rng.gen_range(1..60u64),
                    alpha: 0.875,
                    starvation_threshold: rng.gen_range(0..40u64),
                })
            });
        }

        #[test]
        fn fcfs_banks_mask_pick_matches_the_collected_pick() {
            differential(0xFCF5, |_| SchedulerKind::FcfsBanks);
        }

        #[test]
        fn frfcfs_bank_pick_matches_first_ready() {
            differential(0xF4FC, |_| SchedulerKind::FrFcfs);
        }
    }

    #[test]
    fn scheduler_kind_labels_and_parsing() {
        for kind in SchedulerKind::all() {
            let mut s = kind.build(16);
            let (ch, rq, wq) = fixture();
            let banks = BankTable::scan(&ch, &rq, &wq);
            let ctx = SchedContext::new(0, &ch, &rq, &wq, &banks, false, 16);
            // Empty queues: every scheduler must return None.
            assert!(
                s.pick(&ctx).is_none(),
                "{kind} returned work for empty queues"
            );
        }
        assert_eq!(
            "fr-fcfs".parse::<SchedulerKind>().unwrap().label(),
            "FR-FCFS"
        );
        assert_eq!("atlas".parse::<SchedulerKind>().unwrap().label(), "ATLAS");
        assert!("nope".parse::<SchedulerKind>().is_err());
    }
}
