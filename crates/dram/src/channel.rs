//! The per-channel DRAM device model.
//!
//! A [`DramChannel`] owns the ranks and banks behind one memory channel and
//! enforces every timing constraint of the model when commands are issued.
//! Issuing a command moves the fences it sets: bank-level
//! (tRCD/tRAS/tRP/tRC/tRTP/tWR in [`crate::bank::Bank`]), rank-level
//! (tRRD/tFAW/tWTR/tRFC in [`crate::rank::Rank`]) and channel-level (data-bus
//! occupancy, read/write turnaround, tRTRS). [`DramChannel::earliest_legal`]
//! is the one place those fences are combined into a command's legality;
//! [`DramChannel::can_issue`] adds only the one-command-per-cycle bus rule.

use cloudmc_snap::{counter_fields, snap_fields, snap_unit_enum, SnapError, SnapReader};

use crate::bank::Bank;
use crate::command::{Command, CommandKind, IssueOutcome};
use crate::config::{DramConfig, Location};
use crate::rank::{PowerDownMode, PowerState, Rank};
use crate::timing::{DramCycles, TimingParams};

/// Direction of the last data burst on the channel's data bus.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum BusDirection {
    #[default]
    Read,
    Write,
}

/// Event and utilization counters for one channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// ACTIVATE commands issued.
    pub activates: u64,
    /// PRECHARGE commands issued (explicit and auto-precharge).
    pub precharges: u64,
    /// READ commands issued.
    pub reads: u64,
    /// WRITE commands issued.
    pub writes: u64,
    /// REFRESH commands issued.
    pub refreshes: u64,
    /// DRAM cycles during which the data bus carried a burst.
    pub data_bus_busy_cycles: u64,
    /// Rank-cycles spent in active standby (at least one open row), summed
    /// over the channel's ranks. Only populated by
    /// [`DramChannel::stats_at`]; the live counter view
    /// ([`DramChannel::stats`]) reports command counts only.
    pub active_standby_cycles: u64,
    /// Rank-cycles spent in precharge standby (CKE high, all banks closed).
    pub precharge_standby_cycles: u64,
    /// Rank-cycles spent in fast-exit power-down.
    pub power_down_fast_cycles: u64,
    /// Rank-cycles spent in slow-exit power-down.
    pub power_down_slow_cycles: u64,
    /// Rank-cycles spent in self-refresh.
    pub self_refresh_cycles: u64,
    /// Power-down entries (fast or slow, counted once per standby departure).
    pub power_down_entries: u64,
    /// Self-refresh entries.
    pub self_refresh_entries: u64,
    /// Power-down exits (wakes).
    pub power_wakes: u64,
}

impl ChannelStats {
    /// Data-bus utilization over `elapsed` DRAM cycles (0.0–1.0).
    #[must_use]
    pub fn bus_utilization(&self, elapsed: DramCycles) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.data_bus_busy_cycles as f64 / elapsed as f64
        }
    }

    /// Total rank-cycles accounted across all power states. Equals
    /// `elapsed_cycles * rank_count` when read through
    /// [`DramChannel::stats_at`].
    #[must_use]
    pub fn state_residency_cycles(&self) -> u64 {
        self.active_standby_cycles
            + self.precharge_standby_cycles
            + self.power_down_fast_cycles
            + self.power_down_slow_cycles
            + self.self_refresh_cycles
    }

    /// Rank-cycles spent in any CKE-low state (power-down or self-refresh).
    #[must_use]
    pub fn powered_down_cycles(&self) -> u64 {
        self.power_down_fast_cycles + self.power_down_slow_cycles + self.self_refresh_cycles
    }

    /// Fraction of the accounted rank-cycles spent in any CKE-low state
    /// (0.0–1.0).
    #[must_use]
    pub fn power_down_fraction(&self) -> f64 {
        self.residency_share(self.powered_down_cycles())
    }

    /// Fraction of the accounted rank-cycles spent in self-refresh (0.0–1.0).
    #[must_use]
    pub fn self_refresh_fraction(&self) -> f64 {
        self.residency_share(self.self_refresh_cycles)
    }

    fn residency_share(&self, cycles: u64) -> f64 {
        match self.state_residency_cycles() {
            0 => 0.0,
            total => cycles as f64 / total as f64,
        }
    }
}

/// One event on a channel's command bus or CKE pins, as recorded by
/// [`DramChannel::record_commands`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogEvent {
    /// A command issued on the command bus.
    Command(Command),
    /// CKE dropped for `rank`, or the powered-down rank deepened, into
    /// `mode`.
    PowerDown {
        /// The rank.
        rank: usize,
        /// The low-power state entered.
        mode: PowerDownMode,
    },
    /// CKE raised for `rank`: its exit from power-down begins.
    Wake {
        /// The rank.
        rank: usize,
    },
}

/// Cycle-accurate model of one DRAM channel (ranks, banks, buses).
///
/// # Examples
///
/// ```
/// use cloudmc_dram::{Command, DramChannel, DramConfig, Location};
///
/// let cfg = DramConfig::baseline();
/// let mut ch = DramChannel::new(&cfg);
/// let loc = Location::new(0, 0, 100, 3);
///
/// assert!(ch.can_issue(&Command::activate(loc), 0));
/// ch.issue(&Command::activate(loc), 0);
/// let ready = cfg.timing.t_rcd;
/// assert!(ch.can_issue(&Command::read(loc, false), ready));
/// let outcome = ch.issue(&Command::read(loc, false), ready);
/// assert_eq!(outcome.completion_cycle, ready + cfg.timing.cl + cfg.timing.t_burst);
/// ```
#[derive(Debug, Clone)]
pub struct DramChannel {
    timing: TimingParams,
    banks_per_rank: usize,
    rows_per_bank: u64,
    columns_per_row: u64,
    refresh_enabled: bool,
    ranks: Vec<Rank>,
    /// Cycle at which the data bus becomes free after the last burst.
    bus_free_at: DramCycles,
    last_burst_rank: Option<usize>,
    last_burst_direction: Option<BusDirection>,
    /// Cycle of the most recent command on the command bus.
    last_cmd_cycle: Option<DramCycles>,
    stats: ChannelStats,
    /// Every command and CKE transition with its cycle, in issue order,
    /// once [`Self::record_commands`] turned recording on. Host-only: no
    /// snapshot holds it.
    log: Option<Vec<(DramCycles, LogEvent)>>,
}

impl DramChannel {
    /// Builds one channel according to `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` does not validate.
    #[must_use]
    pub fn new(config: &DramConfig) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "documented constructor contract: config must validate"
        )]
        config
            .validate()
            .expect("invalid DRAM configuration passed to DramChannel::new");
        Self {
            timing: config.timing,
            banks_per_rank: config.banks_per_rank,
            rows_per_bank: config.rows_per_bank,
            columns_per_row: config.columns_per_row(),
            refresh_enabled: config.refresh_enabled,
            ranks: (0..config.ranks_per_channel)
                .map(|_| Rank::new(config.banks_per_rank, &config.timing))
                .collect(),
            bus_free_at: 0,
            last_burst_rank: None,
            last_burst_direction: None,
            last_cmd_cycle: None,
            stats: ChannelStats::default(),
            log: None,
        }
    }

    /// Starts recording every command and CKE transition of this channel
    /// into [`Self::command_log`]: a hook for protocol checkers, off by
    /// default.
    #[doc(hidden)]
    pub fn record_commands(&mut self) {
        self.log.get_or_insert_with(Vec::new);
    }

    /// The `(cycle, event)` record since [`Self::record_commands`], in
    /// issue order; `None` while recording is off.
    #[doc(hidden)]
    #[must_use]
    pub fn command_log(&self) -> Option<&[(DramCycles, LogEvent)]> {
        self.log.as_deref()
    }

    fn note(&mut self, now: DramCycles, event: LogEvent) {
        if let Some(log) = &mut self.log {
            log.push((now, event));
        }
    }

    /// Timing parameters in effect.
    #[must_use]
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// Number of ranks on this channel.
    #[must_use]
    pub fn rank_count(&self) -> usize {
        self.ranks.len()
    }

    /// Number of banks per rank.
    #[must_use]
    pub fn banks_per_rank(&self) -> usize {
        self.banks_per_rank
    }

    /// Event counters collected so far (command counts only; the power-state
    /// residency fields are zero — use [`Self::stats_at`] for those).
    #[must_use]
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Event counters plus power-state residency accrued up to `now`.
    ///
    /// Residency is read in closed form from each rank's transition history,
    /// so the result is exact — and bit-identical between a cycle-by-cycle
    /// run and a fast-forwarding run — at any observation cycle. The
    /// residency fields sum to `now * rank_count`.
    #[must_use]
    pub fn stats_at(&self, now: DramCycles) -> ChannelStats {
        let mut stats = self.stats;
        for rank in &self.ranks {
            let r = rank.residency_at(now);
            stats.active_standby_cycles += r.active_standby;
            stats.precharge_standby_cycles += r.precharge_standby;
            stats.power_down_fast_cycles += r.power_down_fast;
            stats.power_down_slow_cycles += r.power_down_slow;
            stats.self_refresh_cycles += r.self_refresh;
            stats.power_down_entries += rank.power_down_entries();
            stats.self_refresh_entries += rank.self_refresh_entries();
            stats.power_wakes += rank.power_wakes();
        }
        stats
    }

    /// Row currently open in (`rank`, `bank`), if any.
    ///
    /// # Panics
    ///
    /// Panics if the rank or bank index is out of range.
    #[must_use]
    pub fn open_row(&self, rank: usize, bank: usize) -> Option<u64> {
        self.ranks[rank].bank(bank).open_row()
    }

    /// Number of column accesses the open row of (`rank`, `bank`) has served.
    #[must_use]
    pub fn accesses_since_activate(&self, rank: usize, bank: usize) -> u64 {
        self.ranks[rank].bank(bank).accesses_since_activate()
    }

    /// Immutable access to a rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    #[must_use]
    pub fn rank(&self, rank: usize) -> &Rank {
        &self.ranks[rank]
    }

    /// The first rank with an overdue refresh, if refresh is enabled.
    #[must_use]
    pub fn refresh_due(&self, now: DramCycles) -> Option<usize> {
        if !self.refresh_enabled {
            return None;
        }
        self.ranks.iter().position(|r| r.refresh_due(now))
    }

    /// Whether `loc` addresses a cell of this channel — the non-panicking
    /// form of the bounds every command is asserted against, for callers
    /// validating locations that arrive from outside (a snapshot image).
    #[must_use]
    pub fn contains(&self, loc: &Location) -> bool {
        loc.rank < self.ranks.len()
            && loc.bank < self.banks_per_rank
            && loc.row < self.rows_per_bank
            && loc.column < self.columns_per_row
    }

    /// A restored last-burst rank must exist and every open row must lie
    /// inside the bank: both are turned back into command locations.
    fn check_restored(&mut self, r: &SnapReader<'_>) -> Result<(), SnapError> {
        if let Some(rank) = self
            .last_burst_rank
            .filter(|&rank| rank >= self.ranks.len())
        {
            return Err(r.bad_value(format!("last burst rank {rank} out of range")));
        }
        let mut open_rows = self
            .ranks
            .iter()
            .flat_map(Rank::banks)
            .filter_map(Bank::open_row);
        if let Some(row) = open_rows.find(|&row| row >= self.rows_per_bank) {
            return Err(r.bad_value(format!(
                "open row {row} out of range ({} rows per bank)",
                self.rows_per_bank
            )));
        }
        Ok(())
    }

    fn check_location(&self, loc: &Location) {
        assert!(
            loc.rank < self.ranks.len(),
            "rank {} out of range ({} ranks)",
            loc.rank,
            self.ranks.len()
        );
        assert!(
            loc.bank < self.banks_per_rank,
            "bank {} out of range ({} banks per rank)",
            loc.bank,
            self.banks_per_rank
        );
        assert!(
            loc.row < self.rows_per_bank,
            "row {} out of range ({} rows per bank)",
            loc.row,
            self.rows_per_bank
        );
        assert!(
            loc.column < self.columns_per_row,
            "column {} out of range ({} columns per row)",
            loc.column,
            self.columns_per_row
        );
    }

    /// Earliest cycle at which a column command issued now-or-later could
    /// start its data burst without colliding on the data bus.
    fn data_bus_ready(&self, rank: usize, dir: BusDirection) -> DramCycles {
        let mut ready = self.bus_free_at;
        let switching_rank = self.last_burst_rank.is_some_and(|r| r != rank);
        let switching_dir = self.last_burst_direction.is_some_and(|d| d != dir);
        if switching_rank || switching_dir {
            ready += self.timing.t_rtrs;
        }
        ready
    }

    /// Whether this channel issues periodic refresh at all.
    #[must_use]
    pub fn refresh_enabled(&self) -> bool {
        self.refresh_enabled
    }

    /// Current CKE power state of `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    #[must_use]
    pub fn power_state(&self, rank: usize) -> PowerState {
        self.ranks[rank].power_state()
    }

    /// Whether `rank` may enter (or deepen into) the low-power state `mode`
    /// at `now`: the rank quiet, all banks precharged, the `tCKE` fence
    /// honored, and — for fast/slow power-down — no refresh overdue (the
    /// controller would have to wake it right back up; self-refresh is exempt
    /// because the on-die engine takes the obligation over).
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    #[must_use]
    pub fn can_enter_power_down(&self, rank: usize, mode: PowerDownMode, now: DramCycles) -> bool {
        if self.refresh_enabled
            && mode != PowerDownMode::SelfRefresh
            && self.ranks[rank].refresh_due(now)
        {
            return false;
        }
        self.ranks[rank].can_enter_power_down(mode, now)
    }

    /// Earliest cycle `rank` could enter a low-power state, assuming the
    /// device state stays frozen (quiet window plus the `tCKE` fence).
    #[must_use]
    pub fn earliest_power_down(&self, rank: usize) -> DramCycles {
        self.ranks[rank].earliest_power_down()
    }

    /// Drops CKE for `rank`, entering the low-power state `mode` at `now`.
    ///
    /// CKE is a dedicated pin, so entry does not occupy the command bus.
    ///
    /// # Panics
    ///
    /// Panics if the entry is not legal; check
    /// [`Self::can_enter_power_down`] first.
    pub fn enter_power_down(&mut self, rank: usize, mode: PowerDownMode, now: DramCycles) {
        assert!(
            self.can_enter_power_down(rank, mode, now),
            "illegal power-down entry of rank {rank} to {mode:?} at {now}"
        );
        let t = self.timing;
        self.ranks[rank].enter_power_down(mode, now, &t);
        self.note(now, LogEvent::PowerDown { rank, mode });
    }

    /// Raises CKE for `rank` at `now`, beginning the exit from its low-power
    /// state. Returns the cycle at which the rank accepts commands again.
    ///
    /// # Panics
    ///
    /// Panics if the rank is not powered down.
    pub fn wake_rank(&mut self, rank: usize, now: DramCycles) -> DramCycles {
        let t = self.timing;
        let ready = self.ranks[rank].wake(now, &t);
        self.note(now, LogEvent::Wake { rank });
        ready
    }

    /// Earliest cycle at which `cmd` could legally issue, assuming no other
    /// command is issued in the meantime (the device state stays frozen).
    ///
    /// This is the model's legality rule: every bank, rank and data-bus
    /// fence on `cmd` is combined here and nowhere else. Returns `None` when
    /// no passage of time can make the command legal from the current state
    /// — e.g. a column access to a row that is not open, a precharge of an
    /// idle bank, or any command to a powered-down rank (which stays asleep
    /// until an explicit wake, itself a state change). The
    /// one-command-per-cycle command-bus rule is left to [`Self::can_issue`]:
    /// it constrains only the cycle of the most recent issue, which the
    /// kernel's event-horizon scan never revisits.
    ///
    /// # Panics
    ///
    /// Panics if the command's location is outside the configured geometry.
    #[must_use]
    pub fn earliest_legal(&self, cmd: &Command) -> Option<DramCycles> {
        self.check_location(&cmd.loc);
        let rank = &self.ranks[cmd.loc.rank];
        if rank.powered_down() {
            return None;
        }
        let bank = rank.bank(cmd.loc.bank);
        let t = &self.timing;
        match cmd.kind {
            CommandKind::Activate => bank.open_row().is_none().then(|| {
                bank.next_activate_allowed()
                    .max(rank.next_activate_allowed(t))
            }),
            CommandKind::Read { .. } => (bank.open_row() == Some(cmd.loc.row)).then(|| {
                let bus = self
                    .data_bus_ready(cmd.loc.rank, BusDirection::Read)
                    .saturating_sub(t.cl);
                bank.next_read_allowed()
                    .max(rank.next_read_allowed())
                    .max(bus)
            }),
            CommandKind::Write { .. } => (bank.open_row() == Some(cmd.loc.row)).then(|| {
                let bus = self
                    .data_bus_ready(cmd.loc.rank, BusDirection::Write)
                    .saturating_sub(t.cwl);
                bank.next_write_allowed()
                    .max(rank.next_write_allowed())
                    .max(bus)
            }),
            CommandKind::Precharge => bank
                .open_row()
                .is_some()
                .then(|| bank.next_precharge_allowed()),
            CommandKind::Refresh => {
                (self.refresh_enabled && rank.all_banks_idle()).then(|| rank.next_refresh_allowed())
            }
        }
    }

    /// Whether no command has issued at cycle `now` (the command bus takes
    /// one command per cycle).
    #[must_use]
    pub fn command_bus_free(&self, now: DramCycles) -> bool {
        self.last_cmd_cycle != Some(now)
    }

    /// Whether `cmd` may legally issue at cycle `now`: the command bus is
    /// free this cycle and [`Self::earliest_legal`] has been reached.
    ///
    /// # Panics
    ///
    /// Panics if the command's location is outside the configured geometry.
    #[must_use]
    pub fn can_issue(&self, cmd: &Command, now: DramCycles) -> bool {
        self.command_bus_free(now) && self.earliest_legal(cmd).is_some_and(|t| t <= now)
    }

    /// Issues `cmd` at cycle `now`.
    ///
    /// Returns the completion information (data return time for reads, burst
    /// completion for writes, availability times otherwise).
    ///
    /// # Panics
    ///
    /// Panics if the command is not legal at `now`; use [`Self::can_issue`]
    /// first. This is deliberate: an illegal command indicates a scheduler
    /// bug, and silently delaying it would corrupt the measured timings.
    pub fn issue(&mut self, cmd: &Command, now: DramCycles) -> IssueOutcome {
        assert!(
            self.can_issue(cmd, now),
            "illegal command {} to {:?} at cycle {now}",
            cmd.kind,
            cmd.loc
        );
        self.last_cmd_cycle = Some(now);
        self.note(now, LogEvent::Command(*cmd));
        let t = self.timing;
        let rank_idx = cmd.loc.rank;
        let outcome = match cmd.kind {
            CommandKind::Activate => {
                self.ranks[rank_idx].record_activate(now, &t);
                self.ranks[rank_idx]
                    .bank_mut(cmd.loc.bank)
                    .activate(cmd.loc.row, now, &t);
                self.stats.activates += 1;
                IssueOutcome {
                    completion_cycle: now + t.t_rcd,
                    row_hit: false,
                }
            }
            CommandKind::Read { auto_precharge } => {
                let done =
                    self.ranks[rank_idx]
                        .bank_mut(cmd.loc.bank)
                        .read(now, auto_precharge, &t);
                self.ranks[rank_idx].record_read(now, &t);
                self.stats.reads += 1;
                if auto_precharge {
                    self.stats.precharges += 1;
                    let pre_done = self.ranks[rank_idx]
                        .bank(cmd.loc.bank)
                        .next_activate_allowed();
                    self.ranks[rank_idx].note_quiet_until(pre_done);
                }
                self.stats.data_bus_busy_cycles += t.t_burst;
                self.bus_free_at = done;
                self.last_burst_rank = Some(rank_idx);
                self.last_burst_direction = Some(BusDirection::Read);
                IssueOutcome {
                    completion_cycle: done,
                    row_hit: true,
                }
            }
            CommandKind::Write { auto_precharge } => {
                let done =
                    self.ranks[rank_idx]
                        .bank_mut(cmd.loc.bank)
                        .write(now, auto_precharge, &t);
                self.ranks[rank_idx].record_write(now, &t);
                self.stats.writes += 1;
                if auto_precharge {
                    self.stats.precharges += 1;
                    let pre_done = self.ranks[rank_idx]
                        .bank(cmd.loc.bank)
                        .next_activate_allowed();
                    self.ranks[rank_idx].note_quiet_until(pre_done);
                }
                self.stats.data_bus_busy_cycles += t.t_burst;
                self.bus_free_at = done;
                self.last_burst_rank = Some(rank_idx);
                self.last_burst_direction = Some(BusDirection::Write);
                IssueOutcome {
                    completion_cycle: done,
                    row_hit: true,
                }
            }
            CommandKind::Precharge => {
                self.ranks[rank_idx]
                    .bank_mut(cmd.loc.bank)
                    .precharge(now, &t);
                self.ranks[rank_idx].record_precharge(now, &t);
                self.stats.precharges += 1;
                IssueOutcome {
                    completion_cycle: now + t.t_rp,
                    row_hit: false,
                }
            }
            CommandKind::Refresh => {
                let done = self.ranks[rank_idx].refresh(now, &t);
                self.stats.refreshes += 1;
                IssueOutcome {
                    completion_cycle: done,
                    row_hit: false,
                }
            }
        };
        // Keep the rank's standby power state in sync with its row-buffer
        // state (residency accrues in closed form at this transition point).
        self.ranks[rank_idx].update_standby(now);
        outcome
    }
}

snap_unit_enum!(BusDirection {
    Read = 0,
    Write = 1
});

// The one field list: snapshot image, cross-channel `merge`, window `delta`.
counter_fields! {
    ChannelStats {
        activates,
        precharges,
        reads,
        writes,
        refreshes,
        data_bus_busy_cycles,
        active_standby_cycles,
        precharge_standby_cycles,
        power_down_fast_cycles,
        power_down_slow_cycles,
        self_refresh_cycles,
        power_down_entries,
        self_refresh_entries,
        power_wakes,
    }
}

snap_fields! {
    DramChannel {
        section: "dram-channel",
        saved: {
            ranks: fixed,
            bus_free_at,
            last_burst_rank,
            last_burst_direction,
            last_cmd_cycle,
            stats,
        },
        skipped: {
            timing: "config-derived",
            banks_per_rank: "config-derived",
            rows_per_bank: "config-derived",
            columns_per_row: "config-derived",
            refresh_enabled: "config-derived",
            log: "host-only record",
        },
        after_load: Self::check_restored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel() -> (DramChannel, DramConfig) {
        let cfg = DramConfig::baseline();
        (DramChannel::new(&cfg), cfg)
    }

    #[test]
    fn read_requires_open_row() {
        let (mut ch, cfg) = channel();
        let loc = Location::new(0, 0, 5, 0);
        assert!(!ch.can_issue(&Command::read(loc, false), 0));
        ch.issue(&Command::activate(loc), 0);
        assert!(!ch.can_issue(&Command::read(loc, false), cfg.timing.t_rcd - 1));
        assert!(ch.can_issue(&Command::read(loc, false), cfg.timing.t_rcd));
    }

    #[test]
    fn row_conflict_needs_precharge_then_activate() {
        let (mut ch, cfg) = channel();
        let t = cfg.timing;
        let loc_a = Location::new(0, 0, 5, 0);
        let loc_b = Location::new(0, 0, 9, 0);
        ch.issue(&Command::activate(loc_a), 0);
        ch.issue(&Command::read(loc_a, false), t.t_rcd);
        // Different row cannot be read while row 5 is open.
        assert!(!ch.can_issue(&Command::read(loc_b, false), t.t_rcd + 100));
        assert!(!ch.can_issue(&Command::activate(loc_b), t.t_rcd + 100));
        let pre_at = t.t_ras;
        assert!(ch.can_issue(&Command::precharge(loc_a), pre_at));
        ch.issue(&Command::precharge(loc_a), pre_at);
        let act_at = t.t_rc.max(pre_at + t.t_rp);
        assert!(ch.can_issue(&Command::activate(loc_b), act_at));
    }

    #[test]
    fn command_bus_allows_one_command_per_cycle() {
        let (mut ch, _) = channel();
        let a = Location::new(0, 0, 1, 0);
        let b = Location::new(0, 1, 1, 0);
        ch.issue(&Command::activate(a), 10);
        assert!(!ch.can_issue(&Command::activate(b), 10));
        // tRRD = 5 delays the second activate anyway.
        assert!(ch.can_issue(&Command::activate(b), 15));
    }

    #[test]
    fn bank_level_parallelism_across_ranks_ignores_trrd() {
        let (mut ch, _) = channel();
        let a = Location::new(0, 0, 1, 0);
        let b = Location::new(1, 0, 1, 0);
        ch.issue(&Command::activate(a), 10);
        // Different rank: no tRRD coupling, only the command bus cycle.
        assert!(ch.can_issue(&Command::activate(b), 11));
    }

    #[test]
    fn data_bus_serializes_reads_from_different_ranks() {
        let (mut ch, cfg) = channel();
        let t = cfg.timing;
        let a = Location::new(0, 0, 1, 0);
        let b = Location::new(1, 0, 1, 0);
        ch.issue(&Command::activate(a), 0);
        ch.issue(&Command::activate(b), 1);
        let read_a_at = t.t_rcd;
        let out_a = ch.issue(&Command::read(a, false), read_a_at);
        // A read on the other rank must respect the bus + tRTRS gap.
        let mut cycle = read_a_at + 1;
        while !ch.can_issue(&Command::read(b, false), cycle) {
            cycle += 1;
        }
        assert!(cycle + t.cl >= out_a.completion_cycle + t.t_rtrs);
    }

    #[test]
    fn write_then_read_same_rank_waits_for_twtr() {
        let (mut ch, cfg) = channel();
        let t = cfg.timing;
        let loc = Location::new(0, 0, 1, 0);
        let loc2 = Location::new(0, 1, 1, 0);
        ch.issue(&Command::activate(loc), 0);
        ch.issue(&Command::activate(loc2), t.t_rrd);
        let wr_at = t.t_rcd + t.t_rrd;
        ch.issue(&Command::write(loc, false), wr_at);
        let earliest_read = wr_at + t.write_to_read_same_rank();
        assert!(!ch.can_issue(&Command::read(loc2, false), earliest_read - 1));
        assert!(ch.can_issue(&Command::read(loc2, false), earliest_read));
    }

    #[test]
    fn refresh_requires_idle_banks_and_blocks_rank() {
        let (mut ch, cfg) = channel();
        let t = cfg.timing;
        let loc = Location::new(0, 0, 1, 0);
        ch.issue(&Command::activate(loc), 0);
        assert!(!ch.can_issue(&Command::refresh(0), t.t_refi));
        ch.issue(&Command::precharge(loc), t.t_ras);
        let out = ch.issue(&Command::refresh(0), t.t_refi);
        assert_eq!(out.completion_cycle, t.t_refi + t.t_rfc);
        assert!(!ch.can_issue(&Command::activate(loc), t.t_refi + 1));
        assert!(ch.can_issue(&Command::activate(loc), out.completion_cycle));
        assert_eq!(ch.stats().refreshes, 1);
    }

    #[test]
    fn refresh_due_reports_first_due_rank() {
        let (ch, cfg) = channel();
        let t = cfg.timing;
        assert_eq!(ch.refresh_due(t.t_refi - 1), None);
        assert_eq!(ch.refresh_due(t.t_refi), Some(0));
        assert_eq!(ch.refresh_due(t.t_refi * 3), Some(0));
    }

    #[test]
    fn refresh_disabled_never_due() {
        let mut cfg = DramConfig::baseline();
        cfg.refresh_enabled = false;
        let ch = DramChannel::new(&cfg);
        assert_eq!(ch.refresh_due(u64::MAX / 2), None);
    }

    #[test]
    fn stats_count_commands_and_bus_cycles() {
        let (mut ch, cfg) = channel();
        let t = cfg.timing;
        let loc = Location::new(0, 0, 1, 0);
        ch.issue(&Command::activate(loc), 0);
        ch.issue(&Command::read(loc, false), t.t_rcd);
        ch.issue(&Command::read(loc, false), t.t_rcd + t.t_ccd);
        ch.issue(&Command::write(loc, false), t.t_rcd + 4 * t.t_ccd);
        let s = ch.stats();
        assert_eq!(s.activates, 1);
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.data_bus_busy_cycles, 3 * t.t_burst);
        assert!(s.bus_utilization(1000) > 0.0);
        assert_eq!(ChannelStats::default().bus_utilization(0), 0.0);
    }

    #[test]
    fn auto_precharge_counts_as_precharge() {
        let (mut ch, cfg) = channel();
        let t = cfg.timing;
        let loc = Location::new(0, 0, 1, 0);
        ch.issue(&Command::activate(loc), 0);
        ch.issue(&Command::read(loc, true), t.t_rcd + t.t_ras);
        assert_eq!(ch.stats().precharges, 1);
        assert_eq!(ch.open_row(0, 0), None);
    }

    /// `earliest_legal` is the boundary of `can_issue` for a frozen device
    /// state once the command bus is free (probing starts after the last
    /// issue), and `None` means the command never becomes legal.
    fn assert_earliest_matches(ch: &DramChannel, cmd: &Command, probe_from: DramCycles) {
        match ch.earliest_legal(cmd) {
            Some(earliest) => {
                let start = earliest.max(probe_from);
                if earliest > probe_from {
                    assert!(
                        !ch.can_issue(cmd, earliest - 1),
                        "{} legal one cycle before earliest_legal ({earliest})",
                        cmd.kind
                    );
                }
                assert!(
                    ch.can_issue(cmd, start),
                    "{} not legal at earliest_legal ({start})",
                    cmd.kind
                );
            }
            None => {
                for t in probe_from..probe_from + 2_000 {
                    assert!(
                        !ch.can_issue(cmd, t),
                        "{} became legal at {t} despite earliest_legal = None",
                        cmd.kind
                    );
                }
            }
        }
    }

    #[test]
    fn earliest_legal_matches_can_issue_boundaries() {
        let (mut ch, cfg) = channel();
        let t = cfg.timing;
        let a = Location::new(0, 0, 5, 0);
        let other_row = Location::new(0, 0, 9, 0);
        let b = Location::new(1, 2, 7, 0);

        // Idle bank: activate legal immediately, column/precharge never.
        assert_earliest_matches(&ch, &Command::activate(a), 1);
        assert_eq!(ch.earliest_legal(&Command::read(a, false)), None);
        assert_eq!(ch.earliest_legal(&Command::precharge(a)), None);
        assert_earliest_matches(&ch, &Command::refresh(0), 1);

        // Open a row and exercise every boundary: tRCD for the column
        // access, tRAS for the precharge, tRC for the re-activate.
        ch.issue(&Command::activate(a), 0);
        assert_earliest_matches(&ch, &Command::read(a, false), 1);
        assert_earliest_matches(&ch, &Command::write(a, false), 1);
        assert_earliest_matches(&ch, &Command::precharge(a), 1);
        assert_eq!(ch.earliest_legal(&Command::activate(a)), None);
        assert_eq!(ch.earliest_legal(&Command::read(other_row, false)), None);
        assert_eq!(ch.earliest_legal(&Command::refresh(0)), None);

        // After a read, the other rank's activate only waits on its own
        // constraints while a same-rank activate is fenced by tRC.
        ch.issue(&Command::read(a, false), t.t_rcd);
        assert_earliest_matches(&ch, &Command::activate(b), t.t_rcd + 1);
        assert_earliest_matches(&ch, &Command::precharge(a), t.t_rcd + 1);

        // Cross-rank read: the data-bus + tRTRS gap must be the boundary.
        ch.issue(&Command::activate(b), t.t_rcd + 1);
        assert_earliest_matches(&ch, &Command::read(b, false), t.t_rcd + 2);

        // Write-to-read turnaround on the same rank.
        let wr_at = ch
            .earliest_legal(&Command::write(b, false))
            .unwrap()
            .max(t.t_rcd + 2);
        ch.issue(&Command::write(b, false), wr_at);
        assert_earliest_matches(&ch, &Command::read(b, false), wr_at + 1);
    }

    #[test]
    fn earliest_legal_refresh_requires_idle_banks_and_enabled_refresh() {
        let mut cfg = DramConfig::baseline();
        cfg.refresh_enabled = false;
        let ch = DramChannel::new(&cfg);
        assert!(!ch.refresh_enabled());
        assert_eq!(ch.earliest_legal(&Command::refresh(0)), None);
        let (ch2, _) = channel();
        assert!(ch2.refresh_enabled());
        assert_eq!(ch2.earliest_legal(&Command::refresh(0)), Some(0));
    }

    #[test]
    #[should_panic(expected = "rank 5 out of range")]
    fn out_of_range_rank_panics() {
        let (ch, _) = channel();
        let loc = Location::new(5, 0, 0, 0);
        let _ = ch.can_issue(&Command::activate(loc), 0);
    }

    #[test]
    #[should_panic(expected = "illegal command ACT")]
    fn double_activate_panics() {
        let (mut ch, _) = channel();
        ch.issue(&Command::activate(Location::new(0, 0, 1, 0)), 0);
        ch.issue(&Command::activate(Location::new(0, 0, 2, 0)), 100);
    }

    #[test]
    #[should_panic(expected = "illegal command")]
    fn issuing_illegal_command_panics() {
        let (mut ch, _) = channel();
        let loc = Location::new(0, 0, 1, 0);
        ch.issue(&Command::read(loc, false), 0);
    }
}
