//! Per-rank timing bookkeeping (tRRD, tFAW, write-to-read turnaround,
//! refresh) and the rank's CKE power-state machine (standby, fast- and
//! slow-exit power-down, self-refresh) with cycle-accurate state-residency
//! accounting.

use std::collections::VecDeque;

use cloudmc_snap::{snap_fields, snap_unit_enum, SnapError, SnapReader};

use crate::bank::Bank;
use crate::timing::{DramCycles, TimingParams};

/// The CKE-level power state of one rank.
///
/// Standby states are derived from the row-buffer state (any open row means
/// active standby); the low-power states are entered and exited explicitly by
/// the memory controller's power-management policy. Only *precharge*
/// power-down is modeled: a rank must have all banks closed before CKE drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerState {
    /// CKE high, at least one bank has an open row.
    ActiveStandby,
    /// CKE high, all banks precharged.
    PrechargeStandby,
    /// CKE low, DLL running: cheap to exit (`tXP`).
    PowerDownFast,
    /// CKE low, DLL frozen: cheaper to hold, slower to exit (`tXPDLL`).
    PowerDownSlow,
    /// CKE low, on-die refresh engine running: deepest state, `tXS` to exit,
    /// but the external refresh obligation is suspended.
    SelfRefresh,
}

impl PowerState {
    /// Whether CKE is low (the rank cannot accept commands).
    #[must_use]
    pub fn is_powered_down(&self) -> bool {
        matches!(
            self,
            Self::PowerDownFast | Self::PowerDownSlow | Self::SelfRefresh
        )
    }
}

/// The low-power state a controller-initiated power-down entry targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerDownMode {
    /// Fast-exit precharge power-down.
    Fast,
    /// Slow-exit (DLL-off) precharge power-down.
    Slow,
    /// Self-refresh.
    SelfRefresh,
}

impl PowerDownMode {
    fn target(self) -> PowerState {
        match self {
            Self::Fast => PowerState::PowerDownFast,
            Self::Slow => PowerState::PowerDownSlow,
            Self::SelfRefresh => PowerState::SelfRefresh,
        }
    }

    /// Depth ordering: a rank may only move to a strictly deeper state
    /// without an intervening wake.
    fn depth(self) -> u8 {
        match self {
            Self::Fast => 1,
            Self::Slow => 2,
            Self::SelfRefresh => 3,
        }
    }
}

/// DRAM cycles one rank has spent in each power state.
///
/// Residency is accrued in closed form at state transitions (never per
/// cycle), so it is exact regardless of whether the simulation kernel ticks
/// every cycle or fast-forwards over idle stretches; at any observation point
/// the buckets sum to the elapsed cycle count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PowerResidency {
    /// Cycles with CKE high and at least one open row.
    pub active_standby: u64,
    /// Cycles with CKE high and all banks precharged.
    pub precharge_standby: u64,
    /// Cycles in fast-exit power-down.
    pub power_down_fast: u64,
    /// Cycles in slow-exit power-down.
    pub power_down_slow: u64,
    /// Cycles in self-refresh.
    pub self_refresh: u64,
}

impl PowerResidency {
    fn bucket_mut(&mut self, state: PowerState) -> &mut u64 {
        match state {
            PowerState::ActiveStandby => &mut self.active_standby,
            PowerState::PrechargeStandby => &mut self.precharge_standby,
            PowerState::PowerDownFast => &mut self.power_down_fast,
            PowerState::PowerDownSlow => &mut self.power_down_slow,
            PowerState::SelfRefresh => &mut self.self_refresh,
        }
    }

    /// Total cycles accounted for (equals the elapsed cycles of the rank).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.active_standby
            + self.precharge_standby
            + self.power_down_fast
            + self.power_down_slow
            + self.self_refresh
    }

    /// Cycles spent in any CKE-low state.
    #[must_use]
    pub fn powered_down(&self) -> u64 {
        self.power_down_fast + self.power_down_slow + self.self_refresh
    }
}

/// A DRAM rank: a set of banks that share command/address pins and obey
/// rank-level activation and turnaround constraints.
#[derive(Debug, Clone)]
pub struct Rank {
    banks: Vec<Bank>,
    /// Issue times of the most recent ACTIVATEs (bounded to 4 for tFAW).
    act_window: VecDeque<DramCycles>,
    /// Earliest cycle the next ACTIVATE may issue due to tRRD.
    next_act: DramCycles,
    /// Earliest cycle a READ may issue to this rank (write-to-read).
    next_read: DramCycles,
    /// Earliest cycle a WRITE may issue to this rank.
    next_write: DramCycles,
    /// Cycle at which the next refresh becomes due.
    next_refresh_due: DramCycles,
    /// Earliest cycle a REF may issue (power-down exit fence).
    next_ref: DramCycles,
    /// Number of REF commands issued.
    refreshes: u64,
    /// Current CKE power state.
    power: PowerState,
    /// Cycle the current power state was entered (residency accrual mark).
    power_since: DramCycles,
    /// Cycles accrued per power state up to `power_since`.
    residency: PowerResidency,
    /// Cycle by which all in-rank activity (bursts, recovery windows,
    /// refresh) has completed; CKE may not drop before this.
    quiet_at: DramCycles,
    /// Earliest cycle CKE may toggle again (`tCKE` minimum pulse width).
    cke_ok_at: DramCycles,
    /// Controller-initiated entries into fast/slow power-down.
    power_down_entries: u64,
    /// Controller-initiated entries into self-refresh.
    self_refresh_entries: u64,
    /// Power-down exits (explicit wakes).
    power_wakes: u64,
}

impl Rank {
    /// Creates a rank with `banks` idle banks.
    #[must_use]
    pub fn new(banks: usize, t: &TimingParams) -> Self {
        Self {
            banks: (0..banks).map(|_| Bank::new()).collect(),
            act_window: VecDeque::with_capacity(4),
            next_act: 0,
            next_read: 0,
            next_write: 0,
            next_refresh_due: t.t_refi,
            next_ref: 0,
            refreshes: 0,
            power: PowerState::PrechargeStandby,
            power_since: 0,
            residency: PowerResidency::default(),
            quiet_at: 0,
            cke_ok_at: 0,
            power_down_entries: 0,
            self_refresh_entries: 0,
            power_wakes: 0,
        }
    }

    /// Immutable access to a bank.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[must_use]
    pub fn bank(&self, bank: usize) -> &Bank {
        &self.banks[bank]
    }

    /// Mutable access to a bank. Crate-private: banks change only through
    /// [`crate::channel::DramChannel::issue`], which checks legality first.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub(crate) fn bank_mut(&mut self, bank: usize) -> &mut Bank {
        &mut self.banks[bank]
    }

    /// Iterates over the banks.
    pub fn banks(&self) -> impl Iterator<Item = &Bank> {
        self.banks.iter()
    }

    /// Total REF commands issued to this rank.
    #[must_use]
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Cycle at which the next periodic refresh becomes due.
    #[must_use]
    pub fn next_refresh_due(&self) -> DramCycles {
        self.next_refresh_due
    }

    /// Whether a refresh is due at `now`. A rank in self-refresh maintains
    /// itself, so no external refresh ever becomes due for it.
    #[must_use]
    pub fn refresh_due(&self, now: DramCycles) -> bool {
        now >= self.next_refresh_due && !self.in_self_refresh()
    }

    /// Earliest cycle a REF command may issue (rank-level fence: power-down
    /// exit latency, previous refresh completion).
    #[must_use]
    pub fn next_refresh_allowed(&self) -> DramCycles {
        self.next_ref
    }

    /// Earliest cycle an ACTIVATE may issue considering tRRD and tFAW
    /// (rank-level constraints only).
    #[must_use]
    pub fn next_activate_allowed(&self, t: &TimingParams) -> DramCycles {
        let faw_limit = if self.act_window.len() == 4 {
            self.act_window.front().copied().unwrap_or(0) + t.t_faw
        } else {
            0
        };
        self.next_act.max(faw_limit)
    }

    /// Earliest cycle a READ may issue (rank-level constraints only).
    #[must_use]
    pub fn next_read_allowed(&self) -> DramCycles {
        self.next_read
    }

    /// Earliest cycle a WRITE may issue (rank-level constraints only).
    #[must_use]
    pub fn next_write_allowed(&self) -> DramCycles {
        self.next_write
    }

    /// Records an ACTIVATE issued at `now`.
    pub fn record_activate(&mut self, now: DramCycles, t: &TimingParams) {
        if self.act_window.len() == 4 {
            self.act_window.pop_front();
        }
        self.act_window.push_back(now);
        self.next_act = self.next_act.max(now + t.t_rrd);
        self.quiet_at = self.quiet_at.max(now + t.t_rcd);
    }

    /// Records a READ issued at `now`.
    pub fn record_read(&mut self, now: DramCycles, t: &TimingParams) {
        self.next_read = self.next_read.max(now + t.t_ccd);
        self.next_write = self.next_write.max(now + t.t_ccd);
        self.quiet_at = self.quiet_at.max(now + t.cl + t.t_burst);
    }

    /// Records a WRITE issued at `now`.
    pub fn record_write(&mut self, now: DramCycles, t: &TimingParams) {
        self.next_write = self.next_write.max(now + t.t_ccd);
        self.next_read = self.next_read.max(now + t.write_to_read_same_rank());
        self.quiet_at = self.quiet_at.max(now + t.write_to_precharge());
    }

    /// Records a PRECHARGE issued to one of this rank's banks at `now`.
    pub fn record_precharge(&mut self, now: DramCycles, t: &TimingParams) {
        self.quiet_at = self.quiet_at.max(now + t.t_rp);
    }

    /// Extends the quiet window: CKE may not drop before `cycle` (used for
    /// auto-precharge completions tracked at the bank level).
    pub fn note_quiet_until(&mut self, cycle: DramCycles) {
        self.quiet_at = self.quiet_at.max(cycle);
    }

    /// Whether every bank in the rank is idle (required before REF).
    #[must_use]
    pub fn all_banks_idle(&self) -> bool {
        self.banks.iter().all(|b| b.open_row().is_none())
    }

    /// Issues a REF at `now`: blocks all banks for `tRFC` and schedules the
    /// next refresh interval. Returns the cycle at which the rank is usable.
    ///
    /// # Panics
    ///
    /// Panics if any bank still has an open row or the rank is powered down.
    pub fn refresh(&mut self, now: DramCycles, t: &TimingParams) -> DramCycles {
        assert!(
            self.all_banks_idle(),
            "REF issued at {now} while banks still have open rows"
        );
        assert!(
            !self.powered_down(),
            "REF issued at {now} while the rank is powered down"
        );
        let done = now + t.t_rfc;
        for bank in &mut self.banks {
            bank.block_until(done);
        }
        self.next_act = self.next_act.max(done);
        self.next_read = self.next_read.max(done);
        self.next_write = self.next_write.max(done);
        self.next_ref = self.next_ref.max(done);
        self.quiet_at = self.quiet_at.max(done);
        // Keep the refresh cadence anchored to the schedule, not to `now`,
        // so postponed refreshes do not drift the average interval.
        self.next_refresh_due += t.t_refi;
        self.refreshes += 1;
        done
    }

    // ------------------------------------------------------------------
    // Power-state machine
    // ------------------------------------------------------------------

    /// Accrues residency of the current power state up to `now` and marks
    /// `now` as the new accrual point.
    fn accrue_power(&mut self, now: DramCycles) {
        debug_assert!(
            now >= self.power_since,
            "power residency accrual must be monotone ({now} < {})",
            self.power_since
        );
        *self.residency.bucket_mut(self.power) += now.saturating_sub(self.power_since);
        self.power_since = now;
    }

    fn set_power(&mut self, state: PowerState, now: DramCycles) {
        self.accrue_power(now);
        self.power = state;
    }

    /// Re-derives the standby state from the row-buffer state at `now`.
    /// No-op while powered down (CKE-low states are left explicitly).
    pub(crate) fn update_standby(&mut self, now: DramCycles) {
        if self.power.is_powered_down() {
            return;
        }
        let state = if self.all_banks_idle() {
            PowerState::PrechargeStandby
        } else {
            PowerState::ActiveStandby
        };
        if state != self.power {
            self.set_power(state, now);
        }
    }

    /// Current CKE power state.
    #[must_use]
    pub fn power_state(&self) -> PowerState {
        self.power
    }

    /// Whether CKE is low (no commands accepted until a wake).
    #[must_use]
    pub fn powered_down(&self) -> bool {
        self.power.is_powered_down()
    }

    /// Whether the rank is in self-refresh.
    #[must_use]
    pub fn in_self_refresh(&self) -> bool {
        self.power == PowerState::SelfRefresh
    }

    /// Per-state residency with the current state accrued up to `now`.
    ///
    /// Pure closed-form read: the buckets always sum to `now`, whether the
    /// simulation ticked every cycle or fast-forwarded.
    #[must_use]
    pub fn residency_at(&self, now: DramCycles) -> PowerResidency {
        let mut r = self.residency;
        *r.bucket_mut(self.power) += now.saturating_sub(self.power_since);
        r
    }

    /// Controller-initiated power-down entries (fast or slow) so far.
    #[must_use]
    pub fn power_down_entries(&self) -> u64 {
        self.power_down_entries
    }

    /// Controller-initiated self-refresh entries so far.
    #[must_use]
    pub fn self_refresh_entries(&self) -> u64 {
        self.self_refresh_entries
    }

    /// Power-down exits so far.
    #[must_use]
    pub fn power_wakes(&self) -> u64 {
        self.power_wakes
    }

    /// Earliest cycle a power-down entry could be legal from the current
    /// state, assuming the state stays frozen: all in-rank activity complete
    /// (`quiet_at`) and the CKE minimum pulse width honored.
    #[must_use]
    pub fn earliest_power_down(&self) -> DramCycles {
        self.quiet_at.max(self.cke_ok_at)
    }

    /// Whether the rank may enter (or deepen into) `mode` at `now`.
    ///
    /// Entry from standby requires all banks precharged, all in-rank activity
    /// complete and the `tCKE` fence; an already powered-down rank may only
    /// move to a strictly deeper state (fast → slow → self-refresh).
    #[must_use]
    pub fn can_enter_power_down(&self, mode: PowerDownMode, now: DramCycles) -> bool {
        match self.power {
            PowerState::PrechargeStandby => now >= self.earliest_power_down(),
            PowerState::ActiveStandby => false,
            PowerState::PowerDownFast => {
                mode.depth() > PowerDownMode::Fast.depth() && now >= self.cke_ok_at
            }
            PowerState::PowerDownSlow => {
                mode.depth() > PowerDownMode::Slow.depth() && now >= self.cke_ok_at
            }
            PowerState::SelfRefresh => false,
        }
    }

    /// Enters (or deepens into) the low-power state `mode` at `now`.
    ///
    /// # Panics
    ///
    /// Panics if the entry is not legal; check
    /// [`Rank::can_enter_power_down`] first.
    pub fn enter_power_down(&mut self, mode: PowerDownMode, now: DramCycles, t: &TimingParams) {
        assert!(
            self.can_enter_power_down(mode, now),
            "illegal power-down entry to {mode:?} at {now} (state {:?})",
            self.power
        );
        let from_standby = !self.power.is_powered_down();
        self.set_power(mode.target(), now);
        self.cke_ok_at = now + t.t_cke;
        match mode {
            PowerDownMode::SelfRefresh => self.self_refresh_entries += 1,
            PowerDownMode::Fast | PowerDownMode::Slow if from_standby => {
                self.power_down_entries += 1;
            }
            PowerDownMode::Fast | PowerDownMode::Slow => {}
        }
    }

    /// Begins the exit from the current low-power state at `now` and returns
    /// the cycle at which the rank accepts commands again (`tXP`, `tXPDLL`
    /// or `tXS` after CKE can go high).
    ///
    /// The exit window is charged as precharge standby — the DLL and
    /// peripheral circuitry are powering back up. Waking out of self-refresh
    /// resets the external refresh schedule: the on-die engine kept the cells
    /// alive, and JEDEC only requires the next REF within `tREFI` of exit.
    ///
    /// # Panics
    ///
    /// Panics if the rank is not powered down.
    pub fn wake(&mut self, now: DramCycles, t: &TimingParams) -> DramCycles {
        let exit = match self.power {
            PowerState::PowerDownFast => t.t_xp,
            PowerState::PowerDownSlow => t.t_xpdll,
            PowerState::SelfRefresh => t.t_xs,
            #[expect(
                clippy::panic,
                reason = "controller state machine never wakes an awake rank"
            )]
            PowerState::ActiveStandby | PowerState::PrechargeStandby => {
                panic!("wake at {now} on a rank that is not powered down")
            }
        };
        let was_self_refresh = self.in_self_refresh();
        // CKE may not rise before the tCKE minimum low time has elapsed.
        let rise = now.max(self.cke_ok_at);
        let ready = rise + exit;
        self.set_power(PowerState::PrechargeStandby, now);
        self.cke_ok_at = rise + t.t_cke;
        self.quiet_at = ready;
        self.next_act = self.next_act.max(ready);
        self.next_read = self.next_read.max(ready);
        self.next_write = self.next_write.max(ready);
        self.next_ref = self.next_ref.max(ready);
        for bank in &mut self.banks {
            bank.block_until(ready);
        }
        if was_self_refresh {
            self.next_refresh_due = now + t.t_refi;
        }
        self.power_wakes += 1;
        ready
    }

    /// The tFAW window never holds more than four ACTIVATEs.
    fn check_restored(&mut self, r: &SnapReader<'_>) -> Result<(), SnapError> {
        if self.act_window.len() > 4 {
            return Err(r.bad_value(format!(
                "tFAW window length {} exceeds 4",
                self.act_window.len()
            )));
        }
        Ok(())
    }
}

snap_unit_enum!(PowerState {
    ActiveStandby = 0,
    PrechargeStandby = 1,
    PowerDownFast = 2,
    PowerDownSlow = 3,
    SelfRefresh = 4,
});

snap_fields! {
    PowerResidency {
        saved: {
            active_standby,
            precharge_standby,
            power_down_fast,
            power_down_slow,
            self_refresh,
        },
        skipped: {},
    }
}

snap_fields! {
    Rank {
        saved: {
            banks: fixed,
            act_window,
            next_act,
            next_read,
            next_write,
            next_refresh_due,
            next_ref,
            refreshes,
            power,
            power_since,
            residency,
            quiet_at,
            cke_ok_at,
            power_down_entries,
            self_refresh_entries,
            power_wakes,
        },
        skipped: {},
        after_load: Self::check_restored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TimingParams {
        TimingParams::ddr3_1600()
    }

    fn open_and_close(
        rank: &mut Rank,
        bank: usize,
        now: DramCycles,
        tp: &TimingParams,
    ) -> DramCycles {
        rank.bank_mut(bank).activate(0, now, tp);
        rank.record_activate(now, tp);
        let pre_at = now + tp.t_ras;
        rank.bank_mut(bank).precharge(pre_at, tp);
        pre_at + tp.t_rp
    }

    #[test]
    fn trrd_spaces_activates() {
        let tp = t();
        let mut r = Rank::new(8, &tp);
        r.bank_mut(0).activate(0, 0, &tp);
        r.record_activate(0, &tp);
        assert_eq!(r.next_activate_allowed(&tp), tp.t_rrd);
    }

    #[test]
    fn tfaw_limits_four_activates() {
        let tp = t();
        let mut r = Rank::new(8, &tp);
        // Issue 4 ACTs as fast as tRRD allows: 0, 5, 10, 15.
        for i in 0..4u64 {
            let now = i * tp.t_rrd;
            r.bank_mut(i as usize).activate(0, now, &tp);
            r.record_activate(now, &tp);
        }
        // Fifth ACT must wait for the tFAW window opened at cycle 0.
        assert_eq!(r.next_activate_allowed(&tp), tp.t_faw);
    }

    #[test]
    fn write_to_read_turnaround() {
        let tp = t();
        let mut r = Rank::new(8, &tp);
        r.record_write(100, &tp);
        assert_eq!(r.next_read_allowed(), 100 + tp.write_to_read_same_rank());
        // Writes only need tCCD spacing.
        assert_eq!(r.next_write_allowed(), 100 + tp.t_ccd);
    }

    #[test]
    fn refresh_blocks_every_bank_for_trfc() {
        let tp = t();
        let mut r = Rank::new(8, &tp);
        assert!(!r.refresh_due(tp.t_refi - 1));
        assert!(r.refresh_due(tp.t_refi));
        let done = r.refresh(tp.t_refi, &tp);
        assert_eq!(done, tp.t_refi + tp.t_rfc);
        for b in 0..8 {
            assert_eq!(r.bank(b).next_activate_allowed(), done);
        }
        assert_eq!(r.refreshes(), 1);
        assert_eq!(r.next_refresh_due(), 2 * tp.t_refi);
    }

    #[test]
    #[should_panic(expected = "open rows")]
    fn refresh_with_open_row_panics() {
        let tp = t();
        let mut r = Rank::new(2, &tp);
        r.bank_mut(0).activate(3, 0, &tp);
        r.record_activate(0, &tp);
        r.refresh(tp.t_refi, &tp);
    }

    #[test]
    fn all_banks_idle_reflects_bank_state() {
        let tp = t();
        let mut r = Rank::new(2, &tp);
        assert!(r.all_banks_idle());
        let reopen = open_and_close(&mut r, 0, 0, &tp);
        assert!(r.all_banks_idle());
        assert!(reopen > 0);
    }

    #[test]
    fn power_state_follows_row_buffer_state() {
        let tp = t();
        let mut r = Rank::new(2, &tp);
        assert_eq!(r.power_state(), PowerState::PrechargeStandby);
        r.bank_mut(0).activate(3, 10, &tp);
        r.record_activate(10, &tp);
        r.update_standby(10);
        assert_eq!(r.power_state(), PowerState::ActiveStandby);
        let pre_at = 10 + tp.t_ras;
        r.bank_mut(0).precharge(pre_at, &tp);
        r.record_precharge(pre_at, &tp);
        r.update_standby(pre_at);
        assert_eq!(r.power_state(), PowerState::PrechargeStandby);
        let res = r.residency_at(pre_at + 100);
        assert_eq!(res.active_standby, tp.t_ras);
        assert_eq!(res.precharge_standby, 10 + 100);
        assert_eq!(res.total(), pre_at + 100);
    }

    #[test]
    fn residency_sums_to_elapsed_and_is_monotone() {
        let tp = t();
        let mut r = Rank::new(2, &tp);
        r.enter_power_down(PowerDownMode::Fast, 50, &tp);
        let mut last_total = 0;
        for now in [50u64, 60, 200, 5_000] {
            let res = r.residency_at(now);
            assert_eq!(res.total(), now);
            assert!(res.total() >= last_total);
            last_total = res.total();
        }
        let ready = r.wake(5_000, &tp);
        assert_eq!(ready, 5_000 + tp.t_xp);
        let res = r.residency_at(6_000);
        assert_eq!(res.power_down_fast, 5_000 - 50);
        assert_eq!(res.precharge_standby, 50 + 1_000);
        assert_eq!(res.total(), 6_000);
    }

    #[test]
    fn power_down_requires_quiet_rank_and_tcke() {
        let tp = t();
        let mut r = Rank::new(2, &tp);
        // Open row: no power-down.
        r.bank_mut(0).activate(0, 0, &tp);
        r.record_activate(0, &tp);
        r.update_standby(0);
        assert!(!r.can_enter_power_down(PowerDownMode::Fast, 1_000));
        // Close it: entry legal only after the precharge completes (tRP).
        let pre_at = tp.t_ras;
        r.bank_mut(0).precharge(pre_at, &tp);
        r.record_precharge(pre_at, &tp);
        r.update_standby(pre_at);
        assert!(!r.can_enter_power_down(PowerDownMode::Fast, pre_at));
        let quiet = pre_at + tp.t_rp;
        assert_eq!(r.earliest_power_down(), quiet);
        assert!(r.can_enter_power_down(PowerDownMode::Fast, quiet));
        r.enter_power_down(PowerDownMode::Fast, quiet, &tp);
        assert!(r.powered_down());
        assert_eq!(r.power_down_entries(), 1);
        // A wake one cycle later is delayed by the tCKE minimum low time.
        let ready = r.wake(quiet + 1, &tp);
        assert_eq!(ready, quiet + tp.t_cke + tp.t_xp);
        assert_eq!(r.next_activate_allowed(&tp), ready);
        assert_eq!(r.power_wakes(), 1);
    }

    #[test]
    fn deepening_goes_fast_slow_self_refresh_only() {
        let tp = t();
        let mut r = Rank::new(2, &tp);
        r.enter_power_down(PowerDownMode::Fast, 100, &tp);
        // Cannot re-enter the same or a shallower state.
        assert!(!r.can_enter_power_down(PowerDownMode::Fast, 10_000));
        // tCKE gates the next transition.
        assert!(!r.can_enter_power_down(PowerDownMode::Slow, 100 + tp.t_cke - 1));
        assert!(r.can_enter_power_down(PowerDownMode::Slow, 100 + tp.t_cke));
        r.enter_power_down(PowerDownMode::Slow, 200, &tp);
        assert_eq!(r.power_state(), PowerState::PowerDownSlow);
        // Deepening does not count as a fresh power-down entry.
        assert_eq!(r.power_down_entries(), 1);
        r.enter_power_down(PowerDownMode::SelfRefresh, 300, &tp);
        assert_eq!(r.self_refresh_entries(), 1);
        assert!(r.in_self_refresh());
        assert!(!r.can_enter_power_down(PowerDownMode::SelfRefresh, 10_000));
        let res = r.residency_at(400);
        assert_eq!(res.power_down_fast, 100);
        assert_eq!(res.power_down_slow, 100);
        assert_eq!(res.self_refresh, 100);
    }

    #[test]
    fn self_refresh_suspends_and_resets_the_refresh_schedule() {
        let tp = t();
        let mut r = Rank::new(2, &tp);
        r.enter_power_down(PowerDownMode::SelfRefresh, 10, &tp);
        // Long past the nominal due cycle, nothing is due.
        assert!(!r.refresh_due(tp.t_refi * 5));
        let wake_at = tp.t_refi * 5;
        let ready = r.wake(wake_at, &tp);
        assert_eq!(ready, wake_at + tp.t_xs);
        // The external schedule restarts one interval after exit.
        assert_eq!(r.next_refresh_due(), wake_at + tp.t_refi);
        assert!(!r.refresh_due(wake_at + tp.t_refi - 1));
        assert!(r.refresh_due(wake_at + tp.t_refi));
        // REF is fenced by the exit latency.
        assert_eq!(r.next_refresh_allowed(), ready);
    }

    #[test]
    fn slow_exit_pays_txpdll() {
        let tp = t();
        let mut r = Rank::new(2, &tp);
        r.enter_power_down(PowerDownMode::Slow, 100, &tp);
        let ready = r.wake(1_000, &tp);
        assert_eq!(ready, 1_000 + tp.t_xpdll);
    }

    #[test]
    #[should_panic(expected = "not powered down")]
    fn waking_a_standby_rank_panics() {
        let tp = t();
        let mut r = Rank::new(2, &tp);
        r.wake(0, &tp);
    }

    #[test]
    #[should_panic(expected = "illegal power-down entry")]
    fn power_down_with_open_row_panics() {
        let tp = t();
        let mut r = Rank::new(2, &tp);
        r.bank_mut(0).activate(3, 0, &tp);
        r.record_activate(0, &tp);
        r.update_standby(0);
        r.enter_power_down(PowerDownMode::Fast, 1_000, &tp);
    }
}
