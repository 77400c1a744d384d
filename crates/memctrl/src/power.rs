//! DRAM power-management policies.
//!
//! The power policy decides when a quiescent rank drops CKE and how deep it
//! goes (fast-exit power-down, slow-exit power-down, self-refresh). It is the
//! counterpart of the page policy one level up: the page policy manages the
//! row buffer of a bank, the power policy manages the clock-enable pin of a
//! whole rank. The controller consults it only on cycles where nothing else
//! issued, and wakes powered-down ranks itself when demand arrives
//! (a request is enqueued) or a refresh comes due.
//!
//! Like [`crate::page::PagePolicy::propose_precharge`], proposals must be
//! pure functions of the [`PolicyView`]: the simulation kernel consults them
//! when computing the event horizon it may fast-forward to, so a hidden
//! mutation would make skipped idle cycles observable. Policies whose
//! proposals flip with the passage of time must report the flip cycle
//! through [`PowerPolicy::next_due`].

use cloudmc_dram::{DramCycles, PowerDownMode, PowerState};
use cloudmc_snap::{snap_fields, Snap, SnapError, SnapReader, SnapWriter};

use crate::page::PolicyView;

/// An action proposed by a power policy for one otherwise-idle cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerAction {
    /// Drop CKE of `rank`, entering (or deepening into) `mode`.
    PowerDown {
        /// Rank to power down.
        rank: usize,
        /// Target low-power state.
        mode: PowerDownMode,
    },
    /// Close the open row of (`rank`, `bank`) so the rank can reach
    /// power-down (proposed only by the power-aware policy, and only for
    /// rows the page policy has chosen to leave open).
    Precharge {
        /// Rank of the bank to close.
        rank: usize,
        /// Bank whose open row should be precharged.
        bank: usize,
    },
}

/// A rank power-management policy: one variant per policy, each method a
/// `match` over them, so the controller's per-tick consultations compile to
/// direct calls instead of virtual dispatch.
#[derive(Debug)]
pub enum PowerPolicy {
    /// No power management: every rank stays in standby forever.
    None,
    /// The timeout-driven policy behind `Immediate`, `IdleTimer` and
    /// `PowerAware` ([`TimeoutPowerDown`]).
    Timeout(TimeoutPowerDown),
}

impl PowerPolicy {
    /// Proposes one power action, or `None` to leave every rank as it is.
    ///
    /// Takes `&self`: proposals must be pure functions of the view (see the
    /// module docs). A returned [`PowerAction::PowerDown`] must already be
    /// legal (`DramChannel::can_enter_power_down` holds at `view.now`).
    #[inline]
    #[must_use]
    pub fn propose(&self, view: &PolicyView<'_>) -> Option<PowerAction> {
        match self {
            Self::None => None,
            Self::Timeout(p) => p.propose(view),
        }
    }

    /// Earliest cycle at which [`PowerPolicy::propose`] could start
    /// returning `Some`, assuming the device state and pending queues stay
    /// exactly as in `view`, under the next-due contract stated in
    /// `cloudmc-sim`'s `kernel` module. Only consulted while `propose`
    /// returns `None`; `u64::MAX` is a policy no timer drives.
    #[inline]
    #[must_use]
    pub fn next_due(&self, view: &PolicyView<'_>) -> DramCycles {
        match self {
            Self::None => DramCycles::MAX,
            Self::Timeout(p) => p.next_due(view),
        }
    }

    /// Called when demand activity touches `rank`: a command issues to it or
    /// a request targeting it is enqueued. Refresh does not count — idle
    /// timers measure time since the last *demand*, so periodic refresh
    /// cannot keep a rank from ever reaching the deeper states.
    #[inline]
    pub fn on_activity(&mut self, rank: usize, now: DramCycles) {
        if let Self::Timeout(p) = self {
            p.on_activity(rank, now);
        }
    }
}

impl Snap for PowerPolicy {
    const MIN_BYTES: usize = 0;

    fn save(&self, w: &mut SnapWriter) {
        match self {
            Self::None => {}
            Self::Timeout(p) => p.save(w),
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        match self {
            Self::None => Ok(()),
            Self::Timeout(p) => p.load(r),
        }
    }
}

/// Identifier for constructing power policies by name (used by the
/// experiment harness to sweep policies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerPolicyKind {
    /// No power management: ranks never leave standby (the paper's implicit
    /// baseline, and this crate's default).
    None,
    /// Enter fast-exit power-down as soon as a rank quiesces.
    Immediate,
    /// Escalating idle timer: fast power-down, then slow, then self-refresh
    /// as the rank stays idle longer.
    IdleTimer,
    /// Idle timer that additionally closes rows left open by the page
    /// policy once they have idled long enough, so ranks can actually reach
    /// power-down under open-page-leaning policies.
    PowerAware,
}

impl PowerPolicyKind {
    /// Every implemented policy, in sweep order.
    #[must_use]
    pub fn all() -> [Self; 4] {
        [
            Self::None,
            Self::Immediate,
            Self::IdleTimer,
            Self::PowerAware,
        ]
    }

    /// Instantiates the policy the controller holds.
    #[must_use]
    pub fn build(self, ranks: usize) -> PowerPolicy {
        let (timeouts, precharge_after) = match self {
            Self::None => return PowerPolicy::None,
            Self::Immediate => (PowerTimeouts::immediate(), None),
            Self::IdleTimer => (PowerTimeouts::idle_timer(), None),
            Self::PowerAware => (
                PowerTimeouts::idle_timer(),
                Some(POWER_AWARE_PRECHARGE_AFTER),
            ),
        };
        PowerPolicy::Timeout(TimeoutPowerDown::new(ranks, timeouts, precharge_after))
    }
}

impl std::fmt::Display for PowerPolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Self::None => "none",
            Self::Immediate => "immediate",
            Self::IdleTimer => "idle-timer",
            Self::PowerAware => "power-aware",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for PowerPolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(Self::None),
            "immediate" => Ok(Self::Immediate),
            "idle-timer" => Ok(Self::IdleTimer),
            "power-aware" => Ok(Self::PowerAware),
            other => Err(format!("unknown power policy `{other}`")),
        }
    }
}

/// Idle thresholds (DRAM cycles since the last demand access to a rank) at
/// which the timeout policy moves the rank into each low-power state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowerTimeouts {
    /// Idle cycles before entering fast-exit power-down.
    pub fast_after: DramCycles,
    /// Idle cycles before deepening to slow-exit power-down (`None` never).
    pub slow_after: Option<DramCycles>,
    /// Idle cycles before deepening to self-refresh (`None` never).
    pub self_refresh_after: Option<DramCycles>,
}

impl PowerTimeouts {
    /// Immediate fast power-down, no deeper states.
    #[must_use]
    pub fn immediate() -> Self {
        Self {
            fast_after: 0,
            slow_after: None,
            self_refresh_after: None,
        }
    }

    /// The escalating default: fast after ~a hundred idle cycles, slow after
    /// ~a thousand, self-refresh after several refresh intervals' worth.
    #[must_use]
    pub fn idle_timer() -> Self {
        Self {
            fast_after: 96,
            slow_after: Some(1_024),
            self_refresh_after: Some(16_384),
        }
    }

    /// The deepest mode whose threshold `idle` has crossed, if any.
    fn deepest_eligible(&self, idle: DramCycles) -> Option<PowerDownMode> {
        if self.self_refresh_after.is_some_and(|t| idle >= t) {
            Some(PowerDownMode::SelfRefresh)
        } else if self.slow_after.is_some_and(|t| idle >= t) {
            Some(PowerDownMode::Slow)
        } else if idle >= self.fast_after {
            Some(PowerDownMode::Fast)
        } else {
            None
        }
    }

    /// The threshold whose crossing would deepen a rank currently in
    /// `state`, if a deeper state is configured.
    fn next_threshold(&self, state: PowerState) -> Option<DramCycles> {
        match state {
            PowerState::PrechargeStandby => Some(self.fast_after),
            PowerState::PowerDownFast => self.slow_after.or(self.self_refresh_after),
            PowerState::PowerDownSlow => self.self_refresh_after,
            PowerState::ActiveStandby | PowerState::SelfRefresh => None,
        }
    }
}

/// Idle cycles an open row must sit unused before the power-aware policy
/// closes it on the rank's way to power-down.
pub const POWER_AWARE_PRECHARGE_AFTER: DramCycles = 256;

/// The timeout-driven power-down policy behind `Immediate`, `IdleTimer` and
/// `PowerAware`: per-rank demand-idle timers escalate each quiescent rank
/// through the configured low-power states.
#[derive(Debug, Clone)]
pub struct TimeoutPowerDown {
    timeouts: PowerTimeouts,
    /// `Some(threshold)` lets the policy precharge open-but-idle rows so a
    /// rank with rows parked open by the page policy can still power down.
    precharge_after: Option<DramCycles>,
    /// Cycle of the last demand access per rank.
    last_activity: Vec<DramCycles>,
}

impl TimeoutPowerDown {
    /// Creates the policy for `ranks` ranks.
    #[must_use]
    pub fn new(ranks: usize, timeouts: PowerTimeouts, precharge_after: Option<DramCycles>) -> Self {
        Self {
            timeouts,
            precharge_after,
            last_activity: vec![0; ranks],
        }
    }

    /// Whether this policy may act on `rank` at all: no demand pending and
    /// not already in the deepest state.
    fn rank_candidate(&self, view: &PolicyView<'_>, rank: usize) -> bool {
        !view.pending_for_rank(rank) && view.channel.power_state(rank) != PowerState::SelfRefresh
    }

    fn propose(&self, view: &PolicyView<'_>) -> Option<PowerAction> {
        for rank in 0..view.channel.rank_count() {
            if !self.rank_candidate(view, rank) {
                continue;
            }
            let idle = view.now.saturating_sub(self.last_activity[rank]);
            if let Some(mode) = self.timeouts.deepest_eligible(idle) {
                if view.channel.can_enter_power_down(rank, mode, view.now) {
                    return Some(PowerAction::PowerDown { rank, mode });
                }
            }
            if let Some(threshold) = self.precharge_after {
                if idle >= threshold && view.channel.power_state(rank) == PowerState::ActiveStandby
                {
                    if let Some((r, b, _)) = view.open_banks().find(|&(r, _, _)| r == rank) {
                        return Some(PowerAction::Precharge { rank: r, bank: b });
                    }
                }
            }
        }
        None
    }

    fn next_due(&self, view: &PolicyView<'_>) -> DramCycles {
        let mut due = DramCycles::MAX;
        for rank in 0..view.channel.rank_count() {
            if !self.rank_candidate(view, rank) {
                continue;
            }
            let state = view.channel.power_state(rank);
            let last = self.last_activity[rank];
            if let Some(threshold) = self.timeouts.next_threshold(state) {
                due = due.min((last + threshold).max(view.channel.earliest_power_down(rank)));
            }
            if let Some(threshold) = self.precharge_after {
                if state == PowerState::ActiveStandby {
                    for (_, bank, _) in view.open_banks().filter(|&(r, _, _)| r == rank) {
                        let fence = view.channel.rank(rank).bank(bank).next_precharge_allowed();
                        due = due.min((last + threshold).max(fence));
                    }
                }
            }
        }
        due
    }

    fn on_activity(&mut self, rank: usize, now: DramCycles) {
        if let Some(slot) = self.last_activity.get_mut(rank) {
            *slot = (*slot).max(now);
        }
    }
}

snap_fields! {
    TimeoutPowerDown {
        saved: { last_activity: fixed },
        skipped: {
            timeouts: "config-derived",
            precharge_after: "config-derived",
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank_table::BankTable;
    use crate::queue::RequestQueue;
    use crate::request::{AccessKind, MemoryRequest};
    use cloudmc_dram::{Command, DramChannel, DramConfig, Location};

    fn fixture() -> (DramChannel, RequestQueue, RequestQueue) {
        let cfg = DramConfig::baseline();
        (
            DramChannel::new(&cfg),
            RequestQueue::new(8),
            RequestQueue::new(8),
        )
    }

    fn view<'a>(now: DramCycles, ch: &'a DramChannel, banks: &'a BankTable) -> PolicyView<'a> {
        PolicyView {
            now,
            channel: ch,
            banks,
        }
    }

    #[test]
    fn none_policy_never_proposes() {
        let (ch, rq, wq) = fixture();
        let banks = BankTable::scan(&ch, &rq, &wq);
        let p = PowerPolicy::None;
        assert_eq!(p.propose(&view(10_000, &ch, &banks)), None);
        assert_eq!(p.next_due(&view(10_000, &ch, &banks)), DramCycles::MAX);
    }

    #[test]
    fn immediate_powers_down_quiescent_ranks_at_once() {
        let (ch, rq, wq) = fixture();
        let banks = BankTable::scan(&ch, &rq, &wq);
        let p = PowerPolicyKind::Immediate.build(2);
        assert_eq!(
            p.propose(&view(0, &ch, &banks)),
            Some(PowerAction::PowerDown {
                rank: 0,
                mode: PowerDownMode::Fast
            })
        );
    }

    #[test]
    fn pending_demand_vetoes_power_down() {
        let (ch, mut rq, wq) = fixture();
        let mut p = TimeoutPowerDown::new(2, PowerTimeouts::immediate(), None);
        rq.push(
            MemoryRequest::new(1, AccessKind::Read, 0, 0, 0),
            Location::new(0, 0, 5, 0),
            0,
        )
        .unwrap();
        let banks = BankTable::scan(&ch, &rq, &wq);
        // Rank 0 has demand; rank 1 is the only proposal.
        match p.propose(&view(0, &ch, &banks)) {
            Some(PowerAction::PowerDown { rank, .. }) => assert_eq!(rank, 1),
            other => panic!("unexpected proposal {other:?}"),
        }
        p.on_activity(0, 0);
        assert_eq!(p.last_activity[0], 0);
    }

    #[test]
    fn idle_timer_escalates_with_idle_time() {
        let (mut ch, rq, wq) = fixture();
        let timeouts = PowerTimeouts::idle_timer();
        let mut p = TimeoutPowerDown::new(2, timeouts, None);
        let banks = BankTable::scan(&ch, &rq, &wq);
        for r in 0..2 {
            p.on_activity(r, 100);
        }
        // Below the fast threshold: nothing, but the flip cycle is reported.
        let early = view(100 + timeouts.fast_after - 1, &ch, &banks);
        assert_eq!(p.propose(&early), None);
        assert_eq!(p.next_due(&early), 100 + timeouts.fast_after);
        // At the threshold: fast power-down.
        let at = view(100 + timeouts.fast_after, &ch, &banks);
        assert_eq!(
            p.propose(&at),
            Some(PowerAction::PowerDown {
                rank: 0,
                mode: PowerDownMode::Fast
            })
        );
        ch.enter_power_down(0, PowerDownMode::Fast, 100 + timeouts.fast_after);
        ch.enter_power_down(1, PowerDownMode::Fast, 100 + timeouts.fast_after);
        // Past the slow threshold the proposal deepens.
        let slow_at = 100 + timeouts.slow_after.unwrap();
        let v = view(slow_at, &ch, &banks);
        assert_eq!(
            p.propose(&v),
            Some(PowerAction::PowerDown {
                rank: 0,
                mode: PowerDownMode::Slow
            })
        );
        ch.enter_power_down(0, PowerDownMode::Slow, slow_at);
        ch.enter_power_down(1, PowerDownMode::Slow, slow_at);
        // And finally to self-refresh.
        let sr_at = 100 + timeouts.self_refresh_after.unwrap();
        let v = view(sr_at, &ch, &banks);
        assert_eq!(
            p.propose(&v),
            Some(PowerAction::PowerDown {
                rank: 0,
                mode: PowerDownMode::SelfRefresh
            })
        );
        ch.enter_power_down(0, PowerDownMode::SelfRefresh, sr_at);
        ch.enter_power_down(1, PowerDownMode::SelfRefresh, sr_at);
        // Deepest state: nothing further, no wake.
        let v = view(sr_at + 50_000, &ch, &banks);
        assert_eq!(p.propose(&v), None);
        assert_eq!(p.next_due(&v), DramCycles::MAX);
    }

    #[test]
    fn power_aware_closes_idle_open_rows() {
        let (mut ch, rq, wq) = fixture();
        let mut p = TimeoutPowerDown::new(
            2,
            PowerTimeouts::idle_timer(),
            Some(POWER_AWARE_PRECHARGE_AFTER),
        );
        ch.issue(&Command::activate(Location::new(0, 3, 9, 0)), 0);
        let banks = BankTable::scan(&ch, &rq, &wq);
        for r in 0..2 {
            p.on_activity(r, 0);
        }
        // Before the row-idle threshold, rank 0 yields no proposal of its
        // own (its open row blocks power-down), so the first action is the
        // close of its idle row once the threshold passes.
        let v = view(POWER_AWARE_PRECHARGE_AFTER, &ch, &banks);
        assert_eq!(
            p.propose(&v),
            Some(PowerAction::Precharge { rank: 0, bank: 3 })
        );
        // Close it; the rank then becomes a power-down candidate itself.
        let pre_at = POWER_AWARE_PRECHARGE_AFTER;
        ch.issue(&Command::precharge(Location::new(0, 3, 9, 0)), pre_at);
        let banks = BankTable::scan(&ch, &rq, &wq);
        let quiet = ch.earliest_power_down(0);
        let v = view(quiet, &ch, &banks);
        assert_eq!(
            p.propose(&v),
            Some(PowerAction::PowerDown {
                rank: 0,
                mode: PowerDownMode::Fast
            })
        );
    }

    #[test]
    fn kinds_build_parse_and_roundtrip() {
        for kind in PowerPolicyKind::all() {
            let _ = kind.build(2);
            let parsed: PowerPolicyKind = kind.to_string().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("bogus".parse::<PowerPolicyKind>().is_err());
        assert_eq!(PowerPolicyKind::all()[0], PowerPolicyKind::None);
    }
}
