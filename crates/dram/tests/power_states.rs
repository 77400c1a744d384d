//! Channel-level properties of the rank power-state machine: command
//! legality while powered down, JEDEC entry/exit fences, residency
//! conservation, and the interaction with refresh.

use cloudmc_dram::{
    Command, DramChannel, DramConfig, EnergyModel, Location, PowerDownMode, PowerState,
};

fn channel() -> (DramChannel, DramConfig) {
    let cfg = DramConfig::baseline();
    (DramChannel::new(&cfg), cfg)
}

#[test]
fn powered_down_rank_rejects_every_command() {
    let (mut ch, cfg) = channel();
    let t = cfg.timing;
    let loc = Location::new(0, 0, 5, 0);
    assert!(ch.can_enter_power_down(0, PowerDownMode::Fast, 0));
    ch.enter_power_down(0, PowerDownMode::Fast, 0);
    assert_eq!(ch.power_state(0), PowerState::PowerDownFast);
    for cmd in [Command::activate(loc), Command::refresh(0)] {
        assert!(!ch.can_issue(&cmd, 100));
        assert_eq!(ch.earliest_legal(&cmd), None);
    }
    // The other rank is unaffected.
    let other = Location::new(1, 0, 5, 0);
    assert!(ch.can_issue(&Command::activate(other), 100));
    // After the wake, commands become legal at the announced ready cycle.
    let ready = ch.wake_rank(0, 100);
    assert_eq!(ready, 100 + t.t_xp);
    assert!(!ch.can_issue(&Command::activate(loc), ready - 1));
    assert!(ch.can_issue(&Command::activate(loc), ready));
}

#[test]
fn entry_waits_for_open_rows_and_in_flight_bursts() {
    let (mut ch, cfg) = channel();
    let t = cfg.timing;
    let loc = Location::new(0, 0, 5, 0);
    ch.issue(&Command::activate(loc), 0);
    // Open row: entry illegal regardless of time.
    assert!(!ch.can_enter_power_down(0, PowerDownMode::Fast, 10_000.min(t.t_refi - 1)));
    let rd_at = t.t_rcd;
    ch.issue(&Command::read(loc, false), rd_at);
    let pre_at = t.t_ras;
    ch.issue(&Command::precharge(loc), pre_at);
    // The precharge must complete before CKE can drop.
    assert!(!ch.can_enter_power_down(0, PowerDownMode::Fast, pre_at));
    let quiet = ch.earliest_power_down(0);
    assert!(quiet >= pre_at + t.t_rp);
    assert!(ch.can_enter_power_down(0, PowerDownMode::Fast, quiet));
}

#[test]
fn self_refresh_rank_is_never_refresh_due() {
    let (mut ch, cfg) = channel();
    let t = cfg.timing;
    ch.enter_power_down(0, PowerDownMode::SelfRefresh, 0);
    // Rank 0 self-maintains; rank 1 still comes due on schedule.
    assert_eq!(ch.refresh_due(t.t_refi), Some(1));
    assert_eq!(ch.refresh_due(t.t_refi * 3), Some(1));
    // Exiting self-refresh restarts the schedule one interval out and fences
    // REF behind the exit latency.
    let wake_at = t.t_refi * 2;
    let ready = ch.wake_rank(0, wake_at);
    assert_eq!(ready, wake_at + t.t_xs);
    assert_eq!(
        ch.earliest_legal(&Command::refresh(0)),
        Some(ready),
        "REF must wait out tXS"
    );
    assert_eq!(ch.refresh_due(wake_at + t.t_refi - 1), Some(1));
}

#[test]
fn fast_power_down_refused_while_refresh_overdue() {
    let (mut ch, cfg) = channel();
    let t = cfg.timing;
    // Past the due cycle, fast/slow entry would be woken right back up.
    assert!(!ch.can_enter_power_down(0, PowerDownMode::Fast, t.t_refi));
    // Self-refresh is allowed: the on-die engine takes over the obligation.
    assert!(ch.can_enter_power_down(0, PowerDownMode::SelfRefresh, t.t_refi));
    // Serving the refresh re-enables fast entry.
    let out = ch.issue(&Command::refresh(0), t.t_refi);
    assert!(ch.can_enter_power_down(0, PowerDownMode::Fast, out.completion_cycle));
}

#[test]
fn residency_conserves_rank_cycles_under_activity() {
    let (mut ch, cfg) = channel();
    let t = cfg.timing;
    let loc = Location::new(0, 0, 5, 0);
    ch.issue(&Command::activate(loc), 0);
    ch.issue(&Command::read(loc, false), t.t_rcd);
    ch.issue(&Command::precharge(loc), t.t_ras);
    ch.enter_power_down(1, PowerDownMode::Fast, 100);
    for now in [100u64, 500] {
        let stats = ch.stats_at(now);
        assert_eq!(
            stats.state_residency_cycles(),
            now * ch.rank_count() as u64,
            "residency must sum to elapsed rank-cycles at {now}"
        );
    }
    let wake_at = 1_000;
    ch.wake_rank(1, wake_at);
    for now in [1_000u64, 4_000] {
        let stats = ch.stats_at(now);
        assert_eq!(
            stats.state_residency_cycles(),
            now * ch.rank_count() as u64,
            "residency must sum to elapsed rank-cycles at {now}"
        );
    }
    let stats = ch.stats_at(4_000);
    assert_eq!(stats.power_down_fast_cycles, wake_at - 100);
    assert_eq!(stats.active_standby_cycles, t.t_ras);
    assert_eq!(stats.power_down_entries, 1);
    assert_eq!(stats.power_wakes, 1);
    // The live counter view never reports residency.
    assert_eq!(ch.stats().state_residency_cycles(), 0);
}

#[test]
fn energy_accrual_is_monotone_and_rewards_power_down() {
    let (mut ch, _) = channel();
    let model = EnergyModel::default();
    let t = *ch.timing();
    let mut last = 0.0;
    ch.enter_power_down(0, PowerDownMode::Slow, 0);
    for now in [0u64, 100, 1_000, 10_000.min(t.t_refi - 1)] {
        let e = model
            .breakdown_from_residency(&ch.stats_at(now), &t)
            .total_pj();
        assert!(e >= last, "energy must accrue monotonically");
        last = e;
    }
    // An identical channel that stayed in standby burns more background.
    let (awake, _) = channel();
    let horizon = t.t_refi - 1;
    let e_awake = model
        .breakdown_from_residency(&awake.stats_at(horizon), &t)
        .total_pj();
    let e_asleep = model
        .breakdown_from_residency(&ch.stats_at(horizon), &t)
        .total_pj();
    assert!(
        e_asleep < e_awake,
        "slow power-down must cut background energy ({e_asleep} vs {e_awake})"
    );
}

#[test]
fn deepening_transitions_accumulate_distinct_residency() {
    let (mut ch, cfg) = channel();
    let t = cfg.timing;
    ch.enter_power_down(0, PowerDownMode::Fast, 0);
    assert!(ch.can_enter_power_down(0, PowerDownMode::Slow, t.t_cke));
    ch.enter_power_down(0, PowerDownMode::Slow, 100);
    ch.enter_power_down(0, PowerDownMode::SelfRefresh, 300);
    let stats = ch.stats_at(1_000);
    assert_eq!(stats.power_down_fast_cycles, 100);
    assert_eq!(stats.power_down_slow_cycles, 200);
    assert_eq!(stats.self_refresh_cycles, 700);
    assert_eq!(
        stats.power_down_entries, 1,
        "deepening is not a fresh entry"
    );
    assert_eq!(stats.self_refresh_entries, 1);
}
