//! Randomized tests of the DRAM timing model: for arbitrary legal command
//! sequences the device never violates its own protocol invariants.
//!
//! Every bound below is computed from `TimingParams` fields alone and checked
//! on the issued command stream, so a fence that `DramChannel` forgets or
//! mis-states shows up here rather than being reproduced by its own checks.
//! Each property runs over all three timing presets.
//!
//! These were originally `proptest` properties; the build environment has no
//! registry access, so they now draw their cases from a seeded [`rand`]
//! stream — same invariants, deterministic inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cloudmc_dram::{
    Command, CommandKind, DramChannel, DramConfig, Location, PowerDownMode, PowerState,
    TimingParams,
};

/// A request [`drive`] serves with an open-page policy, arriving `gap`
/// cycles after the one before it.
#[derive(Debug, Clone, Copy)]
struct Req {
    rank: usize,
    bank: usize,
    row: u64,
    column: u64,
    write: bool,
    gap: u64,
}

/// Requests with enough locality for every fence to bind somewhere: half of
/// them revisit the previous request's bank, rows come from a small set (so
/// hits and conflicts are both common), and a quarter arrive after an idle
/// gap (so a late column access can be followed at once by a precharge, and
/// the runs outlast a refresh interval).
fn random_requests(rng: &mut StdRng, max_len: usize) -> Vec<Req> {
    let len = rng.gen_range(1..max_len);
    let mut prev = (0, 0);
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.5) {
                prev = (rng.gen_range(0..2usize), rng.gen_range(0..8usize));
            }
            Req {
                rank: prev.0,
                bank: prev.1,
                row: rng.gen_range(0..4u64),
                column: rng.gen_range(0..128u64),
                write: rng.gen_bool(0.5),
                gap: if rng.gen_bool(0.25) {
                    rng.gen_range(0..1_600u64)
                } else {
                    0
                },
            }
        })
        .collect()
}

type History = Vec<(u64, Command)>;

/// A CKE transition of one rank, recorded next to the command history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cke {
    /// CKE dropped (or the rank deepened) into this mode.
    Enter(PowerDownMode),
    /// CKE raised: the rank begins its exit.
    Wake,
}

/// `(cycle, rank, transition)` in issue order.
type CkeLog = Vec<(u64, usize, Cke)>;

/// Power management for [`drive`]: a rank no pending request targets
/// powers down into `first` once it has been idle `idle_after` cycles, and
/// deepens into `deepest` after `deepen_after` more. A request for the rank
/// or a refresh coming due wakes it.
#[derive(Debug, Clone, Copy)]
struct PowerPlan {
    idle_after: u64,
    first: PowerDownMode,
    deepest: PowerDownMode,
    deepen_after: u64,
}

fn random_plan(rng: &mut StdRng) -> PowerPlan {
    let modes = [
        PowerDownMode::Fast,
        PowerDownMode::Slow,
        PowerDownMode::SelfRefresh,
    ];
    let first = rng.gen_range(0..3usize);
    PowerPlan {
        idle_after: if rng.gen_bool(0.5) {
            0
        } else {
            rng.gen_range(0..400u64)
        },
        first: modes[first],
        deepest: modes[rng.gen_range(first..3usize)],
        deepen_after: rng.gen_range(0..200u64),
    }
}

/// Requests [`drive`] considers at once: enough for back-to-back activates
/// to fill a tFAW window.
const WINDOW: usize = 8;

/// The command that serves `req` next: its column access on a row hit, a
/// precharge on a conflict, an activate on an idle bank.
fn progress(channel: &DramChannel, req: &Req) -> Command {
    let loc = Location::new(req.rank, req.bank, req.row, req.column);
    match channel.open_row(req.rank, req.bank) {
        Some(open) if open == req.row && req.write => Command::write(loc, false),
        Some(open) if open == req.row => Command::read(loc, false),
        Some(_) => Command::precharge(loc),
        None => Command::activate(loc),
    }
}

/// Drives the requests through a channel with a naive first-ready loop over
/// the oldest [`WINDOW`] arrived requests, returning the issue history. Each
/// cycle it offers the device every candidate in priority order — a due
/// refresh (REF, else a precharge closing one of the rank's rows), then each
/// request's [`progress`] command — and issues whatever `can_issue` accepts,
/// so the one-command-per-cycle rule is the device's to enforce. Only the
/// oldest request may close a row, and requests to a rank with a refresh due
/// wait for it. With a [`PowerPlan`] it also raises and drops each rank's
/// CKE, logging every transition.
fn drive(timing: TimingParams, requests: &[Req], power: Option<PowerPlan>) -> (History, CkeLog) {
    let mut channel = DramChannel::new(&DramConfig {
        timing,
        ..DramConfig::baseline()
    });
    let mut arrivals = requests.iter().scan(0u64, |at, req| {
        *at += req.gap;
        Some((*at, *req))
    });
    let mut next_arrival = arrivals.next();
    let mut pending: Vec<Req> = Vec::new();
    let mut history = Vec::new();
    let mut cke = Vec::new();
    let mut last_active = [0u64; 2];
    let mut now = 0u64;
    while next_arrival.is_some() || !pending.is_empty() {
        assert!(now < 2_000_000, "requests never became serviceable");
        while pending.len() < WINDOW {
            match next_arrival {
                Some((at, req)) if at <= now => {
                    pending.push(req);
                    last_active[req.rank] = now;
                    next_arrival = arrivals.next();
                }
                _ => break,
            }
        }
        if power.is_some() {
            for rank in 0..2 {
                let wanted = pending.iter().any(|req| req.rank == rank)
                    || channel.rank(rank).refresh_due(now);
                if channel.rank(rank).powered_down() && wanted {
                    channel.wake_rank(rank, now);
                    cke.push((now, rank, Cke::Wake));
                }
            }
        }
        let due = channel.refresh_due(now);
        let mut candidates = Vec::new();
        if let Some(rank) = due {
            candidates.push((Command::refresh(rank), None));
            for bank in 0..8 {
                if let Some(row) = channel.open_row(rank, bank) {
                    let pre = Command::precharge(Location::new(rank, bank, row, 0));
                    candidates.push((pre, None));
                }
            }
        }
        for (i, req) in pending.iter().enumerate() {
            let cmd = progress(&channel, req);
            if due != Some(req.rank) && (i == 0 || cmd.kind != CommandKind::Precharge) {
                candidates.push((cmd, Some(i)));
            }
        }
        // Under power management, rows of a rank nothing is waiting for are
        // closed so the rank can reach power-down.
        if power.is_some() {
            for rank in (0..2).filter(|&r| pending.iter().all(|req| req.rank != r)) {
                for bank in 0..8 {
                    if let Some(row) = channel.open_row(rank, bank) {
                        let pre = Command::precharge(Location::new(rank, bank, row, 0));
                        candidates.push((pre, None));
                    }
                }
            }
        }
        let mut served = None;
        for (cmd, owner) in candidates {
            if channel.can_issue(&cmd, now) {
                channel.issue(&cmd, now);
                history.push((now, cmd));
                last_active[cmd.loc.rank] = now;
                if cmd.kind.is_column() {
                    served = owner;
                }
            }
        }
        if let Some(i) = served {
            pending.remove(i);
        }
        if let Some(plan) = power {
            for (rank, &active) in last_active.iter().enumerate() {
                if pending.iter().any(|req| req.rank == rank) {
                    continue;
                }
                let idle = now - active;
                let mode = match channel.power_state(rank) {
                    PowerState::PrechargeStandby if idle >= plan.idle_after => plan.first,
                    PowerState::PowerDownFast | PowerState::PowerDownSlow
                        if idle >= plan.idle_after + plan.deepen_after =>
                    {
                        plan.deepest
                    }
                    _ => continue,
                };
                if channel.can_enter_power_down(rank, mode, now) {
                    channel.enter_power_down(rank, mode, now);
                    cke.push((now, rank, Cke::Enter(mode)));
                }
            }
        }
        now += 1;
    }
    (history, cke)
}

fn presets() -> [TimingParams; 3] {
    [
        TimingParams::ddr3_1600(),
        TimingParams::ddr3_1066(),
        TimingParams::ddr4_2400(),
    ]
}

/// Each preset's histories for `cases` random request sequences.
fn histories(seed: u64, cases: usize, max_len: usize) -> Vec<(TimingParams, History)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for timing in presets() {
        for _ in 0..cases {
            let requests = random_requests(&mut rng, max_len);
            out.push((timing, drive(timing, &requests, None).0));
        }
    }
    out
}

fn same_bank(a: &Command, b: &Command) -> bool {
    a.loc.rank == b.loc.rank && a.loc.bank == b.loc.bank
}

fn same_rank(a: &Command, b: &Command) -> bool {
    a.loc.rank == b.loc.rank
}

/// Checks that every command matching `later` issues at least `gap` cycles
/// after the most recent earlier command matching `earlier` in the same
/// `scope`. Returns how many such pairs were checked.
fn assert_min_gap(
    history: &History,
    name: &str,
    gap: u64,
    earlier: impl Fn(&Command) -> bool,
    later: impl Fn(&Command) -> bool,
    scope: impl Fn(&Command, &Command) -> bool,
) -> usize {
    let mut checked = 0;
    for (j, (t1, c1)) in history.iter().enumerate() {
        if !later(c1) {
            continue;
        }
        let prior = history[..j]
            .iter()
            .rev()
            .find(|(_, c0)| earlier(c0) && scope(c0, c1));
        if let Some((t0, c0)) = prior {
            assert!(
                t1 - t0 >= gap,
                "{name} violated: {} at {t0} then {} at {t1} (need {gap})",
                c0.kind,
                c1.kind
            );
            checked += 1;
        }
    }
    checked
}

fn is_act(c: &Command) -> bool {
    c.kind == CommandKind::Activate
}

fn is_pre(c: &Command) -> bool {
    c.kind == CommandKind::Precharge
}

fn is_ref(c: &Command) -> bool {
    c.kind == CommandKind::Refresh
}

fn is_column(c: &Command) -> bool {
    c.kind.is_column()
}

fn is_read(c: &Command) -> bool {
    c.kind.is_read()
}

fn is_write(c: &Command) -> bool {
    c.kind.is_write()
}

fn any(_: &Command) -> bool {
    true
}

/// Any request sequence can be served without panicking, and every request
/// results in exactly one column command.
#[test]
fn every_request_is_served_exactly_once() {
    let mut rng = StdRng::seed_from_u64(0xD1A);
    for _case in 0..16 {
        let requests = random_requests(&mut rng, 40);
        for timing in presets() {
            let (history, _) = drive(timing, &requests, None);
            let columns = history.iter().filter(|(_, c)| is_column(c)).count();
            assert_eq!(columns, requests.len());
        }
    }
}

/// The four-activate window is never violated: any five consecutive activates
/// to one rank span more than tFAW cycles.
#[test]
fn tfaw_is_respected() {
    for (t, history) in histories(0xFA11, 16, 60) {
        for rank in 0..2 {
            let acts: Vec<u64> = history
                .iter()
                .filter(|(_, c)| is_act(c) && c.loc.rank == rank)
                .map(|(time, _)| *time)
                .collect();
            for window in acts.windows(5) {
                assert!(
                    window[4] - window[0] >= t.t_faw,
                    "five activates within tFAW: {window:?}"
                );
            }
        }
    }
}

/// Same-bank activates are separated by at least tRC, and activates to
/// different banks of one rank by at least tRRD.
#[test]
fn activate_spacing_is_respected() {
    for (t, history) in histories(0x5BAC, 16, 60) {
        assert_min_gap(&history, "tRRD", t.t_rrd, is_act, is_act, same_rank);
        assert_min_gap(&history, "tRC", t.t_rc, is_act, is_act, same_bank);
    }
}

/// The bank fences: ACT → column (tRCD), ACT → PRE (tRAS), PRE → ACT (tRP),
/// RD → PRE (tRTP) and WR → PRE (write recovery, counted from the command:
/// CWL + burst + tWR).
#[test]
fn bank_fences_are_respected() {
    let mut checked = [0usize; 5];
    for (t, history) in histories(0xBA4C, 16, 60) {
        let h = &history;
        checked[0] += assert_min_gap(h, "tRCD", t.t_rcd, is_act, is_column, same_bank);
        checked[1] += assert_min_gap(h, "tRAS", t.t_ras, is_act, is_pre, same_bank);
        checked[2] += assert_min_gap(h, "tRP", t.t_rp, is_pre, is_act, same_bank);
        checked[3] += assert_min_gap(h, "tRTP", t.t_rtp, is_read, is_pre, same_bank);
        let write_recovery = t.cwl + t.t_burst + t.t_wr;
        checked[4] += assert_min_gap(h, "tWR", write_recovery, is_write, is_pre, same_bank);
    }
    assert!(
        checked.iter().all(|&n| n > 0),
        "a fence was never exercised: {checked:?}"
    );
}

/// The rank fences: column → column (tCCD), WR → RD (CWL + burst + tWTR),
/// and REF → any command to the rank (tRFC).
#[test]
fn rank_fences_are_respected() {
    let mut checked = [0usize; 3];
    for (t, history) in histories(0x4A4C, 16, 60) {
        let h = &history;
        checked[0] += assert_min_gap(h, "tCCD", t.t_ccd, is_column, is_column, same_rank);
        let write_to_read = t.cwl + t.t_burst + t.t_wtr;
        checked[1] += assert_min_gap(h, "tWTR", write_to_read, is_write, is_read, same_rank);
        checked[2] += assert_min_gap(h, "tRFC", t.t_rfc, is_ref, any, same_rank);
    }
    assert!(
        checked.iter().all(|&n| n > 0),
        "a fence was never exercised: {checked:?}"
    );
}

/// Data bursts never overlap on the shared data bus, and consecutive bursts
/// from different ranks leave at least tRTRS between them.
#[test]
fn data_bus_bursts_never_overlap() {
    let mut rank_switches = 0;
    for (t, history) in histories(0xB0B5, 16, 60) {
        let mut bursts: Vec<(u64, u64, usize)> = history
            .iter()
            .filter_map(|(time, c)| {
                let start = match c.kind {
                    CommandKind::Read { .. } => time + t.cl,
                    CommandKind::Write { .. } => time + t.cwl,
                    _ => return None,
                };
                Some((start, start + t.t_burst, c.loc.rank))
            })
            .collect();
        bursts.sort_unstable();
        for pair in bursts.windows(2) {
            let ((_, end, rank0), (start, _, rank1)) = (pair[0], pair[1]);
            let gap = if rank0 == rank1 {
                0
            } else {
                rank_switches += 1;
                t.t_rtrs
            };
            assert!(
                start >= end + gap,
                "data bursts too close: {:?} then {:?} (need {gap} idle)",
                pair[0],
                pair[1]
            );
        }
    }
    assert!(rank_switches > 0, "no rank-to-rank burst was exercised");
}

/// At most one command is issued per DRAM cycle (command-bus constraint).
#[test]
fn one_command_per_cycle() {
    for (_, history) in histories(0xC10C, 16, 60) {
        for pair in history.windows(2) {
            assert!(pair[1].0 > pair[0].0, "two commands in cycle {}", pair[0].0);
        }
    }
}

/// Checks the power-down fences of one rank's run from `TimingParams`
/// alone, adding to `checked` how often each was exercised:
///
/// * `[0]` no command reaches the rank from its CKE-low entry through its
///   wake;
/// * `[1..=3]` after a wake at `w`, the first command to the rank issues at
///   or after `max(w, entry + tCKE) + exit`, with `exit` tXP, tXPDLL or tXS
///   by the deepest mode entered (one counter each) and `entry` the last
///   CKE-low transition;
/// * `[4]` wakes where the `entry + tCKE` term is the binding one;
/// * `[5]` consecutive CKE transitions (entry, deepening, or entry after
///   the CKE rise of a wake) are at least tCKE apart.
fn check_power_fences(
    t: &TimingParams,
    history: &History,
    cke: &CkeLog,
    rank: usize,
    checked: &mut [usize; 6],
) {
    let commands: Vec<u64> = history
        .iter()
        .filter(|(_, c)| c.loc.rank == rank)
        .map(|&(at, _)| at)
        .collect();
    let events: Vec<(u64, Cke)> = cke
        .iter()
        .filter(|&&(_, r, _)| r == rank)
        .map(|&(at, _, event)| (at, event))
        .collect();
    // (first entry, last transition, mode) while CKE is low.
    let mut low: Option<(u64, u64, PowerDownMode)> = None;
    let mut last_rise: Option<u64> = None;
    for (i, &(at, event)) in events.iter().enumerate() {
        match event {
            Cke::Enter(mode) => {
                if let Some(prev) = low.map(|(_, last, _)| last).or(last_rise) {
                    assert!(
                        at >= prev + t.t_cke,
                        "rank {rank}: CKE transition at {at} within tCKE of {prev}"
                    );
                    checked[5] += 1;
                }
                low = Some((low.map_or(at, |(first, _, _)| first), at, mode));
            }
            Cke::Wake => {
                let (entry, last, mode) = low.take().expect("wake of an awake rank");
                let during = commands.iter().find(|&&c| c >= entry && c <= at);
                assert!(
                    during.is_none(),
                    "rank {rank}: command at {during:?} while CKE low ({entry}..={at})"
                );
                checked[0] += 1;
                let rise = at.max(last + t.t_cke);
                let (exit, kind) = match mode {
                    PowerDownMode::Fast => (t.t_xp, 1),
                    PowerDownMode::Slow => (t.t_xpdll, 2),
                    PowerDownMode::SelfRefresh => (t.t_xs, 3),
                };
                let next_entry = events[i + 1..]
                    .iter()
                    .find(|(_, e)| matches!(e, Cke::Enter(_)))
                    .map_or(u64::MAX, |&(next, _)| next);
                if let Some(&first) = commands.iter().find(|&&c| c > at && c < next_entry) {
                    assert!(
                        first >= rise + exit,
                        "rank {rank}: {mode:?} woken at {at} (last entry {last}) \
                         took a command at {first}, before {}",
                        rise + exit
                    );
                    checked[kind] += 1;
                    if rise > at {
                        checked[4] += 1;
                    }
                }
                last_rise = Some(rise);
            }
        }
    }
}

/// The power-down fences hold on every preset under random idle
/// thresholds and modes, with deepening, and every check binds somewhere.
#[test]
fn power_down_fences_are_respected() {
    let mut rng = StdRng::seed_from_u64(0xC4E);
    for timing in presets() {
        let mut checked = [0usize; 6];
        for _ in 0..48 {
            // Some arrivals a few cycles apart, so a wake can land inside
            // the tCKE window of the entry just before it.
            let mut requests = random_requests(&mut rng, 60);
            for req in &mut requests {
                if rng.gen_bool(0.4) {
                    req.gap = rng.gen_range(1..8u64);
                }
            }
            let plan = random_plan(&mut rng);
            let (history, cke) = drive(timing, &requests, Some(plan));
            let columns = history.iter().filter(|(_, c)| is_column(c)).count();
            assert_eq!(columns, requests.len(), "every request still served");
            for rank in 0..2 {
                check_power_fences(&timing, &history, &cke, rank, &mut checked);
            }
        }
        assert!(
            checked.iter().all(|&n| n > 0),
            "a power-down check was never exercised on {timing:?}: {checked:?}"
        );
    }
}
