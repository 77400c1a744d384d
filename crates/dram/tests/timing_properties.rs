//! Randomized tests of the DRAM timing model: for arbitrary legal command
//! sequences the device never violates its own protocol invariants.
//!
//! A naive driver of its own issues the streams; the checks live in the
//! shared `protocol` module, which computes every bound from `TimingParams`
//! fields alone (and also checks the memory controller's stream, in the
//! root `tests/controller_protocol.rs`). Each property runs over all three
//! timing presets.
//!
//! These were originally `proptest` properties; the build environment has no
//! registry access, so they now draw their cases from a seeded [`rand`]
//! stream — same invariants, deterministic inputs.

mod protocol;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cloudmc_dram::{
    Command, CommandKind, DramChannel, DramConfig, Location, LogEvent, PowerDownMode, PowerState,
    TimingParams,
};
use protocol::{is_column, History};

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
/// CKE. It records every command and CKE transition itself, in issue order.
fn drive(timing: TimingParams, requests: &[Req], power: Option<PowerPlan>) -> Vec<(u64, LogEvent)> {
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
    let mut log = Vec::new();
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
                    log.push((now, LogEvent::Wake { rank }));
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
                log.push((now, LogEvent::Command(cmd)));
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
                    log.push((now, LogEvent::PowerDown { rank, mode }));
                }
            }
        }
        now += 1;
    }
    log
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
            out.push((timing, protocol::split(&drive(timing, &requests, None)).0));
        }
    }
    out
}

/// Any request sequence can be served without panicking, and every request
/// results in exactly one column command.
#[test]
fn every_request_is_served_exactly_once() {
    let mut rng = StdRng::seed_from_u64(0xD1A);
    for _case in 0..16 {
        let requests = random_requests(&mut rng, 40);
        for timing in presets() {
            let (history, _) = protocol::split(&drive(timing, &requests, None));
            let columns = history.iter().filter(|(_, c)| is_column(c)).count();
            assert_eq!(columns, requests.len());
        }
    }
}

/// The four-activate window is never violated: any five consecutive activates
/// to one rank span more than tFAW cycles.
#[test]
fn tfaw_is_respected() {
    let mut checked = 0;
    for (t, history) in histories(0xFA11, 16, 60) {
        checked += protocol::tfaw(&t, &history, 2).unwrap();
    }
    assert!(checked > 0, "no tFAW window was exercised");
}

/// Same-bank activates are separated by at least tRC, and activates to
/// different banks of one rank by at least tRRD.
#[test]
fn activate_spacing_is_respected() {
    for (t, history) in histories(0x5BAC, 16, 60) {
        protocol::activate_spacing(&t, &history).unwrap();
    }
}

/// The bank fences: ACT → column (tRCD), ACT → PRE (tRAS), PRE → ACT (tRP),
/// RD → PRE (tRTP) and WR → PRE (write recovery, counted from the command:
/// CWL + burst + tWR).
#[test]
fn bank_fences_are_respected() {
    let mut checked = [0usize; 5];
    for (t, history) in histories(0xBA4C, 16, 60) {
        let fences = protocol::bank_fences(&t, &history).unwrap();
        for (sum, n) in checked.iter_mut().zip(fences) {
            *sum += n;
        }
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
        let fences = protocol::rank_fences(&t, &history).unwrap();
        for (sum, n) in checked.iter_mut().zip(fences) {
            *sum += n;
        }
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
        rank_switches += protocol::data_bus(&t, &history).unwrap();
    }
    assert!(rank_switches > 0, "no rank-to-rank burst was exercised");
}

/// At most one command is issued per DRAM cycle (command-bus constraint).
#[test]
fn one_command_per_cycle() {
    for (_, history) in histories(0xC10C, 16, 60) {
        protocol::one_command_per_cycle(&history).unwrap();
    }
}

/// The power-down fences hold on every preset under random idle
/// thresholds and modes, with deepening, and every check binds somewhere;
/// the whole checker passes the same streams.
#[test]
fn power_down_fences_are_respected() {
    let mut rng = StdRng::seed_from_u64(0xC4E);
    for timing in presets() {
        let mut coverage = protocol::Coverage::default();
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
            let log = drive(timing, &requests, Some(plan));
            let (history, _) = protocol::split(&log);
            let columns = history.iter().filter(|(_, c)| is_column(c)).count();
            assert_eq!(columns, requests.len(), "every request still served");
            protocol::check_log(&timing, 2, &log, &mut coverage).unwrap();
        }
        assert!(
            coverage.power.iter().all(|&n| n > 0),
            "a power-down check was never exercised on {timing:?}: {:?}",
            coverage.unexercised()
        );
    }
}
