//! The memory controller's own DRAM command stream through the independent
//! protocol checker of `crates/dram/tests/protocol`, which computes every
//! bound from `TimingParams` alone: every scheduler × page policy, the power
//! policies in rotation, faults off and on, at 1 and 4 channels. Two
//! mutation tests show the checker rejects a doctored log.

#[path = "../crates/dram/tests/protocol/mod.rs"]
mod protocol;
mod support;

use cloudmc_dram::{Command, CommandKind, Location, LogEvent};
use cloudmc_memctrl::{
    AccessKind, FaultConfig, McConfig, MemoryController, MemoryRequest, PagePolicyKind,
    PowerPolicyKind, SchedulerKind, UncorrectablePolicy,
};
use support::SplitMix;

/// The busy windows of a run, `[start, end)` in DRAM cycles. The gaps let
/// ranks power down; the last gap outlasts the idle timer's self-refresh
/// threshold, and the run outlasts the first refresh interval.
const BUSY: [(u64, u64); 5] = [
    (0, 1_000),
    (2_500, 3_500),
    (5_000, 6_000),
    (7_500, 8_500),
    (28_000, 28_500),
];

/// Runs `cfg` with command recording on, under bursts of reads and writes
/// from 16 cores (sequential lines of eight streams, so rows are hit and
/// conflicted) in the [`BUSY`] windows, driven like the simulator drives
/// it: `tick_due` every busy cycle, jumps to `next_due` when idle.
fn run(cfg: McConfig, seed: u64) -> MemoryController {
    let mut mc = MemoryController::new(cfg).expect("valid configuration");
    mc.record_commands();
    let mut rng = SplitMix(seed);
    let mut streams: Vec<u64> = (0..8).map(|_| rng.below(1 << 22) << 12).collect();
    let mut done = Vec::new();
    let mut refused: Option<MemoryRequest> = None;
    let mut id = 0;
    let mut now = 0;
    let end = BUSY[BUSY.len() - 1].1;
    while now < end {
        let busy = BUSY.iter().any(|&(from, to)| (from..to).contains(&now));
        if busy && (refused.is_some() || rng.below(3) == 0) {
            let request = refused.take().unwrap_or_else(|| {
                id += 1;
                let s = rng.below(8) as usize;
                streams[s] += 64;
                let kind = if rng.below(10) < 3 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                MemoryRequest::new(id, kind, streams[s], rng.below(16) as usize, now)
            });
            refused = mc.enqueue(request, now).err();
        }
        mc.tick_due(now, &mut done);
        done.clear();
        let next = if busy {
            now + 1
        } else {
            let next_busy = BUSY.iter().map(|&(from, _)| from).find(|&from| from > now);
            mc.next_due().clamp(now + 1, next_busy.unwrap_or(end))
        };
        mc.skip_dram_cycles(next - now - 1);
        now = next;
    }
    mc
}

#[test]
fn controller_streams_pass_the_protocol_checker() {
    let mut coverage = protocol::Coverage::default();
    let powers = PowerPolicyKind::all();
    let mut runs = 0;
    for (i, scheduler) in SchedulerKind::all().into_iter().enumerate() {
        for (j, page) in PagePolicyKind::all().into_iter().enumerate() {
            let power = powers[(i * 7 + j) % powers.len()];
            for faults in [false, true] {
                for channels in [1, 4] {
                    let mut cfg = McConfig::baseline();
                    cfg.scheduler = scheduler;
                    cfg.page_policy = page;
                    cfg.power_policy = power;
                    cfg.dram.channels = channels;
                    cfg.fault_model = faults.then(|| FaultConfig {
                        seed: runs,
                        transient_rate_fp: FaultConfig::rate_per_million_reads(2_000),
                        scrub_interval: 1_000,
                        stuck_rows_per_rank: 2,
                        on_uncorrectable: UncorrectablePolicy::PoisonAndContinue,
                        ..FaultConfig::baseline()
                    });
                    let (timing, ranks) = (cfg.dram.timing, cfg.dram.ranks_per_channel);
                    let mc = run(cfg, runs);
                    for channel in 0..channels {
                        let log = mc.command_log(channel).expect("recording is on");
                        protocol::check_log(&timing, ranks, log, &mut coverage).unwrap_or_else(
                            |e| {
                                panic!(
                                    "{scheduler}/{page:?}/{power:?}, faults {faults}, \
                                     channel {channel} of {channels}: {e}"
                                )
                            },
                        );
                    }
                    runs += 1;
                }
            }
        }
    }
    assert_eq!(
        coverage.unexercised(),
        Vec::<&str>::new(),
        "checks never exercised by {runs} runs: {coverage:?}"
    );
}

/// A clean controller log, then its first column access moved to one cycle
/// before its activate's tRCD.
#[test]
fn checker_rejects_a_column_one_cycle_inside_trcd() {
    let cfg = McConfig::baseline();
    let timing = cfg.dram.timing;
    let mc = run(cfg, 7);
    let (mut history, _) = protocol::split(mc.command_log(0).expect("recording is on"));
    protocol::bank_fences(&timing, &history).expect("clean log");
    let j = history
        .iter()
        .position(|(_, c)| c.kind.is_column())
        .expect("a column access");
    let column = history[j].1;
    let activate = history[..j]
        .iter()
        .rev()
        .find(|(_, c)| c.kind == CommandKind::Activate && protocol::same_bank(c, &column))
        .expect("the bank's activate")
        .0;
    history[j].0 = activate + timing.t_rcd - 1;
    let err = protocol::bank_fences(&timing, &history).expect_err("doctored log");
    assert!(err.contains("tRCD violated"), "{err}");
}

/// A clean controller log, then a READ to a rank inside its CKE-low window.
#[test]
fn checker_rejects_a_read_to_a_powered_down_rank() {
    let mut cfg = McConfig::baseline();
    cfg.power_policy = PowerPolicyKind::Immediate;
    let timing = cfg.dram.timing;
    let mc = run(cfg, 11);
    let mut log = mc.command_log(0).expect("recording is on").to_vec();
    let (history, cke) = protocol::split(&log);
    let (i, at, rank) = log
        .iter()
        .enumerate()
        .find_map(|(i, &(at, event))| match event {
            LogEvent::PowerDown { rank, .. } => Some((i, at, rank)),
            _ => None,
        })
        .expect("a power-down entry");
    protocol::power_fences(&timing, &history, &cke, rank, &mut [0; 6]).expect("clean log");
    let read = Command::read(Location::new(rank, 0, 0, 0), false);
    log.insert(i + 1, (at, LogEvent::Command(read)));
    let (history, cke) = protocol::split(&log);
    let err = protocol::power_fences(&timing, &history, &cke, rank, &mut [0; 6])
        .expect_err("doctored log");
    assert!(err.contains("while CKE low"), "{err}");
}
