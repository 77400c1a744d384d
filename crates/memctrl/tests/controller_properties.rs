//! Randomized tests of the memory controller: address mapping is a bijection,
//! every enqueued request completes exactly once under every scheduler and
//! page-policy combination, and the event-driven `tick_due` / `next_due`
//! drive is indistinguishable from ticking every cycle on busy channels.
//!
//! These were originally `proptest` properties; the build environment has no
//! registry access, so they now draw their cases from a seeded [`rand`]
//! stream — same invariants, deterministic inputs.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cloudmc_dram::DramConfig;
use cloudmc_memctrl::{
    AccessKind, AddressMapping, CompletedRequest, FaultConfig, McConfig, MemoryController,
    MemoryRequest, PagePolicyKind, PowerPolicyKind, QosConfig, QosPolicyKind, SchedulerKind,
};

/// decode(addr) -> encode(decoded) is the identity for in-range addresses
/// under every mapping and channel count.
#[test]
fn address_mapping_round_trips() {
    let mut rng = StdRng::seed_from_u64(0xAD0);
    for mapping in AddressMapping::all() {
        for channels in [1usize, 2, 4] {
            let cfg = DramConfig::with_channels(channels);
            for _case in 0..64 {
                let block = rng.gen_range(0..(1u64 << 40) / 64);
                let addr = (block * 64) % cfg.capacity_bytes();
                let decoded = mapping.decode(addr, &cfg);
                assert!(decoded.channel < channels);
                assert!(decoded.location.rank < cfg.ranks_per_channel);
                assert!(decoded.location.bank < cfg.banks_per_rank);
                assert!(decoded.location.row < cfg.rows_per_bank);
                assert!(decoded.location.column < cfg.columns_per_row());
                assert_eq!(mapping.encode(&decoded, &cfg), addr, "{mapping} {addr:#x}");
            }
        }
    }
}

/// Two distinct block addresses never decode to the same coordinates.
#[test]
fn address_mapping_is_injective_on_blocks() {
    let mut rng = StdRng::seed_from_u64(0x1213);
    let cfg = DramConfig::with_channels(4);
    for mapping in AddressMapping::all() {
        for _case in 0..64 {
            let a = rng.gen_range(0..1_000_000u64);
            let b = rng.gen_range(0..1_000_000u64);
            if a == b {
                continue;
            }
            let da = mapping.decode(a * 64, &cfg);
            let db = mapping.decode(b * 64, &cfg);
            assert_ne!(
                (da.channel, da.location),
                (db.channel, db.location),
                "{mapping}: blocks {a} and {b} collide"
            );
        }
    }
}

/// Every enqueued request completes exactly once, regardless of the
/// scheduler, page policy, mapping and channel count in use.
#[test]
fn requests_are_conserved() {
    let mut rng = StdRng::seed_from_u64(0xC0_1357);
    for case in 0..24 {
        let scheduler = SchedulerKind::all()[case % 6];
        let policy = PagePolicyKind::all()[rng.gen_range(0..PagePolicyKind::all().len())];
        let mapping = AddressMapping::all()[rng.gen_range(0..4usize)];
        let channels = [1usize, 2][rng.gen_range(0..2usize)];

        let mut cfg = McConfig::baseline();
        cfg.scheduler = scheduler;
        cfg.page_policy = policy;
        cfg.mapping = mapping;
        cfg.dram.channels = channels;
        let mut mc = MemoryController::new(cfg).expect("valid config");
        let mut pending = std::collections::VecDeque::new();
        let total = rng.gen_range(1..48usize);
        for i in 0..total {
            let kind = if rng.gen_bool(0.5) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let addr = (rng.gen_range(0..1u64 << 26) * 64) % cfg.dram.capacity_bytes();
            let core = rng.gen_range(0..16usize);
            pending.push_back(MemoryRequest::new(i as u64, kind, addr, core, 0));
        }
        let mut completed = HashSet::new();
        let mut done = Vec::new();
        let mut cycle = 0u64;
        while completed.len() < total {
            assert!(
                cycle < 500_000,
                "{scheduler} / {policy} / {mapping}: requests did not drain ({}/{total})",
                completed.len()
            );
            // Feed requests as queue space allows, spread over time.
            if cycle.is_multiple_of(3) {
                if let Some(mut req) = pending.pop_front() {
                    // Arrival is the cycle the controller first sees the
                    // request; generation only staggers issue order.
                    req.arrival = cycle;
                    if mc.enqueue(req, cycle).is_err() {
                        pending.push_front(req);
                    }
                }
            }
            mc.tick(cycle, &mut done);
            for d in done.drain(..) {
                assert!(
                    completed.insert(d.request.id),
                    "request {} completed twice",
                    d.request.id
                );
                assert!(d.completion >= d.request.arrival);
            }
            cycle += 1;
        }
        let stats = mc.stats();
        assert_eq!(stats.completed(), total as u64);
        assert_eq!(
            stats.row_hits + stats.row_misses + stats.row_conflicts,
            total as u64
        );
        assert_eq!(mc.pending(), 0);
    }
}

/// Drives a controller built from `cfg` through `arrivals` (sorted by cycle;
/// a request that finds its queue full is dropped) up to `horizon`, either
/// ticking every cycle or jumping from one `next_due` to the next.
fn drive(
    cfg: McConfig,
    arrivals: &[(u64, MemoryRequest)],
    horizon: u64,
    jump: bool,
) -> (MemoryController, Vec<CompletedRequest>) {
    let mut mc = MemoryController::new(cfg).expect("valid config");
    let mut done = Vec::new();
    let mut arrivals = arrivals.iter().peekable();
    let mut c = 0;
    while c < horizon {
        while let Some(&(_, request)) = arrivals.next_if(|(at, _)| *at == c) {
            let _ = mc.enqueue(request, c);
        }
        if !jump {
            mc.tick(c, &mut done);
            c += 1;
            continue;
        }
        mc.tick_due(c, &mut done);
        let mut next = mc.next_due().clamp(c + 1, horizon);
        if let Some(&&(at, _)) = arrivals.peek() {
            next = next.min(at);
        }
        if next > c + 1 {
            mc.skip_dram_cycles(next - c - 1);
        }
        c = next;
    }
    (mc, done)
}

/// Sustained mixed traffic: 250-cycle bursts at ~0.3 requests per cycle
/// (45% writes) alternate with near-idle gaps, so the write queue crosses
/// the drain watermarks in both directions while reads are still queued,
/// rows are hit, missed and conflicted, and queues fill to back-pressure.
fn busy_arrivals(rng: &mut StdRng, horizon: u64, tenants: usize) -> Vec<(u64, MemoryRequest)> {
    let mut out = Vec::new();
    for c in 0..horizon {
        let rate = if (c / 250).is_multiple_of(2) {
            0.3
        } else {
            0.02
        };
        if !rng.gen_bool(rate) {
            continue;
        }
        let id = out.len() as u64;
        let kind = if rng.gen_bool(0.45) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let addr = rng.gen_range(0..8u64) * 0x2_0000 + rng.gen_range(0..32u64) * 64;
        let core = rng.gen_range(0..16usize);
        let request =
            MemoryRequest::new(id, kind, addr, core, c).with_tenant(id as usize % tenants);
        out.push((c, request));
    }
    out
}

/// Busy channels skip to the cycle their tick reports: for every
/// scheduler x page policy x {1, 2} channels (power policies rotating), plus
/// a QoS row and a fault-injection row, the jumping drive must give the
/// per-cycle drive's completions, statistics, device counters (refreshes
/// included) and fault ledger exactly.
#[test]
fn busy_channel_jumps_match_per_cycle_ticks() {
    let mut rng = StdRng::seed_from_u64(0xB057);
    let mut base = McConfig::baseline();
    base.read_queue_capacity = 16;
    base.write_queue_capacity = 16;
    base.write_drain_high = 10;
    base.write_drain_low = 4;
    // Refresh every 700 cycles: both ranks fall due together, inside bursts,
    // so postponed and forced refreshes interleave with queued traffic.
    base.dram.timing.t_refi = 700;
    let mut rows: Vec<(McConfig, String)> = Vec::new();
    for (i, scheduler) in SchedulerKind::all().into_iter().enumerate() {
        for (j, policy) in PagePolicyKind::all().into_iter().enumerate() {
            for channels in [1, 2] {
                let mut cfg = base;
                cfg.scheduler = scheduler;
                cfg.page_policy = policy;
                cfg.power_policy = PowerPolicyKind::all()[(i + j + channels) % 4];
                cfg.dram.channels = channels;
                let label = format!("{scheduler}/{policy}/{}/{channels}ch", cfg.power_policy);
                rows.push((cfg, label));
            }
        }
    }
    let mut qos = base;
    qos.scheduler = SchedulerKind::Fcfs;
    qos.dram.channels = 2;
    qos.qos = QosConfig {
        policy: QosPolicyKind::StaticPartition,
        tenants: 2,
        latency_critical: [true, false, false, false],
        share: [3, 1, 1, 1],
        epoch: 512,
    };
    rows.push((qos, "QoS static partition/FCFS/2ch".into()));
    let mut fault = base;
    fault.scheduler = "par-bs".parse().unwrap();
    fault.power_policy = PowerPolicyKind::IdleTimer;
    fault.fault_model = Some(FaultConfig {
        transient_rate_fp: FaultConfig::rate_per_million_reads(200_000),
        uncorrectable_permille: 100,
        scrub_interval: 300,
        retry_backoff: 16,
        ..FaultConfig::baseline()
    });
    rows.push((fault, "faults+scrub/PAR-BS/1ch".into()));

    let horizon = 3_000;
    for (cfg, label) in rows {
        let arrivals = busy_arrivals(&mut rng, horizon, cfg.qos.tenants.max(1));
        let (naive, naive_done) = drive(cfg, &arrivals, horizon, false);
        let (jumped, jumped_done) = drive(cfg, &arrivals, horizon, true);
        assert!(
            naive.stats().writes_completed > 0,
            "{label}: no writes served"
        );
        assert!(
            naive.channel_device_stats(0).refreshes >= 4,
            "{label}: refresh idle"
        );
        assert_eq!(naive_done, jumped_done, "{label}: completions diverged");
        assert_eq!(naive.stats(), jumped.stats(), "{label}: stats diverged");
        for ch in 0..naive.channel_count() {
            assert_eq!(
                naive.channel_device_stats_at(ch, horizon),
                jumped.channel_device_stats_at(ch, horizon),
                "{label}: channel {ch} device counters diverged"
            );
        }
        assert_eq!(
            naive.fault_ledger(),
            jumped.fault_ledger(),
            "{label}: fault ledgers diverged"
        );
    }
}
