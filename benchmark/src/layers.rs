//! Isolated layer kernels: one layer's public API called directly, on the
//! workload's own inputs, to split what the four spans of the traced loop
//! cannot (a `Frontend::tick` span is `workloads` + `cpu`; a `Backend::tick`
//! span is `memctrl` + `dram`).
//!
//! The inputs are derived once per run from the same `CoreStream`s the
//! simulated cores consume: the op stream, the L1-miss stream those ops
//! produce in a core, and the L2-miss stream that reaches memory. Every
//! kernel reports host nanoseconds per call from the fast decile of its batch
//! times.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cloudmc_cpu::{Cache, CoreOp, CoreRequest, InOrderCore, OpKind, SharedL2};
use cloudmc_dram::{Command, DramChannel, Location};
use cloudmc_memctrl::{AccessKind, MemoryController, MemoryRequest, SchedulerKind};
use cloudmc_sim::SystemConfig;
use cloudmc_telemetry::LatencyHistogram;
use cloudmc_workloads::WorkloadStreams;

use crate::estimate::summarize;
use crate::timed::Ops;

/// Runs `batch` (which makes `calls` calls) back to back for about `budget`,
/// at least five times, and returns the fast-decile host ns per call.
fn ns_per_call(budget: Duration, calls: usize, mut batch: impl FnMut()) -> f64 {
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        batch();
        times.push(t.elapsed().as_secs_f64());
    }
    summarize(&times).fast * 1e9 / calls as f64
}

/// The workload's own inputs to the layers below the op stream.
pub struct Inputs {
    /// Data accesses of the op stream: (address, is store).
    data_ops: Vec<(u64, bool)>,
    /// What the cores sent below their L1s (refills and write-backs).
    l1_misses: Vec<CoreRequest>,
    /// Block addresses that missed a cold-started shared L2, with the kind
    /// the memory controller would see.
    mem_requests: Vec<(u64, AccessKind)>,
}

const CORE_TICKS_PER_BATCH: usize = 65_536;
/// Upper bounds on input derivation, so a near-idle workload (whose cores
/// rarely miss) cannot make it unbounded; the kernels loop over what exists.
const MAX_DERIVE_TICKS: usize = 4_000_000;
const WANTED_L1_MISSES: usize = 32_768;

struct Cores {
    streams: WorkloadStreams,
    cores: Vec<InOrderCore>,
}

impl Cores {
    fn new(cfg: &SystemConfig) -> Self {
        let tenancy = cfg.tenancy();
        Self {
            streams: WorkloadStreams::from_mix(tenancy, cfg.seed),
            cores: (0..tenancy.total_cores())
                .map(|i| InOrderCore::new(i, cfg.core).with_tenant(tenancy.tenant_of_core(i)))
                .collect(),
        }
    }

    /// One `InOrderCore::tick` of core `i` on its own stream, with every
    /// refill it asks for delivered instantly (so the core never stalls and
    /// each tick exercises the op path).
    #[inline]
    fn tick(&mut self, i: usize, sink: &mut impl FnMut(CoreRequest)) {
        let stream = self.streams.stream_mut(i);
        let requests = self.cores[i].tick(&mut || stream.next_op());
        for request in requests {
            if !request.write {
                self.cores[i].fill(request.addr);
            }
            sink(request);
        }
    }
}

impl Inputs {
    pub fn derive(cfg: &SystemConfig) -> Self {
        let mut streams = WorkloadStreams::from_mix(cfg.tenancy(), cfg.seed);
        let n = streams.cores();
        let mut data_ops = Vec::new();
        let mut pulls = 0usize;
        while data_ops.len() < WANTED_L1_MISSES && pulls < MAX_DERIVE_TICKS {
            if let CoreOp::Mem(op) = streams.stream_mut(pulls % n).next_op() {
                if op.kind != OpKind::Ifetch {
                    data_ops.push((op.addr, op.kind == OpKind::Store));
                }
            }
            pulls += 1;
        }

        let mut cores = Cores::new(cfg);
        let mut l1_misses = Vec::new();
        let mut ticks = 0usize;
        while l1_misses.len() < WANTED_L1_MISSES && ticks < MAX_DERIVE_TICKS {
            cores.tick(ticks % n, &mut |request| l1_misses.push(request));
            ticks += 1;
        }

        let mut l2 = SharedL2::new(cfg.l2);
        let mut mem_requests = Vec::new();
        for request in &l1_misses {
            let outcome = l2.access(request.addr, request.write);
            if !outcome.hit && !request.write {
                mem_requests.push((request.addr, AccessKind::Read));
            }
            if let Some(victim) = outcome.writeback {
                mem_requests.push((victim, AccessKind::Write));
            }
        }
        // A stream too sparse to miss still has to drive the memory-side
        // kernels with its own addresses.
        if mem_requests.is_empty() {
            mem_requests = l1_misses
                .iter()
                .map(|r| (r.addr, AccessKind::Read))
                .collect();
        }
        Self {
            data_ops,
            l1_misses,
            mem_requests,
        }
    }

    fn check(&self) -> Result<(), String> {
        if self.data_ops.is_empty() || self.l1_misses.is_empty() || self.mem_requests.is_empty() {
            Err(format!(
                "workload produced {} data ops, {} L1 misses, {} memory requests",
                self.data_ops.len(),
                self.l1_misses.len(),
                self.mem_requests.len()
            ))
        } else {
            Ok(())
        }
    }
}

/// Reads and writes of the controller burst every `memctrl.tick_ns.*` drains.
const BURST_READS: usize = 48;
const BURST_WRITES: usize = 16;
/// A burst drains in well under 10 k DRAM cycles; hitting the cap is a
/// failed operation, not a hang.
const DRAIN_CAP: u64 = 200_000;

/// The fixed burst, taken from the workload's memory-request stream at
/// `offset` (a different stretch for every batch).
fn burst(inputs: &Inputs, offset: usize, num_cores: usize) -> Vec<MemoryRequest> {
    let n = inputs.mem_requests.len();
    (0..BURST_READS + BURST_WRITES)
        .map(|i| {
            let (addr, _) = inputs.mem_requests[(offset + i) % n];
            let kind = if i < BURST_READS {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            MemoryRequest::new(i as u64, kind, addr, i % num_cores, 0)
        })
        .collect()
}

fn enqueue_burst(mc: &mut MemoryController, burst: &[MemoryRequest]) -> Result<(), String> {
    for request in burst {
        mc.enqueue(*request, 0)
            .map_err(|_| format!("controller refused request {} of the burst", request.id))?;
    }
    Ok(())
}

/// `memctrl.enqueue_ns` (host ns per accepted `MemoryController::enqueue`)
/// and `memctrl.tick_ns.*` (host ns per `MemoryController::tick` while the
/// burst drains), on a fresh controller per batch whose scheduler is chosen
/// through `McConfig::scheduler` alone.
fn controller_ns(
    cfg: &SystemConfig,
    scheduler: SchedulerKind,
    inputs: &Inputs,
    budget: Duration,
) -> Result<(f64, f64), String> {
    let mut mc_cfg = cfg.effective_mc();
    mc_cfg.scheduler = scheduler;
    let (mut enqueue_s, mut tick_s) = (Vec::new(), Vec::new());
    let mut done = Vec::new();
    let mut offset = 0usize;
    let start = Instant::now();
    while tick_s.len() < 5 || start.elapsed() < budget {
        let requests = burst(inputs, offset, mc_cfg.num_cores);
        offset += requests.len();
        let mut mc = MemoryController::new(mc_cfg).map_err(|e| e.to_string())?;
        let t = Instant::now();
        enqueue_burst(&mut mc, &requests)?;
        enqueue_s.push(t.elapsed().as_secs_f64() / requests.len() as f64);

        let t = Instant::now();
        let mut cycle = 0u64;
        while mc.pending() > 0 && cycle < DRAIN_CAP {
            done.clear();
            mc.tick(cycle, &mut done);
            cycle += 1;
        }
        let seconds = t.elapsed().as_secs_f64();
        if mc.pending() > 0 {
            return Err(format!(
                "{} did not drain the burst in {DRAIN_CAP} DRAM cycles",
                scheduler.label()
            ));
        }
        black_box(&done);
        tick_s.push(seconds / cycle as f64);
    }
    Ok((
        summarize(&enqueue_s).fast * 1e9,
        summarize(&tick_s).fast * 1e9,
    ))
}

/// `dram.cmd_ns`: host ns per `DramChannel::can_issue`/`issue` call on a
/// legal ACT → RD → PRE rotation over every bank, polling `can_issue` cycle
/// by cycle until each command is legal, exactly as the controller does.
fn dram_cmd_ns(cfg: &SystemConfig, budget: Duration) -> Result<f64, String> {
    const ROTATIONS: u64 = 2_048;
    /// No DDR3 fence is this long; reaching it means the rotation is illegal.
    const POLL_CAP: u64 = 100_000;
    let dram = cfg.mc.dram;
    let mut channel = DramChannel::new(&dram);
    let (mut now, mut step) = (0u64, 0u64);
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 5 || start.elapsed() < budget {
        let mut calls = 0u64;
        let t = Instant::now();
        for _ in 0..ROTATIONS {
            let bank = step as usize % dram.banks_per_rank;
            let rank = step as usize / dram.banks_per_rank % dram.ranks_per_channel;
            let loc = Location::new(rank, bank, step % dram.rows_per_bank, step % 8);
            for cmd in [
                Command::activate(loc),
                Command::read(loc, false),
                Command::precharge(loc),
            ] {
                let deadline = now + POLL_CAP;
                while !channel.can_issue(&cmd, now) {
                    now += 1;
                    calls += 1;
                    if now == deadline {
                        return Err(format!("{:?} never became legal", cmd.kind));
                    }
                }
                black_box(channel.issue(&cmd, now));
                calls += 2;
                now += 1;
            }
            step += 1;
        }
        times.push(t.elapsed().as_secs_f64() / calls as f64);
    }
    Ok(summarize(&times).fast * 1e9)
}

/// Runs every isolated kernel, `budget` of wall time each, and returns
/// `(metric name, value)` pairs. Each kernel is one operation in `ops`.
pub fn run_all(cfg: &SystemConfig, budget: Duration, ops: &mut Ops) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let inputs = Inputs::derive(cfg);
    if ops.take("layer inputs", inputs.check()).is_none() {
        return out;
    }
    let mut kernel = |name: &'static str, calls: usize, batch: &mut dyn FnMut()| {
        out.push((name, ns_per_call(budget, calls, batch)));
        ops.record(name, Ok(()));
    };

    // workloads: CoreStream::next_op, all streams round-robin.
    let mut streams = WorkloadStreams::from_mix(cfg.tenancy(), cfg.seed);
    let n = streams.cores();
    kernel("workloads.next_op_ns", CORE_TICKS_PER_BATCH, &mut || {
        for i in 0..CORE_TICKS_PER_BATCH {
            black_box(streams.stream_mut(i % n).next_op());
        }
    });

    // cpu: InOrderCore::tick with misses filled instantly.
    let mut cores = Cores::new(cfg);
    let mut sent = 0u64;
    kernel("cpu.core_tick_ns", CORE_TICKS_PER_BATCH, &mut || {
        for i in 0..CORE_TICKS_PER_BATCH {
            cores.tick(i % n, &mut |_| sent += 1);
        }
    });
    black_box(sent);

    // cpu: Cache::access on the data-op stream (one L1-D).
    let mut l1 = Cache::new(cfg.core.l1d);
    kernel("cpu.l1_access_ns", inputs.data_ops.len(), &mut || {
        for &(addr, store) in &inputs.data_ops {
            black_box(l1.access(addr, store));
        }
    });

    // cpu: SharedL2::access on the L1-miss stream.
    let mut l2 = SharedL2::new(cfg.l2);
    kernel("cpu.l2_access_ns", inputs.l1_misses.len(), &mut || {
        for request in &inputs.l1_misses {
            black_box(l2.access(request.addr, request.write));
        }
    });

    // memctrl: AddressMapping::decode on the memory-request stream.
    let (mapping, dram) = (cfg.mc.mapping, cfg.mc.dram);
    kernel(
        "memctrl.map_decode_ns",
        inputs.mem_requests.len(),
        &mut || {
            for &(addr, _) in &inputs.mem_requests {
                black_box(mapping.decode(black_box(addr), &dram));
            }
        },
    );

    // telemetry: LatencyHistogram::record on latencies spread like the
    // request addresses (the histogram is log-bucketed, so spread matters).
    let mut hist = LatencyHistogram::new();
    kernel(
        "telemetry.hist_record_ns",
        inputs.mem_requests.len(),
        &mut || {
            for &(addr, _) in &inputs.mem_requests {
                hist.record(black_box((addr >> 6) & 0xFFF));
            }
        },
    );
    black_box(hist.count());

    for (scheduler, name) in SchedulerKind::paper_set().into_iter().zip([
        "memctrl.tick_ns.frfcfs",
        "memctrl.tick_ns.fcfs_banks",
        "memctrl.tick_ns.parbs",
        "memctrl.tick_ns.atlas",
        "memctrl.tick_ns.rl",
    ]) {
        let measured = ops.take(name, controller_ns(cfg, scheduler, &inputs, budget));
        if let Some((enqueue, tick)) = measured {
            // Enqueue does not consult the scheduler; report it once, from
            // the baseline scheduler's batches.
            if scheduler == SchedulerKind::FrFcfs {
                out.push(("memctrl.enqueue_ns", enqueue));
            }
            out.push((name, tick));
        }
    }
    if let Some(ns) = ops.take("dram.cmd_ns", dram_cmd_ns(cfg, budget)) {
        out.push(("dram.cmd_ns", ns));
    }
    out
}
