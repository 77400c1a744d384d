//! Microbenchmarks of the simulator's hot paths: DRAM command issue,
//! address decoding, scheduler decision making, cache accesses and workload
//! generation.

#![expect(
    missing_docs,
    reason = "criterion's group macros expand to undocumented functions"
)]

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cloudmc_bench::{dense_config, idle_heavy_config, Scale};
use cloudmc_cpu::{Cache, CacheConfig};
use cloudmc_dram::{Command, DramChannel, DramConfig, Location};
use cloudmc_memctrl::{
    key_bank, key_rank, AccessKind, AddressMapping, FrFcfs, McConfig, MemoryController,
    MemoryRequest, RequestQueue, SchedContext, SchedulerImpl, SchedulerKind,
};
use cloudmc_sim::{run_system, EventQueue, Simulator, SystemConfig};
use cloudmc_workloads::{CoreStream, Workload};

fn bench_dram_channel(c: &mut Criterion) {
    c.bench_function("dram/activate_read_precharge_cycle", |b| {
        let cfg = DramConfig::baseline();
        b.iter_batched(
            || DramChannel::new(&cfg),
            |mut ch| {
                let t = cfg.timing;
                let loc = Location::new(0, 0, 42, 3);
                ch.issue(&Command::activate(loc), 0);
                ch.issue(&Command::read(loc, false), t.t_rcd);
                ch.issue(&Command::precharge(loc), t.t_ras.max(t.t_rcd + t.t_rtp));
                black_box(ch.stats().reads)
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

fn bench_address_mapping(c: &mut Criterion) {
    let cfg = DramConfig::with_channels(4);
    c.bench_function("mapping/decode_all_schemes", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for mapping in AddressMapping::all() {
                for i in 0..64u64 {
                    acc += mapping.decode(black_box(i * 4096 + 64), &cfg).channel;
                }
            }
            acc
        });
    });
}

fn bench_scheduler_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("controller/tick_with_16_pending");
    for kind in [SchedulerKind::FrFcfs, SchedulerKind::FcfsBanks] {
        group.bench_function(kind.label(), |b| {
            b.iter_batched(
                || {
                    let mut cfg = McConfig::baseline();
                    cfg.scheduler = kind;
                    let mut mc = MemoryController::new(cfg).unwrap();
                    for i in 0..16u64 {
                        mc.enqueue(
                            MemoryRequest::new(i, AccessKind::Read, i * 0x2_0000, i as usize, 0),
                            0,
                        )
                        .unwrap();
                    }
                    mc
                },
                |mut mc| {
                    let mut done = Vec::new();
                    for cycle in 0..256u64 {
                        mc.tick(cycle, &mut done);
                        black_box(done.len());
                    }
                    mc.stats().reads_completed
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// Cost of the per-cycle scheduler consultation through the enum-dispatched
/// `SchedulerImpl` the controller holds.
fn bench_scheduler_dispatch(c: &mut Criterion) {
    let cfg = DramConfig::baseline();
    let channel = DramChannel::new(&cfg);
    let mut read_q = RequestQueue::new(64);
    let write_q = RequestQueue::new(64);
    for i in 0..16u64 {
        let mc = McConfig::baseline();
        let decoded = mc.mapping.decode(i * 0x2_0000, &mc.dram);
        read_q
            .push(
                MemoryRequest::new(i, AccessKind::Read, i * 0x2_0000, i as usize, 0),
                decoded.location,
                0,
            )
            .unwrap();
    }
    let mut group = c.benchmark_group("scheduler/dispatch_pick_16_pending");
    let mut sched = SchedulerImpl::FrFcfs(FrFcfs::new());
    group.bench_function("enum_frfcfs", |b| {
        b.iter(|| {
            let ctx = SchedContext {
                now: 0,
                channel: &channel,
                read_q: &read_q,
                write_q: &write_q,
                write_mode: false,
                num_cores: 16,
            };
            black_box(sched.pick(black_box(&ctx)))
        });
    });
    group.finish();
}

/// The acceptance benchmark of the kernel refactor: a full 16-core baseline
/// run, dominated by the per-cycle hot loop (fill delivery, request tracking,
/// scheduler dispatch).
fn bench_system_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("system/16_core_baseline_run");
    group.sample_size(10);
    group.bench_function("ds_20k_cycles", |b| {
        b.iter(|| {
            let mut cfg = SystemConfig::baseline(Workload::DataServing);
            cfg.warmup_cpu_cycles = 2_000;
            cfg.measure_cpu_cycles = 18_000;
            black_box(run_system(cfg).unwrap().user_ipc())
        });
    });
    group.finish();
}

/// The acceptance benchmark of the event kernel: simulated CPU cycles per
/// second on an idle-heavy (2% intensity) stream versus the dense TPC-H Q6
/// scan, each under the event kernel and the per-cycle reference loop. The
/// idle point is where skipping dead cycles pays (the differential test pins
/// the results to be bit-identical); the dense point guards against the
/// event bookkeeping slowing the busy path down.
fn bench_fast_forward(c: &mut Criterion) {
    let scale = Scale {
        warmup_cpu_cycles: 5_000,
        measure_cpu_cycles: 45_000,
        seed: 1,
        threads: 1,
    };
    let mut group = c.benchmark_group("system/fast_forward_50k_cycles");
    group.sample_size(10);
    for (label, cfg) in [
        ("idle_heavy_reference", idle_heavy_config(&scale)),
        ("idle_heavy_event", idle_heavy_config(&scale)),
        ("tpch_q6_reference", dense_config(&scale)),
        ("tpch_q6_event", dense_config(&scale)),
    ] {
        let reference = label.ends_with("reference");
        group.bench_function(label, |b| {
            b.iter(|| {
                let cfg = black_box(cfg.clone());
                let sim = if reference {
                    Simulator::reference(cfg)
                } else {
                    Simulator::new(cfg)
                };
                black_box(sim.unwrap().run().user_instructions)
            });
        });
    }
    group.finish();
}

/// The event kernel's calendar queue under its three access patterns. Dense
/// keeps every deadline inside the 64-cycle bucket ring (bitmask + deque
/// ops); sparse pushes deadlines past the window into the `BTreeMap`
/// overflow level and migrates them back as the window slides; decrease-key
/// re-posts each event at an earlier deadline timer-wheel style, paying for
/// the stale entry with one extra (spurious) pop.
fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel/event_queue");
    group.bench_function("dense_push_pop_4k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut popped = 0u64;
            for i in 0..4_096u32 {
                let now = u64::from(i);
                q.push(now + u64::from(i % 48), i);
                while let Some(item) = q.pop_due(now) {
                    popped += u64::from(black_box(item));
                }
            }
            while let Some(due) = q.next_due() {
                while let Some(item) = q.pop_due(due) {
                    popped += u64::from(black_box(item));
                }
            }
            popped
        });
    });
    group.bench_function("sparse_push_pop_4k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u32> = EventQueue::new();
            for i in 0..4_096u32 {
                q.push(u64::from(i) * 97 + 1_000, i);
            }
            let mut popped = 0u64;
            while let Some(due) = q.next_due() {
                while let Some(item) = q.pop_due(due) {
                    popped += u64::from(black_box(item));
                }
            }
            popped
        });
    });
    group.bench_function("decrease_key_4k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u32> = EventQueue::new();
            for i in 0..4_096u32 {
                q.push(10_000 + u64::from(i % 512), i);
                q.push(u64::from(i % 64), i);
            }
            let mut popped = 0u64;
            while let Some(due) = q.next_due() {
                while let Some(item) = q.pop_due(due) {
                    popped += u64::from(black_box(item));
                }
            }
            popped
        });
    });
    group.finish();
}

/// The flat `u64` key-column scans the schedulers and page policies lean on
/// every controller cycle: row-hit probes over a full queue, and a raw walk
/// of the packed (rank, bank, row) column.
fn bench_queue_scan(c: &mut Criterion) {
    let mc = McConfig::baseline();
    let mut queue = RequestQueue::new(64);
    for i in 0..64u64 {
        let addr = i * 0x1_2000 + 0x40;
        let decoded = mc.mapping.decode(addr, &mc.dram);
        queue
            .push(
                MemoryRequest::new(i, AccessKind::Read, addr, (i % 16) as usize, 0),
                decoded.location,
                0,
            )
            .unwrap();
    }
    let mut group = c.benchmark_group("queue/soa_scan_64_pending");
    group.bench_function("row_hit_probe_all_banks", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for rank in 0..2usize {
                for bank in 0..8usize {
                    hits += usize::from(queue.any_hit(rank, bank, black_box(3)));
                }
            }
            hits
        });
    });
    group.bench_function("keys_column_walk", |b| {
        b.iter(|| {
            queue
                .keys()
                .iter()
                .map(|&k| key_rank(k) + key_bank(k))
                .sum::<usize>()
        });
    });
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache/l1_access_stream", |b| {
        let mut cache = Cache::new(CacheConfig::l1_baseline());
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            cache.access(black_box((i * 64) % (64 * 1024)), i.is_multiple_of(4))
        });
    });
}

fn bench_workload_generation(c: &mut Criterion) {
    c.bench_function("workload/next_op", |b| {
        let mut stream = CoreStream::new(Workload::DataServing.spec(), 0, 1);
        b.iter(|| black_box(stream.next_op()));
    });
}

criterion_group!(
    benches,
    bench_dram_channel,
    bench_address_mapping,
    bench_scheduler_tick,
    bench_scheduler_dispatch,
    bench_system_baseline,
    bench_fast_forward,
    bench_event_queue,
    bench_queue_scan,
    bench_cache,
    bench_workload_generation
);
criterion_main!(benches);
