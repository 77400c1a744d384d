//! Reduced-scale end-to-end benchmarks: one Criterion target per figure/table
//! of the paper, running the same experiment code as the `repro` binary on a
//! small number of cycles so that `cargo bench` finishes quickly.
//!
//! These serve two purposes: they keep every experiment path exercised and
//! timed, and they document how to regenerate each figure (the full-scale
//! version is `repro <figN>`).

#![expect(
    missing_docs,
    reason = "criterion's group macros expand to undocumented functions"
)]

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cloudmc_bench::{baseline_config, Scale};
use cloudmc_memctrl::{AddressMapping, PagePolicyKind, SchedulerKind};
use cloudmc_sim::run_system;
use cloudmc_workloads::Workload;

fn tiny_scale() -> Scale {
    Scale {
        warmup_cpu_cycles: 2_000,
        measure_cpu_cycles: 12_000,
        seed: 1,
        threads: 1,
    }
}

/// One representative workload per category keeps the benches fast while
/// still covering the scale-out / transactional / decision-support split.
fn representative_workloads() -> [Workload; 3] {
    [Workload::WebSearch, Workload::TpcC1, Workload::TpchQ6]
}

fn bench_scheduler_figures(c: &mut Criterion) {
    // Figures 1-7: user IPC, hit rate, latency, MPKI, queue lengths and
    // bandwidth under each scheduling algorithm.
    let mut group = c.benchmark_group("fig1-7_scheduler_study");
    group.sample_size(10);
    for (label, kind) in [
        ("FR-FCFS", SchedulerKind::FrFcfs),
        ("FCFS_Banks", SchedulerKind::FcfsBanks),
        ("PAR-BS", "par-bs".parse().unwrap()),
        ("ATLAS", "atlas".parse().unwrap()),
        ("RL", "rl".parse().unwrap()),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                for w in representative_workloads() {
                    let mut cfg = baseline_config(w, &tiny_scale());
                    cfg.mc.scheduler = kind;
                    let stats = run_system(cfg).unwrap();
                    black_box(stats.user_ipc());
                }
            });
        });
    }
    group.finish();
}

fn bench_fig8_activation_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_single_access_activations");
    group.sample_size(10);
    group.bench_function("baseline", |b| {
        b.iter(|| {
            for w in representative_workloads() {
                let cfg = baseline_config(w, &tiny_scale());
                let stats = run_system(cfg).unwrap();
                black_box(stats.single_access_activation_fraction);
            }
        });
    });
    group.finish();
}

fn bench_page_policy_figures(c: &mut Criterion) {
    // Figures 9-11: row hits, latency and IPC under each page policy.
    let mut group = c.benchmark_group("fig9-11_page_policy_study");
    group.sample_size(10);
    for policy in PagePolicyKind::paper_set() {
        group.bench_function(policy.to_string(), |b| {
            b.iter(|| {
                for w in representative_workloads() {
                    let mut cfg = baseline_config(w, &tiny_scale());
                    cfg.mc.page_policy = policy;
                    let stats = run_system(cfg).unwrap();
                    black_box(stats.row_buffer_hit_rate);
                }
            });
        });
    }
    group.finish();
}

fn bench_channel_figures(c: &mut Criterion) {
    // Figures 12-14 and Table 4: channel count and mapping sweep.
    let mut group = c.benchmark_group("fig12-14_table4_channel_study");
    group.sample_size(10);
    for channels in [1usize, 2, 4] {
        group.bench_function(format!("{channels}_channel"), |b| {
            b.iter(|| {
                for w in representative_workloads() {
                    let mut cfg = baseline_config(w, &tiny_scale());
                    cfg.mc.dram.channels = channels;
                    if channels > 1 {
                        cfg.mc.mapping = AddressMapping::RoChRaBaCo;
                    }
                    let stats = run_system(cfg).unwrap();
                    black_box(stats.user_ipc());
                }
            });
        });
    }
    group.finish();
}

criterion_group!(
    figures,
    bench_scheduler_figures,
    bench_fig8_activation_reuse,
    bench_page_policy_figures,
    bench_channel_figures
);
criterion_main!(figures);
