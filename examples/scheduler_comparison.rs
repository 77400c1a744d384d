//! Compare the five memory scheduling algorithms of the paper (Section 4.1)
//! on one workload and print user IPC, latency and row-buffer hit rate.
//!
//! Run with (workload acronym optional, defaults to Web Search):
//! ```text
//! cargo run --release --example scheduler_comparison -- MS
//! ```

use cloudmc::memctrl::{AtlasConfig, ParBsConfig, RlConfig, SchedulerKind};
use cloudmc::sim::{run_system, SystemConfig};
use cloudmc::workloads::Workload;

fn main() -> Result<(), String> {
    let workload: Workload = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "WS".to_owned())
        .parse()?;

    let schedulers = [
        SchedulerKind::FrFcfs,
        SchedulerKind::FcfsBanks,
        SchedulerKind::ParBs(ParBsConfig::default()),
        SchedulerKind::Atlas(AtlasConfig::default()),
        SchedulerKind::Rl(RlConfig::default()),
    ];

    println!("workload: {workload}");
    println!(
        "{:<12} {:>8} {:>12} {:>10} {:>10}",
        "scheduler", "IPC", "latency(ns)", "row hit %", "rel. IPC"
    );
    let mut baseline_ipc = None;
    for scheduler in schedulers {
        let mut config = SystemConfig::baseline(workload);
        config.warmup_cpu_cycles = 80_000;
        config.measure_cpu_cycles = 300_000;
        config.mc.scheduler = scheduler;
        let stats = run_system(config)?;
        let ipc = stats.user_ipc();
        let base = *baseline_ipc.get_or_insert(ipc);
        println!(
            "{:<12} {:>8.3} {:>12.1} {:>10.1} {:>10.3}",
            stats.scheduler,
            ipc,
            stats.avg_read_latency_ns,
            stats.row_buffer_hit_rate * 100.0,
            ipc / base
        );
    }
    let paper = cloudmc_bench::figure("fig1").ok_or("Figure 1 is not declared")?;
    println!("\n{}\n{}", paper.title, paper.note());
    Ok(())
}
