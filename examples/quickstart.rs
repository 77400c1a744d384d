//! Quickstart: simulate the paper's baseline system running the Data Serving
//! workload and print the headline metrics.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use cloudmc::sim::{Simulator, SystemConfig};
use cloudmc::workloads::Workload;

fn main() -> Result<(), String> {
    // Table 2 baseline: 16 in-order cores, 4 MB shared L2, FR-FCFS
    // single-channel DDR3-1600 controller with the open-adaptive page policy.
    let mut config = SystemConfig::baseline(Workload::DataServing);
    config.warmup_cpu_cycles = 100_000;
    config.measure_cpu_cycles = 400_000;

    let stats = Simulator::new(config)?.try_run()?;

    println!("workload            : {}", stats.workload);
    println!("scheduler           : {}", stats.scheduler);
    println!("page policy         : {}", stats.page_policy);
    println!("user IPC (aggregate): {:.2}", stats.user_ipc());
    println!(
        "avg memory latency  : {:.1} DRAM cycles ({:.1} ns)",
        stats.avg_read_latency_dram, stats.avg_read_latency_ns
    );
    println!(
        "row-buffer hit rate : {:.1}%",
        stats.row_buffer_hit_rate * 100.0
    );
    println!(
        "single-access rows  : {:.1}%",
        stats.single_access_activation_fraction * 100.0
    );
    println!("L2 MPKI             : {:.2}", stats.l2_mpki);
    println!(
        "bandwidth utilized  : {:.1}%",
        stats.bandwidth_utilization * 100.0
    );
    println!(
        "read / write queue  : {:.2} / {:.2} entries",
        stats.avg_read_queue_len, stats.avg_write_queue_len
    );
    println!(
        "DRAM energy estimate: {:.2} mJ over {} CPU cycles",
        stats.dram_energy_mj, stats.cpu_cycles
    );
    Ok(())
}
