//! Compare DRAM page-management policies (Section 4.2 of the paper) on one
//! workload: open, close, open-adaptive, close-adaptive, RBPP, ABPP and the
//! idle-timer extension.
//!
//! Run with (workload acronym optional, defaults to Media Streaming):
//! ```text
//! cargo run --release --example page_policy_study -- MS
//! ```

use cloudmc::memctrl::PagePolicyKind;
use cloudmc::sim::{run_system, SystemConfig};
use cloudmc::workloads::Workload;

fn main() -> Result<(), String> {
    let workload: Workload = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "MS".to_owned())
        .parse()?;

    let policies = [
        PagePolicyKind::OpenAdaptive,
        PagePolicyKind::CloseAdaptive,
        PagePolicyKind::Rbpp,
        PagePolicyKind::Abpp,
        PagePolicyKind::Open,
        PagePolicyKind::Close,
        PagePolicyKind::Timer,
    ];

    println!("workload: {workload}");
    println!(
        "{:<16} {:>8} {:>12} {:>10} {:>14}",
        "page policy", "IPC", "latency(ns)", "row hit %", "1-access rows%"
    );
    for policy in policies {
        let mut config = SystemConfig::baseline(workload);
        config.warmup_cpu_cycles = 80_000;
        config.measure_cpu_cycles = 300_000;
        config.mc.page_policy = policy;
        let stats = run_system(config)?;
        println!(
            "{:<16} {:>8.3} {:>12.1} {:>10.1} {:>14.1}",
            stats.page_policy,
            stats.user_ipc(),
            stats.avg_read_latency_ns,
            stats.row_buffer_hit_rate * 100.0,
            stats.single_access_activation_fraction * 100.0
        );
    }
    for word in ["fig8", "fig9"] {
        let paper = cloudmc_bench::figure(word).ok_or("figure not declared")?;
        println!("\n{}\n{}", paper.title, paper.note());
    }
    Ok(())
}
