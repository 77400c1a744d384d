//! Multi-channel study (Section 4.3 and Table 4 of the paper): 1, 2 and 4
//! memory channels crossed with the four address-mapping schemes, reporting
//! the best mapping per channel count.
//!
//! On a bandwidth-bound workload the average read latency under the baseline
//! mapping must fall (or at least not rise) with every added channel — the
//! example asserts it.
//!
//! Run with (workload acronym optional, defaults to TPC-H Q6):
//! ```text
//! cargo run --release --example channel_scaling -- TPCH-Q6
//! ```

use cloudmc::memctrl::AddressMapping;
use cloudmc::sim::{run_system, SimError, SimStats, SystemConfig};
use cloudmc::workloads::{Category, Workload};

fn run(workload: Workload, channels: usize, mapping: AddressMapping) -> Result<SimStats, SimError> {
    let mut config = SystemConfig::baseline(workload);
    config.warmup_cpu_cycles = 80_000;
    config.measure_cpu_cycles = 300_000;
    config.mc.dram.channels = channels;
    config.mc.mapping = mapping;
    run_system(config)
}

fn main() -> Result<(), String> {
    let workload: Workload = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "TPCH-Q6".to_owned())
        .parse()?;
    println!("workload: {workload}\n");

    let baseline_mapping = AddressMapping::RoRaBaCoCh;
    let mut single: Option<SimStats> = None;
    let mut latencies = Vec::new();
    for channels in [1usize, 2, 4] {
        // With one channel there are no channel bits to place: the four
        // schemes decode identically, so one run stands for all of them.
        let mappings = if channels == 1 {
            &[baseline_mapping][..]
        } else {
            &AddressMapping::all()[..]
        };
        let mut best: Option<SimStats> = None;
        for &mapping in mappings {
            let stats = run(workload, channels, mapping)?;
            println!(
                "{channels} channel(s), {mapping}: IPC {:.3}, avg read latency {:.1} DRAM cycles \
                 ({:.1} ns), hit {:.1}%, BW util {:.1}%",
                stats.user_ipc(),
                stats.avg_read_latency_dram,
                stats.avg_read_latency_ns,
                stats.row_buffer_hit_rate * 100.0,
                stats.bandwidth_utilization * 100.0
            );
            if mapping == baseline_mapping {
                latencies.push(stats.avg_read_latency_dram);
            }
            if best
                .as_ref()
                .is_none_or(|b| stats.user_ipc() > b.user_ipc())
            {
                best = Some(stats);
            }
        }
        let best = best.expect("at least one mapping evaluated");
        let single = single.get_or_insert_with(|| best.clone());
        println!(
            "  best: {} ({:+.1}% IPC vs 1 channel)\n",
            best.mapping,
            (best.normalized_ipc(single) - 1.0) * 100.0
        );
    }

    let monotone = latencies.windows(2).all(|w| w[1] <= w[0]);
    if workload.category() == Category::DecisionSupport {
        // Bandwidth-bound workloads must get faster with every added channel.
        assert!(
            monotone,
            "average read latency under {baseline_mapping} must be monotonically non-increasing \
             over 1/2/4 channels on the bandwidth-bound workload, got {latencies:?}"
        );
        println!("{baseline_mapping} latency is monotonically non-increasing: {latencies:?}");
    } else if monotone {
        println!("{baseline_mapping} latency is monotonically non-increasing: {latencies:?}");
    } else {
        // Latency-bound workloads barely queue, so interleaving can cost a
        // cycle or two of row locality — the paper's Section 4.3 observation.
        println!(
            "{baseline_mapping} latency is not monotone (workload is not bandwidth-bound): \
             {latencies:?}"
        );
    }
    let paper = cloudmc_bench::figure("fig12").ok_or("Figure 12 is not declared")?;
    println!("\n{}\n{}", paper.title, paper.note());
    Ok(())
}
