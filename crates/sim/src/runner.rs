//! Parallel execution of experiment sweeps.
//!
//! The paper's figures each require dozens of simulations (12 workloads x
//! several controller configurations). Runs are independent, so the harness
//! executes them on a pool of worker threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::config::SystemConfig;
use crate::stats::SimStats;
use crate::system::run_system;

/// Runs every configuration and returns the results in input order.
///
/// Failures (invalid configurations) are returned in place of the stats so a
/// single bad point does not abort a long sweep.
#[must_use]
pub fn run_all(configs: &[SystemConfig]) -> Vec<Result<SimStats, String>> {
    run_all_with_threads(configs, default_threads())
}

/// Number of worker threads used by [`run_all`].
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .clamp(1, 32)
}

/// Runs every configuration on at most `threads` worker threads, returning
/// results in input order.
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "poisoned result slot means a worker panicked; propagate"
)]
pub fn run_all_with_threads(
    configs: &[SystemConfig],
    threads: usize,
) -> Vec<Result<SimStats, String>> {
    let threads = threads.max(1).min(configs.len().max(1));
    if threads <= 1 || configs.len() <= 1 {
        return configs.iter().map(|cfg| run_system(cfg.clone())).collect();
    }
    // Work stealing over an atomic cursor: each worker claims the next
    // unclaimed configuration index and writes its result into the slot
    // reserved for it, so results come back in input order with no channels.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<SimStats, String>>>> =
        configs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cfg) = configs.get(i) else { break };
                let result = run_system(cfg.clone());
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .unwrap_or_else(|| Err("worker thread dropped the run".to_owned()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudmc_workloads::Workload;

    fn tiny(workload: Workload, seed: u64) -> SystemConfig {
        let mut cfg = SystemConfig::baseline(workload);
        cfg.warmup_cpu_cycles = 2_000;
        cfg.measure_cpu_cycles = 20_000;
        cfg.seed = seed;
        cfg
    }

    #[test]
    fn results_come_back_in_input_order() {
        let configs = vec![
            tiny(Workload::WebSearch, 1),
            tiny(Workload::DataServing, 2),
            tiny(Workload::TpchQ6, 3),
        ];
        let results = run_all_with_threads(&configs, 3);
        assert_eq!(results.len(), 3);
        let stats: Vec<_> = results.into_iter().map(Result::unwrap).collect();
        assert_eq!(stats[0].workload, "WS");
        assert_eq!(stats[1].workload, "DS");
        assert_eq!(stats[2].workload, "TPCH-Q6");
    }

    #[test]
    fn parallel_matches_serial() {
        let configs = vec![tiny(Workload::WebSearch, 7), tiny(Workload::WebSearch, 8)];
        let serial = run_all_with_threads(&configs, 1);
        let parallel = run_all_with_threads(&configs, 2);
        for (s, p) in serial.iter().zip(parallel.iter()) {
            assert_eq!(
                s.as_ref().unwrap().user_instructions,
                p.as_ref().unwrap().user_instructions
            );
        }
    }

    #[test]
    fn invalid_configuration_reports_error_without_aborting() {
        let mut bad = tiny(Workload::WebSearch, 1);
        bad.measure_cpu_cycles = 0;
        let configs = vec![tiny(Workload::WebSearch, 1), bad];
        let results = run_all(&configs);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
