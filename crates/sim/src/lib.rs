//! # cloudmc-sim
//!
//! Full-system cycle-level simulator for the `cloudmc` reproduction of
//! *"Memory Controller Design Under Cloud Workloads"* (IISWC 2016): it wires
//! the in-order cores and caches of [`cloudmc_cpu`], the workload models of
//! [`cloudmc_workloads`], the memory controller of [`cloudmc_memctrl`] and
//! the DRAM devices of [`cloudmc_dram`] into one simulated 16-core pod, and
//! provides the warm-up/measure methodology and the metrics the paper
//! reports.
//!
//! ```
//! use cloudmc_sim::{Simulator, SystemConfig};
//! use cloudmc_workloads::Workload;
//!
//! let mut cfg = SystemConfig::baseline(Workload::DataServing);
//! cfg.warmup_cpu_cycles = 2_000;
//! cfg.measure_cpu_cycles = 10_000;
//! let stats = Simulator::new(cfg)?.try_run()?;
//! println!("user IPC = {:.2}", stats.user_ipc());
//! # Ok::<(), cloudmc_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unimplemented,
    clippy::todo
)]
#![warn(clippy::disallowed_methods, clippy::iter_over_hash_type)]

pub mod backend;
pub mod config;
pub mod error;
pub mod frontend;
pub mod kernel;
pub mod snapshot;
pub mod stats;
pub mod system;

pub use backend::Backend;
pub use config::{SystemConfig, DRAM_CYCLES_PER_5_CPU_CYCLES};
pub use error::SimError;
pub use frontend::{Frontend, FrontendEvent};
pub use kernel::{ClockCrossing, FillQueue, Tick};
pub use snapshot::{config_fingerprint, Snapshot};
pub use stats::{json_escape, mean, SimStats};
pub use system::{run_system, Simulator, System};

// The workload-source selector is part of `SystemConfig`'s surface;
// re-exported so simulator users don't need a direct `cloudmc-workloads`
// dependency to pick trace replay.
pub use cloudmc_workloads::WorkloadSource;
