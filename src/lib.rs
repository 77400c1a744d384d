//! cloudmc umbrella crate: re-exports the full public API.
#![forbid(unsafe_code)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unimplemented,
    clippy::todo
)]
#![warn(clippy::disallowed_methods, clippy::iter_over_hash_type)]

pub use cloudmc_cpu as cpu;
pub use cloudmc_dram as dram;
pub use cloudmc_memctrl as memctrl;
pub use cloudmc_sim as sim;
pub use cloudmc_snap as snap;
pub use cloudmc_telemetry as telemetry;
pub use cloudmc_workloads as workloads;
