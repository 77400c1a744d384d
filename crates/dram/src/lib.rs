//! # cloudmc-dram
//!
//! Cycle-level DDR3-style DRAM device model used by the `cloudmc` memory
//! controller study (a reproduction of *"Memory Controller Design Under Cloud
//! Workloads"*, IISWC 2016).
//!
//! The crate models the off-chip memory attached to one processor: channels
//! containing ranks of banks, each bank with a row buffer, governed by the
//! standard DDR3 timing constraints (tRCD, tRAS, tRP, tRC, tRTP, tWR, tWTR,
//! tRRD, tFAW, tCCD, burst occupancy, bus turnaround and refresh). It does
//! **not** schedule anything itself — the memory controller in
//! `cloudmc-memctrl` decides which [`Command`] to issue each cycle and this
//! crate checks legality and accounts for timing.
//!
//! ## Quick example
//!
//! ```
//! use cloudmc_dram::{Command, DramChannel, DramConfig, Location};
//!
//! let cfg = DramConfig::baseline(); // Table 2 of the paper
//! let mut channel = DramChannel::new(&cfg);
//! let loc = Location::new(0, 3, 1234, 17);
//!
//! // Open the row, then read a column out of it.
//! channel.issue(&Command::activate(loc), 0);
//! let rd_cycle = cfg.timing.t_rcd;
//! let outcome = channel.issue(&Command::read(loc, false), rd_cycle);
//! assert_eq!(outcome.completion_cycle, rd_cycle + cfg.timing.cl + cfg.timing.t_burst);
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

pub mod bank;
pub mod channel;
pub mod command;
pub mod config;
pub mod energy;
pub mod fault;
pub mod rank;
pub mod timing;

pub use bank::{Bank, BankState};
pub use channel::{ChannelStats, DramChannel, LogEvent};
pub use command::{Command, CommandKind, IssueOutcome};
pub use config::{DramConfig, Location};
pub use energy::{EnergyBreakdown, EnergyModel, EnergyParams};
pub use fault::{FaultConfig, FaultLedger, FaultModel, ReadFault, UncorrectablePolicy};
pub use rank::{PowerDownMode, PowerResidency, PowerState, Rank};
pub use timing::{DramCycles, TimingParams};
