//! # cloudmc-memctrl
//!
//! Memory controller models for the `cloudmc` reproduction of *"Memory
//! Controller Design Under Cloud Workloads"* (IISWC 2016).
//!
//! This crate is the paper's primary subject: it implements the memory
//! scheduling algorithms (FCFS, FCFS-per-bank, FR-FCFS, PAR-BS, ATLAS and a
//! reinforcement-learning scheduler), the page-management policies (open,
//! close, open-adaptive, close-adaptive, RBPP, ABPP and an idle-timer
//! extension), the rank power-management policies (immediate and idle-timer
//! power-down, plus a power-aware variant that closes idle rows on the way
//! down), the multi-tenant QoS layer (tenant-tagged requests with static
//! bandwidth partitioning or a latency-critical priority boost, composing
//! with every scheduler), the four address interleaving schemes,
//! multi-channel operation, write draining and refresh handling — all on top
//! of the cycle-level DRAM device model in [`cloudmc_dram`].
//!
//! Each policy family is one enum with a variant per policy, which the
//! controller holds: [`Scheduler`], [`PagePolicy`] and [`PowerPolicy`], built
//! from the configuration values [`SchedulerKind`], [`PagePolicyKind`] and
//! [`PowerPolicyKind`].
//!
//! The controller is one module per concern: [`config`] holds
//! [`McConfig`]; [`controller`] holds [`MemoryController`], the channels
//! behind the address decode; the private `channel_ctl` module holds the
//! per-channel tick (scheduling, page policy, write drain, refresh, power);
//! and [`reliability`] holds the fault-injection extension (ECC accounting,
//! demand retries, patrol scrub, row retirement, line poisoning), which a
//! channel with a fault model calls once per tick phase.
//!
//! ## Quick example
//!
//! ```
//! use cloudmc_memctrl::{AccessKind, McConfig, MemoryController, MemoryRequest, SchedulerKind};
//!
//! let mut cfg = McConfig::baseline();
//! cfg.scheduler = SchedulerKind::FrFcfs;
//! let mut mc = MemoryController::new(cfg)?;
//! mc.enqueue(MemoryRequest::new(0, AccessKind::Read, 0x1000, 0, 0), 0)
//!     .expect("queue has space");
//! let mut done = Vec::new();
//! for cycle in 0..200 {
//!     mc.tick(cycle, &mut done);
//!     for d in done.drain(..) {
//!         println!("request {} finished after {} DRAM cycles", d.request.id, d.latency());
//!     }
//! }
//! # Ok::<(), String>(())
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

pub mod bank_table;
mod channel_ctl;
pub mod config;
pub mod controller;
pub mod mapping;
pub mod page;
pub mod power;
pub mod qos;
pub mod queue;
pub mod reliability;
pub mod request;
pub mod sched;
pub mod stats;

pub use bank_table::BankTable;
pub use cloudmc_dram::{FaultConfig, FaultLedger, FaultModel, ReadFault, UncorrectablePolicy};
pub use config::McConfig;
pub use controller::MemoryController;
pub use mapping::{AddressMapping, DecodedAddress};
pub use page::{BankDemand, HistoryPredictor, PagePolicy, PagePolicyKind, PolicyView, TimerPolicy};
pub use power::{PowerAction, PowerPolicy, PowerPolicyKind, PowerTimeouts, TimeoutPowerDown};
pub use qos::{QosArbiter, QosConfig, QosPolicyKind};
pub use queue::{bank_row_key, key_bank, key_rank, key_row, QueueEntry, RequestQueue};
pub use reliability::{is_scrub_id, SCRUB_ID_BIT};
pub use request::{
    AccessKind, CompletedRequest, MemoryRequest, RequestId, RowBufferOutcome, TenantId, MAX_TENANTS,
};
pub use sched::{
    Atlas, AtlasConfig, ParBs, ParBsConfig, PickWork, RlConfig, RlScheduler, SchedContext,
    SchedDecision, Scheduler, SchedulerKind,
};
pub use stats::{McStats, ACTIVATION_REUSE_BUCKETS};
