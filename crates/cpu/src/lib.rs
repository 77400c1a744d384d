//! # cloudmc-cpu
//!
//! Processor-side substrate for the `cloudmc` memory controller study: simple
//! in-order cores with private L1 instruction/data caches, a banked shared
//! L2 behind a crossbar, and MSHR-based miss tracking.
//!
//! The models are deliberately minimal — the paper's conclusions rest on the
//! memory access stream that reaches the controller (miss rates, memory-level
//! parallelism, read/write mix and per-core balance), all of which these
//! components reproduce, rather than on core microarchitecture detail.
//!
//! ```
//! use cloudmc_cpu::{CoreConfig, CoreOp, InOrderCore, MemOp, OpKind};
//!
//! let mut core = InOrderCore::new(0, CoreConfig::default());
//! let mut ops = vec![CoreOp::Mem(MemOp { kind: OpKind::Load, addr: 0x1000, overlappable: false })]
//!     .into_iter();
//! let mut source = move || ops.next().unwrap_or(CoreOp::Compute(1));
//! let refills = core.tick(&mut source);
//! assert_eq!(refills.len(), 1); // cold L1 miss goes to the next level
//! core.fill(0x1000);
//! assert_eq!(core.committed(), 1);
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

pub mod cache;
pub mod core;
pub mod hierarchy;
pub mod mshr;

pub use crate::core::{
    CoreConfig, CoreOp, CoreRequest, CoreRequests, CoreStats, InOrderCore, MemOp, OpKind, TenantId,
};
pub use cache::{Cache, CacheAccess, CacheConfig, CacheStats};
pub use hierarchy::{L2Config, L2Outcome, SharedL2};
pub use mshr::{Mshr, MshrOutcome};
