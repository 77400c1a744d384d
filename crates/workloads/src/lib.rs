//! # cloudmc-workloads
//!
//! Synthetic workload models for the `cloudmc` memory controller study.
//!
//! The paper evaluates CloudSuite scale-out workloads, SPECweb99/TPC-C
//! transactional workloads and TPC-H decision-support queries running on a
//! full-system simulator. Those applications (and their commercial database
//! engines) cannot be redistributed, so this crate provides statistical
//! generators calibrated to the access-stream characteristics the paper
//! reports: off-chip miss rates, row-buffer reuse, read/write mix,
//! memory-level parallelism, per-core imbalance and DMA traffic.
//!
//! ```
//! use cloudmc_workloads::{Workload, WorkloadStreams};
//!
//! let mut streams = WorkloadStreams::new(Workload::DataServing, 42);
//! assert_eq!(streams.cores(), 16);
//! let _first_op = streams.stream_mut(0).next_op();
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

pub mod generator;
pub mod mix;
pub mod spec;
pub mod trace;

pub use generator::{CoreStream, GeneratorWork, WorkloadStreams, BLOCK_BYTES, ROW_BYTES};
pub use mix::{MixSpec, TenantId, TenantSpec, MAX_TENANTS};
pub use spec::{Category, Workload, WorkloadSpec};
pub use trace::{TraceReader, TraceRecord, TraceStream, TraceWriter, WorkloadSource};
