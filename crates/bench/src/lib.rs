//! # cloudmc-bench
//!
//! Experiment harness for the `cloudmc` reproduction of *"Memory Controller
//! Design Under Cloud Workloads"* (IISWC 2016).
//!
//! The [`experiments`] module contains one study per section of the paper's
//! evaluation (scheduling, page management, multi-channel), and
//! [`FIGURES`] declares each figure once: the study it reads, its metric,
//! and the paper's claims about it, checked under every table `repro`
//! prints. Every study runs its configurations through the one executor in
//! [`sweep`], and the `repro` binary drives them from the command line. The
//! figures are [`Table`]s; the extension studies
//! ([`energy`], [`qos`], [`reliability`], [`trace`], [`fastforward`])
//! return a [`Report`] of `Table`s plus their points' statistics, which
//! `repro` prints and writes as `BENCH_*.json`.

#![forbid(unsafe_code)]

pub mod cli;
pub mod energy;
pub mod experiments;
pub mod fastforward;
pub mod figures;
pub mod meta;
pub mod qos;
pub mod reliability;
pub mod report;
pub mod sweep;
pub mod trace;

pub use cli::{parse, Options, Parsed, EXPERIMENTS, HELP};
pub use energy::energy_study;
pub use fastforward::{dense_config, fastforward_report, idle_heavy_config};
pub use meta::{RunMeta, GIT_DESCRIBE_ENV};
pub use qos::{paper_mixes, qos_study};
pub use reliability::{
    power_policies, reliability_mix, reliability_study, sweep_fault_config,
    FAULT_RATES_PER_MILLION, SCRUB_INTERVALS,
};
pub use sweep::{run_each, run_sweep, SweepError, SweepOptions};
pub use trace::{golden_config, golden_trace_path, regenerate_golden_trace, trace_study};

pub use experiments::{
    baseline_config, baseline_study, channel_study, config_report, default_threads,
    page_policy_study, paper_schedulers, scheduler_study, ChannelStudy, Matrix, Scale,
};
pub use figures::{figure, verdict_lines, Figure, FIGURES, STUDIES};
pub use report::{Report, Table, TextTable};
