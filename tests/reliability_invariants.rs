//! Invariants of the DRAM reliability subsystem at the full-system level:
//! conservation of injected faults, seed determinism, zero cost when
//! disabled, fail-stop as a typed error (never a panic), poison-and-continue
//! accounting, retirement, and real scrub traffic. Every row of
//! `tests/answers.rs` also checks the fault ledger, or with the model off
//! that every reliability counter is 0.

mod support;

use cloudmc::memctrl::{FaultConfig, PowerPolicyKind, UncorrectablePolicy};
use cloudmc::sim::{run_system, SimError, SimStats, Simulator, SystemConfig};
use cloudmc::workloads::Workload;
use support::corpus::covers;
use support::{lc_batch_mix, noisy_fault, small};

/// The conservation ledger balances at the end of any run (every corpus
/// row checks it), here on fault rows whose faults and scrub reads fired.
#[test]
fn fault_ledger_conserves_every_injected_fault() {
    covers(&[145, 170], &["faults and scrub reads"], &["1ch", "2ch"]);
}

/// Fault-enabled runs are seed-deterministic: the same configuration gives
/// byte-identical statistics on every repetition, and a different fault seed
/// gives a genuinely different run.
#[test]
fn fault_injection_is_seed_deterministic() {
    let make = |fault_seed: u64| {
        let mut cfg = small(Workload::TpchQ6, 3);
        cfg.mc.fault_model = Some(noisy_fault(fault_seed));
        run_system(cfg).expect("run completes")
    };
    let a = make(11);
    let b = make(11);
    assert_eq!(a, b, "same fault seed must reproduce bit-identically");
    let c = make(12);
    assert_ne!(a, c, "a different fault seed must change the run");
}

/// With `fault_model: None` the subsystem is invisible: every reliability
/// counter is zero (every corpus row without a fault model checks it), and
/// two-channel runs are bit-identical between the reference loop and the
/// event kernel.
#[test]
fn disabled_fault_model_is_invisible_and_kernel_invariant() {
    covers(
        &[85, 285],
        &["fault-free", "2ch"],
        &["FR-FCFS", "FCFS_Banks"],
    );
}

/// Under the fail-stop policy an uncorrectable error surfaces as
/// `SimError::Uncorrectable` from `try_run` — a typed error naming the
/// failing coordinates, never a panic — and `run_system` returns the same
/// error.
#[test]
fn fail_stop_surfaces_a_typed_error_never_a_panic() {
    let mut fc = noisy_fault(1);
    fc.transient_rate_fp = 1 << 32; // certainty
    fc.uncorrectable_permille = 1000; // every fault uncorrectable
    fc.miscorrect_permille = 0;
    fc.on_uncorrectable = UncorrectablePolicy::FailStop;
    let mut cfg = small(Workload::TpchQ6, 1);
    cfg.mc.fault_model = Some(fc);

    let err = Simulator::new(cfg.clone())
        .expect("valid config")
        .try_run()
        .expect_err("fail-stop must error");
    match &err {
        SimError::Uncorrectable(msg) => {
            assert!(msg.contains("uncorrectable memory error"), "{msg}");
            assert!(msg.contains("rank"), "{msg}");
            assert!(msg.contains("row"), "{msg}");
        }
        other => panic!("expected Uncorrectable, got {other:?}"),
    }
    assert_eq!(run_system(cfg), Err(err));
}

/// Under poison-and-continue the same error stream completes the run with
/// full accounting: poisoned lines, detected uncorrectables, and (with a
/// one-strike threshold) retired rows with their capacity loss.
#[test]
fn poison_and_continue_completes_with_accounting() {
    let mut fc = noisy_fault(1);
    fc.transient_rate_fp = FaultConfig::rate_per_million_reads(50_000); // 5%
    fc.uncorrectable_permille = 300;
    fc.retire_threshold = 1;
    fc.on_uncorrectable = UncorrectablePolicy::PoisonAndContinue;
    let mut cfg = small(Workload::TpchQ6, 1);
    cfg.mc.fault_model = Some(fc);
    let stats = run_system(cfg.clone()).expect("poison-and-continue completes");
    assert!(stats.user_instructions > 0, "the pod must keep committing");
    assert!(stats.ecc_detected_uncorrectable > 0);
    assert!(stats.lines_poisoned > 0);
    assert!(stats.rows_retired > 0, "one-strike retirement never fired");
    assert_eq!(
        stats.rows_retired_per_rank.iter().sum::<u64>() * cfg.mc.dram.row_bytes,
        stats.retired_capacity_bytes
    );
    assert!(stats.ecc_corrected > 0);
    assert!(stats.demand_retries > 0);
}

/// Patrol scrubbing emits real read traffic through the controller queues
/// (visible in device read counts) and its rate follows the configured
/// interval; fault-enabled runs on four channels stay bit-identical between
/// the reference loop and the event kernel with and without power-downs.
#[test]
fn scrub_traffic_is_real_and_fault_runs_stay_kernel_invariant() {
    for power in [PowerPolicyKind::None, PowerPolicyKind::IdleTimer] {
        let mut cfg = SystemConfig::mixed(lc_batch_mix());
        cfg.warmup_cpu_cycles = 10_000;
        cfg.measure_cpu_cycles = 60_000;
        cfg.seed = 5;
        cfg.num_channels = 2;
        cfg.mc.power_policy = power;
        cfg.mc.fault_model = Some(noisy_fault(5));
        let stats = run_system(cfg).expect("valid config");
        assert!(stats.scrub_reads_issued > 0, "{power}: scrubber idle");
        assert!(stats.scrub_reads_completed > 0);
        assert!(
            stats.scrub_reads_completed <= stats.scrub_reads_issued,
            "{power}: completed more scrubs than issued"
        );
        assert!(stats.faults_injected > 0);
    }
    let each = ["faults and scrub reads", "4ch"];
    covers(&[140, 195], &each, &["none", "power-down under idle-timer"]);
}

#[test]
fn scrub_counters_are_window_deltas() {
    let mut fc = FaultConfig::baseline();
    fc.scrub_interval = 200;
    let mut short = small(Workload::WebSearch, 9);
    short.mc.fault_model = Some(fc);
    let mut long = short.clone();
    long.measure_cpu_cycles = short.measure_cpu_cycles * 2;
    let short_stats = run_system(short).expect("run completes");
    let long_stats = run_system(long).expect("run completes");
    assert!(short_stats.scrub_reads_issued > 0);
    assert!(
        long_stats.scrub_reads_issued > short_stats.scrub_reads_issued,
        "longer window must see more scrubs ({} vs {})",
        long_stats.scrub_reads_issued,
        short_stats.scrub_reads_issued
    );
}

/// `SimStats` carries the reliability keys in its JSON rendering, appended
/// after the tenancy keys so existing `BENCH_*.json` consumers keep parsing.
#[test]
fn reliability_keys_serialize_additively() {
    let mut cfg = small(Workload::TpchQ6, 1);
    cfg.mc.fault_model = Some(noisy_fault(1));
    let stats: SimStats = run_system(cfg).expect("run completes");
    let json = stats.to_json();
    let qos = json.find("\"qos_policy\"").expect("tenancy block present");
    let ecc = json.find("\"ecc_corrected\"").expect("reliability block");
    assert!(ecc > qos, "reliability keys must come after tenancy keys");
    assert!(json.contains(&format!("\"faults_injected\":{}", stats.faults_injected)));
    assert!(json.contains("\"retired_capacity_bytes\""));
}
