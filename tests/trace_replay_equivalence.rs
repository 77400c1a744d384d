//! The record→replay equivalence guarantee: recording a synthetic run
//! (`SystemConfig::trace_record`) and replaying the resulting trace
//! (`WorkloadSource::Trace`) must reproduce *bit-identical* `SimStats` —
//! every counter, every latency sum, every per-tenant vector, every float —
//! under the event kernel and under the per-cycle reference loop.
//!
//! This is the contract that makes traces a sound experiment medium: any
//! divergence between the generated op stream and its text round trip, any
//! replay-side reordering, or any event-kernel bug specific to trace-fed cores
//! shows up here as a diverging field. The solo and mix equivalences are held
//! on the traced rows of `tests/answers.rs` named below.

mod support;

use std::path::PathBuf;

use cloudmc::sim::{run_system, SimError, Simulator, SystemConfig, WorkloadSource};
use cloudmc::workloads::Workload;
use support::corpus::covers;
use support::small;

/// A collision-free scratch path for one test's trace file.
fn temp_trace(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cloudmc_{name}_{}.trace", std::process::id()))
}

/// The message of the [`SimError::Trace`] that running `cfg` fails with.
fn trace_error(cfg: SystemConfig) -> String {
    match run_system(cfg) {
        Err(SimError::Trace(msg)) => msg,
        other => panic!("expected a trace error, got {other:?}"),
    }
}

/// Solo workloads replay bit-identically on the event kernel and on the
/// reference loop.
#[test]
fn solo_workloads_record_replay_bit_identical() {
    covers(&[175, 210, 220], &["replay", "solo"], &["demand reads"]);
}

/// Tenant mixes replay with every per-tenant statistic intact.
#[test]
fn multi_tenant_mix_record_replay_bit_identical() {
    covers(
        &[135],
        &["replay", "every tenant of a mix served"],
        &["qos:none"],
    );
}

/// Capture is observation only: recording must not perturb the run, and the
/// captured file must not depend on which driver (event kernel or reference
/// loop) ran it.
#[test]
fn recording_is_pure_observation_and_fast_forward_invariant() {
    let cfg = small(Workload::WebSearch, 11);
    let plain = run_system(cfg.clone()).unwrap();

    let path_fast = temp_trace("record_ff_on");
    let mut fast = cfg.clone();
    fast.trace_record = Some(path_fast.clone());
    let recorded_fast = run_system(fast).unwrap();
    assert_eq!(plain, recorded_fast, "recording must not perturb the run");

    let path_naive = temp_trace("record_ff_off");
    let mut naive = cfg.clone();
    naive.trace_record = Some(path_naive.clone());
    let recorded_naive = Simulator::reference(naive)
        .expect("valid config")
        .try_run()
        .unwrap();
    assert_eq!(plain, recorded_naive);

    let bytes_fast = std::fs::read(&path_fast).unwrap();
    let bytes_naive = std::fs::read(&path_naive).unwrap();
    assert!(!bytes_fast.is_empty());
    assert_eq!(
        bytes_fast, bytes_naive,
        "captured traces must be byte-identical under both drivers"
    );
    std::fs::remove_file(&path_fast).ok();
    std::fs::remove_file(&path_naive).ok();
}

/// Re-recording while replaying reproduces the trace byte for byte: the
/// replay consumes ops in exactly the order the recording captured them.
#[test]
fn rerecording_a_replay_reproduces_the_trace_bytes() {
    let cfg = small(Workload::TpchQ6, 13);
    let original = temp_trace("rerecord_src");
    let mut record_cfg = cfg.clone();
    record_cfg.trace_record = Some(original.clone());
    let recorded = run_system(record_cfg).unwrap();

    let copy = temp_trace("rerecord_dst");
    let mut rere = cfg.clone();
    rere.source = WorkloadSource::Trace(original.clone());
    rere.trace_record = Some(copy.clone());
    let replayed = run_system(rere).unwrap();
    assert_eq!(recorded, replayed);
    assert_eq!(
        std::fs::read(&original).unwrap(),
        std::fs::read(&copy).unwrap(),
        "a re-recorded replay must reproduce the trace byte for byte"
    );
    std::fs::remove_file(&original).ok();
    std::fs::remove_file(&copy).ok();
}

/// Replaying past the end of the recording parks the cores on the
/// exhaustion filler: the run completes (and fast-forwards) instead of
/// starving, and everything committed up to the recorded horizon is kept.
#[test]
fn replay_tolerates_running_longer_than_the_recording() {
    let cfg = small(Workload::WebSearch, 17);
    let path = temp_trace("overrun");
    let mut record_cfg = cfg.clone();
    record_cfg.trace_record = Some(path.clone());
    let recorded = run_system(record_cfg).unwrap();

    let mut longer = cfg.clone();
    longer.source = WorkloadSource::Trace(path.clone());
    longer.measure_cpu_cycles = cfg.measure_cpu_cycles + 50_000;
    let replayed = run_system(longer).unwrap();
    assert!(replayed.user_instructions >= recorded.user_instructions);
    assert_eq!(replayed.cpu_cycles, cfg.measure_cpu_cycles + 50_000);
    std::fs::remove_file(&path).ok();
}

/// A trace whose core indices exceed the bound topology fails with a clear
/// error naming the line and the bound — surfaced as an `Err` from
/// `run_system`, not an out-of-bounds panic.
#[test]
fn out_of_range_core_in_trace_fails_with_clear_message() {
    let path = temp_trace("bad_core");
    std::fs::write(&path, "0 C 5\n99 L 0x4f00 1\n").unwrap();
    let mut cfg = small(Workload::WebSearch, 1);
    cfg.source = WorkloadSource::Trace(path.clone());
    let message = trace_error(cfg);
    assert!(message.contains("core 99"), "{message}");
    assert!(message.contains("16 cores"), "{message}");
    assert!(message.contains("line 2"), "{message}");
    std::fs::remove_file(&path).ok();
}

/// A malformed record mid-trace likewise surfaces as an `Err` naming the
/// offending line, and so does recording over the replay source — even via
/// an aliased spelling of the same path that the lexical config check
/// cannot catch.
#[test]
fn malformed_trace_and_aliased_record_path_fail_as_errors() {
    let path = temp_trace("malformed_mid");
    std::fs::write(&path, "0 C 5\n0 L zz 0\n").unwrap();
    let mut cfg = small(Workload::WebSearch, 1);
    cfg.source = WorkloadSource::Trace(path.clone());
    let message = trace_error(cfg);
    assert!(message.contains("line 2"), "{message}");
    assert!(message.contains("bad address"), "{message}");

    // A symlinked spelling of the same file compares unequal lexically
    // (passing config validation) and is only caught by canonicalization.
    #[cfg(unix)]
    {
        let link = temp_trace("malformed_mid_link");
        std::fs::remove_file(&link).ok();
        std::os::unix::fs::symlink(&path, &link).unwrap();
        let mut aliased = small(Workload::WebSearch, 1);
        aliased.source = WorkloadSource::Trace(path.clone());
        aliased.trace_record = Some(link.clone());
        match run_system(aliased) {
            Err(SimError::Config(msg)) => assert!(msg.contains("aliases"), "{msg}"),
            other => {
                panic!("recording over the replay source: expected a config error, got {other:?}")
            }
        }
        // The replay input survived the attempt.
        assert!(std::fs::metadata(&path).unwrap().len() > 0);
        std::fs::remove_file(&link).ok();
    }
    std::fs::remove_file(&path).ok();
}

/// Trace I/O that fails while the system is built keeps its variant: a
/// replay file that cannot be opened and a record sink that cannot be
/// created are [`SimError::Trace`], a record path that resolves to the
/// replay source is [`SimError::Config`].
#[test]
fn build_time_trace_failures_keep_their_variant() {
    let missing_dir =
        std::env::temp_dir().join(format!("cloudmc_no_such_dir_{}", std::process::id()));
    let mut unopenable = small(Workload::WebSearch, 1);
    unopenable.source = WorkloadSource::Trace(missing_dir.join("in.trace"));
    match Simulator::new(unopenable) {
        Err(SimError::Trace(msg)) => assert!(msg.contains("in.trace"), "{msg}"),
        other => panic!("unopenable replay file: expected a trace error, got {other:?}"),
    }
    let mut uncreatable = small(Workload::WebSearch, 1);
    uncreatable.trace_record = Some(missing_dir.join("out.trace"));
    match Simulator::new(uncreatable) {
        Err(SimError::Trace(msg)) => assert!(msg.contains("out.trace"), "{msg}"),
        other => panic!("uncreatable record sink: expected a trace error, got {other:?}"),
    }

    // `<tmp>/../<tmp name>/x` differs from `<tmp>/x` lexically, so only the
    // build's canonical comparison sees that it is the same file.
    let path = temp_trace("aliased_build");
    std::fs::write(&path, "0 C 5\n").unwrap();
    let tmp = std::env::temp_dir();
    let alias = tmp
        .join("..")
        .join(tmp.file_name().unwrap())
        .join(path.file_name().unwrap());
    let mut aliased = small(Workload::WebSearch, 1);
    aliased.source = WorkloadSource::Trace(path.clone());
    aliased.trace_record = Some(alias);
    aliased.validate().unwrap();
    match Simulator::new(aliased) {
        Err(SimError::Config(msg)) => assert!(msg.contains("aliases"), "{msg}"),
        other => panic!("aliased record path: expected a config error, got {other:?}"),
    }
    assert!(std::fs::metadata(&path).unwrap().len() > 0);
    std::fs::remove_file(&path).ok();
}

/// A trace cut off mid-record (e.g. a capture killed before `finish` wrote
/// the trailing overlappable flag) fails with a line-numbered truncation
/// error instead of silently replaying a guessed flag value.
#[test]
fn truncated_trace_fails_with_line_numbered_error() {
    let path = temp_trace("truncated_mid");
    std::fs::write(&path, "0 C 5\n0 L 4f00\n").unwrap();
    let mut cfg = small(Workload::WebSearch, 1);
    cfg.source = WorkloadSource::Trace(path.clone());
    let message = trace_error(cfg);
    assert!(message.contains("line 2"), "{message}");
    assert!(message.contains("truncated record"), "{message}");
    std::fs::remove_file(&path).ok();
}

/// The checked-in golden mini-trace stays in lock-step with the generators:
/// re-recording its pinned configuration reproduces the file byte for byte,
/// and replaying it matches the synthetic run bit for bit. If a deliberate
/// generator change lands, regenerate the file with
/// `cargo run --release -p cloudmc-bench --bin repro -- trace --golden-regen`.
#[test]
fn golden_trace_matches_the_generators() {
    let golden = cloudmc_bench::golden_trace_path();
    let cfg = cloudmc_bench::golden_config();
    let synthetic = run_system(cfg.clone()).unwrap();

    let rerecorded = temp_trace("golden_rerecord");
    let mut record_cfg = cfg.clone();
    record_cfg.trace_record = Some(rerecorded.clone());
    let recorded_stats = run_system(record_cfg).unwrap();
    assert_eq!(synthetic, recorded_stats);
    assert_eq!(
        std::fs::read(&golden).expect("golden trace checked in at tests/data/"),
        std::fs::read(&rerecorded).unwrap(),
        "generators drifted from tests/data/golden_mix.trace; regenerate it if the change is intended"
    );
    std::fs::remove_file(&rerecorded).ok();

    let mut replay_cfg = cfg.clone();
    replay_cfg.source = WorkloadSource::Trace(golden);
    let replayed = run_system(replay_cfg).unwrap();
    assert_eq!(synthetic, replayed);
}
