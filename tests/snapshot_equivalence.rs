//! The checkpoint layer must be invisible: snapshot a system at cycle `C`,
//! restore the image onto a freshly built system, run to the end of the
//! measurement — and every statistic must be *bit-identical* to the
//! uninterrupted run — of the event kernel and of the per-cycle reference
//! loop. Held at the end of warm-up on the checked rows of
//! `tests/answers.rs` that the tests below name (single- and four-channel
//! backends, tenant mixes, fault injection, every scheduler, page and power
//! policy), and here at cycle 0, after many odd chunks and across a
//! re-seeded fork. Only event-driven systems can be checkpointed: a
//! reference-driven one refuses with a typed error.
//!
//! These tests are the contract that lets the experiment executor warm up
//! once and fork every measured replicate from the warm image: any mutable
//! field missing from the snapshot shows up here as a diverging counter.

mod support;

use cloudmc::memctrl::{PagePolicyKind, PowerPolicyKind, SchedulerKind};
use cloudmc::sim::{SimError, SimStats, Simulator, SystemConfig};
use cloudmc::workloads::Workload;
use support::corpus::covers;
use support::lc_batch_mix;

/// The shared `small` configuration, measured for 40k cycles.
fn small(workload: Workload, seed: u64) -> SystemConfig {
    let mut cfg = support::small(workload, seed);
    cfg.measure_cpu_cycles = 40_000;
    cfg
}

/// The uninterrupted reference run for `cfg`.
fn uninterrupted(cfg: &SystemConfig) -> SimStats {
    let mut sim = Simulator::new(cfg.clone()).expect("valid config");
    sim.run_warmup();
    sim.run_measurement().expect("reference run")
}

/// Runs `cfg` to CPU cycle `at`, snapshots, restores onto a fresh system,
/// finishes the warm-up there and returns the measured statistics — which
/// the caller compares against the uninterrupted run.
fn interrupted_at(cfg: &SystemConfig, at: u64) -> SimStats {
    assert!(at <= cfg.warmup_cpu_cycles);
    let mut first = Simulator::new(cfg.clone()).expect("valid config");
    first.system_mut().run_cycles(at);
    let image = first.system().snapshot().expect("snapshot supported");
    drop(first);
    let mut second = Simulator::from_snapshot(cfg.clone(), &image).expect("restore");
    assert_eq!(
        second.system().cpu_cycle(),
        at,
        "restored clock must resume at the snapshot cycle"
    );
    // A snapshot of the restored-but-untouched system must reproduce the
    // image byte for byte: serialization is a pure function of state.
    let again = second.system().snapshot().expect("re-snapshot");
    assert_eq!(image, again, "restore → snapshot must be the identity");
    second.system_mut().run_cycles(cfg.warmup_cpu_cycles - at);
    second.run_measurement().expect("resumed run")
}

/// A restore builds its system without the functional prewarm, so the image
/// alone must carry what the prewarm installed. An image taken at cycle 0,
/// straight after construction, is all prewarm (or, with the prewarm off,
/// all cold caches): it restores, re-snapshots byte for byte, and measures
/// exactly what the uninterrupted system does.
#[test]
fn cycle_zero_image_carries_the_functional_prewarm() {
    let mut measured = Vec::new();
    for functional_warmup in [true, false] {
        let mut cfg = small(Workload::WebSearch, 5);
        cfg.functional_warmup = functional_warmup;
        let reference = uninterrupted(&cfg);
        assert_eq!(
            interrupted_at(&cfg, 0),
            reference,
            "functional_warmup = {functional_warmup}: run resumed from a cycle-0 snapshot diverged"
        );
        measured.push(reference);
    }
    assert_ne!(
        measured[0], measured[1],
        "the prewarm must change the measurement for this check to mean anything"
    );
}

/// A reference-driven system never maintains the lazy frontend cursors or
/// the per-channel due bounds the image carries, and a restore (always
/// event-driven) would trust them: running 1 000 cycles per-cycle and then
/// 19 000 on the event kernel's bookkeeping does not end where 20 000
/// event-driven cycles do. So the reference driver refuses to be
/// checkpointed — a typed error, before any byte is written.
#[test]
fn reference_driven_system_refuses_to_snapshot() {
    let mut sim = Simulator::reference(small(Workload::WebSearch, 2)).expect("valid config");
    for cycles in [0u64, 1_000] {
        sim.system_mut().run_cycles(cycles);
        assert_eq!(
            sim.system().snapshot_unsupported_reason(),
            Some("the per-cycle reference driver")
        );
        match sim.system().snapshot() {
            Err(SimError::Snapshot(msg)) => assert!(
                msg.contains("the per-cycle reference driver"),
                "unexpected reason: {msg}"
            ),
            other => panic!("expected SimError::Snapshot, got {other:?}"),
        }
    }
    // The same configuration on the event kernel checkpoints fine.
    let mut event = Simulator::new(small(Workload::WebSearch, 2)).expect("valid config");
    event.system_mut().run_cycles(1_000);
    event
        .system()
        .snapshot()
        .expect("event-driven system snapshots");
}

/// The event kernel's cores run ahead of the clock inside a `run_cycles`
/// call but are all aligned — no deferred op, no position past the clock —
/// whenever one returns. So a run handed from image to image after each of
/// 64 consecutive odd-length calls (1 to 601 cycles) must end exactly where
/// the uninterrupted run does.
#[test]
fn snapshots_after_many_odd_chunks_resume_bit_identically() {
    let mut mixed = SystemConfig::mixed(lc_batch_mix());
    mixed.seed = 5;
    for (mut cfg, label) in [(small(Workload::WebSearch, 9), "baseline"), (mixed, "mix")] {
        cfg.warmup_cpu_cycles = 25_000;
        cfg.measure_cpu_cycles = 40_000;
        let reference = uninterrupted(&cfg);
        let mut sim = Simulator::new(cfg.clone()).expect("valid config");
        for i in 0..64u64 {
            sim.system_mut().run_cycles((i * 53 % 301) * 2 + 1);
            let image = sim.system().snapshot().expect("snapshot supported");
            sim = Simulator::from_snapshot(cfg.clone(), &image).expect("restore");
            let again = sim.system().snapshot().expect("re-snapshot");
            assert_eq!(image, again, "{label}: chunk {i}: restore → snapshot");
        }
        let at = sim.system().cpu_cycle();
        sim.system_mut().run_cycles(cfg.warmup_cpu_cycles - at);
        assert_eq!(
            sim.run_measurement().expect("resumed run"),
            reference,
            "{label}: run handed through 64 snapshots diverged"
        );
    }
}

/// A forked replicate — warm, snapshot, restore, re-seed, measure — equals
/// re-seeding the warm system in place and measuring, so the replicates the
/// executor forks are the runs they stand for.
#[test]
fn reseeded_fork_matches_reseeded_warm_run() {
    for workload in [Workload::WebSearch, Workload::TpchQ6] {
        for scheduler in [SchedulerKind::FrFcfs, SchedulerKind::FcfsBanks] {
            let mut cfg = small(workload, 3);
            cfg.mc.scheduler = scheduler;
            let label = format!("{workload}/{}", scheduler.label());
            let warm = || {
                let mut sim = Simulator::new(cfg.clone()).expect("valid config");
                sim.run_warmup();
                sim
            };
            let image = warm().system().snapshot().expect("snapshot supported");
            let continued = warm().run_measurement().expect("warm run");
            for seed in [0x5EED, 0xF00D] {
                let mut fork = Simulator::from_snapshot(cfg.clone(), &image).expect("restore");
                fork.system_mut().reseed(seed);
                let mut in_place = warm();
                in_place.system_mut().reseed(seed);
                let forked = fork.run_measurement().expect("forked run");
                assert_eq!(
                    forked,
                    in_place.run_measurement().expect("re-seeded run"),
                    "{label}, seed {seed:#x}: fork diverged from the re-seeded warm run"
                );
                assert_ne!(forked, continued, "{label}: re-seeding changed nothing");
            }
        }
    }
}

/// A resumed event-kernel run equals the uninterrupted run of both kernels
/// (a checked row also holds the reference loop to the event kernel), on
/// a single-channel and a four-channel backend: the image carries every
/// channel's controller state and cached due bound.
#[test]
fn every_kernel_resumes_bit_identically() {
    covers(&[60, 180], &["resumed"], &["1ch", "4ch"]);
}

/// Tenant mixes resume with every per-tenant statistic, the DMA-driven Web
/// Frontend's injector credit included.
#[test]
fn tenant_mix_resumes_bit_identically() {
    let each = ["resumed", "every tenant of a mix served"];
    covers(&[20, 90], &each, &["DMA reads"]);
}

/// Fault-enabled configurations (transient injection, stuck rows, patrol
/// scrub, demand retries, row retirement and poisoning) resume
/// bit-identically, ledger and all.
#[test]
fn fault_injection_resumes_bit_identically() {
    covers(
        &[170, 195],
        &["resumed", "faults and scrub reads"],
        &["1ch", "4ch"],
    );
}

/// Stateful schedulers carry private clockwork (ATLAS quanta, PAR-BS
/// batches, the RL learner's tables and exploration RNG) that must survive
/// the round trip.
#[test]
fn stateful_schedulers_resume_bit_identically() {
    let schedulers = SchedulerKind::all().map(|s| s.label());
    covers(&[60, 85, 180, 245, 260, 285], &["resumed"], &schedulers);
}

/// Stateful page and power policies carry per-bank or per-rank clockwork
/// (RBPP's and ABPP's row histories and current activations, the idle-timer
/// page policy's last access per bank, the power-down timers' last demand
/// per rank) that must survive the round trip.
#[test]
fn stateful_page_and_power_policies_resume_bit_identically() {
    let mut policies = PagePolicyKind::all().map(|p| p.to_string()).to_vec();
    policies.extend(PowerPolicyKind::all().map(|p| p.to_string()));
    covers(&[60, 85, 180, 235, 245, 285, 295], &["resumed"], &policies);
}

/// Restoring under any differing configuration is a typed error, not a
/// silent misparse: the fingerprint covers every field.
#[test]
fn mismatched_config_fingerprint_is_a_typed_error() {
    let cfg = small(Workload::DataServing, 7);
    let mut sim = Simulator::new(cfg.clone()).expect("valid config");
    sim.system_mut().run_cycles(1_000);
    let image = sim.system().snapshot().expect("snapshot supported");
    let mut other = cfg.clone();
    other.seed = 8;
    match Simulator::from_snapshot(other, &image) {
        Err(SimError::Snapshot(msg)) => {
            assert!(
                msg.contains("fingerprint"),
                "error must name the fingerprint mismatch: {msg}"
            );
        }
        Err(other) => panic!("expected SimError::Snapshot, got {other}"),
        Ok(_) => panic!("restore under a different seed must fail"),
    }
    // The exact configuration still restores fine.
    Simulator::from_snapshot(cfg, &image).expect("same config restores");
}

/// Systems with trace taps cannot be snapshotted — typed error, not silent
/// state loss.
#[test]
fn trace_recording_system_refuses_to_snapshot() {
    let dir = std::env::temp_dir().join("cloudmc_snapshot_refuse_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("capture.trace");
    let mut cfg = small(Workload::WebSearch, 2);
    cfg.trace_record = Some(path);
    let mut sim = Simulator::new(cfg).expect("valid config");
    sim.system_mut().run_cycles(100);
    match sim.system().snapshot() {
        Err(SimError::Snapshot(msg)) => {
            assert!(msg.contains("trace capture"), "unexpected reason: {msg}")
        }
        other => panic!("expected SimError::Snapshot, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Systems with an active telemetry sink cannot be snapshotted or restored:
/// sample cursors, pending spans and profiler accumulators live outside the
/// snapshot format, so a restored replica would silently truncate its
/// series. Both directions are typed errors, and any single layer (time
/// series, span tracing, or the profiler alone) triggers the refusal.
#[test]
fn telemetry_system_refuses_snapshot_and_restore() {
    use cloudmc::telemetry::TelemetryConfig;
    let layers = [
        TelemetryConfig {
            sample_interval: 5_000,
            ..TelemetryConfig::default()
        },
        TelemetryConfig {
            span_sample_every: 16,
            ..TelemetryConfig::default()
        },
        TelemetryConfig {
            profile_kernel: true,
            ..TelemetryConfig::default()
        },
    ];
    for telemetry in layers {
        let mut cfg = small(Workload::WebSearch, 2);
        cfg.telemetry = telemetry;
        let mut sim = Simulator::new(cfg.clone()).expect("valid config");
        sim.system_mut().run_cycles(100);
        match sim.system().snapshot() {
            Err(SimError::Snapshot(msg)) => assert!(
                msg.contains("an active telemetry sink"),
                "unexpected reason: {msg}"
            ),
            other => panic!("expected SimError::Snapshot, got {other:?}"),
        }

        // The restore direction refuses symmetrically: an image captured
        // with telemetry off cannot be revived into a telemetry-on config
        // (the fingerprint also differs, but the refusal fires first).
        let mut plain = cfg.clone();
        plain.telemetry = TelemetryConfig::off();
        let mut donor = Simulator::new(plain).expect("valid config");
        donor.system_mut().run_cycles(100);
        let image = donor.system().snapshot().expect("plain system snapshots");
        match Simulator::from_snapshot(cfg, &image) {
            Err(SimError::Snapshot(msg)) => assert!(
                msg.contains("an active telemetry sink"),
                "unexpected reason: {msg}"
            ),
            other => panic!("expected SimError::Snapshot, got {other:?}"),
        }
    }
}
