//! The event kernel must be invisible: it and the per-cycle reference loop
//! (`Simulator::reference`, kept only as this oracle) must produce
//! *bit-identical* statistics: every counter, every latency sum, every
//! per-core vector, every float — for any workload, seed, scheduler, page
//! policy and channel count.
//!
//! These tests are the contract that lets the kernel skip idle cycles at all:
//! any layer whose "next event" bound overshoots by even one cycle shows up
//! here as a diverging field.

use cloudmc::memctrl::{
    AddressMapping, FaultConfig, PagePolicyKind, PowerPolicyKind, QosPolicyKind, SchedulerKind,
    UncorrectablePolicy,
};
use cloudmc::sim::{run_system, SimStats, Simulator, SystemConfig};
use cloudmc::workloads::{MixSpec, TenantSpec, Workload};

fn small(workload: Workload, seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::baseline(workload);
    cfg.warmup_cpu_cycles = 10_000;
    cfg.measure_cpu_cycles = 60_000;
    cfg.seed = seed;
    cfg
}

/// Runs `cfg` on the reference loop and on the event kernel and demands
/// byte-identical results.
fn assert_equivalent(cfg: SystemConfig, label: &str) -> SimStats {
    let reference = Simulator::reference(cfg.clone())
        .expect("valid config")
        .try_run()
        .unwrap();
    let event = run_system(cfg).expect("valid config");
    assert_eq!(
        event, reference,
        "{label}: event kernel diverged from the reference loop"
    );
    assert_eq!(
        format!("{event:?}"),
        format!("{reference:?}"),
        "{label}: debug renderings must be byte-identical"
    );
    event
}

/// Acceptance test: identical stats on several seeded workloads under
/// the baseline controller (FR-FCFS, open-adaptive).
#[test]
fn baseline_stats_are_bit_identical_across_seeds() {
    for workload in [
        Workload::DataServing,
        Workload::WebFrontend, // exercises the DMA injector
        Workload::TpchQ6,      // dense decision-support stream
        Workload::WebSearch,   // low-intensity scale-out stream
    ] {
        for seed in [1u64, 7, 99] {
            let stats =
                assert_equivalent(small(workload, seed), &format!("{workload:?} seed {seed}"));
            assert!(stats.user_instructions > 0, "{workload:?} must commit work");
        }
    }
}

/// The event kernel must respect every scheduler's private clockwork
/// (ATLAS quanta, PAR-BS batches, the RL learner's decision stream) and
/// each one's candidate set: strict FCFS evaluates only its queue head, so
/// its wait bound is the narrowest.
#[test]
fn every_scheduler_is_bit_identical() {
    for scheduler in SchedulerKind::all() {
        let mut cfg = small(Workload::WebSearch, 3);
        cfg.mc.scheduler = scheduler;
        assert_equivalent(cfg, scheduler.label());
        // Two-channel variant: per-channel due bounds under every
        // scheduler's private clockwork.
        let mut two = small(Workload::WebSearch, 3);
        two.mc.scheduler = scheduler;
        two.num_channels = 2;
        assert_equivalent(two, &format!("{}/2 channels", scheduler.label()));
    }
}

/// The event kernel must respect every page policy — including the
/// idle-timer policy, whose proposals flip purely with the passage of time.
#[test]
fn every_page_policy_is_bit_identical() {
    for policy in PagePolicyKind::all() {
        let mut cfg = small(Workload::MediaStreaming, 5);
        cfg.mc.page_policy = policy;
        assert_equivalent(cfg, &policy.to_string());
    }
}

/// The event kernel must respect the power subsystem's clockwork: idle-timer
/// power-down entries, deepening transitions, self-refresh, wake-on-demand
/// and wake-for-refresh are all time- or event-driven, and the energy
/// accounting (state residency in closed form) must come out bit-identical.
/// Exercised on the idle-heavy stream where ranks actually reach the deep
/// states, and on a denser stream for the wake-on-demand churn.
#[test]
fn every_power_policy_is_bit_identical() {
    for policy in PowerPolicyKind::all() {
        let mut cfg = small(Workload::WebSearch, 5);
        cfg.workload = cfg.workload.with_intensity(0.02);
        cfg.mc.power_policy = policy;
        let stats = assert_equivalent(cfg, &format!("idle/{policy}"));
        if policy != PowerPolicyKind::None {
            assert!(
                stats.power_down_fraction > 0.0,
                "{policy}: idle-heavy run never powered down"
            );
        }

        let mut dense = small(Workload::TpchQ6, 5);
        dense.mc.power_policy = policy;
        assert_equivalent(dense, &format!("dense/{policy}"));
    }
}

/// Power management must stay bit-identical under every scheduler (their
/// private clockwork interleaves with wake fences) and with the
/// time-dependent timer page policy in the mix.
#[test]
fn power_down_is_bit_identical_across_schedulers() {
    for scheduler in SchedulerKind::paper_set() {
        let mut cfg = small(Workload::WebSearch, 3);
        cfg.workload = cfg.workload.with_intensity(0.05);
        cfg.mc.scheduler = scheduler;
        cfg.mc.power_policy = PowerPolicyKind::IdleTimer;
        assert_equivalent(cfg, &format!("power/{}", scheduler.label()));
    }
    let mut cfg = small(Workload::MediaStreaming, 7);
    cfg.mc.page_policy = PagePolicyKind::Timer;
    cfg.mc.power_policy = PowerPolicyKind::PowerAware;
    assert_equivalent(cfg, "power/timer-page-policy");
}

/// A latency-critical + batch tenant mix: every `*_per_tenant` statistic
/// (instructions, completions, latency sums, bandwidth shares, queue
/// occupancies — `SimStats` equality covers them all) must be bit-identical
/// under both drivers, for every scheduler and QoS policy. The QoS arbiter
/// preempts the command slot and rolls its partition epochs in catch-up
/// style, so this is where an overshooting bound would show.
#[test]
fn tenant_mixes_and_qos_policies_are_bit_identical() {
    let mix = MixSpec::new(TenantSpec::latency_critical(Workload::WebSearch, 8))
        .and(TenantSpec::batch(Workload::TpchQ6, 8));
    for scheduler in SchedulerKind::paper_set() {
        for qos in QosPolicyKind::all() {
            let mut cfg = SystemConfig::mixed(mix);
            cfg.warmup_cpu_cycles = 10_000;
            cfg.measure_cpu_cycles = 60_000;
            cfg.seed = 5;
            cfg.mc.scheduler = scheduler;
            cfg.mc.qos.policy = qos;
            let stats = assert_equivalent(cfg, &format!("{}/{qos}", scheduler.label()));
            assert_eq!(stats.tenants, 2);
            assert!(
                stats.instructions_per_tenant.iter().all(|&n| n > 0),
                "{}/{qos}: every tenant must make progress",
                scheduler.label()
            );
        }
    }
    // A three-tenant mix including the DMA-driven Web Frontend, whose
    // per-tenant injector credit must also survive bulk accrual.
    let with_dma = MixSpec::new(TenantSpec::latency_critical(Workload::WebFrontend, 8))
        .and(TenantSpec::batch(Workload::TpchQ6, 4))
        .and(TenantSpec::batch(Workload::TpcC1, 4));
    for qos in QosPolicyKind::all() {
        let mut cfg = SystemConfig::mixed(with_dma);
        cfg.warmup_cpu_cycles = 10_000;
        cfg.measure_cpu_cycles = 60_000;
        cfg.mc.qos.policy = qos;
        assert_equivalent(cfg, &format!("dma-mix/{qos}"));
    }
    // A two-channel tenant mix: per-channel due bounds under QoS accounting.
    let mut two_channel_mix = SystemConfig::mixed(mix);
    two_channel_mix.warmup_cpu_cycles = 10_000;
    two_channel_mix.measure_cpu_cycles = 60_000;
    two_channel_mix.num_channels = 2;
    assert_equivalent(two_channel_mix, "mix/2 channels");
}

/// Multi-channel controllers fast-forward identically: only due channels
/// tick, the rest account the cycle as a skip, and the result must equal the
/// reference loop's every-channel tick.
#[test]
fn multichannel_backends_are_bit_identical() {
    for seed in [11u64, 13] {
        for channels in [2usize, 4] {
            let mut cfg = small(Workload::TpchQ6, seed);
            cfg.num_channels = channels;
            assert_equivalent(cfg, &format!("{channels} channels, seed {seed}"));
        }
    }
}

/// `num_channels` is not a second way to have channels: it multiplies the
/// controller's own channel count, so `num_channels = n` and
/// `mc.dram.channels = n` are the same system — same interleaving under any
/// mapping, same per-channel fault seeds — down to the last statistic.
#[test]
fn num_channels_is_the_controllers_channel_count() {
    let run = |cfg: SystemConfig| run_system(cfg).expect("valid config");
    let mut fault = FaultConfig::baseline();
    fault.seed = 3;
    fault.transient_rate_fp = FaultConfig::rate_per_million_reads(20_000);
    fault.scrub_interval = 300;
    fault.stuck_rows_per_rank = 2;
    fault.retire_threshold = 2;
    fault.on_uncorrectable = UncorrectablePolicy::PoisonAndContinue;
    for n in [2usize, 4] {
        let mut base = small(Workload::TpchQ6, 3);
        base.mc.power_policy = PowerPolicyKind::IdleTimer;
        base.mc.fault_model = Some(fault);
        let mut by_knob = base.clone();
        by_knob.num_channels = n;
        let mut by_controller = base;
        by_controller.mc.dram.channels = n;
        let stats = run(by_knob);
        assert_eq!(stats, run(by_controller), "{n} channels with faults");
        assert_eq!(stats.channels, n);
        assert!(stats.faults_injected > 0 && stats.demand_retries > 0);
        assert!(stats.scrub_reads_issued > 0);
    }
    // The configured mapping places the channel bits, whichever knob asked
    // for them: a row-preserving scheme is not block-interleaved underneath.
    let mut by_knob = small(Workload::TpchQ6, 3);
    by_knob.mc.mapping = AddressMapping::RoChRaBaCo;
    let mut by_controller = by_knob.clone();
    by_knob.num_channels = 2;
    by_controller.mc.dram.channels = 2;
    let stats = run(by_knob);
    assert_eq!(stats, run(by_controller), "2 channels under RoChRaBaCo");
    let mut interleaved = small(Workload::TpchQ6, 3);
    interleaved.num_channels = 2;
    assert_ne!(
        stats.reads_completed,
        run(interleaved).reads_completed,
        "the mapping must matter"
    );
}

/// The reliability subsystem rides the same clockwork: with fault
/// injection, patrol scrub, bounded demand retries and poison-and-continue
/// all active, the event kernel must still match the reference loop. Scrub
/// emission and retry release are timed events, so an overshooting
/// `next_ready` bound in the fault layer shows up here as a diverging counter.
#[test]
fn fault_injection_and_scrub_are_bit_identical() {
    let fault = |seed: u64| {
        let mut fc = FaultConfig::baseline();
        fc.seed = seed;
        fc.transient_rate_fp = FaultConfig::rate_per_million_reads(20_000);
        fc.uncorrectable_permille = 100;
        fc.scrub_interval = 300;
        fc.stuck_rows_per_rank = 2;
        fc.retire_threshold = 2;
        fc.on_uncorrectable = UncorrectablePolicy::PoisonAndContinue;
        fc
    };
    for scheduler in SchedulerKind::paper_set() {
        let mut cfg = small(Workload::TpchQ6, 3);
        cfg.mc.scheduler = scheduler;
        cfg.mc.fault_model = Some(fault(3));
        let stats = assert_equivalent(cfg, &format!("fault/{}", scheduler.label()));
        assert!(
            stats.faults_injected > 0,
            "{}: fault model never fired",
            scheduler.label()
        );
        assert!(stats.scrub_reads_issued > 0);
    }
    // Multi-channel + power-managed variants: per-channel fault seeds, scrub
    // across two and four channels and residency-scaled fault rates.
    for channels in [2usize, 4] {
        let mut cfg = small(Workload::WebSearch, 7);
        cfg.num_channels = channels;
        cfg.mc.power_policy = PowerPolicyKind::IdleTimer;
        cfg.mc.fault_model = Some(fault(7));
        let stats = assert_equivalent(cfg, &format!("fault/{channels} channels/idle-timer"));
        assert!(stats.faults_injected > 0);
    }
}

/// Request conservation holds at arbitrary observation points mid-run, even
/// when those points land inside fast-forwarded regions.
#[test]
fn conservation_holds_under_fast_forward() {
    use cloudmc::sim::System;
    let cfg = small(Workload::WebSearch, 2);
    let mut system = System::new(cfg).unwrap();
    for _ in 0..14 {
        system.run_cycles(5_000);
        let sent = system.memory_reads_sent() + system.memory_writes_sent();
        let completed = system.controller_stats().completed();
        assert_eq!(sent, completed + system.requests_in_flight());
    }
}

/// Fill delays no shipped configuration uses: a 100-cycle L2 bank behind an
/// 80-cycle crossbar returns L2 hits after 260 CPU cycles and memory fills
/// after 80, so the fill queue holds events far ahead of the clock and grows
/// well past its usual depth. Reference ≡ event, and a run resumed from a
/// mid-warm-up snapshot (pending far fills in the image) ≡ uninterrupted.
#[test]
fn far_fill_delays_are_bit_identical_and_restartable() {
    for workload in [Workload::WebSearch, Workload::TpchQ6] {
        let mut cfg = small(workload, 3);
        cfg.l2.bank_latency = 100;
        cfg.l2.crossbar_latency = 80;
        let label = format!("{workload:?} with 260/80-cycle fills");
        let uninterrupted = assert_equivalent(cfg.clone(), &label);
        assert!(uninterrupted.reads_completed > 0, "{label}: no traffic");

        let cut = cfg.warmup_cpu_cycles / 2 + 1;
        let mut first = Simulator::new(cfg.clone()).expect("valid config");
        first.system_mut().run_cycles(cut);
        let image = first.system().snapshot().expect("snapshot supported");
        let mut resumed = Simulator::from_snapshot(cfg.clone(), &image).expect("restore");
        resumed.system_mut().run_cycles(cfg.warmup_cpu_cycles - cut);
        assert_eq!(
            resumed.run_measurement().expect("resumed run"),
            uninterrupted,
            "{label}: run resumed from a cycle-{cut} snapshot diverged"
        );
    }
}

/// The event kernel lets cores run ahead of the clock, but never past the
/// end of a `run_cycles` call or a telemetry sample boundary. So however a
/// run is cut into calls — one call, or irregular chunks down to a single
/// cycle, with a sample interval that divides none of them — every per-core
/// counter must equal the reference loop's at every chunk boundary, and the
/// statistics of the window that follows must be bit-identical.
#[test]
fn chunked_event_runs_match_the_naive_kernel_at_every_boundary() {
    const CHUNKS: [u64; 14] = [
        1, 3, 997, 2, 1, 5_000, 1, 64, 12_345, 7, 1_013, 2_026, 18_000, 539,
    ];
    let total: u64 = CHUNKS.iter().sum();
    let mix = MixSpec::new(TenantSpec::latency_critical(Workload::WebSearch, 8))
        .and(TenantSpec::batch(Workload::TpchQ6, 8));
    for (base, label) in [
        (SystemConfig::baseline(Workload::WebSearch), "baseline"),
        (SystemConfig::mixed(mix), "tenant mix"),
    ] {
        for sample_interval in [0u64, 1_013] {
            let label = format!("{label}, sample interval {sample_interval}");
            let mut cfg = base.clone();
            cfg.seed = 4;
            cfg.warmup_cpu_cycles = total;
            cfg.measure_cpu_cycles = 30_000;
            cfg.telemetry.sample_interval = sample_interval;
            let mut oracle = Simulator::reference(cfg.clone()).expect("valid config");
            let mut chunked = Simulator::new(cfg.clone()).expect("valid config");
            let mut single = Simulator::new(cfg).expect("valid config");

            let assert_cores_equal = |a: &Simulator, b: &Simulator, at: u64| {
                let (a, b) = (a.system(), b.system());
                assert_eq!(a.cpu_cycle(), at);
                assert_eq!(b.cpu_cycle(), at);
                assert_eq!(
                    a.committed_per_core(),
                    b.committed_per_core(),
                    "{label}: committed instructions differ at cycle {at}"
                );
                for core in 0..a.committed_per_core().len() {
                    assert_eq!(
                        a.core_stats(core),
                        b.core_stats(core),
                        "{label}: core {core} counters differ at cycle {at}"
                    );
                }
                assert_eq!(
                    a.telemetry_series(),
                    b.telemetry_series(),
                    "{label}: sampled series differ at cycle {at}"
                );
            };
            let mut at = 0;
            for chunk in CHUNKS {
                oracle.system_mut().run_cycles(chunk);
                chunked.system_mut().run_cycles(chunk);
                at += chunk;
                assert_cores_equal(&chunked, &oracle, at);
            }
            single.run_warmup();
            assert_cores_equal(&single, &oracle, total);

            let reference = oracle.run_measurement().expect("reference run");
            assert_eq!(
                chunked.run_measurement().expect("chunked run"),
                reference,
                "{label}: chunked event run diverged"
            );
            assert_eq!(
                single.run_measurement().expect("single-call run"),
                reference,
                "{label}: single-call event run diverged"
            );
        }
    }
}
