//! The event kernel must be invisible: it and the per-cycle reference loop
//! (`Simulator::reference`, kept only as this oracle) must produce
//! *bit-identical* statistics: every counter, every latency sum, every
//! per-core vector, every float — for any workload, seed, scheduler, page
//! policy and channel count.
//!
//! This is the contract that lets the kernel skip idle cycles at all: any
//! layer whose "next event" bound overshoots by even one cycle shows up as a
//! diverging field. Each property is held on the generated rows of
//! `tests/answers.rs` that cover it (`corpus::covers` names them; a checked
//! row compares the two kernels' statistics, telemetry series and spans).
//! The two channel-count knobs and runs cut into irregular chunks are not
//! drawn there, so they have rows of their own here.

mod support;

use cloudmc::memctrl::{
    AddressMapping, FaultConfig, PagePolicyKind, PowerPolicyKind, SchedulerKind,
};
use cloudmc::sim::{run_system, Simulator, SystemConfig};
use cloudmc::workloads::Workload;
use support::corpus::covers;
use support::{lc_batch_mix, noisy_fault, small};

/// The baseline controller (FR-FCFS, open-adaptive) on the three solo
/// benchmark rows, and Web Frontend's DMA injector.
#[test]
fn baseline_stats_are_bit_identical_across_seeds() {
    let benchmarks = ["ws_dense", "q6_stream", "ws_idle", "DMA reads"];
    covers(&[0, 1, 2, 295], &["demand reads"], &benchmarks);
}

/// The event kernel must respect every scheduler's private clockwork
/// (ATLAS quanta, PAR-BS batches, the RL learner's decision stream) and
/// each one's candidate set, on one channel and on several.
#[test]
fn every_scheduler_is_bit_identical() {
    let mut facts = SchedulerKind::all().map(|s| s.label()).to_vec();
    facts.extend(["1ch", "2ch", "4ch"]);
    covers(&[60, 85, 175, 180, 245, 285], &[], &facts);
}

/// The event kernel must respect every page policy — including the
/// idle-timer policy, whose proposals flip purely with the passage of time.
#[test]
fn every_page_policy_is_bit_identical() {
    let policies = PagePolicyKind::all().map(|p| p.to_string());
    covers(&[60, 85, 180, 235, 245, 285, 295], &[], &policies);
}

/// The event kernel must respect the power subsystem's clockwork (timed
/// power-down entries, deepening, self-refresh, wake-on-demand and
/// wake-for-refresh), and ranks must really power down under each policy.
#[test]
fn every_power_policy_is_bit_identical() {
    let mut facts = power_downs();
    facts.extend(PowerPolicyKind::all().map(|p| p.to_string()));
    covers(&[60, 235, 245, 285], &[], &facts);
}

/// Power-downs under every scheduler (their private clockwork interleaves
/// with wake fences), and with the time-dependent timer page policy.
#[test]
fn power_down_is_bit_identical_across_schedulers() {
    let mut facts = power_downs();
    facts.extend(SchedulerKind::paper_set().map(|s| s.label().to_owned()));
    facts.push("timer".to_owned());
    covers(&[60, 85, 170, 175, 180], &[], &facts);
}

/// A power-down under each policy that powers ranks down.
fn power_downs() -> Vec<String> {
    let policies = PowerPolicyKind::all().into_iter().skip(1);
    policies.map(|p| format!("power-down under {p}")).collect()
}

/// Tenant mixes under every QoS policy, with every tenant served: the QoS
/// arbiter preempts the command slot and rolls its partition epochs in
/// catch-up style, and the DMA-driven Web Frontend's per-tenant injector
/// credit must survive bulk accrual.
#[test]
fn tenant_mixes_and_qos_policies_are_bit_identical() {
    let facts = [
        "qos:none",
        "qos:static-partition",
        "qos:priority-boost",
        "DMA reads",
    ];
    covers(&[20, 90, 260], &["every tenant of a mix served"], &facts);
}

/// Multi-channel controllers fast-forward identically: only due channels
/// tick, the rest account the cycle as a skip.
#[test]
fn multichannel_backends_are_bit_identical() {
    covers(&[180, 245], &[], &["2ch", "4ch"]);
}

/// `num_channels` is not a second way to have channels: it multiplies the
/// controller's own channel count, so `num_channels = n` and
/// `mc.dram.channels = n` are the same system — same interleaving under any
/// mapping, same per-channel fault seeds — down to the last statistic.
#[test]
fn num_channels_is_the_controllers_channel_count() {
    let run = |cfg: SystemConfig| run_system(cfg).expect("valid config");
    let fault = FaultConfig {
        uncorrectable_permille: FaultConfig::baseline().uncorrectable_permille,
        ..noisy_fault(3)
    };
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

/// The reliability subsystem rides the same clockwork: fault injection,
/// patrol scrub, bounded demand retries and poison-and-continue, on one and
/// on four channels and under power management. Scrub emission and retry
/// release are timed events.
#[test]
fn fault_injection_and_scrub_are_bit_identical() {
    let facts = ["1ch", "4ch", "power-down under idle-timer"];
    covers(&[145, 170, 195, 210], &["faults and scrub reads"], &facts);
}

/// Request conservation holds where a run stops, even inside fast-forwarded
/// regions: every row checks it at the end of its warm-up and of its
/// measurement, here on the idle benchmark row and a four-channel mix.
#[test]
fn conservation_holds_under_fast_forward() {
    covers(&[2, 180], &["demand reads"], &["ws_idle", "4ch"]);
}

/// Fill delays no shipped configuration uses: L2 banks of 50+ cycles behind
/// a crossbar of 40+, so the fill queue holds events far ahead of the clock.
/// Reference ≡ event, and (with an image) a restore ≡ the uninterrupted run.
#[test]
fn far_fill_delays_are_bit_identical_and_restartable() {
    covers(&[175, 180], &["far fills"], &["resumed", "replay"]);
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
    for (base, label) in [
        (SystemConfig::baseline(Workload::WebSearch), "baseline"),
        (SystemConfig::mixed(lc_batch_mix()), "tenant mix"),
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
