//! Workspace-level integration tests: the full simulator stack reproduces the
//! qualitative behaviours the paper's evaluation is built on.

use cloudmc::memctrl::{PagePolicyKind, SchedulerKind};
use cloudmc::sim::{run_system, SimStats, Simulator, SystemConfig};
use cloudmc::workloads::{Category, Workload};

fn small(workload: Workload) -> SystemConfig {
    let mut cfg = SystemConfig::baseline(workload);
    cfg.warmup_cpu_cycles = 20_000;
    cfg.measure_cpu_cycles = 80_000;
    cfg
}

fn run(cfg: SystemConfig) -> SimStats {
    run_system(cfg).expect("valid configuration")
}

#[test]
fn baseline_characteristics_are_in_calibrated_bands() {
    let ds = run(small(Workload::DataServing));
    // A 16-core pod commits between 1 and 16 instructions per cycle.
    assert!(
        ds.user_ipc() > 1.0 && ds.user_ipc() < 16.0,
        "IPC {}",
        ds.user_ipc()
    );
    // Row-buffer hit rate and single-access fraction are proper fractions.
    assert!(ds.row_buffer_hit_rate > 0.05 && ds.row_buffer_hit_rate < 0.9);
    assert!(ds.single_access_activation_fraction > 0.4);
    // Memory latency is at least the unloaded DRAM access time.
    assert!(ds.avg_read_latency_dram > 25.0);
    assert!(ds.bandwidth_utilization > 0.02 && ds.bandwidth_utilization < 1.0);
}

#[test]
fn decision_support_is_more_memory_intensive_than_scale_out() {
    let ws = run(small(Workload::WebSearch));
    let q6 = run(small(Workload::TpchQ6));
    assert!(
        q6.l2_mpki > 1.5 * ws.l2_mpki,
        "TPC-H Q6 MPKI {} should far exceed Web Search {}",
        q6.l2_mpki,
        ws.l2_mpki
    );
    assert!(
        q6.bandwidth_utilization > ws.bandwidth_utilization,
        "decision support should use more bandwidth"
    );
    assert!(q6.avg_read_queue_len > ws.avg_read_queue_len);
}

#[test]
fn runs_are_deterministic_for_a_fixed_seed() {
    let a = run(small(Workload::TpcC1));
    let b = run(small(Workload::TpcC1));
    assert_eq!(a.user_instructions, b.user_instructions);
    assert_eq!(a.reads_completed, b.reads_completed);
    assert_eq!(a.row_buffer_hit_rate, b.row_buffer_hit_rate);
}

#[test]
fn close_page_policy_destroys_row_hits_but_not_correctness() {
    let mut open = small(Workload::MediaStreaming);
    open.mc.page_policy = PagePolicyKind::OpenAdaptive;
    let mut close = small(Workload::MediaStreaming);
    close.mc.page_policy = PagePolicyKind::Close;
    let open_stats = run(open);
    let close_stats = run(close);
    assert!(close_stats.row_buffer_hit_rate < open_stats.row_buffer_hit_rate * 0.6);
    assert!(close_stats.reads_completed > 0);
    // Closing rows early raises the single-access fraction towards 1.
    assert!(
        close_stats.single_access_activation_fraction
            >= open_stats.single_access_activation_fraction
    );
}

#[test]
fn every_scheduler_completes_work_on_a_scale_out_workload() {
    let mut baseline_reads = None;
    for scheduler in SchedulerKind::paper_set() {
        let mut cfg = small(Workload::DataServing);
        cfg.mc.scheduler = scheduler;
        let stats = run(cfg);
        assert!(
            stats.reads_completed > 100,
            "{} completed too little",
            stats.scheduler
        );
        let base = *baseline_reads.get_or_insert(stats.reads_completed);
        // All schedulers serve the same closed-loop demand within 2x.
        assert!(stats.reads_completed * 2 > base);
    }
}

#[test]
fn additional_channels_help_decision_support_more_than_scale_out() {
    let run_channels = |workload: Workload, channels: usize| {
        let mut cfg = small(Workload::DataServing);
        cfg.workload = workload.spec();
        cfg.mc.num_cores = workload.spec().cores;
        cfg.mc.dram.channels = channels;
        run(cfg)
    };
    let ws1 = run_channels(Workload::WebSearch, 1);
    let ws4 = run_channels(Workload::WebSearch, 4);
    let q6_1 = run_channels(Workload::TpchQ6, 1);
    let q6_4 = run_channels(Workload::TpchQ6, 4);
    let ws_gain = ws4.user_ipc() / ws1.user_ipc();
    let q6_gain = q6_4.user_ipc() / q6_1.user_ipc();
    assert!(
        q6_gain > ws_gain,
        "channel scaling should help TPC-H Q6 ({q6_gain:.3}) more than Web Search ({ws_gain:.3})"
    );
    // Latency must improve for the saturated decision-support workload.
    assert!(q6_4.avg_read_latency_dram < q6_1.avg_read_latency_dram);
}

#[test]
fn web_frontend_runs_with_eight_cores_and_dma_traffic() {
    let wf = run(small(Workload::WebFrontend));
    assert_eq!(wf.cores, 8);
    assert_eq!(wf.instructions_per_core.len(), 8);
    assert!(
        wf.memory_writes_sent > 0,
        "DMA writes and write-backs expected"
    );
}

/// The zero-rate boundary of `WorkloadSpec::with_intensity(0.0)`: the spec
/// validates cleanly and the whole stack tolerates per-core streams that
/// (essentially) never emit memory ops — the frontend keeps committing
/// compute, the backend idles, and the run terminates normally on the event
/// kernel (its best case: one jump spans almost the entire run) and on the
/// reference loop.
#[test]
fn zero_intensity_spec_runs_end_to_end() {
    let mut cfg = small(Workload::WebSearch);
    cfg.workload = cfg.workload.with_intensity(0.0);
    cfg.validate().expect("zero-rate spec must validate");
    let reference = Simulator::reference(cfg.clone())
        .expect("valid config")
        .try_run()
        .unwrap();
    for stats in [run(cfg), reference] {
        // Nearly every cycle commits a compute instruction on every core:
        // the only stalls possible come from the (rare) residual data events
        // of the 1e-3-MPKI generator floor.
        assert!(
            stats.user_ipc() > 15.0,
            "zero-rate run should be almost pure compute (IPC {})",
            stats.user_ipc()
        );
        assert!(
            stats.memory_reads_sent < 50,
            "zero-rate run sent {} reads",
            stats.memory_reads_sent
        );
        assert_eq!(stats.cpu_cycles, 80_000);
    }
}

#[test]
fn category_assignment_matches_table1() {
    assert_eq!(Workload::all().len(), 12);
    for w in Workload::scale_out() {
        assert_eq!(w.category(), Category::ScaleOut);
    }
    assert_eq!(Workload::TpcC1.category(), Category::Transactional);
    assert_eq!(Workload::TpchQ17.category(), Category::DecisionSupport);
}
