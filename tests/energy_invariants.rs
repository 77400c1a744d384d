//! Invariants of the energy subsystem at full-system level:
//!
//! 1. **Fast-forward transparency** — `SimStats` energy totals (and every
//!    other field) are bit-identical between the event kernel and the
//!    per-cycle reference loop, across all 5 schedulers x all 7 page
//!    policies with power management active.
//! 2. **Conservation** — power-state residency cycles sum to the elapsed
//!    rank-cycles of the measurement window.
//! 3. **Monotone accrual** — energy read at successive observation points
//!    never decreases and is never negative.
//! 4. **Savings** — enabling power-down on an idle-heavy workload cuts
//!    background energy relative to the no-power-management baseline.

use cloudmc::dram::EnergyModel;
use cloudmc::memctrl::{PagePolicyKind, PowerPolicyKind, SchedulerKind};
use cloudmc::sim::{run_system, Simulator, System, SystemConfig};
use cloudmc::workloads::Workload;

fn idle_config(seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::baseline(Workload::WebSearch);
    cfg.workload = cfg.workload.with_intensity(0.02);
    cfg.warmup_cpu_cycles = 5_000;
    cfg.measure_cpu_cycles = 30_000;
    cfg.seed = seed;
    cfg
}

/// Acceptance test: energy totals bit-identical between the event kernel
/// and the reference loop for every scheduler and page policy (power-down on so
/// the power-state machinery is actually in the loop).
#[test]
fn energy_is_bit_identical_across_all_schedulers_and_page_policies() {
    for scheduler in SchedulerKind::paper_set() {
        for page in PagePolicyKind::all() {
            let mut cfg = idle_config(9);
            cfg.mc.scheduler = scheduler;
            cfg.mc.page_policy = page;
            cfg.mc.power_policy = PowerPolicyKind::IdleTimer;
            let fast = run_system(cfg.clone()).unwrap();
            let reference = Simulator::reference(cfg).unwrap().try_run().unwrap();
            assert_eq!(
                fast.dram_energy_mj.to_bits(),
                reference.dram_energy_mj.to_bits(),
                "{}/{page}: energy diverged under fast-forward",
                scheduler.label()
            );
            assert_eq!(
                fast,
                reference,
                "{}/{page}: stats diverged under fast-forward",
                scheduler.label()
            );
            assert!(fast.dram_energy_mj > 0.0);
        }
    }
}

#[test]
fn residency_cycles_sum_to_elapsed_rank_cycles() {
    for power in PowerPolicyKind::all() {
        let mut cfg = idle_config(3);
        cfg.mc.power_policy = power;
        let ranks = cfg.mc.dram.ranks_per_channel as u64 * cfg.mc.dram.channels as u64;
        let mut system = System::new(cfg).unwrap();
        system.run_cycles(40_000);
        let dram_cycles = SystemConfig::cpu_to_dram_cycles(40_000);
        let device = system.backend().device_totals_at(dram_cycles);
        assert_eq!(
            device.state_residency_cycles(),
            dram_cycles * ranks,
            "{power}: residency must cover every rank-cycle exactly once"
        );
        if power == PowerPolicyKind::None {
            assert_eq!(device.powered_down_cycles(), 0);
        } else {
            assert!(
                device.powered_down_cycles() > 0,
                "{power}: idle-heavy run never powered down"
            );
        }
    }
}

#[test]
fn energy_accrues_monotonically_and_non_negative() {
    let mut cfg = idle_config(11);
    cfg.mc.power_policy = PowerPolicyKind::IdleTimer;
    let model = EnergyModel::new(cfg.energy);
    let timing = cfg.mc.dram.timing;
    let mut system = System::new(cfg).unwrap();
    let mut last = 0.0f64;
    for step in 1..=12u64 {
        system.run_cycles(4_000);
        let dram_now = SystemConfig::cpu_to_dram_cycles(step * 4_000);
        let device = system.backend().device_totals_at(dram_now);
        let energy = model.breakdown_from_residency(&device, &timing).total_pj();
        assert!(energy >= 0.0);
        assert!(
            energy >= last,
            "energy shrank between observations ({energy} < {last})"
        );
        last = energy;
    }
    assert!(last > 0.0, "a running system must consume energy");
}

#[test]
fn power_down_saves_background_energy_on_idle_workload() {
    let mut base = idle_config(1);
    base.mc.power_policy = PowerPolicyKind::None;
    let off = run_system(base).unwrap();
    for power in [
        PowerPolicyKind::Immediate,
        PowerPolicyKind::IdleTimer,
        PowerPolicyKind::PowerAware,
    ] {
        let mut cfg = idle_config(1);
        cfg.mc.power_policy = power;
        let on = run_system(cfg).unwrap();
        assert!(
            on.dram_background_energy_mj < off.dram_background_energy_mj,
            "{power}: background {} must undercut baseline {}",
            on.dram_background_energy_mj,
            off.dram_background_energy_mj
        );
        assert!(on.power_down_fraction > 0.0);
        assert!(on.power_down_entries > 0);
    }
}
