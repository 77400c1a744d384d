//! Output checks: every run verifies that what it timed was a correct
//! simulation. Each check is one operation in the run's `attempted`/`failed`
//! count and a failure makes the command exit non-zero.
//!
//! The repository holds no hardware or detailed-model reference results, so
//! the *model* is unvalidated and no error figure is given; these checks hold
//! the simulator to itself and to an independently written drive loop.

use cloudmc_dram::ChannelStats;
use cloudmc_memctrl::McStats;
use cloudmc_sim::{SimStats, Simulator, SystemConfig};

use crate::refloop::{NoTrace, RefSystem};
use crate::timed;

/// Everything the oracle compares, from either kind of system.
#[derive(Debug, PartialEq)]
pub struct Observed {
    pub cpu_cycle: u64,
    pub controller: McStats,
    pub device: ChannelStats,
    pub committed: Vec<u64>,
    pub reads_sent: u64,
    pub writes_sent: u64,
}

impl Observed {
    pub fn of_simulator(sim: &Simulator) -> Self {
        let system = sim.system();
        Self {
            cpu_cycle: system.cpu_cycle(),
            controller: system.controller_stats(),
            device: system.backend().device_totals(),
            committed: system.committed_per_core(),
            reads_sent: system.memory_reads_sent(),
            writes_sent: system.memory_writes_sent(),
        }
    }

    pub fn of_reference(reference: &RefSystem) -> Self {
        Self {
            cpu_cycle: reference.cpu_cycle(),
            controller: reference.controller_stats(),
            device: reference.device_totals(),
            committed: reference.committed_per_core(),
            reads_sent: reference.reads_sent,
            writes_sent: reference.writes_sent,
        }
    }

    /// `Ok` when equal; otherwise names the first field that differs (the
    /// full structures are too large to print usefully).
    pub fn same_as(&self, other: &Self) -> Result<(), String> {
        if self == other {
            return Ok(());
        }
        let field = if self.cpu_cycle != other.cpu_cycle {
            "cpu cycle"
        } else if self.committed != other.committed {
            "committed instructions per core"
        } else if (self.reads_sent, self.writes_sent) != (other.reads_sent, other.writes_sent) {
            "off-chip requests sent"
        } else if self.device != other.device {
            "DRAM device counters"
        } else {
            "controller statistics"
        };
        Err(format!("{field} differ at cycle {}", self.cpu_cycle))
    }
}

/// `check.reference_loop`: `reference`, driven from cold to its current
/// cycle by the harness's own loop, must equal a default-kernel `Simulator`
/// built from the same configuration and run the same number of cycles.
pub fn reference_loop(cfg: &SystemConfig, reference: &RefSystem) -> Result<(), String> {
    let cycles = reference.cpu_cycle();
    let (mut sim, _) = timed::setup(cfg)?;
    let warm = sim.system().cpu_cycle();
    if cycles < warm {
        return Err(format!(
            "reference ran {cycles} cycles, less than the {warm}-cycle warm-up"
        ));
    }
    sim.system_mut().run_cycles(cycles - warm);
    Observed::of_reference(reference).same_as(&Observed::of_simulator(&sim))
}

/// Runs the reference loop from cold for `cycles` and applies
/// [`reference_loop`].
pub fn reference_loop_from_cold(cfg: &SystemConfig, cycles: u64) -> Result<(), String> {
    let mut reference = RefSystem::new(cfg)?;
    reference.run(cycles, &mut NoTrace);
    reference_loop(cfg, &reference)
}

/// One warm-up + fixed measurement window on the default kernel.
fn measured_window(cfg: &SystemConfig, cycles: u64) -> Result<(SimStats, ChannelStats), String> {
    let mut cfg = cfg.clone();
    cfg.measure_cpu_cycles = cycles;
    let (mut sim, _) = timed::setup(&cfg)?;
    let before = sim.system().backend().device_totals();
    let stats = sim.run_measurement().map_err(|e| e.to_string())?;
    let device = sim.system().backend().device_totals().delta(&before);
    Ok((stats, device))
}

/// `check.determinism`: two same-seed runs give equal `SimStats`. Returns the
/// window's statistics, which are the source of every count metric.
pub fn determinism(cfg: &SystemConfig, cycles: u64) -> Result<(SimStats, ChannelStats), String> {
    let first = measured_window(cfg, cycles)?;
    let second = measured_window(cfg, cycles)?;
    if first == second {
        Ok(first)
    } else {
        Err("two runs of the same configuration and seed gave different SimStats".to_owned())
    }
}

/// `check.fork_identity`: a replica restored from a snapshot of `sim` and
/// `sim` itself stay equal over one further slice.
pub fn fork_identity(
    sim: &mut Simulator,
    cfg: &SystemConfig,
    slice_cycles: u64,
) -> Result<(), String> {
    let (mut replica, _) = timed::fork(sim, cfg)?;
    Observed::of_simulator(&replica)
        .same_as(&Observed::of_simulator(sim))
        .map_err(|why| format!("right after restore: {why}"))?;
    sim.system_mut().run_cycles(slice_cycles);
    replica.system_mut().run_cycles(slice_cycles);
    Observed::of_simulator(&replica).same_as(&Observed::of_simulator(sim))
}

/// `check.conservation`: every request sent off-chip is either completed or
/// still in flight (controller queues, DRAM, retry buckets). The public
/// surface counts in-flight reads and writes together, so the ledger is
/// checked on their sum.
pub fn conservation(sim: &Simulator) -> Result<(), String> {
    let system = sim.system();
    let sent = system.memory_reads_sent() + system.memory_writes_sent();
    let completed = system.controller_stats().completed();
    let in_flight = system.requests_in_flight();
    if sent == completed + in_flight {
        Ok(())
    } else {
        Err(format!(
            "{sent} sent != {completed} completed + {in_flight} in flight"
        ))
    }
}
