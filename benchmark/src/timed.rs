//! The timed phase: what a user of the simulator pays in host time.
//!
//! A freshly set-up system (`Simulator::new` + warm-up, itself a `setup_s`
//! sample) is advanced through a **fixed window** of equal, individually timed
//! slices, then replaced by the next freshly set-up system, until the wall
//! budget is spent; snapshot forks are sampled at even intervals in between.
//! So:
//!
//! * all three sample sets see the same mix of fast and slow host phases;
//! * the set-up samples cost no thrown-away work;
//! * every slice lies in the same simulated window after warm-up, whatever the
//!   host's speed. A system's per-cycle cost drifts as it ages (dense streams
//!   get slower as footprints grow, the idle stream faster as its caches
//!   fill), so letting one system run for the whole budget would tie the
//!   figure to how many slices the host happened to fit;
//! * the slices are spread over dozens of heap layouts instead of betting the
//!   run on one.
//!
//! The phase is bounded by wall time (the driver fixes `--seconds`), not by
//! slice count: the fast decile is a per-slice rate, so it does not depend on
//! how many systems fit.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cloudmc_sim::{Simulator, SystemConfig};

/// Operations attempted and failed so far in this run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Records one operation and hands back what it produced; a failure is
    /// reported on stderr as it happens.
    pub fn take<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        outcome
            .map_err(|why| {
                self.failed += 1;
                eprintln!("FAILED {what}: {why}");
            })
            .ok()
    }

    /// Records one operation that produces nothing.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.take(what, outcome);
    }
}

/// Slices each system is advanced through before the next one replaces it.
/// On the dense workloads 20 slices of 50 000 cycles are exactly the
/// simulator's default 1 M-cycle measurement window — one sweep cell.
pub const SLICES_PER_SYSTEM: usize = 20;

/// How a timed phase spends its wall-time budget.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub budget: Duration,
    /// Snapshot + restore samples of the warm system.
    pub fork_samples: usize,
}

impl Plan {
    /// The end-to-end plan: the whole budget, a fork every 0.2 s (100 at the
    /// benchmark's 20 s).
    pub fn end_to_end(seconds: f64) -> Self {
        Self {
            budget: Duration::from_secs_f64(seconds),
            fork_samples: ((seconds * 5.0).round() as usize).clamp(5, 100),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct ForkSample {
    pub snapshot_s: f64,
    pub restore_s: f64,
    pub image_bytes: usize,
}

pub struct Timed {
    /// The most recently set-up system, advanced by the slices since.
    pub sim: Simulator,
    pub slice_s: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub forks: Vec<ForkSample>,
    /// Peak resident set (MiB) when the first system had been built, warmed
    /// up and advanced through its window, before the harness allocated
    /// anything else (a second system, a snapshot image, a replica): the
    /// footprint of one simulation, and a deterministic allocation sequence,
    /// so it repeats to within a few pages.
    pub first_system_peak_rss_mib: Option<f64>,
}

/// `Simulator::new` + `run_warmup` on a fresh system: build, functional
/// prewarm and the timed warm-up window — what every simulation pays before
/// its first measured cycle.
pub fn setup(cfg: &SystemConfig) -> Result<(Simulator, f64), String> {
    let start = Instant::now();
    let mut sim = Simulator::new(cfg.clone()).map_err(|e| e.to_string())?;
    sim.run_warmup();
    Ok((sim, start.elapsed().as_secs_f64()))
}

/// Snapshot of the warm system plus a replica restored from it — the
/// per-replicate cost a snapshot-forked sweep pays.
pub fn fork(sim: &Simulator, cfg: &SystemConfig) -> Result<(Simulator, ForkSample), String> {
    let start = Instant::now();
    let image = sim.system().snapshot().map_err(|e| e.to_string())?;
    let snapshot_s = start.elapsed().as_secs_f64();
    let replica = Simulator::from_snapshot(cfg.clone(), &image).map_err(|e| e.to_string())?;
    let total_s = start.elapsed().as_secs_f64();
    Ok((
        replica,
        ForkSample {
            snapshot_s,
            restore_s: total_s - snapshot_s,
            image_bytes: image.len(),
        },
    ))
}

pub fn timed_phase(
    cfg: &SystemConfig,
    slice_cycles: u64,
    plan: Plan,
    ops: &mut Ops,
) -> Result<Timed, String> {
    let start = Instant::now();
    let (sim, first_setup) = setup(cfg)?;
    ops.record("setup", Ok(()));
    let mut out = Timed {
        sim,
        slice_s: Vec::new(),
        setup_s: vec![first_setup],
        forks: Vec::new(),
        first_system_peak_rss_mib: None,
    };
    let mut slices_on_system = 0;
    loop {
        let elapsed = start.elapsed();
        if elapsed >= plan.budget {
            break;
        }
        if slices_on_system == SLICES_PER_SYSTEM {
            if out.first_system_peak_rss_mib.is_none() {
                out.first_system_peak_rss_mib = peak_rss_mib();
            }
            if let Some((fresh, seconds)) = ops.take("setup", setup(cfg)) {
                out.sim = fresh;
                out.setup_s.push(seconds);
            }
            slices_on_system = 0;
        }
        // Forks wait for the first system's window to end (see
        // `first_system_peak_rss_mib`), then catch up one per slice.
        let fork_due = plan
            .budget
            .mul_f64((2 * out.forks.len() + 1) as f64 / (2 * plan.fork_samples) as f64);
        if out.setup_s.len() > 1 && out.forks.len() < plan.fork_samples && elapsed >= fork_due {
            if let Some((replica, sample)) = ops.take("fork", fork(&out.sim, cfg)) {
                black_box(&replica);
                out.forks.push(sample);
            }
        }
        let before = out.sim.system().cpu_cycle();
        let t = Instant::now();
        out.sim.system_mut().run_cycles(slice_cycles);
        out.slice_s.push(t.elapsed().as_secs_f64());
        slices_on_system += 1;
        let advanced = out.sim.system().cpu_cycle() - before;
        ops.record(
            "slice",
            if advanced == slice_cycles {
                Ok(())
            } else {
                Err(format!(
                    "advanced {advanced} cycles, expected {slice_cycles}"
                ))
            },
        );
    }
    if out.first_system_peak_rss_mib.is_none() {
        out.first_system_peak_rss_mib = peak_rss_mib();
    }
    // A budget shorter than one window (quick mode) never reaches a fork.
    while out.forks.len() < plan.fork_samples.min(3) {
        let Some((replica, sample)) = ops.take("fork", fork(&out.sim, cfg)) else {
            break;
        };
        black_box(&replica);
        out.forks.push(sample);
    }
    Ok(out)
}

/// Peak resident set of this process in MiB (`VmHWM` of
/// `/proc/self/status`), or `None` where procfs is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
