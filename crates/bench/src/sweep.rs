//! Fleet-scale experiment engine: a parallel, resumable sweep over a
//! (workload × scheduler × replicate) grid, forked from warm checkpoints.
//!
//! The classic way to run a grid is cold: every cell pays warm-up plus
//! measurement. This orchestrator instead warms each (workload, scheduler)
//! configuration *once*, snapshots the warm system
//! ([`System::snapshot`](cloudmc_sim::System::snapshot)), and forks every
//! measured replicate from the image — each replicate restores the warm
//! state, re-seeds its stochastic inputs
//! ([`System::reseed`](cloudmc_sim::System::reseed)) and runs only the
//! measurement window. That is the SimFlex-style checkpoint-sampling
//! methodology of the source paper, at fleet scale: replicates are
//! embarrassingly parallel, and the warm-up cost is amortized `replicates`
//! ways.
//!
//! Every `repro sweep` invocation runs the same grid three ways and demands
//! bit-identical per-cell statistics from all of them — the sweep doubles as
//! the snapshot round-trip gate:
//!
//! 1. **serial**: cold start per cell, one thread (the reference);
//! 2. **parallel**: cold start per cell, worker threads;
//! 3. **forked**: warm once per configuration, replicates restored from the
//!    checkpoint image, worker threads.
//!
//! The forked pass is *resumable*: each finished cell is written to
//! `--resume-dir` as one JSON file the moment it completes, and a re-run
//! loads cached cells instead of recomputing them — a killed sweep continues
//! where it stopped. (`--max-cells N` stops the forked pass after `N` fresh
//! cells, which is how CI exercises the kill/resume path deterministically.)
//!
//! Each cell's measurement window equals the warm-up window: with
//! checkpoint forking the measurement is the only per-replicate cost, and
//! many short, re-seeded windows from one warm image is exactly how
//! checkpoint sampling trades one long run for error bars. The report
//! (`BENCH_sweep.json`) carries per-configuration means with 95% confidence
//! intervals across replicates, plus cells/minute for all three modes.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use cloudmc_memctrl::SchedulerKind;
use cloudmc_sim::{SimStats, Simulator, Snapshot, SystemConfig};
use cloudmc_workloads::Workload;

use crate::experiments::Scale;

/// The workload pool the sweep grid draws from (`--workloads N` takes the
/// first `N`): two scale-out services, the dense decision-support scan and
/// the streaming server — the paper's main behavioural classes.
pub const SWEEP_WORKLOADS: [Workload; 4] = [
    Workload::DataServing,
    Workload::TpchQ6,
    Workload::WebSearch,
    Workload::MediaStreaming,
];

/// Sweep grid and orchestration settings (the `repro sweep` flags).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOptions {
    /// Measured replicates per (workload, scheduler) cell group.
    pub replicates: usize,
    /// How many of [`SWEEP_WORKLOADS`] to sweep (prefix).
    pub workloads: usize,
    /// How many of [`SchedulerKind::paper_set`] to sweep (prefix).
    pub schedulers: usize,
    /// Stop the forked pass after this many freshly computed cells (CI's
    /// deterministic stand-in for killing the sweep mid-flight).
    pub max_new_cells: Option<usize>,
    /// Directory holding one JSON file per finished forked cell.
    pub resume_dir: PathBuf,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            replicates: 3,
            workloads: SWEEP_WORKLOADS.len(),
            schedulers: SchedulerKind::paper_set().len(),
            max_new_cells: None,
            resume_dir: PathBuf::from("BENCH_sweep_cells"),
        }
    }
}

/// One measured cell: a (workload, scheduler, replicate) coordinate plus the
/// statistics the report aggregates. Every field is bit-deterministic, so
/// records computed serially, in parallel and forked from a checkpoint must
/// compare equal — that comparison is the sweep's correctness gate.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Workload name (`Debug` rendering, e.g. `TpchQ6`).
    pub workload: String,
    /// Scheduler label (e.g. `FR-FCFS`).
    pub scheduler: String,
    /// Replicate index within the cell group.
    pub replicate: usize,
    /// The replicate's measurement seed.
    pub seed: u64,
    /// Committed user instructions in the measurement window.
    pub user_instructions: u64,
    /// Reads completed in the window.
    pub reads_completed: u64,
    /// Writes completed in the window.
    pub writes_completed: u64,
    /// Aggregate user IPC over the window.
    pub user_ipc: f64,
    /// Average read latency in DRAM cycles.
    pub avg_read_latency_dram: f64,
    /// Row-buffer hit rate.
    pub row_buffer_hit_rate: f64,
    /// Data-bus utilization.
    pub bandwidth_utilization: f64,
}

impl CellRecord {
    fn from_stats(cell: &Cell, stats: &SimStats) -> Self {
        Self {
            workload: cell.workload_name.clone(),
            scheduler: cell.scheduler_label.to_owned(),
            replicate: cell.replicate,
            seed: cell.seed,
            user_instructions: stats.user_instructions,
            reads_completed: stats.reads_completed,
            writes_completed: stats.writes_completed,
            user_ipc: stats.user_ipc(),
            avg_read_latency_dram: stats.avg_read_latency_dram,
            row_buffer_hit_rate: stats.row_buffer_hit_rate,
            bandwidth_utilization: stats.bandwidth_utilization,
        }
    }

    /// One-line JSON object. Floats use the shortest round-trip rendering,
    /// so identical statistics serialize to identical bytes.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"scheduler\": \"{}\", \"replicate\": {}, \"seed\": {}, \
             \"user_instructions\": {}, \"reads_completed\": {}, \"writes_completed\": {}, \
             \"user_ipc\": {:?}, \"avg_read_latency_dram\": {:?}, \
             \"row_buffer_hit_rate\": {:?}, \"bandwidth_utilization\": {:?}}}",
            self.workload,
            self.scheduler,
            self.replicate,
            self.seed,
            self.user_instructions,
            self.reads_completed,
            self.writes_completed,
            self.user_ipc,
            self.avg_read_latency_dram,
            self.row_buffer_hit_rate,
            self.bandwidth_utilization,
        )
    }

    /// Parses a record previously written by [`CellRecord::to_json`].
    /// Returns `None` on any missing or malformed field — the caller treats
    /// an unreadable cache entry as a cache miss, never as data.
    #[must_use]
    pub fn parse(json: &str) -> Option<Self> {
        Some(Self {
            workload: json_str(json, "workload")?,
            scheduler: json_str(json, "scheduler")?,
            replicate: json_num(json, "replicate")?,
            seed: json_num(json, "seed")?,
            user_instructions: json_num(json, "user_instructions")?,
            reads_completed: json_num(json, "reads_completed")?,
            writes_completed: json_num(json, "writes_completed")?,
            user_ipc: json_num(json, "user_ipc")?,
            avg_read_latency_dram: json_num(json, "avg_read_latency_dram")?,
            row_buffer_hit_rate: json_num(json, "row_buffer_hit_rate")?,
            bandwidth_utilization: json_num(json, "bandwidth_utilization")?,
        })
    }
}

/// Extracts the raw text of `"name": <value>` from a flat JSON object.
fn json_raw<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\": ");
    let start = json.find(&key)? + key.len();
    let rest = &json[start..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim())
}

fn json_str(json: &str, name: &str) -> Option<String> {
    let raw = json_raw(json, name)?;
    raw.strip_prefix('"')?.strip_suffix('"').map(str::to_owned)
}

fn json_num<T: std::str::FromStr>(json: &str, name: &str) -> Option<T> {
    json_raw(json, name)?.parse().ok()
}

/// One grid coordinate with everything needed to run it.
#[derive(Debug, Clone)]
struct Cell {
    workload: Workload,
    workload_name: String,
    scheduler: SchedulerKind,
    scheduler_label: &'static str,
    replicate: usize,
    seed: u64,
}

impl Cell {
    fn cache_file(&self) -> String {
        format!(
            "cell_{}_{}_r{}.json",
            self.workload_name, self.scheduler_label, self.replicate
        )
    }
}

/// The system configuration of one cell group: baseline hardware, the
/// group's scheduler, and a measurement window equal to the warm-up window
/// (see the module docs for why).
fn cell_config(workload: Workload, scheduler: SchedulerKind, scale: &Scale) -> SystemConfig {
    let mut cfg = SystemConfig::baseline(workload);
    cfg.mc.scheduler = scheduler;
    cfg.warmup_cpu_cycles = scale.warmup_cpu_cycles;
    cfg.measure_cpu_cycles = scale.warmup_cpu_cycles;
    cfg.seed = scale.seed;
    cfg
}

/// The measurement seed of replicate `replicate` under base seed `base`:
/// any deterministic injection works, this one keeps neighbouring replicates
/// far apart in seed space.
fn replicate_seed(base: u64, replicate: usize) -> u64 {
    base ^ (replicate as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs one cell cold: build, warm up, re-seed, measure.
fn run_cell_cold(cell: &Cell, scale: &Scale) -> Result<CellRecord, String> {
    let cfg = cell_config(cell.workload, cell.scheduler, scale);
    let mut sim = Simulator::new(cfg).map_err(|e| e.to_string())?;
    sim.run_warmup();
    sim.system_mut().reseed(cell.seed);
    let stats = sim.run_measurement().map_err(|e| e.to_string())?;
    Ok(CellRecord::from_stats(cell, &stats))
}

/// Runs one cell forked from the group's warm image: restore, re-seed,
/// measure.
fn run_cell_forked(cell: &Cell, image: &Snapshot, scale: &Scale) -> Result<CellRecord, String> {
    let cfg = cell_config(cell.workload, cell.scheduler, scale);
    let mut sim = Simulator::from_snapshot(cfg, image).map_err(|e| e.to_string())?;
    sim.system_mut().reseed(cell.seed);
    let stats = sim.run_measurement().map_err(|e| e.to_string())?;
    Ok(CellRecord::from_stats(cell, &stats))
}

/// Runs `jobs.len()` independent jobs on up to `threads` scoped workers,
/// returning results in job order. Worker panics propagate on scope exit.
fn on_workers<T: Send, F>(threads: usize, jobs: usize, run: F) -> Vec<T>
where
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, jobs.max(1));
    let next = Mutex::new(0usize);
    let results = Mutex::new((0..jobs).map(|_| None).collect::<Vec<Option<T>>>());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let job = {
                    let mut next = next.lock().expect("job counter poisoned");
                    let job = *next;
                    *next += 1;
                    job
                };
                if job >= jobs {
                    break;
                }
                let result = run(job);
                results.lock().expect("result store poisoned")[job] = Some(result);
            });
        }
    });
    results
        .into_inner()
        .expect("result store poisoned")
        .into_iter()
        .map(|slot| slot.expect("every job ran"))
        .collect()
}

/// Per-(workload, scheduler) aggregate: mean and 95% confidence interval
/// across the replicates (normal approximation, sample standard deviation).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSummary {
    /// Workload name.
    pub workload: String,
    /// Scheduler label.
    pub scheduler: String,
    /// Replicates aggregated.
    pub replicates: usize,
    /// Mean user IPC across replicates.
    pub ipc_mean: f64,
    /// 95% confidence half-width of the IPC mean.
    pub ipc_ci95: f64,
    /// Mean read latency (DRAM cycles) across replicates.
    pub latency_mean: f64,
    /// 95% confidence half-width of the latency mean.
    pub latency_ci95: f64,
}

fn mean_ci95(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if values.len() < 2 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, 1.96 * (var / n).sqrt())
}

/// Wall-clock accounting of one pass over the grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeTiming {
    /// Cells produced by this pass.
    pub cells: usize,
    /// Of those, cells loaded from the resume cache instead of computed.
    pub from_cache: usize,
    /// Wall-clock seconds for the pass.
    pub elapsed_sec: f64,
}

impl ModeTiming {
    /// Cells per minute of wall clock (the report's headline unit).
    #[must_use]
    pub fn cells_per_min(&self) -> f64 {
        if self.elapsed_sec <= 0.0 {
            return 0.0;
        }
        self.cells as f64 * 60.0 / self.elapsed_sec
    }
}

/// The finished sweep: per-cell records (identical across modes — enforced),
/// per-group aggregates, and the three modes' throughput.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Workload names in the grid.
    pub workloads: Vec<String>,
    /// Scheduler labels in the grid.
    pub schedulers: Vec<String>,
    /// Replicates per cell group.
    pub replicates: usize,
    /// Warm-up (= per-cell measurement) window in CPU cycles.
    pub window_cpu_cycles: u64,
    /// Worker threads used by the parallel and forked passes.
    pub threads: usize,
    /// The per-cell records, grid order (workload-major, then scheduler,
    /// then replicate).
    pub cells: Vec<CellRecord>,
    /// Per-(workload, scheduler) aggregates.
    pub groups: Vec<GroupSummary>,
    /// Serial cold-start pass timing.
    pub serial: ModeTiming,
    /// Parallel cold-start pass timing.
    pub parallel: ModeTiming,
    /// Checkpoint-forked pass timing.
    pub forked: ModeTiming,
}

impl SweepReport {
    /// Machine-readable JSON for `BENCH_sweep.json`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let quoted = |items: &[String]| {
            items
                .iter()
                .map(|w| format!("\"{w}\""))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut out = String::from("{\n  \"benchmark\": \"snapshot_forked_sweep\",\n");
        let _ = writeln!(
            out,
            "  \"grid\": {{\"workloads\": [{}], \"schedulers\": [{}], \"replicates\": {}, \
             \"window_cpu_cycles\": {}}},",
            quoted(&self.workloads),
            quoted(&self.schedulers),
            self.replicates,
            self.window_cpu_cycles,
        );
        out.push_str("  \"modes_bit_identical\": true,\n");
        let _ = writeln!(
            out,
            "  \"throughput\": {{\"threads\": {}, \"cells\": {}, \
             \"serial_cells_per_min\": {:.2}, \"parallel_cells_per_min\": {:.2}, \
             \"forked_cells_per_min\": {:.2}, \"parallel_speedup\": {:.3}, \
             \"forked_speedup\": {:.3}, \"forked_cells_from_cache\": {}}},",
            self.threads,
            self.cells.len(),
            self.serial.cells_per_min(),
            self.parallel.cells_per_min(),
            self.forked.cells_per_min(),
            self.parallel_speedup(),
            self.forked_speedup(),
            self.forked.from_cache,
        );
        out.push_str("  \"groups\": [\n");
        for (i, g) in self.groups.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"workload\": \"{}\", \"scheduler\": \"{}\", \"replicates\": {}, \
                 \"ipc_mean\": {:.4}, \"ipc_ci95\": {:.4}, \
                 \"latency_mean\": {:.2}, \"latency_ci95\": {:.2}}}{}",
                g.workload,
                g.scheduler,
                g.replicates,
                g.ipc_mean,
                g.ipc_ci95,
                g.latency_mean,
                g.latency_ci95,
                if i + 1 == self.groups.len() { "" } else { "," }
            );
        }
        out.push_str("  ],\n  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {}{}",
                c.to_json(),
                if i + 1 == self.cells.len() { "" } else { "," }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Human-readable summary for the terminal.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "snapshot-forked sweep: {} workloads x {} schedulers x {} replicates \
             ({} cells, {}-cycle windows)\n\
             workload         scheduler          ipc (mean +/- ci95)    read latency (dram)\n",
            self.workloads.len(),
            self.schedulers.len(),
            self.replicates,
            self.cells.len(),
            self.window_cpu_cycles,
        );
        for g in &self.groups {
            let _ = writeln!(
                out,
                "{:<16} {:<16} {:>8.3} +/- {:<8.3} {:>10.1} +/- {:.1}",
                g.workload, g.scheduler, g.ipc_mean, g.ipc_ci95, g.latency_mean, g.latency_ci95
            );
        }
        let _ = writeln!(
            out,
            "cells/minute: serial {:.2}, parallel {:.2} ({:.2}x), \
             snapshot-forked {:.2} ({:.2}x, {} of {} cells from cache; {} threads)",
            self.serial.cells_per_min(),
            self.parallel.cells_per_min(),
            self.parallel_speedup(),
            self.forked.cells_per_min(),
            self.forked_speedup(),
            self.forked.from_cache,
            self.cells.len(),
            self.threads,
        );
        out
    }

    /// Parallel cold-start throughput relative to serial.
    #[must_use]
    pub fn parallel_speedup(&self) -> f64 {
        safe_ratio(self.parallel.cells_per_min(), self.serial.cells_per_min())
    }

    /// Checkpoint-forked throughput relative to serial.
    #[must_use]
    pub fn forked_speedup(&self) -> f64 {
        safe_ratio(self.forked.cells_per_min(), self.serial.cells_per_min())
    }
}

fn safe_ratio(num: f64, den: f64) -> f64 {
    if den <= 0.0 {
        0.0
    } else {
        num / den
    }
}

/// How a sweep invocation ended.
#[derive(Debug)]
pub enum SweepOutcome {
    /// All passes ran; the report is ready to write.
    Complete(Box<SweepReport>),
    /// `--max-cells` stopped the forked pass early; re-running the same
    /// sweep resumes from the cells already in the resume directory.
    Stopped {
        /// Freshly computed cells before stopping.
        new_cells: usize,
        /// Cells loaded from the resume directory.
        cached_cells: usize,
        /// Cells still missing.
        remaining: usize,
    },
}

/// Builds the grid in report order (workload-major, scheduler, replicate).
fn grid(opts: &SweepOptions, scale: &Scale) -> Vec<Cell> {
    let workloads = &SWEEP_WORKLOADS[..opts.workloads.min(SWEEP_WORKLOADS.len())];
    let paper = SchedulerKind::paper_set();
    let schedulers = &paper[..opts.schedulers.min(paper.len())];
    let mut cells = Vec::new();
    for &workload in workloads {
        for &scheduler in schedulers {
            for replicate in 0..opts.replicates {
                cells.push(Cell {
                    workload,
                    workload_name: format!("{workload:?}"),
                    scheduler,
                    scheduler_label: scheduler.label(),
                    replicate,
                    seed: replicate_seed(scale.seed, replicate),
                });
            }
        }
    }
    cells
}

/// Loads a cell's cached record if one exists and matches the cell's
/// coordinates and seed exactly; anything else is a miss.
fn load_cached(dir: &Path, cell: &Cell) -> Option<CellRecord> {
    let text = std::fs::read_to_string(dir.join(cell.cache_file())).ok()?;
    let record = CellRecord::parse(&text)?;
    (record.workload == cell.workload_name
        && record.scheduler == cell.scheduler_label
        && record.replicate == cell.replicate
        && record.seed == cell.seed)
        .then_some(record)
}

/// The forked pass: warm + snapshot each (workload, scheduler) group that
/// still has missing cells, then measure all missing cells from the images
/// on the worker pool, writing each to the resume directory as it finishes.
/// Returns `(records_in_grid_order, timing)` or, when `max_new_cells` capped
/// the pass, `Err` describing the early stop.
fn forked_pass(
    cells: &[Cell],
    opts: &SweepOptions,
    scale: &Scale,
) -> Result<Result<(Vec<CellRecord>, ModeTiming), SweepOutcome>, String> {
    let started = Instant::now();
    std::fs::create_dir_all(&opts.resume_dir)
        .map_err(|e| format!("creating {}: {e}", opts.resume_dir.display()))?;
    let mut records: Vec<Option<CellRecord>> = Vec::with_capacity(cells.len());
    let mut missing: Vec<usize> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let cached = load_cached(&opts.resume_dir, cell);
        if cached.is_none() {
            missing.push(i);
        }
        records.push(cached);
    }
    let cached_cells = cells.len() - missing.len();
    if let Some(cap) = opts.max_new_cells {
        missing.truncate(cap);
    }

    // Warm and snapshot each group that still has work, in parallel.
    let mut group_keys: Vec<(Workload, SchedulerKind)> = Vec::new();
    for &i in &missing {
        let key = (cells[i].workload, cells[i].scheduler);
        if !group_keys.contains(&key) {
            group_keys.push(key);
        }
    }
    let images: Vec<Result<Snapshot, String>> =
        on_workers(scale.threads, group_keys.len(), |job| {
            let (workload, scheduler) = group_keys[job];
            let cfg = cell_config(workload, scheduler, scale);
            let mut sim = Simulator::new(cfg).map_err(|e| e.to_string())?;
            sim.run_warmup();
            sim.system().snapshot().map_err(|e| e.to_string())
        });
    let mut group_images = Vec::with_capacity(images.len());
    for image in images {
        group_images.push(image?);
    }
    let image_of = |cell: &Cell| {
        let key = (cell.workload, cell.scheduler);
        let at = group_keys.iter().position(|&k| k == key).expect("warmed");
        &group_images[at]
    };

    // Measure the missing cells on the pool; persist each as it finishes.
    let computed: Vec<Result<CellRecord, String>> =
        on_workers(scale.threads, missing.len(), |job| {
            let cell = &cells[missing[job]];
            let record = run_cell_forked(cell, image_of(cell), scale)?;
            let path = opts.resume_dir.join(cell.cache_file());
            std::fs::write(&path, record.to_json())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            Ok(record)
        });
    let new_cells = computed.len();
    for (slot, record) in missing.iter().zip(computed) {
        records[*slot] = Some(record?);
    }

    let timing = ModeTiming {
        cells: cells.len(),
        from_cache: cached_cells,
        elapsed_sec: started.elapsed().as_secs_f64(),
    };
    if records.iter().any(Option::is_none) {
        return Ok(Err(SweepOutcome::Stopped {
            new_cells,
            cached_cells,
            remaining: records.iter().filter(|r| r.is_none()).count(),
        }));
    }
    Ok(Ok((
        records.into_iter().map(|r| r.expect("checked")).collect(),
        timing,
    )))
}

/// Runs the full sweep: forked (resumable) first, then the serial and
/// parallel cold-start reference passes, then the bit-identity gate.
///
/// # Errors
///
/// Returns a description of the first configuration, I/O or simulation
/// error, or of a bit-identity violation between the three modes (which
/// would mean the snapshot layer is broken — the sweep refuses to report).
pub fn run_sweep(opts: &SweepOptions, scale: &Scale) -> Result<SweepOutcome, String> {
    let cells = grid(opts, scale);
    if cells.is_empty() {
        return Err("empty sweep grid".to_owned());
    }

    // Pass 1 (resumable, capped): checkpoint-forked.
    let (forked_records, forked_timing) = match forked_pass(&cells, opts, scale)? {
        Ok(done) => done,
        Err(stopped) => return Ok(stopped),
    };

    // Pass 2: serial cold-start reference.
    let started = Instant::now();
    let serial_records = {
        let mut out = Vec::with_capacity(cells.len());
        for cell in &cells {
            out.push(run_cell_cold(cell, scale)?);
        }
        out
    };
    let serial_timing = ModeTiming {
        cells: cells.len(),
        from_cache: 0,
        elapsed_sec: started.elapsed().as_secs_f64(),
    };

    // Pass 3: parallel cold-start.
    let started = Instant::now();
    let parallel_results: Vec<Result<CellRecord, String>> =
        on_workers(scale.threads, cells.len(), |job| {
            run_cell_cold(&cells[job], scale)
        });
    let mut parallel_records = Vec::with_capacity(cells.len());
    for record in parallel_results {
        parallel_records.push(record?);
    }
    let parallel_timing = ModeTiming {
        cells: cells.len(),
        from_cache: 0,
        elapsed_sec: started.elapsed().as_secs_f64(),
    };

    // The snapshot round-trip gate: all three modes must agree bit-for-bit.
    for (serial, (parallel, forked)) in serial_records
        .iter()
        .zip(parallel_records.iter().zip(forked_records.iter()))
    {
        if serial != parallel || serial != forked {
            return Err(format!(
                "modes diverged at cell ({}, {}, replicate {}): the parallel and \
                 checkpoint-forked runs must be bit-identical to the serial reference",
                serial.workload, serial.scheduler, serial.replicate
            ));
        }
    }

    // Aggregate per group, in grid order.
    let mut groups = Vec::new();
    for chunk in serial_records.chunks(opts.replicates) {
        let ipcs: Vec<f64> = chunk.iter().map(|c| c.user_ipc).collect();
        let lats: Vec<f64> = chunk.iter().map(|c| c.avg_read_latency_dram).collect();
        let (ipc_mean, ipc_ci95) = mean_ci95(&ipcs);
        let (latency_mean, latency_ci95) = mean_ci95(&lats);
        groups.push(GroupSummary {
            workload: chunk[0].workload.clone(),
            scheduler: chunk[0].scheduler.clone(),
            replicates: chunk.len(),
            ipc_mean,
            ipc_ci95,
            latency_mean,
            latency_ci95,
        });
    }

    let workloads = SWEEP_WORKLOADS[..opts.workloads.min(SWEEP_WORKLOADS.len())]
        .iter()
        .map(|w| format!("{w:?}"))
        .collect();
    let paper = SchedulerKind::paper_set();
    let schedulers = paper[..opts.schedulers.min(paper.len())]
        .iter()
        .map(|s| s.label().to_owned())
        .collect();
    Ok(SweepOutcome::Complete(Box::new(SweepReport {
        workloads,
        schedulers,
        replicates: opts.replicates,
        window_cpu_cycles: scale.warmup_cpu_cycles,
        threads: scale.threads,
        cells: serial_records,
        groups,
        serial: serial_timing,
        parallel: parallel_timing,
        forked: forked_timing,
    })))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        let mut scale = Scale::quick();
        scale.warmup_cpu_cycles = 4_000;
        scale.threads = 2;
        scale
    }

    fn tiny_opts(dir: &str) -> SweepOptions {
        SweepOptions {
            replicates: 2,
            workloads: 1,
            schedulers: 2,
            max_new_cells: None,
            resume_dir: std::env::temp_dir().join(dir),
        }
    }

    #[test]
    fn cell_records_round_trip_through_json() {
        let record = CellRecord {
            workload: "TpchQ6".to_owned(),
            scheduler: "FR-FCFS".to_owned(),
            replicate: 2,
            seed: 0xDEAD_BEEF,
            user_instructions: 123_456,
            reads_completed: 789,
            writes_completed: 12,
            user_ipc: 7.123_456_789_012,
            avg_read_latency_dram: 61.25,
            row_buffer_hit_rate: 0.812_345,
            bandwidth_utilization: 0.25,
        };
        let parsed = CellRecord::parse(&record.to_json()).expect("round trip");
        assert_eq!(parsed, record);
        assert_eq!(CellRecord::parse("{\"workload\": \"x\"}"), None);
        assert_eq!(CellRecord::parse("not json"), None);
    }

    #[test]
    fn replicate_seeds_are_distinct() {
        let seeds: Vec<u64> = (0..16).map(|r| replicate_seed(1, r)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
    }

    #[test]
    fn mean_ci_matches_hand_computation() {
        let (mean, ci) = mean_ci95(&[1.0, 2.0, 3.0]);
        assert!((mean - 2.0).abs() < 1e-12);
        // sd = 1, se = 1/sqrt(3), ci = 1.96 * se
        assert!((ci - 1.96 / 3.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(mean_ci95(&[5.0]), (5.0, 0.0));
        assert_eq!(mean_ci95(&[]), (0.0, 0.0));
    }

    #[test]
    fn sweep_completes_resumes_and_gates_identity() {
        let opts = tiny_opts("cloudmc_sweep_test_complete");
        let _ = std::fs::remove_dir_all(&opts.resume_dir);
        let scale = tiny_scale();

        // A capped first run stops early with cells persisted.
        let mut capped = opts.clone();
        capped.max_new_cells = Some(1);
        match run_sweep(&capped, &scale).expect("capped sweep") {
            SweepOutcome::Stopped {
                new_cells,
                remaining,
                ..
            } => {
                assert_eq!(new_cells, 1);
                assert_eq!(remaining, 3);
            }
            SweepOutcome::Complete(_) => panic!("capped sweep must stop early"),
        }

        // The uncapped re-run resumes from the cache and completes.
        let report = match run_sweep(&opts, &scale).expect("resumed sweep") {
            SweepOutcome::Complete(report) => report,
            SweepOutcome::Stopped { .. } => panic!("uncapped sweep must complete"),
        };
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.forked.from_cache, 1, "one cell came from the cache");
        assert_eq!(report.groups.len(), 2);
        assert!(report.groups.iter().all(|g| g.ipc_mean > 0.0));
        let json = report.to_json();
        assert!(json.contains("\"modes_bit_identical\": true"));
        assert!(json.contains("\"forked_cells_from_cache\": 1"));
        assert!(report.to_text().contains("cells/minute"));

        // A third run finds every cell cached.
        let report = match run_sweep(&opts, &scale).expect("cached sweep") {
            SweepOutcome::Complete(report) => report,
            SweepOutcome::Stopped { .. } => panic!("cached sweep must complete"),
        };
        assert_eq!(report.forked.from_cache, 4);
        let _ = std::fs::remove_dir_all(&opts.resume_dir);
    }

    #[test]
    fn stale_cache_entries_are_recomputed_not_trusted() {
        let opts = tiny_opts("cloudmc_sweep_test_stale");
        let _ = std::fs::remove_dir_all(&opts.resume_dir);
        std::fs::create_dir_all(&opts.resume_dir).unwrap();
        let scale = tiny_scale();
        // Plant a record with the right name but the wrong seed: a leftover
        // from a sweep under a different base seed must be a cache miss.
        let cell = &grid(&opts, &scale)[0];
        let mut wrong = scale;
        wrong.seed = 999;
        let stale = Cell {
            seed: replicate_seed(wrong.seed, 0),
            ..cell.clone()
        };
        let record = run_cell_cold(&stale, &wrong).expect("stale cell");
        std::fs::write(
            opts.resume_dir.join(cell.cache_file()),
            CellRecord::to_json(&record),
        )
        .unwrap();
        assert!(
            load_cached(&opts.resume_dir, cell).is_none(),
            "a stale record must not satisfy the cache"
        );
        let _ = std::fs::remove_dir_all(&opts.resume_dir);
    }
}
