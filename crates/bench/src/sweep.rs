//! The one experiment executor: every study hands it a labelled list of
//! configurations and gets back, in the same order, each configuration's
//! measured statistics — one [`SimStats`] per replicate.
//!
//! * **One replicate** is a cold [`Simulator::try_run`]: warm up, measure.
//! * **R replicates** warm each configuration *once*, snapshot it, continue
//!   the warm system as replicate 0 — bit-identical to the one-replicate
//!   run — and fork replicates 1..R from the image, each re-seeded
//!   ([`System::reseed`](cloudmc_sim::System::reseed)) with
//!   [`replicate_seed`]: SimFlex-style checkpoint sampling, where a
//!   replicate costs a measurement window, not a warm-up as well.
//! * **Workers**: up to `threads` scoped workers claim configurations from
//!   an atomic cursor; each runs its configuration's warm-up and every
//!   measurement. Results keep input order, so the thread count never
//!   changes an answer.
//! * **Resume**: with a resume directory, each finished cell (one replicate
//!   of one configuration) is written there at once as
//!   [`SimStats::to_json`], in a file named by the configuration's
//!   [`config_fingerprint`] (every field, windows and seed included), the
//!   replicate and its seed. A re-run loads those cells instead of
//!   simulating them; a file that does not parse is a miss, never data.
//!   `max_cells` stops after that many fresh cells, chosen in input order
//!   before anything runs, which is how CI exercises kill and resume.
//!   Without a resume directory nothing is read or written.
//! * **Progress** goes to stderr: a line per finished configuration and a
//!   summary per study. Stdout is left to the tables.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use cloudmc_sim::{config_fingerprint, SimStats, Simulator, SystemConfig};

/// How the executor runs a study: the `repro` flags `--replicates`,
/// `--resume-dir` and `--max-cells` (`--threads` is
/// [`Scale::threads`](crate::Scale::threads)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOptions {
    /// Measured replicates per configuration (at least 1).
    pub replicates: usize,
    /// Directory holding one JSON file per finished cell; `None` reads and
    /// writes nothing.
    pub resume_dir: Option<PathBuf>,
    /// Stop after this many freshly simulated cells.
    pub max_cells: Option<usize>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            replicates: 1,
            resume_dir: None,
            max_cells: None,
        }
    }
}

/// Why a study returned no results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The first configuration, in input order, that failed to run or whose
    /// finished cell could not be written to the resume directory.
    Failed {
        /// The configuration's label.
        label: String,
        /// What went wrong.
        reason: String,
    },
    /// `max_cells` fresh cells were simulated and cells are still missing;
    /// the same invocation resumes from the resume directory.
    Stopped {
        /// Cells simulated by this invocation.
        new_cells: usize,
        /// Cells loaded from the resume directory.
        cached_cells: usize,
        /// Cells still missing.
        remaining: usize,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Failed { label, reason } => write!(f, "{label}: {reason}"),
            Self::Stopped {
                new_cells,
                cached_cells,
                remaining,
            } => write!(
                f,
                "stopped after {new_cells} new cells ({cached_cells} cached, {remaining} \
                 remaining): rerun the same command to resume"
            ),
        }
    }
}

/// The measurement seed of replicate `replicate` of a configuration seeded
/// `seed`: replicate 0 keeps the configured seed (it is the warm run
/// continued), the others lie far apart in seed space.
#[must_use]
pub fn replicate_seed(seed: u64, replicate: usize) -> u64 {
    seed ^ (replicate as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Mean and 95% confidence half-width of `values` (Student's t on the
/// sample standard deviation). One value is its own mean, exactly, with a
/// half-width of 0.
#[must_use]
pub fn mean_ci95(values: &[f64]) -> (f64, f64) {
    /// Two-sided 95% critical values of Student's t for 1..=30 degrees of
    /// freedom; beyond that the normal 1.96.
    const T95: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match values {
        [] => (0.0, 0.0),
        [only] => (*only, 0.0),
        _ => {
            let n = values.len() as f64;
            let mean = values.iter().sum::<f64>() / n;
            let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
            let t = T95.get(values.len() - 2).copied().unwrap_or(1.96);
            (mean, t * (var / n).sqrt())
        }
    }
}

/// Runs every configuration of `cells` with `opts.replicates` replicates on
/// up to `threads` workers and returns each configuration's statistics,
/// replicate 0 first, in input order. `study` names the summary line.
///
/// # Errors
///
/// [`SweepError::Failed`] for the first configuration (in input order) that
/// failed, and [`SweepError::Stopped`] when `opts.max_cells` left cells
/// missing.
pub fn run_sweep(
    study: &str,
    cells: &[(String, SystemConfig)],
    threads: usize,
    opts: &SweepOptions,
) -> Result<Vec<Vec<SimStats>>, SweepError> {
    let started = Instant::now();
    let replicates = opts.replicates.max(1);
    let cache = opts.resume_dir.as_deref();
    let mut results: Vec<Vec<Option<SimStats>>> = cells
        .iter()
        .map(|(_, cfg)| {
            (0..replicates)
                .map(|r| cache.and_then(|dir| load_cached(&cache_path(dir, cfg, r))))
                .collect()
        })
        .collect();
    let cached_cells = results.iter().flatten().flatten().count();

    let done = AtomicUsize::new(0);
    let progress = |label: &str, what: &str| {
        let n = done.fetch_add(1, Ordering::Relaxed) + 1;
        eprintln!("[{n}/{}] {label} {what}", cells.len());
    };
    // The missing cells to simulate, in input order, up to the cap.
    let mut budget = opts.max_cells.unwrap_or(usize::MAX);
    let mut plan = Vec::new();
    for (config, row) in results.iter().enumerate() {
        let missing: Vec<usize> = (0..replicates).filter(|&r| row[r].is_none()).collect();
        if missing.is_empty() {
            progress(&cells[config].0, "cached");
            continue;
        }
        let todo: Vec<usize> = missing.iter().copied().take(budget).collect();
        budget -= todo.len();
        if !todo.is_empty() {
            let completes = todo.len() == missing.len();
            plan.push((config, todo, completes));
        }
    }

    let outcomes = on_workers(threads, plan.len(), |job| {
        let (config, todo, completes) = &plan[job];
        let (label, cfg) = &cells[*config];
        let start = Instant::now();
        let keep = |r: usize, stats: &SimStats| match cache {
            Some(dir) => store(&cache_path(dir, cfg, r), stats),
            None => Ok(()),
        };
        let fresh = simulate(cfg, todo, keep).map_err(|reason| SweepError::Failed {
            label: label.clone(),
            reason,
        })?;
        if *completes {
            progress(label, &format!("{:.2} s", start.elapsed().as_secs_f64()));
        }
        Ok(fresh)
    });
    let mut new_cells = 0;
    for ((config, _, _), outcome) in plan.iter().zip(outcomes) {
        // `None`: not claimed after an earlier job failed, and this loop
        // returns that failure first.
        let Some(outcome) = outcome else { continue };
        for (r, stats) in outcome? {
            results[*config][r] = Some(stats);
            new_cells += 1;
        }
    }

    let remaining = results.iter().flatten().filter(|s| s.is_none()).count();
    if remaining > 0 {
        return Err(SweepError::Stopped {
            new_cells,
            cached_cells,
            remaining,
        });
    }
    eprintln!(
        "# {study}: {} configurations x {replicates} replicates: {new_cells} cells simulated, \
         {cached_cells} cached, {:.1} s",
        cells.len(),
        started.elapsed().as_secs_f64()
    );
    Ok(results
        .into_iter()
        .map(|row| row.into_iter().flatten().collect())
        .collect())
}

/// [`run_sweep`] with one replicate per configuration, flattened: the
/// single-seed points the `BENCH_*.json` studies report.
///
/// # Errors
///
/// Exactly those of [`run_sweep`].
pub fn run_each(
    study: &str,
    cells: &[(String, SystemConfig)],
    threads: usize,
    opts: &SweepOptions,
) -> Result<Vec<SimStats>, SweepError> {
    let once = SweepOptions {
        replicates: 1,
        ..opts.clone()
    };
    Ok(run_sweep(study, cells, threads, &once)?
        .into_iter()
        .flatten()
        .collect())
}

/// Simulates replicates `todo` (ascending) of `cfg`: warm up once, snapshot
/// if any forked replicate is wanted, continue the warm system as replicate
/// 0, then fork the rest from the image. Each finished cell goes through
/// `keep` as soon as it completes.
fn simulate(
    cfg: &SystemConfig,
    todo: &[usize],
    keep: impl Fn(usize, &SimStats) -> Result<(), String>,
) -> Result<Vec<(usize, SimStats)>, String> {
    let mut done = Vec::with_capacity(todo.len());
    let mut sim = Simulator::new(cfg.clone())?;
    sim.run_warmup();
    let continue_warm = todo.first() == Some(&0);
    let forks = &todo[usize::from(continue_warm)..];
    let image = (!forks.is_empty())
        .then(|| sim.system().snapshot())
        .transpose()?;
    if continue_warm {
        let stats = sim.run_measurement()?;
        keep(0, &stats)?;
        done.push((0, stats));
    }
    if let Some(image) = image {
        for &r in forks {
            let mut fork = Simulator::from_snapshot(cfg.clone(), &image)?;
            fork.system_mut().reseed(replicate_seed(cfg.seed, r));
            let stats = fork.run_measurement()?;
            keep(r, &stats)?;
            done.push((r, stats));
        }
    }
    Ok(done)
}

/// The resume-cache file of replicate `replicate` of `cfg`.
fn cache_path(dir: &Path, cfg: &SystemConfig, replicate: usize) -> PathBuf {
    dir.join(format!(
        "{:016x}-r{replicate}-{:016x}.json",
        config_fingerprint(cfg),
        replicate_seed(cfg.seed, replicate)
    ))
}

/// A cached cell, if `path` holds one; a missing, truncated or garbled file
/// is a miss.
fn load_cached(path: &Path) -> Option<SimStats> {
    SimStats::from_json(&std::fs::read_to_string(path).ok()?)
}

/// Writes one finished cell to the resume cache.
fn store(path: &Path, stats: &SimStats) -> Result<(), String> {
    path.parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, stats.to_json()))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Runs `jobs` jobs on up to `threads` scoped workers, each claiming the
/// next index from an atomic cursor, and returns every job's result in job
/// order. Once a job fails no new job is claimed; every job claimed before
/// it — all lower indices — still runs, so the first failure in job order is
/// the same for any thread count, and `None` (never run) only follows it.
fn on_workers<T: Send, E: Send>(
    threads: usize,
    jobs: usize,
    run: impl Fn(usize) -> Result<T, E> + Sync,
) -> Vec<Option<Result<T, E>>> {
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<Result<T, E>>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, jobs.max(1)) {
            scope.spawn(|| {
                while !failed.load(Ordering::Relaxed) {
                    let job = next.fetch_add(1, Ordering::Relaxed);
                    let Some(slot) = slots.get(job) else { break };
                    let result = run(job);
                    failed.fetch_or(result.is_err(), Ordering::Relaxed);
                    *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudmc_memctrl::SchedulerKind;
    use cloudmc_workloads::Workload;

    fn tiny(workload: Workload, seed: u64) -> SystemConfig {
        let mut cfg = SystemConfig::baseline(workload);
        cfg.warmup_cpu_cycles = 4_000;
        cfg.measure_cpu_cycles = 8_000;
        cfg.seed = seed;
        cfg
    }

    fn cells() -> Vec<(String, SystemConfig)> {
        let mut fcfs = tiny(Workload::DataServing, 2);
        fcfs.mc.scheduler = SchedulerKind::FcfsBanks;
        vec![
            ("WS".to_owned(), tiny(Workload::WebSearch, 1)),
            ("DS/FCFS_Banks".to_owned(), fcfs),
            ("TPCH-Q6".to_owned(), tiny(Workload::TpchQ6, 3)),
        ]
    }

    fn opts(replicates: usize, dir: Option<&Path>, cap: Option<usize>) -> SweepOptions {
        let resume_dir = dir.map(Path::to_path_buf);
        SweepOptions {
            replicates,
            resume_dir,
            max_cells: cap,
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// One replicate is the cold run, and results keep the input order.
    #[test]
    fn results_come_back_in_input_order() {
        let cells = cells();
        let results = run_sweep("test", &cells, 3, &SweepOptions::default()).unwrap();
        let workloads: Vec<&str> = results.iter().map(|r| r[0].workload.as_str()).collect();
        assert_eq!(workloads, ["WS", "DS", "TPCH-Q6"]);
        assert_eq!(results[1][0].scheduler, "FCFS_Banks");
        let cold = Simulator::new(cells[2].1.clone())
            .unwrap()
            .try_run()
            .unwrap();
        assert_eq!(results[2], [cold]);
    }

    #[test]
    fn parallel_matches_serial() {
        let (cells, opts) = (cells(), opts(2, None, None));
        assert_eq!(
            run_sweep("test", &cells, 1, &opts),
            run_sweep("test", &cells, 2, &opts)
        );
    }

    /// Replicate 0 is the warm run continued, so it equals the one-replicate
    /// run bit for bit; the forked replicates differ from it and each other.
    #[test]
    fn replicate_zero_is_the_single_replicate_run() {
        let cells = cells();
        let one = run_sweep("test", &cells, 2, &opts(1, None, None)).unwrap();
        let three = run_sweep("test", &cells, 2, &opts(3, None, None)).unwrap();
        for (single, replicated) in one.iter().zip(&three) {
            assert_eq!(replicated.len(), 3);
            assert_eq!(replicated[0], single[0]);
            assert_ne!(replicated[1], replicated[0]);
            assert_ne!(replicated[2], replicated[1]);
        }
    }

    /// A `max_cells` stop persists what it simulated; the resumed run loads
    /// it and finishes with exactly the uninterrupted result, and a third run
    /// finds every cell cached.
    #[test]
    fn sweep_completes_resumes_and_gates_identity() {
        let (cells, dir) = (cells(), scratch("cloudmc_sweep_test_resume"));
        match run_sweep("test", &cells, 2, &opts(2, Some(&dir), Some(3))) {
            Err(SweepError::Stopped {
                new_cells: 3,
                cached_cells: 0,
                remaining: 3,
            }) => {}
            other => panic!("capped run must stop after 3 cells, got {other:?}"),
        }
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 3);
        let uninterrupted = run_sweep("test", &cells, 2, &opts(2, None, None)).unwrap();
        let resumed = run_sweep("test", &cells, 2, &opts(2, Some(&dir), None)).unwrap();
        assert_eq!(resumed, uninterrupted);
        let cached = run_sweep("test", &cells, 2, &opts(2, Some(&dir), Some(0))).unwrap();
        assert_eq!(cached, uninterrupted);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A finished cell reads back from the cache exactly, from a file named
    /// by the configuration fingerprint, the replicate and its seed.
    #[test]
    fn cell_records_round_trip_through_json() {
        let dir = scratch("cloudmc_sweep_test_record");
        let cfg = tiny(Workload::WebSearch, 1);
        let stats = Simulator::new(cfg.clone()).unwrap().try_run().unwrap();
        let path = cache_path(&dir, &cfg, 2);
        let key = format!(
            "{:016x}-r2-{:016x}.json",
            config_fingerprint(&cfg),
            replicate_seed(1, 2)
        );
        assert!(path.ends_with(key));
        store(&path, &stats).unwrap();
        assert_eq!(load_cached(&path), Some(stats));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A cache written for one configuration is a miss for any other —
    /// another measurement or warm-up window included — and a truncated or
    /// garbled file is a miss, never data: the executor simulates the cell.
    #[test]
    fn stale_cache_entries_are_recomputed_not_trusted() {
        let dir = scratch("cloudmc_sweep_test_stale");
        let cfg = tiny(Workload::WebSearch, 1);
        let truth = Simulator::new(cfg.clone()).unwrap().try_run().unwrap();
        let path = cache_path(&dir, &cfg, 0);
        store(&path, &truth).unwrap();
        for tweak in [
            |c: &mut SystemConfig| c.measure_cpu_cycles += 1,
            |c: &mut SystemConfig| c.warmup_cpu_cycles = 2_000,
            |c: &mut SystemConfig| c.seed = 9,
        ] {
            let mut other = cfg.clone();
            tweak(&mut other);
            assert_eq!(load_cached(&cache_path(&dir, &other, 0)), None);
        }
        let json = truth.to_json();
        for bad in [&json[..json.len() - 1], &json[..json.len() / 2], "garbage"] {
            std::fs::write(&path, bad).unwrap();
            assert_eq!(load_cached(&path), None, "accepted {bad:?}");
        }
        let cells = [("WS".to_owned(), cfg)];
        let rerun = run_sweep("test", &cells, 1, &opts(1, Some(&dir), None)).unwrap();
        assert_eq!(rerun, [[truth]]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_cell_is_an_error_naming_its_label() {
        let mut cells = cells();
        cells[1].1.measure_cpu_cycles = 0;
        match run_sweep("test", &cells, 2, &opts(2, None, None)) {
            Err(SweepError::Failed { label, reason }) => {
                assert_eq!(label, "DS/FCFS_Banks");
                assert!(!reason.is_empty());
            }
            other => panic!("expected the failed cell, got {other:?}"),
        }
    }

    #[test]
    fn replicate_seeds_are_distinct() {
        assert_eq!(replicate_seed(7, 0), 7, "replicate 0 keeps the seed");
        let mut seeds: Vec<u64> = (0..16).map(|r| replicate_seed(1, r)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 16);
    }

    #[test]
    fn mean_ci_matches_hand_computation() {
        let (mean, ci) = mean_ci95(&[1.0, 2.0, 3.0]);
        assert!((mean - 2.0).abs() < 1e-12);
        // sd = 1, se = 1/sqrt(3), t at 2 degrees of freedom = 4.303
        assert!((ci - 4.303 / 3.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(mean_ci95(&[5.0]), (5.0, 0.0));
        assert_eq!(mean_ci95(&[]), (0.0, 0.0));
    }
}
