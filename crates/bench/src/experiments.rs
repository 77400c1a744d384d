//! The experiment harness: one study per section of the paper's evaluation.
//!
//! Every study builds a labelled list of [`SystemConfig`]s, runs it through
//! the executor ([`run_sweep`]: in parallel, with `--replicates` seeds per
//! configuration), and returns a [`Matrix`] the figures of
//! [`FIGURES`](crate::FIGURES) read. Absolute numbers differ from the paper
//! (the substrate is a reduced-scale simulator, not the authors' Simics/GEMS
//! testbed), but the *shape* — which policy wins, by roughly what factor —
//! is the reproduction target, and each figure's claims check it.

use cloudmc_memctrl::{
    AddressMapping, AtlasConfig, McConfig, PagePolicyKind, ParBsConfig, RlConfig, SchedulerKind,
};
use cloudmc_sim::{mean, SimStats, SystemConfig};
use cloudmc_workloads::{Category, Workload};

use crate::report::{Table, TextTable};
use crate::sweep::{mean_ci95, run_sweep, SweepError, SweepOptions};

/// How long each simulation point runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// CPU cycles of warm-up.
    pub warmup_cpu_cycles: u64,
    /// CPU cycles of measurement.
    pub measure_cpu_cycles: u64,
    /// Workload generation seed.
    pub seed: u64,
    /// Worker threads across runs: every experiment hands whole
    /// configurations (cells) to this many threads. It is the only thread
    /// knob there is — a single simulation always runs on one thread.
    pub threads: usize,
}

impl Scale {
    /// Very small runs for smoke tests.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            warmup_cpu_cycles: 20_000,
            measure_cpu_cycles: 120_000,
            seed: 1,
            threads: default_threads(),
        }
    }

    /// Default scale used by the `repro` binary (a few minutes for the full
    /// set of figures on a laptop).
    #[must_use]
    pub fn standard() -> Self {
        Self {
            warmup_cpu_cycles: 150_000,
            measure_cpu_cycles: 750_000,
            seed: 1,
            threads: default_threads(),
        }
    }

    /// Longer runs for tighter confidence (tens of minutes).
    #[must_use]
    pub fn full() -> Self {
        Self {
            warmup_cpu_cycles: 400_000,
            measure_cpu_cycles: 3_000_000,
            seed: 1,
            threads: default_threads(),
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::standard()
    }
}

/// Worker threads when `--threads` is not given: the host's available
/// parallelism, clamped to 1..=32.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .clamp(1, 32)
}

/// Baseline system configuration (Table 2) for one workload at one scale.
#[must_use]
pub fn baseline_config(workload: Workload, scale: &Scale) -> SystemConfig {
    let mut cfg = SystemConfig::baseline(workload);
    cfg.warmup_cpu_cycles = scale.warmup_cpu_cycles;
    cfg.measure_cpu_cycles = scale.measure_cpu_cycles;
    cfg.seed = scale.seed;
    cfg
}

/// Results of a (workload x configuration) sweep.
#[derive(Debug, Clone)]
pub struct Matrix {
    /// Workloads, one per row.
    pub workloads: Vec<Workload>,
    /// Configuration labels, one per column.
    pub columns: Vec<String>,
    /// `results[workload][column]`: one result per replicate, replicate 0
    /// (the configured seed) first.
    pub results: Vec<Vec<Vec<SimStats>>>,
}

impl Matrix {
    /// Builds a figure-style table of `metric`, optionally normalizing each
    /// row to the value of `normalize_to` column, and appending the
    /// per-category average rows the paper shows (`Avg_SCO`, `Avg_TRS`,
    /// `Avg_DSP`). With several replicates each cell is the mean with its
    /// 95% confidence half-width over the replicates, normalized within a
    /// replicate: every column of replicate `r` ran under the same seed, so
    /// the ratio is paired.
    #[must_use]
    pub fn metric_table(
        &self,
        title: &str,
        note: &str,
        metric: impl Fn(&SimStats) -> f64,
        normalize_to: Option<usize>,
    ) -> Table {
        let replicates = self
            .results
            .first()
            .and_then(|row| row.first())
            .map_or(1, Vec::len);
        let per_replicate: Vec<Vec<(String, Vec<f64>)>> = (0..replicates)
            .map(|r| self.replicate_rows(r, &metric, normalize_to))
            .collect();
        let mut table = Table::new(title, self.columns.clone());
        table.note = match replicates {
            1 => note.to_owned(),
            n => format!("{note} Mean +/- 95% CI over {n} replicates."),
        };
        for (i, (label, _)) in per_replicate[0].iter().enumerate() {
            let (means, ci95): (Vec<f64>, Vec<f64>) = (0..self.columns.len())
                .map(|c| {
                    mean_ci95(
                        &per_replicate
                            .iter()
                            .map(|rows| rows[i].1[c])
                            .collect::<Vec<_>>(),
                    )
                })
                .unzip();
            if replicates > 1 {
                table.push_row_with_ci(label.clone(), means, ci95);
            } else {
                table.push_row(label.clone(), means);
            }
        }
        table
    }

    /// The table rows of replicate `r` alone: one per workload, then the
    /// category averages.
    fn replicate_rows(
        &self,
        r: usize,
        metric: impl Fn(&SimStats) -> f64,
        normalize_to: Option<usize>,
    ) -> Vec<(String, Vec<f64>)> {
        let mut rows = Vec::new();
        let mut per_category: Vec<(Category, Vec<Vec<f64>>)> = vec![
            (Category::ScaleOut, Vec::new()),
            (Category::Transactional, Vec::new()),
            (Category::DecisionSupport, Vec::new()),
        ];
        for (row, workload) in self.workloads.iter().enumerate() {
            let raw: Vec<f64> = self.results[row].iter().map(|c| metric(&c[r])).collect();
            let values: Vec<f64> = match normalize_to {
                Some(base) => {
                    let b = raw[base];
                    raw.iter()
                        .map(|v| if b == 0.0 { 0.0 } else { v / b })
                        .collect()
                }
                None => raw,
            };
            for (cat, cat_rows) in &mut per_category {
                if workload.category() == *cat {
                    cat_rows.push(values.clone());
                }
            }
            rows.push((workload.acronym().to_owned(), values));
        }
        for (cat, cat_rows) in &per_category {
            if cat_rows.is_empty() {
                continue;
            }
            let avg: Vec<f64> = (0..self.columns.len())
                .map(|c| cat_rows.iter().map(|r| r[c]).sum::<f64>() / cat_rows.len() as f64)
                .collect();
            rows.push((format!("Avg_{}", cat.acronym()), avg));
        }
        rows
    }
}

/// Runs `workloads` under each of `columns`, where `tweak(c, mc)` customizes
/// the baseline memory-controller configuration for column `c`.
fn run_matrix(
    study: &str,
    workloads: &[Workload],
    columns: Vec<String>,
    tweak: impl Fn(usize, &mut McConfig),
    scale: &Scale,
    sweep: &SweepOptions,
) -> Result<Matrix, SweepError> {
    let mut cells = Vec::with_capacity(workloads.len() * columns.len());
    for &w in workloads {
        for (c, label) in columns.iter().enumerate() {
            let mut cfg = baseline_config(w, scale);
            tweak(c, &mut cfg.mc);
            cells.push((format!("{w}/{label}"), cfg));
        }
    }
    let mut flat = run_sweep(study, &cells, scale.threads, sweep)?.into_iter();
    let results = workloads
        .iter()
        .map(|_| flat.by_ref().take(columns.len()).collect())
        .collect();
    Ok(Matrix {
        workloads: workloads.to_vec(),
        columns,
        results,
    })
}

/// The five schedulers of Figures 1-7 with Table 3 parameters.
#[must_use]
pub fn paper_schedulers() -> Vec<(String, SchedulerKind)> {
    vec![
        ("FR-FCFS".to_owned(), SchedulerKind::FrFcfs),
        ("FCFS_Banks".to_owned(), SchedulerKind::FcfsBanks),
        (
            "PAR-BS".to_owned(),
            SchedulerKind::ParBs(ParBsConfig::default()),
        ),
        (
            "ATLAS".to_owned(),
            SchedulerKind::Atlas(AtlasConfig::default()),
        ),
        ("RL".to_owned(), SchedulerKind::Rl(RlConfig::default())),
    ]
}

/// Runs the memory-scheduling study (Section 4.1): all 12 workloads under
/// the 5 schedulers. Feeds Figures 1-7.
///
/// # Errors
///
/// The executor's [`SweepError`]: a configuration that failed, or a
/// `--max-cells` stop.
pub fn scheduler_study(scale: &Scale, sweep: &SweepOptions) -> Result<Matrix, SweepError> {
    let kinds = paper_schedulers();
    let columns = kinds.iter().map(|(label, _)| label.clone()).collect();
    let tweak = |c: usize, mc: &mut McConfig| mc.scheduler = kinds[c].1;
    run_matrix("sched", &Workload::all(), columns, tweak, scale, sweep)
}

/// The four page policies of Figures 9-11, by column label.
pub(crate) const PAGE_POLICIES: [(&str, PagePolicyKind); 4] = [
    ("Open Adaptive", PagePolicyKind::OpenAdaptive),
    ("Close Adaptive", PagePolicyKind::CloseAdaptive),
    ("RBPP", PagePolicyKind::Rbpp),
    ("ABPP", PagePolicyKind::Abpp),
];

/// The channel study's columns: 1 channel, then 2 and 4 under their best
/// mapping.
pub(crate) const CHANNEL_COLUMNS: [&str; 3] = ["1_channel", "2_channel", "4_channel"];

/// Runs the page-management study (Section 4.2): all 12 workloads under the
/// four policies of Figures 9-11.
///
/// # Errors
///
/// As [`scheduler_study`].
pub fn page_policy_study(scale: &Scale, sweep: &SweepOptions) -> Result<Matrix, SweepError> {
    let columns = PAGE_POLICIES.map(|(label, _)| label.to_owned()).to_vec();
    let tweak = |c: usize, mc: &mut McConfig| mc.page_policy = PAGE_POLICIES[c].1;
    run_matrix("pages", &Workload::all(), columns, tweak, scale, sweep)
}

/// Results of the multi-channel study (Section 4.3).
#[derive(Debug, Clone)]
pub struct ChannelStudy {
    /// Per workload: 1 channel, then 2 and 4 channels under the mapping with
    /// the best mean user IPC — the view the figure tables read.
    pub matrix: Matrix,
    /// Per workload, in `matrix` order: that best 2- and 4-channel mapping.
    pub best_mappings: Vec<[AddressMapping; 2]>,
}

impl ChannelStudy {
    /// Table 4: the best-performing mapping scheme per workload.
    #[must_use]
    pub fn table4(&self) -> TextTable {
        let mut table = TextTable::new(
            "Table 4: Best performing multi-channel mapping scheme per workload",
            vec!["2-channel".to_owned(), "4-channel".to_owned()],
        );
        for (w, mappings) in self.matrix.workloads.iter().zip(&self.best_mappings) {
            table.push_row(w.acronym(), mappings.map(|m| m.to_string()).to_vec());
        }
        table
    }
}

/// The mapping whose replicates have the best mean user IPC (the first of
/// equals), with those replicates.
fn best_mapping(runs: &[Vec<SimStats>]) -> (AddressMapping, Vec<SimStats>) {
    let ipc = |i: usize| mean(runs[i].iter().map(SimStats::user_ipc));
    let best = (1..runs.len()).fold(0, |best, i| if ipc(i) > ipc(best) { i } else { best });
    (AddressMapping::all()[best], runs[best].clone())
}

/// Runs the multi-channel study: every workload at 1, 2 and 4 channels, with
/// all four address mappings evaluated at 2 and 4 channels and the best one
/// (by user IPC) reported, as the paper does.
///
/// # Errors
///
/// As [`scheduler_study`].
pub fn channel_study(scale: &Scale, sweep: &SweepOptions) -> Result<ChannelStudy, SweepError> {
    let workloads = Workload::all();
    let mappings = AddressMapping::all();
    // Per workload: [1ch] + [2ch x 4 mappings] + [4ch x 4 mappings].
    let mut cells = Vec::new();
    for &w in &workloads {
        cells.push((format!("{w}/1ch"), baseline_config(w, scale)));
        for channels in [2usize, 4] {
            for mapping in mappings {
                let mut cfg = baseline_config(w, scale);
                cfg.mc.dram.channels = channels;
                cfg.mc.mapping = mapping;
                cells.push((format!("{w}/{channels}ch/{mapping}"), cfg));
            }
        }
    }
    let results = run_sweep("channels", &cells, scale.threads, sweep)?;
    let mut rows = Vec::new();
    let mut best_mappings = Vec::new();
    for runs in results.chunks_exact(1 + 2 * mappings.len()) {
        let (two, four) = runs[1..].split_at(mappings.len());
        let ((two_mapping, two), (four_mapping, four)) = (best_mapping(two), best_mapping(four));
        rows.push(vec![runs[0].clone(), two, four]);
        best_mappings.push([two_mapping, four_mapping]);
    }
    Ok(ChannelStudy {
        matrix: Matrix {
            workloads: workloads.to_vec(),
            columns: CHANNEL_COLUMNS.map(str::to_owned).to_vec(),
            results: rows,
        },
        best_mappings,
    })
}

/// Runs the baseline configuration for every workload (used for Figure 8 and
/// the characterization table).
///
/// # Errors
///
/// As [`scheduler_study`].
pub fn baseline_study(scale: &Scale, sweep: &SweepOptions) -> Result<Matrix, SweepError> {
    let columns = vec!["baseline".to_owned()];
    run_matrix("fig8", &Workload::all(), columns, |_, _| {}, scale, sweep)
}

/// Tables 2 and 3: the baseline system and scheduler configurations, printed
/// from the actual structures used by the simulator.
#[must_use]
pub fn config_report() -> String {
    let mc = McConfig::baseline();
    let t = mc.dram.timing;
    let mut out = String::new();
    out.push_str("# Table 2: Baseline system configuration\n");
    out.push_str("CMP organization      16-core scale-out pod (in-order cores @ 2 GHz)\n");
    out.push_str("L1 I/D caches         32 KB each, 64 B blocks, 2-way\n");
    out.push_str("Shared L2             4 MB, 16-way, 64 B blocks, 4 banks\n");
    out.push_str(&format!(
        "Memory controller     {} scheduling, {} page policy, {}-channel, {} mapping\n",
        mc.scheduler.label(),
        mc.page_policy,
        mc.dram.channels,
        mc.mapping
    ));
    out.push_str(&format!(
        "Off-chip DRAM         DDR3-1600, {} ranks, {} banks/rank, {} KB row buffer\n",
        mc.dram.ranks_per_channel,
        mc.dram.banks_per_rank,
        mc.dram.row_bytes / 1024
    ));
    out.push_str(&format!(
        "tCAS-tRCD-tRP-tRAS    {}-{}-{}-{}\n",
        t.cl, t.t_rcd, t.t_rp, t.t_ras
    ));
    out.push_str(&format!(
        "tRC-tWR-tWTR-tRTP     {}-{}-{}-{}\n",
        t.t_rc, t.t_wr, t.t_wtr, t.t_rtp
    ));
    out.push_str(&format!("tRRD-tFAW             {}-{}\n", t.t_rrd, t.t_faw));
    out.push('\n');
    out.push_str("# Table 3: Scheduling algorithm configurations\n");
    let parbs = ParBsConfig::default();
    out.push_str(&format!("PAR-BS   batching cap = {}\n", parbs.batching_cap));
    let atlas = AtlasConfig::default();
    out.push_str(&format!(
        "ATLAS    quantum = {} cycles, alpha = {}, starvation threshold = {} cycles\n",
        atlas.quantum, atlas.alpha, atlas.starvation_threshold
    ));
    let rl = RlConfig::default();
    out.push_str(&format!(
        "RL       {} Q-tables x {} entries, alpha = {}, gamma = {}, epsilon = {}, starvation threshold = {} cycles\n",
        rl.num_tables, rl.table_size, rl.alpha, rl.gamma, rl.epsilon, rl.starvation_threshold
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale {
            warmup_cpu_cycles: 2_000,
            measure_cpu_cycles: 15_000,
            seed: 1,
            threads: default_threads(),
        }
    }

    #[test]
    fn scheduler_study_produces_full_matrix_on_subset() {
        // Use a reduced workload list through run_matrix directly to keep the
        // test fast; the full sweep is exercised by the repro binary.
        let columns = vec!["FR-FCFS".to_owned(), "FCFS_Banks".to_owned()];
        let kinds = [SchedulerKind::FrFcfs, SchedulerKind::FcfsBanks];
        let tweak = |c: usize, mc: &mut McConfig| mc.scheduler = kinds[c];
        let workloads = [Workload::WebSearch, Workload::TpchQ6];
        let single = SweepOptions::default();
        let run = |sweep| {
            run_matrix(
                "test",
                &workloads,
                columns.clone(),
                tweak,
                &tiny_scale(),
                sweep,
            )
        };
        let matrix = run(&single).unwrap();
        assert_eq!(matrix.workloads.len(), 2);
        assert_eq!(matrix.columns, vec!["FR-FCFS", "FCFS_Banks"]);
        assert!(matrix.results[0][0][0].user_ipc() > 0.0);
        let table = matrix.metric_table("t", "", SimStats::user_ipc, Some(0));
        // Normalized baseline column is exactly 1.0 for workload rows.
        assert!((table.value("WS", "FR-FCFS").unwrap() - 1.0).abs() < 1e-9);
        // Category averages exist for the categories present.
        assert!(table.value("Avg_SCO", "FR-FCFS").is_some());
        assert!(table.value("Avg_DSP", "FCFS_Banks").is_some());
        assert!(table.value("Avg_TRS", "FR-FCFS").is_none());
        assert!(table.ci95.is_empty(), "one replicate carries no interval");

        // Three replicates: replicate 0 is the single-seed run, and each
        // replicate is normalized to its own FR-FCFS run, so that column is
        // exactly 1 with no spread while the other carries one.
        let three = SweepOptions {
            replicates: 3,
            ..SweepOptions::default()
        };
        let replicated = run(&three).unwrap();
        assert_eq!(replicated.results[1][1][0], matrix.results[1][1][0]);
        let table = replicated.metric_table("t", "", SimStats::user_ipc, Some(0));
        assert_eq!(table.ci95.len(), table.rows.len());
        assert_eq!(table.value("WS", "FR-FCFS"), Some(1.0));
        assert_eq!(table.ci95[0][0], 0.0);
        assert!(table.ci95[0][1] > 0.0);
        assert!(table.to_text().contains(" +/- "));
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn paper_schedulers_cover_table3() {
        let s = paper_schedulers();
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].1.label(), "FR-FCFS");
        assert!(s.iter().any(|(_, k)| matches!(k, SchedulerKind::Rl(_))));
    }

    #[test]
    fn config_report_mentions_table2_timings() {
        let report = config_report();
        assert!(report.contains("11-11-11-28"));
        assert!(report.contains("39-12-6-6"));
        assert!(report.contains("5-24"));
        assert!(report.contains("batching cap = 5"));
        assert!(report.contains("0.875"));
    }

    #[test]
    fn figure_builders_render_from_small_matrices() {
        let matrix = run_matrix(
            "test",
            &[Workload::MediaStreaming],
            vec!["baseline".to_owned()],
            |_, _| {},
            &tiny_scale(),
            &SweepOptions::default(),
        )
        .unwrap();
        let fig8 = crate::figure("fig8").unwrap().table(&matrix);
        let value = fig8.value("MS", "baseline").unwrap();
        assert!((0.0..=100.0).contains(&value));
        assert!(fig8.to_text().contains("Figure 8"));
        assert!(!fig8.to_csv().is_empty());
    }
}
