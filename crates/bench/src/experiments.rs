//! The experiment harness: one function per figure/table of the paper.
//!
//! Every experiment builds a labelled list of [`SystemConfig`]s, runs it
//! through the executor ([`run_sweep`]: in parallel, with `--replicates`
//! seeds per configuration), and renders the same rows and series the paper
//! reports. Absolute numbers differ from the paper (the substrate is a
//! reduced-scale simulator, not the authors' Simics/GEMS testbed), but the
//! *shape* — which policy wins, by roughly what factor — is the
//! reproduction target; the README's "Reproducing the paper" section
//! records both.

use cloudmc_memctrl::{
    AddressMapping, AtlasConfig, McConfig, PagePolicyKind, ParBsConfig, RlConfig, SchedulerKind,
};
use cloudmc_sim::{mean, SimStats, SystemConfig};
use cloudmc_workloads::{Category, Workload};

use crate::report::{Table, TextTable};
use crate::sweep::{mean_ci95, run_sweep, SweepError, SweepOptions};

/// A named tweak applied to the baseline controller configuration of one
/// experiment variant.
type McTweak = Box<dyn Fn(&mut McConfig) + Sync>;

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

/// Runs `workloads` x `variants`, where each variant customizes the baseline
/// memory-controller configuration.
fn run_matrix(
    study: &str,
    workloads: &[Workload],
    variants: &[(String, McTweak)],
    scale: &Scale,
    sweep: &SweepOptions,
) -> Result<Matrix, SweepError> {
    let mut cells = Vec::with_capacity(workloads.len() * variants.len());
    for &w in workloads {
        for (label, customize) in variants {
            let mut cfg = baseline_config(w, scale);
            customize(&mut cfg.mc);
            cells.push((format!("{w}/{label}"), cfg));
        }
    }
    let mut flat = run_sweep(study, &cells, scale.threads, sweep)?.into_iter();
    let results = workloads
        .iter()
        .map(|_| flat.by_ref().take(variants.len()).collect())
        .collect();
    Ok(Matrix {
        workloads: workloads.to_vec(),
        columns: variants.iter().map(|(l, _)| l.clone()).collect(),
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
    let variants: Vec<(String, McTweak)> = paper_schedulers()
        .into_iter()
        .map(|(label, kind)| {
            let f: McTweak = Box::new(move |mc: &mut McConfig| mc.scheduler = kind);
            (label, f)
        })
        .collect();
    run_matrix("sched", &Workload::all(), &variants, scale, sweep)
}

/// Runs the page-management study (Section 4.2): all 12 workloads under the
/// four policies of Figures 9-11.
///
/// # Errors
///
/// As [`scheduler_study`].
pub fn page_policy_study(scale: &Scale, sweep: &SweepOptions) -> Result<Matrix, SweepError> {
    let policies = [
        ("Open Adaptive", PagePolicyKind::OpenAdaptive),
        ("Close Adaptive", PagePolicyKind::CloseAdaptive),
        ("RBPP", PagePolicyKind::Rbpp),
        ("ABPP", PagePolicyKind::Abpp),
    ];
    let variants: Vec<(String, McTweak)> = policies
        .into_iter()
        .map(|(label, kind)| {
            let f: McTweak = Box::new(move |mc: &mut McConfig| mc.page_policy = kind);
            (label.to_owned(), f)
        })
        .collect();
    run_matrix("pages", &Workload::all(), &variants, scale, sweep)
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
    let columns = ["1_channel", "2_channel", "4_channel"].map(str::to_owned);
    Ok(ChannelStudy {
        matrix: Matrix {
            workloads: workloads.to_vec(),
            columns: columns.to_vec(),
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
    let variants: Vec<(String, McTweak)> =
        vec![("baseline".to_owned(), Box::new(|_: &mut McConfig| {}))];
    run_matrix("fig8", &Workload::all(), &variants, scale, sweep)
}

// ---------------------------------------------------------------------------
// Figure/table builders
// ---------------------------------------------------------------------------

/// Figure 1: user IPC normalized to FR-FCFS.
#[must_use]
pub fn figure1(study: &Matrix) -> Table {
    study.metric_table(
        "Figure 1: User IPC normalized to FR-FCFS",
        "Higher is better; paper shape: FR-FCFS >= all others, FCFS_Banks within a few % except Web Frontend, ATLAS worst on scale-out.",
        SimStats::user_ipc,
        Some(0),
    )
}

/// Figure 2: row-buffer hit rate (%).
#[must_use]
pub fn figure2(study: &Matrix) -> Table {
    study.metric_table(
        "Figure 2: Row-buffer hit rate (%)",
        "Paper shape: ~30-40% averages under FR-FCFS/open-adaptive; Web Frontend and Media Streaming highest.",
        |s| s.row_buffer_hit_rate * 100.0,
        None,
    )
}

/// Figure 3: average memory access latency normalized to FR-FCFS.
#[must_use]
pub fn figure3(study: &Matrix) -> Table {
    study.metric_table(
        "Figure 3: Average memory access latency normalized to FR-FCFS",
        "Lower is better; paper shape: ATLAS suffers the largest increases (up to several x on MapReduce).",
        |s| s.avg_read_latency_dram,
        Some(0),
    )
}

/// Figure 4: L2 misses per kilo user instructions.
#[must_use]
pub fn figure4(study: &Matrix) -> Table {
    study.metric_table(
        "Figure 4: L2 MPKI (misses per kilo user instructions)",
        "Paper shape: SCOW avg ~5, TRSW ~8, DSPW ~18.",
        |s| s.l2_mpki,
        None,
    )
}

/// Figure 5: average read queue length.
#[must_use]
pub fn figure5(study: &Matrix) -> Table {
    study.metric_table(
        "Figure 5: Average read queue length",
        "Paper shape: below 10 entries everywhere; DSPW higher than SCOW.",
        |s| s.avg_read_queue_len,
        None,
    )
}

/// Figure 6: average write queue length.
#[must_use]
pub fn figure6(study: &Matrix) -> Table {
    study.metric_table(
        "Figure 6: Average write queue length",
        "Paper shape: below 50 entries; RL noticeably lower than the others.",
        |s| s.avg_write_queue_len,
        None,
    )
}

/// Figure 7: memory bandwidth utilization (%).
#[must_use]
pub fn figure7(study: &Matrix) -> Table {
    study.metric_table(
        "Figure 7: Memory bandwidth utilization (%)",
        "Paper shape: SCOW 14-50% (avg ~34%), DSPW avg ~54%.",
        |s| s.bandwidth_utilization * 100.0,
        None,
    )
}

/// Figure 8: percentage of row activations with exactly one access, under the
/// baseline open-adaptive policy.
#[must_use]
pub fn figure8(baseline: &Matrix) -> Table {
    baseline.metric_table(
        "Figure 8: Single-access row-buffer activations under open-adaptive (%)",
        "Paper shape: 77%-90% across workloads (Media Streaming lowest at ~76%).",
        |s| s.single_access_activation_fraction * 100.0,
        None,
    )
}

/// Figure 9: row-buffer hit rate per page policy, normalized to open-adaptive.
#[must_use]
pub fn figure9(study: &Matrix) -> Table {
    study.metric_table(
        "Figure 9: Row-buffer hit rate normalized to open-adaptive",
        "Paper shape: close-adaptive loses most hits; RBPP preserves ~70-86%, ABPP less.",
        |s| s.row_buffer_hit_rate,
        Some(0),
    )
}

/// Figure 10: average memory access latency per page policy, normalized to
/// open-adaptive.
#[must_use]
pub fn figure10(study: &Matrix) -> Table {
    study.metric_table(
        "Figure 10: Average memory access latency normalized to open-adaptive",
        "Paper shape: close-adaptive reduces latency for DSPW (~-13%) but raises it for Web Frontend/Media Streaming (~+15%).",
        |s| s.avg_read_latency_dram,
        Some(0),
    )
}

/// Figure 11: user IPC per page policy, normalized to open-adaptive.
#[must_use]
pub fn figure11(study: &Matrix) -> Table {
    study.metric_table(
        "Figure 11: User IPC normalized to open-adaptive",
        "Paper shape: close-adaptive -2.5% on SCOW / +4% on DSPW; RBPP/ABPP roughly at or slightly below open-adaptive on SCOW, RBPP +3% on DSPW.",
        SimStats::user_ipc,
        Some(0),
    )
}

/// Figure 12: user IPC as the number of channels increases (best mapping per
/// workload), normalized to one channel.
#[must_use]
pub fn figure12(study: &ChannelStudy) -> Table {
    study.matrix.metric_table(
        "Figure 12: User IPC vs. memory channels (normalized to 1 channel)",
        "Paper shape: SCOW ~+1.7% at 4 channels, DSPW ~+19%; Web Frontend degrades.",
        SimStats::user_ipc,
        Some(0),
    )
}

/// Figure 13: row-buffer hit rate as the number of channels increases,
/// normalized to one channel.
#[must_use]
pub fn figure13(study: &ChannelStudy) -> Table {
    study.matrix.metric_table(
        "Figure 13: Row-buffer hit rate vs. memory channels (normalized to 1 channel)",
        "Paper shape: increases ~1.3x/1.6x (SCOW, TRSW) and ~1.7x/2.3x (DSPW) at 2/4 channels.",
        |s| s.row_buffer_hit_rate,
        Some(0),
    )
}

/// Figure 14: average memory access latency as the number of channels
/// increases, normalized to one channel.
#[must_use]
pub fn figure14(study: &ChannelStudy) -> Table {
    study.matrix.metric_table(
        "Figure 14: Memory access latency vs. memory channels (normalized to 1 channel)",
        "Paper shape: drops to ~0.8/0.7 for SCOW and ~0.64/0.47 for DSPW at 2/4 channels.",
        |s| s.avg_read_latency_dram,
        Some(0),
    )
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
        let variants: Vec<(String, McTweak)> = vec![
            (
                "FR-FCFS".to_owned(),
                Box::new(|mc: &mut McConfig| {
                    mc.scheduler = SchedulerKind::FrFcfs;
                }),
            ),
            (
                "FCFS_Banks".to_owned(),
                Box::new(|mc: &mut McConfig| {
                    mc.scheduler = SchedulerKind::FcfsBanks;
                }),
            ),
        ];
        let workloads = [Workload::WebSearch, Workload::TpchQ6];
        let single = SweepOptions::default();
        let matrix = run_matrix("test", &workloads, &variants, &tiny_scale(), &single).unwrap();
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
            ..single
        };
        let replicated = run_matrix("test", &workloads, &variants, &tiny_scale(), &three).unwrap();
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
        let variants: Vec<(String, McTweak)> =
            vec![("baseline".to_owned(), Box::new(|_: &mut McConfig| {}))];
        let matrix = run_matrix(
            "test",
            &[Workload::MediaStreaming],
            &variants,
            &tiny_scale(),
            &SweepOptions::default(),
        )
        .unwrap();
        let fig8 = figure8(&matrix);
        let value = fig8.value("MS", "baseline").unwrap();
        assert!((0.0..=100.0).contains(&value));
        assert!(fig8.to_text().contains("Figure 8"));
        assert!(!fig8.to_csv().is_empty());
    }
}
