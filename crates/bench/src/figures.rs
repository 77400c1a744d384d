//! The paper's figures and what the paper says about each, declared once.
//!
//! [`FIGURES`] holds one entry per figure: the `repro` word that prints it,
//! the study whose runs it reads, its title, metric and normalisation
//! column, and its [`Claim`]s — each sentence the paper says about it, as
//! this repository states the paper (the figure's shape note, or a finding
//! of the abstract in `PAPER.md`). A figure's note is rendered from its
//! claims, and `repro` prints one line per claim under the table:
//! `# [holds|marginal|fails] <sentence>: <observed>`. [`TABLE_CLAIMS`] hangs
//! the extension studies' claims off their tables by name.
//!
//! **Reading.** A claim reads cells by row and column label. A number the
//! sentence gives is its bound: `~x` is the region `x ± tolerance`, "below
//! 10" or "77%-90%" the region named. An ordering bounds the ratio of the
//! two cells by 1: strictly ("less", "lowest", "saves"; a tie is outside
//! by 0) unless the sentence allows equality (">="). A sentence about a
//! category (SCOW, TRSW, DSPW) reads its `Avg_` row, one naming no workload
//! all three averages, and "everywhere", "across workloads" or "all others"
//! every workload row.
//!
//! **Tolerance**, in the sentence's unit: 10% of the distance of the bound
//! (the lower edge of a range) from the baseline, at least 0.005. The
//! baseline is 1 for a ratio or a cell of a normalized figure and 0
//! otherwise, so an ordering tolerates 0.005.
//!
//! **Verdict.** Per cell, `e` is how far the value lies outside the region
//! (negative inside) and `ci` its 95% confidence half-width (0 with one
//! replicate). The claim *holds* if `e + ci <= 0` on every cell (`< 0` for a
//! strict ordering), *fails* if `e - ci > tolerance` on some cell, and is
//! *marginal* otherwise: outside by at most the tolerance, or decided inside
//! the interval. It prints the cell furthest outside. A claim that fails is
//! a finding about the model, reported, not tuned away.

use cloudmc_sim::SimStats;

use crate::experiments::Matrix;
use crate::report::Table;
use Bound::{About, Above, AtLeast, AtMost, Below, Between};

/// The studies figures read, by experiment word, in the order `repro` runs
/// them.
pub const STUDIES: [&str; 4] = ["sched", "fig8", "pages", "channels"];

/// One figure of the paper's evaluation.
#[derive(Debug)]
pub struct Figure {
    /// The `repro` experiment word that prints it alone.
    pub word: &'static str,
    /// The study whose runs it reads, one of [`STUDIES`].
    pub study: &'static str,
    /// Table title.
    pub title: &'static str,
    /// The plotted quantity of one run.
    pub metric: fn(&SimStats) -> f64,
    /// The column every row is divided by, for a normalized figure.
    pub normalize_to: Option<usize>,
    /// What the paper says about it.
    pub claims: &'static [Claim],
}

impl Figure {
    /// The figure's table over its study's `matrix`.
    #[must_use]
    pub fn table(&self, matrix: &Matrix) -> Table {
        matrix.metric_table(self.title, &self.note(), self.metric, self.normalize_to)
    }

    /// The note under the title: `Paper shape: <sentence>; <sentence>.`
    #[must_use]
    pub fn note(&self) -> String {
        let sentences: Vec<&str> = self.claims.iter().map(|c| c.sentence).collect();
        format!("Paper shape: {}.", sentences.join("; "))
    }
}

/// The figure `repro <word>` prints.
#[must_use]
pub fn figure(word: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.word == word)
}

/// One checkable sentence about a table (the module doc states the rule).
#[derive(Debug)]
pub struct Claim {
    /// The sentence, as its source words it.
    pub sentence: &'static str,
    /// The region the sentence puts each cell in.
    pub bound: Bound,
    /// The cells the sentence is about; `None` when the table lacks one.
    pub read: fn(&Table) -> Option<Vec<Observed>>,
    /// A further in-repo source of the sentence, or one that contradicts it;
    /// empty when the figure's note is the only one.
    pub source: &'static str,
}

/// The region a claim puts a cell's value in.
#[derive(Debug, Clone, Copy)]
pub enum Bound {
    /// At most `x`.
    AtMost(f64),
    /// Below `x`; `x` itself is outside, by 0.
    Below(f64),
    /// At least `x`.
    AtLeast(f64),
    /// Above `x`; `x` itself is outside, by 0.
    Above(f64),
    /// From `lo` to `hi`.
    Between(f64, f64),
    /// Within the tolerance of `x` (the sentence's `~x`).
    About(f64),
}

/// One value a claim reads: a cell, or the ratio of two.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    /// The value.
    pub value: f64,
    /// Its 95% confidence half-width (0 with one replicate).
    pub ci95: f64,
    /// Where it was read: `row/column`, or `a / b` for a ratio.
    pub at: String,
    /// Whether it is the ratio of two cells.
    pub ratio: bool,
}

/// A claim's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Inside the region.
    Holds,
    /// Outside by at most the tolerance, or decided inside the interval.
    Marginal,
    /// Outside by more than the tolerance.
    Fails,
}

impl Claim {
    /// The verdict on `table`, the cell furthest outside the region and the
    /// tolerance; `None` when the table lacks a cell the claim reads.
    #[must_use]
    pub(crate) fn check(&self, table: &Table) -> Option<(Verdict, Observed, f64)> {
        let cells = (self.read)(table)?;
        let (lo, hi, strict) = match self.bound {
            AtMost(x) => (f64::NEG_INFINITY, x, false),
            Below(x) => (f64::NEG_INFINITY, x, true),
            AtLeast(x) => (x, f64::INFINITY, false),
            Above(x) => (x, f64::INFINITY, true),
            Between(lo, hi) => (lo, hi, false),
            About(x) => (x, x, false),
        };
        let normalized = FIGURES
            .iter()
            .any(|f| f.title == table.title && f.normalize_to.is_some());
        let relative = normalized || cells.iter().any(|o| o.ratio);
        let baseline = if relative { 1.0 } else { 0.0 };
        let about = matches!(self.bound, About(_));
        let edge = if lo.is_finite() { lo } else { hi };
        let tolerance = (0.1 * (edge - baseline).abs()).max(0.005);
        let widen = if about { tolerance } else { 0.0 };
        let outside = |o: &Observed| (lo - widen - o.value).max(o.value - hi - widen);
        let holds = |e: f64| e < 0.0 || (e == 0.0 && !strict);
        let verdict = if cells.iter().all(|o| holds(outside(o) + o.ci95)) {
            Verdict::Holds
        } else if cells.iter().any(|o| outside(o) - o.ci95 > tolerance) {
            Verdict::Fails
        } else {
            Verdict::Marginal
        };
        let worst = cells
            .into_iter()
            .max_by(|a, b| outside(a).total_cmp(&outside(b)));
        Some((verdict, worst?, tolerance))
    }

    /// `# [verdict] <sentence>: <observed> at <cell> (bound, tolerance[; source])`.
    fn verdict_line(&self, table: &Table) -> String {
        let Some((verdict, o, tolerance)) = self.check(table) else {
            return format!("# [missing] {}: the table lacks a cell", self.sentence);
        };
        let verdict = format!("{verdict:?}").to_lowercase();
        let ci = (o.ci95 > 0.0).then(|| format!(" +/- {:.3}", o.ci95));
        let (ci, source) = (ci.unwrap_or_default(), self.source);
        let semicolon = if source.is_empty() { "" } else { "; " };
        format!(
            "# [{verdict}] {}: {:.3}{ci} at {} (bound {:?}, tolerance {tolerance:.3}{semicolon}{source})",
            self.sentence, o.value, o.at, self.bound
        )
    }
}

/// The claims a table titled `title` carries: a figure's, or those
/// [`TABLE_CLAIMS`] names by the title before its `:`.
#[must_use]
pub(crate) fn claims_for(title: &str) -> &'static [Claim] {
    let figure = FIGURES.iter().find(|f| f.title == title).map(|f| f.claims);
    let name = title.split(':').next();
    let named = TABLE_CLAIMS.iter().find(|(n, _)| name == Some(n));
    figure
        .or(named.map(|(_, claims)| *claims))
        .unwrap_or_default()
}

/// One verdict line per claim `table` carries.
#[must_use]
pub fn verdict_lines(table: &Table) -> String {
    let claims = claims_for(&table.title).iter();
    claims.map(|c| c.verdict_line(table) + "\n").collect()
}

/// Cell `row`/`column` of `t`.
fn cell(t: &Table, row: &str, column: &str) -> Option<Observed> {
    let (value, ci95) = t.cell(row, column)?;
    let at = format!("{row}/{column}");
    Some(Observed {
        value,
        ci95,
        at,
        ratio: false,
    })
}

/// Every `(x, y)` of `xs` x `ys`.
fn pairs<'a>(xs: &'a [&str], ys: &'a [&str]) -> impl Iterator<Item = (&'a str, &'a str)> {
    xs.iter()
        .flat_map(move |x| ys.iter().map(move |y| (*x, *y)))
}

/// Every cell of `rows` x `columns`.
fn cells(t: &Table, rows: &[&str], columns: &[&str]) -> Option<Vec<Observed>> {
    pairs(rows, columns).map(|(r, c)| cell(t, r, c)).collect()
}

/// `a / b`, the half-widths combined to first order (relative errors add;
/// a NaN sum, from two exact zeros, reads as 0).
fn ratio(mut a: Observed, b: Observed) -> Observed {
    let relative = a.ci95 / a.value.abs() + b.ci95 / b.value.abs();
    a.value /= b.value;
    a.ci95 = (a.value.abs() * relative).max(0.0);
    a.at = format!("{} / {}", a.at, b.at);
    a.ratio = true;
    a
}

/// Along each of `lines` (a row or a column label), every cell of `num`
/// over every cell of `den` (labels across that line).
fn ratios(t: &Table, lines: &[&str], num: &[&str], den: &[&str]) -> Option<Vec<Observed>> {
    let at = |line, label| cell(t, line, label).or_else(|| cell(t, label, line));
    let ratio_in = |(l, (a, b))| Some(ratio(at(l, a)?, at(l, b)?));
    lines
        .iter()
        .flat_map(|l| pairs(num, den).map(move |p| (*l, p)))
        .map(ratio_in)
        .collect()
}

/// "Most of `rows`": the cell of `column` that a majority of the column's
/// cells lie at least as near `centre` as (the middle by distance).
fn majority(t: &Table, rows: &[&str], column: &str, centre: f64) -> Option<Vec<Observed>> {
    let mut cells = cells(t, rows, &[column])?;
    let distance = |o: &Observed| (o.value - centre).abs();
    cells.sort_by(|a, b| distance(a).total_cmp(&distance(b)));
    Some(vec![cells.swap_remove(cells.len() / 2)])
}

const WORKLOADS: &[&str] = &[
    "DS", "MR", "SS", "WF", "WS", "MS", "WSPEC99", "TPC-C1", "TPC-C2", "TPCH-Q2", "TPCH-Q6",
    "TPCH-Q17",
];
const SCALE_OUT: &[&str] = &["DS", "MR", "SS", "WF", "WS", "MS"];
const AVERAGES: &[&str] = &["Avg_SCO", "Avg_TRS", "Avg_DSP"];
const SCHEDULERS: &[&str] = &["FR-FCFS", "FCFS_Banks", "PAR-BS", "ATLAS", "RL"];

/// The labels of `all` other than `these`.
fn but(all: &[&'static str], these: &[&str]) -> Vec<&'static str> {
    all.iter().copied().filter(|l| !these.contains(l)).collect()
}

/// Every figure of the evaluation, in the order `repro` prints them. Laid
/// out by hand as a table: one figure header, then one claim per row.
#[rustfmt::skip]
pub static FIGURES: &[Figure] = &[
    Figure { word: "fig1", study: "sched", title: "Figure 1: User IPC normalized to FR-FCFS",
        metric: SimStats::user_ipc, normalize_to: Some(0), claims: &[
        Claim { sentence: "FR-FCFS >= all others", bound: AtMost(1.0),
            read: |t| cells(t, WORKLOADS, &but(SCHEDULERS, &["FR-FCFS"])), source: "PAPER.md finding 2" },
        Claim { sentence: "FCFS_Banks within a few % except Web Frontend", bound: AtLeast(0.97),
            read: |t| cells(t, &but(WORKLOADS, &["WF"]), &["FCFS_Banks"]), source: "" },
        Claim { sentence: "ATLAS worst on scale-out", bound: Below(1.0),
            read: |t| ratios(t, &["Avg_SCO"], &["ATLAS"], &but(SCHEDULERS, &["ATLAS"])), source: "" },
        Claim { sentence: "FCFS within 1% of FR-FCFS on most workloads", bound: Between(0.99, 1.01),
            read: |t| majority(t, WORKLOADS, "FCFS_Banks", 1.0),
            source: "PAPER.md finding 3, read on FCFS_Banks" },
    ] },
    Figure { word: "fig2", study: "sched", title: "Figure 2: Row-buffer hit rate (%)",
        metric: |s| s.row_buffer_hit_rate * 100.0, normalize_to: None, claims: &[
        Claim { sentence: "~30-40% averages under FR-FCFS/open-adaptive", bound: Between(30.0, 40.0),
            read: |t| cells(t, AVERAGES, &["FR-FCFS"]), source: "" },
        Claim { sentence: "Web Frontend and Media Streaming highest", bound: Above(1.0),
            read: |t| ratios(t, &["FR-FCFS"], &["WF", "MS"], &but(WORKLOADS, &["WF", "MS"])), source: "" },
    ] },
    Figure { word: "fig3", study: "sched", title: "Figure 3: Average memory access latency normalized to FR-FCFS",
        metric: |s| s.avg_read_latency_dram, normalize_to: Some(0), claims: &[
        Claim { sentence: "ATLAS suffers the largest increases", bound: Above(1.0),
            read: |t| ratios(t, AVERAGES, &["ATLAS"], &but(SCHEDULERS, &["ATLAS"])), source: "" },
        Claim { sentence: "ATLAS up to several x on MapReduce", bound: AtLeast(2.0),
            read: |t| cells(t, &["MR"], &["ATLAS"]), source: "" },
    ] },
    Figure { word: "fig4", study: "sched", title: "Figure 4: L2 MPKI (misses per kilo user instructions)",
        metric: |s| s.l2_mpki, normalize_to: None, claims: &[
        Claim { sentence: "SCOW avg ~5", bound: About(5.0),
            read: |t| cells(t, &["Avg_SCO"], &["FR-FCFS"]),
            source: "source conflict: WorkloadSpec::preset data_mpki, calibrated against Fig. 4, averages 2.63" },
        Claim { sentence: "TRSW ~8", bound: About(8.0),
            read: |t| cells(t, &["Avg_TRS"], &["FR-FCFS"]),
            source: "source conflict: WorkloadSpec::preset data_mpki, calibrated against Fig. 4, averages 4.47" },
        Claim { sentence: "DSPW ~18", bound: About(18.0),
            read: |t| cells(t, &["Avg_DSP"], &["FR-FCFS"]),
            source: "source conflict: WorkloadSpec::preset data_mpki, calibrated against Fig. 4, averages 11.5" },
    ] },
    Figure { word: "fig5", study: "sched", title: "Figure 5: Average read queue length",
        metric: |s| s.avg_read_queue_len, normalize_to: None, claims: &[
        Claim { sentence: "below 10 entries everywhere", bound: AtMost(10.0),
            read: |t| cells(t, WORKLOADS, SCHEDULERS), source: "" },
        Claim { sentence: "DSPW higher than SCOW", bound: Above(1.0),
            read: |t| ratios(t, SCHEDULERS, &["Avg_DSP"], &["Avg_SCO"]), source: "" },
    ] },
    Figure { word: "fig6", study: "sched", title: "Figure 6: Average write queue length",
        metric: |s| s.avg_write_queue_len, normalize_to: None, claims: &[
        Claim { sentence: "below 50 entries", bound: AtMost(50.0),
            read: |t| cells(t, WORKLOADS, SCHEDULERS), source: "" },
        Claim { sentence: "RL noticeably lower than the others", bound: AtMost(0.9),
            read: |t| ratios(t, AVERAGES, &["RL"], &but(SCHEDULERS, &["RL"])), source: "" },
    ] },
    Figure { word: "fig7", study: "sched", title: "Figure 7: Memory bandwidth utilization (%)",
        metric: |s| s.bandwidth_utilization * 100.0, normalize_to: None, claims: &[
        Claim { sentence: "SCOW 14-50%", bound: Between(14.0, 50.0),
            read: |t| cells(t, SCALE_OUT, &["FR-FCFS"]), source: "" },
        Claim { sentence: "SCOW avg ~34%", bound: About(34.0),
            read: |t| cells(t, &["Avg_SCO"], &["FR-FCFS"]), source: "" },
        Claim { sentence: "DSPW avg ~54%", bound: About(54.0),
            read: |t| cells(t, &["Avg_DSP"], &["FR-FCFS"]), source: "" },
    ] },
    Figure { word: "fig8", study: "fig8", title: "Figure 8: Single-access row-buffer activations under open-adaptive (%)",
        metric: |s| s.single_access_activation_fraction * 100.0, normalize_to: None, claims: &[
        Claim { sentence: "77%-90% across workloads", bound: Between(77.0, 90.0),
            read: |t| cells(t, WORKLOADS, &["baseline"]), source: "PAPER.md finding 5" },
        Claim { sentence: "Media Streaming lowest", bound: Below(1.0),
            read: |t| ratios(t, &["baseline"], &["MS"], &but(WORKLOADS, &["MS"])), source: "" },
        Claim { sentence: "Media Streaming at ~76%", bound: About(76.0),
            read: |t| cells(t, &["MS"], &["baseline"]), source: "" },
    ] },
    Figure { word: "fig9", study: "pages", title: "Figure 9: Row-buffer hit rate normalized to open-adaptive",
        metric: |s| s.row_buffer_hit_rate, normalize_to: Some(0), claims: &[
        Claim { sentence: "close-adaptive loses most hits", bound: Below(1.0),
            read: |t| ratios(t, AVERAGES, &["Close Adaptive"], &["Open Adaptive", "RBPP", "ABPP"]), source: "" },
        Claim { sentence: "RBPP preserves ~70-86%", bound: Between(0.70, 0.86),
            read: |t| cells(t, WORKLOADS, &["RBPP"]), source: "" },
        Claim { sentence: "ABPP less", bound: Below(1.0),
            read: |t| ratios(t, AVERAGES, &["ABPP"], &["RBPP"]), source: "" },
    ] },
    Figure { word: "fig10", study: "pages", title: "Figure 10: Average memory access latency normalized to open-adaptive",
        metric: |s| s.avg_read_latency_dram, normalize_to: Some(0), claims: &[
        Claim { sentence: "close-adaptive reduces latency for DSPW (~-13%)", bound: About(0.87),
            read: |t| cells(t, &["Avg_DSP"], &["Close Adaptive"]), source: "" },
        Claim { sentence: "close-adaptive raises latency for Web Frontend/Media Streaming (~+15%)", bound: About(1.15),
            read: |t| cells(t, &["WF", "MS"], &["Close Adaptive"]), source: "" },
    ] },
    Figure { word: "fig11", study: "pages", title: "Figure 11: User IPC normalized to open-adaptive",
        metric: SimStats::user_ipc, normalize_to: Some(0), claims: &[
        Claim { sentence: "close-adaptive -2.5% on SCOW", bound: About(0.975),
            read: |t| cells(t, &["Avg_SCO"], &["Close Adaptive"]), source: "" },
        Claim { sentence: "close-adaptive +4% on DSPW", bound: About(1.04),
            read: |t| cells(t, &["Avg_DSP"], &["Close Adaptive"]), source: "" },
        Claim { sentence: "RBPP/ABPP roughly at or slightly below open-adaptive on SCOW",
            bound: Between(0.98, 1.0),
            read: |t| cells(t, &["Avg_SCO"], &["RBPP", "ABPP"]), source: "" },
        Claim { sentence: "RBPP +3% on DSPW", bound: About(1.03),
            read: |t| cells(t, &["Avg_DSP"], &["RBPP"]), source: "" },
    ] },
    Figure { word: "fig12", study: "channels", title: "Figure 12: User IPC vs. memory channels (normalized to 1 channel)",
        metric: SimStats::user_ipc, normalize_to: Some(0), claims: &[
        Claim { sentence: "SCOW ~+1.7% at 4 channels", bound: About(1.017),
            read: |t| cells(t, &["Avg_SCO"], &["4_channel"]), source: "PAPER.md finding 4" },
        Claim { sentence: "DSPW ~+19%", bound: About(1.19),
            read: |t| cells(t, &["Avg_DSP"], &["4_channel"]), source: "" },
        Claim { sentence: "Web Frontend degrades", bound: Below(1.0),
            read: |t| cells(t, &["WF"], &["2_channel", "4_channel"]), source: "" },
    ] },
    Figure { word: "fig13", study: "channels",
        title: "Figure 13: Row-buffer hit rate vs. memory channels (normalized to 1 channel)",
        metric: |s| s.row_buffer_hit_rate, normalize_to: Some(0), claims: &[
        Claim { sentence: "increases ~1.3x (SCOW, TRSW) at 2 channels", bound: About(1.3),
            read: |t| cells(t, &["Avg_SCO", "Avg_TRS"], &["2_channel"]), source: "" },
        Claim { sentence: "increases ~1.6x (SCOW, TRSW) at 4 channels", bound: About(1.6),
            read: |t| cells(t, &["Avg_SCO", "Avg_TRS"], &["4_channel"]), source: "" },
        Claim { sentence: "increases ~1.7x (DSPW) at 2 channels", bound: About(1.7),
            read: |t| cells(t, &["Avg_DSP"], &["2_channel"]), source: "" },
        Claim { sentence: "increases ~2.3x (DSPW) at 4 channels", bound: About(2.3),
            read: |t| cells(t, &["Avg_DSP"], &["4_channel"]), source: "" },
    ] },
    Figure { word: "fig14", study: "channels",
        title: "Figure 14: Memory access latency vs. memory channels (normalized to 1 channel)",
        metric: |s| s.avg_read_latency_dram, normalize_to: Some(0), claims: &[
        Claim { sentence: "drops to ~0.8 for SCOW at 2 channels", bound: About(0.8),
            read: |t| cells(t, &["Avg_SCO"], &["2_channel"]), source: "" },
        Claim { sentence: "drops to ~0.7 for SCOW at 4 channels", bound: About(0.7),
            read: |t| cells(t, &["Avg_SCO"], &["4_channel"]), source: "" },
        Claim { sentence: "drops to ~0.64 for DSPW at 2 channels", bound: About(0.64),
            read: |t| cells(t, &["Avg_DSP"], &["2_channel"]), source: "" },
        Claim { sentence: "drops to ~0.47 for DSPW at 4 channels", bound: About(0.47),
            read: |t| cells(t, &["Avg_DSP"], &["4_channel"]), source: "" },
    ] },
];

/// The extension studies' claims, by table name (the title before `:`).
#[rustfmt::skip]
pub static TABLE_CLAIMS: &[(&str, &[Claim])] = &[
    ("energy idle_heavy", &[
        Claim { sentence: "timeout power-down saves background energy on the idle workload",
            bound: Below(1.0), source: "README, DRAM power states",
            read: |t| ratios(t, &["background_energy_mj"], &["immediate", "idle-timer", "power-aware"], &["none"]) },
    ]),
    ("qos ws+tpch_q6", &[
        Claim { sentence: "boosting the latency-critical tenant cuts its slowdown",
            bound: Below(1.0), source: "README, Multi-tenant QoS",
            read: |t| ratios(t, &["lc_slowdown"], &["mean/priority-boost"], &["mean/none"]) },
    ]),
];

#[cfg(test)]
mod tests {
    use cloudmc_sim::run_system;
    use cloudmc_workloads::Workload;

    use super::*;
    use crate::experiments::{baseline_config, paper_schedulers, CHANNEL_COLUMNS, PAGE_POLICIES};
    use crate::Scale;

    /// A matrix with `study`'s real row and column labels, every cell the
    /// same short run.
    fn synthetic(study: &str, stats: &SimStats) -> Matrix {
        let columns: Vec<String> = match study {
            "sched" => paper_schedulers().into_iter().map(|(l, _)| l).collect(),
            "fig8" => vec!["baseline".to_owned()],
            "pages" => PAGE_POLICIES.iter().map(|(l, _)| (*l).to_owned()).collect(),
            "channels" => CHANNEL_COLUMNS.map(str::to_owned).to_vec(),
            other => panic!("unknown study `{other}`"),
        };
        let row = vec![vec![stats.clone()]; columns.len()];
        Matrix {
            workloads: Workload::all().to_vec(),
            results: vec![row; Workload::all().len()],
            columns,
        }
    }

    #[test]
    fn every_claim_resolves_its_cells() {
        let scale = Scale {
            warmup_cpu_cycles: 1_000,
            measure_cpu_cycles: 4_000,
            seed: 1,
            threads: 1,
        };
        let stats = run_system(baseline_config(Workload::WebSearch, &scale)).unwrap();
        for figure in FIGURES {
            let table = figure.table(&synthetic(figure.study, &stats));
            for claim in figure.claims {
                assert!(
                    claim.check(&table).is_some(),
                    "{}: `{}` reads a cell the table lacks",
                    figure.word,
                    claim.sentence
                );
            }
            assert!(!verdict_lines(&table).contains("[missing]"));
        }
    }

    #[test]
    fn figures_are_fig1_to_fig14_in_study_order() {
        let words: Vec<&str> = FIGURES.iter().map(|f| f.word).collect();
        let expected: Vec<String> = (1..=14).map(|n| format!("fig{n}")).collect();
        assert_eq!(words, expected);
        let order = |f: &Figure| STUDIES.iter().position(|s| *s == f.study).unwrap();
        assert!(FIGURES.windows(2).all(|w| order(&w[0]) <= order(&w[1])));
        assert_eq!(
            figure("fig4").unwrap().note(),
            "Paper shape: SCOW avg ~5; TRSW ~8; DSPW ~18."
        );
    }

    /// `bound`'s verdict and tolerance on the cells `read` finds in a table
    /// titled `title` with rows `x` = (1, 1) and `y` = (`v`, 2) +/- (`ci`, 0).
    fn verdict_on(
        title: &str,
        bound: Bound,
        read: fn(&Table) -> Option<Vec<Observed>>,
        v: f64,
        ci: f64,
    ) -> (Verdict, f64) {
        let mut t = Table::new(title, vec!["v".to_owned(), "w".to_owned()]);
        t.push_row_with_ci("x", vec![1.0, 1.0], vec![0.0, 0.0]);
        t.push_row_with_ci("y", vec![v, 2.0], vec![ci, 0.0]);
        let claim = Claim {
            sentence: "x",
            bound,
            read,
            source: "",
        };
        let (verdict, _, tolerance) = claim.check(&t).unwrap();
        (verdict, tolerance)
    }

    /// One absolute cell `v` +/- `ci` under `bound`.
    fn verdict(bound: Bound, v: f64, ci: f64) -> Verdict {
        verdict_on("t", bound, |t| cells(t, &["y"], &["v"]), v, ci).0
    }

    #[test]
    fn verdicts_follow_the_stated_rule() {
        use Verdict::{Fails, Holds, Marginal};
        // An absolute cell: baseline 0, so `AtMost(1.0)` tolerates 0.1.
        assert_eq!(verdict(AtMost(1.0), 1.0, 0.0), Holds);
        assert_eq!(verdict(AtMost(1.0), 1.05, 0.0), Marginal);
        assert_eq!(verdict(AtMost(1.0), 1.2, 0.0), Fails);
        assert_eq!(verdict(AtLeast(1.0), 0.95, 0.0), Marginal);
        assert_eq!(verdict(Between(1.0, 2.0), 2.11, 0.0), Fails);
        // A strict ordering does not hold on a tie.
        assert_eq!(verdict(Below(1.0), 1.0, 0.0), Marginal);
        assert_eq!(verdict(Below(1.0), 0.99, 0.0), Holds);
        assert_eq!(verdict(Above(1.0), 1.0, 0.0), Marginal);
        // `~5` tolerates 0.5: holds within it, marginal within twice it.
        assert_eq!(verdict(About(5.0), 5.45, 0.0), Holds);
        assert_eq!(verdict(About(5.0), 4.2, 0.0), Marginal);
        assert_eq!(verdict(About(5.0), 3.9, 0.0), Fails);
        // Decided inside the interval: marginal either way.
        assert_eq!(verdict(AtMost(1.0), 0.98, 0.05), Marginal);
        assert_eq!(verdict(AtMost(1.0), 1.12, 0.05), Marginal);
        assert_eq!(verdict(AtMost(1.0), 0.9, 0.05), Holds);
        assert_eq!(verdict(AtMost(1.0), 1.3, 0.05), Fails);
    }

    #[test]
    fn tolerances_follow_the_stated_rule() {
        let x_over_column: fn(&Table) -> Option<Vec<Observed>> =
            |t| ratios(t, &["x"], &["v"], &["w"]);
        // A ratio of equal cells: an ordering tolerates 0.005, and a strict
        // one ("saves", "cuts") does not hold.
        assert_eq!(
            verdict_on("t", Below(1.0), x_over_column, 1.0, 0.0),
            (Verdict::Marginal, 0.005)
        );
        assert_eq!(
            verdict_on("t", AtMost(1.0), x_over_column, 1.0, 0.0),
            (Verdict::Holds, 0.005)
        );
        // A cell of a normalized figure has baseline 1, of another figure 0.
        let y = |t: &Table| cells(t, &["y"], &["v"]);
        let fig12 = figure("fig12").unwrap().title;
        let fig4 = figure("fig4").unwrap().title;
        assert!((verdict_on(fig12, About(1.19), y, 1.19, 0.0).1 - 0.019).abs() < 1e-12);
        assert!((verdict_on(fig4, About(18.0), y, 18.0, 0.0).1 - 1.8).abs() < 1e-12);
        assert_eq!(verdict_on(fig12, About(1.017), y, 1.017, 0.0).1, 0.005);
        assert!((verdict_on(fig4, Between(77.0, 90.0), y, 80.0, 0.0).1 - 7.7).abs() < 1e-12);
    }

    #[test]
    fn ratios_and_majorities_read_the_named_cells() {
        let mut t = Table::new("t", vec!["a".to_owned(), "b".to_owned()]);
        for (label, a) in [("r1", 1.0), ("r2", 0.97), ("r3", 1.02)] {
            t.push_row_with_ci(label, vec![a, 2.0], vec![0.1, 0.2]);
        }
        let r = ratios(&t, &["r1"], &["a"], &["b"]).unwrap();
        assert_eq!(r[0].value, 0.5);
        assert!((r[0].ci95 - 0.5 * (0.1 + 0.1)).abs() < 1e-12);
        assert_eq!(r[0].at, "r1/a / r1/b");
        // Along a column: rows over rows.
        let down = ratios(&t, &["b"], &["r1"], &["r2", "r3"]).unwrap();
        assert_eq!(down.len(), 2);
        assert_eq!(down[1].at, "r1/b / r3/b");
        let most = majority(&t, &["r1", "r2", "r3"], "a", 1.0).unwrap();
        assert_eq!(most[0].at, "r3/a", "{most:?}");
        assert!(cells(&t, &["r1", "nope"], &["a"]).is_none());
        assert!(ratios(&t, &["nope"], &["a"], &["b"]).is_none());
    }
}
