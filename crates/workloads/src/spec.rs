//! Workload identities and their statistical specifications.
//!
//! The paper evaluates the six CloudSuite scale-out workloads plus three
//! transactional and three decision-support workloads (Table 1). We cannot
//! run the original applications on a full-system simulator here, so each
//! workload is described by a [`WorkloadSpec`] — the statistical properties
//! of its off-chip access stream as characterized by the paper (L2 MPKI from
//! Fig. 4, row-buffer reuse from Fig. 2/8, memory-level parallelism and
//! per-core balance from the Section 4 discussion) — and synthesized by
//! [`crate::generator::CoreStream`].

/// The three workload categories of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Scale-out (CloudSuite) workloads, `SCOW`.
    ScaleOut,
    /// Traditional transactional server workloads, `TRSW`.
    Transactional,
    /// Decision-support workloads, `DSPW`.
    DecisionSupport,
}

impl Category {
    /// Acronym used in the paper's figures.
    #[must_use]
    pub fn acronym(&self) -> &'static str {
        match self {
            Self::ScaleOut => "SCO",
            Self::Transactional => "TRS",
            Self::DecisionSupport => "DSP",
        }
    }
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.acronym())
    }
}

/// The twelve workloads of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Data Serving (Cassandra NoSQL store).
    DataServing,
    /// MapReduce (Hadoop text analytics).
    MapReduce,
    /// SAT Solver (Cloud9 symbolic execution backend).
    SatSolver,
    /// Web Frontend (Olio social-events PHP stack).
    WebFrontend,
    /// Web Search (Nutch index serving).
    WebSearch,
    /// Media Streaming (Darwin streaming server).
    MediaStreaming,
    /// SPECweb99 web serving.
    SpecWeb99,
    /// TPC-C on commercial DBMS vendor A.
    TpcC1,
    /// TPC-C on commercial DBMS vendor B.
    TpcC2,
    /// TPC-H query 2 (join-intensive).
    TpchQ2,
    /// TPC-H query 6 (select-intensive scan).
    TpchQ6,
    /// TPC-H query 17 (select-join).
    TpchQ17,
}

impl Workload {
    /// All workloads in the paper's presentation order.
    #[must_use]
    pub fn all() -> [Self; 12] {
        [
            Self::DataServing,
            Self::MapReduce,
            Self::SatSolver,
            Self::WebFrontend,
            Self::WebSearch,
            Self::MediaStreaming,
            Self::SpecWeb99,
            Self::TpcC1,
            Self::TpcC2,
            Self::TpchQ2,
            Self::TpchQ6,
            Self::TpchQ17,
        ]
    }

    /// The six scale-out workloads.
    #[must_use]
    pub fn scale_out() -> [Self; 6] {
        [
            Self::DataServing,
            Self::MapReduce,
            Self::SatSolver,
            Self::WebFrontend,
            Self::WebSearch,
            Self::MediaStreaming,
        ]
    }

    /// Workload category (Table 1).
    #[must_use]
    pub fn category(&self) -> Category {
        match self {
            Self::DataServing
            | Self::MapReduce
            | Self::SatSolver
            | Self::WebFrontend
            | Self::WebSearch
            | Self::MediaStreaming => Category::ScaleOut,
            Self::SpecWeb99 | Self::TpcC1 | Self::TpcC2 => Category::Transactional,
            Self::TpchQ2 | Self::TpchQ6 | Self::TpchQ17 => Category::DecisionSupport,
        }
    }

    /// Acronym used in the paper's figures.
    #[must_use]
    pub fn acronym(&self) -> &'static str {
        match self {
            Self::DataServing => "DS",
            Self::MapReduce => "MR",
            Self::SatSolver => "SS",
            Self::WebFrontend => "WF",
            Self::WebSearch => "WS",
            Self::MediaStreaming => "MS",
            Self::SpecWeb99 => "WSPEC99",
            Self::TpcC1 => "TPC-C1",
            Self::TpcC2 => "TPC-C2",
            Self::TpchQ2 => "TPCH-Q2",
            Self::TpchQ6 => "TPCH-Q6",
            Self::TpchQ17 => "TPCH-Q17",
        }
    }

    /// The calibrated statistical specification of this workload.
    #[must_use]
    pub fn spec(&self) -> WorkloadSpec {
        WorkloadSpec::preset(*self)
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.acronym())
    }
}

impl std::str::FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let upper = s.to_ascii_uppercase();
        Self::all()
            .into_iter()
            .find(|w| w.acronym().eq_ignore_ascii_case(&upper))
            .ok_or_else(|| format!("unknown workload `{s}`"))
    }
}

/// Statistical description of one workload's per-core access stream.
///
/// All rates are per committed user instruction unless noted otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Which workload this spec describes.
    pub workload: Workload,
    /// Number of cores the benchmark uses (Web Frontend uses 8, rest 16).
    pub cores: usize,
    /// Off-chip data accesses per kilo-instruction (the L2 data MPKI target).
    pub data_mpki: f64,
    /// Off-chip instruction-fetch misses per kilo-instruction.
    pub ifetch_mpki: f64,
    /// Probability that an off-chip access event opens a multi-access row
    /// burst rather than touching a row exactly once.
    pub row_burst_prob: f64,
    /// Mean number of sequential blocks touched by a row burst.
    pub row_burst_len: f64,
    /// Fraction of off-chip data accesses that are stores (they return as
    /// dirty write-backs later).
    pub store_fraction: f64,
    /// Fraction of off-chip loads the core may overlap (memory-level
    /// parallelism knob).
    pub mlp_fraction: f64,
    /// Temporal burstiness of the off-chip access stream in `[0, 1)`:
    /// 0 = stationary Poisson-like arrivals; larger values alternate between
    /// high-intensity phases (request processing spikes, GC, compaction) and
    /// quiet phases while preserving the average rate. Server workloads are
    /// distinctly bursty, which is what creates transient queueing at the
    /// memory controller even though average utilization stays moderate.
    pub burstiness: f64,
    /// Per-core intensity skew in [0, 1): 0 = perfectly balanced cores,
    /// larger values concentrate traffic on a subset of cores.
    pub core_imbalance: f64,
    /// Fraction of off-chip accesses that target a region shared by all cores
    /// (OS structures, shared heaps).
    pub shared_fraction: f64,
    /// DMA/IO requests injected per kilo CPU cycles (Web Frontend traffic).
    pub dma_per_kcycle: f64,
    /// Private off-chip footprint per core in bytes.
    pub footprint_bytes: u64,
    /// Instruction (code) footprint in bytes, per core.
    pub code_footprint_bytes: u64,
    /// L1-resident hot data accesses per instruction (keeps the L1s busy).
    pub hot_access_rate: f64,
}

impl WorkloadSpec {
    /// The calibrated preset for `workload`.
    ///
    /// Values are calibrated against the characteristics the paper reports
    /// for the baseline configuration: L2 MPKI (Fig. 4), row-buffer hit rate
    /// under open-adaptive FR-FCFS (Fig. 2), the fraction of single-access
    /// row activations (Fig. 8), bandwidth utilization (Fig. 7) and the
    /// qualitative MLP / per-core-balance discussion of Section 4. What the
    /// model measures against those figures is checked by the figures'
    /// claims in `cloudmc-bench` (`FIGURES`); the Fig. 4 claims record that
    /// the `data_mpki` averages here (2.63 / 4.47 / 11.5 per category)
    /// disagree with the figure's own ~5 / ~8 / ~18.
    #[must_use]
    pub fn preset(workload: Workload) -> Self {
        use Workload::{
            DataServing, MapReduce, MediaStreaming, SatSolver, SpecWeb99, TpcC1, TpcC2, TpchQ17,
            TpchQ2, TpchQ6, WebFrontend, WebSearch,
        };
        let base = Self {
            workload,
            cores: 16,
            data_mpki: 5.0,
            ifetch_mpki: 30.0,
            row_burst_prob: 0.15,
            row_burst_len: 4.0,
            store_fraction: 0.30,
            mlp_fraction: 0.25,
            burstiness: 0.6,
            core_imbalance: 0.2,
            shared_fraction: 0.15,
            dma_per_kcycle: 0.0,
            footprint_bytes: 96 * 1024 * 1024,
            code_footprint_bytes: 64 * 1024,
            hot_access_rate: 0.12,
        };
        match workload {
            DataServing => Self {
                data_mpki: 3.2,
                ifetch_mpki: 60.0,
                row_burst_prob: 0.20,
                row_burst_len: 5.0,
                mlp_fraction: 0.10,
                core_imbalance: 0.2,
                burstiness: 0.65,
                ..base
            },
            MapReduce => Self {
                data_mpki: 2.2,
                ifetch_mpki: 45.0,
                row_burst_prob: 0.20,
                row_burst_len: 5.5,
                store_fraction: 0.35,
                mlp_fraction: 0.08,
                core_imbalance: 0.55,
                burstiness: 0.75,
                ..base
            },
            SatSolver => Self {
                data_mpki: 2.0,
                ifetch_mpki: 33.0,
                row_burst_prob: 0.16,
                row_burst_len: 4.0,
                store_fraction: 0.22,
                mlp_fraction: 0.10,
                core_imbalance: 0.3,
                burstiness: 0.55,
                ..base
            },
            WebFrontend => Self {
                cores: 8,
                data_mpki: 2.6,
                ifetch_mpki: 70.0,
                row_burst_prob: 0.22,
                row_burst_len: 8.0,
                mlp_fraction: 0.05,
                core_imbalance: 0.5,
                dma_per_kcycle: 3.0,
                burstiness: 0.70,
                ..base
            },
            WebSearch => Self {
                data_mpki: 1.3,
                ifetch_mpki: 50.0,
                row_burst_prob: 0.19,
                row_burst_len: 4.5,
                store_fraction: 0.2,
                mlp_fraction: 0.08,
                burstiness: 0.55,
                ..base
            },
            MediaStreaming => Self {
                data_mpki: 4.5,
                ifetch_mpki: 38.0,
                row_burst_prob: 0.24,
                row_burst_len: 9.0,
                store_fraction: 0.25,
                mlp_fraction: 0.15,
                burstiness: 0.60,
                ..base
            },
            SpecWeb99 => Self {
                data_mpki: 3.8,
                ifetch_mpki: 58.0,
                row_burst_prob: 0.21,
                row_burst_len: 5.0,
                mlp_fraction: 0.12,
                core_imbalance: 0.45,
                burstiness: 0.70,
                ..base
            },
            TpcC1 => Self {
                data_mpki: 5.0,
                ifetch_mpki: 55.0,
                row_burst_prob: 0.18,
                row_burst_len: 4.5,
                store_fraction: 0.38,
                mlp_fraction: 0.15,
                core_imbalance: 0.3,
                burstiness: 0.60,
                ..base
            },
            TpcC2 => Self {
                data_mpki: 4.6,
                ifetch_mpki: 55.0,
                row_burst_prob: 0.19,
                row_burst_len: 4.5,
                store_fraction: 0.38,
                mlp_fraction: 0.15,
                core_imbalance: 0.3,
                burstiness: 0.60,
                ..base
            },
            TpchQ2 => Self {
                data_mpki: 9.0,
                ifetch_mpki: 20.0,
                row_burst_prob: 0.14,
                row_burst_len: 4.0,
                store_fraction: 0.2,
                mlp_fraction: 0.30,
                core_imbalance: 0.15,
                footprint_bytes: 192 * 1024 * 1024,
                burstiness: 0.30,
                ..base
            },
            TpchQ6 => Self {
                data_mpki: 14.0,
                ifetch_mpki: 12.0,
                row_burst_prob: 0.15,
                row_burst_len: 4.5,
                store_fraction: 0.12,
                mlp_fraction: 0.30,
                core_imbalance: 0.1,
                footprint_bytes: 256 * 1024 * 1024,
                burstiness: 0.25,
                ..base
            },
            TpchQ17 => Self {
                data_mpki: 11.5,
                ifetch_mpki: 16.0,
                row_burst_prob: 0.14,
                row_burst_len: 4.0,
                store_fraction: 0.22,
                mlp_fraction: 0.30,
                core_imbalance: 0.15,
                footprint_bytes: 192 * 1024 * 1024,
                burstiness: 0.30,
                ..base
            },
        }
    }

    /// A copy of this spec with every traffic rate scaled by `factor`:
    /// off-chip data and instruction-fetch MPKI, DMA injection, the
    /// L1-resident hot-access rate, and (for factors below one) the phase
    /// burstiness. The address-stream *shape* (row locality, store fraction,
    /// MLP, footprints) is untouched.
    ///
    /// Low factors model the idle-heavy phases cloud services spend most of
    /// their time in — long compute stretches between sparse memory events —
    /// which is exactly where the simulation kernel's event-horizon
    /// fast-forward earns its keep (arrival gaps grow as `1/factor`). Used by
    /// the intensity sweeps and the fast-forward benchmarks.
    #[must_use]
    pub fn with_intensity(mut self, factor: f64) -> Self {
        let factor = factor.max(0.0);
        self.data_mpki *= factor;
        self.ifetch_mpki *= factor;
        self.dma_per_kcycle *= factor;
        self.hot_access_rate *= factor;
        if factor < 1.0 {
            self.burstiness *= factor;
        }
        self
    }

    /// Expected fraction of row activations that serve exactly one access
    /// under an idealized open policy (used for calibration checks).
    #[must_use]
    pub fn expected_single_access_fraction(&self) -> f64 {
        1.0 - self.row_burst_prob
    }

    /// Per-core intensity multiplier implementing [`Self::core_imbalance`].
    ///
    /// Cores are split into four groups with intensities spread around 1.0;
    /// the mean over all cores stays 1.0 so the aggregate MPKI is preserved.
    #[must_use]
    pub fn intensity_factor(&self, core: usize) -> f64 {
        let group = (core % 4) as f64; // 0..=3
        1.0 + self.core_imbalance * (group - 1.5) / 1.5
    }

    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-range parameter.
    pub fn validate(&self) -> Result<(), String> {
        fn prob(name: &str, v: f64) -> Result<(), String> {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} ({v}) must be within [0, 1]"));
            }
            Ok(())
        }
        if self.cores == 0 {
            return Err(format!("cores ({}) must be non-zero", self.cores));
        }
        if self.data_mpki < 0.0 {
            return Err(format!(
                "data_mpki ({}) must be non-negative",
                self.data_mpki
            ));
        }
        if self.ifetch_mpki < 0.0 {
            return Err(format!(
                "ifetch_mpki ({}) must be non-negative",
                self.ifetch_mpki
            ));
        }
        prob("row_burst_prob", self.row_burst_prob)?;
        prob("store_fraction", self.store_fraction)?;
        prob("mlp_fraction", self.mlp_fraction)?;
        prob("shared_fraction", self.shared_fraction)?;
        if !(0.0..1.0).contains(&self.burstiness) {
            return Err(format!(
                "burstiness ({}) must be within [0, 1)",
                self.burstiness
            ));
        }
        if !(0.0..1.0).contains(&self.core_imbalance) {
            return Err(format!(
                "core_imbalance ({}) must be within [0, 1)",
                self.core_imbalance
            ));
        }
        if self.row_burst_len < 1.0 {
            return Err(format!(
                "row_burst_len ({}) must be at least 1",
                self.row_burst_len
            ));
        }
        if self.footprint_bytes < 1024 * 1024 {
            return Err(format!(
                "footprint_bytes ({}) must be at least 1 MiB",
                self.footprint_bytes
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_intensity_scales_rates_and_stays_valid() {
        let base = Workload::WebSearch.spec();
        let idle = base.with_intensity(0.01);
        idle.validate().unwrap();
        assert!((idle.data_mpki - base.data_mpki * 0.01).abs() < 1e-12);
        assert!((idle.ifetch_mpki - base.ifetch_mpki * 0.01).abs() < 1e-12);
        assert!((idle.hot_access_rate - base.hot_access_rate * 0.01).abs() < 1e-12);
        // Shape knobs are untouched.
        assert_eq!(idle.row_burst_prob, base.row_burst_prob);
        assert_eq!(idle.store_fraction, base.store_fraction);
        assert_eq!(idle.footprint_bytes, base.footprint_bytes);
        // Scaling up is allowed too and burstiness stays in range.
        let hot = base.with_intensity(2.0);
        hot.validate().unwrap();
        assert_eq!(hot.burstiness, base.burstiness);
    }

    /// The zero-rate boundary: `with_intensity(0.0)` must validate cleanly —
    /// every rate collapses to zero (burstiness included, keeping it inside
    /// its half-open range) and the generators tolerate the never-emitting
    /// stream (`tests/end_to_end.rs` pins the full-system half).
    #[test]
    fn with_intensity_zero_validates_cleanly() {
        for w in [Workload::WebSearch, Workload::WebFrontend, Workload::TpchQ6] {
            let zero = w.spec().with_intensity(0.0);
            zero.validate()
                .unwrap_or_else(|e| panic!("{w}: zero-rate spec must validate: {e}"));
            assert_eq!(zero.data_mpki, 0.0);
            assert_eq!(zero.ifetch_mpki, 0.0);
            assert_eq!(zero.dma_per_kcycle, 0.0);
            assert_eq!(zero.hot_access_rate, 0.0);
            assert_eq!(zero.burstiness, 0.0);
            // A stream built from it keeps producing (compute) ops.
            let mut stream = crate::generator::CoreStream::new(zero, 0, 1);
            for _ in 0..50 {
                match stream.next_op() {
                    cloudmc_cpu::CoreOp::Compute(n) => assert!(n >= 1),
                    cloudmc_cpu::CoreOp::Mem(_) => {}
                }
            }
        }
        // Negative factors clamp to zero rather than producing invalid specs.
        let clamped = Workload::WebSearch.spec().with_intensity(-1.0);
        clamped.validate().unwrap();
        assert_eq!(clamped.data_mpki, 0.0);
    }

    #[test]
    fn twelve_workloads_with_correct_categories() {
        assert_eq!(Workload::all().len(), 12);
        let scow = Workload::all()
            .iter()
            .filter(|w| w.category() == Category::ScaleOut)
            .count();
        let trsw = Workload::all()
            .iter()
            .filter(|w| w.category() == Category::Transactional)
            .count();
        let dspw = Workload::all()
            .iter()
            .filter(|w| w.category() == Category::DecisionSupport)
            .count();
        assert_eq!((scow, trsw, dspw), (6, 3, 3));
        assert_eq!(Workload::scale_out().len(), 6);
    }

    #[test]
    fn all_presets_validate() {
        for w in Workload::all() {
            let spec = w.spec();
            spec.validate().unwrap_or_else(|e| panic!("{w}: {e}"));
            assert_eq!(spec.workload, w);
        }
    }

    #[test]
    fn acronyms_round_trip_through_parsing() {
        for w in Workload::all() {
            let parsed: Workload = w.acronym().parse().unwrap();
            assert_eq!(parsed, w);
        }
        assert!("NOPE".parse::<Workload>().is_err());
    }

    #[test]
    fn category_mpki_ordering_matches_figure_4() {
        // DSPW > TRSW > SCOW in average L2 MPKI.
        let avg = |cat: Category| {
            let specs: Vec<f64> = Workload::all()
                .iter()
                .filter(|w| w.category() == cat)
                .map(|w| w.spec().data_mpki)
                .collect();
            specs.iter().sum::<f64>() / specs.len() as f64
        };
        let scow = avg(Category::ScaleOut);
        let trsw = avg(Category::Transactional);
        let dspw = avg(Category::DecisionSupport);
        assert!(scow < trsw, "SCOW {scow} should be below TRSW {trsw}");
        assert!(trsw < dspw, "TRSW {trsw} should be below DSPW {dspw}");
        assert!((2.5..6.5).contains(&scow));
        assert!((10.0..20.0).contains(&dspw));
    }

    #[test]
    fn single_access_fraction_is_in_papers_range() {
        for w in Workload::all() {
            let f = w.spec().expected_single_access_fraction();
            assert!(
                (0.75..=0.92).contains(&f),
                "{w}: single-access fraction {f} outside 75%-92%"
            );
        }
    }

    #[test]
    fn web_frontend_uses_eight_cores_and_dma() {
        let wf = Workload::WebFrontend.spec();
        assert_eq!(wf.cores, 8);
        assert!(wf.dma_per_kcycle > 0.0);
        assert!(Workload::DataServing.spec().dma_per_kcycle.abs() < f64::EPSILON);
    }

    #[test]
    fn intensity_factors_average_to_one() {
        let spec = Workload::MapReduce.spec();
        let avg: f64 = (0..16).map(|c| spec.intensity_factor(c)).sum::<f64>() / 16.0;
        assert!((avg - 1.0).abs() < 1e-9);
        // Imbalanced workloads actually spread the intensities.
        assert!(spec.intensity_factor(3) > spec.intensity_factor(0));
    }

    #[test]
    fn validate_catches_bad_values() {
        let mut s = Workload::DataServing.spec();
        s.row_burst_prob = 1.5;
        assert!(s.validate().is_err());
        s = Workload::DataServing.spec();
        s.core_imbalance = 1.0;
        assert!(s.validate().is_err());
        s = Workload::DataServing.spec();
        s.row_burst_len = 0.5;
        assert!(s.validate().is_err());
        s = Workload::DataServing.spec();
        s.footprint_bytes = 1024;
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_messages_include_the_offending_value() {
        let check = |mutate: fn(&mut WorkloadSpec), needle: &str| {
            let mut s = Workload::DataServing.spec();
            mutate(&mut s);
            let err = s.validate().unwrap_err();
            assert!(err.contains(needle), "`{err}` should contain `{needle}`");
        };
        check(|s| s.data_mpki = -3.5, "-3.5");
        check(|s| s.ifetch_mpki = -1.0, "-1");
        check(|s| s.row_burst_prob = 1.5, "1.5");
        check(|s| s.row_burst_len = 0.25, "0.25");
        check(|s| s.burstiness = 1.0, "1");
        check(|s| s.core_imbalance = 7.0, "7");
        check(|s| s.footprint_bytes = 2048, "2048");
    }
}
