//! Deterministic DRAM fault injection.
//!
//! The model covers the three fault classes that matter for the paper's
//! cloud-consolidation scenarios:
//!
//! * **Transient bit flips** (retention/particle upsets), injected per read
//!   with a probability scaled by the rank's accumulated power-state
//!   residency — a rank that has spent most of its life in self-refresh or
//!   slow power-down carries a higher retention-error weight than one held
//!   in active standby, which is exactly the coupling the power policies of
//!   the controller trade off against.
//! * **Stuck-at cells**: planted rows whose reads always return a
//!   single-bit (SEC-correctable) error until the controller retires the row.
//! * **Hard row faults**: planted rows whose reads are always
//!   multi-bit (detected-uncorrectable) until retirement.
//!
//! Everything is a pure function of the configured seed and the observable
//! simulation state (request id, retry attempt, location, closed-form power
//! residency). There is **no stateful RNG stream**, so injection decisions
//! are bit-identical whether the kernel ticks every cycle or fast-forwards.
//!
//! The model keeps a conservation ledger: every fault it ever materializes
//! is `injected`, and at all times `injected = corrected + uncorrectable +
//! latent` (planted sites count as injected-and-latent at construction and
//! move to corrected/uncorrectable on first discovery; transient flips are
//! injected and resolved at the same instant).

use std::collections::BTreeSet;

use cloudmc_snap::{counter_fields, snap_fields, SnapError, SnapReader};

use crate::rank::PowerResidency;
use crate::timing::DramCycles;

/// What the controller does when ECC detects an uncorrectable error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UncorrectablePolicy {
    /// Record a typed error and surface it from the simulation run — the
    /// machine-check model. The simulation itself never panics.
    FailStop,
    /// Mark the cache line poisoned, keep running, and account every
    /// subsequent read of the poisoned line.
    PoisonAndContinue,
}

/// Configuration of the fault-injection model. The controller gives every
/// channel its own injector with a seed derived from [`FaultConfig::seed`]
/// and the channel index, so channels fail independently.
///
/// All rates are integers (fixed point or per-mille) so the configuration is
/// `Copy`, hashable and float-free — injection arithmetic stays exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultConfig {
    /// Seed for all injection decisions (independent of the workload seed).
    pub seed: u64,
    /// Per-read transient-flip probability at unit vulnerability weight, as
    /// a binary fixed-point fraction times 2^32 (`2^32` = certainty). The
    /// effective per-read probability is this rate times the residency-
    /// weighted vulnerability of the target rank.
    pub transient_rate_fp: u64,
    /// Vulnerability weight while in active standby.
    pub weight_active: u32,
    /// Vulnerability weight while in precharge standby.
    pub weight_precharge: u32,
    /// Vulnerability weight while in fast-exit power-down.
    pub weight_pd_fast: u32,
    /// Vulnerability weight while in slow-exit (DLL-off) power-down.
    pub weight_pd_slow: u32,
    /// Vulnerability weight while in self-refresh (retention-dominated).
    pub weight_self_refresh: u32,
    /// Of injected transient faults, the per-mille share that are multi-bit
    /// (beyond SEC correction).
    pub uncorrectable_permille: u32,
    /// Of multi-bit faults, the per-mille share that alias to a valid
    /// codeword and silently miscorrect instead of being detected.
    pub miscorrect_permille: u32,
    /// Stuck-at (always-correctable) rows planted per rank.
    pub stuck_rows_per_rank: u32,
    /// Hard (always-uncorrectable) rows planted per rank.
    pub hard_rows_per_rank: u32,
    /// DRAM cycles between patrol-scrub reads; `0` disables scrubbing.
    pub scrub_interval: DramCycles,
    /// Corrected errors observed on one row before it is retired.
    pub retire_threshold: u32,
    /// Demand re-reads the controller issues after a corrected error before
    /// accepting the (corrected) data.
    pub max_demand_retries: u32,
    /// Base backoff before a demand retry, in DRAM cycles (doubles per
    /// attempt).
    pub retry_backoff: DramCycles,
    /// Policy on detected-uncorrectable errors.
    pub on_uncorrectable: UncorrectablePolicy,
}

impl FaultConfig {
    /// A conservative default: transient injection enabled at roughly one
    /// flip per hundred thousand reads (at unit weight), retention-weighted
    /// toward the low-power states, scrubbing off, poison-and-continue.
    #[must_use]
    pub fn baseline() -> Self {
        Self {
            seed: 1,
            transient_rate_fp: Self::rate_per_million_reads(10),
            weight_active: 1,
            weight_precharge: 1,
            weight_pd_fast: 2,
            weight_pd_slow: 4,
            weight_self_refresh: 8,
            uncorrectable_permille: 50,
            miscorrect_permille: 20,
            stuck_rows_per_rank: 0,
            hard_rows_per_rank: 0,
            scrub_interval: 0,
            retire_threshold: 4,
            max_demand_retries: 2,
            retry_backoff: 8,
            on_uncorrectable: UncorrectablePolicy::PoisonAndContinue,
        }
    }

    /// Fixed-point transient rate for `n` expected flips per million reads
    /// at unit vulnerability weight.
    #[must_use]
    pub fn rate_per_million_reads(n: u64) -> u64 {
        n * ((1u64 << 32) / 1_000_000)
    }

    /// Sum of the per-state vulnerability weights (used to check the model
    /// is not configured entirely inert by accident).
    #[must_use]
    pub fn total_weight(&self) -> u64 {
        u64::from(self.weight_active)
            + u64::from(self.weight_precharge)
            + u64::from(self.weight_pd_fast)
            + u64::from(self.weight_pd_slow)
            + u64::from(self.weight_self_refresh)
    }

    /// Validates the configuration against the DRAM geometry it will be
    /// applied to.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self, banks_per_rank: usize, rows_per_bank: u64) -> Result<(), String> {
        if self.uncorrectable_permille > 1000 {
            return Err(format!(
                "uncorrectable_permille ({}) must be at most 1000",
                self.uncorrectable_permille
            ));
        }
        if self.miscorrect_permille > 1000 {
            return Err(format!(
                "miscorrect_permille ({}) must be at most 1000",
                self.miscorrect_permille
            ));
        }
        if self.retire_threshold == 0 {
            return Err("retire_threshold must be non-zero".to_owned());
        }
        if self.transient_rate_fp > 0 && self.total_weight() == 0 {
            return Err(
                "transient rate is non-zero but every vulnerability weight is 0".to_owned(),
            );
        }
        let rows_per_rank = banks_per_rank as u64 * rows_per_bank;
        let planted = u64::from(self.stuck_rows_per_rank) + u64::from(self.hard_rows_per_rank);
        if planted > rows_per_rank / 2 {
            return Err(format!(
                "planted faulty rows per rank ({planted}) exceed half the rank ({rows_per_rank} rows)"
            ));
        }
        Ok(())
    }
}

/// ECC-visible outcome of one read through the fault model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFault {
    /// Data returned clean.
    None,
    /// A single-bit error occurred and SEC corrected it.
    Corrected,
    /// A multi-bit error occurred.
    Uncorrectable {
        /// `true` when the error aliased to a valid codeword: ECC silently
        /// "corrected" to wrong data instead of detecting the fault.
        miscorrected: bool,
    },
}

/// Conservation ledger over every fault the model has materialized.
///
/// Invariant (checked by `tests/reliability_invariants.rs`):
/// `injected == corrected + uncorrectable + latent` at every observation
/// point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultLedger {
    /// Faults materialized: every transient flip plus every planted site.
    pub injected: u64,
    /// Faults resolved by SEC correction (transient flips classified
    /// correctable, and planted stuck rows on first discovery).
    pub corrected: u64,
    /// Faults that escaped correction (detected-uncorrectable or silently
    /// miscorrected), including planted hard rows on first discovery.
    pub uncorrectable: u64,
    /// Planted sites not yet touched by any read (demand or scrub).
    pub latent: u64,
}

/// A faulty-row key within one channel: `(rank, bank, row)`.
type RowKey = (usize, usize, u64);

/// Deterministic fault injector for one DRAM channel.
///
/// Owned by the memory controller's channel state; the controller passes
/// every read completion (demand and scrub) through
/// [`FaultModel::classify_read`] and reacts to the returned [`ReadFault`].
#[derive(Debug, Clone)]
pub struct FaultModel {
    cfg: FaultConfig,
    /// Planted always-correctable (stuck-at single bit) rows.
    stuck: BTreeSet<RowKey>,
    /// Planted always-uncorrectable (multi-bit hard) rows.
    hard: BTreeSet<RowKey>,
    /// Planted rows already surfaced by at least one read.
    discovered: BTreeSet<RowKey>,
    ledger: FaultLedger,
}

/// The finalizer of `SplitMix64`: a cheap, high-quality 64-bit mixer used to
/// derive every injection decision from `(seed, id, attempt, location)`.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultModel {
    /// Builds the injector for one channel of the given geometry, planting
    /// the configured stuck/hard rows at seed-derived locations. The caller
    /// hands each channel a config whose seed is already its own.
    #[must_use]
    pub fn new(cfg: FaultConfig, ranks: usize, banks_per_rank: usize, rows_per_bank: u64) -> Self {
        let mut stuck = BTreeSet::new();
        let mut hard = BTreeSet::new();
        let plant = |set: &mut BTreeSet<RowKey>, tag: u64, count: u32| {
            for rank in 0..ranks {
                let mut planted = 0u32;
                let mut salt = 0u64;
                while planted < count {
                    let h = splitmix64(
                        cfg.seed ^ tag.wrapping_mul(0x5183_9A0B) ^ ((rank as u64) << 40) ^ salt,
                    );
                    let bank = (h as usize) % banks_per_rank;
                    let row = (h >> 32) % rows_per_bank;
                    // Re-roll collisions (with this set or the sibling set)
                    // so the planted count is exact.
                    if set.insert((rank, bank, row)) {
                        planted += 1;
                    }
                    salt += 1;
                }
            }
        };
        plant(&mut stuck, 1, cfg.stuck_rows_per_rank);
        plant(&mut hard, 2, cfg.hard_rows_per_rank);
        hard.retain(|k| !stuck.contains(k));
        // Exact replanting of hard rows displaced by a stuck collision would
        // complicate nothing but the bookkeeping; with realistic counts
        // (a handful of rows out of 2^21) collisions essentially never
        // happen, and the ledger counts what was actually planted.
        let planted = (stuck.len() + hard.len()) as u64;
        Self {
            cfg,
            stuck,
            hard,
            discovered: BTreeSet::new(),
            ledger: FaultLedger {
                injected: planted,
                latent: planted,
                ..FaultLedger::default()
            },
        }
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// The conservation ledger so far.
    #[must_use]
    pub fn ledger(&self) -> FaultLedger {
        self.ledger
    }

    /// Residency-weighted vulnerability threshold in 2^-32 units: the
    /// transient rate scaled by the average per-state weight of the rank's
    /// lifetime so far. Pure integer arithmetic, exact under fast-forward
    /// because [`PowerResidency`] is closed-form.
    #[expect(
        clippy::expect_used,
        reason = "value clamped to u64::MAX on the previous line"
    )]
    fn transient_threshold_fp(&self, residency: &PowerResidency) -> u64 {
        let total = residency.total();
        if total == 0 || self.cfg.transient_rate_fp == 0 {
            return self.cfg.transient_rate_fp;
        }
        let weighted: u128 = u128::from(residency.active_standby)
            * u128::from(self.cfg.weight_active)
            + u128::from(residency.precharge_standby) * u128::from(self.cfg.weight_precharge)
            + u128::from(residency.power_down_fast) * u128::from(self.cfg.weight_pd_fast)
            + u128::from(residency.power_down_slow) * u128::from(self.cfg.weight_pd_slow)
            + u128::from(residency.self_refresh) * u128::from(self.cfg.weight_self_refresh);
        let fp = u128::from(self.cfg.transient_rate_fp) * weighted / u128::from(total);
        u64::try_from(fp.min(u128::from(u64::MAX))).expect("clamped above")
    }

    /// Classifies one read of `loc` for request `id` on retry `attempt`,
    /// given the target rank's power-state residency at the completion
    /// cycle. Advances the ledger.
    ///
    /// Deterministic: the outcome is a pure function of the seed and the
    /// arguments, so replaying the same simulation reproduces the same
    /// faults regardless of how the kernel drives the clock.
    pub fn classify_read(
        &mut self,
        id: u64,
        attempt: u32,
        loc_rank: usize,
        loc_bank: usize,
        loc_row: u64,
        residency: &PowerResidency,
    ) -> ReadFault {
        let key = (loc_rank, loc_bank, loc_row);
        if self.hard.contains(&key) {
            self.discover(key);
            return ReadFault::Uncorrectable {
                miscorrected: false,
            };
        }
        if self.stuck.contains(&key) {
            let first = self.discover(key);
            if first {
                self.ledger.corrected += 1;
                // `discover` moved the site out of latent; credit it to the
                // corrected bucket (stuck cells are single-bit).
            }
            return ReadFault::Corrected;
        }
        let h = splitmix64(
            self.cfg.seed
                ^ id.wrapping_mul(0x9E37_79B9)
                ^ (u64::from(attempt) << 56)
                ^ ((loc_rank as u64) << 50)
                ^ ((loc_bank as u64) << 44)
                ^ loc_row.wrapping_mul(0x0001_0000_0001),
        );
        let threshold = self.transient_threshold_fp(residency);
        if u64::from((h >> 32) as u32) >= threshold.min(1 << 32) {
            return ReadFault::None;
        }
        self.ledger.injected += 1;
        let class_roll = h % 1000;
        if class_roll < u64::from(self.cfg.uncorrectable_permille) {
            self.ledger.uncorrectable += 1;
            let mis_roll = (h / 1000) % 1000;
            ReadFault::Uncorrectable {
                miscorrected: mis_roll < u64::from(self.cfg.miscorrect_permille),
            }
        } else {
            self.ledger.corrected += 1;
            ReadFault::Corrected
        }
    }

    /// Marks a planted site discovered; moves it out of the latent bucket.
    /// Returns whether this was the first discovery. Hard rows are credited
    /// to the uncorrectable bucket here; stuck rows are credited by the
    /// caller (they resolve as corrected).
    fn discover(&mut self, key: RowKey) -> bool {
        if self.discovered.insert(key) {
            self.ledger.latent -= 1;
            if self.hard.contains(&key) {
                self.ledger.uncorrectable += 1;
            }
            true
        } else {
            false
        }
    }

    /// Whether `(rank, bank, row)` hosts a planted (stuck or hard) site.
    #[must_use]
    pub fn is_planted(&self, rank: usize, bank: usize, row: u64) -> bool {
        let key = (rank, bank, row);
        self.stuck.contains(&key) || self.hard.contains(&key)
    }

    /// Every restored discovered site must be planted in this configuration.
    fn check_restored(&mut self, r: &SnapReader<'_>) -> Result<(), SnapError> {
        if let Some(key) = self
            .discovered
            .iter()
            .find(|key| !self.stuck.contains(key) && !self.hard.contains(key))
        {
            return Err(r.bad_value(format!(
                "discovered site {key:?} is not planted in this configuration"
            )));
        }
        Ok(())
    }
}

counter_fields!(FaultLedger {
    injected,
    corrected,
    uncorrectable,
    latent
});

snap_fields! {
    FaultModel {
        section: "fault-model",
        saved: { discovered, ledger },
        skipped: {
            cfg: "config-derived",
            stuck: "deterministically re-planted from the seeded fault config",
            hard: "deterministically re-planted from the seeded fault config",
        },
        after_load: Self::check_restored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_with_rate(per_million: u64) -> FaultConfig {
        FaultConfig {
            transient_rate_fp: FaultConfig::rate_per_million_reads(per_million),
            ..FaultConfig::baseline()
        }
    }

    fn active_residency(cycles: u64) -> PowerResidency {
        PowerResidency {
            active_standby: cycles,
            ..PowerResidency::default()
        }
    }

    #[test]
    fn zero_rate_and_no_planted_rows_never_fault() {
        let mut m = FaultModel::new(cfg_with_rate(0), 2, 8, 1 << 18);
        for id in 0..10_000u64 {
            let f = m.classify_read(id, 0, 0, 0, id % 128, &active_residency(1_000_000));
            assert_eq!(f, ReadFault::None);
        }
        assert_eq!(m.ledger(), FaultLedger::default());
    }

    #[test]
    fn high_rate_injects_and_ledger_conserves() {
        let mut m = FaultModel::new(cfg_with_rate(100_000), 2, 8, 1 << 18);
        let res = active_residency(50_000);
        let mut corrected = 0u64;
        let mut uncorrectable = 0u64;
        for id in 0..20_000u64 {
            match m.classify_read(id, 0, (id % 2) as usize, 0, id % 1024, &res) {
                ReadFault::None => {}
                ReadFault::Corrected => corrected += 1,
                ReadFault::Uncorrectable { .. } => uncorrectable += 1,
            }
        }
        let ledger = m.ledger();
        assert!(ledger.injected > 0, "10% rate must inject within 20k reads");
        assert_eq!(ledger.corrected, corrected);
        assert_eq!(ledger.uncorrectable, uncorrectable);
        assert_eq!(
            ledger.injected,
            ledger.corrected + ledger.uncorrectable + ledger.latent
        );
        assert_eq!(ledger.latent, 0);
    }

    #[test]
    fn classification_is_a_pure_function_of_the_inputs() {
        let mk = || FaultModel::new(cfg_with_rate(50_000), 2, 8, 1 << 18);
        let mut a = mk();
        let mut b = mk();
        let res = active_residency(123_456);
        for id in 0..5_000u64 {
            assert_eq!(
                a.classify_read(id, 0, 0, 3, id, &res),
                b.classify_read(id, 0, 0, 3, id, &res)
            );
        }
        assert_eq!(a.ledger(), b.ledger());
    }

    #[test]
    fn retry_attempt_rerolls_the_outcome() {
        let mut m = FaultModel::new(cfg_with_rate(500_000), 2, 8, 1 << 18);
        let res = active_residency(10_000);
        // Find an id that faults on attempt 0, then check some attempt
        // clears it — a transient must not be sticky across retries.
        let mut cleared = false;
        for id in 0..10_000u64 {
            if m.classify_read(id, 0, 0, 0, 7, &res) != ReadFault::None {
                for attempt in 1..=8u32 {
                    if m.classify_read(id, attempt, 0, 0, 7, &res) == ReadFault::None {
                        cleared = true;
                        break;
                    }
                }
                if cleared {
                    break;
                }
            }
        }
        assert!(cleared, "retries must re-roll transient outcomes");
    }

    #[test]
    fn residency_weighting_raises_the_self_refresh_rate() {
        let cfg = cfg_with_rate(10_000);
        let mut active = FaultModel::new(cfg, 2, 8, 1 << 18);
        let mut retention = FaultModel::new(cfg, 2, 8, 1 << 18);
        let res_active = active_residency(1_000_000);
        let res_sleep = PowerResidency {
            self_refresh: 1_000_000,
            ..PowerResidency::default()
        };
        let mut n_active = 0u64;
        let mut n_sleep = 0u64;
        for id in 0..200_000u64 {
            if active.classify_read(id, 0, 0, 0, id % 512, &res_active) != ReadFault::None {
                n_active += 1;
            }
            if retention.classify_read(id, 0, 0, 0, id % 512, &res_sleep) != ReadFault::None {
                n_sleep += 1;
            }
        }
        assert!(
            n_sleep > n_active * 4,
            "self-refresh weight 8x must dominate ({n_sleep} vs {n_active})"
        );
    }

    #[test]
    fn planted_rows_are_latent_until_discovered() {
        let cfg = FaultConfig {
            stuck_rows_per_rank: 3,
            hard_rows_per_rank: 2,
            transient_rate_fp: 0,
            ..FaultConfig::baseline()
        };
        let mut m = FaultModel::new(cfg, 2, 8, 1 << 18);
        let ledger = m.ledger();
        assert_eq!(ledger.injected, 10); // (3 stuck + 2 hard) x 2 ranks
        assert_eq!(ledger.latent, 10);
        // Sweep every row of every bank: a full patrol pass discovers all.
        let res = active_residency(1);
        let mut stuck_hits = 0u64;
        let mut hard_hits = 0u64;
        for rank in 0..2 {
            for bank in 0..8 {
                for row in 0..(1u64 << 18) {
                    if !m.is_planted(rank, bank, row) {
                        continue;
                    }
                    match m.classify_read(0, 0, rank, bank, row, &res) {
                        ReadFault::Corrected => stuck_hits += 1,
                        ReadFault::Uncorrectable { .. } => hard_hits += 1,
                        ReadFault::None => panic!("planted site read clean"),
                    }
                }
            }
        }
        assert_eq!(stuck_hits, 6);
        assert_eq!(hard_hits, 4);
        let after = m.ledger();
        assert_eq!(after.latent, 0);
        assert_eq!(after.corrected, 6);
        assert_eq!(after.uncorrectable, 4);
        assert_eq!(
            after.injected,
            after.corrected + after.uncorrectable + after.latent
        );
        // Repeat reads keep returning the fault but the ledger is settled.
        let again = m.classify_read(1, 0, 0, 0, 0, &res);
        let _ = again;
        assert_eq!(m.ledger().injected, after.injected);
    }

    #[test]
    fn validate_rejects_inconsistent_configs() {
        let mut cfg = FaultConfig::baseline();
        cfg.validate(8, 1 << 18).unwrap();
        cfg.uncorrectable_permille = 1001;
        assert!(cfg.validate(8, 1 << 18).is_err());
        let mut cfg = FaultConfig::baseline();
        cfg.retire_threshold = 0;
        assert!(cfg.validate(8, 1 << 18).is_err());
        let mut cfg = FaultConfig::baseline();
        cfg.weight_active = 0;
        cfg.weight_precharge = 0;
        cfg.weight_pd_fast = 0;
        cfg.weight_pd_slow = 0;
        cfg.weight_self_refresh = 0;
        assert!(cfg.validate(8, 1 << 18).is_err());
        let mut cfg = FaultConfig::baseline();
        cfg.stuck_rows_per_rank = u32::MAX;
        assert!(cfg.validate(8, 1 << 18).is_err());
    }
}
