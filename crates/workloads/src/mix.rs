//! Multi-tenant workload mixes.
//!
//! The paper's scale-out workloads never run alone on a consolidated cloud
//! node: a latency-critical service is co-located with batch analytics, and
//! the memory controller is exactly where they collide. A [`MixSpec`] binds
//! up to [`MAX_TENANTS`] heterogeneous [`WorkloadSpec`]s to contiguous core
//! groups of one simulated pod, tagging each with a [`TenantId`] and a
//! latency-criticality flag. The tag is minted here, carried through the
//! cores, caches and miss requests, and consumed by the memory controller's
//! QoS policies and the per-tenant statistics.

use crate::spec::{Workload, WorkloadSpec};

/// Identifier of one tenant of a mix (index into the mix's tenant list).
///
/// Single-tenant runs use tenant `0` everywhere.
pub type TenantId = usize;

/// Maximum number of tenants a mix may bind.
///
/// Fixed so that per-tenant accounting can live in flat arrays on the
/// simulator's hot path. `cloudmc-memctrl` pins the same bound for its
/// per-tenant counters; the simulator asserts the two stay equal.
pub const MAX_TENANTS: usize = 4;

/// One tenant of a mix: a workload model, its core allocation, and whether
/// the tenant is latency-critical (a user-facing service) or batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// The workload model; `workload.cores` is this tenant's core count.
    pub workload: WorkloadSpec,
    /// Whether the tenant is latency-critical. QoS policies may privilege
    /// latency-critical tenants; batch tenants absorb the slack.
    pub latency_critical: bool,
}

impl TenantSpec {
    /// A latency-critical tenant running `workload` on `cores` cores.
    #[must_use]
    pub fn latency_critical(workload: Workload, cores: usize) -> Self {
        let mut spec = workload.spec();
        spec.cores = cores;
        Self {
            workload: spec,
            latency_critical: true,
        }
    }

    /// A batch (throughput-oriented) tenant running `workload` on `cores`
    /// cores.
    #[must_use]
    pub fn batch(workload: Workload, cores: usize) -> Self {
        let mut spec = workload.spec();
        spec.cores = cores;
        Self {
            workload: spec,
            latency_critical: false,
        }
    }

    /// Number of cores allocated to this tenant.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.workload.cores
    }
}

/// A multi-tenant workload mix: up to [`MAX_TENANTS`] tenants bound to
/// contiguous core groups (tenant 0 owns the lowest core indices).
///
/// # Examples
///
/// ```
/// use cloudmc_workloads::{MixSpec, TenantSpec, Workload};
///
/// let mix = MixSpec::new(TenantSpec::latency_critical(Workload::WebSearch, 8))
///     .and(TenantSpec::batch(Workload::TpchQ6, 8));
/// assert_eq!(mix.tenant_count(), 2);
/// assert_eq!(mix.total_cores(), 16);
/// assert_eq!(mix.tenant_of_core(3), 0);
/// assert_eq!(mix.tenant_of_core(12), 1);
/// assert_eq!(mix.label(), "WS+TPCH-Q6");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixSpec {
    tenants: [Option<TenantSpec>; MAX_TENANTS],
}

impl MixSpec {
    /// A mix with a single tenant.
    #[must_use]
    pub fn new(first: TenantSpec) -> Self {
        Self {
            tenants: [Some(first), None, None, None],
        }
    }

    /// A single-tenant mix wrapping a plain workload spec (not latency-
    /// critical); the degenerate case every pre-tenancy run reduces to.
    #[must_use]
    pub fn solo(workload: WorkloadSpec) -> Self {
        Self::new(TenantSpec {
            workload,
            latency_critical: false,
        })
    }

    /// Appends another tenant (claiming the next core group).
    ///
    /// # Panics
    ///
    /// Panics if the mix already holds [`MAX_TENANTS`] tenants.
    #[must_use]
    pub fn and(mut self, tenant: TenantSpec) -> Self {
        #[expect(
            clippy::panic,
            reason = "documented builder contract: capacity is MAX_TENANTS"
        )]
        let slot = self
            .tenants
            .iter()
            .position(Option::is_none)
            .unwrap_or_else(|| panic!("a mix holds at most {MAX_TENANTS} tenants"));
        self.tenants[slot] = Some(tenant);
        self
    }

    /// Number of tenants in the mix (at least 1).
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.tenants.iter().flatten().count()
    }

    /// The spec of tenant `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented accessor contract: t must be in range"
    )]
    pub fn tenant(&self, t: TenantId) -> &TenantSpec {
        self.tenants[t].as_ref().expect("tenant index out of range")
    }

    /// Iterates over the tenants in id order.
    pub fn tenants(&self) -> impl Iterator<Item = &TenantSpec> {
        self.tenants.iter().flatten()
    }

    /// Total cores over all tenants.
    #[must_use]
    pub fn total_cores(&self) -> usize {
        self.tenants().map(TenantSpec::cores).sum()
    }

    /// The contiguous core range owned by tenant `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn core_range(&self, t: TenantId) -> std::ops::Range<usize> {
        let lo: usize = self.tenants().take(t).map(TenantSpec::cores).sum();
        lo..lo + self.tenant(t).cores()
    }

    /// The tenant owning global core index `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is beyond the mix's total core count.
    #[must_use]
    #[expect(
        clippy::panic,
        reason = "documented accessor contract: core must be in range"
    )]
    pub fn tenant_of_core(&self, core: usize) -> TenantId {
        let mut lo = 0;
        for (t, tenant) in self.tenants().enumerate() {
            lo += tenant.cores();
            if core < lo {
                return t;
            }
        }
        panic!("core {core} beyond the mix's {lo} cores");
    }

    /// Whether tenant `t` is latency-critical.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn is_latency_critical(&self, t: TenantId) -> bool {
        self.tenant(t).latency_critical
    }

    /// Workload acronym of tenant `t` (the per-tenant label used in stats).
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn tenant_label(&self, t: TenantId) -> &'static str {
        self.tenant(t).workload.workload.acronym()
    }

    /// Human-readable mix label, e.g. `WS+TPCH-Q6` (the acronym alone for a
    /// single tenant).
    #[must_use]
    pub fn label(&self) -> String {
        let labels: Vec<&str> = self
            .tenants()
            .map(|t| t.workload.workload.acronym())
            .collect();
        labels.join("+")
    }

    /// Validates the mix: every tenant's workload spec must validate and the
    /// core allocation must be sane.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency, including the
    /// offending value.
    pub fn validate(&self) -> Result<(), String> {
        if self.tenant_count() == 0 {
            return Err("a mix must bind at least one tenant".to_owned());
        }
        for (t, tenant) in self.tenants().enumerate() {
            tenant
                .workload
                .validate()
                .map_err(|e| format!("tenant {t} ({}): {e}", self.tenant_label(t)))?;
        }
        let total = self.total_cores();
        if total > 64 {
            return Err(format!(
                "mix binds {total} cores in total, which is unreasonably large (max 64)"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tenant_mix() -> MixSpec {
        MixSpec::new(TenantSpec::latency_critical(Workload::WebSearch, 8))
            .and(TenantSpec::batch(Workload::TpchQ6, 8))
    }

    #[test]
    fn solo_mix_mirrors_the_plain_spec() {
        let spec = Workload::DataServing.spec();
        let mix = MixSpec::solo(spec);
        assert_eq!(mix.tenant_count(), 1);
        assert_eq!(mix.total_cores(), spec.cores);
        assert_eq!(mix.label(), "DS");
        assert!(!mix.is_latency_critical(0));
        assert_eq!(mix.core_range(0), 0..spec.cores);
        mix.validate().unwrap();
    }

    #[test]
    fn core_groups_are_contiguous_and_exhaustive() {
        let mix = two_tenant_mix().and(TenantSpec::batch(Workload::TpcC1, 4));
        assert_eq!(mix.tenant_count(), 3);
        assert_eq!(mix.total_cores(), 20);
        assert_eq!(mix.core_range(0), 0..8);
        assert_eq!(mix.core_range(1), 8..16);
        assert_eq!(mix.core_range(2), 16..20);
        for core in 0..20 {
            let t = mix.tenant_of_core(core);
            assert!(mix.core_range(t).contains(&core));
        }
    }

    #[test]
    fn latency_criticality_and_labels() {
        let mix = two_tenant_mix();
        assert!(mix.is_latency_critical(0));
        assert!(!mix.is_latency_critical(1));
        assert_eq!(mix.tenant_label(0), "WS");
        assert_eq!(mix.tenant_label(1), "TPCH-Q6");
        assert_eq!(mix.label(), "WS+TPCH-Q6");
    }

    #[test]
    fn validate_reports_offending_tenant() {
        let mut bad = Workload::WebSearch.spec();
        bad.cores = 4;
        bad.row_burst_prob = 2.0;
        let mix = MixSpec::new(TenantSpec::batch(Workload::TpchQ6, 8)).and(TenantSpec {
            workload: bad,
            latency_critical: true,
        });
        let err = mix.validate().unwrap_err();
        assert!(err.contains("tenant 1"), "{err}");
        assert!(err.contains("WS"), "{err}");
        assert!(err.contains('2'), "{err}");
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn more_than_max_tenants_panics() {
        let mut mix = MixSpec::new(TenantSpec::batch(Workload::WebSearch, 2));
        for _ in 0..MAX_TENANTS {
            mix = mix.and(TenantSpec::batch(Workload::TpchQ6, 2));
        }
    }

    #[test]
    fn oversubscribed_mix_fails_validation() {
        let mix = MixSpec::new(TenantSpec::batch(Workload::WebSearch, 40))
            .and(TenantSpec::batch(Workload::TpchQ6, 40));
        let err = mix.validate().unwrap_err();
        assert!(err.contains("80"), "{err}");
    }
}
