//! Multi-tenant QoS policies for the memory controller.
//!
//! On a consolidated cloud node the memory controller is where tenants
//! collide: a latency-critical service's sparse reads queue behind a batch
//! job's bandwidth-bound stream, and mean latency hides the damage. The QoS
//! layer gives the controller a tenant-aware lever without rewriting any
//! scheduler: each cycle the [`QosArbiter`] gets *first claim* on the command
//! slot and may issue a command for a tenant the policy wants to privilege;
//! only when it declines does the configured scheduling algorithm (FR-FCFS,
//! FCFS-banks, PAR-BS, ATLAS, RL — all five compose unchanged) pick as usual.
//! The arbiter never blocks anyone: if the privileged tenants have nothing
//! ready the slot falls through, so the controller stays work-conserving.
//!
//! Two policies are implemented on top of that slot:
//!
//! * [`QosPolicyKind::PriorityBoost`] — latency-critical tenants always get
//!   the slot first. The strongest protection and the bluntest: batch
//!   tenants absorb whatever slack remains.
//! * [`QosPolicyKind::StaticPartition`] — each tenant is entitled to a fixed
//!   share of the *delivered* bandwidth (weights default to core counts).
//!   The arbiter tracks per-tenant service within an epoch and claims the
//!   slot for the most under-served tenant; tenants at or above their share
//!   are never boosted, only scheduled normally.
//!
//! ## Fast-forward safety
//!
//! The arbiter tests its candidates through `sched::progress_for` on the
//! scheduler's own context, so a cycle on which neither issues leaves the
//! earliest cycle any candidate of either becomes legal in the context's
//! wait bound, and the controller skips the channel up to it. Without an
//! issue, the candidate set changes only at an epoch roll, which restarts
//! every deficit at zero and so empties the static-partition set: a bound
//! taken before the roll is early, never late. Epoch bookkeeping is caught
//! up lazily from `now` (`while now >= boundary`) exactly like scheduler
//! quanta, and service counters only change when commands issue — which
//! never happens inside a skipped window.

use std::cmp::Reverse;

use cloudmc_dram::DramCycles;
use cloudmc_snap::{snap_fields, SnapError, SnapReader};

use crate::request::{TenantId, MAX_TENANTS};
use crate::sched::{first_ready, SchedContext, SchedDecision};

/// Identifier for constructing QoS policies by name (used by the experiment
/// harness to sweep policies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QosPolicyKind {
    /// No QoS: tenants share the controller on the scheduler's terms alone
    /// (the pre-tenancy behaviour and the default).
    None,
    /// Deficit-based static bandwidth partitioning: under-served tenants
    /// (relative to their configured share of delivered bandwidth) get the
    /// command slot first.
    StaticPartition,
    /// Latency-critical tenants get the command slot first, unconditionally.
    PriorityBoost,
}

impl QosPolicyKind {
    /// Every implemented policy, in sweep order.
    #[must_use]
    pub fn all() -> [Self; 3] {
        [Self::None, Self::StaticPartition, Self::PriorityBoost]
    }

    /// Canonical short name used in figures and JSON.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::None => "none",
            Self::StaticPartition => "static-partition",
            Self::PriorityBoost => "priority-boost",
        }
    }
}

impl std::fmt::Display for QosPolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for QosPolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "none" => Ok(Self::None),
            "static-partition" | "partition" => Ok(Self::StaticPartition),
            "priority-boost" | "boost" => Ok(Self::PriorityBoost),
            other => Err(format!("unknown QoS policy `{other}`")),
        }
    }
}

/// Configuration of the QoS layer of one controller.
///
/// `tenants`, `latency_critical` and `share` matter only for a standalone
/// controller, whose users fill them by hand: the full-system simulator
/// overwrites all three from the workload mix whatever they hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosConfig {
    /// Which policy arbitrates the command slot.
    pub policy: QosPolicyKind,
    /// Number of active tenants (1 disables all arbitration).
    pub tenants: usize,
    /// Whether each tenant is latency-critical (drives `PriorityBoost`).
    pub latency_critical: [bool; MAX_TENANTS],
    /// Relative bandwidth weights per tenant (drive `StaticPartition`; the
    /// full-system simulator sets them to the tenants' core counts).
    /// Weights of inactive slots are ignored.
    pub share: [u32; MAX_TENANTS],
    /// Service-accounting epoch in DRAM cycles: per-tenant service counters
    /// reset at every boundary so stale history cannot dominate.
    pub epoch: DramCycles,
}

impl QosConfig {
    /// Single-tenant configuration with QoS disabled (the default).
    #[must_use]
    pub fn none() -> Self {
        Self {
            policy: QosPolicyKind::None,
            tenants: 1,
            latency_critical: [false; MAX_TENANTS],
            share: [1; MAX_TENANTS],
            epoch: 16_384,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.tenants == 0 || self.tenants > MAX_TENANTS {
            return Err(format!(
                "qos.tenants ({}) must be within 1..={MAX_TENANTS}",
                self.tenants
            ));
        }
        if self.epoch == 0 {
            return Err("qos.epoch must be non-zero".to_owned());
        }
        if self.policy == QosPolicyKind::StaticPartition
            && self.share[..self.tenants].iter().all(|&w| w == 0)
        {
            return Err(format!(
                "static partitioning needs a non-zero share for at least one of {} tenants",
                self.tenants
            ));
        }
        Ok(())
    }
}

impl Default for QosConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// Per-channel QoS arbiter state: the policy plus this epoch's service
/// accounting.
#[derive(Debug)]
pub struct QosArbiter {
    cfg: QosConfig,
    /// Column accesses (one cache-block transfer each) issued per tenant
    /// since the epoch started.
    served: [u64; MAX_TENANTS],
    /// Sum of `served` (cached to keep deficit math O(tenants)).
    total_served: u64,
    epoch_start: DramCycles,
}

impl QosArbiter {
    /// Creates the arbiter for `cfg`.
    #[must_use]
    pub fn new(cfg: QosConfig) -> Self {
        Self {
            cfg,
            served: [0; MAX_TENANTS],
            total_served: 0,
            epoch_start: 0,
        }
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &QosConfig {
        &self.cfg
    }

    /// The restored per-tenant counts must add up to their cached sum.
    fn check_restored(&mut self, r: &SnapReader<'_>) -> Result<(), SnapError> {
        if self
            .served
            .iter()
            .try_fold(0u64, |sum, &s| sum.checked_add(s))
            != Some(self.total_served)
        {
            return Err(r.bad_value("served totals do not sum to total_served"));
        }
        Ok(())
    }

    /// Whether the arbiter can ever claim the slot.
    fn active(&self) -> bool {
        self.cfg.policy != QosPolicyKind::None && self.cfg.tenants > 1
    }

    /// Charges one column access (one cache-block transfer) to `tenant`.
    /// The controller calls this for *every* data transfer it issues,
    /// scheduler-picked or arbiter-picked, so the accounting sees the whole
    /// bandwidth.
    pub fn on_issue(&mut self, tenant: TenantId) {
        if self.active() && tenant < MAX_TENANTS {
            self.served[tenant] += 1;
            self.total_served += 1;
        }
    }

    /// Catch-up epoch roll: one call at a later `now` leaves the arbiter in
    /// the same state as a call per cycle would have (the kernel may skip
    /// provably eventless cycles).
    fn roll_epoch(&mut self, now: DramCycles) {
        while now >= self.epoch_start + self.cfg.epoch {
            self.epoch_start += self.cfg.epoch;
            self.served = [0; MAX_TENANTS];
            self.total_served = 0;
        }
    }

    /// The tenants to try first this cycle, most privileged first; the count
    /// of valid entries is returned alongside the (fixed-size) buffer.
    fn preference_order(&self) -> ([TenantId; MAX_TENANTS], usize) {
        let mut order = [0; MAX_TENANTS];
        let mut n = 0;
        match self.cfg.policy {
            QosPolicyKind::None => {}
            QosPolicyKind::PriorityBoost => {
                for t in 0..self.cfg.tenants {
                    if self.cfg.latency_critical[t] {
                        order[n] = t;
                        n += 1;
                    }
                }
            }
            QosPolicyKind::StaticPartition => {
                // Deficit of tenant t: its share of the bandwidth actually
                // delivered this epoch, minus what it received. Positive
                // deficit = under-served. Integer math keeps this exact.
                let total_share: u64 = self.cfg.share[..self.cfg.tenants]
                    .iter()
                    .map(|&w| u64::from(w))
                    .sum();
                if total_share == 0 {
                    return (order, 0);
                }
                let mut deficits = [0u64; MAX_TENANTS];
                let mut candidates: [TenantId; MAX_TENANTS] = [0; MAX_TENANTS];
                for (t, deficit) in deficits.iter_mut().enumerate().take(self.cfg.tenants) {
                    let target = share_of(self.total_served, self.cfg.share[t], total_share);
                    *deficit = target.saturating_sub(self.served[t]);
                    if *deficit > 0 {
                        candidates[n] = t;
                        n += 1;
                    }
                }
                // Most under-served first; ties break on tenant id so the
                // order (and with it the whole simulation) is deterministic.
                candidates[..n].sort_unstable_by_key(|&t| (Reverse(deficits[t]), t));
                order = candidates;
            }
        }
        (order, n)
    }

    /// Claims the command slot for a privileged tenant, or declines.
    ///
    /// Tries each preferred tenant's pending requests (in the queue the
    /// controller is currently serving) through the same work-conserving
    /// first-ready skeleton the baseline scheduler uses; the first tenant
    /// with a legal command wins the slot. Returns `None` when no privileged
    /// tenant has anything ready — the scheduler then picks as usual.
    pub fn pick(&mut self, ctx: &SchedContext<'_>) -> Option<SchedDecision> {
        if !self.active() {
            return None;
        }
        self.roll_epoch(ctx.now);
        let (order, n) = self.preference_order();
        let queue = ctx.active_queue();
        for &tenant in &order[..n] {
            if queue.len_for_tenant(tenant) == 0 {
                continue;
            }
            let decision = first_ready(queue.iter_for_tenant(tenant), ctx);
            if decision.is_some() {
                return decision;
            }
        }
        None
    }
}

/// `total * share / total_share`, rounded down: tenant `share`'s part of
/// `total` served accesses. Exact for any `total`: the product is taken in
/// `u64` and redone in `u128` only when it overflows. The result never
/// exceeds `total`, because `share <= total_share`.
fn share_of(total: u64, share: u32, total_share: u64) -> u64 {
    match total.checked_mul(u64::from(share)) {
        Some(product) => product / total_share,
        None => {
            let wide = u128::from(total) * u128::from(share) / u128::from(total_share);
            u64::try_from(wide).unwrap_or(total)
        }
    }
}

snap_fields! {
    QosArbiter {
        saved: { served, total_served, epoch_start },
        skipped: { cfg: "config-derived" },
        after_load: Self::check_restored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank_table::BankTable;
    use crate::queue::RequestQueue;
    use crate::request::{AccessKind, MemoryRequest};
    use cloudmc_dram::{DramChannel, DramConfig, Location};

    fn two_tenant_cfg(policy: QosPolicyKind) -> QosConfig {
        QosConfig {
            policy,
            tenants: 2,
            latency_critical: [true, false, false, false],
            share: [1, 1, 1, 1],
            epoch: 1_000,
        }
    }

    fn push(q: &mut RequestQueue, id: u64, tenant: TenantId, bank: usize, row: u64) {
        q.push(
            MemoryRequest::new(id, AccessKind::Read, 0, tenant, 0).with_tenant(tenant),
            Location::new(0, bank, row, 0),
            0,
        )
        .unwrap();
    }

    fn ctx<'a>(
        channel: &'a DramChannel,
        read_q: &'a RequestQueue,
        write_q: &'a RequestQueue,
        banks: &'a BankTable,
    ) -> SchedContext<'a> {
        SchedContext::new(0, channel, read_q, write_q, banks, false, 16)
    }

    /// The `u64` product with its `u128` fallback gives the wide quotient
    /// for every total, including ones whose product with `u32::MAX`
    /// overflows `u64`, and the preference order follows the deficits.
    #[test]
    fn share_targets_are_exact_past_the_u64_product() {
        let edge = u64::MAX / u64::from(u32::MAX);
        let wide = |total: u64, share: u32, total_share: u64| {
            (u128::from(total) * u128::from(share) / u128::from(total_share)) as u64
        };
        for total in [0, 1, edge - 1, edge, edge + 1, u64::MAX / 2, u64::MAX] {
            for (share, total_share) in [
                (u32::MAX, u64::from(u32::MAX) + 1),
                (u32::MAX, u64::from(u32::MAX)),
                (1, u64::from(u32::MAX) * 4),
                (3, 7),
            ] {
                assert_eq!(
                    share_of(total, share, total_share),
                    wide(total, share, total_share),
                    "{total} * {share} / {total_share}"
                );
            }
        }
        let mut arbiter = QosArbiter::new(QosConfig {
            share: [u32::MAX, 1, u32::MAX, 0],
            tenants: 3,
            ..two_tenant_cfg(QosPolicyKind::StaticPartition)
        });
        arbiter.total_served = edge + 5;
        arbiter.served = [0, 0, 3, 0];
        // Tenants 0 and 2 are owed about half of the total each (3 less
        // for tenant 2); tenant 1's target rounds down to 0.
        let (order, n) = arbiter.preference_order();
        assert_eq!(&order[..n], &[0, 2]);
        arbiter.served = [4, 0, 0, 0];
        let (order, n) = arbiter.preference_order();
        assert_eq!(&order[..n], &[2, 0]);
    }

    #[test]
    fn labels_round_trip_through_parsing() {
        for kind in QosPolicyKind::all() {
            let parsed: QosPolicyKind = kind.label().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("nope".parse::<QosPolicyKind>().is_err());
    }

    #[test]
    fn config_validation() {
        QosConfig::none().validate().unwrap();
        let mut cfg = two_tenant_cfg(QosPolicyKind::StaticPartition);
        cfg.validate().unwrap();
        cfg.tenants = 0;
        assert!(cfg.validate().is_err());
        cfg.tenants = MAX_TENANTS + 1;
        assert!(cfg.validate().is_err());
        cfg = two_tenant_cfg(QosPolicyKind::StaticPartition);
        cfg.share = [0; MAX_TENANTS];
        assert!(cfg.validate().is_err());
        cfg = two_tenant_cfg(QosPolicyKind::None);
        cfg.epoch = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn none_and_single_tenant_never_claim_the_slot() {
        let channel = DramChannel::new(&DramConfig::baseline());
        let mut read_q = RequestQueue::new(8);
        let write_q = RequestQueue::new(8);
        push(&mut read_q, 1, 0, 0, 5);
        let mut none = QosArbiter::new(two_tenant_cfg(QosPolicyKind::None));
        let banks = BankTable::scan(&channel, &read_q, &write_q);
        assert!(none
            .pick(&ctx(&channel, &read_q, &write_q, &banks))
            .is_none());
        let mut solo = QosArbiter::new(QosConfig {
            tenants: 1,
            ..two_tenant_cfg(QosPolicyKind::PriorityBoost)
        });
        let banks = BankTable::scan(&channel, &read_q, &write_q);
        assert!(solo
            .pick(&ctx(&channel, &read_q, &write_q, &banks))
            .is_none());
    }

    #[test]
    fn priority_boost_claims_for_the_latency_critical_tenant() {
        let channel = DramChannel::new(&DramConfig::baseline());
        let mut read_q = RequestQueue::new(8);
        let write_q = RequestQueue::new(8);
        // Batch tenant's request arrived first; the boost jumps past it.
        push(&mut read_q, 1, 1, 0, 5);
        push(&mut read_q, 2, 0, 1, 7);
        let mut arbiter = QosArbiter::new(two_tenant_cfg(QosPolicyKind::PriorityBoost));
        let banks = BankTable::scan(&channel, &read_q, &write_q);
        let decision = arbiter
            .pick(&ctx(&channel, &read_q, &write_q, &banks))
            .unwrap();
        // Cold banks: the boost issues the LC tenant's activate (bank 1).
        assert_eq!(decision.command.loc.bank, 1);
        // With only batch requests pending the arbiter declines.
        read_q.remove(2).unwrap();
        let banks = BankTable::scan(&channel, &read_q, &write_q);
        assert!(arbiter
            .pick(&ctx(&channel, &read_q, &write_q, &banks))
            .is_none());
    }

    #[test]
    fn static_partition_prefers_the_underserved_tenant() {
        let channel = DramChannel::new(&DramConfig::baseline());
        let mut read_q = RequestQueue::new(8);
        let write_q = RequestQueue::new(8);
        push(&mut read_q, 1, 0, 0, 5);
        push(&mut read_q, 2, 1, 1, 7);
        let mut arbiter = QosArbiter::new(two_tenant_cfg(QosPolicyKind::StaticPartition));
        // Fresh epoch: nobody has a deficit, the arbiter declines.
        let banks = BankTable::scan(&channel, &read_q, &write_q);
        assert!(arbiter
            .pick(&ctx(&channel, &read_q, &write_q, &banks))
            .is_none());
        // Tenant 0 has consumed the whole epoch so far: tenant 1 is owed
        // half and gets the slot.
        for _ in 0..10 {
            arbiter.on_issue(0);
        }
        let banks = BankTable::scan(&channel, &read_q, &write_q);
        let decision = arbiter
            .pick(&ctx(&channel, &read_q, &write_q, &banks))
            .unwrap();
        assert_eq!(decision.command.loc.bank, 1, "tenant 1's bank");
    }

    #[test]
    fn epoch_roll_is_catch_up_safe() {
        let mut a = QosArbiter::new(two_tenant_cfg(QosPolicyKind::StaticPartition));
        let mut b = QosArbiter::new(two_tenant_cfg(QosPolicyKind::StaticPartition));
        for _ in 0..5 {
            a.on_issue(0);
            b.on_issue(0);
        }
        // `a` rolls once at a late cycle, `b` rolls cycle by cycle: same end
        // state (several epochs crossed in one jump).
        a.roll_epoch(3_500);
        for now in 0..=3_500 {
            b.roll_epoch(now);
        }
        assert_eq!(a.served, b.served);
        assert_eq!(a.total_served, b.total_served);
        assert_eq!(a.epoch_start, b.epoch_start);
        assert_eq!(a.epoch_start, 3_000);
    }
}
