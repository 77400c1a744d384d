//! Memory requests as seen by the memory controller.

use cloudmc_dram::{DramCycles, Location};
use cloudmc_snap::{snap_fields, snap_unit_enum, SnapError, SnapReader};

/// Direction of a memory request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessKind {
    /// A read (load miss, instruction fetch miss, or DMA read).
    #[default]
    Read,
    /// A write (dirty write-back or DMA write).
    Write,
}

impl AccessKind {
    /// Returns `true` for reads.
    #[must_use]
    pub fn is_read(&self) -> bool {
        matches!(self, Self::Read)
    }
}

/// Identifier of a memory request, unique within one simulation.
pub type RequestId = u64;

/// Identifier of the tenant a request is attributed to in a consolidated
/// multi-tenant run. Single-tenant operation uses tenant `0` throughout.
pub type TenantId = usize;

/// Upper bound on tenants the controller accounts for.
///
/// Per-tenant counters (queue occupancy, completions, latency sums) live in
/// flat arrays of this size so the accounting costs nothing on the hot path.
/// Must match `cloudmc_workloads::MAX_TENANTS` (the simulator asserts it).
pub const MAX_TENANTS: usize = 4;

/// A request for one cache block of off-chip memory.
///
/// # Examples
///
/// ```
/// use cloudmc_memctrl::{AccessKind, MemoryRequest};
///
/// let req = MemoryRequest::new(1, AccessKind::Read, 0x1234_5678, 3, 1000).with_tenant(1);
/// assert!(req.kind.is_read());
/// assert_eq!(req.core, 3);
/// assert_eq!(req.tenant, 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct MemoryRequest {
    /// Unique identifier assigned by the requester.
    pub id: RequestId,
    /// Read or write.
    pub kind: AccessKind,
    /// Physical byte address of the cache block.
    pub addr: u64,
    /// Index of the requesting core (or a pseudo-core for DMA engines).
    pub core: usize,
    /// Tenant the request is attributed to (for QoS and fairness accounting).
    pub tenant: TenantId,
    /// CPU-visible issue time, in DRAM cycles, used for latency accounting
    /// and age-based scheduling.
    pub arrival: DramCycles,
    /// Whether the request originates from a DMA/IO engine rather than a core.
    pub dma: bool,
}

impl MemoryRequest {
    /// Creates a non-DMA request attributed to tenant 0.
    #[must_use]
    pub fn new(
        id: RequestId,
        kind: AccessKind,
        addr: u64,
        core: usize,
        arrival: DramCycles,
    ) -> Self {
        Self {
            id,
            kind,
            addr,
            core,
            tenant: 0,
            arrival,
            dma: false,
        }
    }

    /// Creates a DMA/IO request attributed to pseudo-core `core` (tenant 0).
    #[must_use]
    pub fn dma(
        id: RequestId,
        kind: AccessKind,
        addr: u64,
        core: usize,
        arrival: DramCycles,
    ) -> Self {
        Self {
            id,
            kind,
            addr,
            core,
            tenant: 0,
            arrival,
            dma: true,
        }
    }

    /// Attributes the request to `tenant`. Ids at or above [`MAX_TENANTS`]
    /// are clamped into the last accounting slot so every per-tenant counter
    /// (queues, stats, conservation checks) sees the same bucket.
    #[must_use]
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant.min(MAX_TENANTS - 1);
        self
    }

    /// A restored request must respect the [`MemoryRequest::with_tenant`]
    /// clamp. The core index is bounded by whoever owns the request (it
    /// alone knows the core count, see [`MemoryRequest::check_core`]).
    fn check_restored(&mut self, r: &SnapReader<'_>) -> Result<(), SnapError> {
        if self.tenant >= MAX_TENANTS {
            return Err(r.bad_value(format!(
                "tenant {} >= MAX_TENANTS {MAX_TENANTS}",
                self.tenant
            )));
        }
        Ok(())
    }

    /// Rejects a restored request whose core index is outside `num_cores`:
    /// per-core scheduler and statistics tables are indexed by it.
    ///
    /// # Errors
    ///
    /// [`SnapError::BadValue`] naming the offending index.
    pub fn check_core(&self, r: &SnapReader<'_>, num_cores: usize) -> Result<(), SnapError> {
        if self.core >= num_cores {
            return Err(r.bad_value(format!(
                "request {} names core {} of {num_cores}",
                self.id, self.core
            )));
        }
        Ok(())
    }
}

/// Row-buffer outcome of a serviced request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum RowBufferOutcome {
    /// The target row was already open when the request was first scheduled.
    #[default]
    Hit,
    /// The bank was idle; only an ACTIVATE was needed.
    Miss,
    /// A different row was open; PRECHARGE then ACTIVATE were needed.
    Conflict,
}

/// A request that finished service, with timing information.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompletedRequest {
    /// The original request.
    pub request: MemoryRequest,
    /// Where the request mapped in the DRAM organization.
    pub channel: usize,
    /// Bank-level location.
    pub location: Location,
    /// Cycle at which the completing service's column command issued (DRAM
    /// cycles). For reads that needed ECC retries this belongs to the final
    /// successful attempt; [`CompletedRequest::retries`] counts the earlier
    /// ones.
    pub issue: DramCycles,
    /// Cycle at which the data transfer finished (DRAM cycles).
    pub completion: DramCycles,
    /// Row-buffer outcome.
    pub outcome: RowBufferOutcome,
    /// ECC retry attempts that preceded the completing service (0 for clean
    /// reads and all writes).
    pub retries: u32,
}

impl CompletedRequest {
    /// Memory access latency in DRAM cycles (arrival to data completion).
    #[must_use]
    pub fn latency(&self) -> DramCycles {
        self.completion.saturating_sub(self.request.arrival)
    }

    /// Cycles spent queued before the completing service issued.
    #[must_use]
    pub fn queue_delay(&self) -> DramCycles {
        self.issue.saturating_sub(self.request.arrival)
    }
}

snap_unit_enum!(AccessKind {
    Read = 0,
    Write = 1
});

snap_unit_enum!(RowBufferOutcome {
    Hit = 0,
    Miss = 1,
    Conflict = 2
});

snap_fields! {
    MemoryRequest {
        saved: { id, kind, addr, core, tenant, arrival, dma },
        skipped: {},
        after_load: Self::check_restored,
    }
}

snap_fields! {
    CompletedRequest {
        saved: { request, channel, location, issue, completion, outcome, retries },
        skipped: {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_completion_minus_arrival() {
        let req = MemoryRequest::new(7, AccessKind::Write, 0x40, 0, 100);
        let done = CompletedRequest {
            request: req,
            channel: 0,
            location: Location::new(0, 0, 0, 0),
            issue: 160,
            completion: 180,
            outcome: RowBufferOutcome::Conflict,
            retries: 0,
        };
        assert_eq!(done.latency(), 80);
        assert_eq!(done.queue_delay(), 60);
    }

    #[test]
    fn dma_constructor_marks_dma() {
        let req = MemoryRequest::dma(1, AccessKind::Read, 0, 16, 0);
        assert!(req.dma);
        assert!(!MemoryRequest::new(2, AccessKind::Read, 0, 0, 0).dma);
    }

    #[test]
    fn with_tenant_clamps_out_of_range_ids() {
        let req = MemoryRequest::new(1, AccessKind::Read, 0, 0, 0).with_tenant(2);
        assert_eq!(req.tenant, 2);
        let clamped = MemoryRequest::new(2, AccessKind::Read, 0, 0, 0).with_tenant(99);
        assert_eq!(clamped.tenant, MAX_TENANTS - 1);
    }

    #[test]
    fn access_kind_predicate() {
        assert!(AccessKind::Read.is_read());
        assert!(!AccessKind::Write.is_read());
    }
}
