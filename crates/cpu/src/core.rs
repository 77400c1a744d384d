//! In-order core model.
//!
//! The paper's baseline CMP uses simple in-order cores (the "scale-out
//! processor" pod of Lotfi-Kamran et al.). The model here captures exactly
//! what matters to the memory controller study: one instruction per cycle
//! unless waiting on memory, private L1 instruction/data caches, a bounded
//! number of outstanding misses (the workload's memory-level parallelism) and
//! dirty write-backs.

use cloudmc_snap::{
    load_new, snap_fields, snap_unit_enum, Snap, SnapError, SnapReader, SnapWriter,
};

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::mshr::{Mshr, MshrOutcome};

/// The kind of a memory operation executed by a core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Data load.
    #[default]
    Load,
    /// Data store.
    Store,
    /// Instruction fetch (goes through the L1-I).
    Ifetch,
}

/// One memory operation of the instruction stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct MemOp {
    /// Operation kind.
    pub kind: OpKind,
    /// Virtual == physical byte address in this model.
    pub addr: u64,
    /// Whether the core may continue past a miss on this operation
    /// (memory-level parallelism), subject to MSHR availability.
    pub overlappable: bool,
}

/// One slot of the instruction stream handed to the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreOp {
    /// `n` back-to-back non-memory instructions (`n >= 1`).
    Compute(u32),
    /// A memory operation.
    Mem(MemOp),
}

/// Identifier of the tenant a core (and thus its traffic) belongs to in a
/// consolidated multi-tenant run. Single-tenant runs use tenant `0`.
pub type TenantId = usize;

/// A request the core sends down the hierarchy (an L1 miss refill or a dirty
/// write-back).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoreRequest {
    /// Issuing core.
    pub core: usize,
    /// Tenant the issuing core is bound to; rides along through the L2 and
    /// the MSHR path so the memory controller can attribute the miss.
    pub tenant: TenantId,
    /// Block-aligned address.
    pub addr: u64,
    /// `true` for write-backs, `false` for refills.
    pub write: bool,
}

/// Everything one [`InOrderCore::tick`] sends down the hierarchy: at most
/// the dirty victim's write-back and the missing block's refill, held
/// inline. Iterates in that order (the order the L2 must see them in).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreRequests {
    /// Write-back of the dirty block the access evicted from the L1.
    pub writeback: Option<CoreRequest>,
    /// Refill of the block the access missed on.
    pub refill: Option<CoreRequest>,
}

impl CoreRequests {
    /// Number of requests (0–2).
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.writeback.is_some()) + usize::from(self.refill.is_some())
    }

    /// Whether the tick sent nothing downstream.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl IntoIterator for CoreRequests {
    type Item = CoreRequest;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<CoreRequest>, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        [self.writeback, self.refill].into_iter().flatten()
    }
}

/// Static configuration of one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Maximum outstanding misses (MSHR entries); bounds the core's MLP.
    pub max_outstanding_misses: usize,
}

impl CoreConfig {
    /// Largest `max_outstanding_misses` that validates: each core's MSHR file
    /// is allocated at this size, so it is bounded before anything is sized.
    pub const MAX_OUTSTANDING_MISSES: usize = 1024;

    /// Validates both L1 geometries, their common block size and the MSHR
    /// count (`1..=MAX_OUTSTANDING_MISSES`).
    ///
    /// # Errors
    ///
    /// Returns a description naming the offending field and its value.
    pub fn validate(&self) -> Result<(), String> {
        self.l1i.validate().map_err(|e| format!("l1i: {e}"))?;
        self.l1d.validate().map_err(|e| format!("l1d: {e}"))?;
        let (i, d) = (self.l1i.block_bytes, self.l1d.block_bytes);
        if i != d {
            return Err(format!("l1i.block_bytes ({i}) != l1d.block_bytes ({d})"));
        }
        let (n, max) = (self.max_outstanding_misses, Self::MAX_OUTSTANDING_MISSES);
        if !(1..=max).contains(&n) {
            return Err(format!("max_outstanding_misses ({n}) not in 1..={max}"));
        }
        Ok(())
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self {
            l1i: CacheConfig::l1_baseline(),
            l1d: CacheConfig::l1_baseline(),
            max_outstanding_misses: 4,
        }
    }
}

/// Per-core performance counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Committed (user) instructions.
    pub committed: u64,
    /// Cycles spent stalled waiting for memory.
    pub stall_cycles: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Demand misses sent below the L1s.
    pub l1_demand_misses: u64,
    /// Write-backs sent below the L1s.
    pub l1_writebacks: u64,
}

impl CoreStats {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }
}

/// What blocks the core right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stall {
    /// Waiting for the refill of a specific block (blocking miss).
    Miss { block: u64, commits_on_fill: bool },
    /// Waiting for any MSHR entry to free up, then retry the saved op.
    MshrFull(MemOp),
}

/// A simple in-order core with private L1 caches.
///
/// The caller drives it one CPU cycle at a time via [`InOrderCore::tick`],
/// supplying instruction-stream slots on demand, and delivers refills via
/// [`InOrderCore::fill`].
#[derive(Debug)]
pub struct InOrderCore {
    id: usize,
    tenant: TenantId,
    l1i: Cache,
    l1d: Cache,
    mshr: Mshr,
    block_bytes: u64,
    pending_compute: u32,
    stall: Option<Stall>,
    /// The op [`InOrderCore::run_ahead`] fetched but must not execute
    /// privately (it misses the L1); the next [`InOrderCore::tick`] executes
    /// it instead of pulling from the stream.
    deferred: Option<MemOp>,
    stats: CoreStats,
}

impl InOrderCore {
    /// Creates core `id` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config` does not validate ([`CoreConfig::validate`]).
    #[must_use]
    pub fn new(id: usize, config: CoreConfig) -> Self {
        assert_eq!(config.validate(), Ok(()), "invalid core configuration");
        Self {
            id,
            tenant: 0,
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            mshr: Mshr::new(config.max_outstanding_misses, config.l1d.block_bytes),
            block_bytes: config.l1d.block_bytes,
            pending_compute: 0,
            stall: None,
            deferred: None,
            stats: CoreStats::default(),
        }
    }

    /// Binds the core to `tenant`; every downstream request it emits carries
    /// the tag. Defaults to tenant 0 (single-tenant operation).
    #[must_use]
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Core index.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Tenant the core is bound to.
    #[must_use]
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Performance counters.
    #[must_use]
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// L1 instruction cache counters.
    #[must_use]
    pub fn l1i_stats(&self) -> &CacheStats {
        self.l1i.stats()
    }

    /// L1 data cache counters.
    #[must_use]
    pub fn l1d_stats(&self) -> &CacheStats {
        self.l1d.stats()
    }

    /// Whether the core is stalled waiting on memory.
    #[must_use]
    pub fn is_stalled(&self) -> bool {
        self.stall.is_some()
    }

    /// Committed user instructions so far.
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.stats.committed
    }

    fn block(&self, addr: u64) -> u64 {
        addr & !(self.block_bytes - 1)
    }

    fn l1_for(&mut self, kind: OpKind) -> &mut Cache {
        if kind == OpKind::Ifetch {
            &mut self.l1i
        } else {
            &mut self.l1d
        }
    }

    /// Handles a memory operation. Returns downstream requests.
    fn execute_mem(&mut self, op: MemOp) -> CoreRequests {
        let is_ifetch = op.kind == OpKind::Ifetch;
        let is_store = op.kind == OpKind::Store;
        let mut out = CoreRequests::default();
        // Check for structural stall before touching cache state so that the
        // operation can be retried unchanged once an MSHR frees up.
        if self.mshr.is_full()
            && !self.mshr.contains(op.addr)
            && !self.l1_for(op.kind).contains(op.addr)
        {
            self.stall = Some(Stall::MshrFull(op));
            return out;
        }
        let access = self.l1_for(op.kind).access(op.addr, is_store);
        if let Some(victim) = access.writeback {
            self.stats.l1_writebacks += 1;
            out.writeback = Some(CoreRequest {
                core: self.id,
                tenant: self.tenant,
                addr: victim,
                write: true,
            });
        }
        if access.hit {
            if !is_ifetch {
                self.stats.committed += 1;
            }
            return out;
        }
        // Miss: try to allocate an MSHR and send the refill downstream.
        match self.mshr.allocate(op.addr) {
            MshrOutcome::Allocated => {
                self.stats.l1_demand_misses += 1;
                out.refill = Some(CoreRequest {
                    core: self.id,
                    tenant: self.tenant,
                    addr: self.block(op.addr),
                    write: false,
                });
            }
            MshrOutcome::Merged => {}
            MshrOutcome::Full => unreachable!("structural stall is checked before cache access"),
        }
        // Stores retire into the store buffer; loads marked overlappable keep
        // the core running (limited MLP); everything else blocks until fill.
        if is_store || (op.kind == OpKind::Load && op.overlappable) {
            self.stats.committed += 1;
        } else {
            self.stall = Some(Stall::Miss {
                block: self.block(op.addr),
                commits_on_fill: !is_ifetch,
            });
        }
        out
    }

    /// Advances the core by one CPU cycle. `next_op` is called at most once,
    /// when the core needs the next instruction-stream slot. Returns the
    /// requests (refill and write-back) to inject into the next level.
    pub fn tick(&mut self, next_op: &mut dyn FnMut() -> CoreOp) -> CoreRequests {
        self.stats.cycles += 1;
        match self.stall {
            Some(Stall::Miss { .. }) => {
                self.stats.stall_cycles += 1;
                return CoreRequests::default();
            }
            Some(Stall::MshrFull(op)) => {
                if self.mshr.is_full() {
                    self.stats.stall_cycles += 1;
                    return CoreRequests::default();
                }
                self.stall = None;
                return self.execute_mem(op);
            }
            None => {}
        }
        if self.pending_compute > 0 {
            self.pending_compute -= 1;
            self.stats.committed += 1;
            return CoreRequests::default();
        }
        let op = match self.deferred.take() {
            Some(op) => CoreOp::Mem(op),
            None => next_op(),
        };
        match op {
            CoreOp::Compute(n) => {
                self.start_compute(n);
                CoreRequests::default()
            }
            CoreOp::Mem(op) => self.execute_mem(op),
        }
    }

    /// Commits the head of an `n`-instruction compute burst and buffers the
    /// rest.
    fn start_compute(&mut self, n: u32) {
        self.stats.committed += 1;
        self.pending_compute = n.max(1) - 1;
    }

    /// Runs the core ahead of the rest of the system for up to `budget`
    /// cycles and returns how many it ran, each with exactly the effect of
    /// one [`InOrderCore::tick`].
    ///
    /// This is sound because the work between two L1 misses is private to
    /// the core: compute instructions and L1 hits touch only the stream
    /// behind `next_op`, the L1s and the core's own counters, send nothing
    /// downstream, and neither read the MSHR file nor can be affected by a
    /// fill ([`InOrderCore::fill`] only completes an MSHR entry and clears a
    /// blocking-miss stall, and L1 hit/miss depends on the core's own access
    /// sequence alone because blocks are allocated at miss time). So the
    /// run stops early only at an op that misses its L1: that op is kept
    /// back un-executed — no cache or counter has seen it — and the next
    /// `tick` executes it in place of a stream pull, which lets the caller
    /// schedule that tick at the op's exact cycle. A stalled core runs zero
    /// cycles.
    pub fn run_ahead(&mut self, budget: u64, mut next_op: impl FnMut() -> CoreOp) -> u64 {
        if self.stall.is_some() || self.deferred.is_some() {
            return 0;
        }
        let mut ran = 0;
        while ran < budget {
            if self.pending_compute > 0 {
                let burst = u64::from(self.pending_compute).min(budget - ran);
                self.skip_cycles(burst);
                ran += burst;
                continue;
            }
            match next_op() {
                CoreOp::Compute(n) => self.start_compute(n),
                CoreOp::Mem(op) => {
                    let is_store = op.kind == OpKind::Store;
                    if !self.l1_for(op.kind).access_if_resident(op.addr, is_store) {
                        self.deferred = Some(op);
                        break;
                    }
                    if op.kind != OpKind::Ifetch {
                        self.stats.committed += 1;
                    }
                }
            }
            self.stats.cycles += 1;
            ran += 1;
        }
        ran
    }

    /// Whether [`InOrderCore::run_ahead`] left an op for the next tick to
    /// execute.
    #[must_use]
    pub fn has_deferred_op(&self) -> bool {
        self.deferred.is_some()
    }

    /// The cycle this core next needs a decision, given that it has been
    /// advanced to cycle `position` (see the next-due contract in
    /// `cloudmc-sim`'s `kernel` module):
    ///
    /// * `position` — it needs its instruction stream on the very next tick;
    /// * `u64::MAX` — it is blocked until a fill arrives, and every cycle
    ///   until then is a stall cycle;
    /// * `position + k` — the next `k` ticks each retire one buffered
    ///   compute instruction and touch nothing else.
    ///
    /// [`InOrderCore::skip_cycles`] applies the cycles before it in bulk,
    /// with effects identical to calling [`InOrderCore::tick`] per cycle.
    #[must_use]
    pub fn next_due(&self, position: u64) -> u64 {
        match self.stall {
            Some(Stall::Miss { .. }) => u64::MAX,
            // A core parked on a full MSHR file stays parked until a fill
            // frees an entry; if the file has space it retries next tick.
            Some(Stall::MshrFull(_)) if self.mshr.is_full() => u64::MAX,
            Some(Stall::MshrFull(_)) => position,
            None => position.saturating_add(u64::from(self.pending_compute)),
        }
    }

    /// Advances the core by `cycles` cycles in bulk. Exactly equivalent to
    /// `cycles` calls of [`InOrderCore::tick`], valid only before the cycle
    /// [`InOrderCore::next_due`] reports.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `cycles` reaches past that cycle.
    pub fn skip_cycles(&mut self, cycles: u64) {
        debug_assert!(
            cycles <= self.next_due(0),
            "skip of {cycles} cycles exceeds the core's runway"
        );
        self.stats.cycles += cycles;
        if self.stall.is_some() {
            self.stats.stall_cycles += cycles;
        } else {
            self.stats.committed += cycles;
            self.pending_compute -= cycles as u32;
        }
    }

    /// Delivers the refill of `block_addr`: retires its MSHR entry and wakes
    /// the core (committing a blocked load) if it was blocked on that block.
    pub fn fill(&mut self, block_addr: u64) {
        let _waiters = self.mshr.complete(block_addr);
        if let Some(Stall::Miss {
            block,
            commits_on_fill,
        }) = self.stall
        {
            if block == self.block(block_addr) {
                if commits_on_fill {
                    self.stats.committed += 1;
                }
                self.stall = None;
            }
        }
    }

    /// Whether the core is blocked until the refill of the block containing
    /// `addr` arrives.
    #[must_use]
    pub fn blocked_on(&self, addr: u64) -> bool {
        matches!(self.stall, Some(Stall::Miss { block, .. }) if block == self.block(addr))
    }

    /// An op deferred by [`InOrderCore::run_ahead`] is not part of the
    /// image (the caller must not checkpoint a core that holds one, see
    /// [`InOrderCore::has_deferred_op`]), so a restored core holds none.
    fn clear_deferred(&mut self, _r: &SnapReader<'_>) -> Result<(), SnapError> {
        self.deferred = None;
        Ok(())
    }

    /// Functionally installs the block containing `addr` into the L1-I
    /// (`instruction == true`) or L1-D without modelling any timing.
    ///
    /// Used for cache warm-up before measurement, standing in for the long
    /// functional warm-up phase of full-system simulation.
    pub fn prewarm(&mut self, addr: u64, instruction: bool) {
        if instruction {
            self.l1i.access(addr, false);
        } else {
            self.l1d.access(addr, false);
        }
    }
}

snap_unit_enum!(OpKind {
    Load = 0,
    Store = 1,
    Ifetch = 2
});

snap_fields! {
    MemOp {
        saved: { kind, addr, overlappable },
        skipped: {},
    }
}

snap_fields! {
    CoreStats {
        saved: { committed, stall_cycles, cycles, l1_demand_misses, l1_writebacks },
        skipped: {},
    }
}

/// Blank value a decoder overwrites.
impl Default for Stall {
    fn default() -> Self {
        Self::MshrFull(MemOp::default())
    }
}

impl Snap for Stall {
    const MIN_BYTES: usize = 1;

    fn save(&self, w: &mut SnapWriter) {
        match self {
            Self::Miss {
                block,
                commits_on_fill,
            } => {
                w.u8(0);
                block.save(w);
                commits_on_fill.save(w);
            }
            Self::MshrFull(op) => {
                w.u8(1);
                op.save(w);
            }
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = match r.u8()? {
            0 => Self::Miss {
                block: r.u64()?,
                commits_on_fill: r.bool()?,
            },
            1 => Self::MshrFull(load_new(r)?),
            other => return Err(r.bad_value(format!("stall discriminant {other}"))),
        };
        Ok(())
    }
}

snap_fields! {
    InOrderCore {
        section: "core",
        saved: { l1i, l1d, mshr, pending_compute, stall, stats },
        skipped: {
            id: "config-derived",
            tenant: "config-derived",
            block_bytes: "config-derived",
            deferred: "snapshot() refuses a core holding one; cleared by clear_deferred",
        },
        after_load: Self::clear_deferred,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_core() -> InOrderCore {
        let l1 = CacheConfig {
            size_bytes: 512,
            associativity: 2,
            block_bytes: 64,
        };
        InOrderCore::new(
            0,
            CoreConfig {
                l1i: l1,
                l1d: l1,
                max_outstanding_misses: 2,
            },
        )
    }

    fn compute_stream() -> impl FnMut() -> CoreOp {
        || CoreOp::Compute(1)
    }

    #[test]
    fn compute_instructions_commit_one_per_cycle() {
        let mut core = tiny_core();
        let mut src = compute_stream();
        for _ in 0..10 {
            assert!(core.tick(&mut src).is_empty());
        }
        assert_eq!(core.committed(), 10);
        assert!((core.stats().ipc() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn compute_burst_spans_multiple_cycles() {
        let mut core = tiny_core();
        let mut ops = vec![CoreOp::Compute(3)].into_iter();
        let mut src = move || ops.next().unwrap_or(CoreOp::Compute(1));
        for _ in 0..3 {
            core.tick(&mut src);
        }
        assert_eq!(core.committed(), 3);
    }

    #[test]
    fn blocking_load_miss_stalls_until_fill() {
        let mut core = tiny_core();
        let op = CoreOp::Mem(MemOp {
            kind: OpKind::Load,
            addr: 0x1000,
            overlappable: false,
        });
        let mut first = Some(op);
        let mut src = move || first.take().unwrap_or(CoreOp::Compute(1));
        let reqs = core.tick(&mut src);
        assert_eq!(reqs.len(), 1);
        let refill = reqs.refill.unwrap();
        assert_eq!(refill.addr, 0x1000);
        assert!(!refill.write);
        assert!(core.is_stalled());
        // Stalled cycles commit nothing.
        for _ in 0..5 {
            assert!(core.tick(&mut src).is_empty());
        }
        assert_eq!(core.committed(), 0);
        core.fill(0x1000);
        assert!(!core.is_stalled());
        assert_eq!(core.committed(), 1, "the stalled load commits on fill");
        core.tick(&mut src);
        assert_eq!(core.committed(), 2);
        assert!(core.stats().stall_cycles >= 5);
    }

    #[test]
    fn overlappable_loads_exploit_mlp_until_mshrs_full() {
        let mut core = tiny_core();
        let mk = |addr| {
            CoreOp::Mem(MemOp {
                kind: OpKind::Load,
                addr,
                overlappable: true,
            })
        };
        let mut ops = vec![mk(0x1000), mk(0x2000), mk(0x3000)].into_iter();
        let mut src = move || ops.next().unwrap_or(CoreOp::Compute(1));
        assert_eq!(core.tick(&mut src).len(), 1);
        assert!(!core.is_stalled());
        assert_eq!(core.tick(&mut src).len(), 1);
        assert!(!core.is_stalled());
        assert_eq!(core.committed(), 2);
        // Third miss: MSHRs (2 entries) are full, the core must wait.
        assert!(core.tick(&mut src).is_empty());
        assert!(core.is_stalled());
        core.fill(0x1000);
        // Retry succeeds next cycle.
        let reqs = core.tick(&mut src);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs.refill.unwrap().addr, 0x3000);
        assert_eq!(core.committed(), 3);
    }

    #[test]
    fn downstream_requests_carry_the_tenant_tag() {
        let mut core = tiny_core().with_tenant(2);
        assert_eq!(core.tenant(), 2);
        let mut first = Some(CoreOp::Mem(MemOp {
            kind: OpKind::Load,
            addr: 0x1000,
            overlappable: false,
        }));
        let mut src = move || first.take().unwrap_or(CoreOp::Compute(1));
        let reqs = core.tick(&mut src);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs.refill.unwrap().tenant, 2);
        // The default binding is tenant 0.
        assert_eq!(tiny_core().tenant(), 0);
    }

    #[test]
    fn store_misses_do_not_stall() {
        let mut core = tiny_core();
        let mut first = Some(CoreOp::Mem(MemOp {
            kind: OpKind::Store,
            addr: 0x4000,
            overlappable: false,
        }));
        let mut src = move || first.take().unwrap_or(CoreOp::Compute(1));
        let reqs = core.tick(&mut src);
        assert_eq!(reqs.len(), 1);
        assert!(!core.is_stalled());
        assert_eq!(core.committed(), 1);
    }

    #[test]
    fn ifetch_miss_stalls_without_committing() {
        let mut core = tiny_core();
        let mut first = Some(CoreOp::Mem(MemOp {
            kind: OpKind::Ifetch,
            addr: 0x8000,
            overlappable: false,
        }));
        let mut src = move || first.take().unwrap_or(CoreOp::Compute(1));
        core.tick(&mut src);
        assert!(core.is_stalled());
        core.fill(0x8000);
        assert!(!core.is_stalled());
        assert_eq!(
            core.committed(),
            0,
            "instruction fetches are not user commits"
        );
    }

    #[test]
    fn dirty_l1_eviction_emits_writeback() {
        let mut core = tiny_core();
        // Store to A (dirties it), then loads mapping to the same set to
        // force the eviction of A. Set stride is 256 bytes (4 sets).
        let ops = vec![
            CoreOp::Mem(MemOp {
                kind: OpKind::Store,
                addr: 0x000,
                overlappable: false,
            }),
            CoreOp::Mem(MemOp {
                kind: OpKind::Load,
                addr: 0x100,
                overlappable: true,
            }),
            CoreOp::Mem(MemOp {
                kind: OpKind::Load,
                addr: 0x200,
                overlappable: true,
            }),
        ];
        let mut it = ops.into_iter();
        let mut src = move || it.next().unwrap_or(CoreOp::Compute(1));
        let mut writebacks = 0;
        for _ in 0..6 {
            for r in core.tick(&mut src) {
                if r.write {
                    writebacks += 1;
                    assert_eq!(r.addr, 0x000);
                }
            }
            core.fill(0x000);
            core.fill(0x100);
            core.fill(0x200);
        }
        assert_eq!(writebacks, 1);
        assert_eq!(core.stats().l1_writebacks, 1);
    }

    #[test]
    fn runway_and_skip_match_cycle_by_cycle_ticking() {
        // A stream with a long compute burst: skipping the burst in bulk must
        // leave the core in exactly the state per-cycle ticking would.
        let make = || {
            let mut core = tiny_core();
            let mut ops = vec![CoreOp::Compute(100)].into_iter();
            let mut src = move || ops.next().unwrap_or(CoreOp::Compute(1));
            core.tick(&mut src); // consume the burst head; 99 buffered
            core
        };
        let mut ticked = make();
        let mut src = compute_stream();
        for _ in 0..40 {
            ticked.tick(&mut src);
        }
        let mut skipped = make();
        assert_eq!(skipped.next_due(0), 99);
        skipped.skip_cycles(40);
        assert_eq!(ticked.stats(), skipped.stats());
        assert_eq!(skipped.next_due(40), 40 + 59);
    }

    /// Running ahead must be indistinguishable from ticking: same counters,
    /// same L1 state, same stream position — and it must stop *before* the
    /// first op that misses an L1, leaving that op for the next tick.
    #[test]
    fn run_ahead_matches_ticking_and_stops_before_the_first_miss() {
        let mem = |kind, addr| {
            CoreOp::Mem(MemOp {
                kind,
                addr,
                overlappable: true,
            })
        };
        // Warm one data and one code block, then: bursts, hits on both L1s
        // (a store hit dirties the block), and finally a would-miss store
        // whose victim is that dirty block (set stride is 256 bytes).
        let warm = [mem(OpKind::Load, 0x040), mem(OpKind::Ifetch, 0x8000)];
        let ops = [
            CoreOp::Compute(7),
            mem(OpKind::Store, 0x048),
            mem(OpKind::Ifetch, 0x8010),
            CoreOp::Compute(1),
            mem(OpKind::Load, 0x140),
            mem(OpKind::Load, 0x17f),
            CoreOp::Compute(30),
            mem(OpKind::Store, 0x240),
            CoreOp::Compute(5),
        ];
        let make = || {
            let mut core = tiny_core();
            let mut it = warm.into_iter();
            for _ in 0..warm.len() {
                for req in core.tick(&mut || it.next().unwrap()) {
                    core.fill(req.addr);
                }
            }
            core
        };
        let observe = |core: &InOrderCore| (*core.stats(), *core.l1i_stats(), *core.l1d_stats());

        // 0x140 misses the L1-D, so the first run stops right before it.
        let mut ahead = make();
        let mut pulled = 0usize;
        let mut source = || {
            pulled += 1;
            ops[pulled - 1]
        };
        let ran = ahead.run_ahead(u64::MAX, &mut source);
        assert_eq!(ran, 7 + 1 + 1 + 1);
        assert!(ahead.has_deferred_op());
        assert_eq!(
            ahead.run_ahead(u64::MAX, &mut source),
            0,
            "nothing past a deferred op"
        );

        let mut ticked = make();
        let mut ticked_pulled = 0usize;
        let mut ticked_source = || {
            ticked_pulled += 1;
            ops[ticked_pulled - 1]
        };
        for _ in 0..ran {
            assert!(ticked.tick(&mut ticked_source).is_empty());
        }
        assert_eq!(observe(&ahead), observe(&ticked));
        assert_eq!(ahead.l1d_stats().misses, 1, "only the warm-up miss so far");

        // The next tick executes the deferred op (no stream pull) exactly as
        // the ticked core executes the same op off its stream.
        let deferred = ahead.tick(&mut source);
        assert_eq!(deferred, ticked.tick(&mut ticked_source));
        assert_eq!(deferred.refill.unwrap().addr, 0x140);
        assert!(!ahead.has_deferred_op());
        assert_eq!(observe(&ahead), observe(&ticked));

        // A budget bounds the run mid-burst; the remainder is ordinary runway.
        assert_eq!(ahead.run_ahead(10, &mut source), 10);
        for _ in 0..10 {
            ticked.tick(&mut ticked_source);
        }
        assert_eq!(observe(&ahead), observe(&ticked));
        assert_eq!(ahead.next_due(0), 21);

        // The dirty-victim miss is deferred too, write-back and all.
        assert_eq!(ahead.run_ahead(u64::MAX, &mut source), 21);
        for _ in 0..21 {
            ticked.tick(&mut ticked_source);
        }
        assert_eq!(observe(&ahead), observe(&ticked));
        assert_eq!(ahead.stats().l1_writebacks, 0);
        let evicting = ahead.tick(&mut source);
        assert_eq!(evicting, ticked.tick(&mut ticked_source));
        assert_eq!(evicting.writeback.unwrap().addr, 0x040);
        assert_eq!(evicting.refill.unwrap().addr, 0x240);
        assert_eq!(observe(&ahead), observe(&ticked));
        assert_eq!(pulled, ticked_pulled, "stream positions agree");
    }

    #[test]
    fn runway_reflects_stall_state() {
        let mut core = tiny_core();
        // Fresh core must consult the stream immediately.
        assert_eq!(core.next_due(3), 3);
        let mut first = Some(CoreOp::Mem(MemOp {
            kind: OpKind::Load,
            addr: 0x1000,
            overlappable: false,
        }));
        let mut src = move || first.take().unwrap_or(CoreOp::Compute(1));
        core.tick(&mut src);
        assert!(core.is_stalled());
        assert_eq!(core.next_due(3), u64::MAX);
        // A bulk stall advance matches per-cycle stalling.
        core.skip_cycles(25);
        assert_eq!(core.stats().stall_cycles, 25);
        assert_eq!(core.committed(), 0);
        core.fill(0x1000);
        assert_eq!(core.next_due(28), 28, "woken core needs the stream again");
    }

    #[test]
    fn repeated_hits_do_not_go_downstream() {
        let mut core = tiny_core();
        let mut warm = Some(CoreOp::Mem(MemOp {
            kind: OpKind::Load,
            addr: 0x40,
            overlappable: false,
        }));
        let mut src = move || warm.take().unwrap_or(CoreOp::Compute(1));
        core.tick(&mut src);
        core.fill(0x40);
        let mut hit = Some(CoreOp::Mem(MemOp {
            kind: OpKind::Load,
            addr: 0x40,
            overlappable: false,
        }));
        let mut src2 = move || hit.take().unwrap_or(CoreOp::Compute(1));
        let reqs = core.tick(&mut src2);
        assert!(reqs.is_empty());
        assert_eq!(core.l1d_stats().hits, 1);
    }
}
