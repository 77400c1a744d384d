//! The CPU-side frontend: in-order cores, their workload streams, the shared
//! L2 and the DMA traffic injector.
//!
//! The frontend owns everything clocked by the 2 GHz core clock and supports
//! two drive modes. The eager mode advances every core together: each
//! [`Tick::tick`] call moves every core by one CPU cycle, routes the L1
//! refills and write-backs they produce through the shared L2, and injects
//! this cycle's DMA traffic. It is the reference the lazy mode is tested
//! against.
//!
//! The lazy mode (the event kernel's) lets each core sit at its own position
//! relative to the kernel clock, behind it or ahead of it, and only ever
//! *schedules* the cycles on which a core does something another component
//! can observe ([`Frontend::next_due`]). It rests on one fact: a
//! core's work between two L1 misses is **core-private**. Compute gaps and
//! L1 hits touch only the core's own workload-stream RNG, its L1-I/L1-D and
//! its own counters; they send nothing to the L2, never read the MSHR file,
//! and no fill can change them (a fill only completes an MSHR entry and
//! clears a blocking-miss stall, and because the L1s allocate at miss time,
//! hit-or-miss is a function of the core's own access sequence alone). So
//! when [`Frontend::advance_to`] has ticked a due core, it keeps running
//! *that core* in a tight loop — **run-ahead** — committing compute gaps in
//! bulk and L1 hits one probe each, until one of two things stops it:
//!
//! * **It fetches an op that misses its L1.** A miss is the one thing that
//!   is not private: the MSHR-full check depends on which fills have arrived,
//!   the L2 access and its LRU state are shared with every other core, and
//!   the resulting [`FrontendEvent`] must reach the backend in the eager
//!   mode's global (cycle, core) order. The op is therefore deferred
//!   un-executed and the core's next action is scheduled at the op's exact
//!   cycle, where the ordinary per-cycle tick executes it.
//! * **It reaches the caller's `limit`** — the end of the current
//!   `run_cycles` call or the next telemetry sample boundary, whichever is
//!   sooner. No core's position ever exceeds it, so every counter read at
//!   those points (`sync_to`, samples, snapshots, `SimStats`) is exactly what
//!   per-cycle ticking gives, and a deferred op (whose cycle is below the
//!   limit) is always executed before control returns to the caller.
//!
//! **An L2 hit it blocks on completes in place.** When the tick of a due
//! core sends a refill that hits the L2 and blocks the core on that block,
//! nothing can reach the core until the fill: no other fill wakes it, and
//! it reads no shared state while it waits. So if the fill cycle lies below
//! the limit, the frontend applies the stall cycles and the fill at once
//! and the run-ahead resumes at the fill cycle, instead of reporting a
//! [`FrontendEvent::L2Hit`] that the kernel would hand back through its
//! fill queue, at the cost of a stepped cycle. The L2 access itself still
//! happens at the miss cycle, in (cycle, core) order. Retiring the block's
//! MSHR entry early is safe because the MSHR file keeps its entries in
//! allocation order whatever order they complete in, and the blocked core
//! reads the file again only after the fill cycle. Stores and overlappable
//! loads do not block, so their L2 hits keep the event path, and so does a
//! fill at or past the limit.
//!
//! [`Frontend::fill_at`] delivers a fill to a core that is behind the clock
//! by catching it up first, and to one that ran ahead as is. With a trace
//! attached the limit collapses to the next cycle, i.e. no run-ahead and no
//! L2 hit completed in place: a capture file's record order is the global
//! op-consumption order, and reading ahead on replay would buffer every
//! other core's records without bound. Both modes report whatever must
//! leave the chip as [`FrontendEvent`]s for the kernel to hand to the memory
//! [`backend`](crate::backend), and both execute every L1 miss and DMA beat
//! at the same (cycle, core) position, so they produce bit-identical
//! counters and off-chip event streams (the lazy stream lacks only the L2
//! hits it completed in place). The frontend never sees DRAM cycles — the
//! clock-ratio bookkeeping (`DRAM_CYCLES_PER_5_CPU_CYCLES`) lives entirely in
//! [`kernel::ClockCrossing`](crate::kernel::ClockCrossing).
//!
//! Returning data to a core goes the other way: the kernel calls
//! [`Frontend::fill`] once a block's delivery cycle arrives.
//!
//! The frontend is also where the trace subsystem taps the op streams: with
//! [`SystemConfig::trace_record`] set, every op a core consumes is appended
//! to a [`TraceWriter`]; with [`WorkloadSource::Trace`], the synthetic
//! generators are bypassed and a streaming [`TraceStream`] supplies the
//! recorded ops instead.

use std::fs::File;
use std::io::BufWriter;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cloudmc_cpu::{CacheStats, CoreStats, InOrderCore, SharedL2};
use cloudmc_workloads::{
    GeneratorWork, TenantId, TraceRecord, TraceStream, TraceWriter, WorkloadSource, WorkloadStreams,
};

use cloudmc_snap::{snap_fields, SnapError, SnapReader};

use crate::config::SystemConfig;
use crate::error::SimError;
use crate::kernel::Tick;

/// Off-chip traffic (or an L2 hit in flight) produced by one frontend cycle.
///
/// Off-chip events carry the issuing tenant's id (minted by the workload
/// mix, carried by the core) so the memory backend can attribute every
/// request without consulting any side table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontendEvent {
    /// A demand access that hit in the shared L2; the data must be delivered
    /// to `core` after `ready_in` further CPU cycles. (The lazy mode reports
    /// none for the hits it completes in place.)
    L2Hit {
        /// Requesting core.
        core: usize,
        /// Block address.
        addr: u64,
        /// L2 access latency in CPU cycles.
        ready_in: u64,
    },
    /// A demand read that missed the L2 and must go to memory.
    Read {
        /// Requesting core.
        core: usize,
        /// Tenant the requesting core is bound to.
        tenant: TenantId,
        /// Block address.
        addr: u64,
    },
    /// A write leaving the chip (L2 victim write-back or DMA write).
    Write {
        /// Core the write is attributed to.
        core: usize,
        /// Tenant the write is attributed to.
        tenant: TenantId,
        /// Block address.
        addr: u64,
        /// Whether a DMA engine (not a core) produced the write.
        dma: bool,
    },
    /// A read issued by a DMA engine (no core is stalled on it).
    DmaRead {
        /// Core the read is attributed to for fairness accounting.
        core: usize,
        /// Tenant whose DMA engine issued the read.
        tenant: TenantId,
        /// Block address.
        addr: u64,
    },
}

/// Fixed-point scale of the DMA-rate accumulator: one DMA event per
/// `DMA_FP_ONE` accumulated units. Integer arithmetic makes accumulating
/// `n` cycles at once exactly equal to accumulating `n` times — the property
/// the event kernel's jumps rely on (f64 addition is not associative).
const DMA_FP_ONE: u64 = 1 << 32;

/// One tenant's DMA/IO engine: a fixed-point rate accumulator plus the
/// sequential buffer cursor, attributed to cores of that tenant only.
#[derive(Debug)]
struct DmaInjector {
    tenant: TenantId,
    /// First core of the owning tenant's contiguous core group.
    core_lo: usize,
    /// Number of cores in the group.
    core_len: usize,
    /// DMA events accrued per CPU cycle, in `1/DMA_FP_ONE` units.
    rate_fp: u64,
    /// Accrued DMA credit, in `1/DMA_FP_ONE` units (always `< DMA_FP_ONE`
    /// right after a tick).
    acc_fp: u64,
    cursor: u64,
}

/// Resolves `path` for aliasing checks. Falls back to canonicalizing the
/// parent (a sink file may not exist yet) and, failing that, to the path as
/// given.
fn canonical_path(path: &std::path::Path) -> std::path::PathBuf {
    path.canonicalize()
        .unwrap_or_else(|_| match (path.parent(), path.file_name()) {
            (Some(parent), Some(name)) if !parent.as_os_str().is_empty() => parent
                .canonicalize()
                .map(|p| p.join(name))
                .unwrap_or_else(|_| path.to_path_buf()),
            _ => path.to_path_buf(),
        })
}

/// Cores, workload streams, shared L2 and the per-tenant DMA injectors.
#[derive(Debug)]
pub struct Frontend {
    cores: Vec<InOrderCore>,
    streams: WorkloadStreams,
    /// Trace replay supply; when set, cores consume it instead of `streams`
    /// (which is still built — the address layout it derives from the mix
    /// drives [`Frontend::prewarm`]).
    replay: Option<TraceStream>,
    /// Trace capture sink; every op any core consumes is appended.
    record: Option<TraceWriter<BufWriter<File>>>,
    /// First error the capture sink produced; recording stops at that point
    /// and the error surfaces from [`Frontend::finish_trace`].
    record_error: Option<String>,
    /// First error the replay trace produced (I/O, parse, or a core index
    /// beyond the bound count); the affected cores idle on the exhaustion
    /// filler from then on and the error surfaces from
    /// [`Frontend::finish_trace`].
    replay_error: Option<String>,
    l2: SharedL2,
    rng: StdRng,
    /// One injector per tenant with a non-zero DMA rate, in tenant order.
    dma: Vec<DmaInjector>,
    /// Lazy mode: per-core next unsimulated CPU cycle (behind the kernel
    /// clock for a sleeping core, ahead of it for one that ran ahead).
    positions: Vec<u64>,
    /// Lazy mode: per-core next action cycle — the next cycle the core must
    /// be ticked at (`u64::MAX` = blocked on memory, nothing to do until a
    /// fill arrives). Always `cores[c].next_due(positions[c])`, cached.
    next_action: Vec<u64>,
    /// Lazy mode: the least `next_action`, kept current by every write to
    /// it, so neither [`Frontend::next_due`] nor an [`Frontend::advance_to`]
    /// with no core due scans the cores.
    soonest_action: u64,
    /// Lazy mode: the DMA accumulators have accrued cycles `0..dma_pos`.
    dma_pos: u64,
    /// Host-side work counter: L2 hits completed in place, which never
    /// reached the kernel as [`FrontendEvent::L2Hit`]s.
    private_fills: u64,
}

impl Frontend {
    /// Builds the frontend described by `cfg`: one core per tenant core slot
    /// (tagged with its tenant id), the tenants' workload streams (or the
    /// replay trace of [`WorkloadSource::Trace`]), a DMA injector for every
    /// tenant that drives I/O traffic, and the capture sink of
    /// [`SystemConfig::trace_record`] if set.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Trace`] if the replay trace cannot be opened or
    /// the capture sink cannot be created, and [`SimError::Config`] if the
    /// capture path resolves to the replay source.
    pub fn new(cfg: &SystemConfig) -> Result<Self, SimError> {
        let tenancy = cfg.tenancy();
        let streams = WorkloadStreams::from_mix(tenancy, cfg.seed);
        let cores: Vec<InOrderCore> = (0..tenancy.total_cores())
            .map(|i| InOrderCore::new(i, cfg.core).with_tenant(tenancy.tenant_of_core(i)))
            .collect();
        let replay = match &cfg.source {
            WorkloadSource::Synthetic => None,
            WorkloadSource::Trace(path) => Some(
                TraceStream::open(path, cores.len()).map_err(|e| SimError::Trace(e.to_string()))?,
            ),
        };
        let record = match &cfg.trace_record {
            None => None,
            Some(path) => {
                // Refuse to truncate the replay input: `SystemConfig::validate`
                // compares the two paths lexically, but aliased spellings
                // (relative vs absolute, symlinks) only resolve on disk, and
                // `File::create` below would destroy the trace being read.
                if let WorkloadSource::Trace(replay_path) = &cfg.source {
                    if canonical_path(replay_path) == canonical_path(path) {
                        return Err(SimError::Config(format!(
                            "trace_record `{}` aliases the replay source `{}`",
                            path.display(),
                            replay_path.display()
                        )));
                    }
                }
                #[expect(
                    clippy::disallowed_methods,
                    reason = "trace capture creates a caller-named file by design"
                )]
                let file = File::create(path).map_err(|e| {
                    SimError::Trace(format!(
                        "cannot create trace sink `{}`: {e}",
                        path.display()
                    ))
                })?;
                Some(TraceWriter::new(BufWriter::new(file)))
            }
        };
        let dma = tenancy
            .tenants()
            .enumerate()
            .filter_map(|(tenant, spec)| {
                #[expect(
                    clippy::cast_sign_loss,
                    clippy::cast_possible_truncation,
                    reason = "rate is clamped non-negative; float-to-int `as` saturates"
                )]
                let rate_fp = (spec.workload.dma_per_kcycle.max(0.0) / 1000.0 * DMA_FP_ONE as f64)
                    .round() as u64;
                let range = tenancy.core_range(tenant);
                (rate_fp > 0).then_some(DmaInjector {
                    tenant,
                    core_lo: range.start,
                    core_len: range.len(),
                    rate_fp,
                    acc_fp: 0,
                    cursor: 0,
                })
            })
            .collect();
        let num_cores = cores.len();
        Ok(Self {
            cores,
            streams,
            replay,
            record,
            record_error: None,
            replay_error: None,
            l2: SharedL2::new(cfg.l2),
            rng: StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x5851_F42D_4C95_7F2D) ^ 0xD3A),
            dma,
            positions: vec![0; num_cores],
            next_action: vec![0; num_cores],
            soonest_action: 0,
            dma_pos: 0,
            private_fills: 0,
        })
    }

    /// Whether the frontend replays a trace instead of generating ops.
    #[must_use]
    pub fn is_replaying(&self) -> bool {
        self.replay.is_some()
    }

    /// Finishes the run's trace I/O: surfaces any replay error deferred
    /// mid-run, then flushes the capture sink (if any) and returns the
    /// number of records written (`Ok(None)` when the run was not
    /// recording).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Trace`] carrying the first replay read/parse
    /// error, the first capture write error, or the final capture flush
    /// error.
    pub fn finish_trace(&mut self) -> Result<Option<u64>, SimError> {
        if let Some(e) = self.replay_error.take() {
            self.record = None;
            return Err(SimError::Trace(format!("trace replay failed mid-run: {e}")));
        }
        if let Some(e) = self.record_error.take() {
            self.record = None;
            return Err(SimError::Trace(format!(
                "trace capture failed mid-run: {e}"
            )));
        }
        match self.record.take() {
            None => Ok(None),
            Some(writer) => {
                let records = writer.records();
                writer
                    .finish()
                    .map_err(|e| SimError::Trace(format!("trace capture flush failed: {e}")))?;
                Ok(Some(records))
            }
        }
    }

    /// Functionally installs each core's instruction working set and hot data
    /// region into the L1s and the shared L2 (no timing is modelled).
    ///
    /// This mirrors the effect of the paper's one-billion-instruction warm-up:
    /// measurement starts with the code resident in the LLC so that the
    /// off-chip traffic seen by the memory controller is the steady-state
    /// data-miss stream, not a cold-start transient.
    pub fn prewarm(&mut self) {
        let block = 64u64;
        for core_idx in 0..self.cores.len() {
            let (code_base, code_size) = self.streams.stream(core_idx).code_region();
            for offset in (0..code_size).step_by(block as usize) {
                let addr = code_base + offset;
                self.cores[core_idx].prewarm(addr, true);
                self.l2.access(addr, false);
            }
            let (hot_base, hot_size) = self.streams.stream(core_idx).hot_region();
            for offset in (0..hot_size).step_by(block as usize) {
                let addr = hot_base + offset;
                self.cores[core_idx].prewarm(addr, false);
                self.l2.access(addr, false);
            }
        }
    }

    /// Delivers a block to a core (memory fill or delayed L2 hit).
    pub fn fill(&mut self, core: usize, addr: u64) {
        self.cores[core].fill(addr);
    }

    /// Number of cores.
    #[must_use]
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Committed user instructions per core so far.
    #[must_use]
    pub fn committed_per_core(&self) -> Vec<u64> {
        self.cores.iter().map(InOrderCore::committed).collect()
    }

    /// Performance counters of one core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn core_stats(&self, core: usize) -> &CoreStats {
        self.cores[core].stats()
    }

    /// L1 instruction-cache counters of one core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn l1i_stats(&self, core: usize) -> &CacheStats {
        self.cores[core].l1i_stats()
    }

    /// L1 data-cache counters of one core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn l1d_stats(&self, core: usize) -> &CacheStats {
        self.cores[core].l1d_stats()
    }

    /// Aggregated shared-L2 counters.
    #[must_use]
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Why this frontend cannot be checkpointed, if it cannot: attached
    /// trace streams hold open file handles and cursors the snapshot format
    /// does not capture, and neither is an op a core deferred while running
    /// ahead (every `run_cycles` call executes those before it returns, so
    /// one can only be seen from inside a call). `None` means snapshotting
    /// is supported; the `Snap` impl assumes it was consulted first.
    #[must_use]
    pub fn snapshot_unsupported_reason(&self) -> Option<&'static str> {
        if self.replay.is_some() {
            return Some("trace replay source");
        }
        if self.record.is_some() {
            return Some("trace capture sink");
        }
        if self.cores.iter().any(InOrderCore::has_deferred_op) {
            return Some("a core holding a deferred run-ahead op");
        }
        None
    }

    /// Completes a restore at kernel clock `now`. An image is only ever
    /// taken between `run_cycles` calls, where [`Frontend::sync_to`] has
    /// aligned every core and the DMA accumulators to the clock, so none of
    /// the lazy cursors is in the image: each is derived here from the
    /// clock and the restored cores.
    pub(crate) fn resume_at(&mut self, now: u64) {
        self.positions.fill(now);
        self.dma_pos = now;
        for (action, core) in self.next_action.iter_mut().zip(&self.cores) {
            *action = core.next_due(now);
        }
        self.soonest_action = self.next_action.iter().copied().min().unwrap_or(u64::MAX);
    }

    /// Re-seeds the frontend's stochastic inputs — every core's workload
    /// stream and the DMA address/core selection RNG — as if the frontend had
    /// been constructed with `seed`, without touching any architectural
    /// state. Used by sweep replicates forked from one warm snapshot.
    pub fn reseed(&mut self, seed: u64) {
        self.streams.reseed(seed);
        self.rng = StdRng::seed_from_u64(seed.wrapping_mul(0x5851_F42D_4C95_7F2D) ^ 0xD3A);
    }

    /// Routes one L1-level request (refill or write-back) through the L2.
    fn handle_core_request(
        &mut self,
        core: usize,
        tenant: TenantId,
        addr: u64,
        is_writeback: bool,
        events: &mut Vec<FrontendEvent>,
    ) {
        let outcome = self.l2.access(addr, is_writeback);
        if let Some(victim) = outcome.writeback {
            events.push(FrontendEvent::Write {
                core,
                tenant,
                addr: victim,
                dma: false,
            });
        }
        if is_writeback {
            // L1 write-backs terminate at the L2 (write-allocate without
            // fetch); any capacity effect was handled via the victim above.
            return;
        }
        if outcome.hit {
            events.push(FrontendEvent::L2Hit {
                core,
                addr,
                ready_in: outcome.latency,
            });
        } else {
            events.push(FrontendEvent::Read { core, tenant, addr });
        }
    }

    fn inject_dma(&mut self, events: &mut Vec<FrontendEvent>) {
        for i in 0..self.dma.len() {
            self.dma[i].acc_fp += self.dma[i].rate_fp;
            while self.dma[i].acc_fp >= DMA_FP_ONE {
                self.dma[i].acc_fp -= DMA_FP_ONE;
                self.fire_dma_beat(i, events);
            }
        }
    }

    // --- Lazy per-core drive mode (the event kernel's frontend API) ---
    //
    // The eager mode above advances every core in lockstep. The lazy mode
    // instead tracks, per core, the next cycle it must be ticked at
    // (`next_action`) and how far the core has actually been simulated
    // (`positions`): cores a fill cannot reach sleep indefinitely, cores with
    // private work run ahead (see the module docs). The two modes must not
    // be mixed on one `Frontend`: eager calls do not maintain the lazy
    // cursors.

    /// Lazy mode: the earliest CPU cycle at which [`Frontend::advance_to`]
    /// would do real work — the soonest per-core action or DMA beat (see
    /// the [next-due contract](crate::kernel#the-next-due-contract)).
    #[must_use]
    pub fn next_due(&self) -> u64 {
        let mut next = self.soonest_action;
        for inj in &self.dma {
            let fire_in = (DMA_FP_ONE - inj.acc_fp - 1) / inj.rate_fp;
            next = next.min(self.dma_pos.saturating_add(fire_in));
        }
        next
    }

    /// Lazy mode: ticks every core whose action cycle is `now` (in ascending
    /// core order, preserving the eager mode's (cycle, core) order of L2
    /// accesses and events), lets each of them run ahead through its private
    /// work up to `limit` (exclusive; see the module docs), and accrues the
    /// DMA injectors through `now`, firing due beats. The caller must not
    /// jump past an action or beat cycle ([`Frontend::next_due`]
    /// reports the earliest one) and must execute every cycle below `limit`
    /// before it reads any counter.
    pub fn advance_to(&mut self, now: u64, limit: u64, events: &mut Vec<FrontendEvent>) {
        debug_assert!(limit > now, "run-ahead limit {limit} not past {now}");
        if self.soonest_action <= now {
            // Trace taps see ops in global consumption order: no run-ahead.
            let limit = if self.replay.is_some() || self.record.is_some() {
                now + 1
            } else {
                limit
            };
            let mut soonest = u64::MAX;
            for core in 0..self.cores.len() {
                if self.next_action[core] == now {
                    self.run_core(core, now, limit, events);
                }
                debug_assert!(
                    self.next_action[core] > now,
                    "core {core} action at {} missed by {now}",
                    self.next_action[core]
                );
                soonest = soonest.min(self.next_action[core]);
            }
            self.soonest_action = soonest;
        }
        self.advance_dma(now + 1, events);
    }

    /// Lazy mode: ticks core `core`, due at `now`, and runs it ahead through
    /// its private work up to `limit`, first completing in place an L2 hit
    /// the tick blocks it on (see the module docs).
    fn run_core(&mut self, core: usize, now: u64, limit: u64, events: &mut Vec<FrontendEvent>) {
        let gap = now - self.positions[core];
        if gap > 0 {
            self.cores[core].skip_cycles(gap);
        }
        let before = events.len();
        self.tick_core(core, events);
        let mut resume = now + 1;
        if let Some(&FrontendEvent::L2Hit { addr, ready_in, .. }) = events[before..].last() {
            let fill = now + ready_in;
            if (now + 1..limit).contains(&fill) && self.cores[core].blocked_on(addr) {
                events.pop();
                self.cores[core].skip_cycles(ready_in - 1);
                self.cores[core].fill(addr);
                self.private_fills += 1;
                resume = fill;
            }
        }
        let stream = self.streams.stream_mut(core);
        let position = resume + self.cores[core].run_ahead(limit - resume, || stream.next_op());
        self.positions[core] = position;
        self.next_action[core] = self.cores[core].next_due(position);
    }

    /// The workload generators' host-side work counts so far.
    pub(crate) fn generator_work(&self) -> GeneratorWork {
        self.streams.work()
    }

    /// L2 hits completed in place so far (see [`Frontend::run_core`]).
    #[cfg(test)]
    pub(crate) fn private_fills(&self) -> u64 {
        self.private_fills
    }

    /// Lazy mode: delivers a block to a core at `now` (memory fill or delayed
    /// L2 hit). A core behind `now` is caught up first; the skipped window
    /// is eventless by construction, since the core has been blocked (or
    /// coasting on runway past `now`) since its position. A core that ran
    /// ahead of `now` just takes the fill: it is not blocked, and nothing it
    /// did since `now` read the MSHR entry the fill completes.
    pub fn fill_at(&mut self, core: usize, addr: u64, now: u64) {
        if self.positions[core] > now {
            debug_assert!(!self.cores[core].is_stalled(), "stalled core ran ahead");
            self.cores[core].fill(addr);
            return;
        }
        let gap = now - self.positions[core];
        if gap > 0 {
            self.cores[core].skip_cycles(gap);
            self.positions[core] = now;
        }
        self.cores[core].fill(addr);
        self.next_action[core] = self.cores[core].next_due(now);
        self.soonest_action = self.soonest_action.min(self.next_action[core]);
    }

    /// Lazy mode: accrues DMA credit for all cycles below `upto`, firing any
    /// beats that come due (the caller guarantees at most the current cycle's
    /// beats do).
    fn advance_dma(&mut self, upto: u64, events: &mut Vec<FrontendEvent>) {
        let cycles = upto.saturating_sub(self.dma_pos);
        if cycles == 0 {
            return;
        }
        self.dma_pos = upto;
        for i in 0..self.dma.len() {
            let inj = &mut self.dma[i];
            inj.acc_fp += inj.rate_fp * cycles;
            while self.dma[i].acc_fp >= DMA_FP_ONE {
                self.dma[i].acc_fp -= DMA_FP_ONE;
                self.fire_dma_beat(i, events);
            }
        }
    }

    /// Emits one DMA beat for injector `i` (the rate-independent half of
    /// [`Frontend::inject_dma`]'s loop body, shared with the lazy mode).
    fn fire_dma_beat(&mut self, i: usize, events: &mut Vec<FrontendEvent>) {
        let inj = &mut self.dma[i];
        let core = inj.core_lo + self.rng.gen_range(0..inj.core_len);
        // DMA engines stream sequentially through I/O buffers in the shared
        // region: mostly the next cache block, occasionally a jump to a fresh
        // buffer. This gives DMA traffic the high row-buffer locality the
        // paper observes for Web Frontend's extra accesses.
        if inj.cursor == 0 || self.rng.gen_bool(1.0 / 24.0) {
            let base = 0x0400_0000u64;
            inj.cursor = base + self.rng.gen_range(0..0x0100_0000u64 / 8192) * 8192;
        } else {
            inj.cursor += 64;
        }
        let addr = inj.cursor;
        if self.rng.gen_bool(0.5) {
            events.push(FrontendEvent::DmaRead {
                core,
                tenant: inj.tenant,
                addr,
            });
        } else {
            events.push(FrontendEvent::Write {
                core,
                tenant: inj.tenant,
                addr,
                dma: true,
            });
        }
    }

    /// Lazy mode: flushes every core and the DMA accumulators up to (but not
    /// including) cycle `end`, so externally visible state (committed
    /// instruction counts, stall counters) reflects the full window. Valid
    /// only when no action or beat falls below `end` — i.e. `end` is at most
    /// [`Frontend::next_due`].
    pub fn sync_to(&mut self, end: u64) {
        for core in 0..self.cores.len() {
            debug_assert!(self.next_action[core] >= end, "sync_to skipped an action");
            let gap = end.saturating_sub(self.positions[core]);
            if gap > 0 {
                self.cores[core].skip_cycles(gap);
                self.positions[core] = end;
            }
        }
        let cycles = end.saturating_sub(self.dma_pos);
        if cycles > 0 {
            self.dma_pos = end;
            for inj in &mut self.dma {
                inj.acc_fp += inj.rate_fp * cycles;
                debug_assert!(
                    inj.acc_fp < DMA_FP_ONE,
                    "sync of {cycles} cycles crossed a DMA beat"
                );
            }
        }
    }
}

impl Tick for Frontend {
    type Event = FrontendEvent;

    /// Advances every core by one CPU cycle and injects DMA traffic,
    /// reporting everything that must leave the frontend this cycle.
    ///
    /// Each core's op comes from the replay trace when one is attached, and
    /// from its synthetic stream otherwise; either way the op is appended to
    /// the capture sink if the run is recording. A failing capture sink
    /// stops the capture; a failing replay trace (I/O error, parse error, or
    /// a core index beyond the bound count) parks the cores on the
    /// exhaustion filler. Both errors are deferred and surface from
    /// [`Frontend::finish_trace`], so driving the run is infallible.
    fn tick(&mut self, _now: u64, events: &mut Vec<FrontendEvent>) {
        for core_idx in 0..self.cores.len() {
            self.tick_core(core_idx, events);
        }
        self.inject_dma(events);
    }
}

impl Frontend {
    /// Advances one core by one CPU cycle: consume its next op (from the
    /// replay trace or its synthetic stream, tapped by the capture sink),
    /// or burn runway / stall, and route any L1 refills and write-backs it
    /// produces through the shared L2. The per-core body shared by the eager
    /// [`Tick::tick`] and the lazy [`Frontend::advance_to`].
    fn tick_core(&mut self, core_idx: usize, events: &mut Vec<FrontendEvent>) {
        let (requests, record_failure, replay_failure) = {
            let stream = self.streams.stream_mut(core_idx);
            let replay = &mut self.replay;
            let record = &mut self.record;
            let mut record_failure: Option<String> = None;
            let mut replay_failure: Option<String> = None;
            let mut source = || {
                let op = match replay.as_mut() {
                    Some(trace) => match trace.next_op(core_idx) {
                        Ok(op) => op,
                        Err(e) => {
                            replay_failure = Some(e.to_string());
                            TraceStream::EXHAUSTED_FILLER
                        }
                    },
                    None => stream.next_op(),
                };
                if let Some(writer) = record.as_mut() {
                    let trace_record = TraceRecord { core: core_idx, op };
                    if let Err(e) = writer.write(&trace_record) {
                        record_failure = Some(e.to_string());
                    }
                }
                op
            };
            let requests = self.cores[core_idx].tick(&mut source);
            (requests, record_failure, replay_failure)
        };
        if let Some(e) = replay_failure {
            // The stream poisoned itself: every core idles out on the
            // filler from here (never the synthetic generators — the
            // replay stays attached). The capture sink is dropped too:
            // a recording of a failed replay is garbage, and finish
            // reports the replay error regardless.
            self.replay_error.get_or_insert(e);
            self.record = None;
        }
        if let Some(e) = record_failure {
            // Keep only the first failure; later records are moot once
            // the sink is gone.
            self.record_error.get_or_insert(e);
            self.record = None;
        }
        for request in requests {
            self.handle_core_request(
                core_idx,
                request.tenant,
                request.addr,
                request.write,
                events,
            );
        }
    }
}

impl DmaInjector {
    /// Less than one beat of credit is ever carried between cycles; more
    /// would fire a burst of beats the run never accrued.
    fn check_restored(&mut self, r: &SnapReader<'_>) -> Result<(), SnapError> {
        if self.acc_fp >= DMA_FP_ONE {
            return Err(r.bad_value(format!(
                "DMA credit {} is a whole beat or more",
                self.acc_fp
            )));
        }
        Ok(())
    }
}

snap_fields! {
    DmaInjector {
        saved: { acc_fp, cursor },
        skipped: {
            tenant: "config-derived",
            core_lo: "config-derived",
            core_len: "config-derived",
            rate_fp: "config-derived",
        },
        after_load: Self::check_restored,
    }
}

snap_fields! {
    Frontend {
        section: "frontend",
        saved: {
            cores: fixed,
            streams,
            l2,
            rng: via(StdRng::state, StdRng::set_state),
            dma: fixed,
        },
        skipped: {
            positions: "equal to the kernel clock between run_cycles calls; set by resume_at",
            next_action: "each core's next_due at the restored clock; derived by resume_at",
            soonest_action: "the least next_action; derived by resume_at",
            dma_pos: "equal to the kernel clock between run_cycles calls; set by resume_at",
            private_fills: "host-side work counter, not simulated state",
            replay: "trace I/O handle; snapshot() refuses systems holding one",
            record: "trace I/O handle; snapshot() refuses systems holding one",
            record_error: "latched trace-I/O error, meaningless across a restore",
            replay_error: "latched trace-I/O error, meaningless across a restore",
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::FillQueue;
    use cloudmc_workloads::Workload;

    fn frontend(workload: Workload) -> Frontend {
        Frontend::new(&SystemConfig::baseline(workload)).unwrap()
    }

    #[test]
    fn cold_frontend_produces_memory_reads() {
        let mut fe = frontend(Workload::DataServing);
        let mut events = Vec::new();
        for cycle in 0..2_000 {
            fe.tick(cycle, &mut events);
        }
        assert!(
            events
                .iter()
                .any(|e| matches!(e, FrontendEvent::Read { .. })),
            "a cold 16-core frontend must miss off-chip"
        );
    }

    #[test]
    fn prewarm_seeds_the_caches() {
        let mut cold = frontend(Workload::WebSearch);
        let mut warm = frontend(Workload::WebSearch);
        warm.prewarm();
        let run = |fe: &mut Frontend| {
            let mut events = Vec::new();
            for cycle in 0..3_000 {
                fe.tick(cycle, &mut events);
            }
            // Feed every miss straight back so the cores keep running.
            let mut reads = 0usize;
            for e in &events {
                if let FrontendEvent::Read { core, addr, .. } = *e {
                    reads += 1;
                    fe.fill(core, addr);
                }
            }
            reads
        };
        let cold_reads = run(&mut cold);
        let warm_reads = run(&mut warm);
        assert!(
            warm_reads < cold_reads,
            "prewarmed frontend should miss less ({warm_reads} vs {cold_reads})"
        );
    }

    /// Memory latency of the drive harness below: a read completes this many
    /// cycles after it leaves the frontend.
    const MEMORY_CYCLES: u64 = 45;

    /// What an event kernel does with the frontend's output, reduced to
    /// fills: an L2 hit is posted `ready_in` cycles ahead, and a memory read
    /// completes `MEMORY_CYCLES` later and is posted then with the crossbar
    /// latency, after the frontend's phase of that cycle, as the kernel's
    /// backend phase posts it.
    struct FillHarness {
        fills: FillQueue,
        reads: FillQueue,
        crossbar: u64,
    }

    impl FillHarness {
        fn new(cfg: &SystemConfig) -> Self {
            Self {
                fills: FillQueue::new(),
                reads: FillQueue::new(),
                crossbar: cfg.l2.crossbar_latency,
            }
        }

        /// Posts the fills of the events `cycle` produced, then the data of
        /// the reads completing at `cycle`.
        fn post(&mut self, cycle: u64, events: &[FrontendEvent]) {
            for event in events {
                match *event {
                    FrontendEvent::L2Hit {
                        core,
                        addr,
                        ready_in,
                    } => self.fills.push(cycle + ready_in, core, addr),
                    FrontendEvent::Read { core, addr, .. } => {
                        self.reads.push(cycle + MEMORY_CYCLES, core, addr);
                    }
                    _ => {}
                }
            }
            while let Some((core, addr)) = self.reads.pop_due(cycle) {
                self.fills.push(cycle + self.crossbar, core, addr);
            }
        }

        fn next_due(&self) -> u64 {
            self.fills.next_due().min(self.reads.next_due())
        }
    }

    /// A frontend driven through a window of cycles at a time.
    struct Drive {
        fe: Frontend,
        harness: FillHarness,
        events: Vec<FrontendEvent>,
        cycle: u64,
        deferred_seen: bool,
    }

    impl Drive {
        fn new(cfg: &SystemConfig) -> Self {
            let mut fe = Frontend::new(cfg).unwrap();
            fe.prewarm();
            Self {
                fe,
                harness: FillHarness::new(cfg),
                events: Vec::new(),
                cycle: 0,
                deferred_seen: false,
            }
        }

        /// The reference: every core ticked on every cycle below `end`.
        fn eager_to(&mut self, end: u64) {
            for cycle in self.cycle..end {
                while let Some((core, addr)) = self.harness.fills.pop_due(cycle) {
                    self.fe.fill(core, addr);
                }
                let before = self.events.len();
                self.fe.tick(cycle, &mut self.events);
                self.harness.post(cycle, &self.events[before..]);
            }
            self.cycle = end;
        }

        /// The event kernel's drive to `end`, like one `run_cycles` call:
        /// jump to the soonest fill, read completion or frontend action, let
        /// due cores run ahead to `end` (or, with `run_ahead` off, only
        /// through the current cycle, as under a trace tap), then align
        /// every core to `end`.
        fn lazy_to(&mut self, end: u64, run_ahead: bool) {
            let fe = &mut self.fe;
            while self.cycle < end {
                let cycle = self.cycle;
                while let Some((core, addr)) = self.harness.fills.pop_due(cycle) {
                    fe.fill_at(core, addr, cycle);
                }
                let before = self.events.len();
                let limit = if run_ahead { end } else { cycle + 1 };
                fe.advance_to(cycle, limit, &mut self.events);
                self.harness.post(cycle, &self.events[before..]);
                if let Some(reason) = fe.snapshot_unsupported_reason() {
                    assert_eq!(reason, "a core holding a deferred run-ahead op");
                    self.deferred_seen = true;
                }
                let next = self.harness.next_due().min(fe.next_due()).min(end);
                assert!(next > cycle, "nothing may be due behind the clock");
                self.cycle = next;
            }
            fe.sync_to(end);
            assert_eq!(fe.snapshot_unsupported_reason(), None);
        }
    }

    /// Drives an eager and a lazy frontend of `cfg` through `horizon` cycles
    /// in windows of `window` cycles, checking after each window that they
    /// hold the same state.
    fn drive_both(cfg: &SystemConfig, horizon: u64, window: u64, run_ahead: bool) -> [Drive; 2] {
        let mut eager = Drive::new(cfg);
        let mut lazy = Drive::new(cfg);
        let mut end = 0;
        while end < horizon {
            end = (end + window).min(horizon);
            eager.eager_to(end);
            lazy.lazy_to(end, run_ahead);
            assert_same_state(&eager.fe, &lazy.fe, end);
        }
        [eager, lazy]
    }

    fn image<T: cloudmc_snap::Snap>(state: &T) -> Vec<u8> {
        let mut w = cloudmc_snap::SnapWriter::new(0);
        state.save(&mut w);
        w.finish()
    }

    /// Every counter and every piece of state an image carries — each
    /// core's (L1s, MSHR file in entry order, stall), the streams' and the
    /// L2's — must agree between two runs.
    fn assert_same_state(eager: &Frontend, lazy: &Frontend, cycle: u64) {
        for core in 0..eager.core_count() {
            let at = format!("core {core} at cycle {cycle}");
            assert_eq!(eager.core_stats(core), lazy.core_stats(core), "{at}");
            assert_eq!(eager.l1i_stats(core), lazy.l1i_stats(core), "{at}");
            assert_eq!(eager.l1d_stats(core), lazy.l1d_stats(core), "{at}");
            assert!(
                image(&eager.cores[core]) == image(&lazy.cores[core]),
                "{at}: image"
            );
        }
        assert_eq!(eager.l2_stats(), lazy.l2_stats(), "cycle {cycle}");
        assert!(image(&eager.l2) == image(&lazy.l2), "L2 image at {cycle}");
        assert!(
            image(&eager.streams) == image(&lazy.streams),
            "streams at {cycle}"
        );
    }

    fn is_l2_hit(event: &FrontendEvent) -> bool {
        matches!(event, FrontendEvent::L2Hit { .. })
    }

    /// The lazy mode — cores sleeping behind the clock or running ahead of
    /// it, misses deferred to their exact cycle, fills landing on cores that
    /// already ran past them, blocking L2 hits completed in place — must
    /// reach the eager mode's state and send the same traffic off-chip in
    /// the same order. Its L2 hits are the eager mode's minus exactly the
    /// ones it completed in place. Web Frontend adds DMA beats; Q6 with an
    /// eight-entry MSHR file has stores and overlappable loads hitting the
    /// L2 and enough misses in flight that the core images carry several
    /// MSHR entries in order, including ones an in-place L2 hit retired
    /// ahead of its fill cycle.
    #[test]
    fn lazy_run_ahead_matches_eager_ticking() {
        let mut deep = SystemConfig::baseline(Workload::TpchQ6);
        deep.core.max_outstanding_misses = 8;
        deep.workload.data_mpki = 40.0;
        deep.workload.mlp_fraction = 1.0;
        for cfg in [SystemConfig::baseline(Workload::WebFrontend), deep] {
            let name = cfg.workload.workload;
            let [eager, lazy] = drive_both(&cfg, 30_000, 1_000, true);
            assert!(lazy.deferred_seen, "{name}: no core ever deferred a miss");
            let off_chip = |d: &Drive| -> Vec<FrontendEvent> {
                d.events.iter().copied().filter(|e| !is_l2_hit(e)).collect()
            };
            assert_eq!(off_chip(&eager), off_chip(&lazy), "{name}: off-chip events");
            let eager_hits: Vec<_> = eager.events.iter().filter(|e| is_l2_hit(e)).collect();
            let mut eager_rest = eager_hits.iter();
            for hit in lazy.events.iter().filter(|e| is_l2_hit(e)) {
                assert!(
                    eager_rest.any(|e| *e == hit),
                    "{name}: lazy L2 hit {hit:?} out of the eager order"
                );
            }
            let lazy_hits = lazy.events.iter().filter(|e| is_l2_hit(e)).count();
            assert!(
                lazy.fe.private_fills() > 0,
                "{name}: no L2 hit completed in place"
            );
            assert!(lazy_hits > 0, "{name}: every L2 hit completed in place");
            assert_eq!(
                eager_hits.len() as u64,
                lazy_hits as u64 + lazy.fe.private_fills(),
                "{name}: L2 hits"
            );
        }
    }

    /// With no run-ahead (a trace tap's limit of one cycle) nothing is
    /// completed in place: the lazy event stream is the eager one exactly.
    #[test]
    fn lazy_without_run_ahead_matches_eager_events_exactly() {
        let cfg = SystemConfig::baseline(Workload::WebFrontend);
        let [eager, lazy] = drive_both(&cfg, 12_000, 4_000, false);
        assert_eq!(lazy.fe.private_fills(), 0);
        assert!(eager.events.iter().any(is_l2_hit));
        assert_eq!(eager.events, lazy.events, "event streams must match");
    }

    /// Recording a run and replaying the trace drives the cores through the
    /// exact same event stream — the frontend-level half of the record→replay
    /// equivalence guarantee.
    #[test]
    fn record_then_replay_reproduces_the_event_stream() {
        let path = std::env::temp_dir().join(format!(
            "cloudmc_frontend_roundtrip_{}.trace",
            std::process::id()
        ));
        let run = |fe: &mut Frontend| {
            let mut events = Vec::new();
            for cycle in 0..5_000 {
                let before = events.len();
                fe.tick(cycle, &mut events);
                for e in &events[before..] {
                    if let FrontendEvent::Read { core, addr, .. }
                    | FrontendEvent::L2Hit { core, addr, .. } = *e
                    {
                        fe.fill(core, addr);
                    }
                }
            }
            events
        };
        // WebFrontend exercises the DMA injector alongside the core streams.
        let mut cfg = SystemConfig::baseline(Workload::WebFrontend);
        cfg.trace_record = Some(path.clone());
        let mut recorder = Frontend::new(&cfg).unwrap();
        assert!(!recorder.is_replaying());
        let recorded_events = run(&mut recorder);
        let records = recorder.finish_trace().unwrap().expect("was recording");
        assert!(records > 0);

        let mut replay_cfg = SystemConfig::baseline(Workload::WebFrontend);
        replay_cfg.source = cloudmc_workloads::WorkloadSource::Trace(path.clone());
        let mut replayer = Frontend::new(&replay_cfg).unwrap();
        assert!(replayer.is_replaying());
        let replayed_events = run(&mut replayer);
        assert_eq!(recorded_events, replayed_events);
        assert_eq!(
            replayer.replay.as_ref().map(TraceStream::records_read),
            Some(records)
        );
        assert_eq!(recorder.committed_per_core(), replayer.committed_per_core());
        assert_eq!(replayer.finish_trace().unwrap(), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_replay_trace_is_a_clear_trace_error() {
        let mut cfg = SystemConfig::baseline(Workload::WebSearch);
        cfg.source = cloudmc_workloads::WorkloadSource::Trace("/nonexistent/never/x.trace".into());
        match Frontend::new(&cfg) {
            Err(SimError::Trace(msg)) => assert!(msg.contains("x.trace"), "{msg}"),
            other => panic!("expected a trace error, got {other:?}"),
        }
    }

    #[test]
    fn web_frontend_injects_dma_traffic() {
        let mut fe = frontend(Workload::WebFrontend);
        let mut events = Vec::new();
        for cycle in 0..20_000 {
            fe.tick(cycle, &mut events);
        }
        assert!(events.iter().any(|e| matches!(
            e,
            FrontendEvent::DmaRead { .. } | FrontendEvent::Write { dma: true, .. }
        )));
    }
}
