//! The full-system simulator: the [`kernel`](crate::kernel) composing a
//! CPU-side [`Frontend`] with a memory-side [`Backend`].
//!
//! [`System`] owns the cross-domain state — request-id allocation and the
//! [`FillQueue`] of data on its way back to cores — and advances the two
//! clock domains through [`ClockCrossing`]. All component behaviour lives in
//! the frontend (cores, caches, workload streams, DMA) and the backend
//! (memory controller, DRAM). A completed demand read carries its core and
//! block address in its [`MemoryRequest`], so no side table of outstanding
//! reads exists: the completion alone posts the fill.

use std::time::Instant;

use cloudmc_memctrl::{
    AccessKind, CompletedRequest, McStats, MemoryRequest, RequestId, RowBufferOutcome, MAX_TENANTS,
};
use cloudmc_snap::{snap_fields, Counter, Snap, SnapError, SnapReader};
use cloudmc_telemetry::{
    KernelPhase, KernelProfile, KernelProfiler, SpanAccess, SpanOutcome, SpanRecord,
    TelemetrySample,
};

use crate::backend::Backend;
use crate::config::SystemConfig;
use crate::error::SimError;
use crate::frontend::{Frontend, FrontendEvent};
use crate::kernel::{ClockCrossing, FillQueue, Tick};
use crate::snapshot::{config_fingerprint, Snapshot};
use crate::stats::SimStats;

/// Baseline of all monotonically increasing counters, used to compute
/// measurement-window deltas after warm-up. (Distinct from the public
/// [`Snapshot`](crate::Snapshot) checkpoint image: this captures *derived
/// aggregates* for subtraction, not restorable state.)
#[derive(Debug, Clone, Default)]
struct CounterBaseline {
    cpu_cycles: u64,
    dram_cycles: u64,
    committed: Vec<u64>,
    mem_reads_sent: u64,
    mem_writes_sent: u64,
    mc: McStats,
    device: cloudmc_dram::ChannelStats,
}

/// All mutable telemetry state, boxed behind one `Option` so a run with
/// telemetry off carries a single `None` pointer and the tick path never
/// allocates or branches into this block.
#[derive(Debug)]
struct TelemetryState {
    /// Time-series sample period (CPU cycles); 0 when the series is off.
    interval: u64,
    /// The next CPU cycle at which a time-series sample is due; `u64::MAX`
    /// when the series is off.
    next_sample: u64,
    /// Counter values at the previous sample boundary (or system build),
    /// subtracted from the current values to produce windowed deltas.
    last: CounterBaseline,
    series: Vec<TelemetrySample>,
    /// Span-trace sampling period (request ids); 0 when tracing is off.
    span_every: u64,
    spans: Vec<SpanRecord>,
    profiler: Option<KernelProfiler>,
}

impl TelemetryState {
    fn new(cfg: &cloudmc_telemetry::TelemetryConfig, last: CounterBaseline) -> Self {
        Self {
            interval: cfg.sample_interval,
            next_sample: if cfg.sample_interval > 0 {
                cfg.sample_interval
            } else {
                u64::MAX
            },
            last,
            series: Vec::new(),
            span_every: cfg.span_sample_every,
            spans: Vec::new(),
            profiler: cfg.profile_kernel.then(KernelProfiler::default),
        }
    }
}

/// The simulated 16-core pod with its memory system.
///
/// # Examples
///
/// ```
/// use cloudmc_sim::{Simulator, SystemConfig};
/// use cloudmc_workloads::Workload;
///
/// let mut cfg = SystemConfig::baseline(Workload::WebSearch);
/// cfg.warmup_cpu_cycles = 5_000;
/// cfg.measure_cpu_cycles = 20_000;
/// let stats = Simulator::new(cfg)?.try_run()?;
/// assert!(stats.user_ipc() > 0.0);
/// # Ok::<(), cloudmc_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct System {
    cfg: SystemConfig,
    frontend: Frontend,
    backend: Backend,
    clock: ClockCrossing,
    fills: FillQueue,
    next_request_id: RequestId,
    mem_reads_sent: u64,
    mem_writes_sent: u64,
    /// Off-chip requests (reads plus writes) sent per tenant, for per-tenant
    /// request-conservation checks.
    mem_sent_per_tenant: [u64; MAX_TENANTS],
    /// Reusable event buffers (one per clock domain).
    frontend_events: Vec<FrontendEvent>,
    completions: Vec<cloudmc_memctrl::CompletedRequest>,
    /// Telemetry state; `None` when every layer is off, in which case the
    /// per-step telemetry checks reduce to one pointer-is-null branch.
    telemetry: Option<Box<TelemetryState>>,
    /// Cached `cfg.telemetry.profile_kernel` so the hot loops can skip
    /// `Instant::now` without chasing the telemetry pointer.
    profile: bool,
    /// Driven by the per-cycle reference loop instead of the event kernel.
    /// Fixed at construction ([`Simulator::reference`]): the two drivers keep
    /// different bookkeeping (the reference loop never maintains the lazy
    /// frontend cursors or the controller's per-channel due bounds), so a
    /// system is bound to one of them for life.
    reference: bool,
}

impl System {
    /// Builds the system described by `cfg`, driven by the event kernel.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if the configuration is invalid, and
    /// [`SimError::Trace`] if the replay trace cannot be opened or the
    /// capture sink cannot be created.
    pub fn new(cfg: SystemConfig) -> Result<Self, SimError> {
        Self::build(cfg, false).map(Self::prewarmed)
    }

    /// Builds the system described by `cfg`, driven by the event kernel or,
    /// with `reference`, by the per-cycle loop ([`Simulator::reference`]),
    /// without the functional prewarm: [`System::restore`] overwrites every
    /// line it would install.
    fn build(cfg: SystemConfig, reference: bool) -> Result<Self, SimError> {
        cfg.validate()?;
        let backend = Backend::new(&cfg)?;
        let frontend = Frontend::new(&cfg)?;
        let mut system = Self {
            frontend,
            backend,
            clock: ClockCrossing::new(),
            fills: FillQueue::new(),
            next_request_id: 0,
            mem_reads_sent: 0,
            mem_writes_sent: 0,
            mem_sent_per_tenant: [0; MAX_TENANTS],
            frontend_events: Vec::new(),
            completions: Vec::new(),
            telemetry: None,
            profile: cfg.telemetry.profile_kernel,
            reference,
            cfg,
        };
        if system.cfg.telemetry.is_active() {
            let baseline = system.counter_baseline();
            system.telemetry = Some(Box::new(TelemetryState::new(
                &system.cfg.telemetry,
                baseline,
            )));
        }
        Ok(system)
    }

    /// Runs the functional prewarm if `cfg.functional_warmup` asks for it.
    /// It touches only the caches (lines, counters, LRU clocks), none of
    /// which the telemetry baseline reads.
    fn prewarmed(mut self) -> Self {
        if self.cfg.functional_warmup {
            self.frontend.prewarm();
        }
        self
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Current CPU cycle.
    #[must_use]
    pub fn cpu_cycle(&self) -> u64 {
        self.clock.cpu_cycle()
    }

    /// Committed user instructions per core so far.
    #[must_use]
    pub fn committed_per_core(&self) -> Vec<u64> {
        self.frontend.committed_per_core()
    }

    /// Performance counters of one core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn core_stats(&self, core: usize) -> &cloudmc_cpu::CoreStats {
        self.frontend.core_stats(core)
    }

    /// L1 instruction-cache counters of one core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn l1i_stats(&self, core: usize) -> &cloudmc_cpu::CacheStats {
        self.frontend.l1i_stats(core)
    }

    /// L1 data-cache counters of one core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn l1d_stats(&self, core: usize) -> &cloudmc_cpu::CacheStats {
        self.frontend.l1d_stats(core)
    }

    /// Aggregated shared-L2 counters.
    #[must_use]
    pub fn l2_stats(&self) -> cloudmc_cpu::CacheStats {
        self.frontend.l2_stats()
    }

    /// Controller statistics accumulated since reset, merged over all
    /// channels.
    #[must_use]
    pub fn controller_stats(&self) -> McStats {
        self.backend.stats()
    }

    /// The memory backend (the controller and its back-pressure buckets).
    #[must_use]
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// Memory read requests sent off-chip so far (demand plus DMA).
    #[must_use]
    pub fn memory_reads_sent(&self) -> u64 {
        self.mem_reads_sent
    }

    /// Memory write requests sent off-chip so far (write-backs plus DMA).
    #[must_use]
    pub fn memory_writes_sent(&self) -> u64 {
        self.mem_writes_sent
    }

    /// Memory requests (reads plus writes) sent off-chip so far, per tenant.
    #[must_use]
    pub fn memory_sent_per_tenant(&self) -> [u64; MAX_TENANTS] {
        self.mem_sent_per_tenant
    }

    /// Requests sent but not yet completed by the backend, wherever they
    /// currently wait (controller queues, DRAM, or retry buckets).
    #[must_use]
    pub fn requests_in_flight(&self) -> u64 {
        (self.backend.pending() + self.backend.retry_backlog()) as u64
    }

    /// Requests sent but not yet completed, per tenant (controller queues,
    /// DRAM in-flight, and retry buckets).
    #[must_use]
    pub fn requests_in_flight_per_tenant(&self) -> [u64; MAX_TENANTS] {
        self.backend.pending_per_tenant()
    }

    fn alloc_request_id(&mut self) -> RequestId {
        let id = self.next_request_id;
        self.next_request_id += 1;
        id
    }

    /// Hands one frontend event to the right destination: fills back into the
    /// fill queue, off-chip traffic into the backend.
    fn dispatch(&mut self, event: FrontendEvent) {
        let now_dram = self.clock.dram_cycle();
        match event {
            FrontendEvent::L2Hit {
                core,
                addr,
                ready_in,
            } => {
                self.fills
                    .push(self.clock.cpu_cycle() + ready_in, core, addr);
            }
            FrontendEvent::Read { core, tenant, addr } => {
                let id = self.alloc_request_id();
                self.mem_reads_sent += 1;
                self.mem_sent_per_tenant[tenant.min(MAX_TENANTS - 1)] += 1;
                self.backend.submit(
                    MemoryRequest::new(id, AccessKind::Read, addr, core, now_dram)
                        .with_tenant(tenant),
                    now_dram,
                );
            }
            FrontendEvent::Write {
                core,
                tenant,
                addr,
                dma,
            } => {
                let id = self.alloc_request_id();
                self.mem_writes_sent += 1;
                self.mem_sent_per_tenant[tenant.min(MAX_TENANTS - 1)] += 1;
                let request = if dma {
                    MemoryRequest::dma(id, AccessKind::Write, addr, core, now_dram)
                } else {
                    MemoryRequest::new(id, AccessKind::Write, addr, core, now_dram)
                };
                self.backend.submit(request.with_tenant(tenant), now_dram);
            }
            FrontendEvent::DmaRead { core, tenant, addr } => {
                let id = self.alloc_request_id();
                self.mem_reads_sent += 1;
                self.mem_sent_per_tenant[tenant.min(MAX_TENANTS - 1)] += 1;
                self.backend.submit(
                    MemoryRequest::dma(id, AccessKind::Read, addr, core, now_dram)
                        .with_tenant(tenant),
                    now_dram,
                );
            }
        }
    }

    /// Sends the data of a completed demand read back through the crossbar to
    /// the core waiting on it. Writes and DMA reads wake no core, and patrol
    /// scrub reads never leave the controller.
    fn post_fill(&mut self, done: &CompletedRequest, now_cpu: u64) {
        let request = &done.request;
        if request.kind.is_read() && !request.dma {
            let due = now_cpu + self.cfg.l2.crossbar_latency;
            self.fills.push(due, request.core, request.addr);
        }
    }

    /// Advances the whole system by one CPU cycle: the body of the per-cycle
    /// reference loop. Private because it drives the eager frontend and the
    /// every-channel backend tick, which do not maintain the event kernel's
    /// cursors — only [`Simulator::reference`] systems may run it.
    fn step(&mut self) {
        let now_cpu = self.clock.cpu_cycle();
        let t0 = self.prof_start();

        // 1. Deliver data that reached its core this cycle.
        while let Some((core, addr)) = self.fills.pop_due(now_cpu) {
            self.frontend.fill(core, addr);
        }

        // 2. One frontend (CPU-domain) cycle.
        let mut events = std::mem::take(&mut self.frontend_events);
        events.clear();
        self.frontend.tick(now_cpu, &mut events);
        for event in events.drain(..) {
            self.dispatch(event);
        }
        self.frontend_events = events;
        self.prof_add(KernelPhase::Frontend, t0);
        let t0 = self.prof_start();

        // 3. As many backend (DRAM-domain) cycles as the clock ratio owes.
        for _ in 0..self.clock.accrue_cpu_cycle() {
            let now_dram = self.clock.dram_cycle();
            let mut completions = std::mem::take(&mut self.completions);
            completions.clear();
            self.backend.tick(now_dram, &mut completions);
            for done in completions.drain(..) {
                self.post_fill(&done, now_cpu);
                self.note_span_completion(&done);
            }
            self.completions = completions;
            self.clock.complete_dram_tick();
        }
        self.prof_add(KernelPhase::Backend, t0);
        self.prof_cycles(1, 0);

        self.clock.complete_cpu_cycle();
    }

    /// Advances the whole system by the one CPU cycle the event kernel has
    /// proven non-empty: the event-driven counterpart of [`System::step`].
    /// The phase order within the cycle is identical (fills, frontend,
    /// accrued DRAM ticks) — only the *driving* differs: blocked cores are
    /// caught up on demand ([`Frontend::fill_at`] /
    /// [`Frontend::advance_to`]) instead of ticked, due cores run ahead
    /// through their private work up to `limit`, and only due channels run
    /// a full controller tick ([`Backend::tick_event`]).
    fn step_event(&mut self, limit: u64) {
        let now_cpu = self.clock.cpu_cycle();
        let t0 = self.prof_start();

        // 1. Deliver data that reached its core this cycle, catching each
        //    receiving core up to the present.
        while let Some((core, addr)) = self.fills.pop_due(now_cpu) {
            self.frontend.fill_at(core, addr, now_cpu);
        }

        // 2. Run exactly the cores whose action cycle is now, plus due DMA.
        let mut events = std::mem::take(&mut self.frontend_events);
        events.clear();
        self.frontend.advance_to(now_cpu, limit, &mut events);
        for event in events.drain(..) {
            self.dispatch(event);
        }
        self.frontend_events = events;
        self.prof_add(KernelPhase::Frontend, t0);
        let t0 = self.prof_start();

        // 3. As many backend (DRAM-domain) cycles as the clock ratio owes.
        let dram_ticks = self.clock.accrue_cpu_cycle();
        let mut ticked = 0;
        for _ in 0..dram_ticks {
            let now_dram = self.clock.dram_cycle();
            let mut completions = std::mem::take(&mut self.completions);
            completions.clear();
            ticked += self.backend.tick_event(now_dram, &mut completions);
            for done in completions.drain(..) {
                self.post_fill(&done, now_cpu);
                self.note_span_completion(&done);
            }
            self.completions = completions;
            self.clock.complete_dram_tick();
        }
        self.prof_add(KernelPhase::Backend, t0);
        self.prof_cycles(1, 0);
        self.prof_channel_cycles(dram_ticks, ticked);

        self.clock.complete_cpu_cycle();
    }

    /// Runs the system to CPU cycle `end` on the event kernel: every layer's
    /// posted next-actionable cycle (earliest fill delivery, earliest core
    /// action or DMA beat, earliest due memory channel mapped through the
    /// clock crossing) is consulted once per iteration, the clocks jump
    /// straight to the soonest one, and exactly that cycle is executed.
    /// Cores sit lazily behind the kernel clock or run privately ahead of
    /// it — never past `end` or the next sample boundary, the two points
    /// where their counters are read — and are aligned once at `end`.
    fn run_event_driven(&mut self, end: u64) {
        while self.clock.cpu_cycle() < end {
            let now = self.clock.cpu_cycle();
            if now == self.next_sample_boundary() {
                // Every cycle below the boundary is executed (loop
                // invariant), so aligning the lazy cores here is pure
                // counter bookkeeping and the sampled counters read exactly
                // as the reference loop's would at this cycle.
                self.frontend.sync_to(now);
                self.take_sample();
                continue;
            }
            let t0 = self.prof_start();
            // The backend's bound is clamped in the DRAM domain, to the next
            // DRAM tick: a due-now answer steps to the CPU cycle that tick
            // runs in, not to the current one.
            let backend = self.backend.next_due().max(self.clock.dram_cycle());
            let target = self
                .fills
                .next_due()
                .min(self.frontend.next_due())
                .min(self.clock.cpu_cycle_of_dram_tick(backend))
                .min(end)
                .min(self.next_sample_boundary())
                .max(now);
            self.prof_add(KernelPhase::NextDue, t0);
            if target > now {
                // Every cycle in [now, target) is provably eventless. Apply
                // the closed-form side effects the reference loop would have
                // produced — DRAM queue samples and both clocks; the lazy
                // frontend needs nothing, its cores catch up on demand.
                let cycles = target - now;
                let dram_ticks = self.clock.dram_ticks_within(cycles);
                if dram_ticks > 0 {
                    self.backend.skip_dram_cycles(dram_ticks);
                }
                self.clock.fast_forward(cycles);
                self.prof_cycles(0, cycles);
                self.prof_channel_cycles(dram_ticks, 0);
            } else {
                self.step_event(end.min(self.next_sample_boundary()));
            }
        }
        // The loop invariant guarantees no action below `end` is pending, so
        // aligning every core and DMA accumulator to `end` is pure counter
        // bookkeeping.
        self.frontend.sync_to(end);
        // A boundary landing exactly on `end` samples here, after the final
        // sync — the same cycle the reference loop samples it on.
        self.maybe_sample();
    }

    /// Runs `cycles` CPU cycles on the driver the system was built with: the
    /// event kernel ([`System::new`]), which jumps over every stretch of
    /// cycles no layer can act in, or the per-cycle reference loop
    /// ([`Simulator::reference`]). The two are bit-identical in every statistic
    /// (`tests/fast_forward_equivalence.rs` holds them to that).
    pub fn run_cycles(&mut self, cycles: u64) {
        let t0 = self.prof_start();
        if self.reference {
            self.run_reference(cycles);
        } else {
            self.run_event_driven(self.clock.cpu_cycle().saturating_add(cycles));
        }
        if let Some(start) = t0 {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if let Some(p) = self.profiler_mut() {
                p.record_total(nanos);
            }
        }
    }

    /// The per-cycle reference loop: the test oracle, not a production
    /// path. Steps every cycle and checks the sample boundary after each.
    fn run_reference(&mut self, cycles: u64) {
        if self.telemetry.is_some() {
            for _ in 0..cycles {
                self.step();
                self.maybe_sample();
            }
        } else {
            for _ in 0..cycles {
                self.step();
            }
        }
    }

    /// Why this system cannot be checkpointed right now, if it cannot:
    /// attached trace taps, a deferred run-ahead op or an active telemetry
    /// sink hold state the snapshot format does not capture, and a
    /// [`Simulator::reference`] system never maintains part of what the image
    /// carries. `None` means [`System::snapshot`] will succeed.
    #[must_use]
    pub fn snapshot_unsupported_reason(&self) -> Option<&'static str> {
        if self.reference {
            // The image carries the lazy frontend cursors and the per-channel
            // due bounds, which only the event kernel maintains; a restore
            // (always event-driven) would trust the stale values.
            return Some("the per-cycle reference driver");
        }
        if self.telemetry.is_some() {
            // Sample cursors, pending spans and profiler accumulators are
            // deliberately outside the snapshot format; a restored replica
            // would silently produce a truncated series otherwise.
            return Some("an active telemetry sink");
        }
        self.frontend.snapshot_unsupported_reason()
    }

    /// Captures the system's complete mutable state as an opaque,
    /// self-validating [`Snapshot`] image. Restoring it with
    /// [`System::restore`] under the same configuration yields a system that
    /// continues bit-identically to this one.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Snapshot`] if the system holds state the format
    /// cannot capture: a trace replay source or capture sink, or an active
    /// telemetry sink — or if it is driven by the reference loop
    /// ([`Simulator::reference`]).
    pub fn snapshot(&self) -> Result<Snapshot, SimError> {
        if let Some(reason) = self.snapshot_unsupported_reason() {
            return Err(SimError::Snapshot(format!(
                "cannot snapshot a system with {reason}"
            )));
        }
        let mut w = cloudmc_snap::SnapWriter::new(config_fingerprint(&self.cfg));
        self.save(&mut w);
        Ok(Snapshot::from_bytes(w.finish()))
    }

    /// Builds a fresh system from `cfg` and overlays the mutable state saved
    /// in `snapshot`. The restored system continues bit-identically to the
    /// one that produced the image — same statistics, same event order. The
    /// build skips the functional prewarm: the image carries every cache
    /// line, counter and LRU clock it would have set.
    ///
    /// # Errors
    ///
    /// Returns the errors of [`System::new`], and
    /// [`SimError::Snapshot`] if the image was produced under a different
    /// configuration (fingerprint mismatch), is truncated or corrupted
    /// (checksum or per-field validation failure naming the section and byte
    /// offset), or `cfg` requires unsupported snapshot features.
    pub fn restore(cfg: SystemConfig, snapshot: &Snapshot) -> Result<Self, SimError> {
        let fingerprint = config_fingerprint(&cfg);
        let mut system = Self::build(cfg, false)?;
        if let Some(reason) = system.snapshot_unsupported_reason() {
            return Err(SimError::Snapshot(format!(
                "cannot restore a system with {reason}"
            )));
        }
        system
            .load_snapshot(snapshot.as_bytes(), fingerprint)
            .map_err(|e| SimError::Snapshot(e.to_string()))?;
        Ok(system)
    }

    /// The body of [`System::restore`]: parses the image and overlays it onto
    /// `self`, keeping the typed `SnapError` for the caller to wrap.
    fn load_snapshot(&mut self, bytes: &[u8], fingerprint: u64) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes, fingerprint)?;
        self.load(&mut r)?;
        r.finish()
    }

    /// Aligns the frontend's lazy cursors to the restored clock and checks
    /// that every fill on its way back names a core that exists (a read
    /// still in the backend was checked against the core count there).
    fn check_restored(&mut self, r: &SnapReader<'_>) -> Result<(), SnapError> {
        self.frontend.resume_at(self.clock.cpu_cycle());
        let cores = self.frontend.core_count();
        if let Some(&(core, _)) = self.fills.pending().find(|&&(core, _)| core >= cores) {
            return Err(r.bad_value(format!("data on its way back to core {core} of {cores}")));
        }
        Ok(())
    }

    /// Re-seeds the stochastic inputs (workload streams and DMA RNG) as if
    /// the system had been built with `seed`, leaving all architectural
    /// state untouched. Replicates forked from one warm snapshot diverge
    /// through this.
    pub fn reseed(&mut self, seed: u64) {
        self.frontend.reseed(seed);
    }

    /// The next CPU cycle at which a time-series sample is due; `u64::MAX`
    /// when the series layer is off.
    fn next_sample_boundary(&self) -> u64 {
        self.telemetry
            .as_deref()
            .map_or(u64::MAX, |t| t.next_sample)
    }

    /// Takes any samples whose boundary the clock has reached. With the
    /// series off this is one null-pointer branch.
    fn maybe_sample(&mut self) {
        while self.clock.cpu_cycle() >= self.next_sample_boundary() {
            self.take_sample();
        }
    }

    /// Records one time-series sample of the window since the previous
    /// boundary. The caller guarantees the system sits exactly at the
    /// boundary cycle with every layer caught up (the event kernel syncs its
    /// lazy frontend first), so the windowed counters read identically under
    /// the event kernel and the reference loop.
    fn take_sample(&mut self) {
        let cur = self.counter_baseline();
        // Per the `TelemetrySample` contract the share vector is empty in
        // single-tenant runs (the lone tenant's share is always 1).
        let tenants = match self.cfg.tenancy().tenant_count() {
            0 | 1 => 0,
            n => n,
        };
        let Some(t) = self.telemetry.as_deref_mut() else {
            return;
        };
        let mc = cur.mc.delta(&t.last.mc);
        let device = cur.device.delta(&t.last.device);
        let cpu_cycles = cur.cpu_cycles - t.last.cpu_cycles;
        let committed = cur.committed.iter().sum::<u64>() - t.last.committed.iter().sum::<u64>();
        let ipc = if cpu_cycles == 0 {
            0.0
        } else {
            committed as f64 / cpu_cycles as f64
        };
        let reliability_events = mc.ecc_corrected
            + mc.ecc_detected_uncorrectable
            + mc.ecc_miscorrects
            + mc.scrub_corrected
            + mc.scrub_uncorrectable
            + mc.rows_retired
            + mc.lines_poisoned;
        t.series.push(TelemetrySample {
            cycle: cur.cpu_cycles,
            ipc,
            reads_completed: mc.reads_completed,
            writes_completed: mc.writes_completed,
            avg_read_latency: mc.avg_read_latency(),
            row_hit_rate: mc.row_buffer_hit_rate(),
            avg_read_queue: mc.avg_read_queue_len(),
            bandwidth_share: (0..tenants)
                .map(|tn| mc.bandwidth_share_for_tenant(tn))
                .collect(),
            power_down_fraction: device.power_down_fraction(),
            reliability_events,
        });
        t.last = cur;
        t.next_sample = t.next_sample.saturating_add(t.interval.max(1));
    }

    /// Records the span of a sampled request from its backend completion
    /// record. Sampling is by request id, so the reference loop and the
    /// event kernel trace the same requests.
    fn note_span_completion(&mut self, done: &CompletedRequest) {
        let Some(t) = self.telemetry.as_deref_mut() else {
            return;
        };
        if t.span_every == 0 || !done.request.id.is_multiple_of(t.span_every) {
            return;
        }
        t.spans.push(SpanRecord {
            id: done.request.id,
            access: if done.request.kind.is_read() {
                SpanAccess::Read
            } else {
                SpanAccess::Write
            },
            core: done.request.core,
            tenant: done.request.tenant,
            channel: done.channel,
            enqueue: done.request.arrival,
            issue: done.issue,
            completion: done.completion,
            outcome: match done.outcome {
                RowBufferOutcome::Hit => SpanOutcome::Hit,
                RowBufferOutcome::Miss => SpanOutcome::Miss,
                RowBufferOutcome::Conflict => SpanOutcome::Conflict,
            },
            retries: done.retries,
        });
    }

    /// Starts a wall-clock phase measurement; `None` when profiling is off,
    /// so hot loops pay a single boolean test.
    #[expect(
        clippy::disallowed_methods,
        reason = "profile-gated: measures host time only, never sim state"
    )]
    fn prof_start(&self) -> Option<Instant> {
        self.profile.then(Instant::now)
    }

    /// Folds a finished phase measurement into the profiler.
    fn prof_add(&mut self, phase: KernelPhase, start: Option<Instant>) {
        if let Some(start) = start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if let Some(p) = self.profiler_mut() {
                p.record(phase, nanos);
            }
        }
    }

    fn profiler_mut(&mut self) -> Option<&mut KernelProfiler> {
        self.telemetry
            .as_deref_mut()
            .and_then(|t| t.profiler.as_mut())
    }

    /// Accounts simulated CPU cycles to the profiler's stepped/jumped split.
    fn prof_cycles(&mut self, stepped: u64, jumped: u64) {
        if !self.profile {
            return;
        }
        if let Some(p) = self.profiler_mut() {
            p.record_stepped_cycles(stepped);
            p.record_jumped_cycles(jumped);
        }
    }

    /// Accounts `dram_ticks` DRAM cycles, on which channels ran `ticked`
    /// full controller ticks in all, to the profiler's channel-tick split.
    fn prof_channel_cycles(&mut self, dram_ticks: u64, ticked: usize) {
        if !self.profile {
            return;
        }
        let channel_cycles = dram_ticks * self.backend.total_channels() as u64;
        if let Some(p) = self.profiler_mut() {
            p.record_channel_cycles(ticked as u64, channel_cycles - ticked as u64);
        }
    }

    /// Interval time-series samples collected so far (empty when the series
    /// layer is off).
    #[must_use]
    pub fn telemetry_series(&self) -> &[TelemetrySample] {
        self.telemetry.as_deref().map_or(&[], |t| &t.series)
    }

    /// Sampled request spans completed so far (empty when span tracing is
    /// off).
    #[must_use]
    pub fn telemetry_spans(&self) -> &[SpanRecord] {
        self.telemetry.as_deref().map_or(&[], |t| &t.spans)
    }

    /// The finished kernel self-profile up to the current cycle, or `None`
    /// when the profiler layer is off.
    #[must_use]
    pub fn kernel_profile(&self) -> Option<KernelProfile> {
        let profiler = self.telemetry.as_deref()?.profiler.as_ref()?;
        let work = self.backend.pick_work();
        let generated = self.frontend.generator_work();
        Some(KernelProfile {
            pick_entries_read: work.entries_read,
            pick_keys_read: work.keys_read,
            pick_legality_checks: work.legality_checks,
            ops_generated: generated.ops_generated,
            interval_draws: generated.interval_draws,
            exact_draws: generated.exact_draws,
            ..profiler.finish(self.clock.cpu_cycle(), self.clock.dram_cycle())
        })
    }

    /// Writes the configured telemetry output files (time series and span
    /// trace, both JSON lines). No-op when no output path is configured;
    /// call once at the end of a run — [`Simulator::run_measurement`] does.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Telemetry`] naming the file on any write failure.
    pub fn finish_telemetry(&self) -> Result<(), SimError> {
        let Some(t) = self.telemetry.as_deref() else {
            return Ok(());
        };
        if let Some(path) = &self.cfg.telemetry.series_path {
            cloudmc_telemetry::write_jsonl_file(path, t.series.iter().map(|s| s.to_jsonl()))
                .map_err(|e| {
                    SimError::Telemetry(format!("writing time series to {}: {e}", path.display()))
                })?;
        }
        if let Some(path) = &self.cfg.telemetry.span_path {
            cloudmc_telemetry::write_jsonl_file(path, t.spans.iter().map(|s| s.to_jsonl()))
                .map_err(|e| {
                    SimError::Telemetry(format!("writing span trace to {}: {e}", path.display()))
                })?;
        }
        Ok(())
    }

    fn counter_baseline(&self) -> CounterBaseline {
        CounterBaseline {
            cpu_cycles: self.clock.cpu_cycle(),
            dram_cycles: self.clock.dram_cycle(),
            committed: self.committed_per_core(),
            mem_reads_sent: self.mem_reads_sent,
            mem_writes_sent: self.mem_writes_sent,
            mc: self.backend.stats(),
            device: self.backend.device_totals_at(self.clock.dram_cycle()),
        }
    }

    fn stats_since(&self, start: &CounterBaseline) -> SimStats {
        let cfg = &self.cfg;
        let total_channels = self.backend.total_channels();
        let end = self.counter_baseline();
        let mc = end.mc.delta(&start.mc);
        let device = end.device.delta(&start.device);
        let cpu_cycles = end.cpu_cycles - start.cpu_cycles;
        let dram_cycles = end.dram_cycles - start.dram_cycles;
        let instructions_per_core = end.committed.delta(&start.committed);
        let user_instructions: u64 = instructions_per_core.iter().sum();
        let avg_read_latency_dram = mc.avg_read_latency();
        let bandwidth_utilization = device.bus_utilization(dram_cycles * total_channels as u64);
        let mem_reads_sent = end.mem_reads_sent - start.mem_reads_sent;
        let per_kilo_instr = |events: u64| {
            if user_instructions == 0 {
                0.0
            } else {
                events as f64 * 1000.0 / user_instructions as f64
            }
        };
        // Energy (extension): events priced from the command-count deltas,
        // background from the power-state residency deltas — both exact and
        // bit-identical with fast-forward on or off.
        let timing = cfg.mc.dram.timing;
        let breakdown =
            cloudmc_dram::EnergyModel::new(cfg.energy).breakdown_from_residency(&device, &timing);
        let energy_per_request_nj = if mc.completed() == 0 {
            0.0
        } else {
            breakdown.total_pj() * 1e-3 / mc.completed() as f64
        };
        // Per-tenant breakdown (tenancy extension): instructions partition by
        // core group, controller metrics come from the tenant-tagged deltas.
        let tenancy = cfg.tenancy();
        let tenants = tenancy.tenant_count();
        let mut instructions_per_tenant = vec![0u64; tenants];
        for (core, n) in instructions_per_core.iter().enumerate() {
            instructions_per_tenant[tenancy.tenant_of_core(core)] += n;
        }
        let per_tenant = |metric: fn(&McStats, usize) -> f64| -> Vec<f64> {
            (0..tenants).map(|t| metric(&mc, t)).collect()
        };
        // Latency percentiles from the window's histogram delta: the log2
        // buckets subtract exactly, so this is the distribution of only the
        // reads completed inside the window.
        let hist = &mc.read_latency_hist;
        let ledger = self.backend.fault_ledger();
        let rows_retired_per_rank = self.backend.rows_retired_per_rank();
        let retired_capacity_bytes = rows_retired_per_rank
            .iter()
            .sum::<u64>()
            .saturating_mul(cfg.mc.dram.row_bytes);
        SimStats {
            workload: tenancy.label(),
            scheduler: cfg.mc.scheduler.label().to_owned(),
            page_policy: cfg.mc.page_policy.to_string(),
            power_policy: cfg.mc.power_policy.to_string(),
            mapping: cfg.mc.mapping.to_string(),
            channels: total_channels,
            cores: tenancy.total_cores(),
            cpu_cycles,
            dram_cycles,
            user_instructions,
            instructions_per_core,
            memory_reads_sent: mem_reads_sent,
            memory_writes_sent: end.mem_writes_sent - start.mem_writes_sent,
            reads_completed: mc.reads_completed,
            writes_completed: mc.writes_completed,
            avg_read_latency_dram,
            avg_read_latency_ns: timing.cycles_to_ns(avg_read_latency_dram.round() as u64),
            row_buffer_hit_rate: mc.row_buffer_hit_rate(),
            single_access_activation_fraction: mc.single_access_activation_fraction(),
            avg_read_queue_len: mc.avg_read_queue_len(),
            avg_write_queue_len: mc.avg_write_queue_len(),
            bandwidth_utilization,
            l2_mpki: per_kilo_instr(mem_reads_sent),
            activations_per_kilo_instr: per_kilo_instr(device.activates),
            dram_energy_mj: breakdown.total_pj() * 1e-9,
            dram_background_energy_mj: breakdown.background_pj * 1e-9,
            avg_dram_power_mw: breakdown.average_power_mw(dram_cycles, &timing),
            energy_per_request_nj,
            power_down_fraction: device.power_down_fraction(),
            self_refresh_fraction: device.self_refresh_fraction(),
            power_down_entries: device.power_down_entries,
            power_wakes: device.power_wakes,
            qos_policy: cfg.mc.qos.policy.to_string(),
            tenants,
            tenant_workloads: (0..tenants)
                .map(|t| tenancy.tenant_label(t).to_owned())
                .collect(),
            tenant_cores: tenancy.tenants().map(|t| t.cores()).collect(),
            tenant_latency_critical: tenancy.tenants().map(|t| t.latency_critical).collect(),
            instructions_per_tenant,
            reads_completed_per_tenant: mc.reads_completed_per_tenant[..tenants].to_vec(),
            avg_read_latency_per_tenant: per_tenant(McStats::avg_read_latency_for_tenant),
            bandwidth_share_per_tenant: per_tenant(McStats::bandwidth_share_for_tenant),
            row_hit_rate_per_tenant: per_tenant(McStats::row_hit_rate_for_tenant),
            avg_read_queue_len_per_tenant: per_tenant(McStats::avg_read_queue_len_for_tenant),
            ecc_corrected: mc.ecc_corrected,
            ecc_detected_uncorrectable: mc.ecc_detected_uncorrectable,
            ecc_miscorrects: mc.ecc_miscorrects,
            demand_retries: mc.demand_retries,
            scrub_reads_issued: mc.scrub_reads_issued,
            scrub_reads_completed: mc.scrub_reads_completed,
            scrub_corrected: mc.scrub_corrected,
            scrub_uncorrectable: mc.scrub_uncorrectable,
            rows_retired: mc.rows_retired,
            lines_poisoned: mc.lines_poisoned,
            poisoned_reads: mc.poisoned_reads,
            // Ledger totals are whole-run, not window deltas: `latent` moves
            // both ways (latent → corrected/uncorrectable on discovery), so
            // only the end-of-run ledger satisfies the conservation
            // invariant.
            faults_injected: ledger.injected,
            faults_corrected: ledger.corrected,
            faults_uncorrectable: ledger.uncorrectable,
            faults_latent: ledger.latent,
            rows_retired_per_rank,
            retired_capacity_bytes,
            read_latency_p50_dram: hist.p50().unwrap_or(0.0),
            read_latency_p95_dram: hist.p95().unwrap_or(0.0),
            read_latency_p99_dram: hist.p99().unwrap_or(0.0),
            read_latency_max_dram: hist.max().unwrap_or(0),
        }
    }
}

/// Warm-up + measurement driver around [`System`], following the SimFlex-like
/// methodology of the paper at reduced scale.
#[derive(Debug)]
pub struct Simulator {
    system: System,
}

impl Simulator {
    /// Builds the simulator for `cfg`.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`System::new`].
    pub fn new(cfg: SystemConfig) -> Result<Self, SimError> {
        Ok(Self {
            system: System::new(cfg)?,
        })
    }

    /// Builds the simulator for `cfg` on the per-cycle reference loop, which
    /// ticks every core and channel on every cycle: the oracle the
    /// equivalence tests (and `repro fastforward`) hold the event kernel
    /// bit-identical to. It cannot be checkpointed ([`System::snapshot`]).
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`System::new`].
    pub fn reference(cfg: SystemConfig) -> Result<Self, SimError> {
        Ok(Self {
            system: System::build(cfg, true)?.prewarmed(),
        })
    }

    /// Runs warm-up then measurement and returns the measured statistics.
    ///
    /// If the run records a trace ([`SystemConfig::trace_record`]), the sink
    /// is flushed before the statistics are returned, so the file is
    /// immediately replayable.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Trace`] if the replay trace turned out to be
    /// unreadable or malformed mid-run, or if the capture sink failed — the
    /// statistics of such a run would be garbage (cores idle out on the
    /// exhaustion filler) or the trace file incomplete. Returns
    /// [`SimError::Uncorrectable`] if a detected-uncorrectable memory error
    /// was latched under the fail-stop policy: the run itself completes (the
    /// fault ledger and counters stay consistent) but its statistics are
    /// withheld, exactly like a machine check taking down the pod at the end
    /// of the measurement.
    pub fn try_run(mut self) -> Result<SimStats, SimError> {
        self.run_warmup();
        self.run_measurement()
    }

    /// Runs just the warm-up window ([`SystemConfig::warmup_cpu_cycles`]).
    /// The experiment executor calls this once per configuration, snapshots
    /// the warm system, and forks measured replicates from the image instead
    /// of re-warming per replicate.
    pub fn run_warmup(&mut self) {
        let warmup = self.system.cfg.warmup_cpu_cycles;
        self.system.run_cycles(warmup);
    }

    /// Runs just the measurement window ([`SystemConfig::measure_cpu_cycles`])
    /// from the system's current state and returns the window's statistics.
    /// Equivalent to the second half of [`Simulator::try_run`]; see there for
    /// the error conditions.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Trace`] or [`SimError::Uncorrectable`] exactly as
    /// [`Simulator::try_run`] does, and [`SimError::Telemetry`] if a
    /// configured telemetry output file could not be written.
    pub fn run_measurement(&mut self) -> Result<SimStats, SimError> {
        let measure = self.system.cfg.measure_cpu_cycles;
        let baseline = self.system.counter_baseline();
        self.system.run_cycles(measure);
        self.system.frontend.finish_trace()?;
        self.system.finish_telemetry()?;
        let stats = self.system.stats_since(&baseline);
        if let Some(msg) = self.system.backend.fault_error() {
            return Err(SimError::Uncorrectable(msg.to_owned()));
        }
        Ok(stats)
    }

    /// Builds a simulator whose system is restored from `snapshot` (taken
    /// under the same `cfg`, typically right after warm-up). See
    /// [`System::restore`].
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`System::restore`].
    pub fn from_snapshot(cfg: SystemConfig, snapshot: &Snapshot) -> Result<Self, SimError> {
        Ok(Self {
            system: System::restore(cfg, snapshot)?,
        })
    }

    /// Access to the underlying system (e.g. to inspect state mid-run).
    #[must_use]
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Mutable access to the underlying system.
    pub fn system_mut(&mut self) -> &mut System {
        &mut self.system
    }
}

/// Convenience: [`Simulator::new`] then [`Simulator::try_run`].
///
/// # Errors
///
/// Exactly the errors of those two.
pub fn run_system(cfg: SystemConfig) -> Result<SimStats, SimError> {
    Simulator::new(cfg)?.try_run()
}

snap_fields! {
    System {
        section: "system",
        saved: {
            clock,
            fills,
            next_request_id,
            mem_reads_sent,
            mem_writes_sent,
            mem_sent_per_tenant,
            frontend,
            backend,
        },
        skipped: {
            cfg: "the configuration itself; the image carries its fingerprint",
            frontend_events: "scratch buffer, empty between run_cycles calls",
            completions: "scratch buffer, empty between run_cycles calls",
            telemetry: "snapshot() refuses a system with an active telemetry sink",
            profile: "config-derived",
            reference: "snapshot() refuses a reference-driven system; restore builds an event-driven one",
        },
        after_load: Self::check_restored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudmc_memctrl::{PagePolicyKind, SchedulerKind};
    use cloudmc_workloads::Workload;

    fn small(workload: Workload) -> SystemConfig {
        let mut cfg = SystemConfig::baseline(workload);
        cfg.warmup_cpu_cycles = 10_000;
        cfg.measure_cpu_cycles = 60_000;
        cfg
    }

    #[test]
    fn baseline_run_produces_sane_metrics() {
        let stats = run_system(small(Workload::DataServing)).unwrap();
        assert!(stats.user_ipc() > 0.5, "aggregate IPC {}", stats.user_ipc());
        assert!(stats.user_ipc() <= 16.0);
        assert!(
            stats.reads_completed > 50,
            "reads {}",
            stats.reads_completed
        );
        assert!(stats.avg_read_latency_dram > 20.0);
        assert!(stats.row_buffer_hit_rate >= 0.0 && stats.row_buffer_hit_rate <= 1.0);
        assert!(stats.bandwidth_utilization > 0.0 && stats.bandwidth_utilization < 1.0);
        assert!(stats.l2_mpki > 0.5);
        assert!(stats.dram_energy_mj > 0.0);
        assert_eq!(stats.cores, 16);
        assert_eq!(stats.cpu_cycles, 60_000);
    }

    #[test]
    fn same_seed_is_reproducible() {
        let a = run_system(small(Workload::WebSearch)).unwrap();
        let b = run_system(small(Workload::WebSearch)).unwrap();
        assert_eq!(a.user_instructions, b.user_instructions);
        assert_eq!(a.reads_completed, b.reads_completed);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_system(small(Workload::WebSearch)).unwrap();
        let mut cfg = small(Workload::WebSearch);
        cfg.seed = 99;
        let b = run_system(cfg).unwrap();
        assert_ne!(a.user_instructions, b.user_instructions);
    }

    #[test]
    fn web_frontend_uses_eight_cores_and_injects_dma() {
        let stats = run_system(small(Workload::WebFrontend)).unwrap();
        assert_eq!(stats.cores, 8);
        assert_eq!(stats.instructions_per_core.len(), 8);
    }

    /// A completion posts a fill exactly when it is a demand read: a Web
    /// Frontend system, its DMA engine and its cores both reading memory
    /// hard, is stopped mid-run and its backend drained completion by
    /// completion through the kernel's rule.
    #[test]
    fn only_demand_reads_post_fills() {
        let mut cfg = small(Workload::WebFrontend);
        cfg.workload.dma_per_kcycle = 200.0;
        cfg.workload.data_mpki = 40.0;
        let mut system = System::new(cfg).unwrap();
        system.run_cycles(20_000);
        let (mut demand, mut dma, mut posted) = (0, 0, 0);
        let mut done = Vec::new();
        let mut now = system.clock.dram_cycle();
        while system.requests_in_flight() > 0 {
            assert!(now < 1_000_000, "backend never drained");
            done.clear();
            system.backend.tick(now, &mut done);
            for completed in &done {
                let pending = system.fills.len();
                system.post_fill(completed, system.clock.cpu_cycle());
                posted += system.fills.len() - pending;
                match (completed.request.kind.is_read(), completed.request.dma) {
                    (true, false) => demand += 1,
                    (true, true) => dma += 1,
                    _ => {}
                }
            }
            now += 1;
        }
        assert!(demand > 0 && dma > 0, "{demand} demand and {dma} DMA reads");
        assert_eq!(posted, demand, "fills posted");
    }

    #[test]
    fn mixed_run_reports_per_tenant_stats() {
        use cloudmc_workloads::{MixSpec, TenantSpec};
        let mix = MixSpec::new(TenantSpec::latency_critical(Workload::WebSearch, 8))
            .and(TenantSpec::batch(Workload::TpchQ6, 8));
        let mut cfg = SystemConfig::mixed(mix);
        cfg.warmup_cpu_cycles = 10_000;
        cfg.measure_cpu_cycles = 60_000;
        let stats = run_system(cfg).unwrap();
        assert_eq!(stats.workload, "WS+TPCH-Q6");
        assert_eq!(stats.cores, 16);
        assert_eq!(stats.tenants, 2);
        assert_eq!(stats.tenant_workloads, ["WS", "TPCH-Q6"]);
        assert_eq!(stats.tenant_cores, [8, 8]);
        assert_eq!(stats.tenant_latency_critical, [true, false]);
        // Instruction counts partition exactly across tenants.
        assert_eq!(
            stats.instructions_per_tenant.iter().sum::<u64>(),
            stats.user_instructions
        );
        // Both tenants reach memory; the bandwidth-bound scan dominates.
        assert!(stats.reads_completed_per_tenant.iter().all(|&r| r > 0));
        assert!(stats.bandwidth_share_per_tenant[1] > stats.bandwidth_share_per_tenant[0]);
        let share_sum: f64 = stats.bandwidth_share_per_tenant.iter().sum();
        assert!(
            (share_sum - 1.0).abs() < 1e-9,
            "shares sum to 1: {share_sum}"
        );
        assert!(stats
            .avg_read_latency_per_tenant
            .iter()
            .all(|&l| l > 0.0 && l < 10_000.0));
    }

    #[test]
    fn all_schedulers_run_end_to_end() {
        for sched in SchedulerKind::paper_set() {
            let mut cfg = small(Workload::WebSearch);
            cfg.mc.scheduler = sched;
            let stats = run_system(cfg).unwrap();
            assert!(
                stats.user_ipc() > 0.1,
                "{} produced IPC {}",
                sched.label(),
                stats.user_ipc()
            );
        }
    }

    #[test]
    fn all_page_policies_run_end_to_end() {
        for policy in PagePolicyKind::paper_set() {
            let mut cfg = small(Workload::TpchQ6);
            cfg.mc.page_policy = policy;
            let stats = run_system(cfg).unwrap();
            assert!(stats.reads_completed > 0, "{policy} completed no reads");
        }
    }

    #[test]
    fn multi_channel_configurations_run() {
        for channels in [1usize, 2, 4] {
            let mut cfg = small(Workload::TpchQ6);
            cfg.mc.dram.channels = channels;
            let stats = run_system(cfg).unwrap();
            assert_eq!(stats.channels, channels);
            assert!(stats.user_ipc() > 0.1);
        }
    }

    #[test]
    fn reports_total_channels() {
        // Either knob, or both: the controller has the product.
        for (num_channels, per_controller) in [(1usize, 1usize), (2, 1), (4, 1), (1, 2), (2, 2)] {
            let mut cfg = small(Workload::TpchQ6);
            cfg.num_channels = num_channels;
            cfg.mc.dram.channels = per_controller;
            let stats = run_system(cfg).unwrap();
            assert_eq!(stats.channels, num_channels * per_controller);
            assert!(stats.user_ipc() > 0.1);
            assert!(stats.reads_completed > 0);
        }
    }

    #[test]
    fn close_page_policy_kills_row_hits() {
        let mut open = small(Workload::MediaStreaming);
        open.mc.page_policy = PagePolicyKind::OpenAdaptive;
        let mut close = small(Workload::MediaStreaming);
        close.mc.page_policy = PagePolicyKind::Close;
        let open_stats = run_system(open).unwrap();
        let close_stats = run_system(close).unwrap();
        assert!(
            close_stats.row_buffer_hit_rate < open_stats.row_buffer_hit_rate,
            "close {} vs open {}",
            close_stats.row_buffer_hit_rate,
            open_stats.row_buffer_hit_rate
        );
    }
}
