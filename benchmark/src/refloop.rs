//! The reference loop: a per-cycle drive loop written only from the layers'
//! public surface (`Frontend`/`Backend` `Tick::tick`, `Frontend::fill`,
//! `Backend::submit`, `ClockCrossing`, `FillQueue`).
//!
//! It serves two purposes and shares no drive-loop code with `System`:
//!
//! * **oracle** — after the same number of cycles it must hold exactly the
//!   controller statistics, device counters and committed instructions of the
//!   default-kernel `Simulator` (`check.reference_loop`);
//! * **trace host** — every call into a layer is a span boundary, so wrapping
//!   the calls in a [`Tracer`] attributes the loop's wall time to layers from
//!   the outside, without instrumenting the program.

use std::collections::HashMap;
use std::time::Instant;

use cloudmc_memctrl::{AccessKind, CompletedRequest, McStats, MemoryRequest};
use cloudmc_sim::{Backend, ClockCrossing, FillQueue, Frontend, FrontendEvent, SystemConfig, Tick};

/// The spans of one traced cycle. `Glue` is the loop's own code between layer
/// calls (clock crossing, fill queue, request-id map).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    FrontendFill,
    FrontendTick,
    BackendSubmit,
    BackendTick,
    Glue,
}

impl Span {
    pub const ALL: [Span; 5] = [
        Span::FrontendFill,
        Span::FrontendTick,
        Span::BackendSubmit,
        Span::BackendTick,
        Span::Glue,
    ];
}

const SPAN_COUNT: usize = Span::ALL.len();

/// Receives span boundaries from [`RefSystem::cycle`]. The loop calls
/// `begin_cycle` once, then `mark(span)` after each stretch of work, naming
/// the span that stretch belongs to; consecutive marks tile the cycle, so
/// every nanosecond of a traced cycle is attributed to exactly one span.
pub trait Tracer {
    fn begin_cycle(&mut self);
    fn mark(&mut self, span: Span);
}

/// Tracing off: compiles to nothing, so the untraced loop is the plain loop.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn begin_cycle(&mut self) {}
    #[inline(always)]
    fn mark(&mut self, _span: Span) {}
}

/// Samples one cycle in every [`SamplingTracer::STRIDE`] and accumulates, per
/// span, the number of stretches and their summed raw duration.
///
/// Timing every call of every cycle cost ~30% in the prototype; sampling
/// keeps the probe under the 10% gate while 1 M cycles still give tens of
/// thousands of samples per span.
pub struct SamplingTracer {
    countdown: u32,
    active: bool,
    last: Instant,
    pub calls: [u64; SPAN_COUNT],
    pub nanos: [u64; SPAN_COUNT],
    pub sampled_cycles: u64,
}

impl SamplingTracer {
    /// Prime, so the sample never locks onto the 5-cycle clock-crossing
    /// pattern or a power-of-two period in a workload.
    pub const STRIDE: u32 = 13;

    pub fn new() -> Self {
        Self {
            countdown: 0,
            active: false,
            last: Instant::now(),
            calls: [0; SPAN_COUNT],
            nanos: [0; SPAN_COUNT],
            sampled_cycles: 0,
        }
    }

    /// `Instant::now()` calls made so far (one per cycle start and per mark).
    pub fn timer_reads(&self) -> u64 {
        self.sampled_cycles + self.calls.iter().sum::<u64>()
    }
}

impl Tracer for SamplingTracer {
    #[inline]
    fn begin_cycle(&mut self) {
        if self.countdown == 0 {
            self.countdown = Self::STRIDE - 1;
            self.active = true;
            self.sampled_cycles += 1;
            self.last = Instant::now();
        } else {
            self.countdown -= 1;
            self.active = false;
        }
    }

    #[inline]
    fn mark(&mut self, span: Span) {
        if self.active {
            let now = Instant::now();
            let i = span as usize;
            self.calls[i] += 1;
            self.nanos[i] += (now - self.last).as_nanos() as u64;
            self.last = now;
        }
    }
}

/// A full system driven cycle by cycle from outside the `sim` crate.
pub struct RefSystem {
    frontend: Frontend,
    backend: Backend,
    clock: ClockCrossing,
    fills: FillQueue,
    crossbar_latency: u64,
    next_id: u64,
    /// Off-chip reads in flight: request id → (core, block address).
    outstanding: HashMap<u64, (usize, u64)>,
    events: Vec<FrontendEvent>,
    done: Vec<CompletedRequest>,
    pub reads_sent: u64,
    pub writes_sent: u64,
}

impl RefSystem {
    /// Builds the system `cfg` describes, cold except for the functional
    /// prewarm `Simulator::new` also applies.
    pub fn new(cfg: &SystemConfig) -> Result<Self, String> {
        // Constructor errors are only ever rendered: their type is scheduled
        // to change from `String` to `SimError`.
        let backend = Backend::new(cfg).map_err(|e| e.to_string())?;
        let mut frontend = Frontend::new(cfg).map_err(|e| e.to_string())?;
        if cfg.functional_warmup {
            frontend.prewarm();
        }
        Ok(Self {
            frontend,
            backend,
            clock: ClockCrossing::new(),
            fills: FillQueue::new(),
            crossbar_latency: cfg.l2.crossbar_latency,
            next_id: 0,
            outstanding: HashMap::new(),
            events: Vec::new(),
            done: Vec::new(),
            reads_sent: 0,
            writes_sent: 0,
        })
    }

    pub fn cpu_cycle(&self) -> u64 {
        self.clock.cpu_cycle()
    }

    pub fn controller_stats(&self) -> McStats {
        self.backend.stats()
    }

    pub fn device_totals(&self) -> cloudmc_dram::ChannelStats {
        self.backend.device_totals()
    }

    pub fn committed_per_core(&self) -> Vec<u64> {
        self.frontend.committed_per_core()
    }

    pub fn run<T: Tracer>(&mut self, cycles: u64, tracer: &mut T) {
        for _ in 0..cycles {
            self.cycle(tracer);
        }
    }

    /// One CPU cycle: deliver due fills, tick the frontend and hand its
    /// traffic to the backend, then tick the backend as many DRAM cycles as
    /// the 2:5 clock ratio owes and queue the completed reads' fills.
    #[inline]
    fn cycle<T: Tracer>(&mut self, tracer: &mut T) {
        tracer.begin_cycle();
        let now = self.clock.cpu_cycle();

        while let Some((core, addr)) = self.fills.pop_due(now) {
            tracer.mark(Span::Glue);
            self.frontend.fill(core, addr);
            tracer.mark(Span::FrontendFill);
        }

        self.events.clear();
        tracer.mark(Span::Glue);
        self.frontend.tick(now, &mut self.events);
        tracer.mark(Span::FrontendTick);

        let now_dram = self.clock.dram_cycle();
        for i in 0..self.events.len() {
            match self.events[i] {
                FrontendEvent::L2Hit {
                    core,
                    addr,
                    ready_in,
                } => self.fills.push(now + ready_in, core, addr),
                FrontendEvent::Read { core, tenant, addr } => {
                    let id = self.alloc_id();
                    self.reads_sent += 1;
                    self.outstanding.insert(id, (core, addr));
                    let request = MemoryRequest::new(id, AccessKind::Read, addr, core, now_dram)
                        .with_tenant(tenant);
                    tracer.mark(Span::Glue);
                    self.backend.submit(request, now_dram);
                    tracer.mark(Span::BackendSubmit);
                }
                FrontendEvent::Write {
                    core,
                    tenant,
                    addr,
                    dma,
                } => {
                    let id = self.alloc_id();
                    self.writes_sent += 1;
                    let request = if dma {
                        MemoryRequest::dma(id, AccessKind::Write, addr, core, now_dram)
                    } else {
                        MemoryRequest::new(id, AccessKind::Write, addr, core, now_dram)
                    };
                    tracer.mark(Span::Glue);
                    self.backend.submit(request.with_tenant(tenant), now_dram);
                    tracer.mark(Span::BackendSubmit);
                }
                FrontendEvent::DmaRead { core, tenant, addr } => {
                    let id = self.alloc_id();
                    self.reads_sent += 1;
                    let request = MemoryRequest::dma(id, AccessKind::Read, addr, core, now_dram)
                        .with_tenant(tenant);
                    tracer.mark(Span::Glue);
                    self.backend.submit(request, now_dram);
                    tracer.mark(Span::BackendSubmit);
                }
            }
        }

        for _ in 0..self.clock.accrue_cpu_cycle() {
            let now_dram = self.clock.dram_cycle();
            self.done.clear();
            tracer.mark(Span::Glue);
            self.backend.tick(now_dram, &mut self.done);
            tracer.mark(Span::BackendTick);
            for done in &self.done {
                if done.request.kind.is_read() {
                    // DMA reads have no waiting core and were never entered.
                    if let Some((core, addr)) = self.outstanding.remove(&done.request.id) {
                        self.fills.push(now + self.crossbar_latency, core, addr);
                    }
                }
            }
            self.clock.complete_dram_tick();
        }
        self.clock.complete_cpu_cycle();
        tracer.mark(Span::Glue);
    }

    fn alloc_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }
}
