//! The simulation kernel: the pieces that glue the CPU-side frontend to the
//! DRAM-side backend without belonging to either.
//!
//! # Clock-domain crossing
//!
//! The model runs two clock domains: cores and caches at 2 GHz, the DRAM
//! command bus at 800 MHz (DDR3-1600). The ratio is exactly
//! [`crate::config::DRAM_CYCLES_PER_5_CPU_CYCLES`]
//! DRAM cycles per 5 CPU cycles, so [`ClockCrossing`] keeps a fractional
//! accumulator in units of fifths: every CPU step adds 2/5 of a DRAM cycle,
//! and whenever the accumulator reaches a whole DRAM cycle the backend is
//! ticked. Over any window of 5 CPU cycles the backend therefore runs exactly
//! 2 DRAM cycles, with no drift and no floating point.
//!
//! # The time-ordered event queue
//!
//! The kernel's scheduling primitive is [`EventQueue`], a calendar (bucket
//! ring) queue: a circular array of per-cycle FIFO buckets covering a sliding
//! window of upcoming cycles, with a `BTreeMap` overflow level for events
//! beyond the window. Near-future events — the overwhelmingly common case:
//! crossbar hops, L2 latencies, DRAM timing fences — cost `O(1)` to push and
//! pop; far-future events (refresh intervals, power-down timeouts, scheduler
//! quanta) pay one `BTreeMap` insert and migrate into the ring as the window
//! slides over them. Events posted for the same cycle pop in insertion
//! order, so delivery — and with it the whole simulation — is deterministic
//! (`event_queue_ties_pop_fifo` and the model-based property test hold it to
//! that). "Decrease-key" is done lazily, as in a timer wheel: post the new
//! deadline and ignore the stale one when it fires, which is also how the
//! kernel's cached layer bounds behave.
//!
//! [`FillQueue`] — cache blocks on their way back up to a core (L2 hits
//! after their access latency, memory fills after the crossbar) — is a thin
//! typed wrapper over an [`EventQueue`]. Requests moving *down* that were
//! rejected by a full controller queue wait in per-(channel, kind) retry
//! buckets owned by the [`backend`](crate::backend).
//!
//! # Event-driven execution
//!
//! A cycle-accurate model spends most of its wall-clock on cycles where
//! nothing happens — and, on dense streams, most of the remaining wall-clock
//! *re-polling* layers that already know their next deadline. The kernel
//! therefore runs one time-ordered loop (`System::run_cycles`) in which
//! every layer posts its next actionable cycle once and is only re-evaluated
//! when that cycle arrives or an upstream dependency invalidates the posted
//! bound:
//!
//! * each core keeps a *runway* (`InOrderCore::runway`) — how many cycles it
//!   can burn without new decisions — and the frontend advances cores
//!   lazily, catching each one up in closed form only when its posted wake
//!   cycle (or an arriving fill) makes it act, and letting it run ahead
//!   through core-private work (see the [`frontend`](crate::frontend) docs);
//! * the fill queue is consulted via [`FillQueue::next_due_cycle`] — the
//!   head of the calendar queue;
//! * the memory controller caches, per channel, the next DRAM tick at which
//!   the channel can possibly act (`MemoryController::next_due`, derived
//!   from bank/rank/bus timing state, pending queues, refresh schedules,
//!   scheduler time boundaries and page/power-policy proposals), recomputed
//!   only after a tick that left the channel drained and pulled back by
//!   request arrival; a channel that is not due is skipped even on a DRAM
//!   tick where another one runs.
//!
//! The loop takes the minimum over these posted cycles, converts
//! DRAM-domain deadlines to CPU cycles through
//! [`ClockCrossing::cpu_cycle_of_dram_tick`], and jumps straight there with
//! [`ClockCrossing::fast_forward`] — which advances both clocks and the
//! fractional 2:5 phase accumulator exactly as per-cycle stepping would.
//! Skipped cycles apply their only side effects (core cycle counters,
//! controller queue-occupancy samples) in closed form.
//!
//! This is the only way a system built by `System::new` advances, and it
//! runs on one thread: there is no kernel or thread knob on
//! `SystemConfig`. Parallelism lives across runs
//! ([`run_all_with_threads`](crate::runner::run_all_with_threads), `repro
//! sweep`), where cells share nothing.
//!
//! # The reference loop
//!
//! Every layer guarantees its bound never overshoots, so the event-driven
//! run is *bit-identical* to ticking every component on every cycle. That
//! per-cycle loop — [`Tick::tick`] on the frontend each CPU cycle and on the
//! backend each owed DRAM cycle — is kept as the oracle the guarantee is
//! tested against (`tests/fast_forward_equivalence.rs` and the other
//! equivalence suites compare full `SimStats`), reached only through
//! `System::reference` / `Simulator::reference`. A system is bound to one
//! driver at construction: the reference loop does not maintain the event
//! kernel's cursors, so the two cannot be mixed, and a reference-driven
//! system refuses to snapshot.

use std::collections::{BTreeMap, VecDeque};

use cloudmc_snap::{load_new, snap_fields, Snap, SnapError, SnapReader, SnapWriter};

use crate::config::DRAM_CYCLES_PER_5_CPU_CYCLES;

/// A component advanced cycle by cycle in its own clock domain.
///
/// One `tick` call advances the component by one cycle of *its* clock and
/// appends whatever surfaced this cycle to `events`; the kernel decides how
/// often each domain ticks (see [`ClockCrossing`]). Taking the event buffer
/// as a parameter lets the caller reuse one allocation across the whole run.
pub trait Tick {
    /// What the component reports back each cycle (completed requests for a
    /// memory backend, memory traffic for a core frontend).
    type Event;

    /// Advances the component to cycle `now`, pushing this cycle's events.
    fn tick(&mut self, now: u64, events: &mut Vec<Self::Event>);
}

/// Tracks the CPU and DRAM clocks and the fractional phase between them.
#[derive(Debug, Clone, Default)]
pub struct ClockCrossing {
    cpu_cycle: u64,
    dram_cycle: u64,
    /// Fractional DRAM cycles owed, in units of 1/5 DRAM cycle.
    acc: u64,
}

impl ClockCrossing {
    /// Both clocks at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current CPU cycle.
    #[must_use]
    pub fn cpu_cycle(&self) -> u64 {
        self.cpu_cycle
    }

    /// Current DRAM cycle.
    #[must_use]
    pub fn dram_cycle(&self) -> u64 {
        self.dram_cycle
    }

    /// Accrues one CPU cycle's worth of DRAM time and returns how many whole
    /// DRAM cycles the backend must now be ticked.
    pub fn accrue_cpu_cycle(&mut self) -> u64 {
        self.acc += DRAM_CYCLES_PER_5_CPU_CYCLES;
        let due = self.acc / 5;
        self.acc %= 5;
        due
    }

    /// Records that one due DRAM tick ran.
    pub fn complete_dram_tick(&mut self) {
        self.dram_cycle += 1;
    }

    /// Records that the CPU cycle finished.
    pub fn complete_cpu_cycle(&mut self) {
        self.cpu_cycle += 1;
    }

    /// How many DRAM ticks would run within the next `cpu_cycles` CPU cycles,
    /// without advancing anything.
    #[must_use]
    pub fn dram_ticks_within(&self, cpu_cycles: u64) -> u64 {
        (self.acc + DRAM_CYCLES_PER_5_CPU_CYCLES * cpu_cycles) / 5
    }

    /// Jumps both clocks forward by `cpu_cycles` CPU cycles at once.
    ///
    /// Exactly equivalent to `cpu_cycles` iterations of
    /// [`ClockCrossing::accrue_cpu_cycle`] / [`ClockCrossing::complete_dram_tick`] /
    /// [`ClockCrossing::complete_cpu_cycle`]: the integer phase accumulator
    /// makes the bulk update associative, so the 2:5 ratio carries no drift
    /// across a jump of any length. The caller is responsible for ensuring
    /// the skipped DRAM ticks would have been no-ops.
    pub fn fast_forward(&mut self, cpu_cycles: u64) {
        let total = self.acc + DRAM_CYCLES_PER_5_CPU_CYCLES * cpu_cycles;
        self.dram_cycle += total / 5;
        self.acc = total % 5;
        self.cpu_cycle += cpu_cycles;
    }

    /// The restored phase accumulator must lie in the 2:5 phase range.
    fn check_restored(&mut self, r: &SnapReader<'_>) -> Result<(), SnapError> {
        if self.acc >= 5 {
            return Err(r.bad_value(format!("phase accumulator {} outside 0..5", self.acc)));
        }
        Ok(())
    }

    /// The CPU cycle during which DRAM tick number `dram_tick` runs (the
    /// tick that observes `now == dram_tick`), given the current phase.
    ///
    /// Ticks that already ran map to the current CPU cycle; `u64::MAX` maps
    /// to `u64::MAX` (the conventional "never" sentinel).
    #[must_use]
    pub fn cpu_cycle_of_dram_tick(&self, dram_tick: u64) -> u64 {
        if dram_tick == u64::MAX {
            return u64::MAX;
        }
        if dram_tick < self.dram_cycle {
            return self.cpu_cycle;
        }
        // The tick runs during the N-th upcoming CPU cycle, where N is the
        // smallest count with floor((acc + 2N) / 5) covering it. Saturating
        // arithmetic keeps far-future sentinels from wrapping.
        let needed = dram_tick - self.dram_cycle + 1;
        let n = 5u64
            .saturating_mul(needed)
            .saturating_sub(self.acc)
            .div_ceil(DRAM_CYCLES_PER_5_CPU_CYCLES);
        self.cpu_cycle.saturating_add(n - 1)
    }
}

/// Cycles the calendar ring covers ahead of its base before events spill to
/// the overflow map. Fixed at 64 so bucket occupancy fits one `u64` bitmask
/// (the earliest pending cycle is a rotate plus a trailing-zero count);
/// sized to cover the kernel's near-future traffic (crossbar hops, cache
/// latencies, DRAM timing fences) with headroom.
const EVENT_RING_SPAN: u64 = 64;

/// A time-ordered event queue: a calendar (bucket ring) queue with a sorted
/// overflow level.
///
/// A circular array of `EVENT_RING_SPAN` per-cycle FIFO buckets covers the
/// window `[base, base + span)`; events beyond the window wait in a
/// `BTreeMap` keyed by cycle and migrate into the ring as the window slides
/// over their cycle. Pushes, pops and next-due queries of near-future events
/// are `O(1)` — a one-word occupancy bitmask locates the earliest non-empty
/// bucket without walking the ring. Events due the same cycle pop in
/// insertion order — ties are FIFO, never arbitrary — which is what makes
/// kernels built on this queue deterministic. Rescheduling ("decrease-key")
/// is done lazily timer-wheel style: push the new deadline and disregard the
/// stale event when it surfaces.
#[derive(Debug)]
pub struct EventQueue<T> {
    /// Per-cycle FIFO buckets; cycle `c` lives at `c % EVENT_RING_SPAN`
    /// while `c - base < EVENT_RING_SPAN`.
    ring: Vec<VecDeque<T>>,
    /// Occupancy bitmask: bit `i` set iff `ring[i]` is non-empty.
    occupied: u64,
    /// Start of the ring's window. Only advances on pops, so it never
    /// outruns the caller's clock: any push at or after the current cycle
    /// lands at its exact position.
    base: u64,
    /// Events in the ring.
    ring_len: usize,
    /// Far-future events, migrated into the ring as `base` advances.
    /// Invariant: every key is `>= base + EVENT_RING_SPAN`.
    overflow: BTreeMap<u64, VecDeque<T>>,
    /// Events in the overflow map.
    overflow_len: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue with its window starting at cycle 0.
    #[must_use]
    pub fn new() -> Self {
        Self {
            ring: std::iter::repeat_with(VecDeque::new)
                .take(EVENT_RING_SPAN as usize)
                .collect(),
            occupied: 0,
            base: 0,
            ring_len: 0,
            overflow: BTreeMap::new(),
            overflow_len: 0,
        }
    }

    /// Total scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow_len
    }

    /// Whether no event is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `item` for cycle `due`. Cycles the queue has already
    /// drained past clamp to the start of the window, so a late post fires
    /// immediately rather than being lost.
    pub fn push(&mut self, due: u64, item: T) {
        let due = due.max(self.base);
        if due - self.base < EVENT_RING_SPAN {
            let idx = (due % EVENT_RING_SPAN) as usize;
            self.ring[idx].push_back(item);
            self.occupied |= 1 << idx;
            self.ring_len += 1;
        } else {
            self.overflow.entry(due).or_default().push_back(item);
            self.overflow_len += 1;
        }
    }

    /// The earliest occupied cycle in the ring, located via the occupancy
    /// bitmask in constant time.
    fn first_ring_cycle(&self) -> Option<u64> {
        if self.occupied == 0 {
            return None;
        }
        let start = (self.base % EVENT_RING_SPAN) as u32;
        let offset = u64::from(self.occupied.rotate_right(start).trailing_zeros());
        Some(self.base + offset)
    }

    /// The cycle of the earliest scheduled event, if any. Ring events always
    /// precede overflow events (overflow keys lie beyond the window).
    #[must_use]
    pub fn next_due(&self) -> Option<u64> {
        self.first_ring_cycle()
            .or_else(|| self.overflow.keys().next().copied())
    }

    /// Pulls every overflow bucket now inside `[base, base + span)` into the
    /// ring. Migration happens eagerly on every `base` advance, before any
    /// new push can target the newly covered cycle, so same-cycle FIFO order
    /// is preserved across the overflow boundary.
    fn migrate(&mut self) {
        while let Some((&cycle, _)) = self.overflow.first_key_value() {
            if cycle - self.base >= EVENT_RING_SPAN {
                break;
            }
            #[expect(
                clippy::expect_used,
                reason = "key returned by first_key_value two lines up"
            )]
            let bucket = self.overflow.remove(&cycle).expect("first key exists");
            self.overflow_len -= bucket.len();
            self.ring_len += bucket.len();
            let idx = (cycle % EVENT_RING_SPAN) as usize;
            debug_assert!(
                self.ring[idx].is_empty(),
                "migrated into an occupied bucket"
            );
            self.ring[idx] = bucket;
            self.occupied |= 1 << idx;
        }
    }

    /// Removes and returns the earliest event if it is due at or before
    /// `now`; same-cycle events come back in insertion order.
    pub fn pop_due(&mut self, now: u64) -> Option<T> {
        let cycle = match self.first_ring_cycle() {
            Some(cycle) => cycle,
            None => *self.overflow.first_key_value()?.0,
        };
        if cycle > now {
            return None;
        }
        // Slide the window up to the event being popped (cycle <= now, so
        // the base never outruns the caller's clock) and migrate overflow
        // buckets the window now covers.
        self.base = cycle;
        self.migrate();
        let idx = (cycle % EVENT_RING_SPAN) as usize;
        #[expect(
            clippy::expect_used,
            reason = "occupied bitmap guarantees a pending event at idx"
        )]
        let item = self.ring[idx]
            .pop_front()
            .expect("first pending bucket is non-empty");
        self.ring_len -= 1;
        if self.ring[idx].is_empty() {
            self.occupied &= !(1 << idx);
        }
        Some(item)
    }
}

/// Cache blocks on their way back to a core (L2 hits after their access
/// latency, memory fills after the crossbar), ordered by delivery cycle with
/// FIFO ties: a typed wrapper over the kernel's [`EventQueue`].
#[derive(Debug, Default)]
pub struct FillQueue {
    queue: EventQueue<(usize, u64)>,
}

impl FillQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules delivery of `addr` to `core` at CPU cycle `due_cpu_cycle`.
    pub fn push(&mut self, due_cpu_cycle: u64, core: usize, addr: u64) {
        self.queue.push(due_cpu_cycle, (core, addr));
    }

    /// The CPU cycle of the earliest pending fill, if any (the event-horizon
    /// contribution of data already on its way back to a core).
    #[must_use]
    pub fn next_due_cycle(&self) -> Option<u64> {
        self.queue.next_due()
    }

    /// Removes and returns the next `(core, addr)` due at or before `now`.
    pub fn pop_due(&mut self, now: u64) -> Option<(usize, u64)> {
        self.queue.pop_due(now)
    }

    /// Number of undelivered fills.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no fill is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Every undelivered `(core, addr)`, in no particular order.
    pub(crate) fn pending(&self) -> impl Iterator<Item = &(usize, u64)> {
        let queue = &self.queue;
        queue.ring.iter().chain(queue.overflow.values()).flatten()
    }
}

snap_fields! {
    ClockCrossing {
        section: "clock",
        saved: { cpu_cycle, dram_cycle, acc },
        skipped: {},
        after_load: Self::check_restored,
    }
}

/// Structural image: the window base plus every pending event as
/// `(cycle, item)` in pop order. A restore replays the pushes onto an empty
/// queue at the saved base, so it clamps and migrates identically.
impl<T: Snap + Default> Snap for EventQueue<T> {
    const MIN_BYTES: usize = 16;

    fn save(&self, w: &mut SnapWriter) {
        let Self {
            ring,
            occupied: _,
            base,
            ring_len,
            overflow,
            overflow_len,
        } = self;
        base.save(w);
        w.usize(ring_len + overflow_len);
        // Ring buckets in cycle order from the base, then overflow buckets
        // (whose keys all lie beyond the ring window) in key order.
        let ring_buckets = (0..EVENT_RING_SPAN).map(|offset| {
            let cycle = base + offset;
            (cycle, &ring[(cycle % EVENT_RING_SPAN) as usize])
        });
        let overflow_buckets = overflow.iter().map(|(&cycle, bucket)| (cycle, bucket));
        for (cycle, bucket) in ring_buckets.chain(overflow_buckets) {
            for item in bucket {
                cycle.save(w);
                item.save(w);
            }
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let Self {
            ring,
            occupied,
            base,
            ring_len,
            overflow,
            overflow_len,
        } = self;
        ring.iter_mut().for_each(VecDeque::clear);
        overflow.clear();
        (*occupied, *ring_len, *overflow_len) = (0, 0, 0);
        base.load(r)?;
        if *base > u64::MAX - EVENT_RING_SPAN {
            return Err(r.bad_value(format!("window base {base} leaves no room for the ring")));
        }
        for _ in 0..r.bounded_len(8 + T::MIN_BYTES)? {
            let (cycle, item): (u64, T) = load_new(r)?;
            if cycle < self.base {
                return Err(
                    r.bad_value(format!("event at cycle {cycle} before base {}", self.base))
                );
            }
            self.push(cycle, item);
        }
        Ok(())
    }
}

snap_fields! {
    FillQueue {
        section: "fill-queue",
        saved: { queue },
        skipped: {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_ratio_is_exactly_two_dram_per_five_cpu() {
        let mut clock = ClockCrossing::new();
        let mut dram_ticks = 0;
        for _ in 0..5_000 {
            for _ in 0..clock.accrue_cpu_cycle() {
                clock.complete_dram_tick();
                dram_ticks += 1;
            }
            clock.complete_cpu_cycle();
        }
        assert_eq!(clock.cpu_cycle(), 5_000);
        assert_eq!(dram_ticks, 2_000);
        assert_eq!(clock.dram_cycle(), 2_000);
    }

    #[test]
    fn dram_ticks_are_spread_not_bunched() {
        let mut clock = ClockCrossing::new();
        let per_cycle: Vec<u64> = (0..5).map(|_| clock.accrue_cpu_cycle()).collect();
        // 2 DRAM cycles per 5 CPU cycles, at most one per CPU cycle.
        assert_eq!(per_cycle.iter().sum::<u64>(), 2);
        assert!(per_cycle.iter().all(|&n| n <= 1));
    }

    #[test]
    fn fast_forward_matches_per_cycle_stepping() {
        // Every jump length from every phase must land on the exact state the
        // per-cycle loop reaches.
        for prefix in 0..7u64 {
            for jump in 0..23u64 {
                let mut stepped = ClockCrossing::new();
                let mut jumped = ClockCrossing::new();
                for clock in [&mut stepped, &mut jumped] {
                    for _ in 0..prefix {
                        for _ in 0..clock.accrue_cpu_cycle() {
                            clock.complete_dram_tick();
                        }
                        clock.complete_cpu_cycle();
                    }
                }
                for _ in 0..jump {
                    for _ in 0..stepped.accrue_cpu_cycle() {
                        stepped.complete_dram_tick();
                    }
                    stepped.complete_cpu_cycle();
                }
                assert_eq!(jumped.dram_ticks_within(jump), {
                    stepped.dram_cycle() - jumped.dram_cycle()
                });
                jumped.fast_forward(jump);
                assert_eq!(stepped.cpu_cycle(), jumped.cpu_cycle());
                assert_eq!(stepped.dram_cycle(), jumped.dram_cycle());
                assert_eq!(stepped.acc, jumped.acc);
            }
        }
    }

    #[test]
    fn cpu_cycle_of_dram_tick_names_the_cycle_the_tick_runs_in() {
        // Walk the real interleaving and record which CPU cycle each DRAM
        // tick executes in, then check the closed form from every phase.
        let mut clock = ClockCrossing::new();
        let mut tick_cycle = Vec::new();
        for cpu in 0..50u64 {
            // The prediction for the next tick must hold at every phase.
            let next_tick = clock.dram_cycle();
            let predicted = clock.cpu_cycle_of_dram_tick(next_tick);
            for _ in 0..clock.accrue_cpu_cycle() {
                tick_cycle.push(cpu);
                clock.complete_dram_tick();
            }
            if clock.dram_cycle() > next_tick {
                assert_eq!(predicted, cpu, "next-tick prediction at cycle {cpu}");
            }
            clock.complete_cpu_cycle();
        }
        // Re-predict every tick from a fresh clock at phase zero.
        let fresh = ClockCrossing::new();
        for (tick, &cycle) in tick_cycle.iter().enumerate() {
            assert_eq!(
                fresh.cpu_cycle_of_dram_tick(tick as u64),
                cycle,
                "tick {tick} predicted wrong cycle"
            );
        }
        assert_eq!(fresh.cpu_cycle_of_dram_tick(u64::MAX), u64::MAX);
    }

    #[test]
    fn fills_pop_in_due_then_fifo_order() {
        let mut q = FillQueue::new();
        q.push(10, 0, 0xA);
        q.push(5, 1, 0xB);
        q.push(10, 2, 0xC);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop_due(4), None);
        assert_eq!(q.pop_due(5), Some((1, 0xB)));
        assert_eq!(q.pop_due(9), None);
        // Equal due cycles come back in insertion order.
        assert_eq!(q.pop_due(10), Some((0, 0xA)));
        assert_eq!(q.pop_due(10), Some((2, 0xC)));
        assert!(q.is_empty());
    }

    #[test]
    fn event_queue_ties_pop_fifo() {
        let mut q = EventQueue::new();
        // Same-cycle ties must pop in insertion order, including across the
        // ring/overflow boundary: 0..4 go to the ring, the far batch to the
        // overflow map, and both preserve per-cycle FIFO.
        for i in 0..4u32 {
            q.push(7, i);
        }
        let far = 7 + 3 * EVENT_RING_SPAN;
        for i in 10..14u32 {
            q.push(far, i);
        }
        assert_eq!(q.len(), 8);
        assert_eq!(q.next_due(), Some(7));
        for i in 0..4u32 {
            assert_eq!(q.pop_due(7), Some(i));
        }
        assert_eq!(q.pop_due(far - 1), None);
        assert_eq!(q.next_due(), Some(far));
        for i in 10..14u32 {
            assert_eq!(q.pop_due(far), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn event_queue_clamps_late_pushes_forward() {
        let mut q = EventQueue::new();
        q.push(50, "a");
        assert_eq!(q.pop_due(50), Some("a"));
        // The window has drained past cycle 10; a late post must still fire.
        q.push(10, "late");
        assert_eq!(q.next_due(), Some(50));
        assert_eq!(q.pop_due(50), Some("late"));
    }

    /// Model-based property test: against a reference `BTreeMap` of FIFO
    /// buckets, the calendar queue must agree on every pop and every
    /// next-due answer across a long pseudo-random mix of dense (near) and
    /// sparse (far) schedules. Determinism of same-cycle ties falls out of
    /// the comparison: the model pops strictly in (cycle, insertion) order.
    #[test]
    fn event_queue_matches_reference_model() {
        let mut q = EventQueue::new();
        let mut model: BTreeMap<u64, VecDeque<u32>> = BTreeMap::new();
        let mut now = 0u64;
        let mut rng = 0x243F_6A88_85A3_08D3u64; // deterministic xorshift
        let mut next = |bound: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % bound
        };
        for op in 0..20_000u32 {
            match next(4) {
                // Dense near-future push (in-ring) or sparse far push
                // (overflow), tagged with the op index so FIFO violations
                // are visible.
                0 | 1 => {
                    let horizon = if next(8) == 0 { 1000 } else { 16 };
                    let due = now + next(horizon);
                    q.push(due, op);
                    model.entry(due).or_default().push_back(op);
                }
                2 => {
                    now += next(32);
                }
                _ => {
                    // Drain everything due; both sides must agree exactly.
                    loop {
                        let expect = model.first_entry().and_then(|mut e| {
                            if *e.key() > now {
                                return None;
                            }
                            let v = e.get_mut().pop_front();
                            if e.get().is_empty() {
                                e.remove();
                            }
                            v
                        });
                        let got = q.pop_due(now);
                        assert_eq!(got, expect, "divergence at op {op}, now {now}");
                        if got.is_none() {
                            break;
                        }
                    }
                    assert_eq!(q.next_due(), model.keys().next().copied());
                }
            }
        }
        assert!(q.len() == model.values().map(VecDeque::len).sum::<usize>());
    }

    /// The exact ring edge: from any base, `base + EVENT_RING_SPAN - 1` is
    /// the last in-ring cycle and `base + EVENT_RING_SPAN` is the first
    /// overflow cycle — and both pop at their due cycles in order.
    #[test]
    fn event_queue_ring_edge_straddles_in_and_out_of_window() {
        for base in [0u64, 1, 63, 64, 65, 1000] {
            let mut q = EventQueue::new();
            // Slide the window to `base` by popping an event there.
            q.push(base, 0u32);
            assert_eq!(q.pop_due(base), Some(0));
            let last_in = base + EVENT_RING_SPAN - 1;
            let first_out = base + EVENT_RING_SPAN;
            q.push(first_out, 2);
            q.push(last_in, 1);
            assert_eq!(q.len(), 2);
            assert_eq!(q.next_due(), Some(last_in), "base {base}");
            assert_eq!(q.pop_due(last_in - 1), None);
            assert_eq!(q.pop_due(last_in), Some(1), "base {base}");
            assert_eq!(q.next_due(), Some(first_out));
            assert_eq!(q.pop_due(first_out), Some(2), "base {base}");
            assert!(q.is_empty());
        }
    }

    /// Events pushed past the window land in overflow and migrate into the
    /// ring as the base slides over them, preserving FIFO order with events
    /// pushed directly into the ring at the same cycle *after* migration.
    #[test]
    fn event_queue_overflow_promotes_across_window_slides() {
        let mut q = EventQueue::new();
        // Far beyond the first window: multiple buckets, FIFO within each.
        q.push(200, 1u32);
        q.push(200, 2);
        q.push(300, 3);
        q.push(0, 0);
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop_due(0), Some(0));
        // Nothing due while only overflow remains.
        assert_eq!(q.pop_due(199), None);
        // Popping at 200 slides the window there and migrates the bucket.
        assert_eq!(q.pop_due(250), Some(1));
        // A ring push at the just-migrated cycle queues behind the migrated
        // events (migration is eager on base advance, so order is total).
        q.push(200, 9);
        assert_eq!(q.pop_due(250), Some(2));
        assert_eq!(q.pop_due(250), Some(9));
        assert_eq!(q.next_due(), Some(300));
        assert_eq!(q.pop_due(300), Some(3));
        assert!(q.is_empty());
    }

    /// Lazy decrease-key across the ring/overflow boundary: rescheduling an
    /// overflow event to an earlier in-ring cycle delivers the new deadline
    /// first, and the stale overflow entry surfaces later to be discarded.
    #[test]
    fn event_queue_decrease_key_across_ring_overflow_boundary() {
        let mut q = EventQueue::new();
        // Original deadline far in the future (overflow), then the timer is
        // "decreased" to an in-ring cycle by pushing the same token again.
        q.push(500, 7u32);
        q.push(10, 7);
        assert_eq!(q.next_due(), Some(10));
        assert_eq!(q.pop_due(10), Some(7), "new deadline fires first");
        // The stale copy still exists at its old cycle; a consumer tracking
        // the live deadline would disregard it on arrival.
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_due(), Some(500));
        assert_eq!(q.pop_due(499), None);
        assert_eq!(q.pop_due(500), Some(7));
        assert!(q.is_empty());

        // And the reverse direction: an in-ring deadline superseded by a
        // farther one (increase-key) still pops the earlier copy first.
        // (Fresh queue: the one above has slid its window past cycle 20,
        // so a push there would clamp forward to the base.)
        let mut q = EventQueue::new();
        q.push(20, 3u32);
        q.push(400, 3);
        assert_eq!(q.pop_due(20), Some(3));
        assert_eq!(q.next_due(), Some(400));
        assert_eq!(q.pop_due(400), Some(3));
        assert!(q.is_empty());
    }
}
