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
//! # The fill queue
//!
//! [`FillQueue`] holds cache blocks on their way back up to a core (memory
//! fills after the crossbar, and L2 hits after their access latency unless
//! the [`frontend`](crate::frontend) completed one in place inside the
//! run-ahead of the core it blocks), sorted by delivery cycle. Fills due
//! the same cycle pop in insertion order, so delivery — and with it the
//! whole simulation — is deterministic (`event_queue_ties_pop_fifo` and the
//! model-based property test hold it to that). Every push is a fixed
//! latency ahead of the current cycle — the L2 access latency or the
//! crossbar latency, both at least one cycle (`L2Config::validate`) — so a
//! fill is never posted for a cycle the kernel has already executed.
//! Requests moving *down* that were rejected by a full controller queue
//! wait in per-(channel, kind) retry buckets owned by the
//! [`backend`](crate::backend).
//!
//! # The next-due contract
//!
//! Every component the kernel skips cycles on answers one question, "when
//! can you next act?", through a method named `next_due`:
//!
//! * It returns an absolute cycle in the component's own clock domain.
//!   Before that cycle, a component left alone does nothing but bulk
//!   bookkeeping (cycle and stall counters, queue-occupancy samples), which
//!   the kernel applies in closed form.
//! * An early answer is safe: it costs one no-op step. A late one breaks
//!   bit-identity with the per-cycle reference loop.
//! * `u64::MAX` means nothing happens until an input arrives (a fill or an
//!   enqueue). An answer at or before the current cycle means "due now".
//!
//! The implementors, from the leaves up: `InOrderCore::next_due(position)`
//! (CPU cycles, from the core's own position), `Frontend::next_due` (the
//! soonest core action or DMA beat), [`FillQueue::next_due`];
//! `Scheduler::next_due` (a time boundary such as the ATLAS quantum),
//! `PagePolicy::next_due` and `PowerPolicy::next_due` (the cycle a timer
//! flips a proposal, asked only while no proposal stands),
//! `ChannelController::tick` (each tick reports its channel's next due
//! cycle: the next one after issuing, else the earliest of when a candidate
//! its pick evaluated becomes legal, a transfer retires, a refresh step or
//! a policy, scheduler or reliability timer; cached per channel),
//! `MemoryController::next_due` and `Backend::next_due` (DRAM cycles).
//! `DramChannel::earliest_legal` keeps an `Option`: it is the legality rule
//! for one command, not a component's next act, and its `None` ("no amount
//! of waiting makes this command legal") is what sends an overdue refresh
//! to its forced precharges.
//!
//! # Event-driven execution
//!
//! A cycle-accurate model spends most of its wall-clock on cycles where
//! nothing happens — and, on dense streams, most of the remaining wall-clock
//! *re-polling* layers that already know their next deadline. The kernel
//! therefore runs one time-ordered loop (`System::run_cycles`) that takes
//! the minimum of the fill queue's, the frontend's and the backend's
//! `next_due`, converts the DRAM-domain one to CPU cycles through
//! [`ClockCrossing::cpu_cycle_of_dram_tick`], and jumps straight there with
//! [`ClockCrossing::fast_forward`] — which advances both clocks and the
//! fractional 2:5 phase accumulator exactly as per-cycle stepping would.
//! Cores sit lazily behind the kernel clock or run ahead of it through
//! core-private work (see the [`frontend`](crate::frontend) docs); every
//! memory channel, busy or drained, stores the bound its last tick
//! reported, and one that is not due is skipped even on a DRAM tick where
//! another runs.
//!
//! This is the only way a system built by `System::new` advances, and it
//! runs on one thread: there is no kernel or thread knob on
//! `SystemConfig`. Parallelism lives across runs, where they share nothing:
//! the experiment executor in `cloudmc-bench` (`repro --threads N`) hands
//! whole configurations to worker threads.
//!
//! # The reference loop
//!
//! Because no `next_due` is late, the event-driven run is *bit-identical*
//! to ticking every component on every cycle. That per-cycle loop —
//! [`Tick::tick`] on the frontend each CPU cycle and on the backend each
//! owed DRAM cycle — is kept as the oracle the guarantee is tested against
//! (`tests/fast_forward_equivalence.rs` and the other equivalence suites
//! compare full `SimStats`), reached only through
//! [`Simulator::reference`](crate::Simulator::reference). A system is
//! bound to one driver at construction: the reference loop does not
//! maintain the event kernel's cursors, so the two cannot be mixed, and a
//! reference-driven system refuses to snapshot.

use std::collections::VecDeque;

use cloudmc_snap::{snap_fields, SnapError, SnapReader};

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

/// Cache blocks on their way back to a core (memory fills after the
/// crossbar, L2 hits the frontend did not complete in place after their
/// access latency): a deque kept sorted by delivery cycle.
///
/// Fills are posted a constant L2 or crossbar latency ahead of the clock,
/// bounded by the cores' MSHRs, so a push lands at or near the back and the
/// queue stays a few dozen entries long. Fills due the same cycle pop in
/// insertion order — ties are FIFO, never arbitrary.
#[derive(Debug, Default)]
pub struct FillQueue {
    /// Pending `(cycle, (core, addr))` pairs in pop order: non-decreasing
    /// cycle, insertion order within a cycle.
    events: VecDeque<(u64, (usize, u64))>,
}

impl FillQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules delivery of `addr` to `core` at CPU cycle `due`, behind
    /// every fill already due then. A cycle at or before the caller's clock
    /// is due at once ([`FillQueue::next_due`]).
    pub fn push(&mut self, due: u64, core: usize, addr: u64) {
        // A push due after everything pending appends without searching. A
        // memory fill (the crossbar's short delay) lands before any L2 hit
        // still pending (the longer access latency) and is placed by
        // binary search.
        if self.events.back().is_none_or(|&(cycle, _)| cycle <= due) {
            self.events.push_back((due, (core, addr)));
        } else {
            let at = self.events.partition_point(|&(cycle, _)| cycle <= due);
            self.events.insert(at, (due, (core, addr)));
        }
    }

    /// The CPU cycle of the earliest pending fill (see the
    /// [next-due contract](self#the-next-due-contract)).
    #[must_use]
    pub fn next_due(&self) -> u64 {
        self.events.front().map_or(u64::MAX, |&(cycle, _)| cycle)
    }

    /// Removes and returns the earliest `(core, addr)` if it is due at or
    /// before `now`; same-cycle fills come back in insertion order.
    pub fn pop_due(&mut self, now: u64) -> Option<(usize, u64)> {
        self.events.front().filter(|&&(cycle, _)| cycle <= now)?;
        self.events.pop_front().map(|(_, fill)| fill)
    }

    /// Number of undelivered fills.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no fill is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Every undelivered `(core, addr)`, in no particular order.
    pub(crate) fn pending(&self) -> impl Iterator<Item = &(usize, u64)> {
        self.events.iter().map(|(_, fill)| fill)
    }

    /// Fills are taken in the order stored and never re-sorted: an image
    /// whose cycles step backwards is one no `save` produces.
    fn check_restored(&mut self, r: &SnapReader<'_>) -> Result<(), SnapError> {
        let mut floor = 0;
        for &(cycle, _) in &self.events {
            if cycle < floor {
                return Err(
                    r.bad_value(format!("event at cycle {cycle} stored after cycle {floor}"))
                );
            }
            floor = cycle;
        }
        Ok(())
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

// Structural image: every pending fill as `(cycle, (core, addr))` in pop
// order — which is the storage order.
snap_fields! {
    FillQueue {
        section: "fill-queue",
        saved: { events },
        skipped: {},
        after_load: Self::check_restored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudmc_snap::{load_new, Snap, SnapWriter};
    use std::collections::BTreeMap;

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
        let mut q = FillQueue::new();
        // Same-cycle ties must pop in insertion order, near and far.
        for i in 0..4 {
            q.push(7, i, 0);
        }
        let far = 199;
        for i in 10..14 {
            q.push(far, i, 0);
        }
        assert_eq!(q.len(), 8);
        assert_eq!(q.next_due(), 7);
        for i in 0..4 {
            assert_eq!(q.pop_due(7), Some((i, 0)));
        }
        assert_eq!(q.pop_due(far - 1), None);
        assert_eq!(q.next_due(), far);
        for i in 10..14 {
            assert_eq!(q.pop_due(far), Some((i, 0)));
        }
        assert!(q.is_empty());
        assert_eq!(q.next_due(), u64::MAX, "an empty queue waits for a push");
    }

    #[test]
    fn event_queue_late_push_is_due_at_once() {
        let mut q = FillQueue::new();
        q.push(50, 0, 0xA);
        q.push(60, 2, 0xC);
        assert_eq!(q.pop_due(50), Some((0, 0xA)));
        // A post for a cycle the queue has drained past is not lost: it is
        // due at once, ahead of the later fill.
        q.push(10, 1, 0xB);
        assert_eq!(q.next_due(), 10);
        assert_eq!(q.pop_due(50), Some((1, 0xB)));
        assert_eq!(q.pop_due(50), None);
    }

    /// One step of the model-based test's op stream, at absolute cycles.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Push a fill due at this cycle.
        Push(u64),
        /// Pop at most one fill due at or before this cycle.
        Pop(u64),
        /// Pop every fill due at or before this cycle.
        Drain(u64),
    }

    /// The model-based test's fixed prefix: the edge cases of the calendar
    /// ring this queue replaced (fills 64 or more cycles past the base lived
    /// in a separate overflow level), laid end to end so the clock only
    /// moves forward.
    fn ring_edge_script() -> Vec<Op> {
        use Op::{Drain, Pop, Push};
        let mut ops = Vec::new();
        let mut origin = 0;
        // Straddling the ring edge: from several bases, fills 63 and 64
        // cycles ahead, pushed in reverse, pop at their due cycles in order.
        for base in [0u64, 1, 63, 64, 65, 1000] {
            let b = origin + base;
            ops.extend([Push(b), Pop(b), Push(b + 64), Push(b + 63)]);
            ops.extend([Pop(b + 62), Pop(b + 63), Pop(b + 64)]);
            origin = b + 64;
        }
        // Overflow promotion across window slides: far fills keep FIFO order
        // with a fill pushed at their cycle after the base has reached it.
        let o = origin;
        ops.extend([Push(o + 200), Push(o + 200), Push(o + 300), Push(o)]);
        ops.extend([Pop(o), Pop(o + 199), Pop(o + 250), Push(o + 200)]);
        ops.extend([Drain(o + 250), Drain(o + 300)]);
        // Decrease-key across the overflow boundary: a far deadline then a
        // near one pop near first; then the reverse (increase-key).
        let o = o + 300;
        ops.extend([Push(o + 500), Push(o + 10), Pop(o + 10), Pop(o + 499)]);
        ops.extend([Pop(o + 500), Push(o + 520), Push(o + 900), Pop(o + 520)]);
        ops.push(Drain(o + 900));
        ops
    }

    /// The reference the queue is checked against: FIFO buckets in a
    /// `BTreeMap`.
    #[derive(Default)]
    struct Model {
        buckets: BTreeMap<u64, VecDeque<u64>>,
    }

    impl Model {
        fn push(&mut self, due: u64, tag: u64) {
            self.buckets.entry(due).or_default().push_back(tag);
        }

        fn pop_due(&mut self, now: u64) -> Option<u64> {
            let mut bucket = self.buckets.first_entry().filter(|e| *e.key() <= now)?;
            let tag = bucket.get_mut().pop_front();
            if bucket.get().is_empty() {
                bucket.remove();
            }
            tag
        }

        fn next_due(&self) -> u64 {
            self.buckets.keys().next().copied().unwrap_or(u64::MAX)
        }

        fn len(&self) -> usize {
            self.buckets.values().map(VecDeque::len).sum()
        }
    }

    /// Model-based property test: against [`Model`], the queue must agree on
    /// every pop, every `next_due` answer and its length, first over the
    /// scripted ring-edge prefix, then over a long pseudo-random mix of
    /// dense (near) and sparse (far) schedules. Determinism of same-cycle
    /// ties falls out of the comparison: the model pops strictly in (cycle,
    /// insertion) order, and every fill is tagged with its op index.
    #[test]
    fn fill_queue_matches_reference_model() {
        let mut q = FillQueue::new();
        let mut model = Model::default();
        let fill = |tag: u64| ((tag % 16) as usize, tag);
        let mut step = |op: Op, tag: u64| {
            match op {
                Op::Push(due) => {
                    let (core, addr) = fill(tag);
                    q.push(due, core, addr);
                    model.push(due, tag);
                }
                Op::Pop(now) => {
                    assert_eq!(q.pop_due(now), model.pop_due(now).map(fill), "op {tag}");
                }
                Op::Drain(now) => loop {
                    let got = q.pop_due(now);
                    assert_eq!(got, model.pop_due(now).map(fill), "op {tag}, now {now}");
                    if got.is_none() {
                        break;
                    }
                },
            }
            assert_eq!(q.next_due(), model.next_due(), "op {tag}");
            assert_eq!(q.len(), model.len(), "op {tag}");
        };
        let mut now = 0;
        let mut tag = 0;
        for op in ring_edge_script() {
            step(op, tag);
            if let Op::Pop(cycle) | Op::Drain(cycle) = op {
                now = cycle;
            }
            tag += 1;
        }
        let mut rng = 0x243F_6A88_85A3_08D3u64; // deterministic xorshift
        let mut next = |bound: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % bound
        };
        for _ in 0..20_000 {
            let op = match next(4) {
                0 | 1 => {
                    let horizon = if next(8) == 0 { 1000 } else { 16 };
                    Op::Push(now + next(horizon))
                }
                2 => {
                    now += next(32);
                    continue;
                }
                _ => Op::Drain(now),
            };
            step(op, tag);
            tag += 1;
        }
    }

    /// Ties, a fill exactly 64 cycles ahead (the old ring's span) and a far
    /// one: six pending fills after a pop at cycle 16.
    fn scripted_fill_queue() -> FillQueue {
        let mut q = FillQueue::new();
        q.push(20, 1, 0xA0);
        q.push(16, 2, 0xB0);
        q.push(20, 3, 0xC0);
        q.push(1016, 4, 0xD0);
        q.push(16, 5, 0xE0);
        assert_eq!(q.pop_due(16), Some((2, 0xB0)));
        q.push(16, 6, 0xF0);
        q.push(16 + 64, 7, 0x100);
        q
    }

    fn sealed_image(save: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
        let mut w = SnapWriter::new(0);
        save(&mut w);
        w.finish()
    }

    /// The image format did not change with the queue's storage: these are
    /// the bytes the calendar-ring implementation (commit `ae45039`) wrote
    /// for the same script, less the clamp base that format 8 dropped —
    /// re-sealed at the current format version — and they restore to the
    /// same pop sequence.
    #[test]
    fn fill_queue_image_matches_bytes_of_the_calendar_ring() {
        const GOLDEN: &str = "\
            434d43534e415031080000000000000000000000a50a66696c6c2d7175657565\
            060000000000000010000000000000000500000000000000\
            e00000000000000010000000000000000600000000000000f000000000000000\
            14000000000000000100000000000000a0000000000000001400000000000000\
            0300000000000000c00000000000000050000000000000000700000000000000\
            0001000000000000f8030000000000000400000000000000d000000000000000\
            ffcdb3d9d3bcec6c";
        let mut golden: Vec<u8> = (0..GOLDEN.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&GOLDEN[i..i + 2], 16).unwrap())
            .collect();
        golden[8..12].copy_from_slice(&cloudmc_snap::FORMAT_VERSION.to_le_bytes());
        let body_end = golden.len() - 8;
        let checksum = cloudmc_snap::checksum(&golden[..body_end]);
        golden[body_end..].copy_from_slice(&checksum.to_le_bytes());
        let mut q = scripted_fill_queue();
        assert_eq!(sealed_image(|w| q.save(w)), golden);

        let mut restored = FillQueue::new();
        let mut r = SnapReader::new(&golden, 0).unwrap();
        restored.load(&mut r).unwrap();
        r.finish().unwrap();
        // A push after the restore ties behind the restored fills.
        for fills in [&mut q, &mut restored] {
            fills.push(20, 8, 0x110);
        }
        while let Some(fill) = q.pop_due(u64::MAX) {
            assert_eq!(restored.pop_due(u64::MAX), Some(fill));
        }
        assert!(restored.is_empty());
    }

    /// A restore never re-sorts: a fill stored behind a later one is an
    /// image no `save` writes.
    #[test]
    fn event_queue_load_rejects_out_of_order_events() {
        let load = |cycles: &[u64]| {
            let events: VecDeque<(u64, (usize, u64))> = cycles
                .iter()
                .enumerate()
                .map(|(i, &c)| (c, (i, 0)))
                .collect();
            let image = sealed_image(|w| {
                w.section("fill-queue");
                events.save(w);
            });
            let mut r = SnapReader::new(&image, 0).unwrap();
            load_new::<FillQueue>(&mut r)
        };
        let mut q = load(&[5, 5, 9]).unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop_due(5), Some((0, 0)));
        assert!(matches!(load(&[7, 6]), Err(SnapError::BadValue { .. })));
        assert!(matches!(load(&[5, 9, 8]), Err(SnapError::BadValue { .. })));
    }
}
