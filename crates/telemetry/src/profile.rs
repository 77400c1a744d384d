//! Kernel self-profiler: where host time goes inside a simulation kernel.

/// A kernel phase the profiler attributes host time to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPhase {
    /// CPU-core frontend work: instruction-stream ticks, lazy-frontend
    /// advances, and fill delivery.
    Frontend,
    /// Memory-controller backend work: DRAM-clock ticks across all channels.
    Backend,
    /// Next-due computation: combining every layer's `next_due` into the
    /// kernel's jump target.
    NextDue,
}

/// Accumulating side of the kernel self-profiler.
///
/// The simulator owns one of these (when `TelemetryConfig::profile_kernel`
/// is set) and feeds it wall-clock nanoseconds per phase plus simulated
/// cycle counts; [`finish`](Self::finish) freezes it into a
/// [`KernelProfile`] report. Wall-clock numbers are host measurements and
/// therefore *not* deterministic — only the simulated-cycle fields and the
/// work counts are comparable across runs.
#[derive(Clone, Debug, Default)]
pub struct KernelProfiler {
    frontend_nanos: u64,
    backend_nanos: u64,
    event_queue_nanos: u64,
    total_nanos: u64,
    stepped_cpu_cycles: u64,
    jumped_cpu_cycles: u64,
    ticked_channel_cycles: u64,
    skipped_channel_cycles: u64,
}

impl KernelProfiler {
    /// Creates an empty profiler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `nanos` of host time to `phase`.
    pub fn record(&mut self, phase: KernelPhase, nanos: u64) {
        match phase {
            KernelPhase::Frontend => self.frontend_nanos += nanos,
            KernelPhase::Backend => self.backend_nanos += nanos,
            KernelPhase::NextDue => self.event_queue_nanos += nanos,
        }
    }

    /// Adds `nanos` of host time to the run total (covers phase time plus
    /// unattributed glue).
    pub fn record_total(&mut self, nanos: u64) {
        self.total_nanos += nanos;
    }

    /// Accounts CPU cycles simulated by stepping individual cycles.
    pub fn record_stepped_cycles(&mut self, cycles: u64) {
        self.stepped_cpu_cycles += cycles;
    }

    /// Accounts CPU cycles skipped in bulk by an event-queue jump.
    pub fn record_jumped_cycles(&mut self, cycles: u64) {
        self.jumped_cpu_cycles += cycles;
    }

    /// Accounts memory-channel cycles: `ticked` ran a full controller tick,
    /// `skipped` were accounted in bulk as eventless.
    pub fn record_channel_cycles(&mut self, ticked: u64, skipped: u64) {
        self.ticked_channel_cycles += ticked;
        self.skipped_channel_cycles += skipped;
    }

    /// Freezes the accumulated accounting into a report.
    ///
    /// `cpu_cycles` and `dram_cycles` are the run's final simulated clock
    /// readings.
    #[must_use]
    pub fn finish(&self, cpu_cycles: u64, dram_cycles: u64) -> KernelProfile {
        KernelProfile {
            frontend_nanos: self.frontend_nanos,
            backend_nanos: self.backend_nanos,
            event_queue_nanos: self.event_queue_nanos,
            total_nanos: self.total_nanos,
            stepped_cpu_cycles: self.stepped_cpu_cycles,
            jumped_cpu_cycles: self.jumped_cpu_cycles,
            ticked_channel_cycles: self.ticked_channel_cycles,
            skipped_channel_cycles: self.skipped_channel_cycles,
            pick_entries_read: 0,
            pick_keys_read: 0,
            pick_legality_checks: 0,
            ops_generated: 0,
            interval_draws: 0,
            exact_draws: 0,
            cpu_cycles,
            dram_cycles,
        }
    }
}

/// Finished kernel-profile report: host nanoseconds per phase and the
/// simulated-cycle totals they covered.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelProfile {
    /// Host time in the CPU frontend phase.
    pub frontend_nanos: u64,
    /// Host time in the memory-controller backend phase.
    pub backend_nanos: u64,
    /// Host time computing event bounds and applying jumps.
    pub event_queue_nanos: u64,
    /// Host time for the whole run loop (phases plus glue).
    pub total_nanos: u64,
    /// CPU cycles simulated by stepping individual cycles.
    ///
    /// The stepped/jumped split describes how the *host* drove the clock,
    /// not the simulated machine (it is not part of `SimStats`). Under the
    /// event kernel a cycle is stepped only when some layer has
    /// system-visible work on it; since cores run their private work
    /// (compute gaps, L1 hits) ahead of the clock, dense streams that used
    /// to step almost every cycle now jump most of them.
    pub stepped_cpu_cycles: u64,
    /// CPU cycles advanced in bulk by event-kernel jumps.
    pub jumped_cpu_cycles: u64,
    /// Memory-channel cycles (one per channel per DRAM cycle) that ran a
    /// full controller tick. Like the stepped/jumped split, a host-side
    /// figure, not part of `SimStats`.
    pub ticked_channel_cycles: u64,
    /// Memory-channel cycles the kernel skipped: the channel was not due,
    /// so only its queue-occupancy samples were applied.
    pub skipped_channel_cycles: u64,
    /// Queue entries (whole request records) the controllers' scheduler
    /// picks and QoS arbiter read. Like the counts below, a deterministic
    /// host-side work count, in no snapshot and not part of `SimStats`; the
    /// simulator fills these in (the profiler itself leaves them 0), counting
    /// from when the system was built or restored.
    pub pick_entries_read: u64,
    /// Packed bank/row key words the picks scanned.
    pub pick_keys_read: u64,
    /// DRAM command legality evaluations the picks made.
    pub pick_legality_checks: u64,
    /// Ops the workload generators produced (compute gaps and memory
    /// accesses; 0 under trace replay). Host-side, like the pick counts.
    pub ops_generated: u64,
    /// Exponential intervals the generators drew.
    pub interval_draws: u64,
    /// Interval draws that took the exact `ln` path instead of a lookup
    /// table.
    pub exact_draws: u64,
    /// Final simulated CPU-clock reading.
    pub cpu_cycles: u64,
    /// Final simulated DRAM-clock reading.
    pub dram_cycles: u64,
}

impl KernelProfile {
    /// Fraction of total host time spent in `phase` (0 when no time was
    /// recorded).
    #[must_use]
    pub fn fraction(&self, phase: KernelPhase) -> f64 {
        if self.total_nanos == 0 {
            return 0.0;
        }
        let nanos = match phase {
            KernelPhase::Frontend => self.frontend_nanos,
            KernelPhase::Backend => self.backend_nanos,
            KernelPhase::NextDue => self.event_queue_nanos,
        };
        nanos as f64 / self.total_nanos as f64
    }

    /// Simulated CPU cycles per host microsecond (0 when no time was
    /// recorded).
    #[must_use]
    pub fn cycles_per_host_micro(&self) -> f64 {
        if self.total_nanos == 0 {
            return 0.0;
        }
        self.cpu_cycles as f64 * 1000.0 / self.total_nanos as f64
    }

    /// Encodes the profile as a JSON object (stable key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"frontend_nanos\":{},\"backend_nanos\":{},",
                "\"event_queue_nanos\":{},\"total_nanos\":{},",
                "\"stepped_cpu_cycles\":{},\"jumped_cpu_cycles\":{},",
                "\"ticked_channel_cycles\":{},\"skipped_channel_cycles\":{},",
                "\"pick_entries_read\":{},\"pick_keys_read\":{},",
                "\"pick_legality_checks\":{},",
                "\"ops_generated\":{},\"interval_draws\":{},\"exact_draws\":{},",
                "\"cpu_cycles\":{},\"dram_cycles\":{}}}"
            ),
            self.frontend_nanos,
            self.backend_nanos,
            self.event_queue_nanos,
            self.total_nanos,
            self.stepped_cpu_cycles,
            self.jumped_cpu_cycles,
            self.ticked_channel_cycles,
            self.skipped_channel_cycles,
            self.pick_entries_read,
            self.pick_keys_read,
            self.pick_legality_checks,
            self.ops_generated,
            self.interval_draws,
            self.exact_draws,
            self.cpu_cycles,
            self.dram_cycles,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_and_freeze() {
        let mut p = KernelProfiler::new();
        p.record(KernelPhase::Frontend, 100);
        p.record(KernelPhase::Frontend, 50);
        p.record(KernelPhase::Backend, 200);
        p.record(KernelPhase::NextDue, 25);
        p.record_total(400);
        p.record_stepped_cycles(800);
        p.record_jumped_cycles(200);
        p.record_channel_cycles(300, 500);
        let profile = p.finish(1000, 400);
        assert_eq!(profile.frontend_nanos, 150);
        assert_eq!(profile.backend_nanos, 200);
        assert_eq!(profile.event_queue_nanos, 25);
        assert_eq!(profile.stepped_cpu_cycles + profile.jumped_cpu_cycles, 1000);
        assert_eq!(profile.ticked_channel_cycles, 300);
        assert_eq!(profile.skipped_channel_cycles, 500);
        assert_eq!(profile.cpu_cycles, 1000);
        assert_eq!(profile.dram_cycles, 400);
        assert!((profile.fraction(KernelPhase::Backend) - 0.5).abs() < 1e-12);
        // The three phases partition the attributed time: their shares sum
        // to it, the rest of the total is unattributed glue.
        let attributed: f64 = [
            KernelPhase::Frontend,
            KernelPhase::Backend,
            KernelPhase::NextDue,
        ]
        .iter()
        .map(|&phase| profile.fraction(phase))
        .sum();
        assert!((attributed - 375.0 / 400.0).abs() < 1e-12);
        assert!((profile.cycles_per_host_micro() - 2500.0).abs() < 1e-9);
    }

    #[test]
    fn empty_profile_reports_zero_fractions() {
        let profile = KernelProfiler::new().finish(0, 0);
        assert_eq!(profile.fraction(KernelPhase::Frontend), 0.0);
        assert_eq!(profile.cycles_per_host_micro(), 0.0);
    }

    #[test]
    fn json_has_stable_keys() {
        let json = KernelProfiler::new().finish(5, 2).to_json();
        for key in [
            "frontend_nanos",
            "backend_nanos",
            "event_queue_nanos",
            "total_nanos",
            "stepped_cpu_cycles",
            "jumped_cpu_cycles",
            "ticked_channel_cycles",
            "skipped_channel_cycles",
            "pick_entries_read",
            "pick_keys_read",
            "pick_legality_checks",
            "ops_generated",
            "interval_draws",
            "exact_draws",
            "cpu_cycles",
            "dram_cycles",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "{json}");
        }
    }
}
