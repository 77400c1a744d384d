//! The memory controller: one `ChannelController` per channel behind the
//! address decode, with the whole-controller readers (statistics, device
//! counters, the reliability ledgers) and the per-cycle and event-driven
//! drives.

use cloudmc_dram::{ChannelStats, DramCycles, FaultLedger, LogEvent};
use cloudmc_snap::snap_fields;

use crate::channel_ctl::ChannelController;
use crate::config::McConfig;
use crate::mapping::DecodedAddress;
use crate::request::{AccessKind, CompletedRequest, MemoryRequest, MAX_TENANTS};
use crate::sched::PickWork;
use crate::stats::McStats;

/// A complete multi-channel memory controller.
///
/// # Examples
///
/// ```
/// use cloudmc_memctrl::{AccessKind, McConfig, MemoryController, MemoryRequest};
///
/// let mut mc = MemoryController::new(McConfig::baseline()).unwrap();
/// mc.enqueue(MemoryRequest::new(1, AccessKind::Read, 0x4000, 0, 0), 0).unwrap();
/// let mut done = Vec::new();
/// for cycle in 0..200 {
///     mc.tick(cycle, &mut done);
/// }
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].request.id, 1);
/// ```
#[derive(Debug)]
pub struct MemoryController {
    cfg: McConfig,
    channels: Vec<ChannelController>,
}

impl MemoryController {
    /// Builds a controller from `cfg`.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem if `cfg` does not validate.
    pub fn new(cfg: McConfig) -> Result<Self, String> {
        cfg.validate()?;
        let channels = (0..cfg.dram.channels)
            .map(|i| ChannelController::new(i, &cfg))
            .collect();
        Ok(Self { cfg, channels })
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &McConfig {
        &self.cfg
    }

    /// Number of channels.
    #[must_use]
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Decodes a physical address under the configured mapping.
    #[must_use]
    pub fn decode(&self, addr: u64) -> DecodedAddress {
        self.cfg.mapping.decode(addr, &self.cfg.dram)
    }

    /// Whether a request for `addr` of the given kind can be accepted now.
    #[must_use]
    pub fn can_accept(&self, addr: u64, kind: AccessKind) -> bool {
        let decoded = self.decode(addr);
        self.channels[decoded.channel].can_accept(kind)
    }

    /// Number of requests currently queued or in flight.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.channels.iter().map(ChannelController::pending).sum()
    }

    /// Requests currently queued or in flight, broken down by tenant
    /// (per-tenant request-conservation checks).
    #[must_use]
    pub fn pending_per_tenant(&self) -> [u64; MAX_TENANTS] {
        let mut out = [0u64; MAX_TENANTS];
        for channel in &self.channels {
            for (slot, v) in out.iter_mut().zip(channel.pending_per_tenant()) {
                *slot += v;
            }
        }
        out
    }

    /// Enqueues a request at DRAM cycle `now`.
    ///
    /// # Errors
    ///
    /// Returns the request back if the target channel's queue is full.
    pub fn enqueue(
        &mut self,
        request: MemoryRequest,
        now: DramCycles,
    ) -> Result<(), MemoryRequest> {
        let decoded = self.decode(request.addr);
        self.channels[decoded.channel].enqueue(request, decoded.location, now)
    }

    /// Advances every channel by one DRAM cycle, appending requests completed
    /// this cycle across all channels to `done`: the per-cycle reference
    /// drive. It does not maintain the due bounds [`Self::tick_due`] works
    /// from, so the two must not be mixed on one controller.
    ///
    /// Takes the completion buffer as a parameter (matching the simulation
    /// kernel's `Tick` contract) so the caller reuses one allocation for the
    /// whole run instead of the controller returning a fresh `Vec` per cycle.
    pub fn tick(&mut self, now: DramCycles, done: &mut Vec<CompletedRequest>) {
        for channel in &mut self.channels {
            channel.tick(now, done);
        }
    }

    /// Event-driven DRAM cycle: only channels whose due bound has been
    /// reached run their tick; the rest account the cycle as a skip.
    /// Bit-identical to [`Self::tick`] on every statistic, because no
    /// channel's cached next-due cycle is late. Returns how many channels
    /// ran a full tick (a host-side figure for the kernel profile).
    pub fn tick_due(&mut self, now: DramCycles, done: &mut Vec<CompletedRequest>) -> usize {
        self.channels
            .iter_mut()
            .map(|channel| usize::from(channel.tick_due(now, done)))
            .sum()
    }

    /// The earliest DRAM cycle at which any channel may have work under
    /// [`Self::tick_due`] (retire, refresh, serve a pending request, hit a
    /// scheduler, policy or reliability timer), under the next-due contract
    /// stated in `cloudmc-sim`'s `kernel` module. The kernel accounts the
    /// cycles it jumps with [`Self::skip_dram_cycles`].
    #[must_use]
    pub fn next_due(&self) -> DramCycles {
        self.channels
            .iter()
            .map(|c| c.next_due)
            .min()
            .unwrap_or(DramCycles::MAX)
    }

    /// Accounts for `cycles` DRAM cycles the kernel has proven eventless:
    /// applies the per-cycle queue-occupancy samples in bulk, the only side
    /// effect an eventless tick has.
    pub fn skip_dram_cycles(&mut self, cycles: u64) {
        for channel in &mut self.channels {
            channel.skip_cycles(cycles);
        }
    }

    /// What the scheduler picks (and the QoS arbiter) of every channel read
    /// and checked since this controller was built or restored: a
    /// deterministic host-side work count, in no snapshot and in no
    /// statistics.
    #[must_use]
    pub fn pick_work(&self) -> PickWork {
        let mut total = PickWork::default();
        for channel in &self.channels {
            total += channel.work;
        }
        total
    }

    /// Aggregated controller statistics across channels.
    #[must_use]
    pub fn stats(&self) -> McStats {
        let mut total = McStats::new();
        for channel in &self.channels {
            total.merge(&channel.stats);
        }
        total
    }

    /// Device-level statistics of one channel.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    #[must_use]
    pub fn channel_device_stats(&self, channel: usize) -> &ChannelStats {
        self.channels[channel].channel.stats()
    }

    /// Starts recording every channel's command and CKE stream (see
    /// [`cloudmc_dram::DramChannel::record_commands`]): a hook for protocol
    /// checkers, off by default.
    #[doc(hidden)]
    pub fn record_commands(&mut self) {
        for channel in &mut self.channels {
            channel.channel.record_commands();
        }
    }

    /// One channel's record since [`Self::record_commands`]; `None` while
    /// recording is off.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    #[doc(hidden)]
    #[must_use]
    pub fn command_log(&self, channel: usize) -> Option<&[(DramCycles, LogEvent)]> {
        self.channels[channel].channel.command_log()
    }

    /// Device-level statistics of one channel including power-state
    /// residency accrued up to `now` (see
    /// [`cloudmc_dram::DramChannel::stats_at`]).
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    #[must_use]
    pub fn channel_device_stats_at(&self, channel: usize, now: DramCycles) -> ChannelStats {
        self.channels[channel].channel.stats_at(now)
    }

    /// Peak bandwidth of the whole controller in bytes per second.
    #[must_use]
    pub fn peak_bandwidth_bytes_per_sec(&self) -> f64 {
        self.cfg.dram.timing.peak_bandwidth_bytes_per_sec() * self.cfg.dram.channels as f64
    }

    /// Conservation ledger of the fault models across all channels. All
    /// zeros when no fault model is configured.
    #[must_use]
    pub fn fault_ledger(&self) -> FaultLedger {
        let mut total = FaultLedger::default();
        for fault in self.channels.iter().filter_map(|c| c.fault.as_deref()) {
            total.merge(&fault.ledger());
        }
        total
    }

    /// First uncorrectable-error message latched under the fail-stop policy,
    /// if any. The controller keeps running after latching — the simulator
    /// surfaces this as a typed error when the run finishes.
    #[must_use]
    pub fn fault_error(&self) -> Option<&str> {
        self.channels
            .iter()
            .find_map(|c| c.fault.as_deref()?.error())
    }

    /// Rows retired per rank, flattened channel-major (channel 0 rank 0,
    /// channel 0 rank 1, ..., channel 1 rank 0, ...). All zeros when no
    /// fault model is configured.
    #[must_use]
    pub fn rows_retired_per_rank(&self) -> Vec<u64> {
        let ranks = self.cfg.dram.ranks_per_channel;
        let mut out = Vec::with_capacity(self.channels.len() * ranks);
        for channel in &self.channels {
            match channel.fault.as_deref() {
                Some(fault) => out.extend_from_slice(fault.rows_retired_per_rank()),
                None => out.extend(std::iter::repeat_n(0, ranks)),
            }
        }
        out
    }
}

snap_fields! {
    MemoryController {
        section: "memctrl",
        saved: { channels: fixed },
        skipped: { cfg: "config-derived" },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::AddressMapping;
    use crate::page::PagePolicyKind;
    use crate::power::PowerPolicyKind;
    use crate::qos::QosConfig;
    use crate::request::RowBufferOutcome;
    use crate::sched::SchedulerKind;
    use cloudmc_dram::{FaultConfig, UncorrectablePolicy};

    fn drain(mc: &mut MemoryController, cycles: u64) -> Vec<CompletedRequest> {
        let mut done = Vec::new();
        for c in 0..cycles {
            mc.tick(c, &mut done);
        }
        done
    }

    #[test]
    fn single_read_completes_with_reasonable_latency() {
        let mut mc = MemoryController::new(McConfig::baseline()).unwrap();
        mc.enqueue(MemoryRequest::new(1, AccessKind::Read, 0x10_0000, 2, 0), 0)
            .unwrap();
        let done = drain(&mut mc, 200);
        assert_eq!(done.len(), 1);
        let t = McConfig::baseline().dram.timing;
        let min_latency = t.t_rcd + t.cl + t.t_burst;
        assert!(done[0].latency() >= min_latency);
        assert!(done[0].latency() < 200);
        assert_eq!(done[0].outcome, RowBufferOutcome::Miss);
        assert_eq!(mc.stats().reads_completed, 1);
        assert_eq!(mc.pending(), 0);
    }

    #[test]
    fn row_hits_are_detected_for_same_row_requests() {
        let mut mc = MemoryController::new(McConfig::baseline()).unwrap();
        // Two reads to consecutive blocks of the same row.
        mc.enqueue(MemoryRequest::new(1, AccessKind::Read, 0x4000, 0, 0), 0)
            .unwrap();
        mc.enqueue(MemoryRequest::new(2, AccessKind::Read, 0x4040, 1, 0), 0)
            .unwrap();
        let done = drain(&mut mc, 300);
        assert_eq!(done.len(), 2);
        let stats = mc.stats();
        assert_eq!(stats.row_hits, 1, "second access must hit the open row");
        assert_eq!(stats.row_misses, 1);
    }

    #[test]
    fn conflicting_rows_are_recorded_as_conflicts() {
        let mut mc = MemoryController::new(McConfig::baseline()).unwrap();
        let cfg = McConfig::baseline();
        // Same bank, different rows: the second request conflicts.
        let row_stride =
            cfg.dram.row_bytes * cfg.dram.banks_per_rank as u64 * cfg.dram.ranks_per_channel as u64;
        mc.enqueue(MemoryRequest::new(1, AccessKind::Read, 0, 0, 0), 0)
            .unwrap();
        mc.enqueue(MemoryRequest::new(2, AccessKind::Read, row_stride, 1, 0), 0)
            .unwrap();
        let done = drain(&mut mc, 500);
        assert_eq!(done.len(), 2);
        let stats = mc.stats();
        assert_eq!(stats.row_conflicts, 1);
        assert!(stats.single_access_activation_fraction() > 0.0);
    }

    #[test]
    fn writes_drain_via_watermarks() {
        let mut cfg = McConfig::baseline();
        cfg.write_drain_high = 4;
        cfg.write_drain_low = 1;
        let mut mc = MemoryController::new(cfg).unwrap();
        for i in 0..6u64 {
            mc.enqueue(
                MemoryRequest::new(i, AccessKind::Write, i * 0x100_000, 0, 0),
                0,
            )
            .unwrap();
        }
        let done = drain(&mut mc, 2000);
        assert_eq!(done.len(), 6);
        assert_eq!(mc.stats().writes_completed, 6);
    }

    #[test]
    fn multi_channel_controller_spreads_requests() {
        let mut cfg = McConfig::baseline();
        cfg.dram.channels = 4;
        let mut mc = MemoryController::new(cfg).unwrap();
        assert_eq!(mc.channel_count(), 4);
        for i in 0..8u64 {
            mc.enqueue(MemoryRequest::new(i, AccessKind::Read, i * 64, 0, 0), 0)
                .unwrap();
        }
        let done = drain(&mut mc, 400);
        assert_eq!(done.len(), 8);
        // Under RoRaBaCoCh consecutive blocks alternate channels, so every
        // channel transferred some data.
        for ch in 0..4 {
            let stats = mc.channel_device_stats(ch);
            assert!(stats.reads > 0, "channel {ch} unused");
            assert!(stats.data_bus_busy_cycles > 0, "channel {ch} bus idle");
        }
        assert!(mc.peak_bandwidth_bytes_per_sec() > 4.0 * 12.0e9);
    }

    #[test]
    fn every_scheduler_and_policy_combination_completes_requests() {
        for sched in SchedulerKind::paper_set() {
            for policy in PagePolicyKind::paper_set() {
                let mut cfg = McConfig::baseline();
                cfg.scheduler = sched;
                cfg.page_policy = policy;
                let mut mc = MemoryController::new(cfg).unwrap();
                for i in 0..20u64 {
                    let kind = if i % 4 == 0 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    mc.enqueue(
                        MemoryRequest::new(
                            i,
                            kind,
                            (i % 7) * 0x2_0000 + i * 64,
                            (i % 16) as usize,
                            i,
                        ),
                        i,
                    )
                    .unwrap();
                }
                let done = drain(&mut mc, 5_000);
                assert_eq!(
                    done.len(),
                    20,
                    "scheduler {} with policy {} lost requests",
                    sched.label(),
                    policy
                );
            }
        }
    }

    fn two_tenant_qos(policy: crate::qos::QosPolicyKind) -> QosConfig {
        QosConfig {
            policy,
            tenants: 2,
            latency_critical: [true, false, false, false],
            share: [1, 1, 1, 1],
            epoch: 4_096,
        }
    }

    /// Submits a contended two-tenant pattern: tenant 0 (latency-critical)
    /// issues one sparse read, tenant 1 floods the same channel. Returns how
    /// many requests were accepted (the flood yields to back-pressure).
    fn submit_two_tenants(mc: &mut MemoryController, at: DramCycles, wave: u64) -> u64 {
        mc.enqueue(
            MemoryRequest::new(
                wave * 16 + 15,
                AccessKind::Read,
                0x80_0000 + wave * 64,
                0,
                at,
            )
            .with_tenant(0),
            at,
        )
        .expect("the latency-critical tenant's sparse read must fit");
        let mut accepted = 1;
        for i in 0..6u64 {
            let req = MemoryRequest::new(
                wave * 16 + i,
                AccessKind::Read,
                (i % 3) * 0x2_0000 + wave * 0x100 + i * 64,
                8,
                at,
            )
            .with_tenant(1);
            if mc.enqueue(req, at).is_ok() {
                accepted += 1;
            }
        }
        accepted
    }

    #[test]
    fn qos_policies_compose_with_every_scheduler() {
        use crate::qos::QosPolicyKind;
        for sched in SchedulerKind::paper_set() {
            for qos in QosPolicyKind::all() {
                let mut cfg = McConfig::baseline();
                cfg.scheduler = sched;
                cfg.qos = two_tenant_qos(qos);
                let mut mc = MemoryController::new(cfg).unwrap();
                let mut submitted = 0;
                for wave in 0..4u64 {
                    submitted += submit_two_tenants(&mut mc, wave * 100, wave);
                }
                assert_eq!(submitted, 28, "ample queue space: nothing rejected");
                let mut done = Vec::new();
                for c in 0..6_000 {
                    mc.tick(c, &mut done);
                }
                assert_eq!(
                    done.len(),
                    28,
                    "{}/{qos}: requests lost under QoS arbitration",
                    sched.label()
                );
                let stats = mc.stats();
                assert_eq!(stats.reads_completed_per_tenant[0], 4);
                assert_eq!(stats.reads_completed_per_tenant[1], 24);
                assert_eq!(mc.pending_per_tenant(), [0; MAX_TENANTS]);
            }
        }
    }

    #[test]
    fn priority_boost_protects_the_latency_critical_tenant() {
        use crate::qos::QosPolicyKind;
        let run = |qos: QosPolicyKind| {
            let mut cfg = McConfig::baseline();
            cfg.qos = two_tenant_qos(qos);
            let mut mc = MemoryController::new(cfg).unwrap();
            let mut done = Vec::new();
            for wave in 0..40u64 {
                submit_two_tenants(&mut mc, wave * 30, wave);
                for c in (wave * 30)..((wave + 1) * 30) {
                    mc.tick(c, &mut done);
                }
            }
            for c in 1_200..8_000 {
                mc.tick(c, &mut done);
            }
            assert_eq!(mc.pending(), 0);
            mc.stats().avg_read_latency_for_tenant(0)
        };
        let baseline = run(QosPolicyKind::None);
        let boosted = run(QosPolicyKind::PriorityBoost);
        assert!(
            boosted < baseline,
            "boost must cut LC latency: {boosted} vs {baseline}"
        );
    }

    /// Two geometries for the jump-equivalence tests below: the baseline
    /// single channel, and two channels under a mapping that keeps every
    /// address those tests submit (bit 13 clear) on channel 0 — one channel
    /// busy, one drained with only its refresh, power and scrub timers
    /// running, which is the case the per-channel due bound exists for.
    fn jump_geometries(cfg: McConfig) -> [(McConfig, &'static str); 2] {
        let mut two = cfg;
        two.dram.channels = 2;
        two.mapping = AddressMapping::RoRaBaChCo;
        [(cfg, "1 channel"), (two, "2 channels")]
    }

    /// The due bounds must never overshoot: drives two controllers built
    /// from `cfg` through the same `arrivals` (cycle of wave `i`, handed to
    /// `submit` with the wave number) for `horizon` cycles — one ticking
    /// every cycle, one on the event kernel's `tick_due`/`next_due` — and
    /// demands identical completions, statistics, per-channel device
    /// counters (power-state residency included) and fault ledgers. Returns
    /// the per-cycle controller for test-specific checks.
    fn assert_jumps_match_naive(
        cfg: McConfig,
        horizon: DramCycles,
        arrivals: &[DramCycles],
        submit: impl Fn(&mut MemoryController, DramCycles, u64),
        label: &str,
    ) -> MemoryController {
        // `advance` ticks cycle `c` and returns the next cycle worth visiting.
        let drive = |advance: &dyn Fn(
            &mut MemoryController,
            DramCycles,
            &mut Vec<CompletedRequest>,
        ) -> DramCycles| {
            let mut mc = MemoryController::new(cfg).unwrap();
            let mut done = Vec::new();
            let mut waves = arrivals.iter().copied().enumerate().peekable();
            let mut c = 0;
            while c < horizon {
                while let Some((wave, _)) = waves.next_if(|&(_, at)| at == c) {
                    submit(&mut mc, c, wave as u64);
                }
                let mut next = advance(&mut mc, c, &mut done).max(c + 1).min(horizon);
                if let Some(&(_, at)) = waves.peek() {
                    next = next.min(at);
                }
                if next > c + 1 {
                    mc.skip_dram_cycles(next - c - 1);
                }
                c = next;
            }
            (mc, done)
        };
        let (naive, naive_done) = drive(&|mc, c, done| {
            mc.tick(c, done);
            c + 1
        });
        let (due, due_done) = drive(&|mc, c, done| {
            mc.tick_due(c, done);
            mc.next_due()
        });
        assert_eq!(naive_done, due_done, "{label}: completions diverged");
        assert_eq!(naive.stats(), due.stats(), "{label}: stats diverged");
        for ch in 0..naive.channel_count() {
            assert_eq!(
                naive.channel_device_stats_at(ch, horizon),
                due.channel_device_stats_at(ch, horizon),
                "{label}: channel {ch} device counters diverged"
            );
        }
        assert_eq!(
            naive.fault_ledger(),
            due.fault_ledger(),
            "{label}: fault ledgers diverged"
        );
        naive
    }

    /// The jump-equivalence property must hold with the QoS arbiter claiming
    /// slots: its preemptions only ever reorder within the candidate set the
    /// readiness bound already covers.
    #[test]
    fn next_ready_never_skips_a_qos_event() {
        use crate::qos::QosPolicyKind;
        for sched in SchedulerKind::all() {
            for qos in [QosPolicyKind::StaticPartition, QosPolicyKind::PriorityBoost] {
                let mut cfg = McConfig::baseline();
                cfg.scheduler = sched;
                cfg.qos = two_tenant_qos(qos);
                // A small epoch so boundaries land inside idle gaps too.
                cfg.qos.epoch = 512;
                let horizon = cfg.dram.timing.t_refi * 3;
                let arrivals: Vec<u64> = (0..6u64).map(|i| i * (horizon / 7)).collect();
                for (cfg, geometry) in jump_geometries(cfg) {
                    assert_jumps_match_naive(
                        cfg,
                        horizon,
                        &arrivals,
                        |mc, at, wave| {
                            submit_two_tenants(mc, at, wave);
                        },
                        &format!("{}/{qos}/{geometry}", sched.label()),
                    );
                }
            }
        }
    }

    #[test]
    fn queue_backpressure_rejects_when_full() {
        let mut cfg = McConfig::baseline();
        cfg.read_queue_capacity = 2;
        let mut mc = MemoryController::new(cfg).unwrap();
        assert!(mc.can_accept(0, AccessKind::Read));
        mc.enqueue(MemoryRequest::new(1, AccessKind::Read, 0, 0, 0), 0)
            .unwrap();
        mc.enqueue(MemoryRequest::new(2, AccessKind::Read, 64, 0, 0), 0)
            .unwrap();
        assert!(!mc.can_accept(128, AccessKind::Read));
        let rejected = mc
            .enqueue(MemoryRequest::new(3, AccessKind::Read, 128, 0, 0), 0)
            .unwrap_err();
        assert_eq!(rejected.id, 3);
    }

    #[test]
    fn refresh_happens_over_long_idle_periods() {
        let mut mc = MemoryController::new(McConfig::baseline()).unwrap();
        let t_refi = McConfig::baseline().dram.timing.t_refi;
        let mut done = Vec::new();
        for c in 0..(t_refi * 3) {
            mc.tick(c, &mut done);
        }
        assert!(mc.channel_device_stats(0).refreshes >= 2);
    }

    /// Jumping must be invisible for every scheduler/policy combination on
    /// a burst that arrives at cycle 0 and then drains.
    #[test]
    fn next_ready_never_skips_an_eventful_cycle() {
        for sched in SchedulerKind::all() {
            for policy in [
                PagePolicyKind::OpenAdaptive,
                PagePolicyKind::Close,
                PagePolicyKind::Timer,
            ] {
                let mut cfg = McConfig::baseline();
                cfg.scheduler = sched;
                cfg.page_policy = policy;
                let horizon = cfg.dram.timing.t_refi * 3;
                for (cfg, geometry) in jump_geometries(cfg) {
                    let naive = assert_jumps_match_naive(
                        cfg,
                        horizon,
                        &[0],
                        |mc, at, _| {
                            for i in 0..12u64 {
                                mc.enqueue(
                                    MemoryRequest::new(
                                        i,
                                        AccessKind::Read,
                                        (i % 5) * 0x2_0000 + i * 64,
                                        0,
                                        at,
                                    ),
                                    at,
                                )
                                .unwrap();
                            }
                        },
                        &format!("{sched:?}/{policy}/{geometry}"),
                    );
                    // Every read landed on channel 0; any further channel
                    // only ever refreshed.
                    assert_eq!(naive.channel_device_stats(0).reads, 12);
                    for ch in 1..naive.channel_count() {
                        assert_eq!(naive.channel_device_stats(ch).reads, 0);
                        assert!(naive.channel_device_stats(ch).refreshes >= 2);
                    }
                }
            }
        }
    }

    /// The jump-equivalence property must also hold with every power policy
    /// driving rank power-down, wake-on-demand and wake-for-refresh.
    #[test]
    fn next_ready_never_skips_a_power_event() {
        use crate::power::PowerPolicyKind;
        for power in PowerPolicyKind::all() {
            for policy in [PagePolicyKind::OpenAdaptive, PagePolicyKind::Open] {
                let mut cfg = McConfig::baseline();
                cfg.page_policy = policy;
                cfg.power_policy = power;
                // Sparse arrivals leave long gaps for power-down entries,
                // deepening transitions and refresh wakes.
                let horizon = cfg.dram.timing.t_refi * 4;
                let arrivals: Vec<u64> = (0..8u64).map(|i| i * (horizon / 9)).collect();
                for (cfg, geometry) in jump_geometries(cfg) {
                    let naive = assert_jumps_match_naive(
                        cfg,
                        horizon,
                        &arrivals,
                        |mc, at, i| {
                            mc.enqueue(
                                MemoryRequest::new(
                                    i,
                                    AccessKind::Read,
                                    (i % 3) * 0x40_0000 + i * 64,
                                    0,
                                    at,
                                ),
                                at,
                            )
                            .unwrap();
                        },
                        &format!("{power}/{policy}/{geometry}"),
                    );
                    if power != PowerPolicyKind::None {
                        assert!(
                            naive.stats().power_downs + naive.stats().self_refreshes > 0,
                            "{power}/{policy}/{geometry}: power policy never acted"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn immediate_power_down_parks_idle_ranks_and_serves_demand() {
        let mut cfg = McConfig::baseline();
        cfg.power_policy = crate::power::PowerPolicyKind::Immediate;
        let mut mc = MemoryController::new(cfg).unwrap();
        let mut done = Vec::new();
        // A long quiet stretch: both ranks should drop into power-down.
        for c in 0..2_000 {
            mc.tick(c, &mut done);
        }
        let stats = mc.stats();
        assert!(stats.power_downs >= 2, "both ranks should have parked");
        // A late read wakes the rank and still completes, paying the exit
        // latency on top of the usual activate+read time.
        mc.enqueue(
            MemoryRequest::new(1, AccessKind::Read, 0x10_0000, 0, 2_000),
            2_000,
        )
        .unwrap();
        for c in 2_000..2_400 {
            mc.tick(c, &mut done);
        }
        assert_eq!(done.len(), 1);
        let t = cfg.dram.timing;
        assert!(
            done[0].latency() >= t.t_xp + t.t_rcd + t.cl + t.t_burst,
            "latency {} must include the tXP exit fence",
            done[0].latency()
        );
        assert!(mc.stats().power_wakes >= 1);
    }

    #[test]
    fn refresh_wakes_powered_down_ranks_on_schedule() {
        let mut cfg = McConfig::baseline();
        cfg.power_policy = crate::power::PowerPolicyKind::Immediate;
        let t_refi = cfg.dram.timing.t_refi;
        let mut mc = MemoryController::new(cfg).unwrap();
        let mut done = Vec::new();
        for c in 0..(t_refi * 3) {
            mc.tick(c, &mut done);
        }
        // Refresh kept running despite the ranks sleeping in between.
        assert!(mc.channel_device_stats(0).refreshes >= 2);
        assert!(mc.stats().power_wakes >= 2, "each due refresh wakes a rank");
    }

    #[test]
    fn idle_timer_reaches_self_refresh_and_suppresses_refresh_commands() {
        let mut cfg = McConfig::baseline();
        cfg.power_policy = crate::power::PowerPolicyKind::IdleTimer;
        let t_refi = cfg.dram.timing.t_refi;
        let mut mc = MemoryController::new(cfg).unwrap();
        let mut done = Vec::new();
        for c in 0..(t_refi * 8) {
            mc.tick(c, &mut done);
        }
        let stats = mc.stats();
        assert!(
            stats.self_refreshes >= 2,
            "both ranks should reach self-refresh"
        );
        // Once in self-refresh, external REF commands stop.
        let refreshes_mid = mc.channel_device_stats(0).refreshes;
        for c in (t_refi * 8)..(t_refi * 16) {
            mc.tick(c, &mut done);
        }
        assert_eq!(
            mc.channel_device_stats(0).refreshes,
            refreshes_mid,
            "self-refreshing ranks must not receive external REF"
        );
    }

    #[test]
    fn quiescent_controller_reports_refresh_as_next_event() {
        let mut mc = MemoryController::new(McConfig::baseline()).unwrap();
        let due = McConfig::baseline().dram.timing.t_refi;
        assert_eq!(mc.next_due(), 0, "a fresh controller is due at once");
        mc.tick_due(0, &mut Vec::new());
        assert_eq!(mc.next_due(), due);
        let mut cfg = McConfig::baseline();
        cfg.dram.refresh_enabled = false;
        let mut quiet = MemoryController::new(cfg).unwrap();
        quiet.tick_due(0, &mut Vec::new());
        assert_eq!(quiet.next_due(), u64::MAX);
        // An arrival pulls the bound back to its cycle.
        quiet
            .enqueue(MemoryRequest::new(1, AccessKind::Read, 0, 0, 7), 7)
            .unwrap();
        assert_eq!(quiet.next_due(), 7);
    }

    #[test]
    fn close_policy_yields_single_access_activations() {
        let mut cfg = McConfig::baseline();
        cfg.page_policy = PagePolicyKind::Close;
        let mut mc = MemoryController::new(cfg).unwrap();
        for i in 0..10u64 {
            mc.enqueue(
                MemoryRequest::new(i, AccessKind::Read, i * 0x40_000, 0, i * 10),
                i * 10,
            )
            .unwrap();
        }
        let done = drain(&mut mc, 3_000);
        assert_eq!(done.len(), 10);
        let stats = mc.stats();
        assert!(stats.single_access_activation_fraction() > 0.9);
        assert_eq!(stats.row_hits, 0);
    }

    /// Fault config that flips every read (certainty rate) with the given
    /// uncorrectable share, no scrubbing.
    fn noisy_fault(uncorrectable_permille: u32) -> FaultConfig {
        FaultConfig {
            transient_rate_fp: 1 << 32,
            uncorrectable_permille,
            miscorrect_permille: 0,
            ..FaultConfig::baseline()
        }
    }

    #[test]
    fn corrected_errors_trigger_bounded_demand_retries() {
        let mut cfg = McConfig::baseline();
        // Every read faults as corrected: each demand read retries exactly
        // max_demand_retries times, then accepts the corrected data.
        cfg.fault_model = Some(noisy_fault(0));
        let mut mc = MemoryController::new(cfg).unwrap();
        mc.enqueue(MemoryRequest::new(1, AccessKind::Read, 0x4000, 0, 0), 0)
            .unwrap();
        let done = drain(&mut mc, 2_000);
        assert_eq!(done.len(), 1, "retries must not lose the request");
        let stats = mc.stats();
        let retries = cfg.fault_model.unwrap().max_demand_retries as u64;
        assert_eq!(stats.demand_retries, retries);
        assert_eq!(stats.ecc_corrected, retries + 1);
        assert_eq!(stats.reads_completed, 1, "one demand completion only");
        // The retries extend the observed latency beyond a clean read's.
        assert!(done[0].latency() > 2 * cfg.fault_model.unwrap().retry_backoff);
        assert_eq!(mc.pending(), 0);
        let ledger = mc.fault_ledger();
        assert_eq!(ledger.injected, retries + 1);
        assert_eq!(ledger.corrected, retries + 1);
    }

    #[test]
    fn repeat_offender_rows_are_retired_and_read_clean_after() {
        let mut cfg = McConfig::baseline();
        let mut fault = noisy_fault(0);
        fault.retire_threshold = 3;
        fault.max_demand_retries = 0;
        cfg.fault_model = Some(fault);
        let mut mc = MemoryController::new(cfg).unwrap();
        // Many reads of the same row: after 3 corrected errors the row
        // retires (remapped to a spare) and later reads come back clean.
        let mut done = Vec::new();
        for i in 0..10u64 {
            mc.enqueue(MemoryRequest::new(i, AccessKind::Read, 0x4000, 0, i), i)
                .unwrap();
        }
        for c in 0..3_000 {
            mc.tick(c, &mut done);
        }
        assert_eq!(done.len(), 10);
        let stats = mc.stats();
        assert_eq!(stats.rows_retired, 1);
        assert_eq!(
            stats.ecc_corrected, 3,
            "only the pre-retirement reads fault"
        );
        let per_rank = mc.rows_retired_per_rank();
        assert_eq!(per_rank.iter().sum::<u64>(), 1);
    }

    #[test]
    fn fail_stop_latches_a_typed_error_and_never_panics() {
        let mut cfg = McConfig::baseline();
        let mut fault = noisy_fault(1000); // every flip is uncorrectable
        fault.on_uncorrectable = UncorrectablePolicy::FailStop;
        cfg.fault_model = Some(fault);
        let mut mc = MemoryController::new(cfg).unwrap();
        mc.enqueue(MemoryRequest::new(1, AccessKind::Read, 0x4000, 0, 0), 0)
            .unwrap();
        let done = drain(&mut mc, 500);
        assert_eq!(done.len(), 1, "the run completes; the error is latched");
        let err = mc.fault_error().expect("uncorrectable error must latch");
        assert!(err.contains("uncorrectable"), "got: {err}");
        assert_eq!(mc.stats().ecc_detected_uncorrectable, 1);
    }

    #[test]
    fn poison_and_continue_accounts_poisoned_lines_and_writes_clear_them() {
        let mut cfg = McConfig::baseline();
        let mut fault = noisy_fault(1000);
        fault.on_uncorrectable = UncorrectablePolicy::PoisonAndContinue;
        cfg.fault_model = Some(fault);
        let mut mc = MemoryController::new(cfg).unwrap();
        // First read poisons the line; the second read consumes the poison
        // (skipping classification); a write then clears it.
        mc.enqueue(MemoryRequest::new(1, AccessKind::Read, 0x4000, 0, 0), 0)
            .unwrap();
        let mut done = drain(&mut mc, 400);
        mc.enqueue(MemoryRequest::new(2, AccessKind::Read, 0x4000, 0, 400), 400)
            .unwrap();
        for c in 400..800 {
            mc.tick(c, &mut done);
        }
        mc.enqueue(
            MemoryRequest::new(3, AccessKind::Write, 0x4000, 0, 800),
            800,
        )
        .unwrap();
        for c in 800..1_200 {
            mc.tick(c, &mut done);
        }
        mc.enqueue(
            MemoryRequest::new(4, AccessKind::Read, 0x4000, 0, 1_200),
            1_200,
        )
        .unwrap();
        for c in 1_200..1_600 {
            mc.tick(c, &mut done);
        }
        assert_eq!(done.len(), 4);
        let stats = mc.stats();
        assert_eq!(stats.lines_poisoned, 2, "read 1 and read 4 each poison");
        assert_eq!(stats.poisoned_reads, 1, "only read 2 consumed poison");
        assert!(mc.fault_error().is_none());
    }

    #[test]
    fn scrub_emits_real_read_traffic_without_demand_pending() {
        let mut cfg = McConfig::baseline();
        let mut fault = FaultConfig::baseline();
        fault.transient_rate_fp = 0;
        fault.scrub_interval = 100;
        cfg.fault_model = Some(fault);
        let mut mc = MemoryController::new(cfg).unwrap();
        let mut done = Vec::new();
        for c in 0..5_000 {
            mc.tick(c, &mut done);
            assert_eq!(mc.pending(), 0, "scrub must not count as demand");
        }
        assert!(done.is_empty(), "scrub completions stay internal");
        let stats = mc.stats();
        assert!(stats.scrub_reads_issued >= 40, "one per 100 cycles");
        assert!(stats.scrub_reads_completed > 0);
        assert_eq!(stats.reads_completed, 0);
        // The scrub reads are real device traffic.
        assert!(mc.channel_device_stats(0).reads > 0);
        assert_eq!(mc.pending_per_tenant(), [0; MAX_TENANTS]);
    }

    #[test]
    fn scrub_discovers_planted_rows_and_retires_them() {
        let mut cfg = McConfig::baseline();
        // Shrink the geometry so one patrol pass covers the device quickly.
        cfg.dram.rows_per_bank = 16;
        let mut fault = FaultConfig::baseline();
        fault.transient_rate_fp = 0;
        fault.stuck_rows_per_rank = 2;
        fault.scrub_interval = 20;
        fault.retire_threshold = 2;
        cfg.fault_model = Some(fault);
        let mut mc = MemoryController::new(cfg).unwrap();
        let mut done = Vec::new();
        // 2 ranks x 8 banks x 16 rows = 256 granules per pass; several
        // passes at one read per 20 cycles.
        for c in 0..40_000 {
            mc.tick(c, &mut done);
        }
        let stats = mc.stats();
        assert!(stats.scrub_corrected >= 4, "planted rows found repeatedly");
        assert_eq!(stats.rows_retired, 4, "2 stuck rows x 2 ranks retire");
        let ledger = mc.fault_ledger();
        assert_eq!(ledger.latent, 0, "full patrol passes leave nothing latent");
        assert_eq!(
            ledger.injected,
            ledger.corrected + ledger.uncorrectable + ledger.latent
        );
    }

    /// The jump-equivalence property must hold with the reliability
    /// subsystem active: scrub emissions and retry deadlines are part of the
    /// readiness bound, so fast-forwarding never skips them.
    #[test]
    fn next_ready_never_skips_a_scrub_or_retry_event() {
        for sched in SchedulerKind::all() {
            let mut cfg = McConfig::baseline();
            cfg.scheduler = sched;
            cfg.power_policy = PowerPolicyKind::IdleTimer;
            let mut fault = noisy_fault(200);
            fault.scrub_interval = 700;
            fault.retry_backoff = 16;
            cfg.fault_model = Some(fault);
            let horizon = cfg.dram.timing.t_refi * 3;
            let arrivals: Vec<u64> = (0..6u64).map(|i| i * (horizon / 7)).collect();
            for (cfg, geometry) in jump_geometries(cfg) {
                let naive = assert_jumps_match_naive(
                    cfg,
                    horizon,
                    &arrivals,
                    |mc, at, wave| {
                        submit_two_tenants(mc, at, wave);
                    },
                    &format!("{}/{geometry}", sched.label()),
                );
                assert!(naive.stats().demand_retries > 0, "retries must fire");
                assert!(naive.stats().scrub_reads_completed > 0);
            }
        }
    }

    /// `fault_model: None` must add zero work and zero counters: a run with
    /// the field defaulted is bit-identical to the pre-subsystem controller.
    #[test]
    fn disabled_fault_model_keeps_all_reliability_counters_zero() {
        let mut mc = MemoryController::new(McConfig::baseline()).unwrap();
        for i in 0..20u64 {
            mc.enqueue(
                MemoryRequest::new(i, AccessKind::Read, i * 0x1_0000, 0, i),
                i,
            )
            .unwrap();
        }
        let done = drain(&mut mc, 3_000);
        assert_eq!(done.len(), 20);
        let stats = mc.stats();
        assert_eq!(stats.ecc_corrected, 0);
        assert_eq!(stats.ecc_detected_uncorrectable, 0);
        assert_eq!(stats.ecc_miscorrects, 0);
        assert_eq!(stats.demand_retries, 0);
        assert_eq!(stats.scrub_reads_issued, 0);
        assert_eq!(stats.rows_retired, 0);
        assert_eq!(stats.lines_poisoned, 0);
        assert_eq!(mc.fault_ledger(), cloudmc_dram::FaultLedger::default());
        assert!(mc.fault_error().is_none());
        assert!(mc.rows_retired_per_rank().iter().all(|&r| r == 0));
    }
}
