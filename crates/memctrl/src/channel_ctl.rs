//! The controller of one memory channel: per-cycle command generation
//! combining a scheduling algorithm, a page-management policy, write
//! draining, refresh handling and rank power management, with the
//! reliability layer ([`crate::reliability`]) called once per tick phase.

use cloudmc_dram::{
    Command, CommandKind, DramChannel, DramCycles, IssueOutcome, Location, PowerDownMode,
};
use cloudmc_snap::{snap_fields, SnapError, SnapReader};

use crate::bank_table::BankTable;
use crate::config::McConfig;
use crate::page::{PagePolicy, PolicyView};
use crate::power::{PowerAction, PowerPolicy};
use crate::qos::QosArbiter;
use crate::queue::RequestQueue;
use crate::reliability::{is_scrub_id, FaultState};
use crate::request::{AccessKind, CompletedRequest, MemoryRequest, RowBufferOutcome, MAX_TENANTS};
use crate::sched::{PickWork, SchedContext, SchedDecision, Scheduler};
use crate::stats::McStats;

/// A request whose column access has issued and whose data completes at a
/// known cycle.
#[derive(Debug, Clone, Copy, Default)]
struct InFlight {
    completion: DramCycles,
    done: CompletedRequest,
}

/// Controller state for one memory channel.
#[derive(Debug)]
pub(crate) struct ChannelController {
    index: usize,
    pub(crate) channel: DramChannel,
    read_q: RequestQueue,
    write_q: RequestQueue,
    scheduler: Scheduler,
    policy: PagePolicy,
    power_policy: PowerPolicy,
    qos: QosArbiter,
    write_mode: bool,
    inflight: Vec<InFlight>,
    /// Per flat-bank flag: a conflict-induced precharge has been issued and
    /// the next activation of that bank serves a row-conflict request.
    conflict_pending: Vec<bool>,
    /// Per flat-bank flag: the currently open row was activated after a
    /// conflict-induced precharge.
    activated_after_conflict: Vec<bool>,
    pub(crate) stats: McStats,
    write_drain_high: usize,
    write_drain_low: usize,
    num_cores: usize,
    /// Reliability subsystem; `None` keeps the controller bit-identical to a
    /// build without it (no extra work on any hot path).
    pub(crate) fault: Option<Box<FaultState>>,
    /// Per-bank demand of both queues against the open rows, kept by
    /// [`Self::enqueue`], [`Self::execute`] and [`Self::issue`].
    banks: BankTable,
    /// What this channel's picks read and checked, summed over its ticks.
    pub(crate) work: PickWork,
    /// This channel's cached next-due cycle (the contract is stated in
    /// `cloudmc-sim`'s `kernel` module): [`Self::tick_due`] stores the one
    /// each [`Self::tick`] reports and [`Self::enqueue`] pulls it back
    /// to the arrival cycle. The every-channel [`MemoryController::tick`]
    /// neither reads nor refreshes it, so one controller is driven by one of
    /// the two for life.
    pub(crate) next_due: DramCycles,
}

impl ChannelController {
    pub(crate) fn new(index: usize, cfg: &McConfig) -> Self {
        let total_banks = cfg.dram.banks_per_channel();
        Self {
            index,
            channel: DramChannel::new(&cfg.dram),
            read_q: RequestQueue::new(cfg.read_queue_capacity),
            write_q: RequestQueue::new(cfg.write_queue_capacity),
            scheduler: cfg.scheduler.build(cfg.num_cores),
            policy: cfg
                .page_policy
                .build(cfg.dram.ranks_per_channel, cfg.dram.banks_per_rank),
            power_policy: cfg.power_policy.build(cfg.dram.ranks_per_channel),
            qos: QosArbiter::new(cfg.qos),
            write_mode: false,
            inflight: Vec::new(),
            conflict_pending: vec![false; total_banks],
            activated_after_conflict: vec![false; total_banks],
            stats: McStats::new(),
            write_drain_high: cfg.write_drain_high,
            write_drain_low: cfg.write_drain_low,
            num_cores: cfg.num_cores,
            fault: cfg
                .fault_model
                .map(|fc| Box::new(FaultState::new(fc, index, &cfg.dram))),
            next_due: 0,
            banks: BankTable::new(cfg.dram.banks_per_rank),
            work: PickWork::default(),
        }
    }

    pub(crate) fn can_accept(&self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Read => !self.read_q.is_full(),
            AccessKind::Write => !self.write_q.is_full(),
        }
    }

    /// Bounds every restored request record — queued, in flight or parked
    /// for an ECC retry — against this channel's geometry and core count:
    /// the device model asserts on a location outside the geometry, and the
    /// per-core scheduler and statistics tables are indexed by the core.
    /// The live-scrub counter must equal the scrub reads actually queued or
    /// in flight, or the demand-pending accounting underflows. Then
    /// rebuilds the bank table from the restored queues and rows.
    fn check_restored(&mut self, r: &SnapReader<'_>) -> Result<(), SnapError> {
        let queued = self
            .read_q
            .iter()
            .chain(self.write_q.iter())
            .map(|e| (&e.request, &e.location));
        let inflight = self
            .inflight
            .iter()
            .map(|i| (&i.done.request, &i.done.location));
        let parked = self.fault.iter().flat_map(|f| f.parked());
        let mut scrubs = 0;
        for (request, location) in queued.chain(inflight).chain(parked) {
            request.check_core(r, self.num_cores)?;
            if !self.channel.contains(location) {
                return Err(r.bad_value(format!(
                    "request {} at {location:?} outside the channel geometry",
                    request.id
                )));
            }
            scrubs += usize::from(is_scrub_id(request.id));
        }
        let live = self.fault.as_ref().map_or(0, |f| f.live_scrubs());
        if scrubs != live {
            return Err(r.bad_value(format!(
                "{live} live scrub reads recorded, {scrubs} queued or in flight"
            )));
        }
        self.banks = BankTable::scan(&self.channel, &self.read_q, &self.write_q);
        Ok(())
    }

    /// Demand requests queued, in flight or parked for retry. Patrol-scrub
    /// reads physically occupy the queues but are controller-generated, so
    /// they are excluded here: the frontend must not stall its exit condition
    /// on background scrub traffic.
    pub(crate) fn pending(&self) -> usize {
        let base = self.read_q.len() + self.write_q.len() + self.inflight.len();
        match &self.fault {
            Some(f) => base + f.parked().count() - f.live_scrubs(),
            None => base,
        }
    }

    /// Pending demand requests (queued, in flight or parked for retry) per
    /// tenant. Scrub reads carry tenant 0 but are not demand traffic.
    pub(crate) fn pending_per_tenant(&self) -> [u64; MAX_TENANTS] {
        let mut out = [0u64; MAX_TENANTS];
        for (slot, (&r, &w)) in out.iter_mut().zip(
            self.read_q
                .tenant_lens()
                .iter()
                .zip(self.write_q.tenant_lens().iter()),
        ) {
            *slot = (r + w) as u64;
        }
        for inflight in &self.inflight {
            out[inflight.done.request.tenant.min(MAX_TENANTS - 1)] += 1;
        }
        if let Some(f) = &self.fault {
            out[0] -= f.live_scrubs() as u64;
            for (request, _) in f.parked() {
                out[request.tenant.min(MAX_TENANTS - 1)] += 1;
            }
        }
        out
    }

    pub(crate) fn enqueue(
        &mut self,
        request: MemoryRequest,
        location: Location,
        now: DramCycles,
    ) -> Result<(), MemoryRequest> {
        let queue = match request.kind {
            AccessKind::Read => &mut self.read_q,
            AccessKind::Write => &mut self.write_q,
        };
        queue.push(request, location, now)?;
        self.banks.push(request.kind, &location);
        // New work: the channel may have something to do this very cycle.
        self.next_due = self.next_due.min(now);
        // Demand arrival wakes a powered-down rank immediately: the exit
        // latency (tXP/tXPDLL/tXS) becomes part of the request's observed
        // latency, which is exactly the cost side of the power tradeoff.
        self.power_policy.on_activity(location.rank, now);
        if self.channel.power_state(location.rank).is_powered_down() {
            self.channel.wake_rank(location.rank, now);
            self.stats.power_wakes += 1;
        }
        Ok(())
    }

    fn update_write_mode(&mut self) {
        if self.scheduler.manages_write_drain() {
            self.write_mode = false;
            return;
        }
        if self.write_q.len() >= self.write_drain_high {
            self.write_mode = true;
        } else if self.write_mode
            && (self.write_q.len() <= self.write_drain_low || self.write_q.is_empty())
        {
            self.write_mode = false;
        }
        // Opportunistic switches when one side is empty.
        if self.read_q.is_empty() && !self.write_q.is_empty() {
            self.write_mode = true;
        } else if self.write_q.is_empty() {
            self.write_mode = false;
        }
    }

    fn flat_bank(&self, loc: &Location) -> usize {
        loc.flat_bank(self.channel.banks_per_rank())
    }

    /// Classifies the row-buffer outcome of a column access issued to `loc`,
    /// given how many accesses the open row had already served.
    ///
    /// The first access after an activation pays the activation (and possibly
    /// precharge) latency — a miss or conflict; subsequent accesses to the
    /// open row are row-buffer hits.
    fn classify_access(&self, loc: &Location, accesses_before: u64) -> RowBufferOutcome {
        if accesses_before >= 1 {
            RowBufferOutcome::Hit
        } else if self.activated_after_conflict[self.flat_bank(loc)] {
            RowBufferOutcome::Conflict
        } else {
            RowBufferOutcome::Miss
        }
    }

    /// Closes the row currently open in (`rank`, `bank`) for bookkeeping
    /// purposes, recording the activation-reuse histogram and notifying the
    /// page policy.
    fn note_row_closed(&mut self, rank: usize, bank: usize, accesses: u64) {
        if let Some(row) = self.channel.open_row(rank, bank) {
            self.stats.record_activation_closed(accesses);
            self.policy.on_row_closed(rank, bank, row, accesses);
        }
    }

    /// The precharge that closes the row open in (`rank`, `bank`), if any.
    fn open_row_precharge(&self, rank: usize, bank: usize) -> Option<Command> {
        let row = self.channel.open_row(rank, bank)?;
        Some(Command::precharge(Location::new(rank, bank, row, 0)))
    }

    /// Earliest legal cycle of [`Self::open_row_precharge`]; `u64::MAX`
    /// when no row is open.
    fn earliest_precharge(&self, rank: usize, bank: usize) -> DramCycles {
        self.open_row_precharge(rank, bank)
            .and_then(|pre| self.channel.earliest_legal(&pre))
            .unwrap_or(DramCycles::MAX)
    }

    /// Issues a policy precharge to the open row of (`rank`, `bank`) if one
    /// is open and the command is legal at `now`, with the row-close
    /// bookkeeping. Returns `true` if the precharge issued.
    fn try_precharge(&mut self, rank: usize, bank: usize, now: DramCycles) -> bool {
        let Some(pre) = self.open_row_precharge(rank, bank) else {
            return false;
        };
        if !self.channel.can_issue(&pre, now) {
            return false;
        }
        let accesses = self.channel.accesses_since_activate(rank, bank);
        self.note_row_closed(rank, bank, accesses);
        self.issue(&pre, now);
        true
    }

    /// The cycle from which an overdue refresh of `rank` is no longer
    /// postponed: once it is two intervals behind (one `t_refi` past due),
    /// the controller force-closes the rank's open rows so the REF can
    /// issue. The one statement of the postponement rule, used by
    /// [`Self::handle_refresh`] and the event horizon.
    fn refresh_forced_at(&self, rank: usize) -> DramCycles {
        self.channel
            .rank(rank)
            .next_refresh_due()
            .saturating_add(self.channel.timing().t_refi)
    }

    /// When the forced refresh of `rank` can next close a row: the later of
    /// [`Self::refresh_forced_at`] and the rank's earliest legal precharge.
    /// The first bank whose precharge is legal by the forced cycle settles
    /// it, so only a rank whose every open row is fenced past that cycle is
    /// scanned in full. `u64::MAX` with no row open.
    fn forced_refresh_bound(&self, rank: usize) -> DramCycles {
        let forced = self.refresh_forced_at(rank);
        let mut earliest = DramCycles::MAX;
        for bank in 0..self.channel.banks_per_rank() {
            let pre = self.earliest_precharge(rank, bank);
            if pre <= forced {
                return forced;
            }
            earliest = earliest.min(pre);
        }
        earliest
    }

    /// Attempts to make progress on refresh; returns `true` if a command was
    /// issued this cycle.
    fn handle_refresh(&mut self, now: DramCycles) -> bool {
        let Some(rank) = self.channel.refresh_due(now) else {
            return false;
        };
        // A rank that slept past its refresh deadline (fast/slow power-down;
        // self-refresh never comes due) is woken first. CKE is a dedicated
        // pin, so the wake does not occupy the command bus: fall through and
        // let this cycle still issue a command (the REF itself only becomes
        // legal once the exit latency has elapsed).
        if self.channel.power_state(rank).is_powered_down() {
            self.channel.wake_rank(rank, now);
            self.stats.power_wakes += 1;
        }
        let refresh = Command::refresh(rank);
        if self.channel.can_issue(&refresh, now) {
            self.issue(&refresh, now);
            return true;
        }
        // Postpone lightly-loaded refreshes; force bank closure once the
        // postponement runs out.
        if now >= self.refresh_forced_at(rank) {
            for bank in 0..self.channel.banks_per_rank() {
                if self.try_precharge(rank, bank, now) {
                    return true;
                }
            }
        }
        false
    }

    /// Issues `cmd` on the channel and accounts it in the bank table: every
    /// command the controller issues goes through here.
    fn issue(&mut self, cmd: &Command, now: DramCycles) -> IssueOutcome {
        let outcome = self.channel.issue(cmd, now);
        self.banks.apply(cmd, &self.read_q, &self.write_q);
        outcome
    }

    /// Executes a scheduler decision.
    fn execute(&mut self, decision: SchedDecision, now: DramCycles) {
        let loc = decision.command.loc;
        self.power_policy.on_activity(loc.rank, now);
        match decision.request_id {
            Some(id) => {
                // Column access completing a request: apply the page policy's
                // auto-precharge decision, then issue. The served entry is
                // still queued here, so it counts as a pending hit of its
                // own row.
                let auto_precharge = self.policy.auto_precharge(&self.view(now), &loc);
                #[expect(
                    clippy::expect_used,
                    reason = "scheduler only returns ids it was shown from the queues"
                )]
                let entry = self
                    .read_q
                    .remove(id)
                    .or_else(|| self.write_q.remove(id))
                    .expect("scheduled request must be queued");
                self.banks.remove(entry.request.kind, &entry.location);
                // Every data transfer is charged to its tenant, whether the
                // scheduler or the QoS arbiter picked it — the partition
                // accounting must see the whole delivered bandwidth.
                self.qos.on_issue(entry.request.tenant);
                let command = match entry.request.kind {
                    AccessKind::Read => Command::read(loc, auto_precharge),
                    AccessKind::Write => Command::write(loc, auto_precharge),
                };
                debug_assert!(self.channel.can_issue(&command, now));
                let accesses_before = self.channel.accesses_since_activate(loc.rank, loc.bank);
                let outcome = self.classify_access(&loc, accesses_before);
                let issue = self.issue(&command, now);
                self.policy
                    .on_column_access(loc.rank, loc.bank, loc.row, now);
                if auto_precharge {
                    self.stats.record_activation_closed(accesses_before + 1);
                    self.policy
                        .on_row_closed(loc.rank, loc.bank, loc.row, accesses_before + 1);
                }
                self.inflight.push(InFlight {
                    completion: issue.completion_cycle,
                    done: CompletedRequest {
                        request: entry.request,
                        channel: self.index,
                        location: loc,
                        issue: now,
                        completion: issue.completion_cycle,
                        outcome,
                        retries: 0,
                    },
                });
            }
            None => {
                debug_assert!(self.channel.can_issue(&decision.command, now));
                let flat = self.flat_bank(&loc);
                match decision.command.kind {
                    CommandKind::Activate => {
                        self.issue(&decision.command, now);
                        self.policy.on_activate(loc.rank, loc.bank, loc.row, now);
                        self.activated_after_conflict[flat] = self.conflict_pending[flat];
                        self.conflict_pending[flat] = false;
                    }
                    CommandKind::Precharge => {
                        let accesses = self.channel.accesses_since_activate(loc.rank, loc.bank);
                        self.note_row_closed(loc.rank, loc.bank, accesses);
                        // A scheduler-issued precharge is conflict-induced:
                        // some pending request needs a different row.
                        self.conflict_pending[flat] = true;
                        self.issue(&decision.command, now);
                    }
                    _ => {
                        self.issue(&decision.command, now);
                    }
                }
            }
        }
    }

    /// Advances the controller by one DRAM cycle, appending the requests
    /// whose data completed this cycle to `finished` (the caller owns and
    /// reuses the buffer, keeping the per-cycle hot path allocation-free).
    ///
    /// Returns the channel's next due cycle: `now + 1` after a cycle that
    /// issued a command or applied a power action, otherwise
    /// [`Self::idle_next_due`] over what this tick already evaluated.
    ///
    /// Debug builds check the bank table against a fresh
    /// [`BankTable::scan`] after every tick.
    pub(crate) fn tick(
        &mut self,
        now: DramCycles,
        finished: &mut Vec<CompletedRequest>,
    ) -> DramCycles {
        let next = self.step(now, finished);
        debug_assert_eq!(
            self.banks,
            BankTable::scan(&self.channel, &self.read_q, &self.write_q),
            "channel {} bank table diverged from its queues at cycle {now}",
            self.index
        );
        next
    }

    /// The body of [`Self::tick`].
    fn step(&mut self, now: DramCycles, finished: &mut Vec<CompletedRequest>) -> DramCycles {
        // 0. Reliability (no-op without a fault model): the demand retries
        // whose backoff elapsed and the due patrol-scrub read enter the read
        // queue through the ordinary enqueue, so they occupy real queue
        // slots, wake powered-down ranks, and contend with demand traffic
        // in the scheduler and the QoS arbiter.
        if let Some(mut fault) = self.fault.take() {
            let room = self.read_q.capacity() - self.read_q.len();
            let scrubbed = fault.release(now, room, |request, location| {
                // `release` stays within the queue's room, so this succeeds.
                let _ = self.enqueue(request, location, now);
            });
            self.stats.scrub_reads_issued += u64::from(scrubbed);
            self.fault = Some(fault);
        }

        // 1. Retire completed transfers, all through one path: the
        // scheduler sees every service (demand, scrub, or a read about to be
        // retried), the reliability layer settles it, and what it hands
        // back is recorded and pushed to `finished`.
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].completion <= now {
                let done = self.inflight.swap_remove(i).done;
                self.scheduler.on_complete(&done);
                let done = match self.fault.as_deref_mut() {
                    Some(fault) => fault.retire(done, now, &self.channel, &mut self.stats),
                    None => Some(done),
                };
                if let Some(done) = done {
                    self.stats.record_completion(&done);
                    finished.push(done);
                }
            } else {
                i += 1;
            }
        }

        // 2. Sample queue occupancies for Figures 5 and 6, plus the
        // per-tenant read-queue breakdown for the QoS analysis.
        self.stats
            .sample_queues(self.read_q.len(), self.write_q.len());
        self.stats
            .sample_tenant_reads_n(&self.read_q.tenant_lens(), 1);

        // 3. Scheduler per-cycle bookkeeping (quantum boundaries, etc.).
        self.scheduler.on_cycle(&SchedContext::new(
            now,
            &self.channel,
            &self.read_q,
            &self.write_q,
            &self.banks,
            self.write_mode,
            self.num_cores,
        ));

        // 4. Read/write phase decision.
        self.update_write_mode();

        // 5. Refresh takes priority when due and issuable.
        if self.handle_refresh(now) {
            return now + 1;
        }

        // 6–7. The QoS arbiter gets first claim on the command slot: it may
        // issue for a tenant its policy privileges (work-conserving — it
        // declines whenever those tenants have nothing ready), composing
        // with whichever scheduling algorithm is configured; otherwise the
        // scheduler picks. Both share one context, so its wait bound covers
        // every candidate either evaluated.
        let ctx = SchedContext::new(
            now,
            &self.channel,
            &self.read_q,
            &self.write_q,
            &self.banks,
            self.write_mode,
            self.num_cores,
        );
        let decision = self.qos.pick(&ctx).or_else(|| self.scheduler.pick(&ctx));
        let wait = ctx.wait.get();
        self.work += ctx.work.get();
        if let Some(decision) = decision {
            self.execute(decision, now);
            return now + 1;
        }

        // 8. Otherwise let the page policy close an idle row proactively.
        let page = self.policy.propose_precharge(&self.view(now));
        if let Some((rank, bank)) = page {
            if self.try_precharge(rank, bank, now) {
                return now + 1;
            }
        }

        // 9. Last priority: let the power policy park a quiescent rank.
        let power = self.power_policy.propose(&self.view(now));
        if self.power_step(power, now) {
            return now + 1;
        }
        self.idle_next_due(now, wait, page, power)
    }

    /// Applies the power policy's proposal, if any. Runs only on cycles
    /// where nothing else issued, mirroring the page-policy slot. Returns
    /// `true` if an action was applied.
    fn power_step(&mut self, action: Option<PowerAction>, now: DramCycles) -> bool {
        match action {
            // Proposals are required to be legal already; the guard keeps an
            // ill-behaved policy from panicking the device.
            Some(PowerAction::PowerDown { rank, mode })
                if self.channel.can_enter_power_down(rank, mode, now) =>
            {
                self.channel.enter_power_down(rank, mode, now);
                match mode {
                    PowerDownMode::SelfRefresh => self.stats.self_refreshes += 1,
                    PowerDownMode::Fast | PowerDownMode::Slow => self.stats.power_downs += 1,
                }
                true
            }
            Some(PowerAction::Precharge { rank, bank }) => {
                let issued = self.try_precharge(rank, bank, now);
                if issued {
                    self.stats.power_precharges += 1;
                }
                issued
            }
            _ => false,
        }
    }

    /// The page and power policies' read-only view of this channel.
    fn view(&self, now: DramCycles) -> PolicyView<'_> {
        PolicyView {
            now,
            channel: &self.channel,
            banks: &self.banks,
        }
    }

    /// Accounts for `cycles` DRAM cycles the kernel has proven eventless for
    /// this channel: the only per-cycle side effect of an eventless tick is
    /// the queue-occupancy sample, applied here in bulk.
    pub(crate) fn skip_cycles(&mut self, cycles: u64) {
        self.stats
            .sample_queues_n(self.read_q.len(), self.write_q.len(), cycles);
        self.stats
            .sample_tenant_reads_n(&self.read_q.tenant_lens(), cycles);
    }

    /// Event-driven tick: runs [`Self::tick`] only if the channel is due at
    /// `now`, storing the next due cycle it reports — for a busy channel
    /// and a drained one alike: a pick that issues nothing bounds when any
    /// candidate it evaluated becomes legal — and otherwise accounts the
    /// cycle as a skip, keeping the queue-occupancy sample counts identical
    /// to ticking every cycle. Returns whether the tick ran.
    pub(crate) fn tick_due(
        &mut self,
        now: DramCycles,
        finished: &mut Vec<CompletedRequest>,
    ) -> bool {
        if self.next_due > now {
            self.skip_cycles(1);
            return false;
        }
        self.next_due = self.tick(now, finished);
        true
    }

    /// This channel's next due cycle after a tick at `now` that issued
    /// nothing (see the next-due contract in `cloudmc-sim`'s `kernel`
    /// module), combined from what the tick already evaluated: `wait`, the
    /// cycle a candidate of the scheduler or the QoS arbiter becomes legal;
    /// the standing page- and power-policy proposals (`page`, `power`)
    /// becoming legal, or with none standing the cycle a policy timer could
    /// flip one; plus the earliest transfer retirement, refresh step,
    /// scheduler time boundary and reliability deadline. Until then, with no
    /// enqueue (which pulls the bound back), every tick would do nothing.
    fn idle_next_due(
        &self,
        now: DramCycles,
        wait: DramCycles,
        page: Option<(usize, usize)>,
        power: Option<PowerAction>,
    ) -> DramCycles {
        let view = self.view(now);
        let mut next = wait.min(self.scheduler.next_due());
        next = next.min(match page {
            Some((rank, bank)) => self.earliest_precharge(rank, bank),
            None => self.policy.next_due(&view),
        });
        next = next.min(match power {
            Some(PowerAction::PowerDown { .. }) => now + 1,
            Some(PowerAction::Precharge { rank, bank }) => self.earliest_precharge(rank, bank),
            None => self.power_policy.next_due(&view),
        });
        // Pending data transfers retire at their completion cycle.
        for inflight in &self.inflight {
            next = next.min(inflight.completion);
        }
        // Refresh: a powered-down rank is woken at its due cycle; an awake
        // one issues the REF at its due cycle once the REF is legal; with
        // rows open, the controller force-precharges them from
        // `refresh_forced_at`. A rank in self-refresh maintains itself and
        // contributes no event. Only the first due rank is served, so the
        // ranks after one due by the next cycle wait for its REF.
        if self.channel.refresh_enabled() {
            for r in 0..self.channel.rank_count() {
                let rank = self.channel.rank(r);
                if rank.in_self_refresh() {
                    continue;
                }
                let due = rank.next_refresh_due();
                next = next.min(if rank.powered_down() {
                    due
                } else if let Some(legal) = self.channel.earliest_legal(&Command::refresh(r)) {
                    due.max(legal)
                } else {
                    self.forced_refresh_bound(r)
                });
                if due <= now + 1 {
                    break;
                }
            }
        }
        // Reliability deadlines: the next patrol-scrub emission and the
        // earliest parked demand retry.
        if let Some(f) = &self.fault {
            next = next.min(f.next_due());
        }
        next.max(now + 1)
    }
}

snap_fields! {
    InFlight {
        saved: { completion, done },
        skipped: {},
    }
}

snap_fields! {
    ChannelController {
        section: "channel",
        saved: {
            channel,
            read_q,
            write_q,
            scheduler,
            policy,
            power_policy,
            qos,
            write_mode,
            inflight,
            conflict_pending: fixed,
            activated_after_conflict: fixed,
            stats,
            fault: fixed,
            next_due,
        },
        skipped: {
            index: "config-derived",
            banks: "derived from the queues and open rows; rebuilt by check_restored",
            work: "host-side work count, not simulated state",
            write_drain_high: "config-derived",
            write_drain_low: "config-derived",
            num_cores: "config-derived",
        },
        after_load: Self::check_restored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The early-exit forced-refresh bound equals the all-banks scan it
    /// replaced (the later of `refresh_forced_at` and the rank's earliest
    /// legal precharge) over random row states and refresh backlogs.
    #[test]
    fn forced_refresh_bound_matches_the_all_banks_scan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x4EF);
        // [no row open, settled by the forced cycle, every row fenced past it]
        let mut cases = [0usize; 3];
        for _ in 0..400 {
            let mut cc = ChannelController::new(0, &McConfig::baseline());
            let t_refi = cc.channel.timing().t_refi;
            let mut now = rng.gen_range(0..3 * t_refi);
            for _ in 0..rng.gen_range(0..24usize) {
                now += rng.gen_range(0..12u64);
                let loc = Location::new(
                    rng.gen_range(0..2usize),
                    rng.gen_range(0..8usize),
                    rng.gen_range(0..3u64),
                    0,
                );
                let cmd = match cc.channel.open_row(loc.rank, loc.bank) {
                    Some(row) if row == loc.row => Command::read(loc, false),
                    Some(_) => Command::precharge(loc),
                    None => Command::activate(loc),
                };
                if cc.channel.can_issue(&cmd, now) {
                    cc.channel.issue(&cmd, now);
                }
            }
            for rank in 0..2 {
                let forced = cc.refresh_forced_at(rank);
                let reference = (0..cc.channel.banks_per_rank())
                    .map(|b| cc.earliest_precharge(rank, b))
                    .min()
                    .map_or(DramCycles::MAX, |pre| forced.max(pre));
                assert_eq!(cc.forced_refresh_bound(rank), reference);
                cases[match reference {
                    DramCycles::MAX => 0,
                    bound if bound == forced => 1,
                    _ => 2,
                }] += 1;
            }
        }
        assert!(
            cases.iter().all(|&n| n > 0),
            "a case never arose: {cases:?}"
        );
    }
}
