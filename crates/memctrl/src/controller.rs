//! The memory controller proper: per-channel command generation combining a
//! scheduling algorithm, a page-management policy, write draining and
//! refresh handling.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use cloudmc_dram::{
    ChannelStats, Command, DramChannel, DramConfig, DramCycles, FaultConfig, FaultLedger,
    FaultModel, IssueOutcome, Location, LogEvent, PowerDownMode, ReadFault, UncorrectablePolicy,
};
use cloudmc_snap::{snap_fields, SnapError, SnapReader};

use crate::bank_table::BankTable;
use crate::mapping::{AddressMapping, DecodedAddress};
use crate::page::{PagePolicy, PagePolicyKind, PolicyView};
use crate::power::{PowerAction, PowerPolicy, PowerPolicyKind};
use crate::qos::{QosArbiter, QosConfig};
use crate::queue::RequestQueue;
use crate::request::{
    AccessKind, CompletedRequest, MemoryRequest, RequestId, RowBufferOutcome, MAX_TENANTS,
};
use crate::sched::{PickWork, SchedContext, SchedDecision, Scheduler, SchedulerKind};
use crate::stats::McStats;

/// Id bit marking controller-generated patrol-scrub reads. Demand request
/// ids are assigned sequentially by the frontend and never reach this range.
pub const SCRUB_ID_BIT: u64 = 1 << 63;

/// Whether a request id denotes a controller-generated patrol-scrub read.
#[must_use]
pub fn is_scrub_id(id: RequestId) -> bool {
    id & SCRUB_ID_BIT != 0
}

/// Configuration of a complete memory controller (all channels).
///
/// Defaults reproduce the paper's baseline (Table 2): FR-FCFS scheduling,
/// open-adaptive page policy, no power management, one channel, `RoRaBaCoCh`
/// address mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McConfig {
    /// DRAM organization and timing.
    pub dram: DramConfig,
    /// Address interleaving scheme.
    pub mapping: AddressMapping,
    /// Memory scheduling algorithm.
    pub scheduler: SchedulerKind,
    /// Page-management policy.
    pub page_policy: PagePolicyKind,
    /// Rank power-management policy.
    pub power_policy: PowerPolicyKind,
    /// Multi-tenant QoS policy and tenant metadata (tenancy disabled by
    /// default; the full-system simulator overwrites the tenant metadata
    /// from the workload mix, see [`QosConfig`]).
    pub qos: QosConfig,
    /// Number of cores sharing the controller. Matters only for a standalone
    /// controller: the full-system simulator overwrites it with the mix's
    /// core count.
    pub num_cores: usize,
    /// Per-channel read queue capacity.
    pub read_queue_capacity: usize,
    /// Per-channel write queue capacity.
    pub write_queue_capacity: usize,
    /// Write-queue occupancy at which the controller switches to write drain.
    pub write_drain_high: usize,
    /// Write-queue occupancy at which the controller resumes serving reads.
    pub write_drain_low: usize,
    /// Optional DRAM reliability model: seeded fault injection, SEC-DED ECC
    /// accounting, demand retries, patrol scrub and row retirement. `None`
    /// (the default) leaves the controller's behavior and statistics
    /// bit-identical to a controller built without the subsystem.
    pub fault_model: Option<FaultConfig>,
}

impl McConfig {
    /// Largest read or write queue capacity that validates. Each queue is
    /// allocated at its capacity when the controller is built, so the
    /// capacity must be bounded before anything is sized from it.
    pub const MAX_QUEUE_CAPACITY: usize = 4096;

    /// The paper's baseline configuration.
    #[must_use]
    pub fn baseline() -> Self {
        Self {
            dram: DramConfig::baseline(),
            mapping: AddressMapping::RoRaBaCoCh,
            scheduler: SchedulerKind::FrFcfs,
            page_policy: PagePolicyKind::OpenAdaptive,
            power_policy: PowerPolicyKind::None,
            qos: QosConfig::none(),
            num_cores: 16,
            read_queue_capacity: 64,
            write_queue_capacity: 64,
            write_drain_high: 32,
            write_drain_low: 8,
            fault_model: None,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        self.dram.validate()?;
        self.qos.validate()?;
        self.scheduler.validate()?;
        if self.num_cores == 0 {
            return Err("num_cores must be non-zero".to_owned());
        }
        if self.read_queue_capacity == 0 || self.write_queue_capacity == 0 {
            return Err("queue capacities must be non-zero".to_owned());
        }
        for (name, capacity) in [
            ("read_queue_capacity", self.read_queue_capacity),
            ("write_queue_capacity", self.write_queue_capacity),
        ] {
            if capacity > Self::MAX_QUEUE_CAPACITY {
                return Err(format!(
                    "{name} ({capacity}) exceeds {}",
                    Self::MAX_QUEUE_CAPACITY
                ));
            }
        }
        if self.write_drain_low >= self.write_drain_high {
            return Err(format!(
                "write_drain_low ({}) must be below write_drain_high ({})",
                self.write_drain_low, self.write_drain_high
            ));
        }
        if self.write_drain_high > self.write_queue_capacity {
            return Err(format!(
                "write_drain_high ({}) must not exceed write_queue_capacity ({})",
                self.write_drain_high, self.write_queue_capacity
            ));
        }
        if let Some(fault) = &self.fault_model {
            fault.validate(self.dram.banks_per_rank, self.dram.rows_per_bank)?;
        }
        Ok(())
    }
}

impl Default for McConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

/// A request whose column access has issued and whose data completes at a
/// known cycle.
#[derive(Debug, Clone, Copy, Default)]
struct InFlight {
    completion: DramCycles,
    done: CompletedRequest,
}

/// Per-channel reliability state: the device fault model plus the
/// controller-side ECC machinery (demand retries, patrol scrub, row
/// retirement, line poisoning).
///
/// All bookkeeping uses ordered collections and closed-form decisions so the
/// subsystem is bit-identical under fast-forward and for any worker-thread
/// count.
#[derive(Debug)]
struct FaultState {
    cfg: FaultConfig,
    model: FaultModel,
    /// DRAM geometry for the patrol cursor.
    ranks: usize,
    banks_per_rank: usize,
    rows_per_bank: u64,
    /// Corrected demand reads parked for a bounded-backoff retry:
    /// due cycle -> FIFO of (request, location, next attempt number).
    retry_pending: BTreeMap<DramCycles, VecDeque<(MemoryRequest, Location, u32)>>,
    retry_len: usize,
    /// Attempt number for demand reads currently re-enqueued as retries.
    attempts: BTreeMap<RequestId, u32>,
    /// Next cycle at which the patrol scrubber wants to emit a read
    /// (`DramCycles::MAX` when scrubbing is disabled).
    next_scrub_at: DramCycles,
    /// Patrol position: next (rank, bank, row) granule to scrub.
    scrub_cursor: (usize, usize, u64),
    scrub_seq: u64,
    /// Scrub reads currently occupying the read queue or in flight; excluded
    /// from demand `pending()` accounting.
    scrub_live: usize,
    /// Detected error counts per row, feeding repeat-offender retirement.
    row_errors: BTreeMap<(usize, usize, u64), u32>,
    /// Retired rows: the remap table. Reads to retired rows are served from
    /// the healthy spare, so they never fault again.
    retired: BTreeSet<(usize, usize, u64)>,
    rows_retired_per_rank: Vec<u64>,
    /// Poisoned lines (rank, bank, row, column) under poison-and-continue.
    poisoned: BTreeSet<(usize, usize, u64, u64)>,
    /// First uncorrectable error seen under fail-stop; surfaced by the
    /// simulator as a typed error once the run finishes — never a panic.
    error: Option<String>,
}

impl FaultState {
    fn new(mut cfg: FaultConfig, channel: usize, dram: &DramConfig) -> Self {
        // Decorrelate the channels: with a shared seed every channel would
        // plant stuck/hard rows at identical coordinates and flip the same
        // transient bits, which is not how independent DIMMs fail. The
        // offset is a pure function of the channel index, so runs stay
        // deterministic.
        cfg.seed = cfg
            .seed
            .wrapping_add((channel as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let model = FaultModel::new(
            cfg,
            dram.ranks_per_channel,
            dram.banks_per_rank,
            dram.rows_per_bank,
        );
        Self {
            cfg,
            model,
            ranks: dram.ranks_per_channel,
            banks_per_rank: dram.banks_per_rank,
            rows_per_bank: dram.rows_per_bank,
            retry_pending: BTreeMap::new(),
            retry_len: 0,
            attempts: BTreeMap::new(),
            next_scrub_at: if cfg.scrub_interval > 0 {
                cfg.scrub_interval
            } else {
                DramCycles::MAX
            },
            scrub_cursor: (0, 0, 0),
            scrub_seq: 0,
            scrub_live: 0,
            row_errors: BTreeMap::new(),
            retired: BTreeSet::new(),
            rows_retired_per_rank: vec![0; dram.ranks_per_channel],
            poisoned: BTreeSet::new(),
            error: None,
        }
    }

    /// Advances the patrol cursor one row granule, wrapping row -> bank ->
    /// rank.
    fn advance_scrub_cursor(&mut self) {
        let (rank, bank, row) = self.scrub_cursor;
        self.scrub_cursor = if row + 1 < self.rows_per_bank {
            (rank, bank, row + 1)
        } else if bank + 1 < self.banks_per_rank {
            (rank, bank + 1, 0)
        } else {
            ((rank + 1) % self.ranks, 0, 0)
        };
    }

    /// Records a detected error on a row and retires it once it crosses the
    /// repeat-offender threshold. Returns `true` if the row was retired now.
    fn note_row_error(&mut self, rank: usize, bank: usize, row: u64) -> bool {
        let key = (rank, bank, row);
        if self.retired.contains(&key) {
            return false;
        }
        let count = self.row_errors.entry(key).or_insert(0);
        *count += 1;
        if *count >= self.cfg.retire_threshold {
            self.row_errors.remove(&key);
            self.retired.insert(key);
            self.rows_retired_per_rank[rank] += 1;
            return true;
        }
        false
    }

    /// Recomputes the parked-retry count from the restored buckets and
    /// rejects a patrol cursor outside the geometry.
    fn finish_restore(&mut self, r: &SnapReader<'_>) -> Result<(), SnapError> {
        self.retry_len = self.retry_pending.values().map(VecDeque::len).sum();
        let (rank, bank, row) = self.scrub_cursor;
        if rank >= self.ranks || bank >= self.banks_per_rank || row >= self.rows_per_bank {
            return Err(r.bad_value(format!(
                "scrub cursor ({rank}, {bank}, {row}) outside geometry \
                 ({} ranks, {} banks, {} rows)",
                self.ranks, self.banks_per_rank, self.rows_per_bank
            )));
        }
        Ok(())
    }

    /// Classifies a read against the fault model, honoring the remap table:
    /// retired rows are served from healthy spares and never fault.
    fn classify(
        &mut self,
        id: RequestId,
        attempt: u32,
        loc: &Location,
        residency: &cloudmc_dram::PowerResidency,
    ) -> ReadFault {
        if self.retired.contains(&(loc.rank, loc.bank, loc.row)) {
            return ReadFault::None;
        }
        self.model
            .classify_read(id, attempt, loc.rank, loc.bank, loc.row, residency)
    }
}

/// Controller state for one memory channel.
#[derive(Debug)]
struct ChannelController {
    index: usize,
    channel: DramChannel,
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
    stats: McStats,
    write_drain_high: usize,
    write_drain_low: usize,
    num_cores: usize,
    /// Reliability subsystem; `None` keeps the controller bit-identical to a
    /// build without it (no extra work on any hot path).
    fault: Option<Box<FaultState>>,
    /// Per-bank demand of both queues against the open rows, kept by
    /// [`Self::enqueue`], [`Self::execute`] and [`Self::issue`].
    banks: BankTable,
    /// What this channel's picks read and checked, summed over its ticks.
    work: PickWork,
    /// This channel's cached next-due cycle (the contract is stated in
    /// `cloudmc-sim`'s `kernel` module): [`Self::tick_due`] stores the one
    /// each [`Self::tick`] reports and [`Self::enqueue`] pulls it back
    /// to the arrival cycle. The every-channel [`MemoryController::tick`]
    /// neither reads nor refreshes it, so one controller is driven by one of
    /// the two for life.
    next_due: DramCycles,
}

impl ChannelController {
    fn new(index: usize, cfg: &McConfig) -> Self {
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

    fn can_accept(&self, kind: AccessKind) -> bool {
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
        let parked = self.fault.iter().flat_map(|f| {
            f.retry_pending
                .values()
                .flatten()
                .map(|(request, location, _)| (request, location))
        });
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
        let scrub_live = self.fault.as_ref().map_or(0, |f| f.scrub_live);
        if scrubs != scrub_live {
            return Err(r.bad_value(format!(
                "{scrub_live} live scrub reads recorded, {scrubs} queued or in flight"
            )));
        }
        self.banks = BankTable::scan(&self.channel, &self.read_q, &self.write_q);
        Ok(())
    }

    /// Demand requests queued, in flight or parked for retry. Patrol-scrub
    /// reads physically occupy the queues but are controller-generated, so
    /// they are excluded here: the frontend must not stall its exit condition
    /// on background scrub traffic.
    fn pending(&self) -> usize {
        let base = self.read_q.len() + self.write_q.len() + self.inflight.len();
        match &self.fault {
            Some(f) => base + f.retry_len - f.scrub_live,
            None => base,
        }
    }

    /// Pending demand requests (queued, in flight or parked for retry) per
    /// tenant. Scrub reads carry tenant 0 but are not demand traffic.
    fn pending_per_tenant(&self) -> [u64; MAX_TENANTS] {
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
            out[0] -= f.scrub_live as u64;
            for bucket in f.retry_pending.values() {
                for (request, _, _) in bucket {
                    out[request.tenant.min(MAX_TENANTS - 1)] += 1;
                }
            }
        }
        out
    }

    fn enqueue(
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
                    cloudmc_dram::CommandKind::Activate => {
                        self.issue(&decision.command, now);
                        self.policy.on_activate(loc.rank, loc.bank, loc.row, now);
                        self.activated_after_conflict[flat] = self.conflict_pending[flat];
                        self.conflict_pending[flat] = false;
                    }
                    cloudmc_dram::CommandKind::Precharge => {
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
    fn tick(&mut self, now: DramCycles, finished: &mut Vec<CompletedRequest>) -> DramCycles {
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
        // 0. Reliability pre-work (no-op unless a fault model is configured):
        // release demand retries whose backoff elapsed and emit patrol-scrub
        // reads into the ordinary queues.
        if self.fault.is_some() {
            self.fault_pre_tick(now);
        }

        // 1. Retire completed transfers.
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].completion <= now {
                let inflight = self.inflight.swap_remove(i);
                if self.fault.is_some() {
                    self.retire_with_ecc(inflight, now, finished);
                } else {
                    self.stats.record_completion(&inflight.done);
                    self.scheduler.on_complete(&inflight.done);
                    finished.push(inflight.done);
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

    /// Reliability work at the head of a cycle: re-enqueue demand retries
    /// whose backoff elapsed and emit the next patrol-scrub read when the
    /// scrub interval has elapsed.
    ///
    /// Both paths go through the ordinary [`Self::enqueue`]: retries and
    /// scrub reads occupy real queue slots, wake powered-down ranks, and
    /// contend with demand traffic in the scheduler and the QoS arbiter.
    fn fault_pre_tick(&mut self, now: DramCycles) {
        // Release due retries, oldest deadline first, while the read queue
        // has room. A retried request keeps its original arrival cycle, so
        // its observed latency includes every retry round trip.
        loop {
            if self.read_q.is_full() {
                break;
            }
            let Some(f) = self.fault.as_deref_mut() else {
                break;
            };
            let Some((&due, _)) = f.retry_pending.iter().next() else {
                break;
            };
            if due > now {
                break;
            }
            let mut bucket = f.retry_pending.remove(&due).unwrap_or_default();
            let Some((request, location, attempt)) = bucket.pop_front() else {
                continue;
            };
            if !bucket.is_empty() {
                f.retry_pending.insert(due, bucket);
            }
            f.retry_len -= 1;
            f.attempts.insert(request.id, attempt);
            // Queue room was checked above; `enqueue` only fails when full.
            let _ = self.enqueue(request, location, now);
        }
        // Emit the next patrol-scrub read. If the read queue is full the
        // emission stays due and is retried next cycle — deterministically,
        // since `next_scrub_at` only advances on success.
        let scrub = match self.fault.as_deref_mut() {
            Some(f) if now >= f.next_scrub_at && !self.read_q.is_full() => {
                let (rank, bank, row) = f.scrub_cursor;
                let location = Location::new(rank, bank, row, 0);
                // Scrub reads never leave their channel, so its own patrol
                // sequence is all the id has to distinguish.
                let id = SCRUB_ID_BIT | f.scrub_seq;
                let request = MemoryRequest::new(id, AccessKind::Read, 0, 0, now);
                f.scrub_seq += 1;
                f.scrub_live += 1;
                f.advance_scrub_cursor();
                f.next_scrub_at = f.next_scrub_at.saturating_add(f.cfg.scrub_interval);
                Some((request, location))
            }
            _ => None,
        };
        if let Some((request, location)) = scrub {
            self.stats.scrub_reads_issued += 1;
            // Room was checked while deciding to emit.
            let _ = self.enqueue(request, location, now);
        }
    }

    /// Retires one completed transfer through the ECC layer: classifies
    /// reads against the fault model, schedules demand retries for corrected
    /// glitches, feeds repeat-offender retirement, and applies the
    /// uncorrectable-error policy (fail-stop latches a typed error; poison
    /// marks the line). Scrub completions are consumed internally.
    fn retire_with_ecc(
        &mut self,
        inflight: InFlight,
        now: DramCycles,
        finished: &mut Vec<CompletedRequest>,
    ) {
        let mut done = inflight.done;
        let req = done.request;
        let loc = done.location;
        let Some(f) = self.fault.as_deref_mut() else {
            // Unreachable by construction (the caller checked); complete
            // normally rather than panic.
            self.stats.record_completion(&done);
            self.scheduler.on_complete(&done);
            finished.push(done);
            return;
        };
        // Every service completion — demand, scrub, or a read about to be
        // retried — feeds the scheduler's bookkeeping: exactly one
        // on_complete per service.
        self.scheduler.on_complete(&done);
        if is_scrub_id(req.id) {
            f.scrub_live -= 1;
            self.stats.scrub_reads_completed += 1;
            let residency = self.channel.rank(loc.rank).residency_at(now);
            match f.classify(req.id, 0, &loc, &residency) {
                ReadFault::None => {}
                ReadFault::Corrected => {
                    self.stats.scrub_corrected += 1;
                    if f.note_row_error(loc.rank, loc.bank, loc.row) {
                        self.stats.rows_retired += 1;
                    }
                }
                ReadFault::Uncorrectable { miscorrected: true } => {
                    // Aliased to a valid codeword: the scrubber sees clean
                    // data and learns nothing.
                    self.stats.ecc_miscorrects += 1;
                }
                ReadFault::Uncorrectable {
                    miscorrected: false,
                } => {
                    self.stats.scrub_uncorrectable += 1;
                    if f.note_row_error(loc.rank, loc.bank, loc.row) {
                        self.stats.rows_retired += 1;
                    }
                    match f.cfg.on_uncorrectable {
                        UncorrectablePolicy::FailStop => {
                            f.error.get_or_insert_with(|| {
                                format!(
                                    "uncorrectable memory error found by patrol scrub: \
                                     channel {} rank {} bank {} row {} (cycle {now})",
                                    done.channel, loc.rank, loc.bank, loc.row
                                )
                            });
                        }
                        UncorrectablePolicy::PoisonAndContinue => {
                            if f.poisoned.insert((loc.rank, loc.bank, loc.row, loc.column)) {
                                self.stats.lines_poisoned += 1;
                            }
                        }
                    }
                }
            }
            // Scrub completions never reach the frontend: they are not
            // pushed to `finished` and stay out of the demand statistics.
            return;
        }
        if req.kind == AccessKind::Write {
            // A write lands fresh, ECC-clean data, clearing any poison.
            f.poisoned
                .remove(&(loc.rank, loc.bank, loc.row, loc.column));
            self.stats.record_completion(&done);
            finished.push(done);
            return;
        }
        // Demand read: check poison, then classify against the fault model.
        let attempt = f.attempts.get(&req.id).copied().unwrap_or(0);
        // Tag the completion with the retries that preceded it, for span
        // traces and any other lifecycle consumer downstream.
        done.retries = attempt;
        if f.poisoned
            .contains(&(loc.rank, loc.bank, loc.row, loc.column))
        {
            // The line carries a poison marker from an earlier uncorrectable
            // error; the read completes and the consumption is accounted.
            self.stats.poisoned_reads += 1;
            f.attempts.remove(&req.id);
            self.stats.record_completion(&done);
            finished.push(done);
            return;
        }
        let residency = self.channel.rank(loc.rank).residency_at(now);
        match f.classify(req.id, attempt, &loc, &residency) {
            ReadFault::None => {
                f.attempts.remove(&req.id);
                self.stats.record_completion(&done);
                finished.push(done);
            }
            ReadFault::Corrected => {
                self.stats.ecc_corrected += 1;
                if f.note_row_error(loc.rank, loc.bank, loc.row) {
                    self.stats.rows_retired += 1;
                }
                if attempt < f.cfg.max_demand_retries {
                    // Park the request for a bounded-backoff re-read. The
                    // backoff doubles per attempt; the request is NOT
                    // completed until a retry returns (or retries exhaust).
                    self.stats.demand_retries += 1;
                    let backoff = f
                        .cfg
                        .retry_backoff
                        .checked_shl(attempt)
                        .unwrap_or(DramCycles::MAX);
                    let due = now.saturating_add(backoff.max(1));
                    f.retry_pending
                        .entry(due)
                        .or_default()
                        .push_back((req, loc, attempt + 1));
                    f.retry_len += 1;
                    f.attempts.remove(&req.id);
                } else {
                    // Retries exhausted: accept the corrected data.
                    f.attempts.remove(&req.id);
                    self.stats.record_completion(&done);
                    finished.push(done);
                }
            }
            ReadFault::Uncorrectable { miscorrected: true } => {
                // ECC silently "corrected" to the wrong word: undetected, so
                // the request completes normally and no retirement evidence
                // accrues — only the counter (and the model's ledger) know.
                self.stats.ecc_miscorrects += 1;
                f.attempts.remove(&req.id);
                self.stats.record_completion(&done);
                finished.push(done);
            }
            ReadFault::Uncorrectable {
                miscorrected: false,
            } => {
                self.stats.ecc_detected_uncorrectable += 1;
                if f.note_row_error(loc.rank, loc.bank, loc.row) {
                    self.stats.rows_retired += 1;
                }
                match f.cfg.on_uncorrectable {
                    UncorrectablePolicy::FailStop => {
                        f.error.get_or_insert_with(|| {
                            format!(
                                "uncorrectable memory error: channel {} rank {} bank {} \
                                 row {} (request {}, cycle {now})",
                                done.channel, loc.rank, loc.bank, loc.row, req.id
                            )
                        });
                    }
                    UncorrectablePolicy::PoisonAndContinue => {
                        if f.poisoned.insert((loc.rank, loc.bank, loc.row, loc.column)) {
                            self.stats.lines_poisoned += 1;
                        }
                    }
                }
                // The request still completes under both policies (fail-stop
                // surfaces the latched error when the run finishes), so
                // request conservation holds.
                f.attempts.remove(&req.id);
                self.stats.record_completion(&done);
                finished.push(done);
            }
        }
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
    fn skip_cycles(&mut self, cycles: u64) {
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
    fn tick_due(&mut self, now: DramCycles, finished: &mut Vec<CompletedRequest>) -> bool {
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
            if f.cfg.scrub_interval > 0 {
                next = next.min(f.next_scrub_at);
            }
            if let Some((&due, _)) = f.retry_pending.iter().next() {
                next = next.min(due);
            }
        }
        next.max(now + 1)
    }
}

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
        for channel in &self.channels {
            if let Some(f) = &channel.fault {
                total.merge(&f.model.ledger());
            }
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
            .find_map(|c| c.fault.as_ref().and_then(|f| f.error.as_deref()))
    }

    /// Rows retired per rank, flattened channel-major (channel 0 rank 0,
    /// channel 0 rank 1, ..., channel 1 rank 0, ...). All zeros when no
    /// fault model is configured.
    #[must_use]
    pub fn rows_retired_per_rank(&self) -> Vec<u64> {
        let ranks = self.cfg.dram.ranks_per_channel;
        let mut out = Vec::with_capacity(self.channels.len() * ranks);
        for channel in &self.channels {
            match &channel.fault {
                Some(f) => out.extend_from_slice(&f.rows_retired_per_rank),
                None => out.extend(std::iter::repeat_n(0, ranks)),
            }
        }
        out
    }
}

snap_fields! {
    InFlight {
        saved: { completion, done },
        skipped: {},
    }
}

snap_fields! {
    FaultState {
        section: "fault-state",
        saved: {
            model,
            retry_pending,
            attempts,
            next_scrub_at,
            scrub_cursor,
            scrub_seq,
            scrub_live,
            row_errors,
            retired,
            rows_retired_per_rank: fixed,
            poisoned,
            error,
        },
        skipped: {
            cfg: "config-derived",
            ranks: "config-derived",
            banks_per_rank: "config-derived",
            rows_per_bank: "config-derived",
            retry_len: "derived: sum of retry_pending bucket lengths; rebuilt by finish_restore",
        },
        after_load: Self::finish_restore,
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
    use crate::page::PagePolicyKind;
    use crate::sched::SchedulerKind;

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

    fn drain(mc: &mut MemoryController, cycles: u64) -> Vec<CompletedRequest> {
        let mut done = Vec::new();
        for c in 0..cycles {
            mc.tick(c, &mut done);
        }
        done
    }

    #[test]
    fn config_validation_catches_bad_watermarks() {
        let mut cfg = McConfig::baseline();
        cfg.write_drain_low = cfg.write_drain_high;
        assert!(cfg.validate().is_err());
        cfg = McConfig::baseline();
        cfg.write_drain_high = cfg.write_queue_capacity + 1;
        assert!(cfg.validate().is_err());
        cfg = McConfig::baseline();
        cfg.num_cores = 0;
        assert!(MemoryController::new(cfg).is_err());
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
