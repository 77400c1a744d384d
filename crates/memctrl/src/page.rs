//! DRAM page (row-buffer) management policies.
//!
//! The policy decides how long an activated row stays open. The controller
//! consults it at two points:
//!
//! 1. right before issuing a column command, to decide whether to use the
//!    auto-precharge variant ([`PagePolicy::auto_precharge`]); and
//! 2. on idle cycles, to propose proactively closing an open bank
//!    ([`PagePolicy::propose_precharge`]).
//!
//! [`PagePolicy`] has one variant per policy (Section 2.2 of the paper):
//! open ([`PagePolicy::Open`]), close ([`PagePolicy::Close`]), open-adaptive
//! ([`PagePolicy::OpenAdaptive`], the baseline), close-adaptive
//! ([`PagePolicy::CloseAdaptive`]), RBPP ([`PagePolicy::Rbpp`]), ABPP
//! ([`PagePolicy::Abpp`]) and a per-bank idle-timer policy
//! ([`PagePolicy::Timer`], an extension).

use cloudmc_dram::{DramChannel, DramCycles, Location};
use cloudmc_snap::{snap_fields, Snap, SnapError, SnapReader, SnapWriter};

use crate::bank_table::BankTable;
use crate::queue::key_row;

/// Read-only view of controller state handed to page policies.
#[derive(Debug)]
pub struct PolicyView<'a> {
    /// Current DRAM cycle.
    pub now: DramCycles,
    /// The channel's device state (bank open rows, timing readiness).
    pub channel: &'a DramChannel,
    /// The channel's per-bank demand: what its read and write queues want
    /// of each bank.
    pub banks: &'a BankTable,
}

impl PolicyView<'_> {
    /// The bit of (`rank`, `bank`) in the table's masks.
    fn bit(&self, rank: usize, bank: usize) -> u64 {
        1 << (rank * self.banks.banks_per_rank() + bank)
    }

    /// Whether any pending request (read or write) targets the row open in
    /// (`rank`, `bank`); `false` while the bank is closed.
    #[must_use]
    pub fn pending_hit(&self, rank: usize, bank: usize) -> bool {
        self.banks.hits_any() & self.bit(rank, bank) != 0
    }

    /// Whether any pending request targets another row than the one open in
    /// (`rank`, `bank`); `false` while the bank is closed.
    #[must_use]
    pub fn pending_other_row(&self, rank: usize, bank: usize) -> bool {
        self.banks.conflicts_any() & self.bit(rank, bank) != 0
    }

    /// Whether any pending request (read or write) targets rank `rank`.
    #[must_use]
    pub fn pending_for_rank(&self, rank: usize) -> bool {
        self.banks.pending_any() & self.banks.rank_mask(rank) != 0
    }

    /// Iterates over all open banks as (rank, bank, open row) triples, in
    /// rank-major order.
    pub fn open_banks(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        let d = self.bank_demand();
        d.banks(d.open).map(move |(r, b)| {
            let flat = r * d.banks_per_rank + b;
            (r, b, key_row(self.banks.open_key(flat)))
        })
    }

    /// The per-bank demand summary: three masks of the table.
    #[must_use]
    pub fn bank_demand(&self) -> BankDemand {
        BankDemand {
            open: self.banks.open(),
            hit: self.banks.hits_any(),
            other: self.banks.conflicts_any(),
            banks_per_rank: self.banks.banks_per_rank(),
        }
    }
}

/// Per-bank demand bitmasks (bit index = `rank * banks_per_rank + bank`),
/// read from the channel's [`BankTable`] by [`PolicyView::bank_demand`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BankDemand {
    /// Banks with an open row.
    pub open: u64,
    /// Open banks some pending request hits (targets the open row).
    pub hit: u64,
    /// Open banks some pending request conflicts with (targets another row).
    pub other: u64,
    /// Geometry for decoding flat indices back to (rank, bank).
    banks_per_rank: usize,
}

impl BankDemand {
    /// Decodes the lowest set bit of `mask` into `(rank, bank)` — the first
    /// matching bank in the rank-major order [`PolicyView::open_banks`]
    /// yields, preserving each policy's tie-break.
    #[must_use]
    pub fn first(&self, mask: u64) -> Option<(usize, usize)> {
        if mask == 0 {
            return None;
        }
        let flat = mask.trailing_zeros() as usize;
        Some((flat / self.banks_per_rank, flat % self.banks_per_rank))
    }

    /// Iterates the set bits of `mask` as `(rank, bank)` in rank-major
    /// (ascending flat) order.
    pub fn banks(self, mask: u64) -> impl Iterator<Item = (usize, usize)> {
        let banks = self.banks_per_rank;
        std::iter::successors((mask != 0).then_some(mask), |m| {
            let rest = m & (m - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |m| {
            let flat = m.trailing_zeros() as usize;
            (flat / banks, flat % banks)
        })
    }
}

/// A row-buffer management policy: one variant per policy, each method a
/// `match` over them.
///
/// The controller consults it on every column command (auto-precharge), on
/// every no-issue tick (precharge proposals) and during horizon walks
/// (next-due), so every method compiles to a jump table over inlined bodies
/// rather than virtual calls.
#[derive(Debug)]
pub enum PagePolicy {
    /// Open page: rows stay open until a conflicting access forces closure.
    Open,
    /// Close page: every column access auto-precharges its row.
    Close,
    /// Open-adaptive (`OAPM`): close a row only when no pending request
    /// would hit it *and* some pending request needs another row of the
    /// bank.
    OpenAdaptive,
    /// Close-adaptive (`CAPM`): close a row as soon as no pending request
    /// would hit it, regardless of whether another row is wanted.
    CloseAdaptive,
    /// Row-Based Page Policy (RBPP): a few most-accessed-row registers per
    /// bank, recording only rows that received at least one hit.
    Rbpp(HistoryPredictor),
    /// Access-Based Page Policy (ABPP): a per-bank table of recently
    /// activated rows and the hit count they received last time.
    Abpp(HistoryPredictor),
    /// Idle timer: close a row after it has been idle for a fixed number of
    /// DRAM cycles.
    Timer(TimerPolicy),
}

impl PagePolicy {
    /// Whether the column access about to issue at `loc` (a row open in
    /// its bank) should use the auto-precharge command variant (closing the
    /// row right after the access).
    #[inline]
    #[must_use]
    pub fn auto_precharge(&self, view: &PolicyView<'_>, loc: &Location) -> bool {
        debug_assert_eq!(view.channel.open_row(loc.rank, loc.bank), Some(loc.row));
        match self {
            Self::Open | Self::Timer(_) => false,
            Self::Close => true,
            Self::OpenAdaptive => {
                !view.pending_hit(loc.rank, loc.bank) && view.pending_other_row(loc.rank, loc.bank)
            }
            Self::CloseAdaptive => !view.pending_hit(loc.rank, loc.bank),
            // Never close while more hits are queued; close once the
            // prediction for this activation is satisfied.
            Self::Rbpp(p) | Self::Abpp(p) => {
                !view.pending_hit(loc.rank, loc.bank) && p.prediction_met(loc.rank, loc.bank, true)
            }
        }
    }

    /// Proposes an open bank to precharge proactively, as `(rank, bank)`.
    ///
    /// Only called on cycles where the scheduler has nothing better to issue;
    /// returning `None` keeps all rows open. Takes `&self`: proposals must be
    /// pure functions of the view, because the simulation kernel also
    /// consults them when computing the event horizon it may fast-forward to
    /// (any hidden mutation would make skipped idle cycles observable).
    #[inline]
    #[must_use]
    pub fn propose_precharge(&self, view: &PolicyView<'_>) -> Option<(usize, usize)> {
        match self {
            Self::Open => None,
            // Any row left open (e.g. activated but its request was
            // cancelled) is closed as soon as possible.
            Self::Close => view.open_banks().map(|(r, b, _)| (r, b)).next(),
            Self::OpenAdaptive => {
                let d = view.bank_demand();
                d.first(d.open & !d.hit & d.other)
            }
            Self::CloseAdaptive => {
                let d = view.bank_demand();
                d.first(d.open & !d.hit)
            }
            Self::Rbpp(p) | Self::Abpp(p) => {
                let d = view.bank_demand();
                d.banks(d.open & !d.hit)
                    .find(|&(r, b)| p.prediction_met(r, b, false))
            }
            Self::Timer(p) => p.propose_precharge(view),
        }
    }

    /// Earliest cycle at which [`PagePolicy::propose_precharge`] could start
    /// returning `Some`, assuming the device state and the pending queues
    /// stay exactly as in `view`, under the next-due contract stated in
    /// `cloudmc-sim`'s `kernel` module. Only consulted while
    /// `propose_precharge` returns `None`.
    ///
    /// `u64::MAX` fits every policy whose proposal depends only on the
    /// queues and the open rows, which do not change while the kernel skips
    /// idle cycles. A policy whose proposal depends on *time* (like
    /// [`TimerPolicy`]) must return the cycle its answer flips.
    #[inline]
    #[must_use]
    pub fn next_due(&self, view: &PolicyView<'_>) -> DramCycles {
        match self {
            Self::Timer(p) => p.next_due(view),
            _ => DramCycles::MAX,
        }
    }

    /// Called when a row is activated.
    #[inline]
    pub fn on_activate(&mut self, rank: usize, bank: usize, row: u64, now: DramCycles) {
        match self {
            Self::Rbpp(p) | Self::Abpp(p) => p.on_activate(rank, bank, row),
            Self::Timer(p) => p.touch(rank, bank, now),
            _ => {}
        }
    }

    /// Called when a column access is issued to an open row.
    #[inline]
    pub fn on_column_access(&mut self, rank: usize, bank: usize, row: u64, now: DramCycles) {
        match self {
            Self::Rbpp(p) | Self::Abpp(p) => p.on_column_access(rank, bank, row),
            Self::Timer(p) => p.touch(rank, bank, now),
            _ => {}
        }
    }

    /// Called when a row is closed after having served `accesses` column accesses.
    #[inline]
    pub fn on_row_closed(&mut self, rank: usize, bank: usize, row: u64, accesses: u64) {
        if let Self::Rbpp(p) | Self::Abpp(p) = self {
            p.on_row_closed(rank, bank, row, accesses);
        }
    }
}

impl Snap for PagePolicy {
    const MIN_BYTES: usize = 0;

    fn save(&self, w: &mut SnapWriter) {
        match self {
            Self::Open | Self::Close | Self::OpenAdaptive | Self::CloseAdaptive => {}
            Self::Rbpp(p) | Self::Abpp(p) => p.save(w),
            Self::Timer(p) => p.save(w),
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        match self {
            Self::Open | Self::Close | Self::OpenAdaptive | Self::CloseAdaptive => Ok(()),
            Self::Rbpp(p) | Self::Abpp(p) => p.load(r),
            Self::Timer(p) => p.load(r),
        }
    }
}

/// Identifier for constructing page policies by name (used by the experiment
/// harness to sweep policies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PagePolicyKind {
    /// Keep rows open until a conflict forces closure.
    Open,
    /// Close a row immediately after every access.
    Close,
    /// Open-adaptive (the paper's baseline, `OAPM`).
    OpenAdaptive,
    /// Close-adaptive (`CAPM`).
    CloseAdaptive,
    /// Row-Based Page Policy (Shen et al.).
    Rbpp,
    /// Access-Based Page Policy (Awasthi et al.).
    Abpp,
    /// Fixed per-bank idle timer (extension; not in the paper's comparison).
    Timer,
}

impl PagePolicyKind {
    /// The four policies compared in Figures 9–11.
    #[must_use]
    pub fn paper_set() -> [Self; 4] {
        [
            Self::OpenAdaptive,
            Self::CloseAdaptive,
            Self::Rbpp,
            Self::Abpp,
        ]
    }

    /// Every implemented policy, in sweep order.
    #[must_use]
    pub fn all() -> [Self; 7] {
        [
            Self::Open,
            Self::Close,
            Self::OpenAdaptive,
            Self::CloseAdaptive,
            Self::Rbpp,
            Self::Abpp,
            Self::Timer,
        ]
    }

    /// Instantiates the policy the controller holds.
    #[must_use]
    pub fn build(self, ranks: usize, banks: usize) -> PagePolicy {
        match self {
            Self::Open => PagePolicy::Open,
            Self::Close => PagePolicy::Close,
            Self::OpenAdaptive => PagePolicy::OpenAdaptive,
            Self::CloseAdaptive => PagePolicy::CloseAdaptive,
            Self::Rbpp => PagePolicy::Rbpp(HistoryPredictor::new(ranks, banks, 4, true)),
            Self::Abpp => PagePolicy::Abpp(HistoryPredictor::new(ranks, banks, 16, false)),
            Self::Timer => PagePolicy::Timer(TimerPolicy::new(ranks, banks, 100)),
        }
    }
}

impl std::fmt::Display for PagePolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Self::Open => "open",
            Self::Close => "close",
            Self::OpenAdaptive => "open-adaptive",
            Self::CloseAdaptive => "close-adaptive",
            Self::Rbpp => "rbpp",
            Self::Abpp => "abpp",
            Self::Timer => "timer",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for PagePolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "open" => Ok(Self::Open),
            "close" => Ok(Self::Close),
            "open-adaptive" | "oapm" => Ok(Self::OpenAdaptive),
            "close-adaptive" | "capm" => Ok(Self::CloseAdaptive),
            "rbpp" => Ok(Self::Rbpp),
            "abpp" => Ok(Self::Abpp),
            "timer" => Ok(Self::Timer),
            other => Err(format!("unknown page policy `{other}`")),
        }
    }
}

/// One predictor entry: a row and the number of hits it received during its
/// previous activation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RowHistory {
    row: u64,
    hits: u64,
    /// Monotonic stamp for LRU replacement.
    stamp: u64,
}

/// Per-bank tracking of the current activation used by the predictive policies.
#[derive(Debug, Clone, Copy, Default)]
struct CurrentActivation {
    row: u64,
    open: bool,
    accesses: u64,
    /// Predicted total accesses (1 + predicted hits), if a prediction exists.
    predicted: Option<u64>,
}

/// The state of the two history-based predictive policies,
/// [`PagePolicy::Rbpp`] and [`PagePolicy::Abpp`].
///
/// Both RBPP and ABPP predict that a row will receive the same number of
/// row-buffer hits as during its previous activation and close it once that
/// many accesses have been served. They differ in what they record: RBPP
/// keeps a few most-accessed-row registers per bank and only records rows
/// that received at least one hit; ABPP keeps a larger per-bank table and
/// records every row. Rows without a prediction stay open until a conflict.
#[derive(Debug, Clone)]
pub struct HistoryPredictor {
    banks_per_rank: usize,
    entries_per_bank: usize,
    /// `true` for RBPP: only rows with >= 1 hit are recorded.
    record_only_hit_rows: bool,
    tables: Vec<Vec<RowHistory>>,
    current: Vec<CurrentActivation>,
    stamp: u64,
}

impl HistoryPredictor {
    /// Creates a predictor with `entries_per_bank` history entries per bank
    /// (RBPP's registers, ABPP's table); `record_only_hit_rows` selects
    /// RBPP's recording rule.
    pub(crate) fn new(
        ranks: usize,
        banks: usize,
        entries_per_bank: usize,
        record_only_hit_rows: bool,
    ) -> Self {
        let n = ranks * banks;
        Self {
            banks_per_rank: banks,
            entries_per_bank,
            record_only_hit_rows,
            tables: vec![Vec::new(); n],
            current: vec![CurrentActivation::default(); n],
            stamp: 0,
        }
    }

    fn idx(&self, rank: usize, bank: usize) -> usize {
        rank * self.banks_per_rank + bank
    }

    fn lookup(&self, rank: usize, bank: usize, row: u64) -> Option<u64> {
        self.tables[self.idx(rank, bank)]
            .iter()
            .find(|e| e.row == row)
            .map(|e| e.hits)
    }

    fn record(&mut self, rank: usize, bank: usize, row: u64, hits: u64) {
        if self.record_only_hit_rows && hits == 0 {
            return;
        }
        self.stamp += 1;
        let stamp = self.stamp;
        let cap = self.entries_per_bank;
        let idx = self.idx(rank, bank);
        let table = &mut self.tables[idx];
        if let Some(e) = table.iter_mut().find(|e| e.row == row) {
            e.hits = hits;
            e.stamp = stamp;
            return;
        }
        if table.len() >= cap {
            // Evict the least recently recorded entry.
            if let Some(pos) = table
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
            {
                table.swap_remove(pos);
            }
        }
        table.push(RowHistory { row, hits, stamp });
    }

    /// Whether the current activation of (`rank`, `bank`) has met its
    /// predicted access count (counting the access about to issue if
    /// `plus_one` is set).
    fn prediction_met(&self, rank: usize, bank: usize, plus_one: bool) -> bool {
        let cur = &self.current[self.idx(rank, bank)];
        if !cur.open {
            return false;
        }
        match cur.predicted {
            Some(target) => cur.accesses + u64::from(plus_one) >= target,
            None => false,
        }
    }

    fn on_activate(&mut self, rank: usize, bank: usize, row: u64) {
        let predicted = self.lookup(rank, bank, row).map(|hits| hits + 1);
        let idx = self.idx(rank, bank);
        self.current[idx] = CurrentActivation {
            row,
            open: true,
            accesses: 0,
            predicted,
        };
    }

    fn on_column_access(&mut self, rank: usize, bank: usize, row: u64) {
        let idx = self.idx(rank, bank);
        let cur = &mut self.current[idx];
        if cur.open && cur.row == row {
            cur.accesses += 1;
        }
    }

    fn on_row_closed(&mut self, rank: usize, bank: usize, row: u64, accesses: u64) {
        let idx = self.idx(rank, bank);
        self.current[idx].open = false;
        let hits = accesses.saturating_sub(1);
        self.record(rank, bank, row, hits);
    }

    /// No restored per-bank table may exceed its configured capacity.
    fn check_restored(&mut self, r: &SnapReader<'_>) -> Result<(), SnapError> {
        if let Some(table) = self
            .tables
            .iter()
            .find(|table| table.len() > self.entries_per_bank)
        {
            return Err(r.bad_value(format!(
                "{} history entries exceed per-bank capacity {}",
                table.len(),
                self.entries_per_bank
            )));
        }
        Ok(())
    }
}

snap_fields! {
    RowHistory {
        saved: { row, hits, stamp },
        skipped: {},
    }
}

snap_fields! {
    CurrentActivation {
        saved: { row, open, accesses, predicted },
        skipped: {},
    }
}

snap_fields! {
    HistoryPredictor {
        saved: { stamp, current: fixed, tables: fixed },
        skipped: {
            banks_per_rank: "config-derived",
            entries_per_bank: "config-derived",
            record_only_hit_rows: "config-derived",
        },
        after_load: Self::check_restored,
    }
}

/// The state of the idle-timer policy, [`PagePolicy::Timer`]: close a row
/// after it has been idle for a fixed number of DRAM cycles. This predates
/// RBPP/ABPP; included as an extension.
#[derive(Debug, Clone)]
pub struct TimerPolicy {
    banks_per_rank: usize,
    timeout: DramCycles,
    last_access: Vec<DramCycles>,
}

impl TimerPolicy {
    /// Creates a timer policy with the given idle `timeout` in DRAM cycles.
    #[must_use]
    pub fn new(ranks: usize, banks: usize, timeout: DramCycles) -> Self {
        Self {
            banks_per_rank: banks,
            timeout,
            last_access: vec![0; ranks * banks],
        }
    }

    fn idx(&self, rank: usize, bank: usize) -> usize {
        rank * self.banks_per_rank + bank
    }

    /// The first idle open bank whose timeout has expired.
    fn propose_precharge(&self, view: &PolicyView<'_>) -> Option<(usize, usize)> {
        let d = view.bank_demand();
        d.banks(d.open & !d.hit).find(|&(r, b)| {
            view.now.saturating_sub(self.last_access[self.idx(r, b)]) >= self.timeout
        })
    }

    /// The proposal flips from `None` to `Some` when the first idle open
    /// bank's timeout expires.
    fn next_due(&self, view: &PolicyView<'_>) -> DramCycles {
        let d = view.bank_demand();
        d.banks(d.open & !d.hit)
            .map(|(r, b)| self.last_access[self.idx(r, b)] + self.timeout)
            .min()
            .unwrap_or(DramCycles::MAX)
    }

    /// Restarts (`rank`, `bank`)'s idle timer: an activate or a column access.
    fn touch(&mut self, rank: usize, bank: usize, now: DramCycles) {
        let idx = self.idx(rank, bank);
        self.last_access[idx] = now;
    }
}

snap_fields! {
    TimerPolicy {
        saved: { last_access: fixed },
        skipped: {
            banks_per_rank: "config-derived",
            timeout: "config-derived",
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::RequestQueue;
    use crate::request::{AccessKind, MemoryRequest};
    use cloudmc_dram::{Command, DramChannel, DramConfig};

    fn view_fixture(open_row: Option<u64>) -> (DramChannel, RequestQueue, RequestQueue) {
        let cfg = DramConfig::baseline();
        let mut ch = DramChannel::new(&cfg);
        if let Some(row) = open_row {
            ch.issue(&Command::activate(Location::new(0, 0, row, 0)), 0);
        }
        (ch, RequestQueue::new(8), RequestQueue::new(8))
    }

    fn push(q: &mut RequestQueue, id: u64, rank: usize, bank: usize, row: u64) {
        q.push(
            MemoryRequest::new(id, AccessKind::Read, 0, 0, 0),
            Location::new(rank, bank, row, 0),
            0,
        )
        .unwrap();
    }

    #[test]
    fn open_page_never_closes() {
        let (ch, rq, wq) = view_fixture(Some(5));
        let banks = BankTable::scan(&ch, &rq, &wq);
        let view = PolicyView {
            now: 100,
            channel: &ch,
            banks: &banks,
        };
        let p = PagePolicy::Open;
        assert!(!p.auto_precharge(&view, &Location::new(0, 0, 5, 0)));
        assert!(p.propose_precharge(&view).is_none());
    }

    #[test]
    fn close_page_always_closes() {
        let (ch, rq, wq) = view_fixture(Some(5));
        let banks = BankTable::scan(&ch, &rq, &wq);
        let view = PolicyView {
            now: 100,
            channel: &ch,
            banks: &banks,
        };
        let p = PagePolicy::Close;
        assert!(p.auto_precharge(&view, &Location::new(0, 0, 5, 0)));
        assert_eq!(p.propose_precharge(&view), Some((0, 0)));
    }

    #[test]
    fn open_adaptive_needs_conflicting_demand() {
        let (ch, mut rq, wq) = view_fixture(Some(5));
        let p = PagePolicy::OpenAdaptive;
        // No pending requests at all: keep the row open.
        {
            let banks = BankTable::scan(&ch, &rq, &wq);
            let view = PolicyView {
                now: 0,
                channel: &ch,
                banks: &banks,
            };
            assert!(!p.auto_precharge(&view, &Location::new(0, 0, 5, 0)));
            assert!(p.propose_precharge(&view).is_none());
        }
        // A pending request to another row of the same bank: close.
        push(&mut rq, 1, 0, 0, 9);
        {
            let banks = BankTable::scan(&ch, &rq, &wq);
            let view = PolicyView {
                now: 0,
                channel: &ch,
                banks: &banks,
            };
            assert!(p.auto_precharge(&view, &Location::new(0, 0, 5, 0)));
            assert_eq!(p.propose_precharge(&view), Some((0, 0)));
        }
        // But if a hit is also pending, keep it open.
        push(&mut rq, 2, 0, 0, 5);
        {
            let banks = BankTable::scan(&ch, &rq, &wq);
            let view = PolicyView {
                now: 0,
                channel: &ch,
                banks: &banks,
            };
            assert!(!p.auto_precharge(&view, &Location::new(0, 0, 5, 0)));
            assert!(p.propose_precharge(&view).is_none());
        }
    }

    #[test]
    fn close_adaptive_closes_without_other_row_demand() {
        let (ch, rq, mut wq) = view_fixture(Some(5));
        let p = PagePolicy::CloseAdaptive;
        {
            let banks = BankTable::scan(&ch, &rq, &wq);
            let view = PolicyView {
                now: 0,
                channel: &ch,
                banks: &banks,
            };
            assert!(p.auto_precharge(&view, &Location::new(0, 0, 5, 0)));
            assert_eq!(p.propose_precharge(&view), Some((0, 0)));
        }
        // A pending write hit keeps the row open.
        push(&mut wq, 1, 0, 0, 5);
        {
            let banks = BankTable::scan(&ch, &rq, &wq);
            let view = PolicyView {
                now: 0,
                channel: &ch,
                banks: &banks,
            };
            assert!(!p.auto_precharge(&view, &Location::new(0, 0, 5, 0)));
            assert!(p.propose_precharge(&view).is_none());
        }
    }

    #[test]
    fn rbpp_predicts_from_previous_activation() {
        let (ch, rq, wq) = view_fixture(Some(7));
        let mut p = PagePolicy::Rbpp(HistoryPredictor::new(2, 8, 4, true));
        let banks = BankTable::scan(&ch, &rq, &wq);
        let view = PolicyView {
            now: 0,
            channel: &ch,
            banks: &banks,
        };
        // First activation: no prediction, behaves like open page.
        p.on_activate(0, 0, 7, 0);
        p.on_column_access(0, 0, 7, 0);
        assert!(!p.auto_precharge(&view, &Location::new(0, 0, 7, 0)));
        // The row closes after 2 accesses (1 hit) -> recorded.
        p.on_column_access(0, 0, 7, 0);
        p.on_row_closed(0, 0, 7, 2);
        // Second activation of the same row: predicted 2 accesses.
        p.on_activate(0, 0, 7, 0);
        p.on_column_access(0, 0, 7, 0);
        // The next access is the second -> prediction met -> close.
        assert!(p.auto_precharge(&view, &Location::new(0, 0, 7, 0)));
        p.on_column_access(0, 0, 7, 0);
        assert_eq!(p.propose_precharge(&view), Some((0, 0)));
    }

    #[test]
    fn rbpp_ignores_single_access_rows() {
        let (ch, rq, wq) = view_fixture(Some(7));
        let mut p = PagePolicy::Rbpp(HistoryPredictor::new(2, 8, 4, true));
        let banks = BankTable::scan(&ch, &rq, &wq);
        let view = PolicyView {
            now: 0,
            channel: &ch,
            banks: &banks,
        };
        p.on_activate(0, 0, 7, 0);
        p.on_column_access(0, 0, 7, 0);
        p.on_row_closed(0, 0, 7, 1); // zero hits -> not recorded by RBPP
        p.on_activate(0, 0, 7, 0);
        assert!(!p.auto_precharge(&view, &Location::new(0, 0, 7, 0)));
    }

    #[test]
    fn abpp_records_single_access_rows() {
        let (ch, rq, wq) = view_fixture(Some(7));
        let mut p = PagePolicy::Abpp(HistoryPredictor::new(2, 8, 16, false));
        let banks = BankTable::scan(&ch, &rq, &wq);
        let view = PolicyView {
            now: 0,
            channel: &ch,
            banks: &banks,
        };
        p.on_activate(0, 0, 7, 0);
        p.on_column_access(0, 0, 7, 0);
        p.on_row_closed(0, 0, 7, 1); // zero hits, but ABPP records it
        p.on_activate(0, 0, 7, 0);
        // Prediction is 1 access, so the first access already meets it.
        assert!(p.auto_precharge(&view, &Location::new(0, 0, 7, 0)));
    }

    #[test]
    fn predictor_evicts_least_recently_recorded() {
        let mut pred = HistoryPredictor::new(1, 1, 2, false);
        pred.record(0, 0, 1, 3);
        pred.record(0, 0, 2, 4);
        pred.record(0, 0, 3, 5); // evicts row 1
        assert_eq!(pred.lookup(0, 0, 1), None);
        assert_eq!(pred.lookup(0, 0, 2), Some(4));
        assert_eq!(pred.lookup(0, 0, 3), Some(5));
        // Re-recording updates in place.
        pred.record(0, 0, 2, 9);
        assert_eq!(pred.lookup(0, 0, 2), Some(9));
    }

    #[test]
    fn timer_policy_closes_idle_rows() {
        let (ch, rq, wq) = view_fixture(Some(5));
        let mut p = PagePolicy::Timer(TimerPolicy::new(2, 8, 50));
        p.on_activate(0, 0, 5, 0);
        p.on_column_access(0, 0, 5, 10);
        let banks = BankTable::scan(&ch, &rq, &wq);
        let early = PolicyView {
            now: 40,
            channel: &ch,
            banks: &banks,
        };
        assert!(p.propose_precharge(&early).is_none());
        let banks = BankTable::scan(&ch, &rq, &wq);
        let late = PolicyView {
            now: 61,
            channel: &ch,
            banks: &banks,
        };
        assert_eq!(p.propose_precharge(&late), Some((0, 0)));
    }

    #[test]
    fn kind_builds_every_policy_and_parses() {
        for kind in PagePolicyKind::all() {
            let _ = kind.build(2, 8);
            let parsed: PagePolicyKind = kind.to_string().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("bogus".parse::<PagePolicyKind>().is_err());
        assert_eq!(PagePolicyKind::paper_set()[0], PagePolicyKind::OpenAdaptive);
    }
}
