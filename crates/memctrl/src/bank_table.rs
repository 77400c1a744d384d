//! One channel's per-bank demand table: how many queued requests each bank
//! has and how many of them hit its open row.
//!
//! The page-policy proposal, the auto-precharge decision, the power
//! policy's demand veto and the FR-FCFS pick all ask per-bank questions of
//! the queues ("does any pending request hit this open row?", "which closed
//! banks have demand?"). [`BankTable`] answers them from counts and
//! bitmasks kept up to date at the three points that change them: a push
//! into a queue, a removal from one, and a DRAM command that opens or closes
//! a row ([`BankTable::apply`]). It is derived state: no snapshot holds it,
//! and a restore rebuilds it with [`BankTable::scan`], which is also the
//! reference the debug builds check it against after every controller tick.

use cloudmc_dram::{Command, CommandKind, DramChannel, DramConfig, Location};

use crate::queue::{bank_row_key, key_bank, key_rank, RequestQueue};
use crate::request::AccessKind;

/// Flat banks a table covers: every validated geometry fits
/// (`DramConfig::MAX_BANKS_PER_CHANNEL` is the width of the masks).
const BANKS: usize = DramConfig::MAX_BANKS_PER_CHANNEL;

/// One queue's per-bank counts and the masks derived from them (bit index =
/// flat bank, `rank * banks_per_rank + bank`).
#[derive(Debug, Clone, PartialEq, Eq)]
struct QueueBanks {
    /// Entries per flat bank.
    pending: [u32; BANKS],
    /// Entries per flat bank that target the bank's open row (0 while the
    /// bank is closed).
    hits: [u32; BANKS],
    /// Banks with at least one entry.
    any: u64,
    /// Open banks with an entry to the open row.
    hit: u64,
    /// Open banks with an entry to another row.
    other: u64,
}

impl QueueBanks {
    fn new() -> Self {
        Self {
            pending: [0; BANKS],
            hits: [0; BANKS],
            any: 0,
            hit: 0,
            other: 0,
        }
    }

    /// Re-derives bank `flat`'s three mask bits from its counts.
    fn refresh(&mut self, flat: usize, open: bool) {
        let bit = 1u64 << flat;
        let set = |mask: &mut u64, on: bool| {
            if on {
                *mask |= bit;
            } else {
                *mask &= !bit;
            }
        };
        let (pending, hits) = (self.pending[flat], self.hits[flat]);
        set(&mut self.any, pending > 0);
        set(&mut self.hit, hits > 0);
        set(&mut self.other, open && pending > hits);
    }
}

/// The per-bank demand of one channel's read and write queues against its
/// open rows. See the module documentation for when it changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankTable {
    banks_per_rank: usize,
    /// Banks with an open row.
    open: u64,
    /// Packed [`bank_row_key`] of each open bank's row (0 while closed).
    open_key: [u64; BANKS],
    /// Index 0 describes the read queue, 1 the write queue.
    queues: [QueueBanks; 2],
}

/// The table column of the queue holding requests of `kind`.
fn column(kind: AccessKind) -> usize {
    match kind {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
    }
}

impl BankTable {
    /// The table of empty queues and closed banks.
    #[must_use]
    pub fn new(banks_per_rank: usize) -> Self {
        Self {
            banks_per_rank,
            open: 0,
            open_key: [0; BANKS],
            queues: [QueueBanks::new(), QueueBanks::new()],
        }
    }

    /// Builds the table from scratch: the open rows of `channel` against
    /// every key of both queues. The reference the incremental updates are
    /// checked against, and how a restored controller gets its table.
    #[must_use]
    pub fn scan(channel: &DramChannel, read_q: &RequestQueue, write_q: &RequestQueue) -> Self {
        let banks = channel.banks_per_rank();
        let mut table = Self::new(banks);
        for rank in 0..channel.rank_count() {
            for bank in 0..banks {
                if let Some(row) = channel.open_row(rank, bank) {
                    let flat = rank * banks + bank;
                    table.open |= 1 << flat;
                    table.open_key[flat] = bank_row_key(rank, bank, row);
                }
            }
        }
        for (q, queue) in table.queues.iter_mut().zip([read_q, write_q]) {
            for &key in queue.keys() {
                let flat = key_rank(key) * banks + key_bank(key);
                let bit = 1u64 << flat;
                q.pending[flat] += 1;
                q.any |= bit;
                if table.open & bit != 0 {
                    if key == table.open_key[flat] {
                        q.hits[flat] += 1;
                        q.hit |= bit;
                    } else {
                        q.other |= bit;
                    }
                }
            }
        }
        table
    }

    /// The flat bank a packed key addresses.
    #[must_use]
    #[inline]
    pub fn flat(&self, key: u64) -> usize {
        key_rank(key) * self.banks_per_rank + key_bank(key)
    }

    /// Accounts a request of `kind` at `loc` entering its queue.
    pub fn push(&mut self, kind: AccessKind, loc: &Location) {
        let key = bank_row_key(loc.rank, loc.bank, loc.row);
        let flat = self.flat(key);
        let open = self.open & (1 << flat) != 0;
        let q = &mut self.queues[column(kind)];
        q.pending[flat] += 1;
        if open && key == self.open_key[flat] {
            q.hits[flat] += 1;
        }
        q.refresh(flat, open);
    }

    /// Accounts a request of `kind` at `loc` leaving its queue.
    pub fn remove(&mut self, kind: AccessKind, loc: &Location) {
        let key = bank_row_key(loc.rank, loc.bank, loc.row);
        let flat = self.flat(key);
        let open = self.open & (1 << flat) != 0;
        let q = &mut self.queues[column(kind)];
        q.pending[flat] -= 1;
        if open && key == self.open_key[flat] {
            q.hits[flat] -= 1;
        }
        q.refresh(flat, open);
    }

    /// Accounts `cmd`, just issued on the channel whose queues are `read_q`
    /// and `write_q`. An activate opens its row and recounts that bank's
    /// hits over both queues; a precharge or an auto-precharging column
    /// access closes the bank. A refresh closes nothing (it needs every
    /// bank of the rank idle), and a plain column access changes no row.
    pub fn apply(&mut self, cmd: &Command, read_q: &RequestQueue, write_q: &RequestQueue) {
        let loc = cmd.loc;
        let flat = loc.rank * self.banks_per_rank + loc.bank;
        match cmd.kind {
            CommandKind::Activate => {
                let key = bank_row_key(loc.rank, loc.bank, loc.row);
                self.open |= 1 << flat;
                self.open_key[flat] = key;
                for (q, queue) in self.queues.iter_mut().zip([read_q, write_q]) {
                    let hits = queue.keys().iter().filter(|&&k| k == key).count();
                    q.hits[flat] = u32::try_from(hits).unwrap_or(u32::MAX);
                    q.refresh(flat, true);
                }
            }
            CommandKind::Precharge
            | CommandKind::Read {
                auto_precharge: true,
            }
            | CommandKind::Write {
                auto_precharge: true,
            } => {
                self.open &= !(1 << flat);
                self.open_key[flat] = 0;
                for q in &mut self.queues {
                    q.hits[flat] = 0;
                    q.refresh(flat, false);
                }
            }
            CommandKind::Read { .. } | CommandKind::Write { .. } | CommandKind::Refresh => {}
        }
    }

    /// Flat banks per rank: decodes a flat index into (rank, bank).
    #[must_use]
    pub fn banks_per_rank(&self) -> usize {
        self.banks_per_rank
    }

    /// Banks with an open row.
    #[must_use]
    pub fn open(&self) -> u64 {
        self.open
    }

    /// The packed key of bank `flat`'s open row (meaningful only while the
    /// bank's bit is set in [`Self::open`]).
    #[must_use]
    #[inline]
    pub fn open_key(&self, flat: usize) -> u64 {
        self.open_key[flat]
    }

    /// Banks with a queued request of `kind`.
    #[must_use]
    pub fn pending(&self, kind: AccessKind) -> u64 {
        self.queues[column(kind)].any
    }

    /// Open banks with a queued request of `kind` to the open row.
    #[must_use]
    pub fn hits(&self, kind: AccessKind) -> u64 {
        self.queues[column(kind)].hit
    }

    /// Open banks with a queued request of `kind` to another row.
    #[must_use]
    pub fn conflicts(&self, kind: AccessKind) -> u64 {
        self.queues[column(kind)].other
    }

    /// Banks with a queued request of either kind.
    #[must_use]
    pub fn pending_any(&self) -> u64 {
        self.queues[0].any | self.queues[1].any
    }

    /// Open banks with a queued request of either kind to the open row.
    #[must_use]
    pub fn hits_any(&self) -> u64 {
        self.queues[0].hit | self.queues[1].hit
    }

    /// Open banks with a queued request of either kind to another row.
    #[must_use]
    pub fn conflicts_any(&self) -> u64 {
        self.queues[0].other | self.queues[1].other
    }

    /// The flat-bank bits of rank `rank`.
    #[must_use]
    pub fn rank_mask(&self, rank: usize) -> u64 {
        (u64::MAX >> (BANKS - self.banks_per_rank)) << (rank * self.banks_per_rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::MemoryRequest;
    use cloudmc_dram::PowerDownMode;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The controller's update points on a bare channel and queue pair: the
    /// same order of table updates as `ChannelController` (push after the
    /// queue push, remove after the queue remove, `apply` after the issue).
    struct Harness {
        channel: DramChannel,
        read_q: RequestQueue,
        write_q: RequestQueue,
        table: BankTable,
    }

    impl Harness {
        fn new(cfg: &DramConfig) -> Self {
            Self {
                channel: DramChannel::new(cfg),
                read_q: RequestQueue::new(48),
                write_q: RequestQueue::new(48),
                table: BankTable::new(cfg.banks_per_rank),
            }
        }

        fn push(&mut self, id: u64, kind: AccessKind, loc: Location) {
            let q = match kind {
                AccessKind::Read => &mut self.read_q,
                AccessKind::Write => &mut self.write_q,
            };
            if q.push(MemoryRequest::new(id, kind, 0, 0, 0), loc, 0)
                .is_ok()
            {
                self.table.push(kind, &loc);
            }
        }

        fn remove_nth(&mut self, kind: AccessKind, n: usize) {
            let q = match kind {
                AccessKind::Read => &mut self.read_q,
                AccessKind::Write => &mut self.write_q,
            };
            let Some(id) = q.iter().nth(n).map(|e| e.request.id) else {
                return;
            };
            let Some(entry) = q.remove(id) else {
                return;
            };
            self.table.remove(kind, &entry.location);
        }

        fn issue(&mut self, cmd: &Command, now: u64) -> bool {
            if !self.channel.can_issue(cmd, now) {
                return false;
            }
            self.channel.issue(cmd, now);
            self.table.apply(cmd, &self.read_q, &self.write_q);
            true
        }

        /// The table equals the scan, and its masks give the answers the
        /// queue scans give (the questions the page and power policies ask).
        fn assert_matches_scan(&self, step: &str) {
            let scanned = BankTable::scan(&self.channel, &self.read_q, &self.write_q);
            assert_eq!(
                self.table, scanned,
                "table diverged from the scan after {step}"
            );
            let t = &self.table;
            let queues = [&self.read_q, &self.write_q];
            let banks = t.banks_per_rank();
            for rank in 0..self.channel.rank_count() {
                let pending = queues.iter().any(|q| q.any_for_rank(rank));
                assert_eq!(t.pending_any() & t.rank_mask(rank) != 0, pending, "{step}");
                for bank in 0..banks {
                    let bit = 1u64 << (rank * banks + bank);
                    let (hit, other) = match self.channel.open_row(rank, bank) {
                        Some(row) => (
                            queues.iter().any(|q| q.any_hit(rank, bank, row)),
                            queues.iter().any(|q| q.any_other_row(rank, bank, row)),
                        ),
                        None => (false, false),
                    };
                    assert_eq!(t.hits_any() & bit != 0, hit, "{step}: hit {rank}/{bank}");
                    assert_eq!(
                        t.conflicts_any() & bit != 0,
                        other,
                        "{step}: other {rank}/{bank}"
                    );
                }
            }
        }
    }

    /// Geometries of one and two ranks, up to the 64-bank limit.
    fn random_config(rng: &mut StdRng) -> DramConfig {
        let mut cfg = DramConfig::baseline();
        cfg.ranks_per_channel = rng.gen_range(1..3usize);
        cfg.banks_per_rank = [2, 8, 32][rng.gen_range(0..3usize)];
        cfg
    }

    /// Oracle (a): random pushes, removes, activates, precharges,
    /// auto-precharging column accesses, refreshes, power-down entries and
    /// restores keep the incremental table equal to `BankTable::scan`.
    #[test]
    fn updates_keep_the_table_equal_to_the_scan() {
        let mut rng = StdRng::seed_from_u64(0xBA4C);
        let mut seen = [0usize; 6];
        for case in 0..200 {
            let cfg = random_config(&mut rng);
            let mut h = Harness::new(&cfg);
            let mut now = 0u64;
            let mut ids = 0u64;
            for step in 0..rng.gen_range(20..120usize) {
                now += rng.gen_range(0..12u64);
                let loc = Location::new(
                    rng.gen_range(0..cfg.ranks_per_channel),
                    rng.gen_range(0..cfg.banks_per_rank),
                    rng.gen_range(0..3u64),
                    rng.gen_range(0..4u64),
                );
                let kind = if rng.gen_bool(0.35) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let label = match rng.gen_range(0..8u32) {
                    0 | 1 => {
                        ids += 1;
                        h.push(ids, kind, loc);
                        seen[0] += 1;
                        "push"
                    }
                    2 => {
                        let n = rng.gen_range(0..4usize);
                        h.remove_nth(kind, n);
                        seen[1] += 1;
                        "remove"
                    }
                    3 => {
                        seen[2] += usize::from(h.issue(&Command::activate(loc), now));
                        "activate"
                    }
                    4 => {
                        seen[3] += usize::from(h.issue(&Command::precharge(loc), now));
                        "precharge"
                    }
                    5 => {
                        // A column access to the open row, auto-precharging
                        // half of the time.
                        let Some(row) = h.channel.open_row(loc.rank, loc.bank) else {
                            continue;
                        };
                        let at = Location { row, ..loc };
                        let ap = rng.gen_bool(0.5);
                        let cmd = match kind {
                            AccessKind::Read => Command::read(at, ap),
                            AccessKind::Write => Command::write(at, ap),
                        };
                        if h.issue(&cmd, now) && ap {
                            seen[4] += 1;
                        }
                        "column"
                    }
                    6 => {
                        if h.channel.power_state(loc.rank).is_powered_down() {
                            h.channel.wake_rank(loc.rank, now);
                        }
                        h.issue(&Command::refresh(loc.rank), now);
                        if rng.gen_bool(0.3)
                            && h.channel
                                .can_enter_power_down(loc.rank, PowerDownMode::Fast, now)
                        {
                            h.channel
                                .enter_power_down(loc.rank, PowerDownMode::Fast, now);
                        }
                        "refresh"
                    }
                    _ => {
                        // A restore rebuilds the table from the state it
                        // describes.
                        h.table = BankTable::scan(&h.channel, &h.read_q, &h.write_q);
                        seen[5] += 1;
                        "restore"
                    }
                };
                h.assert_matches_scan(&format!("case {case} step {step}: {label}"));
            }
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "an update kind was never exercised: {seen:?}"
        );
    }

    /// The masks answer the queue-scan questions they replace.
    #[test]
    fn masks_answer_the_queue_scans() {
        let mut h = Harness::new(&DramConfig::baseline());
        h.issue(&Command::activate(Location::new(0, 3, 100, 0)), 0);
        h.push(1, AccessKind::Read, Location::new(0, 3, 100, 0));
        h.push(2, AccessKind::Write, Location::new(0, 3, 200, 0));
        h.push(3, AccessKind::Read, Location::new(1, 5, 7, 0));
        let bit = |rank: usize, bank: usize| 1u64 << (rank * 8 + bank);
        let t = &h.table;
        assert_eq!(t.open(), bit(0, 3));
        assert_eq!(t.hits(AccessKind::Read), bit(0, 3));
        assert_eq!(t.hits(AccessKind::Write), 0);
        assert_eq!(t.conflicts(AccessKind::Write), bit(0, 3));
        assert_eq!(t.conflicts_any(), bit(0, 3));
        assert_eq!(t.pending(AccessKind::Read), bit(0, 3) | bit(1, 5));
        assert_eq!(t.pending_any() & t.rank_mask(1), bit(1, 5));
        assert_eq!(t.pending_any() & t.rank_mask(0), bit(0, 3));
        assert_eq!(
            t.open_key(3),
            bank_row_key(0, 3, 100),
            "the open key packs the open row"
        );
        assert_eq!(BankTable::new(64).rank_mask(0), u64::MAX);
    }
}
