//! The controller's reliability layer: SEC-DED ECC accounting, demand
//! retries, patrol scrub, row retirement and line poisoning on top of the
//! device fault model ([`FaultModel`]).
//!
//! A channel built with a fault model holds one `FaultState` and calls it
//! once per tick phase, through an interface that allocates nothing:
//! `FaultState::release` hands the due retries and the patrol read to the
//! channel's ordinary enqueue, `FaultState::retire` settles every finished
//! transfer (scrub reads, demand reads and writes go through the one
//! completion path), and `FaultState::next_due`, `FaultState::parked`
//! and `FaultState::live_scrubs` report its deadlines, its parked requests
//! and its patrol reads in the queues. No other module reads its
//! bookkeeping.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use cloudmc_dram::{
    DramChannel, DramConfig, DramCycles, FaultConfig, FaultLedger, FaultModel, Location, ReadFault,
    UncorrectablePolicy,
};
use cloudmc_snap::{snap_fields, SnapError, SnapReader};

use crate::request::{AccessKind, CompletedRequest, MemoryRequest, RequestId};
use crate::stats::McStats;

/// Id bit marking controller-generated patrol-scrub reads. Demand request
/// ids are assigned sequentially by the frontend and never reach this range.
pub const SCRUB_ID_BIT: u64 = 1 << 63;

/// Whether a request id denotes a controller-generated patrol-scrub read.
#[must_use]
pub fn is_scrub_id(id: RequestId) -> bool {
    id & SCRUB_ID_BIT != 0
}

/// Per-channel reliability state: the device fault model plus the
/// controller-side ECC machinery (demand retries, patrol scrub, row
/// retirement, line poisoning).
///
/// All bookkeeping uses ordered collections and closed-form decisions so the
/// subsystem is bit-identical under fast-forward and for any worker-thread
/// count.
#[derive(Debug)]
pub(crate) struct FaultState {
    model: FaultModel,
    /// DRAM geometry for the patrol cursor.
    ranks: usize,
    banks_per_rank: usize,
    rows_per_bank: u64,
    /// Corrected demand reads parked for a bounded-backoff retry:
    /// due cycle -> FIFO of (request, location, next attempt number).
    retry_pending: BTreeMap<DramCycles, VecDeque<(MemoryRequest, Location, u32)>>,
    /// Attempt number for demand reads currently re-enqueued as retries.
    attempts: BTreeMap<RequestId, u32>,
    /// Next cycle at which the patrol scrubber wants to emit a read
    /// (`DramCycles::MAX` when scrubbing is disabled).
    next_scrub_at: DramCycles,
    /// Patrol position: next (rank, bank, row) granule to scrub.
    scrub_cursor: (usize, usize, u64),
    scrub_seq: u64,
    /// Scrub reads currently occupying the read queue or in flight; excluded
    /// from the channel's demand accounting.
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
    pub(crate) fn new(mut cfg: FaultConfig, channel: usize, dram: &DramConfig) -> Self {
        // Decorrelate the channels: with a shared seed every channel would
        // plant stuck/hard rows at identical coordinates and flip the same
        // transient bits, which is not how independent DIMMs fail. The
        // offset is a pure function of the channel index, so runs stay
        // deterministic.
        cfg.seed = cfg
            .seed
            .wrapping_add((channel as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Self {
            model: FaultModel::new(
                cfg,
                dram.ranks_per_channel,
                dram.banks_per_rank,
                dram.rows_per_bank,
            ),
            ranks: dram.ranks_per_channel,
            banks_per_rank: dram.banks_per_rank,
            rows_per_bank: dram.rows_per_bank,
            retry_pending: BTreeMap::new(),
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

    /// Hands `admit` the reads due at `now`, at most `room` of them (the
    /// read queue's free slots): the parked demand retries, oldest deadline
    /// first, then at most one patrol-scrub read. A retried request keeps
    /// its original arrival cycle, so its observed latency includes every
    /// retry round trip. A patrol read that finds no room stays due, so a
    /// later cycle emits it. Returns whether the patrol read was released.
    /// (`#[inline]`: every tick of a channel with a fault model calls it from
    /// another module, and out of line the fault benchmark ran slower.)
    #[inline]
    pub(crate) fn release(
        &mut self,
        now: DramCycles,
        mut room: usize,
        mut admit: impl FnMut(MemoryRequest, Location),
    ) -> bool {
        while room > 0 {
            let Some(mut bucket) = self.retry_pending.first_entry() else {
                break;
            };
            if *bucket.key() > now {
                break;
            }
            let retry = bucket.get_mut().pop_front();
            if bucket.get().is_empty() {
                bucket.remove();
            }
            let Some((request, location, attempt)) = retry else {
                continue;
            };
            self.attempts.insert(request.id, attempt);
            admit(request, location);
            room -= 1;
        }
        if room == 0 || now < self.next_scrub_at {
            return false;
        }
        let (rank, bank, row) = self.scrub_cursor;
        // Scrub reads never leave their channel, so its own patrol sequence
        // is all the id has to distinguish.
        let id = SCRUB_ID_BIT | self.scrub_seq;
        self.scrub_seq += 1;
        self.scrub_live += 1;
        self.scrub_cursor = if row + 1 < self.rows_per_bank {
            (rank, bank, row + 1)
        } else if bank + 1 < self.banks_per_rank {
            (rank, bank + 1, 0)
        } else {
            ((rank + 1) % self.ranks, 0, 0)
        };
        self.next_scrub_at = self
            .next_scrub_at
            .saturating_add(self.model.config().scrub_interval);
        admit(
            MemoryRequest::new(id, AccessKind::Read, 0, 0, now),
            Location::new(rank, bank, row, 0),
        );
        true
    }

    /// Settles one finished transfer at `now` through the ECC layer: a
    /// write clears the line's poison; a read is classified against the
    /// fault model (a demand read of a poisoned line completes without a
    /// classification), a corrected demand read with retries left is parked
    /// for a re-read after a backoff that doubles per attempt, detected
    /// errors feed repeat-offender retirement, and a detected-uncorrectable
    /// one takes the configured policy (fail-stop latches a typed error,
    /// poison marks the line). Every other request still completes, so
    /// request conservation holds under both policies.
    ///
    /// Returns the completion the channel records and hands on, tagged with
    /// the retries that preceded it; `None` for a patrol-scrub read (it
    /// never reaches the frontend or the demand statistics) and for a parked
    /// read. (`#[inline]`, like [`Self::release`], for the channel's tick.)
    #[inline]
    pub(crate) fn retire(
        &mut self,
        mut done: CompletedRequest,
        now: DramCycles,
        channel: &DramChannel,
        stats: &mut McStats,
    ) -> Option<CompletedRequest> {
        let (id, loc) = (done.request.id, done.location);
        let line = (loc.rank, loc.bank, loc.row, loc.column);
        let scrub = is_scrub_id(id);
        if scrub {
            self.scrub_live -= 1;
            stats.scrub_reads_completed += 1;
        } else if done.request.kind == AccessKind::Write {
            // A write lands fresh, ECC-clean data, clearing any poison.
            self.poisoned.remove(&line);
            return Some(done);
        } else {
            done.retries = self.attempts.remove(&id).unwrap_or(0);
            if self.poisoned.contains(&line) {
                // The line carries a poison marker from an earlier
                // uncorrectable error; the consumption is accounted.
                stats.poisoned_reads += 1;
                return Some(done);
            }
        }
        let residency = channel.rank(loc.rank).residency_at(now);
        // Retired rows are served from healthy spares and never fault.
        let fault = if self.retired.contains(&(loc.rank, loc.bank, loc.row)) {
            ReadFault::None
        } else {
            self.model
                .classify_read(id, done.retries, loc.rank, loc.bank, loc.row, &residency)
        };
        match fault {
            ReadFault::None => {}
            ReadFault::Corrected => {
                if scrub {
                    stats.scrub_corrected += 1;
                } else {
                    stats.ecc_corrected += 1;
                }
                self.note_row_error(&loc, stats);
                let attempt = done.retries;
                if !scrub && attempt < self.model.config().max_demand_retries {
                    stats.demand_retries += 1;
                    let backoff = self
                        .model
                        .config()
                        .retry_backoff
                        .checked_shl(attempt)
                        .unwrap_or(DramCycles::MAX);
                    let due = now.saturating_add(backoff.max(1));
                    self.retry_pending.entry(due).or_default().push_back((
                        done.request,
                        loc,
                        attempt + 1,
                    ));
                    return None;
                }
                // Retries exhausted: the corrected data is accepted.
            }
            // ECC silently "corrected" to the wrong word: undetected, so no
            // retirement evidence accrues and a demand read completes
            // normally — only the counter (and the model's ledger) know.
            ReadFault::Uncorrectable { miscorrected: true } => stats.ecc_miscorrects += 1,
            ReadFault::Uncorrectable {
                miscorrected: false,
            } => {
                if scrub {
                    stats.scrub_uncorrectable += 1;
                } else {
                    stats.ecc_detected_uncorrectable += 1;
                }
                self.note_row_error(&loc, stats);
                match self.model.config().on_uncorrectable {
                    UncorrectablePolicy::FailStop => {
                        self.error.get_or_insert_with(|| {
                            let at = format!(
                                "channel {} rank {} bank {} row {}",
                                done.channel, loc.rank, loc.bank, loc.row
                            );
                            if scrub {
                                format!(
                                    "uncorrectable memory error found by patrol scrub: \
                                     {at} (cycle {now})"
                                )
                            } else {
                                format!(
                                    "uncorrectable memory error: {at} (request {id}, cycle {now})"
                                )
                            }
                        });
                    }
                    UncorrectablePolicy::PoisonAndContinue => {
                        stats.lines_poisoned += u64::from(self.poisoned.insert(line));
                    }
                }
            }
        }
        (!scrub).then_some(done)
    }

    /// Records a detected error on the row of `loc` and retires the row
    /// once it crosses the repeat-offender threshold.
    fn note_row_error(&mut self, loc: &Location, stats: &mut McStats) {
        let key = (loc.rank, loc.bank, loc.row);
        if self.retired.contains(&key) {
            return;
        }
        let count = self.row_errors.entry(key).or_insert(0);
        *count += 1;
        if *count >= self.model.config().retire_threshold {
            self.row_errors.remove(&key);
            self.retired.insert(key);
            self.rows_retired_per_rank[loc.rank] += 1;
            stats.rows_retired += 1;
        }
    }

    /// The earliest reliability deadline: the next patrol-scrub emission or
    /// the earliest parked retry; `u64::MAX` with neither.
    #[inline]
    pub(crate) fn next_due(&self) -> DramCycles {
        let retry = self.retry_pending.keys().next().copied();
        self.next_scrub_at.min(retry.unwrap_or(DramCycles::MAX))
    }

    /// The demand reads parked for a retry, with their locations.
    pub(crate) fn parked(&self) -> impl Iterator<Item = (&MemoryRequest, &Location)> {
        self.retry_pending
            .values()
            .flatten()
            .map(|(request, location, _)| (request, location))
    }

    /// Patrol-scrub reads queued or in flight.
    pub(crate) fn live_scrubs(&self) -> usize {
        self.scrub_live
    }

    /// The fault model's conservation ledger.
    pub(crate) fn ledger(&self) -> FaultLedger {
        self.model.ledger()
    }

    /// The latched fail-stop error, if any.
    pub(crate) fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// Rows retired so far, per rank.
    pub(crate) fn rows_retired_per_rank(&self) -> &[u64] {
        &self.rows_retired_per_rank
    }

    /// Rejects a restored patrol cursor outside the geometry.
    fn check_restored(&mut self, r: &SnapReader<'_>) -> Result<(), SnapError> {
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
            ranks: "config-derived",
            banks_per_rank: "config-derived",
            rows_per_bank: "config-derived",
        },
        after_load: Self::check_restored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NOW: DramCycles = 500;
    const MAX_RETRIES: u32 = 2;
    const BACKOFF: DramCycles = 8;
    const LOC: Location = Location {
        rank: 1,
        bank: 2,
        row: 3,
        column: 4,
    };
    const CORRECTED: ReadFault = ReadFault::Corrected;
    const MISCORRECTED: ReadFault = ReadFault::Uncorrectable { miscorrected: true };
    const DETECTED: ReadFault = ReadFault::Uncorrectable {
        miscorrected: false,
    };
    const FAULTS: [ReadFault; 4] = [ReadFault::None, CORRECTED, MISCORRECTED, DETECTED];
    const FAIL_STOP: UncorrectablePolicy = UncorrectablePolicy::FailStop;
    const POISON: UncorrectablePolicy = UncorrectablePolicy::PoisonAndContinue;
    const POLICIES: [UncorrectablePolicy; 2] = [FAIL_STOP, POISON];

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Input {
        Scrub,
        Read,
        PoisonedRead,
        Write,
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Outcome {
        /// Handed back for the channel to record and push.
        Completes,
        /// Parked for a retry at this many cycles after `NOW`.
        Parks(DramCycles),
        /// A patrol read, consumed inside the layer.
        Consumed,
    }

    /// One row of the table: every combination of the listed faults,
    /// policies and retry states must end in `outcome`, move exactly the
    /// counters `moved` moves, leave the line poisoned or not, and latch
    /// `error` (or none).
    struct Case {
        input: Input,
        faults: &'static [ReadFault],
        policies: &'static [UncorrectablePolicy],
        retries_left: &'static [bool],
        outcome: Outcome,
        moved: fn(&mut McStats),
        poisoned: bool,
        error: Option<&'static str>,
    }

    /// A fault configuration whose model returns `fault` on every
    /// classification (certain flips, per-mille shares of 0 or 1000), with
    /// one-strike retirement so the retirement counter shows which
    /// outcomes count as detected errors.
    fn forcing(fault: ReadFault, policy: UncorrectablePolicy) -> FaultConfig {
        let (rate, uncorrectable, miscorrect) = match fault {
            ReadFault::None => (0, 0, 0),
            ReadFault::Corrected => (1 << 32, 0, 0),
            ReadFault::Uncorrectable { miscorrected } => {
                (1 << 32, 1000, 1000 * u32::from(miscorrected))
            }
        };
        FaultConfig {
            transient_rate_fp: rate,
            uncorrectable_permille: uncorrectable,
            miscorrect_permille: miscorrect,
            retire_threshold: 1,
            max_demand_retries: MAX_RETRIES,
            retry_backoff: BACKOFF,
            on_uncorrectable: policy,
            ..FaultConfig::baseline()
        }
    }

    /// The one completion path over every input × read fault ×
    /// uncorrectable policy × retries left or used up.
    #[test]
    fn retire_settles_every_transfer_by_the_table() {
        let all: &[bool] = &[true, false];
        let table = [
            Case {
                input: Input::Write,
                faults: &FAULTS,
                policies: &POLICIES,
                retries_left: all,
                outcome: Outcome::Completes,
                moved: |_| {},
                poisoned: false,
                error: None,
            },
            Case {
                input: Input::PoisonedRead,
                faults: &FAULTS,
                policies: &POLICIES,
                retries_left: all,
                outcome: Outcome::Completes,
                moved: |s| s.poisoned_reads += 1,
                poisoned: true,
                error: None,
            },
            Case {
                input: Input::Scrub,
                faults: &[ReadFault::None],
                policies: &POLICIES,
                retries_left: all,
                outcome: Outcome::Consumed,
                moved: |s| s.scrub_reads_completed += 1,
                poisoned: false,
                error: None,
            },
            Case {
                input: Input::Scrub,
                faults: &[CORRECTED],
                policies: &POLICIES,
                retries_left: all,
                outcome: Outcome::Consumed,
                moved: |s| {
                    s.scrub_reads_completed += 1;
                    s.scrub_corrected += 1;
                    s.rows_retired += 1;
                },
                poisoned: false,
                error: None,
            },
            Case {
                input: Input::Scrub,
                faults: &[MISCORRECTED],
                policies: &POLICIES,
                retries_left: all,
                outcome: Outcome::Consumed,
                moved: |s| {
                    s.scrub_reads_completed += 1;
                    s.ecc_miscorrects += 1;
                },
                poisoned: false,
                error: None,
            },
            Case {
                input: Input::Scrub,
                faults: &[DETECTED],
                policies: &[FAIL_STOP],
                retries_left: all,
                outcome: Outcome::Consumed,
                moved: |s| {
                    s.scrub_reads_completed += 1;
                    s.scrub_uncorrectable += 1;
                    s.rows_retired += 1;
                },
                poisoned: false,
                error: Some(
                    "uncorrectable memory error found by patrol scrub: \
                     channel 0 rank 1 bank 2 row 3 (cycle 500)",
                ),
            },
            Case {
                input: Input::Scrub,
                faults: &[DETECTED],
                policies: &[POISON],
                retries_left: all,
                outcome: Outcome::Consumed,
                moved: |s| {
                    s.scrub_reads_completed += 1;
                    s.scrub_uncorrectable += 1;
                    s.rows_retired += 1;
                    s.lines_poisoned += 1;
                },
                poisoned: true,
                error: None,
            },
            Case {
                input: Input::Read,
                faults: &[ReadFault::None],
                policies: &POLICIES,
                retries_left: all,
                outcome: Outcome::Completes,
                moved: |_| {},
                poisoned: false,
                error: None,
            },
            Case {
                input: Input::Read,
                faults: &[CORRECTED],
                policies: &POLICIES,
                retries_left: &[true],
                // The second retry (attempt 1) backs off twice the base.
                outcome: Outcome::Parks(2 * BACKOFF),
                moved: |s| {
                    s.ecc_corrected += 1;
                    s.rows_retired += 1;
                    s.demand_retries += 1;
                },
                poisoned: false,
                error: None,
            },
            Case {
                input: Input::Read,
                faults: &[CORRECTED],
                policies: &POLICIES,
                retries_left: &[false],
                outcome: Outcome::Completes,
                moved: |s| {
                    s.ecc_corrected += 1;
                    s.rows_retired += 1;
                },
                poisoned: false,
                error: None,
            },
            Case {
                input: Input::Read,
                faults: &[MISCORRECTED],
                policies: &POLICIES,
                retries_left: all,
                outcome: Outcome::Completes,
                moved: |s| s.ecc_miscorrects += 1,
                poisoned: false,
                error: None,
            },
            Case {
                input: Input::Read,
                faults: &[DETECTED],
                policies: &[FAIL_STOP],
                retries_left: all,
                outcome: Outcome::Completes,
                moved: |s| {
                    s.ecc_detected_uncorrectable += 1;
                    s.rows_retired += 1;
                },
                poisoned: false,
                error: Some(
                    "uncorrectable memory error: channel 0 rank 1 bank 2 row 3 \
                     (request 7, cycle 500)",
                ),
            },
            Case {
                input: Input::Read,
                faults: &[DETECTED],
                policies: &[POISON],
                retries_left: all,
                outcome: Outcome::Completes,
                moved: |s| {
                    s.ecc_detected_uncorrectable += 1;
                    s.rows_retired += 1;
                    s.lines_poisoned += 1;
                },
                poisoned: true,
                error: None,
            },
        ];
        let dram = DramConfig::baseline();
        let channel = DramChannel::new(&dram);
        let line = (LOC.rank, LOC.bank, LOC.row, LOC.column);
        let mut seen = BTreeSet::new();
        for case in &table {
            for (&fault, &policy, &retries_left) in case.faults.iter().flat_map(|f| {
                case.policies
                    .iter()
                    .flat_map(move |p| case.retries_left.iter().map(move |r| (f, p, r)))
            }) {
                let label = format!(
                    "{:?} / {fault:?} / {policy:?} / retries left {retries_left}",
                    case.input
                );
                assert!(seen.insert(label.clone()), "{label}: listed twice");
                let mut state = FaultState::new(forcing(fault, policy), 0, &dram);
                let attempt = if retries_left {
                    MAX_RETRIES - 1
                } else {
                    MAX_RETRIES
                };
                let (id, kind) = match case.input {
                    Input::Scrub => (SCRUB_ID_BIT | 9, AccessKind::Read),
                    Input::Read | Input::PoisonedRead => (7, AccessKind::Read),
                    Input::Write => (7, AccessKind::Write),
                };
                match case.input {
                    Input::Scrub => state.scrub_live = 1,
                    Input::Read | Input::PoisonedRead => {
                        state.attempts.insert(id, attempt);
                    }
                    Input::Write => {}
                }
                if matches!(case.input, Input::PoisonedRead | Input::Write) {
                    state.poisoned.insert(line);
                }
                let done = CompletedRequest {
                    request: MemoryRequest::new(id, kind, 0x4000, 3, 100),
                    channel: 0,
                    location: LOC,
                    issue: NOW - 20,
                    completion: NOW,
                    ..CompletedRequest::default()
                };
                let mut stats = McStats::new();
                let returned = state.retire(done, NOW, &channel, &mut stats);

                let mut expected = McStats::new();
                (case.moved)(&mut expected);
                assert_eq!(stats, expected, "{label}: counters");
                let outcome = match (returned, state.retry_pending.first_key_value()) {
                    (Some(back), None) => {
                        let retries = if kind == AccessKind::Read { attempt } else { 0 };
                        assert_eq!(back, CompletedRequest { retries, ..done }, "{label}");
                        Outcome::Completes
                    }
                    (None, Some((&due, parked))) => {
                        let next = (done.request, LOC, attempt + 1);
                        assert!(parked.iter().eq([&next]), "{label}: {parked:?}");
                        Outcome::Parks(due - NOW)
                    }
                    (None, None) => Outcome::Consumed,
                    (Some(_), Some(_)) => panic!("{label}: completed and parked"),
                };
                assert_eq!(outcome, case.outcome, "{label}: outcome");
                assert!(state.attempts.is_empty(), "{label}: attempt left behind");
                assert_eq!(state.live_scrubs(), 0, "{label}: live scrubs");
                assert_eq!(
                    state.poisoned.contains(&line),
                    case.poisoned,
                    "{label}: poison"
                );
                assert_eq!(state.error(), case.error, "{label}: latched error");
                // A poisoned read and a write never consult the fault model.
                if matches!(case.input, Input::PoisonedRead | Input::Write) {
                    assert_eq!(state.ledger(), FaultLedger::default(), "{label}: ledger");
                }
            }
        }
        assert_eq!(
            seen.len(),
            4 * FAULTS.len() * POLICIES.len() * 2,
            "a combination is missing"
        );
    }

    /// A parked read comes back at its due cycle, through `release`, with
    /// its next attempt number; the patrol read follows, once per cycle,
    /// only while the queue has room.
    #[test]
    fn release_hands_out_due_retries_then_one_patrol_read() {
        let dram = DramConfig::baseline();
        let channel = DramChannel::new(&dram);
        let mut cfg = forcing(CORRECTED, POISON);
        cfg.scrub_interval = 50;
        let mut state = FaultState::new(cfg, 0, &dram);
        let done = CompletedRequest {
            request: MemoryRequest::new(7, AccessKind::Read, 0x4000, 3, 100),
            location: LOC,
            ..CompletedRequest::default()
        };
        assert_eq!(state.retire(done, NOW, &channel, &mut McStats::new()), None);
        let due = NOW + BACKOFF;
        assert_eq!(state.next_due(), 50, "the patrol read is due first");
        let mut admitted = Vec::new();
        assert!(!state.release(NOW, 0, |r, l| admitted.push((r.id, l))));
        assert!(admitted.is_empty(), "no room, nothing released");
        assert!(state.release(due - 1, 4, |r, l| admitted.push((r.id, l))));
        assert_eq!(admitted, [(SCRUB_ID_BIT, Location::new(0, 0, 0, 0))]);
        assert_eq!(state.next_due(), 100, "one patrol read per cycle");
        admitted.clear();
        assert!(state.release(due, 4, |r, l| admitted.push((r.id, l))));
        assert_eq!(
            admitted,
            [(7, LOC), (SCRUB_ID_BIT | 1, Location::new(0, 0, 1, 0))]
        );
        assert_eq!(state.attempts.get(&7), Some(&1));
        assert_eq!((state.parked().count(), state.live_scrubs()), (0, 2));
    }
}
