//! First-come-first-served schedulers.

use crate::sched::{first_ready, progress_for, SchedContext, SchedDecision};

/// Strict FCFS: only the oldest pending request of the active queue is ever
/// considered, so a blocked head request blocks the whole channel.
///
/// This is the simplest possible scheduler and serves as the lower bound in
/// the paper's discussion; the variant actually evaluated in the figures is
/// [`pick_banks`].
#[must_use]
pub fn pick(ctx: &SchedContext<'_>) -> Option<SchedDecision> {
    let oldest = ctx.active_queue().oldest()?;
    progress_for(oldest, ctx)
}

/// `FCFS_banks`: conceptually one FCFS queue per bank, so requests to
/// different banks proceed in parallel, but requests to the same bank are
/// never reordered (no row-hit promotion).
#[must_use]
pub fn pick_banks(ctx: &SchedContext<'_>) -> Option<SchedDecision> {
    // The head of each per-bank queue is the oldest pending request for
    // that (rank, bank). The queue is in arrival order, so its per-bank
    // heads are too: the first-ready skeleton walks them directly, and
    // because only heads are candidates no within-bank reordering can
    // happen. A channel has at most 64 flat banks, one bit each.
    let banks_per_rank = ctx.channel.banks_per_rank();
    let mut seen = 0u64;
    let heads = ctx.active_queue().iter().filter(|entry| {
        let bit = 1u64 << entry.location.flat_bank(banks_per_rank);
        let head = seen & bit == 0;
        seen |= bit;
        head
    });
    first_ready(heads, ctx)
}

/// The `FCFS_banks` pick before the bank mask: the heads collected into a
/// `Vec` with a `Vec<bool>` of seen banks. The oracle of the differential
/// tests.
#[cfg(test)]
pub(super) fn pick_banks_reference(ctx: &SchedContext<'_>) -> Option<SchedDecision> {
    let queue = ctx.active_queue();
    let banks_per_rank = ctx.channel.banks_per_rank();
    let total_banks = ctx.channel.rank_count() * banks_per_rank;
    let mut seen = vec![false; total_banks];
    let mut heads = Vec::with_capacity(total_banks);
    for entry in queue.iter() {
        let flat = entry.location.flat_bank(banks_per_rank);
        if !seen[flat] {
            seen[flat] = true;
            heads.push(entry);
        }
    }
    first_ready(heads, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank_table::BankTable;
    use crate::queue::RequestQueue;
    use crate::request::{AccessKind, MemoryRequest};
    use cloudmc_dram::{Command, DramChannel, DramConfig, Location};

    fn push(q: &mut RequestQueue, id: u64, bank: usize, row: u64, at: u64) {
        q.push(
            MemoryRequest::new(id, AccessKind::Read, 0, id as usize % 16, at),
            Location::new(0, bank, row, 0),
            at,
        )
        .unwrap();
    }

    fn ctx<'a>(
        ch: &'a DramChannel,
        rq: &'a RequestQueue,
        wq: &'a RequestQueue,
        banks: &'a BankTable,
        now: u64,
    ) -> SchedContext<'a> {
        SchedContext::new(now, ch, rq, wq, banks, false, 16)
    }

    #[test]
    fn strict_fcfs_blocks_on_head_of_line() {
        let cfg = DramConfig::baseline();
        let mut ch = DramChannel::new(&cfg);
        let mut rq = RequestQueue::new(16);
        let wq = RequestQueue::new(16);
        // Open row 9 in bank 0 so the head request (row 5) is a conflict that
        // cannot precharge before tRAS.
        ch.issue(&Command::activate(Location::new(0, 0, 9, 0)), 0);
        push(&mut rq, 1, 0, 5, 0);
        push(&mut rq, 2, 1, 7, 1); // different bank, could proceed

        // Head request is blocked (tRAS not elapsed), so strict FCFS idles.
        // Cycle 5 respects tRRD after the activate at cycle 0.
        let banks = BankTable::scan(&ch, &rq, &wq);
        assert!(pick(&ctx(&ch, &rq, &wq, &banks, 5)).is_none());
        // FCFS_banks instead activates bank 1 for request 2.
        let banks = BankTable::scan(&ch, &rq, &wq);
        let d = pick_banks(&ctx(&ch, &rq, &wq, &banks, 5)).unwrap();
        assert_eq!(d.command, Command::activate(Location::new(0, 1, 7, 0)));
    }

    #[test]
    fn fcfs_banks_does_not_reorder_within_a_bank() {
        let cfg = DramConfig::baseline();
        let mut ch = DramChannel::new(&cfg);
        let mut rq = RequestQueue::new(16);
        let wq = RequestQueue::new(16);
        // Row 9 open in bank 0; the oldest request for bank 0 targets row 5
        // (a conflict) while a younger one targets the open row 9 (a hit).
        ch.issue(&Command::activate(Location::new(0, 0, 9, 0)), 0);
        push(&mut rq, 1, 0, 5, 0);
        push(&mut rq, 2, 0, 9, 1);
        let now = cfg.timing.t_ras;
        let banks = BankTable::scan(&ch, &rq, &wq);
        let d = pick_banks(&ctx(&ch, &rq, &wq, &banks, now)).unwrap();
        // FCFS_banks serves the older conflict first (precharge), it never
        // promotes the younger hit.
        assert_eq!(d.command, Command::precharge(Location::new(0, 0, 5, 0)));
        assert_eq!(d.request_id, None);
    }

    #[test]
    fn fcfs_serves_head_when_ready() {
        let cfg = DramConfig::baseline();
        let mut ch = DramChannel::new(&cfg);
        let mut rq = RequestQueue::new(16);
        let wq = RequestQueue::new(16);
        ch.issue(&Command::activate(Location::new(0, 0, 5, 0)), 0);
        push(&mut rq, 1, 0, 5, 0);
        let banks = BankTable::scan(&ch, &rq, &wq);
        let d = pick(&ctx(&ch, &rq, &wq, &banks, cfg.timing.t_rcd)).unwrap();
        assert_eq!(d.request_id, Some(1));
    }

    #[test]
    fn empty_queue_returns_none() {
        let cfg = DramConfig::baseline();
        let ch = DramChannel::new(&cfg);
        let rq = RequestQueue::new(4);
        let wq = RequestQueue::new(4);
        let banks = BankTable::scan(&ch, &rq, &wq);
        assert!(pick(&ctx(&ch, &rq, &wq, &banks, 0)).is_none());
        let banks = BankTable::scan(&ch, &rq, &wq);
        assert!(pick_banks(&ctx(&ch, &rq, &wq, &banks, 0)).is_none());
    }
}
