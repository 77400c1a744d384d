//! First-Ready First-Come-First-Served scheduling (Rixner et al.), the
//! paper's baseline.

use cloudmc_dram::{Command, Location};

use crate::queue::key_row;
use crate::request::AccessKind;
use crate::sched::{progress_command, SchedContext, SchedDecision};

/// FR-FCFS: column commands that hit an open row are prioritized over
/// activates/precharges for older requests; within each class, older requests
/// win.
///
/// This maximizes row-buffer hit rate and DRAM throughput, which the paper
/// finds to be the best fit for scale-out workloads.
///
/// It is what [`crate::sched::first_ready`] over the active queue in arrival
/// order returns — the oldest ready column access, else the oldest ready
/// activate, else the oldest ready precharge — without testing each entry.
/// Every entry of one bank and class (a column access to the open row, an
/// activate at a closed bank, a precharge of an open bank another row is
/// wanted at) issues the same command kind at the same bank, so all of them
/// share one legality: the pick checks it once per (bank, class) from the
/// channel's [`crate::bank_table::BankTable`], lowers the wait bound with
/// every (bank, class) found not ready, and then finds the oldest entry of
/// the first class with a ready bank in one scan of the packed keys.
#[must_use]
pub fn pick(ctx: &SchedContext<'_>) -> Option<SchedDecision> {
    let table = ctx.banks;
    let kind = ctx.active_kind();
    let columns = ready_banks(ctx, table.hits(kind), |loc| match kind {
        AccessKind::Read => Command::read(loc, false),
        AccessKind::Write => Command::write(loc, false),
    });
    if columns != 0 {
        return oldest(ctx, columns, |key, open| key == open);
    }
    let activates = ready_banks(ctx, table.pending(kind) & !table.open(), Command::activate);
    if activates != 0 {
        return oldest(ctx, activates, |_, _| true);
    }
    let precharges = ready_banks(ctx, table.conflicts(kind), Command::precharge);
    if precharges != 0 {
        return oldest(ctx, precharges, |key, open| key != open);
    }
    None
}

/// The banks of `mask` at which `command` (built for the bank, at its open
/// row if any) is legal now. Each bank found not ready lowers the wait bound
/// to the cycle its command becomes legal.
fn ready_banks(ctx: &SchedContext<'_>, mask: u64, command: impl Fn(Location) -> Command) -> u64 {
    let table = ctx.banks;
    let banks_per_rank = table.banks_per_rank();
    let bus_free = ctx.channel.command_bus_free(ctx.now);
    let mut ready = 0u64;
    let mut rest = mask;
    while rest != 0 {
        let flat = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        let row = key_row(table.open_key(flat));
        let loc = Location::new(flat / banks_per_rank, flat % banks_per_rank, row, 0);
        ctx.add_work(0, 0, 1);
        let Some(legal) = ctx.channel.earliest_legal(&command(loc)) else {
            continue;
        };
        if legal <= ctx.now && bus_free {
            ready |= 1 << flat;
        } else {
            ctx.wait.set(ctx.wait.get().min(legal));
        }
    }
    ready
}

/// The decision serving the oldest entry of the active queue at a bank of
/// `ready` whose key the class `wants` (given the bank's open key): one scan
/// of the packed keys, and only the winner's entry is read.
fn oldest(
    ctx: &SchedContext<'_>,
    ready: u64,
    wants: impl Fn(u64, u64) -> bool,
) -> Option<SchedDecision> {
    let table = ctx.banks;
    let queue = ctx.active_queue();
    let position = queue.keys().iter().position(|&key| {
        let flat = table.flat(key);
        ready & (1 << flat) != 0 && wants(key, table.open_key(flat))
    })?;
    ctx.add_work(1, position as u64 + 1, 0);
    let entry = queue.iter().nth(position)?;
    let command = progress_command(entry, ctx.channel);
    Some(SchedDecision {
        command,
        request_id: command.kind.is_column().then_some(entry.request.id),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank_table::BankTable;
    use crate::queue::RequestQueue;
    use crate::request::MemoryRequest;
    use cloudmc_dram::{DramChannel, DramConfig};

    fn push(q: &mut RequestQueue, id: u64, bank: usize, row: u64, at: u64) {
        q.push(
            MemoryRequest::new(id, AccessKind::Read, 0, 0, at),
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
    fn prefers_younger_row_hit_over_older_conflict() {
        let cfg = DramConfig::baseline();
        let mut ch = DramChannel::new(&cfg);
        let mut rq = RequestQueue::new(16);
        let wq = RequestQueue::new(16);
        ch.issue(&Command::activate(Location::new(0, 0, 9, 0)), 0);
        // Older request conflicts with the open row; younger request hits it.
        push(&mut rq, 1, 0, 5, 0);
        push(&mut rq, 2, 0, 9, 1);
        let now = cfg.timing.t_ras; // precharge for request 1 would be legal
        let banks = BankTable::scan(&ch, &rq, &wq);
        let d = pick(&ctx(&ch, &rq, &wq, &banks, now)).unwrap();
        assert_eq!(d.request_id, Some(2), "FR-FCFS must promote the row hit");
    }

    #[test]
    fn falls_back_to_oldest_activate_when_no_hits() {
        let cfg = DramConfig::baseline();
        let ch = DramChannel::new(&cfg);
        let mut rq = RequestQueue::new(16);
        let wq = RequestQueue::new(16);
        push(&mut rq, 1, 2, 5, 0);
        push(&mut rq, 2, 3, 7, 1);
        let banks = BankTable::scan(&ch, &rq, &wq);
        let d = pick(&ctx(&ch, &rq, &wq, &banks, 10)).unwrap();
        assert_eq!(d.command, Command::activate(Location::new(0, 2, 5, 0)));
    }

    #[test]
    fn ages_break_ties_between_hits() {
        let cfg = DramConfig::baseline();
        let mut ch = DramChannel::new(&cfg);
        let mut rq = RequestQueue::new(16);
        let wq = RequestQueue::new(16);
        ch.issue(&Command::activate(Location::new(0, 0, 9, 0)), 0);
        push(&mut rq, 1, 0, 9, 0);
        push(&mut rq, 2, 0, 9, 1);
        let banks = BankTable::scan(&ch, &rq, &wq);
        let d = pick(&ctx(&ch, &rq, &wq, &banks, cfg.timing.t_rcd)).unwrap();
        assert_eq!(d.request_id, Some(1));
    }

    #[test]
    fn serves_write_queue_in_write_mode() {
        let cfg = DramConfig::baseline();
        let ch = DramChannel::new(&cfg);
        let rq = RequestQueue::new(16);
        let mut wq = RequestQueue::new(16);
        wq.push(
            MemoryRequest::new(7, AccessKind::Write, 0, 0, 0),
            Location::new(0, 1, 3, 0),
            0,
        )
        .unwrap();
        let banks = BankTable::scan(&ch, &rq, &wq);
        let c = SchedContext {
            write_mode: true,
            ..ctx(&ch, &rq, &wq, &banks, 0)
        };
        let d = pick(&c).unwrap();
        assert_eq!(d.command, Command::activate(Location::new(0, 1, 3, 0)));
    }
}
