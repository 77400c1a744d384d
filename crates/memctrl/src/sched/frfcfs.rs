//! First-Ready First-Come-First-Served scheduling (Rixner et al.), the
//! paper's baseline.

use crate::sched::{first_ready, SchedContext, SchedDecision};

/// FR-FCFS: column commands that hit an open row are prioritized over
/// activates/precharges for older requests; within each class, older requests
/// win.
///
/// This maximizes row-buffer hit rate and DRAM throughput, which the paper
/// finds to be the best fit for scale-out workloads.
#[must_use]
pub fn pick(ctx: &SchedContext<'_>) -> Option<SchedDecision> {
    // Queue iteration order is arrival order, so `first_ready` yields the
    // oldest ready column command, else the oldest ready activate, else
    // the oldest ready precharge: exactly FR-FCFS.
    first_ready(ctx.active_queue().iter(), ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::RequestQueue;
    use crate::request::{AccessKind, MemoryRequest};
    use cloudmc_dram::{Command, DramChannel, DramConfig, Location};

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
        now: u64,
    ) -> SchedContext<'a> {
        SchedContext::new(now, ch, rq, wq, false, 16)
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
        let d = pick(&ctx(&ch, &rq, &wq, now)).unwrap();
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
        let d = pick(&ctx(&ch, &rq, &wq, 10)).unwrap();
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
        let d = pick(&ctx(&ch, &rq, &wq, cfg.timing.t_rcd)).unwrap();
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
        let c = SchedContext {
            write_mode: true,
            ..ctx(&ch, &rq, &wq, 0)
        };
        let d = pick(&c).unwrap();
        assert_eq!(d.command, Command::activate(Location::new(0, 1, 3, 0)));
    }
}
