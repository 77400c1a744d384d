//! Per-bank state machine and timing bookkeeping.

use cloudmc_snap::{snap_fields, Snap, SnapError, SnapReader, SnapWriter};

use crate::timing::{DramCycles, TimingParams};

/// The row-buffer state of a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BankState {
    /// All rows closed; the bank can accept an ACTIVATE.
    Idle,
    /// A row is open in the row buffer.
    Active {
        /// Index of the open row.
        row: u64,
    },
}

/// A single DRAM bank.
///
/// The bank tracks its row-buffer state plus the earliest cycle at which each
/// command class may be issued to it as far as the bank is concerned.
/// [`crate::channel::DramChannel::earliest_legal`] combines these with the
/// rank- and channel-level fences (tRRD, tFAW, bus occupancy, turnaround).
#[derive(Debug, Clone)]
pub struct Bank {
    state: BankState,
    next_activate: DramCycles,
    next_read: DramCycles,
    next_write: DramCycles,
    next_precharge: DramCycles,
    /// Number of column accesses the currently/last activated row received.
    accesses_since_activate: u64,
    /// Total ACTIVATE commands issued to this bank.
    activations: u64,
}

impl Bank {
    /// Creates an idle bank with no timing restrictions.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: BankState::Idle,
            next_activate: 0,
            next_read: 0,
            next_write: 0,
            next_precharge: 0,
            accesses_since_activate: 0,
            activations: 0,
        }
    }

    /// Current row-buffer state.
    #[must_use]
    pub fn state(&self) -> BankState {
        self.state
    }

    /// The open row, if any.
    #[must_use]
    pub fn open_row(&self) -> Option<u64> {
        match self.state {
            BankState::Active { row } => Some(row),
            BankState::Idle => None,
        }
    }

    /// Number of column accesses performed on the currently open row.
    #[must_use]
    pub fn accesses_since_activate(&self) -> u64 {
        self.accesses_since_activate
    }

    /// Total number of activations this bank has performed.
    #[must_use]
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Earliest cycle an ACTIVATE may be issued (bank-level constraints only).
    #[must_use]
    pub fn next_activate_allowed(&self) -> DramCycles {
        self.next_activate
    }

    /// Earliest cycle a READ may be issued (bank-level constraints only).
    #[must_use]
    pub fn next_read_allowed(&self) -> DramCycles {
        self.next_read
    }

    /// Earliest cycle a WRITE may be issued (bank-level constraints only).
    #[must_use]
    pub fn next_write_allowed(&self) -> DramCycles {
        self.next_write
    }

    /// Earliest cycle a PRECHARGE may be issued (bank-level constraints only).
    #[must_use]
    pub fn next_precharge_allowed(&self) -> DramCycles {
        self.next_precharge
    }

    /// Applies an ACTIVATE issued at `now`. Like every mutator here it
    /// trusts its caller: legality is checked once, by
    /// [`crate::channel::DramChannel::issue`].
    pub(crate) fn activate(&mut self, row: u64, now: DramCycles, t: &TimingParams) {
        self.state = BankState::Active { row };
        self.accesses_since_activate = 0;
        self.activations += 1;
        self.next_read = now + t.t_rcd;
        self.next_write = now + t.t_rcd;
        self.next_precharge = now + t.t_ras;
        self.next_activate = now + t.t_rc;
    }

    /// Applies a READ of the open row issued at `now`. Returns the cycle of
    /// the last data beat.
    pub(crate) fn read(
        &mut self,
        now: DramCycles,
        auto_precharge: bool,
        t: &TimingParams,
    ) -> DramCycles {
        self.accesses_since_activate += 1;
        self.next_read = self.next_read.max(now + t.t_ccd);
        self.next_write = self.next_write.max(now + t.t_ccd);
        self.next_precharge = self.next_precharge.max(now + t.t_rtp);
        if auto_precharge {
            let pre_start = self.next_precharge.max(now + t.t_rtp);
            self.state = BankState::Idle;
            self.next_activate = self.next_activate.max(pre_start + t.t_rp);
        }
        now + t.cl + t.t_burst
    }

    /// Applies a WRITE to the open row issued at `now`. Returns the cycle at
    /// which the write burst completes on the bus.
    pub(crate) fn write(
        &mut self,
        now: DramCycles,
        auto_precharge: bool,
        t: &TimingParams,
    ) -> DramCycles {
        self.accesses_since_activate += 1;
        self.next_read = self.next_read.max(now + t.write_to_read_same_rank());
        self.next_write = self.next_write.max(now + t.t_ccd);
        self.next_precharge = self.next_precharge.max(now + t.write_to_precharge());
        if auto_precharge {
            let pre_start = now + t.write_to_precharge();
            self.state = BankState::Idle;
            self.next_activate = self.next_activate.max(pre_start + t.t_rp);
        }
        now + t.cwl + t.t_burst
    }

    /// Applies a PRECHARGE issued at `now`. Returns the number of column
    /// accesses the closed row received since activation.
    pub(crate) fn precharge(&mut self, now: DramCycles, t: &TimingParams) -> u64 {
        self.state = BankState::Idle;
        self.next_activate = self.next_activate.max(now + t.t_rp);
        self.accesses_since_activate
    }

    /// Blocks the bank until `cycle` (used for refresh).
    pub fn block_until(&mut self, cycle: DramCycles) {
        self.next_activate = self.next_activate.max(cycle);
        self.next_read = self.next_read.max(cycle);
        self.next_write = self.next_write.max(cycle);
        self.next_precharge = self.next_precharge.max(cycle);
    }
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

impl Snap for BankState {
    const MIN_BYTES: usize = 1;

    fn save(&self, w: &mut SnapWriter) {
        match self {
            Self::Idle => w.u8(0),
            Self::Active { row } => {
                w.u8(1);
                row.save(w);
            }
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = match r.u8()? {
            0 => Self::Idle,
            1 => Self::Active { row: r.u64()? },
            other => return Err(r.bad_value(format!("bank state discriminant {other}"))),
        };
        Ok(())
    }
}

snap_fields! {
    Bank {
        saved: {
            state,
            next_activate,
            next_read,
            next_write,
            next_precharge,
            accesses_since_activate,
            activations,
        },
        skipped: {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TimingParams {
        TimingParams::ddr3_1600()
    }

    #[test]
    fn new_bank_is_idle_and_unrestricted() {
        let b = Bank::new();
        assert_eq!(b.state(), BankState::Idle);
        assert_eq!(b.open_row(), None);
        assert_eq!(b.next_activate_allowed(), 0);
    }

    #[test]
    fn activate_opens_row_and_enforces_trcd() {
        let mut b = Bank::new();
        let tp = t();
        b.activate(42, 100, &tp);
        assert_eq!(b.open_row(), Some(42));
        assert_eq!(b.next_read_allowed(), 100 + tp.t_rcd);
        assert_eq!(b.next_write_allowed(), 100 + tp.t_rcd);
    }

    #[test]
    fn precharge_respects_tras_and_trp() {
        let mut b = Bank::new();
        let tp = t();
        b.activate(1, 0, &tp);
        assert_eq!(b.next_precharge_allowed(), tp.t_ras);
        b.precharge(tp.t_ras, &tp);
        assert_eq!(b.state(), BankState::Idle);
        assert_eq!(b.next_activate_allowed(), tp.t_rc.max(tp.t_ras + tp.t_rp));
    }

    #[test]
    fn read_pushes_out_precharge_by_trtp() {
        let mut b = Bank::new();
        let tp = t();
        b.activate(1, 0, &tp);
        let done = b.read(20, false, &tp);
        assert_eq!(done, 20 + tp.cl + tp.t_burst);
        assert!(b.next_precharge_allowed() >= 20 + tp.t_rtp);
        assert_eq!(b.accesses_since_activate(), 1);
    }

    #[test]
    fn write_pushes_out_precharge_by_write_recovery() {
        let mut b = Bank::new();
        let tp = t();
        b.activate(1, 0, &tp);
        let done = b.write(20, false, &tp);
        assert_eq!(done, 20 + tp.cwl + tp.t_burst);
        assert_eq!(b.next_precharge_allowed(), 20 + tp.write_to_precharge());
    }

    #[test]
    fn auto_precharge_read_closes_row() {
        let mut b = Bank::new();
        let tp = t();
        b.activate(7, 0, &tp);
        b.read(15, true, &tp);
        assert_eq!(b.state(), BankState::Idle);
        // Reopening must wait for the implicit precharge to finish.
        assert!(b.next_activate_allowed() >= 15 + tp.t_rtp + tp.t_rp);
    }

    #[test]
    fn auto_precharge_write_closes_row() {
        let mut b = Bank::new();
        let tp = t();
        b.activate(7, 0, &tp);
        b.write(15, true, &tp);
        assert_eq!(b.state(), BankState::Idle);
        assert!(b.next_activate_allowed() >= 15 + tp.write_to_precharge() + tp.t_rp);
    }

    #[test]
    fn precharge_reports_access_count() {
        let mut b = Bank::new();
        let tp = t();
        b.activate(3, 0, &tp);
        b.read(20, false, &tp);
        b.read(30, false, &tp);
        b.write(40, false, &tp);
        let accesses = b.precharge(100, &tp);
        assert_eq!(accesses, 3);
        assert_eq!(b.activations(), 1);
    }

    #[test]
    fn block_until_delays_everything() {
        let mut b = Bank::new();
        b.block_until(500);
        assert_eq!(b.next_activate_allowed(), 500);
        assert_eq!(b.next_read_allowed(), 500);
        assert_eq!(b.next_write_allowed(), 500);
        assert_eq!(b.next_precharge_allowed(), 500);
    }
}
