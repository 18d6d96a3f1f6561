//! Per-bank state machine and timing registers.

use fasthash::codec::{put_u8, take_tag, CodecResult, State};
use fasthash::impl_state;

use crate::command::RowId;
use crate::timing::{ActTimings, TimingParams};
use crate::BusCycle;

/// Row-buffer state of a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankState {
    /// No row open; the bank can accept `ACT`.
    Precharged,
    /// A row is open in the row buffer.
    Active {
        /// The open row.
        row: RowId,
    },
}

/// One DRAM bank: state machine plus "earliest next command" registers.
///
/// The registers encode the *bank-scoped* DDR3 constraints; rank- and
/// channel-scoped constraints (`tRRD`, `tFAW`, `tCCD`, bus turnaround,
/// `tRFC`) live in [`crate::rank::Rank`] and [`crate::channel::Channel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bank {
    state: BankState,
    /// Earliest cycle an `ACT` may issue (tRP, tRC, tRFC).
    next_act: BusCycle,
    /// Earliest cycle a `PRE` may issue (tRAS, tRTP, write recovery).
    next_pre: BusCycle,
    /// Earliest cycle a `RD` may issue (tRCD).
    next_rd: BusCycle,
    /// Earliest cycle a `WR` may issue (tRCD).
    next_wr: BusCycle,
    /// Issue cycle of the current activation.
    act_at: BusCycle,
    /// Effective `tRAS` of the current activation (possibly reduced).
    cur_tras: u32,
}

impl Bank {
    /// A freshly precharged bank with all constraints satisfied at cycle 0.
    pub fn new() -> Self {
        Self {
            state: BankState::Precharged,
            next_act: 0,
            next_pre: 0,
            next_rd: 0,
            next_wr: 0,
            act_at: 0,
            cur_tras: 0,
        }
    }

    /// Current row-buffer state.
    pub fn state(&self) -> BankState {
        self.state
    }

    /// The open row, if any.
    pub fn open_row(&self) -> Option<RowId> {
        match self.state {
            BankState::Active { row } => Some(row),
            BankState::Precharged => None,
        }
    }

    /// True if the bank is precharged.
    pub fn is_precharged(&self) -> bool {
        matches!(self.state, BankState::Precharged)
    }

    /// Earliest cycle an `ACT` may issue, ignoring rank-level constraints.
    pub fn earliest_act(&self, now: BusCycle) -> BusCycle {
        self.next_act.max(now)
    }

    /// Earliest cycle a `PRE` may issue.
    pub fn earliest_pre(&self, now: BusCycle) -> BusCycle {
        self.next_pre.max(now)
    }

    /// Earliest cycle a `RD` may issue, ignoring rank-level constraints.
    pub fn earliest_rd(&self, now: BusCycle) -> BusCycle {
        self.next_rd.max(now)
    }

    /// Earliest cycle a `WR` may issue, ignoring rank-level constraints.
    pub fn earliest_wr(&self, now: BusCycle) -> BusCycle {
        self.next_wr.max(now)
    }

    /// Applies an `ACT` at `now` with the given effective timings.
    ///
    /// # Panics
    ///
    /// Panics if the bank is not precharged (callers must check legality
    /// through the device's `earliest_issue`).
    pub fn issue_act(&mut self, now: BusCycle, act: ActTimings, t: &TimingParams, row: RowId) {
        assert!(self.is_precharged(), "ACT to an active bank");
        self.state = BankState::Active { row };
        self.act_at = now;
        self.cur_tras = act.tras;
        self.next_rd = now + BusCycle::from(act.trcd);
        self.next_wr = now + BusCycle::from(act.trcd);
        self.next_pre = now + BusCycle::from(act.tras);
        // Effective row-cycle time shrinks with a reduced tRAS: the next
        // ACT is gated by the (possibly earlier) precharge completing.
        let tras_cut = t.tras.saturating_sub(act.tras);
        let eff_trc = t.trc.saturating_sub(tras_cut).max(act.tras + t.trp);
        self.next_act = now + BusCycle::from(eff_trc);
    }

    /// Applies a `PRE` at `now`. Returns the row that was closed.
    ///
    /// # Panics
    ///
    /// Panics if the bank has no open row.
    pub fn issue_pre(&mut self, now: BusCycle, t: &TimingParams) -> RowId {
        let row = self.open_row().expect("PRE to a precharged bank");
        self.state = BankState::Precharged;
        self.next_act = self.next_act.max(now + BusCycle::from(t.trp));
        row
    }

    /// Applies a `RD` at `now`. With `auto_pre`, schedules the internal
    /// precharge and returns `(row, precharge_start_cycle)`.
    ///
    /// # Panics
    ///
    /// Panics if the bank has no open row.
    pub fn issue_rd(
        &mut self,
        now: BusCycle,
        t: &TimingParams,
        auto_pre: bool,
    ) -> Option<(RowId, BusCycle)> {
        let row = self.open_row().expect("RD to a precharged bank");
        if auto_pre {
            let pre_start =
                (now + BusCycle::from(t.trtp)).max(self.act_at + BusCycle::from(self.cur_tras));
            self.state = BankState::Precharged;
            self.next_act = self.next_act.max(pre_start + BusCycle::from(t.trp));
            Some((row, pre_start))
        } else {
            // A later explicit PRE must respect read-to-precharge.
            self.next_pre = self.next_pre.max(now + BusCycle::from(t.trtp));
            None
        }
    }

    /// Applies a `WR` at `now`. With `auto_pre`, schedules the internal
    /// precharge and returns `(row, precharge_start_cycle)`.
    ///
    /// # Panics
    ///
    /// Panics if the bank has no open row.
    pub fn issue_wr(
        &mut self,
        now: BusCycle,
        t: &TimingParams,
        auto_pre: bool,
    ) -> Option<(RowId, BusCycle)> {
        let row = self.open_row().expect("WR to a precharged bank");
        let recovery = now + BusCycle::from(t.tcwl + t.tbl + t.twr);
        if auto_pre {
            let pre_start = recovery.max(self.act_at + BusCycle::from(self.cur_tras));
            self.state = BankState::Precharged;
            self.next_act = self.next_act.max(pre_start + BusCycle::from(t.trp));
            Some((row, pre_start))
        } else {
            self.next_pre = self.next_pre.max(recovery);
            None
        }
    }

    /// Applies the effect of a rank-level `REF` completing at
    /// `now + tRFC`: the bank cannot activate until then.
    pub fn apply_refresh(&mut self, now: BusCycle, t: &TimingParams) {
        self.apply_refresh_lockout(now, t.trfc);
    }

    /// Applies a refresh lockout of `lockout` cycles starting at `now`:
    /// the bank cannot activate until it elapses. Used directly by
    /// per-bank refresh (`tRFCpb`) and via [`Self::apply_refresh`]
    /// (`tRFC`) by all-bank refresh.
    pub fn apply_refresh_lockout(&mut self, now: BusCycle, lockout: u32) {
        debug_assert!(self.is_precharged(), "REF with an active bank");
        self.next_act = self.next_act.max(now + BusCycle::from(lockout));
    }
}

impl State for BankState {
    fn put(&self, out: &mut Vec<u8>) {
        match *self {
            BankState::Precharged => put_u8(out, 0),
            BankState::Active { row } => (1u8, row).put(out),
        }
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        *self = match take_tag(input, 1, "bank state")? {
            0 => BankState::Precharged,
            _ => BankState::Active {
                row: u32::take(input)?,
            },
        };
        Ok(())
    }
}

impl_state!(Bank {
    state,
    next_act,
    next_pre,
    next_rd,
    next_wr,
    act_at,
    cur_tras
});

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TimingParams {
        TimingParams::ddr3_1600()
    }

    #[test]
    fn act_opens_row_and_sets_gates() {
        let t = t();
        let mut b = Bank::new();
        b.issue_act(10, t.act_timings(), &t, 5);
        assert_eq!(b.open_row(), Some(5));
        assert_eq!(b.earliest_rd(0), 10 + u64::from(t.trcd));
        assert_eq!(b.earliest_pre(0), 10 + u64::from(t.tras));
        assert_eq!(b.earliest_act(0), 10 + u64::from(t.trc));
    }

    #[test]
    fn pre_closes_row_and_gates_act() {
        let t = t();
        let mut b = Bank::new();
        b.issue_act(0, t.act_timings(), &t, 5);
        let pre_at = b.earliest_pre(0);
        let row = b.issue_pre(pre_at, &t);
        assert_eq!(row, 5);
        assert!(b.is_precharged());
        assert_eq!(b.earliest_act(0), pre_at + u64::from(t.trp));
    }

    #[test]
    fn read_to_precharge_respects_trtp() {
        let t = t();
        let mut b = Bank::new();
        b.issue_act(0, t.act_timings(), &t, 5);
        let rd_at = 10 + u64::from(t.trcd) + 100; // late read
        b.issue_rd(rd_at, &t, false);
        assert_eq!(b.earliest_pre(0), rd_at + u64::from(t.trtp));
    }

    #[test]
    fn write_recovery_gates_precharge() {
        let t = t();
        let mut b = Bank::new();
        b.issue_act(0, t.act_timings(), &t, 5);
        let wr_at = u64::from(t.trcd);
        b.issue_wr(wr_at, &t, false);
        assert_eq!(b.earliest_pre(0), wr_at + u64::from(t.tcwl + t.tbl + t.twr));
    }

    #[test]
    fn auto_precharge_waits_for_tras() {
        let t = t();
        let mut b = Bank::new();
        b.issue_act(0, t.act_timings(), &t, 5);
        // Early read: the internal precharge must still wait for tRAS.
        let rd_at = u64::from(t.trcd);
        let (row, pre_start) = b.issue_rd(rd_at, &t, true).unwrap();
        assert_eq!(row, 5);
        assert_eq!(pre_start, u64::from(t.tras));
        assert!(b.is_precharged());
        assert_eq!(b.earliest_act(0), pre_start + u64::from(t.trp));
    }

    #[test]
    fn auto_precharge_with_reduced_tras_starts_earlier() {
        let t = t();
        let mut b = Bank::new();
        let red = t.act_timings().reduced_by(4, 8);
        b.issue_act(0, red, &t, 5);
        let rd_at = u64::from(red.trcd);
        let (_, pre_start) = b.issue_rd(rd_at, &t, true).unwrap();
        assert_eq!(pre_start, u64::from(t.tras - 8));
    }

    #[test]
    fn refresh_gates_activation() {
        let t = t();
        let mut b = Bank::new();
        b.apply_refresh(100, &t);
        assert_eq!(b.earliest_act(0), 100 + u64::from(t.trfc));
    }

    #[test]
    fn per_bank_refresh_lockout_uses_given_cycles() {
        let t = t();
        let mut b = Bank::new();
        b.apply_refresh_lockout(100, t.trfcpb / 2);
        assert_eq!(b.earliest_act(0), 100 + u64::from(t.trfcpb / 2));
    }

    #[test]
    #[should_panic(expected = "ACT to an active bank")]
    fn double_act_panics() {
        let t = t();
        let mut b = Bank::new();
        b.issue_act(0, t.act_timings(), &t, 1);
        b.issue_act(1, t.act_timings(), &t, 2);
    }
}
