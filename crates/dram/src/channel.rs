//! Per-channel state: ranks plus the shared command/data buses.

use fasthash::codec::{load_slice, put_slice, CodecResult, State};

use crate::command::Command;
use crate::config::DramConfig;
use crate::error::IssueError;
use crate::rank::Rank;
use crate::timing::{ActTimings, TimingParams};
use crate::{BusCycle, IssueOutcome};

/// One memory channel: independent command/address/data buses shared by
/// the channel's ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Channel {
    ranks: Vec<Rank>,
    /// Cycle until which the data bus is occupied (exclusive).
    data_bus_busy_until: BusCycle,
    /// Rank that last drove the data bus (for tRTRS).
    last_data_rank: Option<u8>,
    /// Cycle of the last command on the command bus.
    last_cmd_at: Option<BusCycle>,
}

impl Channel {
    /// Creates a channel for the given configuration.
    pub fn new(cfg: &DramConfig) -> Self {
        Self {
            ranks: (0..cfg.org.ranks).map(|_| Rank::new(cfg)).collect(),
            data_bus_busy_until: 0,
            last_data_rank: None,
            last_cmd_at: None,
        }
    }

    /// Immutable access to a rank.
    pub fn rank(&self, rank: u8) -> &Rank {
        &self.ranks[rank as usize]
    }

    /// Earliest cycle (≥ `now`) at which `cmd` could legally issue on this
    /// channel.
    ///
    /// # Errors
    ///
    /// Returns an [`IssueError`] if the command is structurally illegal in
    /// the current state (see [`IssueError`] for the cases).
    pub fn earliest_issue(
        &self,
        cmd: &Command,
        now: BusCycle,
        t: &TimingParams,
    ) -> Result<BusCycle, IssueError> {
        // One command per cycle on the command bus.
        let cmd_bus = match self.last_cmd_at {
            Some(at) if at >= now => at + 1,
            _ => now,
        };
        let earliest = match *cmd {
            Command::Act { loc, row } => {
                let rank = &self.ranks[loc.rank as usize];
                if let Some(open) = rank.bank(loc.bank).open_row() {
                    return Err(IssueError::RowAlreadyOpen {
                        loc,
                        open_row: open,
                    });
                }
                let _ = row;
                rank.earliest_act(loc.bank, now, t)
            }
            Command::Pre { loc } => {
                let rank = &self.ranks[loc.rank as usize];
                if rank.bank(loc.bank).open_row().is_none() {
                    return Err(IssueError::NoOpenRow { loc });
                }
                rank.bank(loc.bank).earliest_pre(now)
            }
            Command::PreAll { rank } => {
                let r = &self.ranks[rank.rank as usize];
                (0..r.num_banks() as u8)
                    .filter(|&b| r.bank(b).open_row().is_some())
                    .map(|b| r.bank(b).earliest_pre(now))
                    .max()
                    .unwrap_or(now)
            }
            Command::Rd { loc, .. } => {
                let rank = &self.ranks[loc.rank as usize];
                if rank.bank(loc.bank).open_row().is_none() {
                    return Err(IssueError::NoOpenRow { loc });
                }
                let mut at = rank.earliest_rd(loc.bank, now);
                at = at.max(self.data_bus_ready(loc.rank, at, t, t.tcl));
                at
            }
            Command::Wr { loc, .. } => {
                let rank = &self.ranks[loc.rank as usize];
                if rank.bank(loc.bank).open_row().is_none() {
                    return Err(IssueError::NoOpenRow { loc });
                }
                let mut at = rank.earliest_wr(loc.bank, now);
                at = at.max(self.data_bus_ready(loc.rank, at, t, t.tcwl));
                at
            }
            Command::Ref { rank } => {
                let r = &self.ranks[rank.rank as usize];
                if r.per_bank_refresh() {
                    // REFpb needs only its target bank precharged.
                    let target = r.refresh_target().unwrap_or(0);
                    if !r.bank(target).is_precharged() {
                        return Err(IssueError::BanksNotPrecharged {
                            channel: rank.channel,
                            rank: rank.rank,
                        });
                    }
                } else if !r.all_banks_precharged() {
                    return Err(IssueError::BanksNotPrecharged {
                        channel: rank.channel,
                        rank: rank.rank,
                    });
                }
                r.earliest_ref(now)
            }
        };
        Ok(earliest.max(cmd_bus))
    }

    /// Applies `cmd` at `now`. The caller must have verified legality.
    pub fn issue(
        &mut self,
        cmd: &Command,
        now: BusCycle,
        t: &TimingParams,
        act: ActTimings,
    ) -> IssueOutcome {
        self.last_cmd_at = Some(now);
        let mut out = IssueOutcome::default();
        match *cmd {
            Command::Act { loc, row } => {
                self.ranks[loc.rank as usize].issue_act(loc.bank, now, act, t, row);
            }
            Command::Pre { loc } => {
                let row = self.ranks[loc.rank as usize]
                    .bank_mut(loc.bank)
                    .issue_pre(now, t);
                out.closed_rows.push((loc, row, now));
            }
            Command::PreAll { rank } => {
                let r = &mut self.ranks[rank.rank as usize];
                for b in 0..r.num_banks() as u8 {
                    if r.bank(b).open_row().is_some() {
                        let row = r.bank_mut(b).issue_pre(now, t);
                        out.closed_rows.push((
                            crate::BankLoc {
                                channel: rank.channel,
                                rank: rank.rank,
                                bank: b,
                            },
                            row,
                            now,
                        ));
                    }
                }
            }
            Command::Rd { loc, auto_pre, .. } => {
                if let Some((row, at)) =
                    self.ranks[loc.rank as usize].issue_rd(loc.bank, now, t, auto_pre)
                {
                    out.closed_rows.push((loc, row, at));
                }
                let burst_end = now + BusCycle::from(t.tcl + t.tbl);
                self.data_bus_busy_until = burst_end;
                self.last_data_rank = Some(loc.rank);
                out.data_at = Some(burst_end);
            }
            Command::Wr { loc, auto_pre, .. } => {
                if let Some((row, at)) =
                    self.ranks[loc.rank as usize].issue_wr(loc.bank, now, t, auto_pre)
                {
                    out.closed_rows.push((loc, row, at));
                }
                let burst_end = now + BusCycle::from(t.tcwl + t.tbl);
                self.data_bus_busy_until = burst_end;
                self.last_data_rank = Some(loc.rank);
                out.write_done_at = Some(burst_end);
            }
            Command::Ref { rank } => {
                let (first_row, count, bank) = self.ranks[rank.rank as usize].issue_ref(now, t);
                out.refreshed = Some((first_row, count));
                out.refreshed_bank = bank;
            }
        }
        out
    }

    /// Earliest issue cycle such that a burst with the given CAS latency
    /// does not collide with the previous burst on the data bus.
    fn data_bus_ready(&self, rank: u8, at: BusCycle, t: &TimingParams, cas: u32) -> BusCycle {
        let mut free = self.data_bus_busy_until;
        if let Some(last) = self.last_data_rank {
            if last != rank {
                free += BusCycle::from(t.trtrs);
            }
        }
        // Burst begins at issue + cas; it must begin at or after `free`.
        if at + BusCycle::from(cas) >= free {
            at
        } else {
            free - BusCycle::from(cas)
        }
    }
}

/// The channel's mutable state (checkpoint support).
impl State for Channel {
    fn put(&self, out: &mut Vec<u8>) {
        put_slice(out, &self.ranks);
        self.data_bus_busy_until.put(out);
        self.last_data_rank.put(out);
        self.last_cmd_at.put(out);
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        load_slice(input, &mut self.ranks, |n, have| {
            format!("rank count mismatch: checkpoint has {n}, channel has {have}")
        })?;
        self.data_bus_busy_until.load(input)?;
        self.last_data_rank.load(input)?;
        self.last_cmd_at.load(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::BankLoc;
    use crate::config::DramConfig;

    fn setup() -> (Channel, TimingParams) {
        let cfg = DramConfig::ddr3_1600_paper();
        (Channel::new(&cfg), cfg.timing)
    }

    fn loc(bank: u8) -> BankLoc {
        BankLoc {
            channel: 0,
            rank: 0,
            bank,
        }
    }

    #[test]
    fn command_bus_serializes_same_cycle() {
        let (mut ch, t) = setup();
        ch.issue(&Command::act(loc(0), 1), 0, &t, t.act_timings());
        ch.issue(&Command::act(loc(1), 1), 5, &t, t.act_timings());
        // Long after every timing constraint has drained, two precharges
        // still cannot share a command-bus cycle.
        ch.issue(&Command::pre(loc(0)), 100, &t, t.act_timings());
        let e = ch.earliest_issue(&Command::pre(loc(1)), 100, &t).unwrap();
        assert_eq!(e, 101);
    }

    #[test]
    fn preall_reports_every_open_row() {
        let (mut ch, t) = setup();
        ch.issue(&Command::act(loc(0), 10), 0, &t, t.act_timings());
        ch.issue(&Command::act(loc(1), 20), 5, &t, t.act_timings());
        let at = ch
            .earliest_issue(
                &Command::PreAll {
                    rank: loc(0).rank_loc(),
                },
                0,
                &t,
            )
            .unwrap();
        let out = ch.issue(
            &Command::PreAll {
                rank: loc(0).rank_loc(),
            },
            at,
            &t,
            t.act_timings(),
        );
        assert_eq!(out.closed_rows.len(), 2);
        assert!(out
            .closed_rows
            .iter()
            .any(|&(l, r, _)| l == loc(0) && r == 10));
        assert!(out
            .closed_rows
            .iter()
            .any(|&(l, r, _)| l == loc(1) && r == 20));
    }

    #[test]
    fn read_returns_data_after_cl_plus_burst() {
        let (mut ch, t) = setup();
        ch.issue(&Command::act(loc(0), 1), 0, &t, t.act_timings());
        let rd_at = ch.earliest_issue(&Command::rd(loc(0), 0), 0, &t).unwrap();
        let out = ch.issue(&Command::rd(loc(0), 0), rd_at, &t, t.act_timings());
        assert_eq!(out.data_at, Some(rd_at + u64::from(t.tcl + t.tbl)));
    }

    #[test]
    fn refresh_blocked_until_banks_precharged() {
        let (mut ch, t) = setup();
        ch.issue(&Command::act(loc(0), 1), 0, &t, t.act_timings());
        let rf = Command::Ref {
            rank: loc(0).rank_loc(),
        };
        assert!(matches!(
            ch.earliest_issue(&rf, 10, &t),
            Err(IssueError::BanksNotPrecharged { .. })
        ));
    }
}
