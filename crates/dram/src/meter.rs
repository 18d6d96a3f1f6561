//! The device's energy meter: the command history an energy model
//! needs, folded as each command issues, in a size fixed by the
//! organization instead of growing with the run.
//!
//! Per rank it keeps the open-bank occupancy that background energy
//! integrates (the cycle of the rank's last command, how many banks
//! that command left open, and the cycles accumulated with at least one
//! bank open); per command kind, a count. Folding a command log through
//! [`EnergyMeter::record`] yields the same meter as issuing those
//! commands, so the energy model prices one thing either way.

use fasthash::codec::{load_slice, put_slice, CodecResult, State};
use fasthash::impl_state;

use crate::command::CommandKind;
use crate::config::Organization;
use crate::BusCycle;

/// One rank's open-bank occupancy, as folded so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankActivity {
    /// Issue cycle of the rank's last command.
    pub last: BusCycle,
    /// Banks left open by that command (auto-precharges close one,
    /// never below zero).
    pub open_banks: u32,
    /// Cycles between commands during which a bank was open.
    pub active_cycles: u64,
}

/// Per-rank occupancy and per-kind command counts of the commands
/// issued since the meter was last reset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnergyMeter {
    ranks_per_channel: usize,
    /// One entry per rank, channel-major.
    ranks: Vec<RankActivity>,
    /// Commands issued, indexed by `CommandKind as usize`.
    counts: [u64; 8],
}

impl EnergyMeter {
    /// An empty meter for every rank of `org`.
    pub fn new(org: &Organization) -> Self {
        let ranks_per_channel = usize::from(org.ranks);
        Self {
            ranks_per_channel,
            ranks: vec![RankActivity::default(); usize::from(org.channels) * ranks_per_channel],
            counts: [0; 8],
        }
    }

    /// Folds one command issued at `at` on `channel`/`rank`.
    ///
    /// # Panics
    ///
    /// Panics if the rank lies outside the organization the meter was
    /// built for.
    #[inline]
    pub fn record(&mut self, at: BusCycle, kind: CommandKind, channel: u8, rank: u8) {
        let index = usize::from(channel) * self.ranks_per_channel + usize::from(rank);
        assert!(
            usize::from(rank) < self.ranks_per_channel && index < self.ranks.len(),
            "command for channel {channel} rank {rank} outside the organization"
        );
        let r = &mut self.ranks[index];
        if r.open_banks > 0 {
            r.active_cycles += at - r.last;
        }
        r.open_banks = match kind {
            CommandKind::Act => r.open_banks + 1,
            CommandKind::Pre | CommandKind::RdA | CommandKind::WrA => {
                r.open_banks.saturating_sub(1)
            }
            CommandKind::PreAll => 0,
            _ => r.open_banks,
        };
        r.last = at;
        self.counts[kind as usize] += 1;
    }

    /// Forgets every command recorded so far.
    pub fn reset(&mut self) {
        self.ranks.fill(RankActivity::default());
        self.counts = [0; 8];
    }

    /// Every rank's occupancy, channel-major.
    pub fn ranks(&self) -> &[RankActivity] {
        &self.ranks
    }

    /// Commands of `kind` recorded.
    pub fn count(&self, kind: CommandKind) -> u64 {
        self.counts[kind as usize]
    }
}

impl_state!(RankActivity {
    last,
    open_banks,
    active_cycles
});

/// The per-rank occupancy (restored in place: the rank count is the
/// organization's) followed by the eight per-kind counts.
impl State for EnergyMeter {
    fn put(&self, out: &mut Vec<u8>) {
        put_slice(out, &self.ranks);
        self.counts.put(out);
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        load_slice(input, &mut self.ranks, |n, have| {
            format!("meter rank count mismatch: checkpoint has {n}, device has {have}")
        })?;
        self.counts.load(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_by_two() -> Organization {
        Organization {
            ranks: 2,
            ..Organization::paper(2)
        }
    }

    #[test]
    fn occupancy_accrues_only_while_a_bank_is_open() {
        let mut m = EnergyMeter::new(&two_by_two());
        m.record(10, CommandKind::Act, 1, 0);
        m.record(15, CommandKind::Act, 1, 0);
        m.record(30, CommandKind::Pre, 1, 0);
        m.record(50, CommandKind::RdA, 1, 0);
        m.record(80, CommandKind::Pre, 1, 0);
        let r = m.ranks()[2];
        assert_eq!((r.last, r.open_banks, r.active_cycles), (80, 0, 40));
        assert_eq!(m.count(CommandKind::Pre), 2);
        assert_eq!(m.ranks()[0], RankActivity::default());
        m.reset();
        assert_eq!(m, EnergyMeter::new(&two_by_two()));
    }

    #[test]
    fn state_round_trips_and_checks_the_rank_count() {
        let mut m = EnergyMeter::new(&two_by_two());
        m.record(7, CommandKind::Act, 0, 1);
        m.record(9, CommandKind::Ref, 1, 1);
        let mut bytes = Vec::new();
        m.put(&mut bytes);
        let mut back = EnergyMeter::new(&two_by_two());
        back.load(&mut bytes.as_slice()).unwrap();
        assert_eq!(back, m);
        let err = EnergyMeter::new(&Organization::paper(1))
            .load(&mut bytes.as_slice())
            .unwrap_err();
        assert!(err.contains("rank count mismatch"), "{err}");
    }

    #[test]
    #[should_panic(expected = "outside the organization")]
    fn a_rank_outside_the_organization_panics() {
        EnergyMeter::new(&Organization::paper(2)).record(0, CommandKind::Act, 0, 1);
    }
}
