//! DRAM commands and addressing coordinates.

use fasthash::codec::{put_u8, take_tag, CodecResult, State};
use fasthash::impl_state;

/// A DRAM row index within a bank.
pub type RowId = u32;

/// Coordinates of one bank in the memory system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BankLoc {
    /// Channel index.
    pub channel: u8,
    /// Rank index within the channel.
    pub rank: u8,
    /// Bank index within the rank.
    pub bank: u8,
}

impl BankLoc {
    /// The rank containing this bank.
    pub fn rank_loc(&self) -> RankLoc {
        RankLoc {
            channel: self.channel,
            rank: self.rank,
        }
    }

    /// Flat rank-major index of this bank within its channel
    /// (`rank * banks_per_rank + bank`). Controllers use it to key
    /// per-bank state vectors; inverse of [`BankLoc::from_flat_index`].
    pub fn flat_index(&self, banks_per_rank: u8) -> usize {
        usize::from(self.rank) * usize::from(banks_per_rank) + usize::from(self.bank)
    }

    /// Reconstructs the bank at flat rank-major `index` of `channel`.
    /// Inverse of [`BankLoc::flat_index`].
    pub fn from_flat_index(channel: u8, index: usize, banks_per_rank: u8) -> Self {
        Self {
            channel,
            rank: (index / usize::from(banks_per_rank)) as u8,
            bank: (index % usize::from(banks_per_rank)) as u8,
        }
    }
}

/// Coordinates of one rank in the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RankLoc {
    /// Channel index.
    pub channel: u8,
    /// Rank index within the channel.
    pub rank: u8,
}

/// The DDR3 command set used by the model.
///
/// `Rd`/`Wr` carry an `auto_pre` flag implementing the RDA/WRA variants:
/// the bank precharges itself as soon as `tRAS` and `tRTP`/`tWR` allow,
/// which the closed-row policy uses to avoid a separate PRE slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Command {
    /// Activate (open) `row` in a bank.
    Act {
        /// Target bank.
        loc: BankLoc,
        /// Row to open.
        row: RowId,
    },
    /// Precharge (close) the open row of a bank.
    Pre {
        /// Target bank.
        loc: BankLoc,
    },
    /// Precharge every bank in a rank.
    PreAll {
        /// Target rank.
        rank: RankLoc,
    },
    /// Read a column burst from the open row.
    Rd {
        /// Target bank.
        loc: BankLoc,
        /// Column (cache-line granularity).
        col: u32,
        /// Auto-precharge after the read (RDA).
        auto_pre: bool,
    },
    /// Write a column burst to the open row.
    Wr {
        /// Target bank.
        loc: BankLoc,
        /// Column (cache-line granularity).
        col: u32,
        /// Auto-precharge after the write (WRA).
        auto_pre: bool,
    },
    /// Auto-refresh the next row group of a rank.
    Ref {
        /// Target rank.
        rank: RankLoc,
    },
}

/// Discriminant of [`Command`], used for statistics and energy accounting.
/// Its checkpoint tag is the declaration index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CommandKind {
    /// Row activation.
    #[default]
    Act,
    /// Single-bank precharge.
    Pre,
    /// All-bank precharge.
    PreAll,
    /// Column read.
    Rd,
    /// Column read with auto-precharge.
    RdA,
    /// Column write.
    Wr,
    /// Column write with auto-precharge.
    WrA,
    /// Auto-refresh.
    Ref,
}

impl CommandKind {
    /// Every kind, in declaration (tag) order.
    const ALL: [CommandKind; 8] = [
        CommandKind::Act,
        CommandKind::Pre,
        CommandKind::PreAll,
        CommandKind::Rd,
        CommandKind::RdA,
        CommandKind::Wr,
        CommandKind::WrA,
        CommandKind::Ref,
    ];
}

impl State for CommandKind {
    fn put(&self, out: &mut Vec<u8>) {
        put_u8(out, *self as u8);
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        *self = Self::ALL[usize::from(take_tag(input, 7, "command kind")?)];
        Ok(())
    }
}

impl_state!(BankLoc {
    channel,
    rank,
    bank
});

impl Command {
    /// Convenience constructor for `ACT`.
    pub fn act(loc: BankLoc, row: RowId) -> Self {
        Command::Act { loc, row }
    }

    /// Convenience constructor for `PRE`.
    pub fn pre(loc: BankLoc) -> Self {
        Command::Pre { loc }
    }

    /// Convenience constructor for `RD` (no auto-precharge).
    pub fn rd(loc: BankLoc, col: u32) -> Self {
        Command::Rd {
            loc,
            col,
            auto_pre: false,
        }
    }

    /// Convenience constructor for `RDA`.
    pub fn rda(loc: BankLoc, col: u32) -> Self {
        Command::Rd {
            loc,
            col,
            auto_pre: true,
        }
    }

    /// Convenience constructor for `WR` (no auto-precharge).
    pub fn wr(loc: BankLoc, col: u32) -> Self {
        Command::Wr {
            loc,
            col,
            auto_pre: false,
        }
    }

    /// Convenience constructor for `WRA`.
    pub fn wra(loc: BankLoc, col: u32) -> Self {
        Command::Wr {
            loc,
            col,
            auto_pre: true,
        }
    }

    /// The command's kind discriminant.
    pub fn kind(&self) -> CommandKind {
        match self {
            Command::Act { .. } => CommandKind::Act,
            Command::Pre { .. } => CommandKind::Pre,
            Command::PreAll { .. } => CommandKind::PreAll,
            Command::Rd {
                auto_pre: false, ..
            } => CommandKind::Rd,
            Command::Rd { auto_pre: true, .. } => CommandKind::RdA,
            Command::Wr {
                auto_pre: false, ..
            } => CommandKind::Wr,
            Command::Wr { auto_pre: true, .. } => CommandKind::WrA,
            Command::Ref { .. } => CommandKind::Ref,
        }
    }

    /// The channel this command targets.
    pub fn channel(&self) -> u8 {
        match self {
            Command::Act { loc, .. }
            | Command::Pre { loc }
            | Command::Rd { loc, .. }
            | Command::Wr { loc, .. } => loc.channel,
            Command::PreAll { rank } | Command::Ref { rank } => rank.channel,
        }
    }

    /// The rank this command targets.
    pub fn rank(&self) -> u8 {
        match self {
            Command::Act { loc, .. }
            | Command::Pre { loc }
            | Command::Rd { loc, .. }
            | Command::Wr { loc, .. } => loc.rank,
            Command::PreAll { rank } | Command::Ref { rank } => rank.rank,
        }
    }

    /// The bank this command targets, if it is bank-scoped.
    pub fn bank(&self) -> Option<u8> {
        match self {
            Command::Act { loc, .. }
            | Command::Pre { loc }
            | Command::Rd { loc, .. }
            | Command::Wr { loc, .. } => Some(loc.bank),
            Command::PreAll { .. } | Command::Ref { .. } => None,
        }
    }
}

impl CommandKind {
    /// True for `Rd`/`RdA`.
    pub fn is_read(&self) -> bool {
        matches!(self, CommandKind::Rd | CommandKind::RdA)
    }

    /// True for `Wr`/`WrA`.
    pub fn is_write(&self) -> bool {
        matches!(self, CommandKind::Wr | CommandKind::WrA)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOC: BankLoc = BankLoc {
        channel: 1,
        rank: 0,
        bank: 5,
    };

    #[test]
    fn kinds_match_constructors() {
        assert_eq!(Command::act(LOC, 3).kind(), CommandKind::Act);
        assert_eq!(Command::pre(LOC).kind(), CommandKind::Pre);
        assert_eq!(Command::rd(LOC, 0).kind(), CommandKind::Rd);
        assert_eq!(Command::rda(LOC, 0).kind(), CommandKind::RdA);
        assert_eq!(Command::wr(LOC, 0).kind(), CommandKind::Wr);
        assert_eq!(Command::wra(LOC, 0).kind(), CommandKind::WrA);
    }

    #[test]
    fn scoping_accessors() {
        let cmd = Command::act(LOC, 3);
        assert_eq!(cmd.channel(), 1);
        assert_eq!(cmd.rank(), 0);
        assert_eq!(cmd.bank(), Some(5));

        let rf = Command::Ref {
            rank: LOC.rank_loc(),
        };
        assert_eq!(rf.channel(), 1);
        assert_eq!(rf.bank(), None);
    }

    #[test]
    fn read_write_predicates() {
        assert!(CommandKind::Rd.is_read());
        assert!(CommandKind::RdA.is_read());
        assert!(!CommandKind::Rd.is_write());
        assert!(CommandKind::WrA.is_write());
        assert!(!CommandKind::Ref.is_read());
    }

    #[test]
    fn flat_index_roundtrips_rank_major() {
        let banks = 8;
        let mut seen = vec![false; 2 * usize::from(banks)];
        for rank in 0..2u8 {
            for bank in 0..banks {
                let loc = BankLoc {
                    channel: 1,
                    rank,
                    bank,
                };
                let idx = loc.flat_index(banks);
                assert!(!seen[idx], "flat index {idx} collides");
                seen[idx] = true;
                assert_eq!(BankLoc::from_flat_index(1, idx, banks), loc);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
