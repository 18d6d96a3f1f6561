//! Cycle-accurate DRAM device model.
//!
//! This crate is the reproduction's substitute for the DRAM half of
//! Ramulator: a command-level, cycle-accurate model of a DRAM memory
//! system — channels, ranks, banks, rows — that *enforces* the JEDEC
//! timing constraints rather than merely simulating averages. The
//! paper's device is DDR3-1600, but the checker is device-family aware:
//! the [`family`] module describes DDR4-, LPDDR4x- and HBM2-style
//! targets declaratively (bank groups, per-bank refresh,
//! pseudo-channels), and the rank/bank state machines enforce whichever
//! structure the configured family selects.
//!
//! The model is a timing checker in the Ramulator style: every bank, rank
//! and channel keeps "earliest next issue" registers per command kind;
//! [`DramDevice::earliest_issue`] reports when a command could legally
//! issue and [`DramDevice::issue`] applies a command's timing side effects.
//! The memory controller (crate `memctrl`) decides *what* to issue; this
//! crate guarantees it can never violate DDR3 timing.
//!
//! ChargeCache integration happens through exactly one seam:
//! [`timing::ActTimings`] — the per-activation `tRCD`/`tRAS` pair passed to
//! [`DramDevice::issue`] with every `ACT`. Baseline activations pass the
//! specification values; a ChargeCache hit passes the reduced pair. Nothing
//! else in the DRAM model changes, mirroring the paper's claim that the
//! mechanism needs no DRAM modifications.
//!
//! # Example
//!
//! ```
//! use dram::{Command, DramConfig, DramDevice, BankLoc};
//!
//! let cfg = DramConfig::ddr3_1600_paper();
//! let mut dev = DramDevice::new(cfg.clone());
//! let loc = BankLoc { channel: 0, rank: 0, bank: 0 };
//!
//! // Activate row 42, then read column 3 as soon as tRCD allows.
//! let act = Command::act(loc, 42);
//! assert_eq!(dev.earliest_issue(&act, 0), Ok(0));
//! dev.issue(&act, 0, cfg.timing.act_timings());
//!
//! let rd = Command::rd(loc, 3);
//! let t = dev.earliest_issue(&rd, 0).unwrap();
//! assert_eq!(t, u64::from(cfg.timing.trcd));
//! ```

#![warn(missing_docs)]

use fasthash::codec::{load_slice, put_slice, CodecResult, State};
use fasthash::impl_state;

pub mod address;
pub mod bank;
pub mod channel;
pub mod command;
pub mod config;
pub mod error;
pub mod family;
pub mod meter;
pub mod rank;
pub mod refresh;
pub mod spec;
pub mod stats;
pub mod timing;

pub use address::{AddressMapper, DramAddress, MappingScheme};
pub use bank::{Bank, BankState};
pub use channel::Channel;
pub use command::{BankLoc, Command, CommandKind, RankLoc, RowId};
pub use config::{DramConfig, Organization};
pub use error::IssueError;
pub use family::{
    FamilyError, FamilyParams, FamilySpec, FamilyValue, RefreshGranularity, FAMILY_KEYS,
};
pub use meter::{EnergyMeter, RankActivity};
pub use rank::Rank;
pub use spec::{is_token, Spec, SpecValue, TimingSpec, TimingValue, TIMING_KEYS};
pub use stats::DeviceStats;
pub use timing::{ActTimings, SpeedBin, TimingParams};

/// Absolute time in DRAM bus cycles (tCK units).
pub type BusCycle = u64;

/// Outcome of successfully issuing a command.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IssueOutcome {
    /// For reads: cycle at which the last data beat arrives.
    pub data_at: Option<BusCycle>,
    /// For writes: cycle at which the write burst completes on the bus.
    pub write_done_at: Option<BusCycle>,
    /// Rows closed by this command (explicit or auto precharge), with the
    /// cycle at which each precharge *begins* — the instant the row's cells
    /// start leaking again, which is what ChargeCache timestamps.
    pub closed_rows: ClosedRows,
    /// For `REF` commands: the row range (first row, count) replenished,
    /// per the rotating refresh schedule. Covers *every bank* of the
    /// refreshed rank under all-bank refresh, or only
    /// [`Self::refreshed_bank`] under per-bank refresh. Charge-aware
    /// mechanisms treat these rows as highly charged
    /// (`LatencyMechanism::on_refresh_row` in `crates/core`).
    pub refreshed: Option<(RowId, u32)>,
    /// The single bank a per-bank `REFpb` covered; `None` for all-bank
    /// `REF` (and for non-refresh commands).
    pub refreshed_bank: Option<u8>,
}

/// One closed row: its bank, the row, and the cycle its precharge begins.
pub type ClosedRow = (BankLoc, RowId, BusCycle);

/// The rows one command closed, read as a slice (`Deref`). A PRE or an
/// auto-precharge closes at most one row, which is held inline, so the
/// issue path does not allocate; only a precharge-all that closes
/// several rows does.
#[derive(Debug, Clone, Default)]
pub struct ClosedRows(Closed);

#[derive(Debug, Clone, Default)]
enum Closed {
    #[default]
    None,
    One(ClosedRow),
    Many(Vec<ClosedRow>),
}

impl ClosedRows {
    pub(crate) fn push(&mut self, row: ClosedRow) {
        self.0 = match std::mem::take(&mut self.0) {
            Closed::None => Closed::One(row),
            Closed::One(first) => Closed::Many(vec![first, row]),
            Closed::Many(mut rows) => {
                rows.push(row);
                Closed::Many(rows)
            }
        };
    }
}

impl std::ops::Deref for ClosedRows {
    type Target = [ClosedRow];

    fn deref(&self) -> &[ClosedRow] {
        match &self.0 {
            Closed::None => &[],
            Closed::One(row) => std::slice::from_ref(row),
            Closed::Many(rows) => rows,
        }
    }
}

impl PartialEq for ClosedRows {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for ClosedRows {}

impl PartialEq<Vec<ClosedRow>> for ClosedRows {
    fn eq(&self, other: &Vec<ClosedRow>) -> bool {
        self[..] == other[..]
    }
}

/// A timestamped command, as the opt-in command log records it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommandRecord {
    /// Issue cycle.
    pub at: BusCycle,
    /// Command kind.
    pub kind: CommandKind,
    /// Channel the command was issued on.
    pub channel: u8,
    /// Rank within the channel.
    pub rank: u8,
}

/// The full DRAM device: all channels of the memory system.
///
/// See the crate-level documentation for the usage model.
#[derive(Debug, Clone)]
pub struct DramDevice {
    cfg: DramConfig,
    channels: Vec<Channel>,
    stats: DeviceStats,
    meter: EnergyMeter,
    log: Option<Vec<CommandRecord>>,
}

impl DramDevice {
    /// Creates a device for the given configuration.
    pub fn new(cfg: DramConfig) -> Self {
        let channels = (0..cfg.org.channels).map(|_| Channel::new(&cfg)).collect();
        Self {
            meter: EnergyMeter::new(&cfg.org),
            cfg,
            channels,
            stats: DeviceStats::default(),
            log: None,
        }
    }

    /// Enables the command log: every command issued from now on is
    /// also kept as a [`CommandRecord`]. The log grows with the run;
    /// energy accounting needs only the [`Self::meter`].
    pub fn enable_log(&mut self) {
        self.log = Some(Vec::new());
    }

    /// Disables the command log and drops what it holds.
    pub fn disable_log(&mut self) {
        self.log = None;
    }

    /// Takes the accumulated command log, leaving logging enabled.
    pub fn take_log(&mut self) -> Vec<CommandRecord> {
        match &mut self.log {
            Some(l) => std::mem::take(l),
            None => Vec::new(),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Aggregate command statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// The energy meter: every command issued since the last
    /// [`Self::reset_meter`].
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Empties the energy meter (the warmup boundary of a measured run).
    pub fn reset_meter(&mut self) {
        self.meter.reset();
    }

    /// The open row in a bank, if any.
    pub fn open_row(&self, loc: BankLoc) -> Option<RowId> {
        self.channels[loc.channel as usize]
            .rank(loc.rank)
            .bank(loc.bank)
            .open_row()
    }

    /// True if every bank in the rank is precharged (required for REF).
    pub fn all_banks_precharged(&self, rank: RankLoc) -> bool {
        self.channels[rank.channel as usize]
            .rank(rank.rank)
            .all_banks_precharged()
    }

    /// Earliest cycle (≥ `now`) at which `cmd` could legally issue, or an
    /// error if the command is illegal in the current bank state (e.g.
    /// reading from a precharged bank).
    pub fn earliest_issue(&self, cmd: &Command, now: BusCycle) -> Result<BusCycle, IssueError> {
        let ch = &self.channels[cmd.channel() as usize];
        ch.earliest_issue(cmd, now, &self.cfg.timing)
    }

    /// True if `cmd` can issue exactly at `now`.
    pub fn can_issue(&self, cmd: &Command, now: BusCycle) -> bool {
        matches!(self.earliest_issue(cmd, now), Ok(t) if t == now)
    }

    /// Issues `cmd` at cycle `now`, applying all timing side effects.
    ///
    /// `act` supplies the `tRCD`/`tRAS` pair for `ACT` commands (ignored
    /// for all other kinds); pass [`TimingParams::act_timings`] for
    /// specification timing or a reduced pair for a ChargeCache hit.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the command cannot legally issue at
    /// `now`; call [`Self::can_issue`] first. This is a simulator-
    /// integrity check: a controller that issues illegal commands is a
    /// bug, not a runtime condition. Release builds trust the controller
    /// and skip the re-verification — it would double the per-command
    /// timing-check cost on the simulator's hottest path.
    pub fn issue(&mut self, cmd: &Command, now: BusCycle, act: ActTimings) -> IssueOutcome {
        #[cfg(debug_assertions)]
        match self.earliest_issue(cmd, now) {
            Ok(t) if t <= now => {}
            Ok(t) => panic!("command {cmd:?} issued at {now}, legal only at {t}"),
            Err(e) => panic!("illegal command {cmd:?} at {now}: {e}"),
        }
        self.stats.record(cmd.kind());
        self.meter
            .record(now, cmd.kind(), cmd.channel(), cmd.rank());
        if let Some(log) = &mut self.log {
            log.push(CommandRecord {
                at: now,
                kind: cmd.kind(),
                channel: cmd.channel(),
                rank: cmd.rank(),
            });
        }
        let timing = self.cfg.timing.clone();
        self.channels[cmd.channel() as usize].issue(cmd, now, &timing, act)
    }

    /// Age (in bus cycles) since the row was last refreshed, per the rank's
    /// rotating auto-refresh schedule (per-bank schedules under `REFpb`).
    /// Used by the NUAT mechanism.
    pub fn refresh_age(&self, loc: BankLoc, row: RowId, now: BusCycle) -> BusCycle {
        self.channels[loc.channel as usize]
            .rank(loc.rank)
            .refresh_age(loc.bank, row, now)
    }

    /// Earliest cycle at which the rank's next refresh becomes due.
    pub fn refresh_due(&self, rank: RankLoc) -> BusCycle {
        self.channels[rank.channel as usize]
            .rank(rank.rank)
            .refresh_due()
    }

    /// The bank the rank's next `REFpb` will cover, or `None` when the
    /// device uses all-bank refresh.
    pub fn refresh_target(&self, rank: RankLoc) -> Option<u8> {
        self.channels[rank.channel as usize]
            .rank(rank.rank)
            .refresh_target()
    }

    /// True when the rank only needs its refresh-target bank precharged
    /// before a refresh (per-bank mode); all-bank refresh requires
    /// [`Self::all_banks_precharged`].
    pub fn refresh_ready(&self, rank: RankLoc) -> bool {
        let r = self.channels[rank.channel as usize].rank(rank.rank);
        match r.refresh_target() {
            Some(bank) => r.bank(bank).is_precharged(),
            None => r.all_banks_precharged(),
        }
    }
}

impl_state!(DeviceStats {
    acts,
    pres,
    pre_alls,
    reads,
    writes,
    refs
});

/// The device's complete mutable state — bank/rank/channel timing
/// registers, refresh calendars, statistics and the energy meter — for
/// checkpoint support. The opt-in command log is not part of it: a
/// restored device keeps its own log.
impl State for DramDevice {
    fn put(&self, out: &mut Vec<u8>) {
        put_slice(out, &self.channels);
        self.stats.put(out);
        self.meter.put(out);
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        load_slice(input, &mut self.channels, |n, have| {
            format!("channel count mismatch: checkpoint has {n}, device has {have}")
        })?;
        self.stats.load(input)?;
        self.meter.load(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (DramDevice, DramConfig, BankLoc) {
        let cfg = DramConfig::ddr3_1600_paper();
        let dev = DramDevice::new(cfg.clone());
        (
            dev,
            cfg,
            BankLoc {
                channel: 0,
                rank: 0,
                bank: 0,
            },
        )
    }

    #[test]
    fn read_from_precharged_bank_is_illegal() {
        let (dev, _, loc) = setup();
        assert!(matches!(
            dev.earliest_issue(&Command::rd(loc, 0), 0),
            Err(IssueError::NoOpenRow { .. })
        ));
    }

    #[test]
    fn act_then_read_respects_trcd() {
        let (mut dev, cfg, loc) = setup();
        dev.issue(&Command::act(loc, 7), 0, cfg.timing.act_timings());
        let t = dev.earliest_issue(&Command::rd(loc, 0), 0).unwrap();
        assert_eq!(t, u64::from(cfg.timing.trcd));
    }

    #[test]
    fn reduced_act_timings_shorten_trcd_and_tras() {
        let (mut dev, cfg, loc) = setup();
        let red = ActTimings {
            trcd: cfg.timing.trcd - 4,
            tras: cfg.timing.tras - 8,
        };
        dev.issue(&Command::act(loc, 7), 0, red);
        let t = dev.earliest_issue(&Command::rd(loc, 0), 0).unwrap();
        assert_eq!(t, u64::from(cfg.timing.trcd - 4));
        let p = dev.earliest_issue(&Command::pre(loc), 0).unwrap();
        assert_eq!(p, u64::from(cfg.timing.tras - 8));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "legal only at")]
    fn premature_issue_panics() {
        let (mut dev, cfg, loc) = setup();
        dev.issue(&Command::act(loc, 7), 0, cfg.timing.act_timings());
        dev.issue(&Command::rd(loc, 0), 1, cfg.timing.act_timings());
    }

    #[test]
    fn closed_rows_hold_one_row_inline_and_read_as_a_slice() {
        let loc = |bank| BankLoc {
            channel: 0,
            rank: 0,
            bank,
        };
        let mut rows = ClosedRows::default();
        assert!(rows.is_empty());
        rows.push((loc(0), 7, 10));
        assert!(
            matches!(rows.0, Closed::One(_)),
            "one row must not allocate"
        );
        assert_eq!(rows, vec![(loc(0), 7, 10)]);
        rows.push((loc(1), 8, 10));
        rows.push((loc(2), 9, 10));
        assert_eq!(
            rows,
            vec![(loc(0), 7, 10), (loc(1), 8, 10), (loc(2), 9, 10)]
        );
    }

    #[test]
    fn precharge_reports_closed_row() {
        let (mut dev, cfg, loc) = setup();
        dev.issue(&Command::act(loc, 9), 0, cfg.timing.act_timings());
        let t = dev.earliest_issue(&Command::pre(loc), 0).unwrap();
        assert_eq!(t, u64::from(cfg.timing.tras));
        let out = dev.issue(&Command::pre(loc), t, cfg.timing.act_timings());
        assert_eq!(out.closed_rows, vec![(loc, 9, t)]);
        assert_eq!(dev.open_row(loc), None);
    }

    #[test]
    fn command_log_records_when_enabled() {
        let (mut dev, cfg, loc) = setup();
        dev.enable_log();
        dev.issue(&Command::act(loc, 1), 0, cfg.timing.act_timings());
        let log = dev.take_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].kind, CommandKind::Act);
        dev.disable_log();
        dev.issue(&Command::pre(loc), 100, cfg.timing.act_timings());
        assert!(dev.take_log().is_empty());
    }

    #[test]
    fn meter_counts_every_command_until_reset() {
        let (mut dev, cfg, loc) = setup();
        dev.issue(&Command::act(loc, 1), 0, cfg.timing.act_timings());
        dev.issue(&Command::pre(loc), 100, cfg.timing.act_timings());
        let m = dev.meter();
        assert_eq!(
            (m.count(CommandKind::Act), m.count(CommandKind::Pre)),
            (1, 1)
        );
        assert_eq!(m.ranks()[0].active_cycles, 100);
        dev.reset_meter();
        assert_eq!(dev.meter(), &EnergyMeter::new(&cfg.org));
    }
}
