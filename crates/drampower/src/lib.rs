//! IDD-based DDR3 energy model — the reproduction's substitute for the
//! DRAMPower tool the paper uses.
//!
//! Follows the standard Micron power-calculation methodology: per-command
//! charge packets for activate/precharge pairs, read/write bursts and
//! refreshes, plus background power integrated over the reconstructed
//! bank-state timeline (active-standby `IDD3N` while any bank is open,
//! precharged-standby `IDD2N` otherwise). Inputs are the
//! [`dram::DramDevice`]'s energy meter (or a command log, folded into
//! one) and the run length.
//!
//! The first-order effect the paper's Figure 8 reports flows through this
//! model directly: a mechanism that shortens execution time shrinks the
//! time-proportional background and refresh energy for the same command
//! work.
//!
//! # Example
//!
//! ```
//! use dram::DramConfig;
//! use drampower::EnergyModel;
//!
//! let model = EnergyModel::ddr3_4gb_x8(DramConfig::ddr3_1600_paper());
//! let energy = model.energy(&[], 800_000); // 1 ms idle
//! assert!(energy.background_pj > 0.0);
//! assert_eq!(energy.activate_pj, 0.0);
//! ```

use dram::{CommandKind, CommandRecord, DramConfig, EnergyMeter};

/// Datasheet current parameters, in milliamps per device, plus geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IddParams {
    /// One-bank activate-precharge current.
    pub idd0_ma: f64,
    /// Precharged standby current.
    pub idd2n_ma: f64,
    /// Active standby current.
    pub idd3n_ma: f64,
    /// Burst read current.
    pub idd4r_ma: f64,
    /// Burst write current.
    pub idd4w_ma: f64,
    /// Burst refresh current.
    pub idd5b_ma: f64,
    /// Supply voltage in volts.
    pub vdd: f64,
    /// DRAM devices ganged per rank (x8 devices on a 64-bit bus → 8).
    pub devices_per_rank: u32,
}

impl IddParams {
    /// Typical values for a 4 Gb x8 DDR3-1600 device (Micron datasheet
    /// class), the device the paper's Table 1 implies.
    pub fn ddr3_4gb_x8() -> Self {
        Self {
            idd0_ma: 75.0,
            idd2n_ma: 32.0,
            idd3n_ma: 38.0,
            idd4r_ma: 157.0,
            idd4w_ma: 118.0,
            idd5b_ma: 235.0,
            vdd: 1.5,
            devices_per_rank: 8,
        }
    }
}

impl Default for IddParams {
    fn default() -> Self {
        Self::ddr3_4gb_x8()
    }
}

/// Energy breakdown in picojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Standby energy (precharged + active) over the whole run.
    pub background_pj: f64,
    /// Activate/precharge pair energy.
    pub activate_pj: f64,
    /// Read burst energy.
    pub read_pj: f64,
    /// Write burst energy.
    pub write_pj: f64,
    /// Refresh energy.
    pub refresh_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.background_pj + self.activate_pj + self.read_pj + self.write_pj + self.refresh_pj
    }

    /// Total energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.total_pj() / 1e9
    }
}

/// The energy model: IDD parameters bound to a DRAM configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    idd: IddParams,
    cfg: DramConfig,
}

impl EnergyModel {
    /// Creates the model with explicit IDD parameters.
    pub fn new(idd: IddParams, cfg: DramConfig) -> Self {
        Self { idd, cfg }
    }

    /// The standard model for the paper's configuration.
    pub fn ddr3_4gb_x8(cfg: DramConfig) -> Self {
        Self::new(IddParams::ddr3_4gb_x8(), cfg)
    }

    /// The IDD parameters in use.
    pub fn idd(&self) -> &IddParams {
        &self.idd
    }

    /// Computes the energy of a run of `total_cycles` bus cycles whose
    /// command log is `log` (as [`dram::DramDevice`] records it when its
    /// log is enabled): the records are folded into an
    /// [`EnergyMeter`] and priced by [`Self::price`], so a log and the
    /// device's own meter of the same commands price identically.
    ///
    /// # Panics
    ///
    /// Panics if a record names a channel or rank outside the
    /// configuration's organization.
    pub fn energy(&self, log: &[CommandRecord], total_cycles: u64) -> EnergyBreakdown {
        let mut meter = EnergyMeter::new(&self.cfg.org);
        for rec in log {
            meter.record(rec.at, rec.kind, rec.channel, rec.rank);
        }
        self.price(&meter, total_cycles)
    }

    /// Prices the commands `meter` folded over a run of `total_cycles`
    /// bus cycles.
    ///
    /// Auto-precharging reads/writes are accounted as closing their bank
    /// at issue time — a sub-`tRTP` approximation that affects only the
    /// standby-state split. Each rank's occupancy is measured from cycle
    /// 0 of the meter's time base, which is the device's, not the run's:
    /// a meter reset at a warmup boundary holds absolute issue cycles
    /// while `total_cycles` counts from the boundary.
    ///
    /// # Panics
    ///
    /// Panics if the meter was built for another organization.
    pub fn price(&self, meter: &EnergyMeter, total_cycles: u64) -> EnergyBreakdown {
        let t = &self.cfg.timing;
        let tck = t.tck_ns;
        let scale = self.idd.vdd * f64::from(self.idd.devices_per_rank);
        // mA × ns = pC; × V = pJ (scaled by ganged devices).
        let mut out = EnergyBreakdown::default();

        // Per-command charge packets.
        let e_actpre = (self.idd.idd0_ma * f64::from(t.trc)
            - (self.idd.idd3n_ma * f64::from(t.tras) + self.idd.idd2n_ma * f64::from(t.trp)))
            * tck
            * scale;
        let e_rd = (self.idd.idd4r_ma - self.idd.idd3n_ma) * f64::from(t.tbl) * tck * scale;
        let e_wr = (self.idd.idd4w_ma - self.idd.idd3n_ma) * f64::from(t.tbl) * tck * scale;
        // Per-bank refresh (REFpb) burns IDD5B for only tRFCpb and covers
        // one bank: charge each REF its actual lockout window.
        let ref_lockout = match self.cfg.refresh {
            dram::family::RefreshGranularity::AllBank => t.trfc,
            dram::family::RefreshGranularity::PerBank => t.trfcpb,
        };
        let e_ref = (self.idd.idd5b_ma - self.idd.idd2n_ma) * f64::from(ref_lockout) * tck * scale;

        // Background: per-rank cycles with ≥1 open bank; idle ranks
        // contribute IDD2N for the whole run.
        let ranks = usize::from(self.cfg.org.channels) * usize::from(self.cfg.org.ranks);
        assert_eq!(
            meter.ranks().len(),
            ranks,
            "energy meter built for another organization"
        );
        let active_cycles: u64 = meter
            .ranks()
            .iter()
            .map(|r| {
                r.active_cycles
                    + if r.open_banks > 0 {
                        total_cycles.saturating_sub(r.last)
                    } else {
                        0
                    }
            })
            .sum();
        let total_rank_cycles = ranks as u64 * total_cycles;
        let precharged_cycles = total_rank_cycles.saturating_sub(active_cycles);
        out.background_pj = (self.idd.idd3n_ma * active_cycles as f64
            + self.idd.idd2n_ma * precharged_cycles as f64)
            * tck
            * scale;

        // One packet added per command, not `count × packet`: the sums
        // round exactly as a per-record pass over the log does.
        let add = |sum: &mut f64, packet: f64, kinds: &[CommandKind]| {
            for &kind in kinds {
                for _ in 0..meter.count(kind) {
                    *sum += packet;
                }
            }
        };
        add(&mut out.activate_pj, e_actpre, &[CommandKind::Act]);
        add(&mut out.read_pj, e_rd, &[CommandKind::Rd, CommandKind::RdA]);
        add(
            &mut out.write_pj,
            e_wr,
            &[CommandKind::Wr, CommandKind::WrA],
        );
        add(&mut out.refresh_pj, e_ref, &[CommandKind::Ref]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at: u64, kind: CommandKind) -> CommandRecord {
        CommandRecord {
            at,
            kind,
            channel: 0,
            rank: 0,
        }
    }

    fn model() -> EnergyModel {
        EnergyModel::ddr3_4gb_x8(DramConfig::ddr3_1600_paper())
    }

    #[test]
    fn idle_run_is_pure_precharged_standby() {
        let m = model();
        let e = m.energy(&[], 1_000_000);
        assert_eq!(e.activate_pj, 0.0);
        assert_eq!(e.refresh_pj, 0.0);
        // IDD2N × VDD × devices × time.
        let expect = 32.0 * 1.5 * 8.0 * 1_000_000.0 * 1.25;
        assert!((e.background_pj - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn commands_add_their_packets() {
        let m = model();
        let log = vec![
            rec(0, CommandKind::Act),
            rec(20, CommandKind::Rd),
            rec(40, CommandKind::Wr),
            rec(100, CommandKind::Pre),
            rec(200, CommandKind::Ref),
        ];
        let e = m.energy(&log, 1000);
        assert!(e.activate_pj > 0.0);
        assert!(e.read_pj > 0.0);
        assert!(e.write_pj > 0.0);
        assert!(e.refresh_pj > 0.0);
        assert!(e.read_pj > e.write_pj); // IDD4R > IDD4W
    }

    #[test]
    fn active_standby_costs_more_than_precharged() {
        let m = model();
        // Bank open for the whole run vs never open.
        let open = vec![rec(0, CommandKind::Act)];
        let e_open = m.energy(&open, 10_000);
        let e_idle = m.energy(&[], 10_000);
        assert!(e_open.background_pj > e_idle.background_pj);
    }

    #[test]
    fn auto_precharge_closes_bank_for_background() {
        let m = model();
        let a = vec![rec(0, CommandKind::Act), rec(100, CommandKind::RdA)];
        let b = vec![rec(0, CommandKind::Act), rec(100, CommandKind::Rd)];
        let ea = m.energy(&a, 10_000);
        let eb = m.energy(&b, 10_000);
        assert!(ea.background_pj < eb.background_pj);
    }

    /// The background fold as it was before the flat per-rank array: a
    /// map keyed by the `(channel, rank)` pairs found in the log.
    fn map_fold_active_cycles(log: &[CommandRecord], total_cycles: u64) -> u64 {
        use std::collections::HashMap;
        let mut open: HashMap<(u8, u8), (u64, i32, u64)> = HashMap::new();
        for rec in log {
            let entry = open.entry((rec.channel, rec.rank)).or_insert((0, 0, 0));
            let (last, banks, acc) = *entry;
            let add = if banks > 0 { rec.at - last } else { 0 };
            let banks = match rec.kind {
                CommandKind::Act => banks + 1,
                CommandKind::Pre | CommandKind::RdA | CommandKind::WrA => (banks - 1).max(0),
                CommandKind::PreAll => 0,
                _ => banks,
            };
            *entry = (rec.at, banks, acc + add);
        }
        let mut active_cycles = 0;
        for (_, (last, banks, acc)) in open {
            active_cycles += acc;
            if banks > 0 {
                active_cycles += total_cycles.saturating_sub(last);
            }
        }
        active_cycles
    }

    #[test]
    fn random_multi_rank_log_folds_like_the_map_fold() {
        let mut cfg = DramConfig::ddr3_1600_paper();
        cfg.org.channels = 2;
        cfg.org.ranks = 3;
        let m = EnergyModel::ddr3_4gb_x8(cfg);
        let kinds = [
            CommandKind::Act,
            CommandKind::Act,
            CommandKind::Act,
            CommandKind::Pre,
            CommandKind::PreAll,
            CommandKind::Rd,
            CommandKind::RdA,
            CommandKind::Wr,
            CommandKind::WrA,
            CommandKind::Ref,
        ];
        let mut x = 0x5eed_u64;
        let mut next = |n: u64| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) % n
        };
        for len in [0, 1, 7, 500, 5_000] {
            let mut at = 0;
            let log: Vec<CommandRecord> = (0..len)
                .map(|_| {
                    at += next(40);
                    CommandRecord {
                        at,
                        kind: kinds[next(kinds.len() as u64) as usize],
                        channel: next(2) as u8,
                        rank: next(3) as u8,
                    }
                })
                .collect();
            // Runs ending before, at and after the last command.
            for total in [at / 2, at, at + 1_000] {
                let e = m.energy(&log, total);
                let active = map_fold_active_cycles(&log, total);
                let precharged = (6 * total).saturating_sub(active);
                let t = &m.cfg.timing;
                let scale = m.idd.vdd * f64::from(m.idd.devices_per_rank);
                let background = (m.idd.idd3n_ma * active as f64
                    + m.idd.idd2n_ma * precharged as f64)
                    * t.tck_ns
                    * scale;
                assert_eq!(e.background_pj, background, "{len} records, {total} cycles");
            }
        }
    }

    /// The pricing as it was before the meter: one pass over the log
    /// for occupancy, a second adding one packet per record.
    fn per_record_energy(m: &EnergyModel, log: &[CommandRecord], total: u64) -> EnergyBreakdown {
        let t = &m.cfg.timing;
        let scale = m.idd.vdd * f64::from(m.idd.devices_per_rank);
        let e_actpre = (m.idd.idd0_ma * f64::from(t.trc)
            - (m.idd.idd3n_ma * f64::from(t.tras) + m.idd.idd2n_ma * f64::from(t.trp)))
            * t.tck_ns
            * scale;
        let e_rd = (m.idd.idd4r_ma - m.idd.idd3n_ma) * f64::from(t.tbl) * t.tck_ns * scale;
        let e_wr = (m.idd.idd4w_ma - m.idd.idd3n_ma) * f64::from(t.tbl) * t.tck_ns * scale;
        let e_ref = (m.idd.idd5b_ma - m.idd.idd2n_ma) * f64::from(t.trfc) * t.tck_ns * scale;
        let ranks = u64::from(m.cfg.org.channels) * u64::from(m.cfg.org.ranks);
        let active = map_fold_active_cycles(log, total);
        let mut out = EnergyBreakdown {
            background_pj: (m.idd.idd3n_ma * active as f64
                + m.idd.idd2n_ma * (ranks * total).saturating_sub(active) as f64)
                * t.tck_ns
                * scale,
            ..EnergyBreakdown::default()
        };
        for rec in log {
            match rec.kind {
                CommandKind::Act => out.activate_pj += e_actpre,
                CommandKind::Rd | CommandKind::RdA => out.read_pj += e_rd,
                CommandKind::Wr | CommandKind::WrA => out.write_pj += e_wr,
                CommandKind::Ref => out.refresh_pj += e_ref,
                CommandKind::Pre | CommandKind::PreAll => {}
            }
        }
        out
    }

    fn bits(e: &EnergyBreakdown) -> [u64; 5] {
        [
            e.background_pj,
            e.activate_pj,
            e.read_pj,
            e.write_pj,
            e.refresh_pj,
        ]
        .map(f64::to_bits)
    }

    /// At the paper's 1.25 ns clock every packet is a whole number of
    /// picojoules, so a sum is exact in any order; a 0.938 ns clock
    /// gives packets whose sums round, which only an identical sequence
    /// of additions reproduces.
    #[test]
    fn random_streams_price_bit_identically_through_log_and_meter() {
        for tck_ns in [1.25, 0.938] {
            let mut cfg = DramConfig::ddr3_1600_paper();
            cfg.org.channels = 2;
            cfg.org.ranks = 2;
            cfg.timing.tck_ns = tck_ns;
            price_random_streams(&cfg);
        }
    }

    fn price_random_streams(cfg: &DramConfig) {
        let m = EnergyModel::ddr3_4gb_x8(cfg.clone());
        let kinds = [
            CommandKind::Act,
            CommandKind::Pre,
            CommandKind::PreAll,
            CommandKind::Rd,
            CommandKind::RdA,
            CommandKind::Wr,
            CommandKind::WrA,
            CommandKind::Ref,
        ];
        let mut x = 0xe4e7_u64;
        let mut next = |n: u64| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) % n
        };
        for len in [0, 1, 9, 300, 20_000] {
            let mut at = 0;
            let stream: Vec<CommandRecord> = (0..len)
                .map(|_| {
                    at += next(30);
                    CommandRecord {
                        at,
                        kind: kinds[next(8) as usize],
                        channel: next(2) as u8,
                        rank: next(2) as u8,
                    }
                })
                .collect();
            // The meter sees the whole stream and is reset part-way, as
            // at a warmup boundary; the log holds what follows the reset.
            let reset_at = len / 3;
            let mut meter = EnergyMeter::new(&cfg.org);
            for (i, rec) in stream.iter().enumerate() {
                if i == reset_at {
                    meter.reset();
                }
                meter.record(rec.at, rec.kind, rec.channel, rec.rank);
            }
            let log = &stream[reset_at.min(stream.len())..];
            for total in [at / 2, at, at + 777] {
                let want = bits(&per_record_energy(&m, log, total));
                assert_eq!(bits(&m.energy(log, total)), want, "{len} records, log");
                assert_eq!(bits(&m.price(&meter, total)), want, "{len} records, meter");
            }
        }
    }

    /// The occupancy time base is the meter's, not the window's: an ACT
    /// left open 1,000 cycles into a 10,000-cycle window bills 9,000
    /// active cycles, but the same pattern behind a 50,000-cycle warmup
    /// (meter reset at the boundary, absolute issue cycles) bills none,
    /// because the rank's last command lies past the window's length.
    #[test]
    fn background_measures_occupancy_from_the_meters_cycle_zero() {
        let m = model();
        let cfg = DramConfig::ddr3_1600_paper();
        let mut meter = EnergyMeter::new(&cfg.org);
        meter.record(1_000, CommandKind::Act, 0, 0);
        assert_eq!(m.price(&meter, 10_000).background_pj, 5.61e6);
        meter.record(40_000, CommandKind::Pre, 0, 0);
        meter.reset();
        meter.record(51_000, CommandKind::Act, 0, 0);
        assert_eq!(m.price(&meter, 10_000).background_pj, 4.80e6);
        assert_eq!(m.energy(&[], 10_000).background_pj, 4.80e6);
    }

    #[test]
    #[should_panic(expected = "another organization")]
    fn a_meter_of_another_organization_panics() {
        let two = DramConfig::ddr3_1600_paper_2ch();
        model().price(&EnergyMeter::new(&two.org), 100);
    }

    #[test]
    #[should_panic(expected = "outside the organization")]
    fn a_record_outside_the_organization_panics() {
        let mut r = rec(0, CommandKind::Act);
        r.rank = 1;
        model().energy(&[r], 100);
    }

    #[test]
    fn longer_runs_cost_more_for_same_work() {
        // The Figure 8 mechanism: identical command stream, shorter run →
        // less total energy.
        let m = model();
        let log = vec![
            rec(0, CommandKind::Act),
            rec(20, CommandKind::Rd),
            rec(60, CommandKind::Pre),
        ];
        let short = m.energy(&log, 10_000).total_pj();
        let long = m.energy(&log, 20_000).total_pj();
        assert!(long > short);
    }
}
