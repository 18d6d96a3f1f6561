//! DRAM system configuration: organization plus timing.

use crate::family::RefreshGranularity;
use crate::timing::TimingParams;

/// Physical organization of the memory system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Organization {
    /// Number of independent channels.
    pub channels: u8,
    /// Ranks per channel.
    pub ranks: u8,
    /// Banks per rank.
    pub banks: u8,
    /// Bank groups per rank (1 = ungrouped, DDR3-style). Banks are split
    /// evenly across groups; same-group commands pay the long spacing
    /// (`tCCD_L`/`tRRD_L`), cross-group commands the short one.
    pub bank_groups: u8,
    /// Rows per bank.
    pub rows: u32,
    /// Columns per row at cache-line granularity.
    pub columns: u32,
    /// Cache-line size in bytes.
    pub line_bytes: u32,
}

impl Organization {
    /// The paper's Table 1 organization: 1–2 channels, 1 rank/channel,
    /// 8 banks/rank, 64K rows/bank, 8 KB row buffer, 64 B lines
    /// (128 lines per row).
    pub fn paper(channels: u8) -> Self {
        Self {
            channels,
            ranks: 1,
            banks: 8,
            bank_groups: 1,
            rows: 65_536,
            columns: 128,
            line_bytes: 64,
        }
    }

    /// Banks per bank group.
    pub fn banks_per_group(&self) -> u8 {
        self.banks / self.bank_groups.max(1)
    }

    /// Row-buffer size in bytes.
    pub fn row_bytes(&self) -> u64 {
        u64::from(self.columns) * u64::from(self.line_bytes)
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.row_bytes()
            * u64::from(self.rows)
            * u64::from(self.banks)
            * u64::from(self.ranks)
            * u64::from(self.channels)
    }

    /// Rows per channel: ranks × banks × rows.
    pub fn rows_per_channel(&self) -> u64 {
        u64::from(self.ranks) * u64::from(self.banks) * u64::from(self.rows)
    }

    /// Validates that all dimensions are non-zero powers of two (required
    /// by the bit-sliced address mapper), and that a channel's rows can
    /// be numbered in 32 bits (the controller's row-reuse tracker keys
    /// rows that way).
    ///
    /// # Errors
    ///
    /// Returns a description of the first offending dimension.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("channels", u64::from(self.channels)),
            ("ranks", u64::from(self.ranks)),
            ("banks", u64::from(self.banks)),
            ("bank_groups", u64::from(self.bank_groups)),
            ("rows", u64::from(self.rows)),
            ("columns", u64::from(self.columns)),
            ("line_bytes", u64::from(self.line_bytes)),
        ] {
            if v == 0 {
                return Err(format!("{name} must be non-zero"));
            }
            if !v.is_power_of_two() {
                return Err(format!("{name} ({v}) must be a power of two"));
            }
        }
        if !self.banks.is_multiple_of(self.bank_groups) {
            return Err(format!(
                "banks ({}) must be a multiple of bank_groups ({})",
                self.banks, self.bank_groups
            ));
        }
        if u32::try_from(self.rows_per_channel()).is_err() {
            return Err(format!(
                "rows per channel ({} ranks x {} banks x {} rows) must be below 2^32",
                self.ranks, self.banks, self.rows
            ));
        }
        Ok(())
    }
}

/// Complete DRAM configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Physical organization.
    pub org: Organization,
    /// Timing parameter set.
    pub timing: TimingParams,
    /// Retention window in milliseconds (refresh period for every cell).
    pub retention_ms: f64,
    /// Refresh command scope: all-bank `REF` (DDR3/DDR4) or per-bank
    /// `REFpb` (LPDDR4-style). Per-bank refresh locks only the target
    /// bank out, for `tRFCpb` instead of `tRFC`.
    pub refresh: RefreshGranularity,
}

impl DramConfig {
    /// The paper's evaluated configuration with a single channel
    /// (single-core experiments): DDR3-1600, 1 rank, 8 banks, 64K rows.
    pub fn ddr3_1600_paper() -> Self {
        Self {
            org: Organization::paper(1),
            timing: TimingParams::ddr3_1600(),
            retention_ms: 64.0,
            refresh: RefreshGranularity::AllBank,
        }
    }

    /// The paper's two-channel configuration (eight-core experiments).
    pub fn ddr3_1600_paper_2ch() -> Self {
        Self {
            org: Organization::paper(2),
            timing: TimingParams::ddr3_1600(),
            retention_ms: 64.0,
            refresh: RefreshGranularity::AllBank,
        }
    }

    /// A 3D-stacked (HBM/HMC-like) organization: many narrow channels,
    /// more banks, small rows (paper Section 7.2 — ChargeCache applies
    /// unchanged because the interface still uses explicit ACT/PRE; the
    /// controller simply lives in the logic layer).
    pub fn stacked_like() -> Self {
        Self {
            org: Organization {
                channels: 8,
                ranks: 1,
                banks: 16,
                bank_groups: 1,
                rows: 16_384,
                columns: 32,
                line_bytes: 64,
            },
            timing: TimingParams::ddr3_1600(),
            retention_ms: 32.0,
            refresh: RefreshGranularity::AllBank,
        }
    }

    /// Number of refresh commands needed to cover every row once.
    pub fn refresh_bins(&self) -> u32 {
        self.timing.refs_per_window(self.retention_ms) as u32
    }

    /// Rows refreshed by a single REF command (per bank).
    pub fn rows_per_ref(&self) -> u32 {
        let bins = self.refresh_bins().max(1);
        self.org.rows.div_ceil(bins)
    }

    /// Validates organization and timing together.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.org.validate()?;
        self.timing.validate()?;
        if self.retention_ms <= 0.0 {
            return Err("retention window must be positive".into());
        }
        if self.refresh_bins() == 0 {
            return Err("retention window shorter than one tREFI".into());
        }
        Ok(())
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::ddr3_1600_paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        DramConfig::ddr3_1600_paper().validate().unwrap();
        DramConfig::ddr3_1600_paper_2ch().validate().unwrap();
    }

    #[test]
    fn rows_per_channel_must_fit_32_bits() {
        let mut org = Organization::paper(1);
        org.rows = 1 << 31;
        org.banks = 1;
        org.bank_groups = 1;
        org.validate().unwrap();
        org.banks = 2;
        assert!(org.validate().unwrap_err().contains("below 2^32"));
    }

    #[test]
    fn paper_row_buffer_is_8kb() {
        let cfg = DramConfig::ddr3_1600_paper();
        assert_eq!(cfg.org.row_bytes(), 8192);
    }

    #[test]
    fn paper_capacity() {
        // 8 KB × 64K rows × 8 banks = 4 GiB per channel.
        let cfg = DramConfig::ddr3_1600_paper();
        assert_eq!(cfg.org.capacity_bytes(), 4 << 30);
    }

    #[test]
    fn refresh_covers_all_rows() {
        let cfg = DramConfig::ddr3_1600_paper();
        assert_eq!(cfg.refresh_bins(), 8192);
        assert_eq!(cfg.rows_per_ref(), 8);
        assert_eq!(cfg.rows_per_ref() * cfg.refresh_bins(), cfg.org.rows);
    }

    #[test]
    fn non_power_of_two_rejected() {
        let mut cfg = DramConfig::ddr3_1600_paper();
        cfg.org.banks = 6;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn groups_must_divide_banks() {
        let mut cfg = DramConfig::ddr3_1600_paper();
        cfg.org.banks = 8;
        cfg.org.bank_groups = 16;
        assert!(cfg.validate().is_err());
        cfg.org.bank_groups = 4;
        cfg.validate().unwrap();
        assert_eq!(cfg.org.banks_per_group(), 2);
    }
}
