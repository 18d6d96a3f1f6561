//! Declarative DRAM device families and the `FamilySpec` axis.
//!
//! The paper evaluates ChargeCache on exactly one device — DDR3-1600 —
//! but its claim is device physics, not a DDR3 artifact (Section 7.2).
//! A *device family* captures what a standard's **structure** fixes and
//! a speed bin does not: bank grouping and its long/short command
//! spacing (`tCCD_L`/`tCCD_S`, `tRRD_L`/`tRRD_S`), per-bank versus
//! all-bank refresh, channel and pseudo-channel counts, bank counts,
//! row/column geometry and the burst length.
//!
//! Families are described declaratively — a fixed table of four
//! [`FamilyParams`] records, the way probe-rs describes chips as data
//! rather than code — and selected with a [`FamilySpec`] in the shared
//! spec grammar (see [`crate::spec`]), whose values are integers or
//! bare tokens (`banks=16`, `refresh=per-bank`). Resolution is validated:
//! incoherent group spacing (`tCCD_L < tCCD_S`) or per-bank refresh on a
//! family without it are rejected as typed [`FamilyError`]s, not
//! simulated.
//!
//! # Example
//!
//! ```
//! use dram::family::{self, FamilySpec, RefreshGranularity};
//!
//! // The default family is the paper's DDR3 device.
//! let spec = FamilySpec::default();
//! assert_eq!(spec.to_string(), "ddr3");
//!
//! // DDR4-style: four bank groups with long/short column spacing.
//! let ddr4 = family::resolve(&"ddr4".parse().unwrap()).unwrap();
//! assert_eq!(ddr4.bank_groups, 4);
//!
//! // LPDDR4x-style: per-bank refresh by default.
//! let lp = family::resolve(&"lpddr4x".parse().unwrap()).unwrap();
//! assert_eq!(lp.refresh, RefreshGranularity::PerBank);
//!
//! // Structural nonsense is a typed error, not a simulation.
//! assert!(family::resolve(&"ddr3(refresh=per-bank)".parse().unwrap()).is_err());
//! ```

use std::fmt;
use std::str::FromStr;

use crate::config::Organization;
use crate::spec::{is_token, Spec, SpecValue};
use crate::timing::{SpeedBin, TimingParams};

/// Refresh command scope of a device family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefreshGranularity {
    /// One `REF` refreshes the next row group in *every* bank of the
    /// rank and locks the whole rank out for `tRFC` (DDR3/DDR4 style).
    AllBank,
    /// One `REF` refreshes the next row group in a *single* bank and
    /// locks only that bank out for `tRFCpb`; banks take turns across
    /// the `tREFI` window (LPDDR4 `REFpb` style).
    PerBank,
}

impl RefreshGranularity {
    /// The token used by the [`FamilySpec`] grammar (`refresh=...`).
    pub fn name(&self) -> &'static str {
        match self {
            RefreshGranularity::AllBank => "all-bank",
            RefreshGranularity::PerBank => "per-bank",
        }
    }
}

impl fmt::Display for RefreshGranularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed rejection from family resolution ([`resolve`]).
#[derive(Debug, Clone, PartialEq)]
pub enum FamilyError {
    /// The spec names no built-in family.
    UnknownFamily {
        /// The unknown name.
        name: String,
        /// Known family names, comma-separated.
        known: String,
    },
    /// The spec carries a key the grammar does not accept.
    UnknownKey {
        /// The family being resolved.
        family: String,
        /// The unknown key.
        key: String,
        /// Accepted keys, comma-separated.
        known: String,
    },
    /// A key was given a value of the wrong shape or range.
    BadValue {
        /// The offending key.
        key: String,
        /// What was wrong with it.
        message: String,
    },
    /// Long (same-group) spacing shorter than short (cross-group)
    /// spacing — structurally meaningless.
    IncoherentGroupSpacing {
        /// `"tCCD"` or `"tRRD"`.
        which: &'static str,
        /// The same-group (long) value in cycles.
        long: u32,
        /// The cross-group (short) value in cycles.
        short: u32,
    },
    /// `refresh=per-bank` requested on a family whose standard has no
    /// per-bank refresh command.
    PerBankRefreshUnsupported {
        /// The family that cannot refresh per bank.
        family: String,
    },
    /// The resolved geometry is inconsistent (bank groups not dividing
    /// banks, non-power-of-two dimensions, …).
    Geometry {
        /// The violated constraint.
        message: String,
    },
}

impl fmt::Display for FamilyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FamilyError::UnknownFamily { name, known } => {
                write!(f, "unknown device family {name:?} (known: {known})")
            }
            FamilyError::UnknownKey { family, key, known } => {
                write!(
                    f,
                    "unknown family parameter {key:?} for {family} (known: {known})"
                )
            }
            FamilyError::BadValue { key, message } => write!(f, "bad value for {key}: {message}"),
            FamilyError::IncoherentGroupSpacing { which, long, short } => write!(
                f,
                "incoherent group spacing: {which}_L ({long}) is shorter than {which}_S ({short})"
            ),
            FamilyError::PerBankRefreshUnsupported { family } => {
                write!(f, "family {family} has no per-bank refresh command")
            }
            FamilyError::Geometry { message } => write!(f, "incoherent family geometry: {message}"),
        }
    }
}

impl std::error::Error for FamilyError {}

/// One override value of a [`FamilySpec`]: a count or a bare token
/// (`refresh=per-bank`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FamilyValue {
    /// An unsigned integer (geometry and cycle-count keys).
    Int(u32),
    /// A bare token (the `refresh` key).
    Token(String),
}

impl fmt::Display for FamilyValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FamilyValue::Int(i) => write!(f, "{i}"),
            FamilyValue::Token(t) => f.write_str(t),
        }
    }
}

impl FromStr for FamilyValue {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let s = s.trim();
        if s.is_empty() {
            return Err("empty parameter value".into());
        }
        if let Ok(i) = s.parse::<u32>() {
            return Ok(FamilyValue::Int(i));
        }
        if is_token(s) {
            return Ok(FamilyValue::Token(s.to_string()));
        }
        Err(format!("unparsable family value {s:?}"))
    }
}

impl SpecValue for FamilyValue {
    const AXIS: &'static str = "family";
    const DEBUG_AS: (&'static str, &'static str) = ("FamilySpec", "family");
}

/// Override keys accepted by [`resolve`].
pub const FAMILY_KEYS: &[&str] = &[
    "bank_groups",
    "banks",
    "ranks",
    "channels",
    "pseudo_channels",
    "rows",
    "columns",
    "burst",
    "refresh",
    "retention",
    "tccd_l",
    "tccd_s",
    "trrd_l",
    "trrd_s",
    "trfcpb",
];

/// A device-family selection: a built-in family name plus typed
/// overrides (`"ddr4(bank_groups=2)".parse()`). The named family
/// supplies every field that is not overridden.
pub type FamilySpec = Spec<FamilyValue>;

impl Spec<FamilyValue> {
    /// True when this spec resolves to the same device structure as the
    /// bare default (`ddr3`) — the structural comparison mirrors
    /// `TimingSpec::is_default`, so `ddr3()` and redundant overrides
    /// behave exactly like the default.
    pub fn is_default(&self) -> bool {
        if self.name() == "ddr3" && self.params().is_empty() {
            return true;
        }
        match (resolve(self), resolve(&FamilySpec::default())) {
            (Ok(a), Ok(b)) => a == b,
            _ => false,
        }
    }
}

impl Default for Spec<FamilyValue> {
    /// The paper's device family: bare `ddr3`.
    fn default() -> Self {
        Self::new("ddr3")
    }
}

/// A fully resolved device-family description: the structural facts a
/// standard fixes, independent of the speed bin.
///
/// Group-spacing fields (`tccd_l`, …) are in bus cycles and `0` means
/// "inherit the speed bin's value" — [`FamilyParams::apply_to`] patches
/// only explicit ones onto a resolved [`TimingParams`].
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyParams {
    /// Canonical family name.
    pub name: String,
    /// Bank groups per rank (1 = ungrouped).
    pub bank_groups: u8,
    /// Banks per rank (across all groups).
    pub banks: u8,
    /// Ranks per channel.
    pub ranks: u8,
    /// Physical channels.
    pub channels: u8,
    /// Pseudo-channels per physical channel (HBM2); each is modeled as
    /// an independent channel, so the effective channel count is
    /// `channels × pseudo_channels`.
    pub pseudo_channels: u8,
    /// Rows per bank.
    pub rows: u32,
    /// Columns per row at cache-line granularity.
    pub columns: u32,
    /// Device burst length (BL8 → `tBL` of 4 bus cycles).
    pub burst: u32,
    /// Refresh command scope.
    pub refresh: RefreshGranularity,
    /// Whether the standard defines a per-bank refresh command at all
    /// (`refresh=per-bank` on a family without one is a typed error).
    pub per_bank_capable: bool,
    /// Retention window in milliseconds.
    pub retention_ms: f64,
    /// The speed bin a family-default run uses.
    pub default_bin: SpeedBin,
    /// Same-group column spacing in cycles (0 = the bin's `tccd`).
    pub tccd_l: u32,
    /// Cross-group column spacing in cycles (0 = the bin's `tccd`).
    pub tccd_s: u32,
    /// Same-group activate spacing in cycles (0 = the bin's `trrd`).
    pub trrd_l: u32,
    /// Cross-group activate spacing in cycles (0 = the bin's `trrd`).
    pub trrd_s: u32,
    /// Per-bank refresh lockout in cycles (0 = the bin's `trfc`).
    pub trfcpb: u32,
}

impl FamilyParams {
    /// The memory-system organization this family describes.
    /// Pseudo-channels multiply into the channel count; the line size is
    /// the model-wide 64 B.
    pub fn organization(&self) -> Organization {
        Organization {
            channels: self.channels.saturating_mul(self.pseudo_channels),
            ranks: self.ranks,
            banks: self.banks,
            bank_groups: self.bank_groups,
            rows: self.rows,
            columns: self.columns,
            line_bytes: 64,
        }
    }

    /// Patches the family's structural timing onto a resolved parameter
    /// set: group spacing (`tCCD_L/S`, `tRRD_L/S`) and the per-bank
    /// refresh lockout. Fields the family leaves at `0` inherit the
    /// bin's values, so the `ddr3` family is an exact no-op on every
    /// DDR3 bin. The burst length is *not* patched — each family's
    /// default bin already carries the matching `tBL`, and explicit
    /// `tbl` overrides in a timing spec must win.
    pub fn apply_to(&self, mut t: TimingParams) -> TimingParams {
        if self.tccd_l > 0 {
            t.tccd_l = self.tccd_l;
        }
        if self.tccd_s > 0 {
            t.tccd_s = self.tccd_s;
        }
        if self.trrd_l > 0 {
            t.trrd_l = self.trrd_l;
        }
        if self.trrd_s > 0 {
            t.trrd_s = self.trrd_s;
        }
        if self.trfcpb > 0 {
            t.trfcpb = self.trfcpb;
        }
        t
    }

    /// The timing spec a family-default run resolves to.
    pub fn default_timing_spec(&self) -> crate::spec::TimingSpec {
        crate::spec::TimingSpec::for_bin(self.default_bin)
    }

    /// Geometry one-liner for `cc-sim --list-families`.
    pub fn geometry_line(&self) -> String {
        let ch = if self.pseudo_channels > 1 {
            format!("{}ch x {}pc", self.channels, self.pseudo_channels)
        } else {
            format!("{}ch", self.channels)
        };
        format!(
            "{} group(s) x {} banks, {}, {} rows x {} cols, BL{}, {} refresh, bin {}",
            self.bank_groups,
            self.banks,
            ch,
            self.rows,
            self.columns,
            self.burst,
            self.refresh,
            self.default_bin.name(),
        )
    }

    /// Structural validation: geometry coherence plus group-spacing
    /// coherence against the family's default bin.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a typed [`FamilyError`].
    pub fn validate(&self) -> Result<(), FamilyError> {
        if self.bank_groups == 0 {
            return Err(FamilyError::Geometry {
                message: "bank_groups must be non-zero".into(),
            });
        }
        if self.banks == 0 || !self.banks.is_multiple_of(self.bank_groups) {
            return Err(FamilyError::Geometry {
                message: format!(
                    "banks ({}) must be a non-zero multiple of bank_groups ({})",
                    self.banks, self.bank_groups
                ),
            });
        }
        if self.refresh == RefreshGranularity::PerBank && !self.per_bank_capable {
            return Err(FamilyError::PerBankRefreshUnsupported {
                family: self.name.clone(),
            });
        }
        if self.retention_ms <= 0.0 {
            return Err(FamilyError::BadValue {
                key: "retention".into(),
                message: "retention window must be positive".into(),
            });
        }
        let bin = self.default_bin.timing();
        let eff = |v: u32, inherit: u32| if v > 0 { v } else { inherit };
        let (ccd_l, ccd_s) = (eff(self.tccd_l, bin.tccd), eff(self.tccd_s, bin.tccd));
        if ccd_l < ccd_s {
            return Err(FamilyError::IncoherentGroupSpacing {
                which: "tCCD",
                long: ccd_l,
                short: ccd_s,
            });
        }
        let (rrd_l, rrd_s) = (eff(self.trrd_l, bin.trrd), eff(self.trrd_s, bin.trrd));
        if rrd_l < rrd_s {
            return Err(FamilyError::IncoherentGroupSpacing {
                which: "tRRD",
                long: rrd_l,
                short: rrd_s,
            });
        }
        self.organization()
            .validate()
            .map_err(|message| FamilyError::Geometry { message })?;
        Ok(())
    }
}

/// One built-in family: its base parameters plus listing metadata.
struct Family {
    name: &'static str,
    describe: &'static str,
    aliases: &'static [&'static str],
    /// The base description; its `name` is filled from [`Family::name`]
    /// by [`Family::params`].
    base: FamilyParams,
}

impl Family {
    fn params(&self) -> FamilyParams {
        FamilyParams {
            name: self.name.to_string(),
            ..self.base.clone()
        }
    }
}

/// The built-in families, in listing order: the paper's DDR3 device, a
/// DDR4-2400-style device (4 bank groups), an LPDDR4x-style device (long
/// `tRCD`, per-bank refresh) and an HBM2-style stack (8 channels × 2
/// pseudo-channels, small rows).
static FAMILIES: [Family; 4] = [
    Family {
        name: "ddr3",
        describe: "the paper's Table 1 DDR3 device: ungrouped, all-bank refresh",
        aliases: &["ddr3-1600"],
        base: FamilyParams {
            name: String::new(),
            bank_groups: 1,
            banks: 8,
            ranks: 1,
            channels: 1,
            pseudo_channels: 1,
            rows: 65_536,
            columns: 128,
            burst: 8,
            refresh: RefreshGranularity::AllBank,
            per_bank_capable: false,
            retention_ms: 64.0,
            default_bin: SpeedBin::Ddr3_1600,
            tccd_l: 0,
            tccd_s: 0,
            trrd_l: 0,
            trrd_s: 0,
            trfcpb: 0,
        },
    },
    Family {
        name: "ddr4",
        describe: "DDR4-2400-style: 4 bank groups with long/short column and activate spacing",
        aliases: &["ddr4-2400"],
        base: FamilyParams {
            name: String::new(),
            bank_groups: 4,
            banks: 16,
            ranks: 1,
            channels: 1,
            pseudo_channels: 1,
            rows: 65_536,
            columns: 128,
            burst: 8,
            refresh: RefreshGranularity::AllBank,
            per_bank_capable: false,
            retention_ms: 64.0,
            default_bin: SpeedBin::Ddr4_2400,
            tccd_l: 6,
            tccd_s: 4,
            trrd_l: 8,
            trrd_s: 6,
            trfcpb: 0,
        },
    },
    Family {
        name: "lpddr4x",
        describe: "LPDDR4x-style: long tRCD, 2 KB rows, per-bank refresh (tRFCpb)",
        aliases: &["lpddr4x-3200"],
        base: FamilyParams {
            name: String::new(),
            bank_groups: 1,
            banks: 8,
            ranks: 1,
            channels: 2,
            pseudo_channels: 1,
            rows: 65_536,
            columns: 32,
            burst: 16,
            refresh: RefreshGranularity::PerBank,
            per_bank_capable: true,
            retention_ms: 32.0,
            default_bin: SpeedBin::Lpddr4x_3200,
            tccd_l: 0,
            tccd_s: 0,
            trrd_l: 0,
            trrd_s: 0,
            trfcpb: 224,
        },
    },
    Family {
        name: "hbm2",
        describe: "HBM2-style stack: 8 channels x 2 pseudo-channels, small rows, 4 bank groups",
        aliases: &["hbm2-1000"],
        base: FamilyParams {
            name: String::new(),
            bank_groups: 4,
            banks: 16,
            ranks: 1,
            channels: 8,
            pseudo_channels: 2,
            rows: 16_384,
            columns: 32,
            burst: 4,
            refresh: RefreshGranularity::AllBank,
            per_bank_capable: true,
            retention_ms: 32.0,
            default_bin: SpeedBin::Hbm2_1000,
            tccd_l: 4,
            tccd_s: 2,
            trrd_l: 6,
            trrd_s: 4,
            trfcpb: 160,
        },
    },
];

/// Resolves a spec into validated [`FamilyParams`]: the built-in family
/// it names (directly or by alias) with each override applied, then
/// checked by [`FamilyParams::validate`].
///
/// # Errors
///
/// Returns a typed [`FamilyError`] for unknown families or keys,
/// ill-shaped values, incoherent group spacing, unsupported per-bank
/// refresh, or inconsistent geometry.
pub fn resolve(spec: &FamilySpec) -> Result<FamilyParams, FamilyError> {
    let name = spec.name();
    let Some(family) = FAMILIES
        .iter()
        .find(|f| f.name == name || f.aliases.contains(&name))
    else {
        return Err(FamilyError::UnknownFamily {
            name: name.to_string(),
            known: FAMILIES
                .iter()
                .map(|f| f.name)
                .collect::<Vec<_>>()
                .join(", "),
        });
    };
    let mut p = family.params();
    for (key, value) in spec.params() {
        let int = |v: &FamilyValue| -> Result<u32, FamilyError> {
            match v {
                FamilyValue::Int(i) => Ok(*i),
                FamilyValue::Token(t) => Err(FamilyError::BadValue {
                    key: key.clone(),
                    message: format!("expected an integer, got {t:?}"),
                }),
            }
        };
        let small = |v: &FamilyValue| -> Result<u8, FamilyError> {
            let i = int(v)?;
            u8::try_from(i).map_err(|_| FamilyError::BadValue {
                key: key.clone(),
                message: format!("{i} does not fit in 8 bits"),
            })
        };
        match key.as_str() {
            "bank_groups" => p.bank_groups = small(value)?,
            "banks" => p.banks = small(value)?,
            "ranks" => p.ranks = small(value)?,
            "channels" => p.channels = small(value)?,
            "pseudo_channels" => p.pseudo_channels = small(value)?,
            "rows" => p.rows = int(value)?,
            "columns" => p.columns = int(value)?,
            "burst" => p.burst = int(value)?,
            "retention" => p.retention_ms = f64::from(int(value)?),
            "tccd_l" => p.tccd_l = int(value)?,
            "tccd_s" => p.tccd_s = int(value)?,
            "trrd_l" => p.trrd_l = int(value)?,
            "trrd_s" => p.trrd_s = int(value)?,
            "trfcpb" => p.trfcpb = int(value)?,
            "refresh" => {
                p.refresh = match value {
                    FamilyValue::Token(t) if t == "all-bank" => RefreshGranularity::AllBank,
                    FamilyValue::Token(t) if t == "per-bank" => RefreshGranularity::PerBank,
                    other => {
                        return Err(FamilyError::BadValue {
                            key: key.clone(),
                            message: format!("expected all-bank or per-bank, got {other}"),
                        })
                    }
                }
            }
            other => {
                return Err(FamilyError::UnknownKey {
                    family: family.name.to_string(),
                    key: other.to_string(),
                    known: FAMILY_KEYS.join(", "),
                })
            }
        }
    }
    p.validate()?;
    Ok(p)
}

/// Validates a spec without keeping the resolution.
///
/// # Errors
///
/// See [`resolve`].
pub fn validate_spec(spec: &FamilySpec) -> Result<(), FamilyError> {
    resolve(spec).map(|_| ())
}

/// `(name, description, base params)` for every built-in family, in
/// listing order (drives `cc-sim --list-families`).
pub fn list_families() -> Vec<(String, String, FamilyParams)> {
    FAMILIES
        .iter()
        .map(|f| (f.name.to_string(), f.describe.to_string(), f.params()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_the_paper_family() {
        let spec = FamilySpec::default();
        assert!(spec.is_default());
        assert_eq!(spec.to_string(), "ddr3");
        let p = resolve(&spec).unwrap();
        assert_eq!(p.organization(), Organization::paper(1));
        assert_eq!(p.refresh, RefreshGranularity::AllBank);
    }

    #[test]
    fn builtins_cover_the_four_standards() {
        let fams = list_families();
        let names: Vec<&str> = fams.iter().map(|(n, _, _)| n.as_str()).collect();
        assert!(names.len() >= 4, "{names:?}");
        for want in ["ddr3", "ddr4", "lpddr4x", "hbm2"] {
            assert!(names.contains(&want), "missing {want}");
        }
        for (name, describe, base) in &fams {
            assert!(!describe.is_empty(), "{name} has no description");
            base.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn ddr3_family_is_a_timing_no_op() {
        let p = resolve(&"ddr3".parse().unwrap()).unwrap();
        let t = TimingParams::ddr3_1600();
        assert_eq!(p.apply_to(t.clone()), t);
    }

    #[test]
    fn ddr4_family_stretches_same_group_spacing() {
        let p = resolve(&"ddr4".parse().unwrap()).unwrap();
        let t = p.apply_to(p.default_bin.timing());
        assert!(t.tccd_l > t.tccd_s, "{} vs {}", t.tccd_l, t.tccd_s);
        assert!(t.trrd_l > t.trrd_s);
        t.validate().unwrap();
    }

    #[test]
    fn aliases_canonicalize() {
        let spec: FamilySpec = "ddr4-2400".parse().unwrap();
        assert_eq!(resolve(&spec).unwrap().name, "ddr4");
        assert_eq!(resolve(&"hbm2-1000".parse().unwrap()).unwrap().name, "hbm2");
    }

    #[test]
    fn hbm2_multiplies_pseudo_channels() {
        let p = resolve(&"hbm2".parse().unwrap()).unwrap();
        assert_eq!(p.organization().channels, 16);
        assert_eq!(p.organization().bank_groups, 4);
    }

    #[test]
    fn typed_errors_reject_structural_nonsense() {
        assert!(matches!(
            resolve(&"ddr9".parse().unwrap()),
            Err(FamilyError::UnknownFamily { .. })
        ));
        assert!(matches!(
            resolve(&"ddr4(bogus=1)".parse().unwrap()),
            Err(FamilyError::UnknownKey { .. })
        ));
        assert!(matches!(
            resolve(&"ddr4(tccd_l=2)".parse().unwrap()),
            Err(FamilyError::IncoherentGroupSpacing { which: "tCCD", .. })
        ));
        assert!(matches!(
            resolve(&"ddr4(trrd_l=2)".parse().unwrap()),
            Err(FamilyError::IncoherentGroupSpacing { which: "tRRD", .. })
        ));
        assert!(matches!(
            resolve(&"ddr3(refresh=per-bank)".parse().unwrap()),
            Err(FamilyError::PerBankRefreshUnsupported { .. })
        ));
        assert!(matches!(
            resolve(&"ddr4(bank_groups=3)".parse().unwrap()),
            Err(FamilyError::Geometry { .. })
        ));
        assert!(matches!(
            resolve(&"ddr4(banks=300)".parse().unwrap()),
            Err(FamilyError::BadValue { .. })
        ));
        assert!(matches!(
            resolve(&"ddr4(refresh=sometimes)".parse().unwrap()),
            Err(FamilyError::BadValue { .. })
        ));
    }

    #[test]
    fn hbm2_accepts_per_bank_override() {
        let p = resolve(&"hbm2(refresh=per-bank)".parse().unwrap()).unwrap();
        assert_eq!(p.refresh, RefreshGranularity::PerBank);
    }

    #[test]
    fn spec_round_trips_and_normalizes() {
        for (src, norm) in [
            ("ddr3", "ddr3"),
            ("lpddr4x()", "lpddr4x"),
            (
                "  hbm2 ( channels = 4 , refresh = per-bank )  ",
                "hbm2(channels=4,refresh=per-bank)",
            ),
        ] {
            let spec: FamilySpec = src.parse().unwrap();
            assert_eq!(spec.to_string(), norm);
            let again: FamilySpec = spec.to_string().parse().unwrap();
            assert_eq!(again, spec);
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "ddr4(",
            "ddr4)x",
            "ddr4(banks)",
            "ddr4(banks=8,banks=16)",
            "ddr4(=1)",
            "4ddr",
            "ddr4(k=)",
            "ddr4(refresh=per bank)",
        ] {
            assert!(bad.parse::<FamilySpec>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn structural_is_default() {
        assert!("ddr3()".parse::<FamilySpec>().unwrap().is_default());
        assert!("ddr3(banks=8)".parse::<FamilySpec>().unwrap().is_default());
        assert!(!"ddr3(banks=16)".parse::<FamilySpec>().unwrap().is_default());
        assert!(!"ddr4".parse::<FamilySpec>().unwrap().is_default());
        assert!(!"no-such".parse::<FamilySpec>().unwrap().is_default());
    }

    #[test]
    fn geometry_line_mentions_the_structure() {
        let p = resolve(&"hbm2".parse().unwrap()).unwrap();
        let line = p.geometry_line();
        assert!(line.contains("8ch x 2pc"), "{line}");
        assert!(line.contains("4 group(s)"), "{line}");
        let lp = resolve(&"lpddr4x".parse().unwrap()).unwrap();
        assert!(
            lp.geometry_line().contains("per-bank"),
            "{}",
            lp.geometry_line()
        );
    }
}
