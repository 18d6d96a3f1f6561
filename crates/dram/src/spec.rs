//! The shared `name(key=val,...)` spec grammar, and the timing axis.
//!
//! Mechanisms, DRAM timings and device families are each selected by a
//! [`Spec`]: a name plus ordered, explicitly set `key=value` parameters.
//! The grammar, its token rule and its round-trip guarantee are
//! documented once, in `docs/ARCHITECTURE.md` (*Spec grammar*). Each
//! axis supplies only a value type implementing [`SpecValue`], which
//! decides what that axis accepts at parse time, plus its own resolution
//! logic: [`TimingSpec`] (here), [`crate::FamilySpec`] and the mechanism
//! layer's `MechanismSpec`.
//!
//! A [`TimingSpec`] selects the device clocking: a JEDEC speed-bin
//! preset name plus optional per-field overrides (cycle counts, or
//! nanoseconds for `tck`). The paper evaluates exactly one device —
//! DDR3-1600 11-11-11 (Table 1) — but the mechanism applies to any
//! DDR-derived interface (Section 7.2), and its payoff shifts as the
//! baseline gets faster or slower.
//!
//! # Example
//!
//! ```
//! use dram::{TimingParams, TimingSpec};
//!
//! // The default spec is the paper's Table 1 device.
//! let spec = TimingSpec::default();
//! assert_eq!(spec.to_string(), "ddr3-1600");
//! assert_eq!(spec.resolve().unwrap(), TimingParams::ddr3_1600());
//!
//! // Presets resolve to their JEDEC CL-tRCD-tRP triplet; overrides
//! // patch individual fields after the preset is applied.
//! let spec: TimingSpec = "ddr3-2133(trcd=13)".parse().unwrap();
//! let t = spec.resolve().unwrap();
//! assert_eq!((t.tcl, t.trcd, t.trp), (14, 13, 14));
//! assert_eq!(spec.to_string(), "ddr3-2133(trcd=13)");
//!
//! // Incoherent parameter sets are rejected, not simulated.
//! assert!("ddr3-1600(tras=50)".parse::<TimingSpec>().unwrap().resolve().is_err());
//! assert!("ddr9-9999".parse::<TimingSpec>().unwrap().resolve().is_err());
//! ```

use std::fmt;
use std::str::FromStr;

use crate::timing::{SpeedBin, TimingParams};

// ---------------------------------------------------------------------------
// The grammar
// ---------------------------------------------------------------------------

/// True for tokens matching `[A-Za-z_][A-Za-z0-9_.+-]*`: the names, keys
/// and bare-token values of every spec axis.
pub fn is_token(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '+' | '-'))
}

/// The parameter value type of one spec axis. Its [`FromStr`] decides
/// what the axis accepts at parse time; its [`fmt::Display`] must
/// re-parse to the same value.
pub trait SpecValue: Clone + PartialEq + fmt::Debug + fmt::Display + FromStr<Err = String> {
    /// The axis noun used in messages (`"mechanism"`, `"timing"`, …).
    const AXIS: &'static str;
    /// The type and name-field labels of the spec's `Debug` text. That
    /// text is part of every run's content key (it names the `.run` and
    /// `.ckpt` files), so it must not change.
    const DEBUG_AS: (&'static str, &'static str);
}

/// A spec: a name plus typed parameters, parsed from and displayed as
/// `name(key=val,...)`.
///
/// Parameters keep insertion order, so [`fmt::Display`] output is
/// deterministic; only *explicitly set* parameters are stored — each
/// axis supplies its defaults at resolution time.
#[derive(Clone, PartialEq)]
pub struct Spec<V> {
    name: String,
    params: Vec<(String, V)>,
}

impl<V: SpecValue> Spec<V> {
    /// A spec with no parameters. Unknown (but well-formed) names are
    /// accepted here and rejected when the axis resolves the spec.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid token ([`is_token`]).
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        assert!(is_token(&name), "invalid {} name {name:?}", V::AXIS);
        Self {
            name,
            params: Vec::new(),
        }
    }

    /// Builder-style parameter setter.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not a valid token.
    #[must_use]
    pub fn with(mut self, key: impl Into<String>, value: V) -> Self {
        self.set(key, value);
        self
    }

    /// Sets (or replaces) one parameter.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not a valid token.
    pub fn set(&mut self, key: impl Into<String>, value: V) {
        let key = key.into();
        assert!(is_token(&key), "invalid {} key {key:?}", V::AXIS);
        match self.params.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = value,
            None => self.params.push((key, value)),
        }
    }

    /// The name (the axis's registry or preset lookup key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The explicitly set parameters, in insertion order.
    pub fn params(&self) -> &[(String, V)] {
        &self.params
    }

    /// One parameter, if explicitly set.
    pub fn get(&self, key: &str) -> Option<&V> {
        self.params.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Rejects any parameter key outside `allowed`, so typos fail loudly
    /// instead of silently using defaults.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unknown key.
    pub fn ensure_known_keys(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .params
            .iter()
            .find(|(k, _)| !allowed.contains(&k.as_str()))
        {
            None => Ok(()),
            Some((k, _)) => Err(format!(
                "unknown parameter {k:?} for {} {:?} (known: {})",
                V::AXIS,
                self.name,
                if allowed.is_empty() {
                    "none".to_string()
                } else {
                    allowed.join(", ")
                }
            )),
        }
    }
}

impl<V: SpecValue> fmt::Debug for Spec<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (ty, name) = V::DEBUG_AS;
        f.debug_struct(ty)
            .field(name, &self.name)
            .field("params", &self.params)
            .finish()
    }
}

impl<V: SpecValue> fmt::Display for Spec<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
        if self.params.is_empty() {
            return Ok(());
        }
        f.write_str("(")?;
        for (i, (k, v)) in self.params.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{k}={v}")?;
        }
        f.write_str(")")
    }
}

impl<V: SpecValue> FromStr for Spec<V> {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let axis = V::AXIS;
        let s = s.trim();
        let (name, params_src) = match s.find('(') {
            None => (s, None),
            Some(open) => {
                let Some(body) = s[open + 1..].strip_suffix(')') else {
                    return Err(format!("{axis} spec {s:?} is missing its closing ')'"));
                };
                (&s[..open], Some(body.trim()))
            }
        };
        let name = name.trim();
        if !is_token(name) {
            return Err(format!("invalid {axis} name {name:?}"));
        }
        let mut spec = Self::new(name);
        if let Some(body) = params_src.filter(|b| !b.is_empty()) {
            for part in body.split(',') {
                let Some((k, v)) = part.split_once('=') else {
                    return Err(format!("{axis} parameter {part:?} is not key=value"));
                };
                let k = k.trim();
                if !is_token(k) {
                    return Err(format!("invalid {axis} key {k:?}"));
                }
                if spec.get(k).is_some() {
                    return Err(format!("duplicate {axis} parameter {k:?}"));
                }
                spec.set(k, v.parse::<V>()?);
            }
        }
        Ok(spec)
    }
}

// ---------------------------------------------------------------------------
// The timing axis
// ---------------------------------------------------------------------------

/// One override value of a [`TimingSpec`]: a cycle count or (for `tck`)
/// a nanosecond figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimingValue {
    /// An unsigned integer (cycle-count fields).
    Int(u32),
    /// A float (always displayed with a decimal point; the `tck` field).
    Float(f64),
}

impl TimingValue {
    /// The value as a float (ints widen losslessly).
    pub fn as_f64(self) -> f64 {
        match self {
            TimingValue::Int(i) => f64::from(i),
            TimingValue::Float(x) => x,
        }
    }
}

impl fmt::Display for TimingValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimingValue::Int(i) => write!(f, "{i}"),
            TimingValue::Float(x) => {
                let s = format!("{x}");
                if s.contains('.') || s.contains('e') {
                    f.write_str(&s)
                } else {
                    write!(f, "{s}.0")
                }
            }
        }
    }
}

impl FromStr for TimingValue {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let s = s.trim();
        if s.is_empty() {
            return Err("empty parameter value".into());
        }
        // Integers first, so "13" round-trips as Int; anything with a
        // decimal point or exponent becomes Float.
        if let Ok(i) = s.parse::<u32>() {
            return Ok(TimingValue::Int(i));
        }
        if s.starts_with(|c: char| c.is_ascii_digit() || matches!(c, '-' | '+' | '.')) {
            if let Ok(x) = s.parse::<f64>() {
                if !x.is_finite() {
                    return Err(format!("non-finite value {s:?}"));
                }
                return Ok(TimingValue::Float(x));
            }
        }
        Err(format!("unparsable timing value {s:?}"))
    }
}

impl SpecValue for TimingValue {
    const AXIS: &'static str = "timing";
    const DEBUG_AS: (&'static str, &'static str) = ("TimingSpec", "preset");
}

/// A DRAM timing selection: a speed-bin preset name plus typed overrides
/// (`"ddr3-1866(trcd=12,tfaw=26)".parse()`). The preset supplies every
/// field that is not overridden.
pub type TimingSpec = Spec<TimingValue>;

/// Override keys accepted by [`TimingSpec::resolve`]: every
/// [`TimingParams`] cycle field plus `tck` (the clock period in ns).
pub const TIMING_KEYS: &[&str] = &[
    "tck", "trcd", "tcl", "tcwl", "trp", "tras", "trc", "tbl", "tccd", "trtp", "twr", "twtr",
    "trrd", "tfaw", "trfc", "trefi", "trtrs", "tccd_l", "tccd_s", "trrd_l", "trrd_s", "trfcpb",
];

impl Spec<TimingValue> {
    /// A spec for a named speed bin (no overrides).
    pub fn for_bin(bin: SpeedBin) -> Self {
        Self::new(bin.name())
    }

    /// True when this spec resolves to the same parameter set as the
    /// bare default (`ddr3-1600`) — the configuration every pre-preset
    /// result was produced under.
    ///
    /// The comparison is structural, not textual: an explicitly-written
    /// `ddr3-1600()` or a redundant override (`ddr3-1600(trcd=11)`)
    /// behaves exactly like the bare default, while any spec that fails
    /// to resolve is by definition not the default.
    pub fn is_default(&self) -> bool {
        if self.name == SpeedBin::Ddr3_1600.name() && self.params.is_empty() {
            return true;
        }
        self.resolve().is_ok_and(|t| t == TimingParams::ddr3_1600())
    }

    /// Resolves the spec into a concrete, validated parameter set: the
    /// preset's [`TimingParams`] with each override applied, then checked
    /// by [`TimingParams::validate`].
    ///
    /// # Errors
    ///
    /// Returns a message if the preset name is unknown, an override key
    /// is not one of [`TIMING_KEYS`], a cycle field is given a
    /// non-integer value, or the resulting parameter set is incoherent
    /// (e.g. `tras` exceeding `trc`, a zero `tck`).
    pub fn resolve(&self) -> Result<TimingParams, String> {
        let Some(bin) = SpeedBin::from_name(&self.name) else {
            let known: Vec<&str> = SpeedBin::ALL.iter().map(|b| b.name()).collect();
            return Err(format!(
                "unknown timing preset {:?} (known: {})",
                self.name,
                known.join(", ")
            ));
        };
        let mut t = bin.timing();
        // Group-spacing fields inherit their base value (`tccd_l`/`tccd_s`
        // from `tccd`, `trrd_l`/`trrd_s` from `trrd`, `trfcpb` from
        // `trfc`) unless explicitly overridden, so a plain `tccd=6`
        // override keeps its historical meaning of "all column spacing".
        let explicit = |k: &str| self.get(k).is_some();
        for (key, value) in &self.params {
            let cycles = |v: TimingValue| -> Result<u32, String> {
                match v {
                    TimingValue::Int(i) => Ok(i),
                    TimingValue::Float(x) => {
                        Err(format!("{key} must be an integer cycle count, got {x}"))
                    }
                }
            };
            match key.as_str() {
                "tck" => {
                    let ns = value.as_f64();
                    if !(ns.is_finite() && ns > 0.0) {
                        return Err(format!("tck must be a positive period in ns, got {value}"));
                    }
                    t.tck_ns = ns;
                }
                "trcd" => t.trcd = cycles(*value)?,
                "tcl" => t.tcl = cycles(*value)?,
                "tcwl" => t.tcwl = cycles(*value)?,
                "trp" => t.trp = cycles(*value)?,
                "tras" => t.tras = cycles(*value)?,
                "trc" => t.trc = cycles(*value)?,
                "tbl" => t.tbl = cycles(*value)?,
                "tccd" => {
                    t.tccd = cycles(*value)?;
                    if !explicit("tccd_l") {
                        t.tccd_l = t.tccd;
                    }
                    if !explicit("tccd_s") {
                        t.tccd_s = t.tccd;
                    }
                }
                "trtp" => t.trtp = cycles(*value)?,
                "twr" => t.twr = cycles(*value)?,
                "twtr" => t.twtr = cycles(*value)?,
                "trrd" => {
                    t.trrd = cycles(*value)?;
                    if !explicit("trrd_l") {
                        t.trrd_l = t.trrd;
                    }
                    if !explicit("trrd_s") {
                        t.trrd_s = t.trrd;
                    }
                }
                "tfaw" => t.tfaw = cycles(*value)?,
                "trfc" => {
                    t.trfc = cycles(*value)?;
                    if !explicit("trfcpb") {
                        t.trfcpb = t.trfc;
                    }
                }
                "trefi" => t.trefi = cycles(*value)?,
                "trtrs" => t.trtrs = cycles(*value)?,
                "tccd_l" => t.tccd_l = cycles(*value)?,
                "tccd_s" => t.tccd_s = cycles(*value)?,
                "trrd_l" => t.trrd_l = cycles(*value)?,
                "trrd_s" => t.trrd_s = cycles(*value)?,
                "trfcpb" => t.trfcpb = cycles(*value)?,
                other => {
                    return Err(format!(
                        "unknown timing parameter {other:?} (known: {})",
                        TIMING_KEYS.join(", ")
                    ))
                }
            }
        }
        t.validate()
            .map_err(|e| format!("incoherent timing spec {self}: {e}"))?;
        Ok(t)
    }

    /// `(name, description, params)` for every preset, in speed order
    /// (drives `cc-sim --list-timings`).
    pub fn presets() -> Vec<(&'static str, &'static str, TimingParams)> {
        SpeedBin::ALL
            .iter()
            .map(|b| (b.name(), b.describe(), b.timing()))
            .collect()
    }
}

impl Default for Spec<TimingValue> {
    /// The paper's Table 1 device: bare `ddr3-1600`.
    fn default() -> Self {
        Self::for_bin(SpeedBin::Ddr3_1600)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_the_paper_device() {
        let spec = TimingSpec::default();
        assert!(spec.is_default());
        assert_eq!(spec.resolve().unwrap(), TimingParams::ddr3_1600());
    }

    #[test]
    fn every_preset_resolves_and_round_trips() {
        for (name, _describe, params) in TimingSpec::presets() {
            let spec: TimingSpec = name.parse().unwrap();
            assert_eq!(spec.to_string(), name);
            assert_eq!(spec.resolve().unwrap(), params);
        }
    }

    #[test]
    fn overrides_patch_individual_fields() {
        let spec: TimingSpec = "ddr3-1600(trcd=13,tck=1.5)".parse().unwrap();
        let t = spec.resolve().unwrap();
        assert_eq!(t.trcd, 13);
        assert_eq!(t.tck_ns, 1.5);
        // Unpatched fields keep the preset values.
        assert_eq!(t.tcl, 11);
        assert_eq!(spec.to_string(), "ddr3-1600(trcd=13,tck=1.5)");
    }

    #[test]
    fn resolve_rejects_bad_specs() {
        for (src, needle) in [
            ("ddr9-9999", "unknown timing preset"),
            ("ddr3-1600(bogus=1)", "unknown timing parameter"),
            ("ddr3-1600(trcd=1.5)", "integer cycle count"),
            ("ddr3-1600(tck=0)", "positive"),
            ("ddr3-1600(tras=50)", "incoherent"), // tras > trc
            ("ddr3-1600(trcd=30)", "incoherent"), // trcd > tras
            ("ddr3-1600(trcd=0)", "incoherent"),
        ] {
            let err = src.parse::<TimingSpec>().unwrap().resolve().unwrap_err();
            assert!(err.contains(needle), "{src}: {err}");
        }
    }

    #[test]
    fn float_values_keep_their_type_through_display() {
        assert_eq!(TimingValue::Float(2.0).to_string(), "2.0");
        assert_eq!(
            "2.0".parse::<TimingValue>().unwrap(),
            TimingValue::Float(2.0)
        );
        assert_eq!("2".parse::<TimingValue>().unwrap(), TimingValue::Int(2));
    }
}
