//! Open mechanism plugin API: typed specs, factories and the registry.
//!
//! A latency mechanism is configured by a [`MechanismSpec`] — a name plus
//! typed key/value parameters in the shared `name(key=val,...)` spec
//! grammar (see [`dram::spec`]) — and instantiated through the
//! [`registry`] of [`MechanismFactory`] objects. The five paper
//! mechanisms are registered by default; library users register custom
//! mechanisms with [`registry::register_mechanism`] and can then run them through
//! `SystemConfig`, `sim::api::Experiment` sweeps and the
//! `cc-sim --mechanism` flag **without touching `crates/core`**.
//!
//! Mechanism parameter values ([`ParamValue`]) are booleans, integers,
//! floats, durations (`1ms`, `2.5ms`) or bare tokens.
//!
//! # Example
//!
//! ```
//! use chargecache::MechanismSpec;
//!
//! let spec: MechanismSpec = "chargecache(entries=1024, duration=2ms)".parse().unwrap();
//! assert_eq!(spec.name(), "chargecache");
//! assert_eq!(spec.to_string(), "chargecache(entries=1024,duration=2ms)");
//!
//! // Built-in specs are registered by default:
//! use chargecache::registry;
//! registry::validate_spec(&spec).unwrap();
//! assert!(registry::validate_spec(&"chargecache(entries=0)".parse().unwrap()).is_err());
//! ```
//!
//! # Registering a custom mechanism
//!
//! ```
//! use chargecache::{
//!     registry, Baseline, LatencyMechanism, MechanismContext, MechanismFactory, MechanismSpec,
//! };
//!
//! struct MyFactory;
//!
//! impl MechanismFactory for MyFactory {
//!     fn name(&self) -> &str {
//!         "doc-baseline"
//!     }
//!     fn describe(&self) -> &str {
//!         "specification timings (doctest demo)"
//!     }
//!     fn validate(&self, spec: &MechanismSpec) -> Result<(), String> {
//!         spec.ensure_known_keys(&[])
//!     }
//!     fn build(
//!         &self,
//!         spec: &MechanismSpec,
//!         ctx: &MechanismContext,
//!     ) -> Result<Box<dyn LatencyMechanism>, String> {
//!         self.validate(spec)?;
//!         Ok(Box::new(Baseline::new(ctx.timing)))
//!     }
//! }
//!
//! registry::register_mechanism(std::sync::Arc::new(MyFactory));
//! let spec: MechanismSpec = "doc-baseline".parse().unwrap();
//! assert!(registry::validate_spec(&spec).is_ok());
//! ```

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::str::FromStr;
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard};

use dram::{is_token, Spec, SpecValue, TimingParams};

use crate::config::{ChargeCacheConfig, InvalidationPolicy, NuatConfig};
use crate::mechanism::{Baseline, CcNuat, ChargeCache, LatencyMechanism, LlDram, Nuat};
use bitline::derive::CycleQuantized;

// ---------------------------------------------------------------------------
// Parameter values
// ---------------------------------------------------------------------------

/// One typed parameter value of a [`MechanismSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer (no decimal point).
    Int(i64),
    /// A float (always displayed with a decimal point or exponent).
    Float(f64),
    /// A duration in milliseconds (`1ms`, `2.5ms`).
    DurationMs(f64),
    /// A bare token (e.g. `invalidation=exact`).
    Str(String),
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Bool(b) => write!(f, "{b}"),
            ParamValue::Int(i) => write!(f, "{i}"),
            ParamValue::Float(x) => {
                let s = format!("{x}");
                if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
                    f.write_str(&s)
                } else {
                    write!(f, "{s}.0")
                }
            }
            ParamValue::DurationMs(x) => write!(f, "{x}ms"),
            ParamValue::Str(s) => f.write_str(s),
        }
    }
}

impl FromStr for ParamValue {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let s = s.trim();
        if s.is_empty() {
            return Err("empty parameter value".into());
        }
        match s {
            "true" => return Ok(ParamValue::Bool(true)),
            "false" => return Ok(ParamValue::Bool(false)),
            _ => {}
        }
        // Only tokens that *start* numerically are candidates for the
        // numeric types; word-shaped tokens `f64` happens to accept
        // ("inf", "nan", "infms") stay `Str`, so Display → FromStr is
        // the identity on every accepted value.
        let numeric_shaped =
            s.starts_with(|c: char| c.is_ascii_digit() || matches!(c, '-' | '+' | '.'));
        if numeric_shaped {
            if let Some(ms) = s.strip_suffix("ms") {
                if let Ok(x) = ms.parse::<f64>() {
                    if !x.is_finite() {
                        return Err(format!("non-finite duration {s:?}"));
                    }
                    return Ok(ParamValue::DurationMs(x));
                }
            }
            if let Ok(i) = s.parse::<i64>() {
                return Ok(ParamValue::Int(i));
            }
            if let Ok(x) = s.parse::<f64>() {
                if !x.is_finite() {
                    return Err(format!("non-finite number {s:?}"));
                }
                return Ok(ParamValue::Float(x));
            }
        }
        if is_token(s) {
            return Ok(ParamValue::Str(s.to_string()));
        }
        Err(format!("unparsable parameter value {s:?}"))
    }
}

impl SpecValue for ParamValue {
    const AXIS: &'static str = "mechanism";
    const DEBUG_AS: (&'static str, &'static str) = ("MechanismSpec", "name");
}

// ---------------------------------------------------------------------------
// MechanismSpec
// ---------------------------------------------------------------------------

/// A mechanism configuration: a registered name plus typed parameters
/// (`"chargecache(entries=1024,duration=1ms)".parse()`).
///
/// A thin wrapper over the shared [`Spec`] grammar type (it dereferences
/// to it for `name`, `params`, `get`, `set` and `ensure_known_keys`) that
/// adds the mechanism-specific shorthands, the figure-legend label and
/// typed parameter getters. Factory defaults apply at build time.
#[derive(Clone, PartialEq)]
pub struct MechanismSpec(Spec<ParamValue>);

impl MechanismSpec {
    /// A spec with no parameters.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid token
    /// (`[A-Za-z_][A-Za-z0-9_.+-]*`).
    pub fn new(name: impl Into<String>) -> Self {
        Self(Spec::new(name))
    }

    /// Builder-style parameter setter.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not a valid token.
    #[must_use]
    pub fn with(self, key: impl Into<String>, value: ParamValue) -> Self {
        Self(self.0.with(key, value))
    }

    /// A positive integer parameter with a default.
    ///
    /// # Errors
    ///
    /// Returns a message if the value is present but not a non-negative
    /// integer.
    pub fn usize_param(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(ParamValue::Int(i)) if *i >= 0 => Ok(*i as usize),
            Some(v) => Err(format!("{key} must be a non-negative integer, got {v}")),
        }
    }

    /// A float parameter with a default (accepts ints, floats and
    /// durations).
    ///
    /// # Errors
    ///
    /// Returns a message if the value is present but not numeric.
    pub fn f64_param(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(ParamValue::Int(i)) => Ok(*i as f64),
            Some(ParamValue::Float(x)) | Some(ParamValue::DurationMs(x)) => Ok(*x),
            Some(v) => Err(format!("{key} must be numeric, got {v}")),
        }
    }

    /// A duration parameter in milliseconds with a default (bare numbers
    /// are read as milliseconds).
    ///
    /// # Errors
    ///
    /// Returns a message if the value is present but not numeric.
    pub fn duration_ms_param(&self, key: &str, default: f64) -> Result<f64, String> {
        self.f64_param(key, default)
    }

    /// A boolean parameter with a default.
    ///
    /// # Errors
    ///
    /// Returns a message if the value is present but not a boolean.
    pub fn bool_param(&self, key: &str, default: bool) -> Result<bool, String> {
        match self.get(key) {
            None => Ok(default),
            Some(ParamValue::Bool(b)) => Ok(*b),
            Some(v) => Err(format!("{key} must be true or false, got {v}")),
        }
    }

    /// A token parameter with a default.
    ///
    /// # Errors
    ///
    /// Returns a message if the value is present but not a bare token.
    pub fn str_param(&self, key: &str, default: &str) -> Result<String, String> {
        match self.get(key) {
            None => Ok(default.to_string()),
            Some(ParamValue::Str(s)) => Ok(s.clone()),
            Some(v) => Err(format!("{key} must be a token, got {v}")),
        }
    }

    /// Human-readable label (the paper's legend names for built-ins),
    /// resolved through the global registry; falls back to the name for
    /// unregistered mechanisms.
    pub fn label(&self) -> String {
        registry::label_of(self)
    }
}

impl Deref for MechanismSpec {
    type Target = Spec<ParamValue>;

    fn deref(&self) -> &Spec<ParamValue> {
        &self.0
    }
}

impl DerefMut for MechanismSpec {
    fn deref_mut(&mut self) -> &mut Spec<ParamValue> {
        &mut self.0
    }
}

impl fmt::Debug for MechanismSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl fmt::Display for MechanismSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl FromStr for MechanismSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        s.parse().map(Self)
    }
}

// Built-in spec shorthands (paper order).
impl MechanismSpec {
    /// Unmodified DDR3 timing.
    pub fn baseline() -> Self {
        Self::new("baseline")
    }

    /// NUAT (recently-refreshed rows are fast).
    pub fn nuat() -> Self {
        Self::new("nuat")
    }

    /// ChargeCache with the paper's Table 1 defaults.
    pub fn chargecache() -> Self {
        Self::new("chargecache")
    }

    /// ChargeCache with NUAT fallback.
    pub fn cc_nuat() -> Self {
        Self::new("cc-nuat")
    }

    /// Idealized low-latency DRAM.
    pub fn lldram() -> Self {
        Self::new("lldram")
    }

    /// The five comparison points, in the order the paper's figures
    /// present them.
    pub fn paper_all() -> [MechanismSpec; 5] {
        [
            Self::baseline(),
            Self::nuat(),
            Self::chargecache(),
            Self::cc_nuat(),
            Self::lldram(),
        ]
    }
}

// ---------------------------------------------------------------------------
// Factories and the registry
// ---------------------------------------------------------------------------

/// Build-time context handed to a [`MechanismFactory`].
pub struct MechanismContext<'a> {
    /// The DRAM timing parameters of the target system.
    pub timing: &'a TimingParams,
    /// Number of cores in the target system.
    pub cores: usize,
}

/// Builds and validates one named mechanism family.
pub trait MechanismFactory: Send + Sync {
    /// The registered name ([`Spec::name`] lookup key).
    fn name(&self) -> &str;

    /// Accepted alternate names (e.g. `cc` for `chargecache`).
    fn aliases(&self) -> &[&str] {
        &[]
    }

    /// Human-readable label for figure legends (defaults to the name).
    fn label(&self) -> &str {
        self.name()
    }

    /// One-line description for `cc-sim --list-mechanisms`.
    fn describe(&self) -> &str;

    /// A spec carrying every supported parameter at its default value
    /// (drives `--list-mechanisms` output and parameter patching in
    /// sweeps). Defaults to the bare name (no parameters).
    fn defaults(&self) -> MechanismSpec {
        MechanismSpec::new(self.name().to_string())
    }

    /// Checks a spec without building (unknown keys, out-of-range
    /// values). Called by `SystemConfig::validate`.
    ///
    /// # Errors
    ///
    /// Returns the first violated requirement.
    fn validate(&self, spec: &MechanismSpec) -> Result<(), String>;

    /// Builds one mechanism instance (one per channel).
    ///
    /// # Errors
    ///
    /// Returns the first violated requirement.
    fn build(
        &self,
        spec: &MechanismSpec,
        ctx: &MechanismContext,
    ) -> Result<Box<dyn LatencyMechanism>, String>;
}

/// The process-wide mechanism registry used by `SystemConfig`, `cc-sim`
/// and `cc-simd`: one ordered list of [`MechanismFactory`] objects.
///
/// Registration order is preserved (the five built-ins first, in paper
/// order); registering a factory whose name collides with an existing
/// one replaces it.
pub mod registry {
    use super::*;

    type Factories = Vec<Arc<dyn MechanismFactory>>;

    fn global() -> &'static RwLock<Factories> {
        static GLOBAL: OnceLock<RwLock<Factories>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            RwLock::new(vec![
                Arc::new(BaselineFactory),
                Arc::new(NuatFactory),
                Arc::new(ChargeCacheFactory),
                Arc::new(CcNuatFactory),
                Arc::new(LlDramFactory),
            ])
        })
    }

    fn factories() -> RwLockReadGuard<'static, Factories> {
        global().read().expect("mechanism registry poisoned")
    }

    /// Registers a factory (replacing any prior factory of the same
    /// name, so re-registration is idempotent).
    pub fn register_mechanism(factory: Arc<dyn MechanismFactory>) {
        let mut all = global().write().expect("mechanism registry poisoned");
        match all.iter_mut().find(|f| f.name() == factory.name()) {
            Some(slot) => *slot = factory,
            None => all.push(factory),
        }
    }

    /// The factory registered under `name` (exact name or alias).
    pub fn resolve(name: &str) -> Option<Arc<dyn MechanismFactory>> {
        factories()
            .iter()
            .find(|f| f.name() == name || f.aliases().contains(&name))
            .cloned()
    }

    /// The factory of `spec`, or the unknown-mechanism message listing
    /// every registered name.
    fn factory_of(spec: &MechanismSpec) -> Result<Arc<dyn MechanismFactory>, String> {
        resolve(spec.name()).ok_or_else(|| {
            format!(
                "unknown mechanism {:?} (registered: {})",
                spec.name(),
                factories()
                    .iter()
                    .map(|f| f.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
    }

    /// Validates a spec against its factory.
    ///
    /// # Errors
    ///
    /// Returns a message if the name is unregistered or the parameters
    /// are rejected.
    pub fn validate_spec(spec: &MechanismSpec) -> Result<(), String> {
        factory_of(spec)?.validate(spec)
    }

    /// Builds one mechanism instance for `spec`.
    ///
    /// # Errors
    ///
    /// Returns a message if the name is unregistered or the parameters
    /// are rejected.
    pub fn build_spec(
        spec: &MechanismSpec,
        ctx: &MechanismContext,
    ) -> Result<Box<dyn LatencyMechanism>, String> {
        factory_of(spec)?.build(spec, ctx)
    }

    /// The figure-legend label of a spec (name if unregistered).
    pub fn label_of(spec: &MechanismSpec) -> String {
        resolve(spec.name()).map_or_else(|| spec.name().to_string(), |f| f.label().to_string())
    }

    /// Returns `spec` with its name replaced by the registered factory's
    /// canonical name, resolving aliases (`cc` → `chargecache`,
    /// `ccnuat` → `cc-nuat`, `ll` → `lldram`); parameters are kept.
    /// Unregistered names pass through unchanged (they fail validation
    /// with their own message later).
    pub fn canonicalize(spec: &MechanismSpec) -> MechanismSpec {
        match resolve(spec.name()) {
            Some(f) if f.name() != spec.name() => {
                let mut renamed = MechanismSpec::new(f.name().to_string());
                for (k, v) in spec.params() {
                    renamed.set(k.clone(), v.clone());
                }
                renamed
            }
            _ => spec.clone(),
        }
    }

    /// True if a factory supports a parameter key (its
    /// [`MechanismFactory::defaults`] spec carries the key). Sweep-axis
    /// patches use this so e.g. an `entries` override applies to
    /// ChargeCache cells but leaves Baseline cells untouched (and
    /// memoizable).
    pub fn supports_param(spec: &MechanismSpec, key: &str) -> bool {
        resolve(spec.name()).is_some_and(|f| f.defaults().get(key).is_some())
    }

    /// `(name, label, defaults, description)` of every registered
    /// factory, in registration order (for `cc-sim --list-mechanisms`).
    pub fn list() -> Vec<(String, String, MechanismSpec, String)> {
        factories()
            .iter()
            .map(|f| {
                (
                    f.name().to_string(),
                    f.label().to_string(),
                    f.defaults(),
                    f.describe().to_string(),
                )
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Built-in factories
// ---------------------------------------------------------------------------

/// Parses and validates ChargeCache parameters (`entries`, `ways`,
/// `duration`, `shared`, `unlimited`, `invalidation`, each defaulting to
/// the paper's configuration), quantizing the caching duration's
/// reductions at `tck_ns`. Shared by `chargecache`, `cc-nuat` and
/// ChargeCache variants registered outside this crate.
///
/// # Errors
///
/// Returns a message for an ill-typed value, an unknown invalidation
/// policy, a non-positive duration or an invalid HCRAC geometry. Keys
/// are not checked: callers check them against their own accepted-key
/// list first.
pub fn cc_config_from(spec: &MechanismSpec, tck_ns: f64) -> Result<ChargeCacheConfig, String> {
    let entries = spec.usize_param("entries", 128)?;
    let ways = spec.usize_param("ways", 2)?;
    let duration_ms = spec.duration_ms_param("duration", 1.0)?;
    let shared = spec.bool_param("shared", false)?;
    let unlimited = spec.bool_param("unlimited", false)?;
    let invalidation = match spec.str_param("invalidation", "periodic")?.as_str() {
        "periodic" => InvalidationPolicy::Periodic,
        "exact" => InvalidationPolicy::Exact,
        other => {
            return Err(format!(
                "invalidation must be \"periodic\" or \"exact\", got {other:?}"
            ))
        }
    };
    if !(duration_ms.is_finite() && duration_ms > 0.0) {
        return Err("caching duration must be positive".into());
    }
    let cfg = ChargeCacheConfig {
        entries_per_core: entries,
        ways,
        duration_ms,
        reductions: CycleQuantized::for_duration_ms(duration_ms, tck_ns),
        invalidation,
        shared,
        unlimited,
    };
    cfg.validate()?;
    Ok(cfg)
}

const CC_KEYS: &[&str] = &[
    "entries",
    "ways",
    "duration",
    "shared",
    "unlimited",
    "invalidation",
];

fn cc_default_params(name: &str) -> MechanismSpec {
    MechanismSpec::new(name.to_string())
        .with("entries", ParamValue::Int(128))
        .with("ways", ParamValue::Int(2))
        .with("duration", ParamValue::DurationMs(1.0))
        .with("shared", ParamValue::Bool(false))
        .with("unlimited", ParamValue::Bool(false))
        .with("invalidation", ParamValue::Str("periodic".into()))
}

struct BaselineFactory;

impl MechanismFactory for BaselineFactory {
    fn name(&self) -> &str {
        "baseline"
    }
    fn label(&self) -> &str {
        "Baseline"
    }
    fn describe(&self) -> &str {
        "unmodified DDR3 specification timings"
    }
    fn validate(&self, spec: &MechanismSpec) -> Result<(), String> {
        spec.ensure_known_keys(&[])
    }
    fn build(
        &self,
        spec: &MechanismSpec,
        ctx: &MechanismContext,
    ) -> Result<Box<dyn LatencyMechanism>, String> {
        self.validate(spec)?;
        Ok(Box::new(Baseline::new(ctx.timing)))
    }
}

struct NuatFactory;

impl MechanismFactory for NuatFactory {
    fn name(&self) -> &str {
        "nuat"
    }
    fn label(&self) -> &str {
        "NUAT"
    }
    fn describe(&self) -> &str {
        "reduced timings for recently-refreshed rows (Shin et al., HPCA 2014; 5PB bins)"
    }
    fn validate(&self, spec: &MechanismSpec) -> Result<(), String> {
        spec.ensure_known_keys(&[])?;
        NuatConfig::paper_5pb().validate()
    }
    fn build(
        &self,
        spec: &MechanismSpec,
        ctx: &MechanismContext,
    ) -> Result<Box<dyn LatencyMechanism>, String> {
        self.validate(spec)?;
        // Bin reductions quantize against the *selected* clock, not the
        // paper's 1.25 ns default.
        Ok(Box::new(Nuat::new(
            NuatConfig::paper_5pb_for(ctx.timing.tck_ns),
            ctx.timing,
        )))
    }
}

struct ChargeCacheFactory;

impl MechanismFactory for ChargeCacheFactory {
    fn name(&self) -> &str {
        "chargecache"
    }
    fn aliases(&self) -> &[&str] {
        &["cc"]
    }
    fn label(&self) -> &str {
        "ChargeCache"
    }
    fn describe(&self) -> &str {
        "the paper's mechanism: HCRAC of recently-precharged rows + IIC/EC invalidation"
    }
    fn defaults(&self) -> MechanismSpec {
        cc_default_params(self.name())
    }
    fn validate(&self, spec: &MechanismSpec) -> Result<(), String> {
        spec.ensure_known_keys(CC_KEYS)?;
        cc_config_from(spec, 1.25).map(|_| ())
    }
    fn build(
        &self,
        spec: &MechanismSpec,
        ctx: &MechanismContext,
    ) -> Result<Box<dyn LatencyMechanism>, String> {
        spec.ensure_known_keys(CC_KEYS)?;
        let cfg = cc_config_from(spec, ctx.timing.tck_ns)?;
        if ctx.cores == 0 {
            return Err("need at least one core".into());
        }
        Ok(Box::new(ChargeCache::new(cfg, ctx.timing, ctx.cores)))
    }
}

struct CcNuatFactory;

impl MechanismFactory for CcNuatFactory {
    fn name(&self) -> &str {
        "cc-nuat"
    }
    fn aliases(&self) -> &[&str] {
        &["ccnuat"]
    }
    fn label(&self) -> &str {
        "ChargeCache + NUAT"
    }
    fn describe(&self) -> &str {
        "ChargeCache with NUAT refresh-age bins as the fallback on an HCRAC miss"
    }
    fn defaults(&self) -> MechanismSpec {
        cc_default_params(self.name())
    }
    fn validate(&self, spec: &MechanismSpec) -> Result<(), String> {
        spec.ensure_known_keys(CC_KEYS)?;
        cc_config_from(spec, 1.25)?;
        NuatConfig::paper_5pb().validate()
    }
    fn build(
        &self,
        spec: &MechanismSpec,
        ctx: &MechanismContext,
    ) -> Result<Box<dyn LatencyMechanism>, String> {
        spec.ensure_known_keys(CC_KEYS)?;
        let cfg = cc_config_from(spec, ctx.timing.tck_ns)?;
        if ctx.cores == 0 {
            return Err("need at least one core".into());
        }
        Ok(Box::new(CcNuat::new(
            cfg,
            NuatConfig::paper_5pb_for(ctx.timing.tck_ns),
            ctx.timing,
            ctx.cores,
        )))
    }
}

struct LlDramFactory;

impl MechanismFactory for LlDramFactory {
    fn name(&self) -> &str {
        "lldram"
    }
    fn aliases(&self) -> &[&str] {
        &["ll"]
    }
    fn label(&self) -> &str {
        "Low-Latency DRAM"
    }
    fn describe(&self) -> &str {
        "idealized device: every activation uses the ChargeCache hit timings"
    }
    fn defaults(&self) -> MechanismSpec {
        MechanismSpec::new(self.name().to_string()).with("duration", ParamValue::DurationMs(1.0))
    }
    fn validate(&self, spec: &MechanismSpec) -> Result<(), String> {
        spec.ensure_known_keys(&["duration"])?;
        let d = spec.duration_ms_param("duration", 1.0)?;
        if !(d.is_finite() && d > 0.0) {
            return Err("caching duration must be positive".into());
        }
        Ok(())
    }
    fn build(
        &self,
        spec: &MechanismSpec,
        ctx: &MechanismContext,
    ) -> Result<Box<dyn LatencyMechanism>, String> {
        self.validate(spec)?;
        let d = spec.duration_ms_param("duration", 1.0)?;
        let reductions = CycleQuantized::for_duration_ms(d, ctx.timing.tck_ns);
        Ok(Box::new(LlDram::new(reductions, ctx.timing)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram::{FamilyValue, TimingValue};

    // -----------------------------------------------------------------
    // The shared grammar, exercised on all three axes
    // -----------------------------------------------------------------

    /// Parses `src` as a `Spec<V>` and checks it displays as `canonical`
    /// and that Display → FromStr is the identity.
    fn parses_to<V: SpecValue>(src: &str, canonical: &str) {
        let spec: Spec<V> = src.parse().unwrap_or_else(|e| panic!("{src:?}: {e}"));
        assert_eq!(spec.to_string(), canonical, "{src:?}");
        assert_eq!(canonical.parse::<Spec<V>>().unwrap(), spec, "{src:?}");
    }

    #[test]
    fn display_roundtrips_hand_written_specs() {
        for src in [
            "baseline",
            "chargecache(entries=1024,duration=1ms)",
            "cc-nuat(entries=64,ways=4,shared=true)",
            "lldram(duration=2.5ms)",
            "custom_x(alpha=0.5,mode=fast,n=-3)",
        ] {
            parses_to::<ParamValue>(src, src);
        }
        for src in [
            "ddr3-1600",
            "ddr3-1600(trcd=13,tck=1.5)",
            "ddr3-1866(tck=2.0)",
        ] {
            parses_to::<TimingValue>(src, src);
        }
        for src in [
            "ddr3",
            "ddr4(bank_groups=2)",
            "hbm2(channels=4,refresh=per-bank)",
        ] {
            parses_to::<FamilyValue>(src, src);
        }
    }

    #[test]
    fn parse_tolerates_whitespace_and_normalizes() {
        let mechanism = [
            (
                "  chargecache ( entries = 256 , duration = 4ms )  ",
                "chargecache(entries=256,duration=4ms)",
            ),
            ("nuat()", "nuat"),
        ];
        for (src, canonical) in mechanism {
            parses_to::<ParamValue>(src, canonical);
        }
        let timing = [
            (
                "  ddr3-1866 ( trcd = 12 , tfaw = 26 )  ",
                "ddr3-1866(trcd=12,tfaw=26)",
            ),
            ("ddr3-1333()", "ddr3-1333"),
        ];
        for (src, canonical) in timing {
            parses_to::<TimingValue>(src, canonical);
        }
        let family = [
            (
                "  hbm2 ( channels = 4 , refresh = per-bank )  ",
                "hbm2(channels=4,refresh=per-bank)",
            ),
            ("lpddr4x()", "lpddr4x"),
        ];
        for (src, canonical) in family {
            parses_to::<FamilyValue>(src, canonical);
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        fn rejects<V: SpecValue>(bad: &str) -> String {
            match bad.parse::<Spec<V>>() {
                Ok(spec) => panic!("{} spec accepted {bad:?} as {spec}", V::AXIS),
                Err(e) => e,
            }
        }
        // Grammar-level rejections hold on every axis.
        for bad in [
            "",
            "x(",
            "x)y",
            "(k=1)",
            "x(k)",
            "x(k=1,k=2)",
            "x(=1)",
            "1x",
            "x(k=)",
            "x(k=1)junk",
        ] {
            rejects::<ParamValue>(bad);
            rejects::<TimingValue>(bad);
            rejects::<FamilyValue>(bad);
        }
        // Messages name the axis.
        assert!(rejects::<ParamValue>("cc(k=1,k=2)").contains("duplicate mechanism parameter"));
        assert!(rejects::<TimingValue>("x(k=1,k=2)").contains("duplicate timing parameter"));
        assert!(rejects::<FamilyValue>("x(k=1,k=2)").contains("duplicate family parameter"));
        // Each axis's value type rejects what that axis cannot hold.
        for bad in ["cc(k=1e999)", "cc(k=1e999ms)", "cc(k=1.5.5)", "cc(k=a b)"] {
            rejects::<ParamValue>(bad);
        }
        for bad in [
            "ddr3-1600(trcd=abc)",
            "ddr3-1600(tck=1e999)",
            "ddr3-1600(k=true)",
        ] {
            rejects::<TimingValue>(bad);
        }
        for bad in [
            "ddr4(refresh=per bank)",
            "ddr4(banks=-1)",
            "ddr4(banks=1.5)",
        ] {
            rejects::<FamilyValue>(bad);
        }
    }

    /// Dependency-free property test: a seeded xorshift generator
    /// produces arbitrary valid specs whose values come from `value`
    /// (`None` skips a draw); Display → FromStr must be the identity on
    /// every one of them.
    fn random_specs_roundtrip<V: SpecValue>(
        seed: u64,
        value: impl Fn(&mut dyn FnMut() -> u64, String) -> Option<V>,
    ) {
        let mut state = seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let token = |r: &mut dyn FnMut() -> u64| {
            const HEAD: &[u8] = b"abcdefghijklmnopqrstuvwxyz_";
            const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_.+-";
            let mut s = String::new();
            s.push(HEAD[(r() % HEAD.len() as u64) as usize] as char);
            for _ in 0..r() % 8 {
                s.push(TAIL[(r() % TAIL.len() as u64) as usize] as char);
            }
            s
        };
        for _ in 0..500 {
            let mut spec = Spec::<V>::new(token(&mut next));
            for i in 0..next() % 5 {
                let word = token(&mut next);
                let Some(v) = value(&mut next, word) else {
                    continue;
                };
                // Unique keys: suffix with the index.
                spec.set(format!("{}{i}", token(&mut next)), v);
            }
            let text = spec.to_string();
            let parsed: Spec<V> = text
                .parse()
                .unwrap_or_else(|e| panic!("{text:?} failed to parse: {e}"));
            assert_eq!(parsed, spec, "round-trip changed {text:?}");
            assert_eq!(parsed.to_string(), text);
        }
    }

    #[test]
    fn seeded_random_specs_roundtrip_through_display() {
        random_specs_roundtrip(0x1234_5678_9ABC_DEF0, |r, word| {
            Some(match r() % 5 {
                0 => ParamValue::Bool(r() % 2 == 0),
                1 => ParamValue::Int(r() as i64 % 10_000),
                2 => ParamValue::Float((r() % 1_000_000) as f64 / 128.0),
                3 => ParamValue::DurationMs((r() % 10_000) as f64 / 16.0),
                // The two boolean literals are the only tokens that
                // re-parse as another type; skip them.
                _ if word == "true" || word == "false" => return None,
                _ => ParamValue::Str(word),
            })
        });
        random_specs_roundtrip(0xDEAD_BEEF_0BAD_F00D, |r, _| {
            Some(match r() % 2 {
                0 => TimingValue::Int((r() % 10_000) as u32),
                _ => TimingValue::Float((r() % 1_000_000) as f64 / 128.0),
            })
        });
        random_specs_roundtrip(0x0F0F_1234_ABCD_5678, |r, word| {
            Some(match r() % 2 {
                0 => FamilyValue::Int(r() as u32),
                _ => FamilyValue::Token(word),
            })
        });
    }

    #[test]
    fn debug_text_keeps_each_axis_historical_shape() {
        // The Debug text is part of every run's content key.
        let m: MechanismSpec = "cc(entries=2)".parse().unwrap();
        assert_eq!(
            format!("{m:?}"),
            r#"MechanismSpec { name: "cc", params: [("entries", Int(2))] }"#
        );
        let t: dram::TimingSpec = "ddr3-1600(tck=1.5)".parse().unwrap();
        assert_eq!(
            format!("{t:?}"),
            r#"TimingSpec { preset: "ddr3-1600", params: [("tck", Float(1.5))] }"#
        );
        let f: dram::FamilySpec = "ddr4(refresh=per-bank)".parse().unwrap();
        assert_eq!(
            format!("{f:?}"),
            r#"FamilySpec { family: "ddr4", params: [("refresh", Token("per-bank"))] }"#
        );
    }

    fn ctx(timing: &TimingParams) -> MechanismContext<'_> {
        MechanismContext { timing, cores: 2 }
    }

    #[test]
    fn param_value_types_parse_distinctly() {
        assert_eq!(
            "true".parse::<ParamValue>().unwrap(),
            ParamValue::Bool(true)
        );
        assert_eq!("42".parse::<ParamValue>().unwrap(), ParamValue::Int(42));
        assert_eq!("2.5".parse::<ParamValue>().unwrap(), ParamValue::Float(2.5));
        assert_eq!(
            "4ms".parse::<ParamValue>().unwrap(),
            ParamValue::DurationMs(4.0)
        );
        assert_eq!(
            "exact".parse::<ParamValue>().unwrap(),
            ParamValue::Str("exact".into())
        );
        // Integer-valued floats still display with a decimal point, so the
        // type survives a round-trip.
        assert_eq!(ParamValue::Float(4.0).to_string(), "4.0");
        assert_eq!("4.0".parse::<ParamValue>().unwrap(), ParamValue::Float(4.0));
    }

    #[test]
    fn builtin_registry_builds_all_five() {
        let timing = TimingParams::ddr3_1600();
        for spec in MechanismSpec::paper_all() {
            registry::validate_spec(&spec).unwrap();
            let m = registry::build_spec(&spec, &ctx(&timing)).unwrap();
            assert_eq!(m.name(), spec.name());
        }
        // Other tests may register more factories concurrently; the
        // built-ins always lead, in paper order.
        let names: Vec<String> = registry::list().into_iter().map(|(n, ..)| n).collect();
        let paper: Vec<String> = MechanismSpec::paper_all()
            .iter()
            .map(|s| s.name().to_string())
            .collect();
        assert_eq!(names[..5], paper[..]);
    }

    #[test]
    fn aliases_resolve_to_the_same_factory() {
        assert_eq!(registry::resolve("cc").unwrap().name(), "chargecache");
        assert_eq!(registry::resolve("ccnuat").unwrap().name(), "cc-nuat");
        assert_eq!(registry::resolve("ll").unwrap().name(), "lldram");
        assert!(registry::resolve("nope").is_none());
    }

    #[test]
    fn validation_rejects_bad_params_without_building() {
        let validate = |s: &str| registry::validate_spec(&s.parse().unwrap()).unwrap_err();
        // entries=0: no HCRAC capacity.
        let e = validate("chargecache(entries=0)");
        assert!(e.contains("entry"), "{e}");
        // 96/2 = 48 sets: not a power of two.
        let e = validate("chargecache(entries=96)");
        assert!(e.contains("power of two"), "{e}");
        // Zero caching duration.
        let e = validate("chargecache(duration=0ms)");
        assert!(e.contains("positive"), "{e}");
        // Unknown parameter key.
        let e = validate("baseline(entries=128)");
        assert!(e.contains("unknown parameter"), "{e}");
        // Unknown mechanism.
        let e = validate("warp-drive");
        assert!(e.contains("unknown mechanism"), "{e}");
    }

    #[test]
    fn chargecache_params_reach_the_mechanism() {
        let timing = TimingParams::ddr3_1600();
        let spec: MechanismSpec = "chargecache(duration=16ms)".parse().unwrap();
        let mut m = registry::build_spec(&spec, &ctx(&timing)).unwrap();
        // 16 ms reductions are weaker than the 1 ms pair (Table 2).
        let key = crate::RowKey::new(0, 0, 0, 1);
        m.on_precharge(0, 0, key);
        let t = m.on_activate(10, 0, key, u64::MAX);
        let paper = timing.act_timings().reduced_by(4, 8);
        assert!(t.trcd > paper.trcd);
        assert!(t.trcd < timing.trcd);
    }

    #[test]
    fn registering_a_custom_factory_replaces_and_extends() {
        struct Custom;
        impl MechanismFactory for Custom {
            fn name(&self) -> &str {
                "custom-test"
            }
            fn describe(&self) -> &str {
                "test double"
            }
            fn validate(&self, spec: &MechanismSpec) -> Result<(), String> {
                spec.ensure_known_keys(&["x"])
            }
            fn build(
                &self,
                spec: &MechanismSpec,
                ctx: &MechanismContext,
            ) -> Result<Box<dyn LatencyMechanism>, String> {
                self.validate(spec)?;
                Ok(Box::new(Baseline::new(ctx.timing)))
            }
        }
        let custom = || {
            registry::list()
                .iter()
                .filter(|(n, ..)| n == "custom-test")
                .count()
        };
        registry::register_mechanism(Arc::new(Custom));
        assert_eq!(custom(), 1);
        registry::validate_spec(&"custom-test(x=1)".parse().unwrap()).unwrap();
        // Re-registration replaces, not duplicates.
        registry::register_mechanism(Arc::new(Custom));
        assert_eq!(custom(), 1);
    }
}
