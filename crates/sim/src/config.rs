//! Full-system configuration (the paper's Table 1).

use chargecache::{registry, MechanismSpec};
use cpu::{CoreConfig, LlcConfig};
use dram::{DramConfig, FamilySpec, TimingSpec};
use memctrl::CtrlConfig;

/// The paper's core clock in GHz (Table 1); [`SystemConfig::set_timing`]
/// re-derives `cpu_per_bus` from it so the simulated CPU stays at ~4 GHz
/// whatever bus clock the timing preset selects.
const CPU_GHZ: f64 = 4.0;

/// A configuration rejected by [`SystemConfig::validate`]: the first
/// violated constraint, as a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidConfig(pub String);

impl std::fmt::Display for InvalidConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for InvalidConfig {}

/// Main-loop implementation of [`crate::System`].
///
/// Both engines simulate the identical discrete-event semantics — the
/// differential test in `tests/engine_equivalence.rs` holds them to
/// bit-identical results — they differ only in how they traverse time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Event-driven cycle skipping (default): when every core is stalled
    /// on DRAM, advance `now` directly to the earliest cycle anything can
    /// happen (a fill returning, a command becoming timing-legal, a
    /// queued cache hit maturing, refresh duty engaging) instead of
    /// burning one `step()` per cycle.
    #[default]
    EventSkip,
    /// Dense per-cycle stepping — the reference implementation, kept for
    /// differential testing and single-cycle debugging.
    PerCycle,
}

/// Complete system description for one simulation run.
///
/// The `Debug` form of this struct (together with the workloads and
/// `ExpParams`) is the memoization key of `sim::api` and, hashed through
/// [`crate::cache::content_key`], the filename of persisted run-cache
/// entries. That makes two properties load-bearing: the format is
/// deterministic (plain fields only — no maps with iteration-order
/// freedom), and any semantic change to a field shows up in the text
/// (renaming or adding fields invalidates old disk entries, which is
/// safe; *silently reusing* them would not be).
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of cores.
    pub cores: usize,
    /// CPU cycles per DRAM bus cycle (4 GHz over 800 MHz → 5).
    pub cpu_per_bus: u64,
    /// Core model parameters.
    pub core: CoreConfig,
    /// Shared LLC parameters.
    pub llc: LlcConfig,
    /// DRAM organization and timing. `dram.timing` holds the *resolved*
    /// parameter set; it must agree with [`SystemConfig::timing`]
    /// ([`SystemConfig::validate`] checks) — change timings through
    /// [`SystemConfig::set_timing`], which keeps the two in sync and
    /// re-derives [`SystemConfig::cpu_per_bus`].
    pub dram: DramConfig,
    /// Controller parameters.
    pub ctrl: CtrlConfig,
    /// Latency mechanism under test, as a registry-resolvable spec.
    /// Parameters live inside the spec (`chargecache(entries=1024)`), so
    /// a configuration carries exactly the knobs its mechanism reads —
    /// nothing else. Custom mechanisms registered through
    /// [`chargecache::registry::register_mechanism`] plug in here without
    /// any simulator change.
    pub mechanism: MechanismSpec,
    /// DRAM timing selection, as a preset spec (`ddr3-1600`,
    /// `ddr3-2133(trcd=13)`, …) mirroring the mechanism-spec grammar.
    /// This is the *source of truth* the JSON output records per cell;
    /// `dram.timing` carries its resolution. Defaults to the paper's
    /// `ddr3-1600` device.
    pub timing: TimingSpec,
    /// DRAM device-family selection (`ddr3`, `ddr4`, `lpddr4x`,
    /// `hbm2(refresh=per-bank)`, …): the structural side of the device —
    /// bank groups, per-bank refresh, channel/pseudo-channel geometry.
    /// Source of truth recorded per sweep cell; `dram.org`,
    /// `dram.refresh` and the group timings in `dram.timing` carry its
    /// resolution — change families through
    /// [`SystemConfig::set_family`], which keeps them in sync.
    pub family: FamilySpec,
    /// Main-loop engine (cycle-skipping by default).
    pub engine: Engine,
    /// Report the measured commands' DRAM energy, priced from the
    /// device's fixed-size energy meter. When off, the result's energy
    /// is that of an idle device over the run. [`crate::System::try_new`]
    /// also enables the device's command log under this flag, for
    /// callers that take the log themselves; the cell drivers switch
    /// the log off.
    pub measure_energy: bool,
}

impl SystemConfig {
    /// The paper's single-core system: 1 channel, open-row policy.
    pub fn paper_single_core(mechanism: MechanismSpec) -> Self {
        Self {
            cores: 1,
            cpu_per_bus: 5,
            core: CoreConfig::paper(),
            llc: LlcConfig::paper_4mb(),
            dram: DramConfig::ddr3_1600_paper(),
            ctrl: CtrlConfig::paper_single_core(),
            mechanism,
            timing: TimingSpec::default(),
            family: FamilySpec::default(),
            engine: Engine::default(),
            measure_energy: true,
        }
    }

    /// The paper's eight-core system: 2 channels, closed-row policy.
    pub fn paper_eight_core(mechanism: MechanismSpec) -> Self {
        Self {
            cores: 8,
            cpu_per_bus: 5,
            core: CoreConfig::paper(),
            llc: LlcConfig::paper_4mb(),
            dram: DramConfig::ddr3_1600_paper_2ch(),
            ctrl: CtrlConfig::paper_multi_core(),
            mechanism,
            timing: TimingSpec::default(),
            family: FamilySpec::default(),
            engine: Engine::default(),
            measure_energy: true,
        }
    }

    /// Installs a timing spec: resolves it, replaces the DRAM timing
    /// parameters, and re-derives [`SystemConfig::cpu_per_bus`] so the
    /// simulated core clock stays at the paper's 4 GHz whatever bus
    /// clock the preset selects (`ddr3-1600` keeps the Table 1 ratio
    /// of 5 exactly).
    ///
    /// # Errors
    ///
    /// Returns a message if the spec names an unknown preset, carries an
    /// unknown or ill-typed override, or resolves to an incoherent
    /// parameter set ([`TimingSpec::resolve`]).
    pub fn set_timing(&mut self, spec: TimingSpec) -> Result<(), String> {
        let t = spec.resolve()?;
        // The device family's structural timings (group spacing, tRFCpb)
        // always overlay the bin; the default ddr3 family patches
        // nothing, keeping pre-family behavior bit-identical.
        let fam = dram::family::resolve(&self.family)
            .map_err(|e| format!("family {}: {e}", self.family))?;
        let t = fam.apply_to(t);
        self.cpu_per_bus = (CPU_GHZ * t.tck_ns).round().max(1.0) as u64;
        self.dram.timing = t;
        self.timing = spec;
        Ok(())
    }

    /// Builder form of [`SystemConfig::set_timing`].
    ///
    /// # Errors
    ///
    /// Returns a message if the spec fails to resolve.
    pub fn with_timing(mut self, spec: TimingSpec) -> Result<Self, String> {
        self.set_timing(spec)?;
        Ok(self)
    }

    /// Installs a device family: resolves it, replaces the DRAM
    /// organization, retention window and refresh granularity, and
    /// re-applies the timing so the family's structural timings overlay
    /// the selected bin. If the timing spec is still the bare default,
    /// the family's default speed bin is adopted (selecting `lpddr4x`
    /// without naming a bin means LPDDR4x timings, not DDR3-1600 on
    /// LPDDR geometry); an explicitly chosen timing spec is kept.
    ///
    /// # Errors
    ///
    /// Returns a message if the family spec is unknown or resolves to a
    /// structurally invalid device ([`dram::family::FamilyError`]).
    pub fn set_family(&mut self, spec: FamilySpec) -> Result<(), String> {
        let fam = dram::family::resolve(&spec).map_err(|e| format!("family {spec}: {e}"))?;
        self.dram.org = fam.organization();
        self.dram.retention_ms = fam.retention_ms;
        self.dram.refresh = fam.refresh;
        let timing = if self.timing.is_default() {
            fam.default_timing_spec()
        } else {
            self.timing.clone()
        };
        self.family = spec;
        self.set_timing(timing)
    }

    /// Builder form of [`SystemConfig::set_family`].
    ///
    /// # Errors
    ///
    /// Returns a message if the family spec fails to resolve.
    pub fn with_family(mut self, spec: FamilySpec) -> Result<Self, String> {
        self.set_family(spec)?;
        Ok(self)
    }

    /// Validates every sub-configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("need at least one core".into());
        }
        if self.cpu_per_bus == 0 {
            return Err("cpu_per_bus must be non-zero".into());
        }
        self.llc.validate()?;
        self.dram.validate()?;
        self.ctrl.validate()?;
        // The family spec is resolved first: it overlays structural
        // timings on the bin and fixes the refresh granularity. Unknown
        // families, incoherent group spacing and unsupported per-bank
        // refresh all surface here as typed FamilyError messages.
        let fam = dram::family::resolve(&self.family)
            .map_err(|e| format!("family {}: {e}", self.family))?;
        if self.dram.refresh != fam.refresh {
            return Err(format!(
                "dram.refresh does not match the family spec {} — set families \
                 through SystemConfig::set_family",
                self.family
            ));
        }
        // The timing spec is the source of truth the sweep JSON records;
        // a `dram.timing` that drifted from it would make every cell's
        // `timing` field a lie. Resolution also rejects incoherent specs
        // (unknown presets, `tras` exceeding `trc`, a zero tCK, …).
        let resolved = self
            .timing
            .resolve()
            .map_err(|e| format!("timing {}: {e}", self.timing))?;
        if fam.apply_to(resolved) != self.dram.timing {
            return Err(format!(
                "dram.timing does not match the timing spec {} under family {} — \
                 set timings through SystemConfig::set_timing",
                self.timing, self.family
            ));
        }
        // Mechanism parameters are validated by their registered factory,
        // so bad specs (entries=0, non-power-of-two sets, zero caching
        // duration, unknown mechanisms or keys) surface here as
        // `InvalidConfig` instead of panicking deep inside `Hcrac::new`.
        registry::validate_spec(&self.mechanism)
            .map_err(|e| format!("mechanism {}: {e}", self.mechanism))?;
        Ok(())
    }

    /// Region base of a core's address space: disjoint 1 GB regions, as
    /// the paper notes multiprogrammed applications "use separate memory
    /// regions".
    pub fn region_base(&self, core: usize) -> u64 {
        (core as u64) << 30
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_validate() {
        SystemConfig::paper_single_core(MechanismSpec::baseline())
            .validate()
            .unwrap();
        SystemConfig::paper_eight_core(MechanismSpec::chargecache())
            .validate()
            .unwrap();
    }

    #[test]
    fn bad_mechanism_specs_fail_validation_not_construction() {
        for bad in [
            "chargecache(entries=0)",
            "chargecache(entries=96)",
            "chargecache(duration=0ms)",
            "chargecache(bogus=1)",
            "no-such-mechanism",
        ] {
            let cfg = SystemConfig::paper_single_core(bad.parse().unwrap());
            assert!(cfg.validate().is_err(), "{bad} passed validation");
        }
    }

    #[test]
    fn table1_parameters_hold() {
        let c = SystemConfig::paper_eight_core(MechanismSpec::chargecache());
        assert_eq!(c.cores, 8);
        assert_eq!(c.cpu_per_bus, 5); // 4 GHz / 800 MHz
        assert_eq!(c.core.issue_width, 3);
        assert_eq!(c.core.window, 128);
        assert_eq!(c.core.mshrs, 8);
        assert_eq!(c.llc.capacity_bytes, 4 << 20);
        assert_eq!(c.llc.ways, 16);
        assert_eq!(c.dram.org.channels, 2);
        assert_eq!(c.dram.org.banks, 8);
    }

    #[test]
    fn set_timing_keeps_spec_and_params_in_sync() {
        let mut c = SystemConfig::paper_single_core(MechanismSpec::baseline());
        c.set_timing("ddr3-2133".parse().unwrap()).unwrap();
        c.validate().unwrap();
        assert_eq!(c.dram.timing, dram::SpeedBin::Ddr3_2133.timing());
        // 4 GHz core over a 1067 MHz bus: 4 × 0.9375 = 3.75 → 4.
        assert_eq!(c.cpu_per_bus, 4);
        // The default spec reproduces the paper constructor exactly.
        let d = SystemConfig::paper_single_core(MechanismSpec::baseline());
        assert_eq!(d.cpu_per_bus, 5);
        assert_eq!(
            d.clone().with_timing(TimingSpec::default()).unwrap().dram,
            d.dram
        );
    }

    #[test]
    fn drifted_dram_timing_fails_validation() {
        let mut c = SystemConfig::paper_single_core(MechanismSpec::baseline());
        c.dram.timing = dram::SpeedBin::Ddr3_1866.timing();
        let err = c.validate().unwrap_err();
        assert!(err.contains("set_timing"), "{err}");

        let mut c = SystemConfig::paper_single_core(MechanismSpec::baseline());
        c.timing = "no-such-preset".parse().unwrap();
        let err = c.validate().unwrap_err();
        assert!(err.contains("unknown timing preset"), "{err}");
    }

    #[test]
    fn set_family_applies_geometry_refresh_and_default_bin() {
        let mut c = SystemConfig::paper_single_core(MechanismSpec::baseline());
        c.set_family("lpddr4x".parse().unwrap()).unwrap();
        c.validate().unwrap();
        assert_eq!(c.dram.refresh, dram::RefreshGranularity::PerBank);
        assert_eq!(c.dram.org.channels, 2);
        assert_eq!(c.dram.retention_ms, 32.0);
        // The bare-default timing adopts the family's bin (tCK 0.625 ns
        // → 4 GHz / 1600 MHz = 2.5 → 3 CPU cycles per bus cycle).
        assert_eq!(c.timing.to_string(), "lpddr4x-3200");
        assert_eq!(c.cpu_per_bus, 3);

        let mut d = SystemConfig::paper_single_core(MechanismSpec::baseline());
        d.set_family("ddr4".parse().unwrap()).unwrap();
        d.validate().unwrap();
        assert_eq!(d.dram.org.bank_groups, 4);
        assert!(d.dram.timing.tccd_l > d.dram.timing.tccd_s);
    }

    #[test]
    fn explicit_timing_survives_family_change_with_group_overlay() {
        let mut c = SystemConfig::paper_single_core(MechanismSpec::baseline());
        c.set_timing("ddr3-1866".parse().unwrap()).unwrap();
        c.set_family("ddr4".parse().unwrap()).unwrap();
        c.validate().unwrap();
        assert_eq!(c.timing.to_string(), "ddr3-1866");
        // The family's group spacing overlays the chosen bin.
        assert_eq!(c.dram.timing.tccd_l, 6);
        assert_eq!(c.dram.timing.trrd_l, 8);
    }

    #[test]
    fn default_family_keeps_paper_config_bit_identical() {
        let a = SystemConfig::paper_single_core(MechanismSpec::baseline());
        let mut b = a.clone();
        b.set_family(dram::FamilySpec::default()).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn family_configs_are_valid() {
        for (name, _, fam) in dram::family::list_families() {
            let c = SystemConfig::paper_single_core(MechanismSpec::baseline())
                .with_family(name.parse().unwrap())
                .unwrap();
            c.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(c.dram.refresh, fam.refresh);
        }
    }

    #[test]
    fn ddr3_family_config_matches_paper_config() {
        let a = SystemConfig::paper_single_core(MechanismSpec::baseline());
        let b = a.clone().with_family("ddr3".parse().unwrap()).unwrap();
        assert_eq!(b.dram, a.dram);
    }

    #[test]
    fn drifted_refresh_granularity_fails_validation() {
        let mut c = SystemConfig::paper_single_core(MechanismSpec::baseline());
        c.dram.refresh = dram::RefreshGranularity::PerBank;
        let err = c.validate().unwrap_err();
        assert!(err.contains("set_family"), "{err}");

        let mut c = SystemConfig::paper_single_core(MechanismSpec::baseline());
        c.family = "ddr3(refresh=per-bank)".parse().unwrap();
        let err = c.validate().unwrap_err();
        assert!(err.contains("per-bank"), "{err}");
    }

    #[test]
    fn debug_form_is_deterministic_and_distinguishes_configs() {
        // The Debug form keys both the in-memory memoizer and the disk
        // run cache: it must be stable across calls and differ for
        // configurations that simulate differently.
        let a = SystemConfig::paper_single_core(MechanismSpec::chargecache());
        assert_eq!(format!("{a:?}"), format!("{:?}", a.clone()));
        let mut b = a.clone();
        b.engine = Engine::PerCycle;
        assert_ne!(format!("{a:?}"), format!("{b:?}"));
        let mut c = a.clone();
        c.set_timing("ddr3-1866".parse().unwrap()).unwrap();
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn regions_are_disjoint() {
        let c = SystemConfig::paper_eight_core(MechanismSpec::baseline());
        for i in 0..8 {
            for j in 0..8 {
                if i != j {
                    assert_ne!(c.region_base(i), c.region_base(j));
                }
            }
        }
    }
}
