//! Declarative experiment API: sweep grids, memoized runs, streaming
//! probes and machine-readable results.
//!
//! Every figure bench, example and `cc-sim` subcommand describes its
//! experiment as an [`Experiment`] — a grid of *subjects* (single-core
//! workloads or eight-core mixes) × *mechanisms* × *variants*
//! (configuration overrides such as HCRAC capacity or caching duration).
//! [`Experiment::run`] executes the grid in parallel, memoizes every run
//! in a process-wide cache (so shared baseline and alone-IPC runs are
//! simulated **once per workload**, not once per figure), and returns a
//! [`SweepResult`] table with typed metric extraction and a hand-rolled
//! JSON encoding for downstream tooling.
//!
//! # Example
//!
//! ```
//! use chargecache::MechanismSpec;
//! use sim::api::{Experiment, Metric, Variant};
//! use sim::ExpParams;
//! use traces::workload;
//!
//! let mut p = ExpParams::tiny();
//! p.insts_per_core = 2_000;
//! let sweep = Experiment::new()
//!     .workload(workload("tpch6").expect("paper workload"))
//!     .mechanisms(&[MechanismSpec::baseline(), MechanismSpec::chargecache()])
//!     .variants([Variant::entries(64), Variant::entries(128)])
//!     .params(p)
//!     .run()
//!     .expect("valid paper configuration");
//!
//! let base = sweep.cell("tpch6", "baseline", "64").unwrap();
//! let cc = sweep.cell("tpch6", "chargecache", "128").unwrap();
//! assert!(cc.metric(Metric::Ipc) >= base.metric(Metric::Ipc));
//! let json = sweep.to_json();
//! assert!(sim::json::parse_sweep(&json).is_ok());
//! ```
//!
//! The mechanism axis takes [`MechanismSpec`]s, so custom mechanisms
//! registered through [`chargecache::registry::register_mechanism`] sweep
//! exactly like the built-ins, and parameter sweeps are spec patches
//! ([`Variant::entries`], [`Variant::duration_ms`], [`Variant::param`]).
//!
//! # The timing axis
//!
//! A sweep can cross mechanisms × DRAM speed bins: the timing axis takes
//! [`dram::TimingSpec`]s (`"ddr3-1866"`, `"ddr3-2133(trcd=13)"`), each
//! installed through [`SystemConfig::set_timing`] so the core-to-bus
//! clock ratio and the mechanisms' cycle reductions follow the selected
//! `tck_ns`:
//!
//! ```
//! use chargecache::MechanismSpec;
//! use sim::api::Experiment;
//! use sim::ExpParams;
//! use traces::workload;
//!
//! let mut p = ExpParams::tiny();
//! p.insts_per_core = 2_000;
//! let sweep = Experiment::new()
//!     .workload(workload("STREAMcopy").expect("paper workload"))
//!     .timings(["ddr3-1600".parse().unwrap(), "ddr3-2133".parse().unwrap()])
//!     .mechanisms(&[MechanismSpec::baseline(), MechanismSpec::lldram()])
//!     .params(p)
//!     .run()
//!     .expect("valid configuration");
//! let base = sweep.cell_at("STREAMcopy", "ddr3-2133", "baseline", "paper").unwrap();
//! let ll = sweep.cell_at("STREAMcopy", "ddr3-2133", "lldram", "paper").unwrap();
//! assert!(ll.result().ipc(0) >= base.result().ipc(0));
//! ```
//!
//! # Durability and fault isolation
//!
//! Each cell executes under `catch_unwind` with a bounded retry, so a
//! panicking mechanism poisons only its own cell: the sweep completes and
//! the cell carries a typed [`CellError`] in [`Cell::outcome`] (v4 JSON
//! encodes it as an `error` member). With
//! [`Experiment::cache_dir`], every completed result is also persisted
//! through the content-addressed [`crate::cache::DiskCache`] the moment
//! it finishes — an interrupted sweep re-run against the same directory
//! resumes, loading completed cells and simulating only the remainder,
//! with byte-identical final JSON.
//!
//! # Streaming probes
//!
//! A [`Probe`] observes a running [`System`] at a fixed cycle interval,
//! so time-series views (hit rate over time, IPC ramp) come from **one**
//! simulation instead of one run per point —
//! `examples/hitrate_timeseries.rs` renders a whole warm-up figure from
//! a single run this way:
//!
//! ```
//! use chargecache::MechanismSpec;
//! use sim::api::{run_probed, SampleSeries};
//! use sim::{ExpParams, SystemConfig};
//! use traces::workload;
//!
//! let spec = workload("STREAMcopy").expect("paper workload");
//! let mut p = ExpParams::tiny();
//! p.insts_per_core = 2_000;
//! let cfg = SystemConfig::paper_single_core(MechanismSpec::chargecache());
//! let mut series = SampleSeries::default();
//! let r = run_probed(cfg, std::slice::from_ref(&spec), &p, 10_000, &mut series).unwrap();
//! assert!(!series.samples.is_empty());
//! assert!(r.ipc(0) > 0.0);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use chargecache::{registry, MechanismSpec, ParamValue};
use dram::{FamilySpec, TimingSpec};
use traces::{MixSpec, WorkloadSpec};

use crate::cache::DiskCache;
use crate::config::{InvalidConfig, SystemConfig};
use crate::exp::{build_system, default_threads, par_map, CellRun, Chunk, ExpParams};
use crate::json::Json;
use crate::metrics::RunResult;
use crate::system::System;
use crate::Engine;

// ---------------------------------------------------------------------------
// Subjects
// ---------------------------------------------------------------------------

/// What runs on the cores of one sweep cell: a single-core workload or an
/// eight-core multiprogrammed mix.
#[derive(Debug, Clone, PartialEq)]
pub enum Subject {
    /// One workload on the paper's single-core system.
    Single(WorkloadSpec),
    /// One multiprogrammed mix on the paper's eight-core system.
    Mix(MixSpec),
}

impl Subject {
    /// Display name (workload or mix name).
    pub fn name(&self) -> &str {
        match self {
            Subject::Single(w) => w.name,
            Subject::Mix(m) => &m.name,
        }
    }

    /// The per-core application list.
    pub fn apps(&self) -> &[WorkloadSpec] {
        match self {
            Subject::Single(w) => std::slice::from_ref(w),
            Subject::Mix(m) => &m.apps,
        }
    }

    /// Paper base configuration for this subject under `mechanism`.
    fn base_config(&self, mechanism: &MechanismSpec) -> SystemConfig {
        match self {
            Subject::Single(_) => SystemConfig::paper_single_core(mechanism.clone()),
            Subject::Mix(_) => SystemConfig::paper_eight_core(mechanism.clone()),
        }
    }
}

impl From<WorkloadSpec> for Subject {
    fn from(w: WorkloadSpec) -> Self {
        Subject::Single(w)
    }
}

impl From<MixSpec> for Subject {
    fn from(m: MixSpec) -> Self {
        Subject::Mix(m)
    }
}

// ---------------------------------------------------------------------------
// Variants
// ---------------------------------------------------------------------------

/// One point on the sweep's configuration axis: a labelled override
/// applied to the paper [`SystemConfig`] before the run.
#[derive(Clone)]
pub struct Variant {
    label: String,
    apply: Arc<dyn Fn(&mut SystemConfig) + Send + Sync>,
}

impl Variant {
    /// The unmodified paper configuration.
    pub fn paper() -> Self {
        Self::new("paper", |_| {})
    }

    /// A custom labelled override.
    pub fn new(
        label: impl Into<String>,
        apply: impl Fn(&mut SystemConfig) + Send + Sync + 'static,
    ) -> Self {
        Self {
            label: label.into(),
            apply: Arc::new(apply),
        }
    }

    /// `entries=N` spec patch (the Figure 9/10 HCRAC-capacity axis),
    /// applied only to mechanisms whose factory supports the parameter —
    /// Baseline cells stay untouched (and therefore memoizable across
    /// the capacity axis). Label: the entry count.
    pub fn entries(entries: usize) -> Self {
        Self::param_labelled(
            entries.to_string(),
            "entries",
            ParamValue::Int(entries as i64),
        )
    }

    /// `duration=Nms` spec patch (the Figure 11 caching-duration axis).
    /// Label: `"{ms} ms"`.
    pub fn duration_ms(ms: f64) -> Self {
        Self::param_labelled(format!("{ms} ms"), "duration", ParamValue::DurationMs(ms))
    }

    /// An arbitrary mechanism-parameter patch (`key=value` label),
    /// applied only to mechanisms whose factory supports `key`. This is
    /// how custom registered mechanisms get swept over their own knobs.
    pub fn param(key: &'static str, value: ParamValue) -> Self {
        Self::param_labelled(format!("{key}={value}"), key, value)
    }

    /// A labelled mechanism-parameter patch (see [`Variant::param`]).
    pub fn param_labelled(label: impl Into<String>, key: &'static str, value: ParamValue) -> Self {
        Self::params(label, vec![(key.to_string(), value)])
    }

    /// A labelled patch of several mechanism parameters, applied in
    /// order; each key is set only on mechanisms whose factory supports
    /// it (see [`Variant::param`]).
    pub fn params(label: impl Into<String>, params: Vec<(String, ParamValue)>) -> Self {
        Self::new(label, move |cfg| {
            for (key, value) in &params {
                if registry::supports_param(&cfg.mechanism, key) {
                    cfg.mechanism.set(key.clone(), value.clone());
                }
            }
        })
    }

    /// The variant's label (row/column key in the [`SweepResult`]).
    pub fn label(&self) -> &str {
        &self.label
    }
}

impl std::fmt::Debug for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Variant")
            .field("label", &self.label)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Experiment builder
// ---------------------------------------------------------------------------

/// Declarative sweep specification: subjects × mechanisms × variants,
/// executed by [`Experiment::run`].
#[derive(Debug, Clone, Default)]
pub struct Experiment {
    subjects: Vec<Subject>,
    families: Vec<FamilySpec>,
    timings: Vec<TimingSpec>,
    mechanisms: Vec<MechanismSpec>,
    variants: Vec<Variant>,
    params: Option<ExpParams>,
    engine: Option<Engine>,
    threads: Option<usize>,
    alone: Option<MechanismSpec>,
    cache_dir: Option<PathBuf>,
}

impl Experiment {
    /// An empty experiment. Unset axes default to: all five mechanisms,
    /// the single [`Variant::paper`] variant, [`ExpParams::bench`]
    /// parameters and [`default_threads`] workers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one single-core workload subject.
    #[must_use]
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.subjects.push(Subject::Single(spec));
        self
    }

    /// Adds many single-core workload subjects.
    #[must_use]
    pub fn workloads(mut self, specs: impl IntoIterator<Item = WorkloadSpec>) -> Self {
        self.subjects.extend(specs.into_iter().map(Subject::Single));
        self
    }

    /// Adds one eight-core mix subject.
    #[must_use]
    pub fn mix(mut self, mix: MixSpec) -> Self {
        self.subjects.push(Subject::Mix(mix));
        self
    }

    /// Adds many eight-core mix subjects.
    #[must_use]
    pub fn mixes(mut self, mixes: impl IntoIterator<Item = MixSpec>) -> Self {
        self.subjects.extend(mixes.into_iter().map(Subject::Mix));
        self
    }

    /// Adds one device family to the family axis (defaults to the single
    /// paper `ddr3` device when the axis is left empty). Each cell's
    /// configuration is installed through [`SystemConfig::set_family`]:
    /// the family's geometry, refresh granularity and structural timings
    /// apply, and a cell whose timing axis is the bare default adopts
    /// the family's default speed bin.
    #[must_use]
    pub fn family(mut self, f: FamilySpec) -> Self {
        self.families.push(f);
        self
    }

    /// Appends to the family axis ([`Experiment::run`] rejects
    /// duplicates: they would alias in [`SweepResult`] lookups).
    #[must_use]
    pub fn families(mut self, fs: impl IntoIterator<Item = FamilySpec>) -> Self {
        self.families.extend(fs);
        self
    }

    /// Adds one timing spec to the timing axis (defaults to the single
    /// paper `ddr3-1600` device when the axis is left empty). Each cell's
    /// configuration is installed through [`SystemConfig::set_timing`],
    /// so the core-to-bus clock ratio follows the preset and HCRAC/NUAT
    /// cycle reductions re-quantize against the selected `tck_ns`.
    #[must_use]
    pub fn timing(mut self, t: TimingSpec) -> Self {
        self.timings.push(t);
        self
    }

    /// Appends to the timing axis ([`Experiment::run`] rejects
    /// duplicates: they would alias in [`SweepResult`] lookups).
    #[must_use]
    pub fn timings(mut self, ts: impl IntoIterator<Item = TimingSpec>) -> Self {
        self.timings.extend(ts);
        self
    }

    /// Adds one mechanism spec to the mechanism axis.
    #[must_use]
    pub fn mechanism(mut self, m: MechanismSpec) -> Self {
        self.mechanisms.push(m);
        self
    }

    /// Appends to the mechanism axis ([`Experiment::run`] rejects
    /// duplicates: they would alias in [`SweepResult`] lookups).
    #[must_use]
    pub fn mechanisms(mut self, ms: &[MechanismSpec]) -> Self {
        self.mechanisms.extend_from_slice(ms);
        self
    }

    /// Adds one configuration variant.
    #[must_use]
    pub fn variant(mut self, v: Variant) -> Self {
        self.variants.push(v);
        self
    }

    /// Appends to the variant axis ([`Experiment::run`] rejects
    /// duplicate labels: they would alias in [`SweepResult`] lookups).
    #[must_use]
    pub fn variants(mut self, vs: impl IntoIterator<Item = Variant>) -> Self {
        self.variants.extend(vs);
        self
    }

    /// Sets the run-length parameters (instructions, warmup, seed).
    #[must_use]
    pub fn params(mut self, p: ExpParams) -> Self {
        self.params = Some(p);
        self
    }

    /// Overrides the simulation engine for every cell.
    #[must_use]
    pub fn engine(mut self, e: Engine) -> Self {
        self.engine = Some(e);
        self
    }

    /// Sets the worker-thread count (defaults to [`default_threads`]).
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Persists every result in the disk-backed run cache at `dir`
    /// (created if needed), making the sweep resumable: a re-run against
    /// the same directory loads completed cells and simulates only the
    /// remainder. An unwritable or uncreatable directory degrades to the
    /// in-memory memoizer alone; corrupt entries are quarantined and
    /// re-simulated (see [`crate::cache`] for the ladder).
    #[must_use]
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Also computes the alone-run IPC of every workload appearing in any
    /// subject, single-core under `mechanism` with the paper
    /// configuration — the weighted-speedup denominators. Alone runs are
    /// memoized like every other run, so they cost one simulation per
    /// workload per process no matter how many sweeps request them.
    #[must_use]
    pub fn alone_ipcs(mut self, mechanism: MechanismSpec) -> Self {
        self.alone = Some(mechanism);
        self
    }

    /// The system configuration of one cell (public so callers can audit
    /// exactly what a cell will run). The family installs first
    /// (geometry, refresh granularity, default bin), then the timing
    /// spec (clock ratio, resolved DRAM parameters), then the cell's
    /// variant.
    ///
    /// A default `ddr3` family is *not* re-installed: the subject's base
    /// configuration (1-channel single-core, 2-channel eight-core)
    /// already describes the paper device, and skipping the install
    /// keeps pre-family sweeps bit-identical. Under a non-default family
    /// a bare-default timing axis adopts the family's default bin.
    ///
    /// # Errors
    ///
    /// Returns a message if `family` fails [`dram::family::resolve`] or
    /// `timing` fails [`TimingSpec::resolve`].
    pub fn cell_config(
        &self,
        subject: &Subject,
        family: &FamilySpec,
        timing: &TimingSpec,
        mechanism: &MechanismSpec,
        variant: &Variant,
    ) -> Result<SystemConfig, String> {
        let mut cfg = subject.base_config(mechanism);
        let family_default = family.is_default();
        if !family_default {
            cfg.set_family(family.clone())
                .map_err(|e| format!("family {family}: {e}"))?;
        }
        if family_default || !timing.is_default() {
            cfg.set_timing(timing.clone())
                .map_err(|e| format!("timing {timing}: {e}"))?;
        }
        (variant.apply)(&mut cfg);
        if let Some(e) = self.engine {
            cfg.engine = e;
        }
        Ok(cfg)
    }

    /// Expands the experiment into its validated grid: the resolved axes
    /// plus one [`CellPlan`] per grid point, in run order (subject-major,
    /// then timing, mechanism, variant). This is the shared front half of
    /// [`Experiment::run`]; the `cc-simd` sweep daemon plans submissions
    /// the same way and schedules the cells through its own queue.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfig`] if the experiment is empty, an axis
    /// contains duplicates (subject names, mechanisms or variant labels
    /// — they would alias in [`SweepResult`] lookups), or any cell's
    /// configuration fails [`SystemConfig::validate`].
    pub fn plan(&self) -> Result<SweepPlan, InvalidConfig> {
        if self.subjects.is_empty() {
            return Err(InvalidConfig("experiment has no subjects".into()));
        }
        // Names and labels key cell lookups; aliases would make cells
        // unreachable (and double-count in averages over the JSON).
        for (i, s) in self.subjects.iter().enumerate() {
            if self.subjects[..i].iter().any(|t| t.name() == s.name()) {
                return Err(InvalidConfig(format!("duplicate subject {:?}", s.name())));
            }
        }
        // Canonicalize registry aliases (`cc` → `chargecache`, …) so the
        // duplicate check catches aliased repeats, cache keys coincide,
        // and `SweepResult::cell` lookups by canonical name always hit.
        let mechanisms: Vec<MechanismSpec> = if self.mechanisms.is_empty() {
            MechanismSpec::paper_all().to_vec()
        } else {
            self.mechanisms.iter().map(registry::canonicalize).collect()
        };
        for (i, m) in mechanisms.iter().enumerate() {
            if mechanisms[..i].contains(m) {
                return Err(InvalidConfig(format!("duplicate mechanism {m}")));
            }
        }
        let variants = if self.variants.is_empty() {
            vec![Variant::paper()]
        } else {
            self.variants.clone()
        };
        // Labels key cell lookups; aliases would make cells unreachable.
        for (i, v) in variants.iter().enumerate() {
            if variants[..i].iter().any(|w| w.label == v.label) {
                return Err(InvalidConfig(format!(
                    "duplicate variant label {:?}",
                    v.label
                )));
            }
        }
        let families = if self.families.is_empty() {
            vec![FamilySpec::default()]
        } else {
            self.families.clone()
        };
        for (i, f) in families.iter().enumerate() {
            if families[..i].contains(f) {
                return Err(InvalidConfig(format!("duplicate family {f}")));
            }
        }
        let timings = if self.timings.is_empty() {
            vec![TimingSpec::default()]
        } else {
            self.timings.clone()
        };
        for (i, t) in timings.iter().enumerate() {
            if timings[..i].contains(t) {
                return Err(InvalidConfig(format!("duplicate timing {t}")));
            }
        }
        let params = self.params.unwrap_or_default();

        // Grid cells: subject-major, then family, timing, mechanism,
        // variant.
        let mut cells: Vec<CellPlan> = Vec::new();
        for subject in &self.subjects {
            for family in &families {
                for timing in &timings {
                    for mech in &mechanisms {
                        for variant in &variants {
                            let cfg = self
                                .cell_config(subject, family, timing, mech, variant)
                                .map_err(InvalidConfig)?;
                            cfg.validate().map_err(InvalidConfig)?;
                            cells.push(CellPlan::new(
                                subject.name(),
                                subject.apps(),
                                family,
                                &variant.label,
                                cfg,
                                params,
                            ));
                        }
                    }
                }
            }
        }
        Ok(SweepPlan {
            params,
            families,
            timings,
            mechanisms,
            variants: variants.iter().map(|v| v.label.clone()).collect(),
            cells,
        })
    }

    /// Executes the grid in parallel and returns the result table.
    ///
    /// Every cell runs through [`CellPlan::run`], so it is memoized in a
    /// process-wide cache under its [`CellPlan::content_key`]: cells that
    /// repeat across sweeps (shared baselines, alone runs) are simulated
    /// exactly once, and identical cells submitted concurrently (from
    /// other sweeps or the `cc-simd` daemon) are *single-flighted* —
    /// followers wait for the one execution instead of duplicating it.
    /// With [`Experiment::cache_dir`], results additionally persist to
    /// disk and survive the process.
    ///
    /// A cell that panics (after the bounded retry) or surfaces a
    /// configuration error mid-run does **not** abort the sweep: its
    /// [`Cell::outcome`] carries the [`CellError`] and every other cell
    /// completes normally.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfig`] on every [`Experiment::plan`] failure,
    /// and additionally when an alone-IPC denominator run fails (a
    /// sweep-wide denominator, unlike a cell, has no useful partial
    /// result).
    pub fn run(&self) -> Result<SweepResult, InvalidConfig> {
        let plan = self.plan()?;
        let threads = self.threads.unwrap_or_else(default_threads).max(1);

        let alone_spec = self.alone.as_ref().map(registry::canonicalize);
        let alone_runs = match &alone_spec {
            Some(mech) => self.alone_runs(&plan, mech)?,
            None => Vec::new(),
        };

        let disk = self.cache_dir.as_ref().map(|d| DiskCache::shared(d));
        let runs = plan.cells.iter().chain(&alone_runs).collect();
        let mut results = run_memoized(runs, threads, disk.as_deref());
        let alone_results = results.split_off(plan.cells.len());
        let cells = plan
            .cells
            .into_iter()
            .zip(results)
            .map(|(p, outcome)| p.into_cell(outcome.map(|r| r.as_ref().clone())))
            .collect();
        let mut alone: Vec<(String, f64)> = Vec::new();
        for (run, outcome) in alone_runs.into_iter().zip(alone_results) {
            match outcome {
                Ok(r) => alone.push((run.subject, r.ipc(0))),
                Err(e) => {
                    return Err(InvalidConfig(format!(
                        "alone-IPC run for {:?} failed: {e}",
                        run.subject
                    )))
                }
            }
        }

        Ok(SweepResult {
            params: plan.params,
            families: plan.families,
            timings: plan.timings,
            mechanisms: plan.mechanisms,
            variants: plan.variants,
            cells,
            alone,
            alone_mechanism: alone_spec,
        })
    }

    /// Alone-IPC runs: one single-core `mechanism` cell per distinct
    /// workload, under the sweep's (single) family and timing so the
    /// weighted-speedup denominators describe the same device as the
    /// cells.
    fn alone_runs(
        &self,
        plan: &SweepPlan,
        mechanism: &MechanismSpec,
    ) -> Result<Vec<CellPlan>, InvalidConfig> {
        if plan.timings.len() > 1 {
            return Err(InvalidConfig(
                "alone-IPC denominators are ambiguous across a multi-preset \
                 timing axis; run one sweep per timing"
                    .into(),
            ));
        }
        if plan.families.len() > 1 {
            return Err(InvalidConfig(
                "alone-IPC denominators are ambiguous across a multi-device \
                 family axis; run one sweep per family"
                    .into(),
            ));
        }
        let (family, timing, paper) = (&plan.families[0], &plan.timings[0], Variant::paper());
        let mut runs: Vec<CellPlan> = Vec::new();
        for app in self.subjects.iter().flat_map(Subject::apps) {
            if runs.iter().any(|a| a.subject == app.name) {
                continue;
            }
            let single = Subject::Single(app.clone());
            let cfg = self
                .cell_config(&single, family, timing, mechanism, &paper)
                .map_err(InvalidConfig)?;
            runs.push(CellPlan::new(
                app.name,
                single.apps(),
                family,
                &paper.label,
                cfg,
                plan.params,
            ));
        }
        Ok(runs)
    }
}

// ---------------------------------------------------------------------------
// Sweep plans
// ---------------------------------------------------------------------------

/// The validated expansion of an [`Experiment`]: resolved axes plus one
/// [`CellPlan`] per grid point, in run order. Produced by
/// [`Experiment::plan`].
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Run-length parameters shared by every cell.
    pub params: ExpParams,
    /// Device-family axis, in sweep order.
    pub families: Vec<FamilySpec>,
    /// Timing axis, in sweep order.
    pub timings: Vec<TimingSpec>,
    /// Mechanism axis (canonicalized), in sweep order.
    pub mechanisms: Vec<MechanismSpec>,
    /// Variant labels, in sweep order.
    pub variants: Vec<String>,
    /// One plan per grid cell, subject-major then family then timing
    /// then mechanism then variant.
    pub cells: Vec<CellPlan>,
}

/// One planned (not yet executed) sweep cell: the identity labels plus
/// the fully-resolved configuration and parameters that determine its
/// result. A plan is self-contained — [`CellPlan::run`] executes it
/// through the shared memoizer/single-flight/disk ladder without the
/// originating [`Experiment`].
///
/// The fields are public for reading. The cell's content key is derived
/// from `cfg`, `apps` and `params` at first use and then fixed (see
/// [`CellPlan::content_key`]), so a change to them after that must not
/// change the simulation; `params.checkpoint_interval` is such a field,
/// because [`ExpParams`]' `Debug` form leaves it out of the identity.
/// [`CellPlan::run`] checks this before it simulates: a plan whose
/// identity no longer matches its key fails with a
/// [`CellErrorKind::Config`] error instead of storing one simulation's
/// result under another cell's key. A memoized or disk hit is not
/// checked, so such a plan may also return the original cell's result.
#[derive(Debug, Clone)]
pub struct CellPlan {
    /// Subject name (workload or mix).
    pub subject: String,
    /// The per-core application list.
    pub apps: Vec<WorkloadSpec>,
    /// Device-family spec of this cell.
    pub family: FamilySpec,
    /// Effective DRAM timing spec of this cell (after the family's
    /// default bin is adopted, when the axis left timing at its default).
    pub timing: TimingSpec,
    /// Effective mechanism spec (the axis spec after variant patches).
    pub mechanism: MechanismSpec,
    /// Variant label.
    pub variant: String,
    /// Validated system configuration the cell runs.
    pub cfg: SystemConfig,
    /// Run-length parameters.
    pub params: ExpParams,
    /// The content key, filled by the first [`CellPlan::content_key`] or
    /// [`CellPlan::run`] call and carried by clones.
    key: OnceLock<u128>,
}

impl CellPlan {
    /// A plan labelled with the *effective* specs of `cfg` — after family
    /// bin adoption and the variant's parameter patches — so the JSON
    /// names the exact configuration run.
    fn new(
        subject: &str,
        apps: &[WorkloadSpec],
        family: &FamilySpec,
        variant: &str,
        cfg: SystemConfig,
        params: ExpParams,
    ) -> Self {
        CellPlan {
            subject: subject.to_string(),
            apps: apps.to_vec(),
            family: family.clone(),
            timing: cfg.timing.clone(),
            mechanism: cfg.mechanism.clone(),
            variant: variant.to_string(),
            cfg,
            params,
            key: OnceLock::new(),
        }
    }

    /// The content-addressed identity of this cell: the 128-bit
    /// [`crate::cache::content_key`] of the `Debug` form of its
    /// `(cfg, apps, params)`. The run is a pure function of exactly these
    /// inputs, so two plans with equal keys are the same simulation and
    /// produce bit-identical results. The same key names the cell's disk
    /// run-cache entry and checkpoint, keys the process-wide memoizer
    /// and the in-flight table, and dedups the sweep daemon's queue; all
    /// of them trust the 128-bit FNV hash not to collide.
    ///
    /// A configuration carries only the knobs its mechanism reads (the
    /// spec's own parameters), so cells that share a spec — e.g. every
    /// Baseline cell of a capacity sweep, which [`Variant::entries`]
    /// leaves unpatched — share a key and simulate once.
    ///
    /// Derived at the first call (here or in [`CellPlan::run`]) and then
    /// fixed for this plan and its clones.
    pub fn content_key(&self) -> u128 {
        *self
            .key
            .get_or_init(|| crate::cache::content_key(&self.identity()))
    }

    /// The `Debug` form of `(cfg, apps, params)` that the key hashes.
    fn identity(&self) -> String {
        format!("{:?}\u{1}{:?}\u{1}{:?}", self.cfg, self.apps, self.params)
    }

    /// Executes this cell — the one single-cell entry point, shared by
    /// [`Experiment::run`] and the `cc-simd` daemon's workers. It climbs
    /// the ladder process-wide memoizer → single-flight dedup against
    /// concurrent executions → disk cache (`disk`, when given) →
    /// simulate under `catch_unwind` with bounded retry → persist.
    ///
    /// Memoizer, in-flight table and disk cache are keyed by
    /// [`CellPlan::content_key`]: if the key is already executing on
    /// another thread (a concurrent sweep or a daemon worker), this call
    /// waits for that execution instead of starting a second one, so
    /// identical cells submitted concurrently by different clients
    /// execute exactly once. A memoized hit is two uncontended locks, one
    /// lookup and an [`Arc`] clone, and does not allocate.
    ///
    /// # Errors
    ///
    /// Returns the cell's [`CellError`] if the simulation panicked on
    /// every attempt or the configuration was rejected mid-run. Failures
    /// are never cached; a later call re-attempts the cell.
    pub fn run(&self, disk: Option<&DiskCache>) -> Result<Arc<RunResult>, CellError> {
        let key = self.content_key();
        let flight = {
            let mut inflight = inflight().lock().expect("inflight map poisoned");
            // The memoizer check lives under the inflight lock: a key is
            // either memoized, in flight, or ours to lead — never silently
            // absent from all three.
            if let Some(r) = run_cache().lock().expect("run cache poisoned").get(&key) {
                return Ok(r.clone());
            }
            if let Some(f) = inflight.get(&key) {
                let f = f.clone();
                drop(inflight);
                let mut slot = f.result.lock().expect("flight slot poisoned");
                while slot.is_none() {
                    slot = f.done.wait(slot).expect("flight slot poisoned");
                }
                return slot.clone().expect("loop exits on Some");
            }
            let f = Arc::new(Flight::default());
            inflight.insert(key, f.clone());
            f
        };
        let outcome = self.execute(key, disk);
        // Only successes are memoized: a failed cell is re-attempted by the
        // next sweep rather than replayed from the cache. Memoize *before*
        // retiring the flight so no arrival can miss both.
        if let Ok(r) = &outcome {
            run_cache()
                .lock()
                .expect("run cache poisoned")
                .insert(key, r.clone());
        }
        inflight()
            .lock()
            .expect("inflight map poisoned")
            .remove(&key);
        let mut slot = flight.result.lock().expect("flight slot poisoned");
        *slot = Some(outcome.clone());
        drop(slot);
        flight.done.notify_all();
        outcome
    }

    /// One cell's execution ladder below the memoizer: disk load →
    /// identity check → simulate under `catch_unwind` with bounded retry
    /// → persist.
    fn execute(&self, key: u128, disk: Option<&DiskCache>) -> Result<Arc<RunResult>, CellError> {
        if let Some(d) = disk {
            if let Some(payload) = d.load(key) {
                match RunResult::decode(&payload) {
                    // A disk hit is not an execution: `run_cache_executions`
                    // deltas count simulations only, which is what the
                    // resume goldens assert on.
                    Some(r) => return Ok(Arc::new(r)),
                    // The checksum held but the payload layout didn't:
                    // treat it exactly like any other corrupt entry.
                    None => d.quarantine_entry(key),
                }
            }
        }
        // The key was fixed at first use. Re-derive it before simulating
        // (a few µs against a millisecond-scale run), so that a plan
        // changed since then cannot publish its result under the old key.
        // An error, not a panic: a panicking leader would leave its
        // in-flight entry behind and hang every later requester.
        if crate::cache::content_key(&self.identity()) != key {
            return Err(CellError {
                kind: CellErrorKind::Config,
                message: format!(
                    "plan for {} changed after its content key {key:032x} was fixed",
                    self.subject
                ),
                attempts: 0,
            });
        }
        // Periodic checkpointing engages when the cell asks for it and a
        // healthy cache directory exists to hold the files; a degraded (or
        // absent) cache leaves no durable home for checkpoints, so the cell
        // runs without a store.
        let ckpt = if self.params.checkpoint_interval > 0 {
            disk.filter(|d| !d.is_degraded())
                .map(|d| crate::ckpt::CheckpointStore::new(d.dir()))
        } else {
            None
        };
        let mut attempts = 0;
        loop {
            attempts += 1;
            CACHE_EXECUTIONS.fetch_add(1, Ordering::SeqCst);
            // `AssertUnwindSafe`: the closure owns a clone of the
            // configuration and a poisoned run's partial state is dropped
            // wholesale, so no broken invariant can leak into the next
            // attempt.
            let run = catch_unwind(AssertUnwindSafe(|| {
                crate::ckpt::run_checkpointed(
                    self.cfg.clone(),
                    &self.apps,
                    &self.params,
                    ckpt.as_ref(),
                    key,
                )
            }));
            match run {
                Ok(Ok(r)) => {
                    // Persist the moment the cell completes (not at sweep
                    // end): a sweep killed mid-grid leaves every finished
                    // cell behind for the resuming run.
                    if let Some(d) = disk {
                        d.store(key, &r.encode());
                    }
                    // The cell is durable as a result now; its checkpoint
                    // has served its purpose.
                    if let Some(store) = &ckpt {
                        store.remove(key);
                    }
                    return Ok(Arc::new(r));
                }
                Ok(Err(e)) => {
                    return Err(CellError {
                        kind: CellErrorKind::Config,
                        message: e.0,
                        attempts,
                    })
                }
                Err(payload) if attempts >= MAX_ATTEMPTS => {
                    return Err(CellError {
                        kind: CellErrorKind::Panic,
                        message: panic_message(payload.as_ref()),
                        attempts,
                    })
                }
                Err(_) => {} // retry
            }
        }
    }

    /// Wraps an execution outcome into the [`Cell`] this plan describes.
    pub fn into_cell(self, outcome: Result<RunResult, CellError>) -> Cell {
        Cell {
            subject: self.subject,
            apps: self.apps.iter().map(|a| a.name.to_string()).collect(),
            family: self.family,
            timing: self.timing,
            mechanism: self.mechanism,
            variant: self.variant,
            outcome,
        }
    }
}

// ---------------------------------------------------------------------------
// Memoized execution
// ---------------------------------------------------------------------------

/// Completed runs of this process, by [`CellPlan::content_key`].
fn run_cache() -> &'static Mutex<fasthash::FastHashMap<u128, Arc<RunResult>>> {
    static CACHE: OnceLock<Mutex<fasthash::FastHashMap<u128, Arc<RunResult>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(fasthash::FastHashMap::default()))
}

static CACHE_EXECUTIONS: AtomicU64 = AtomicU64::new(0);

/// Number of simulations actually executed (cache misses) since process
/// start. The memoization tests assert on deltas of this counter.
///
/// Racing [`Experiment::run`] calls on one key are single-flighted: one
/// simulates while the others wait for its result, so a key that
/// succeeds is simulated once until [`clear_run_cache`]. The counter is
/// process-wide, so tests asserting exact deltas must still serialize
/// against every other sweep in the process, as `tests/api.rs` does.
pub fn run_cache_executions() -> u64 {
    CACHE_EXECUTIONS.load(Ordering::SeqCst)
}

/// Number of distinct runs currently memoized.
pub fn run_cache_len() -> usize {
    run_cache().lock().expect("run cache poisoned").len()
}

/// Drops every memoized run (used by tests and by long-lived processes
/// that want to bound memory).
pub fn clear_run_cache() {
    run_cache().lock().expect("run cache poisoned").clear();
}

/// Maximum execution attempts for one cell before a panic is recorded as
/// its [`CellError`]. One retry distinguishes a transiently poisoned run
/// (e.g. a mechanism tripping on residual global state) from a
/// deterministic fault without letting a hard panic loop forever.
const MAX_ATTEMPTS: u32 = 2;

/// Why one sweep cell failed. Carried in [`Cell::outcome`] (and encoded
/// as the v4 JSON `error` member) instead of aborting the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError {
    /// Failure class.
    pub kind: CellErrorKind,
    /// The panic payload or configuration error message.
    pub message: String,
    /// Execution attempts consumed (≤ the bounded retry limit; config
    /// errors are deterministic and never retried).
    pub attempts: u32,
}

/// Classification of a [`CellError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellErrorKind {
    /// The simulation panicked on every attempt.
    Panic,
    /// The configuration was rejected once the run was underway.
    Config,
}

impl CellErrorKind {
    /// Stable lower-case identifier (the JSON `error.kind` value).
    pub fn as_str(self) -> &'static str {
        match self {
            CellErrorKind::Panic => "panic",
            CellErrorKind::Config => "config",
        }
    }
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} after {} attempt{}: {}",
            self.kind.as_str(),
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.message
        )
    }
}

/// Best-effort text of a `catch_unwind` payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `plans` on `threads` workers through [`CellPlan::run`], serving
/// repeats from the process-wide cache (and `disk`, when given). Results
/// are returned in plan order; a failed cell yields its [`CellError`] in
/// place.
fn run_memoized(
    plans: Vec<&CellPlan>,
    threads: usize,
    disk: Option<&DiskCache>,
) -> Vec<Result<Arc<RunResult>, CellError>> {
    // First occurrence of each key runs; later duplicates share its
    // result. Cache hits and cross-thread dedup are `CellPlan::run`'s
    // job — this only collapses repeats *within* this sweep.
    let mut first: fasthash::FastHashMap<u128, usize> = fasthash::FastHashMap::default();
    let mut unique: Vec<&CellPlan> = Vec::new();
    let slots: Vec<usize> = plans
        .into_iter()
        .map(|p| {
            *first.entry(p.content_key()).or_insert_with(|| {
                unique.push(p);
                unique.len() - 1
            })
        })
        .collect();
    let computed = par_map(unique, threads, |p| p.run(disk));
    slots.into_iter().map(|i| computed[i].clone()).collect()
}

/// One in-flight execution that concurrent requesters of the same key
/// wait on instead of duplicating the simulation.
#[derive(Default)]
struct Flight {
    result: Mutex<Option<Result<Arc<RunResult>, CellError>>>,
    done: Condvar,
}

/// Keys currently executing somewhere in this process. Lock order is
/// always `inflight` → `run_cache`; the leader's publish path takes each
/// lock on its own, so no cycle exists.
fn inflight() -> &'static Mutex<fasthash::FastHashMap<u128, Arc<Flight>>> {
    static INFLIGHT: OnceLock<Mutex<fasthash::FastHashMap<u128, Arc<Flight>>>> = OnceLock::new();
    INFLIGHT.get_or_init(|| Mutex::new(fasthash::FastHashMap::default()))
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// One executed grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Subject name (workload or mix).
    pub subject: String,
    /// Application name per core.
    pub apps: Vec<String>,
    /// Device-family spec of this cell.
    pub family: FamilySpec,
    /// Effective DRAM timing spec of this cell.
    pub timing: TimingSpec,
    /// Mechanism spec of this cell.
    pub mechanism: MechanismSpec,
    /// Variant label of this cell.
    pub variant: String,
    /// The full measured result, or why this cell failed. A failed cell
    /// never aborts the sweep; use [`Cell::result`] where failure is a
    /// bug and [`Cell::error`] / [`SweepResult::failed_cells`] where it
    /// must be handled.
    pub outcome: Result<RunResult, CellError>,
}

/// A typed scalar metric extracted from a [`Cell`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Metric {
    /// IPC of core 0 (the single-core figures' y-axis).
    Ipc,
    /// Sum of per-core IPCs (multiprogrammed throughput).
    IpcSum,
    /// Row activations per kilo CPU cycle.
    Rmpkc,
    /// HCRAC hit rate (NaN when the mechanism has no HCRAC).
    HcracHitRate,
    /// Total DRAM energy over the measured interval, in mJ.
    EnergyMj,
    /// Simulated CPU cycles in the measured interval.
    CpuCycles,
    /// Cumulative RLTL fraction at tracker bucket `i`
    /// (0.125/0.25/0.5/1/8/32 ms); NaN for a run without activations.
    RltlFraction(usize),
    /// Fraction of activations within 8 ms of the row's refresh; NaN for
    /// a run without activations.
    RefreshFraction,
    /// Row activations the RLTL tracker observed.
    Activations,
}

impl Cell {
    /// The measured result.
    ///
    /// # Panics
    ///
    /// Panics with the cell's identity if the cell failed. Figure benches
    /// and examples — where a failed cell has no meaningful fallback —
    /// use this accessor; tooling that must survive failures matches on
    /// [`Cell::outcome`] instead.
    pub fn result(&self) -> &RunResult {
        match &self.outcome {
            Ok(r) => r,
            Err(e) => panic!(
                "cell {}/{}/{}/{}/{} failed: {e}",
                self.subject, self.family, self.timing, self.mechanism, self.variant
            ),
        }
    }

    /// The failure, if this cell failed.
    pub fn error(&self) -> Option<&CellError> {
        self.outcome.as_ref().err()
    }

    /// True when the cell completed.
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }

    /// Extracts one scalar metric. NaN for every metric of a failed cell
    /// (NaN-propagation keeps chart pipelines alive; exact tooling
    /// checks [`Cell::error`] first).
    pub fn metric(&self, m: Metric) -> f64 {
        let Ok(r) = &self.outcome else {
            return f64::NAN;
        };
        match m {
            Metric::Ipc => r.ipc(0),
            Metric::IpcSum => r.ipc_sum(),
            Metric::Rmpkc => r.rmpkc(),
            Metric::HcracHitRate => r.hcrac_hit_rate().unwrap_or(f64::NAN),
            Metric::EnergyMj => r.energy.total_mj(),
            Metric::CpuCycles => r.cpu_cycles as f64,
            // A fraction of zero activations is undefined, not 0 %.
            Metric::RltlFraction(_) | Metric::RefreshFraction if r.rltl.activations == 0 => {
                f64::NAN
            }
            Metric::RltlFraction(i) => r.rltl.rltl_fraction.get(i).copied().unwrap_or(f64::NAN),
            Metric::RefreshFraction => r.rltl.refresh_8ms_fraction,
            Metric::Activations => r.rltl.activations as f64,
        }
    }

    /// The headline IPC: core-0 IPC for single-core cells, the IPC sum
    /// for multiprogrammed cells. NaN for a failed cell.
    pub fn headline_ipc(&self) -> f64 {
        if self.apps.len() == 1 {
            self.metric(Metric::Ipc)
        } else {
            self.metric(Metric::IpcSum)
        }
    }
}

/// Structured result table of one sweep: every cell of the grid plus the
/// optional alone-IPC denominators.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Run-length parameters shared by every cell.
    pub params: ExpParams,
    /// Device-family axis, in sweep order (a single `ddr3` unless the
    /// experiment set one).
    pub families: Vec<FamilySpec>,
    /// Timing axis, in sweep order (a single `ddr3-1600` unless the
    /// experiment set one).
    pub timings: Vec<TimingSpec>,
    /// Mechanism axis, in sweep order.
    pub mechanisms: Vec<MechanismSpec>,
    /// Variant labels, in sweep order.
    pub variants: Vec<String>,
    /// All cells, subject-major then family then timing then mechanism
    /// then variant.
    pub cells: Vec<Cell>,
    /// Alone-run IPC per workload (weighted-speedup denominators), in
    /// first-occurrence order. Empty unless
    /// [`Experiment::alone_ipcs`] was requested.
    pub alone: Vec<(String, f64)>,
    /// Mechanism the alone runs used.
    pub alone_mechanism: Option<MechanismSpec>,
}

impl SweepResult {
    /// Looks up one cell by subject name, mechanism and variant label.
    /// `mechanism` matches either the spec's full string form
    /// (`"chargecache(entries=64)"`) or its bare name (first match when
    /// the axis has several specs of one name). With a multi-preset
    /// timing axis this returns the cell of whichever timing was listed
    /// first; use [`SweepResult::cell_at`] to select a timing.
    pub fn cell(&self, subject: &str, mechanism: &str, variant: &str) -> Option<&Cell> {
        self.cells.iter().find(|c| {
            c.subject == subject && c.variant == variant && spec_matches(&c.mechanism, mechanism)
        })
    }

    /// Looks up one cell by subject, timing spec string, mechanism and
    /// variant label. `timing` matches the cell's full spec string
    /// (`"ddr3-1866"`, `"ddr3-1600(trcd=13)"`); `mechanism` matches as
    /// in [`SweepResult::cell`].
    pub fn cell_at(
        &self,
        subject: &str,
        timing: &str,
        mechanism: &str,
        variant: &str,
    ) -> Option<&Cell> {
        self.cells.iter().find(|c| {
            c.subject == subject
                && c.variant == variant
                && c.timing.to_string() == timing
                && spec_matches(&c.mechanism, mechanism)
        })
    }

    /// Looks up one cell by subject, family spec string, mechanism and
    /// variant label. `family` matches the cell's full spec string
    /// (`"lpddr4x"`, `"ddr4(bank_groups=2)"`); `mechanism` matches as in
    /// [`SweepResult::cell`]. This is the lookup for family sweeps, where
    /// each family's cells carry that family's own default timing spec
    /// and [`SweepResult::cell_at`] would need the effective bin name.
    pub fn cell_in(
        &self,
        subject: &str,
        family: &str,
        mechanism: &str,
        variant: &str,
    ) -> Option<&Cell> {
        self.cells.iter().find(|c| {
            c.subject == subject
                && c.variant == variant
                && c.family.to_string() == family
                && spec_matches(&c.mechanism, mechanism)
        })
    }

    /// All cells of one mechanism × variant, in subject order
    /// (`mechanism` matches as in [`SweepResult::cell`]).
    pub fn cells_of<'a>(
        &'a self,
        mechanism: &'a str,
        variant: &'a str,
    ) -> impl Iterator<Item = &'a Cell> + 'a {
        self.cells
            .iter()
            .filter(move |c| spec_matches(&c.mechanism, mechanism) && c.variant == variant)
    }

    /// Alone-run IPC of one workload, when computed.
    pub fn alone_ipc(&self, workload: &str) -> Option<f64> {
        self.alone
            .iter()
            .find(|(n, _)| n == workload)
            .map(|&(_, ipc)| ipc)
    }

    /// Relative speedup of `cell` over `base` as a fraction (0.05 = +5%),
    /// using each cell's headline IPC.
    pub fn speedup(&self, cell: &Cell, base: &Cell) -> f64 {
        cell.headline_ipc() / base.headline_ipc().max(1e-9) - 1.0
    }

    /// Weighted speedup of a multiprogrammed cell versus the alone-IPC
    /// denominators (Snavely & Tullsen). `None` unless alone runs were
    /// computed for every app of the cell, or if the cell failed.
    pub fn weighted_speedup(&self, cell: &Cell) -> Option<f64> {
        let r = cell.outcome.as_ref().ok()?;
        let mut ws = 0.0;
        for (core, app) in cell.apps.iter().enumerate() {
            let alone = self.alone_ipc(app)?;
            ws += r.ipc(core) / alone.max(1e-9);
        }
        Some(ws)
    }

    /// The cells that failed (empty in a healthy sweep).
    pub fn failed_cells(&self) -> impl Iterator<Item = &Cell> {
        self.cells.iter().filter(|c| !c.is_ok())
    }

    /// True when any cell failed.
    pub fn has_failures(&self) -> bool {
        self.failed_cells().next().is_some()
    }

    /// Encodes the whole table as deterministic JSON (schema
    /// `chargecache-sweep/v5`; see `docs/SCHEMA.md` for the field
    /// reference). Mechanisms and timings are recorded as their spec
    /// strings (`"chargecache(entries=64)"`, `"ddr3-1866"`), so custom
    /// registered mechanisms and overridden presets round-trip
    /// losslessly; a failed cell keeps its identity members and carries
    /// an `error` object instead of metrics.
    /// [`crate::json::parse_sweep`] reads v5 plus the archived v4, v3,
    /// v2 and v1 documents.
    pub fn to_json(&self) -> String {
        let alone = if self.alone.is_empty() {
            Json::Null
        } else {
            Json::Obj(vec![
                (
                    "mechanism".into(),
                    self.alone_mechanism
                        .as_ref()
                        .map_or(Json::Null, |m| Json::str(m.to_string())),
                ),
                (
                    "ipc".into(),
                    Json::Obj(
                        self.alone
                            .iter()
                            .map(|(n, ipc)| (n.clone(), Json::num(*ipc)))
                            .collect(),
                    ),
                ),
            ])
        };
        assemble_sweep_json(
            &self.params,
            &self
                .families
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>(),
            &self
                .timings
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>(),
            &self
                .mechanisms
                .iter()
                .map(|m| m.to_string())
                .collect::<Vec<_>>(),
            &self.variants,
            alone,
            self.cells.iter().map(Cell::to_json).collect(),
        )
    }
}

/// Assembles a complete `chargecache-sweep/v5` document from its parts:
/// the run-length parameters, the axis labels (spec strings, in sweep
/// order), the `alone_ipc` member ([`Json::Null`] when absent) and one
/// [`Cell::to_json`] object per cell, in grid order.
///
/// [`SweepResult::to_json`] delegates here, and the `cc-sim --server`
/// client reassembles the daemon's streamed cells through the same
/// function — which is why a served sweep is byte-identical to a local
/// one.
pub fn assemble_sweep_json(
    params: &ExpParams,
    families: &[String],
    timings: &[String],
    mechanisms: &[String],
    variants: &[String],
    alone: Json,
    cells: Vec<Json>,
) -> String {
    let params = Json::Obj(vec![
        ("insts_per_core".into(), Json::uint(params.insts_per_core)),
        ("warmup_insts".into(), Json::uint(params.warmup_insts)),
        (
            "max_cycle_factor".into(),
            Json::uint(params.max_cycle_factor),
        ),
        ("seed".into(), Json::uint(params.seed)),
    ]);
    Json::Obj(vec![
        ("schema".into(), Json::str(crate::json::SCHEMA_V5)),
        ("params".into(), params),
        (
            "families".into(),
            Json::Arr(families.iter().map(Json::str).collect()),
        ),
        (
            "timings".into(),
            Json::Arr(timings.iter().map(Json::str).collect()),
        ),
        (
            "mechanisms".into(),
            Json::Arr(mechanisms.iter().map(Json::str).collect()),
        ),
        (
            "variants".into(),
            Json::Arr(variants.iter().map(Json::str).collect()),
        ),
        ("alone_ipc".into(), alone),
        ("cells".into(), Json::Arr(cells)),
    ])
    .to_string()
}

/// True if `query` identifies `spec`: the full spec string or the bare
/// mechanism name.
fn spec_matches(spec: &MechanismSpec, query: &str) -> bool {
    spec.name() == query || spec.to_string() == query
}

impl Cell {
    /// Encodes this cell as its `chargecache-sweep/v5` `cells[]` object —
    /// the same encoding [`SweepResult::to_json`] embeds, and the wire
    /// format `cc-simd` streams per finished cell.
    pub fn to_json(&self) -> Json {
        cell_json(self)
    }
}

fn cell_json(c: &Cell) -> Json {
    let identity = vec![
        ("subject".into(), Json::str(&c.subject)),
        ("family".into(), Json::str(c.family.to_string())),
        ("timing".into(), Json::str(c.timing.to_string())),
        ("mechanism".into(), Json::str(c.mechanism.to_string())),
        ("variant".into(), Json::str(&c.variant)),
        (
            "apps".into(),
            Json::Arr(c.apps.iter().map(Json::str).collect()),
        ),
    ];
    let r = match &c.outcome {
        Ok(r) => r,
        Err(e) => {
            // A failed cell keeps its identity members (so the grid
            // shape is reconstructible) and carries the error instead of
            // metrics.
            let mut members = identity;
            members.push((
                "error".into(),
                Json::Obj(vec![
                    ("kind".into(), Json::str(e.kind.as_str())),
                    ("message".into(), Json::str(&e.message)),
                    ("attempts".into(), Json::uint(u64::from(e.attempts))),
                ]),
            ));
            return Json::Obj(members);
        }
    };
    let mut members = identity;
    members.extend(vec![
        (
            "ipc".into(),
            Json::Arr((0..c.apps.len()).map(|i| Json::num(r.ipc(i))).collect()),
        ),
        ("ipc_sum".into(), Json::num(r.ipc_sum())),
        ("rmpkc".into(), Json::num(r.rmpkc())),
        (
            "hcrac_hit_rate".into(),
            r.hcrac_hit_rate().map_or(Json::Null, Json::num),
        ),
        (
            "mech".into(),
            Json::Obj(
                r.mech
                    .iter()
                    .map(|(name, v)| (name.to_string(), Json::uint(v)))
                    .collect(),
            ),
        ),
        ("energy_mj".into(), Json::num(r.energy.total_mj())),
        ("cpu_cycles".into(), Json::uint(r.cpu_cycles)),
        ("hit_cycle_cap".into(), Json::Bool(r.hit_cycle_cap)),
        (
            "dram".into(),
            Json::Obj(vec![
                ("reads".into(), Json::uint(r.ctrl.reads)),
                ("writes".into(), Json::uint(r.ctrl.writes)),
                ("row_hits".into(), Json::uint(r.ctrl.row_hits)),
                ("row_misses".into(), Json::uint(r.ctrl.row_misses)),
                ("row_conflicts".into(), Json::uint(r.ctrl.row_conflicts)),
                ("refreshes".into(), Json::uint(r.ctrl.refreshes)),
                (
                    "avg_read_latency".into(),
                    Json::num(r.ctrl.avg_read_latency()),
                ),
            ]),
        ),
        (
            "rltl".into(),
            Json::Obj(vec![
                (
                    "intervals_ms".into(),
                    Json::Arr(r.rltl.intervals_ms.iter().map(|&x| Json::num(x)).collect()),
                ),
                (
                    "fraction".into(),
                    Json::Arr(r.rltl.rltl_fraction.iter().map(|&x| Json::num(x)).collect()),
                ),
                (
                    "refresh_8ms_fraction".into(),
                    Json::num(r.rltl.refresh_8ms_fraction),
                ),
                ("activations".into(), Json::uint(r.rltl.activations)),
            ]),
        ),
        (
            "energy_pj".into(),
            Json::Obj(vec![
                ("background".into(), Json::num(r.energy.background_pj)),
                ("activate".into(), Json::num(r.energy.activate_pj)),
                ("read".into(), Json::num(r.energy.read_pj)),
                ("write".into(), Json::num(r.energy.write_pj)),
                ("refresh".into(), Json::num(r.energy.refresh_pj)),
            ]),
        ),
    ]);
    Json::Obj(members)
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

/// An observer invoked at fixed cycle intervals while a [`System`] runs,
/// so time-series data comes from one simulation instead of one run per
/// sample point. Probes only read state; they cannot perturb the run
/// (see `tests/api.rs::probe_does_not_perturb_the_run`).
pub trait Probe {
    /// Called once right after warmup, then after every probe interval of
    /// measured execution, and once at the end of the run.
    fn sample(&mut self, sys: &System);
}

impl<F: FnMut(&System)> Probe for F {
    fn sample(&mut self, sys: &System) {
        self(sys)
    }
}

/// One cumulative observation of a running system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// CPU cycle of the observation.
    pub cycle: u64,
    /// Minimum retired-instruction count across cores.
    pub min_retired: u64,
    /// DRAM reads so far (including warmup).
    pub dram_reads: u64,
    /// Row activations so far (including warmup).
    pub activations: u64,
}

/// A ready-made [`Probe`] that records a [`Sample`] per interval.
#[derive(Debug, Clone, Default)]
pub struct SampleSeries {
    /// The recorded samples, in time order.
    pub samples: Vec<Sample>,
}

impl Probe for SampleSeries {
    fn sample(&mut self, sys: &System) {
        let stats = sys.memory().stats();
        self.samples.push(Sample {
            cycle: sys.now(),
            min_retired: sys.min_retired(),
            dram_reads: stats.reads,
            activations: stats.activations(),
        });
    }
}

/// Like [`crate::run_configured`], but calls
/// `probe` every `interval_cycles` CPU cycles of the measured phase.
/// The probe does not change the simulation: the returned [`RunResult`]
/// is bit-identical to an unprobed run of the same configuration.
///
/// # Errors
///
/// Returns [`InvalidConfig`] if the configuration fails validation, the
/// workload count does not match the core count, or `interval_cycles`
/// is zero.
pub fn run_probed(
    cfg: SystemConfig,
    apps: &[WorkloadSpec],
    p: &ExpParams,
    interval_cycles: u64,
    probe: &mut dyn Probe,
) -> Result<RunResult, InvalidConfig> {
    if interval_cycles == 0 {
        return Err(InvalidConfig("probe interval must be non-zero".into()));
    }
    let mut run = CellRun::new(build_system(cfg, apps, p)?, p, u64::MAX);
    loop {
        let cycles = if run.pos.phase == 1 {
            interval_cycles
        } else {
            u64::MAX
        };
        let chunk = run.chunk(cycles);
        if run.pos.phase == 1 {
            probe.sample(&run.sys);
        }
        if let Chunk::Done(hit_cap) = chunk {
            return Ok(run.result(hit_cap));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traces::workload;

    fn tiny() -> ExpParams {
        ExpParams {
            insts_per_core: 2_000,
            warmup_insts: 500,
            ..ExpParams::tiny()
        }
    }

    #[test]
    fn sweep_grid_has_one_cell_per_point() {
        let sweep = Experiment::new()
            .workload(workload("tpch6").unwrap())
            .mechanisms(&[MechanismSpec::baseline(), MechanismSpec::chargecache()])
            .variants([Variant::entries(32), Variant::entries(64)])
            .params(tiny())
            .threads(2)
            .run()
            .unwrap();
        assert_eq!(sweep.cells.len(), 4);
        assert!(sweep.cell("tpch6", "baseline", "32").is_some());
        assert!(sweep.cell("tpch6", "chargecache", "64").is_some());
        assert!(sweep
            .cell("tpch6", "chargecache(entries=64)", "64")
            .is_some());
        assert!(sweep.cell("tpch6", "nuat", "32").is_none());
        for c in &sweep.cells {
            assert!(c.metric(Metric::Ipc) > 0.0);
        }
    }

    #[test]
    fn empty_experiment_is_rejected() {
        let err = Experiment::new().run().unwrap_err();
        assert!(err.0.contains("no subjects"));
    }

    #[test]
    fn invalid_variant_is_an_error_not_a_panic() {
        let bad = Variant::new("bad", |cfg| cfg.cores = 0);
        let err = Experiment::new()
            .workload(workload("tpch6").unwrap())
            .mechanism(MechanismSpec::baseline())
            .variant(bad)
            .params(tiny())
            .run()
            .unwrap_err();
        assert!(err.0.contains("core"));
    }

    #[test]
    fn json_output_parses_and_matches_cells() {
        let sweep = Experiment::new()
            .workload(workload("hmmer").unwrap())
            .mechanism(MechanismSpec::baseline())
            .params(tiny())
            .run()
            .unwrap();
        let doc = crate::json::parse(&sweep.to_json()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(crate::json::SCHEMA_V5)
        );
        let cells = doc.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].get("family").and_then(Json::as_str), Some("ddr3"));
        assert!(cells[0].get("error").is_none());
        let ipc = cells[0].get("ipc").and_then(Json::as_arr).unwrap()[0]
            .as_num()
            .unwrap();
        assert!((ipc - sweep.cells[0].result().ipc(0)).abs() < 1e-12);
    }

    #[test]
    fn weighted_speedup_uses_alone_denominators() {
        let mix = traces::eight_core_mixes().into_iter().next().unwrap();
        let sweep = Experiment::new()
            .mix(mix.clone())
            .mechanism(MechanismSpec::baseline())
            .params(tiny())
            .alone_ipcs(MechanismSpec::baseline())
            .run()
            .unwrap();
        // Every distinct app got one alone entry.
        let mut distinct: Vec<&str> = mix.apps.iter().map(|a| a.name).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(sweep.alone.len(), distinct.len());
        let ws = sweep.weighted_speedup(&sweep.cells[0]).unwrap();
        assert!(ws > 0.0 && ws <= 8.5, "weighted speedup {ws}");
    }

    #[test]
    fn content_key_is_the_debug_identity_fixed_at_first_use() {
        let mix = traces::eight_core_mixes().into_iter().next().unwrap();
        let exp = |families: &[&str], timings: &[&str]| {
            Experiment::new()
                .workload(workload("tpch2").unwrap())
                .workload(workload("mcf").unwrap())
                .mix(mix.clone())
                .families(families.iter().map(|f| f.parse().unwrap()))
                .timings(timings.iter().map(|t| t.parse().unwrap()))
                .mechanisms(&[MechanismSpec::baseline(), MechanismSpec::chargecache()])
                .variants([Variant::entries(64), Variant::duration_ms(4.0)])
                .engine(Engine::PerCycle)
                .params(tiny())
        };
        let grid = exp(&["ddr3", "ddr4"], &["ddr3-1600", "ddr3-2133"])
            .plan()
            .unwrap();
        assert_eq!(grid.cells.len(), 3 * 2 * 2 * 2 * 2);
        // Alone runs need a single device.
        let one_device = exp(&["ddr4"], &["ddr3-1600"]);
        let alone_plan = one_device.plan().unwrap();
        let alone = one_device
            .alone_runs(&alone_plan, &MechanismSpec::baseline())
            .unwrap();
        assert!(alone.len() > 2, "{} alone runs", alone.len());

        let mut keys = fasthash::FastHashMap::default();
        for plan in grid.cells.iter().chain(&alone) {
            assert!(plan.key.get().is_none(), "planning computed a key");
            let identity = plan.identity();
            assert_eq!(
                identity,
                format!("{:?}\u{1}{:?}\u{1}{:?}", plan.cfg, plan.apps, plan.params)
            );
            let key = plan.content_key();
            assert_eq!(key, crate::cache::content_key(&identity));
            assert_eq!(plan.clone().key.get(), Some(&key), "a clone drops the key");
            // The checkpoint interval is not identity: an unkeyed copy
            // that checkpoints derives the same key.
            let mut copy = CellPlan {
                key: OnceLock::new(),
                ..plan.clone()
            };
            copy.params.checkpoint_interval = 1_000;
            assert_eq!(copy.content_key(), key);
            keys.insert(key, identity);
        }
        // Baseline ignores the variant's ChargeCache patches, so its two
        // variants share one key, and the two workloads' alone runs are
        // their ddr4/ddr3-1600 baseline cells; every other key is new.
        assert_eq!(keys.len(), 3 * 2 * 2 * 3 + alone.len() - 2);
    }

    #[test]
    fn a_plan_changed_after_its_key_is_fixed_fails_instead_of_publishing() {
        // A run length no other test uses, so the original key is never
        // memoized, in flight or on disk: the changed plan reaches the
        // miss path.
        let params = ExpParams {
            insts_per_core: 2_017,
            ..tiny()
        };
        let grid = Experiment::new()
            .workload(workload("hmmer").unwrap())
            .mechanism(MechanismSpec::baseline())
            .params(params)
            .plan()
            .unwrap();
        let plan = &grid.cells[0];
        let key = plan.content_key();
        let mut changed = plan.clone();
        changed.cfg.mechanism = MechanismSpec::chargecache();
        let dir = std::env::temp_dir().join(format!("cc-api-key-guard-{}", std::process::id()));
        let disk = DiskCache::open(&dir);
        assert!(!disk.is_degraded());
        let err = changed.run(Some(&disk)).unwrap_err();
        assert_eq!(err.kind, CellErrorKind::Config);
        assert_eq!(err.attempts, 0);
        assert!(
            err.message.contains("changed after its content key"),
            "{err}"
        );
        assert!(run_cache().lock().unwrap().get(&key).is_none());
        assert!(disk.load(key).is_none(), "the changed plan was persisted");
        // A changed checkpoint interval is not a changed identity.
        let mut checkpointing = plan.clone();
        checkpointing.params.checkpoint_interval = 1_000;
        assert!(checkpointing.run(None).is_ok());
        assert!(run_cache().lock().unwrap().get(&key).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rltl_fractions_of_a_run_without_activations_are_nan() {
        let sweep = Experiment::new()
            .workload(workload("hmmer").unwrap())
            .mechanism(MechanismSpec::baseline())
            .params(tiny())
            .run()
            .unwrap();
        let mut cell = sweep.cells[0].clone();
        assert!(cell.metric(Metric::Activations) > 0.0);
        assert!(!cell.metric(Metric::RltlFraction(0)).is_nan());
        assert!(!cell.metric(Metric::RefreshFraction).is_nan());
        // What the RLTL tracker reports when it saw no activation.
        let Ok(r) = &mut cell.outcome else {
            panic!("tiny hmmer failed")
        };
        let intervals = r.rltl.intervals_ms.len();
        r.rltl.rltl_fraction = vec![0.0; intervals];
        r.rltl.refresh_8ms_fraction = 0.0;
        r.rltl.activations = 0;
        for i in 0..intervals {
            assert!(
                cell.metric(Metric::RltlFraction(i)).is_nan(),
                "interval {i}"
            );
        }
        assert!(cell.metric(Metric::RefreshFraction).is_nan());
        assert_eq!(cell.metric(Metric::Activations), 0.0);
        // The other metrics of the run stay defined.
        assert!(cell.metric(Metric::Ipc) > 0.0);
    }
}
