//! Plugin mechanisms implemented **outside** `crates/core`, proving the
//! mechanism seam is an open API: both register through
//! [`chargecache::registry::register_mechanism`] and then work everywhere
//! a built-in does — `SystemConfig`, `sim::api::Experiment` sweeps,
//! `cc-sim --mechanism`, `--list-mechanisms` and v2 JSON output — without
//! any core edit.
//!
//! * [`PerfectCc`] — an oracle ChargeCache with an *infinite* HCRAC and
//!   no expiry: every re-activation of a previously-closed row gets the
//!   hit timings. This upper-bounds what any finite HCRAC can reach, and
//!   is distinct from LL-DRAM, which also accelerates first-touch
//!   activations (rows that were never charged recently).
//! * [`RefreshCc`] — ChargeCache that additionally inserts rows
//!   replenished by auto-refresh via the
//!   [`LatencyMechanism::on_refresh_row`] hook. A refresh restores a
//!   row's charge exactly like an activation + precharge does, so such
//!   rows are equally safe to activate fast — this is the paper's NUAT
//!   observation recast as HCRAC insertions.
//!
//! Call [`register_extended_mechanisms`] once at startup (idempotent) to
//! make the specs `perfect-cc` and `refresh-cc(...)` resolvable.
//!
//! A third plugin, [`FaultyMech`], exists purely to exercise the
//! sweep-level fault isolation in `sim::api`: it panics after a
//! configurable number of activations. It is only registered when the
//! `CC_FAULT_INJECTION` environment variable is set, so it never shows
//! up in `--list-mechanisms` or resolves from a spec in normal use.
//!
//! # Example
//!
//! ```
//! use chargecache_repro::mechs::register_extended_mechanisms;
//! use chargecache_repro::prelude::*;
//!
//! register_extended_mechanisms();
//! let mut p = ExpParams::tiny();
//! p.insts_per_core = 2_000;
//! let sweep = Experiment::new()
//!     .workload(workload("tpch2").expect("paper workload"))
//!     .mechanism("perfect-cc".parse().expect("valid spec"))
//!     .params(p)
//!     .run()
//!     .expect("registered mechanism");
//! assert!(sweep.cells[0].metric(Metric::Ipc) > 0.0);
//! ```

use std::collections::HashSet;
use std::sync::Arc;

use bitline::derive::CycleQuantized;
use chargecache::spec::cc_config_from;
use chargecache::{
    registry, ChargeCache, ChargeCacheConfig, LatencyMechanism, MechanismContext, MechanismFactory,
    MechanismSpec, ParamValue, RowKey, StatSink, C_ACTIVATES, C_REDUCED,
};
use dram::{ActTimings, BusCycle, TimingParams};

/// Registers [`PerfectCc`] and [`RefreshCc`] in the global mechanism
/// registry. Safe to call repeatedly (re-registration replaces).
pub fn register_extended_mechanisms() {
    registry::register_mechanism(Arc::new(PerfectCcFactory));
    registry::register_mechanism(Arc::new(RefreshCcFactory));
    // Test-only fault injector: opt-in via environment so production
    // spec resolution can never reach a deliberately panicking plugin.
    if std::env::var_os("CC_FAULT_INJECTION").is_some() {
        registry::register_mechanism(Arc::new(FaultyFactory));
    }
}

// ---------------------------------------------------------------------------
// perfect-cc
// ---------------------------------------------------------------------------

/// Oracle ChargeCache: an infinite, never-expiring HCRAC.
///
/// Every row that was ever closed activates with the hit timings; only
/// true first-touch activations pay specification latency. Compare with
/// LL-DRAM (which reduces even first touches) to separate "how much can
/// charge reuse buy" from "how much can a faster device buy".
pub struct PerfectCc {
    seen: HashSet<RowKey>,
    base: ActTimings,
    reduced: ActTimings,
    activates: u64,
    reduced_activates: u64,
}

impl PerfectCc {
    /// Creates the oracle with the paper's 1 ms hit timings.
    pub fn new(timing: &TimingParams) -> Self {
        let q = CycleQuantized::for_duration_ms(1.0, timing.tck_ns);
        let base = timing.act_timings();
        Self {
            seen: HashSet::new(),
            base,
            reduced: base.reduced_by(q.trcd_reduction, q.tras_reduction),
            activates: 0,
            reduced_activates: 0,
        }
    }
}

impl LatencyMechanism for PerfectCc {
    fn on_activate(&mut self, _: BusCycle, _: usize, key: RowKey, _: BusCycle) -> ActTimings {
        self.activates += 1;
        if self.seen.contains(&key) {
            self.reduced_activates += 1;
            self.reduced
        } else {
            self.base
        }
    }

    fn on_precharge(&mut self, _: BusCycle, _: usize, key: RowKey) {
        self.seen.insert(key);
    }

    fn report_stats(&self, out: &mut dyn StatSink) {
        out.counter(C_ACTIVATES, self.activates);
        out.counter(C_REDUCED, self.reduced_activates);
        out.counter("tracked_rows", self.seen.len() as u64);
    }

    fn name(&self) -> &str {
        "perfect-cc"
    }
}

struct PerfectCcFactory;

impl MechanismFactory for PerfectCcFactory {
    fn name(&self) -> &str {
        "perfect-cc"
    }
    fn label(&self) -> &str {
        "Perfect ChargeCache"
    }
    fn describe(&self) -> &str {
        "oracle: infinite never-expiring HCRAC (reuse upper bound; first touches stay slow)"
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
        Ok(Box::new(PerfectCc::new(ctx.timing)))
    }
}

// ---------------------------------------------------------------------------
// refresh-cc
// ---------------------------------------------------------------------------

/// ChargeCache that also caches refreshed rows.
///
/// Wraps the stock [`ChargeCache`] and, through the
/// [`LatencyMechanism::on_refresh_row`] lifecycle hook, inserts every row
/// the rotating auto-refresh schedule replenishes — refresh restores
/// charge just like a precharge does. Uses a *shared* HCRAC (refresh is
/// not attributable to a core), sized `entries × cores` like the paper's
/// footnote-7 shared design point.
pub struct RefreshCc {
    cc: ChargeCache,
    refresh_inserts: u64,
}

impl RefreshCc {
    /// Creates the mechanism from a ChargeCache configuration (the
    /// `shared` flag is forced on; see the type docs).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `cores` is zero.
    pub fn new(mut cfg: ChargeCacheConfig, timing: &TimingParams, cores: usize) -> Self {
        cfg.shared = true;
        Self {
            cc: ChargeCache::new(cfg, timing, cores),
            refresh_inserts: 0,
        }
    }
}

impl LatencyMechanism for RefreshCc {
    fn on_activate(
        &mut self,
        now: BusCycle,
        core: usize,
        key: RowKey,
        refresh_age: BusCycle,
    ) -> ActTimings {
        self.cc.on_activate(now, core, key, refresh_age)
    }

    fn on_precharge(&mut self, now: BusCycle, core: usize, key: RowKey) {
        self.cc.on_precharge(now, core, key);
    }

    fn on_refresh_row(&mut self, now: BusCycle, key: RowKey) {
        // A freshly refreshed row is as highly charged as a freshly
        // precharged one; insert it with the same timestamp semantics.
        self.cc.insert(now, 0, key);
        self.refresh_inserts += 1;
    }

    fn tick(&mut self, now: BusCycle) {
        self.cc.tick(now);
    }

    fn report_stats(&self, out: &mut dyn StatSink) {
        self.cc.report_stats(out);
        out.counter("refresh_inserts", self.refresh_inserts);
    }

    fn name(&self) -> &str {
        "refresh-cc"
    }
}

struct RefreshCcFactory;

const REFRESH_CC_KEYS: &[&str] = &["entries", "ways", "duration", "invalidation"];

impl MechanismFactory for RefreshCcFactory {
    fn name(&self) -> &str {
        "refresh-cc"
    }
    fn label(&self) -> &str {
        "Refresh-fed ChargeCache"
    }
    fn describe(&self) -> &str {
        "ChargeCache whose shared HCRAC also caches rows replenished by auto-refresh"
    }
    fn defaults(&self) -> MechanismSpec {
        MechanismSpec::new(self.name().to_string())
            .with("entries", ParamValue::Int(128))
            .with("ways", ParamValue::Int(2))
            .with("duration", ParamValue::DurationMs(1.0))
            .with("invalidation", ParamValue::Str("periodic".into()))
    }
    fn validate(&self, spec: &MechanismSpec) -> Result<(), String> {
        spec.ensure_known_keys(REFRESH_CC_KEYS)?;
        cc_config_from(spec, 1.25).map(|_| ())
    }
    fn build(
        &self,
        spec: &MechanismSpec,
        ctx: &MechanismContext,
    ) -> Result<Box<dyn LatencyMechanism>, String> {
        spec.ensure_known_keys(REFRESH_CC_KEYS)?;
        let cfg = cc_config_from(spec, ctx.timing.tck_ns)?;
        if ctx.cores == 0 {
            return Err("need at least one core".into());
        }
        Ok(Box::new(RefreshCc::new(cfg, ctx.timing, ctx.cores)))
    }
}

// ---------------------------------------------------------------------------
// faulty (test-only, gated behind CC_FAULT_INJECTION)
// ---------------------------------------------------------------------------

/// Deliberately panicking mechanism for fault-isolation testing.
///
/// Behaves as the baseline (specification timings, no state) until its
/// `after`-th activation, then panics. A sweep containing a `faulty`
/// cell must report that one cell as failed and complete every other
/// cell — `tests/cache.rs` and the cc-sim exit-code tests hold
/// `sim::api`'s `catch_unwind` isolation to exactly that.
pub struct FaultyMech {
    base: ActTimings,
    after: u64,
    activates: u64,
}

impl LatencyMechanism for FaultyMech {
    fn on_activate(&mut self, _: BusCycle, _: usize, _: RowKey, _: BusCycle) -> ActTimings {
        assert!(
            self.activates < self.after,
            "injected fault: faulty mechanism panicked after {} activations",
            self.activates
        );
        self.activates += 1;
        self.base
    }

    fn on_precharge(&mut self, _: BusCycle, _: usize, _: RowKey) {}

    fn report_stats(&self, out: &mut dyn StatSink) {
        out.counter(C_ACTIVATES, self.activates);
    }

    fn name(&self) -> &str {
        "faulty"
    }
}

struct FaultyFactory;

impl MechanismFactory for FaultyFactory {
    fn name(&self) -> &str {
        "faulty"
    }
    fn label(&self) -> &str {
        "Fault injector"
    }
    fn describe(&self) -> &str {
        "test-only: panics after `after` activations (requires CC_FAULT_INJECTION)"
    }
    fn defaults(&self) -> MechanismSpec {
        MechanismSpec::new(self.name().to_string()).with("after", ParamValue::Int(0))
    }
    fn validate(&self, spec: &MechanismSpec) -> Result<(), String> {
        spec.ensure_known_keys(&["after"])?;
        spec.usize_param("after", 0).map(|_| ())
    }
    fn build(
        &self,
        spec: &MechanismSpec,
        ctx: &MechanismContext,
    ) -> Result<Box<dyn LatencyMechanism>, String> {
        self.validate(spec)?;
        Ok(Box::new(FaultyMech {
            base: ctx.timing.act_timings(),
            after: spec.usize_param("after", 0)? as u64,
            activates: 0,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> TimingParams {
        TimingParams::ddr3_1600()
    }

    fn key(row: u32) -> RowKey {
        RowKey::new(0, 0, 0, row)
    }

    #[test]
    fn perfect_cc_reduces_every_reactivation_but_not_first_touch() {
        let t = timing();
        let mut m = PerfectCc::new(&t);
        assert_eq!(m.on_activate(0, 0, key(1), u64::MAX), t.act_timings());
        m.on_precharge(10, 0, key(1));
        // Far beyond any finite caching duration: still a hit.
        let got = m.on_activate(100_000_000, 0, key(1), u64::MAX);
        assert_eq!(got.trcd, t.trcd - 4);
        // A different row is a first touch.
        assert_eq!(m.on_activate(20, 0, key(2), u64::MAX), t.act_timings());
    }

    #[test]
    fn refresh_cc_treats_refreshed_rows_as_charged() {
        let t = timing();
        let mut m = RefreshCc::new(ChargeCacheConfig::paper(), &t, 1);
        // Never activated or precharged — but refreshed just now.
        m.on_refresh_row(1_000, key(9));
        let got = m.on_activate(2_000, 0, key(9), 1_000);
        assert_eq!(got.trcd, t.trcd - 4, "refreshed row must hit");
        // Stock ChargeCache misses the same pattern.
        let mut stock = ChargeCache::new(ChargeCacheConfig::paper(), &t, 1);
        stock.on_refresh_row(1_000, key(9)); // default no-op hook
        assert_eq!(stock.on_activate(2_000, 0, key(9), 1_000), t.act_timings());
    }

    #[test]
    fn faulty_mech_panics_after_configured_activations() {
        let t = timing();
        let mut m = FaultyMech {
            base: t.act_timings(),
            after: 2,
            activates: 0,
        };
        assert_eq!(m.on_activate(0, 0, key(1), u64::MAX), t.act_timings());
        assert_eq!(m.on_activate(1, 0, key(2), u64::MAX), t.act_timings());
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.on_activate(2, 0, key(3), u64::MAX)
        }));
        assert!(boom.is_err(), "third activation must inject the fault");
    }

    #[test]
    fn registration_makes_specs_resolvable() {
        register_extended_mechanisms();
        chargecache::registry::validate_spec(&"perfect-cc".parse().unwrap()).unwrap();
        chargecache::registry::validate_spec(
            &"refresh-cc(entries=256,duration=2ms)".parse().unwrap(),
        )
        .unwrap();
        // Parameter validation flows through like a built-in.
        assert!(
            chargecache::registry::validate_spec(&"refresh-cc(entries=0)".parse().unwrap())
                .is_err()
        );
        assert!(
            chargecache::registry::validate_spec(&"perfect-cc(entries=1)".parse().unwrap())
                .is_err()
        );
    }
}
