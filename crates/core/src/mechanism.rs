//! The latency-mechanism seam and the paper's comparison points.
//!
//! The memory controller calls [`LatencyMechanism::on_activate`] before
//! issuing every `ACT` (the returned [`ActTimings`] governs that
//! activation) and [`LatencyMechanism::on_precharge`] after every row
//! closure. [`LatencyMechanism::on_refresh_row`] observes every row
//! replenished by the rotating auto-refresh schedule (refresh restores
//! charge — the physical basis of NUAT), [`LatencyMechanism::on_read`] /
//! [`LatencyMechanism::on_write`] observe column commands, and
//! [`LatencyMechanism::tick`] advances time-based state such as the
//! periodic invalidation counters. All observation hooks default to
//! no-ops, so a mechanism implements only the events it cares about.
//!
//! Statistics are reported through the [`crate::StatSink`] trait
//! ([`LatencyMechanism::report_stats`]) as named counters, so custom
//! mechanisms can expose arbitrary counters without a core edit.
//!
//! Implementations here are the paper's comparison points:
//!
//! * [`Baseline`] — specification timings, always;
//! * [`ChargeCache`] — the paper's mechanism (HCRAC + IIC/EC);
//! * [`Nuat`] — reduced timings for recently-*refreshed* rows (HPCA 2014);
//! * [`CcNuat`] — ChargeCache with NUAT as the fallback on a miss;
//! * [`LlDram`] — idealized low-latency DRAM: every activation uses the
//!   reduced timings (ChargeCache with a 100% hit rate).
//!
//! They are instantiated through [`crate::MechanismSpec`] and the
//! [`crate::registry`] (see [`crate::spec`]); the concrete constructors
//! below stay public for systems built by hand.

use bitline::derive::CycleQuantized;
use dram::{ActTimings, BusCycle, TimingParams};
use fasthash::codec::{load_slice, put_slice, CodecResult, State};
use fasthash::impl_state;

use crate::config::{ChargeCacheConfig, InvalidationPolicy, NuatConfig};
use crate::hcrac::{Hcrac, HcracStats};
use crate::invalidation::PeriodicInvalidator;
use crate::report::{
    StatSink, C_ACTIVATES, C_CLAMPED, C_HCRAC_EVICTIONS, C_HCRAC_HITS, C_HCRAC_INSERTS,
    C_HCRAC_INVALIDATIONS, C_HCRAC_LOOKUPS, C_REDUCED,
};
use crate::RowKey;

/// Mechanism interface called by the memory controller.
///
/// Only [`Self::on_activate`], [`Self::on_precharge`],
/// [`Self::report_stats`] and [`Self::name`] are mandatory; every other
/// hook is a default no-op.
///
/// Statistics counters must be monotonically non-decreasing over a run
/// (the simulator subtracts a warmup snapshot to obtain post-warmup
/// deltas).
pub trait LatencyMechanism: Send {
    /// Chooses the timing pair for an activation of `key`, requested by
    /// `core`, given the row's refresh age (`u64::MAX` if unknown).
    fn on_activate(
        &mut self,
        now: BusCycle,
        core: usize,
        key: RowKey,
        refresh_age: BusCycle,
    ) -> ActTimings;

    /// Observes a row closure (explicit or auto precharge).
    fn on_precharge(&mut self, now: BusCycle, core: usize, key: RowKey);

    /// Observes one row being replenished by an auto-refresh `REF`
    /// command. Refresh restores the row's charge exactly like a
    /// precharge-after-activation does, so charge-aware mechanisms may
    /// treat refreshed rows as highly charged (the physical basis of
    /// NUAT, and of the `refresh-cc` plugin example).
    fn on_refresh_row(&mut self, _now: BusCycle, _key: RowKey) {}

    /// Observes a column read issued to `key`'s open row.
    fn on_read(&mut self, _now: BusCycle, _core: usize, _key: RowKey) {}

    /// Observes a column write issued to `key`'s open row.
    fn on_write(&mut self, _now: BusCycle, _core: usize, _key: RowKey) {}

    /// Advances time-based state (invalidation counters). Called every
    /// controller cycle; implementations must be O(1) amortized and
    /// tolerate sparse (cycle-skipped) call times.
    fn tick(&mut self, _now: BusCycle) {}

    /// Reports statistics as named counters (see [`crate::report`] for
    /// the well-known names).
    fn report_stats(&self, out: &mut dyn StatSink);

    /// The mechanism's registered name (matches
    /// [`dram::Spec::name`] for registry-built instances).
    fn name(&self) -> &str;

    /// Serializes the mechanism's complete mutable state for
    /// checkpointing, returning `true` on success. The default returns
    /// `false` — "not supported" — which disables mid-run checkpointing
    /// for runs using this mechanism (they still produce correct results;
    /// they just restart from zero after a crash).
    ///
    /// To support checkpoints, implement [`fasthash::codec::State`] for
    /// the mechanism (for plain counter structs,
    /// [`fasthash::impl_state!`] is one line) and write
    /// [`state_hooks!`](crate::state_hooks) in this impl block, which
    /// defines both hooks by delegating to it. The module docs of
    /// [`fasthash::codec`] describe the wire conventions (sorted maps,
    /// prefixed sequences) that keep the bytes deterministic.
    fn save_state(&self, _out: &mut Vec<u8>) -> bool {
        false
    }

    /// Restores state written by [`Self::save_state`] into a freshly
    /// constructed instance with identical configuration.
    ///
    /// # Errors
    ///
    /// Returns a description when the stream is truncated, corrupt, or
    /// the mechanism does not support checkpointing (the default).
    fn load_state(&mut self, _input: &mut &[u8]) -> Result<(), String> {
        Err(format!(
            "mechanism '{}' does not support checkpoint restore",
            self.name()
        ))
    }
}

/// Defines the [`LatencyMechanism`] checkpoint hooks
/// ([`LatencyMechanism::save_state`], [`LatencyMechanism::load_state`])
/// by delegating to the mechanism's [`fasthash::codec::State`] impl.
/// Write it inside the `impl LatencyMechanism for ...` block.
#[macro_export]
macro_rules! state_hooks {
    () => {
        fn save_state(&self, out: &mut Vec<u8>) -> bool {
            fasthash::codec::State::put(self, out);
            true
        }

        fn load_state(&mut self, input: &mut &[u8]) -> Result<(), String> {
            fasthash::codec::State::load(self, input)
        }
    };
}

/// Pushes the HCRAC counter block into a sink.
fn report_hcrac(out: &mut dyn StatSink, s: &HcracStats) {
    out.counter(C_HCRAC_LOOKUPS, s.lookups);
    out.counter(C_HCRAC_HITS, s.hits);
    out.counter(C_HCRAC_INSERTS, s.inserts);
    out.counter(C_HCRAC_EVICTIONS, s.capacity_evictions);
    out.counter(C_HCRAC_INVALIDATIONS, s.invalidations);
}

/// Unmodified DDR3: every activation uses specification timings.
#[derive(Debug, Clone)]
pub struct Baseline {
    base: ActTimings,
    activates: u64,
}

impl Baseline {
    /// Creates the baseline for a timing set.
    pub fn new(timing: &TimingParams) -> Self {
        Self {
            base: timing.act_timings(),
            activates: 0,
        }
    }
}

impl LatencyMechanism for Baseline {
    fn on_activate(&mut self, _: BusCycle, _: usize, _: RowKey, _: BusCycle) -> ActTimings {
        self.activates += 1;
        self.base
    }

    fn on_precharge(&mut self, _: BusCycle, _: usize, _: RowKey) {}

    fn report_stats(&self, out: &mut dyn StatSink) {
        out.counter(C_ACTIVATES, self.activates);
        out.counter(C_REDUCED, 0);
    }

    fn name(&self) -> &str {
        "baseline"
    }

    state_hooks!();
}

/// The ChargeCache mechanism: HCRAC(s) plus invalidation.
#[derive(Debug, Clone)]
pub struct ChargeCache {
    cfg: ChargeCacheConfig,
    base: ActTimings,
    reduced: ActTimings,
    duration_cycles: u64,
    /// One HCRAC per core, or a single shared one.
    caches: Vec<Hcrac>,
    /// Periodic invalidators, parallel to `caches` (empty for the exact
    /// policy or unlimited capacity).
    invalidators: Vec<PeriodicInvalidator>,
    /// Next lazy-expiry sweep cycle for the exact policy. Catch-up state
    /// rather than a modulo check so [`LatencyMechanism::tick`] may be
    /// called at arbitrary (cycle-skipped) times and still expire at the
    /// same boundaries a per-cycle caller would.
    next_sweep: u64,
    /// Earliest `next_fire` across the periodic invalidators: ticks
    /// before this cycle return immediately instead of polling every
    /// per-core invalidator (the controller ticks the mechanism on every
    /// visited bus boundary; invalidations fire orders of magnitude less
    /// often).
    next_fire_min: u64,
    activates: u64,
    reduced_activates: u64,
    /// True when the configured reductions saturate at the 1-cycle floor
    /// for this timing set (see [`ActTimings::clamped_by`]).
    reduced_is_clamped: bool,
    clamped_activates: u64,
}

impl ChargeCache {
    /// Creates the mechanism for `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ChargeCacheConfig::validate`]
    /// or `cores` is zero.
    pub fn new(cfg: ChargeCacheConfig, timing: &TimingParams, cores: usize) -> Self {
        cfg.validate().expect("invalid ChargeCache configuration");
        assert!(cores > 0, "need at least one core");
        let duration_cycles = timing.ms_to_cycles(cfg.duration_ms);
        let instances = if cfg.shared { 1 } else { cores };
        let entries = if cfg.shared {
            cfg.entries_per_core * cores
        } else {
            cfg.entries_per_core
        };
        let caches: Vec<Hcrac> = (0..instances)
            .map(|_| {
                if cfg.unlimited {
                    Hcrac::unlimited()
                } else {
                    Hcrac::new(entries, cfg.ways)
                }
            })
            .collect();
        let invalidators = if cfg.unlimited || cfg.invalidation == InvalidationPolicy::Exact {
            Vec::new()
        } else {
            (0..instances)
                .map(|_| PeriodicInvalidator::new(duration_cycles, entries))
                .collect()
        };
        let base = timing.act_timings();
        let reduced = base.reduced_by(cfg.reductions.trcd_reduction, cfg.reductions.tras_reduction);
        let reduced_is_clamped =
            base.clamped_by(cfg.reductions.trcd_reduction, cfg.reductions.tras_reduction);
        Self {
            cfg,
            base,
            reduced,
            duration_cycles,
            caches,
            invalidators,
            next_sweep: 0,
            next_fire_min: 0,
            activates: 0,
            reduced_activates: 0,
            reduced_is_clamped,
            clamped_activates: 0,
        }
    }

    /// The caching duration in bus cycles.
    pub fn duration_cycles(&self) -> u64 {
        self.duration_cycles
    }

    /// The timing pair applied on a hit.
    pub fn reduced_timings(&self) -> ActTimings {
        self.reduced
    }

    /// Inserts `key` as highly charged at `now` into the HCRAC that
    /// serves `core` (what [`LatencyMechanism::on_precharge`] does, made
    /// public so wrapper mechanisms like the `refresh-cc` plugin example
    /// can insert rows for other charge-restoring events).
    pub fn insert(&mut self, now: BusCycle, core: usize, key: RowKey) {
        let idx = self.cache_index(core);
        self.caches[idx].insert(key, now);
    }

    /// Aggregated HCRAC statistics across all instances.
    pub fn hcrac_stats(&self) -> HcracStats {
        let mut agg = HcracStats::default();
        for c in &self.caches {
            let s = c.stats();
            agg.lookups += s.lookups;
            agg.hits += s.hits;
            agg.inserts += s.inserts;
            agg.capacity_evictions += s.capacity_evictions;
            agg.invalidations += s.invalidations;
        }
        agg
    }

    fn cache_index(&self, core: usize) -> usize {
        if self.cfg.shared {
            0
        } else {
            core % self.caches.len()
        }
    }
}

impl LatencyMechanism for ChargeCache {
    fn on_activate(
        &mut self,
        now: BusCycle,
        core: usize,
        key: RowKey,
        _refresh_age: BusCycle,
    ) -> ActTimings {
        self.activates += 1;
        let idx = self.cache_index(core);
        let exact = self.invalidators.is_empty();
        let duration = self.duration_cycles;
        match self.caches[idx].lookup(key, now) {
            // With exact expiry the age check happens here; the periodic
            // scheme guarantees age ≤ duration by construction.
            Some(age) if !exact || age <= duration => {
                self.reduced_activates += 1;
                if self.reduced_is_clamped {
                    self.clamped_activates += 1;
                }
                self.reduced
            }
            _ => self.base,
        }
    }

    fn on_precharge(&mut self, now: BusCycle, core: usize, key: RowKey) {
        self.insert(now, core, key);
    }

    fn tick(&mut self, now: BusCycle) {
        if self.invalidators.is_empty() {
            // Exact policy: lazily expire on an infrequent stride to bound
            // memory in the unlimited variant. Sweeps catch up to `now` so
            // sparse (cycle-skipped) callers expire at the same boundaries
            // with the same timestamps as a per-cycle caller.
            while self.next_sweep <= now {
                let at = self.next_sweep;
                let d = self.duration_cycles;
                for c in &mut self.caches {
                    c.expire_older_than(at, d);
                }
                self.next_sweep += 65_536;
            }
            return;
        }
        // Nothing can fire before the earliest pending invalidation, and
        // ticks arrive once per visited bus boundary — skip the per-core
        // poll until then.
        if now < self.next_fire_min {
            return;
        }
        let mut min = u64::MAX;
        for (inv, cache) in self.invalidators.iter_mut().zip(&mut self.caches) {
            for idx in inv.advance(now) {
                cache.invalidate_index(idx);
            }
            min = min.min(inv.next_fire());
        }
        self.next_fire_min = min;
    }

    fn report_stats(&self, out: &mut dyn StatSink) {
        out.counter(C_ACTIVATES, self.activates);
        out.counter(C_REDUCED, self.reduced_activates);
        if self.reduced_is_clamped {
            out.counter(C_CLAMPED, self.clamped_activates);
        }
        report_hcrac(out, &self.hcrac_stats());
    }

    fn name(&self) -> &str {
        "chargecache"
    }

    state_hooks!();
}

/// NUAT: activations of recently-refreshed rows use reduced timings.
#[derive(Debug, Clone)]
pub struct Nuat {
    /// `(max_age_cycles, timings, reduction_clamped)` in increasing age
    /// order.
    bins: Vec<(u64, ActTimings, bool)>,
    base: ActTimings,
    activates: u64,
    reduced_activates: u64,
    clamped_activates: u64,
}

impl Nuat {
    /// Creates NUAT from a bin configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`NuatConfig::validate`].
    pub fn new(cfg: NuatConfig, timing: &TimingParams) -> Self {
        cfg.validate().expect("invalid NUAT configuration");
        let base = timing.act_timings();
        let bins = cfg
            .bins
            .iter()
            .map(|&(ms, red)| {
                (
                    timing.ms_to_cycles(ms),
                    base.reduced_by(red.trcd_reduction, red.tras_reduction),
                    base.clamped_by(red.trcd_reduction, red.tras_reduction),
                )
            })
            .collect();
        Self {
            bins,
            base,
            activates: 0,
            reduced_activates: 0,
            clamped_activates: 0,
        }
    }

    /// The timing pair for a given refresh age.
    pub fn timings_for_age(&self, refresh_age: BusCycle) -> ActTimings {
        self.bin_for_age(refresh_age).0
    }

    /// The timing pair for a refresh age plus whether that bin's
    /// reduction saturated at the 1-cycle floor.
    fn bin_for_age(&self, refresh_age: BusCycle) -> (ActTimings, bool) {
        for &(max_age, t, clamped) in &self.bins {
            if refresh_age <= max_age {
                return (t, clamped);
            }
        }
        (self.base, false)
    }

    /// True if any configured bin's reduction clamps for this timing set.
    fn any_bin_clamped(&self) -> bool {
        self.bins.iter().any(|&(_, _, clamped)| clamped)
    }
}

impl LatencyMechanism for Nuat {
    fn on_activate(
        &mut self,
        _now: BusCycle,
        _core: usize,
        _key: RowKey,
        refresh_age: BusCycle,
    ) -> ActTimings {
        self.activates += 1;
        let (t, clamped) = self.bin_for_age(refresh_age);
        if t != self.base {
            self.reduced_activates += 1;
            if clamped {
                self.clamped_activates += 1;
            }
        }
        t
    }

    fn on_precharge(&mut self, _: BusCycle, _: usize, _: RowKey) {}

    fn report_stats(&self, out: &mut dyn StatSink) {
        out.counter(C_ACTIVATES, self.activates);
        out.counter(C_REDUCED, self.reduced_activates);
        if self.any_bin_clamped() {
            out.counter(C_CLAMPED, self.clamped_activates);
        }
    }

    fn name(&self) -> &str {
        "nuat"
    }

    state_hooks!();
}

/// ChargeCache with NUAT as the fallback for HCRAC misses.
#[derive(Debug, Clone)]
pub struct CcNuat {
    cc: ChargeCache,
    nuat: Nuat,
    base: ActTimings,
}

impl CcNuat {
    /// Creates the combined mechanism.
    pub fn new(
        cc_cfg: ChargeCacheConfig,
        nuat_cfg: NuatConfig,
        timing: &TimingParams,
        cores: usize,
    ) -> Self {
        Self {
            cc: ChargeCache::new(cc_cfg, timing, cores),
            nuat: Nuat::new(nuat_cfg, timing),
            base: timing.act_timings(),
        }
    }
}

impl LatencyMechanism for CcNuat {
    fn on_activate(
        &mut self,
        now: BusCycle,
        core: usize,
        key: RowKey,
        refresh_age: BusCycle,
    ) -> ActTimings {
        let cc = self.cc.on_activate(now, core, key, refresh_age);
        if cc != self.base {
            return cc;
        }
        // HCRAC miss: fall back to the refresh-age bins. `Nuat` keeps its
        // own counters, so only consult it on the fallback path.
        self.nuat.on_activate(now, core, key, refresh_age)
    }

    fn on_precharge(&mut self, now: BusCycle, core: usize, key: RowKey) {
        self.cc.on_precharge(now, core, key);
    }

    fn tick(&mut self, now: BusCycle) {
        self.cc.tick(now);
    }

    fn report_stats(&self, out: &mut dyn StatSink) {
        out.counter(C_ACTIVATES, self.cc.activates);
        out.counter(
            C_REDUCED,
            self.cc.reduced_activates + self.nuat.reduced_activates,
        );
        if self.cc.reduced_is_clamped || self.nuat.any_bin_clamped() {
            out.counter(
                C_CLAMPED,
                self.cc.clamped_activates + self.nuat.clamped_activates,
            );
        }
        report_hcrac(out, &self.cc.hcrac_stats());
    }

    fn name(&self) -> &str {
        "cc-nuat"
    }

    state_hooks!();
}

/// Idealized low-latency DRAM: every activation is a ChargeCache hit.
#[derive(Debug, Clone)]
pub struct LlDram {
    reduced: ActTimings,
    reduced_is_clamped: bool,
    activates: u64,
}

impl LlDram {
    /// Creates the idealized device applying `reductions` to every
    /// activation.
    pub fn new(reductions: CycleQuantized, timing: &TimingParams) -> Self {
        let base = timing.act_timings();
        Self {
            reduced: base.reduced_by(reductions.trcd_reduction, reductions.tras_reduction),
            reduced_is_clamped: base
                .clamped_by(reductions.trcd_reduction, reductions.tras_reduction),
            activates: 0,
        }
    }
}

impl LatencyMechanism for LlDram {
    fn on_activate(&mut self, _: BusCycle, _: usize, _: RowKey, _: BusCycle) -> ActTimings {
        self.activates += 1;
        self.reduced
    }

    fn on_precharge(&mut self, _: BusCycle, _: usize, _: RowKey) {}

    fn report_stats(&self, out: &mut dyn StatSink) {
        out.counter(C_ACTIVATES, self.activates);
        out.counter(C_REDUCED, self.activates);
        if self.reduced_is_clamped {
            out.counter(C_CLAMPED, self.activates);
        }
    }

    fn name(&self) -> &str {
        "lldram"
    }

    state_hooks!();
}

impl_state!(Baseline { activates });

/// The HCRAC instances and invalidators (configuration-sized), the
/// sweep and invalidation catch-up cycles, and the counters.
impl State for ChargeCache {
    fn put(&self, out: &mut Vec<u8>) {
        put_slice(out, &self.caches);
        put_slice(out, &self.invalidators);
        for v in [
            self.next_sweep,
            self.next_fire_min,
            self.activates,
            self.reduced_activates,
            self.clamped_activates,
        ] {
            v.put(out);
        }
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        load_slice(input, &mut self.caches, |n, have| {
            format!("hcrac instance mismatch: checkpoint has {n}, mechanism has {have}")
        })?;
        load_slice(input, &mut self.invalidators, |n, have| {
            format!("invalidator count mismatch: checkpoint has {n}, mechanism has {have}")
        })?;
        for v in [
            &mut self.next_sweep,
            &mut self.next_fire_min,
            &mut self.activates,
            &mut self.reduced_activates,
            &mut self.clamped_activates,
        ] {
            v.load(input)?;
        }
        Ok(())
    }
}

impl_state!(Nuat {
    activates,
    reduced_activates,
    clamped_activates
});

impl_state!(CcNuat { cc, nuat });

impl_state!(LlDram { activates });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::MechanismReport;

    fn timing() -> TimingParams {
        TimingParams::ddr3_1600()
    }

    fn key(row: u32) -> RowKey {
        RowKey::new(0, 0, 0, row)
    }

    fn report(m: &dyn LatencyMechanism) -> MechanismReport {
        let mut r = MechanismReport::default();
        m.report_stats(&mut r);
        r
    }

    #[test]
    fn baseline_never_reduces() {
        let t = timing();
        let mut m = Baseline::new(&t);
        for i in 0..100 {
            assert_eq!(m.on_activate(i, 0, key(i as u32), 0), t.act_timings());
        }
        let r = report(&m);
        assert_eq!(r.reduced_activates(), 0);
        assert_eq!(r.activates(), 100);
        assert_eq!(r.hcrac_hit_rate(), None);
    }

    #[test]
    fn chargecache_hit_after_precharge_within_duration() {
        let t = timing();
        let mut cc = ChargeCache::new(ChargeCacheConfig::paper(), &t, 1);
        assert_eq!(cc.on_activate(0, 0, key(5), u64::MAX), t.act_timings());
        cc.on_precharge(100, 0, key(5));
        let got = cc.on_activate(200, 0, key(5), u64::MAX);
        assert_eq!(got, cc.reduced_timings());
        assert_eq!(report(&cc).reduced_fraction(), 0.5);
        assert_eq!(report(&cc).hcrac_hit_rate(), Some(0.5));
    }

    #[test]
    fn chargecache_periodic_invalidation_expires_entries() {
        let t = timing();
        let mut cc = ChargeCache::new(ChargeCacheConfig::paper(), &t, 1);
        let dur = cc.duration_cycles();
        cc.on_precharge(0, 0, key(5));
        // Tick past a full caching duration: the entry must be gone.
        cc.tick(dur + 1);
        assert_eq!(
            cc.on_activate(dur + 2, 0, key(5), u64::MAX),
            t.act_timings()
        );
    }

    #[test]
    fn chargecache_exact_policy_expires_on_lookup() {
        let t = timing();
        let mut cfg = ChargeCacheConfig::paper();
        cfg.invalidation = InvalidationPolicy::Exact;
        let mut cc = ChargeCache::new(cfg, &t, 1);
        let dur = cc.duration_cycles();
        cc.on_precharge(0, 0, key(5));
        assert_eq!(
            cc.on_activate(dur + 1, 0, key(5), u64::MAX),
            t.act_timings()
        );
        // But a young entry hits.
        cc.on_precharge(dur + 2, 0, key(6));
        assert_eq!(
            cc.on_activate(dur + 3, 0, key(6), u64::MAX),
            cc.reduced_timings()
        );
    }

    #[test]
    fn per_core_hcracs_are_private() {
        let t = timing();
        let mut cc = ChargeCache::new(ChargeCacheConfig::paper(), &t, 2);
        cc.on_precharge(0, 0, key(5));
        // Core 1 does not see core 0's entry.
        assert_eq!(cc.on_activate(10, 1, key(5), u64::MAX), t.act_timings());
        assert_eq!(
            cc.on_activate(20, 0, key(5), u64::MAX),
            cc.reduced_timings()
        );
    }

    #[test]
    fn shared_hcrac_is_visible_to_all_cores() {
        let t = timing();
        let mut cfg = ChargeCacheConfig::paper();
        cfg.shared = true;
        let mut cc = ChargeCache::new(cfg, &t, 2);
        cc.on_precharge(0, 0, key(5));
        assert_eq!(
            cc.on_activate(10, 1, key(5), u64::MAX),
            cc.reduced_timings()
        );
    }

    #[test]
    fn public_insert_matches_precharge_insertion() {
        let t = timing();
        let mut cc = ChargeCache::new(ChargeCacheConfig::paper(), &t, 1);
        cc.insert(0, 0, key(7));
        assert_eq!(
            cc.on_activate(10, 0, key(7), u64::MAX),
            cc.reduced_timings()
        );
    }

    #[test]
    fn nuat_bins_by_refresh_age() {
        let t = timing();
        let mut n = Nuat::new(NuatConfig::paper_5pb(), &t);
        let young = n.on_activate(0, 0, key(1), t.ms_to_cycles(1.0));
        let old = n.on_activate(0, 0, key(2), t.ms_to_cycles(63.0));
        assert!(young.trcd < t.trcd);
        assert_eq!(old, t.act_timings());
        // Monotone: older refresh age never yields faster timings.
        let mut prev = 0;
        for ms in [1.0, 3.0, 7.0, 15.0, 31.0, 63.0] {
            let timings = n.timings_for_age(t.ms_to_cycles(ms));
            assert!(timings.trcd >= prev);
            prev = timings.trcd;
        }
    }

    #[test]
    fn cc_nuat_uses_nuat_on_miss() {
        let t = timing();
        let mut m = CcNuat::new(ChargeCacheConfig::paper(), NuatConfig::paper_5pb(), &t, 1);
        // Miss in HCRAC, young refresh age: NUAT timings apply.
        let got = m.on_activate(0, 0, key(1), t.ms_to_cycles(1.0));
        assert!(got.trcd < t.trcd);
        // Hit in HCRAC beats NUAT's weaker bins.
        m.on_precharge(10, 0, key(2));
        let got = m.on_activate(20, 0, key(2), t.ms_to_cycles(31.0));
        assert_eq!(got.trcd, t.trcd - 4);
    }

    #[test]
    fn lldram_always_reduces() {
        let t = timing();
        let mut m = LlDram::new(CycleQuantized::paper_1ms(), &t);
        for i in 0..10 {
            let got = m.on_activate(i, 0, key(i as u32), u64::MAX);
            assert_eq!(got.trcd, t.trcd - 4);
        }
        assert_eq!(report(&m).reduced_fraction(), 1.0);
    }

    #[test]
    fn clamped_reductions_surface_a_counter() {
        // A device whose tRCD cannot absorb the paper's 4-cycle reduction:
        // every hit clamps, and the mechanism says so.
        let mut t = timing();
        t.trcd = 3;
        t.tcl = 3;
        let mut cc = ChargeCache::new(ChargeCacheConfig::paper(), &t, 1);
        cc.on_precharge(0, 0, key(5));
        let got = cc.on_activate(10, 0, key(5), u64::MAX);
        assert_eq!(got.trcd, 1, "3 - 4 saturates at the floor");
        let r = report(&cc);
        assert!(r.has(C_CLAMPED));
        assert_eq!(r.get(C_CLAMPED), 1);

        // LL-DRAM under the same device clamps on every activation.
        let mut ll = LlDram::new(CycleQuantized::paper_1ms(), &t);
        ll.on_activate(0, 0, key(1), u64::MAX);
        ll.on_activate(1, 0, key(2), u64::MAX);
        assert_eq!(report(&ll).get(C_CLAMPED), 2);

        // The paper's own configuration never clamps: the counter is not
        // reported at all (so default counter tables are unchanged).
        let cc = ChargeCache::new(ChargeCacheConfig::paper(), &timing(), 1);
        assert!(!report(&cc).has(C_CLAMPED));
        let n = Nuat::new(NuatConfig::paper_5pb(), &timing());
        assert!(!report(&n).has(C_CLAMPED));
    }

    #[test]
    fn default_hooks_are_no_ops() {
        let t = timing();
        let mut m = Baseline::new(&t);
        // None of these may panic or change statistics.
        m.on_refresh_row(0, key(1));
        m.on_read(0, 0, key(1));
        m.on_write(0, 0, key(1));
        m.tick(1_000);
        assert_eq!(report(&m).activates(), 0);
    }
}
