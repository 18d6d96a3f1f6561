//! Trait-based mechanism statistics.
//!
//! A mechanism reports its statistics by pushing *named counters* into a
//! [`StatSink`] instead of filling a fixed struct, so custom mechanisms
//! registered through [`crate::registry`] can expose
//! whatever counters they maintain without a `crates/core` edit. The
//! concrete [`MechanismReport`] sink keeps counters in first-report order
//! (deterministic output), merges repeats additively (per-channel
//! aggregation), and supports element-wise subtraction (warmup deltas).
//!
//! Counters must be **monotonically non-decreasing** over a run: the
//! simulator computes post-warmup statistics by subtracting a
//! warmup-boundary snapshot.
//!
//! The well-known counter names every built-in uses are the `C_*`
//! constants; derived metrics ([`MechanismReport::reduced_fraction`],
//! [`MechanismReport::hcrac_hit_rate`]) read them by name.

use fasthash::codec::State;
use fasthash::impl_state;

/// Total activations observed by the mechanism.
pub const C_ACTIVATES: &str = "activates";
/// Activations served with reduced timings.
pub const C_REDUCED: &str = "reduced_activates";
/// HCRAC lookups (present only for mechanisms with an HCRAC).
pub const C_HCRAC_LOOKUPS: &str = "hcrac_lookups";
/// HCRAC hits.
pub const C_HCRAC_HITS: &str = "hcrac_hits";
/// HCRAC insertions.
pub const C_HCRAC_INSERTS: &str = "hcrac_inserts";
/// HCRAC evictions forced by capacity.
pub const C_HCRAC_EVICTIONS: &str = "hcrac_capacity_evictions";
/// HCRAC entries invalidated (periodic or exact expiry).
pub const C_HCRAC_INVALIDATIONS: &str = "hcrac_invalidations";
/// Activations whose timing reduction saturated at the 1-cycle floor
/// (`dram::ActTimings::reduced_by` clamps silently; mechanisms whose
/// configured reductions clamp report this counter so sweeps combining
/// fast presets with aggressive reductions are auditable). Reported only
/// by mechanisms whose reduced pair actually clamps, so default
/// configurations keep their counter tables unchanged.
pub const C_CLAMPED: &str = "clamped_reduced_activates";

/// Receiver of named mechanism counters
/// (see [`crate::LatencyMechanism::report_stats`]).
pub trait StatSink {
    /// Reports one counter. Repeated names accumulate additively.
    fn counter(&mut self, name: &str, value: u64);
}

/// The standard [`StatSink`]: an ordered, additive counter table.
///
/// # Example
///
/// ```
/// use chargecache::{MechanismReport, StatSink, C_ACTIVATES, C_REDUCED};
///
/// let mut r = MechanismReport::default();
/// r.counter(C_ACTIVATES, 10);
/// r.counter(C_REDUCED, 4);
/// r.counter(C_ACTIVATES, 5); // a second channel's share accumulates
/// assert_eq!(r.get(C_ACTIVATES), 15);
/// assert!((r.reduced_fraction() - 4.0 / 15.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MechanismReport {
    counters: Vec<(String, u64)>,
}

impl StatSink for MechanismReport {
    fn counter(&mut self, name: &str, value: u64) {
        match self.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += value,
            None => self.counters.push((name.to_string(), value)),
        }
    }
}

impl MechanismReport {
    /// The value of one counter (zero if never reported).
    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// True if the counter was reported at all (distinguishes "zero" from
    /// "not applicable", e.g. HCRAC counters on a mechanism without one).
    pub fn has(&self, name: &str) -> bool {
        self.counters.iter().any(|(n, _)| n == name)
    }

    /// All counters, in first-report order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Total activations ([`C_ACTIVATES`]).
    pub fn activates(&self) -> u64 {
        self.get(C_ACTIVATES)
    }

    /// Reduced-timing activations ([`C_REDUCED`]).
    pub fn reduced_activates(&self) -> u64 {
        self.get(C_REDUCED)
    }

    /// Fraction of activations served with reduced timings.
    pub fn reduced_fraction(&self) -> f64 {
        let acts = self.activates();
        if acts == 0 {
            0.0
        } else {
            self.reduced_activates() as f64 / acts as f64
        }
    }

    /// HCRAC hit rate, `None` when the mechanism reported no HCRAC.
    pub fn hcrac_hit_rate(&self) -> Option<f64> {
        if !self.has(C_HCRAC_LOOKUPS) {
            return None;
        }
        let lookups = self.get(C_HCRAC_LOOKUPS);
        Some(if lookups == 0 {
            0.0
        } else {
            self.get(C_HCRAC_HITS) as f64 / lookups as f64
        })
    }

    /// Adds every counter of `other` into this report (cross-channel
    /// aggregation).
    pub fn absorb(&mut self, other: &MechanismReport) {
        for (name, value) in other.iter() {
            self.counter(name, value);
        }
    }

    /// Serializes the counter table (checkpoint support) through its
    /// [`State`] impl. First-report order is part of the deterministic
    /// state, so it is preserved.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        self.put(out);
    }

    /// Subtracts a warmup-boundary snapshot, element-wise by name.
    ///
    /// # Panics
    ///
    /// Panics if a counter would go negative — counters are contractually
    /// monotone, so that indicates a mechanism bug.
    pub fn subtract(&mut self, warm: &MechanismReport) {
        for (name, value) in &mut self.counters {
            let w = warm.get(name);
            *value = value
                .checked_sub(w)
                .unwrap_or_else(|| panic!("counter {name:?} decreased across the run"));
        }
    }
}

impl_state!(MechanismReport { counters });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_keep_order() {
        let mut r = MechanismReport::default();
        r.counter("b", 1);
        r.counter("a", 2);
        r.counter("b", 3);
        let names: Vec<&str> = r.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["b", "a"]);
        assert_eq!(r.get("b"), 4);
        assert_eq!(r.get("a"), 2);
        assert_eq!(r.get("missing"), 0);
        assert!(!r.has("missing"));
    }

    #[test]
    fn hit_rate_distinguishes_absent_from_zero() {
        let mut r = MechanismReport::default();
        assert_eq!(r.hcrac_hit_rate(), None);
        r.counter(C_HCRAC_LOOKUPS, 0);
        assert_eq!(r.hcrac_hit_rate(), Some(0.0));
        r.counter(C_HCRAC_LOOKUPS, 10);
        r.counter(C_HCRAC_HITS, 4);
        assert_eq!(r.hcrac_hit_rate(), Some(0.4));
    }

    #[test]
    fn absorb_and_subtract_are_elementwise() {
        let mut a = MechanismReport::default();
        a.counter(C_ACTIVATES, 10);
        a.counter(C_REDUCED, 5);
        let mut warm = MechanismReport::default();
        warm.counter(C_ACTIVATES, 4);
        let mut b = a.clone();
        b.absorb(&a);
        assert_eq!(b.get(C_ACTIVATES), 20);
        a.subtract(&warm);
        assert_eq!(a.get(C_ACTIVATES), 6);
        assert_eq!(a.get(C_REDUCED), 5);
    }

    #[test]
    #[should_panic(expected = "decreased")]
    fn non_monotone_subtraction_panics() {
        let mut a = MechanismReport::default();
        a.counter(C_ACTIVATES, 1);
        let mut warm = MechanismReport::default();
        warm.counter(C_ACTIVATES, 2);
        a.subtract(&warm);
    }
}
