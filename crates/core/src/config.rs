//! Configuration for the ChargeCache and NUAT mechanisms.

use bitline::derive::CycleQuantized;

/// How stale HCRAC entries are invalidated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidationPolicy {
    /// The paper's two-counter scheme (IIC/EC): one entry is invalidated
    /// every `C/k` cycles, guaranteeing every entry is cleared within one
    /// caching duration of its insertion. Cheap; may invalidate early.
    Periodic,
    /// Per-entry expiry timestamps checked on lookup (the expensive
    /// alternative the paper argues against; kept as an ablation).
    Exact,
}

/// ChargeCache configuration (the paper's Table 1 defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct ChargeCacheConfig {
    /// HCRAC entries per core.
    pub entries_per_core: usize,
    /// Set associativity. `0` means fully associative.
    pub ways: usize,
    /// Caching duration in milliseconds.
    pub duration_ms: f64,
    /// `tRCD`/`tRAS` reductions (bus cycles) applied on a hit.
    pub reductions: CycleQuantized,
    /// Invalidation scheme.
    pub invalidation: InvalidationPolicy,
    /// Share a single HCRAC across cores instead of replicating per core
    /// (the footnote-7 design-space option; total capacity is
    /// `entries_per_core × cores` either way).
    pub shared: bool,
    /// `Some(n)`: model an unlimited-capacity HCRAC (Figure 9's dashed
    /// lines) — `n` is ignored. Kept as an explicit flag instead.
    pub unlimited: bool,
}

impl ChargeCacheConfig {
    /// The paper's default: 128 entries/core, 2-way, LRU, 1 ms caching
    /// duration, 4/8-cycle `tRCD`/`tRAS` reductions, periodic (IIC/EC)
    /// invalidation, replicated per core.
    pub fn paper() -> Self {
        Self {
            entries_per_core: 128,
            ways: 2,
            duration_ms: 1.0,
            reductions: CycleQuantized::paper_1ms(),
            invalidation: InvalidationPolicy::Periodic,
            shared: false,
            unlimited: false,
        }
    }

    /// Paper config with a different caching duration (Figure 11); the
    /// timing reductions are re-derived from the circuit model for a
    /// DDR3-1600 bus.
    pub fn with_duration_ms(duration_ms: f64) -> Self {
        Self {
            duration_ms,
            reductions: CycleQuantized::for_duration_ms(duration_ms, 1.25),
            ..Self::paper()
        }
    }

    /// Unlimited-capacity variant (hit-rate ceiling in Figure 9).
    pub fn unlimited() -> Self {
        Self {
            unlimited: true,
            invalidation: InvalidationPolicy::Exact,
            ..Self::paper()
        }
    }

    /// Validates structural requirements.
    ///
    /// # Errors
    ///
    /// Returns the first violated requirement.
    pub fn validate(&self) -> Result<(), String> {
        if self.unlimited {
            return Ok(());
        }
        if self.entries_per_core == 0 {
            return Err("HCRAC needs at least one entry".into());
        }
        let ways = if self.ways == 0 {
            self.entries_per_core
        } else {
            self.ways
        };
        if !self.entries_per_core.is_multiple_of(ways) {
            return Err(format!(
                "entries ({}) must be a multiple of associativity ({ways})",
                self.entries_per_core
            ));
        }
        let sets = self.entries_per_core / ways;
        if !sets.is_power_of_two() {
            return Err(format!("set count ({sets}) must be a power of two"));
        }
        if self.duration_ms <= 0.0 {
            return Err("caching duration must be positive".into());
        }
        Ok(())
    }
}

impl Default for ChargeCacheConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// NUAT configuration: refresh-age bins with their timing reductions.
///
/// NUAT (Shin et al., HPCA 2014) reduces latency for rows that were
/// *refreshed* recently. Rows are binned by refresh age; younger bins get
/// larger reductions. The default reproduces the paper's 5-bin ("5PB")
/// configuration with reductions derived from the circuit model.
#[derive(Debug, Clone, PartialEq)]
pub struct NuatConfig {
    /// `(max_age_ms, reductions)` pairs in increasing age order. A row
    /// with refresh age ≤ `max_age_ms` uses that bin's reductions.
    pub bins: Vec<(f64, CycleQuantized)>,
}

impl NuatConfig {
    /// The 5-bin ("5PB") configuration used in the paper's comparison,
    /// quantized against the paper's DDR3-1600 clock (tCK = 1.25 ns).
    ///
    /// The bins partition the 64 ms refresh window (as in Shin et al.'s
    /// 0–6 ms / 6–16 ms / … scheme); each bin's reductions come from the
    /// circuit model evaluated at the bin's *upper* age bound, so a bin is
    /// always safe for every row it covers. Because even the youngest bin
    /// spans several milliseconds, NUAT's reductions are necessarily
    /// weaker than ChargeCache's 1 ms-hit timings — the asymmetry behind
    /// the paper's Figure 7.
    pub fn paper_5pb() -> Self {
        Self::paper_5pb_for(1.25)
    }

    /// The 5-bin configuration quantized against an arbitrary clock
    /// period: the analog (nanosecond) reductions are clock-independent,
    /// but the cycle counts they quantize to are not. The registry
    /// factories call this with the *selected* timing preset's `tck_ns`,
    /// so a `ddr3-2133` sweep cell gets bins quantized at 0.9375 ns
    /// rather than the paper's 1.25 ns.
    ///
    /// # Panics
    ///
    /// Panics if `tck_ns` is not positive.
    pub fn paper_5pb_for(tck_ns: f64) -> Self {
        let bins = [6.4, 12.8, 25.6, 38.4, 51.2]
            .into_iter()
            .map(|ms| {
                (
                    ms,
                    CycleQuantized::from_timings(
                        bitline::derive::ReducedTimings::for_duration_ms(ms),
                        tck_ns,
                    ),
                )
            })
            .collect();
        Self { bins }
    }

    /// Validates bin ordering.
    ///
    /// # Errors
    ///
    /// Returns a description if bins are empty or not strictly increasing.
    pub fn validate(&self) -> Result<(), String> {
        if self.bins.is_empty() {
            return Err("NUAT needs at least one bin".into());
        }
        for pair in self.bins.windows(2) {
            if pair[1].0 <= pair[0].0 {
                return Err("NUAT bins must be strictly increasing in age".into());
            }
        }
        Ok(())
    }
}

impl Default for NuatConfig {
    fn default() -> Self {
        Self::paper_5pb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        ChargeCacheConfig::paper().validate().unwrap();
        NuatConfig::paper_5pb().validate().unwrap();
    }

    #[test]
    fn paper_defaults_match_table1() {
        let c = ChargeCacheConfig::paper();
        assert_eq!(c.entries_per_core, 128);
        assert_eq!(c.ways, 2);
        assert_eq!(c.duration_ms, 1.0);
        assert_eq!(c.reductions.trcd_reduction, 4);
        assert_eq!(c.reductions.tras_reduction, 8);
    }

    #[test]
    fn longer_durations_weaken_reductions() {
        let one = ChargeCacheConfig::with_duration_ms(1.0);
        let sixteen = ChargeCacheConfig::with_duration_ms(16.0);
        assert!(sixteen.reductions.trcd_reduction < one.reductions.trcd_reduction);
        assert!(sixteen.reductions.tras_reduction < one.reductions.tras_reduction);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = ChargeCacheConfig::paper();
        c.entries_per_core = 0;
        assert!(c.validate().is_err());

        let mut c = ChargeCacheConfig::paper();
        c.entries_per_core = 96; // 48 sets: not a power of two
        assert!(c.validate().is_err());

        let mut n = NuatConfig::paper_5pb();
        n.bins.reverse();
        assert!(n.validate().is_err());
    }

    #[test]
    fn nuat_bins_weaken_with_age() {
        let n = NuatConfig::paper_5pb();
        for pair in n.bins.windows(2) {
            assert!(pair[1].1.trcd_reduction <= pair[0].1.trcd_reduction);
        }
    }

    #[test]
    fn fully_associative_validates() {
        let mut c = ChargeCacheConfig::paper();
        c.ways = 0;
        c.validate().unwrap();
    }
}
