//! ChargeCache: the primary contribution of Hassan et al., HPCA 2016.
//!
//! ChargeCache reduces average DRAM latency by exploiting **Row-Level
//! Temporal Locality (RLTL)**: many applications re-activate rows that
//! were precharged only microseconds-to-milliseconds earlier, and such
//! rows still hold most of their charge, so they can be sensed with a
//! reduced `tRCD`/`tRAS`. The mechanism lives entirely in the memory
//! controller:
//!
//! * [`hcrac::Hcrac`] — the *Highly-Charged Row Address Cache*, a small
//!   set-associative tag-only cache of recently-precharged row addresses;
//! * [`invalidation`] — the two-counter (IIC/EC) periodic invalidation
//!   scheme that guarantees no entry older than the caching duration is
//!   ever used (plus the exact per-entry-expiry ablation variant);
//! * [`mechanism`] — the [`mechanism::LatencyMechanism`] seam the memory
//!   controller calls on every ACT, PRE, REF-refreshed row and column
//!   command, with five implementations: [`Baseline`], [`ChargeCache`],
//!   [`Nuat`], [`CcNuat`] and [`LlDram`] (the paper's four comparison
//!   points plus the do-nothing baseline);
//! * [`spec`] — the open plugin API: [`MechanismSpec`] (typed parameters
//!   with a `name(key=val,...)` string grammar) resolved through the
//!   [`registry`] of [`MechanismFactory`] objects, so custom mechanisms
//!   plug in without editing this crate;
//! * [`report`] — trait-based statistics ([`StatSink`] /
//!   [`MechanismReport`]): mechanisms report named counters instead of
//!   filling a fixed struct;
//! * [`overhead`] — the paper's storage/area/power overhead equations
//!   (Section 6.3, Equations 1 and 2).
//!
//! # Example
//!
//! ```
//! use chargecache::{ChargeCache, ChargeCacheConfig, LatencyMechanism, RowKey};
//! use dram::TimingParams;
//!
//! let timing = TimingParams::ddr3_1600();
//! let mut cc = ChargeCache::new(ChargeCacheConfig::paper(), &timing, 1);
//! let key = RowKey::new(0, 0, 3, 42);
//!
//! // First activation of row 42: miss — specification timings.
//! let t = cc.on_activate(1_000, 0, key, u64::MAX);
//! assert_eq!(t, timing.act_timings());
//!
//! // The row is precharged, then re-activated shortly after: hit.
//! cc.on_precharge(2_000, 0, key);
//! let t = cc.on_activate(3_000, 0, key, u64::MAX);
//! assert_eq!(t.trcd, timing.trcd - 4);
//! assert_eq!(t.tras, timing.tras - 8);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod hcrac;
pub mod invalidation;
pub mod mechanism;
pub mod overhead;
pub mod report;
pub mod spec;

pub use config::{ChargeCacheConfig, InvalidationPolicy, NuatConfig};
pub use hcrac::{Hcrac, HcracStats};
pub use mechanism::{Baseline, CcNuat, ChargeCache, LatencyMechanism, LlDram, Nuat};
pub use overhead::OverheadModel;
pub use report::{
    MechanismReport, StatSink, C_ACTIVATES, C_CLAMPED, C_HCRAC_EVICTIONS, C_HCRAC_HITS,
    C_HCRAC_INSERTS, C_HCRAC_INVALIDATIONS, C_HCRAC_LOOKUPS, C_REDUCED,
};
pub use spec::{registry, MechanismContext, MechanismFactory, MechanismSpec, ParamValue};

/// Globally unique identifier of one DRAM row: channel, rank, bank and row
/// packed into 64 bits. This is what the HCRAC tags.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowKey(u64);

fasthash::impl_state!(RowKey { 0 });

impl RowKey {
    /// Packs row coordinates into a key.
    pub fn new(channel: u8, rank: u8, bank: u8, row: u32) -> Self {
        Self(
            (u64::from(channel) << 48)
                | (u64::from(rank) << 40)
                | (u64::from(bank) << 32)
                | u64::from(row),
        )
    }

    /// Builds a key from DRAM crate coordinates.
    pub fn from_loc(loc: dram::BankLoc, row: dram::RowId) -> Self {
        Self::new(loc.channel, loc.rank, loc.bank, row)
    }

    /// The coordinates a key was built from: the inverse of
    /// [`Self::from_loc`] on the keys it builds. Bits above the channel
    /// are ignored, so a key decoded from bytes must be rebuilt and
    /// compared to show it is one of those.
    pub fn to_loc(&self) -> (dram::BankLoc, dram::RowId) {
        let loc = dram::BankLoc {
            channel: (self.0 >> 48) as u8,
            rank: (self.0 >> 40) as u8,
            bank: (self.0 >> 32) as u8,
        };
        (loc, self.0 as u32)
    }

    /// The raw packed value (used for set indexing).
    pub fn raw(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_keys_are_distinct_across_fields() {
        let base = RowKey::new(0, 0, 0, 0);
        assert_ne!(RowKey::new(1, 0, 0, 0), base);
        assert_ne!(RowKey::new(0, 1, 0, 0), base);
        assert_ne!(RowKey::new(0, 0, 1, 0), base);
        assert_ne!(RowKey::new(0, 0, 0, 1), base);
    }

    #[test]
    fn row_key_roundtrips_from_loc() {
        let loc = dram::BankLoc {
            channel: 1,
            rank: 0,
            bank: 7,
        };
        assert_eq!(RowKey::from_loc(loc, 99), RowKey::new(1, 0, 7, 99));
        assert_eq!(RowKey::new(1, 0, 7, 99).to_loc(), (loc, 99));
    }
}
