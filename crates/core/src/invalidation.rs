//! Stale-entry invalidation for the HCRAC.
//!
//! The paper's scheme (Section 4.2.3) uses two counters instead of
//! per-entry expiry clocks:
//!
//! * the **Invalidation Interval Counter (IIC)** counts processor cycles
//!   up to `C/k`, where `C` is the caching duration in cycles and `k` the
//!   number of HCRAC entries;
//! * the **Entry Counter (EC)** selects which entry to invalidate; each
//!   time IIC wraps, the entry EC points at is invalidated and EC
//!   advances.
//!
//! Every entry is therefore visited exactly once per `C` cycles, so no
//! valid entry can be older than `C` — the correctness invariant — at the
//! cost of some entries being invalidated prematurely (up to one full
//! period early).

use fasthash::codec::{CodecResult, State};

/// The IIC/EC counter pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeriodicInvalidator {
    /// Invalidation period per entry: `C/k` cycles.
    period: u64,
    /// Number of entries `k`.
    entries: usize,
    /// Cycle at which the next invalidation fires.
    next_fire: u64,
    /// Entry Counter: index of the next entry to invalidate.
    ec: usize,
}

impl PeriodicInvalidator {
    /// Creates the counter pair for a caching duration of
    /// `duration_cycles` over `entries` HCRAC entries.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(duration_cycles: u64, entries: usize) -> Self {
        assert!(duration_cycles > 0, "caching duration must be non-zero");
        assert!(entries > 0, "need at least one entry");
        let period = (duration_cycles / entries as u64).max(1);
        Self {
            period,
            entries,
            next_fire: period,
            ec: 0,
        }
    }

    /// Invalidation period (`C/k`) in cycles.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Cycle at which the next invalidation fires. Ticking before this
    /// cycle is a no-op, which callers use to gate the per-tick sweep.
    pub fn next_fire(&self) -> u64 {
        self.next_fire
    }

    /// Advances time to `now` and returns the indices of every entry whose
    /// invalidation fired in the interim (usually zero or one; more if the
    /// caller ticks coarsely).
    ///
    /// Equivalent to incrementing IIC once per cycle and firing on wrap,
    /// but O(fires) instead of O(cycles).
    pub fn advance(&mut self, now: u64) -> Vec<usize> {
        let mut fired = Vec::new();
        while self.next_fire <= now {
            fired.push(self.ec);
            self.ec = (self.ec + 1) % self.entries;
            self.next_fire += self.period;
        }
        fired
    }

    /// Cycles until the next invalidation fires, from `now`.
    pub fn cycles_to_next(&self, now: u64) -> u64 {
        self.next_fire.saturating_sub(now)
    }
}

/// The counter pair's mutable state (checkpoint support); the period
/// and entry count come from the configuration.
impl State for PeriodicInvalidator {
    fn put(&self, out: &mut Vec<u8>) {
        (self.next_fire, self.ec).put(out);
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        self.next_fire.load(input)?;
        let ec = usize::take(input)?;
        if ec >= self.entries {
            return Err(format!("invalidator ec {ec} out of range"));
        }
        self.ec = ec;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_entry_visited_once_per_duration() {
        let duration = 1000;
        let entries = 8;
        let mut inv = PeriodicInvalidator::new(duration, entries);
        let fired = inv.advance(duration);
        assert_eq!(fired.len(), entries);
        // Each index exactly once, in order.
        assert_eq!(fired, (0..entries).collect::<Vec<_>>());
    }

    #[test]
    fn wraps_around_entries() {
        let mut inv = PeriodicInvalidator::new(100, 4);
        let fired = inv.advance(200);
        assert_eq!(fired, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn fine_grained_ticks_fire_one_at_a_time() {
        let mut inv = PeriodicInvalidator::new(100, 4);
        let mut all = Vec::new();
        for now in 0..=100 {
            all.extend(inv.advance(now));
        }
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn period_floor_is_one_cycle() {
        let inv = PeriodicInvalidator::new(2, 8);
        assert_eq!(inv.period(), 1);
    }

    #[test]
    fn cycles_to_next_counts_down() {
        let mut inv = PeriodicInvalidator::new(100, 4);
        assert_eq!(inv.cycles_to_next(0), 25);
        assert_eq!(inv.cycles_to_next(20), 5);
        inv.advance(25);
        assert_eq!(inv.cycles_to_next(25), 25);
    }
}
