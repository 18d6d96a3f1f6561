//! Row-reuse-distance measurement.
//!
//! The paper explains ChargeCache's weak spots (mcf, omnetpp) through
//! *row reuse distance* (Kandemir et al.): the number of distinct rows
//! activated between two activations of the same row. A reuse distance
//! beyond the HCRAC capacity means the entry has been evicted before it
//! could hit, no matter how high the RLTL is.
//!
//! The tracker computes exact LRU stack distances over row addresses,
//! bounded by a configurable depth (distances beyond it land in the
//! infinity bucket), and reports a power-of-two histogram.
//!
//! Distances are computed in O(log n) per activation with the classic
//! timestamp + Fenwick-tree formulation (each row's *latest* activation
//! slot carries a mark; the stack distance is the number of marks after
//! the row's previous slot), replacing the former O(depth) linear stack
//! scan that dominated simulator time on low-locality workloads.

use chargecache::RowKey;
use fasthash::codec::{load_slice, put_slice, put_sorted_map, CodecResult, State};
use fasthash::FastHashMap;

/// Power-of-two reuse-distance histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct ReuseReport {
    /// Upper bound of each bucket: distance ≤ 2^i (bucket 0 = distance ≤ 1).
    pub bucket_bounds: Vec<u64>,
    /// Activation count per bucket.
    pub counts: Vec<u64>,
    /// First-ever activations plus distances beyond the tracked depth.
    pub cold_or_beyond: u64,
    /// Total activations observed.
    pub activations: u64,
}

impl ReuseReport {
    /// Fraction of (warm) activations with reuse distance ≤ `d`.
    pub fn fraction_within(&self, d: u64) -> f64 {
        if self.activations == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .bucket_bounds
            .iter()
            .zip(&self.counts)
            .filter(|(&b, _)| b <= d)
            .map(|(_, &c)| c)
            .sum();
        sum as f64 / self.activations as f64
    }

    /// Median reuse distance bucket bound, if any warm activation exists.
    pub fn median_bound(&self) -> Option<u64> {
        let warm: u64 = self.counts.iter().sum();
        if warm == 0 {
            return None;
        }
        let mut acc = 0;
        for (b, c) in self.bucket_bounds.iter().zip(&self.counts) {
            acc += c;
            if acc * 2 >= warm {
                return Some(*b);
            }
        }
        None
    }
}

/// Binary indexed tree counting marked activation slots.
#[derive(Debug, Clone)]
struct Fenwick {
    tree: Vec<u32>,
    total: u64,
}

impl Fenwick {
    fn new(capacity: usize) -> Self {
        Self {
            tree: vec![0; capacity + 1],
            total: 0,
        }
    }

    fn capacity(&self) -> usize {
        self.tree.len() - 1
    }

    /// Adds ±1 at 1-indexed slot `i`.
    fn add(&mut self, mut i: usize, up: bool) {
        if up {
            self.total += 1;
        } else {
            self.total -= 1;
        }
        while i < self.tree.len() {
            if up {
                self.tree[i] += 1;
            } else {
                self.tree[i] -= 1;
            }
            i += i & i.wrapping_neg();
        }
    }

    /// Number of marks in slots `1..=i`.
    fn prefix(&self, mut i: usize) -> u64 {
        let mut sum = 0u64;
        while i > 0 {
            sum += u64::from(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        sum
    }
}

/// Exact bounded LRU stack-distance tracker over activated rows.
///
/// Equivalent to a most-recent-first stack of rows capped at `depth`
/// entries, but with O(log n) activations: each row's latest activation
/// occupies a timestamp slot marked in a Fenwick tree, and the stack
/// position of a re-activated row is the count of marks after its
/// previous slot. Slots compact in recency order when the timeline fills.
#[derive(Debug, Clone)]
pub struct RowReuseTracker {
    /// Row → 1-indexed slot of its latest activation.
    last_slot: FastHashMap<RowKey, usize>,
    /// Row occupying each slot (for compaction), parallel to the tree.
    slot_row: Vec<RowKey>,
    bit: Fenwick,
    /// Next free 1-indexed slot.
    next_slot: usize,
    /// Maximum tracked depth.
    depth: usize,
    /// Histogram counts, bucket i = distance in (2^(i-1), 2^i].
    counts: Vec<u64>,
    cold_or_beyond: u64,
    activations: u64,
}

impl RowReuseTracker {
    /// Creates a tracker with the given maximum stack depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "depth must be non-zero");
        let buckets = (usize::BITS - (depth - 1).leading_zeros()) as usize + 1;
        let capacity = (4 * depth).max(1024);
        Self {
            last_slot: FastHashMap::default(),
            slot_row: vec![RowKey::new(0, 0, 0, 0); capacity + 1],
            bit: Fenwick::new(capacity),
            next_slot: 1,
            depth,
            counts: vec![0; buckets.max(1)],
            cold_or_beyond: 0,
            activations: 0,
        }
    }

    /// Rebuilds the timeline, keeping only the `depth` most recent rows'
    /// latest slots, in recency order. Pruning deeper marks is
    /// output-identical: a mark older than the `depth` most recent can
    /// never contribute to a distance ≤ `depth` (only *newer* marks are
    /// counted), and the pruned row itself would classify cold/beyond on
    /// return either way — so, like the former bounded LRU stack, state
    /// stays bounded by `depth` regardless of footprint. Amortized O(1)
    /// per activation.
    fn compact(&mut self) {
        // Forget everything deeper than the `depth` most recent marks.
        let live = self.bit.total as usize;
        if live > self.depth {
            let mut to_prune = live - self.depth;
            for old in 1..self.next_slot {
                if to_prune == 0 {
                    break;
                }
                let row = self.slot_row[old];
                if self.last_slot.get(&row) == Some(&old) {
                    self.last_slot.remove(&row);
                    self.bit.add(old, false);
                    to_prune -= 1;
                }
            }
        }
        // Renumber the survivors; ≤ depth ≤ capacity/4, so the timeline
        // never needs to grow.
        let capacity = self.bit.capacity();
        let mut bit = Fenwick::new(capacity);
        let mut slot_row = vec![RowKey::new(0, 0, 0, 0); capacity + 1];
        let mut next = 1usize;
        for old in 1..self.next_slot {
            let row = self.slot_row[old];
            if self.last_slot.get(&row) == Some(&old) {
                bit.add(next, true);
                slot_row[next] = row;
                self.last_slot.insert(row, next);
                next += 1;
            }
        }
        self.bit = bit;
        self.slot_row = slot_row;
        self.next_slot = next;
    }

    /// Number of rows currently tracked — bounded by `depth` at every
    /// compaction, plus at most one timeline's worth of new rows between
    /// compactions.
    pub fn tracked_rows(&self) -> usize {
        self.last_slot.len()
    }

    /// Records a row activation; returns the reuse distance (`None` for
    /// cold/beyond-depth activations).
    pub fn on_activate(&mut self, key: RowKey) -> Option<u64> {
        self.activations += 1;
        if self.next_slot > self.bit.capacity() {
            self.compact();
        }
        let slot = self.next_slot;
        self.next_slot += 1;
        let prev = self.last_slot.insert(key, slot);
        self.bit.add(slot, true);
        self.slot_row[slot] = key;
        let dist = match prev {
            Some(p) => {
                // Marks strictly after the previous slot (excluding the
                // one just added) = rows activated since, each once.
                let after = self.bit.total - self.bit.prefix(p) - 1;
                self.bit.add(p, false);
                after + 1
            }
            None => {
                self.cold_or_beyond += 1;
                return None;
            }
        };
        // Beyond the tracked depth the row has conceptually fallen off
        // the LRU stack: classify as cold, exactly like the former
        // bounded-stack implementation.
        if dist > self.depth as u64 {
            self.cold_or_beyond += 1;
            return None;
        }
        let bucket = (64 - dist.leading_zeros()) as usize - 1;
        let bucket = if dist.is_power_of_two() && bucket > 0 {
            bucket
        } else {
            bucket + usize::from(!dist.is_power_of_two())
        };
        let bucket = bucket.min(self.counts.len() - 1);
        self.counts[bucket] += 1;
        Some(dist)
    }

    /// Builds the histogram report.
    pub fn report(&self) -> ReuseReport {
        ReuseReport {
            bucket_bounds: (0..self.counts.len() as u32).map(|i| 1u64 << i).collect(),
            counts: self.counts.clone(),
            cold_or_beyond: self.cold_or_beyond,
            activations: self.activations,
        }
    }

    /// Merges another tracker's histogram (stacks are not merged).
    pub fn absorb(&mut self, other: &RowReuseTracker) {
        assert_eq!(self.counts.len(), other.counts.len());
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.cold_or_beyond += other.cold_or_beyond;
        self.activations += other.activations;
    }
}

/// The tracker's mutable state (checkpoint support).
///
/// Only the row → latest-slot map and the histogram counters are
/// written: the Fenwick marks are exactly the latest slots, and stale
/// `slot_row` entries are never consulted (compaction checks `last_slot`
/// before trusting a slot), so both are rebuilt on load.
impl State for RowReuseTracker {
    fn put(&self, out: &mut Vec<u8>) {
        put_sorted_map(out, &self.last_slot);
        self.next_slot.put(out);
        put_slice(out, &self.counts);
        self.cold_or_beyond.put(out);
        self.activations.put(out);
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        // The map's sorted pairs, kept as a list so duplicates show.
        let items = Vec::<(RowKey, usize)>::take(input)?;
        let next_slot = usize::take(input)?;
        let capacity = self.bit.capacity();
        if next_slot == 0 || next_slot > capacity + 1 {
            return Err(format!("reuse next_slot {next_slot} out of range"));
        }
        load_slice(input, &mut self.counts, |n, have| {
            format!("reuse bucket mismatch: checkpoint has {n}, tracker has {have}")
        })?;
        self.cold_or_beyond.load(input)?;
        self.activations.load(input)?;

        let mut last_slot = FastHashMap::default();
        let mut slot_row = vec![RowKey::new(0, 0, 0, 0); capacity + 1];
        let mut bit = Fenwick::new(capacity);
        for (key, slot) in items {
            if slot == 0 || slot >= next_slot {
                return Err(format!("reuse slot {slot} out of range"));
            }
            if last_slot.insert(key, slot).is_some() {
                return Err("reuse row listed twice".to_string());
            }
            if slot_row[slot] != RowKey::new(0, 0, 0, 0) && slot_row[slot] != key {
                return Err(format!("reuse slot {slot} occupied twice"));
            }
            slot_row[slot] = key;
            bit.add(slot, true);
        }
        self.last_slot = last_slot;
        self.slot_row = slot_row;
        self.bit = bit;
        self.next_slot = next_slot;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(row: u32) -> RowKey {
        RowKey::new(0, 0, 0, row)
    }

    #[test]
    fn immediate_reuse_has_distance_one() {
        let mut t = RowReuseTracker::new(64);
        t.on_activate(key(1));
        assert_eq!(t.on_activate(key(1)), Some(1));
    }

    #[test]
    fn distance_counts_distinct_intervening_rows() {
        let mut t = RowReuseTracker::new(64);
        t.on_activate(key(1));
        t.on_activate(key(2));
        t.on_activate(key(3));
        // Rows 2 and 3 intervene → distance 3 (stack position).
        assert_eq!(t.on_activate(key(1)), Some(3));
    }

    #[test]
    fn repeated_intervening_rows_do_not_inflate_distance() {
        let mut t = RowReuseTracker::new(64);
        t.on_activate(key(1));
        for _ in 0..10 {
            t.on_activate(key(2));
        }
        assert_eq!(t.on_activate(key(1)), Some(2));
    }

    #[test]
    fn beyond_depth_is_cold() {
        let mut t = RowReuseTracker::new(4);
        t.on_activate(key(0));
        for r in 1..=4 {
            t.on_activate(key(r));
        }
        // Row 0 fell off the 4-deep stack.
        assert_eq!(t.on_activate(key(0)), None);
        assert_eq!(t.report().cold_or_beyond, 6);
    }

    #[test]
    fn report_fractions_are_cumulative() {
        let mut t = RowReuseTracker::new(64);
        // Distances 1 and 3.
        t.on_activate(key(1));
        t.on_activate(key(1));
        t.on_activate(key(2));
        t.on_activate(key(3));
        t.on_activate(key(1));
        let r = t.report();
        assert_eq!(r.activations, 5);
        assert!(r.fraction_within(1) > 0.0);
        assert!(r.fraction_within(4) >= r.fraction_within(1));
    }

    #[test]
    fn compaction_prunes_but_preserves_distances() {
        // Depth 8 with the minimum 1024-slot timeline: 2000 distinct rows
        // force a compaction that must prune everything deeper than the
        // 8 most recent.
        let mut t = RowReuseTracker::new(8);
        for r in 0..2000u32 {
            t.on_activate(key(r));
        }
        // Memory stays bounded: at most `depth` survivors per compaction
        // plus one timeline of new rows between compactions.
        assert!(
            t.tracked_rows() <= 1024 + 8,
            "tracked = {}",
            t.tracked_rows()
        );
        // A recent row keeps its exact distance across the pruning…
        assert_eq!(t.on_activate(key(1996)), Some(4));
        // …and an ancient (pruned) row classifies cold, exactly like the
        // former bounded stack.
        assert_eq!(t.on_activate(key(0)), None);
    }

    #[test]
    fn median_tracks_the_mass() {
        let mut t = RowReuseTracker::new(1024);
        // 100 immediate reuses.
        t.on_activate(key(7));
        for _ in 0..100 {
            t.on_activate(key(7));
        }
        assert_eq!(t.report().median_bound(), Some(1));
    }
}
