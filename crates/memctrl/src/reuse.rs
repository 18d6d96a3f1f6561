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
//! scan that dominated simulator time on low-locality workloads. The
//! timeline holds one slot per activation since the last compaction, so
//! its memory grows with the activations a run makes, up to a fixed
//! bound, instead of being allocated for the bound up front.
//!
//! A tracker serves one channel and names its rows by a dense 32-bit id,
//! `flat bank × rows + row`, so every entry is 4 bytes: a timeline slot
//! holds a row id, and the row → latest-slot map an id and a slot (about
//! 8 bytes a row plus the map's control byte). Its Fenwick nodes are
//! 4-byte counts. At the 64 Ki-slot cap the timeline is 256 KiB and the
//! tree as much again.

use chargecache::RowKey;
use dram::{BankLoc, Organization, RowId};
use fasthash::codec::{load_slice, put_slice, put_usize, CodecResult, State};
use fasthash::{impl_state, FastHashMap};

/// Power-of-two reuse-distance histogram.
#[derive(Debug, Clone, Default, PartialEq)]
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

impl_state!(ReuseReport {
    bucket_bounds,
    counts,
    cold_or_beyond,
    activations
});

/// Binary indexed tree counting marked activation slots, one node per
/// slot in use. Node `i` covers slots `(i - lowbit(i), i]` whatever the
/// tree's length, so the tree grows by appending a slot's node once.
#[derive(Debug, Clone)]
struct Fenwick {
    /// `tree[i]` counts the marks in node `i`'s range; `tree[0]` is
    /// unused.
    tree: Vec<u32>,
    total: u64,
}

/// The lowest set bit of `i`: the length of Fenwick node `i`'s range.
fn lowbit(i: usize) -> usize {
    i & i.wrapping_neg()
}

impl Fenwick {
    /// A tree over `slots` unmarked slots.
    fn new(slots: usize) -> Self {
        Self {
            tree: vec![0; slots + 1],
            total: 0,
        }
    }

    /// Resets the tree to `slots` slots, every one marked, in place.
    fn mark_all(&mut self, slots: usize) {
        self.tree.clear();
        self.tree.extend((0..=slots).map(|i| lowbit(i) as u32));
        self.total = slots as u64;
    }

    /// Appends a marked slot after the last one.
    fn push_marked(&mut self) {
        let i = self.tree.len();
        // The new node's range holds the marks already in slots
        // `(i - lowbit(i), i)`, plus the new one.
        let before = self.prefix(i - 1) - self.prefix(i - lowbit(i));
        self.tree.push(before as u32 + 1);
        self.total += 1;
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
            i += lowbit(i);
        }
    }

    /// Number of marks in slots `1..=i`.
    fn prefix(&self, mut i: usize) -> u64 {
        let mut sum = 0u64;
        while i > 0 {
            sum += u64::from(self.tree[i]);
            i -= lowbit(i);
        }
        sum
    }
}

/// Exact bounded LRU stack-distance tracker over the rows one channel
/// activates.
///
/// Equivalent to a most-recent-first stack of rows capped at `depth`
/// entries, but with O(log n) activations: each row's latest activation
/// occupies a timestamp slot marked in a Fenwick tree, and the stack
/// position of a re-activated row is the count of marks after its
/// previous slot. Slots compact in recency order when the timeline fills;
/// until then it grows by one slot per activation.
#[derive(Debug, Clone)]
pub struct RowReuseTracker {
    /// The channel tracked: a row's [`RowKey`] is rebuilt from its id
    /// with it.
    channel: u8,
    banks_per_rank: u8,
    /// Rows per bank: a row's id is `flat bank × rows + row`.
    rows: u32,
    /// Rows in the channel; every id lies below it.
    ids: u32,
    /// Row id → 1-indexed slot of its latest activation.
    last_slot: FastHashMap<u32, u32>,
    /// Row id activated in each slot (for compaction), parallel to the
    /// tree; `slot_row[0]` is unused, so the next free slot is
    /// `slot_row.len()`.
    slot_row: Vec<u32>,
    bit: Fenwick,
    /// Slots the timeline may hold before it compacts.
    capacity: usize,
    /// Maximum tracked depth.
    depth: usize,
    /// Histogram counts, bucket i = distance in (2^(i-1), 2^i].
    counts: Vec<u64>,
    cold_or_beyond: u64,
    activations: u64,
}

/// A slot no row occupies: no row id equals it, because
/// [`Organization::validate`] keeps a channel's rows below 2^32.
const NO_ROW: u32 = u32::MAX;

impl RowReuseTracker {
    /// Creates a tracker of channel `channel` of `org` with the given
    /// maximum stack depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or `org` has 2^32 rows per channel or
    /// more (which [`Organization::validate`] rejects).
    pub fn new(depth: usize, channel: u8, org: &Organization) -> Self {
        assert!(depth > 0, "depth must be non-zero");
        let ids = u32::try_from(org.rows_per_channel())
            .expect("rows per channel must be below 2^32 (Organization::validate)");
        let buckets = (usize::BITS - (depth - 1).leading_zeros()) as usize + 1;
        Self {
            channel,
            banks_per_rank: org.banks,
            rows: org.rows,
            ids,
            last_slot: FastHashMap::default(),
            slot_row: vec![NO_ROW],
            bit: Fenwick::new(0),
            capacity: (4 * depth).max(1024),
            depth,
            counts: vec![0; buckets.max(1)],
            cold_or_beyond: 0,
            activations: 0,
        }
    }

    /// The [`RowKey`] of row id `id`.
    fn key_of(&self, id: u32) -> RowKey {
        let bank =
            BankLoc::from_flat_index(self.channel, (id / self.rows) as usize, self.banks_per_rank);
        RowKey::from_loc(bank, id % self.rows)
    }

    /// The row id of `key`, or why it names no row of this channel.
    fn id_of(&self, key: RowKey) -> Result<u32, String> {
        let (loc, row) = key.to_loc();
        let id = loc.flat_index(self.banks_per_rank) as u64 * u64::from(self.rows) + u64::from(row);
        if RowKey::from_loc(loc, row) != key
            || loc.bank >= self.banks_per_rank
            || row >= self.rows
            || id >= u64::from(self.ids)
        {
            return Err(format!("reuse row {:#x} out of range", key.raw()));
        }
        if loc.channel != self.channel {
            return Err(format!(
                "reuse row {:#x} is in channel {}, not {}",
                key.raw(),
                loc.channel,
                self.channel
            ));
        }
        Ok(id as u32)
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
            for old in 1..self.slot_row.len() {
                if to_prune == 0 {
                    break;
                }
                let row = self.slot_row[old];
                if self.last_slot.get(&row) == Some(&(old as u32)) {
                    self.last_slot.remove(&row);
                    self.bit.add(old, false);
                    to_prune -= 1;
                }
            }
        }
        // Renumber the survivors (≤ depth ≤ capacity/4) in place, oldest
        // first: a survivor's new slot never lies after its old one, and
        // a stale slot never equals a renumbered row's new slot.
        let mut next = 1;
        for old in 1..self.slot_row.len() {
            let row = self.slot_row[old];
            if self.last_slot.get(&row) == Some(&(old as u32)) {
                self.slot_row[next] = row;
                self.last_slot.insert(row, next as u32);
                next += 1;
            }
        }
        self.slot_row.truncate(next);
        self.bit.mark_all(next - 1);
    }

    /// Number of rows currently tracked — bounded by `depth` at every
    /// compaction, plus at most one timeline's worth of new rows between
    /// compactions.
    pub fn tracked_rows(&self) -> usize {
        self.last_slot.len()
    }

    /// Records an activation of row `row` of the channel's bank at flat
    /// rank-major index `bank`; returns the reuse distance (`None` for
    /// cold/beyond-depth activations).
    pub fn on_activate(&mut self, bank: usize, row: RowId) -> Option<u64> {
        let id = bank as u32 * self.rows + row;
        debug_assert!(row < self.rows && id < self.ids, "row {row} of bank {bank}");
        self.activations += 1;
        if self.slot_row.len() > self.capacity {
            self.compact();
        }
        let slot = self.slot_row.len();
        let prev = self.last_slot.insert(id, slot as u32);
        self.bit.push_marked();
        self.slot_row.push(id);
        let dist = match prev {
            Some(p) => {
                let p = p as usize;
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

    /// The report of several trackers' summed histograms (one per
    /// channel): what [`Self::absorb`]ing them into a copy of the first
    /// reports, without copying any tracker's timeline.
    ///
    /// # Panics
    ///
    /// Panics if `trackers` is empty or their depths differ.
    pub fn report_all<'a>(trackers: impl IntoIterator<Item = &'a RowReuseTracker>) -> ReuseReport {
        let mut trackers = trackers.into_iter();
        let mut agg = trackers.next().expect("at least one tracker").report();
        for t in trackers {
            assert_eq!(agg.counts.len(), t.counts.len());
            for (a, b) in agg.counts.iter_mut().zip(&t.counts) {
                *a += b;
            }
            agg.cold_or_beyond += t.cold_or_beyond;
            agg.activations += t.activations;
        }
        agg
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
/// Only the row → latest-slot map, the next free slot and the histogram
/// counters are written: the Fenwick marks are exactly the latest slots,
/// and stale `slot_row` entries are never consulted (compaction checks
/// `last_slot` before trusting a slot), so both are rebuilt on load.
/// The map is written as `(RowKey, usize)` pairs sorted by key; ids sort
/// as their keys do, because both order rows by rank, bank and row.
impl State for RowReuseTracker {
    fn put(&self, out: &mut Vec<u8>) {
        let mut items: Vec<(u32, u32)> = self.last_slot.iter().map(|(&r, &s)| (r, s)).collect();
        items.sort_unstable();
        put_usize(out, items.len());
        for (id, slot) in items {
            self.key_of(id).put(out);
            put_usize(out, slot as usize);
        }
        self.slot_row.len().put(out);
        put_slice(out, &self.counts);
        self.cold_or_beyond.put(out);
        self.activations.put(out);
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        // The map's sorted pairs, kept as a list so duplicates show.
        let items = Vec::<(RowKey, usize)>::take(input)?;
        let next_slot = usize::take(input)?;
        if next_slot == 0 || next_slot > self.capacity + 1 {
            return Err(format!("reuse next_slot {next_slot} out of range"));
        }
        load_slice(input, &mut self.counts, |n, have| {
            format!("reuse bucket mismatch: checkpoint has {n}, tracker has {have}")
        })?;
        self.cold_or_beyond.load(input)?;
        self.activations.load(input)?;

        let mut last_slot = FastHashMap::default();
        let mut slot_row = vec![NO_ROW; next_slot];
        let mut bit = Fenwick::new(next_slot - 1);
        for (key, slot) in items {
            let id = self.id_of(key)?;
            if slot == 0 || slot >= next_slot {
                return Err(format!("reuse slot {slot} out of range"));
            }
            if last_slot.insert(id, slot as u32).is_some() {
                return Err("reuse row listed twice".to_string());
            }
            if slot_row[slot] != NO_ROW {
                return Err(format!("reuse slot {slot} occupied twice"));
            }
            slot_row[slot] = id;
            bit.add(slot, true);
        }
        self.last_slot = last_slot;
        self.slot_row = slot_row;
        self.bit = bit;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two ranks of eight banks of 4096 rows per channel.
    fn org() -> Organization {
        Organization {
            channels: 2,
            ranks: 2,
            banks: 8,
            bank_groups: 1,
            rows: 4096,
            columns: 128,
            line_bytes: 64,
        }
    }

    /// A tracker of channel 0 of [`org`].
    fn tracker(depth: usize) -> RowReuseTracker {
        RowReuseTracker::new(depth, 0, &org())
    }

    fn encode(t: &RowReuseTracker) -> Vec<u8> {
        let mut out = Vec::new();
        t.put(&mut out);
        out
    }

    #[test]
    fn immediate_reuse_has_distance_one() {
        let mut t = tracker(64);
        t.on_activate(0, 1);
        assert_eq!(t.on_activate(0, 1), Some(1));
    }

    #[test]
    fn distance_counts_distinct_intervening_rows() {
        let mut t = tracker(64);
        t.on_activate(0, 1);
        t.on_activate(0, 2);
        t.on_activate(0, 3);
        // Rows 2 and 3 intervene → distance 3 (stack position).
        assert_eq!(t.on_activate(0, 1), Some(3));
    }

    #[test]
    fn repeated_intervening_rows_do_not_inflate_distance() {
        let mut t = tracker(64);
        t.on_activate(0, 1);
        for _ in 0..10 {
            t.on_activate(0, 2);
        }
        assert_eq!(t.on_activate(0, 1), Some(2));
    }

    #[test]
    fn beyond_depth_is_cold() {
        let mut t = tracker(4);
        t.on_activate(0, 0);
        for r in 1..=4 {
            t.on_activate(0, r);
        }
        // Row 0 fell off the 4-deep stack.
        assert_eq!(t.on_activate(0, 0), None);
        assert_eq!(t.report().cold_or_beyond, 6);
    }

    #[test]
    fn report_fractions_are_cumulative() {
        let mut t = tracker(64);
        // Distances 1 and 3.
        t.on_activate(0, 1);
        t.on_activate(0, 1);
        t.on_activate(0, 2);
        t.on_activate(0, 3);
        t.on_activate(0, 1);
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
        let mut t = tracker(8);
        for r in 0..2000u32 {
            t.on_activate(0, r);
        }
        // Memory stays bounded: at most `depth` survivors per compaction
        // plus one timeline of new rows between compactions.
        assert!(
            t.tracked_rows() <= 1024 + 8,
            "tracked = {}",
            t.tracked_rows()
        );
        // A recent row keeps its exact distance across the pruning…
        assert_eq!(t.on_activate(0, 1996), Some(4));
        // …and an ancient (pruned) row classifies cold, exactly like the
        // former bounded stack.
        assert_eq!(t.on_activate(0, 0), None);
    }

    /// The LRU stack distance by definition: the position of `row` in a
    /// most-recent-first stack of distinct rows, `None` beyond `depth`.
    fn stack_distance<K: PartialEq>(stack: &mut Vec<K>, row: K, depth: usize) -> Option<u64> {
        let pos = stack.iter().position(|k| *k == row);
        if let Some(p) = pos {
            stack.remove(p);
        }
        stack.insert(0, row);
        stack.truncate(depth);
        pos.map(|p| p as u64 + 1)
    }

    #[test]
    fn growing_timeline_matches_a_reference_stack() {
        let org = org();
        let banks = usize::from(org.ranks) * usize::from(org.banks);
        let mut t = RowReuseTracker::new(16, 1, &org);
        // Nothing is allocated for the timeline up front.
        assert_eq!((t.slot_row.len(), t.bit.tree.len()), (1, 1));
        let mut stack = Vec::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut compactions = 0;
        for i in 0..20_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            // A small hot set and a wide cold one across every rank, bank
            // and row, so distances span the depth and compactions prune;
            // the hot rows share row numbers across banks.
            let (bank, row) = if x >> 62 == 0 {
                ((x >> 8) as usize % banks, (x >> 32) as u32 % org.rows)
            } else {
                ((x >> 8) as usize % 3 * 5, (x >> 32) as u32 % 4)
            };
            let before = t.slot_row.len();
            assert_eq!(
                t.on_activate(bank, row),
                stack_distance(&mut stack, (bank, row), 16),
                "activation {i}"
            );
            compactions += usize::from(t.slot_row.len() < before);
            assert!(t.slot_row.len() <= t.capacity + 1);
            assert_eq!(t.bit.tree.len(), t.slot_row.len());
            if i % 7_001 == 7_000 {
                // A checkpoint round trip into a tracker holding other
                // rows, mid-stream.
                let mut restored = RowReuseTracker::new(16, 1, &org);
                restored.on_activate(3, 3);
                let bytes = encode(&t);
                restored.load(&mut bytes.as_slice()).unwrap();
                assert_eq!(encode(&restored), bytes);
                t = restored;
            }
        }
        assert!(compactions >= 10, "{compactions} compactions");
    }

    #[test]
    fn state_bytes_match_the_row_key_encoding() {
        // The tracker's encoding for this stream, captured when the
        // tracker was keyed by `RowKey` with 8-byte slots: the map is
        // still written as sorted `(RowKey, usize)` pairs.
        let mut t = RowReuseTracker::new(16, 1, &org());
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..3_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let rank = (x >> 63) as usize;
            let bank = (x >> 60) as usize & 7;
            let row = if (x >> 58) & 3 == 0 {
                (x >> 33) % 1024
            } else {
                (x >> 33) % 6
            };
            t.on_activate(rank * 8 + bank, row as u32);
        }
        let bytes = encode(&t);
        assert_eq!(t.tracked_rows(), 348);
        assert_eq!(
            (bytes.len(), fasthash::checksum_64(&bytes)),
            (5648, 0xddae_f788_75c5_0ee5)
        );
    }

    #[test]
    fn decoding_rejects_rows_of_another_channel_or_out_of_range() {
        let org = org();
        let mut t = RowReuseTracker::new(64, 1, &org);
        t.on_activate(0, 5);
        let bytes = encode(&t);
        // The map's one key follows its length.
        let with_key = |key: RowKey| {
            let mut b = bytes.clone();
            b[8..16].copy_from_slice(&key.raw().to_le_bytes());
            RowReuseTracker::new(64, 1, &org).load(&mut b.as_slice())
        };
        with_key(RowKey::new(1, 0, 0, 5)).unwrap();
        with_key(RowKey::new(1, 1, 7, 4095)).unwrap();
        let err = with_key(RowKey::new(0, 0, 0, 5)).unwrap_err();
        assert!(err.contains("in channel 0, not 1"), "{err}");
        for key in [
            RowKey::new(1, 2, 0, 5),
            RowKey::new(1, 0, 8, 5),
            RowKey::new(1, 0, 0, 4096),
            RowKey::new(1, 0, 0, u32::MAX),
        ] {
            let err = with_key(key).unwrap_err();
            assert!(err.contains("out of range"), "{key:?}: {err}");
        }
        let mut high = bytes.clone();
        high[15] = 0x80;
        let err = RowReuseTracker::new(64, 1, &org)
            .load(&mut high.as_slice())
            .unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn report_all_equals_the_absorb_fold() {
        let mut a = tracker(64);
        let mut b = tracker(64);
        for r in [1, 2, 1, 3, 3, 2] {
            a.on_activate(0, r);
        }
        for r in [5, 5, 6, 5] {
            b.on_activate(0, r);
        }
        let mut folded = a.clone();
        folded.absorb(&b);
        assert_eq!(RowReuseTracker::report_all([&a, &b]), folded.report());
        assert_eq!(RowReuseTracker::report_all([&a]), a.report());
    }

    #[test]
    fn median_tracks_the_mass() {
        let mut t = tracker(1024);
        // 100 immediate reuses.
        t.on_activate(0, 7);
        for _ in 0..100 {
            t.on_activate(0, 7);
        }
        assert_eq!(t.report().median_bound(), Some(1));
    }
}
