//! The Highly-Charged Row Address Cache (HCRAC).
//!
//! A tag-only, set-associative cache of recently-precharged row addresses,
//! organized like a processor cache with LRU replacement (the paper models
//! it as 2-way associative). Each entry additionally records its insertion
//! time, used by the `Exact` invalidation ablation and by tests asserting
//! the staleness invariant.
//!
//! An unlimited-capacity variant backs Figure 9's hit-rate ceiling.

use fasthash::codec::{
    load_map, load_slice, put_slice, put_sorted_map, put_u8, CodecResult, State,
};
use fasthash::{impl_state, FastHashMap};

use crate::RowKey;

/// Running statistics of one HCRAC instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HcracStats {
    /// Lookups performed (one per ACT).
    pub lookups: u64,
    /// Lookups that hit a valid entry.
    pub hits: u64,
    /// Insertions (one per PRE).
    pub inserts: u64,
    /// Valid entries evicted to make room (capacity pressure).
    pub capacity_evictions: u64,
    /// Entries cleared by the invalidation scheme.
    pub invalidations: u64,
}

impl HcracStats {
    /// Hit rate in `[0, 1]`; zero when no lookups occurred.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    key: RowKey,
    inserted_at: u64,
    /// LRU stamp: larger = more recently used.
    stamp: u64,
    valid: bool,
}

const INVALID: Entry = Entry {
    key: RowKey(0),
    inserted_at: 0,
    stamp: 0,
    valid: false,
};

/// Set-associative tag store with LRU replacement, or an unlimited map.
#[derive(Debug, Clone)]
pub struct Hcrac {
    storage: Storage,
    stats: HcracStats,
    stamp: u64,
}

#[derive(Debug, Clone)]
enum Storage {
    SetAssoc {
        sets: usize,
        ways: usize,
        entries: Vec<Entry>,
    },
    Unlimited {
        map: FastHashMap<RowKey, u64>,
    },
}

impl Hcrac {
    /// Creates a set-associative HCRAC with `entries` total entries and
    /// the given associativity (`0` = fully associative).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero, not divisible by the associativity, or
    /// yields a non-power-of-two set count.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(entries > 0, "HCRAC needs at least one entry");
        let ways = if ways == 0 { entries } else { ways };
        assert!(
            entries.is_multiple_of(ways),
            "entries must be a multiple of associativity"
        );
        let sets = entries / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Self {
            storage: Storage::SetAssoc {
                sets,
                ways,
                entries: vec![INVALID; entries],
            },
            stats: HcracStats::default(),
            stamp: 0,
        }
    }

    /// Creates an unlimited-capacity HCRAC (Figure 9 ceiling).
    pub fn unlimited() -> Self {
        Self {
            storage: Storage::Unlimited {
                map: FastHashMap::default(),
            },
            stats: HcracStats::default(),
            stamp: 0,
        }
    }

    /// Total entry slots (`usize::MAX` for the unlimited variant).
    pub fn capacity(&self) -> usize {
        match &self.storage {
            Storage::SetAssoc { entries, .. } => entries.len(),
            Storage::Unlimited { .. } => usize::MAX,
        }
    }

    /// Number of currently valid entries.
    pub fn valid_entries(&self) -> usize {
        match &self.storage {
            Storage::SetAssoc { entries, .. } => entries.iter().filter(|e| e.valid).count(),
            Storage::Unlimited { map } => map.len(),
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &HcracStats {
        &self.stats
    }

    /// Looks up `key` at time `now`; on a hit, refreshes LRU state and
    /// returns the entry's age (`now − inserted_at`).
    pub fn lookup(&mut self, key: RowKey, now: u64) -> Option<u64> {
        self.stats.lookups += 1;
        self.stamp += 1;
        let stamp = self.stamp;
        let hit = match &mut self.storage {
            Storage::SetAssoc {
                sets,
                ways,
                entries,
            } => {
                let set = Self::set_of(key, *sets);
                let slice = &mut entries[set * *ways..(set + 1) * *ways];
                slice.iter_mut().find(|e| e.valid && e.key == key).map(|e| {
                    e.stamp = stamp;
                    now.saturating_sub(e.inserted_at)
                })
            }
            Storage::Unlimited { map } => map.get(&key).map(|&t| now.saturating_sub(t)),
        };
        if hit.is_some() {
            self.stats.hits += 1;
        }
        hit
    }

    /// Checks whether `key` is present without touching LRU state or
    /// statistics.
    pub fn probe(&self, key: RowKey) -> bool {
        match &self.storage {
            Storage::SetAssoc {
                sets,
                ways,
                entries,
            } => {
                let set = Self::set_of(key, *sets);
                entries[set * *ways..(set + 1) * *ways]
                    .iter()
                    .any(|e| e.valid && e.key == key)
            }
            Storage::Unlimited { map } => map.contains_key(&key),
        }
    }

    /// Inserts `key` at time `now`, evicting the set's LRU entry if
    /// necessary. Re-inserting an existing key refreshes its timestamp.
    pub fn insert(&mut self, key: RowKey, now: u64) {
        self.stats.inserts += 1;
        self.stamp += 1;
        let stamp = self.stamp;
        match &mut self.storage {
            Storage::SetAssoc {
                sets,
                ways,
                entries,
            } => {
                let set = Self::set_of(key, *sets);
                let slice = &mut entries[set * *ways..(set + 1) * *ways];
                // Refresh an existing entry in place.
                if let Some(e) = slice.iter_mut().find(|e| e.valid && e.key == key) {
                    e.inserted_at = now;
                    e.stamp = stamp;
                    return;
                }
                // Fill an invalid slot, else evict the LRU one.
                let victim = match slice.iter_mut().find(|e| !e.valid) {
                    Some(e) => e,
                    None => {
                        self.stats.capacity_evictions += 1;
                        slice.iter_mut().min_by_key(|e| e.stamp).expect("ways > 0")
                    }
                };
                *victim = Entry {
                    key,
                    inserted_at: now,
                    stamp,
                    valid: true,
                };
            }
            Storage::Unlimited { map } => {
                map.insert(key, now);
            }
        }
    }

    /// Invalidates the entry at global index `idx` (set-major order); the
    /// periodic IIC/EC scheme walks indices `0..capacity()`.
    ///
    /// No-op on the unlimited variant (it expires exactly instead).
    pub fn invalidate_index(&mut self, idx: usize) {
        if let Storage::SetAssoc { entries, .. } = &mut self.storage {
            let len = entries.len();
            let e = &mut entries[idx % len];
            if e.valid {
                e.valid = false;
                self.stats.invalidations += 1;
            }
        }
    }

    /// Drops every entry strictly older than `max_age` at time `now`
    /// (exact-expiry policy and the unlimited variant).
    pub fn expire_older_than(&mut self, now: u64, max_age: u64) {
        match &mut self.storage {
            Storage::SetAssoc { entries, .. } => {
                for e in entries.iter_mut() {
                    if e.valid && now.saturating_sub(e.inserted_at) > max_age {
                        e.valid = false;
                        self.stats.invalidations += 1;
                    }
                }
            }
            Storage::Unlimited { map } => {
                let before = map.len();
                map.retain(|_, &mut t| now.saturating_sub(t) <= max_age);
                self.stats.invalidations += (before - map.len()) as u64;
            }
        }
    }

    /// Invalidates everything.
    pub fn clear(&mut self) {
        match &mut self.storage {
            Storage::SetAssoc { entries, .. } => {
                for e in entries.iter_mut() {
                    if e.valid {
                        e.valid = false;
                        self.stats.invalidations += 1;
                    }
                }
            }
            Storage::Unlimited { map } => {
                self.stats.invalidations += map.len() as u64;
                map.clear();
            }
        }
    }

    fn set_of(key: RowKey, sets: usize) -> usize {
        // Mix the upper coordinate bits down so banks/channels spread
        // across sets rather than aliasing on row bits alone.
        let k = key.raw();
        let mixed = k ^ (k >> 32) ^ (k >> 48);
        (mixed as usize) & (sets - 1)
    }
}

impl_state!(Entry {
    key,
    inserted_at,
    stamp,
    valid
});

impl_state!(HcracStats {
    lookups,
    hits,
    inserts,
    capacity_evictions,
    invalidations
});

/// The HCRAC's complete state (checkpoint support): a storage tag (0 =
/// set-associative entries, 1 = the unlimited variant's map), then the
/// LRU stamp and statistics.
impl State for Hcrac {
    fn put(&self, out: &mut Vec<u8>) {
        match &self.storage {
            Storage::SetAssoc { entries, .. } => {
                put_u8(out, 0);
                put_slice(out, entries);
            }
            Storage::Unlimited { map } => {
                put_u8(out, 1);
                put_sorted_map(out, map);
            }
        }
        self.stamp.put(out);
        self.stats.put(out);
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        let tag = u8::take(input)?;
        match (&mut self.storage, tag) {
            (Storage::SetAssoc { entries, .. }, 0) => load_slice(input, entries, |n, have| {
                format!("hcrac geometry mismatch: checkpoint has {n} entries, cache has {have}")
            })?,
            (Storage::Unlimited { map }, 1) => load_map(input, map)?,
            _ => return Err(format!("hcrac storage kind mismatch (tag {tag})")),
        }
        self.stamp.load(input)?;
        self.stats.load(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(row: u32) -> RowKey {
        RowKey::new(0, 0, 0, row)
    }

    #[test]
    fn miss_then_hit_after_insert() {
        let mut h = Hcrac::new(128, 2);
        assert_eq!(h.lookup(key(1), 10), None);
        h.insert(key(1), 20);
        assert_eq!(h.lookup(key(1), 50), Some(30));
        assert_eq!(h.stats().hits, 1);
        assert_eq!(h.stats().lookups, 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Direct-mapped-to-one-set cache: 2 entries, 2 ways.
        let mut h = Hcrac::new(2, 2);
        h.insert(key(1), 0);
        h.insert(key(2), 1);
        // Touch key 1 so key 2 is LRU.
        assert!(h.lookup(key(1), 2).is_some());
        h.insert(key(3), 3);
        assert!(h.probe(key(1)));
        assert!(!h.probe(key(2)));
        assert!(h.probe(key(3)));
        assert_eq!(h.stats().capacity_evictions, 1);
    }

    #[test]
    fn reinsert_refreshes_timestamp() {
        let mut h = Hcrac::new(128, 2);
        h.insert(key(1), 0);
        h.insert(key(1), 100);
        assert_eq!(h.lookup(key(1), 150), Some(50));
        assert_eq!(h.valid_entries(), 1);
    }

    #[test]
    fn invalidate_index_clears_entry() {
        let mut h = Hcrac::new(4, 2);
        h.insert(key(1), 0);
        for i in 0..4 {
            h.invalidate_index(i);
        }
        assert_eq!(h.valid_entries(), 0);
        assert_eq!(h.lookup(key(1), 1), None);
        assert_eq!(h.stats().invalidations, 1);
    }

    #[test]
    fn expire_only_drops_stale_entries() {
        let mut h = Hcrac::new(128, 2);
        h.insert(key(1), 0);
        h.insert(key(2), 900);
        h.expire_older_than(1000, 500);
        assert!(!h.probe(key(1)));
        assert!(h.probe(key(2)));
    }

    #[test]
    fn unlimited_never_evicts() {
        let mut h = Hcrac::unlimited();
        for r in 0..10_000 {
            h.insert(key(r), u64::from(r));
        }
        assert_eq!(h.valid_entries(), 10_000);
        assert!(h.probe(key(0)));
        assert_eq!(h.stats().capacity_evictions, 0);
    }

    #[test]
    fn unlimited_expires_exactly() {
        let mut h = Hcrac::unlimited();
        h.insert(key(1), 0);
        h.insert(key(2), 600);
        h.expire_older_than(1000, 500);
        assert!(!h.probe(key(1)));
        assert!(h.probe(key(2)));
    }

    #[test]
    fn different_banks_do_not_collide_on_one_set() {
        // 64 sets: keys differing only in bank bits should spread.
        let mut h = Hcrac::new(128, 2);
        for b in 0..8 {
            h.insert(RowKey::new(0, 0, b, 7), 0);
        }
        assert_eq!(h.valid_entries(), 8);
        for b in 0..8 {
            assert!(h.probe(RowKey::new(0, 0, b, 7)), "bank {b}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        Hcrac::new(96, 2);
    }
}
