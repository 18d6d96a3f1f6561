//! Row-Level Temporal Locality (RLTL) measurement.
//!
//! The paper defines *t-RLTL* as the fraction of row activations occurring
//! within time `t` after the previous **precharge** of the same row
//! (Section 3). This tracker also records the fraction of activations that
//! occur within a window of the row's last **refresh**, which is the
//! quantity NUAT can exploit — the comparison behind Figure 3.

use chargecache::RowKey;
use dram::BusCycle;
use fasthash::codec::{load_map, load_slice, put_slice, put_sorted_map, CodecResult, State};
use fasthash::FastHashMap;

/// Interval edges used by the paper's Figures 3 and 4, in milliseconds.
pub const PAPER_INTERVALS_MS: [f64; 6] = [0.125, 0.25, 0.5, 1.0, 8.0, 32.0];

/// Snapshot of RLTL measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct RltlReport {
    /// Interval upper bounds in milliseconds.
    pub intervals_ms: Vec<f64>,
    /// `fraction[i]`: activations with precharge-age ≤ `intervals_ms[i]`
    /// (cumulative, non-decreasing).
    pub rltl_fraction: Vec<f64>,
    /// Fraction of activations within 8 ms of the row's last refresh.
    pub refresh_8ms_fraction: f64,
    /// Total activations observed.
    pub activations: u64,
}

/// Streaming RLTL tracker fed by the controller.
#[derive(Debug, Clone)]
pub struct RltlTracker {
    /// Interval upper bounds in bus cycles (sorted ascending).
    bounds: Vec<BusCycle>,
    intervals_ms: Vec<f64>,
    /// `counts[i]`: activations whose precharge-age fell in
    /// `(bounds[i-1], bounds[i]]`.
    counts: Vec<u64>,
    /// Activations beyond every bound or of never-precharged rows.
    beyond: u64,
    /// Activations within 8 ms of the row's last refresh.
    refresh_hits: u64,
    /// 8 ms in bus cycles.
    refresh_window: BusCycle,
    activations: u64,
    last_pre: FastHashMap<RowKey, BusCycle>,
}

impl RltlTracker {
    /// Creates a tracker with the paper's interval set for a bus with
    /// `cycles_per_ms` cycles per millisecond.
    pub fn paper(cycles_per_ms: u64) -> Self {
        Self::new(&PAPER_INTERVALS_MS, cycles_per_ms)
    }

    /// Creates a tracker with custom interval bounds (milliseconds,
    /// strictly ascending).
    ///
    /// # Panics
    ///
    /// Panics if `intervals_ms` is empty or not strictly ascending.
    pub fn new(intervals_ms: &[f64], cycles_per_ms: u64) -> Self {
        assert!(!intervals_ms.is_empty(), "need at least one interval");
        assert!(
            intervals_ms.windows(2).all(|w| w[0] < w[1]),
            "intervals must be strictly ascending"
        );
        let bounds = intervals_ms
            .iter()
            .map(|ms| (ms * cycles_per_ms as f64).round() as BusCycle)
            .collect();
        Self {
            bounds,
            intervals_ms: intervals_ms.to_vec(),
            counts: vec![0; intervals_ms.len()],
            beyond: 0,
            refresh_hits: 0,
            refresh_window: 8 * cycles_per_ms,
            activations: 0,
            last_pre: FastHashMap::default(),
        }
    }

    /// Records a row activation at `now` given the row's refresh age.
    pub fn on_activate(&mut self, now: BusCycle, key: RowKey, refresh_age: BusCycle) {
        self.activations += 1;
        if refresh_age <= self.refresh_window {
            self.refresh_hits += 1;
        }
        match self.last_pre.get(&key) {
            Some(&pre) => {
                let age = now.saturating_sub(pre);
                match self.bounds.iter().position(|&b| age <= b) {
                    Some(i) => self.counts[i] += 1,
                    None => self.beyond += 1,
                }
            }
            None => self.beyond += 1,
        }
    }

    /// Records a row precharge at `now`.
    pub fn on_precharge(&mut self, now: BusCycle, key: RowKey) {
        self.last_pre.insert(key, now);
    }

    /// Total activations observed.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Cumulative fraction of activations with precharge-age ≤ the `i`-th
    /// interval.
    pub fn fraction_within(&self, i: usize) -> f64 {
        if self.activations == 0 {
            return 0.0;
        }
        let cum: u64 = self.counts[..=i].iter().sum();
        cum as f64 / self.activations as f64
    }

    /// Builds the report snapshot.
    pub fn report(&self) -> RltlReport {
        let rltl_fraction = (0..self.counts.len())
            .map(|i| self.fraction_within(i))
            .collect();
        RltlReport {
            intervals_ms: self.intervals_ms.clone(),
            rltl_fraction,
            refresh_8ms_fraction: if self.activations == 0 {
                0.0
            } else {
                self.refresh_hits as f64 / self.activations as f64
            },
            activations: self.activations,
        }
    }

    /// Merges another tracker's aggregate counts (used to combine
    /// channels). Per-row state is not merged.
    pub fn absorb(&mut self, other: &RltlTracker) {
        assert_eq!(self.bounds, other.bounds, "interval sets must match");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.beyond += other.beyond;
        self.refresh_hits += other.refresh_hits;
        self.activations += other.activations;
    }
}

/// The tracker's mutable state (checkpoint support); the interval set
/// comes from the configuration.
impl State for RltlTracker {
    fn put(&self, out: &mut Vec<u8>) {
        put_slice(out, &self.counts);
        self.beyond.put(out);
        self.refresh_hits.put(out);
        self.activations.put(out);
        put_sorted_map(out, &self.last_pre);
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        load_slice(input, &mut self.counts, |n, have| {
            format!("rltl interval mismatch: checkpoint has {n}, tracker has {have}")
        })?;
        self.beyond.load(input)?;
        self.refresh_hits.load(input)?;
        self.activations.load(input)?;
        load_map(input, &mut self.last_pre)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(row: u32) -> RowKey {
        RowKey::new(0, 0, 0, row)
    }

    #[test]
    fn first_activation_counts_as_beyond() {
        let mut t = RltlTracker::paper(800_000);
        t.on_activate(0, key(1), u64::MAX);
        let r = t.report();
        assert_eq!(r.activations, 1);
        assert_eq!(r.rltl_fraction.last().copied().unwrap(), 0.0);
    }

    #[test]
    fn reactivation_within_interval_is_counted() {
        let cpm = 800_000;
        let mut t = RltlTracker::paper(cpm);
        t.on_activate(0, key(1), u64::MAX);
        t.on_precharge(1_000, key(1));
        // 0.1 ms later: inside the 0.125 ms bucket.
        t.on_activate(1_000 + cpm / 10, key(1), u64::MAX);
        assert_eq!(t.fraction_within(0), 0.5);
        // Cumulative buckets are non-decreasing.
        let r = t.report();
        for w in r.rltl_fraction.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn far_reactivation_lands_in_later_bucket() {
        let cpm = 800_000;
        let mut t = RltlTracker::paper(cpm);
        t.on_precharge(0, key(1));
        // 4 ms later: beyond 1 ms, inside 8 ms.
        t.on_activate(4 * cpm, key(1), u64::MAX);
        assert_eq!(t.fraction_within(3), 0.0); // ≤ 1 ms
        assert_eq!(t.fraction_within(4), 1.0); // ≤ 8 ms
    }

    #[test]
    fn refresh_window_fraction() {
        let cpm = 800_000;
        let mut t = RltlTracker::paper(cpm);
        t.on_activate(0, key(1), 7 * cpm); // within 8 ms of refresh
        t.on_activate(1, key(2), 20 * cpm); // beyond
        assert!((t.report().refresh_8ms_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn absorb_combines_counts() {
        let cpm = 800_000;
        let mut a = RltlTracker::paper(cpm);
        let mut b = RltlTracker::paper(cpm);
        a.on_precharge(0, key(1));
        a.on_activate(10, key(1), u64::MAX);
        b.on_precharge(0, key(2));
        b.on_activate(10, key(2), u64::MAX);
        a.absorb(&b);
        assert_eq!(a.activations(), 2);
        assert_eq!(a.fraction_within(0), 1.0);
    }
}
