//! Controller statistics.

use fasthash::codec::State;
use fasthash::impl_state;

/// Aggregate statistics across one controller (or the whole system).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtrlStats {
    /// Reads accepted into the queues.
    pub reads: u64,
    /// Writes accepted into the queues.
    pub writes: u64,
    /// Reads serviced by forwarding from the write queue.
    pub forwarded_reads: u64,
    /// Column accesses that found the target row open.
    pub row_hits: u64,
    /// Activations into a precharged bank.
    pub row_misses: u64,
    /// Activations that first required closing another row.
    pub row_conflicts: u64,
    /// REF commands issued.
    pub refreshes: u64,
    /// Sum of read latencies in bus cycles (enqueue → data).
    pub read_latency_sum: u64,
    /// Number of completed reads (for the average).
    pub read_latency_count: u64,
    /// Read-latency histogram: bucket `i` counts completions with latency
    /// ≤ 2^i bus cycles (last bucket catches everything beyond).
    pub read_latency_hist: [u64; 16],
    /// Scheduler passes run (cycles where the issue gate was open).
    /// Deterministic and engine-independent, but *not* part of the
    /// paper-facing metric surface — it measures scheduler work.
    pub sched_passes: u64,
    /// Per-bank evaluations performed across all scheduler passes. With
    /// the bank-indexed scheduler, `sched_bank_visits / sched_passes`
    /// stays flat as queues deepen (the flat-scan design grew linearly
    /// with queue occupancy).
    pub sched_bank_visits: u64,
    /// Index-release anomalies: removals of a request seq the bank index
    /// never held, or write-line releases with no forwarding entry. Debug
    /// builds assert on these paths; release builds degrade to a no-op
    /// and bump this counter so index corruption is *observable* instead
    /// of silently skewing a sweep. Always zero in a healthy run.
    /// Excluded from the golden fingerprint surface (like the scheduler
    /// work counters above).
    pub index_release_misses: u64,
}

impl CtrlStats {
    /// Total activations (row misses + row conflicts).
    pub fn activations(&self) -> u64 {
        self.row_misses + self.row_conflicts
    }

    /// Row-buffer hit rate over column accesses.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.activations();
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Records one read completion latency into the histogram.
    pub fn record_read_latency(&mut self, latency: u64) {
        self.read_latency_sum += latency;
        self.read_latency_count += 1;
        let bucket = (64 - latency.max(1).leading_zeros() as u64) as usize;
        let bucket = bucket.min(self.read_latency_hist.len() - 1);
        self.read_latency_hist[bucket] += 1;
    }

    /// Smallest histogram bucket bound (2^i bus cycles) covering at least
    /// `q` of completed reads (`q` in `[0, 1]`). `None` with no reads.
    pub fn read_latency_quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.read_latency_count == 0 {
            return None;
        }
        let target = (q * self.read_latency_count as f64).ceil() as u64;
        let mut acc = 0;
        for (i, &c) in self.read_latency_hist.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some(1u64 << i);
            }
        }
        Some(1u64 << (self.read_latency_hist.len() - 1))
    }

    /// Mean read latency in bus cycles.
    pub fn avg_read_latency(&self) -> f64 {
        if self.read_latency_count == 0 {
            0.0
        } else {
            self.read_latency_sum as f64 / self.read_latency_count as f64
        }
    }

    /// Serializes every counter (checkpoint support) through its
    /// [`State`] impl.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        self.put(out);
    }

    /// Element-wise accumulation.
    pub fn absorb(&mut self, o: &CtrlStats) {
        self.zip_with(o, |a, b| *a += b);
    }

    /// Subtracts `o`'s counters from these (the measured window of a run
    /// is its end state minus its warmup snapshot).
    pub fn subtract(&mut self, o: &CtrlStats) {
        self.zip_with(o, |a, b| *a -= b);
    }

    /// Applies `f` to every counter paired with the same counter of `o`.
    /// The one field list of [`CtrlStats::absorb`] and
    /// [`CtrlStats::subtract`]: it is destructured, so a new field fails
    /// to compile until it is listed here.
    fn zip_with(&mut self, o: &CtrlStats, f: impl Fn(&mut u64, u64)) {
        let CtrlStats {
            reads,
            writes,
            forwarded_reads,
            row_hits,
            row_misses,
            row_conflicts,
            refreshes,
            read_latency_sum,
            read_latency_count,
            read_latency_hist,
            sched_passes,
            sched_bank_visits,
            index_release_misses,
        } = self;
        for (a, b) in [
            (reads, o.reads),
            (writes, o.writes),
            (forwarded_reads, o.forwarded_reads),
            (row_hits, o.row_hits),
            (row_misses, o.row_misses),
            (row_conflicts, o.row_conflicts),
            (refreshes, o.refreshes),
            (read_latency_sum, o.read_latency_sum),
            (read_latency_count, o.read_latency_count),
            (sched_passes, o.sched_passes),
            (sched_bank_visits, o.sched_bank_visits),
            (index_release_misses, o.index_release_misses),
        ] {
            f(a, b);
        }
        for (a, b) in read_latency_hist.iter_mut().zip(&o.read_latency_hist) {
            f(a, *b);
        }
    }

    /// Mean bank evaluations per scheduler pass — the per-pass scan cost
    /// the bank index keeps flat in queue depth.
    pub fn bank_visits_per_pass(&self) -> f64 {
        if self.sched_passes == 0 {
            0.0
        } else {
            self.sched_bank_visits as f64 / self.sched_passes as f64
        }
    }
}

impl_state!(CtrlStats {
    reads,
    writes,
    forwarded_reads,
    row_hits,
    row_misses,
    row_conflicts,
    refreshes,
    read_latency_sum,
    read_latency_count,
    read_latency_hist,
    sched_passes,
    sched_bank_visits,
    index_release_misses
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = CtrlStats {
            row_hits: 6,
            row_misses: 2,
            row_conflicts: 2,
            read_latency_sum: 100,
            read_latency_count: 4,
            ..Default::default()
        };
        assert_eq!(s.activations(), 4);
        assert!((s.row_hit_rate() - 0.6).abs() < 1e-12);
        assert!((s.avg_read_latency() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn absorb_sums_fields() {
        let mut a = CtrlStats {
            reads: 1,
            row_hits: 2,
            ..Default::default()
        };
        let b = CtrlStats {
            reads: 3,
            row_hits: 4,
            refreshes: 1,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.reads, 4);
        assert_eq!(a.row_hits, 6);
        assert_eq!(a.refreshes, 1);
    }

    #[test]
    fn absorb_then_subtract_round_trips() {
        // Exhaustive on purpose (no `..Default`): a new field fails to
        // compile here until it gets a non-zero value the round trip
        // covers.
        let base = CtrlStats {
            reads: 1,
            writes: 2,
            forwarded_reads: 3,
            row_hits: 4,
            row_misses: 5,
            row_conflicts: 6,
            refreshes: 7,
            read_latency_sum: 8,
            read_latency_count: 9,
            read_latency_hist: std::array::from_fn(|i| 10 + i as u64),
            sched_passes: 26,
            sched_bank_visits: 27,
            index_release_misses: 28,
        };
        let mut sum = base;
        sum.absorb(&base);
        assert_eq!(sum.reads, 2);
        assert_eq!(sum.read_latency_hist[15], 50);
        assert_eq!(sum.index_release_misses, 56);
        sum.subtract(&base);
        assert_eq!(sum, base);
        sum.subtract(&base);
        assert_eq!(sum, CtrlStats::default());
    }

    #[test]
    fn latency_histogram_and_quantiles() {
        let mut s = CtrlStats::default();
        for lat in [10, 20, 40, 80, 500] {
            s.record_read_latency(lat);
        }
        assert_eq!(s.read_latency_count, 5);
        // Median within 2^6 = 64 (latencies 10, 20, 40 ≤ 64).
        assert_eq!(s.read_latency_quantile(0.5), Some(64));
        // Tail reaches the 500-cycle completion (bucket 2^9 = 512).
        assert_eq!(s.read_latency_quantile(1.0), Some(512));
        assert_eq!(CtrlStats::default().read_latency_quantile(0.5), None);
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = CtrlStats::default();
        assert_eq!(s.row_hit_rate(), 0.0);
        assert_eq!(s.avg_read_latency(), 0.0);
    }
}
