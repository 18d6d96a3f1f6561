//! Per-rank auto-refresh bookkeeping.
//!
//! DDR3 refresh is a rotating schedule: every `tREFI` the controller
//! issues one `REF`, and each `REF` replenishes the next *refresh bin* —
//! a group of consecutive rows in every bank of the rank (8 rows per bank
//! for the paper's 64K-row banks with 8192 bins per 64 ms window).
//!
//! This module tracks when each bin was last refreshed, which serves two
//! purposes:
//!
//! * the NUAT comparison mechanism reduces timings for rows refreshed
//!   recently, so it needs `last refresh time of row`;
//! * the motivation experiment (paper Figure 3) measures what fraction of
//!   activations land within 8 ms of the row's last refresh.
//!
//! The bin visit order is a fixed seeded permutation rather than
//! ascending bin index. Hardware row order is an internal device detail
//! anyway, and the permutation makes short simulations statistically
//! representative: with ascending order, a workload touching low rows
//! would see all its rows refreshed in the first few milliseconds of
//! simulated time, grossly inflating the "recently refreshed" fraction
//! that Figure 3 and NUAT depend on.

use fasthash::codec::{put_usize, take_i64, take_len, CodecResult, State};

use crate::command::RowId;
use crate::BusCycle;

/// Rotating refresh schedule state for one rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefreshState {
    /// Number of bins in the rotation (REFs per retention window).
    bins: u32,
    /// Rows per bin (per bank).
    rows_per_ref: u32,
    /// Position in the visit order of the next REF.
    next_pos: u32,
    /// Visit order: position → bin.
    order: Vec<u32>,
    /// Last refresh time of each bin (indexed by bin). Times before the
    /// simulation start are negative offsets: the schedule was already
    /// rotating when the simulation began.
    last_refresh: Vec<i64>,
    /// Cycle at which the next REF becomes due.
    due_at: BusCycle,
    /// Average refresh interval in cycles.
    trefi: BusCycle,
    /// Total REF commands issued.
    issued: u64,
}

impl RefreshState {
    /// Creates the schedule with the default seeded permutation.
    ///
    /// At time zero the rotation is assumed to have been running forever:
    /// the bin at visit position `i` was last refreshed
    /// `(bins − i) × tREFI` ago, so the position-0 bin is due first and
    /// bin ages are uniform in `[tREFI, retention]` — the steady state.
    ///
    /// # Panics
    ///
    /// Panics if `bins` or `rows_per_ref` is zero.
    pub fn new(bins: u32, rows_per_ref: u32, trefi: BusCycle) -> Self {
        Self::with_order(bins, rows_per_ref, trefi, true)
    }

    /// Creates the schedule, optionally with the identity visit order
    /// (useful for tests that reason about specific bins).
    ///
    /// # Panics
    ///
    /// Panics if `bins` or `rows_per_ref` is zero.
    pub fn with_order(bins: u32, rows_per_ref: u32, trefi: BusCycle, permute: bool) -> Self {
        assert!(bins > 0, "need at least one refresh bin");
        assert!(rows_per_ref > 0, "need at least one row per REF");
        let mut order: Vec<u32> = (0..bins).collect();
        if permute {
            // Deterministic Fisher–Yates with a fixed xorshift stream, so
            // every run of every experiment sees the same schedule.
            let mut state = 0x5EED_CAFE_F00Du64 | 1;
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for i in (1..bins as usize).rev() {
                let j = (next() % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
        }
        let mut last_refresh = vec![0i64; bins as usize];
        for (pos, &bin) in order.iter().enumerate() {
            last_refresh[bin as usize] = initial_refresh(bins, pos, trefi);
        }
        Self {
            bins,
            rows_per_ref,
            next_pos: 0,
            order,
            last_refresh,
            due_at: trefi,
            trefi,
            issued: 0,
        }
    }

    /// Shifts the first due time to `due` (builder style), keeping the
    /// `tREFI` period. Per-bank refresh staggers each bank's schedule
    /// across the `tREFI` window so the aggregate `REFpb` rate is
    /// `banks / tREFI` — the LPDDR4 `tREFIpb` cadence — instead of all
    /// banks falling due on the same cycle.
    #[must_use]
    pub fn with_first_due(mut self, due: BusCycle) -> Self {
        self.due_at = due;
        self
    }

    /// Number of refresh bins.
    pub fn bins(&self) -> u32 {
        self.bins
    }

    /// Cycle at which the next REF becomes due.
    pub fn due_at(&self) -> BusCycle {
        self.due_at
    }

    /// Total REF commands issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Bins refreshed since construction: the first this many positions
    /// of the visit order.
    fn touched_bins(&self) -> usize {
        self.issued.min(u64::from(self.bins)) as usize
    }

    /// The bin covering `row`.
    pub fn bin_of(&self, row: RowId) -> u32 {
        (row / self.rows_per_ref).min(self.bins - 1)
    }

    /// The row range (first row, count; per bank) the *next* REF will
    /// replenish. The controller reads this alongside
    /// [`Self::apply_ref`] to inform charge-aware mechanisms which rows
    /// a refresh just restored.
    pub fn next_bin_rows(&self) -> (RowId, u32) {
        let bin = self.order[self.next_pos as usize];
        (bin * self.rows_per_ref, self.rows_per_ref)
    }

    /// Applies one REF command at `now`: refreshes the next bin in the
    /// visit order and schedules the following REF one `tREFI` later.
    pub fn apply_ref(&mut self, now: BusCycle) {
        let bin = self.order[self.next_pos as usize];
        self.last_refresh[bin as usize] = now as i64;
        self.next_pos = (self.next_pos + 1) % self.bins;
        // Due times accumulate from the schedule, not from the issue time,
        // so a late REF does not stretch the average interval.
        self.due_at += self.trefi;
        self.issued += 1;
    }

    /// Age of `row`'s last refresh at time `now`, in cycles.
    ///
    /// Saturates at zero if the bin was refreshed "after" `now` (cannot
    /// happen in forward simulation, but keeps the API total).
    pub fn refresh_age(&self, row: RowId, now: BusCycle) -> BusCycle {
        let last = self.last_refresh[self.bin_of(row) as usize];
        (now as i64 - last).max(0) as BusCycle
    }
}

/// Last refresh time, at construction, of the bin at visit position
/// `pos`: `(bins − pos) × tREFI` before time zero.
fn initial_refresh(bins: u32, pos: usize, trefi: BusCycle) -> i64 {
    -(i64::from(bins - pos as u32) * trefi as i64)
}

/// The schedule's mutable state (checkpoint support). The visit order is
/// reconstructed from the fixed seed, not serialized.
///
/// Only [`RefreshState::apply_ref`] writes a bin's time, visiting the
/// order from position 0 and never resetting `issued`, so the bins that
/// differ from their constructor age are exactly the first
/// `min(issued, bins)` positions of the visit order. Only those times are
/// written, in visit order; every other bin decodes to its constructor
/// age, exactly what it was.
impl State for RefreshState {
    fn put(&self, out: &mut Vec<u8>) {
        self.next_pos.put(out);
        self.due_at.put(out);
        self.issued.put(out);
        let touched = self.touched_bins();
        put_usize(out, touched);
        for &bin in &self.order[..touched] {
            self.last_refresh[bin as usize].put(out);
        }
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        self.next_pos.load(input)?;
        self.due_at.load(input)?;
        self.issued.load(input)?;
        if u64::from(self.next_pos) != self.issued % u64::from(self.bins) {
            return Err(format!(
                "refresh position {} disagrees with {} REFs over {} bins",
                self.next_pos, self.issued, self.bins
            ));
        }
        let touched = take_len(input, i64::MIN_BYTES, "refreshed bins")?;
        if touched != self.touched_bins() {
            return Err(format!(
                "refresh bin mismatch: checkpoint has {touched} refreshed bins, {} REFs over {} bins",
                self.issued, self.bins
            ));
        }
        for (pos, &bin) in self.order.iter().enumerate() {
            self.last_refresh[bin as usize] = if pos < touched {
                take_i64(input, "refresh time")?
            } else {
                initial_refresh(self.bins, pos, self.trefi)
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity() -> RefreshState {
        RefreshState::with_order(8192, 8, 6250, false)
    }

    #[test]
    fn initial_ages_are_uniformly_staggered() {
        let r = identity();
        // With the identity order, bin 0 is the stalest (a full window
        // ago) and the last bin the freshest (one tREFI ago).
        assert_eq!(r.refresh_age(0, 0), 8192 * 6250);
        assert_eq!(r.refresh_age((8191 * 8) as RowId, 0), 6250);
    }

    #[test]
    fn permuted_ages_cover_the_full_window() {
        let r = RefreshState::new(8192, 8, 6250);
        let ages: Vec<u64> = (0..8192u32).map(|b| r.refresh_age(b * 8, 0)).collect();
        let min = *ages.iter().min().unwrap();
        let max = *ages.iter().max().unwrap();
        assert_eq!(min, 6250);
        assert_eq!(max, 8192 * 6250);
        // Low bins are no longer systematically stale: the first 1% of
        // bins must span a wide age range.
        let head = &ages[..82];
        let spread = head.iter().max().unwrap() - head.iter().min().unwrap();
        assert!(spread > 8192 * 6250 / 4, "spread = {spread}");
    }

    #[test]
    fn permutation_is_deterministic() {
        let a = RefreshState::new(1024, 8, 6250);
        let b = RefreshState::new(1024, 8, 6250);
        assert_eq!(a, b);
    }

    #[test]
    fn apply_ref_refreshes_stalest_bin_first() {
        let mut r = RefreshState::new(64, 4, 100);
        // The first REF must hit the bin with the maximum age.
        let stalest = (0..64u32).max_by_key(|&b| r.refresh_age(b * 4, 0)).unwrap();
        r.apply_ref(100);
        assert_eq!(r.refresh_age(stalest * 4, 100), 0);
    }

    #[test]
    fn apply_ref_rotates_and_resets_age() {
        let mut r = identity();
        r.apply_ref(6250);
        assert_eq!(r.refresh_age(0, 6250), 0);
        assert_eq!(r.refresh_age(0, 6350), 100);
        // The next visit is bin 1 (rows 8..15) under the identity order.
        r.apply_ref(12_500);
        assert_eq!(r.refresh_age(8, 12_500), 0);
    }

    #[test]
    fn due_time_advances_by_trefi() {
        let mut r = identity();
        assert_eq!(r.due_at(), 6250);
        r.apply_ref(6250);
        assert_eq!(r.due_at(), 12_500);
        // Late refresh does not drift the schedule.
        r.apply_ref(20_000);
        assert_eq!(r.due_at(), 18_750);
    }

    #[test]
    fn full_rotation_refreshes_every_row() {
        let mut r = RefreshState::new(16, 4, 100);
        for i in 0..16u64 {
            r.apply_ref((i + 1) * 100);
        }
        for row in 0..64 {
            assert!(r.refresh_age(row, 1600) <= 1600, "row {row}");
        }
        assert_eq!(r.issued(), 16);
    }

    #[test]
    fn next_bin_rows_tracks_the_visit_order() {
        let mut r = identity();
        assert_eq!(r.next_bin_rows(), (0, 8));
        r.apply_ref(6250);
        assert_eq!(r.next_bin_rows(), (8, 8));
        // The refreshed range covers exactly the rows whose age resets.
        r.apply_ref(12_500);
        assert_eq!(r.refresh_age(8, 12_500), 0);
        assert_eq!(r.refresh_age(15, 12_500), 0);
        assert_ne!(r.refresh_age(16, 12_500), 0);
    }

    #[test]
    fn first_due_can_be_staggered() {
        let mut r = RefreshState::with_order(16, 4, 100, false).with_first_due(25);
        assert_eq!(r.due_at(), 25);
        r.apply_ref(25);
        // The period stays tREFI; only the phase shifted.
        assert_eq!(r.due_at(), 125);
    }

    /// An 8-bin schedule (identity or default permutation) after `refs`
    /// REFs, each issued a little later than due.
    fn after_refs(permute: bool, refs: u64) -> RefreshState {
        let mut r = RefreshState::with_order(8, 4, 100, permute);
        for i in 0..refs {
            r.apply_ref((i + 1) * 100 + 3 * i);
        }
        r
    }

    fn encode(r: &RefreshState) -> Vec<u8> {
        let mut out = Vec::new();
        r.put(&mut out);
        out
    }

    #[test]
    fn state_round_trips_across_a_wrap() {
        for permute in [false, true] {
            for refs in [0, 3, 8, 11] {
                let src = after_refs(permute, refs);
                let bytes = encode(&src);
                // Position, due time, REF count, bin count, bin times.
                assert_eq!(bytes.len(), 4 + 8 + 8 + 8 + 8 * refs.min(8) as usize);
                let mut dst = after_refs(permute, (refs + 5) % 13);
                let mut cur = bytes.as_slice();
                dst.load(&mut cur).unwrap();
                assert!(cur.is_empty());
                assert_eq!(dst, src, "permute={permute} after {refs} REFs");
                for row in 0..32 {
                    assert_eq!(dst.refresh_age(row, 5_000), src.refresh_age(row, 5_000));
                }
            }
        }
    }

    #[test]
    fn state_decode_checks_position_and_bin_count() {
        let bytes = encode(&after_refs(true, 3));
        let load = |bytes: &[u8]| after_refs(true, 0).load(&mut &bytes[..]);
        load(&bytes).unwrap();
        // `next_pos` (bytes 0..4) must be `issued % bins`.
        let mut bad = bytes.clone();
        bad[0] = 4;
        assert!(load(&bad).unwrap_err().contains("position"));
        // The refreshed-bin count (bytes 20..28) must be `min(issued, bins)`.
        for count in [2, 4] {
            let mut bad = bytes.clone();
            bad[20] = count;
            assert!(load(&bad).unwrap_err().contains("refreshed bins"));
        }
    }

    #[test]
    fn rows_beyond_last_bin_clamp() {
        let r = RefreshState::new(16, 4, 100);
        assert_eq!(r.bin_of(1_000_000), 15);
    }
}
