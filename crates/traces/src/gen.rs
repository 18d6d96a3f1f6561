//! Synthetic access-pattern generators.
//!
//! Each generator implements [`cpu::TraceSource`] and is fully determined
//! by its parameters and seed, so every experiment is reproducible. The
//! patterns cover the behaviours that matter for the paper's effects:
//!
//! * [`StreamGen`] — one or more sequential streams. Multiple streams
//!   collide in banks, so rows are closed and re-opened quickly: high
//!   memory intensity *and* high RLTL (the `STREAMcopy` shape).
//! * [`RandomGen`] — uniform random lines over a working set. A working
//!   set far beyond the LLC yields heavy DRAM traffic with long row-reuse
//!   distances: the `mcf`/`omnetpp` shape where ChargeCache trails
//!   LL-DRAM. A small working set caches completely (`hmmer`).
//! * [`ZipfGen`] — Zipf-distributed row popularity: a hot set of rows is
//!   re-activated again and again (database/server shape, high RLTL).
//! * [`MixGen`] — probabilistic mixture of sub-patterns.

use cpu::{MemOp, TraceEntry, TraceSource};

use crate::rng::TraceRng;

/// Cache-line size assumed by all generators.
pub const LINE: u64 = 64;

/// Common knobs shared by every generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenParams {
    /// Mean number of non-memory instructions between memory operations
    /// (memory intensity knob; lower = more intense).
    pub mean_nonmem: u32,
    /// Fraction of memory operations that are stores.
    pub store_ratio: f64,
    /// Base byte address of this workload's region (cores get disjoint
    /// regions, as the paper notes for multiprogrammed runs).
    pub region_base: u64,
    /// RNG seed.
    pub seed: u64,
}

impl GenParams {
    /// Reasonable defaults: moderately intense, 25% stores, region 0.
    pub fn new(seed: u64) -> Self {
        Self {
            mean_nonmem: 10,
            store_ratio: 0.25,
            region_base: 0,
            seed,
        }
    }
}

fn sample_nonmem(rng: &mut TraceRng, mean: u32) -> u32 {
    if mean == 0 {
        return 0;
    }
    // Uniform over [0, 2·mean]: right mean, cheap, deterministic.
    rng.range_inclusive(0, u64::from(2 * mean)) as u32
}

fn op_for(rng: &mut TraceRng, store_ratio: f64, addr: u64) -> MemOp {
    if rng.bool_with(store_ratio) {
        MemOp::Store(addr)
    } else {
        MemOp::Load(addr)
    }
}

/// Sequential streams (round-robin).
#[derive(Debug, Clone)]
pub struct StreamGen {
    params: GenParams,
    rng: TraceRng,
    /// Current byte offset of each stream.
    cursors: Vec<u64>,
    /// Byte span of each stream before it wraps.
    span: u64,
    /// Separation between stream base addresses.
    separation: u64,
    next_stream: usize,
}

impl StreamGen {
    /// Creates `streams` parallel streams, each walking `span` bytes before
    /// wrapping, with bases `separation` bytes apart.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is zero or `span` is smaller than a line.
    pub fn new(params: GenParams, streams: usize, span: u64, separation: u64) -> Self {
        assert!(streams > 0, "need at least one stream");
        assert!(span >= LINE, "span must cover at least one line");
        Self {
            rng: TraceRng::seed_from_u64(params.seed),
            cursors: vec![0; streams],
            span,
            separation,
            next_stream: 0,
            params,
        }
    }
}

impl TraceSource for StreamGen {
    fn next_entry(&mut self) -> Option<TraceEntry> {
        let s = self.next_stream;
        self.next_stream += 1;
        if self.next_stream == self.cursors.len() {
            self.next_stream = 0;
        }
        let cursor = &mut self.cursors[s];
        let addr = self.params.region_base + s as u64 * self.separation + *cursor;
        // `cursor < span` and `LINE <= span`: one subtraction wraps it.
        *cursor += LINE;
        if *cursor >= self.span {
            *cursor -= self.span;
        }
        let nonmem = sample_nonmem(&mut self.rng, self.params.mean_nonmem);
        let op = op_for(&mut self.rng, self.params.store_ratio, addr);
        Some(TraceEntry {
            nonmem,
            op: Some(op),
        })
    }
}

/// Uniform random lines over a working set.
#[derive(Debug, Clone)]
pub struct RandomGen {
    params: GenParams,
    rng: TraceRng,
    lines: u64,
}

impl RandomGen {
    /// Creates a generator over a working set of `wss_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if the working set is smaller than one line.
    pub fn new(params: GenParams, wss_bytes: u64) -> Self {
        assert!(
            wss_bytes >= LINE,
            "working set must cover at least one line"
        );
        Self {
            rng: TraceRng::seed_from_u64(params.seed),
            lines: wss_bytes / LINE,
            params,
        }
    }
}

impl TraceSource for RandomGen {
    fn next_entry(&mut self) -> Option<TraceEntry> {
        let line = self.rng.below(self.lines);
        let addr = self.params.region_base + line * LINE;
        let nonmem = sample_nonmem(&mut self.rng, self.params.mean_nonmem);
        let op = op_for(&mut self.rng, self.params.store_ratio, addr);
        Some(TraceEntry {
            nonmem,
            op: Some(op),
        })
    }
}

/// Zipf-distributed row popularity with random columns.
#[derive(Debug, Clone)]
pub struct ZipfGen {
    params: GenParams,
    rng: TraceRng,
    /// Cumulative probability per row (normalized).
    cdf: Vec<f64>,
    /// Bytes per row region (consecutive rows are this far apart).
    row_bytes: u64,
    /// Lines per row.
    lines_per_row: u64,
}

impl ZipfGen {
    /// Creates a generator over `rows` rows with Zipf exponent `s`
    /// (s ≈ 0.8–1.2 gives realistic skew). Each "row" here is an 8 KB
    /// DRAM-row-sized region; columns within it are uniform.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero or `s` is not positive and finite.
    pub fn new(params: GenParams, rows: usize, s: f64) -> Self {
        assert!(rows > 0, "need at least one row");
        assert!(s.is_finite() && s > 0.0, "zipf exponent must be positive");
        let mut cdf = Vec::with_capacity(rows);
        let mut acc = 0.0;
        for k in 1..=rows {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        let row_bytes = 8192;
        Self {
            rng: TraceRng::seed_from_u64(params.seed),
            cdf,
            row_bytes,
            lines_per_row: row_bytes / LINE,
            params,
        }
    }

    fn sample_row(&mut self) -> usize {
        let u: f64 = self.rng.f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

impl TraceSource for ZipfGen {
    fn next_entry(&mut self) -> Option<TraceEntry> {
        let row = self.sample_row() as u64;
        let col = self.rng.below(self.lines_per_row);
        let addr = self.params.region_base + row * self.row_bytes + col * LINE;
        let nonmem = sample_nonmem(&mut self.rng, self.params.mean_nonmem);
        let op = op_for(&mut self.rng, self.params.store_ratio, addr);
        Some(TraceEntry {
            nonmem,
            op: Some(op),
        })
    }
}

/// Probabilistic mixture of sub-generators.
pub struct MixGen {
    rng: TraceRng,
    /// `(cumulative_weight, generator)`; weights normalized to 1.
    parts: Vec<(f64, Box<dyn TraceSource>)>,
}

impl MixGen {
    /// Creates a mixture; each entry is `(weight, generator)`.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or total weight is not positive.
    pub fn new(seed: u64, parts: Vec<(f64, Box<dyn TraceSource>)>) -> Self {
        assert!(!parts.is_empty(), "mixture needs at least one part");
        let total: f64 = parts.iter().map(|(w, _)| w).sum();
        assert!(total > 0.0, "total weight must be positive");
        let mut acc = 0.0;
        let parts = parts
            .into_iter()
            .map(|(w, g)| {
                acc += w / total;
                (acc, g)
            })
            .collect();
        Self {
            rng: TraceRng::seed_from_u64(seed ^ 0x6d69_7847_656e),
            parts,
        }
    }
}

impl TraceSource for MixGen {
    fn next_entry(&mut self) -> Option<TraceEntry> {
        let u: f64 = self.rng.f64();
        let idx = self
            .parts
            .iter()
            .position(|(c, _)| u <= *c)
            .unwrap_or(self.parts.len() - 1);
        self.parts[idx].1.next_entry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(g: &mut dyn TraceSource, n: usize) -> Vec<TraceEntry> {
        (0..n).map(|_| g.next_entry().unwrap()).collect()
    }

    #[test]
    fn generators_are_deterministic() {
        let p = GenParams::new(42);
        let a = collect(&mut RandomGen::new(p, 1 << 20), 100);
        let b = collect(&mut RandomGen::new(p, 1 << 20), 100);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = collect(&mut RandomGen::new(GenParams::new(1), 1 << 20), 50);
        let b = collect(&mut RandomGen::new(GenParams::new(2), 1 << 20), 50);
        assert_ne!(a, b);
    }

    #[test]
    fn stream_walks_sequentially_per_stream() {
        let mut p = GenParams::new(7);
        p.store_ratio = 0.0;
        let mut g = StreamGen::new(p, 2, 1 << 20, 1 << 30);
        let es = collect(&mut g, 6);
        let addr = |e: &TraceEntry| e.op.unwrap().addr();
        // Streams alternate; each advances by one line per visit.
        assert_eq!(addr(&es[2]) - addr(&es[0]), LINE);
        assert_eq!(addr(&es[3]) - addr(&es[1]), LINE);
        // Streams are far apart.
        assert!(addr(&es[1]) >= 1 << 30);
    }

    #[test]
    fn stream_cursors_wrap_like_a_modulo() {
        // Spans that are not a multiple of the line size wrap mid-line.
        for (streams, span) in [(1, LINE), (3, 100), (2, 1000), (5, 4096)] {
            let mut p = GenParams::new(1);
            p.store_ratio = 0.0;
            let mut g = StreamGen::new(p, streams, span, 1 << 20);
            let mut cursors = vec![0; streams];
            for i in 0..500 {
                let s = i % streams;
                let addr = g.next_entry().unwrap().op.unwrap().addr();
                assert_eq!(addr, s as u64 * (1 << 20) + cursors[s]);
                cursors[s] = (cursors[s] + LINE) % span;
            }
        }
    }

    #[test]
    fn random_stays_within_working_set() {
        let mut p = GenParams::new(3);
        p.region_base = 1 << 32;
        let wss = 1 << 16;
        let mut g = RandomGen::new(p, wss);
        for e in collect(&mut g, 1000) {
            let a = e.op.unwrap().addr();
            assert!(a >= 1 << 32);
            assert!(a < (1u64 << 32) + wss);
        }
    }

    #[test]
    fn zipf_skews_toward_hot_rows() {
        let p = GenParams::new(11);
        let mut g = ZipfGen::new(p, 1024, 1.0);
        let mut hot = 0;
        let n = 20_000;
        for _ in 0..n {
            let e = g.next_entry().unwrap();
            let row = e.op.unwrap().addr() / 8192;
            if row < 16 {
                hot += 1;
            }
        }
        // Top 16 of 1024 rows must attract far more than their uniform
        // share (16/1024 ≈ 1.6%); Zipf(1.0) gives ≈ 45%.
        assert!(
            hot as f64 / n as f64 > 0.25,
            "hot fraction {}",
            hot as f64 / n as f64
        );
    }

    #[test]
    fn store_ratio_is_respected() {
        let mut p = GenParams::new(5);
        p.store_ratio = 0.5;
        let mut g = RandomGen::new(p, 1 << 20);
        let stores = collect(&mut g, 10_000)
            .iter()
            .filter(|e| matches!(e.op, Some(MemOp::Store(_))))
            .count();
        assert!((4_000..6_000).contains(&stores), "stores = {stores}");
    }

    #[test]
    fn nonmem_mean_is_respected() {
        let mut p = GenParams::new(5);
        p.mean_nonmem = 20;
        let mut g = RandomGen::new(p, 1 << 20);
        let total: u64 = collect(&mut g, 10_000)
            .iter()
            .map(|e| u64::from(e.nonmem))
            .sum();
        let mean = total as f64 / 10_000.0;
        assert!((18.0..22.0).contains(&mean), "mean = {mean}");
    }

    #[test]
    fn mix_draws_from_all_parts() {
        let p = GenParams::new(9);
        let g1 = RandomGen::new(
            GenParams {
                region_base: 0,
                ..p
            },
            1 << 16,
        );
        let g2 = RandomGen::new(
            GenParams {
                region_base: 1 << 40,
                ..p
            },
            1 << 16,
        );
        let mut m = MixGen::new(13, vec![(0.5, Box::new(g1)), (0.5, Box::new(g2))]);
        let es = collect(&mut m, 1000);
        let low = es.iter().filter(|e| e.op.unwrap().addr() < 1 << 40).count();
        assert!((300..700).contains(&low), "low = {low}");
    }
}
