//! Named workload profiles standing in for the paper's trace suite.
//!
//! The paper evaluates 22 workloads from SPEC CPU2006, TPC and STREAM,
//! replayed from Pin traces that are not redistributable.
//! Each profile below is a deterministic synthetic generator whose knobs
//! are set from the paper's own qualitative statements and the public
//! characterization of each benchmark:
//!
//! * **working-set size** versus the 4 MB LLC controls DRAM traffic
//!   (e.g. *hmmer* "effectively uses the on-chip cache hierarchy" → 1 MB);
//! * **memory intensity** (instructions between memory ops) controls
//!   RMPKC (the x-axis ordering of the paper's Figure 7a);
//! * **pattern** controls RLTL: multi-stream and Zipf-hot-row workloads
//!   re-activate recently closed rows; huge uniform-random workloads have
//!   long row-reuse distances (the *mcf*/*omnetpp* gap to LL-DRAM).

use cpu::TraceSource;

use crate::gen::{GenParams, MixGen, RandomGen, StreamGen, ZipfGen};

/// Address-pattern family of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// `streams` sequential streams over `span` bytes each.
    Stream {
        /// Number of parallel streams.
        streams: usize,
    },
    /// Uniform random lines over the working set.
    Random,
    /// Zipf row popularity over `rows` 8 KB rows with exponent `s`.
    Zipf {
        /// Number of distinct rows.
        rows: usize,
        /// Zipf exponent.
        s: f64,
    },
    /// Half streaming, half Zipf (pointer-rich applications).
    StreamZipf {
        /// Number of parallel streams in the streaming half.
        streams: usize,
        /// Rows in the Zipf half.
        rows: usize,
    },
}

/// A complete, reproducible workload description.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Benchmark name as used in the paper's figures.
    pub name: &'static str,
    /// Address pattern.
    pub pattern: Pattern,
    /// Working-set size in bytes.
    pub wss: u64,
    /// Mean non-memory instructions between memory operations.
    pub mean_nonmem: u32,
    /// Store fraction of memory operations.
    pub store_ratio: f64,
}

impl WorkloadSpec {
    /// Builds the trace source for this workload, offset into its own
    /// memory region (`region_base`) and randomized by `seed`.
    pub fn build(&self, seed: u64, region_base: u64) -> Box<dyn TraceSource> {
        let params = GenParams {
            mean_nonmem: self.mean_nonmem,
            store_ratio: self.store_ratio,
            region_base,
            seed,
        };
        match self.pattern {
            Pattern::Stream { streams } => {
                // Streams are separated by a multiple of the 64 KB row
                // stride plus nothing: same bank, different rows — this is
                // what makes multi-stream workloads row-conflict heavy.
                let span = self.wss / streams as u64;
                Box::new(StreamGen::new(params, streams, span, 1 << 20))
            }
            Pattern::Random => Box::new(RandomGen::new(params, self.wss)),
            Pattern::Zipf { rows, s } => Box::new(ZipfGen::new(params, rows, s)),
            Pattern::StreamZipf { streams, rows } => {
                let stream_half = StreamGen::new(
                    GenParams {
                        seed: seed ^ 0x5757,
                        ..params
                    },
                    streams,
                    self.wss / (2 * streams as u64),
                    1 << 20,
                );
                let zipf_half = ZipfGen::new(
                    GenParams {
                        seed: seed ^ 0x5a5a,
                        region_base: region_base + self.wss / 2,
                        ..params
                    },
                    rows,
                    0.9,
                );
                Box::new(MixGen::new(
                    seed,
                    vec![
                        (0.5, Box::new(stream_half) as Box<dyn TraceSource>),
                        (0.5, Box::new(zipf_half) as Box<dyn TraceSource>),
                    ],
                ))
            }
        }
    }
}

const MB: u64 = 1 << 20;

/// The paper's 22 single-core workloads (SPEC CPU2006 + TPC + STREAM),
/// in the paper's Figure 4a order.
#[rustfmt::skip]
pub fn single_core_workloads() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec { name: "tpch6",      pattern: Pattern::Zipf { rows: 4096, s: 0.9 },           wss: 32 * MB,  mean_nonmem: 40, store_ratio: 0.20 },
        WorkloadSpec { name: "apache20",   pattern: Pattern::Zipf { rows: 8192, s: 0.9 },           wss: 64 * MB,  mean_nonmem: 35, store_ratio: 0.25 },
        WorkloadSpec { name: "GemsFDTD",   pattern: Pattern::StreamZipf { streams: 2, rows: 4096 }, wss: 128 * MB, mean_nonmem: 30, store_ratio: 0.30 },
        WorkloadSpec { name: "mcf",        pattern: Pattern::Random,                                wss: 512 * MB, mean_nonmem: 12, store_ratio: 0.15 },
        WorkloadSpec { name: "sphinx3",    pattern: Pattern::Zipf { rows: 16384, s: 0.8 },          wss: 128 * MB, mean_nonmem: 25, store_ratio: 0.10 },
        WorkloadSpec { name: "tpch2",      pattern: Pattern::Zipf { rows: 8192, s: 1.0 },           wss: 64 * MB,  mean_nonmem: 22, store_ratio: 0.20 },
        WorkloadSpec { name: "astar",      pattern: Pattern::Random,                                wss: 64 * MB,  mean_nonmem: 25, store_ratio: 0.20 },
        WorkloadSpec { name: "hmmer",      pattern: Pattern::Stream { streams: 1 },                 wss: MB / 4,   mean_nonmem: 4,  store_ratio: 0.30 },
        WorkloadSpec { name: "milc",       pattern: Pattern::Stream { streams: 4 },                 wss: 64 * MB,  mean_nonmem: 18, store_ratio: 0.30 },
        WorkloadSpec { name: "bwaves",     pattern: Pattern::Stream { streams: 3 },                 wss: 128 * MB, mean_nonmem: 14, store_ratio: 0.25 },
        WorkloadSpec { name: "lbm",        pattern: Pattern::Stream { streams: 2 },                 wss: 256 * MB, mean_nonmem: 10, store_ratio: 0.45 },
        WorkloadSpec { name: "omnetpp",    pattern: Pattern::Random,                                wss: 256 * MB, mean_nonmem: 10, store_ratio: 0.25 },
        WorkloadSpec { name: "tonto",      pattern: Pattern::Zipf { rows: 2048, s: 1.1 },           wss: 16 * MB,  mean_nonmem: 18, store_ratio: 0.25 },
        WorkloadSpec { name: "bzip2",      pattern: Pattern::StreamZipf { streams: 2, rows: 2048 }, wss: 64 * MB,  mean_nonmem: 15, store_ratio: 0.30 },
        WorkloadSpec { name: "leslie3d",   pattern: Pattern::Stream { streams: 5 },                 wss: 128 * MB, mean_nonmem: 12, store_ratio: 0.30 },
        WorkloadSpec { name: "sjeng",      pattern: Pattern::Random,                                wss: 32 * MB,  mean_nonmem: 14, store_ratio: 0.20 },
        WorkloadSpec { name: "tpcc64",     pattern: Pattern::Zipf { rows: 32768, s: 0.9 },          wss: 256 * MB, mean_nonmem: 12, store_ratio: 0.35 },
        WorkloadSpec { name: "cactusADM",  pattern: Pattern::Stream { streams: 3 },                 wss: 64 * MB,  mean_nonmem: 11, store_ratio: 0.35 },
        WorkloadSpec { name: "libquantum", pattern: Pattern::Stream { streams: 1 },                 wss: 32 * MB,  mean_nonmem: 8,  store_ratio: 0.25 },
        WorkloadSpec { name: "soplex",     pattern: Pattern::StreamZipf { streams: 3, rows: 8192 }, wss: 128 * MB, mean_nonmem: 9,  store_ratio: 0.20 },
        WorkloadSpec { name: "tpch17",     pattern: Pattern::Zipf { rows: 16384, s: 1.0 },          wss: 128 * MB, mean_nonmem: 8,  store_ratio: 0.25 },
        WorkloadSpec { name: "STREAMcopy", pattern: Pattern::Stream { streams: 2 },                 wss: 128 * MB, mean_nonmem: 4,  store_ratio: 0.50 },
    ]
}

/// Looks up a workload by name.
pub fn workload(name: &str) -> Option<WorkloadSpec> {
    single_core_workloads().into_iter().find(|w| w.name == name)
}

/// An eight-core multiprogrammed mix: one application per core.
#[derive(Debug, Clone, PartialEq)]
pub struct MixSpec {
    /// Mix name (`w1` … `w20`).
    pub name: String,
    /// The application assigned to each core.
    pub apps: Vec<WorkloadSpec>,
}

/// The paper's 20 eight-core mixes: randomly chosen applications per core
/// (deterministically seeded, like the paper's random assignment).
pub fn eight_core_mixes() -> Vec<MixSpec> {
    use crate::rng::TraceRng;
    let pool = single_core_workloads();
    (1..=20)
        .map(|i| {
            let mut rng = TraceRng::seed_from_u64(0xC0FFEE + i);
            let apps = (0..8)
                .map(|_| pool[rng.below(pool.len() as u64) as usize].clone())
                .collect();
            MixSpec {
                name: format!("w{i}"),
                apps,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_22_workloads_with_unique_names() {
        let w = single_core_workloads();
        assert_eq!(w.len(), 22);
        let mut names: Vec<_> = w.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 22);
    }

    #[test]
    fn hmmer_fits_in_the_llc() {
        let h = workload("hmmer").unwrap();
        assert!(h.wss <= 4 * MB);
    }

    #[test]
    fn lookup_finds_known_and_rejects_unknown() {
        assert!(workload("mcf").is_some());
        assert!(workload("doom").is_none());
    }

    #[test]
    fn every_workload_builds_and_produces_entries() {
        for w in single_core_workloads() {
            let mut g = w.build(1, 0);
            for _ in 0..100 {
                let e = g.next_entry().expect(w.name);
                assert!(e.op.is_some());
            }
        }
    }

    #[test]
    fn workloads_stay_in_their_region() {
        let base = 1u64 << 33;
        for w in single_core_workloads() {
            let mut g = w.build(1, base);
            for _ in 0..500 {
                let a = g.next_entry().unwrap().op.unwrap().addr();
                assert!(a >= base, "{}: {a:#x}", w.name);
                // Regions are 1 GB in the 8-core setup; nothing may escape.
                assert!(a < base + (1 << 30), "{}: {a:#x}", w.name);
            }
        }
    }

    #[test]
    fn mixes_are_stable_and_complete() {
        let a = eight_core_mixes();
        let b = eight_core_mixes();
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
        for m in &a {
            assert_eq!(m.apps.len(), 8);
        }
        // Not all mixes identical.
        assert!(a.windows(2).any(|w| w[0].apps != w[1].apps));
    }
}
