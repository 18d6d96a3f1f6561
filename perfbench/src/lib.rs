//! The repository benchmark: the paper's Fig. 7 grids run in-process
//! (`singles`, `mixes`) and served by `cc-simd` (`served`), with an
//! output oracle and a traced per-layer split. See `README.md` in this
//! directory for the workloads, the metrics and how to run it.

use std::path::PathBuf;

pub mod calib;
pub mod grid;
pub mod inproc;
pub mod provenance;
pub mod replica;
pub mod report;
pub mod served;
pub mod stats;

use grid::Workload;

/// Parsed command line of one benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed: picks the order cells are handed out in.
    pub seed: u64,
    /// How long to keep starting repetitions.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// Seed of the synthetic traces (must be pinned).
    pub trace_seed: u64,
    /// The `cc-simd` binary (`served` only).
    pub simd: PathBuf,
}
