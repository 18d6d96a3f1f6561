//! Full-system simulator for the ChargeCache reproduction.
//!
//! Wires the substrate crates together — trace-driven [`cpu`] cores, the
//! shared LLC, the [`memctrl`] memory system with a
//! [`chargecache::LatencyMechanism`] per channel, the timing-checked
//! [`dram`] device, and the [`drampower`] energy model — into the
//! paper's Table 1 system, and provides the experiment drivers used by
//! every figure/table bench.
//!
//! # Example
//!
//! Experiments are declared as [`api::Experiment`] sweep grids and return
//! a structured, JSON-encodable [`api::SweepResult`]:
//!
//! ```
//! use chargecache::MechanismSpec;
//! use sim::api::{Experiment, Metric};
//! use sim::ExpParams;
//! use traces::workload;
//!
//! let mut p = ExpParams::tiny();
//! p.insts_per_core = 2_000;
//! let sweep = Experiment::new()
//!     .workload(workload("libquantum").expect("paper workload"))
//!     .mechanism(MechanismSpec::chargecache())
//!     .params(p)
//!     .run()
//!     .expect("valid paper configuration");
//! assert!(sweep.cells[0].metric(Metric::Ipc) > 0.0);
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod ckpt;
pub mod config;
mod envelope;
pub mod exp;
pub mod json;
pub mod metrics;
pub mod system;

pub use api::{
    assemble_sweep_json, Cell, CellError, CellErrorKind, CellPlan, Experiment, Metric, Probe,
    SweepPlan, SweepResult, Variant,
};
pub use cache::{CacheStats, DiskCache, GcStats};
pub use ckpt::{checkpoint_stats, CheckpointStats, CheckpointStore};
pub use config::{Engine, InvalidConfig, SystemConfig};
pub use dram::{SpeedBin, TimingSpec};
pub use exp::{par_map, run_configured, ExpParams};
pub use metrics::{speedup_over, weighted_speedup, RunResult};
pub use system::System;
