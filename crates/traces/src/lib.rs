//! Synthetic workload traces for the ChargeCache reproduction.
//!
//! The paper drives Ramulator with Pin-collected traces of 22 SPEC
//! CPU2006 / TPC / STREAM workloads. Those traces are not redistributable,
//! so this crate supplies synthetic substitutes:
//!
//! * [`gen`] — deterministic pattern generators (streams, uniform random,
//!   Zipf row popularity, mixtures) implementing [`cpu::TraceSource`];
//! * [`profile`] — one calibrated [`profile::WorkloadSpec`] per named
//!   workload, plus the 20 randomized eight-core mixes.
//!
//! # Example
//!
//! ```
//! use traces::profile::workload;
//!
//! let spec = workload("STREAMcopy").expect("paper workload");
//! let mut source = spec.build(/* seed */ 7, /* region_base */ 0);
//! let entry = source.next_entry().unwrap();
//! assert!(entry.op.is_some());
//! ```

pub mod gen;
pub mod profile;
pub mod rng;

pub use gen::{GenParams, MixGen, RandomGen, StreamGen, ZipfGen};
pub use profile::{
    eight_core_mixes, single_core_workloads, workload, MixSpec, Pattern, WorkloadSpec,
};
pub use rng::TraceRng;
