//! Facade crate for the ChargeCache (HPCA 2016) reproduction.
//!
//! Re-exports the whole stack so downstream users can depend on a single
//! crate:
//!
//! * [`bitline`] — analytic bitline/sense-amplifier model (SPICE
//!   substitute; Figure 6 and Table 2);
//! * [`dram`] — cycle-accurate DDR3 device model;
//! * [`chargecache`] — the paper's contribution: HCRAC, IIC/EC
//!   invalidation and the latency mechanisms (ChargeCache, NUAT,
//!   ChargeCache+NUAT, LL-DRAM, baseline);
//! * [`memctrl`] — FR-FCFS memory controller with the mechanism seam;
//! * [`cpu`] — trace-driven cores and the shared LLC;
//! * [`traces`] — synthetic workload generators and trace I/O;
//! * [`drampower`] — IDD-based DDR3 energy model;
//! * [`sim`] — full-system simulator and experiment drivers.
//!
//! See `README.md` for the quickstart and `docs/ARCHITECTURE.md` for the
//! crate map.
//!
//! # Example
//!
//! ```
//! use chargecache_repro::prelude::*;
//!
//! let mut params = ExpParams::tiny();
//! params.insts_per_core = 2_000;
//! let sweep = Experiment::new()
//!     .workload(workload("tpch6").expect("paper workload"))
//!     .mechanism(MechanismSpec::chargecache())
//!     .params(params)
//!     .run()
//!     .expect("valid paper configuration");
//! assert!(sweep.cells[0].metric(Metric::Ipc) > 0.0);
//! ```

pub mod mechs;

pub use bitline;
pub use chargecache;
pub use cpu;
pub use dram;
pub use drampower;
pub use memctrl;
pub use sim;
pub use traces;

/// Most-used items for experiments.
pub mod prelude {
    pub use bitline::{ActivationModel, CycleQuantized, ReducedTimings};
    pub use chargecache::{
        registry, ChargeCacheConfig, LatencyMechanism, MechanismFactory, MechanismReport,
        MechanismSpec, NuatConfig, ParamValue, RowKey, StatSink,
    };
    pub use dram::{DramConfig, DramDevice, TimingParams};
    pub use memctrl::{CtrlConfig, MemorySystem, RowPolicy};
    pub use sim::api::{run_probed, Experiment, Metric, Probe, SampleSeries, SweepResult, Variant};
    pub use sim::exp::{run_configured, ExpParams};
    pub use sim::{InvalidConfig, RunResult, System, SystemConfig};
    pub use traces::{eight_core_mixes, single_core_workloads, workload};
}
