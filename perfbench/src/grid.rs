//! The benchmark's three workloads: pinned run parameters, cell grids,
//! and the output oracle (per-cell fingerprints captured from the
//! simulator and kept in `fingerprints.tsv`).
//!
//! Every run parameter is spelled out here. `ExpParams::bench()`,
//! `default()` and `tiny()` are never called, because they read
//! `CC_TINY`/`CC_SCALE` and the environment must not change the program
//! being measured.

use std::collections::BTreeMap;

use chargecache::MechanismSpec;
use sim::api::{CellPlan, Experiment};
use sim::{Engine, ExpParams, RunResult};
use traces::{eight_core_mixes, single_core_workloads, TraceRng, WorkloadSpec};

/// Worker threads of every simulating process (in-process pool and the
/// daemon's `--threads`), sized for a 2-vCPU host.
pub const THREADS: usize = 2;

/// Trace seed of the pinned default run.
pub const DEFAULT_TRACE_SEED: u64 = 42;

/// Trace seed pinned but never used while tuning the benchmark.
pub const HELDOUT_TRACE_SEED: u64 = 1042;

/// Daemon checkpoint interval (retired instructions per core) for
/// `served`: three checkpoints per tiny-scale cell.
pub const CHECKPOINT_INTERVAL: u64 = 2_000;

/// The pinned fingerprints, one `workload<TAB>trace_seed<TAB>cell<TAB>hex`
/// line per cell (regenerate with `perfbench capture`).
const PINNED: &str = include_str!("../fingerprints.tsv");

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 7a: 22 single-core workloads × 5 mechanisms, in-process.
    Singles,
    /// Fig. 7b: 20 eight-core mixes × 5 mechanisms plus alone runs.
    Mixes,
    /// The Fig. 7a grid at tiny scale, served cold then warm by `cc-simd`.
    Served,
}

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 3] = [Workload::Singles, Workload::Mixes, Workload::Served];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Singles => "singles",
            Workload::Mixes => "mixes",
            Workload::Served => "served",
        }
    }

    /// The explicit run-length parameters of every cell.
    pub fn params(self, trace_seed: u64) -> ExpParams {
        let (insts_per_core, warmup_insts, max_cycle_factor) = match self {
            // The figure benches' default scale.
            Workload::Singles => (120_000, 25_000, 150),
            // Eight cores of work per cell: the per-core length is cut to
            // a quarter, as in the engine bench.
            Workload::Mixes => (30_000, 6_250, 150),
            // The tiny scale the integration tests use.
            Workload::Served => (8_000, 2_000, 300),
        };
        ExpParams {
            insts_per_core,
            warmup_insts,
            max_cycle_factor,
            seed: trace_seed,
            checkpoint_interval: 0,
        }
    }
}

/// One cell of a workload's grid.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Stable identity: `subject/mechanism`, or `alone/app` for a
    /// weighted-speedup denominator run.
    pub id: String,
    /// The planned cell.
    pub plan: CellPlan,
}

fn plan(exp: Experiment, p: ExpParams) -> Result<Vec<CellPlan>, String> {
    exp.params(p)
        .threads(THREADS)
        .engine(Engine::EventSkip)
        .plan()
        .map(|s| s.cells)
        .map_err(|e| e.0)
}

/// The cells of `w`'s grid in plan order (subject-major, then mechanism;
/// `mixes` appends its alone runs).
///
/// # Errors
///
/// Returns the planner's message if a cell fails validation.
pub fn grid(w: Workload, trace_seed: u64) -> Result<Vec<GridCell>, String> {
    let p = w.params(trace_seed);
    let paper = MechanismSpec::paper_all();
    let mut cells: Vec<GridCell> = match w {
        Workload::Singles | Workload::Served => plan(
            Experiment::new()
                .workloads(single_core_workloads())
                .mechanisms(&paper),
            p,
        )?,
        Workload::Mixes => plan(
            Experiment::new()
                .mixes(eight_core_mixes())
                .mechanisms(&paper),
            p,
        )?,
    }
    .into_iter()
    .map(|plan| GridCell {
        id: format!("{}/{}", plan.subject, plan.mechanism.name()),
        plan,
    })
    .collect();
    if w == Workload::Mixes {
        // Baseline alone runs of every app in any mix: the weighted-
        // speedup denominators (`Experiment::alone_ipcs` semantics).
        let mut apps: Vec<WorkloadSpec> = Vec::new();
        for m in eight_core_mixes() {
            for a in m.apps {
                if !apps.iter().any(|x| x.name == a.name) {
                    apps.push(a);
                }
            }
        }
        let alone = plan(
            Experiment::new()
                .workloads(apps)
                .mechanism(MechanismSpec::baseline()),
            p,
        )?;
        cells.extend(alone.into_iter().map(|plan| GridCell {
            id: format!("alone/{}", plan.subject),
            plan,
        }));
    }
    Ok(cells)
}

/// A permutation of `0..n` drawn from `seed`: the order cells are handed
/// to the workers (or submitted to the daemon).
pub fn order(n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = TraceRng::seed_from_u64(seed ^ 0x0be4_c4a2_cafe_f00d);
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        idx.swap(i, j);
    }
    idx
}

/// The output fingerprint of one cell: FNV-1a-64 of its exact binary
/// encoding (the bytes the disk run cache stores).
pub fn fingerprint(r: &RunResult) -> u64 {
    fasthash::checksum_64(&r.encode())
}

/// The pinned fingerprints of `w` at `trace_seed`, by cell id; `None`
/// when that seed was never pinned.
pub fn pinned(w: Workload, trace_seed: u64) -> Option<BTreeMap<String, u64>> {
    let seed = trace_seed.to_string();
    let map: BTreeMap<String, u64> = PINNED
        .lines()
        .filter_map(|line| {
            let mut f = line.split('\t');
            let (wl, s, id, hex) = (f.next()?, f.next()?, f.next()?, f.next()?);
            (wl == w.name() && s == seed)
                .then(|| Some((id.to_string(), u64::from_str_radix(hex, 16).ok()?)))
                .flatten()
        })
        .collect();
    (!map.is_empty()).then_some(map)
}

/// Mean ChargeCache speedup over baseline, in percent, computed as
/// `fig07_speedup` does: core-0 IPC speedup for single-core grids,
/// weighted speedup against baseline alone-IPCs for `mixes`. `None`
/// when a needed cell is missing.
pub fn cc_speedup_pct(
    w: Workload,
    cells: &[GridCell],
    results: &[Option<RunResult>],
) -> Option<f64> {
    let by_id: BTreeMap<&str, &RunResult> = cells
        .iter()
        .zip(results)
        .filter_map(|(c, r)| Some((c.id.as_str(), r.as_ref()?)))
        .collect();
    let subjects: Vec<&CellPlan> = cells
        .iter()
        .filter(|c| c.plan.mechanism.name() == "baseline" && !c.id.starts_with("alone/"))
        .map(|c| &c.plan)
        .collect();
    let mut sum = 0.0;
    for s in &subjects {
        let base = by_id.get(format!("{}/baseline", s.subject).as_str())?;
        let cc = by_id.get(format!("{}/chargecache", s.subject).as_str())?;
        let (b, c) = if w == Workload::Mixes {
            let ws = |r: &RunResult| -> Option<f64> {
                let mut ws = 0.0;
                for (core, app) in s.apps.iter().enumerate() {
                    let alone = by_id.get(format!("alone/{}", app.name).as_str())?.ipc(0);
                    ws += r.ipc(core) / alone.max(1e-9);
                }
                Some(ws)
            };
            (ws(base)?, ws(cc)?)
        } else {
            (base.ipc(0), cc.ipc(0))
        };
        sum += c / b.max(1e-9) - 1.0;
    }
    (!subjects.is_empty()).then(|| 100.0 * sum / subjects.len() as f64)
}
