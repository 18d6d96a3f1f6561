//! Experiment drivers shared by the benchmark harness, examples and
//! integration tests.
//!
//! Each driver builds a paper-configured [`System`], warms it up, measures
//! a fixed number of retired instructions per core, and returns the
//! [`RunResult`]. Run lengths default to laptop-scale (far shorter than
//! the paper's 1B-instruction runs) and scale with the `CC_SCALE`
//! environment variable (e.g. `CC_SCALE=10` runs 10× longer).

use traces::WorkloadSpec;

use crate::config::{InvalidConfig, SystemConfig};
use crate::metrics::RunResult;
use crate::system::{Snapshot, System};

/// Run-length parameters.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExpParams {
    /// Instructions each core must retire in the measured interval.
    pub insts_per_core: u64,
    /// Instructions per core of cache/HCRAC warmup before measurement.
    pub warmup_insts: u64,
    /// Safety cap: `max_cycles = factor × (warmup + insts)`.
    pub max_cycle_factor: u64,
    /// Seed for trace generation.
    pub seed: u64,
    /// Checkpoint every this many retired instructions per core
    /// (0 = never). Durability plumbing, **not** simulation identity: a
    /// checkpointed run produces a bit-identical [`RunResult`], so this
    /// field is deliberately excluded from the `Debug` output the run
    /// cache keys on (see the manual `Debug` impl below) and from the
    /// sweep JSON.
    pub checkpoint_interval: u64,
}

/// Hand-rolled to print exactly what the pre-`checkpoint_interval`
/// derive printed: the content key ([`crate::CellPlan::content_key`])
/// that names disk-cache entries is `Debug`-derived, and the interval must
/// not split otherwise-identical cells into distinct cache entries.
impl std::fmt::Debug for ExpParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExpParams")
            .field("insts_per_core", &self.insts_per_core)
            .field("warmup_insts", &self.warmup_insts)
            .field("max_cycle_factor", &self.max_cycle_factor)
            .field("seed", &self.seed)
            .finish()
    }
}

impl ExpParams {
    /// Default benchmark-scale parameters, scaled by `CC_SCALE`.
    ///
    /// Setting `CC_TINY=1` returns [`ExpParams::tiny`] instead — the CI
    /// smoke configuration that runs every figure bench in seconds.
    pub fn bench() -> Self {
        if std::env::var_os("CC_TINY").is_some_and(|v| v != "0" && !v.is_empty()) {
            return Self::tiny();
        }
        let scale = std::env::var("CC_SCALE")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(1)
            .max(1);
        Self {
            insts_per_core: 120_000 * scale,
            warmup_insts: 25_000 * scale,
            max_cycle_factor: 150,
            seed: 42,
            checkpoint_interval: 0,
        }
    }

    /// Tiny parameters for (debug-build) integration tests.
    pub fn tiny() -> Self {
        Self {
            insts_per_core: 8_000,
            warmup_insts: 2_000,
            max_cycle_factor: 300,
            seed: 42,
            checkpoint_interval: 0,
        }
    }

    pub(crate) fn max_cycles(&self) -> u64 {
        self.max_cycle_factor * (self.insts_per_core + self.warmup_insts)
    }
}

impl Default for ExpParams {
    fn default() -> Self {
        Self::bench()
    }
}

/// Builds the fully-traced [`System`] an experiment runs on (the shared
/// front half of every cell driver).
pub(crate) fn build_system(
    cfg: SystemConfig,
    apps: &[WorkloadSpec],
    p: &ExpParams,
) -> Result<System, InvalidConfig> {
    if apps.len() != cfg.cores {
        return Err(InvalidConfig(format!(
            "{} workloads for {} cores (need one per core)",
            apps.len(),
            cfg.cores
        )));
    }
    let traces: Vec<_> = apps
        .iter()
        .enumerate()
        .map(|(core, spec)| {
            spec.build(
                p.seed ^ (core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                cfg.region_base(core),
            )
        })
        .collect();
    System::try_new(cfg, traces)
}

/// Where a cell run stands between chunks (the head of every checkpoint
/// payload, see [`crate::ckpt`]).
pub(crate) struct Position {
    /// 0 = warmup, 1 = measured.
    pub(crate) phase: u8,
    /// Retired-instruction target of the next chunk.
    pub(crate) target: u64,
    /// Absolute cycle deadline of the current phase.
    pub(crate) deadline: u64,
    /// Warmup-boundary snapshot (measured phase only).
    pub(crate) warm: Option<Snapshot>,
}

/// How one [`CellRun::chunk`] ended.
pub(crate) enum Chunk {
    /// The current phase goes on.
    Phase,
    /// The warmup just ended; the measured phase begins.
    WarmupEnded,
    /// The run is over; `true` when the cycle cap ended it.
    Done(bool),
}

/// One warmup-then-measure cell, advanced chunk by chunk. Every driver
/// ([`run_configured`], [`crate::api::run_probed`] and the checkpointed
/// cell) runs through it, so the warmup boundary, both phase cycle caps
/// and the measured result are written once.
pub(crate) struct CellRun {
    pub(crate) sys: System,
    pub(crate) pos: Position,
    warmup: u64,
    end: u64,
    max_cycles: u64,
    /// Retired instructions per chunk (`u64::MAX`: one chunk a phase).
    step: u64,
}

impl CellRun {
    /// A run of `sys` from cycle 0 in chunks of `step` instructions.
    pub(crate) fn new(sys: System, p: &ExpParams, step: u64) -> Self {
        Self {
            sys,
            pos: Position {
                phase: 0,
                target: step.min(p.warmup_insts),
                deadline: p.max_cycles(),
                warm: None,
            },
            warmup: p.warmup_insts,
            end: p.warmup_insts + p.insts_per_core,
            max_cycles: p.max_cycles(),
            step,
        }
    }

    /// Runs until the chunk's instruction target, the phase deadline or
    /// `max_cycles` more cycles, whichever comes first.
    pub(crate) fn chunk(&mut self, max_cycles: u64) -> Chunk {
        let phase_end = if self.pos.phase == 0 {
            self.warmup
        } else {
            self.end
        };
        let budget = self.pos.deadline.saturating_sub(self.sys.now());
        let reached = self
            .sys
            .run_until_retired(self.pos.target, budget.min(max_cycles));
        if reached && self.pos.target < phase_end {
            self.pos.target = self.pos.target.saturating_add(self.step).min(phase_end);
            return Chunk::Phase;
        }
        if !reached && self.sys.now() < self.pos.deadline {
            return Chunk::Phase;
        }
        if self.pos.phase == 1 {
            return Chunk::Done(!reached);
        }
        // Warmup boundary: discard the warmup energy log and take the
        // measurement snapshot.
        self.sys.memory_mut().device_mut().take_log();
        self.pos = Position {
            phase: 1,
            target: self.warmup.saturating_add(self.step).min(self.end),
            deadline: self.sys.now() + self.max_cycles,
            warm: Some(self.sys.snapshot()),
        };
        Chunk::WarmupEnded
    }

    /// The measured result of a finished run.
    pub(crate) fn result(mut self, hit_cap: bool) -> RunResult {
        let warm = self.pos.warm.as_ref();
        self.sys
            .result_since(warm.expect("measured phase has a snapshot"), hit_cap)
    }
}

/// Runs an arbitrary system configuration with one workload per core.
///
/// # Errors
///
/// Returns [`InvalidConfig`] if the configuration fails
/// [`SystemConfig::validate`] or `apps` does not supply one workload per
/// configured core.
pub fn run_configured(
    cfg: SystemConfig,
    apps: &[WorkloadSpec],
    p: &ExpParams,
) -> Result<RunResult, InvalidConfig> {
    let mut run = CellRun::new(build_system(cfg, apps, p)?, p, u64::MAX);
    loop {
        if let Chunk::Done(hit_cap) = run.chunk(u64::MAX) {
            return Ok(run.result(hit_cap));
        }
    }
}

/// Maps `f` over `items` on `threads` worker threads, preserving order.
///
/// Work-steals from a shared atomic counter, so long-running items (e.g.
/// one slow eight-core mix) do not serialize the sweep the way static
/// chunking would. Results land in their input slot: the output order is
/// deterministic regardless of scheduling.
///
/// # Panics
///
/// Panics if `threads` is zero or a worker panics.
pub fn par_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    assert!(threads > 0, "need at least one thread");
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let work: Vec<std::sync::Mutex<Option<T>>> = items
        .into_iter()
        .map(|t| std::sync::Mutex::new(Some(t)))
        .collect();
    let results: Vec<std::sync::Mutex<Option<R>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);

    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = work[i]
                    .lock()
                    .expect("work slot poisoned")
                    .take()
                    .expect("each index taken once");
                let r = f(item);
                *results[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("all indices computed")
        })
        .collect()
}

/// Number of worker threads to use for experiment sweeps.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chargecache::MechanismSpec;
    use traces::workload;

    fn baseline_run(app: &str, p: &ExpParams) -> RunResult {
        let cfg = SystemConfig::paper_single_core(MechanismSpec::baseline());
        run_configured(cfg, &[workload(app).unwrap()], p).unwrap()
    }

    #[test]
    fn par_map_preserves_order_and_values() {
        let out = par_map((0..100).collect(), 4, |x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_single_thread_works() {
        let out = par_map(vec![1, 2, 3], 1, |x: i32| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn tiny_single_core_run_produces_metrics() {
        let r = baseline_run("STREAMcopy", &ExpParams::tiny());
        assert!(!r.hit_cycle_cap, "run hit the cycle cap");
        assert!(r.ipc(0) > 0.0);
        assert!(r.rmpkc() > 0.0, "STREAMcopy must reach DRAM");
        assert!(r.energy.total_pj() > 0.0);
    }

    #[test]
    fn hmmer_generates_almost_no_dram_traffic() {
        // hmmer needs its (LLC-resident) footprint warmed before the cold
        // misses stop; give it a longer warmup than the generic tiny run.
        let p = ExpParams {
            warmup_insts: 60_000,
            insts_per_core: 10_000,
            ..ExpParams::tiny()
        };
        let r = baseline_run("hmmer", &p);
        // Footprint ≤ LLC: after warmup, DRAM reads are rare.
        assert!(r.rmpkc() < 2.0, "hmmer RMPKC = {}", r.rmpkc());
    }
}
