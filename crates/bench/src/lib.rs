//! Shared helpers for the per-figure benchmark harnesses.
//!
//! Every `benches/figNN_*.rs` target regenerates one table or figure of
//! the ChargeCache paper: it declares its sweep as a [`sim::api::Experiment`]
//! (directly, or through the thin wrappers below), runs it at the default
//! (laptop) scale — `CC_SCALE=N` scales run lengths by `N`, `CC_TINY=1`
//! shrinks them to the CI smoke scale — and prints the same rows/series
//! the paper reports. Absolute numbers differ from the paper (synthetic
//! workloads, scaled run lengths), but the orderings and rough factors —
//! printed next to the paper's own numbers by each bench — are the
//! reproduction targets.
//!
//! All sweeps share `sim::api`'s process-wide memoized run cache, so
//! repeated baselines and alone-IPC runs are simulated once per process
//! no matter how many figures or sweep points request them.

use chargecache::MechanismSpec;
use sim::api::Experiment;
use sim::exp::ExpParams;
use sim::RunResult;
use traces::{eight_core_mixes, single_core_workloads, MixSpec, WorkloadSpec};

/// Number of eight-core mixes used by the expensive sweep figures
/// (9, 10, 11). The headline figures (3, 4, 7, 8) always use all 20.
pub fn sweep_mix_count() -> usize {
    std::env::var("CC_SWEEP_MIXES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(6)
}

/// Prints a figure banner.
pub fn banner(title: &str, paper_summary: &str) {
    println!("\n=== {title} ===");
    println!("paper: {paper_summary}");
    println!("(synthetic workloads; compare shapes/orderings, not absolutes)\n");
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Arithmetic mean (the paper reports arithmetic means).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// All 22 single-core workloads.
pub fn workloads() -> Vec<WorkloadSpec> {
    single_core_workloads()
}

/// The first `n` eight-core mixes.
pub fn mixes(n: usize) -> Vec<MixSpec> {
    eight_core_mixes().into_iter().take(n).collect()
}

/// Runs every single-core workload under `mechanism`, in parallel
/// (memoized). Parameters travel inside the spec
/// (`"chargecache(entries=64)".parse()`).
pub fn all_single(mechanism: &MechanismSpec, p: &ExpParams) -> Vec<(WorkloadSpec, RunResult)> {
    let specs = workloads();
    let sweep = Experiment::new()
        .workloads(specs.clone())
        .mechanism(mechanism.clone())
        .params(*p)
        .run()
        .expect("paper configuration is valid");
    specs
        .into_iter()
        .zip(
            sweep
                .cells
                .into_iter()
                .map(|c| c.outcome.expect("sweep cell failed")),
        )
        .collect()
}

/// Runs every given mix under `mechanism`, in parallel (memoized).
pub fn all_eight(
    mechanism: &MechanismSpec,
    p: &ExpParams,
    mix_list: &[MixSpec],
) -> Vec<(MixSpec, RunResult)> {
    let sweep = Experiment::new()
        .mixes(mix_list.to_vec())
        .mechanism(mechanism.clone())
        .params(*p)
        .run()
        .expect("paper configuration is valid");
    mix_list
        .iter()
        .cloned()
        .zip(
            sweep
                .cells
                .into_iter()
                .map(|c| c.outcome.expect("sweep cell failed")),
        )
        .collect()
}
