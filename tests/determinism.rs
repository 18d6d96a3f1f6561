//! Reproducibility: every experiment is a pure function of its
//! configuration and seed. This is what makes the per-figure benches
//! meaningful as regression artifacts.

use chargecache::MechanismSpec;
use sim::exp::{run_configured, ExpParams};
use sim::{RunResult, SystemConfig};
use traces::{eight_core_mixes, workload, MixSpec, WorkloadSpec};

/// Runs one workload on the paper's single-core system.
fn single_core(app: &WorkloadSpec, mechanism: &MechanismSpec, p: &ExpParams) -> RunResult {
    let cfg = SystemConfig::paper_single_core(mechanism.clone());
    run_configured(cfg, std::slice::from_ref(app), p).expect("valid paper configuration")
}

/// Runs one mix on the paper's eight-core system.
fn eight_core(mix: &MixSpec, mechanism: &MechanismSpec, p: &ExpParams) -> RunResult {
    let cfg = SystemConfig::paper_eight_core(mechanism.clone());
    run_configured(cfg, &mix.apps, p).expect("valid paper configuration")
}

#[test]
fn single_core_runs_are_bit_identical() {
    let spec = workload("tpch2").unwrap();
    let p = ExpParams::tiny();
    let a = single_core(&spec, &MechanismSpec::chargecache(), &p);
    let b = single_core(&spec, &MechanismSpec::chargecache(), &p);
    assert_eq!(a.cpu_cycles, b.cpu_cycles);
    assert_eq!(a.ctrl, b.ctrl);
    assert_eq!(a.mech, b.mech);
    assert_eq!(a.rltl, b.rltl);
    assert_eq!(a.energy, b.energy);
}

#[test]
fn eight_core_runs_are_bit_identical() {
    let mix = &eight_core_mixes()[2];
    let p = ExpParams {
        insts_per_core: 2_000,
        warmup_insts: 500,
        ..ExpParams::tiny()
    };
    let a = eight_core(mix, &MechanismSpec::cc_nuat(), &p);
    let b = eight_core(mix, &MechanismSpec::cc_nuat(), &p);
    assert_eq!(a.cpu_cycles, b.cpu_cycles);
    for core in 0..8 {
        assert_eq!(a.cores[core].retired, b.cores[core].retired);
    }
    assert_eq!(a.ctrl, b.ctrl);
}

#[test]
fn different_seeds_change_the_run() {
    let spec = workload("sjeng").unwrap();
    let p1 = ExpParams {
        seed: 1,
        ..ExpParams::tiny()
    };
    let p2 = ExpParams {
        seed: 2,
        ..ExpParams::tiny()
    };
    let a = single_core(&spec, &MechanismSpec::baseline(), &p1);
    let b = single_core(&spec, &MechanismSpec::baseline(), &p2);
    // Same workload class, different concrete streams.
    assert_ne!((a.cpu_cycles, a.ctrl.reads), (b.cpu_cycles, b.ctrl.reads));
}
