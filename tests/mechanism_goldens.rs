//! Golden equivalence: the five built-in specs must reproduce the
//! pre-redesign enum paths bit-for-bit.
//!
//! The expected numbers were captured from the last commit *before* the
//! mechanism plugin API (enum `MechanismKind` + `build_mechanism`
//! dispatch, `SystemConfig { cc, nuat }` fields), at fixed seed 42, under
//! both engines. Any drift here means the registry/spec path changed the
//! simulated machine, not just the plumbing.

use sim::exp::{run_configured, ExpParams};
use sim::{Engine, RunResult, SystemConfig};
use traces::{eight_core_mixes, workload};

/// `(mechanism, cpu_cycles, dram_reads, activates, reduced_activates)`.
type Golden = (&'static str, u64, u64, u64, u64);

fn small() -> ExpParams {
    ExpParams {
        insts_per_core: 2_000,
        warmup_insts: 500,
        ..ExpParams::tiny()
    }
}

fn check(r: &RunResult, g: &Golden, label: &str) {
    assert_eq!(r.cpu_cycles, g.1, "{label}/{}: cpu_cycles", g.0);
    assert_eq!(r.ctrl.reads, g.2, "{label}/{}: reads", g.0);
    assert_eq!(r.mech.activates(), g.3, "{label}/{}: activates", g.0);
    assert_eq!(r.mech.reduced_activates(), g.4, "{label}/{}: reduced", g.0);
}

/// Captured from the pre-redesign enum path: tpch2, 2000 insts, seed 42.
const SINGLE_TPCH2: [Golden; 5] = [
    ("baseline", 4060, 59, 53, 0),
    ("nuat", 3930, 59, 53, 49),
    ("chargecache", 4010, 59, 53, 6),
    ("cc-nuat", 3910, 59, 53, 49),
    ("lldram", 3375, 59, 53, 53),
];

#[test]
fn single_core_builtins_match_pre_redesign_goldens_under_both_engines() {
    let spec = workload("tpch2").unwrap();
    let p = small();
    for engine in [Engine::EventSkip, Engine::PerCycle] {
        for g in &SINGLE_TPCH2 {
            let mut cfg = SystemConfig::paper_single_core(g.0.parse().unwrap());
            cfg.engine = engine;
            let r = run_configured(cfg, std::slice::from_ref(&spec), &p).unwrap();
            check(&r, g, &format!("{engine:?}"));
        }
    }
}

/// Captured from the pre-redesign enum path: mcf at `ExpParams::tiny()`.
const SINGLE_MCF: [Golden; 5] = [
    ("baseline", 26_921, 526, 527, 0),
    ("nuat", 24_574, 526, 528, 418),
    ("chargecache", 26_896, 526, 528, 2),
    ("cc-nuat", 24_574, 526, 528, 419),
    ("lldram", 21_244, 526, 527, 527),
];

#[test]
fn random_access_builtins_match_pre_redesign_goldens() {
    let spec = workload("mcf").unwrap();
    let p = ExpParams::tiny();
    for g in &SINGLE_MCF {
        let cfg = SystemConfig::paper_single_core(g.0.parse().unwrap());
        let r = run_configured(cfg, std::slice::from_ref(&spec), &p).unwrap();
        check(&r, g, "tiny");
    }
}

/// Captured from the pre-redesign enum path: mix w1, 2000 insts/core.
const MIX_W1: [Golden; 5] = [
    ("baseline", 47_345, 2_838, 974, 0),
    ("nuat", 45_422, 2_770, 995, 860),
    ("chargecache", 40_206, 2_575, 970, 582),
    ("cc-nuat", 41_585, 2_704, 975, 914),
    ("lldram", 40_938, 2_731, 1_004, 1_004),
];

#[test]
fn eight_core_builtins_match_pre_redesign_goldens() {
    let mix = &eight_core_mixes()[0];
    let p = small();
    for g in &MIX_W1 {
        let cfg = SystemConfig::paper_eight_core(g.0.parse().unwrap());
        let r = run_configured(cfg, &mix.apps, &p).unwrap();
        check(&r, g, "w1");
    }
}

#[test]
fn spec_parameters_match_the_old_config_structs() {
    let p = small();
    // `entries=N` must reproduce the paper config with `entries_per_core`
    // set to N.
    for (spec_src, cycles, activates, reduced) in [
        ("chargecache(entries=64)", 6_074u64, 23u64, 21u64),
        ("chargecache(entries=1024)", 6_074, 23, 21),
    ] {
        let w = workload("STREAMcopy").unwrap();
        let cfg = SystemConfig::paper_single_core(spec_src.parse().unwrap());
        let r = run_configured(cfg, std::slice::from_ref(&w), &p).unwrap();
        assert_eq!(
            (r.cpu_cycles, r.mech.activates(), r.mech.reduced_activates()),
            (cycles, activates, reduced),
            "{spec_src}"
        );
    }
    // `duration=Nms` must reproduce `ChargeCacheConfig::with_duration_ms`
    // (reductions re-derived from the circuit model).
    for (spec_src, cycles, activates, reduced) in [
        ("chargecache(duration=4ms)", 2_824u64, 32u64, 1u64),
        ("chargecache(duration=16ms)", 2_824, 32, 1),
    ] {
        let w = workload("tpch6").unwrap();
        let cfg = SystemConfig::paper_single_core(spec_src.parse().unwrap());
        let r = run_configured(cfg, std::slice::from_ref(&w), &p).unwrap();
        assert_eq!(
            (r.cpu_cycles, r.mech.activates(), r.mech.reduced_activates()),
            (cycles, activates, reduced),
            "{spec_src}"
        );
    }
}

#[test]
fn alias_specs_build_the_same_machine() {
    // `cc`, `ccnuat`, `ll` resolve to the same factories as the canonical
    // names, so they must reproduce the same goldens.
    let spec = workload("tpch2").unwrap();
    let p = small();
    for (alias, canonical) in [
        ("cc", "chargecache"),
        ("ccnuat", "cc-nuat"),
        ("ll", "lldram"),
    ] {
        let a = run_configured(
            SystemConfig::paper_single_core(alias.parse().unwrap()),
            std::slice::from_ref(&spec),
            &p,
        )
        .unwrap();
        let c = run_configured(
            SystemConfig::paper_single_core(canonical.parse().unwrap()),
            std::slice::from_ref(&spec),
            &p,
        )
        .unwrap();
        assert_eq!(a, c, "{alias} vs {canonical}");
    }
}
