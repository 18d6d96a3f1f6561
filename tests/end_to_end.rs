//! Cross-crate integration tests: the paper's qualitative results must
//! hold end-to-end on tiny (debug-friendly) runs.

use chargecache::{Baseline, ChargeCache, ChargeCacheConfig, LatencyMechanism, MechanismSpec};
use dram::{DramConfig, SpeedBin, TimingParams};
use memctrl::{AccessKind, CtrlConfig, MemRequest, MemorySystem};
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

fn params() -> ExpParams {
    ExpParams::tiny()
}

/// ChargeCache can only remove latency, never add it: on a
/// bank-conflict-heavy workload it must not be slower than baseline.
#[test]
fn chargecache_does_not_degrade_streamcopy() {
    let spec = workload("STREAMcopy").unwrap();
    let p = params();
    let base = single_core(&spec, &MechanismSpec::baseline(), &p);
    let ccr = single_core(&spec, &MechanismSpec::chargecache(), &p);
    assert!(
        ccr.ipc(0) >= base.ipc(0) * 0.995,
        "CC {} vs baseline {}",
        ccr.ipc(0),
        base.ipc(0)
    );
}

/// LL-DRAM is the upper bound: it reduces every activation, so it must
/// beat ChargeCache (whose hit rate is < 100%) on a DRAM-bound workload.
#[test]
fn lldram_bounds_chargecache_from_above() {
    let spec = workload("mcf").unwrap();
    let p = params();
    let ccr = single_core(&spec, &MechanismSpec::chargecache(), &p);
    let ll = single_core(&spec, &MechanismSpec::lldram(), &p);
    assert!(
        ll.ipc(0) >= ccr.ipc(0) * 0.995,
        "LL {} vs CC {}",
        ll.ipc(0),
        ccr.ipc(0)
    );
}

/// The motivation result: RLTL far exceeds the recently-refreshed
/// fraction on a row-conflict-heavy workload (paper Figure 3).
#[test]
fn rltl_dominates_refresh_fraction() {
    let spec = workload("STREAMcopy").unwrap();
    let p = params();
    let r = single_core(&spec, &MechanismSpec::baseline(), &p);
    // 8 ms bucket (index 4) vs 8 ms-after-refresh.
    let rltl = r.rltl.rltl_fraction[4];
    let refr = r.rltl.refresh_8ms_fraction;
    assert!(
        rltl > refr + 0.2,
        "8ms-RLTL {rltl} should far exceed refresh fraction {refr}"
    );
    assert!(rltl > 0.5, "8ms-RLTL = {rltl}");
}

/// A ChargeCache hit-rate sanity check on a high-RLTL workload: most
/// activations should be served with reduced timings.
#[test]
fn high_rltl_workload_hits_in_hcrac() {
    let spec = workload("STREAMcopy").unwrap();
    let p = params();
    let r = single_core(&spec, &MechanismSpec::chargecache(), &p);
    let hit = r.hcrac_hit_rate().unwrap();
    assert!(hit > 0.5, "hit rate = {hit}");
    assert!(r.mech.reduced_fraction() > 0.5);
}

/// hmmer fits in the LLC: no mechanism should change its performance.
#[test]
fn hmmer_is_unaffected_by_any_mechanism() {
    let spec = workload("hmmer").unwrap();
    let p = ExpParams {
        warmup_insts: 40_000,
        insts_per_core: 8_000,
        ..params()
    };
    let base = single_core(&spec, &MechanismSpec::baseline(), &p);
    for spec_m in [MechanismSpec::chargecache(), MechanismSpec::lldram()] {
        let r = single_core(&spec, &spec_m, &p);
        let delta = (r.ipc(0) / base.ipc(0) - 1.0).abs();
        assert!(delta < 0.01, "{spec_m} moved hmmer by {delta}");
    }
}

/// Eight-core contention raises RLTL relative to single-core (the paper's
/// Figure 4a vs 4b effect), measured on the same mix of applications.
#[test]
fn multicore_contention_raises_rltl() {
    let p = params();
    let mix = &eight_core_mixes()[0];
    let eight = eight_core(mix, &MechanismSpec::baseline(), &p);
    // Weighted single-core average of the same apps.
    let mut singles = Vec::new();
    for app in &mix.apps {
        let r = single_core(app, &MechanismSpec::baseline(), &p);
        if r.rltl.activations > 100 {
            singles.push(r.rltl.rltl_fraction[3]); // ≤ 1 ms
        }
    }
    let single_avg = singles.iter().sum::<f64>() / singles.len() as f64;
    let eight_rltl = eight.rltl.rltl_fraction[3];
    assert!(
        eight_rltl > single_avg - 0.1,
        "8-core 1ms-RLTL {eight_rltl} vs single avg {single_avg}"
    );
}

/// Energy: for the same work, a faster run must not cost more DRAM energy
/// (the Figure 8 mechanism).
#[test]
fn chargecache_saves_energy_when_it_saves_time() {
    let spec = workload("milc").unwrap();
    let p = params();
    let base = single_core(&spec, &MechanismSpec::baseline(), &p);
    let ccr = single_core(&spec, &MechanismSpec::chargecache(), &p);
    if ccr.cpu_cycles < base.cpu_cycles {
        assert!(
            ccr.energy.total_pj() < base.energy.total_pj() * 1.001,
            "faster but more energy"
        );
    }
}

/// The full mechanism matrix runs on an eight-core mix without panics,
/// cycle caps, or zero IPCs.
#[test]
fn all_mechanisms_run_an_eight_core_mix() {
    let p = ExpParams {
        insts_per_core: 3_000,
        warmup_insts: 1_000,
        ..params()
    };
    let mix = &eight_core_mixes()[1];
    for spec in MechanismSpec::paper_all() {
        let r = eight_core(mix, &spec, &p);
        assert!(!r.hit_cycle_cap, "{spec} hit the cycle cap");
        for core in 0..8 {
            assert!(r.ipc(core) > 0.0, "{spec} core {core} stuck");
        }
    }
}

/// Drives `n` row-conflict-heavy reads through a memory system to
/// completion; returns the cycle count.
fn drive(mut mem: MemorySystem, n: u64) -> u64 {
    let row_stride = mem.device().config().org.row_bytes()
        * u64::from(mem.device().config().org.banks)
        * u64::from(mem.device().config().org.channels);
    let mut now = 0u64;
    let mut submitted = 0u64;
    let mut completed = 0u64;
    while completed < n {
        if submitted < n {
            let addr = (submitted % 2) * row_stride + (submitted % 32) * 64;
            if mem
                .try_enqueue(
                    MemRequest {
                        addr,
                        kind: AccessKind::Read,
                        core: 0,
                    },
                    now,
                )
                .is_some()
            {
                submitted += 1;
            }
        }
        completed += mem.tick(now).len() as u64;
        now += 1;
        assert!(now < 10_000_000, "deadlock driving the memory system");
    }
    now
}

/// The paper's single-channel DDR3 memory system running `mech`.
fn system(mech: Box<dyn LatencyMechanism>) -> MemorySystem {
    MemorySystem::new(
        DramConfig::ddr3_1600_paper(),
        CtrlConfig::default(),
        vec![mech],
    )
}

/// On [`drive`]'s row-conflict-heavy stream, ChargeCache only ever
/// shortens activations, so it finishes no later than baseline.
#[test]
fn chargecache_never_slows_a_row_conflict_stream() {
    let t = TimingParams::ddr3_1600();
    let n = 600;
    let base = drive(system(Box::new(Baseline::new(&t))), n);
    let cc = drive(
        system(Box::new(ChargeCache::new(
            ChargeCacheConfig::paper(),
            &t,
            1,
        ))),
        n,
    );
    assert!(cc <= base, "CC {cc} vs baseline {base}");
}

#[test]
fn chargecache_runs_on_every_speed_bin() {
    for bin in SpeedBin::ALL {
        let mut cfg = DramConfig::ddr3_1600_paper();
        cfg.timing = bin.timing();
        let mech = Box::new(ChargeCache::new(ChargeCacheConfig::paper(), &cfg.timing, 1));
        let mem = MemorySystem::new(cfg, CtrlConfig::default(), vec![mech]);
        let cycles = drive(mem, 100);
        assert!(cycles > 0, "{bin:?}");
    }
}

#[test]
fn chargecache_runs_on_the_stacked_organization() {
    let cfg = DramConfig::stacked_like();
    let mechs = (0..cfg.org.channels)
        .map(|_| {
            Box::new(ChargeCache::new(ChargeCacheConfig::paper(), &cfg.timing, 1))
                as Box<dyn LatencyMechanism>
        })
        .collect();
    let mem = MemorySystem::new(cfg, CtrlConfig::default(), mechs);
    let cycles = drive(mem, 400);
    assert!(cycles > 0);
}
