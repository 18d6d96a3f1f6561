//! The three run drivers — `run_configured`, `run_probed` and a
//! checkpointed `Experiment` cell — must agree bit-for-bit on runs the
//! cycle cap cuts short, in the warmup or in the measured phase, under
//! both engines.

use std::fs;

use chargecache::MechanismSpec;
use sim::api::{self, run_probed, Experiment, SampleSeries, Variant};
use sim::{checkpoint_stats, run_configured, Engine, ExpParams, RunResult, SystemConfig};
use traces::{workload, WorkloadSpec};

/// The cell through `Experiment` with a disk cache and checkpoints
/// every `interval` instructions. The in-memory run cache is cleared
/// first: the interval is not part of the cell's identity.
fn checkpointed(spec: &WorkloadSpec, engine: Engine, p: ExpParams, interval: u64) -> RunResult {
    let dir = std::env::temp_dir().join(format!(
        "cc-cycle-cap-{}-{}-{engine:?}-{}-{interval}",
        std::process::id(),
        spec.name,
        p.max_cycle_factor
    ));
    let _ = fs::remove_dir_all(&dir);
    api::clear_run_cache();
    let before = checkpoint_stats().stores;
    let sweep = Experiment::new()
        .workload(spec.clone())
        .mechanism(MechanismSpec::chargecache())
        .variant(Variant::new("engine", move |cfg| cfg.engine = engine))
        .params(ExpParams {
            checkpoint_interval: interval,
            ..p
        })
        .threads(1)
        .cache_dir(&dir)
        .run()
        .expect("valid sweep");
    assert!(
        checkpoint_stats().stores > before,
        "{}: the cell stored no checkpoint",
        spec.name
    );
    let _ = fs::remove_dir_all(&dir);
    sweep.cells.into_iter().next().unwrap().outcome.unwrap()
}

#[test]
fn run_drivers_agree_when_the_cycle_cap_fires() {
    let (mut warmup_caps, mut measured_caps) = (0, 0);
    for name in ["mcf", "tpch2"] {
        let spec = workload(name).unwrap();
        let apps = std::slice::from_ref(&spec);
        for factor in 1..=3 {
            let p = ExpParams {
                insts_per_core: 4_000,
                warmup_insts: 1_500,
                max_cycle_factor: factor,
                ..ExpParams::tiny()
            };
            for engine in [Engine::EventSkip, Engine::PerCycle] {
                let label = format!("{name} factor {factor} {engine:?}");
                let mut cfg = SystemConfig::paper_single_core(MechanismSpec::chargecache());
                cfg.engine = engine;
                let direct = run_configured(cfg.clone(), apps, &p).unwrap();
                // Both warmup and measured budgets are 5,500 × factor
                // cycles: 500 divides them, 1,000 does not (factor 1, 3).
                let mut warm_retired = 0;
                for interval in [500, 1_000] {
                    let mut probe = SampleSeries::default();
                    let probed = run_probed(cfg.clone(), apps, &p, interval, &mut probe).unwrap();
                    assert_eq!(probed, direct, "{label}: run_probed every {interval}");
                    // The first sample is taken at the warmup boundary.
                    warm_retired = probe.samples[0].min_retired;
                }
                for interval in [700, 1_000] {
                    let ckpt = checkpointed(&spec, engine, p, interval);
                    assert_eq!(ckpt, direct, "{label}: checkpointed every {interval}");
                }
                if warm_retired < p.warmup_insts {
                    warmup_caps += 1;
                } else if direct.hit_cycle_cap {
                    measured_caps += 1;
                }
            }
        }
    }
    assert!(warmup_caps > 0, "no case hit the cap during warmup");
    assert!(
        measured_caps > 0,
        "no case hit the cap in the measured phase only"
    );
}
