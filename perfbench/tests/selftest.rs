//! Self-test of the benchmark's own machinery: the traced replica must
//! reproduce `sim`'s results bit for bit, the percentile helper must
//! refuse thin tails, and the oracle must cover every cell.

use chargecache::MechanismSpec;
use perfbench::grid::{self, Workload, DEFAULT_TRACE_SEED, HELDOUT_TRACE_SEED};
use perfbench::replica;
use perfbench::stats::percentile;
use sim::{run_configured, Engine, ExpParams, SystemConfig};
use traces::{eight_core_mixes, workload};

/// The tiny scale of the repository's integration tests, spelled out.
fn tiny() -> ExpParams {
    ExpParams {
        insts_per_core: 8_000,
        warmup_insts: 2_000,
        max_cycle_factor: 300,
        seed: 42,
        checkpoint_interval: 0,
    }
}

fn assert_replica_matches(cfg: SystemConfig, apps: &[traces::WorkloadSpec]) {
    let p = tiny();
    let want = run_configured(cfg.clone(), apps, &p).expect("valid configuration");
    let (got, layers) = replica::run_cell(&cfg, apps, &p).expect("valid configuration");
    assert_eq!(
        got.encode(),
        want.encode(),
        "replica diverged from sim::System"
    );
    assert_eq!(layers.cells, 1);
    assert!(layers.core_steps > 0 && layers.ticks > 0);
    assert_eq!(
        layers.attributed_ns(),
        layers.run_ns,
        "self times must tile the cell span"
    );
}

#[test]
fn replica_reproduces_a_single_core_cell() {
    let mut cfg = SystemConfig::paper_single_core(MechanismSpec::chargecache());
    cfg.engine = Engine::EventSkip;
    assert_replica_matches(cfg, &[workload("mcf").expect("paper workload")]);
}

#[test]
fn replica_reproduces_an_eight_core_cell() {
    let mut cfg = SystemConfig::paper_eight_core(MechanismSpec::chargecache());
    cfg.engine = Engine::EventSkip;
    let mix = eight_core_mixes().into_iter().next().expect("w1");
    assert_replica_matches(cfg, &mix.apps);
}

#[test]
fn percentile_refuses_a_thin_tail() {
    let xs: Vec<f64> = (0..99).map(f64::from).collect();
    let err = percentile(&xs, 90.0).unwrap_err();
    assert!(err.contains("9 beyond"), "{err}");
    let xs: Vec<f64> = (0..100).map(f64::from).collect();
    assert_eq!(percentile(&xs, 90.0), Ok(89.0));
    assert!(percentile(&xs[..19], 50.0).is_err());
    assert!(percentile(&xs[..20], 50.0).is_ok());
}

#[test]
fn every_cell_is_pinned_at_both_seeds() {
    for w in Workload::ALL {
        for seed in [DEFAULT_TRACE_SEED, HELDOUT_TRACE_SEED] {
            let cells = grid::grid(w, seed).expect("grid plans");
            let pins = grid::pinned(w, seed).expect("seed is pinned");
            assert_eq!(pins.len(), cells.len(), "{} at {seed}", w.name());
            assert!(cells.iter().all(|c| pins.contains_key(&c.id)));
        }
    }
    assert!(grid::pinned(Workload::Singles, 7).is_none());
}

#[test]
fn grid_sizes_match_the_paper_figure() {
    let n = |w| grid::grid(w, DEFAULT_TRACE_SEED).expect("grid plans").len();
    assert_eq!(n(Workload::Singles), 22 * 5);
    assert_eq!(n(Workload::Served), 22 * 5);
    // 20 mixes × 5 mechanisms, plus one alone run per distinct app.
    assert!(n(Workload::Mixes) > 100 && n(Workload::Mixes) <= 122);
}

#[test]
fn order_is_a_seeded_permutation() {
    let a = grid::order(110, 3);
    let mut sorted = a.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..110).collect::<Vec<_>>());
    assert_eq!(a, grid::order(110, 3));
    assert_ne!(a, grid::order(110, 4));
}
