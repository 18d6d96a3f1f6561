//! Content-key stability: every `.run` and `.ckpt` file is named by a
//! cell's content key, which hashes the `Debug` text of its
//! configuration. These goldens pin the keys of cells that carry
//! non-default parameters on every spec axis (mechanism, timing, family)
//! plus the paper-default cell, so a refactor that changes any spec's
//! `Debug` form — and would silently turn every existing cache cold —
//! fails here instead.

use chargecache::MechanismSpec;
use dram::{FamilySpec, TimingSpec};
use sim::api::Experiment;
use sim::exp::ExpParams;
use traces::{eight_core_mixes, workload};

fn keys(exp: Experiment) -> Vec<String> {
    exp.plan()
        .expect("valid experiment")
        .cells
        .iter()
        .map(|c| {
            format!(
                "{}/{}/{}/{} {:032x}",
                c.subject,
                c.family,
                c.timing,
                c.mechanism,
                c.content_key()
            )
        })
        .collect()
}

#[test]
fn non_default_specs_on_every_axis_keep_their_content_keys() {
    let mechanisms: Vec<MechanismSpec> = [
        "chargecache(entries=256,duration=2ms)",
        "cc-nuat(invalidation=exact,shared=true)",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect();
    let exp = |family: &str| {
        Experiment::new()
            .workload(workload("mcf").unwrap())
            .family(family.parse::<FamilySpec>().unwrap())
            .mechanisms(&mechanisms)
            .params(ExpParams::tiny())
    };
    let mut got = keys(
        exp("ddr4(bank_groups=2)")
            .timing("ddr3-1866(trcd=12,tck=1.07)".parse::<TimingSpec>().unwrap()),
    );
    // HBM2's burst cannot carry a DDR3 bin; it runs its own default bin.
    got.extend(keys(exp("hbm2(refresh=per-bank)")));
    assert_eq!(
        got,
        [
            "mcf/ddr4(bank_groups=2)/ddr3-1866(trcd=12,tck=1.07)/chargecache(entries=256,duration=2ms) 3d025a5c96155ad930cc3828cdab86a0",
            "mcf/ddr4(bank_groups=2)/ddr3-1866(trcd=12,tck=1.07)/cc-nuat(invalidation=exact,shared=true) 0e5df7768b40b5d4aa718ad04a9cc70c",
            "mcf/hbm2(refresh=per-bank)/hbm2-1000/chargecache(entries=256,duration=2ms) a2f889e8706eadf0fe414a128072ab14",
            "mcf/hbm2(refresh=per-bank)/hbm2-1000/cc-nuat(invalidation=exact,shared=true) 86983a6caa2e5f47d038689c51263328",
        ]
    );
}

#[test]
fn paper_default_cells_keep_their_content_keys() {
    // Today's `ExpParams::bench()` defaults, spelled out: `bench()`
    // reads `CC_TINY`/`CC_SCALE`, and the pinned keys must not.
    let defaults = ExpParams {
        insts_per_core: 120_000,
        warmup_insts: 25_000,
        max_cycle_factor: 150,
        seed: 42,
        checkpoint_interval: 0,
    };
    // Without either variable `bench()` must still equal them: a changed
    // default would change every default cell's key and turn caches cold.
    if std::env::var_os("CC_TINY").is_none() && std::env::var_os("CC_SCALE").is_none() {
        assert_eq!(ExpParams::bench(), defaults);
    }
    let exp = Experiment::new()
        .workload(workload("mcf").unwrap())
        .mix(eight_core_mixes()[0].clone())
        .mechanisms(&[MechanismSpec::baseline(), MechanismSpec::chargecache()])
        .params(defaults);
    assert_eq!(
        keys(exp),
        [
            "mcf/ddr3/ddr3-1600/baseline f2f52489f9a4628c7090a6b42a6c8682",
            "mcf/ddr3/ddr3-1600/chargecache 844e9307aa8aa6eead28d97fe45e12a3",
            "w1/ddr3/ddr3-1600/baseline dcf7da03e55924fbf9ea27c9451860cf",
            "w1/ddr3/ddr3-1600/chargecache ab772d27e8d2dd4cca6c2a4a2d54d4e8",
        ]
    );
}
