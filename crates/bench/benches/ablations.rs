//! Ablations of the paper's design decisions:
//!
//! * **D1** — periodic (IIC/EC) vs exact per-entry invalidation: the
//!   paper claims the cheap scheme loses almost nothing.
//! * **D3** — HCRAC associativity: the paper reports 2-way within 2% of
//!   fully associative.
//! * **D5** — per-core private HCRACs vs one shared HCRAC of the same
//!   total capacity (the paper's footnote 7 design option).
//!
//! All three ablations are one `sim::api` grid over the eight-core
//! mixes: variants with identical resulting configurations (periodic ≡
//! 2-way ≡ private ≡ paper) deduplicate in the memoized run cache, so
//! the paper point is simulated once.

use bench::{banner, mean, mixes, pct, sweep_mix_count, workloads};
use chargecache::{MechanismSpec, ParamValue};
use memctrl::SchedPolicy;
use sim::api::{Experiment, SweepResult, Variant};
use sim::exp::ExpParams;

/// A labelled mechanism-spec patch (the ablation axes are all spec
/// parameters of the `chargecache` mechanism).
fn cc_variant(label: &str, key: &'static str, value: ParamValue) -> Variant {
    Variant::param_labelled(label, key, value)
}

fn hit_rate(sweep: &SweepResult, variant: &str) -> f64 {
    let hs: Vec<f64> = sweep
        .cells_of("chargecache", variant)
        .filter_map(|c| c.result().hcrac_hit_rate())
        .collect();
    mean(&hs)
}

fn main() {
    let p = ExpParams::bench();
    let mix_list = mixes(sweep_mix_count());

    let mut variants = vec![
        cc_variant(
            "periodic",
            "invalidation",
            ParamValue::Str("periodic".into()),
        ),
        cc_variant("exact", "invalidation", ParamValue::Str("exact".into())),
    ];
    for ways in [1usize, 2, 4, 8, 0] {
        variants.push(cc_variant(
            &format!("ways-{ways}"),
            "ways",
            ParamValue::Int(ways as i64),
        ));
    }
    variants.push(cc_variant("private", "shared", ParamValue::Bool(false)));
    variants.push(cc_variant("shared", "shared", ParamValue::Bool(true)));
    let sweep = Experiment::new()
        .mixes(mix_list)
        .mechanism(MechanismSpec::chargecache())
        .variants(variants)
        .params(p)
        .run()
        .expect("paper configuration is valid");

    banner(
        "Ablation D1: periodic (IIC/EC) vs exact invalidation",
        "the two-counter scheme loses a negligible amount of hit rate",
    );
    let hp = hit_rate(&sweep, "periodic");
    let he = hit_rate(&sweep, "exact");
    println!("periodic IIC/EC hit rate: {}", pct(hp));
    println!("exact expiry hit rate:    {}", pct(he));
    println!("premature-invalidation loss: {}\n", pct((he - hp).max(0.0)));

    banner(
        "Ablation D3: HCRAC associativity",
        "2-way is within ~2% of fully associative",
    );
    println!("{:>8} {:>12}", "ways", "hit rate");
    for ways in [1usize, 2, 4, 8, 0] {
        let label = if ways == 0 {
            "full".to_string()
        } else {
            ways.to_string()
        };
        println!(
            "{:>8} {:>12}",
            label,
            pct(hit_rate(&sweep, &format!("ways-{ways}")))
        );
    }
    println!();

    banner(
        "Ablation D5: private per-core HCRACs vs shared",
        "footnote 7 leaves sharing as future work; this quantifies it",
    );
    println!("private (128/core): {}", pct(hit_rate(&sweep, "private")));
    println!("shared (1024 total): {}", pct(hit_rate(&sweep, "shared")));
    println!("(an unpartitioned shared HCRAC lets one conflict-heavy app");
    println!(" evict everyone else's entries — interference the per-core");
    println!(" replication sidesteps)");
    println!();

    banner(
        "Ablation: scheduler composition (paper Section 8)",
        "ChargeCache helps under any scheduler; FR-FCFS is the Table 1 default",
    );
    // Single-core sweep: {FCFS, FR-FCFS} × {baseline, ChargeCache}.
    let sched_sweep = Experiment::new()
        .workloads(workloads())
        .mechanisms(&[MechanismSpec::baseline(), MechanismSpec::chargecache()])
        .variants([
            Variant::new("Fcfs", |cfg| cfg.ctrl.scheduler = SchedPolicy::Fcfs),
            Variant::new("FrFcfs", |cfg| cfg.ctrl.scheduler = SchedPolicy::FrFcfs),
        ])
        .params(p)
        .run()
        .expect("paper configuration is valid");
    let mut gains = Vec::new();
    for sched in [SchedPolicy::Fcfs, SchedPolicy::FrFcfs] {
        let label = format!("{sched:?}");
        let speedups: Vec<f64> = sched_sweep
            .cells_of("baseline", &label)
            .zip(sched_sweep.cells_of("chargecache", &label))
            .filter(|(b, _)| b.result().ipc(0) > 0.0)
            .map(|(b, c)| c.result().ipc(0) / b.result().ipc(0) - 1.0)
            .collect();
        let g = mean(&speedups);
        println!("{sched:?}: ChargeCache gains {} on average", pct(g));
        gains.push(g);
    }
    println!("(positive under both schedulers: the mechanism composes)");
    assert!(gains.iter().all(|&g| g > -0.005));
}
