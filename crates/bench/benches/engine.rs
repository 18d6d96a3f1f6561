//! Engine throughput: simulated CPU cycles per wall-clock second for the
//! dense per-cycle loop versus the event-driven cycle-skipping engine, on
//! the Figure-7-style workload set (plus one eight-core mix).
//!
//! Prints a human table and a JSON blob. A single-shot probe: the
//! repository benchmark (`BENCHMARK.json`, `perfbench/`) is where
//! end-to-end throughput is measured and compared. Run with:
//!
//! ```sh
//! cargo bench -p bench --bench engine
//! ```
//!
//! `CC_SCALE=N` lengthens the measured runs N×.

use std::time::Instant;

use chargecache::MechanismSpec;
use sim::exp::{run_configured, ExpParams};
use sim::{Engine, SystemConfig};
use traces::{eight_core_mixes, workload, WorkloadSpec};

struct Row {
    label: String,
    cycles: u64,
    dense_s: f64,
    skip_s: f64,
}

fn time_engines(label: &str, cfg: &SystemConfig, apps: &[WorkloadSpec], p: &ExpParams) -> Row {
    // Times the un-memoized driver directly: the api-level run cache
    // would turn the second engine's run into a lookup.
    let run = |engine: Engine| {
        let mut c = cfg.clone();
        c.engine = engine;
        let t0 = Instant::now();
        let r = run_configured(c, apps, p).expect("paper configuration is valid");
        (r, t0.elapsed().as_secs_f64())
    };
    let (dense_r, dense_s) = run(Engine::PerCycle);
    let (skip_r, skip_s) = run(Engine::EventSkip);
    assert_eq!(
        dense_r.cpu_cycles, skip_r.cpu_cycles,
        "{label}: engines disagree on simulated time"
    );
    Row {
        label: label.to_string(),
        cycles: dense_r.cpu_cycles,
        dense_s,
        skip_s,
    }
}

fn main() {
    let p = ExpParams::bench();
    // The paper's Figure 7 sweep ordered by memory intensity: an
    // LLC-resident app, mid-intensity Zipf/stream apps, and the
    // DRAM-bound extremes where cycle skipping matters most.
    let singles = ["hmmer", "tpch6", "libquantum", "mcf", "STREAMcopy"];
    let mut rows = Vec::new();
    for name in singles {
        let spec = workload(name).expect("paper workload");
        let cfg = SystemConfig::paper_single_core(MechanismSpec::chargecache());
        rows.push(time_engines(name, &cfg, std::slice::from_ref(&spec), &p));
    }
    // One eight-core mix at a reduced instruction budget (8 cores of
    // work per run).
    let mix = &eight_core_mixes()[0];
    let p8 = ExpParams {
        insts_per_core: p.insts_per_core / 4,
        warmup_insts: p.warmup_insts / 4,
        ..p
    };
    let cfg8 = SystemConfig::paper_eight_core(MechanismSpec::chargecache());
    rows.push(time_engines("w1 (8-core)", &cfg8, &mix.apps, &p8));

    println!("\n=== engine throughput (simulated CPU cycles / wall second) ===\n");
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>8}",
        "workload", "sim cycles", "per-cycle/s", "event-skip/s", "speedup"
    );
    let mut total_dense = 0.0;
    let mut total_skip = 0.0;
    for r in &rows {
        total_dense += r.dense_s;
        total_skip += r.skip_s;
        println!(
            "{:<14} {:>12} {:>12.3e} {:>12.3e} {:>7.2}x",
            r.label,
            r.cycles,
            r.cycles as f64 / r.dense_s,
            r.cycles as f64 / r.skip_s,
            r.dense_s / r.skip_s
        );
    }
    println!(
        "\ntotal wall: per-cycle {total_dense:.2} s, event-skip {total_skip:.2} s ({:.2}x)\n",
        total_dense / total_skip
    );

    // Machine-readable record.
    let mut json = String::from(
        "{\n  \"bench\": \"engine\",\n  \"unit\": \"simulated_cpu_cycles_per_wall_second\",\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"sim_cycles\": {}, \"per_cycle_cps\": {:.0}, \"event_skip_cps\": {:.0}, \"speedup\": {:.3}}}{}\n",
            r.label,
            r.cycles,
            r.cycles as f64 / r.dense_s,
            r.cycles as f64 / r.skip_s,
            r.dense_s / r.skip_s,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"total_speedup\": {:.3}\n}}",
        total_dense / total_skip
    ));
    println!("{json}");
}
