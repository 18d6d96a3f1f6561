//! Mechanism plugin-API overhead: does resolving mechanisms through the
//! `MechanismSpec` → `MechanismRegistry` path cost anything measurable
//! versus constructing the concrete types directly (the seed's enum
//! path)?
//!
//! Two measurements:
//!
//! 1. **Construction** — ns per mechanism build, registry vs direct.
//!    The registry adds one `RwLock` read and a name lookup per channel
//!    per system build; runs build a handful of mechanisms each, so even
//!    microseconds here would be invisible.
//! 2. **End-to-end** — simulated CPU cycles per wall second on the
//!    Figure-7 subset under ChargeCache, through the spec path. The
//!    in-loop dispatch is `Box<dyn LatencyMechanism>` in both worlds, so
//!    this should match the `engine` bench's event-skip rows.
//!
//! Prints a human table and a JSON blob. Run with:
//!
//! ```sh
//! cargo bench -p bench --bench mechanisms
//! ```

use std::hint::black_box;
use std::time::Instant;

use chargecache::{registry, ChargeCache, ChargeCacheConfig, MechanismContext, MechanismSpec};
use dram::TimingParams;
use sim::exp::{run_configured, ExpParams};
use sim::SystemConfig;
use traces::workload;

/// Times `f` and returns ns/op.
fn time_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut iters = 16u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let dt = t0.elapsed();
        if dt.as_millis() >= 50 || iters >= 1 << 24 {
            return dt.as_nanos() as f64 / iters as f64;
        }
        iters *= 4;
    }
}

fn main() {
    let timing = TimingParams::ddr3_1600();

    // 1. Construction cost.
    let direct_ns = time_ns(|| ChargeCache::new(ChargeCacheConfig::paper(), &timing, 8));
    let spec = MechanismSpec::chargecache();
    let registry_ns = time_ns(|| {
        registry::build_spec(
            &spec,
            &MechanismContext {
                timing: &timing,
                cores: 8,
            },
        )
        .expect("built-in spec")
    });
    println!("\n=== mechanism construction (ns/build) ===\n");
    println!("direct ChargeCache::new: {direct_ns:>10.1} ns");
    println!("registry build_spec:     {registry_ns:>10.1} ns");
    println!(
        "registry overhead:       {:>10.1} ns/build (amortized over a whole run: ~0)",
        registry_ns - direct_ns
    );

    // 2. End-to-end throughput through the spec path.
    let p = ExpParams::bench();
    let singles = ["hmmer", "tpch6", "libquantum", "mcf", "STREAMcopy"];
    println!("\n=== end-to-end throughput, spec-resolved ChargeCache ===\n");
    println!(
        "{:<14} {:>12} {:>14}",
        "workload", "sim cycles", "event-skip/s"
    );
    let mut rows = Vec::new();
    for name in singles {
        let w = workload(name).expect("paper workload");
        let cfg = SystemConfig::paper_single_core(MechanismSpec::chargecache());
        // One warm-up run (allocator/page-cache effects), then measure —
        // the same discipline `benches/engine.rs` effectively has, so the
        // numbers are comparable against its rows.
        run_configured(cfg.clone(), std::slice::from_ref(&w), &p).expect("valid configuration");
        let t0 = Instant::now();
        let r = run_configured(cfg, std::slice::from_ref(&w), &p).expect("valid configuration");
        let secs = t0.elapsed().as_secs_f64();
        let cps = r.cpu_cycles as f64 / secs;
        println!("{name:<14} {:>12} {cps:>14.3e}", r.cpu_cycles);
        rows.push((name, r.cpu_cycles, cps));
    }

    // Machine-readable record.
    let mut json = String::from("{\n  \"bench\": \"mechanisms\",\n  \"construction_ns\": {\n");
    json.push_str(&format!("    \"direct\": {direct_ns:.1},\n"));
    json.push_str(&format!("    \"registry\": {registry_ns:.1}\n  }},\n"));
    json.push_str("  \"unit\": \"simulated_cpu_cycles_per_wall_second\",\n  \"rows\": [\n");
    for (i, (name, cycles, cps)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{name}\", \"sim_cycles\": {cycles}, \"event_skip_cps\": {cps:.0}}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}");
    println!("\n{json}");
}
