//! Scheduler cost: queue-depth scaling of the FR-FCFS pass and 8-core
//! mix throughput, before/after the bank-indexed rewrite.
//!
//! Two parts:
//!
//! * **Depth sweep** — drives one `MemorySystem` directly (no cores) with
//!   a seeded random request stream that keeps the read queue pegged at
//!   8/32/64 entries, and reports the wall cost of one scheduler pass and
//!   the bank evaluations per pass. The bank-indexed scheduler's per-pass
//!   cost must stay flat as the queue deepens (the flat-scan design grew
//!   linearly with occupancy).
//! * **8-core mix** — the `w1` mix at a quarter of the bench-scale run
//!   length under both engines, isolating what the scheduler rewrite
//!   buys the paper's multi-programmed configuration.
//!
//! Prints a human table and a JSON blob. `CC_TINY=1` shrinks both parts
//! for CI smoke.
//!
//! ```sh
//! cargo bench -p bench --bench scheduler
//! ```

use std::time::Instant;

use chargecache::MechanismSpec;
use dram::DramConfig;
use memctrl::{AccessKind, CtrlConfig, MemRequest, MemorySystem};
use sim::exp::{run_configured, ExpParams};
use sim::{Engine, SystemConfig};
use traces::eight_core_mixes;

struct DepthRow {
    depth: usize,
    bus_cycles: u64,
    wall_s: f64,
    passes: u64,
    visits: u64,
    reads_done: u64,
}

/// Runs the controller-only workload at one read-queue depth.
fn run_depth(depth: usize, bus_cycles: u64) -> DepthRow {
    let dram = DramConfig::ddr3_1600_paper();
    let ctrl = CtrlConfig {
        read_queue: depth,
        write_queue: depth,
        write_hi_watermark: (depth * 3 / 4).max(2),
        write_lo_watermark: depth / 4,
        ..CtrlConfig::paper_single_core()
    };
    let mut mem = MemorySystem::baseline(dram, ctrl);
    // Deterministic LCG over a 256 MB footprint: irregular banks and rows
    // with enough row reuse to exercise every FR-FCFS class.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 16
    };
    let mut done = Vec::new();
    let t0 = Instant::now();
    for now in 0..bus_cycles {
        // Keep the queues pegged: the scheduler always sees ~depth
        // entries, which is exactly the regime the flat scan paid for.
        while mem.queued_requests() < depth {
            let kind = if rng() % 4 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let addr = (rng() % (1 << 22)) * 64;
            if mem
                .try_enqueue(
                    MemRequest {
                        addr,
                        kind,
                        core: 0,
                    },
                    now,
                )
                .is_none()
            {
                break;
            }
        }
        done.clear();
        mem.tick_into(now, &mut done);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let s = mem.stats();
    DepthRow {
        depth,
        bus_cycles,
        wall_s,
        passes: s.sched_passes,
        visits: s.sched_bank_visits,
        reads_done: s.read_latency_count,
    }
}

struct MixRow {
    cycles: u64,
    dense_s: f64,
    skip_s: f64,
    passes: u64,
    visits: u64,
}

/// Times the `w1` eight-core mix under both engines at a quarter of the
/// bench-scale run length.
fn run_mix() -> MixRow {
    let p = ExpParams::bench();
    let p8 = ExpParams {
        insts_per_core: p.insts_per_core / 4,
        warmup_insts: p.warmup_insts / 4,
        ..p
    };
    let mix = &eight_core_mixes()[0];
    let cfg8 = SystemConfig::paper_eight_core(MechanismSpec::chargecache());
    let run = |engine: Engine| {
        let mut c = cfg8.clone();
        c.engine = engine;
        let t0 = Instant::now();
        let r = run_configured(c, &mix.apps, &p8).expect("paper configuration is valid");
        (r, t0.elapsed().as_secs_f64())
    };
    let (dense_r, dense_s) = run(Engine::PerCycle);
    let (skip_r, skip_s) = run(Engine::EventSkip);
    assert_eq!(
        dense_r.cpu_cycles, skip_r.cpu_cycles,
        "w1: engines disagree on simulated time"
    );
    assert_eq!(
        dense_r.ctrl, skip_r.ctrl,
        "w1: engines disagree on controller stats"
    );
    MixRow {
        cycles: dense_r.cpu_cycles,
        dense_s,
        skip_s,
        passes: skip_r.ctrl.sched_passes,
        visits: skip_r.ctrl.sched_bank_visits,
    }
}

fn main() {
    let tiny = std::env::var_os("CC_TINY").is_some_and(|v| v != "0" && !v.is_empty());
    let bus_cycles: u64 = if tiny { 40_000 } else { 2_000_000 };

    println!("\n=== scheduler pass cost vs read-queue depth ===\n");
    println!(
        "{:>6} {:>12} {:>12} {:>10} {:>12} {:>12}",
        "depth", "bus cycles", "passes", "ns/pass", "visits/pass", "reads done"
    );
    let mut rows = Vec::new();
    for depth in [8, 32, 64] {
        let r = run_depth(depth, bus_cycles);
        println!(
            "{:>6} {:>12} {:>12} {:>10.1} {:>12.2} {:>12}",
            r.depth,
            r.bus_cycles,
            r.passes,
            r.wall_s * 1e9 / r.passes as f64,
            r.visits as f64 / r.passes as f64,
            r.reads_done
        );
        rows.push(r);
    }

    println!("\n=== w1 (8-core) throughput, quarter bench-scale parameters ===\n");
    let m = run_mix();
    let dense_cps = m.cycles as f64 / m.dense_s;
    let skip_cps = m.cycles as f64 / m.skip_s;
    println!(
        "sim cycles {} | per-cycle {:.3e} cps | event-skip {:.3e} cps | {:.0} passes ({:.2} bank visits/pass)",
        m.cycles,
        dense_cps,
        skip_cps,
        m.passes,
        m.visits as f64 / m.passes as f64
    );

    // Machine-readable record.
    let mut json = String::from("{\n  \"bench\": \"scheduler\",\n  \"depth_sweep\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"read_queue\": {}, \"bus_cycles\": {}, \"passes\": {}, \"ns_per_pass\": {:.1}, \"bank_visits_per_pass\": {:.2}}}{}\n",
            r.depth,
            r.bus_cycles,
            r.passes,
            r.wall_s * 1e9 / r.passes as f64,
            r.visits as f64 / r.passes as f64,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"w1_eight_core\": {{\"sim_cycles\": {}, \"per_cycle_cps\": {:.0}, \"event_skip_cps\": {:.0}, \"sched_passes\": {}, \"bank_visits_per_pass\": {:.2}}}\n}}",
        m.cycles, dense_cps, skip_cps, m.passes, m.visits as f64 / m.passes as f64
    ));
    println!("\n{json}");
}
