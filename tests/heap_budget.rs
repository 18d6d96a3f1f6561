//! Heap budget of one bench-scale cell and one eight-core mix: a
//! simulated cell's memory follows the state the run touches, its
//! request path does not allocate, and a memoized hit does not allocate
//! at all. The tests print their measured peaks (`-- --nocapture`).
//!
//! This file is its own test binary so its counting `#[global_allocator]`
//! sees only these tests, which take `SERIAL` because they read the
//! process-wide counters. Run it in release mode (as CI does):
//! `cargo test --release --test heap_budget -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError};

use chargecache::MechanismSpec;
use sim::api::Experiment;
use sim::{run_configured, ExpParams, SystemConfig};
use traces::{eight_core_mixes, workload, WorkloadSpec};

/// The system allocator, counting allocations and tracking live bytes.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Allocations made by the current thread.
    static THREAD_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Held by each test while it counts.
static SERIAL: Mutex<()> = Mutex::new(());

fn counted() {
    ALLOCS.fetch_add(1, Relaxed);
    // `try_with`: a thread being torn down has no slot left to count in.
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted();
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted();
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted();
        LIVE.fetch_sub(layout.size(), Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made and peak live heap (bytes above the starting level)
/// while one cell of `apps` runs on `cfg` under `p`.
fn cell_heap(cfg: SystemConfig, apps: &[WorkloadSpec], p: &ExpParams) -> (usize, usize) {
    let start = LIVE.load(Relaxed);
    PEAK.store(start, Relaxed);
    let allocs = ALLOCS.load(Relaxed);
    let r = run_configured(cfg, apps, p).expect("paper configuration");
    let (allocs, peak) = (ALLOCS.load(Relaxed) - allocs, PEAK.load(Relaxed) - start);
    assert!(!r.hit_cycle_cap, "the cell hit its cycle cap");
    drop(r);
    (allocs, peak)
}

/// A run of `insts` measured instructions per core, `warmup` before
/// them, at the figure benches' cycle cap and trace seed, spelled out so
/// no environment variable changes what is measured.
fn params(insts: u64, warmup: u64) -> ExpParams {
    ExpParams {
        insts_per_core: insts,
        warmup_insts: warmup,
        max_cycle_factor: 150,
        seed: 42,
        checkpoint_interval: 0,
    }
}

/// 1,464 KiB: the measured 1,046 KiB peak of the bench-scale `mcf` cell
/// plus 40 %. Most of it is the LLC's 320 KiB of 5-byte ways, the reuse
/// timeline and the per-row maps. The energy meter and the LLC are
/// fixed-size, but the RLTL and reuse maps and the reuse timeline grow
/// with the distinct rows a run activates, until the timeline compacts.
const PEAK_BUDGET: usize = 1_464 * 1024;

/// About 180 allocations of one cell (182 when this bound was set), plus
/// 150 %.
const ALLOC_BUDGET: usize = 455;

/// 2,074 KiB: the measured 1,481 KiB peak of the eight-core `w7` cell at
/// the scale of the benchmark's `mixes` grid, plus 40 %. Eight traces,
/// eight cores and their MSHRs share one LLC.
const MIX_PEAK_BUDGET: usize = 2_074 * 1024;

#[test]
fn bench_scale_cell_heap_follows_live_state() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let cfg = SystemConfig::paper_single_core(MechanismSpec::chargecache());
    let mcf = [workload("mcf").expect("paper workload")];
    let (allocs, peak) = cell_heap(cfg.clone(), &mcf, &params(120_000, 25_000));
    let (allocs_long, _) = cell_heap(cfg, &mcf, &params(240_000, 25_000));
    println!("mcf/chargecache: {allocs} allocations ({allocs_long} at 2x length), peak {peak} B");
    assert!(allocs <= ALLOC_BUDGET, "{allocs} allocations in one cell");
    assert!(
        allocs_long < allocs + 50,
        "allocations grow with run length: {allocs} -> {allocs_long}"
    );
    assert!(peak <= PEAK_BUDGET, "peak live heap {peak} B");
}

#[test]
fn eight_core_mix_heap_stays_within_its_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let w7 = eight_core_mixes()
        .into_iter()
        .find(|m| m.name == "w7")
        .expect("paper mix");
    let cfg = SystemConfig::paper_eight_core(MechanismSpec::chargecache());
    let (allocs, peak) = cell_heap(cfg, &w7.apps, &params(30_000, 6_250));
    println!("w7/chargecache: {allocs} allocations, peak {peak} B");
    assert!(peak <= MIX_PEAK_BUDGET, "peak live heap {peak} B");
}

/// A memoized hit is a table lookup under the plan's cached content key:
/// after one cold run, re-running the plan allocates nothing, for a
/// single-core cell and for an eight-core mix alike.
#[test]
fn memoized_hits_do_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let p = ExpParams {
        insts_per_core: 2_000,
        warmup_insts: 500,
        ..ExpParams::tiny()
    };
    let single = Experiment::new().workload(workload("tpch2").expect("paper workload"));
    let mix = Experiment::new().mix(eight_core_mixes().remove(0));
    for exp in [single, mix] {
        let plan = exp
            .mechanism(MechanismSpec::chargecache())
            .params(p)
            .plan()
            .expect("paper configuration")
            .cells
            .remove(0);
        let cold = plan.run(None).expect("cold run");
        let before = THREAD_ALLOCS.with(Cell::get);
        for _ in 0..100 {
            let hit = plan.run(None).expect("memoized hit");
            assert!(Arc::ptr_eq(&hit, &cold), "a hit re-simulated the cell");
        }
        let allocs = THREAD_ALLOCS.with(Cell::get) - before;
        assert_eq!(
            allocs, 0,
            "{}: 100 hits made {allocs} allocations",
            plan.subject
        );
    }
}
