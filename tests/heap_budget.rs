//! Heap budget of one bench-scale cell: a simulated cell's memory follows
//! the state the run touches, its request path does not allocate, and a
//! memoized hit does not allocate at all.
//!
//! This file is its own test binary so its counting `#[global_allocator]`
//! sees only these tests, which take `SERIAL` because they read the
//! process-wide counters. Run it in release mode (as CI does):
//! `cargo test --release --test heap_budget`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError};

use chargecache::MechanismSpec;
use sim::api::Experiment;
use sim::{run_configured, ExpParams, SystemConfig};
use traces::{eight_core_mixes, workload};

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
/// while one `mcf`/ChargeCache cell of `insts` measured instructions runs.
fn cell_heap(insts: u64) -> (usize, usize) {
    let cfg = SystemConfig::paper_single_core(MechanismSpec::chargecache());
    let apps = [workload("mcf").expect("paper workload")];
    // The figure benches' scale, spelled out so no environment variable
    // changes what is measured.
    let p = ExpParams {
        insts_per_core: insts,
        warmup_insts: 25_000,
        max_cycle_factor: 150,
        seed: 42,
        checkpoint_interval: 0,
    };
    let start = LIVE.load(Relaxed);
    PEAK.store(start, Relaxed);
    let allocs = ALLOCS.load(Relaxed);
    let r = run_configured(cfg, &apps, &p).expect("paper configuration");
    let (allocs, peak) = (ALLOCS.load(Relaxed) - allocs, PEAK.load(Relaxed) - start);
    assert!(!r.hit_cycle_cap, "the cell hit its cycle cap");
    drop(r);
    (allocs, peak)
}

/// 2 MiB: the measured 1.43 MiB peak (the LLC's 576 KiB of 9-byte ways,
/// the reuse timeline, the HCRAC and the per-row maps) plus 40 %. The
/// energy meter is fixed-size, so nothing here grows with run length.
const PEAK_BUDGET: usize = 2 * 1024 * 1024;

/// The measured 182 allocations of one cell, plus 150 %.
const ALLOC_BUDGET: usize = 455;

#[test]
fn bench_scale_cell_heap_follows_live_state() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (allocs, peak) = cell_heap(120_000);
    let (allocs_long, _) = cell_heap(240_000);
    println!("mcf/chargecache: {allocs} allocations ({allocs_long} at 2x length), peak {peak} B");
    assert!(allocs <= ALLOC_BUDGET, "{allocs} allocations in one cell");
    assert!(
        allocs_long < allocs + 50,
        "allocations grow with run length: {allocs} -> {allocs_long}"
    );
    assert!(peak <= PEAK_BUDGET, "peak live heap {peak} B");
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
