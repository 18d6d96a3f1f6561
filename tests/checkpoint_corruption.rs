//! Robustness of `System::load_state` against damaged checkpoint bytes.
//!
//! A real mid-run payload — an eight-core ChargeCache run with queued
//! and in-flight requests — is cut at every length, and has a byte
//! flipped at every offset the decoder reads as framing (an enum tag, a
//! bool, a sequence length or a geometry count). The decode must fail
//! cleanly: no panic, and no allocation beyond what the input could
//! describe. This guards the plausibility caps on sequence lengths.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::Cell;

use sim::{ExpParams, System, SystemConfig};

/// Records the largest single allocation made on a thread while
/// `TRACK` is set there.
struct Counting;

thread_local! {
    static TRACK: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { Heap.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { Heap.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { Heap.realloc(ptr, layout, new_size) }
    }
}

fn note(size: usize) {
    let _ = TRACK.try_with(|t| {
        if t.get() {
            LARGEST.with(|l| l.set(l.get().max(size)));
        }
    });
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// A small eight-core ChargeCache system (mix w1): a 1 KiB LLC,
/// 16-slot windows, one channel, 8-entry HCRACs, a 1 ms refresh window
/// and an 8-deep write queue keep the payload near 13 KiB, so every
/// prefix can be decoded, while the controller still holds queued and
/// in-flight requests.
fn build() -> System {
    let mut cfg = SystemConfig::paper_eight_core("chargecache(entries=8)".parse().unwrap());
    cfg.llc.capacity_bytes = 1 << 10;
    cfg.core.window = 16;
    cfg.ctrl.write_queue = 8;
    cfg.ctrl.write_hi_watermark = 7;
    cfg.ctrl.write_lo_watermark = 2;
    cfg.dram.retention_ms = 1.0;
    cfg.dram.org.channels = 1;
    cfg.measure_energy = false;
    let seed = ExpParams::tiny().seed;
    let mix = &traces::eight_core_mixes()[0];
    let traces = mix
        .apps
        .iter()
        .enumerate()
        .map(|(core, spec)| {
            let core_seed = seed ^ (core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            spec.build(core_seed, cfg.region_base(core))
        })
        .collect();
    System::try_new(cfg, traces).unwrap()
}

/// The largest allocation a restore makes whatever its input: the
/// reuse tracker rebuilds its slot timeline (one 8-byte row key per
/// slot, 64 Ki slots) from the decoded map.
const FIXED_REBUILD: usize = 1 << 20;

/// Decodes `bytes` into `sys` the way a checkpoint resume does (trailing
/// bytes are an error), checking the allocation bound.
fn decode(sys: &mut System, bytes: &[u8]) -> Result<(), String> {
    let mut cur = bytes;
    LARGEST.with(|l| l.set(0));
    TRACK.with(|t| t.set(true));
    let res = sys.load_state(&mut cur);
    TRACK.with(|t| t.set(false));
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= 4 * bytes.len() + FIXED_REBUILD,
        "a {}-byte input allocated {largest} bytes at once",
        bytes.len()
    );
    res?;
    if cur.is_empty() {
        Ok(())
    } else {
        Err(format!("{} trailing bytes", cur.len()))
    }
}

#[test]
fn truncated_or_corrupt_checkpoints_fail_cleanly() {
    let mut sys = build();
    assert!(sys.run_until_retired(350, 50_000_000));
    assert!(sys.memory().queued_requests() > 0 && sys.memory().inflight_reads() > 0);
    let mut payload = Vec::new();
    assert!(sys.save_state(&mut payload));
    decode(&mut build(), &payload).expect("the intact payload restores");

    // The sweeps reuse one freshly built system: a failed decode leaves
    // it partially restored, and the next decode overwrites that state
    // (geometry is never decoded into, only checked against).
    let sys = &mut build();
    // Every strict prefix is an error.
    let cut: Vec<Result<(), String>> = (0..=payload.len())
        .map(|n| decode(sys, &payload[..n]))
        .collect();
    if let Some(n) = cut[..payload.len()].iter().position(Result::is_ok) {
        panic!("a {n}-byte prefix decoded");
    }
    // Cut right after byte `i` with that byte flipped: when the error
    // differs from the unflipped cut's, the decoder read byte `i` as
    // framing (a tag, a bool, a length's last byte, a geometry count)
    // or as a range-checked index.
    let mut framing = Vec::new();
    for i in 0..payload.len() {
        let mut bytes = payload[..=i].to_vec();
        bytes[i] ^= 0xFF;
        if decode(sys, &bytes) != cut[i + 1] {
            framing.push(i);
        }
    }
    assert!(
        framing.len() > 100,
        "only {} framing offsets",
        framing.len()
    );
    // The same flips in the full payload fail just as cleanly.
    for &i in &framing {
        let mut bad = payload.clone();
        bad[i] ^= 0xFF;
        assert!(
            decode(&mut build(), &bad).is_err(),
            "flipped framing byte {i} decoded"
        );
    }
}
