//! Host-speed calibration.
//!
//! A shared 2-vCPU host drifts: for a minute or more at a time its memory
//! hierarchy runs up to 45 % slower, and everything else, process launch
//! included, up to 10 % slower. A fixed reference kernel, run on both
//! threads around every repetition, measures that drift, and the
//! benchmark divides times by the factor that fits the work: simulation
//! work by [`Calibration::bracket`] of its repetition, cache-resident work
//! by the run's [`Calibration::core`]. Rates are multiplied instead.
//!
//! The kernel has two parts, for the two kinds of work the benchmark
//! times: a dependent random walk over a 4 MiB table (the LLC model's
//! footprint, sensitive to the memory hierarchy) and one over a 16 KiB
//! table (cache-resident, sensitive to core speed only). Each part's
//! slowdown is its time over a fixed reference time, taken on the host
//! the benchmark was built on; the reference times only set the unit.
//!
//! Reported times are therefore in reference-host units: they equal raw
//! time on a host that runs the kernel in its reference time, they stay
//! put when the whole host slows down, and a change to the simulator
//! moves them exactly as much as it moves raw time. The kernel is the
//! benchmark's own code, so no simulator change can move it.

use std::time::Instant;

/// Reference times (ms) of the memory-bound and the cache-resident part.
const REFERENCE_MS: [f64; 2] = [16.0, 8.0];

/// A dependent pseudo-random read-modify-write walk of `steps` steps over
/// a fresh table of `words` u64 (a power of two). Returns a checksum so
/// the work cannot be elided.
fn walk(words: usize, steps: usize, seed: u64) -> u64 {
    let mut a: Vec<u64> = (0..words as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut x = seed | 1;
    let mut acc = 0u64;
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = ((x ^ acc) as usize) & (words - 1);
        acc = acc.wrapping_add(a[i]).rotate_left(5);
        a[i] = acc ^ x;
    }
    acc
}

fn timed(words: usize, steps: usize, seed: u64) -> f64 {
    let t = Instant::now();
    std::hint::black_box(walk(words, steps, std::hint::black_box(seed)));
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `f(thread index)` on `threads` threads at once; the mean result.
fn on_threads(threads: usize, f: impl Fn(u64) -> f64 + Sync) -> f64 {
    let f = &f;
    let sum: f64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads as u64).map(|t| s.spawn(move || f(t))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread panicked"))
            .sum()
    });
    sum / threads as f64
}

/// One calibration sample: both parts on `threads` threads at once.
/// Returns each part's slowdown, memory-bound then cache-resident
/// (above 1 on a slower host).
pub fn sample(threads: usize) -> [f64; 2] {
    let memory = on_threads(threads, |t| timed(1 << 19, 200_000, t + 1)) / REFERENCE_MS[0];
    let core = on_threads(threads, |t| timed(1 << 11, 2_000_000, t + 1)) / REFERENCE_MS[1];
    [memory, core]
}

/// Per-run calibration samples.
#[derive(Debug, Default)]
pub struct Calibration {
    samples: Vec<[f64; 2]>,
}

impl Calibration {
    /// Takes one [`sample`] on `threads` threads.
    pub fn take(&mut self, threads: usize) {
        self.samples.push(sample(threads));
    }

    /// The simulation-work factor between samples `i` and `i + 1`: the
    /// geometric mean of both parts' slowdowns, averaged (geometrically)
    /// over the two samples.
    pub fn bracket(&self, i: usize) -> f64 {
        let [a, b] = [
            self.samples[i],
            self.samples[(i + 1).min(self.samples.len() - 1)],
        ];
        (a[0] * a[1] * b[0] * b[1]).powf(0.25)
    }

    /// The run's factor for cache-resident work: the median core-only
    /// slowdown over all samples.
    pub fn core(&self) -> f64 {
        crate::stats::median(&self.samples.iter().map(|p| p[1]).collect::<Vec<_>>())
    }
}
