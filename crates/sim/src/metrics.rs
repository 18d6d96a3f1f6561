//! Run results and derived metrics (IPC, weighted speedup, RMPKC), plus
//! the exact binary codec the disk-backed run cache persists them with.

use chargecache::{MechanismReport, StatSink};
use cpu::{CoreStats, LlcStats};
use drampower::EnergyBreakdown;
use fasthash::codec::{
    put_bool, put_f64, put_str, put_u64, put_usize, take_bool, take_f64, take_str, take_u64,
    take_usize, CodecResult,
};
use memctrl::{CtrlStats, ReuseReport, RltlReport};

/// Everything measured in one simulation run (post-warmup).
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Per-core statistics.
    pub cores: Vec<CoreStats>,
    /// CPU cycles simulated (post-warmup).
    pub cpu_cycles: u64,
    /// Aggregated controller statistics.
    pub ctrl: CtrlStats,
    /// LLC statistics.
    pub llc: LlcStats,
    /// Mechanism statistics (named counters; see [`chargecache::report`]).
    pub mech: MechanismReport,
    /// RLTL measurement (includes warmup activations).
    pub rltl: RltlReport,
    /// Row-reuse-distance histogram (includes warmup activations).
    pub reuse: ReuseReport,
    /// DRAM energy over the measured interval.
    pub energy: EnergyBreakdown,
    /// True if the run was cut off by the safety cycle cap.
    pub hit_cycle_cap: bool,
}

impl RunResult {
    /// IPC of one core.
    pub fn ipc(&self, core: usize) -> f64 {
        if self.cpu_cycles == 0 {
            0.0
        } else {
            self.cores[core].retired as f64 / self.cpu_cycles as f64
        }
    }

    /// Sum of per-core IPCs (throughput).
    pub fn ipc_sum(&self) -> f64 {
        (0..self.cores.len()).map(|c| self.ipc(c)).sum()
    }

    /// Row misses (activations) per kilo-CPU-cycle — the paper's RMPKC
    /// x-axis metric.
    pub fn rmpkc(&self) -> f64 {
        if self.cpu_cycles == 0 {
            0.0
        } else {
            self.ctrl.activations() as f64 * 1000.0 / self.cpu_cycles as f64
        }
    }

    /// HCRAC hit rate, when the mechanism has one.
    pub fn hcrac_hit_rate(&self) -> Option<f64> {
        self.mech.hcrac_hit_rate()
    }

    /// Serializes the full result to the exact little-endian byte layout
    /// the disk run cache ([`crate::cache`]) persists, written with the
    /// [`fasthash::codec`] primitives. Floats are encoded
    /// as raw IEEE-754 bit patterns, so `decode(encode(r)) == r`
    /// *bit-identically* — the property the resume-byte-identity golden
    /// stands on. JSON is deliberately not used here: `u64` counters
    /// exceed 2^53 on long runs and would lose precision.
    ///
    /// Layout changes MUST bump [`crate::cache::ENTRY_VERSION`]; old
    /// entries are then quarantined and re-simulated rather than
    /// misdecoded.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(512);
        put_usize(&mut out, self.cores.len());
        for c in &self.cores {
            for v in [c.retired, c.cycles, c.loads, c.stores, c.stall_cycles] {
                put_u64(&mut out, v);
            }
        }
        put_u64(&mut out, self.cpu_cycles);
        let s = &self.ctrl;
        let ctrl = [
            s.reads,
            s.writes,
            s.forwarded_reads,
            s.row_hits,
            s.row_misses,
            s.row_conflicts,
            s.refreshes,
            s.read_latency_sum,
            s.read_latency_count,
        ];
        let sched = [s.sched_passes, s.sched_bank_visits, s.index_release_misses];
        let l = &self.llc;
        let llc = [
            l.read_accesses,
            l.read_hits,
            l.write_accesses,
            l.write_hits,
            l.fills,
            l.writebacks,
        ];
        for v in ctrl
            .into_iter()
            .chain(s.read_latency_hist)
            .chain(sched)
            .chain(llc)
        {
            put_u64(&mut out, v);
        }
        let counters: Vec<(&str, u64)> = self.mech.iter().collect();
        put_usize(&mut out, counters.len());
        for (name, value) in counters {
            put_str(&mut out, name);
            put_u64(&mut out, value);
        }
        for vs in [&self.rltl.intervals_ms, &self.rltl.rltl_fraction] {
            put_usize(&mut out, vs.len());
            vs.iter().for_each(|&v| put_f64(&mut out, v));
        }
        put_f64(&mut out, self.rltl.refresh_8ms_fraction);
        put_u64(&mut out, self.rltl.activations);
        for vs in [&self.reuse.bucket_bounds, &self.reuse.counts] {
            put_usize(&mut out, vs.len());
            vs.iter().for_each(|&v| put_u64(&mut out, v));
        }
        put_u64(&mut out, self.reuse.cold_or_beyond);
        put_u64(&mut out, self.reuse.activations);
        let e = &self.energy;
        for v in [
            e.background_pj,
            e.activate_pj,
            e.read_pj,
            e.write_pj,
            e.refresh_pj,
        ] {
            put_f64(&mut out, v);
        }
        put_bool(&mut out, self.hit_cycle_cap);
        out
    }

    /// Inverse of [`RunResult::encode`]. `None` on any truncation,
    /// implausible length or trailing byte — the cache treats that as a
    /// corrupt entry (quarantine + re-simulate), never as a partial
    /// result.
    pub fn decode(bytes: &[u8]) -> Option<RunResult> {
        let mut input = bytes;
        let r = Self::decode_from(&mut input).ok()?;
        input.is_empty().then_some(r)
    }

    fn decode_from(input: &mut &[u8]) -> CodecResult<RunResult> {
        let u64 = |input: &mut &[u8]| take_u64(input, "run result");
        let f64 = |input: &mut &[u8]| take_f64(input, "run result");
        // Cap implausible lengths before allocating.
        let len = |input: &mut &[u8], max: usize| match take_usize(input, "run result length")? {
            n if n > max => Err(format!("implausible run result length {n}")),
            n => Ok(n),
        };
        let n_cores = len(input, 4096)?;
        let mut cores = Vec::with_capacity(n_cores);
        for _ in 0..n_cores {
            cores.push(CoreStats {
                retired: u64(input)?,
                cycles: u64(input)?,
                loads: u64(input)?,
                stores: u64(input)?,
                stall_cycles: u64(input)?,
            });
        }
        let cpu_cycles = u64(input)?;
        let mut ctrl = CtrlStats {
            reads: u64(input)?,
            writes: u64(input)?,
            forwarded_reads: u64(input)?,
            row_hits: u64(input)?,
            row_misses: u64(input)?,
            row_conflicts: u64(input)?,
            refreshes: u64(input)?,
            read_latency_sum: u64(input)?,
            read_latency_count: u64(input)?,
            ..CtrlStats::default()
        };
        for b in ctrl.read_latency_hist.iter_mut() {
            *b = u64(input)?;
        }
        ctrl.sched_passes = u64(input)?;
        ctrl.sched_bank_visits = u64(input)?;
        ctrl.index_release_misses = u64(input)?;
        let llc = LlcStats {
            read_accesses: u64(input)?,
            read_hits: u64(input)?,
            write_accesses: u64(input)?,
            write_hits: u64(input)?,
            fills: u64(input)?,
            writebacks: u64(input)?,
        };
        let mut mech = MechanismReport::default();
        for _ in 0..len(input, 65_536)? {
            let name = take_str(input, "mechanism counter name")?;
            // `counter` pushes unseen names even at value 0, so zero-valued
            // counters survive the round trip (`has()` is preserved).
            mech.counter(&name, u64(input)?);
        }
        let n = len(input, 65_536)?;
        let intervals_ms = (0..n).map(|_| f64(input)).collect::<CodecResult<_>>()?;
        let n = len(input, 65_536)?;
        let rltl = RltlReport {
            intervals_ms,
            rltl_fraction: (0..n).map(|_| f64(input)).collect::<CodecResult<_>>()?,
            refresh_8ms_fraction: f64(input)?,
            activations: u64(input)?,
        };
        let n = len(input, 65_536)?;
        let bucket_bounds = (0..n).map(|_| u64(input)).collect::<CodecResult<_>>()?;
        let n = len(input, 65_536)?;
        let reuse = ReuseReport {
            bucket_bounds,
            counts: (0..n).map(|_| u64(input)).collect::<CodecResult<_>>()?,
            cold_or_beyond: u64(input)?,
            activations: u64(input)?,
        };
        let energy = EnergyBreakdown {
            background_pj: f64(input)?,
            activate_pj: f64(input)?,
            read_pj: f64(input)?,
            write_pj: f64(input)?,
            refresh_pj: f64(input)?,
        };
        Ok(RunResult {
            cores,
            cpu_cycles,
            ctrl,
            llc,
            mech,
            rltl,
            reuse,
            energy,
            hit_cycle_cap: take_bool(input, "hit_cycle_cap")?,
        })
    }
}

/// Weighted speedup of a multiprogrammed run versus per-app alone-IPCs
/// (Snavely & Tullsen): `Σ IPC_shared,i / IPC_alone,i`.
///
/// # Panics
///
/// Panics if the slices differ in length or an alone-IPC is zero.
pub fn weighted_speedup(shared_ipc: &[f64], alone_ipc: &[f64]) -> f64 {
    assert_eq!(shared_ipc.len(), alone_ipc.len());
    shared_ipc
        .iter()
        .zip(alone_ipc)
        .map(|(&s, &a)| {
            assert!(a > 0.0, "alone IPC must be positive");
            s / a
        })
        .sum()
}

/// Relative speedup of `value` over `baseline`, as a fraction
/// (0.05 = +5%).
pub fn speedup_over(value: f64, baseline: f64) -> f64 {
    assert!(baseline > 0.0, "baseline must be positive");
    value / baseline - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_speedup_identity() {
        let alone = [1.0, 2.0, 0.5];
        assert!((weighted_speedup(&alone, &alone) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_speedup_degrades_with_contention() {
        let shared = [0.5, 1.0];
        let alone = [1.0, 2.0];
        assert!((weighted_speedup(&shared, &alone) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_over_fraction() {
        assert!((speedup_over(1.1, 1.0) - 0.1).abs() < 1e-12);
        assert!(speedup_over(0.9, 1.0) < 0.0);
    }

    #[test]
    #[should_panic(expected = "alone IPC")]
    fn zero_alone_ipc_panics() {
        weighted_speedup(&[1.0], &[0.0]);
    }

    fn sample_result() -> RunResult {
        let mut mech = MechanismReport::default();
        mech.counter("cc.activates", 1234);
        mech.counter("cc.zero_valued", 0);
        let mut ctrl = CtrlStats {
            reads: u64::MAX - 7, // > 2^53: would not survive a JSON float
            row_hits: 3,
            ..Default::default()
        };
        ctrl.read_latency_hist[5] = 42;
        RunResult {
            cores: vec![
                CoreStats {
                    retired: 1000,
                    cycles: 2000,
                    loads: 10,
                    stores: 5,
                    stall_cycles: 7,
                },
                CoreStats::default(),
            ],
            cpu_cycles: 2000,
            ctrl,
            llc: LlcStats {
                read_accesses: 9,
                ..Default::default()
            },
            mech,
            rltl: RltlReport {
                intervals_ms: vec![1.0, 8.0, 16.0],
                rltl_fraction: vec![0.25, 0.5, 1.0],
                refresh_8ms_fraction: 0.125,
                activations: 77,
            },
            reuse: ReuseReport {
                bucket_bounds: vec![1, 2, 4],
                counts: vec![3, 0, 1],
                cold_or_beyond: 2,
                activations: 6,
            },
            energy: EnergyBreakdown {
                background_pj: 1.5,
                activate_pj: 0.1 + 0.2, // non-representable sum: bit-exactness matters
                read_pj: 3.0,
                write_pj: 0.0,
                refresh_pj: f64::MIN_POSITIVE,
            },
            hit_cycle_cap: true,
        }
    }

    #[test]
    fn codec_roundtrips_bit_identically() {
        let r = sample_result();
        let bytes = r.encode();
        let back = RunResult::decode(&bytes).expect("decodes");
        assert_eq!(r, back);
        // Zero-valued mechanism counters keep their presence.
        assert!(back.mech.has("cc.zero_valued"));
        // And the encoding itself is deterministic.
        assert_eq!(bytes, back.encode());
        // Frozen layout: `.run` entries written by earlier builds must
        // keep decoding to the same result.
        assert_eq!(
            (bytes.len(), fasthash::checksum_64(&bytes)),
            (635, 0xd5f5_201f_b0ac_aa69)
        );
    }

    #[test]
    fn codec_rejects_truncation_and_trailing_garbage() {
        let bytes = sample_result().encode();
        for cut in [0, 1, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                RunResult::decode(&bytes[..cut]).is_none(),
                "truncation at {cut} must not decode"
            );
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(RunResult::decode(&long).is_none(), "trailing byte accepted");
    }
}
