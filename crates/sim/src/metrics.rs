//! Run results and derived metrics (IPC, weighted speedup, RMPKC). The
//! disk-backed run cache persists a result through its
//! [`fasthash::codec::State`] encoding.

use chargecache::MechanismReport;
use cpu::{CoreStats, LlcStats};
use drampower::EnergyBreakdown;
use fasthash::codec::{CodecResult, State};
use memctrl::{CtrlStats, ReuseReport, RltlReport};

/// Everything measured in one simulation run (post-warmup).
///
/// Its [`State`] encoding, wrapped by [`RunResult::encode`] and
/// [`RunResult::decode`], is the `.run` payload: the fields in
/// declaration order, each part through its own impl.
#[derive(Debug, Clone, Default, PartialEq)]
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

    /// Serializes the full result: the `.run` payload the disk run cache
    /// ([`crate::cache`]) persists, which is the result's [`State`]
    /// encoding (see [`fasthash::codec`]). Floats travel as raw IEEE-754
    /// bit patterns, so `decode(encode(r)) == r` *bit-identically* — the
    /// property the resume-byte-identity golden stands on. JSON is
    /// deliberately not used here: `u64` counters exceed 2^53 on long
    /// runs and would lose precision.
    ///
    /// Layout changes MUST bump [`crate::cache::ENTRY_VERSION`]; old
    /// entries are then quarantined and re-simulated rather than
    /// misdecoded.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(512);
        self.put(&mut out);
        out
    }

    /// Inverse of [`RunResult::encode`]. `None` on any truncation,
    /// implausible count or trailing byte — the cache treats that as a
    /// corrupt entry (quarantine + re-simulate), never as a partial
    /// result.
    pub fn decode(bytes: &[u8]) -> Option<RunResult> {
        let mut input = bytes;
        let r = Self::take(&mut input).ok()?;
        input.is_empty().then_some(r)
    }
}

/// The `.run` payload: the parts in field order, each through its own
/// impl, with the five energy floats written in place (`drampower` does
/// not depend on `fasthash`).
impl State for RunResult {
    fn put(&self, out: &mut Vec<u8>) {
        let e = &self.energy;
        self.cores.put(out);
        self.cpu_cycles.put(out);
        self.ctrl.put(out);
        self.llc.put(out);
        self.mech.put(out);
        self.rltl.put(out);
        self.reuse.put(out);
        [
            e.background_pj,
            e.activate_pj,
            e.read_pj,
            e.write_pj,
            e.refresh_pj,
        ]
        .put(out);
        self.hit_cycle_cap.put(out);
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        self.cores.load(input)?;
        self.cpu_cycles.load(input)?;
        self.ctrl.load(input)?;
        self.llc.load(input)?;
        self.mech.load(input)?;
        self.rltl.load(input)?;
        self.reuse.load(input)?;
        let [background_pj, activate_pj, read_pj, write_pj, refresh_pj] = <[f64; 5]>::take(input)?;
        self.energy = EnergyBreakdown {
            background_pj,
            activate_pj,
            read_pj,
            write_pj,
            refresh_pj,
        };
        self.hit_cycle_cap.load(input)
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
    use chargecache::StatSink;

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
        // A core or counter count larger than the bytes left could hold
        // fails before anything is allocated for it. The sample has two
        // of each; the counters follow the cores, cycles, controller and
        // LLC counts.
        let counters_at = 8 + 2 * 40 + 8 + 28 * 8 + 6 * 8;
        for at in [0, counters_at] {
            assert_eq!(bytes[at..at + 8], 2u64.to_le_bytes());
            let mut bad = bytes.clone();
            bad[at..at + 8].copy_from_slice(&(bytes.len() as u64).to_le_bytes());
            assert!(RunResult::decode(&bad).is_none(), "count at {at} accepted");
        }
    }
}
