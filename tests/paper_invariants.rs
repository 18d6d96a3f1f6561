//! Paper-facing numeric invariants that must hold exactly (they do not
//! depend on the synthetic workloads): circuit anchors, Table 2, the
//! overhead equations, and the Table 1 configuration encoding.

use bitline::derive::{CycleQuantized, ReducedTimings};
use bitline::ActivationModel;
use chargecache::{ChargeCacheConfig, MechanismSpec, NuatConfig, OverheadModel};
use dram::{DramConfig, TimingParams};
use sim::SystemConfig;

#[test]
fn figure6_anchors_hold_exactly() {
    let m = ActivationModel::calibrated();
    assert!((m.ready_time_ns(0.0) - 10.0).abs() < 1e-9);
    assert!((m.ready_time_ns(64.0) - 14.5).abs() < 1e-9);
    assert!((m.trcd_reduction_ns(0.0) - 4.5).abs() < 1e-9);
    assert!((m.tras_reduction_ns(0.0) - 9.6).abs() < 1e-9);
}

#[test]
fn table2_rows_hold_exactly() {
    for (d, rcd, ras) in [(1.0, 8.0, 22.0), (4.0, 9.0, 24.0), (16.0, 11.0, 28.0)] {
        let t = ReducedTimings::for_duration_ms(d);
        assert_eq!(t.trcd_ns, rcd, "tRCD at {d} ms");
        assert_eq!(t.tras_ns, ras, "tRAS at {d} ms");
    }
    let b = ReducedTimings::baseline();
    assert_eq!(b.trcd_ns, 13.75);
    assert_eq!(b.tras_ns, 35.0);
}

#[test]
fn paper_headline_cycle_reductions() {
    // Section 4.3: "4/8 cycle reduction in tRCD/tRAS" at 1 ms, 800 MHz.
    let q = CycleQuantized::for_duration_ms(1.0, 1.25);
    assert_eq!((q.trcd_reduction, q.tras_reduction), (4, 8));
}

#[test]
fn section63_overhead_numbers() {
    let m = OverheadModel::paper_8core();
    assert_eq!(m.storage_bytes(), 5376);
    assert_eq!(m.storage_bytes_per_core(), 672);
    assert!((m.area_mm2() - 0.022).abs() < 1e-12);
    assert!((m.area_fraction_of_4mb_llc() - 0.0024).abs() < 1e-9);
    assert!((m.power_mw() - 0.149).abs() < 1e-12);
}

#[test]
fn table1_configuration_is_encoded() {
    let t = TimingParams::ddr3_1600();
    assert_eq!((t.trcd, t.tras), (11, 28));
    assert!((t.tck_ns - 1.25).abs() < 1e-12);

    let d = DramConfig::ddr3_1600_paper_2ch();
    assert_eq!(d.org.channels, 2);
    assert_eq!(d.org.ranks, 1);
    assert_eq!(d.org.banks, 8);
    assert_eq!(d.org.rows, 65_536);
    assert_eq!(d.org.row_bytes(), 8192);

    let s = SystemConfig::paper_eight_core(MechanismSpec::chargecache());
    assert_eq!(s.core.issue_width, 3);
    assert_eq!(s.core.window, 128);
    assert_eq!(s.core.mshrs, 8);
    assert_eq!(s.llc.capacity_bytes, 4 << 20);
    assert_eq!(s.llc.ways, 16);
    // Table 1's HCRAC defaults now live in the mechanism factory.
    let defaults = chargecache::registry::resolve("chargecache")
        .expect("built-in")
        .defaults();
    assert_eq!(defaults.usize_param("entries", 0).unwrap(), 128);
    assert_eq!(defaults.usize_param("ways", 0).unwrap(), 2);
    assert_eq!(defaults.duration_ms_param("duration", 0.0).unwrap(), 1.0);
}

#[test]
fn nuat_is_never_stronger_than_a_chargecache_hit() {
    // The structural reason ChargeCache beats NUAT (Section 6): NUAT's
    // youngest bin spans milliseconds, so its reductions are weaker than
    // the 1 ms-hit pair.
    let cc = ChargeCacheConfig::paper();
    for (_, q) in NuatConfig::paper_5pb().bins {
        assert!(q.trcd_reduction <= cc.reductions.trcd_reduction);
        assert!(q.tras_reduction <= cc.reductions.tras_reduction);
    }
}

#[test]
fn duration_sweep_is_monotone_in_reductions() {
    // Figure 11's driving force: longer duration → weaker reductions.
    let mut prev = ChargeCacheConfig::with_duration_ms(1.0).reductions;
    for d in [4.0, 8.0, 16.0] {
        let q = ChargeCacheConfig::with_duration_ms(d).reductions;
        assert!(q.trcd_reduction <= prev.trcd_reduction);
        assert!(q.tras_reduction <= prev.tras_reduction);
        prev = q;
    }
}
