//! The figure table, with the paper's own numbers next to each entry.

use std::fmt::Display;

use bitline::{ActivationModel, CycleQuantized, ReducedTimings};
use chargecache::{spec::cc_config_from, OverheadModel, ParamValue};
use memctrl::{RowPolicy, SchedPolicy};
use sim::api::{Cell, Metric::*, Variant};

use crate::Body::{Model, Sweep};
use crate::{Axis, Axis::*, Column, Figure, Panel, Rel::*, Rows, Rows::*, Subjects, Subjects::*};
use crate::{Table, Value, Value::*};

const fn col(name: &'static str, mechanism: &'static str, value: Value) -> Column {
    Column {
        name,
        mechanism,
        value,
    }
}

const fn panel(
    title: &'static str,
    subjects: Subjects,
    mechanisms: &'static [&'static str],
    axis: Axis,
    rows: Rows,
    columns: &'static [Column],
) -> Panel {
    Panel {
        title,
        subjects,
        mechanisms,
        axis,
        rows,
        columns,
        sorted: false,
        max_row: false,
        floor: None,
    }
}

const BASE: &[&str] = &["baseline"];
const CC: &[&str] = &["chargecache"];
const BASE_CC: &[&str] = &["baseline", "chargecache"];
const ALL: &[&str] = &["baseline", "nuat", "chargecache", "cc-nuat", "lldram"];
const NO_NUAT: &[&str] = &["baseline", "chargecache", "cc-nuat", "lldram"];
/// Figs. 9-11 and the ablations sweep many points, so they run on the
/// first six mixes; the headline figures use all twenty.
const FEW: usize = 6;

const FIG3: &[Column] = &[
    col("8ms-RLTL", "baseline", Pct(RltlFraction(4))),
    col("8ms-after-REF", "baseline", Pct(RefreshFraction)),
    col("activations", "baseline", Num(Activations, 0)),
];
/// Figure 4 skips the tracker's 8 ms bucket (index 4).
const FIG4: &[Column] = &[
    col("0.125ms", "baseline", Pct(RltlFraction(0))),
    col("0.25ms", "baseline", Pct(RltlFraction(1))),
    col("0.5ms", "baseline", Pct(RltlFraction(2))),
    col("1ms", "baseline", Pct(RltlFraction(3))),
    col("32ms", "baseline", Pct(RltlFraction(5))),
];
const FIG7A: &[Column] = &[
    col("RMPKC", "baseline", Num(Rmpkc, 2)),
    col("NUAT", "nuat", Rel(Speedup)),
    col("ChargeCache", "chargecache", Rel(Speedup)),
    col("CC+NUAT", "cc-nuat", Rel(Speedup)),
    col("LL-DRAM", "lldram", Rel(Speedup)),
];
const FIG7B: &[Column] = &[
    col("RMPKC", "baseline", Num(Rmpkc, 2)),
    col("NUAT", "nuat", Rel(WeightedSpeedup)),
    col("ChargeCache", "chargecache", Rel(WeightedSpeedup)),
    col("CC+NUAT", "cc-nuat", Rel(WeightedSpeedup)),
    col("LL-DRAM", "lldram", Rel(WeightedSpeedup)),
];
const FIG8: &[Column] = &[
    col("base (mJ)", "baseline", Num(EnergyMj, 4)),
    col("CC (mJ)", "chargecache", Num(EnergyMj, 4)),
    col("saving", "chargecache", Rel(EnergySaving)),
];
const FAMILY: &[Column] = &[
    col("default bin", "baseline", Point(|c| c.timing.to_string())),
    col("tRCD", "baseline", Point(trcd)),
    col("base IPC", "baseline", Num(Ipc, 4)),
    col("cc", "chargecache", Rel(Speedup)),
    col("ccnuat", "cc-nuat", Rel(Speedup)),
    col("ll", "lldram", Rel(Speedup)),
    col("geometry", "baseline", Point(geometry)),
];
const TIMING: &[Column] = &[
    col("tRCD", "baseline", Point(trcd)),
    col("base IPC", "baseline", Num(Ipc, 4)),
    col("cc", "chargecache", Rel(Speedup)),
    col("ccnuat", "cc-nuat", Rel(Speedup)),
    col("ll", "lldram", Rel(Speedup)),
];
const HIT_RATE: Column = col("hit rate", "chargecache", Pct(HcracHitRate));
const HIT: &[Column] = &[HIT_RATE];

fn policies() -> Vec<Variant> {
    vec![
        Variant::new("open", |cfg| cfg.ctrl.row_policy = RowPolicy::Open),
        Variant::new("closed", |cfg| cfg.ctrl.row_policy = RowPolicy::Closed),
    ]
}

fn schedulers() -> Vec<Variant> {
    vec![
        Variant::new("Fcfs", |cfg| cfg.ctrl.scheduler = SchedPolicy::Fcfs),
        Variant::new("FrFcfs", |cfg| cfg.ctrl.scheduler = SchedPolicy::FrFcfs),
    ]
}

fn capacities(entries: &[usize]) -> Vec<Variant> {
    entries.iter().map(|&e| Variant::entries(e)).collect()
}

/// Figure 9's capacities, then the unlimited-capacity ceiling.
fn capacities_unlimited() -> Vec<Variant> {
    let exact = ParamValue::Str("exact".into());
    let unlimited = vec![
        ("unlimited".into(), ParamValue::Bool(true)),
        ("invalidation".into(), exact),
    ];
    let mut variants = capacities(&[32, 64, 128, 256, 512, 1024, 2048]);
    variants.push(Variant::params("unlimited", unlimited));
    variants
}

/// One labelled variant per value of the chargecache parameter `key`.
fn cc_param(key: &'static str, points: &[(&str, ParamValue)]) -> Vec<Variant> {
    let variant = |(label, v): &(&str, ParamValue)| Variant::param_labelled(*label, key, v.clone());
    points.iter().map(variant).collect()
}

/// The tRCD/tRAS cycle cuts the chargecache factory derives for the
/// cell's caching duration and tCK.
fn reductions(c: &Cell) -> String {
    let tck = c.timing.resolve().expect("cell timing resolves").tck_ns;
    let cuts = cc_config_from(&c.mechanism, tck)
        .expect("valid spec")
        .reductions;
    format!("{}/{}", cuts.trcd_reduction, cuts.tras_reduction)
}

fn trcd(c: &Cell) -> String {
    let timing = c.timing.resolve().expect("cell timing resolves");
    timing.trcd.to_string()
}

fn geometry(c: &Cell) -> String {
    let family = dram::family::resolve(&c.family).expect("built-in family");
    family.geometry_line()
}

fn table(title: &str, header: &[&str], rows: Vec<Vec<String>>) -> Table {
    let header = header.iter().map(ToString::to_string).collect();
    let title = title.into();
    Table {
        title,
        header,
        rows,
    }
}

/// A `quantity, value, unit` row.
fn quantity(name: &str, value: impl Display, unit: &str) -> Vec<String> {
    vec![name.into(), value.to_string(), unit.into()]
}

fn fig06() -> Vec<Table> {
    let m = ActivationModel::calibrated();
    let curve = (0..=20).map(|i| {
        let t = f64::from(i) * 2.0;
        let v = |age| format!("{:.4}", m.bitline_voltage_v(age, t));
        vec![format!("{t:.1}"), v(0.0), v(64.0)]
    });
    let ns = |name, v: f64| quantity(name, format!("{v:.2}"), "ns");
    let timing = vec![
        ns("ready-to-access (fully charged)", m.ready_time_ns(0.0)),
        ns("ready-to-access (64 ms old)", m.ready_time_ns(64.0)),
        ns("tRCD reduction opportunity", m.trcd_reduction_ns(0.0)),
        ns("restore (fully charged)", m.restore_time_ns(0.0)),
        ns("restore (64 ms old)", m.restore_time_ns(64.0)),
        ns("tRAS reduction opportunity", m.tras_reduction_ns(0.0)),
    ];
    let volts = ["t (ns)", "V_full (V)", "V_64ms (V)"];
    vec![
        table("bitline voltage", &volts, curve.collect()),
        table("activation timing", &["quantity", "value", "unit"], timing),
    ]
}

fn table2() -> Vec<Table> {
    let row = |d: String, t: ReducedTimings, q: CycleQuantized| {
        let ns = [format!("{:.2}", t.trcd_ns), format!("{:.1}", t.tras_ns)];
        let cycles = [q.trcd_reduction, q.tras_reduction].map(|c| c.to_string());
        [[d].as_slice(), &ns, &cycles].concat()
    };
    let mut rows = vec![row(
        "baseline".into(),
        ReducedTimings::baseline(),
        CycleQuantized::none(),
    )];
    for d in [1.0, 4.0, 8.0, 16.0] {
        let q = CycleQuantized::for_duration_ms(d, 1.25);
        rows.push(row(d.to_string(), ReducedTimings::for_duration_ms(d), q));
    }
    let header = [
        "duration (ms)",
        "tRCD (ns)",
        "tRAS (ns)",
        "ΔtRCD (cyc)",
        "ΔtRAS (cyc)",
    ];
    vec![table("DDR3-1600, tCK 1.25 ns", &header, rows)]
}

fn sec63() -> Vec<Table> {
    let m = OverheadModel::paper_8core();
    let pct = |f: f64| format!("{:.2}%", f * 100.0);
    let lru = format!("bits (+{} LRU)", m.lru_bits());
    let overhead = vec![
        quantity("entry size (Equation 2)", m.entry_size_bits(), &lru),
        quantity("total storage (Equation 1)", m.storage_bytes(), "bytes"),
        quantity("storage per core", m.storage_bytes_per_core(), "bytes"),
        quantity("area @22nm", format!("{:.4}", m.area_mm2()), "mm²"),
        quantity("area vs 4MB LLC", pct(m.area_fraction_of_4mb_llc()), ""),
        quantity("average power", format!("{:.3}", m.power_mw()), "mW"),
        quantity("power vs 4MB LLC", pct(m.power_fraction_of_4mb_llc()), ""),
    ];
    let sweep = [32, 64, 128, 256, 512, 1024].map(|entries| {
        let m = OverheadModel { entries, ..m };
        let (area, power) = (
            format!("{:.4}", m.area_mm2()),
            format!("{:.3}", m.power_mw()),
        );
        vec![
            entries.to_string(),
            m.storage_bytes_per_core().to_string(),
            area,
            power,
        ]
    });
    let header = ["entries", "bytes/core", "area (mm²)", "power (mW)"];
    vec![
        table(
            "8 cores, 2 channels, 128 entries",
            &["quantity", "value", "unit"],
            overhead,
        ),
        table("capacity sweep (Section 6.4.1)", &header, sweep.to_vec()),
    ]
}

/// Every figure, in paper order.
#[rustfmt::skip]
pub static FIGURES: &[Figure] = &[
    Figure {
        id: "fig03", title: "Figure 3: activations within 8 ms of precharge vs of refresh",
        paper: "1-core avg 86% vs 12%; 8-core RLTL higher, refresh fraction unchanged",
        body: Sweep(&[
            panel("(a) single-core workloads", Workloads, BASE, Paper, PerSubject, FIG3),
            panel("(b) eight-core workloads", Mixes(20), BASE, Paper, PerSubject, FIG3),
        ]),
    },
    Figure {
        id: "fig04", title: "Figure 4: RLTL at 0.125/0.25/0.5/1/32 ms, open vs closed row",
        paper: "1-core 0.125ms-RLTL ≈ 66%, 8-core ≈ 77%; policy has little effect",
        body: Sweep(&[
            panel("(a) single-core workloads", Workloads, BASE, Variants("policy", policies), PerSubject, FIG4),
            panel("(b) eight-core workloads", Mixes(20), BASE, Variants("policy", policies), PerSubject, FIG4),
        ]),
    },
    Figure {
        id: "fig06", title: "Figure 6: bitline voltage during activation",
        paper: "full cell ready in 10 ns, worst-case in 14.5 ns; reductions 4.5/9.6 ns",
        body: Model(fig06),
    },
    Figure {
        id: "table2", title: "Table 2: tRCD and tRAS for different caching durations",
        paper: "baseline 13.75/35 ns; 1 ms → 8/22; 4 ms → 9/24; 16 ms → 11/28",
        body: Model(table2),
    },
    Figure {
        id: "fig07", title: "Figure 7: speedup over baseline (NUAT / CC / CC+NUAT / LL-DRAM)",
        paper: "1-core CC avg 2.1% (max 9.3%); 8-core NUAT 2.5%, CC 8.6%, CC+NUAT 9.6%, LL-DRAM ≈ 13.4%",
        body: Sweep(&[
            Panel { sorted: true, ..panel("(a) single-core (sorted by RMPKC)", Workloads, ALL, Paper,
                                          PerSubject, FIG7A) },
            panel("(b) eight-core (weighted speedup over baseline)", Mixes(20), ALL, Paper, PerSubject, FIG7B),
        ]),
    },
    Figure {
        id: "fig08", title: "Figure 8: DRAM energy reduction of ChargeCache",
        paper: "1-core avg 1.8% / max 6.9%; 8-core avg 7.9% / max 14.1%",
        body: Sweep(&[
            Panel { max_row: true, ..panel("(a) single-core", Workloads, BASE_CC, Paper, PerSubject, FIG8) },
            Panel { max_row: true, ..panel("(b) eight-core", Mixes(20), BASE_CC, Paper, PerSubject, FIG8) },
        ]),
    },
    Figure {
        id: "fig09", title: "Figure 9: HCRAC hit rate vs capacity (1 ms duration)",
        paper: "128 entries → 38% (1-core) / 66% (8-core); dashed = unlimited ceiling",
        body: Sweep(&[
            panel("(a) single-core", Workloads, CC, Variants("entries", capacities_unlimited), PerPoint,
                  &[col("1-core hit", "chargecache", Pct(HcracHitRate))]),
            panel("(b) eight-core", Mixes(FEW), CC, Variants("entries", capacities_unlimited), PerPoint,
                  &[col("8-core hit", "chargecache", Pct(HcracHitRate))]),
        ]),
    },
    Figure {
        id: "fig10", title: "Figure 10: speedup vs HCRAC capacity",
        paper: "8-core: 8.8% at 128 entries, 10.6% at 1024; diminishing returns",
        body: Sweep(&[
            panel("(a) single-core", Workloads, BASE_CC,
                  Variants("entries", || capacities(&[32, 64, 128, 256, 512, 1024])), PerPoint,
                  &[col("1-core spdup", "chargecache", Rel(Speedup))]),
            panel("(b) eight-core", Mixes(FEW), BASE_CC,
                  Variants("entries", || capacities(&[32, 64, 128, 256, 512, 1024])), PerPoint,
                  &[col("8-core spdup", "chargecache", Rel(WeightedSpeedup))]),
        ]),
    },
    Figure {
        id: "fig11", title: "Figure 11: speedup and HCRAC hit rate vs caching duration",
        paper: "1 ms is best; longer durations trade timing margin for few extra hits",
        body: Sweep(&[
            panel("(a) single-core", Workloads, BASE_CC,
                  Variants("duration", || [1.0, 4.0, 8.0, 16.0].map(Variant::duration_ms).to_vec()), PerPoint,
                  &[col("ΔtRCD/ΔtRAS", "chargecache", Point(reductions)),
                    col("1c spdup", "chargecache", Rel(Speedup)),
                    col("1c hit", "chargecache", Pct(HcracHitRate))]),
            panel("(b) eight-core", Mixes(FEW), BASE_CC,
                  Variants("duration", || [1.0, 4.0, 8.0, 16.0].map(Variant::duration_ms).to_vec()), PerPoint,
                  &[col("8c spdup", "chargecache", Rel(WeightedSpeedup)),
                    col("8c hit", "chargecache", Pct(HcracHitRate))]),
        ]),
    },
    Figure {
        id: "family", title: "Family sensitivity: speedup vs device family (cc/ccnuat/ll)",
        paper: "beyond the paper: Section 7.2 claims applicability across DDR-derived interfaces",
        body: Sweep(&[
            panel("single-core", Workloads, NO_NUAT, Families(&["ddr3", "ddr4", "lpddr4x", "hbm2"]), PerPoint,
                  FAMILY),
        ]),
    },
    Figure {
        id: "timing", title: "Timing sensitivity: speedup vs JEDEC speed bin (cc/ccnuat/ll)",
        paper: "beyond the paper: Section 7.2 claims applicability across DDR-derived interfaces",
        body: Sweep(&[
            panel("single-core", Workloads, NO_NUAT,
                  Timings(&["ddr3-1066", "ddr3-1333", "ddr3-1600", "ddr3-1866", "ddr3-2133"]), PerPoint, TIMING),
        ]),
    },
    Figure {
        id: "sec63", title: "Section 6.3: ChargeCache hardware overhead",
        paper: "5376 B storage (672 B per core), 0.022 mm² (0.24% of 4MB LLC), 0.149 mW (0.23%)",
        body: Model(sec63),
    },
    Figure {
        id: "ablations", title: "Ablations of the paper's design decisions",
        paper: "D1: the two-counter invalidation loses a negligible hit rate; D3: 2-way is within ~2% \
                of fully associative; D5: footnote 7 leaves sharing as future work; ChargeCache \
                helps under any scheduler (Section 8)",
        body: Sweep(&[
            panel("D1: periodic (IIC/EC) vs exact invalidation", Mixes(FEW), CC,
                  Variants("invalidation", || cc_param("invalidation", &[
                      ("periodic IIC/EC", ParamValue::Str("periodic".into())),
                      ("exact expiry", ParamValue::Str("exact".into()))])), PerPoint,
                  &[HIT_RATE, col("premature-invalidation loss", "chargecache",
                                Rel(HitRateGain("periodic IIC/EC")))]),
            panel("D3: HCRAC associativity", Mixes(FEW), CC,
                  Variants("ways", || cc_param("ways", &[("1", ParamValue::Int(1)), ("2", ParamValue::Int(2)),
                      ("4", ParamValue::Int(4)), ("8", ParamValue::Int(8)), ("full", ParamValue::Int(0))])),
                  PerPoint, HIT),
            panel("D5: private per-core HCRACs vs one shared", Mixes(FEW), CC,
                  Variants("HCRAC", || cc_param("shared", &[("private (128/core)", ParamValue::Bool(false)),
                      ("shared (1024 total)", ParamValue::Bool(true))])), PerPoint, HIT),
            Panel { floor: Some(-0.005), ..panel("scheduler composition", Workloads, BASE_CC,
                  Variants("scheduler", schedulers), PerPoint, &[col("ChargeCache gain", "chargecache", Rel(Speedup))]) },
        ]),
    },
];
