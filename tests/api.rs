//! The `sim::api` contract: golden determinism across thread counts,
//! memoization of shared baseline/alone runs, probe non-perturbation,
//! and machine-readable JSON output (in-process and through `cc-sim`).

use std::sync::{Mutex, PoisonError};

use chargecache::MechanismSpec;
use sim::api::{self, Experiment, Sample, SampleSeries, Variant};
use sim::exp::{run_configured, ExpParams};
use sim::{Engine, SystemConfig};
use traces::workload;

/// Serializes the tests that run cells through the process-wide run
/// cache: any such run moves `run_cache_executions` or memoizes a cell,
/// so it must stay out of another test's exact-delta window. Taken with
/// `unwrap_or_else(PoisonError::into_inner)` so one failing test does not
/// fail the others through a poisoned lock.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn tiny() -> ExpParams {
    ExpParams {
        insts_per_core: 2_000,
        warmup_insts: 500,
        ..ExpParams::tiny()
    }
}

fn golden_experiment() -> Experiment {
    Experiment::new()
        .workload(workload("tpch2").unwrap())
        .workload(workload("STREAMcopy").unwrap())
        .mechanisms(&[MechanismSpec::baseline(), MechanismSpec::chargecache()])
        .variants([Variant::entries(64), Variant::entries(128)])
        .params(tiny())
}

#[test]
fn golden_sweep_identical_across_thread_counts() {
    let _guard = CACHE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    api::clear_run_cache();
    let serial = golden_experiment().threads(1).run().unwrap();
    api::clear_run_cache();
    let parallel = golden_experiment().threads(4).run().unwrap();
    // Same cells, bit-identical results, byte-identical JSON encoding.
    assert_eq!(serial, parallel);
    assert_eq!(serial.to_json(), parallel.to_json());
    // And the encoding is valid JSON with one member per cell.
    let doc = sim::json::parse(&serial.to_json()).unwrap();
    let cells = doc.get("cells").and_then(|c| c.as_arr()).unwrap();
    assert_eq!(cells.len(), serial.cells.len());
}

#[test]
fn baseline_and_alone_runs_are_memoized_once() {
    let _guard = CACHE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    api::clear_run_cache();
    let exp = Experiment::new()
        .workload(workload("tpch2").unwrap())
        .mechanisms(&[MechanismSpec::baseline(), MechanismSpec::chargecache()])
        .params(tiny())
        .alone_ipcs(MechanismSpec::baseline());
    let before = api::run_cache_executions();
    let first = exp.run().unwrap();
    let after_first = api::run_cache_executions();
    // The grid has two cells (baseline + ChargeCache) and one alone run.
    // The alone run *is* the baseline cell's configuration, so exactly
    // two simulations execute — the baseline is computed once per
    // workload, not once per use.
    assert_eq!(after_first - before, 2);
    assert_eq!(
        first.alone_ipc("tpch2"),
        Some(first.cells[0].result().ipc(0))
    );
    // Re-running the same experiment simulates nothing at all.
    let second = exp.run().unwrap();
    assert_eq!(api::run_cache_executions(), after_first);
    assert_eq!(first, second);
    assert!(api::run_cache_len() >= 2);
}

#[test]
fn mechanism_irrelevant_cc_variants_share_baseline_runs() {
    let _guard = CACHE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    api::clear_run_cache();
    let before = api::run_cache_executions();
    let sweep = golden_experiment().threads(1).run().unwrap();
    // Eight cells (2 workloads × 2 mechanisms × 2 capacities), but each
    // workload's two Baseline cells differ only in the cc config the
    // Baseline mechanism never reads: six simulations, not eight.
    assert_eq!(sweep.cells.len(), 8);
    assert_eq!(api::run_cache_executions() - before, 6);
    let b64 = sweep.cell("tpch2", "baseline", "64").unwrap();
    let b128 = sweep.cell("tpch2", "baseline", "128").unwrap();
    assert_eq!(b64.result(), b128.result());
}

#[test]
fn alias_specs_canonicalize_in_sweeps() {
    // `cc` is the v1 id and a registry alias: the sweep must store the
    // canonical name (lookups by "chargecache" hit) and catch an aliased
    // duplicate on the axis.
    let _guard = CACHE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let sweep = Experiment::new()
        .workload(workload("tpch2").unwrap())
        .mechanism("cc".parse().unwrap())
        .params(tiny())
        .run()
        .unwrap();
    assert!(sweep.cell("tpch2", "chargecache", "paper").is_some());
    assert_eq!(sweep.mechanisms[0].name(), "chargecache");

    let err = Experiment::new()
        .workload(workload("tpch2").unwrap())
        .mechanism("cc".parse().unwrap())
        .mechanism(MechanismSpec::chargecache())
        .params(tiny())
        .run()
        .unwrap_err();
    assert!(err.0.contains("duplicate mechanism"), "{err}");
}

#[test]
fn duplicate_variant_labels_are_rejected() {
    let err = Experiment::new()
        .workload(workload("tpch2").unwrap())
        .mechanism(MechanismSpec::baseline())
        .variants([Variant::entries(64), Variant::new("64", |_| {})])
        .params(tiny())
        .run()
        .unwrap_err();
    assert!(err.0.contains("duplicate variant label"), "{err}");
}

#[test]
fn probe_does_not_perturb_the_run() {
    let spec = workload("STREAMcopy").unwrap();
    let p = tiny();
    for engine in [Engine::EventSkip, Engine::PerCycle] {
        let mut cfg = SystemConfig::paper_single_core(MechanismSpec::chargecache());
        cfg.engine = engine;
        let plain = run_configured(cfg.clone(), std::slice::from_ref(&spec), &p).unwrap();
        let mut series = SampleSeries::default();
        let probed =
            api::run_probed(cfg, std::slice::from_ref(&spec), &p, 3_000, &mut series).unwrap();
        assert_eq!(plain, probed, "probe changed the {engine:?} run");
        // Warmup sample + at least one interval sample + final sample.
        assert!(
            series.samples.len() >= 3,
            "{} samples",
            series.samples.len()
        );
        assert!(series
            .samples
            .windows(2)
            .all(|w| w[0].cycle <= w[1].cycle && w[0].min_retired <= w[1].min_retired));
        let last = series.samples.last().unwrap();
        assert!(last.min_retired >= p.warmup_insts + p.insts_per_core);
    }
}

/// FNV-1a over the little-endian words of every [`Sample`] in order.
fn sample_fingerprint(samples: &[Sample]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in samples {
        for w in [s.cycle, s.min_retired, s.dram_reads, s.activations] {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn probe_sample_sequence_is_pinned() {
    // (engine, sample count, first cycle, last cycle, fingerprint): the
    // warmup-boundary sample, one per 3,000-cycle chunk, then the final
    // one. A driver that moves or drops a sample changes these.
    const GOLDEN: [(Engine, usize, u64, u64, u64); 2] = [
        (Engine::EventSkip, 10, 6_275, 30_276, 0x0445_830c_e0b9_bd68),
        (Engine::PerCycle, 10, 6_275, 30_276, 0x0445_830c_e0b9_bd68),
    ];
    let spec = workload("STREAMcopy").unwrap();
    for (engine, len, first, last, fp) in GOLDEN {
        let mut cfg = SystemConfig::paper_single_core(MechanismSpec::chargecache());
        cfg.engine = engine;
        let mut series = SampleSeries::default();
        api::run_probed(
            cfg,
            std::slice::from_ref(&spec),
            &ExpParams::tiny(),
            3_000,
            &mut series,
        )
        .unwrap();
        let s = &series.samples;
        let got = (
            s.len(),
            s[0].cycle,
            s[s.len() - 1].cycle,
            sample_fingerprint(s),
        );
        assert_eq!(got, (len, first, last, fp), "{engine:?} samples moved");
    }
}

#[test]
fn alone_ipc_denominators_follow_the_device_axis() {
    // A non-default family and a non-default timing: each alone run must
    // describe the same device as the baseline cell it shares a key with.
    let _guard = CACHE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let mcf = workload("mcf").unwrap();
    for (family, timing) in [("lpddr4x", None), ("ddr3", Some("ddr3-2133"))] {
        let mut exp = Experiment::new()
            .workload(mcf.clone())
            .family(family.parse().unwrap())
            .mechanism(MechanismSpec::baseline())
            .alone_ipcs(MechanismSpec::baseline())
            .params(tiny());
        if let Some(t) = timing {
            exp = exp.timing(t.parse().unwrap());
        }
        let sweep = exp.run().unwrap();
        let cell = sweep.cell("mcf", "baseline", "paper").unwrap();
        assert_eq!(
            sweep.alone_ipc("mcf"),
            Some(cell.result().ipc(0)),
            "{family} {timing:?}"
        );
    }
}

#[test]
fn run_configured_surfaces_invalid_configs_as_errors() {
    let spec = workload("tpch2").unwrap();
    let mut cfg = SystemConfig::paper_single_core(MechanismSpec::baseline());
    cfg.cpu_per_bus = 0;
    let err = run_configured(cfg, std::slice::from_ref(&spec), &tiny()).unwrap_err();
    assert!(err.0.contains("cpu_per_bus"), "unexpected error: {err}");

    // Workload/core mismatch is an error too, not a panic.
    let cfg = SystemConfig::paper_eight_core(MechanismSpec::baseline());
    let err = run_configured(cfg, std::slice::from_ref(&spec), &tiny()).unwrap_err();
    assert!(err.0.contains("cores"), "unexpected error: {err}");
}

#[test]
fn cc_sim_json_is_valid_and_thread_count_invariant() {
    let run = |threads: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cc-sim"))
            .env_remove("CC_CACHE_DIR")
            .args([
                "run",
                "--workload",
                "tpch2",
                "--mechanism",
                "all",
                "--insts",
                "2000",
                "--warmup",
                "500",
                "--threads",
                threads,
                "--json",
            ])
            .output()
            .expect("cc-sim runs");
        assert!(out.status.success(), "cc-sim failed: {out:?}");
        String::from_utf8(out.stdout).expect("utf-8 output")
    };
    let serial = run("1");
    let parallel = run("3");
    // Golden determinism through the CLI: byte-identical JSON.
    assert_eq!(serial, parallel);

    let doc = sim::json::parse(serial.trim()).expect("cc-sim --json emits valid JSON");
    assert_eq!(
        doc.get("schema").and_then(|s| s.as_str()),
        Some(sim::json::SCHEMA_V5)
    );
    let cells = doc.get("cells").and_then(|c| c.as_arr()).unwrap();
    assert_eq!(cells.len(), MechanismSpec::paper_all().len());
    // And the typed parser reads the CLI's output directly.
    let typed = sim::json::parse_sweep(&serial).expect("typed v5 parse");
    assert_eq!(typed.schema_version, 5);
    assert_eq!(typed.families, ["ddr3"]);
    assert_eq!(typed.timings, ["ddr3-1600"]);
    assert!(typed.cell("tpch2", "chargecache", "paper").is_some());
    for cell in cells {
        assert_eq!(cell.get("subject").and_then(|s| s.as_str()), Some("tpch2"));
        let ipc = cell.get("ipc").and_then(|i| i.as_arr()).unwrap()[0]
            .as_num()
            .unwrap();
        assert!(ipc > 0.0);
    }
    assert_eq!(
        doc.get("params")
            .and_then(|p| p.get("insts_per_core"))
            .and_then(|n| n.as_num()),
        Some(2000.0)
    );
}

#[test]
fn cc_sim_exit_codes_distinguish_failure_classes() {
    let bin = env!("CARGO_BIN_EXE_cc-sim");
    let run = |args: &[&str]| {
        std::process::Command::new(bin)
            .env_remove("CC_CACHE_DIR")
            .args(args)
            .output()
            .expect("cc-sim runs")
    };
    // Usage and configuration errors exit 2.
    let out = run(&["run", "--workload", "tpch2", "--bogus"]);
    assert_eq!(out.status.code(), Some(2), "unknown flag");
    let out = run(&["run", "--workload", "no-such-workload"]);
    assert_eq!(out.status.code(), Some(2), "unknown workload");
    let out = run(&["run", "--workload", "tpch2", "--out", "x.json"]);
    assert_eq!(out.status.code(), Some(2), "--out without --json");
    // An unwritable --out path is an I/O failure: exit 4, after the
    // sweep ran, with the diagnostic naming the path.
    let out = run(&[
        "run",
        "--workload",
        "tpch2",
        "--mechanism",
        "baseline",
        "--insts",
        "2000",
        "--warmup",
        "500",
        "--json",
        "--out",
        "/nonexistent-dir/sweep.json",
    ]);
    assert_eq!(out.status.code(), Some(4), "unwritable --out");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("/nonexistent-dir/sweep.json"), "{stderr}");
}

#[test]
fn cc_sim_isolates_a_panicking_cell_and_exits_3() {
    // The `faulty` plugin registers only under CC_FAULT_INJECTION; its
    // cell must fail alone (typed error object, named on stderr) while
    // the baseline cell completes, and the process must exit 3.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cc-sim"))
        .env_remove("CC_CACHE_DIR")
        .env("CC_FAULT_INJECTION", "1")
        .args([
            "run",
            "--workload",
            "tpch2",
            "--mechanism",
            "baseline",
            "--mechanism",
            "faulty",
            "--insts",
            "2000",
            "--warmup",
            "500",
            "--json",
        ])
        .output()
        .expect("cc-sim runs");
    assert_eq!(out.status.code(), Some(3), "cell failure exit code");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let typed = sim::json::parse_sweep(&stdout).expect("typed v5 parse");
    assert_eq!(typed.schema_version, 5);
    let ok = typed
        .cell("tpch2", "baseline", "paper")
        .expect("baseline cell");
    assert!(ok.error.is_none(), "healthy cell must carry no error");
    let bad = typed.cell("tpch2", "faulty", "paper").expect("faulty cell");
    let err = bad.error.as_ref().expect("faulty cell carries an error");
    assert_eq!(err.kind, "panic");
    assert_eq!(err.attempts, 2);
    assert!(err.message.contains("injected fault"), "{}", err.message);
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains("cell tpch2/ddr3/ddr3-1600/faulty/paper failed"),
        "{stderr}"
    );
}
