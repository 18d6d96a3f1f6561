//! The in-process workloads, `singles` and `mixes`.
//!
//! Each repetition is a fresh child process (`perfbench child ...`), so
//! the process-wide run memoizer starts empty. The child plans the grid,
//! prints `ready` just before the first cell starts, runs every cell
//! cold through `CellPlan::run(None)` on [`THREADS`] workers, then
//! re-requests every cell to time memoizer hits, and reports one JSON
//! line. The parent times launch → `ready` (set-up), checks every cell
//! against the pinned fingerprints and reports the median over
//! repetitions.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sim::json::{self, Json};
use sim::RunResult;

use crate::calib::Calibration;
use crate::grid::{self, Workload, THREADS};
use crate::replica::{self, Layers};
use crate::report::{RepFigures, Report};
use crate::stats::median;
use crate::{provenance, Args};

/// Memoizer-hit passes over the grid after the cold pass.
const HIT_ROUNDS: usize = 5;

/// Extra launches that only plan and exit, to steady `setup_s`.
const SETUP_PROBES: usize = 5;

/// Longest a child may take before the run is failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(150);

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The child side of one repetition. Prints `ready`, then the result
/// line.
///
/// # Errors
///
/// Returns a message when the grid does not plan.
pub fn child(
    w: Workload,
    trace_seed: u64,
    order_seed: u64,
    setup_only: bool,
) -> Result<(), String> {
    let cells = grid::grid(w, trace_seed)?;
    let order = grid::order(cells.len(), order_seed);
    {
        let mut out = std::io::stdout().lock();
        writeln!(out, "ready")
            .and_then(|()| out.flush())
            .map_err(|e| e.to_string())?;
    }
    if setup_only {
        return Ok(());
    }
    let exec0 = sim::api::run_cache_executions();
    let t0 = Instant::now();
    let runs = sim::par_map(order.clone(), THREADS, |i| {
        let t = Instant::now();
        let r = cells[i].plan.run(None);
        (i, ms(t), r)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let executions = sim::api::run_cache_executions() - exec0;

    // Re-request every cell HIT_ROUNDS times, round-major on the same
    // workers, so each cell's re-requests land on both threads. A cell's
    // hit latency is the fastest of them, which keeps preemptions and the
    // slower vCPU out of the sample.
    let exec1 = sim::api::run_cache_executions();
    let rounds: Vec<usize> = (0..HIT_ROUNDS)
        .flat_map(|_| order.iter().copied())
        .collect();
    let timed = sim::par_map(rounds, THREADS, |i| {
        let t = Instant::now();
        std::hint::black_box(cells[i].plan.run(None)).ok();
        (i, ms(t))
    });
    let mut fastest = vec![f64::INFINITY; cells.len()];
    for (i, t) in timed {
        fastest[i] = fastest[i].min(t);
    }
    let hit_ms: Vec<Json> = fastest.into_iter().map(Json::num).collect();
    let memo_hits = if sim::api::run_cache_executions() == exec1 {
        HIT_ROUNDS * cells.len()
    } else {
        0
    };
    let vmhwm_kb = provenance::vm_hwm_kb("self").unwrap_or(0);

    let mut results: Vec<Option<RunResult>> = vec![None; cells.len()];
    let mut cell_json = Vec::with_capacity(cells.len());
    for (i, cell_ms, r) in runs {
        let (fp, cycles, error) = match &r {
            Ok(r) => (
                Json::str(format!("{:016x}", grid::fingerprint(r))),
                r.cpu_cycles,
                Json::Null,
            ),
            Err(e) => (Json::Null, 0, Json::str(e.to_string())),
        };
        results[i] = r.ok().map(Arc::unwrap_or_clone);
        cell_json.push(Json::Obj(vec![
            ("id".into(), Json::str(&cells[i].id)),
            ("ms".into(), Json::num(cell_ms)),
            ("cycles".into(), Json::uint(cycles)),
            ("fp".into(), fp),
            ("error".into(), error),
        ]));
    }
    let cc = grid::cc_speedup_pct(w, &cells, &results).map_or(Json::Null, Json::num);
    let line = Json::Obj(vec![
        ("wall_s".into(), Json::num(wall_s)),
        ("executions".into(), Json::uint(executions)),
        ("memo_hits".into(), Json::uint(memo_hits as u64)),
        ("vmhwm_kb".into(), Json::uint(vmhwm_kb)),
        ("cc_speedup_pct".into(), cc),
        ("cells".into(), Json::Arr(cell_json)),
        ("hit_ms".into(), Json::Arr(hit_ms)),
    ]);
    println!("{line}");
    Ok(())
}

/// One child repetition, as seen by the parent.
struct Rep {
    setup_s: f64,
    doc: Option<Json>,
}

/// Kills and reaps `c` (best effort).
fn reap(mut c: Child) {
    let _ = c.kill();
    let _ = c.wait();
}

/// Launches one child and times launch → `ready`. With `setup_only` the
/// child exits after planning.
fn launch(args: &Args, order_seed: u64, setup_only: bool) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "child",
        "--workload",
        args.workload.name(),
        "--trace-seed",
        &args.trace_seed.to_string(),
        "--seed",
        &order_seed.to_string(),
    ]);
    if setup_only {
        cmd.arg("--setup-only");
    }
    let t0 = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("launching a child: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send((Instant::now(), line)).is_err() {
                break;
            }
        }
    });
    let deadline = t0 + CHILD_TIMEOUT;
    let next = || rx.recv_timeout(deadline.saturating_duration_since(Instant::now()));
    let setup_s = match next() {
        Ok((at, line)) if line == "ready" => at.duration_since(t0).as_secs_f64(),
        other => {
            reap(child);
            let _ = reader.join();
            return Err(format!("child did not report ready: {other:?}"));
        }
    };
    let doc = if setup_only {
        None
    } else {
        match next() {
            Ok((_, line)) => Some(json::parse(&line).map_err(|e| format!("child result: {e}"))?),
            Err(e) => {
                reap(child);
                let _ = reader.join();
                return Err(format!("child produced no result: {e}"));
            }
        }
    };
    let status = child.wait().map_err(|e| e.to_string())?;
    let _ = reader.join();
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    Ok(Rep { setup_s, doc })
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_num).unwrap_or(f64::NAN)
}

/// Checks one repetition's cells against the pins; returns the number of
/// failed, missing or mismatched cells.
fn check_cells(
    doc: &Json,
    pins: &std::collections::BTreeMap<String, u64>,
    report: &mut Report,
) -> u64 {
    let cells = doc.get("cells").and_then(Json::as_arr).unwrap_or(&[]);
    let mut bad = 0;
    for (id, want) in pins {
        let got = cells
            .iter()
            .find(|c| c.get("id").and_then(Json::as_str) == Some(id))
            .and_then(|c| c.get("fp").and_then(Json::as_str))
            .and_then(|h| u64::from_str_radix(h, 16).ok());
        if got != Some(*want) {
            bad += 1;
            if report.problems.len() < 5 {
                report.problem(format!(
                    "cell {id}: fingerprint {got:x?}, pinned {want:016x}"
                ));
            }
        }
    }
    bad + cells.len().saturating_sub(pins.len()) as u64
}

/// The untraced run: set-up probes, then repetitions for `args.seconds`,
/// with a calibration sample before each repetition and after the last.
pub fn untraced(args: &Args, report: &mut Report) -> Result<(), String> {
    let pins = grid::pinned(args.workload, args.trace_seed)
        .ok_or_else(|| format!("trace seed {} has no pinned fingerprints", args.trace_seed))?;
    let mut cal = Calibration::default();
    cal.take(THREADS);
    let mut probes = Vec::new();
    for _ in 0..SETUP_PROBES {
        probes.push(launch(args, args.seed, true)?.setup_s);
    }
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut reps: Vec<RepFigures> = Vec::new();
    let mut rss = Vec::new();
    let mut cc: Option<f64> = None;
    let mut last = Duration::ZERO;
    while reps.is_empty() || start.elapsed() + last / 2 < budget {
        let t = Instant::now();
        if !reps.is_empty() {
            cal.take(THREADS);
        }
        let rep = launch(args, args.seed.wrapping_add(reps.len() as u64), false)?;
        last = t.elapsed();
        let doc = rep.doc.expect("full repetition has a result");
        let cells = doc.get("cells").and_then(Json::as_arr).unwrap_or(&[]);
        report.attempted += pins.len() as u64;
        report.failed += check_cells(&doc, &pins, report);
        let wall_s = num(&doc, "wall_s");
        let cycles: f64 = cells.iter().map(|c| num(c, "cycles")).sum();
        let hits = doc.get("hit_ms").and_then(Json::as_arr).unwrap_or(&[]);
        reps.push(RepFigures {
            setup_s: vec![rep.setup_s],
            wall_s,
            mcps: cycles / wall_s / 1e6,
            cell_ms: cells.iter().map(|c| num(c, "ms")).collect(),
            hit_ms: hits
                .iter()
                .map(|h| h.as_num().unwrap_or(f64::NAN))
                .collect(),
            ..RepFigures::default()
        });
        rss.push(num(&doc, "vmhwm_kb") / 1024.0);
        report.repeat_exact("cc_speedup_pct", &mut cc, num(&doc, "cc_speedup_pct"));
    }
    cal.take(THREADS);
    for (i, r) in reps.iter_mut().enumerate() {
        r.sim_factor = cal.bracket(i);
    }
    println!(
        "repetitions {} (fresh process each), set-up probes {}",
        reps.len(),
        probes.len()
    );
    report.end_to_end(&reps, &probes, cal.core());
    report.set("peak_rss_mb", median(&rss));
    let cc = cc.unwrap_or(f64::NAN);
    report.extra.push(("cc_speedup_pct", cc, "%"));
    report.extra.push((
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    ));
    let paper = if args.workload == Workload::Mixes {
        8.6
    } else {
        2.1
    };
    println!("cc_speedup_pct {cc:.4} % (paper: {paper} %; synthetic workloads, model unvalidated against hardware)");
    Ok(())
}

/// The traced run: one untraced child repetition for the overhead
/// reference, then the whole grid through the replica in this process.
pub fn traced(args: &Args, report: &mut Report) -> Result<(), String> {
    let pins = grid::pinned(args.workload, args.trace_seed)
        .ok_or_else(|| format!("trace seed {} has no pinned fingerprints", args.trace_seed))?;
    let reference = launch(args, args.seed, false)?
        .doc
        .expect("full repetition");
    let untraced_wall = num(&reference, "wall_s");

    let t_plan = Instant::now();
    let cells = grid::grid(args.workload, args.trace_seed)?;
    let plan_ms = ms(t_plan);
    let order = grid::order(cells.len(), args.seed);
    let t0 = Instant::now();
    let runs = sim::par_map(order, THREADS, |i| {
        let c = &cells[i];
        let start = t0.elapsed();
        let outcome = replica::run_cell(&c.plan.cfg, &c.plan.apps, &c.plan.params);
        (i, start, t0.elapsed(), outcome)
    });
    let wall = t0.elapsed().as_secs_f64();

    let mut total = Layers::default();
    let mut all_run_ns = 0u64;
    let mut matched = 0u64;
    let mut spans = Vec::with_capacity(runs.len());
    report.attempted = cells.len() as u64;
    for (i, start, end, outcome) in runs {
        let id = &cells[i].id;
        match outcome {
            Ok((r, l)) => {
                all_run_ns += l.run_ns;
                let ok = pins.get(id) == Some(&grid::fingerprint(&r));
                if ok {
                    matched += 1;
                    total.add(&l);
                } else {
                    report.failed += 1;
                    report.problem(format!(
                        "replica cell {id} does not reproduce its pinned fingerprint"
                    ));
                }
                let layers = l.self_ms().map(|(k, v)| (k.to_string(), Json::num(v)));
                spans.push(Json::Obj(vec![
                    ("span".into(), Json::str(format!("cell {id}"))),
                    ("parent".into(), Json::str("run")),
                    ("start_ms".into(), Json::num(start.as_secs_f64() * 1e3)),
                    ("end_ms".into(), Json::num(end.as_secs_f64() * 1e3)),
                    ("fingerprint_ok".into(), Json::Bool(ok)),
                    ("self_ms".into(), Json::Obj(layers.to_vec())),
                ]));
            }
            Err(e) => {
                report.failed += 1;
                report.problem(format!("replica cell {id}: {e}"));
            }
        }
    }
    let resolved = matched == cells.len() as u64;
    set_layer_metrics(report, &total);
    report.set("sim.api.plan_ms", plan_ms);
    report.set("sim.api.executions", num(&reference, "executions"));
    report.set("sim.api.memo_hits", num(&reference, "memo_hits"));
    report.set("trace.cells", cells.len() as f64);
    report.set("trace.cells_matched", matched as f64);
    report.set("trace.resolved", f64::from(u8::from(resolved)));
    report.set("trace.wall_s", wall);
    report.set("trace.untraced_wall_s", untraced_wall);
    report.set("trace.overhead_frac", wall / untraced_wall - 1.0);
    let busy_ms = wall * 1e3 * THREADS as f64;
    let in_cells_ms = all_run_ns as f64 / 1e6;
    report.set("trace.attributed_ms", total.attributed_ns() as f64 / 1e6);
    report.set("trace.unattributed_ms", busy_ms - in_cells_ms);
    report.set("trace.unattributed_frac", (busy_ms - in_cells_ms) / busy_ms);

    let groups = total.self_ms();
    println!("layer self time (traced, {matched} cells):");
    for (name, ms) in groups {
        println!(
            "  {name:<12} {ms:>10.1} ms {:>6.1} %",
            100.0 * ms * 1e6 / total.run_ns.max(1) as f64
        );
    }
    let dominant = groups
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |g| g.0);
    let predicted: &[&str] = match args.workload {
        Workload::Mixes => &["memctrl"],
        _ => &["cpu.core", "cpu.llc", "sim.engine"],
    };
    report.dominant(dominant, predicted, resolved);
    report.write_spans(args, spans);
    Ok(())
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Fills the simulation layers' per-layer metrics from `l`, and zeroes
/// the service layers this workload does not exercise.
pub fn set_layer_metrics(report: &mut Report, l: &Layers) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let pairs: [(&'static str, f64); 41] = [
        ("traces.entries", l.trace_entries as f64),
        ("traces.ms", ms(l.trace_ns)),
        ("cpu.core.steps", l.core_steps as f64),
        ("cpu.core.ms", ms(l.core_ns)),
        ("cpu.core.stall_frac", ratio(l.stall_cycles, l.core_cycles)),
        ("cpu.core.retry_frac", ratio(l.retries, l.accesses)),
        ("cpu.llc.accesses", l.llc_accesses as f64),
        ("cpu.llc.fills", l.llc_fills as f64),
        ("cpu.llc.hit_rate", ratio(l.llc_hits, l.llc_accesses)),
        ("cpu.llc.ms", ms(l.llc_ns)),
        ("sim.engine.ms", ms(l.engine_ns)),
        ("sim.engine.skip_jumps", l.skip_jumps as f64),
        (
            "sim.engine.skipped_frac",
            ratio(l.skipped_cycles, l.sim_cycles),
        ),
        (
            "sim.engine.steps_per_cycle",
            ratio(l.core_steps, l.sim_cycles),
        ),
        ("memctrl.ticks", l.ticks as f64),
        ("memctrl.tick_ms", ms(l.tick_ns)),
        ("memctrl.enqueues", l.enqueues as f64),
        ("memctrl.enqueue_ms", ms(l.enqueue_ns)),
        ("memctrl.reject_frac", ratio(l.rejects, l.enqueues)),
        ("memctrl.next_event_calls", l.next_event_calls as f64),
        ("memctrl.next_event_ms", ms(l.next_event_ns)),
        ("memctrl.has_work_calls", l.has_work_calls as f64),
        ("memctrl.has_work_ms", ms(l.has_work_ns)),
        ("memctrl.sched_passes", l.sched_passes as f64),
        (
            "memctrl.bank_visits_per_pass",
            ratio(l.bank_visits, l.sched_passes),
        ),
        ("memctrl.row_hit_rate", ratio(l.row_hits, l.row_accesses)),
        (
            "memctrl.queue_depth_mean",
            ratio(l.queue_depth_sum, l.ticks),
        ),
        (
            "memctrl.read_latency_cycles",
            ratio(l.read_latency_sum, l.read_latency_count),
        ),
        ("dram.acts", l.dram_acts as f64),
        ("dram.reads", l.dram_reads as f64),
        ("dram.writes", l.dram_writes as f64),
        ("dram.refs", l.dram_refs as f64),
        ("dram.log_records", l.dram_log_records as f64),
        ("chargecache.calls.activate", l.mech_activate as f64),
        ("chargecache.calls.precharge", l.mech_precharge as f64),
        ("chargecache.calls.tick", l.mech_tick as f64),
        ("chargecache.calls.other", l.mech_other as f64),
        ("chargecache.ms", ms(l.mech_ns)),
        (
            "chargecache.hcrac_hit_rate",
            ratio(l.hcrac_hits, l.hcrac_lookups),
        ),
        (
            "chargecache.reduced_act_frac",
            ratio(l.reduced_acts, l.activates),
        ),
        ("drampower.ms", ms(l.energy_ns)),
    ];
    for (k, v) in pairs {
        report.set(k, v);
    }
    report.set("drampower.records", l.energy_records as f64);
    report.set("sim.simulate_ms", ms(l.run_ns));
    for k in [
        "sim.ckpt.stores",
        "sim.ckpt.bytes",
        "sim.ckpt.encode_ms",
        "sim.ckpt.store_ms",
        "sim.ckpt.share",
        "sim.cache.stores",
        "sim.cache.store_ms",
        "sim.cache.hits",
        "sim.cache.load_ms",
        "sim.cache.entry_bytes",
        "sim.codec.encode_ms",
        "sim.codec.decode_ms",
        "sim.json.ms",
        "simd.accept_ms",
        "simd.frames",
        "simd.bytes",
        "simd.order_violations",
        "simd.overhead_ms",
    ] {
        report.metrics.entry(k).or_insert(0.0);
    }
}
