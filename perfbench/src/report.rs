//! The metric catalog and the result printer.
//!
//! Every run prints one line per metric (`metric <name> = <value>
//! <unit>`, with the sample count for percentiles) and ends with the
//! one-line JSON summary: `{"correct", "attempted", "failed", "metrics"}`.
//! Untraced runs report [`END_TO_END`]; traced runs report [`PER_LAYER`].

use std::collections::BTreeMap;

use sim::json::Json;

use crate::stats::median;
use crate::Args;

/// End-to-end metrics (untraced runs), with units. `BENCHMARK.json`
/// lists the same names.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mcps", "Mcycles/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_p90", "ms"),
    ("hit_ms_p50", "ms"),
    ("hit_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs), with units.
pub const PER_LAYER: [(&str, &str); 74] = [
    ("traces.entries", "count"),
    ("traces.ms", "ms"),
    ("cpu.core.steps", "count"),
    ("cpu.core.ms", "ms"),
    ("cpu.core.stall_frac", "ratio"),
    ("cpu.core.retry_frac", "ratio"),
    ("cpu.llc.accesses", "count"),
    ("cpu.llc.fills", "count"),
    ("cpu.llc.hit_rate", "ratio"),
    ("cpu.llc.ms", "ms"),
    ("sim.engine.ms", "ms"),
    ("sim.engine.skip_jumps", "count"),
    ("sim.engine.skipped_frac", "ratio"),
    ("sim.engine.steps_per_cycle", "ratio"),
    ("memctrl.ticks", "count"),
    ("memctrl.tick_ms", "ms"),
    ("memctrl.enqueues", "count"),
    ("memctrl.enqueue_ms", "ms"),
    ("memctrl.reject_frac", "ratio"),
    ("memctrl.next_event_calls", "count"),
    ("memctrl.next_event_ms", "ms"),
    ("memctrl.has_work_calls", "count"),
    ("memctrl.has_work_ms", "ms"),
    ("memctrl.sched_passes", "count"),
    ("memctrl.bank_visits_per_pass", "ratio"),
    ("memctrl.row_hit_rate", "ratio"),
    ("memctrl.queue_depth_mean", "requests"),
    ("memctrl.read_latency_cycles", "cycles"),
    ("dram.acts", "count"),
    ("dram.reads", "count"),
    ("dram.writes", "count"),
    ("dram.refs", "count"),
    ("dram.log_records", "count"),
    ("chargecache.calls.activate", "count"),
    ("chargecache.calls.precharge", "count"),
    ("chargecache.calls.tick", "count"),
    ("chargecache.calls.other", "count"),
    ("chargecache.ms", "ms"),
    ("chargecache.hcrac_hit_rate", "ratio"),
    ("chargecache.reduced_act_frac", "ratio"),
    ("drampower.ms", "ms"),
    ("drampower.records", "count"),
    ("sim.api.plan_ms", "ms"),
    ("sim.api.executions", "count"),
    ("sim.api.memo_hits", "count"),
    ("sim.simulate_ms", "ms"),
    ("sim.ckpt.stores", "count"),
    ("sim.ckpt.bytes", "B"),
    ("sim.ckpt.encode_ms", "ms"),
    ("sim.ckpt.store_ms", "ms"),
    ("sim.ckpt.share", "ratio"),
    ("sim.cache.stores", "count"),
    ("sim.cache.store_ms", "ms"),
    ("sim.cache.hits", "count"),
    ("sim.cache.load_ms", "ms"),
    ("sim.cache.entry_bytes", "B"),
    ("sim.codec.encode_ms", "ms"),
    ("sim.codec.decode_ms", "ms"),
    ("sim.json.ms", "ms"),
    ("simd.accept_ms", "ms"),
    ("simd.frames", "count"),
    ("simd.bytes", "B"),
    ("simd.order_violations", "count"),
    ("simd.overhead_ms", "ms"),
    ("trace.cells", "count"),
    ("trace.cells_matched", "count"),
    ("trace.resolved", "flag"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.attributed_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.dominant_held", "flag"),
];

/// Raw end-to-end figures of one repetition of an untraced run.
#[derive(Debug, Default)]
pub struct RepFigures {
    /// Set-up times (s) of the repetition's process or daemons.
    pub setup_s: Vec<f64>,
    /// Makespan after set-up (s).
    pub wall_s: f64,
    /// Simulated post-warmup Mcycles per host second.
    pub mcps: f64,
    /// Per-cell latencies (ms) of cold cells.
    pub cell_ms: Vec<f64>,
    /// Per-cell latencies (ms) of cache or memoizer hits.
    pub hit_ms: Vec<f64>,
    /// Host-speed factor of the repetition's simulation work (1 where
    /// the work is bound by `fsync`).
    pub sim_factor: f64,
}

/// The outcome of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (cells, counting every repetition).
    pub attempted: u64,
    /// Failed, missing or fingerprint-mismatched operations.
    pub failed: u64,
    /// Other correctness checks that did not hold.
    pub problems: Vec<String>,
    /// Reported metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample-count notes of percentile metrics.
    pub notes: BTreeMap<&'static str, String>,
    /// Informational metrics printed but not in the JSON summary.
    pub extra: Vec<(&'static str, f64, &'static str)>,
    /// Raw (uncalibrated) figures printed beside calibrated metrics.
    pub raw: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a calibrated metric with the raw figure it came from.
    fn set_calibrated(&mut self, name: &'static str, value: f64, raw: f64) {
        self.metrics.insert(name, value);
        self.raw.insert(name, raw);
    }

    /// Records the end-to-end timing metrics of an untraced run
    /// ([`crate::calib`]). Each repetition yields one figure per metric;
    /// the run reports the median over repetitions. Simulation figures
    /// are calibrated by each repetition's `sim_factor`; set-up and hit
    /// latencies, which are cache-resident work, by the run's `core`
    /// factor. `probes` are extra set-up samples (s) taken outside the
    /// repetitions.
    pub fn end_to_end(&mut self, reps: &[RepFigures], probes: &[f64], core: f64) {
        let med = |f: &dyn Fn(&RepFigures) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
        let setups: Vec<f64> = probes
            .iter()
            .chain(reps.iter().flat_map(|r| &r.setup_s))
            .copied()
            .collect();
        self.set_calibrated("setup_s", median(&setups) / core, median(&setups));
        self.set_calibrated(
            "wall_s",
            med(&|r| r.wall_s / r.sim_factor),
            med(&|r| r.wall_s),
        );
        self.set_calibrated(
            "sim_mcps",
            med(&|r| r.mcps * r.sim_factor),
            med(&|r| r.mcps),
        );
        self.extra
            .push(("host_speed_factor", med(&|r| r.sim_factor), "ratio"));
        self.extra.push(("host_core_factor", core, "ratio"));
        let series: [(&'static str, f64, bool); 4] = [
            ("cell_ms_p50", 50.0, false),
            ("cell_ms_p90", 90.0, false),
            ("hit_ms_p50", 50.0, true),
            ("hit_ms_p90", 90.0, true),
        ];
        for (name, p, hit) in series {
            let mut raw = Vec::new();
            let mut cal = Vec::new();
            for r in reps {
                let (xs, f) = if hit {
                    (&r.hit_ms, core)
                } else {
                    (&r.cell_ms, r.sim_factor)
                };
                match crate::stats::percentile(xs, p) {
                    Ok(v) => {
                        raw.push(v);
                        cal.push(v / f);
                    }
                    Err(e) => self.problem(format!("{name}: {e}")),
                }
            }
            self.set_calibrated(name, median(&cal), median(&raw));
            let n = reps
                .first()
                .map_or(0, |r| if hit { r.hit_ms.len() } else { r.cell_ms.len() });
            self.notes.insert(
                name,
                format!("median over {} repetitions of n={n}", reps.len()),
            );
        }
    }

    /// Keeps the first value of a bit-exact simulated figure in `kept`;
    /// a later different value is a problem.
    pub fn repeat_exact(&mut self, name: &str, kept: &mut Option<f64>, value: f64) {
        match *kept {
            None => *kept = Some(value),
            Some(prev) if prev.to_bits() != value.to_bits() => {
                self.problem(format!(
                    "{name} changed between repetitions: {prev} vs {value}"
                ));
            }
            Some(_) => {}
        }
    }

    /// Records a correctness problem.
    pub fn problem(&mut self, p: impl Into<String>) {
        self.problems.push(p.into());
    }

    /// Prints and records whether the largest self time fell in one of the
    /// `predicted` layers (`trace.dominant_held`).
    pub fn dominant(&mut self, dominant: &str, predicted: &[&str], resolved: bool) {
        let held = resolved && predicted.contains(&dominant);
        let verdict = match (resolved, held) {
            (false, _) => "unresolved (a replica cell missed its fingerprint)",
            (true, true) => "held",
            (true, false) => "did not hold",
        };
        println!(
            "dominant layer {dominant} (predicted {}): {verdict}",
            predicted.join(" or ")
        );
        self.set("trace.dominant_held", f64::from(u8::from(held)));
    }

    /// Writes the spans kept in memory during a traced run to
    /// `.bench_out/spans-<workload>-seed<N>.jsonl`, one JSON object per
    /// line. A write failure is reported, not fatal.
    pub fn write_spans(&mut self, args: &Args, spans: Vec<Json>) {
        let path = format!(
            ".bench_out/spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        );
        let body: String = spans.iter().map(|s| format!("{s}\n")).collect();
        match std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => println!("spans written to {path} ({} cells)", spans.len()),
            Err(e) => println!("spans not written to {path}: {e}"),
        }
    }

    /// Prints every metric line and the final JSON summary. `catalog` is
    /// the list this run must report; a missing metric is a problem.
    pub fn print(mut self, catalog: &[(&'static str, &'static str)]) {
        for &(name, _) in catalog {
            if !self.metrics.contains_key(name) {
                self.problems
                    .push(format!("metric {name} was not measured"));
            }
        }
        for (name, value, unit) in &self.extra {
            println!("metric {name} = {value} {unit} (printed only)");
        }
        let mut members = Vec::new();
        for &(name, unit) in catalog {
            let value = self.metrics.get(name).copied().unwrap_or(f64::NAN);
            let n = self
                .notes
                .get(name)
                .map_or(String::new(), |n| format!("; {n}"));
            match self.raw.get(name) {
                Some(raw) => println!("metric {name} = {value} {unit} (raw {raw}{n})"),
                None => println!("metric {name} = {value} {unit}"),
            }
            members.push((
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::num(value)),
                    ("unit".into(), Json::str(unit)),
                ]),
            ));
        }
        for p in &self.problems {
            println!("problem: {p}");
        }
        let summary = Json::Obj(vec![
            (
                "correct".into(),
                Json::Bool(self.problems.is_empty() && self.failed == 0),
            ),
            ("attempted".into(), Json::uint(self.attempted.max(1))),
            ("failed".into(), Json::uint(self.failed)),
            ("metrics".into(), Json::Obj(members)),
        ]);
        println!("{summary}");
    }
}
