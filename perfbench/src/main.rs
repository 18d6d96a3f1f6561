//! `perfbench` — the repository benchmark. Normally run through
//! `perfbench/run.sh`, which builds the simulator and this binary first:
//!
//! ```text
//! perfbench --workload singles|mixes|served --seed N --seconds S --trace 0|1
//!           [--trace-seed 42] [--simd PATH]
//! perfbench capture > perfbench/fingerprints.tsv   # re-pin the oracle
//! ```
//!
//! Exit codes: 0 when the run finished (its last stdout line is the JSON
//! summary, whose `correct` says whether every check held), 1 when it
//! could not run, 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::grid::{self, Workload, DEFAULT_TRACE_SEED, HELDOUT_TRACE_SEED, THREADS};
use perfbench::report::{Report, END_TO_END, PER_LAYER};
use perfbench::{inproc, provenance, served, Args};
use sim::json::Json;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.windows(2)
        .find(|w| w[0] == name)
        .map(|w| w[1].as_str())
}

fn parse<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v.parse().map_err(|_| format!("{name}: bad value {v:?}")),
        None => default.ok_or_else(|| format!("missing {name}")),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let name = flag(args, "--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
    };
    Ok(Args {
        workload,
        seed: parse(args, "--seed", Some(0))?,
        seconds: parse(args, "--seconds", Some(10.0))?,
        trace,
        trace_seed: parse(args, "--trace-seed", Some(DEFAULT_TRACE_SEED))?,
        simd: PathBuf::from(flag(args, "--simd").unwrap_or(".bench_build/release/cc-simd")),
    })
}

fn run(args: &Args) -> Result<(), String> {
    let load_before = provenance::loadavg();
    let mut report = Report::default();
    let p = args.workload.params(args.trace_seed);
    println!(
        "workload {} seed {} trace-seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.trace_seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "params insts_per_core={} warmup_insts={} max_cycle_factor={} seed={} threads={} engine=event-skip{}",
        p.insts_per_core,
        p.warmup_insts,
        p.max_cycle_factor,
        p.seed,
        THREADS,
        if args.workload == Workload::Served {
            format!(" checkpoint_interval={}", grid::CHECKPOINT_INTERVAL)
        } else {
            String::new()
        }
    );
    match (args.workload, args.trace) {
        (Workload::Served, false) => served::untraced(args, &mut report)?,
        (Workload::Served, true) => served::traced(args, &mut report)?,
        (_, false) => inproc::untraced(args, &mut report)?,
        (_, true) => inproc::traced(args, &mut report)?,
    }
    let provenance = Json::Obj(vec![
        ("git_rev".into(), Json::str(provenance::git_rev())),
        (
            "source_digest".into(),
            Json::str(provenance::source_digest()),
        ),
        ("rustc".into(), Json::str(provenance::rustc_version())),
        ("nproc".into(), Json::uint(provenance::nproc() as u64)),
        ("loadavg_1m_before".into(), Json::num(load_before)),
        ("loadavg_1m_after".into(), Json::num(provenance::loadavg())),
        (
            "cache_dir_fs".into(),
            Json::str(provenance::fs_type(std::path::Path::new("."))),
        ),
        ("seed".into(), Json::uint(args.seed)),
        ("trace_seed".into(), Json::uint(args.trace_seed)),
    ]);
    println!("provenance {provenance}");
    report.print(if args.trace { &PER_LAYER } else { &END_TO_END });
    Ok(())
}

/// Prints the pinned-fingerprint table for every workload at the default
/// and held-out trace seeds, simulating each cell once in-process.
fn capture() -> Result<(), String> {
    for w in Workload::ALL {
        for seed in [DEFAULT_TRACE_SEED, HELDOUT_TRACE_SEED] {
            let cells = grid::grid(w, seed)?;
            let fps = sim::par_map((0..cells.len()).collect(), THREADS, |i| {
                cells[i].plan.run(None).map(|r| grid::fingerprint(&r))
            });
            for (cell, fp) in cells.iter().zip(fps) {
                let fp = fp.map_err(|e| format!("{}: {e}", cell.id))?;
                println!("{}\t{seed}\t{}\t{fp:016x}", w.name(), cell.id);
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("capture") => capture(),
        Some("child") => {
            let rest = &argv[1..];
            match (
                flag(rest, "--workload").and_then(Workload::parse),
                parse(rest, "--trace-seed", None::<u64>),
                parse(rest, "--seed", None::<u64>),
            ) {
                (Some(w), Ok(ts), Ok(seed)) => {
                    inproc::child(w, ts, seed, rest.iter().any(|a| a == "--setup-only"))
                }
                _ => {
                    eprintln!("error: bad child arguments {rest:?}");
                    return ExitCode::from(2);
                }
            }
        }
        _ => match parse_args(&argv) {
            Ok(args) => run(&args),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
