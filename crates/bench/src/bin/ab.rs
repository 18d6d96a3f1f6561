//! `ab` — an interleaved A/B comparison of the repository benchmark
//! between a baseline revision and the working tree.
//!
//! ```text
//! cargo run --release -p bench --bin ab -- --base REV
//!     --workload singles|mixes|served [--pairs N] [--trace-seed T]
//! ```
//!
//! The baseline is extracted with `git archive` into
//! `target/ab/<rev>/src`, so no worktree is registered in `.git`, and
//! builds into its own `CARGO_TARGET_DIR`, `target/ab/<rev>/build`, kept
//! for the next comparison; the working tree builds into
//! `target/ab/work`. The extracted source is removed at the end. Each
//! pair runs `perfbench/run.sh --trace 0` once per side with the same
//! `--seed` (the pair index), alternating which side goes first. `served`
//! runs start at least 3 s apart, because their `fsync`s drift with the
//! disk's backlog. Every run lasts `BENCHMARK.json`'s `run_seconds`, the
//! length the benchmark itself runs at. An unknown flag is an error.
//!
//! For each end-to-end metric of `BENCHMARK.json` the report prints the
//! median and quartiles per side, the change's median over the
//! baseline's, the pairs the change won, the bound, and a verdict:
//! `worse` when the change's median is worse by more than the bound;
//! `unresolved` when either side's spread (IQR over median) exceeds the
//! bound, unless every change run reads better than every baseline run;
//! `better` when at least 10 pairs ran, the change won at least 9 in 10
//! (ties count for neither) and the medians differ by more than the
//! baseline's IQR; else
//! `same`. Runs that are not `correct` or report failed cells are
//! listed, and the exit code is then 1.

use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use sim::json::{self, Json};

/// One end-to-end metric declared by `BENCHMARK.json`.
struct Metric {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

/// `(q1, median, q3)` of `xs`, interpolating linearly between order
/// statistics. NaNs are ignored; with no values left all three are NaN.
fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * v.len().saturating_sub(1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        match (v.get(lo), v.get(hi)) {
            (Some(a), Some(b)) => a + (b - a) * pos.fract(),
            _ => f64::NAN,
        }
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Whether `change` reads strictly better than `base`.
fn better(lower_is_better: bool, base: f64, change: f64) -> bool {
    if lower_is_better {
        change < base
    } else {
        change > base
    }
}

/// Pairs `(base, change)` in which the change is strictly better.
fn wins(pairs: &[(f64, f64)], lower_is_better: bool) -> usize {
    let won = |&&(b, c): &&(f64, f64)| better(lower_is_better, b, c);
    pairs.iter().filter(won).count()
}

/// The verdict on one metric (see the module doc).
fn verdict(pairs: &[(f64, f64)], m: &Metric) -> &'static str {
    let (base, change): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
    let ((bq1, b50, bq3), (cq1, c50, cq3)) = (quartiles(&base), quartiles(&change));
    let worse_by = if m.lower_is_better {
        c50 / b50 - 1.0
    } else {
        1.0 - c50 / b50
    };
    let spread = |q1: f64, q3: f64, med: f64| (q3 - q1) / med.abs();
    let dominates = (change.iter()).all(|&c| base.iter().all(|&b| better(m.lower_is_better, b, c)));
    let claim = pairs.len() >= 10
        && wins(pairs, m.lower_is_better) * 10 >= pairs.len() * 9
        && better(m.lower_is_better, b50, c50)
        && (c50 - b50).abs() > bq3 - bq1;
    if worse_by > m.bound || worse_by.is_nan() {
        "worse"
    } else if !dominates && (spread(bq1, bq3, b50) > m.bound || spread(cq1, cq3, c50) > m.bound) {
        "unresolved"
    } else if claim {
        "better"
    } else {
        "same"
    }
}

/// `x` to four significant digits, without an exponent.
fn sig(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return x.to_string();
    }
    let decimals = (3 - x.abs().log10().floor() as i32).max(0) as usize;
    format!("{x:.decimals$}")
}

/// Runs `cmd` and returns its stdout, or its stderr as the error.
fn run(cmd: &mut Command) -> Result<String, String> {
    let out = cmd.output().map_err(|e| format!("{cmd:?}: {e}"))?;
    match out.status.success() {
        true => Ok(String::from_utf8_lossy(&out.stdout).into_owned()),
        false => Err(format!(
            "{cmd:?}: {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

/// One untraced benchmark run in `tree`: its JSON summary line. The
/// first run of a side also builds it (`run.sh` builds before it
/// measures).
fn bench(tree: &Path, target: &Path, args: &[String]) -> Result<Json, String> {
    let mut cmd = Command::new("bash");
    cmd.arg("perfbench/run.sh")
        .args(["--trace", "0"])
        .args(args);
    let out = run(cmd.current_dir(tree).env("CARGO_TARGET_DIR", target))?;
    json::parse(out.lines().last().unwrap_or(""))
}

fn main() -> ExitCode {
    match ab(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ab: {e}");
            ExitCode::from(2)
        }
    }
}

/// The value of each `--name value` pair in `args`, in `names` order;
/// an unknown flag or a flag without a value is an error.
fn flags<const N: usize>(args: &[String], names: [&str; N]) -> Result<[Option<String>; N], String> {
    let mut values = [(); N].map(|()| None);
    for pair in args.chunks(2) {
        let i = (names.iter().position(|&n| n == pair[0]))
            .ok_or_else(|| format!("unknown flag {:?}", pair[0]))?;
        let value = pair
            .get(1)
            .ok_or_else(|| format!("{} needs a value", pair[0]))?;
        values[i] = Some(value.clone());
    }
    Ok(values)
}

fn ab(args: &[String]) -> Result<bool, String> {
    let [rev, workload, pairs, trace_seed] =
        flags(args, ["--base", "--workload", "--pairs", "--trace-seed"])?;
    let rev = rev.ok_or("missing --base REV")?;
    let workload = workload.ok_or("missing --workload singles|mixes|served")?;
    let pairs: usize = pairs
        .map_or(Ok(10), |v| v.parse())
        .map_err(|_| "bad --pairs")?;
    let git = |args: &[&str]| run(Command::new("git").args(args)).map(|s| s.trim().to_string());
    let root = std::path::PathBuf::from(git(&["rev-parse", "--show-toplevel"])?);
    let spec = json::parse(
        &std::fs::read_to_string(root.join("BENCHMARK.json")).map_err(|e| e.to_string())?,
    )?;
    let seconds = (spec.get("run_seconds").and_then(Json::as_num))
        .ok_or("BENCHMARK.json has no run_seconds")?
        .to_string();
    let sha = git(&[
        "-C",
        &root.to_string_lossy(),
        "rev-parse",
        "--short=12",
        &format!("{rev}^{{commit}}"),
    ])?;
    let base_tree = root.join("target/ab").join(&sha).join("src");
    let _ = std::fs::remove_dir_all(&base_tree);
    std::fs::create_dir_all(&base_tree).map_err(|e| e.to_string())?;
    let extract = "git archive \"$0\" | tar -x -C \"$1\"";
    run(Command::new("sh")
        .args(["-c", extract, &sha])
        .arg(&base_tree)
        .current_dir(&root))?;

    let sides = [
        (&base_tree, root.join("target/ab").join(&sha).join("build")),
        (&root, root.join("target/ab/work")),
    ];
    let trace_seed = trace_seed.map(|t| ["--trace-seed".to_string(), t]);
    let mut common = vec![
        "--workload".into(),
        workload.clone(),
        "--seconds".into(),
        seconds.clone(),
    ];
    common.extend(trace_seed.clone().into_iter().flatten());
    let mut runs: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
    let mut last_start: Option<Instant> = None;
    let outcome = (0..pairs).try_for_each(|pair| {
        for side in if pair % 2 == 0 { [0, 1] } else { [1, 0] } {
            if let (Some(t), "served") = (last_start, workload.as_str()) {
                std::thread::sleep(Duration::from_secs(3).saturating_sub(t.elapsed()));
            }
            last_start = Some(Instant::now());
            eprintln!(
                "ab: pair {}/{pairs}: {}",
                pair + 1,
                ["base", "change"][side]
            );
            let bench_args = [common.clone(), vec!["--seed".into(), pair.to_string()]].concat();
            runs[side].push(bench(sides[side].0, &sides[side].1, &bench_args)?);
        }
        Ok::<_, String>(())
    });
    let _ = std::fs::remove_dir_all(&base_tree);
    outcome?;

    let trace_seed = trace_seed.map_or(String::new(), |[_, t]| format!(", --trace-seed {t}"));
    println!("ab: {workload}, base {sha} vs working tree, {pairs} pairs at --seconds {seconds}{trace_seed}");
    let (base, change) = (&runs[0], &runs[1]);
    let (bh, ch) = ("base median [q1, q3]", "change median [q1, q3]");
    println!("metric       unit       {bh:>34} {ch:>34}   ratio  wins  bound  verdict");
    let value = |r: &Json, name: &str| {
        let m = r
            .get("metrics")
            .and_then(|ms| ms.get(name))
            .and_then(|m| m.get("value"));
        m.and_then(Json::as_num).unwrap_or(f64::NAN)
    };
    let fmt = |(q1, m, q3)| format!("{} [{}, {}]", sig(m), sig(q1), sig(q3));
    for m in spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or_default()
    {
        let s = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        let m = Metric {
            name: s("name"),
            unit: s("unit"),
            lower_is_better: s("better") == "lower",
            bound: m.get("bound").and_then(Json::as_num).unwrap_or(f64::NAN),
        };
        let pairs: Vec<(f64, f64)> = base
            .iter()
            .zip(change)
            .map(|(b, c)| (value(b, &m.name), value(c, &m.name)))
            .collect();
        let (b, c): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
        let (bq, cq) = (quartiles(&b), quartiles(&c));
        let won = format!("{}/{}", wins(&pairs, m.lower_is_better), pairs.len());
        let verdict = verdict(&pairs, &m);
        println!(
            "{:<12} {:<10} {:>34} {:>34} {:>7.3} {:>5} {:>6}  {verdict}",
            m.name,
            m.unit,
            fmt(bq),
            fmt(cq),
            cq.1 / bq.1,
            won,
            m.bound
        );
    }
    let mut ok = true;
    for (side, runs) in [("base", base), ("change", change)] {
        for (pair, r) in runs.iter().enumerate() {
            let failed = r.get("failed").and_then(Json::as_num);
            if r.get("correct") != Some(&Json::Bool(true)) || failed != Some(0.0) {
                println!(
                    "{side} run {pair}: correct={:?} failed={failed:?}",
                    r.get("correct")
                );
                ok = false;
            }
        }
    }
    if ok {
        println!("every run correct, failed=0");
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), (2.0, 3.0, 4.0));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.75, 2.5, 3.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(quartiles(&[f64::NAN, 2.0, 4.0]), (2.5, 3.0, 3.5));
        assert!(quartiles(&[]).1.is_nan());
    }

    #[test]
    fn wins_count_strictly_better_pairs_in_the_metric_direction() {
        let pairs = [(5.0, 0.2), (5.0, 5.0), (4.0, 6.0), (6.0, 0.3)];
        assert_eq!(wins(&pairs, true), 2);
        assert_eq!(wins(&pairs, false), 1);
        assert_eq!(wins(&[(1.0, f64::NAN)], true), 0);
    }

    #[test]
    fn verdicts_follow_the_bound_the_spread_and_the_claim_rule() {
        let m = |lower_is_better| Metric {
            name: "x".into(),
            unit: "ms".into(),
            lower_is_better,
            bound: 0.25,
        };
        let base = [5.0, 5.1, 5.2, 5.3, 5.4, 5.0, 5.1, 5.2, 5.3, 5.4];
        let fast = [0.2, 0.21, 0.22, 0.2, 0.21, 0.22, 0.2, 0.21, 0.22, 0.2];
        let zip =
            |b: &[f64], c: &[f64]| b.iter().copied().zip(c.iter().copied()).collect::<Vec<_>>();
        assert_eq!(verdict(&zip(&base, &fast), &m(true)), "better");
        assert_eq!(verdict(&zip(&base, &fast), &m(false)), "worse");
        // Fewer than ten pairs support no claim.
        assert_eq!(verdict(&zip(&base[..9], &fast[..9]), &m(true)), "same");
        assert_eq!(verdict(&zip(&base, &base), &m(true)), "same");
        // One lost pair in ten still meets the claim rule; two do not.
        let mut one_lost = fast;
        one_lost[0] = 6.0;
        assert_eq!(verdict(&zip(&base, &one_lost), &m(true)), "better");
        one_lost[1] = 6.0;
        assert_eq!(verdict(&zip(&base, &one_lost), &m(true)), "same");
        let noisy = [1.0, 9.0, 1.0, 9.0, 1.0, 9.0, 1.0, 9.0, 1.0, 9.0];
        assert_eq!(verdict(&zip(&noisy, &noisy), &m(true)), "unresolved");
        // A wide spread is resolved when every change run beats every
        // baseline run; a claim still needs the medians a baseline IQR
        // apart.
        let low_noisy = noisy.map(|x| x / 100.0);
        assert_eq!(verdict(&zip(&noisy, &low_noisy), &m(true)), "same");
    }

    #[test]
    fn flags_reject_unknown_and_valueless_flags() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let names = ["--base", "--pairs"];
        assert_eq!(
            flags(&args("--pairs 3 --base v1"), names),
            Ok([Some("v1".into()), Some("3".into())])
        );
        assert_eq!(flags(&[], names), Ok([None, None]));
        assert!(flags(&args("--pair 3"), names).is_err());
        assert!(flags(&args("--base v1 --pairs"), names).is_err());
        assert!(flags(&args("--seconds 5"), names).is_err());
    }

    #[test]
    fn sig_keeps_four_significant_digits() {
        assert_eq!(sig(0.000216), "0.0002160");
        assert_eq!(sig(5.36), "5.360");
        assert_eq!(sig(1234.5), "1234");
        assert_eq!(sig(0.0), "0");
    }
}
