//! `cc-sim` — command-line front-end for the ChargeCache reproduction.
//!
//! ```text
//! cc-sim --list-mechanisms                      # registered mechanism specs
//! cc-sim --list-timings                         # DRAM timing presets, by family
//! cc-sim --list-families                        # DRAM device families
//! cc-sim --list-workloads                       # 22 workloads + 20 mixes
//! cc-sim run  --workload mcf --mechanism chargecache
//! cc-sim run  --workload mcf --mechanism 'chargecache(entries=1024,duration=2ms)'
//! cc-sim run  --workload mcf --mechanism refresh-cc   # plugin mechanism
//! cc-sim run  --workload mcf --mechanism all    # the paper's five
//! cc-sim run  --workload mcf --timing ddr3-2133 # a faster speed bin
//! cc-sim run  --workload mcf --family lpddr4x   # another device family
//! cc-sim run  --workload mcf --json             # machine-readable sweep (v5)
//! cc-sim run  --workload mcf --json --cache-dir .cc-cache   # resumable
//! cc-sim mix  --index 3 --mechanism all         # one eight-core mix
//! cc-sim run  --workload mcf --json --server /tmp/cc.sock  # via cc-simd
//! cc-sim cache-gc --cache-dir .cc-cache --budget 512M      # trim the cache
//! cc-sim bitline --age 64                       # waveform CSV
//! cc-sim overhead --cores 8 --channels 2 --entries 128
//! ```
//!
//! `--mechanism` accepts **any registered spec** in the
//! `name(key=val,...)` grammar — including plugin mechanisms like
//! `perfect-cc` and `refresh-cc`, which live outside `crates/core` and
//! register at startup — and may be repeated to sweep several mechanisms
//! in one invocation. `--list-mechanisms` prints every registered
//! factory with its parameter defaults. `--timing` accepts any JEDEC
//! speed-bin preset in the matching `preset(key=val,...)` grammar
//! (`ddr3-1066` … `ddr3-2133`, `ddr4-2400`, `lpddr3-1600`), with
//! per-parameter overrides like `ddr3-1866(trcd=12)`. `--family`
//! accepts any registered device family in the same grammar (`ddr3`,
//! `ddr4`, `lpddr4x`, `hbm2`, with overrides like
//! `ddr4(bank_groups=2)`); `--list-families` prints each family's
//! geometry.
//!
//! Common `run`/`mix` flags: `--timing SPEC`, `--entries N`,
//! `--duration MS` (parameter patches applied to every mechanism that
//! supports them), `--insts N`, `--warmup N`, `--seed N`, `--threads N`,
//! `--csv`, `--json`, `--out FILE`, `--cache-dir DIR`, `--no-cache`,
//! `--checkpoint-interval N`.
//!
//! # Durability
//!
//! With `--cache-dir DIR` (or the `CC_CACHE_DIR` environment variable)
//! every completed cell is persisted to a content-addressed disk cache
//! as soon as it finishes, so a killed or crashed sweep re-run against
//! the same directory resumes where it left off and produces the same
//! JSON byte for byte. A cell that panics fails *alone*: the rest of
//! the sweep completes, the failure is reported per cell on stderr (and
//! as an `error` object in `--json` output), and the process exits 3.
//! `cache-gc --budget SIZE` trims the cache to a byte budget, evicting
//! least-recently-used entries first.
//!
//! `--checkpoint-interval N` additionally checkpoints every *in-flight*
//! cell to the cache directory every N retired instructions per core, so
//! a `SIGKILL`ed sweep resumes long cells from their newest checkpoint —
//! not just at completed-cell granularity — and still produces JSON byte
//! for byte identical to an uninterrupted run.
//!
//! # Served sweeps
//!
//! With `--json --server SOCKET` the sweep is not simulated in-process:
//! the grid is submitted to a running `cc-simd` daemon, the streamed
//! cells are reassembled in grid order, and the resulting document is
//! byte-identical to the local `--json` output of the same grid. The
//! daemon owns the disk cache in this mode, so `--cache-dir`,
//! `--no-cache` and `--threads` are rejected alongside `--server`.
//!
//! # Exit codes
//!
//! `0` success · `2` usage or configuration error · `3` one or more
//! cells failed · `4` output I/O error (an unwritable `--out` path).
//!
//! Flags are parsed by a typed parser: unknown flags are rejected, every
//! value is validated at the boundary, and the experiments themselves run
//! through [`sim::api::Experiment`] (shared memoized run cache, parallel
//! sweep execution, deterministic JSON encoding).

use std::path::PathBuf;
use std::process::ExitCode;

use chargecache::{registry, MechanismSpec, OverheadModel, ParamValue};
use chargecache_repro::mechs::register_extended_mechanisms;
use dram::{FamilySpec, TimingSpec};
use sim::api::{Experiment, Subject, SweepResult};
use sim::exp::{default_threads, ExpParams};
use sim::{DiskCache, RunResult};
use simd::{Client, ClientError, SweepSpec};
use traces::{eight_core_mixes, single_core_workloads, workload};

/// Typed top-level failure, mapped onto the process exit code so
/// scripts and CI can tell failure classes apart without parsing
/// stderr: usage/configuration errors exit 2, per-cell simulation
/// failures exit 3, output I/O failures exit 4.
enum CliError {
    /// Bad flags, unknown specs, invalid configuration.
    Usage(String),
    /// The sweep ran, but one or more cells failed (panic or config).
    Cell(String),
    /// Writing `--out` failed.
    Io(String),
}

fn main() -> ExitCode {
    // Plugin mechanisms (perfect-cc, refresh-cc) live outside
    // `crates/core`; registering them first makes every `--mechanism`
    // spec and `--list-mechanisms` row uniform with the built-ins.
    register_extended_mechanisms();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "list" | "--list-workloads" => cmd_list(),
        "--list-mechanisms" => cmd_list_mechanisms(),
        "--list-timings" => cmd_list_timings(),
        "--list-families" => cmd_list_families(),
        "run" | "mix" => SweepCmd::parse(cmd, rest)
            .map_err(CliError::Usage)
            .and_then(|a| cmd_sweep(&a)),
        "bitline" => BitlineArgs::parse(rest)
            .map_err(CliError::Usage)
            .and_then(|a| cmd_bitline(&a)),
        "overhead" => OverheadArgs::parse(rest)
            .map_err(CliError::Usage)
            .and_then(|a| cmd_overhead(&a)),
        "cache-gc" | "--cache-gc" => CacheGcArgs::parse(rest)
            .map_err(CliError::Usage)
            .and_then(|a| cmd_cache_gc(&a)),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(e)) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Cell(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(3)
        }
        Err(CliError::Io(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(4)
        }
    }
}

const USAGE: &str = "\
cc-sim — ChargeCache (HPCA 2016) reproduction CLI

USAGE:
  cc-sim --list-mechanisms            registered mechanism specs + defaults
  cc-sim --list-timings               DRAM timing presets, grouped by family
  cc-sim --list-families              DRAM device families + geometry
  cc-sim --list-workloads             the 22 workloads and 20 mixes (alias: list)
  cc-sim run  --workload <name> --mechanism <spec|all> [options]
  cc-sim mix  --index <1..20>   --mechanism <spec|all> [options]
  cc-sim cache-gc --budget <size> [--cache-dir DIR]
  cc-sim bitline [--age <ms>]
  cc-sim overhead [--cores N] [--channels N] [--entries N]

MECHANISM SPECS:
  any registered mechanism in the name(key=val,...) grammar, e.g.
    --mechanism baseline
    --mechanism 'chargecache(entries=1024,duration=2ms)'
    --mechanism 'refresh-cc(entries=256)'        (plugin, outside core)
    --mechanism all                              (the paper's five)
  repeat --mechanism to sweep several specs in one invocation
  see `cc-sim --list-mechanisms` for names, defaults and descriptions

TIMING SPECS:
  a JEDEC speed-bin preset, optionally with parameter overrides, e.g.
    --timing ddr3-1600                           (the paper's Table 1 device)
    --timing ddr3-2133
    --timing 'ddr3-1866(trcd=12,tfaw=26)'
  see `cc-sim --list-timings` for presets and their resolved parameters

FAMILY SPECS:
  a registered device family, optionally with overrides, e.g.
    --family ddr3                                (the paper's device structure)
    --family lpddr4x                             (per-bank refresh, 32 ms)
    --family 'ddr4(bank_groups=2)'
  see `cc-sim --list-families` for families and their geometries

OPTIONS (run/mix):
  --family SPEC   DRAM device family spec         [default ddr3]
  --timing SPEC   DRAM timing preset spec         [default: family's bin]
  --entries N     HCRAC entries per core patch    [default: per mechanism]
  --duration MS   caching duration patch, in ms   [default: per mechanism]
  --insts N       measured instructions per core  [default 120000 × CC_SCALE]
  --warmup N      warmup instructions per core    [default 25000 × CC_SCALE]
  --seed N        trace seed                      [default 42]
  --threads N     sweep worker threads            [default: all cores]
  --csv           machine-readable CSV output
  --json          machine-readable JSON sweep (schema chargecache-sweep/v5)
  --out FILE      write the --json sweep to FILE instead of stdout
  --cache-dir DIR persist finished cells to a disk run cache (resumable;
                  defaults to $CC_CACHE_DIR when set)
  --no-cache      ignore --cache-dir and $CC_CACHE_DIR
  --checkpoint-interval N
                  checkpoint each in-flight cell to the cache directory
                  every N retired instructions per core, so a killed run
                  resumes mid-cell instead of restarting the cell from
                  zero (needs --cache-dir or $CC_CACHE_DIR)
  --server SOCK   submit the sweep to a cc-simd daemon instead of
                  simulating in-process (requires --json; the daemon
                  owns the cache, so cache/thread flags are rejected)

CACHE GC (cache-gc):
  --budget SIZE   byte budget: plain bytes or a k/M/G suffix (512M)
  --cache-dir DIR cache to trim (defaults to $CC_CACHE_DIR)

EXIT CODES:
  0 success  ·  2 usage/config error  ·  3 cell failure  ·  4 output I/O error";

// ---------------------------------------------------------------------------
// Typed flag parsing
// ---------------------------------------------------------------------------

/// Cursor over raw CLI arguments with typed extractors. Every command
/// loops over its known flags and rejects anything else.
struct Cursor<'a> {
    it: std::slice::Iter<'a, String>,
}

impl<'a> Cursor<'a> {
    fn new(args: &'a [String]) -> Self {
        Self { it: args.iter() }
    }

    fn next_flag(&mut self) -> Result<Option<&'a str>, String> {
        match self.it.next() {
            None => Ok(None),
            Some(a) => match a.strip_prefix("--") {
                Some(flag) => Ok(Some(flag)),
                None => Err(format!("unexpected argument {a:?}")),
            },
        }
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.it
            .next()
            .map(String::as_str)
            .ok_or_else(|| format!("flag --{flag} needs a value"))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.value(flag)?;
        v.parse().map_err(|_| format!("--{flag}: bad number {v:?}"))
    }
}

/// Flags shared by `run` and `mix`.
struct SweepArgs {
    mechanisms: Vec<MechanismSpec>,
    /// Whether `--mechanism` appeared at least once: the first use
    /// replaces the default axis, later uses accumulate.
    mechanisms_set: bool,
    family: Option<FamilySpec>,
    timing: Option<TimingSpec>,
    entries: Option<usize>,
    duration: Option<f64>,
    insts: Option<u64>,
    warmup: Option<u64>,
    seed: Option<u64>,
    threads: Option<usize>,
    csv: bool,
    json: bool,
    out: Option<PathBuf>,
    cache_dir: Option<PathBuf>,
    no_cache: bool,
    checkpoint_interval: Option<u64>,
    server: Option<PathBuf>,
}

impl Default for SweepArgs {
    fn default() -> Self {
        Self {
            mechanisms: MechanismSpec::paper_all().to_vec(),
            mechanisms_set: false,
            family: None,
            timing: None,
            entries: None,
            duration: None,
            insts: None,
            warmup: None,
            seed: None,
            threads: None,
            csv: false,
            json: false,
            out: None,
            cache_dir: None,
            no_cache: false,
            checkpoint_interval: None,
            server: None,
        }
    }
}

impl SweepArgs {
    /// Handles one shared flag; `Ok(false)` means the flag is not a sweep
    /// flag and the caller should try its own.
    fn try_flag(&mut self, flag: &str, cur: &mut Cursor) -> Result<bool, String> {
        match flag {
            "mechanism" => {
                let parsed = parse_mechanisms(cur.value(flag)?)?;
                if self.mechanisms_set {
                    self.mechanisms.extend(parsed);
                } else {
                    self.mechanisms = parsed;
                    self.mechanisms_set = true;
                }
            }
            "timing" => {
                let spec: TimingSpec = cur.value(flag)?.parse()?;
                // Resolve up front so a bad preset or incoherent override
                // fails at the flag, not deep inside the sweep.
                spec.resolve()
                    .map_err(|e| format!("{e} — see `cc-sim --list-timings`"))?;
                self.timing = Some(spec);
            }
            "family" => {
                let spec: FamilySpec = cur.value(flag)?.parse()?;
                dram::family::resolve(&spec)
                    .map_err(|e| format!("{e} — see `cc-sim --list-families`"))?;
                self.family = Some(spec);
            }
            "entries" => self.entries = Some(cur.parsed(flag)?),
            "duration" => self.duration = Some(cur.parsed(flag)?),
            "insts" => self.insts = Some(cur.parsed(flag)?),
            "warmup" => self.warmup = Some(cur.parsed(flag)?),
            "seed" => self.seed = Some(cur.parsed(flag)?),
            "threads" => {
                let n: usize = cur.parsed(flag)?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                self.threads = Some(n);
            }
            "csv" => self.csv = true,
            "json" => self.json = true,
            "out" => self.out = Some(PathBuf::from(cur.value(flag)?)),
            "cache-dir" => self.cache_dir = Some(PathBuf::from(cur.value(flag)?)),
            "no-cache" => self.no_cache = true,
            "checkpoint-interval" => {
                let n: u64 = cur.parsed(flag)?;
                if n == 0 {
                    return Err("--checkpoint-interval must be at least 1 instruction".into());
                }
                self.checkpoint_interval = Some(n);
            }
            "server" => self.server = Some(PathBuf::from(cur.value(flag)?)),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Cross-flag validation, run once parsing is complete.
    fn check(&self) -> Result<(), String> {
        if self.out.is_some() && !self.json {
            return Err("--out requires --json (only the JSON sweep is written to a file)".into());
        }
        if self.server.is_some() {
            if !self.json {
                return Err("--server requires --json (served sweeps are JSON documents)".into());
            }
            if self.csv {
                return Err("--server and --csv are mutually exclusive".into());
            }
            if self.cache_dir.is_some() || self.no_cache {
                return Err(
                    "--cache-dir/--no-cache have no effect with --server (the daemon owns the \
                     cache; configure it with `cc-simd serve --cache-dir`)"
                        .into(),
                );
            }
            if self.threads.is_some() {
                return Err(
                    "--threads has no effect with --server (the daemon's worker pool is sized \
                     with `cc-simd serve --threads`)"
                        .into(),
                );
            }
            if self.checkpoint_interval.is_some() {
                return Err(
                    "--checkpoint-interval has no effect with --server (durability belongs to \
                     whoever executes the cells; configure the daemon with `cc-simd serve \
                     --checkpoint-interval`)"
                        .into(),
                );
            }
        }
        if self.checkpoint_interval.is_some() && self.effective_cache_dir().is_none() {
            return Err(
                "--checkpoint-interval needs a cache directory to write checkpoints into \
                 (pair it with --cache-dir DIR or $CC_CACHE_DIR)"
                    .into(),
            );
        }
        Ok(())
    }

    /// The disk-cache directory in effect: `--no-cache` wins, then
    /// `--cache-dir`, then the `CC_CACHE_DIR` environment variable.
    fn effective_cache_dir(&self) -> Option<PathBuf> {
        if self.no_cache {
            return None;
        }
        if let Some(d) = &self.cache_dir {
            return Some(d.clone());
        }
        std::env::var_os("CC_CACHE_DIR")
            .filter(|v| !v.is_empty())
            .map(PathBuf::from)
    }

    fn params(&self) -> ExpParams {
        let mut p = ExpParams::bench();
        if let Some(n) = self.insts {
            p.insts_per_core = n;
        }
        if let Some(n) = self.warmup {
            p.warmup_insts = n;
        }
        if let Some(n) = self.seed {
            p.seed = n;
        }
        if let Some(n) = self.checkpoint_interval {
            p.checkpoint_interval = n;
        }
        p
    }

    /// The mechanism axis with `--entries` / `--duration` patched into
    /// every spec whose factory supports the parameter.
    fn specs(&self) -> Result<Vec<MechanismSpec>, String> {
        let mut specs = self.mechanisms.clone();
        for spec in &mut specs {
            if let Some(n) = self.entries {
                if registry::supports_param(spec, "entries") {
                    spec.set("entries", ParamValue::Int(n as i64));
                }
            }
            if let Some(ms) = self.duration {
                if registry::supports_param(spec, "duration") {
                    spec.set("duration", ParamValue::DurationMs(ms));
                }
            }
            registry::validate_spec(spec)?;
        }
        Ok(specs)
    }

    fn experiment(&self) -> Result<Experiment, String> {
        let mut exp = Experiment::new()
            .mechanisms(&self.specs()?)
            .params(self.params())
            .threads(self.threads.unwrap_or_else(default_threads));
        if let Some(f) = &self.family {
            exp = exp.family(f.clone());
        }
        if let Some(t) = &self.timing {
            exp = exp.timing(t.clone());
        }
        if let Some(dir) = self.effective_cache_dir() {
            exp = exp.cache_dir(dir);
        }
        Ok(exp)
    }

    /// Emits the machine-readable sweep: to `--out` when given (the one
    /// I/O operation mapped to exit code 4), stdout otherwise.
    fn emit_json(&self, sweep: &SweepResult) -> Result<(), CliError> {
        let doc = sweep.to_json();
        match &self.out {
            Some(path) => std::fs::write(path, doc.as_bytes())
                .map_err(|e| CliError::Io(format!("writing {}: {e}", path.display()))),
            None => {
                println!("{doc}");
                Ok(())
            }
        }
    }

    /// One stderr summary line of disk-cache effectiveness, so resumed
    /// runs can be verified without inspecting the cache directory. A
    /// degraded cache gets a single warning naming the reason instead of
    /// a misleading all-zero counter line.
    fn report_cache(&self) {
        if let Some(dir) = self.effective_cache_dir() {
            let cache = DiskCache::shared(&dir);
            if let Some(reason) = cache.degraded_reason() {
                eprintln!(
                    "warning: disk cache disabled for this run ({reason}); \
                     results were computed but not persisted"
                );
                return;
            }
            let s = cache.stats();
            eprintln!(
                "cache {}: hits={} misses={} stored={} quarantined={} store_failures={}",
                dir.display(),
                s.hits,
                s.misses,
                s.stores,
                s.quarantined,
                s.store_failures,
            );
            if self.checkpoint_interval.is_some() {
                let c = sim::checkpoint_stats();
                eprintln!(
                    "checkpoints: stored={} resumed={} removed={} quarantined={} store_failures={}",
                    c.stores, c.resumes, c.removed, c.quarantined, c.store_failures,
                );
            }
        }
    }
}

/// Per-cell failure diagnostics on stderr, then the exit-3 error when
/// any cell failed. Called after output so partial results still land.
fn finish_sweep(args: &SweepArgs, sweep: &SweepResult) -> Result<(), CliError> {
    for cell in sweep.failed_cells() {
        if let Some(e) = cell.error() {
            eprintln!(
                "cell {}/{}/{}/{}/{} failed: {e}",
                cell.subject, cell.family, cell.timing, cell.mechanism, cell.variant
            );
        }
    }
    args.report_cache();
    let failed = sweep.failed_cells().count();
    if failed > 0 {
        return Err(CliError::Cell(format!(
            "{failed} of {} sweep cells failed (see per-cell diagnostics above)",
            sweep.cells.len()
        )));
    }
    Ok(())
}

/// Runs the sweep through a `cc-simd` daemon instead of in-process: the
/// grid (with fully-resolved parameters, so the daemon's environment
/// cannot skew run lengths) is submitted over the socket, the streamed
/// cells are reassembled in grid order, and the document is emitted
/// exactly like the local `--json` path.
fn run_served(a: &SweepArgs, subject: &str) -> Result<(), CliError> {
    let socket = a.server.as_ref().expect("run_served needs --server");
    let spec = SweepSpec {
        subjects: vec![subject.to_string()],
        mechanisms: a.specs().map_err(CliError::Usage)?,
        families: a.family.clone().into_iter().collect(),
        timings: a.timing.clone().into_iter().collect(),
        variants: Vec::new(),
        params: a.params(),
        engine: None,
    };
    let mut client = Client::connect(socket)
        .map_err(|e| CliError::Io(format!("connecting to daemon at {}: {e}", socket.display())))?;
    let served = client.run_sweep(&spec).map_err(|e| match e {
        ClientError::Daemon { .. } => CliError::Usage(e.to_string()),
        ClientError::Aborted { .. } => CliError::Cell(e.to_string()),
        ClientError::Io(_) | ClientError::Protocol(_) => CliError::Io(e.to_string()),
    })?;
    match &a.out {
        Some(path) => std::fs::write(path, served.doc.as_bytes())
            .map_err(|e| CliError::Io(format!("writing {}: {e}", path.display())))?,
        None => println!("{}", served.doc),
    }
    if served.failed > 0 {
        return Err(CliError::Cell(format!(
            "{} served sweep cell(s) failed (see the error objects in the JSON)",
            served.failed
        )));
    }
    Ok(())
}

struct CacheGcArgs {
    budget: u64,
    cache_dir: Option<PathBuf>,
}

impl CacheGcArgs {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut cur = Cursor::new(args);
        let mut budget = None;
        let mut cache_dir = None;
        while let Some(flag) = cur.next_flag()? {
            match flag {
                "budget" => budget = Some(simd::parse_size(cur.value(flag)?)?),
                "cache-dir" => cache_dir = Some(PathBuf::from(cur.value(flag)?)),
                other => return Err(format!("unknown flag --{other} for `cache-gc`")),
            }
        }
        Ok(Self {
            budget: budget.ok_or("cache-gc needs --budget <size> (e.g. --budget 512M)")?,
            cache_dir,
        })
    }
}

/// Trims the disk run cache to a byte budget, least-recently-used
/// entries first. Removal is atomic per entry, so sweeps reading the
/// same directory concurrently see a clean miss, never a torn entry.
fn cmd_cache_gc(args: &CacheGcArgs) -> Result<(), CliError> {
    let dir = args
        .cache_dir
        .clone()
        .or_else(|| {
            std::env::var_os("CC_CACHE_DIR")
                .filter(|v| !v.is_empty())
                .map(PathBuf::from)
        })
        .ok_or_else(|| CliError::Usage("cache-gc needs --cache-dir or $CC_CACHE_DIR".into()))?;
    let cache = DiskCache::shared(&dir);
    if let Some(reason) = cache.degraded_reason() {
        return Err(CliError::Usage(format!("cache dir unusable: {reason}")));
    }
    let g = cache.gc(args.budget);
    println!(
        "cache {}: scanned={} evicted={} ({} bytes) retained={} ({} bytes)",
        dir.display(),
        g.scanned,
        g.evicted,
        g.evicted_bytes,
        g.retained,
        g.retained_bytes
    );
    if g.errors > 0 {
        return Err(CliError::Io(format!(
            "{} cache entr{} could not be removed",
            g.errors,
            if g.errors == 1 { "y" } else { "ies" }
        )));
    }
    Ok(())
}

fn parse_mechanisms(v: &str) -> Result<Vec<MechanismSpec>, String> {
    if v == "all" {
        return Ok(MechanismSpec::paper_all().to_vec());
    }
    // Resolve aliases (cc → chargecache) so output labels and JSON use
    // the canonical name, then validate the parameters up front.
    let spec = registry::canonicalize(&v.parse::<MechanismSpec>()?);
    registry::validate_spec(&spec).map_err(|e| format!("{e} — see `cc-sim --list-mechanisms`"))?;
    Ok(vec![spec])
}

/// A parsed `run` or `mix` command: its subject plus the shared flags.
struct SweepCmd {
    subject: Subject,
    sweep: SweepArgs,
}

impl SweepCmd {
    /// Parses the flags of `cmd` (`run --workload NAME` or `mix --index N`)
    /// and looks up the subject they name.
    fn parse(cmd: &str, args: &[String]) -> Result<Self, String> {
        let mut cur = Cursor::new(args);
        let mut name = None;
        let mut index = 1usize;
        let mut sweep = SweepArgs::default();
        while let Some(flag) = cur.next_flag()? {
            if sweep.try_flag(flag, &mut cur)? {
                continue;
            }
            match (cmd, flag) {
                ("run", "workload") => name = Some(cur.value(flag)?.to_string()),
                ("mix", "index") => index = cur.parsed(flag)?,
                (_, other) => return Err(format!("unknown flag --{other} for `{cmd}`")),
            }
        }
        sweep.check()?;
        let subject = if cmd == "run" {
            let name = name.ok_or("run needs --workload <name> (see `cc-sim list`)")?;
            Subject::Single(workload(&name).ok_or_else(|| format!("unknown workload {name:?}"))?)
        } else {
            let mixes = eight_core_mixes();
            let mix = mixes
                .get(index.wrapping_sub(1))
                .ok_or_else(|| format!("--index must be 1..={}", mixes.len()))?;
            Subject::Mix(mix.clone())
        };
        Ok(Self { subject, sweep })
    }
}

struct BitlineArgs {
    age: f64,
}

impl BitlineArgs {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut cur = Cursor::new(args);
        let mut age = 64.0;
        while let Some(flag) = cur.next_flag()? {
            match flag {
                "age" => age = cur.parsed(flag)?,
                other => return Err(format!("unknown flag --{other} for `bitline`")),
            }
        }
        Ok(Self { age })
    }
}

struct OverheadArgs {
    cores: u32,
    channels: u32,
    entries: u32,
}

impl OverheadArgs {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut cur = Cursor::new(args);
        let mut out = Self {
            cores: 8,
            channels: 2,
            entries: 128,
        };
        while let Some(flag) = cur.next_flag()? {
            match flag {
                "cores" => out.cores = cur.parsed(flag)?,
                "channels" => out.channels = cur.parsed(flag)?,
                "entries" => out.entries = cur.parsed(flag)?,
                other => return Err(format!("unknown flag --{other} for `overhead`")),
            }
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

fn cmd_list_mechanisms() -> Result<(), CliError> {
    println!("registered mechanisms (name — label):");
    for (name, label, defaults, describe) in registry::list() {
        println!("  {name:<12} {label}");
        println!("               {describe}");
        if defaults.params().is_empty() {
            println!("               parameters: none");
        } else {
            println!("               defaults:   {defaults}");
        }
    }
    println!("\nspec grammar: name(key=val,...)   e.g. 'chargecache(entries=1024,duration=2ms)'");
    Ok(())
}

fn cmd_list_timings() -> Result<(), CliError> {
    println!("DRAM timing presets (name — CL-tRCD-tRP @ tCK), grouped by family:");
    // Group the bins by device family, in order of first appearance.
    let mut families: Vec<&str> = Vec::new();
    for bin in &dram::SpeedBin::ALL {
        if !families.contains(&bin.family_name()) {
            families.push(bin.family_name());
        }
    }
    for family in families {
        println!("\nfamily {family}:");
        for bin in dram::SpeedBin::ALL
            .iter()
            .filter(|b| b.family_name() == family)
        {
            let t = bin.timing();
            println!(
                "  {:<14} {}-{}-{} @ {} ns",
                bin.name(),
                t.tcl,
                t.trcd,
                t.trp,
                t.tck_ns
            );
            println!("                 {}", bin.describe());
            println!(
                "                 tRAS={} tRC={} tFAW={} tRRD={} tRFC={} tREFI={}",
                t.tras, t.trc, t.tfaw, t.trrd, t.trfc, t.trefi
            );
        }
    }
    println!(
        "\nspec grammar: preset(key=val,...)   e.g. 'ddr3-1866(trcd=12,tfaw=26)'\n\
         override keys: {}",
        dram::TIMING_KEYS.join(", ")
    );
    Ok(())
}

fn cmd_list_families() -> Result<(), CliError> {
    println!("DRAM device families (name — geometry):");
    for (name, describe, params) in dram::family::list_families() {
        println!("  {name:<10} {}", params.geometry_line());
        println!("             {describe}");
    }
    println!(
        "\nspec grammar: family(key=val,...)   e.g. 'ddr4(bank_groups=2)'\n\
         override keys: {}",
        dram::FAMILY_KEYS.join(", ")
    );
    Ok(())
}

fn cmd_list() -> Result<(), CliError> {
    println!("single-core workloads:");
    for w in single_core_workloads() {
        println!(
            "  {:<12} {:?}, wss {} MiB, ~1 memop per {} insts, {}% stores",
            w.name,
            w.pattern,
            w.wss >> 20,
            w.mean_nonmem + 1,
            (w.store_ratio * 100.0) as u32
        );
    }
    println!("\neight-core mixes:");
    for m in eight_core_mixes() {
        let names: Vec<&str> = m.apps.iter().map(|a| a.name).collect();
        println!("  {:<4} {}", m.name, names.join(", "));
    }
    Ok(())
}

fn print_result(label: &str, r: &RunResult, ipc: f64, base_ipc: Option<f64>, csv: bool) {
    let speedup = base_ipc.map(|b| ipc / b - 1.0);
    if csv {
        println!(
            "{label},{:.6},{},{:.4},{:.4},{:.2},{:.6},{}",
            ipc,
            speedup.map(|s| format!("{s:.6}")).unwrap_or_default(),
            r.hcrac_hit_rate().unwrap_or(f64::NAN),
            r.rltl.rltl_fraction[0],
            r.rmpkc(),
            r.energy.total_mj(),
            r.cpu_cycles
        );
    } else {
        println!(
            "{label:<20} ipc={ipc:<8.4} {} hit={} rmpkc={:<7.2} energy={:.4} mJ cycles={}",
            speedup
                .map(|s| format!("speedup={:+.2}%", s * 100.0))
                .unwrap_or_else(|| "speedup=  —   ".into()),
            r.hcrac_hit_rate()
                .map(|h| format!("{:.1}%", h * 100.0))
                .unwrap_or_else(|| "—".into()),
            r.rmpkc(),
            r.energy.total_mj(),
            r.cpu_cycles
        );
    }
}

fn csv_header(csv: bool) {
    if csv {
        println!("mechanism,ipc,speedup,hcrac_hit_rate,rltl_125us,rmpkc,energy_mj,cpu_cycles");
    }
}

fn cmd_sweep(args: &SweepCmd) -> Result<(), CliError> {
    let subject = &args.subject;
    let a = &args.sweep;
    if a.server.is_some() {
        return run_served(a, subject.name());
    }
    let exp = a.experiment().map_err(CliError::Usage)?;
    let exp = match subject {
        Subject::Single(w) => exp.workload(w.clone()),
        Subject::Mix(m) => exp.mix(m.clone()),
    };
    let sweep = exp.run().map_err(|e| CliError::Usage(e.to_string()))?;

    if a.json {
        a.emit_json(&sweep)?;
        return finish_sweep(a, &sweep);
    }
    if !a.csv {
        match subject {
            Subject::Single(w) => {
                let mechs: Vec<String> = sweep.mechanisms.iter().map(|m| m.to_string()).collect();
                println!(
                    "workload {} | {} | {} | {} insts/core\n",
                    w.name,
                    sweep.timings[0],
                    mechs.join(", "),
                    sweep.params.insts_per_core
                );
            }
            Subject::Mix(m) => {
                let names: Vec<&str> = m.apps.iter().map(|a| a.name).collect();
                println!("mix {} : {}\n", m.name, names.join(", "));
            }
        }
    }
    csv_header(a.csv);
    let mut base_ipc = None;
    for cell in &sweep.cells {
        let Ok(r) = &cell.outcome else {
            // Reported on stderr by finish_sweep; keep the table aligned.
            continue;
        };
        if r.hit_cycle_cap {
            eprintln!("warning: {} hit the safety cycle cap", cell.mechanism);
        }
        // Core-0 IPC for a workload, the IPC sum for a mix.
        let ipc = cell.headline_ipc();
        if cell.mechanism.name() == "baseline" {
            base_ipc = Some(ipc);
        }
        print_result(&cell.mechanism.label(), r, ipc, base_ipc, a.csv);
    }
    finish_sweep(a, &sweep)
}

fn cmd_bitline(args: &BitlineArgs) -> Result<(), CliError> {
    let age = args.age;
    if !(0.0..=64.0).contains(&age) {
        return Err(CliError::Usage(
            "--age must be within the 0..=64 ms refresh window".into(),
        ));
    }
    let m = bitline::ActivationModel::calibrated();
    println!("t_ns,v_full,v_aged_{age}ms");
    for p in m.waveform(0.0, 40.0, 81) {
        let aged = m.bitline_voltage_v(age, p.time_ns);
        println!("{:.2},{:.5},{:.5}", p.time_ns, p.voltage_v, aged);
    }
    eprintln!(
        "ready: full {:.2} ns, aged {:.2} ns | restore: full {:.2} ns, aged {:.2} ns",
        m.ready_time_ns(0.0),
        m.ready_time_ns(age),
        m.restore_time_ns(0.0),
        m.restore_time_ns(age)
    );
    Ok(())
}

fn cmd_overhead(args: &OverheadArgs) -> Result<(), CliError> {
    let model = OverheadModel {
        cores: args.cores,
        channels: args.channels,
        entries: args.entries,
        ..OverheadModel::paper_8core()
    };
    println!(
        "entry size:   {} bits (+{} LRU)",
        model.entry_size_bits(),
        model.lru_bits()
    );
    println!(
        "storage:      {} bytes total, {} bytes/core",
        model.storage_bytes(),
        model.storage_bytes_per_core()
    );
    println!(
        "area @22nm:   {:.4} mm² ({:.2}% of a 4MB LLC)",
        model.area_mm2(),
        model.area_fraction_of_4mb_llc() * 100.0
    );
    println!(
        "avg power:    {:.3} mW ({:.2}% of a 4MB LLC)",
        model.power_mw(),
        model.power_fraction_of_4mb_llc() * 100.0
    );
    Ok(())
}
