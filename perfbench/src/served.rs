//! The `served` workload: the tiny-scale Fig. 7a grid served by the real
//! `cc-simd` daemon, cold and then warm.
//!
//! One client connection keeps two one-cell jobs outstanding (closed
//! loop). The cold phase simulates every cell on a fresh cache
//! directory, with checkpoints; a fresh daemon on the same directory
//! then serves every cell again from the disk cache. The client checks
//! the frame order of every job (`accepted` → `cell` → `done`) and every
//! frame's shape, and every wait has a timeout. After timing, each cell's
//! stored result is checked against the pinned fingerprint, and every
//! streamed cell against the local encoding of that result.
//!
//! The traced run also replays both ladders in-process with the same
//! calls the daemon makes — `System::save_state` + `CheckpointStore::store`
//! at the same chunk boundaries, `RunResult::encode` + `DiskCache::store`,
//! then `DiskCache::load` + `RunResult::decode` + the cell's JSON — and
//! times each.

use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sim::api::CellPlan;
use sim::json::{self, Json};
use sim::{CheckpointStore, DiskCache, RunResult, System};

use crate::calib::Calibration;
use crate::grid::{self, GridCell, Workload, CHECKPOINT_INTERVAL, THREADS};
use crate::replica::{core_seed, finish, Warm};
use crate::report::{RepFigures, Report};
use crate::stats::median;
use crate::{provenance, Args};

/// How long any single wait on the daemon may take.
const WAIT: Duration = Duration::from_secs(60);

/// Jobs the client keeps outstanding.
const OUTSTANDING: usize = 2;

/// Extra daemon launches that only start and stop, to steady `setup_s`.
const SETUP_PROBES: usize = 4;

/// Repetitions start at most this often. A cold phase writes about
/// 415 MB of checkpoints with an `fsync` each; back to back, that
/// saturates a shared disk and its slowdown builds up from repetition to
/// repetition. The pause lets the disk settle, so repetitions measure
/// the daemon rather than the disk's backlog.
const REP_PERIOD: Duration = Duration::from_secs(3);

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A running daemon.
struct Daemon {
    child: Child,
    setup_s: f64,
}

impl Daemon {
    /// Spawns `cc-simd serve` and waits until its socket accepts a
    /// connection; set-up time is spawn → accepted connect.
    fn spawn(simd: &Path, sock: &Path, dir: &Path) -> Result<(Daemon, Client), String> {
        let _ = fs::remove_file(sock);
        let t0 = Instant::now();
        let mut child = Command::new(simd)
            .args([
                "serve",
                "--threads",
                &THREADS.to_string(),
                "--checkpoint-interval",
            ])
            .arg(CHECKPOINT_INTERVAL.to_string())
            .arg("--socket")
            .arg(sock)
            .arg("--cache-dir")
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", simd.display()))?;
        let stream = loop {
            if let Ok(s) = UnixStream::connect(sock) {
                break s;
            }
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if t0.elapsed() > WAIT {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon socket never accepted".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        let setup_s = t0.elapsed().as_secs_f64();
        let client = Client::new(stream)?;
        Ok((Daemon { child, setup_s }, client))
    }

    fn vm_hwm_mb(&self) -> f64 {
        provenance::vm_hwm_kb(&self.child.id().to_string())
            .map_or(f64::NAN, |kb| kb as f64 / 1024.0)
    }

    /// Asks the daemon to drain and waits (bounded) for it to exit.
    fn shutdown(mut self, client: &mut Client) -> Result<(), String> {
        let result = (|| {
            client.send(&Json::Obj(vec![("type".into(), Json::str("shutdown"))]))?;
            let bye = client.recv()?;
            if ty(&bye) != Some("bye") {
                client.violations += 1;
                return Err(format!("expected bye, got {bye}"));
            }
            Ok(())
        })();
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if t0.elapsed() < WAIT => std::thread::sleep(Duration::from_millis(2)),
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not exit after shutdown".into());
                }
            }
        }
        result
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn ty(j: &Json) -> Option<&str> {
    j.get("type").and_then(Json::as_str)
}

/// The strict client: newline-JSON frames with a bounded wait each.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    frames: u64,
    bytes: u64,
    violations: u64,
}

impl Client {
    fn new(stream: UnixStream) -> Result<Client, String> {
        stream
            .set_read_timeout(Some(WAIT))
            .map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(Some(WAIT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            frames: 0,
            bytes: 0,
            violations: 0,
        })
    }

    /// Sends one request line in a single write.
    fn send(&mut self, j: &Json) -> Result<(), String> {
        let line = format!("{j}\n");
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("sending to the daemon: {e}"))
    }

    fn recv(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("waiting for the daemon: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".into());
        }
        self.frames += 1;
        self.bytes += n as u64;
        json::parse(line.trim_end()).map_err(|e| format!("daemon frame is not JSON: {e}"))
    }

    /// `status` round trip: (response, latency in ms).
    fn status(&mut self) -> Result<(Json, f64), String> {
        let t = Instant::now();
        self.send(&Json::Obj(vec![("type".into(), Json::str("status"))]))?;
        let r = self.recv()?;
        if ty(&r) != Some("status") {
            self.violations += 1;
            return Err(format!("expected status, got {r}"));
        }
        Ok((r, ms(t)))
    }
}

fn submit_json(plan: &CellPlan) -> Json {
    let p = plan.params;
    Json::Obj(vec![
        ("type".into(), Json::str("submit")),
        (
            "sweep".into(),
            Json::Obj(vec![
                ("subjects".into(), Json::Arr(vec![Json::str(&plan.subject)])),
                (
                    "mechanisms".into(),
                    Json::Arr(vec![Json::str(plan.mechanism.to_string())]),
                ),
                ("engine".into(), Json::str("event-skip")),
                (
                    "params".into(),
                    Json::Obj(vec![
                        ("insts_per_core".into(), Json::uint(p.insts_per_core)),
                        ("warmup_insts".into(), Json::uint(p.warmup_insts)),
                        ("max_cycle_factor".into(), Json::uint(p.max_cycle_factor)),
                        ("seed".into(), Json::uint(p.seed)),
                    ]),
                ),
            ]),
        ),
    ])
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Stage {
    Accepted,
    Cell,
}

struct Job {
    cell: usize,
    sent: Instant,
    stage: Stage,
}

/// What one phase served: per grid cell, the submit → `done` latency and
/// the streamed cell object (both `None` for a failed cell).
struct Phase {
    latency_ms: Vec<Option<f64>>,
    cell_json: Vec<Option<String>>,
    wall_s: f64,
}

/// Serves every cell of `cells` in `order` as one-cell jobs, keeping
/// [`OUTSTANDING`] outstanding. Order or shape violations fail the cell.
fn serve_phase(client: &mut Client, cells: &[GridCell], order: &[usize]) -> Result<Phase, String> {
    let n = cells.len();
    let mut phase = Phase {
        latency_ms: vec![None; n],
        cell_json: vec![None; n],
        wall_s: 0.0,
    };
    let mut awaiting_accept: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut jobs: BTreeMap<String, Job> = BTreeMap::new();
    let mut next = 0;
    let mut finished = 0;
    let t0 = Instant::now();
    while finished < n {
        while awaiting_accept.len() + jobs.len() < OUTSTANDING && next < n {
            let i = order[next];
            next += 1;
            awaiting_accept.push_back((i, Instant::now()));
            client.send(&submit_json(&cells[i].plan))?;
        }
        let f = client.recv()?;
        let job_id = f.get("job").and_then(Json::as_str).map(str::to_string);
        match (ty(&f), job_id) {
            (Some("accepted"), Some(id)) => {
                let Some((cell, sent)) = awaiting_accept.pop_front() else {
                    return Err(format!("accepted without a submit: {f}"));
                };
                if f.get("cells").and_then(Json::as_num) != Some(1.0) || jobs.contains_key(&id) {
                    client.violations += 1;
                }
                jobs.insert(
                    id,
                    Job {
                        cell,
                        sent,
                        stage: Stage::Accepted,
                    },
                );
            }
            (Some("cell"), Some(id)) => {
                let plan = jobs.get(&id).map(|j| &cells[j.cell].plan);
                let body = f.get("cell");
                let shape_ok = f.get("index").and_then(Json::as_num) == Some(0.0)
                    && plan.is_some_and(|p| {
                        body.and_then(|b| b.get("subject")).and_then(Json::as_str)
                            == Some(&p.subject)
                            && body.and_then(|b| b.get("mechanism")).and_then(Json::as_str)
                                == Some(&p.mechanism.to_string())
                            && body
                                .and_then(|b| b.get("cpu_cycles"))
                                .and_then(Json::as_num)
                                .is_some()
                            && body.and_then(|b| b.get("error")).is_none()
                    });
                match jobs.get_mut(&id) {
                    Some(j) if j.stage == Stage::Accepted && shape_ok => {
                        j.stage = Stage::Cell;
                        phase.cell_json[j.cell] = body.map(Json::to_string);
                    }
                    Some(_) => client.violations += 1,
                    None => return Err(format!("cell frame for an unknown job: {f}")),
                }
            }
            (Some("done"), Some(id)) => {
                let Some(j) = jobs.remove(&id) else {
                    return Err(format!("done frame for an unknown job: {f}"));
                };
                finished += 1;
                let clean = f.get("cells").and_then(Json::as_num) == Some(1.0)
                    && f.get("failed").and_then(Json::as_num) == Some(0.0);
                if j.stage == Stage::Cell && clean {
                    phase.latency_ms[j.cell] = Some(ms(j.sent));
                } else {
                    client.violations += 1;
                    phase.cell_json[j.cell] = None;
                }
            }
            (Some("error"), None) if !awaiting_accept.is_empty() => {
                // A refused submit: the cell fails, the loop goes on.
                awaiting_accept.pop_front();
                finished += 1;
                client.violations += 1;
            }
            _ => return Err(format!("unexpected daemon frame: {f}")),
        }
    }
    phase.wall_s = t0.elapsed().as_secs_f64();
    Ok(phase)
}

/// Per-repetition scratch paths inside the checkout. The socket path is
/// relative and short (Unix socket paths are limited to ~100 bytes).
fn scratch(tag: &str) -> (PathBuf, PathBuf) {
    let id = std::process::id();
    let base = PathBuf::from(".bench_out");
    (
        base.join(format!("{tag}-{id}")),
        base.join(format!("{tag}-{id}.sock")),
    )
}

fn cache_num(status: &Json, key: &str) -> f64 {
    status
        .get("cache")
        .and_then(|c| c.get(key))
        .and_then(Json::as_num)
        .unwrap_or(f64::NAN)
}

/// One cold + warm repetition against real daemons.
struct Rep {
    setups: Vec<f64>,
    accept_ms: Vec<f64>,
    cold: Phase,
    warm: Phase,
    cold_rss_mb: f64,
    cold_misses: f64,
    cold_stores: f64,
    warm_hits: f64,
    cycles: f64,
    frames: u64,
    bytes: u64,
    violations: u64,
    cc_speedup_pct: Option<f64>,
}

fn served_rep(
    args: &Args,
    cells: &[GridCell],
    pins: &BTreeMap<String, u64>,
    order_seed: u64,
    report: &mut Report,
) -> Result<Rep, String> {
    let (dir, sock) = scratch("served");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let order = grid::order(cells.len(), order_seed);

    let (cold_d, mut c) = Daemon::spawn(&args.simd, &sock, &dir)?;
    let (_, accept_cold) = c.status()?;
    let cold = serve_phase(&mut c, cells, &order)?;
    let (st, _) = c.status()?;
    let cold_rss_mb = cold_d.vm_hwm_mb();
    let cold_setup = cold_d.setup_s;
    cold_d.shutdown(&mut c)?;

    let (warm_d, mut w) = Daemon::spawn(&args.simd, &sock, &dir)?;
    let (_, accept_warm) = w.status()?;
    let warm = serve_phase(&mut w, cells, &order)?;
    let (wst, _) = w.status()?;
    let warm_setup = warm_d.setup_s;
    warm_d.shutdown(&mut w)?;

    // The oracle, after timing: each stored result must carry its pinned
    // fingerprint, and both phases must have streamed exactly the local
    // encoding of that result.
    let disk = DiskCache::open(&dir);
    let mut cycles = 0.0;
    let mut failed = 0u64;
    let mut results = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let stored = disk
            .load(cell.plan.content_key())
            .and_then(|b| RunResult::decode(&b));
        let ok = match &stored {
            Some(r) => {
                cycles += r.cpu_cycles as f64;
                let local = cell
                    .plan
                    .clone()
                    .into_cell(Ok(r.clone()))
                    .to_json()
                    .to_string();
                pins.get(&cell.id) == Some(&grid::fingerprint(r))
                    && cold.cell_json[i].as_deref() == Some(local.as_str())
                    && warm.cell_json[i].as_deref() == Some(local.as_str())
            }
            None => false,
        };
        results.push(stored);
        // Each cell is attempted twice: cold and warm.
        if !ok {
            failed += 2;
            if report.problems.len() < 5 {
                report.problem(format!(
                    "served cell {} does not match its pinned result",
                    cell.id
                ));
            }
        }
    }
    report.attempted += 2 * cells.len() as u64;
    report.failed += failed;
    let warm_hits = cache_num(&wst, "hits");
    if warm_hits != cells.len() as f64 || cache_num(&wst, "misses") != 0.0 {
        report.problem(format!(
            "warm phase was not all disk hits: hits {warm_hits}, misses {}",
            cache_num(&wst, "misses")
        ));
    }
    let violations = c.violations + w.violations;
    if violations > 0 {
        report.problem(format!("{violations} protocol order or shape violations"));
    }
    let rep = Rep {
        cc_speedup_pct: grid::cc_speedup_pct(Workload::Served, cells, &results),
        setups: vec![cold_setup, warm_setup],
        accept_ms: vec![accept_cold, accept_warm],
        cold_rss_mb,
        cold_misses: cache_num(&st, "misses"),
        cold_stores: cache_num(&st, "stores"),
        warm_hits,
        cycles,
        frames: c.frames + w.frames,
        bytes: c.bytes + w.bytes,
        violations,
        cold,
        warm,
    };
    let _ = fs::remove_dir_all(&dir);
    Ok(rep)
}

fn setup_probe(args: &Args) -> Result<f64, String> {
    let (dir, sock) = scratch("probe");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let (d, mut c) = Daemon::spawn(&args.simd, &sock, &dir)?;
    let s = d.setup_s;
    d.shutdown(&mut c)?;
    let _ = fs::remove_dir_all(&dir);
    Ok(s)
}

fn grid_and_pins(args: &Args) -> Result<(Vec<GridCell>, BTreeMap<String, u64>), String> {
    let cells = grid::grid(Workload::Served, args.trace_seed)?;
    let pins = grid::pinned(Workload::Served, args.trace_seed)
        .ok_or_else(|| format!("trace seed {} has no pinned fingerprints", args.trace_seed))?;
    Ok((cells, pins))
}

/// The untraced run: set-up probes, then cold + warm repetitions for
/// `args.seconds`.
pub fn untraced(args: &Args, report: &mut Report) -> Result<(), String> {
    let (cells, pins) = grid_and_pins(args)?;
    let mut cal = Calibration::default();
    cal.take(THREADS);
    let mut probes = Vec::new();
    for _ in 0..SETUP_PROBES {
        probes.push(setup_probe(args)?);
    }
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut reps: Vec<RepFigures> = Vec::new();
    let mut rss = Vec::new();
    let mut last = Duration::ZERO;
    let mut cc: Option<f64> = None;
    while reps.is_empty() || start.elapsed() + last / 2 < budget {
        if let Some(wait) =
            (start + REP_PERIOD * reps.len() as u32).checked_duration_since(Instant::now())
        {
            std::thread::sleep(wait);
        }
        let t = Instant::now();
        if !reps.is_empty() {
            cal.take(THREADS);
        }
        let rep = served_rep(
            args,
            &cells,
            &pins,
            args.seed.wrapping_add(reps.len() as u64),
            report,
        )?;
        last = t.elapsed();
        reps.push(RepFigures {
            setup_s: rep.setups.clone(),
            wall_s: rep.cold.wall_s + rep.warm.wall_s,
            mcps: rep.cycles / rep.cold.wall_s / 1e6,
            cell_ms: rep.cold.latency_ms.iter().flatten().copied().collect(),
            hit_ms: rep.warm.latency_ms.iter().flatten().copied().collect(),
            // The cold phase spends most of its time in checkpoint
            // `fsync`s (see the traced run). Neither a CPU kernel nor a
            // fresh-file `fsync` probe tracks it, so its figures stay raw.
            sim_factor: 1.0,
        });
        rss.push(rep.cold_rss_mb);
        report.repeat_exact(
            "cc_speedup_pct",
            &mut cc,
            rep.cc_speedup_pct.unwrap_or(f64::NAN),
        );
    }
    cal.take(THREADS);
    println!(
        "repetitions {} (fresh daemons each), set-up probes {}",
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
    Ok(())
}

/// Host time (ns) of one replayed cell, per step of the daemon's ladder.
#[derive(Debug, Default)]
struct Replay {
    simulate_ns: u64,
    ckpt_encode_ns: u64,
    ckpt_store_ns: u64,
    ckpt_stores: u64,
    ckpt_bytes: u64,
    codec_encode_ns: u64,
    cache_store_ns: u64,
    entry_bytes: u64,
}

impl Replay {
    fn add(&mut self, o: &Replay) {
        self.simulate_ns += o.simulate_ns;
        self.ckpt_encode_ns += o.ckpt_encode_ns;
        self.ckpt_store_ns += o.ckpt_store_ns;
        self.ckpt_stores += o.ckpt_stores;
        self.ckpt_bytes += o.ckpt_bytes;
        self.codec_encode_ns += o.codec_encode_ns;
        self.cache_store_ns += o.cache_store_ns;
        self.entry_bytes += o.entry_bytes;
    }
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Replays one cold cell the way a checkpointing daemon worker runs it
/// (`sim::ckpt::run_checkpointed`, then the cache store and checkpoint
/// removal of `sim::api`).
fn replay_cold(
    plan: &CellPlan,
    store: &CheckpointStore,
    cache: &DiskCache,
) -> Result<(RunResult, Replay), String> {
    use fasthash::codec::{put_u64, put_u8};
    let mut rp = Replay::default();
    let cfg = &plan.cfg;
    let p = plan.params;
    let key = plan.content_key();
    let interval = CHECKPOINT_INTERVAL;
    let end_target = p.warmup_insts + p.insts_per_core;
    let max_cycles = p.max_cycle_factor * end_target;

    let t = Instant::now();
    let traces = plan
        .apps
        .iter()
        .enumerate()
        .map(|(core, spec)| spec.build(core_seed(&p, core), cfg.region_base(core)))
        .collect();
    let mut sys = System::try_new(cfg.clone(), traces).map_err(|e| e.0)?;
    rp.simulate_ns += ns(t);
    let mut supported = true;
    let mut checkpoint = |phase: u8,
                          target: u64,
                          deadline: u64,
                          warm: Option<&Warm>,
                          sys: &System,
                          rp: &mut Replay| {
        if !supported {
            return;
        }
        let t = Instant::now();
        let mut payload = Vec::with_capacity(4096);
        put_u8(&mut payload, phase);
        put_u64(&mut payload, target);
        put_u64(&mut payload, deadline);
        if let Some(w) = warm {
            w.save_state(&mut payload);
        }
        supported = sys.save_state(&mut payload);
        rp.ckpt_encode_ns += ns(t);
        if supported {
            let t = Instant::now();
            store.store(key, &payload);
            rp.ckpt_store_ns += ns(t);
            rp.ckpt_stores += 1;
            rp.ckpt_bytes += payload.len() as u64;
        }
    };

    let mut target = interval.min(p.warmup_insts);
    let deadline = max_cycles;
    loop {
        let t = Instant::now();
        let reached = sys.run_until_retired(target, deadline.saturating_sub(sys.now()));
        rp.simulate_ns += ns(t);
        if target >= p.warmup_insts || !reached {
            break;
        }
        target = (target + interval).min(p.warmup_insts);
        checkpoint(0, target, deadline, None, &sys, &mut rp);
    }
    let t = Instant::now();
    sys.memory_mut().device_mut().take_log();
    let cores = |sys: &System| -> Vec<cpu::CoreStats> {
        (0..cfg.cores).map(|i| *sys.core_stats(i)).collect()
    };
    let warm = Warm::take(sys.now(), &cores(&sys), sys.memory());
    rp.simulate_ns += ns(t);
    let mut target = (p.warmup_insts + interval).min(end_target);
    let deadline = sys.now() + max_cycles;
    let reached = loop {
        let t = Instant::now();
        let reached = sys.run_until_retired(target, deadline.saturating_sub(sys.now()));
        rp.simulate_ns += ns(t);
        if target >= end_target || !reached {
            break reached;
        }
        target = (target + interval).min(end_target);
        checkpoint(1, target, deadline, Some(&warm), &sys, &mut rp);
    };
    let t = Instant::now();
    let now = sys.now();
    let core_stats = cores(&sys);
    let llc = *sys.llc().stats();
    let (r, _, _) = finish(
        cfg,
        now,
        &core_stats,
        &llc,
        sys.memory_mut(),
        &warm,
        !reached,
    );
    rp.simulate_ns += ns(t);

    let t = Instant::now();
    let bytes = r.encode();
    rp.codec_encode_ns += ns(t);
    let t = Instant::now();
    cache.store(key, &bytes);
    rp.cache_store_ns += ns(t);
    rp.entry_bytes += fs::metadata(cache.path_for(key)).map_or(0, |m| m.len());
    let t = Instant::now();
    store.remove(key);
    rp.ckpt_store_ns += ns(t);
    Ok((r, rp))
}

/// The traced run: one real cold + warm repetition with client-side
/// frame accounting, then both ladders replayed in-process.
pub fn traced(args: &Args, report: &mut Report) -> Result<(), String> {
    let t_plan = Instant::now();
    let (cells, pins) = grid_and_pins(args)?;
    let plan_ms = ms(t_plan);
    let rep = served_rep(args, &cells, &pins, args.seed, report)?;
    let hit_rt = median(
        &rep.warm
            .latency_ms
            .iter()
            .flatten()
            .copied()
            .collect::<Vec<_>>(),
    );

    let (dir, _) = scratch("replay");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let cache = DiskCache::open(&dir);
    let store = CheckpointStore::new(&dir);
    let order = grid::order(cells.len(), args.seed);
    let t0 = Instant::now();
    let runs = sim::par_map(order, THREADS, |i| {
        let start = t0.elapsed();
        let outcome = replay_cold(&cells[i].plan, &store, &cache);
        (i, start, t0.elapsed(), outcome)
    });
    let cold_wall = t0.elapsed().as_secs_f64();

    let mut total = Replay::default();
    let mut matched = 0u64;
    report.attempted += cells.len() as u64;
    let mut spans = Vec::with_capacity(runs.len());
    for (i, start, end, outcome) in &runs {
        if let Ok((_, rp)) = outcome {
            let m = |ns: u64| Json::num(ns as f64 / 1e6);
            spans.push(Json::Obj(vec![
                (
                    "span".into(),
                    Json::str(format!("cold cell {}", cells[*i].id)),
                ),
                ("parent".into(), Json::str("replay")),
                ("start_ms".into(), Json::num(start.as_secs_f64() * 1e3)),
                ("end_ms".into(), Json::num(end.as_secs_f64() * 1e3)),
                (
                    "self_ms".into(),
                    Json::Obj(vec![
                        ("sim".into(), m(rp.simulate_ns)),
                        ("sim.ckpt".into(), m(rp.ckpt_encode_ns + rp.ckpt_store_ns)),
                        ("sim.cache".into(), m(rp.cache_store_ns)),
                        ("sim.codec".into(), m(rp.codec_encode_ns)),
                    ]),
                ),
            ]));
        }
        match outcome {
            Ok((r, rp)) if pins.get(&cells[*i].id) == Some(&grid::fingerprint(r)) => {
                matched += 1;
                total.add(rp);
            }
            Ok(_) => {
                report.failed += 1;
                report.problem(format!(
                    "replayed cell {} does not reproduce its pin",
                    cells[*i].id
                ));
            }
            Err(e) => {
                report.failed += 1;
                report.problem(format!("replayed cell {}: {e}", cells[*i].id));
            }
        }
    }

    // Warm ladder: load + decode + the cell's JSON frame, per cell.
    let (mut load_ns, mut decode_ns, mut json_ns, mut hits) = (0u64, 0u64, 0u64, 0u64);
    let mut per_cell_ms = Vec::with_capacity(cells.len());
    for cell in &cells {
        let key = cell.plan.content_key();
        let t = Instant::now();
        let payload = cache.load(key);
        let l = ns(t);
        let t = Instant::now();
        let r = payload.as_deref().and_then(RunResult::decode);
        let d = ns(t);
        let t = Instant::now();
        let frame = r.map(|r| {
            Json::Obj(vec![
                ("type".into(), Json::str("cell")),
                ("job".into(), Json::str("j1")),
                ("index".into(), Json::uint(0)),
                ("cell".into(), cell.plan.clone().into_cell(Ok(r)).to_json()),
            ])
            .to_string()
        });
        let j = ns(t);
        if frame.is_some() {
            hits += 1;
        }
        load_ns += l;
        decode_ns += d;
        json_ns += j;
        per_cell_ms.push((l + d + j) as f64 / 1e6);
    }
    let _ = fs::remove_dir_all(&dir);

    let m = |ns: u64| ns as f64 / 1e6;
    crate::inproc::set_layer_metrics(report, &crate::replica::Layers::default());
    let ckpt_ns = total.ckpt_encode_ns + total.ckpt_store_ns;
    let cold_ns = total.simulate_ns + ckpt_ns + total.codec_encode_ns + total.cache_store_ns;
    report.set("sim.simulate_ms", m(total.simulate_ns));
    report.set("sim.api.plan_ms", plan_ms);
    report.set("sim.api.executions", rep.cold_misses);
    report.set("sim.api.memo_hits", 0.0);
    report.set("sim.ckpt.stores", total.ckpt_stores as f64);
    report.set("sim.ckpt.bytes", total.ckpt_bytes as f64);
    report.set("sim.ckpt.encode_ms", m(total.ckpt_encode_ns));
    report.set("sim.ckpt.store_ms", m(total.ckpt_store_ns));
    report.set("sim.ckpt.share", ckpt_ns as f64 / cold_ns.max(1) as f64);
    report.set("sim.cache.stores", rep.cold_stores);
    report.set("sim.cache.store_ms", m(total.cache_store_ns));
    report.set("sim.cache.hits", rep.warm_hits);
    report.set("sim.cache.load_ms", m(load_ns));
    report.set(
        "sim.cache.entry_bytes",
        total.entry_bytes as f64 / matched.max(1) as f64,
    );
    report.set("sim.codec.encode_ms", m(total.codec_encode_ns));
    report.set("sim.codec.decode_ms", m(decode_ns));
    report.set("sim.json.ms", m(json_ns));
    report.set("simd.accept_ms", median(&rep.accept_ms));
    report.set("simd.frames", rep.frames as f64);
    report.set("simd.bytes", rep.bytes as f64);
    report.set("simd.order_violations", rep.violations as f64);
    report.set("simd.overhead_ms", hit_rt - median(&per_cell_ms));
    let resolved = matched == cells.len() as u64 && hits == cells.len() as u64;
    report.set("trace.cells", cells.len() as f64);
    report.set("trace.cells_matched", matched as f64);
    report.set("trace.resolved", f64::from(u8::from(resolved)));
    report.set("trace.wall_s", cold_wall);
    report.set("trace.untraced_wall_s", rep.cold.wall_s);
    report.set("trace.overhead_frac", cold_wall / rep.cold.wall_s - 1.0);
    let busy_ms = cold_wall * 1e3 * THREADS as f64;
    report.set("trace.attributed_ms", m(cold_ns));
    report.set("trace.unattributed_ms", busy_ms - m(cold_ns));
    report.set("trace.unattributed_frac", (busy_ms - m(cold_ns)) / busy_ms);

    let groups = [
        ("sim", total.simulate_ns),
        ("sim.ckpt", ckpt_ns),
        ("sim.cache", total.cache_store_ns),
        ("sim.codec", total.codec_encode_ns),
    ];
    println!("cold ladder self time (replayed, {matched} cells):");
    for (name, ns) in groups {
        println!(
            "  {name:<15} {:>10.1} ms {:>6.1} %",
            m(ns),
            100.0 * ns as f64 / cold_ns.max(1) as f64
        );
    }
    println!(
        "warm ladder: load {:.1} ms, decode {:.1} ms, json {:.1} ms over {hits} cells; hit round trip p50 {hit_rt:.3} ms",
        m(load_ns),
        m(decode_ns),
        m(json_ns)
    );
    let dominant = groups.iter().max_by_key(|g| g.1).map_or("none", |g| g.0);
    report.dominant(dominant, &["sim.ckpt"], resolved);
    report.write_spans(args, spans);
    Ok(())
}
