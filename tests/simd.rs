//! The sweep-service contract: served sweeps byte-identical to local
//! ones, single-flighted overlapping submissions, bounded queues with
//! typed rejections, protocol robustness under a seeded fuzzer, and
//! kill-and-restart durability through the `cc-simd` subprocess.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use chargecache::MechanismSpec;
use sim::api;
use sim::exp::ExpParams;
use sim::json::{parse, Json};
use simd::{Client, ClientError, Server, ServerConfig, SweepSpec};
use traces::TraceRng;

/// Serializes the tests that simulate in-process: they share the
/// process-wide run memoizer and its execution counter. Taken
/// poison-tolerantly, so one failing test reports as one failure.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn tiny() -> ExpParams {
    ExpParams {
        insts_per_core: 2_000,
        warmup_insts: 500,
        ..ExpParams::tiny()
    }
}

/// Fresh path under the system temp dir, unique per test and process.
fn tmp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let d = std::env::temp_dir().join(format!(
        "cc-simd-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&d);
    let _ = fs::remove_file(&d);
    d
}

fn spec(subjects: &[&str], mechanisms: Vec<MechanismSpec>, params: ExpParams) -> SweepSpec {
    SweepSpec {
        subjects: subjects.iter().map(|s| s.to_string()).collect(),
        mechanisms,
        families: Vec::new(),
        timings: Vec::new(),
        variants: Vec::new(),
        params,
        engine: None,
    }
}

/// Binds a daemon on a fresh socket and runs it on a background thread;
/// returns the socket path and the join handle (joined after a
/// `shutdown` request).
fn start_server(
    tag: &str,
    configure: impl FnOnce(&mut ServerConfig),
) -> (PathBuf, thread::JoinHandle<()>) {
    let socket = tmp_path(&format!("{tag}-sock"));
    let mut cfg = ServerConfig::new(&socket);
    cfg.threads = 2;
    configure(&mut cfg);
    let server = Server::bind(cfg).expect("bind daemon");
    let handle = thread::spawn(move || server.run().expect("daemon run"));
    (socket, handle)
}

fn shut_down(socket: &PathBuf, handle: thread::JoinHandle<()>) {
    let mut c = Client::connect(socket).expect("connect for shutdown");
    let bye = c
        .request(&Json::Obj(vec![("type".into(), Json::str("shutdown"))]))
        .expect("shutdown request");
    assert_eq!(bye.get("type").and_then(Json::as_str), Some("bye"));
    handle.join().expect("daemon thread");
    assert!(!socket.exists(), "daemon left its socket file behind");
}

#[test]
fn served_sweep_is_byte_identical_to_local() {
    let _guard = CACHE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let cache = tmp_path("ident-cache");
    let (socket, handle) = start_server("ident", |cfg| cfg.cache_dir = Some(cache.clone()));

    let s = spec(
        &["mcf"],
        vec![MechanismSpec::baseline(), MechanismSpec::chargecache()],
        tiny(),
    );
    let served = Client::connect(&socket)
        .expect("connect")
        .run_sweep(&s)
        .expect("served sweep");
    assert_eq!(served.failed, 0);

    let local = s
        .experiment()
        .expect("experiment")
        .run()
        .expect("local sweep");
    assert_eq!(
        served.doc,
        local.to_json(),
        "served document diverged from the local one"
    );

    shut_down(&socket, handle);
    let _ = fs::remove_dir_all(&cache);
}

#[test]
fn overlapping_concurrent_submissions_are_single_flighted() {
    let _guard = CACHE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (socket, handle) = start_server("flight", |_| {});

    // A grid no other test uses (distinct seed ⇒ distinct content keys),
    // so the memoizer is guaranteed cold for exactly these cells.
    let s = spec(
        &["mcf"],
        vec![MechanismSpec::baseline(), MechanismSpec::chargecache()],
        ExpParams {
            seed: 777,
            ..tiny()
        },
    );
    api::clear_run_cache();
    let before = api::run_cache_executions();
    let docs: Vec<String> = thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let socket = &socket;
                let s = &s;
                scope.spawn(move || {
                    Client::connect(socket)
                        .expect("connect")
                        .run_sweep(s)
                        .expect("served sweep")
                        .doc
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let executed = api::run_cache_executions() - before;
    assert_eq!(
        executed, 2,
        "three overlapping submissions of a 2-cell grid must simulate each cell once"
    );
    assert_eq!(docs[0], docs[1]);
    assert_eq!(docs[1], docs[2]);

    shut_down(&socket, handle);
}

#[test]
fn bounded_queue_and_client_quota_reject_with_typed_errors() {
    let (socket, handle) = start_server("quota", |cfg| cfg.client_quota = 2);
    let err = Client::connect(&socket)
        .expect("connect")
        .run_sweep(&spec(&["mcf"], MechanismSpec::paper_all().to_vec(), tiny()))
        .expect_err("a 5-cell submit must exceed a quota of 2");
    match err {
        ClientError::Daemon { code, .. } => assert_eq!(code, "client-quota"),
        other => panic!("expected a typed daemon rejection, got {other:?}"),
    }
    shut_down(&socket, handle);

    let (socket, handle) = start_server("depth", |cfg| cfg.queue_depth = 1);
    let err = Client::connect(&socket)
        .expect("connect")
        .run_sweep(&spec(&["mcf"], MechanismSpec::paper_all().to_vec(), tiny()))
        .expect_err("a 5-cell submit must exceed a queue depth of 1");
    match err {
        ClientError::Daemon { code, .. } => assert_eq!(code, "queue-full"),
        other => panic!("expected a typed daemon rejection, got {other:?}"),
    }
    shut_down(&socket, handle);
}

#[test]
fn cancel_and_unknown_job_answer_typed_responses() {
    let _guard = CACHE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (socket, handle) = start_server("cancel", |cfg| cfg.threads = 1);
    let mut c = Client::connect(&socket).expect("connect");

    // Cancelling a job this connection never submitted is a typed error.
    let err = c
        .request(&Json::Obj(vec![
            ("type".into(), Json::str("cancel")),
            ("job".into(), Json::str("j999")),
        ]))
        .expect_err("cancel of a foreign job must be rejected");
    match err {
        ClientError::Daemon { code, .. } => assert_eq!(code, "unknown-job"),
        other => panic!("expected a typed daemon rejection, got {other:?}"),
    }

    // Submit, then cancel immediately. Depending on worker timing the
    // job is either still live (`cancelled`) or already finished
    // (`unknown-job`); both are valid protocol outcomes, and the
    // connection must stay usable either way.
    let s = spec(&["mcf"], MechanismSpec::paper_all().to_vec(), tiny());
    c.send(&Json::Obj(vec![
        ("type".into(), Json::str("submit")),
        ("sweep".into(), s.to_json()),
    ]))
    .expect("submit");
    let accepted = c.recv().expect("accepted");
    assert_eq!(
        accepted.get("type").and_then(Json::as_str),
        Some("accepted")
    );
    let job = accepted
        .get("job")
        .and_then(Json::as_str)
        .expect("job id")
        .to_string();
    c.send(&Json::Obj(vec![
        ("type".into(), Json::str("cancel")),
        ("job".into(), Json::str(&job)),
    ]))
    .expect("cancel");
    // Drain interleaved cell traffic until the cancel's answer arrives.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(Instant::now() < deadline, "cancel answer never arrived");
        let resp = c.recv().expect("response");
        match resp.get("type").and_then(Json::as_str) {
            Some("cell" | "done") => continue,
            Some("cancelled") => {
                assert_eq!(resp.get("job").and_then(Json::as_str), Some(job.as_str()));
                break;
            }
            Some("error") => {
                assert_eq!(resp.get("code").and_then(Json::as_str), Some("unknown-job"));
                break;
            }
            other => panic!("unexpected response type {other:?}"),
        }
    }
    // The connection is still in sync after the cancel.
    let status = c
        .request(&Json::Obj(vec![("type".into(), Json::str("status"))]))
        .expect("status");
    assert_eq!(status.get("type").and_then(Json::as_str), Some("status"));

    shut_down(&socket, handle);
}

/// Stream-ordering invariant under load: many small overlapping jobs
/// pipelined on one raw connection to 4 workers, one of them cancelled
/// mid-stream. Per job, `accepted` precedes every `cell`, and nothing
/// follows the job's `done` or `cancelled`.
#[test]
fn raw_frame_stream_keeps_per_job_order_under_overlapping_jobs() {
    let _guard = CACHE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (socket, handle) = start_server("order", |cfg| cfg.threads = 4);
    let params = ExpParams {
        insts_per_core: 300,
        warmup_insts: 100,
        seed: 4242,
        ..ExpParams::tiny()
    };
    let subjects = ["mcf", "tpch2", "lbm", "milc"];
    let mechs = MechanismSpec::paper_all().to_vec();
    let jobs = 16;
    let stream = UnixStream::connect(&socket).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let mut w = stream.try_clone().expect("clone");
    for i in 0..jobs {
        // Rotating, overlapping subject windows and mechanism subsets:
        // jobs share cells, so one execution fans out to several jobs.
        let subs = [subjects[i % 4], subjects[(i + 1) % 4]];
        let m = mechs[i % mechs.len()..].to_vec();
        let sweep = spec(&subs, m, params).to_json();
        let req = Json::Obj(vec![
            ("type".into(), Json::str("submit")),
            ("sweep".into(), sweep),
        ]);
        writeln!(w, "{req}").expect("submit");
    }

    #[derive(Default)]
    struct JobLog {
        accepted: bool,
        cells: usize,
        expected: usize,
        finished: Option<String>,
    }
    let mut log: std::collections::HashMap<String, JobLog> = Default::default();
    let mut cancel_sent = false;
    let mut open = jobs;
    let mut reader = BufReader::new(stream);
    while open > 0 {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("frame") > 0,
            "daemon hung up"
        );
        let f = parse(line.trim()).expect("frame is JSON");
        let ty = f.get("type").and_then(Json::as_str).expect("typed frame");
        if ty == "error" {
            // Only the cancel can race a job that already finished.
            assert_eq!(
                f.get("code").and_then(Json::as_str),
                Some("unknown-job"),
                "{f}"
            );
            open -= 1;
            continue;
        }
        let job = f
            .get("job")
            .and_then(Json::as_str)
            .expect("job id")
            .to_string();
        let entry = log.entry(job.clone()).or_default();
        assert!(
            entry.finished.is_none(),
            "{ty} after {:?} for {job}",
            entry.finished
        );
        match ty {
            "accepted" => {
                assert!(
                    !entry.accepted && entry.cells == 0,
                    "late accepted for {job}"
                );
                entry.accepted = true;
                entry.expected = f.get("cells").and_then(Json::as_num).expect("cells") as usize;
                if !cancel_sent && job == "j3" {
                    let req = Json::Obj(vec![
                        ("type".into(), Json::str("cancel")),
                        ("job".into(), Json::str(&job)),
                    ]);
                    writeln!(w, "{req}").expect("cancel");
                    cancel_sent = true;
                }
            }
            "cell" => {
                assert!(entry.accepted, "cell before accepted for {job}");
                entry.cells += 1;
            }
            "done" => {
                assert!(entry.accepted, "done before accepted for {job}");
                assert_eq!(
                    entry.cells, entry.expected,
                    "done before every cell of {job}"
                );
                entry.finished = Some(ty.to_string());
                open -= 1;
            }
            "cancelled" => {
                entry.finished = Some(ty.to_string());
                open -= 1;
            }
            other => panic!("unexpected frame type {other}"),
        }
    }
    assert!(cancel_sent);
    // The cancelled job resolved either way; every other job completed.
    let done = log
        .values()
        .filter(|j| j.finished.as_deref() == Some("done"))
        .count();
    assert!(done >= jobs - 1, "only {done} of {jobs} jobs completed");
    drop(reader);
    drop(w);
    shut_down(&socket, handle);
}

/// Seeded protocol fuzz: random garbage, truncated lines, binary junk
/// and oversized requests must each produce a typed `error` (or a clean
/// drop), never a hang or a daemon panic — and a valid request
/// afterwards must still be answered (the framing resynchronizes).
#[test]
fn protocol_fuzz_yields_typed_errors_and_never_hangs() {
    let (socket, handle) = start_server("fuzz", |_| {});
    let mut rng = TraceRng::seed_from_u64(0xCC51);

    for round in 0..40 {
        let stream = UnixStream::connect(&socket).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let kind = rng.below(4);
        match kind {
            // Random printable garbage lines (prefixed so the line is
            // never all-whitespace, which the daemon skips silently).
            0 => {
                let n = rng.range_inclusive(1, 64) as usize;
                let line: String = std::iter::once('g')
                    .chain((0..n).map(|_| (b' ' + rng.below(94) as u8) as char))
                    .collect();
                writeln!(writer, "{line}").unwrap();
            }
            // Well-formed JSON of the wrong shape.
            1 => {
                writeln!(writer, "{}", Json::Arr(vec![Json::uint(rng.next_u64())])).unwrap();
            }
            // Binary junk (0xFF prefix: never blank, never valid UTF-8
            // JSON), newline-terminated.
            2 => {
                let n = rng.range_inclusive(1, 256) as usize;
                let mut bytes = vec![0xFFu8];
                bytes.extend((0..n).map(|_| rng.below(256) as u8));
                bytes.retain(|b| *b != b'\n');
                bytes.push(b'\n');
                writer.write_all(&bytes).unwrap();
            }
            // An oversized line, then a valid request behind it.
            _ => {
                let big = vec![b'z'; simd::MAX_REQUEST_BYTES + 17];
                writer.write_all(&big).unwrap();
                writer.write_all(b"\n").unwrap();
            }
        }
        let mut line = String::new();
        reader.read_line(&mut line).expect("typed error response");
        let resp =
            parse(&line).unwrap_or_else(|e| panic!("round {round}: bad response {line:?}: {e}"));
        assert_eq!(
            resp.get("type").and_then(Json::as_str),
            Some("error"),
            "round {round}: garbage must be answered with a typed error"
        );
        let code = resp.get("code").and_then(Json::as_str).unwrap_or("");
        assert!(
            ["parse", "bad-request", "bad-spec", "oversized"].contains(&code),
            "round {round}: unexpected error code {code:?}"
        );
        // The stream is resynchronized: a valid request still works.
        writeln!(
            writer,
            "{}",
            Json::Obj(vec![("type".into(), Json::str("status"))])
        )
        .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).expect("status after garbage");
        let resp = parse(&line).expect("status response parses");
        assert_eq!(resp.get("type").and_then(Json::as_str), Some("status"));
    }

    // Truncated request (no newline) followed by EOF: the daemon must
    // answer nothing fatal and drop the connection cleanly.
    {
        let stream = UnixStream::connect(&socket).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(b"{\"type\":\"stat").unwrap();
        drop(writer);
        stream.shutdown(std::net::Shutdown::Write).ok();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("read after truncation");
        if !line.is_empty() {
            let resp = parse(&line).expect("response parses");
            assert_eq!(resp.get("type").and_then(Json::as_str), Some("error"));
        }
    }

    shut_down(&socket, handle);
}

// ---------------------------------------------------------------------------
// Subprocess: kill the daemon mid-sweep, restart, resume from cache
// ---------------------------------------------------------------------------

fn bin(name: &str) -> &'static str {
    match name {
        "cc-sim" => env!("CARGO_BIN_EXE_cc-sim"),
        "cc-simd" => env!("CARGO_BIN_EXE_cc-simd"),
        other => panic!("unknown binary {other}"),
    }
}

/// Waits until the daemon actually accepts connections — a stale socket
/// file left by a SIGKILLed predecessor exists but refuses connects, so
/// file existence alone is not readiness.
fn wait_for_socket(path: &PathBuf) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if UnixStream::connect(path).is_ok() {
            return;
        }
        assert!(Instant::now() < deadline, "daemon never became reachable");
        thread::sleep(Duration::from_millis(20));
    }
}

/// A `cc-simd` subprocess that is killed if the test panics first, so a
/// failure never leaks a daemon.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.0.try_wait(), Ok(None)) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

fn spawn_daemon(socket: &PathBuf, cache: &PathBuf) -> Daemon {
    let child = Command::new(bin("cc-simd"))
        .args(["serve", "--socket"])
        .arg(socket)
        .arg("--cache-dir")
        .arg(cache)
        .args(["--threads", "2"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn cc-simd");
    wait_for_socket(socket);
    Daemon(child)
}

const RUN_FLAGS: &[&str] = &[
    "run",
    "--workload",
    "tpch2",
    "--json",
    "--insts",
    "3000",
    "--warmup",
    "500",
    "--seed",
    "11",
];

#[test]
fn killed_daemon_restarts_and_serves_finished_cells_from_cache() {
    let socket = tmp_path("kill-sock");
    let cache = tmp_path("kill-cache");

    // Phase 1: serve one baseline-only sweep to completion, so at least
    // one cell is guaranteed persisted before the crash.
    let mut daemon = spawn_daemon(&socket, &cache);
    let first = Command::new(bin("cc-sim"))
        .args(RUN_FLAGS)
        .args(["--mechanism", "baseline", "--server"])
        .arg(&socket)
        .output()
        .expect("run cc-sim");
    assert!(
        first.status.success(),
        "baseline served sweep failed: {}",
        String::from_utf8_lossy(&first.stderr)
    );

    // Phase 2: start the full five-mechanism sweep and kill the daemon
    // mid-flight (SIGKILL: no drain, no cleanup — the cache's atomic
    // stores are all that protects the directory).
    let mut client = Command::new(bin("cc-sim"))
        .args(RUN_FLAGS)
        .args(["--mechanism", "all", "--server"])
        .arg(&socket)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn cc-sim");
    thread::sleep(Duration::from_millis(150));
    daemon.0.kill().expect("kill daemon");
    daemon.0.wait().expect("reap daemon");
    let _ = client.wait(); // fails; the daemon died under it

    // Phase 3: a restarted daemon must replace the stale socket file,
    // serve the same sweep from the surviving cache entries, and match
    // the direct (non-served) output byte for byte.
    let mut daemon = spawn_daemon(&socket, &cache);
    let served = Command::new(bin("cc-sim"))
        .args(RUN_FLAGS)
        .args(["--mechanism", "all", "--server"])
        .arg(&socket)
        .output()
        .expect("run cc-sim");
    assert!(
        served.status.success(),
        "served sweep after restart failed: {}",
        String::from_utf8_lossy(&served.stderr)
    );

    // The daemon's cache saw hits: the phase-1 baseline cell (at least)
    // was served from disk, not re-simulated.
    let status = Command::new(bin("cc-simd"))
        .args(["status", "--socket"])
        .arg(&socket)
        .output()
        .expect("cc-simd status");
    let status_json = parse(String::from_utf8_lossy(&status.stdout).trim()).expect("status JSON");
    let hits = status_json
        .get("cache")
        .and_then(|c| c.get("hits"))
        .and_then(Json::as_num)
        .expect("cache hits counter");
    assert!(
        hits >= 1.0,
        "restarted daemon re-simulated every cell (hits={hits}); status: {status_json}"
    );

    // Direct run against the same cache directory: byte-identical.
    let direct = Command::new(bin("cc-sim"))
        .args(RUN_FLAGS)
        .args(["--mechanism", "all", "--cache-dir"])
        .arg(&cache)
        .output()
        .expect("run cc-sim directly");
    assert!(
        direct.status.success(),
        "direct sweep failed: {}",
        String::from_utf8_lossy(&direct.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&served.stdout),
        String::from_utf8_lossy(&direct.stdout),
        "served and direct documents diverged"
    );

    // Clean shutdown this time: the socket file must be removed.
    let bye = Command::new(bin("cc-simd"))
        .args(["shutdown", "--socket"])
        .arg(&socket)
        .output()
        .expect("cc-simd shutdown");
    assert!(bye.status.success());
    daemon.0.wait().expect("daemon exits after shutdown");
    let deadline = Instant::now() + Duration::from_secs(10);
    while socket.exists() && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(20));
    }
    assert!(!socket.exists(), "daemon left its socket file behind");

    let _ = fs::remove_dir_all(&cache);
}
