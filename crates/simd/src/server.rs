//! The sweep daemon: bounded queue, worker pool, result streaming.
//!
//! # Concurrency model
//!
//! One accept loop (non-blocking, polled), one thread per client
//! connection, and a fixed worker pool. All coordination goes through a
//! single [`Mutex`]-guarded `State` plus two condvars: `work` wakes
//! idle workers when cells are queued, `drained` wakes a shutdown waiter
//! when the last in-flight cell lands.
//!
//! Cells are content-addressed (the [`CellPlan::content_key`] that also
//! names disk-cache entries), and the queue holds each key **once**: a
//! second submission of an already queued or running cell subscribes to
//! the existing execution instead of enqueueing a duplicate. Each key is
//! derived once per submitted cell and travels with the plan's clones.
//! Below that, workers execute through [`CellPlan::run`], so even cells
//! racing from separate sweeps single-flight on the same key. Each
//! subscriber keeps its own [`CellPlan`] — two submissions may label the
//! same execution differently (a Baseline cell shared across a capacity
//! axis), and each client gets its own labels back.
//!
//! Output: every connection owns an outbound frame queue drained by
//! one writer thread, the only thread that writes to its socket. Every
//! job frame (`accepted`, `cell`, `done`, `cancelled`, `aborted`, and
//! the final `bye`) is queued while the state lock is held, in the same
//! critical section as the state change it reports. Frame order on the
//! wire is therefore the order of those state changes: `accepted`
//! precedes the job's first `cell`, every `cell` precedes `done`, and
//! nothing follows `done`, `cancelled` or `aborted`. `client_quota`
//! bounds the cells a queue can hold.
//!
//! Lock ordering: the state lock, then an outbound queue's lock (held
//! only to push or pop frames). No thread writes to a socket while
//! holding either lock, so a client that stops reading stalls only its
//! own writer thread — never a worker, a shutdown, or the daemon.
//!
//! # Shutdown
//!
//! A `shutdown` request stops new submissions, drops every queued (not
//! yet running) cell — each affected job gets one `aborted` response —
//! waits for running cells to finish (their results stream and persist
//! normally, leaving the [`DiskCache`] consistent), answers `bye`, and
//! stops the accept loop.

use std::collections::VecDeque;
use std::fs;
use std::io::{self, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

use fasthash::FastHashMap;
use sim::api::{CellPlan, SweepPlan};
use sim::exp::default_threads;
use sim::json::Json;
use sim::{DiskCache, GcStats};

use crate::proto::{error_json, parse_request, read_frame, ErrorCode, Frame, Request};
use crate::spec::SweepSpec;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix-domain socket path to listen on.
    pub socket: PathBuf,
    /// Worker-pool size (cells simulated concurrently).
    pub threads: usize,
    /// Disk run-cache directory shared by every job, when set.
    pub cache_dir: Option<PathBuf>,
    /// Checkpoint every in-flight cell to the cache directory each time
    /// a core retires this many instructions, so a killed daemon resumes
    /// long cells mid-run on restart. `0` disables checkpointing; the
    /// interval is a durability knob of this daemon, never part of a
    /// cell's identity or of the wire protocol. Requires `cache_dir`.
    pub checkpoint_interval: u64,
    /// Bounded queue depth: maximum distinct cells queued (running cells
    /// excluded). Submissions that would exceed it are rejected with
    /// `queue-full`.
    pub queue_depth: usize,
    /// Per-client backpressure: maximum outstanding (accepted, not yet
    /// streamed) cells per connection. Submissions that would exceed it
    /// are rejected with `client-quota`.
    pub client_quota: usize,
}

impl ServerConfig {
    /// A daemon on `socket` with default pool size and bounds.
    pub fn new(socket: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            socket: socket.into(),
            threads: default_threads(),
            cache_dir: None,
            checkpoint_interval: 0,
            queue_depth: 4096,
            client_quota: 1024,
        }
    }
}

/// A bound daemon; [`Server::run`] serves until shutdown.
pub struct Server {
    listener: UnixListener,
    socket: PathBuf,
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
}

struct Shared {
    state: Mutex<State>,
    work: Condvar,
    drained: Condvar,
    disk: Option<Arc<DiskCache>>,
    checkpoint_interval: u64,
    queue_depth: usize,
    client_quota: usize,
    stop_accepting: AtomicBool,
}

#[derive(Default)]
struct State {
    /// Distinct cell keys awaiting a worker, FIFO. May contain keys
    /// whose entry a cancel already removed; workers skip those.
    queue: VecDeque<u128>,
    /// Every queued or running cell, by content key.
    cells: FastHashMap<u128, CellEntry>,
    /// Live jobs by id. A finished, cancelled or aborted job is removed.
    jobs: FastHashMap<String, JobState>,
    running: usize,
    next_job: u64,
    next_client: u64,
    shutting_down: bool,
}

struct CellEntry {
    /// Representative plan for execution (all subscribers share the
    /// content key, hence the configuration).
    plan: CellPlan,
    running: bool,
    subs: Vec<Subscriber>,
}

struct Subscriber {
    job: String,
    index: usize,
    /// This subscriber's own identity labels for the cell.
    plan: CellPlan,
    out: Arc<Out>,
}

struct JobState {
    client: u64,
    total: usize,
    completed: usize,
    failed: usize,
}

/// One client's outbound frame queue, drained in order by its writer
/// thread ([`Out::drain_to`]).
#[derive(Default)]
struct Out {
    queue: Mutex<OutQueue>,
    ready: Condvar,
}

#[derive(Default)]
struct OutQueue {
    frames: VecDeque<String>,
    /// No more frames will be queued; the writer exits once drained.
    closed: bool,
}

impl Out {
    /// Queues one frame. Job frames are queued under the state lock so
    /// their order matches the state changes they report.
    fn send(&self, j: &Json) {
        let mut q = lock(&self.queue);
        if !q.closed {
            q.frames.push_back(j.to_string());
            self.ready.notify_one();
        }
    }

    /// Marks the stream finished; frames already queued are still
    /// written.
    fn close(&self) {
        lock(&self.queue).closed = true;
        self.ready.notify_one();
    }

    /// The writer thread: writes queued frames in order until the queue
    /// is closed and empty, each drained batch (frames and their
    /// newlines) in one `write_all`, outside the lock. A write error
    /// means the client is gone: the queue closes and its frames are
    /// discarded.
    fn drain_to(&self, mut w: UnixStream) {
        let mut batch = Vec::new();
        loop {
            let frames = {
                let mut q = lock(&self.queue);
                while q.frames.is_empty() && !q.closed {
                    q = self.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
                }
                if q.frames.is_empty() {
                    return;
                }
                std::mem::take(&mut q.frames)
            };
            batch.clear();
            for f in &frames {
                batch.extend_from_slice(f.as_bytes());
                batch.push(b'\n');
            }
            if w.write_all(&batch).is_err() {
                let mut q = lock(&self.queue);
                q.closed = true;
                q.frames.clear();
                return;
            }
        }
    }
}

/// Locks a mutex whose data stays consistent even if a holder panicked
/// (every critical section leaves it valid).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Server {
    /// Binds the daemon. A leftover socket file from a dead daemon is
    /// replaced; a socket with a live daemon behind it is an
    /// [`io::ErrorKind::AddrInUse`] error.
    pub fn bind(cfg: ServerConfig) -> io::Result<Server> {
        if cfg.socket.exists() {
            match UnixStream::connect(&cfg.socket) {
                Ok(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!("{} already has a live daemon", cfg.socket.display()),
                    ))
                }
                Err(_) => {
                    let _ = fs::remove_file(&cfg.socket);
                }
            }
        }
        let listener = UnixListener::bind(&cfg.socket)?;
        listener.set_nonblocking(true)?;
        let disk = cfg.cache_dir.as_ref().map(|d| DiskCache::shared(d));
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            drained: Condvar::new(),
            disk,
            checkpoint_interval: if cfg.cache_dir.is_some() {
                cfg.checkpoint_interval
            } else {
                0
            },
            queue_depth: cfg.queue_depth.max(1),
            client_quota: cfg.client_quota.max(1),
            stop_accepting: AtomicBool::new(false),
        });
        let workers = (0..cfg.threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker(&shared))
            })
            .collect();
        Ok(Server {
            listener,
            socket: cfg.socket,
            shared,
            workers,
        })
    }

    /// The socket path this daemon listens on.
    pub fn socket(&self) -> &PathBuf {
        &self.socket
    }

    /// Serves connections until a `shutdown` request drains the daemon,
    /// then joins the workers and removes the socket file. Connection
    /// threads still blocked on idle clients are abandoned; they die
    /// with the process (or when their client disconnects).
    pub fn run(mut self) -> io::Result<()> {
        let result = loop {
            if self.shared.stop_accepting.load(Relaxed) {
                break Ok(());
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&self.shared);
                    thread::spawn(move || handle_client(&shared, stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(20));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        // Make sure workers can observe shutdown even on an accept error.
        {
            let mut st = self.shared.state.lock().expect("daemon state poisoned");
            st.shutting_down = true;
            self.shared.work.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let _ = fs::remove_file(&self.socket);
        result
    }
}

fn worker(shared: &Shared) {
    loop {
        let (key, mut plan) = {
            let mut st = shared.state.lock().expect("daemon state poisoned");
            loop {
                let mut picked = None;
                while let Some(k) = st.queue.pop_front() {
                    // Skip keys a cancel orphaned after queueing.
                    if st.cells.contains_key(&k) {
                        picked = Some(k);
                        break;
                    }
                }
                if let Some(k) = picked {
                    st.running += 1;
                    let e = st.cells.get_mut(&k).expect("picked key present");
                    e.running = true;
                    break (k, e.plan.clone());
                }
                if st.shutting_down {
                    shared.drained.notify_all();
                    return;
                }
                st = shared.work.wait(st).expect("daemon state poisoned");
            }
        };
        // The daemon's durability policy, applied at execution time: the
        // interval is excluded from cell identity, so the cache key (and
        // every byte of the streamed cell) is unchanged by it.
        plan.params.checkpoint_interval = shared.checkpoint_interval;
        let outcome = plan.run(shared.disk.as_deref());
        {
            let mut st = shared.state.lock().expect("daemon state poisoned");
            st.running -= 1;
            let entry = st.cells.remove(&key).expect("running cell entry present");
            let mut finished: Vec<String> = Vec::new();
            for sub in entry.subs {
                let Some(job) = st.jobs.get_mut(&sub.job) else {
                    continue; // cancelled or aborted mid-run
                };
                job.completed += 1;
                let cell_outcome = outcome.clone().map(|r| r.as_ref().clone());
                if cell_outcome.is_err() {
                    job.failed += 1;
                }
                let cell = sub.plan.into_cell(cell_outcome);
                sub.out.send(&Json::Obj(vec![
                    ("type".into(), Json::str("cell")),
                    ("job".into(), Json::str(&sub.job)),
                    ("index".into(), Json::uint(sub.index as u64)),
                    ("cell".into(), cell.to_json()),
                ]));
                if job.completed == job.total {
                    sub.out.send(&Json::Obj(vec![
                        ("type".into(), Json::str("done")),
                        ("job".into(), Json::str(&sub.job)),
                        ("cells".into(), Json::uint(job.total as u64)),
                        ("failed".into(), Json::uint(job.failed as u64)),
                    ]));
                    finished.push(sub.job.clone());
                }
            }
            for id in finished {
                st.jobs.remove(&id);
            }
            if st.shutting_down && st.running == 0 && st.queue.is_empty() {
                shared.drained.notify_all();
            }
        }
    }
}

fn handle_client(shared: &Arc<Shared>, stream: UnixStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let out = Arc::new(Out::default());
    let writer = {
        let out = Arc::clone(&out);
        thread::spawn(move || out.drain_to(write_half))
    };
    let client_id = {
        let mut st = shared.state.lock().expect("daemon state poisoned");
        st.next_client += 1;
        st.next_client
    };
    let mut reader = BufReader::new(stream);
    let mut my_jobs: Vec<String> = Vec::new();
    loop {
        match read_frame(&mut reader) {
            Ok(None) | Err(_) => break,
            Ok(Some(Frame::Oversized { discarded })) => {
                out.send(&error_json(
                    ErrorCode::Oversized,
                    format!(
                        "request of {discarded} bytes exceeds the {} byte limit",
                        crate::proto::MAX_REQUEST_BYTES
                    ),
                ));
            }
            Ok(Some(Frame::Line(line))) => {
                if line.trim().is_empty() {
                    continue;
                }
                match parse_request(&line) {
                    Err((code, msg)) => out.send(&error_json(code, msg)),
                    Ok(Request::Status) => out.send(&status_json(shared)),
                    Ok(Request::Gc(budget)) => match &shared.disk {
                        None => out.send(&error_json(
                            ErrorCode::NoCache,
                            "daemon was started without a cache directory",
                        )),
                        Some(d) => out.send(&gc_json(d.gc(budget))),
                    },
                    Ok(Request::Cancel(id)) => cancel(shared, &out, &my_jobs, &id),
                    Ok(Request::Submit(spec)) => {
                        submit(shared, &out, client_id, &mut my_jobs, &spec)
                    }
                    Ok(Request::Shutdown) => {
                        shutdown(shared, &out);
                        // `bye` reaches the requester before the daemon
                        // stops accepting and exits.
                        out.close();
                        writer.join().expect("client writer thread panicked");
                        shared.stop_accepting.store(true, Relaxed);
                        return;
                    }
                }
            }
        }
    }
    // Disconnect: nobody is left to stream to, so the client's live jobs
    // are cancelled — queued cells with no other subscriber are dropped.
    {
        let mut st = shared.state.lock().expect("daemon state poisoned");
        for id in my_jobs {
            cancel_job_locked(&mut st, &id);
        }
    }
    out.close();
    writer.join().expect("client writer thread panicked");
}

fn submit(
    shared: &Arc<Shared>,
    out: &Arc<Out>,
    client_id: u64,
    my_jobs: &mut Vec<String>,
    spec: &SweepSpec,
) {
    let plan = match spec
        .experiment()
        .and_then(|e| e.plan().map_err(|e| e.to_string()))
    {
        Ok(p) => p,
        Err(e) => {
            out.send(&error_json(ErrorCode::BadSpec, e));
            return;
        }
    };
    // Each key is derived once, outside the state lock; the plan clones
    // queued below carry it to the worker's `CellPlan::run`.
    let keys: Vec<u128> = plan.cells.iter().map(CellPlan::content_key).collect();
    let mut st = shared.state.lock().expect("daemon state poisoned");
    if st.shutting_down {
        out.send(&error_json(ErrorCode::ShuttingDown, "daemon is draining"));
        return;
    }
    let outstanding: usize = st
        .jobs
        .values()
        .filter(|jb| jb.client == client_id)
        .map(|jb| jb.total - jb.completed)
        .sum();
    if outstanding + plan.cells.len() > shared.client_quota {
        let msg = format!(
            "client has {outstanding} cells outstanding; {} more would exceed the quota of {}",
            plan.cells.len(),
            shared.client_quota
        );
        out.send(&error_json(ErrorCode::ClientQuota, msg));
        return;
    }
    let mut new_keys: Vec<u128> = Vec::new();
    for &k in &keys {
        if !st.cells.contains_key(&k) && !new_keys.contains(&k) {
            new_keys.push(k);
        }
    }
    if st.queue.len() + new_keys.len() > shared.queue_depth {
        let msg = format!(
            "{} cells queued; {} more would exceed the queue depth of {}",
            st.queue.len(),
            new_keys.len(),
            shared.queue_depth
        );
        out.send(&error_json(ErrorCode::QueueFull, msg));
        return;
    }
    st.next_job += 1;
    let job_id = format!("j{}", st.next_job);
    st.jobs.insert(
        job_id.clone(),
        JobState {
            client: client_id,
            total: plan.cells.len(),
            completed: 0,
            failed: 0,
        },
    );
    for (i, (c, k)) in plan.cells.iter().zip(keys).enumerate() {
        let sub = Subscriber {
            job: job_id.clone(),
            index: i,
            plan: c.clone(),
            out: Arc::clone(out),
        };
        match st.cells.get_mut(&k) {
            Some(e) => e.subs.push(sub),
            None => {
                st.cells.insert(
                    k,
                    CellEntry {
                        plan: c.clone(),
                        running: false,
                        subs: vec![sub],
                    },
                );
                st.queue.push_back(k);
            }
        }
    }
    // Queued before the state lock is released, so ahead of any frame
    // a worker produces for this job.
    out.send(&accepted_json(&job_id, &plan));
    shared.work.notify_all();
    my_jobs.push(job_id);
}

fn cancel(shared: &Arc<Shared>, out: &Arc<Out>, my_jobs: &[String], id: &str) {
    if !my_jobs.iter().any(|j| j == id) {
        out.send(&error_json(
            ErrorCode::UnknownJob,
            format!("job {id:?} was not submitted on this connection"),
        ));
        return;
    }
    // Answered under the state lock: no frame of the job can follow it.
    let mut st = shared.state.lock().expect("daemon state poisoned");
    match cancel_job_locked(&mut st, id) {
        Some(n) => out.send(&Json::Obj(vec![
            ("type".into(), Json::str("cancelled")),
            ("job".into(), Json::str(id)),
            ("dropped".into(), Json::uint(n as u64)),
        ])),
        None => out.send(&error_json(
            ErrorCode::UnknownJob,
            format!("job {id:?} already finished"),
        )),
    }
}

/// Removes a job and its subscriptions; queued cells with no remaining
/// subscriber are dropped (workers skip their stale queue keys). Returns
/// the number of cells that will no longer be streamed, or `None` if the
/// job is already gone.
fn cancel_job_locked(st: &mut State, id: &str) -> Option<usize> {
    let job = st.jobs.remove(id)?;
    let dropped = job.total - job.completed;
    let mut orphaned: Vec<u128> = Vec::new();
    for (k, e) in st.cells.iter_mut() {
        e.subs.retain(|s| s.job != id);
        if e.subs.is_empty() && !e.running {
            orphaned.push(*k);
        }
    }
    for k in orphaned {
        st.cells.remove(&k);
    }
    Some(dropped)
}

fn shutdown(shared: &Arc<Shared>, out: &Arc<Out>) {
    {
        let mut st = shared.state.lock().expect("daemon state poisoned");
        st.shutting_down = true;
        // Drop every queued (not yet running) cell; in-flight cells
        // drain normally and their jobs stream to completion.
        let queued: Vec<u128> = st.queue.drain(..).collect();
        let mut dropped_per_job: FastHashMap<String, usize> = FastHashMap::default();
        for k in queued {
            let Some(e) = st.cells.get(&k) else { continue };
            if e.running {
                continue;
            }
            let e = st.cells.remove(&k).expect("queued cell entry present");
            for sub in e.subs {
                *dropped_per_job.entry(sub.job).or_default() += 1;
            }
        }
        for (id, dropped) in dropped_per_job {
            let Some(job) = st.jobs.remove(&id) else {
                continue;
            };
            // The job's in-flight cells may still land, but with the job
            // gone they are not streamed; one `aborted` tells the client
            // the whole story.
            let _ = job;
            out.send(&Json::Obj(vec![
                ("type".into(), Json::str("aborted")),
                ("job".into(), Json::str(&id)),
                ("dropped".into(), Json::uint(dropped as u64)),
            ]));
        }
        shared.work.notify_all();
    }
    // Wait for the drain: running cells finish (and persist) first.
    let mut st = shared.state.lock().expect("daemon state poisoned");
    while !(st.running == 0 && st.queue.is_empty()) {
        st = shared.drained.wait(st).expect("daemon state poisoned");
    }
    out.send(&Json::Obj(vec![("type".into(), Json::str("bye"))]));
}

fn accepted_json(job: &str, plan: &SweepPlan) -> Json {
    Json::Obj(vec![
        ("type".into(), Json::str("accepted")),
        ("job".into(), Json::str(job)),
        ("cells".into(), Json::uint(plan.cells.len() as u64)),
        (
            "params".into(),
            Json::Obj(vec![
                (
                    "insts_per_core".into(),
                    Json::uint(plan.params.insts_per_core),
                ),
                ("warmup_insts".into(), Json::uint(plan.params.warmup_insts)),
                (
                    "max_cycle_factor".into(),
                    Json::uint(plan.params.max_cycle_factor),
                ),
                ("seed".into(), Json::uint(plan.params.seed)),
            ]),
        ),
        (
            "families".into(),
            Json::Arr(
                plan.families
                    .iter()
                    .map(|f| Json::str(f.to_string()))
                    .collect(),
            ),
        ),
        (
            "timings".into(),
            Json::Arr(
                plan.timings
                    .iter()
                    .map(|t| Json::str(t.to_string()))
                    .collect(),
            ),
        ),
        (
            "mechanisms".into(),
            Json::Arr(
                plan.mechanisms
                    .iter()
                    .map(|m| Json::str(m.to_string()))
                    .collect(),
            ),
        ),
        (
            "variants".into(),
            Json::Arr(plan.variants.iter().map(Json::str).collect()),
        ),
    ])
}

fn status_json(shared: &Shared) -> Json {
    let st = shared.state.lock().expect("daemon state poisoned");
    let queued = st.cells.values().filter(|e| !e.running).count();
    let cache = match &shared.disk {
        None => Json::Null,
        Some(d) => {
            let s = d.stats();
            Json::Obj(vec![
                ("dir".into(), Json::str(d.dir().display().to_string())),
                ("hits".into(), Json::uint(s.hits)),
                ("misses".into(), Json::uint(s.misses)),
                ("stores".into(), Json::uint(s.stores)),
                ("store_failures".into(), Json::uint(s.store_failures)),
                ("quarantined".into(), Json::uint(s.quarantined)),
                ("degraded".into(), Json::Bool(s.degraded)),
            ])
        }
    };
    Json::Obj(vec![
        ("type".into(), Json::str("status")),
        ("queued".into(), Json::uint(queued as u64)),
        ("running".into(), Json::uint(st.running as u64)),
        ("jobs".into(), Json::uint(st.jobs.len() as u64)),
        ("shutting_down".into(), Json::Bool(st.shutting_down)),
        ("cache".into(), cache),
    ])
}

fn gc_json(g: GcStats) -> Json {
    Json::Obj(vec![
        ("type".into(), Json::str("gc")),
        ("scanned".into(), Json::uint(g.scanned)),
        ("evicted".into(), Json::uint(g.evicted)),
        ("evicted_bytes".into(), Json::uint(g.evicted_bytes)),
        ("retained".into(), Json::uint(g.retained)),
        ("retained_bytes".into(), Json::uint(g.retained_bytes)),
        ("errors".into(), Json::uint(g.errors)),
    ])
}
