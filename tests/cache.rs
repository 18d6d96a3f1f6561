//! The durability contract of `sim::cache` + `sim::api`: disk-backed
//! resumption with byte-identical JSON, corruption fallback that is
//! bit-identical to the cache-miss path (under both engines), graceful
//! degradation when the cache directory is unusable, per-cell fault
//! isolation for panicking mechanisms, and kill-and-resume through the
//! `cc-sim` subprocess.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use chargecache::{
    registry, LatencyMechanism, MechanismContext, MechanismFactory, MechanismSpec, StatSink,
};
use dram::{ActTimings, BusCycle};
use sim::api::{self, Experiment, Variant};
use sim::exp::ExpParams;
use sim::{CellErrorKind, DiskCache, Engine};
use traces::workload;

/// Serializes the tests that assert on the process-wide run cache.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn tiny() -> ExpParams {
    ExpParams {
        insts_per_core: 2_000,
        warmup_insts: 500,
        ..ExpParams::tiny()
    }
}

/// Fresh directory path under the system temp dir, unique per test and
/// per process so parallel test threads never share cache state.
fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let d = std::env::temp_dir().join(format!(
        "cc-durability-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

/// The experiment used throughout: one workload, two mechanisms, both
/// main-loop engines as variants — so every disk entry round-trips and
/// every fallback path is exercised under `EventSkip` *and* `PerCycle`.
fn experiment(cache: Option<&Path>) -> Experiment {
    let mut exp = Experiment::new()
        .workload(workload("tpch2").unwrap())
        .mechanisms(&[MechanismSpec::baseline(), MechanismSpec::chargecache()])
        .variants([
            Variant::new("event-skip", |cfg| cfg.engine = Engine::EventSkip),
            Variant::new("per-cycle", |cfg| cfg.engine = Engine::PerCycle),
        ])
        .params(tiny())
        .threads(2);
    if let Some(dir) = cache {
        exp = exp.cache_dir(dir);
    }
    exp
}

#[test]
fn disk_cache_resumes_with_zero_executions_and_identical_json() {
    let _guard = CACHE_LOCK.lock().unwrap();
    let dir = tmp_dir("resume");

    // Cold reference: no disk cache at all.
    api::clear_run_cache();
    let cold = experiment(None).run().unwrap().to_json();

    // First cached run simulates everything and is bit-identical to the
    // uncached path (the cache must never perturb results).
    api::clear_run_cache();
    let before = api::run_cache_executions();
    let first = experiment(Some(&dir)).run().unwrap().to_json();
    let executed = api::run_cache_executions() - before;
    assert!(executed > 0);
    assert_eq!(first, cold, "caching changed the sweep output");

    // Second run against the same directory: zero simulations (disk
    // hits bypass the execution counter), byte-identical JSON.
    api::clear_run_cache();
    let before = api::run_cache_executions();
    let second = experiment(Some(&dir)).run().unwrap().to_json();
    assert_eq!(
        api::run_cache_executions() - before,
        0,
        "resumed sweep re-simulated cached cells"
    );
    assert_eq!(second, cold);

    let s = DiskCache::shared(&dir).stats();
    assert_eq!(s.stores, executed, "every simulated cell must be persisted");
    assert!(s.hits >= executed, "second run must hit every entry");
    assert_eq!(s.quarantined, 0);
    assert!(!s.degraded);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_sweep_resumes_byte_identical_in_process() {
    let _guard = CACHE_LOCK.lock().unwrap();
    let dir = tmp_dir("partial");

    // "Interrupted" sweep: only the baseline cells completed and were
    // persisted before the (simulated) crash.
    api::clear_run_cache();
    experiment(Some(&dir))
        .run()
        .map(|_| ())
        .unwrap_or_else(|e| panic!("{e}"));
    // Keep only the baseline half of the cache: drop one entry file to
    // model a sweep killed mid-grid.
    let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "run"))
        .collect();
    entries.sort();
    assert!(entries.len() >= 2, "grid should persist several cells");
    fs::remove_file(&entries[0]).unwrap();

    // The resumed run simulates exactly the missing cell and nothing
    // else, and its JSON matches an uninterrupted run byte for byte.
    api::clear_run_cache();
    let full = experiment(Some(&dir)).run().unwrap().to_json();
    api::clear_run_cache();
    let cold = experiment(None).run().unwrap().to_json();
    assert_eq!(full, cold, "resumed JSON differs from a cold run");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_entries_fall_back_to_bit_identical_resimulation() {
    let _guard = CACHE_LOCK.lock().unwrap();
    let dir = tmp_dir("corrupt");

    api::clear_run_cache();
    let cold = experiment(Some(&dir)).run().unwrap().to_json();
    let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "run"))
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 3,
        "need at least 3 entries to corrupt distinctly, got {}",
        entries.len()
    );

    // Three distinct corruptions: truncation (torn write), payload bit
    // flip, key mismatch (entry copied to the wrong filename).
    let bytes = fs::read(&entries[0]).unwrap();
    fs::write(&entries[0], &bytes[..bytes.len() - 5]).unwrap();
    let mut bytes = fs::read(&entries[1]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(&entries[1], &bytes).unwrap();
    let mut bytes = fs::read(&entries[2]).unwrap();
    bytes[12] ^= 0xFF; // key field of the header
    fs::write(&entries[2], &bytes).unwrap();

    // Every corrupt entry is quarantined and re-simulated; the output is
    // bit-identical to the cache-miss path.
    api::clear_run_cache();
    let quarantined_before = DiskCache::shared(&dir).stats().quarantined;
    let resumed = experiment(Some(&dir)).run().unwrap().to_json();
    assert_eq!(resumed, cold, "corruption fallback changed results");
    let s = DiskCache::shared(&dir).stats();
    assert_eq!(
        s.quarantined - quarantined_before,
        3,
        "each corrupt entry must be quarantined"
    );
    // Quarantined files are preserved for inspection, never trusted.
    let corpses = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().ends_with(".corrupt"))
        .count();
    assert!(corpses >= 2, "quarantined entries should be kept on disk");

    // The re-simulated cells were re-stored: a third run is all hits.
    api::clear_run_cache();
    let before = api::run_cache_executions();
    let third = experiment(Some(&dir)).run().unwrap().to_json();
    assert_eq!(api::run_cache_executions() - before, 0);
    assert_eq!(third, cold);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn old_format_version_entries_miss_cleanly_and_resimulate() {
    let _guard = CACHE_LOCK.lock().unwrap();
    let dir = tmp_dir("version-miss");

    api::clear_run_cache();
    let cold = experiment(Some(&dir)).run().unwrap().to_json();
    let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "run"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty());

    // Rewrite one entry as a well-formed record from the previous
    // format: version byte in the magic and version field both say 1.
    let mut bytes = fs::read(&entries[0]).unwrap();
    bytes[7] = b'1';
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    fs::write(&entries[0], &bytes).unwrap();

    // The stale entry is a clean miss — re-simulated, never quarantined,
    // and the output stays byte-identical to the cold run.
    api::clear_run_cache();
    let quarantined_before = DiskCache::shared(&dir).stats().quarantined;
    let before = api::run_cache_executions();
    let resumed = experiment(Some(&dir)).run().unwrap().to_json();
    assert_eq!(resumed, cold, "version-miss fallback changed results");
    assert!(
        api::run_cache_executions() - before > 0,
        "stale-format entry was trusted instead of re-simulated"
    );
    let s = DiskCache::shared(&dir).stats();
    assert_eq!(
        s.quarantined - quarantined_before,
        0,
        "a version miss must not quarantine"
    );
    let corpses = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().ends_with(".corrupt"))
        .count();
    assert_eq!(corpses, 0, "no .corrupt corpses for a version miss");

    // The re-store overwrote the stale file in place: a third run is
    // all hits with zero executions.
    api::clear_run_cache();
    let before = api::run_cache_executions();
    let third = experiment(Some(&dir)).run().unwrap().to_json();
    assert_eq!(api::run_cache_executions() - before, 0);
    assert_eq!(third, cold);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unusable_cache_dir_degrades_to_memoizer_only() {
    let _guard = CACHE_LOCK.lock().unwrap();
    // A regular file where the cache directory should be: creation
    // fails, the cache opens degraded, and the sweep still succeeds
    // with results identical to the uncached path. (chmod-based denial
    // is unreliable here — the test may run as root.)
    let file = tmp_dir("degraded-file");
    fs::write(&file, b"not a directory").unwrap();

    api::clear_run_cache();
    let cold = experiment(None).run().unwrap().to_json();
    api::clear_run_cache();
    let degraded = experiment(Some(&file)).run().unwrap().to_json();
    assert_eq!(degraded, cold, "degraded mode changed results");

    let s = DiskCache::shared(&file).stats();
    assert!(s.degraded);
    assert_eq!((s.hits, s.stores, s.store_failures), (0, 0, 0));
    assert_eq!(fs::read(&file).unwrap(), b"not a directory");
    let _ = fs::remove_file(&file);
}

// ---------------------------------------------------------------------------
// Fault isolation
// ---------------------------------------------------------------------------

/// A mechanism that always panics on its first activation, registered
/// from inside this test exactly like any plugin.
struct AlwaysPanic;

impl LatencyMechanism for AlwaysPanic {
    fn on_activate(
        &mut self,
        _: BusCycle,
        _: usize,
        _: chargecache::RowKey,
        _: BusCycle,
    ) -> ActTimings {
        panic!("test-panic: deliberate fault");
    }

    fn on_precharge(&mut self, _: BusCycle, _: usize, _: chargecache::RowKey) {}

    fn report_stats(&self, _: &mut dyn StatSink) {}

    fn name(&self) -> &str {
        "test-panic"
    }
}

struct AlwaysPanicFactory;

impl MechanismFactory for AlwaysPanicFactory {
    fn name(&self) -> &str {
        "test-panic"
    }
    fn describe(&self) -> &str {
        "test double: panics on the first activation"
    }
    fn validate(&self, spec: &MechanismSpec) -> Result<(), String> {
        spec.ensure_known_keys(&[])
    }
    fn build(
        &self,
        spec: &MechanismSpec,
        _: &MechanismContext,
    ) -> Result<Box<dyn LatencyMechanism>, String> {
        self.validate(spec)?;
        Ok(Box::new(AlwaysPanic))
    }
}

#[test]
fn panicking_mechanism_fails_only_its_own_cell() {
    let _guard = CACHE_LOCK.lock().unwrap();
    registry::register_mechanism(Arc::new(AlwaysPanicFactory));

    api::clear_run_cache();
    let sweep = Experiment::new()
        .workload(workload("tpch2").unwrap())
        .mechanisms(&[
            MechanismSpec::baseline(),
            "test-panic".parse().unwrap(),
            MechanismSpec::chargecache(),
        ])
        .params(tiny())
        .run()
        .expect("a panicking cell must not abort the sweep");

    assert!(sweep.has_failures());
    assert_eq!(sweep.failed_cells().count(), 1);

    // The poisoned cell carries a typed error with the bounded retry
    // count and the panic payload.
    let bad = sweep.cell("tpch2", "test-panic", "paper").unwrap();
    let err = bad.error().expect("failed cell must expose its error");
    assert_eq!(err.kind, CellErrorKind::Panic);
    assert_eq!(err.attempts, 2, "panics are retried once, then recorded");
    assert!(err.message.contains("deliberate fault"), "{}", err.message);
    assert!(bad.metric(sim::api::Metric::Ipc).is_nan());

    // Healthy cells are untouched: identical to a sweep without the
    // faulty mechanism on the axis.
    api::clear_run_cache();
    let clean = Experiment::new()
        .workload(workload("tpch2").unwrap())
        .mechanisms(&[MechanismSpec::baseline(), MechanismSpec::chargecache()])
        .params(tiny())
        .run()
        .unwrap();
    for mech in ["baseline", "chargecache"] {
        assert_eq!(
            sweep.cell("tpch2", mech, "paper").unwrap().result(),
            clean.cell("tpch2", mech, "paper").unwrap().result(),
            "{mech} cell perturbed by a neighboring panic"
        );
    }

    // The JSON round-trips the error cell through the typed parser.
    let doc = sim::json::parse_sweep(&sweep.to_json()).unwrap();
    assert_eq!(doc.schema_version, 5);
    let cell = doc.cell("tpch2", "test-panic", "paper").unwrap();
    let e = cell.error.as_ref().expect("error object in the JSON");
    assert_eq!(e.kind, "panic");
    assert_eq!(e.attempts, 2);
    assert!(doc
        .cell("tpch2", "baseline", "paper")
        .unwrap()
        .error
        .is_none());

    // Failures are never memoized: re-running retries the faulty cell.
    let before = api::run_cache_executions();
    let again = Experiment::new()
        .workload(workload("tpch2").unwrap())
        .mechanism("test-panic".parse().unwrap())
        .params(tiny())
        .run()
        .unwrap();
    assert!(again.has_failures());
    assert_eq!(
        api::run_cache_executions() - before,
        2,
        "failed cells must be re-attempted, not served from the memoizer"
    );
}

#[test]
fn failed_cells_are_never_persisted_to_disk() {
    let _guard = CACHE_LOCK.lock().unwrap();
    registry::register_mechanism(Arc::new(AlwaysPanicFactory));
    let dir = tmp_dir("no-persist-failure");

    api::clear_run_cache();
    let sweep = Experiment::new()
        .workload(workload("tpch2").unwrap())
        .mechanisms(&[MechanismSpec::baseline(), "test-panic".parse().unwrap()])
        .params(tiny())
        .cache_dir(&dir)
        .run()
        .unwrap();
    assert_eq!(sweep.failed_cells().count(), 1);

    // Exactly the healthy cell landed on disk.
    let entries = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "run"))
        .count();
    assert_eq!(entries, 1, "only the successful cell may be persisted");
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Kill-and-resume through the cc-sim subprocess
// ---------------------------------------------------------------------------

fn cc_sim(dir_flags: &[&str]) -> std::process::Command {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_cc-sim"));
    cmd.env_remove("CC_CACHE_DIR").args([
        "run",
        "--workload",
        "mcf",
        "--mechanism",
        "all",
        "--threads",
        "1",
        "--insts",
        "4000",
        "--warmup",
        "500",
        "--json",
    ]);
    cmd.args(dir_flags);
    cmd
}

#[test]
fn killed_cc_sim_sweep_resumes_byte_identical_with_cache_hits() {
    let dir = tmp_dir("kill-resume");
    let dir_s = dir.to_str().unwrap().to_string();

    // Cold reference run, no cache involved.
    let cold = cc_sim(&["--no-cache"]).output().expect("cc-sim runs");
    assert!(cold.status.success(), "cold run failed: {cold:?}");

    // Start a cached sweep and SIGKILL it as soon as the first finished
    // cell lands on disk — a crash mid-grid. (If the sweep wins the
    // race and exits first, every cell landed, which resumes all the
    // same.)
    let mut child = cc_sim(&["--cache-dir", &dir_s])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("cc-sim spawns");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let landed = fs::read_dir(&dir).is_ok_and(|rd| {
            rd.filter_map(Result::ok)
                .any(|e| e.path().extension().is_some_and(|x| x == "run"))
        });
        if landed || child.try_wait().expect("try_wait").is_some() {
            break;
        }
        assert!(Instant::now() < deadline, "no cache entry ever appeared");
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = child.kill();
    let _ = child.wait();

    // The resumed run serves completed cells from disk (≥1 hit, counted
    // by the cache summary line) and its JSON is byte-identical to the
    // cold run.
    let resumed = cc_sim(&["--cache-dir", &dir_s])
        .output()
        .expect("cc-sim runs");
    assert!(resumed.status.success(), "resumed run failed: {resumed:?}");
    assert_eq!(
        resumed.stdout, cold.stdout,
        "resumed JSON differs from an uninterrupted run"
    );
    let stderr = String::from_utf8(resumed.stderr).expect("utf-8 stderr");
    let hits: u64 = stderr
        .lines()
        .find_map(|l| l.split("hits=").nth(1))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no cache summary line in stderr:\n{stderr}"));
    assert!(
        hits >= 1,
        "resumed run served no cells from disk:\n{stderr}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn gc_never_corrupts_a_concurrently_read_entry() {
    // Readers hammer `load` while GC evicts under a shrinking budget:
    // every load must return either the full stored payload or a clean
    // miss — never a torn read, and never a quarantine (which would mean
    // a reader mistook a half-removed entry for corruption).
    let dir = tmp_dir("gc-race");
    let cache = DiskCache::shared(&dir);
    assert!(!cache.is_degraded());
    let payload: Vec<u8> = (0..2048u32).flat_map(u32::to_le_bytes).collect();
    let keys: Vec<u128> = (0..64u128).map(|i| i * 0x9E37_79B9_7F4A_7C15).collect();
    for &k in &keys {
        cache.store(k, &payload);
    }

    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let keys = &keys;
                let payload = &payload;
                scope.spawn(move || {
                    let mut hits = 0u32;
                    for _ in 0..200 {
                        for &k in keys {
                            if let Some(got) = cache.load(k) {
                                assert_eq!(got, *payload, "torn read under concurrent GC");
                                hits += 1;
                            }
                        }
                    }
                    hits
                })
            })
            .collect();
        // Concurrent GC passes with progressively tighter budgets, plus
        // re-stores so readers keep finding live entries to race with.
        let gcer = {
            let cache = Arc::clone(&cache);
            let keys = &keys;
            let payload = &payload;
            scope.spawn(move || {
                for round in (0..16u64).rev() {
                    let g = cache.gc(round * 4 * payload.len() as u64);
                    assert_eq!(g.errors, 0, "GC failed to remove an entry");
                    for &k in keys.iter().take(8) {
                        cache.store(k, payload);
                    }
                }
            })
        };
        gcer.join().expect("gc thread");
        let total: u32 = readers.into_iter().map(|r| r.join().expect("reader")).sum();
        assert!(total > 0, "readers never observed a live entry");
    });

    let s = cache.stats();
    assert_eq!(
        s.quarantined, 0,
        "a concurrent GC made a reader quarantine an entry"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// 64-bit FNV-1a, bit-for-bit `fasthash::checksum_64`, restated because
/// the root package does not depend on `fasthash`.
fn checksum_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `.run` payload of real cells is frozen (`sim::cache::ENTRY_VERSION`
/// guards it): length and checksum of `RunResult::encode` for `tpch2`
/// under two mechanisms and the eight-core mix `w1`. Unlike the synthetic
/// sample in `sim::metrics`, these results carry non-zero scheduler
/// counters, so the position of `CtrlStats`'s latency histogram relative
/// to them is pinned too. The parameters are explicit, so `CC_TINY` and
/// `CC_SCALE` do not reach them.
#[test]
fn run_entry_bytes_are_frozen() {
    let p = ExpParams {
        insts_per_core: 8_000,
        warmup_insts: 2_000,
        max_cycle_factor: 300,
        seed: 42,
        checkpoint_interval: 0,
    };
    let fingerprint = |cfg: sim::SystemConfig, apps: &[traces::WorkloadSpec]| {
        let r = sim::exp::run_configured(cfg, apps, &p).unwrap();
        assert!(r.ctrl.sched_passes > 0 && r.ctrl.sched_bank_visits > 0);
        let bytes = r.encode();
        (bytes.len(), checksum_64(&bytes))
    };
    let tpch2 = [workload("tpch2").unwrap()];
    let mix = &traces::eight_core_mixes()[0];
    assert_eq!(mix.name, "w1");
    let got = [
        fingerprint(
            sim::SystemConfig::paper_single_core(MechanismSpec::baseline()),
            &tpch2,
        ),
        fingerprint(
            sim::SystemConfig::paper_single_core(MechanismSpec::chargecache()),
            &tpch2,
        ),
        fingerprint(
            sim::SystemConfig::paper_eight_core(MechanismSpec::chargecache()),
            &mix.apps,
        ),
    ];
    assert_eq!(
        got,
        [
            (835, 0x3ff4_2b65_262e_2d92),
            (994, 0xdbaf_8cef_271b_c525),
            (1274, 0x4b39_47e9_771c_55a1),
        ],
        "`.run` bytes changed without an ENTRY_VERSION bump"
    );
}
