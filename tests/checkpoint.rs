//! Mid-run durability contract of `sim::ckpt` + `sim::api`: periodic
//! checkpoints of in-flight cells that resume bit-identical to an
//! uninterrupted run — across device families, both main-loop engines
//! and all five paper mechanisms — plus the kill-anywhere harness
//! (deterministic fault injection at every checkpoint boundary and a
//! real SIGKILL through the `cc-sim` subprocess), corruption fallback
//! with quarantine, and the injected-I/O-fault shim for the disk cache.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use chargecache::MechanismSpec;
use sim::api::{self, Experiment, Variant};
use sim::exp::ExpParams;
use sim::{checkpoint_stats, CheckpointStore, Engine, System, SystemConfig};
use traces::workload;

/// Serializes the tests that assert on the process-wide run cache and
/// checkpoint counters.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn tiny() -> ExpParams {
    ExpParams {
        insts_per_core: 1_200,
        warmup_insts: 300,
        ..ExpParams::tiny()
    }
}

/// Fresh directory path under the system temp dir, unique per test and
/// per process so parallel test threads never share cache state.
fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let d = std::env::temp_dir().join(format!(
        "cc-checkpoint-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

fn ckpt_files(dir: &Path) -> usize {
    fs::read_dir(dir).map_or(0, |rd| {
        rd.filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
            .count()
    })
}

// ---------------------------------------------------------------------------
// Round-trip grid: family × engine × mechanism
// ---------------------------------------------------------------------------

/// The full paper grid: four device families, both engines, the paper's
/// five mechanisms. Every cell goes through `run_checkpointed` when a
/// cache directory and interval are set.
fn grid(cache: Option<&Path>, p: ExpParams) -> Experiment {
    let mut exp = Experiment::new()
        .workload(workload("tpch2").unwrap())
        .families(["ddr3", "ddr4", "lpddr4x", "hbm2"].map(|f| f.parse().unwrap()))
        .mechanisms(&MechanismSpec::paper_all())
        .variants([
            Variant::new("event-skip", |cfg| cfg.engine = Engine::EventSkip),
            Variant::new("per-cycle", |cfg| cfg.engine = Engine::PerCycle),
        ])
        .params(p)
        .threads(4);
    if let Some(dir) = cache {
        exp = exp.cache_dir(dir);
    }
    exp
}

#[test]
fn checkpointed_grid_is_byte_identical_across_family_engine_mechanism() {
    let _guard = CACHE_LOCK.lock().unwrap();
    let dir = tmp_dir("grid");

    // Cold reference: no cache, no checkpointing.
    api::clear_run_cache();
    let cold = grid(None, tiny()).run().unwrap().to_json();

    // Checkpointed run: every cell chunks through the interval, stores
    // and finally removes its checkpoint — and the sweep JSON must not
    // change by a single byte.
    let with_ckpt = ExpParams {
        checkpoint_interval: 400,
        ..tiny()
    };
    api::clear_run_cache();
    let before = checkpoint_stats();
    let checkpointed = grid(Some(&dir), with_ckpt).run().unwrap().to_json();
    assert_eq!(checkpointed, cold, "checkpointing perturbed the sweep");

    // 4 families × 5 mechanisms × 2 engines = 40 cells; with a 400-inst
    // interval over a 300+1200-inst run each cell stores 2 measured
    // checkpoints and removes its file on completion.
    let s = checkpoint_stats();
    assert!(
        s.stores - before.stores >= 80,
        "expected ≥80 checkpoint stores, got {}",
        s.stores - before.stores
    );
    assert!(
        s.removed - before.removed >= 40,
        "every completed cell must delete its checkpoint, got {}",
        s.removed - before.removed
    );
    assert_eq!(s.quarantined, before.quarantined);
    assert_eq!(s.resumes, before.resumes);
    assert_eq!(ckpt_files(&dir), 0, "completed cells must leave no .ckpt");

    // The run-cache entries written by the checkpointed run resume a
    // fresh process with zero simulations (checkpoint files, had any
    // survived, are invisible to the run cache).
    api::clear_run_cache();
    let before = api::run_cache_executions();
    let resumed = grid(Some(&dir), tiny()).run().unwrap().to_json();
    assert_eq!(api::run_cache_executions() - before, 0);
    assert_eq!(resumed, cold);
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Kill-anywhere, in process: restore at every boundary
// ---------------------------------------------------------------------------

/// A paper single-core system over the deterministic tpch2 trace,
/// mirroring `build_system`'s seed derivation for core 0.
fn build_sys(engine: Engine) -> System {
    let mut cfg = SystemConfig::paper_single_core(MechanismSpec::chargecache());
    cfg.engine = engine;
    let spec = workload("tpch2").unwrap();
    let traces = vec![spec.build(42, cfg.region_base(0))];
    System::try_new(cfg, traces).unwrap()
}

/// `restore(checkpoint(sys))` is a fixed point, and a run resumed from
/// *every* chunk boundary reaches a final state bit-identical to the
/// uninterrupted chunked run — under both engines.
#[test]
fn restore_at_every_boundary_reproduces_the_final_state() {
    for engine in [Engine::EventSkip, Engine::PerCycle] {
        let (step, end, budget) = (400u64, 2_800u64, 50_000_000u64);
        let mut sys = build_sys(engine);
        let mut boundaries: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut t = step;
        while t <= end {
            assert!(sys.run_until_retired(t, budget), "hit the cycle budget");
            let mut bytes = Vec::new();
            assert!(sys.save_state(&mut bytes), "chargecache captures state");
            boundaries.push((t, bytes));
            t += step;
        }
        let (_, final_bytes) = boundaries.last().unwrap();

        for (i, (t0, bytes)) in boundaries.iter().enumerate() {
            let mut re = build_sys(engine);
            re.load_state(&mut bytes.as_slice())
                .unwrap_or_else(|e| panic!("boundary {i} load ({engine:?}): {e}"));

            // Fingerprint property: re-checkpointing a restored system
            // reproduces the checkpoint bytes exactly.
            let mut again = Vec::new();
            assert!(re.save_state(&mut again));
            assert_eq!(
                &again, bytes,
                "restore(checkpoint) drifted at boundary {i} ({engine:?})"
            );

            // Continue to the end with the same chunking: final state
            // must be bit-identical to the uninterrupted run's.
            let mut t = t0 + step;
            while t <= end {
                assert!(re.run_until_retired(t, budget));
                t += step;
            }
            let mut fin = Vec::new();
            assert!(re.save_state(&mut fin));
            assert_eq!(
                &fin, final_bytes,
                "resume from boundary {i} diverged ({engine:?})"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint store: envelope verification ladder
// ---------------------------------------------------------------------------

#[test]
fn checkpoint_store_quarantines_corruption_and_misses_cleanly_on_versions() {
    let _guard = CACHE_LOCK.lock().unwrap();
    let dir = tmp_dir("ladder");
    fs::create_dir_all(&dir).unwrap();
    let store = CheckpointStore::new(&dir);
    let key = 0x1234_5678_9abc_def0_u128;
    let payload = b"checkpoint payload bytes".to_vec();
    let path = store.path_for(key);

    // Round-trip.
    let before = checkpoint_stats();
    store.store(key, &payload);
    assert_eq!(checkpoint_stats().stores - before.stores, 1);
    assert_eq!(store.load(key).as_deref(), Some(payload.as_slice()));

    // A flipped payload byte fails the checksum: quarantined, miss.
    let mut bytes = fs::read(&path).unwrap();
    let mid = 36 + payload.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&path, &bytes).unwrap();
    assert_eq!(store.load(key), None);
    assert!(!path.exists(), "corrupt checkpoint must be moved aside");
    assert!(
        dir.join(format!("{key:032x}.ckpt.corrupt")).exists(),
        "quarantined file must remain inspectable"
    );
    assert_eq!(checkpoint_stats().quarantined - before.quarantined, 1);

    // Another format version is a clean miss: no quarantine, the file
    // stays where a newer/older build can still read it.
    store.store(key, &payload);
    let mut bytes = fs::read(&path).unwrap();
    bytes[7] = b'9';
    fs::write(&path, &bytes).unwrap();
    let q = checkpoint_stats().quarantined;
    assert_eq!(store.load(key), None);
    assert!(path.exists(), "a version mismatch is not corruption");
    assert_eq!(checkpoint_stats().quarantined, q);

    // A truncated file with the right prefix is quarantined.
    fs::write(&path, b"CCCKP\0v1short").unwrap();
    assert_eq!(store.load(key), None);
    assert!(!path.exists());

    // Removal of a completed cell's checkpoint is counted.
    store.store(key, &payload);
    let removed = checkpoint_stats().removed;
    store.remove(key);
    assert!(!path.exists());
    assert_eq!(checkpoint_stats().removed - removed, 1);
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// End-to-end fallback: corrupt / stale checkpoints restart from zero
// ---------------------------------------------------------------------------

fn one_cell(cache: Option<&Path>, interval: u64) -> Experiment {
    let mut exp = Experiment::new()
        .workload(workload("tpch2").unwrap())
        .mechanism(MechanismSpec::chargecache())
        .params(ExpParams {
            checkpoint_interval: interval,
            ..tiny()
        });
    if let Some(dir) = cache {
        exp = exp.cache_dir(dir);
    }
    exp
}

#[test]
fn undecodable_or_stale_checkpoints_restart_from_zero_bit_identical() {
    let _guard = CACHE_LOCK.lock().unwrap();
    let dir = tmp_dir("fallback");

    api::clear_run_cache();
    let cold = one_cell(None, 0).run().unwrap().to_json();

    api::clear_run_cache();
    let first = one_cell(Some(&dir), 500).run().unwrap().to_json();
    assert_eq!(first, cold);

    // Recover the cell's content key from its persisted entry name.
    let run_file = fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "run"))
        .expect("the completed cell must be persisted");
    let key = u128::from_str_radix(run_file.file_stem().unwrap().to_str().unwrap(), 16).unwrap();
    let store = CheckpointStore::new(&dir);

    // A checkpoint whose envelope verifies but whose payload does not
    // decode (state layout drift without a version bump): quarantined,
    // and the cell restarts from zero with identical bytes.
    fs::remove_file(&run_file).unwrap();
    store.store(key, b"\x07 not a decodable checkpoint payload");
    let before = checkpoint_stats();
    api::clear_run_cache();
    let resumed = one_cell(Some(&dir), 500).run().unwrap().to_json();
    assert_eq!(resumed, cold, "a corrupt checkpoint perturbed the result");
    assert_eq!(checkpoint_stats().quarantined - before.quarantined, 1);
    assert!(dir.join(format!("{key:032x}.ckpt.corrupt")).exists());

    // A well-formed checkpoint from the previous format version (3: the
    // magic's version byte and the version field both say so): clean
    // miss, restart from zero, no quarantine, same bytes.
    fs::remove_file(&run_file).unwrap();
    store.store(key, b"\x07 payload from another version");
    let path = store.path_for(key);
    let mut bytes = fs::read(&path).unwrap();
    bytes[7] = b'3';
    bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
    fs::write(&path, &bytes).unwrap();
    let before = checkpoint_stats();
    api::clear_run_cache();
    let resumed = one_cell(Some(&dir), 500).run().unwrap().to_json();
    assert_eq!(resumed, cold);
    assert_eq!(
        checkpoint_stats().quarantined,
        before.quarantined,
        "a version mismatch must be a clean miss"
    );
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Subprocess harness: kill at every checkpoint boundary, SIGKILL, I/O faults
// ---------------------------------------------------------------------------

/// A deterministic single-cell `cc-sim` sweep (one workload, one
/// mechanism, one thread) shared by the subprocess tests. The parameters
/// the flags leave unset come from `ExpParams::bench()`, so the child
/// does not inherit `CC_TINY`/`CC_SCALE`: the pinned payloads hold
/// whatever the caller's environment.
fn cc_sim(extra: &[&str]) -> std::process::Command {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_cc-sim"));
    cmd.env_remove("CC_CACHE_DIR")
        .env_remove("CC_FAULT_INJECTION")
        .env_remove("CC_TINY")
        .env_remove("CC_SCALE")
        .args([
            "run",
            "--workload",
            "mcf",
            "--mechanism",
            "chargecache",
            "--threads",
            "1",
            "--insts",
            "4000",
            "--warmup",
            "500",
            "--json",
        ]);
    cmd.args(extra);
    cmd
}

/// Deterministic kill-anywhere: for every K, `ckpt-exit=K` terminates
/// the process (exit 86) immediately after its K-th checkpoint store —
/// every checkpoint boundary in turn — and the rerun resumes from that
/// exact checkpoint to byte-identical JSON. The loop self-discovers the
/// boundary count: the first K past the last boundary runs to
/// completion.
#[test]
fn killed_after_every_checkpoint_store_resumes_byte_identical() {
    let golden = cc_sim(&["--no-cache"]).output().expect("cc-sim runs");
    assert!(golden.status.success(), "golden run failed: {golden:?}");

    let mut k = 1u32;
    loop {
        assert!(k <= 16, "more checkpoint boundaries than plausible");
        let dir = tmp_dir(&format!("exit-{k}"));
        let dir_s = dir.to_str().unwrap().to_string();
        let flags = ["--cache-dir", &dir_s, "--checkpoint-interval", "1000"];

        let out = cc_sim(&flags)
            .env("CC_FAULT_INJECTION", format!("ckpt-exit={k}"))
            .output()
            .expect("cc-sim runs");
        if out.status.success() {
            // K exceeded the boundary count: the run was uninterrupted.
            assert_eq!(out.stdout, golden.stdout);
            let _ = fs::remove_dir_all(&dir);
            break;
        }
        assert_eq!(
            out.status.code(),
            Some(86),
            "kill #{k} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(ckpt_files(&dir), 1, "the killed run left its checkpoint");

        let resumed = cc_sim(&flags).output().expect("cc-sim runs");
        assert!(resumed.status.success(), "resume #{k} failed: {resumed:?}");
        assert_eq!(
            resumed.stdout, golden.stdout,
            "resume after kill #{k} diverged from the uninterrupted run"
        );
        let err = String::from_utf8_lossy(&resumed.stderr);
        assert!(err.contains("resumed=1"), "resume #{k} stderr: {err}");
        assert_eq!(ckpt_files(&dir), 0, "resume #{k} left its checkpoint");
        let _ = fs::remove_dir_all(&dir);
        k += 1;
    }
    assert!(
        k >= 3,
        "expected at least two checkpoint boundaries, saw {}",
        k - 1
    );
}

/// The payload of the single checkpoint a killed run left in `dir`.
fn left_payload(dir: &Path) -> Vec<u8> {
    let ckpt = fs::read_dir(dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .expect("the killed run left its checkpoint");
    let key = u128::from_str_radix(ckpt.file_stem().unwrap().to_str().unwrap(), 16).unwrap();
    CheckpointStore::new(dir)
        .load(key)
        .expect("checkpoint verifies")
}

/// The warmup-phase variant of the kill-anywhere test: a warmup longer
/// than the checkpoint interval stores phase-0 checkpoints (run-driver
/// position, no warmup snapshot), and every kill — in the warmup or the
/// measured phase — resumes to byte-identical JSON. The first phase-0
/// payload is pinned like the phase-1 one below.
#[test]
fn killed_after_every_warmup_checkpoint_store_resumes_byte_identical() {
    let warm = ["--warmup", "2500"];
    let golden = cc_sim(&[&warm[..], &["--no-cache"]].concat())
        .output()
        .expect("cc-sim runs");
    assert!(golden.status.success(), "golden run failed: {golden:?}");

    let mut phases = Vec::new();
    for k in 1u32.. {
        assert!(k <= 16, "more checkpoint boundaries than plausible");
        let dir = tmp_dir(&format!("warm-exit-{k}"));
        let dir_s = dir.to_str().unwrap().to_string();
        let flags = [
            &warm[..],
            &["--cache-dir", &dir_s, "--checkpoint-interval", "1000"],
        ]
        .concat();

        let out = cc_sim(&flags)
            .env("CC_FAULT_INJECTION", format!("ckpt-exit={k}"))
            .output()
            .expect("cc-sim runs");
        if out.status.success() {
            assert_eq!(out.stdout, golden.stdout);
            let _ = fs::remove_dir_all(&dir);
            break;
        }
        assert_eq!(out.status.code(), Some(86), "kill #{k}: {out:?}");
        let payload = left_payload(&dir);
        if k == 1 {
            assert_eq!(
                (payload.len(), checksum_64(&payload)),
                (9_769, 0xd08a_939c_ec4d_6e08)
            );
        }
        phases.push(payload[0]);

        let resumed = cc_sim(&flags).output().expect("cc-sim runs");
        assert!(resumed.status.success(), "resume #{k} failed: {resumed:?}");
        assert_eq!(
            resumed.stdout, golden.stdout,
            "resume after kill #{k} diverged from the uninterrupted run"
        );
        let err = String::from_utf8_lossy(&resumed.stderr);
        assert!(err.contains("resumed=1"), "resume #{k} stderr: {err}");
        let _ = fs::remove_dir_all(&dir);
    }
    // Stores after 1000 and 2000 warmup instructions, then 3 measured.
    assert_eq!(phases, [0, 0, 1, 1, 1]);
}

/// A real SIGKILL mid-cell: wait for the first checkpoint to land, kill
/// the process, and the rerun against the same directory produces JSON
/// byte-identical to an uninterrupted run.
#[test]
fn sigkilled_cc_sim_resumes_mid_cell_byte_identical() {
    let dir = tmp_dir("sigkill");
    let dir_s = dir.to_str().unwrap().to_string();
    let long = ["--insts", "20000", "--warmup", "1000"];
    let flags: Vec<&str> = long
        .iter()
        .copied()
        .chain(["--cache-dir", &dir_s, "--checkpoint-interval", "1000"])
        .collect();

    let mut child = cc_sim(&flags)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("cc-sim spawns");
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut killed_mid_run = false;
    loop {
        if child.try_wait().expect("try_wait").is_some() {
            // The run outraced us; the resume below is a plain cache hit.
            break;
        }
        if ckpt_files(&dir) > 0 {
            child.kill().expect("SIGKILL");
            child.wait().expect("reap");
            killed_mid_run = true;
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no checkpoint landed within 120 s"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let golden = cc_sim(
        &long
            .iter()
            .copied()
            .chain(["--no-cache"])
            .collect::<Vec<_>>(),
    )
    .output()
    .expect("cc-sim runs");
    assert!(golden.status.success(), "golden run failed: {golden:?}");

    let resumed = cc_sim(&flags).output().expect("cc-sim runs");
    assert!(resumed.status.success(), "resume failed: {resumed:?}");
    assert_eq!(
        resumed.stdout, golden.stdout,
        "resume after SIGKILL diverged from the uninterrupted run"
    );
    if killed_mid_run {
        let err = String::from_utf8_lossy(&resumed.stderr);
        assert!(
            err.contains("resumed=1") || err.contains("hits=1"),
            "the resumed run used neither a checkpoint nor a cache entry: {err}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The injected-I/O-fault shim (`CC_FAULT_INJECTION=io-write/io-read/
/// io-rename=N`) exercises the disk cache's and checkpoint store's
/// degrade paths: every fault is absorbed, the JSON stays golden, and
/// the matching failure counter reports it.
#[test]
fn injected_io_faults_degrade_cleanly_without_changing_results() {
    let golden = cc_sim(&["--no-cache"]).output().expect("cc-sim runs");
    assert!(golden.status.success(), "golden run failed: {golden:?}");
    let dir = tmp_dir("io-faults");
    let dir_s = dir.to_str().unwrap().to_string();

    // io-write=1: the first run-cache store fails; the sweep completes
    // with golden bytes and reports the failed store.
    let out = cc_sim(&["--cache-dir", &dir_s])
        .env("CC_FAULT_INJECTION", "io-write=1")
        .output()
        .expect("cc-sim runs");
    assert!(out.status.success(), "{out:?}");
    assert_eq!(out.stdout, golden.stdout);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("store_failures=1"), "stderr: {err}");

    // Nothing was persisted, so an unfaulted rerun simulates again and
    // stores the entry this time.
    let out = cc_sim(&["--cache-dir", &dir_s])
        .output()
        .expect("cc-sim runs");
    assert!(out.status.success());
    assert_eq!(out.stdout, golden.stdout);
    assert!(String::from_utf8_lossy(&out.stderr).contains("stored=1"));

    // io-read=1: the warm entry's read fails — a clean miss, so the cell
    // re-simulates to the same bytes.
    let out = cc_sim(&["--cache-dir", &dir_s])
        .env("CC_FAULT_INJECTION", "io-read=1")
        .output()
        .expect("cc-sim runs");
    assert!(out.status.success(), "{out:?}");
    assert_eq!(out.stdout, golden.stdout);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("misses=1"), "stderr: {err}");

    // io-rename=1 under checkpointing: the first checkpoint's atomic
    // rename fails, later boundaries and the final entry store succeed,
    // and the run is still golden.
    let dir2 = tmp_dir("io-rename");
    let dir2_s = dir2.to_str().unwrap().to_string();
    let out = cc_sim(&["--cache-dir", &dir2_s, "--checkpoint-interval", "1000"])
        .env("CC_FAULT_INJECTION", "io-rename=1")
        .output()
        .expect("cc-sim runs");
    assert!(out.status.success(), "{out:?}");
    assert_eq!(out.stdout, golden.stdout);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("checkpoints:"), "stderr: {err}");
    assert!(err.contains("store_failures=1"), "stderr: {err}");

    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&dir2);
}

// ---------------------------------------------------------------------------
// Frozen checkpoint bytes
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a, bit-for-bit `fasthash::checksum_64` (the run-cache
/// payload checksum), restated here because the root package does not
/// depend on `fasthash`.
fn checksum_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Length and `checksum_64` of `System::save_state` after every core has
/// retired `target` instructions. `tweak` edits the paper config first.
fn state_fingerprint(
    mut cfg: SystemConfig,
    apps: &[traces::WorkloadSpec],
    target: u64,
    tweak: impl FnOnce(&mut SystemConfig),
) -> (usize, u64) {
    tweak(&mut cfg);
    let seed = ExpParams::tiny().seed;
    let traces = apps
        .iter()
        .enumerate()
        .map(|(core, spec)| {
            let core_seed = seed ^ (core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            spec.build(core_seed, cfg.region_base(core))
        })
        .collect();
    let mut sys = System::try_new(cfg, traces).unwrap();
    assert!(
        sys.run_until_retired(target, 50_000_000),
        "hit the cycle budget"
    );
    let mut bytes = Vec::new();
    assert!(sys.save_state(&mut bytes), "built-ins capture state");
    (bytes.len(), checksum_64(&bytes))
}

/// The checkpoint wire format is frozen (`sim::ckpt::CKPT_VERSION`
/// guards it): the bytes of a mid-run `System::save_state` are pinned
/// for every built-in mechanism plus the unlimited-capacity HCRAC (the
/// sorted-map path), every device family (lpddr4x covers per-bank
/// refresh), an eight-core mix with reads, waiters and a writeback
/// backlog in flight, and both `measure_energy` settings (the command
/// log is not state, so they encode alike). A layout change that still
/// round-trips passes the resume tests above but fails here.
#[test]
fn checkpoint_bytes_are_frozen() {
    let tpch2 = [workload("tpch2").unwrap()];
    let mut got: Vec<(String, (usize, u64))> = Vec::new();
    for mech in [
        "baseline",
        "chargecache",
        "nuat",
        "cc-nuat",
        "lldram",
        "chargecache(unlimited=true)",
    ] {
        let cfg = SystemConfig::paper_single_core(mech.parse().unwrap());
        got.push((mech.into(), state_fingerprint(cfg, &tpch2, 1_500, |_| {})));
    }
    for family in ["ddr3", "ddr4", "lpddr4x", "hbm2"] {
        let cfg = SystemConfig::paper_single_core(MechanismSpec::chargecache())
            .with_family(family.parse().unwrap())
            .unwrap();
        got.push((family.into(), state_fingerprint(cfg, &tpch2, 1_500, |_| {})));
    }
    let cfg = SystemConfig::paper_single_core(MechanismSpec::chargecache());
    got.push((
        "no command log".into(),
        state_fingerprint(cfg, &tpch2, 1_500, |c| c.measure_energy = false),
    ));
    // A 64 KiB LLC and an 8-deep write queue put dirty evictions into
    // the system's writeback backlog at this boundary.
    let mix = &traces::eight_core_mixes()[0];
    let cfg = SystemConfig::paper_eight_core(MechanismSpec::chargecache());
    got.push((
        mix.name.clone(),
        state_fingerprint(cfg, &mix.apps, 2_000, |c| {
            c.llc.capacity_bytes = 64 << 10;
            c.ctrl.write_queue = 8;
            c.ctrl.write_hi_watermark = 7;
            c.ctrl.write_lo_watermark = 2;
        }),
    ));
    let want: Vec<(String, (usize, u64))> = GOLDEN_STATE
        .iter()
        .map(|&(n, len, sum)| (n.to_string(), (len, sum)))
        .collect();
    assert_eq!(
        got, want,
        "checkpoint bytes changed without a CKPT_VERSION bump"
    );
}

/// `(configuration, length, checksum_64)` captured at `CKPT_VERSION` 4;
/// see [`checkpoint_bytes_are_frozen`].
const GOLDEN_STATE: &[(&str, usize, u64)] = &[
    ("baseline", 4674, 0x331a0a1718673d11),
    ("chargecache", 7995, 0x4e9d89b28b527476),
    ("nuat", 4690, 0x2ee38829f5eedb9d),
    ("cc-nuat", 8019, 0x94dbd9996eddb7b5),
    ("lldram", 4674, 0xfe3d3ea131fb2209),
    ("chargecache(unlimited=true)", 5371, 0xd925ccb18d4df0a9),
    ("ddr3", 7995, 0x4e9d89b28b527476),
    ("ddr4", 8576, 0x64f69fce51e6dde7),
    ("lpddr4x", 13063, 0x690a12da59934734),
    ("hbm2", 88876, 0x4f02bdf222c98b69),
    ("no command log", 7995, 0x4e9d89b28b527476),
    ("w1", 93607, 0xac0ace2709e952e9),
];

/// The phase-1 payload `cc-sim` persists (run-driver position, warmup
/// snapshot, system state) is pinned through the same kill-after-store
/// hook the resume tests use.
#[test]
fn measured_phase_checkpoint_payload_is_frozen() {
    let dir = tmp_dir("frozen");
    let dir_s = dir.to_str().unwrap().to_string();
    let out = cc_sim(&["--cache-dir", &dir_s, "--checkpoint-interval", "1000"])
        .env("CC_FAULT_INJECTION", "ckpt-exit=1")
        .output()
        .expect("cc-sim runs");
    assert_eq!(out.status.code(), Some(86), "{out:?}");
    let ckpt = fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .expect("the killed run left its checkpoint");
    let key = u128::from_str_radix(ckpt.file_stem().unwrap().to_str().unwrap(), 16).unwrap();
    let payload = CheckpointStore::new(&dir)
        .load(key)
        .expect("checkpoint verifies");
    assert_eq!(
        payload[0], 1,
        "first store of this run is in the measured phase"
    );
    assert_eq!(
        (payload.len(), checksum_64(&payload)),
        (12_335, 0x9706_9074_3ccd_9961)
    );
    let _ = fs::remove_dir_all(&dir);
}
