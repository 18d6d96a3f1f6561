//! Mid-run checkpoint/restore: periodic durable snapshots of a running
//! [`System`] so a killed process resumes a long cell
//! from the newest checkpoint instead of restarting it from zero.
//!
//! # Resume ladder
//!
//! A cell executed through [`crate::CellPlan::run`] now climbs four rungs:
//!
//! 1. process-wide memoizer (completed in this process),
//! 2. disk run cache (completed by any process; [`crate::cache`]),
//! 3. **checkpoint** (started but not completed; this module),
//! 4. simulate from zero.
//!
//! # Entry format
//!
//! One file per in-progress cell, named `{content_key:032x}.ckpt` in the
//! run-cache directory — a sibling of the `.run` entries in the same
//! envelope ([`crate::cache`], magic `CCCKP\0v2`, version
//! [`CKPT_VERSION`]): atomic temp-file + rename stores,
//! quarantine-on-corrupt (`<name>.ckpt.corrupt`), and version mismatches
//! treated as clean misses. The run cache's `gc` only matches `.run` names, so
//! checkpoints are never evicted by it; they are deleted by
//! [`CheckpointStore::remove`] the moment their cell completes.
//!
//! The payload is the run-driver position (phase, next chunk target,
//! absolute phase deadline), the warmup-boundary snapshot when the
//! measured phase has begun, and the complete deterministic system state
//! ([`System::save_state`]), all in the [`fasthash::codec`] wire format,
//! so identical runs produce identical checkpoint bytes.
//!
//! # Kill-anywhere guarantee
//!
//! Checkpoints are taken only at run boundaries (between the shared
//! run loop's chunks), where a system's transient engine state
//! (sleep bookkeeping, completion buffers, bus counters) is empty or
//! derivable. A run resumed from *any* checkpoint — including one whose
//! process died mid-store, since stores are atomic — retires the same
//! instructions through the same cycles and produces a bit-identical
//! [`RunResult`] to an uninterrupted run (`tests/checkpoint.rs`).
//! Mechanisms that do not implement the `LatencyMechanism`
//! save/load hooks silently run without checkpointing.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use fasthash::codec::State;
use traces::WorkloadSpec;

use crate::config::{InvalidConfig, SystemConfig};
use crate::envelope::{fault, quarantine, Envelope, Loaded};
use crate::exp::{build_system, run_configured, CellRun, Chunk, ExpParams, Position};
use crate::metrics::RunResult;
use crate::system::{Snapshot, System};

/// Version of the on-disk checkpoint layout. Bump whenever the payload
/// layout changes — including any `save_state` in the crates below this
/// one — so stale checkpoints miss cleanly and the cell restarts from
/// zero instead of misdecoding.
pub const CKPT_VERSION: u32 = 2;

/// The `.ckpt` envelope (its magic's version byte rides along, as in the
/// run cache).
const CKPT: Envelope = Envelope {
    magic: *b"CCCKP\0v2",
    version: CKPT_VERSION,
    ext: "ckpt",
    tmp_ext: "ckpt-tmp",
};

static STORES: AtomicU64 = AtomicU64::new(0);
static STORE_FAILURES: AtomicU64 = AtomicU64::new(0);
static RESUMES: AtomicU64 = AtomicU64::new(0);
static QUARANTINED: AtomicU64 = AtomicU64::new(0);
static REMOVED: AtomicU64 = AtomicU64::new(0);

/// Process-wide checkpoint counters (see [`checkpoint_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Checkpoints persisted successfully.
    pub stores: u64,
    /// Store attempts that failed (I/O error; the run continues).
    pub store_failures: u64,
    /// Runs resumed from a valid checkpoint.
    pub resumes: u64,
    /// Corrupt checkpoints quarantined (the cell restarted from zero).
    pub quarantined: u64,
    /// Checkpoints deleted after their cell completed.
    pub removed: u64,
}

/// Snapshot of the process-wide checkpoint counters. Counters are global
/// (not per-store) so daemon workers and concurrent sweeps aggregate.
pub fn checkpoint_stats() -> CheckpointStats {
    CheckpointStats {
        stores: STORES.load(Relaxed),
        store_failures: STORE_FAILURES.load(Relaxed),
        resumes: RESUMES.load(Relaxed),
        quarantined: QUARANTINED.load(Relaxed),
        removed: REMOVED.load(Relaxed),
    }
}

/// Handle to the checkpoint files of one cache directory. Stateless
/// apart from the path: counters live process-wide.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// A store writing next to the run-cache entries in `dir`. The
    /// caller is responsible for the directory being writable (pair it
    /// with a healthy, non-degraded [`crate::DiskCache`] on the same
    /// directory).
    pub fn new(dir: &Path) -> Self {
        Self {
            dir: dir.to_path_buf(),
        }
    }

    /// Checkpoint file path for a cell's content key.
    pub fn path_for(&self, key: u128) -> PathBuf {
        CKPT.path(&self.dir, key)
    }

    /// Loads and verifies the checkpoint payload for `key`. Missing
    /// files and version mismatches are clean misses; corrupt files are
    /// quarantined and reported as misses (the cell restarts from zero).
    pub fn load(&self, key: u128) -> Option<Vec<u8>> {
        match CKPT.load(&self.dir, key) {
            Loaded::Hit(payload) => Some(payload),
            Loaded::Quarantined => {
                QUARANTINED.fetch_add(1, Relaxed);
                None
            }
            Loaded::Miss => None,
        }
    }

    /// Persists `payload` under `key` atomically (temp file + rename,
    /// exactly like the run cache). Failures only bump
    /// [`CheckpointStats::store_failures`]; the run continues without
    /// durability for that boundary.
    pub fn store(&self, key: u128, payload: &[u8]) {
        match CKPT.store(&self.dir, key, payload) {
            Ok(()) => {
                STORES.fetch_add(1, Relaxed);
                fault::after_checkpoint_stored();
            }
            Err(_) => {
                STORE_FAILURES.fetch_add(1, Relaxed);
            }
        }
    }

    /// Deletes the checkpoint for a completed cell (best-effort).
    pub fn remove(&self, key: u128) {
        if fs::remove_file(self.path_for(key)).is_ok() {
            REMOVED.fetch_add(1, Relaxed);
        }
    }

    /// Quarantines an unverifiable checkpoint (`<name>.corrupt`) so it
    /// is never trusted again but remains inspectable.
    fn quarantine(&self, path: &Path) {
        quarantine(path);
        QUARANTINED.fetch_add(1, Relaxed);
    }
}

/// Serializes one checkpoint payload. Returns `None` when the mechanism
/// does not support state capture (checkpointing silently disabled).
fn encode_payload(pos: &Position, sys: &System) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(4096);
    pos.phase.put(&mut out);
    pos.target.put(&mut out);
    pos.deadline.put(&mut out);
    if let Some(warm) = &pos.warm {
        warm.put(&mut out);
    }
    sys.save_state(&mut out).then_some(out)
}

/// Decodes a checkpoint payload into a freshly built system. On error
/// the system may be partially mutated; the caller rebuilds it.
fn decode_payload(mut input: &[u8], sys: &mut System) -> Result<Position, String> {
    let input = &mut input;
    let phase = u8::take(input)?;
    if phase > 1 {
        return Err(format!("invalid checkpoint phase {phase}"));
    }
    let target = u64::take(input)?;
    let deadline = u64::take(input)?;
    let warm = if phase == 1 {
        Some(Snapshot::take(input)?)
    } else {
        None
    };
    sys.load_state(input)?;
    if !input.is_empty() {
        return Err(format!("{} trailing checkpoint bytes", input.len()));
    }
    Ok(Position {
        phase,
        target,
        deadline,
        warm,
    })
}

/// Runs a cell like [`crate::run_configured`]; with a `store`, it runs
/// in checkpoint-interval chunks instead: resumes from the newest valid
/// checkpoint under `key` if one exists, persists a checkpoint at every
/// mid-phase chunk boundary, and produces a [`RunResult`] bit-identical
/// to an uninterrupted run. Corrupt or stale checkpoints degrade to a
/// restart from zero; mechanisms without state-capture support run
/// without checkpointing.
///
/// # Errors
///
/// Returns [`InvalidConfig`] exactly as [`crate::run_configured`] does.
pub(crate) fn run_checkpointed(
    cfg: SystemConfig,
    apps: &[WorkloadSpec],
    p: &ExpParams,
    store: Option<&CheckpointStore>,
    key: u128,
) -> Result<RunResult, InvalidConfig> {
    let Some(store) = store else {
        return run_configured(cfg, apps, p);
    };
    let sys = build_system(cfg.clone(), apps, p)?;
    let mut run = CellRun::new(sys, p, p.checkpoint_interval.max(1));
    if let Some(payload) = store.load(key) {
        match decode_payload(&payload, &mut run.sys) {
            Ok(pos) => {
                run.pos = pos;
                RESUMES.fetch_add(1, Relaxed);
            }
            Err(_) => {
                // The envelope verified but the payload did not decode
                // (e.g. written by a build whose state layout drifted
                // without a version bump): quarantine it and restart
                // from zero on a clean system.
                store.quarantine(&store.path_for(key));
                run.sys = build_system(cfg, apps, p)?;
            }
        }
    }
    // Once a mechanism declines state capture, stop re-serializing: the
    // run still executes in chunks (bit-identical either way), just
    // without durability.
    let mut supported = true;
    loop {
        match run.chunk(u64::MAX) {
            Chunk::Phase if supported => match encode_payload(&run.pos, &run.sys) {
                Some(payload) => store.store(key, &payload),
                None => supported = false,
            },
            Chunk::Done(hit_cap) => return Ok(run.result(hit_cap)),
            _ => {}
        }
    }
}
