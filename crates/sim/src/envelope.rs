//! The on-disk envelope shared by the run cache ([`crate::cache`], `.run`
//! files) and the checkpoint store ([`crate::ckpt`], `.ckpt` files).
//!
//! One file per content key, named `{key:032x}.{ext}`: a header (magic,
//! version, key echo, payload length), the payload, and a footer
//! (repeated length, FNV-1a-64 checksum) — the layout is documented in
//! [`crate::cache`].
//!
//! Stores are atomic (temp file, flush, rename into place), so readers —
//! including concurrent processes — see either no entry or a complete
//! one. A well-formed header from another format version is a clean
//! miss; any other verification failure is corruption, and the file is
//! quarantined by renaming it to `<name>.corrupt`.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use fasthash::checksum_64;

/// Deterministic I/O fault injection for the persistence layer (the run
/// cache and the checkpoint store).
///
/// Reuses the `CC_FAULT_INJECTION` master switch that already gates the
/// test-only `faulty` mechanism plugin. Beyond acting as that boolean
/// gate, the variable now accepts comma-separated tokens:
///
/// * `io-write=N` — the N-th persisted-entry *write* attempt since
///   process start fails with an injected I/O error,
/// * `io-rename=N` — the N-th atomic *rename* into place fails,
/// * `io-read=N` — the N-th entry *read* fails,
/// * `ckpt-exit=N` — the process exits (code 86) right after the N-th
///   checkpoint lands on disk, simulating a crash at a checkpoint
///   boundary for the kill-anywhere resume tests.
///
/// Counts are 1-based and process-wide; operations are only counted
/// while their token is present, so an unrelated `CC_FAULT_INJECTION=1`
/// leaves the shim inert. All failures exercise the same degrade paths
/// real I/O errors would: store failures bump counters and the sweep
/// continues, read failures are clean misses.
pub(crate) mod fault {
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    static WRITES: AtomicU64 = AtomicU64::new(0);
    static RENAMES: AtomicU64 = AtomicU64::new(0);
    static READS: AtomicU64 = AtomicU64::new(0);
    static CKPT_EXITS: AtomicU64 = AtomicU64::new(0);

    /// The 1-based trip point for `kind`, if armed.
    fn target(kind: &str) -> Option<u64> {
        let spec = std::env::var("CC_FAULT_INJECTION").ok()?;
        for token in spec.split(',') {
            if let Some((k, v)) = token.trim().split_once('=') {
                if k == kind {
                    return v.parse().ok();
                }
            }
        }
        None
    }

    /// Counts one `kind` operation; true when this one must fail.
    fn trips(counter: &AtomicU64, kind: &str) -> bool {
        match target(kind) {
            Some(n) => counter.fetch_add(1, Relaxed) + 1 == n,
            None => false,
        }
    }

    fn check(counter: &AtomicU64, kind: &str) -> std::io::Result<()> {
        if trips(counter, kind) {
            Err(std::io::Error::other(format!("injected {kind} fault")))
        } else {
            Ok(())
        }
    }

    /// Gate before writing an entry's bytes.
    pub(crate) fn before_write() -> std::io::Result<()> {
        check(&WRITES, "io-write")
    }

    /// Gate before renaming a temp file into place.
    pub(crate) fn before_rename() -> std::io::Result<()> {
        check(&RENAMES, "io-rename")
    }

    /// Gate before reading an entry back.
    pub(crate) fn before_read() -> std::io::Result<()> {
        check(&READS, "io-read")
    }

    /// Called after each checkpoint store lands; exits the process when
    /// the `ckpt-exit` trip point is reached (kill-anywhere testing).
    pub(crate) fn after_checkpoint_stored() {
        if trips(&CKPT_EXITS, "ckpt-exit") {
            eprintln!("cc-sim: injected crash after checkpoint (CC_FAULT_INJECTION ckpt-exit)");
            std::process::exit(86);
        }
    }
}

/// Header length: magic + version + key + payload length.
pub(crate) const HEADER_LEN: usize = 8 + 4 + 16 + 8;

/// Footer length: repeated payload length + checksum.
const FOOTER_LEN: usize = 8 + 8;

/// Distinguishes concurrent writers' temp files within the process.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// One store's envelope parameters.
pub(crate) struct Envelope {
    /// File magic. Its first seven bytes are shared by every version of
    /// the store's format; the eighth is the version digit.
    pub(crate) magic: [u8; 8],
    /// Format version (header field).
    pub(crate) version: u32,
    /// Entry file extension.
    pub(crate) ext: &'static str,
    /// Extension of in-progress temp files.
    pub(crate) tmp_ext: &'static str,
}

/// Outcome of [`Envelope::load`].
pub(crate) enum Loaded {
    /// A verified current-version entry; its payload.
    Hit(Vec<u8>),
    /// No readable file under the key, or a well-formed entry from
    /// another format version (left in place).
    Miss,
    /// A corrupt entry, now quarantined.
    Quarantined,
}

impl Envelope {
    /// Entry file path for `key` in `dir`.
    pub(crate) fn path(&self, dir: &Path, key: u128) -> PathBuf {
        dir.join(format!("{key:032x}.{}", self.ext))
    }

    /// Serializes a full entry (header + payload + footer).
    pub(crate) fn encode(&self, key: u128, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + FOOTER_LEN);
        out.extend_from_slice(&self.magic);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&key.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&checksum_64(payload).to_le_bytes());
        out
    }

    /// Verifies an entry read from disk: `Ok(Some(payload))` for a valid
    /// current-version entry, `Ok(None)` for a well-formed header of
    /// another version (magic version byte or header field differ), and
    /// `Err(())` for every other failure — short file, foreign magic, key
    /// mismatch (a file renamed or copied to the wrong name), length
    /// disagreement between header and footer, checksum mismatch.
    fn verify<'a>(&self, bytes: &'a [u8], key: u128) -> Result<Option<&'a [u8]>, ()> {
        // A short file that still starts with the magic prefix is a torn
        // or truncated write, not another version.
        if bytes.len() < HEADER_LEN + FOOTER_LEN {
            return Err(());
        }
        let (header, rest) = bytes.split_at(HEADER_LEN);
        if header[..7] != self.magic[..7] {
            return Err(());
        }
        let version = u32::from_le_bytes(header[8..12].try_into().expect("4-byte field"));
        if header[7] != self.magic[7] || version != self.version {
            return Ok(None);
        }
        let stored_key = u128::from_le_bytes(header[12..28].try_into().expect("16-byte field"));
        let len = u64::from_le_bytes(header[28..36].try_into().expect("8-byte field"));
        // `rest` holds at least the footer (checked above).
        if stored_key != key || (rest.len() - FOOTER_LEN) as u64 != len {
            return Err(());
        }
        let (payload, footer) = rest.split_at(rest.len() - FOOTER_LEN);
        let footer_len = u64::from_le_bytes(footer[..8].try_into().expect("8-byte field"));
        let footer_sum = u64::from_le_bytes(footer[8..16].try_into().expect("8-byte field"));
        if footer_len != len || footer_sum != checksum_64(payload) {
            return Err(());
        }
        Ok(Some(payload))
    }

    /// Reads and verifies the entry for `key` in `dir`, quarantining it
    /// if it is corrupt.
    pub(crate) fn load(&self, dir: &Path, key: u128) -> Loaded {
        let path = self.path(dir, key);
        let Ok(bytes) = fault::before_read().and_then(|()| fs::read(&path)) else {
            return Loaded::Miss;
        };
        match self.verify(&bytes, key) {
            Ok(Some(payload)) => Loaded::Hit(payload.to_vec()),
            Ok(None) => Loaded::Miss,
            Err(()) => {
                quarantine(&path);
                Loaded::Quarantined
            }
        }
    }

    /// Persists `payload` under `key` in `dir` atomically: the entry is
    /// written to a uniquely named temp file in the same directory,
    /// flushed, and renamed into place. A failed store leaves no temp
    /// file behind.
    pub(crate) fn store(&self, dir: &Path, key: u128, payload: &[u8]) -> std::io::Result<()> {
        let tmp = dir.join(format!(
            ".{key:032x}.{}.{}.{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Relaxed),
            self.tmp_ext
        ));
        let entry = self.encode(key, payload);
        let written = (|| {
            let mut f = fs::File::create(&tmp)?;
            fault::before_write()?;
            f.write_all(&entry)?;
            f.sync_data()?;
            drop(f);
            fault::before_rename()?;
            fs::rename(&tmp, self.path(dir, key))
        })();
        if written.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        written
    }
}

/// Moves an unverifiable entry aside (`<name>.corrupt`) so it is never
/// trusted again but remains inspectable. If even the rename fails, fall
/// back to removing it; a file that can be neither moved nor deleted
/// simply keeps failing verification on future loads.
pub(crate) fn quarantine(path: &Path) {
    let mut q = path.as_os_str().to_os_string();
    q.push(".corrupt");
    if fs::rename(path, &q).is_err() {
        let _ = fs::remove_file(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn envelope(magic: &[u8; 8], version: u32) -> Envelope {
        Envelope {
            magic: *magic,
            version,
            ext: "env",
            tmp_ext: "env-tmp",
        }
    }

    #[test]
    fn version_misses_are_clean_and_foreign_entries_are_quarantined() {
        let dir = std::env::temp_dir().join(format!("cc-envelope-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let v1 = envelope(b"CCENV\0v1", 1);
        let v2 = envelope(b"CCENV\0v2", 2);
        let foreign = envelope(b"CCXYZ\0v1", 1);
        let path = v1.path(&dir, 7);

        v1.store(&dir, 7, b"payload").unwrap();
        assert!(matches!(v1.load(&dir, 7), Loaded::Hit(p) if p == b"payload"));
        // Only the entry is left behind: no temp file.
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);

        // Another version of the same store: a clean miss, left in place.
        assert!(matches!(v2.load(&dir, 7), Loaded::Miss));
        assert!(path.exists());

        // Another store's magic, or the wrong key: corrupt, quarantined.
        assert!(matches!(foreign.load(&dir, 7), Loaded::Quarantined));
        assert!(!path.exists());
        let mut corrupt = path.clone().into_os_string();
        corrupt.push(".corrupt");
        assert!(Path::new(&corrupt).exists());
        fs::write(&path, v1.encode(8, b"payload")).unwrap();
        assert!(matches!(v1.load(&dir, 7), Loaded::Quarantined));
        assert!(matches!(v1.load(&dir, 7), Loaded::Miss));
        let _ = fs::remove_dir_all(&dir);
    }
}
