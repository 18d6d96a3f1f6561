//! Host and build facts printed with every result, so a reader can tell
//! a contended host or a different toolchain from a slow change.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The 1-minute load average (NaN when unreadable).
pub fn loadavg() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

/// Peak resident set (`VmHWM`, KiB) of process `pid` (`"self"` for this
/// one).
pub fn vm_hwm_kb(pid: &str) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Filesystem type of the mount holding `path` (from the longest
/// matching mount point in `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> String {
    let Ok(abs) = fs::canonicalize(path) else {
        return "unknown".into();
    };
    let Ok(info) = fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: (usize, String) = (0, "unknown".into());
    for line in info.lines() {
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let Some(mount) = left.split(' ').nth(4) else {
            continue;
        };
        let mount = PathBuf::from(mount.replace("\\040", " "));
        let len = mount.as_os_str().len();
        if abs.starts_with(&mount) && len >= best.0 {
            let fstype = right.split(' ').next().unwrap_or("unknown");
            best = (len, fstype.to_string());
        }
    }
    best.1
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The git revision, when the source tree is a git checkout.
pub fn git_rev() -> String {
    command_line("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unavailable (not a git checkout)".into())
}

/// `rustc --version`.
pub fn rustc_version() -> String {
    command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())
}

/// A digest of the simulator's source tree (`crates/`, `src/` and the
/// root manifests): names the program being measured even where no git
/// metadata exists.
pub fn source_digest() -> String {
    let mut files: Vec<PathBuf> = Vec::new();
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = fs::read_dir(dir) else { return };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    walk(Path::new("crates"), &mut files);
    walk(Path::new("src"), &mut files);
    files.push("Cargo.toml".into());
    files.push("Cargo.lock".into());
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.push(0);
        bytes.extend(fs::read(f).unwrap_or_default());
        bytes.push(0);
    }
    format!("{:032x}", fasthash::content_hash_128(&bytes))
}

/// Number of CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
