//! Persistent sweep service for the ChargeCache reproduction.
//!
//! A `cc-simd` daemon owns one shared run cache and schedules sweep
//! grids submitted by many clients over a Unix domain socket, so
//! overlapping grids (shared baselines, repeated capacity axes) amortize
//! one simulation across every submitter instead of once per process:
//!
//! - [`proto`] — the newline-delimited JSON wire protocol: bounded
//!   framing, the `submit`/`status`/`cancel`/`gc`/`shutdown` request
//!   set, typed error codes.
//! - [`spec`] — [`spec::SweepSpec`], the wire form of a sweep grid in
//!   the existing subject × mechanism × timing × variant vocabulary,
//!   convertible to a [`sim::Experiment`].
//! - [`server`] — the daemon: bounded job queue with per-client
//!   backpressure, worker pool over [`sim::CellPlan::run`] (which
//!   single-flights identical cells across clients), per-cell result
//!   streaming in the `chargecache-sweep/v4` cell schema, graceful
//!   drain on shutdown, and on-request [`sim::DiskCache::gc`].
//! - [`client`] — a blocking client that submits a spec and reassembles
//!   the streamed cells into a v4 document byte-identical to a local
//!   [`sim::api::Experiment::run`] of the same grid.
//!
//! See `docs/PROTOCOL.md` for the complete wire reference.

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;
pub mod spec;

pub use client::{Client, ClientError, ServedSweep};
pub use proto::{ErrorCode, Frame, Request, MAX_REQUEST_BYTES};
pub use server::{Server, ServerConfig};
pub use spec::{SweepSpec, VariantSpec};

/// Parses a human-friendly byte size: plain bytes, or binary `k`/`M`/`G`
/// suffixes (case-insensitive, powers of 1024). Shared by the
/// `cc-sim cache-gc` and `cc-simd gc` budget flags.
///
/// ```
/// assert_eq!(simd::parse_size("4096"), Ok(4096));
/// assert_eq!(simd::parse_size("64k"), Ok(64 << 10));
/// assert_eq!(simd::parse_size("512M"), Ok(512 << 20));
/// assert_eq!(simd::parse_size("2G"), Ok(2 << 30));
/// assert!(simd::parse_size("lots").is_err());
/// ```
pub fn parse_size(v: &str) -> Result<u64, String> {
    let (digits, mult) = if let Some(rest) = v.strip_suffix(['k', 'K']) {
        (rest, 1u64 << 10)
    } else if let Some(rest) = v.strip_suffix(['m', 'M']) {
        (rest, 1 << 20)
    } else if let Some(rest) = v.strip_suffix(['g', 'G']) {
        (rest, 1 << 30)
    } else {
        (v, 1)
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("bad size {v:?} (use bytes or a k/M/G suffix, e.g. 512M)"))?;
    n.checked_mul(mult)
        .ok_or_else(|| format!("size {v:?} overflows"))
}
