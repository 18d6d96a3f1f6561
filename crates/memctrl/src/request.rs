//! Memory requests and completions.

use dram::{BusCycle, DramAddress};
use fasthash::codec::{put_u8, take_tag, CodecResult, State};
use fasthash::impl_state;

/// Unique request identifier assigned by the memory system.
pub type RequestId = u64;

/// Read or write.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Demand read (blocks the issuing core's window slot).
    #[default]
    Read,
    /// Writeback (posted; completes on enqueue).
    Write,
}

/// A request as submitted by a core / the LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Physical byte address (line-aligned internally).
    pub addr: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// Issuing core (selects the per-core HCRAC).
    pub core: usize,
}

/// A request queued inside one channel controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Pending {
    pub id: RequestId,
    pub core: usize,
    pub addr: DramAddress,
    pub arrived: BusCycle,
    pub kind: AccessKind,
}

/// Per-request scheduling progress, used to classify row hits, misses and
/// conflicts the way the paper's methodology does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Progress {
    /// Not yet touched by the scheduler.
    #[default]
    Fresh,
    /// We issued a precharge on this request's behalf (row conflict).
    PreIssued,
    /// We issued the activation (row miss or tail of a conflict).
    ActIssued,
}

/// A request resident in a per-bank scheduler queue.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Queued {
    pub p: Pending,
    pub progress: Progress,
}

/// Completion notification returned by `MemorySystem::tick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The completed request.
    pub id: RequestId,
    /// Issuing core.
    pub core: usize,
    /// Bus cycle at which the data arrived (reads) or the request was
    /// accepted (writes).
    pub at: BusCycle,
    /// Read or write.
    pub kind: AccessKind,
}

impl State for AccessKind {
    fn put(&self, out: &mut Vec<u8>) {
        put_u8(out, *self as u8);
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        *self = match take_tag(input, 1, "access kind")? {
            0 => AccessKind::Read,
            _ => AccessKind::Write,
        };
        Ok(())
    }
}

impl State for Progress {
    fn put(&self, out: &mut Vec<u8>) {
        put_u8(out, *self as u8);
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        *self = match take_tag(input, 2, "request progress")? {
            0 => Progress::Fresh,
            1 => Progress::PreIssued,
            _ => Progress::ActIssued,
        };
        Ok(())
    }
}

impl_state!(Pending {
    id,
    core,
    addr,
    arrived,
    kind
});

impl_state!(Queued { p, progress });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_kinds_are_distinct() {
        assert_ne!(AccessKind::Read, AccessKind::Write);
    }
}
