//! Instruction-trace interface for the trace-driven core model.
//!
//! Follows the Ramulator CPU-trace philosophy: a trace is a sequence of
//! entries, each standing for a run of non-memory instructions followed by
//! one memory operation. The `traces` crate provides synthetic generators
//! and file-backed sources implementing [`TraceSource`].

/// One memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    /// Demand load from a byte address.
    Load(u64),
    /// Store to a byte address.
    Store(u64),
}

impl MemOp {
    /// The target address.
    pub fn addr(&self) -> u64 {
        match *self {
            MemOp::Load(a) | MemOp::Store(a) => a,
        }
    }
}

/// One trace entry: `nonmem` plain instructions, then (optionally) one
/// memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Number of non-memory instructions preceding the memory operation.
    pub nonmem: u32,
    /// The memory operation, if any (pure-compute entries have `None`).
    pub op: Option<MemOp>,
}

impl TraceEntry {
    /// Instructions this entry accounts for.
    pub fn instructions(&self) -> u64 {
        u64::from(self.nonmem) + u64::from(self.op.is_some() as u32)
    }
}

/// A source of trace entries.
///
/// Sources are expected to be effectively infinite: the experiment driver
/// decides when enough instructions have retired. Finite sources (e.g.
/// file replays) should loop; [`TraceSource::next_entry`] returning `None`
/// permanently ends the core's execution.
pub trait TraceSource: Send {
    /// Produces the next entry, or `None` if the trace is exhausted.
    fn next_entry(&mut self) -> Option<TraceEntry>;
}

/// A trace replayed from a vector, optionally looping.
#[derive(Debug, Clone)]
pub struct VecTrace {
    entries: Vec<TraceEntry>,
    pos: usize,
    looping: bool,
}

impl VecTrace {
    /// A trace that ends after one pass.
    pub fn once(entries: Vec<TraceEntry>) -> Self {
        Self {
            entries,
            pos: 0,
            looping: false,
        }
    }

    /// A trace that restarts from the beginning forever.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty (a looping empty trace would hang).
    pub fn looping(entries: Vec<TraceEntry>) -> Self {
        assert!(!entries.is_empty(), "looping trace cannot be empty");
        Self {
            entries,
            pos: 0,
            looping: true,
        }
    }
}

impl TraceSource for VecTrace {
    fn next_entry(&mut self) -> Option<TraceEntry> {
        if self.pos >= self.entries.len() {
            if !self.looping {
                return None;
            }
            self.pos = 0;
        }
        let e = self.entries[self.pos];
        self.pos += 1;
        Some(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(nonmem: u32, addr: u64) -> TraceEntry {
        TraceEntry {
            nonmem,
            op: Some(MemOp::Load(addr)),
        }
    }

    #[test]
    fn entry_instruction_count() {
        assert_eq!(entry(3, 0).instructions(), 4);
        assert_eq!(
            TraceEntry {
                nonmem: 5,
                op: None
            }
            .instructions(),
            5
        );
    }

    #[test]
    fn once_trace_ends() {
        let mut t = VecTrace::once(vec![entry(1, 0), entry(2, 64)]);
        assert!(t.next_entry().is_some());
        assert!(t.next_entry().is_some());
        assert!(t.next_entry().is_none());
        assert!(t.next_entry().is_none());
    }

    #[test]
    fn looping_trace_wraps() {
        let mut t = VecTrace::looping(vec![entry(1, 0)]);
        for _ in 0..10 {
            assert_eq!(t.next_entry(), Some(entry(1, 0)));
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn looping_empty_panics() {
        VecTrace::looping(vec![]);
    }
}
