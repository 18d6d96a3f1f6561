//! Trace-driven out-of-order core model.
//!
//! Reproduces Ramulator's CPU front-end (the model the paper's Table 1
//! describes): a `W`-wide core with a fixed-size instruction window and a
//! per-core MSHR budget. Each cycle the core retires up to `W` ready
//! instructions from the window head and dispatches up to `W` new ones
//! from the trace. Non-memory instructions are ready immediately; loads
//! become ready when the cache hierarchy answers; stores are posted.
//! A full window (typically: a load miss at the head) stalls dispatch —
//! this is where DRAM latency becomes CPU performance.

use std::collections::VecDeque;

use fasthash::codec::{put_u8, take_tag, CodecResult, State};
use fasthash::impl_state;

use crate::trace::{MemOp, TraceSource};

/// Identifier of an in-flight load within one core.
pub type LoadId = u64;

/// Core configuration (paper Table 1: 3-wide, 128-entry window, 8 MSHRs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions retired/dispatched per cycle.
    pub issue_width: u32,
    /// Instruction window capacity.
    pub window: usize,
    /// Maximum outstanding load misses.
    pub mshrs: usize,
}

impl CoreConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Self {
            issue_width: 3,
            window: 128,
            mshrs: 8,
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Per-core statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired.
    pub retired: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Loads dispatched.
    pub loads: u64,
    /// Stores dispatched.
    pub stores: u64,
    /// Cycles dispatch was blocked (window full or resource retry).
    pub stall_cycles: u64,
}

impl CoreStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }
}

/// A memory access the core asks the system to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Issuing core id.
    pub core: usize,
    /// The operation.
    pub op: MemOp,
    /// Load identifier (meaningful for loads only).
    pub load_id: LoadId,
}

/// The system's reply to a [`MemAccess`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessReply {
    /// Load serviced by the cache; data ready at the given CPU cycle.
    HitAt(u64),
    /// Load sent to memory; [`Core::complete_load`] will be called with
    /// this access's `load_id` when data returns.
    Pending,
    /// Store accepted (posted) or coalesced.
    Done,
    /// Resource exhausted (queue full); retry next cycle.
    Retry,
}

/// What one [`Core::step`] call accomplished — the cycle-skipping engine
/// uses this to decide whether the core is quiescent (nothing can happen
/// until an external completion, a queued cache hit matures, or the
/// memory system changes state).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepOutcome {
    /// Instructions retired this cycle.
    pub retired: u32,
    /// Instructions dispatched this cycle.
    pub dispatched: u32,
    /// Dispatch was cut short by [`AccessReply::Retry`] (a memory queue
    /// was full); the core will re-attempt the access every cycle, so the
    /// engine must not skip cycles while this is set.
    pub blocked_on_retry: bool,
}

impl StepOutcome {
    /// True when the step changed nothing observable: no retire, no
    /// dispatch, no retry loop. A quiescent core stays quiescent until an
    /// external event (load completion or a maturing cache hit).
    pub fn quiescent(&self) -> bool {
        self.retired == 0 && self.dispatched == 0 && !self.blocked_on_retry
    }
}

/// Window slot: a run of ready instructions or one in-flight load.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Ready(u32),
    Load { id: LoadId, ready: bool },
}

/// The trace-driven core.
pub struct Core {
    id: usize,
    cfg: CoreConfig,
    trace: Box<dyn TraceSource>,
    window: VecDeque<Slot>,
    occupancy: usize,
    /// Non-memory instructions of the current entry not yet dispatched.
    nonmem_credit: u32,
    /// Memory op of the current entry awaiting dispatch.
    pending_op: Option<MemOp>,
    /// Loads that hit in the cache, waiting for their ready cycle;
    /// kept sorted by ready cycle (FIFO among ties) so promotion pops
    /// from the front instead of scanning.
    hit_queue: VecDeque<(u64, LoadId)>,
    /// Outstanding load misses (MSHR usage).
    outstanding: usize,
    next_load_id: LoadId,
    trace_done: bool,
    /// Number of `next_entry` calls made on the trace; a restored core
    /// replays this many entries on a fresh trace source to reposition it.
    trace_reads: u64,
    stats: CoreStats,
}

impl Core {
    /// Creates a core replaying `trace`.
    pub fn new(id: usize, cfg: CoreConfig, trace: Box<dyn TraceSource>) -> Self {
        assert!(cfg.issue_width > 0 && cfg.window > 0 && cfg.mshrs > 0);
        Self {
            id,
            cfg,
            trace,
            window: VecDeque::new(),
            occupancy: 0,
            nonmem_credit: 0,
            pending_op: None,
            hit_queue: VecDeque::new(),
            outstanding: 0,
            next_load_id: 0,
            trace_done: false,
            trace_reads: 0,
            stats: CoreStats::default(),
        }
    }

    /// Core id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.stats.retired
    }

    /// True when the trace is exhausted and the pipeline has drained.
    pub fn finished(&self) -> bool {
        self.trace_done
            && self.window.is_empty()
            && self.pending_op.is_none()
            && self.nonmem_credit == 0
    }

    /// Outstanding load misses.
    pub fn outstanding_misses(&self) -> usize {
        self.outstanding
    }

    /// Marks a pending load ready (memory completion).
    ///
    /// # Panics
    ///
    /// Panics if `load_id` does not match an in-flight load — that is a
    /// harness wiring bug.
    pub fn complete_load(&mut self, load_id: LoadId) {
        let slot = self
            .window
            .iter_mut()
            .find(|s| matches!(s, Slot::Load { id, ready: false } if *id == load_id))
            .expect("completion for unknown load");
        if let Slot::Load { ready, .. } = slot {
            *ready = true;
        }
        self.outstanding -= 1;
    }

    /// Simulates one CPU cycle. `access` is invoked for each memory
    /// operation the core dispatches this cycle (at most one) and must
    /// return the system's reply. Returns what the cycle accomplished,
    /// which the cycle-skipping engine uses to detect quiescence.
    pub fn step<F>(&mut self, now: u64, access: &mut F) -> StepOutcome
    where
        F: FnMut(MemAccess) -> AccessReply,
    {
        self.stats.cycles += 1;

        // Promote cache hits whose data has arrived (sorted: pop fronts).
        while let Some(&(at, id)) = self.hit_queue.front() {
            if at > now {
                break;
            }
            self.hit_queue.pop_front();
            if let Some(Slot::Load { ready, .. }) = self
                .window
                .iter_mut()
                .find(|s| matches!(s, Slot::Load { id: i, .. } if *i == id))
            {
                *ready = true;
            }
        }

        let retired = self.retire();
        let (dispatched, blocked_on_retry) = self.dispatch(now, access);
        if dispatched == 0 && !self.finished() {
            self.stats.stall_cycles += 1;
        }
        StepOutcome {
            retired,
            dispatched,
            blocked_on_retry,
        }
    }

    /// Earliest future cycle at which this core can make progress on its
    /// own — i.e. the next queued cache hit maturing. `None` when the
    /// core's only possible wake-up is external (a load completion via
    /// [`Self::complete_load`]) or it is finished.
    ///
    /// Only meaningful when the previous [`Self::step`] returned a
    /// [`StepOutcome`] with `quiescent() == true`; an active core must
    /// simply be stepped every cycle.
    pub fn next_event_cycle(&self) -> Option<u64> {
        self.hit_queue.front().map(|&(at, _)| at)
    }

    /// Accounts `cycles` skipped cycles during which the engine proved the
    /// core could make no progress: the per-cycle path would have burned
    /// them as stall cycles (or idle cycles once finished).
    pub fn absorb_idle_cycles(&mut self, cycles: u64) {
        self.stats.cycles += cycles;
        if !self.finished() {
            self.stats.stall_cycles += cycles;
        }
    }

    /// Retires up to `issue_width` ready instructions from the head;
    /// returns the number retired.
    fn retire(&mut self) -> u32 {
        let mut budget = self.cfg.issue_width;
        while budget > 0 {
            match self.window.front_mut() {
                Some(Slot::Ready(n)) => {
                    let take = (*n).min(budget);
                    *n -= take;
                    budget -= take;
                    self.stats.retired += u64::from(take);
                    self.occupancy -= take as usize;
                    if *n == 0 {
                        self.window.pop_front();
                    }
                }
                Some(Slot::Load { ready: true, .. }) => {
                    self.window.pop_front();
                    budget -= 1;
                    self.stats.retired += 1;
                    self.occupancy -= 1;
                }
                _ => break,
            }
        }
        self.cfg.issue_width - budget
    }

    /// Dispatches up to `issue_width` instructions; returns the number
    /// dispatched and whether dispatch stopped on a memory-queue retry.
    fn dispatch<F>(&mut self, now: u64, access: &mut F) -> (u32, bool)
    where
        F: FnMut(MemAccess) -> AccessReply,
    {
        let mut dispatched = 0;
        let mut blocked_on_retry = false;
        while dispatched < self.cfg.issue_width {
            if self.occupancy >= self.cfg.window {
                break;
            }
            // Refill from the trace when the current entry is consumed.
            if self.nonmem_credit == 0 && self.pending_op.is_none() {
                self.trace_reads += 1;
                match self.trace.next_entry() {
                    Some(e) => {
                        self.nonmem_credit = e.nonmem;
                        self.pending_op = e.op;
                    }
                    None => {
                        self.trace_done = true;
                        break;
                    }
                }
            }
            // Plain instructions first.
            if self.nonmem_credit > 0 {
                let room = (self.cfg.window - self.occupancy) as u32;
                let take = self
                    .nonmem_credit
                    .min(self.cfg.issue_width - dispatched)
                    .min(room);
                if take == 0 {
                    break;
                }
                self.push_ready(take);
                self.nonmem_credit -= take;
                dispatched += take;
                continue;
            }
            // Then the memory operation.
            let Some(op) = self.pending_op else { continue };
            match op {
                MemOp::Load(_) => {
                    if self.outstanding >= self.cfg.mshrs {
                        break; // MSHRs exhausted: structural stall.
                    }
                    let load_id = self.next_load_id;
                    match access(MemAccess {
                        core: self.id,
                        op,
                        load_id,
                    }) {
                        AccessReply::HitAt(at) => {
                            self.next_load_id += 1;
                            self.window.push_back(Slot::Load {
                                id: load_id,
                                ready: false,
                            });
                            self.occupancy += 1;
                            // Hits almost always arrive in order (the LLC
                            // latency is constant); keep the queue sorted
                            // for out-of-order replies too, inserting
                            // after ties to preserve FIFO promotion.
                            let at = at.max(now + 1);
                            let pos = self.hit_queue.partition_point(|&(t, _)| t <= at);
                            self.hit_queue.insert(pos, (at, load_id));
                            self.stats.loads += 1;
                            self.pending_op = None;
                            dispatched += 1;
                        }
                        AccessReply::Pending => {
                            self.next_load_id += 1;
                            self.window.push_back(Slot::Load {
                                id: load_id,
                                ready: false,
                            });
                            self.occupancy += 1;
                            self.outstanding += 1;
                            self.stats.loads += 1;
                            self.pending_op = None;
                            dispatched += 1;
                        }
                        AccessReply::Done => {
                            unreachable!("loads cannot complete instantaneously")
                        }
                        AccessReply::Retry => {
                            blocked_on_retry = true;
                            break;
                        }
                    }
                }
                MemOp::Store(_) => {
                    match access(MemAccess {
                        core: self.id,
                        op,
                        load_id: 0,
                    }) {
                        AccessReply::Done => {
                            // Stores are posted: they occupy a slot but are
                            // immediately ready to retire.
                            self.push_ready(1);
                            self.stats.stores += 1;
                            self.pending_op = None;
                            dispatched += 1;
                        }
                        AccessReply::Retry => {
                            blocked_on_retry = true;
                            break;
                        }
                        other => unreachable!("stores are posted, got {other:?}"),
                    }
                }
            }
        }
        (dispatched, blocked_on_retry)
    }

    fn push_ready(&mut self, n: u32) {
        self.occupancy += n as usize;
        if let Some(Slot::Ready(m)) = self.window.back_mut() {
            *m += n;
        } else {
            self.window.push_back(Slot::Ready(n));
        }
    }
}

impl Default for Slot {
    fn default() -> Self {
        Slot::Ready(0)
    }
}

impl State for Slot {
    const MIN_BYTES: usize = 5;

    fn put(&self, out: &mut Vec<u8>) {
        match *self {
            Slot::Ready(n) => (0u8, n).put(out),
            Slot::Load { id, ready } => (1u8, (id, ready)).put(out),
        }
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        *self = match take_tag(input, 1, "window slot")? {
            0 => Slot::Ready(u32::take(input)?),
            _ => {
                let (id, ready) = State::take(input)?;
                Slot::Load { id, ready }
            }
        };
        Ok(())
    }
}

impl_state!(CoreStats {
    retired,
    cycles,
    loads,
    stores,
    stall_cycles
});

/// The core's complete mutable state (checkpoint support). The trace
/// itself is not serialized — only the number of entries consumed;
/// loading into a freshly built core replays that many reads on its
/// deterministic trace source.
impl State for Core {
    fn put(&self, out: &mut Vec<u8>) {
        self.window.put(out);
        self.occupancy.put(out);
        self.nonmem_credit.put(out);
        match self.pending_op {
            None => put_u8(out, 0),
            Some(MemOp::Load(a)) => (1u8, a).put(out),
            Some(MemOp::Store(a)) => (2u8, a).put(out),
        }
        self.hit_queue.put(out);
        self.outstanding.put(out);
        self.next_load_id.put(out);
        self.trace_done.put(out);
        self.trace_reads.put(out);
        self.stats.put(out);
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        self.window.load(input)?;
        self.occupancy.load(input)?;
        self.nonmem_credit.load(input)?;
        self.pending_op = match take_tag(input, 2, "pending op")? {
            0 => None,
            1 => Some(MemOp::Load(u64::take(input)?)),
            _ => Some(MemOp::Store(u64::take(input)?)),
        };
        self.hit_queue.load(input)?;
        self.outstanding.load(input)?;
        self.next_load_id.load(input)?;
        self.trace_done.load(input)?;
        self.trace_reads.load(input)?;
        self.stats.load(input)?;
        // Fast-forward the fresh trace source to the recorded position.
        for _ in 0..self.trace_reads {
            self.trace.next_entry();
        }
        Ok(())
    }
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("occupancy", &self.occupancy)
            .field("outstanding", &self.outstanding)
            .field("retired", &self.stats.retired)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceEntry, VecTrace};

    fn loads(n: usize, stride: u64, nonmem: u32) -> Vec<TraceEntry> {
        (0..n)
            .map(|i| TraceEntry {
                nonmem,
                op: Some(MemOp::Load(i as u64 * stride)),
            })
            .collect()
    }

    #[test]
    fn pure_compute_retires_at_full_width() {
        let entries = vec![TraceEntry {
            nonmem: 300,
            op: None,
        }];
        let mut core = Core::new(0, CoreConfig::paper(), Box::new(VecTrace::once(entries)));
        let mut nop = |_: MemAccess| -> AccessReply { unreachable!() };
        let mut now = 0;
        while !core.finished() && now < 1_000 {
            core.step(now, &mut nop);
            now += 1;
        }
        assert!(core.finished());
        assert_eq!(core.retired(), 300);
        // 3-wide: about 100 cycles (+ pipeline edges).
        assert!(
            core.stats().cycles <= 105,
            "cycles = {}",
            core.stats().cycles
        );
    }

    #[test]
    fn load_hits_complete_after_latency() {
        let mut core = Core::new(
            0,
            CoreConfig::paper(),
            Box::new(VecTrace::once(loads(4, 64, 0))),
        );
        let mut now = 0;
        let mut hits = 0;
        while !core.finished() && now < 500 {
            core.step(now, &mut |_a| {
                hits += 1;
                AccessReply::HitAt(now + 20)
            });
            now += 1;
        }
        assert!(core.finished());
        assert_eq!(hits, 4);
        assert_eq!(core.retired(), 4);
    }

    #[test]
    fn mshr_limit_caps_outstanding_misses() {
        let cfg = CoreConfig {
            issue_width: 3,
            window: 128,
            mshrs: 8,
        };
        let mut core = Core::new(0, cfg, Box::new(VecTrace::once(loads(50, 64, 0))));
        let mut sent = Vec::new();
        for now in 0..100 {
            core.step(now, &mut |a| {
                sent.push(a.load_id);
                AccessReply::Pending
            });
            assert!(core.outstanding_misses() <= 8);
        }
        assert_eq!(core.outstanding_misses(), 8);
        // Complete one; another dispatches.
        core.complete_load(sent[0]);
        core.step(100, &mut |a| {
            sent.push(a.load_id);
            AccessReply::Pending
        });
        assert_eq!(core.outstanding_misses(), 8);
        assert_eq!(sent.len(), 9);
    }

    #[test]
    fn window_fills_behind_blocked_load() {
        // One never-completing load followed by lots of compute: the window
        // must cap occupancy at 128 and stall.
        let entries = vec![
            TraceEntry {
                nonmem: 0,
                op: Some(MemOp::Load(0)),
            },
            TraceEntry {
                nonmem: 100_000,
                op: None,
            },
        ];
        let mut core = Core::new(0, CoreConfig::paper(), Box::new(VecTrace::once(entries)));
        for now in 0..200 {
            core.step(now, &mut |_| AccessReply::Pending);
        }
        // Nothing can retire past the blocked load at the head.
        assert_eq!(core.retired(), 0);
        assert!(core.stats().stall_cycles > 100);
    }

    #[test]
    fn retry_stalls_then_succeeds() {
        let mut core = Core::new(
            0,
            CoreConfig::paper(),
            Box::new(VecTrace::once(loads(1, 64, 0))),
        );
        let mut attempts = 0;
        for now in 0..10 {
            core.step(now, &mut |_| {
                attempts += 1;
                if attempts < 3 {
                    AccessReply::Retry
                } else {
                    AccessReply::HitAt(now + 5)
                }
            });
        }
        assert_eq!(attempts, 3);
        assert_eq!(core.stats().loads, 1);
    }

    #[test]
    fn stores_are_posted_and_retire() {
        let entries = vec![TraceEntry {
            nonmem: 2,
            op: Some(MemOp::Store(64)),
        }];
        let mut core = Core::new(0, CoreConfig::paper(), Box::new(VecTrace::once(entries)));
        let mut now = 0;
        while !core.finished() && now < 50 {
            core.step(now, &mut |a| {
                assert!(matches!(a.op, MemOp::Store(64)));
                AccessReply::Done
            });
            now += 1;
        }
        assert!(core.finished());
        assert_eq!(core.retired(), 3);
        assert_eq!(core.stats().stores, 1);
    }

    #[test]
    fn ipc_reflects_memory_latency() {
        // Same trace, two latencies: higher latency → lower IPC.
        let run = |latency: u64| {
            let mut core = Core::new(
                0,
                CoreConfig::paper(),
                Box::new(VecTrace::once(loads(64, 64, 2))),
            );
            let mut pend: Vec<(u64, LoadId)> = Vec::new();
            let mut now = 0;
            while !core.finished() && now < 100_000 {
                while let Some(pos) = pend.iter().position(|&(at, _)| at <= now) {
                    let (_, id) = pend.remove(pos);
                    core.complete_load(id);
                }
                core.step(now, &mut |a| {
                    pend.push((now + latency, a.load_id));
                    AccessReply::Pending
                });
                now += 1;
            }
            core.stats().ipc()
        };
        let fast = run(10);
        let slow = run(200);
        assert!(fast > slow, "fast {fast} vs slow {slow}");
    }
}
