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

use fasthash::codec::{put_u8, put_usize, take_len, take_tag, CodecResult, State};
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

/// One in-flight load of the window, with the run of ready instructions
/// dispatched just before it that have not retired yet.
#[derive(Debug, Clone, Copy, Default)]
struct LoadSlot {
    before: u32,
    ready: bool,
}

/// The trace-driven core.
pub struct Core {
    id: usize,
    cfg: CoreConfig,
    trace: Box<dyn TraceSource>,
    /// The window, front to back, is each in-flight load preceded by its
    /// ready run ([`LoadSlot::before`]), then `tail`. Ids are assigned at
    /// dispatch and loads retire in order, so the in-flight loads are
    /// exactly the ids `oldest_load..next_load_id`, and load `id` lives
    /// in slot `id & (len - 1)`. The length is the window capacity
    /// rounded up to a power of two, so the at most `window` loads in
    /// flight never share a slot.
    loads: Vec<LoadSlot>,
    /// Id of the oldest load in the window (`next_load_id` when none).
    oldest_load: LoadId,
    /// Ready instructions dispatched after the youngest in-flight load
    /// (the whole window when no load is in flight).
    tail: u32,
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
            loads: vec![LoadSlot::default(); cfg.window.next_power_of_two()],
            oldest_load: 0,
            tail: 0,
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
            && self.oldest_load == self.next_load_id
            && self.tail == 0
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
    /// Panics if `load_id` does not match an in-flight load that is not
    /// yet ready — that is a harness wiring bug.
    pub fn complete_load(&mut self, load_id: LoadId) {
        let in_window = (self.oldest_load..self.next_load_id).contains(&load_id);
        let load = self.load_mut(load_id);
        assert!(in_window && !load.ready, "completion for unknown load");
        load.ready = true;
        self.outstanding -= 1;
    }

    /// The slot of in-flight load `id`.
    fn load_at(&self, id: LoadId) -> LoadSlot {
        self.loads[id as usize & (self.loads.len() - 1)]
    }

    /// The mutable slot of in-flight load `id`.
    fn load_mut(&mut self, id: LoadId) -> &mut LoadSlot {
        let mask = self.loads.len() - 1;
        &mut self.loads[id as usize & mask]
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
            // A load a stray completion already retired has no flag left.
            if id >= self.oldest_load {
                self.load_mut(id).ready = true;
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
        let mask = self.loads.len() - 1;
        while budget > 0 {
            let (run, load_ready) = if self.oldest_load == self.next_load_id {
                (&mut self.tail, false)
            } else {
                let head = &mut self.loads[self.oldest_load as usize & mask];
                (&mut head.before, head.ready)
            };
            let take = (*run).min(budget);
            *run -= take;
            budget -= take;
            self.stats.retired += u64::from(take);
            self.occupancy -= take as usize;
            if *run > 0 || !load_ready || budget == 0 {
                break;
            }
            self.oldest_load += 1;
            budget -= 1;
            self.stats.retired += 1;
            self.occupancy -= 1;
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
                            self.push_load();
                            // Hits almost always arrive in order (the LLC
                            // latency is constant), so they append; an
                            // out-of-order reply is inserted after its
                            // ties to keep promotion FIFO.
                            let at = at.max(now + 1);
                            if self.hit_queue.back().is_none_or(|&(t, _)| t <= at) {
                                self.hit_queue.push_back((at, load_id));
                            } else {
                                let pos = self.hit_queue.partition_point(|&(t, _)| t <= at);
                                self.hit_queue.insert(pos, (at, load_id));
                            }
                            self.pending_op = None;
                            dispatched += 1;
                        }
                        AccessReply::Pending => {
                            self.push_load();
                            self.outstanding += 1;
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

    /// Enters load `next_load_id` into the window, not yet ready, behind
    /// the ready run dispatched since the previous load.
    fn push_load(&mut self) {
        let before = std::mem::take(&mut self.tail);
        *self.load_mut(self.next_load_id) = LoadSlot {
            before,
            ready: false,
        };
        self.next_load_id += 1;
        self.occupancy += 1;
        self.stats.loads += 1;
    }

    fn push_ready(&mut self, n: u32) {
        self.occupancy += n as usize;
        self.tail += n;
    }
}

/// Minimum encoded size of a window slot: a tag and a `u32` run.
const MIN_SLOT_BYTES: usize = 5;

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
    /// The window is a prefixed sequence of slots, front to back: a
    /// non-empty ready run as `(0u8, n)`, a load as `(1u8, (id, ready))`.
    fn put(&self, out: &mut Vec<u8>) {
        let in_flight = self.oldest_load..self.next_load_id;
        let runs = in_flight
            .clone()
            .filter(|&id| self.load_at(id).before > 0)
            .count();
        put_usize(
            out,
            in_flight.clone().count() + runs + usize::from(self.tail > 0),
        );
        for id in in_flight {
            let load = self.load_at(id);
            if load.before > 0 {
                (0u8, load.before).put(out);
            }
            (1u8, (id, load.ready)).put(out);
        }
        if self.tail > 0 {
            (0u8, self.tail).put(out);
        }
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
        // A ready run waits in `run` for the load it precedes; the last
        // one is the tail.
        let mut run = 0;
        let mut loads: Option<(LoadId, LoadId)> = None; // first, one past last
        for _ in 0..take_len(input, MIN_SLOT_BYTES, "window slots")? {
            if take_tag(input, 1, "window slot")? == 0 {
                if run > 0 {
                    return Err("window holds adjacent ready runs".to_string());
                }
                run = u32::take(input)?;
                if run == 0 {
                    return Err("window holds an empty ready run".to_string());
                }
                continue;
            }
            let (id, ready): (LoadId, bool) = State::take(input)?;
            let (first, end) = loads.get_or_insert((id, id));
            if id != *end || *end - *first >= self.loads.len() as u64 {
                return Err(format!("window load {id} out of sequence"));
            }
            *end += 1;
            let before = std::mem::take(&mut run);
            *self.load_mut(id) = LoadSlot { before, ready };
        }
        self.tail = run;
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
        self.oldest_load = match loads {
            None => self.next_load_id,
            Some((first, end)) if end == self.next_load_id => first,
            Some((_, end)) => {
                return Err(format!(
                    "window loads end at {end}, next load is {}",
                    self.next_load_id
                ))
            }
        };
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

    /// A core with loads 0..4 in flight (misses) behind nothing else.
    fn four_misses() -> Core {
        let mut core = Core::new(
            0,
            CoreConfig::paper(),
            Box::new(VecTrace::once(loads(4, 64, 0))),
        );
        for now in 0..2 {
            core.step(now, &mut |_| AccessReply::Pending);
        }
        assert_eq!(core.outstanding_misses(), 4);
        core
    }

    #[test]
    fn completing_an_unknown_or_ready_load_panics() {
        let panics = |f: &dyn Fn(&mut Core)| {
            let mut core = four_misses();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut core)))
                .expect_err("completion accepted")
                .downcast::<&str>()
                .map(|m| assert_eq!(*m, "completion for unknown load"))
                .expect("a message");
        };
        // Never dispatched; ready-slot alias of a live load (ring of 128).
        panics(&|c| c.complete_load(4));
        panics(&|c| c.complete_load(128));
        // Completed twice.
        panics(&|c| {
            c.complete_load(2);
            c.complete_load(2);
        });
        // Already retired.
        panics(&|c| {
            c.complete_load(0);
            c.step(2, &mut |_| unreachable!());
            c.complete_load(0);
        });
    }

    fn encode(core: &Core) -> Vec<u8> {
        let mut out = Vec::new();
        core.put(&mut out);
        out
    }

    #[test]
    fn window_loads_round_trip_and_reject_a_broken_sequence() {
        let mut core = four_misses();
        core.complete_load(0);
        core.complete_load(2);
        core.step(2, &mut |_| unreachable!());
        // Load 0 retired; 1 (pending), 2 (ready) and 3 (pending) remain.
        let bytes = encode(&core);
        let fresh = || {
            Core::new(
                0,
                CoreConfig::paper(),
                Box::new(VecTrace::once(loads(4, 64, 0))),
            )
        };
        let mut restored = fresh();
        restored.load(&mut bytes.as_slice()).unwrap();
        assert_eq!(encode(&restored), bytes);
        restored.complete_load(1);
        restored.complete_load(3);
        for now in 3..6 {
            restored.step(now, &mut |_| unreachable!());
        }
        assert!(restored.finished());
        assert_eq!(restored.retired(), 4);
        // The window is `[len][slot]...`; each load slot is a tag, an
        // 8-byte id and a ready byte. Load 2's id becomes 7.
        let id_at = |slot: usize| 8 + slot * 10 + 1;
        assert_eq!(bytes[id_at(1)], 2);
        let mut broken = bytes.clone();
        broken[id_at(1)] = 7;
        let err = fresh().load(&mut broken.as_slice()).unwrap_err();
        assert!(err.contains("out of sequence"), "{err}");
        // Consecutive loads 0..3 that do not end at the next load id, 4.
        let mut shifted = bytes;
        for slot in 0..3 {
            shifted[id_at(slot)] -= 1;
        }
        let err = fresh().load(&mut shifted.as_slice()).unwrap_err();
        assert!(err.contains("next load is 4"), "{err}");
        // Ready runs merge at dispatch, so a window never holds an empty
        // one or two in a row.
        for (runs, why) in [(&[5u32, 3][..], "adjacent"), (&[0], "empty")] {
            let mut window = Vec::new();
            put_usize(&mut window, runs.len());
            for &n in runs {
                (0u8, n).put(&mut window);
            }
            let err = fresh().load(&mut window.as_slice()).unwrap_err();
            assert!(err.contains(why), "{err}");
        }
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
