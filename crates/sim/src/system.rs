//! The full system: cores + shared LLC + memory system, clocked together.
//!
//! # Engines
//!
//! [`System::run_until_retired`] traverses time with one of two engines
//! (selected by [`crate::config::Engine`]):
//!
//! * **Per-cycle** — the reference loop: every CPU cycle steps every core
//!   and, on bus boundaries, the memory system.
//! * **Event-skip** (default) — steps densely while any core is making
//!   progress, but the moment every core is quiescent (stalled on DRAM,
//!   waiting on a queued cache hit, or finished) it computes the earliest
//!   cycle anything observable can happen and jumps `now` straight there:
//!   the next DRAM data arrival, the next timing-legal command, the next
//!   refresh-duty engagement ([`MemorySystem::next_event`]), the next
//!   maturing LLC hit ([`Core::next_event_cycle`]), or the next bus
//!   boundary when a writeback retry is pending. Skipped cycles are
//!   charged to the cores as stall cycles — exactly what the per-cycle
//!   loop would have recorded — and time-based mechanism state catches up
//!   lazily, so both engines produce bit-identical [`RunResult`]s.

use std::collections::VecDeque;

use cpu::{AccessReply, Core, Llc, LoadId, MemAccess, MemOp, TraceSource};
use fasthash::codec::{load_map, load_slice, put_slice, put_sorted_map, CodecResult, State};
use fasthash::{impl_state, FastHashMap};
use memctrl::{AccessKind, MemRequest, MemorySystem};

use crate::config::{Engine, InvalidConfig, SystemConfig};
use crate::metrics::RunResult;

/// A running system instance.
pub struct System {
    cfg: SystemConfig,
    cores: Vec<Core>,
    llc: Llc,
    mem: MemorySystem,
    /// Loads waiting on an in-flight line: line → (core, load). A read's
    /// completion names its line, so no table of request ids is kept.
    waiters: FastHashMap<u64, Vec<(usize, LoadId)>>,
    /// Emptied waiter lists, reused for the next miss's waiters.
    spare_waiters: Vec<Vec<(usize, LoadId)>>,
    /// Dirty evictions waiting for write-queue space: (line, core).
    wb_backlog: VecDeque<(u64, usize)>,
    /// Per-core sleep bookkeeping for the event engine.
    sleep: Vec<SleepState>,
    /// The cores the event engine steps each cycle; the others sleep.
    awake: CoreSet,
    /// A lower bound on the sleeping cores' `wake_at`: until `now`
    /// reaches it, no sleeping core is due and none is visited.
    next_wake: u64,
    /// Per core: reached the current run's target or finished. Both only
    /// change when the core steps, so the event engine updates them there.
    done: Vec<bool>,
    /// Reusable completion buffer. With it, the reused waiter lists and
    /// a memory system whose request path allocates nothing (no per-row
    /// index, closed rows held inline), a bus tick or an LLC miss makes
    /// no heap allocation once the run's tables and queues have grown to
    /// their working size.
    completions: Vec<memctrl::Completion>,
    now: u64,
    /// `now / cpu_per_bus`, maintained incrementally (recomputed after a
    /// cycle-skip jump) so the hot loop divides only after jumps.
    bus_now: u64,
    /// `now % cpu_per_bus`, maintained alongside `bus_now`.
    bus_phase: u64,
}

/// Event-engine sleep state of one core. A core whose step accomplished
/// nothing (no retire, no dispatch, no retry loop) is put to sleep
/// (removed from [`System::awake`]): its per-cycle steps are skipped
/// until a load completion arrives for it, a queued cache hit matures,
/// or the run ends — at which point the skipped cycles are charged as
/// stall time, exactly matching the per-cycle path.
#[derive(Debug, Clone, Copy)]
struct SleepState {
    /// First cycle covered by the current sleep (stall accounting).
    since: u64,
    /// Cycle at which a queued cache hit matures (`u64::MAX` = only an
    /// external completion can wake the core, or the core is awake).
    wake_at: u64,
}

impl SleepState {
    const AWAKE: SleepState = SleepState {
        since: 0,
        wake_at: u64::MAX,
    };
}

/// A set of core indices, iterated in index order (one bit per core, so
/// any core count fits).
#[derive(Debug, Clone)]
struct CoreSet(Vec<u64>);

impl CoreSet {
    /// The set of cores `0..n`.
    fn full(n: usize) -> Self {
        let mut set = Self(vec![0; n.div_ceil(64)]);
        set.fill(n);
        set
    }

    /// Makes this the set of cores `0..n`, in place.
    fn fill(&mut self, n: usize) {
        self.0.fill(u64::MAX);
        if !n.is_multiple_of(64) {
            self.0[n / 64] = (1 << (n % 64)) - 1;
        }
    }

    fn contains(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }

    fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn remove(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }

    fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }
}

impl System {
    /// Builds the system, attaching one trace per core.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the trace count does not
    /// match the core count. Use [`System::try_new`] to handle invalid
    /// configurations gracefully.
    pub fn new(cfg: SystemConfig, traces: Vec<Box<dyn TraceSource>>) -> Self {
        Self::try_new(cfg, traces).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the system, surfacing configuration errors instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfig`] if [`SystemConfig::validate`] rejects
    /// the configuration or the trace count does not match the core
    /// count.
    pub fn try_new(
        cfg: SystemConfig,
        traces: Vec<Box<dyn TraceSource>>,
    ) -> Result<Self, InvalidConfig> {
        cfg.validate().map_err(InvalidConfig)?;
        if traces.len() != cfg.cores {
            return Err(InvalidConfig(format!(
                "{} traces for {} cores (need one per core)",
                traces.len(),
                cfg.cores
            )));
        }
        let cores = traces
            .into_iter()
            .enumerate()
            .map(|(id, t)| Core::new(id, cfg.core, t))
            .collect();
        let llc = Llc::new(cfg.llc);
        let mut mem = MemorySystem::from_spec(
            cfg.dram.clone(),
            cfg.ctrl.clone(),
            &cfg.mechanism,
            cfg.cores,
        )
        .map_err(InvalidConfig)?;
        if cfg.measure_energy {
            mem.device_mut().enable_log();
        }
        let n = cfg.cores;
        Ok(Self {
            cfg,
            cores,
            llc,
            mem,
            waiters: FastHashMap::default(),
            spare_waiters: Vec::new(),
            wb_backlog: VecDeque::new(),
            sleep: vec![SleepState::AWAKE; n],
            awake: CoreSet::full(n),
            next_wake: u64::MAX,
            done: vec![false; n],
            completions: Vec::new(),
            now: 0,
            bus_now: 0,
            bus_phase: 0,
        })
    }

    /// Current CPU cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Immutable access to the memory system (stats, RLTL, device).
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// Mutable access to the memory system (for energy-log draining).
    pub fn memory_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// The shared LLC.
    pub fn llc(&self) -> &Llc {
        &self.llc
    }

    /// Per-core statistics.
    pub fn core_stats(&self, core: usize) -> &cpu::CoreStats {
        self.cores[core].stats()
    }

    /// Minimum retired-instruction count across cores.
    pub fn min_retired(&self) -> u64 {
        self.cores.iter().map(|c| c.retired()).min().unwrap_or(0)
    }

    /// Advances the system one CPU cycle (the dense reference semantics:
    /// every core steps).
    pub fn step(&mut self) {
        let now = self.now;
        let bus_now = self.bus_now;
        debug_assert_eq!(bus_now, now / self.cfg.cpu_per_bus);
        if self.bus_phase == 0 {
            self.tick_memory(bus_now);
        }
        let Self {
            cores,
            llc,
            mem,
            waiters,
            spare_waiters,
            wb_backlog,
            ..
        } = self;
        let hit_latency = llc.config().hit_latency;
        for core in cores.iter_mut() {
            core.step(now, &mut |access: MemAccess| {
                service_access(
                    access,
                    llc,
                    mem,
                    waiters,
                    spare_waiters,
                    wb_backlog,
                    now,
                    bus_now,
                    hit_latency,
                )
            });
        }
        self.advance_clock();
    }

    /// Advances `now` one cycle, keeping the incremental bus counters in
    /// step.
    fn advance_clock(&mut self) {
        self.now += 1;
        self.bus_phase += 1;
        if self.bus_phase == self.cfg.cpu_per_bus {
            self.bus_phase = 0;
            self.bus_now += 1;
        }
    }

    /// Re-derives the bus counters after `now` jumped (cycle skip).
    fn resync_clock(&mut self) {
        self.bus_now = self.now / self.cfg.cpu_per_bus;
        self.bus_phase = self.now % self.cfg.cpu_per_bus;
    }

    /// Bus-boundary work: memory tick, fill delivery (waking the cores
    /// the data unblocks) and writeback retries.
    fn tick_memory(&mut self, bus_now: u64) {
        let now = self.now;
        // Memory moves first so data arriving this cycle can unblock
        // cores in the same CPU cycle.
        let mut completions = std::mem::take(&mut self.completions);
        self.mem.tick_into(bus_now, &mut completions);
        for c in completions.drain(..) {
            if let Some(wb) = self.llc.fill(c.line) {
                self.wb_backlog.push_back((wb, c.core));
            }
            if let Some(mut ws) = self.waiters.remove(&c.line) {
                for (core, load) in ws.drain(..) {
                    self.cores[core].complete_load(load);
                    // Data for a sleeping core is its wake-up call.
                    if !self.awake.contains(core) {
                        let st = &mut self.sleep[core];
                        self.cores[core].absorb_idle_cycles(now - st.since);
                        *st = SleepState::AWAKE;
                        self.awake.insert(core);
                    }
                }
                self.spare_waiters.push(ws);
            }
        }
        self.completions = completions;
        // Retry queued writebacks.
        while let Some(&(line, core)) = self.wb_backlog.front() {
            let req = MemRequest {
                addr: line,
                kind: AccessKind::Write,
                core,
            };
            if self.mem.try_enqueue(req, bus_now).is_some() {
                self.wb_backlog.pop_front();
            } else {
                break;
            }
        }
    }

    /// One event-engine cycle: boundary work, then a step for every core
    /// that is awake (or due to wake this cycle), in core order. Quiescent
    /// cores go to sleep; their skipped cycles are charged as stalls at
    /// wake-up. A stepped core that reaches `target` (or finishes) is
    /// marked done; returns how many were.
    fn step_event(&mut self, target: u64) -> usize {
        let now = self.now;
        let bus_now = self.bus_now;
        debug_assert_eq!(bus_now, now / self.cfg.cpu_per_bus);
        // Tick memory only when it provably has work: a boundary visited
        // for a CPU-side event (a maturing cache hit, an active core)
        // does not pay for idle channels. Writeback retries still run —
        // they depend on queue space, not on the tick.
        if self.bus_phase == 0 && (self.mem.has_work(bus_now) || !self.wb_backlog.is_empty()) {
            self.tick_memory(bus_now);
        }
        if self.next_wake <= now {
            self.wake_due();
        }
        let Self {
            cores,
            llc,
            mem,
            waiters,
            spare_waiters,
            wb_backlog,
            sleep,
            awake,
            next_wake,
            done,
            ..
        } = self;
        let hit_latency = llc.config().hit_latency;
        let mut newly_done = 0;
        for w in 0..awake.0.len() {
            let mut bits = awake.0[w];
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let core = &mut cores[i];
                let outcome = core.step(now, &mut |access: MemAccess| {
                    service_access(
                        access,
                        llc,
                        mem,
                        waiters,
                        spare_waiters,
                        wb_backlog,
                        now,
                        bus_now,
                        hit_latency,
                    )
                });
                if !done[i] && (core.retired() >= target || core.finished()) {
                    done[i] = true;
                    newly_done += 1;
                }
                if outcome.quiescent() {
                    let wake_at = core.next_event_cycle().unwrap_or(u64::MAX);
                    sleep[i] = SleepState {
                        since: now + 1,
                        wake_at,
                    };
                    *next_wake = (*next_wake).min(wake_at);
                    awake.remove(i);
                }
            }
        }
        self.advance_clock();
        newly_done
    }

    /// Wakes every sleeping core whose queued cache hit matures by `now`
    /// and recomputes [`Self::next_wake`] from the cores left asleep.
    fn wake_due(&mut self) {
        let now = self.now;
        let mut next = u64::MAX;
        for (i, (core, st)) in self.cores.iter_mut().zip(&mut self.sleep).enumerate() {
            if self.awake.contains(i) {
                continue;
            }
            if st.wake_at <= now {
                core.absorb_idle_cycles(now - st.since);
                *st = SleepState::AWAKE;
                self.awake.insert(i);
            } else {
                next = next.min(st.wake_at);
            }
        }
        self.next_wake = next;
    }

    /// Earliest CPU cycle ≥ `self.now` at which anything observable can
    /// happen, assuming every core is asleep. `deadline` caps the answer
    /// (and is the answer when the only remaining events lie beyond it).
    fn next_event_cycle(&self, deadline: u64) -> u64 {
        let now = self.now;
        let cpb = self.cfg.cpu_per_bus;
        let mut next = deadline;
        // Queued LLC hits mature at fixed CPU cycles.
        for st in &self.sleep {
            next = next.min(st.wake_at.max(now));
        }
        // A backlogged writeback retries at every bus boundary.
        if !self.wb_backlog.is_empty() {
            next = next.min(now.next_multiple_of(cpb));
        }
        // Memory-side events, converted from bus to CPU cycles. The
        // last boundary the dense path could have ticked is (now-1)/cpb;
        // the memory system quotes the first interesting one after it.
        let bus_last = (now - 1) / cpb;
        if let Some(bus) = self.mem.next_event(bus_last) {
            next = next.min((bus * cpb).max(now));
        }
        next
    }

    /// Ends any in-progress sleeps, charging the skipped cycles, so
    /// statistics reads and engine switches see fully-accounted cores.
    fn wake_all(&mut self) {
        let now = self.now;
        for (i, (core, st)) in self.cores.iter_mut().zip(&mut self.sleep).enumerate() {
            if !self.awake.contains(i) {
                core.absorb_idle_cycles(now - st.since);
                *st = SleepState::AWAKE;
            }
        }
        self.awake.fill(self.cores.len());
        self.next_wake = u64::MAX;
    }

    /// Runs until every core has retired at least `target` instructions
    /// (or finished its trace), or `max_cycles` elapse. Returns true if
    /// the target was reached.
    ///
    /// Uses the engine selected by the configuration; both engines
    /// produce bit-identical results (see `tests/engine_equivalence.rs`).
    pub fn run_until_retired(&mut self, target: u64, max_cycles: u64) -> bool {
        let deadline = self.now + max_cycles;
        let reached = match self.cfg.engine {
            Engine::PerCycle => loop {
                if self
                    .cores
                    .iter()
                    .all(|c| c.retired() >= target || c.finished())
                {
                    break true;
                }
                if self.now >= deadline {
                    break false;
                }
                self.step();
            },
            Engine::EventSkip => self.run_event_skip(target, deadline),
        };
        self.wake_all();
        // Catch time-based mechanism state (invalidation counters) up to
        // the last bus cycle so statistics match the per-cycle engine's.
        if self.now > 0 {
            self.mem.sync_mech((self.now - 1) / self.cfg.cpu_per_bus);
        }
        reached
    }

    /// The event-skip loop of [`Self::run_until_retired`]: steps the awake
    /// cores, and jumps `now` to the next event whenever all sleep.
    fn run_event_skip(&mut self, target: u64, deadline: u64) -> bool {
        for (core, done) in self.cores.iter().zip(&mut self.done) {
            *done = core.retired() >= target || core.finished();
        }
        let mut not_done = self.done.iter().filter(|&&d| !d).count();
        loop {
            if not_done == 0 {
                return true;
            }
            if self.now >= deadline {
                return false;
            }
            not_done -= self.step_event(target);
            if self.awake.is_empty() {
                // Dead time: jump straight to the next event. The
                // sleeping cores' accounting catches up at wake-up.
                let next = self.next_event_cycle(deadline).min(deadline);
                if next > self.now {
                    self.now = next;
                    self.resync_clock();
                }
            }
        }
    }

    /// Serializes the complete deterministic state of the system —
    /// cores (including trace positions), LLC, the loads waiting on
    /// in-flight lines, writeback backlog, and the full memory system — so an
    /// equally-configured fresh system restored from the bytes continues
    /// the run bit-identically. The layout is the system's [`State`]
    /// encoding (see [`fasthash::codec`]).
    ///
    /// Must be called at a *run boundary* (right after
    /// [`System::run_until_retired`] returns): every core is awake, the
    /// completion buffer is drained, and the bus counters are derivable
    /// from `now`, so none of that state needs to be serialized.
    ///
    /// Returns `false` — leaving `out` untouched — when the configured
    /// mechanism does not support checkpointing (extension and plugin
    /// mechanisms opt in via `LatencyMechanism::save_state`). The state
    /// is encoded once: a declining mechanism rolls `out` back.
    pub fn save_state(&self, out: &mut Vec<u8>) -> bool {
        debug_assert!(
            (0..self.cores.len()).all(|i| self.awake.contains(i)),
            "checkpoint taken with sleeping cores (not at a run boundary)"
        );
        debug_assert!(self.completions.is_empty());
        let start = out.len();
        self.now.put(out);
        put_slice(out, &self.cores);
        self.llc.put(out);
        put_sorted_map(out, &self.waiters);
        self.wb_backlog.put(out);
        if !self.mem.save_state(out) {
            out.truncate(start);
            return false;
        }
        true
    }

    /// Restores state saved by [`System::save_state`] into a freshly
    /// built system of the same configuration and workloads.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch or truncation. The system
    /// may be partially mutated on error; discard it and rebuild.
    pub fn load_state(&mut self, input: &mut &[u8]) -> Result<(), String> {
        self.load(input)
    }

    /// Snapshot of all measurable state (used for warmup deltas).
    pub(crate) fn snapshot(&self) -> Snapshot {
        Snapshot {
            now: self.now,
            retired: self.cores.iter().map(|c| c.retired()).collect(),
            ctrl: self.mem.stats(),
            mech: self.mem.mech_report(),
        }
    }

    /// Builds the post-warmup result given the warmup snapshot.
    pub(crate) fn result_since(&mut self, warm: &Snapshot, hit_cycle_cap: bool) -> RunResult {
        let cpu_cycles = self.now - warm.now;
        let bus_cycles = cpu_cycles / self.cfg.cpu_per_bus;
        let mut cores = Vec::with_capacity(self.cores.len());
        for (i, c) in self.cores.iter().enumerate() {
            let mut s = *c.stats();
            s.retired -= warm.retired[i];
            s.cycles = cpu_cycles;
            cores.push(s);
        }
        let mut ctrl = self.mem.stats();
        ctrl.subtract(&warm.ctrl);
        let mut mech = self.mem.mech_report();
        mech.subtract(&warm.mech);
        let model = drampower::EnergyModel::ddr3_4gb_x8(self.cfg.dram.clone());
        let energy = if self.cfg.measure_energy {
            model.price(self.mem.device().meter(), bus_cycles.max(1))
        } else {
            model.energy(&[], bus_cycles.max(1))
        };
        RunResult {
            cores,
            cpu_cycles,
            ctrl,
            llc: *self.llc.stats(),
            mech,
            rltl: self.mem.rltl_report(),
            reuse: self.mem.reuse_report(),
            energy,
            hit_cycle_cap,
        }
    }
}

/// The [`System::save_state`] encoding; encode only at a run boundary
/// and when the mechanism supports checkpointing.
impl State for System {
    fn put(&self, out: &mut Vec<u8>) {
        let supported = self.save_state(out);
        debug_assert!(supported, "checkpoint of a mechanism without state capture");
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        self.now.load(input)?;
        load_slice(input, &mut self.cores, |n, have| {
            format!("checkpoint has {n} cores, system has {have}")
        })?;
        self.llc.load(input)?;
        load_map(input, &mut self.waiters)?;
        let cores = self.cores.len();
        if let Some(&(core, _)) = self.waiters.values().flatten().find(|w| w.0 >= cores) {
            return Err(format!("waiter core {core} out of range"));
        }
        self.wb_backlog.load(input)?;
        if let Some(&(_, core)) = self.wb_backlog.iter().find(|b| b.1 >= cores) {
            return Err(format!("backlog core {core} out of range"));
        }
        self.mem.load(input)?;
        self.spare_waiters.clear();
        for s in &mut self.sleep {
            *s = SleepState::AWAKE;
        }
        self.awake.fill(self.cores.len());
        self.next_wake = u64::MAX;
        self.completions.clear();
        self.resync_clock();
        Ok(())
    }
}

/// Warmup-boundary snapshot.
#[derive(Default)]
pub(crate) struct Snapshot {
    now: u64,
    retired: Vec<u64>,
    ctrl: memctrl::CtrlStats,
    mech: chargecache::MechanismReport,
}

// Mid-measurement checkpoints carry the warmup boundary so
// `result_since` can subtract it after resume.
impl_state!(Snapshot {
    now,
    retired,
    ctrl,
    mech
});

/// Resolves one core memory access against the LLC and memory system.
#[allow(clippy::too_many_arguments)]
fn service_access(
    access: MemAccess,
    llc: &mut Llc,
    mem: &mut MemorySystem,
    waiters: &mut FastHashMap<u64, Vec<(usize, LoadId)>>,
    spare_waiters: &mut Vec<Vec<(usize, LoadId)>>,
    wb_backlog: &mut VecDeque<(u64, usize)>,
    now: u64,
    bus_now: u64,
    hit_latency: u64,
) -> AccessReply {
    let line = llc.line_of(access.op.addr());
    match access.op {
        MemOp::Load(_) => {
            if let cpu::LlcOutcome::Hit = llc.read(line) {
                return AccessReply::HitAt(now + hit_latency);
            }
            // Merge with an outstanding fill of the same line.
            if let Some(ws) = waiters.get_mut(&line) {
                ws.push((access.core, access.load_id));
                return AccessReply::Pending;
            }
            let req = MemRequest {
                addr: line,
                kind: AccessKind::Read,
                core: access.core,
            };
            if mem.try_enqueue(req, bus_now).is_none() {
                return AccessReply::Retry;
            }
            let mut ws = spare_waiters.pop().unwrap_or_default();
            ws.push((access.core, access.load_id));
            waiters.insert(line, ws);
            AccessReply::Pending
        }
        MemOp::Store(_) => {
            if let cpu::LlcOutcome::Miss {
                writeback: Some(wb),
            } = llc.write(line)
            {
                wb_backlog.push_back((wb, access.core));
            }
            AccessReply::Done
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chargecache::MechanismSpec;
    use cpu::{TraceEntry, VecTrace};

    fn load_trace(n: usize, stride: u64, nonmem: u32) -> Box<dyn TraceSource> {
        Box::new(VecTrace::once(
            (0..n)
                .map(|i| TraceEntry {
                    nonmem,
                    op: Some(MemOp::Load(i as u64 * stride)),
                })
                .collect(),
        ))
    }

    #[test]
    fn single_core_system_completes_a_trace() {
        let cfg = SystemConfig::paper_single_core(MechanismSpec::baseline());
        let mut sys = System::new(cfg, vec![load_trace(100, 64, 2)]);
        assert!(sys.run_until_retired(300, 1_000_000));
        assert_eq!(sys.core_stats(0).loads, 100);
        // 100 loads × 64 B stride = few lines … all within rows; some DRAM
        // traffic must have happened (cold LLC).
        assert!(sys.memory().stats().reads > 0);
    }

    #[test]
    fn llc_filters_repeated_accesses() {
        // Second pass over the same small footprint: no new DRAM reads.
        let entries: Vec<TraceEntry> = (0..200)
            .map(|i| TraceEntry {
                nonmem: 1,
                op: Some(MemOp::Load((i % 100) * 64)),
            })
            .collect();
        let cfg = SystemConfig::paper_single_core(MechanismSpec::baseline());
        let mut sys = System::new(cfg, vec![Box::new(VecTrace::once(entries))]);
        assert!(sys.run_until_retired(400, 1_000_000));
        // 100 distinct lines → exactly 100 DRAM reads despite 200 loads.
        assert_eq!(sys.memory().stats().reads, 100);
        assert_eq!(sys.llc().stats().read_hits, 100);
    }

    #[test]
    fn stores_generate_writebacks_only_on_eviction() {
        // Store footprint well within the LLC: no DRAM writes at all.
        let entries: Vec<TraceEntry> = (0..100)
            .map(|i| TraceEntry {
                nonmem: 1,
                op: Some(MemOp::Store(i * 64)),
            })
            .collect();
        let cfg = SystemConfig::paper_single_core(MechanismSpec::baseline());
        let mut sys = System::new(cfg, vec![Box::new(VecTrace::once(entries))]);
        assert!(sys.run_until_retired(200, 1_000_000));
        assert_eq!(sys.memory().stats().writes, 0);
    }

    #[test]
    fn merged_loads_share_one_fill() {
        // Two cores read the same addresses: fills are shared.
        let cfg = {
            let mut c = SystemConfig::paper_eight_core(MechanismSpec::baseline());
            c.cores = 2;
            c
        };
        let t0 = load_trace(50, 64, 0);
        let t1 = load_trace(50, 64, 0);
        let mut sys = System::new(cfg, vec![t0, t1]);
        assert!(sys.run_until_retired(50, 1_000_000));
        // At most ~50 distinct lines + writeback noise; far fewer than 100.
        assert!(
            sys.memory().stats().reads <= 60,
            "reads = {}",
            sys.memory().stats().reads
        );
    }

    #[test]
    fn more_than_64_cores_run_identically_under_both_engines() {
        // Two words of the awake set; the cores finish at different times.
        let run = |engine: Engine| {
            let mut cfg = SystemConfig::paper_eight_core(MechanismSpec::chargecache());
            cfg.cores = 70;
            cfg.engine = engine;
            let traces = (0..70)
                .map(|i| load_trace(40 + i, 64 * (1 + i as u64 % 5), (i % 4) as u32))
                .collect();
            let mut sys = System::new(cfg, traces);
            assert!(sys.run_until_retired(200, 10_000_000));
            let stats: Vec<_> = (0..70).map(|i| *sys.core_stats(i)).collect();
            (sys.now(), stats)
        };
        let dense = run(Engine::PerCycle);
        assert_eq!(run(Engine::EventSkip), dense);
        // Every core dispatched its whole trace.
        assert!(dense
            .1
            .iter()
            .enumerate()
            .all(|(i, s)| s.loads == 40 + i as u64));
    }

    #[test]
    fn chargecache_never_slows_a_system_down() {
        let mk = |spec: MechanismSpec| {
            let mut cfg = SystemConfig::paper_single_core(spec);
            cfg.dram.org.rows = 1024; // keep the address space tight
            cfg
        };
        // Bank-conflict-heavy pattern: two regions 64 KB apart. One
        // VecTrace allocation serves both runs (clone the replay cursor,
        // not the entry vector).
        let trace = VecTrace::once(
            (0..2000)
                .map(|i| TraceEntry {
                    nonmem: 2,
                    op: Some(MemOp::Load((i % 2) * 65536 + (i / 2 % 64) * 64 * 7)),
                })
                .collect(),
        );
        let base = {
            let mut s = System::new(mk(MechanismSpec::baseline()), vec![Box::new(trace.clone())]);
            assert!(s.run_until_retired(3000, 10_000_000));
            s.now()
        };
        let cc = {
            let mut s = System::new(mk(MechanismSpec::chargecache()), vec![Box::new(trace)]);
            assert!(s.run_until_retired(3000, 10_000_000));
            s.now()
        };
        assert!(cc <= base, "ChargeCache {cc} vs baseline {base} cycles");
    }
}
