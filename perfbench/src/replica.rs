//! The traced replica of `sim::System`'s event-skip engine.
//!
//! `System` keeps its loop private, so the traced run rebuilds it here
//! from the layers' public calls — `Core::step`/`next_event_cycle`/
//! `absorb_idle_cycles`/`complete_load`, `Llc::read`/`write`/`fill` and
//! `MemorySystem::new`/`try_enqueue`/`tick_into`/`has_work`/`next_event`/
//! `sync_mech` — and times every call from outside. Each channel's
//! mechanism comes from `chargecache::registry::build_spec` wrapped in
//! [`TimedMech`], and each trace is wrapped in [`TimedTrace`]. The loop
//! must stay a line-for-line copy of `System::run_until_retired` with the
//! event-skip engine: a cell's layer numbers count only when the
//! replica's `RunResult` fingerprint equals the pinned one.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use chargecache::{
    registry, LatencyMechanism, MechanismContext, MechanismReport, RowKey, StatSink,
};
use cpu::{
    AccessReply, Core, CoreStats, Llc, LlcStats, LoadId, MemAccess, MemOp, TraceEntry, TraceSource,
};
use dram::{ActTimings, BusCycle};
use fasthash::FastHashMap;
use memctrl::{AccessKind, Completion, CtrlStats, MemRequest, MemorySystem, RequestId};
use sim::{Engine, ExpParams, RunResult, SystemConfig};
use traces::WorkloadSpec;

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Per-layer work counts and host time (ns) of one or more traced cells.
/// Times are self times: a parent's figure excludes its children's.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    /// Cells traced.
    pub cells: u64,
    /// Host time inside cell spans (system build → result).
    pub run_ns: u64,
    /// Trace entries generated.
    pub trace_entries: u64,
    /// Trace generation and generator construction.
    pub trace_ns: u64,
    /// `Core::step` calls.
    pub core_steps: u64,
    /// Core self time (step minus its access callback and trace reads).
    pub core_ns: u64,
    /// Memory accesses the cores dispatched.
    pub accesses: u64,
    /// Accesses answered `Retry` (controller queue full).
    pub retries: u64,
    /// Core stall cycles and total core cycles (whole run).
    pub stall_cycles: u64,
    /// Σ core cycles (whole run).
    pub core_cycles: u64,
    /// LLC lookups and hits (whole run).
    pub llc_accesses: u64,
    /// LLC lookup hits.
    pub llc_hits: u64,
    /// LLC fills.
    pub llc_fills: u64,
    /// LLC time, including the array allocation.
    pub llc_ns: u64,
    /// Engine self time: loop bookkeeping, sleep/wake, fill and waiter
    /// maps, statistics collection.
    pub engine_ns: u64,
    /// Event-skip jumps and the CPU cycles they skipped.
    pub skip_jumps: u64,
    /// CPU cycles jumped over.
    pub skipped_cycles: u64,
    /// Simulated CPU cycles (warmup included).
    pub sim_cycles: u64,
    /// Controller ticks (`tick_into` calls, plus `sync_mech`).
    pub ticks: u64,
    /// Controller tick self time (mechanism hooks excluded), plus the
    /// controller's construction.
    pub tick_ns: u64,
    /// `try_enqueue` calls and rejections.
    pub enqueues: u64,
    /// `try_enqueue` calls answered `None`.
    pub rejects: u64,
    /// `try_enqueue` self time.
    pub enqueue_ns: u64,
    /// `next_event` calls and time.
    pub next_event_calls: u64,
    /// `next_event` time.
    pub next_event_ns: u64,
    /// `has_work` calls and time.
    pub has_work_calls: u64,
    /// `has_work` time.
    pub has_work_ns: u64,
    /// Σ queued requests sampled at every tick.
    pub queue_depth_sum: u64,
    /// Controller statistics (whole run).
    pub sched_passes: u64,
    /// Scheduler bank visits.
    pub bank_visits: u64,
    /// Column accesses that hit an open row.
    pub row_hits: u64,
    /// Column accesses (row hits + activations).
    pub row_accesses: u64,
    /// Σ read latency (bus cycles) and completed reads.
    pub read_latency_sum: u64,
    /// Completed reads.
    pub read_latency_count: u64,
    /// DRAM device command counts (whole run).
    pub dram_acts: u64,
    /// Column reads.
    pub dram_reads: u64,
    /// Column writes.
    pub dram_writes: u64,
    /// Refreshes.
    pub dram_refs: u64,
    /// Energy-log records written (warmup included).
    pub dram_log_records: u64,
    /// Mechanism hook calls by kind.
    pub mech_activate: u64,
    /// `on_precharge` calls.
    pub mech_precharge: u64,
    /// `tick` calls.
    pub mech_tick: u64,
    /// `on_refresh_row`/`on_read`/`on_write` calls.
    pub mech_other: u64,
    /// Mechanism hook time.
    pub mech_ns: u64,
    /// HCRAC lookups and hits, activations and reduced activations.
    pub hcrac_lookups: u64,
    /// HCRAC hits.
    pub hcrac_hits: u64,
    /// Activations the mechanism saw.
    pub activates: u64,
    /// Activations served with reduced timings.
    pub reduced_acts: u64,
    /// Energy-model time and the records it consumed.
    pub energy_ns: u64,
    /// Records the energy model consumed (measured interval).
    pub energy_records: u64,
}

impl Layers {
    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &Layers) {
        macro_rules! sum {
            ($($f:ident),*) => { $( self.$f += o.$f; )* };
        }
        sum!(
            cells,
            run_ns,
            trace_entries,
            trace_ns,
            core_steps,
            core_ns,
            accesses,
            retries,
            stall_cycles,
            core_cycles,
            llc_accesses,
            llc_hits,
            llc_fills,
            llc_ns,
            engine_ns,
            skip_jumps,
            skipped_cycles,
            sim_cycles,
            ticks,
            tick_ns,
            enqueues,
            rejects,
            enqueue_ns,
            next_event_calls,
            next_event_ns,
            has_work_calls,
            has_work_ns,
            queue_depth_sum,
            sched_passes,
            bank_visits,
            row_hits,
            row_accesses,
            read_latency_sum,
            read_latency_count,
            dram_acts,
            dram_reads,
            dram_writes,
            dram_refs,
            dram_log_records,
            mech_activate,
            mech_precharge,
            mech_tick,
            mech_other,
            mech_ns,
            hcrac_lookups,
            hcrac_hits,
            activates,
            reduced_acts,
            energy_ns,
            energy_records
        );
    }

    /// Each layer's self time (ms), by layer name, in report order.
    pub fn self_ms(&self) -> [(&'static str, f64); 7] {
        let ms = |ns: u64| ns as f64 / 1e6;
        [
            ("traces", ms(self.trace_ns)),
            ("cpu.core", ms(self.core_ns)),
            ("cpu.llc", ms(self.llc_ns)),
            ("sim.engine", ms(self.engine_ns)),
            (
                "memctrl",
                ms(self.tick_ns + self.enqueue_ns + self.next_event_ns + self.has_work_ns),
            ),
            ("chargecache", ms(self.mech_ns)),
            ("drampower", ms(self.energy_ns)),
        ]
    }

    /// Σ self times of every layer (ns); equals `run_ns` by construction
    /// because the engine's self time is the cell span's remainder.
    pub fn attributed_ns(&self) -> u64 {
        self.trace_ns
            + self.core_ns
            + self.llc_ns
            + self.engine_ns
            + self.tick_ns
            + self.enqueue_ns
            + self.next_event_ns
            + self.has_work_ns
            + self.mech_ns
            + self.energy_ns
    }
}

/// Counters shared between a wrapped trace and its cell.
#[derive(Debug, Default)]
pub(crate) struct TraceTimer {
    entries: AtomicU64,
    ns: AtomicU64,
}

/// A [`TraceSource`] that counts and times `next_entry`.
pub(crate) struct TimedTrace {
    inner: Box<dyn TraceSource>,
    timer: Arc<TraceTimer>,
}

impl TraceSource for TimedTrace {
    fn next_entry(&mut self) -> Option<TraceEntry> {
        let t = Instant::now();
        let e = self.inner.next_entry();
        self.timer.ns.fetch_add(ns(t), Relaxed);
        self.timer.entries.fetch_add(1, Relaxed);
        e
    }
}

/// Counters shared between a wrapped mechanism and its cell.
#[derive(Debug, Default)]
pub(crate) struct MechTimer {
    activate: AtomicU64,
    precharge: AtomicU64,
    tick: AtomicU64,
    other: AtomicU64,
    ns: AtomicU64,
}

/// A [`LatencyMechanism`] decorator that counts and times every hook.
pub(crate) struct TimedMech {
    inner: Box<dyn LatencyMechanism>,
    timer: Arc<MechTimer>,
}

impl TimedMech {
    /// Runs one hook on the inner mechanism, timing it and counting it
    /// under `kind`.
    fn hook<R>(
        &mut self,
        kind: fn(&MechTimer) -> &AtomicU64,
        f: impl FnOnce(&mut dyn LatencyMechanism) -> R,
    ) -> R {
        let t = Instant::now();
        let r = f(self.inner.as_mut());
        self.timer.ns.fetch_add(ns(t), Relaxed);
        kind(&self.timer).fetch_add(1, Relaxed);
        r
    }
}

impl LatencyMechanism for TimedMech {
    fn on_activate(
        &mut self,
        now: BusCycle,
        core: usize,
        key: RowKey,
        age: BusCycle,
    ) -> ActTimings {
        self.hook(|t| &t.activate, |m| m.on_activate(now, core, key, age))
    }

    fn on_precharge(&mut self, now: BusCycle, core: usize, key: RowKey) {
        self.hook(|t| &t.precharge, |m| m.on_precharge(now, core, key));
    }

    fn on_refresh_row(&mut self, now: BusCycle, key: RowKey) {
        self.hook(|t| &t.other, |m| m.on_refresh_row(now, key));
    }

    fn on_read(&mut self, now: BusCycle, core: usize, key: RowKey) {
        self.hook(|t| &t.other, |m| m.on_read(now, core, key));
    }

    fn on_write(&mut self, now: BusCycle, core: usize, key: RowKey) {
        self.hook(|t| &t.other, |m| m.on_write(now, core, key));
    }

    fn tick(&mut self, now: BusCycle) {
        self.hook(|t| &t.tick, |m| m.tick(now));
    }

    fn report_stats(&self, out: &mut dyn StatSink) {
        self.inner.report_stats(out);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        self.inner.save_state(out)
    }

    fn load_state(&mut self, input: &mut &[u8]) -> Result<(), String> {
        self.inner.load_state(input)
    }
}

/// The warmup-boundary snapshot `System::result_since` subtracts.
pub(crate) struct Warm {
    /// CPU cycle of the boundary.
    pub now: u64,
    /// Instructions retired per core.
    pub retired: Vec<u64>,
    /// Controller statistics.
    pub ctrl: CtrlStats,
    /// Mechanism counters.
    pub mech: MechanismReport,
}

impl Warm {
    /// Takes the snapshot from any system's public accessors.
    pub fn take(now: u64, cores: &[CoreStats], mem: &MemorySystem) -> Warm {
        Warm {
            now,
            retired: cores.iter().map(|c| c.retired).collect(),
            ctrl: mem.stats(),
            mech: mem.mech_report(),
        }
    }

    /// Serializes the snapshot exactly as the checkpoint payload does.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        use fasthash::codec::{put_u64, put_usize};
        put_u64(out, self.now);
        put_usize(out, self.retired.len());
        for &r in &self.retired {
            put_u64(out, r);
        }
        self.ctrl.save_state(out);
        self.mech.save_state(out);
    }
}

fn ctrl_sub(a: &mut CtrlStats, b: &CtrlStats) {
    a.reads -= b.reads;
    a.writes -= b.writes;
    a.forwarded_reads -= b.forwarded_reads;
    a.row_hits -= b.row_hits;
    a.row_misses -= b.row_misses;
    a.row_conflicts -= b.row_conflicts;
    a.refreshes -= b.refreshes;
    a.read_latency_sum -= b.read_latency_sum;
    a.read_latency_count -= b.read_latency_count;
    for (x, y) in a.read_latency_hist.iter_mut().zip(&b.read_latency_hist) {
        *x -= y;
    }
    a.sched_passes -= b.sched_passes;
    a.sched_bank_visits -= b.sched_bank_visits;
    a.index_release_misses -= b.index_release_misses;
}

/// `System::result_since`, rebuilt from public accessors. Returns the
/// result plus the energy model's host time (ns) and record count.
pub(crate) fn finish(
    cfg: &SystemConfig,
    now: u64,
    cores: &[CoreStats],
    llc: &LlcStats,
    mem: &mut MemorySystem,
    warm: &Warm,
    hit_cycle_cap: bool,
) -> (RunResult, u64, u64) {
    let cpu_cycles = now - warm.now;
    let bus_cycles = cpu_cycles / cfg.cpu_per_bus;
    let cores = cores
        .iter()
        .zip(&warm.retired)
        .map(|(c, &r)| {
            let mut s = *c;
            s.retired -= r;
            s.cycles = cpu_cycles;
            s
        })
        .collect();
    let mut ctrl = mem.stats();
    ctrl_sub(&mut ctrl, &warm.ctrl);
    let mut mech = mem.mech_report();
    mech.subtract(&warm.mech);
    let log = mem.device_mut().take_log();
    let t = Instant::now();
    let energy =
        drampower::EnergyModel::ddr3_4gb_x8(cfg.dram.clone()).energy(&log, bus_cycles.max(1));
    let energy_ns = ns(t);
    let r = RunResult {
        cores,
        cpu_cycles,
        ctrl,
        llc: *llc,
        mech,
        rltl: mem.rltl_report(),
        reuse: mem.reuse_report(),
        energy,
        hit_cycle_cap,
    };
    (r, energy_ns, log.len() as u64)
}

/// The trace seed of `core`, as `sim::exp` derives it.
pub(crate) fn core_seed(p: &ExpParams, core: usize) -> u64 {
    p.seed ^ (core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[derive(Debug, Clone, Copy)]
struct Sleep {
    asleep: bool,
    since: u64,
    wake_at: u64,
}

const AWAKE: Sleep = Sleep {
    asleep: false,
    since: 0,
    wake_at: u64::MAX,
};

/// One traced cell: the replica system and its timers.
struct Replica {
    cpb: u64,
    cores: Vec<Core>,
    llc: Llc,
    mem: MemorySystem,
    fills: FastHashMap<RequestId, u64>,
    waiters: FastHashMap<u64, Vec<(usize, LoadId)>>,
    wb_backlog: VecDeque<(u64, usize)>,
    sleep: Vec<Sleep>,
    completions: Vec<Completion>,
    now: u64,
    bus_now: u64,
    bus_phase: u64,
    /// Host time of the children whose self time is kept elsewhere.
    step_ns: u64,
    callback_ns: u64,
    mech: Arc<MechTimer>,
    trace: Arc<TraceTimer>,
    l: Layers,
}

/// Resolves one core access exactly as `sim::system::service_access`.
#[allow(clippy::too_many_arguments)]
fn service_access(
    access: MemAccess,
    llc: &mut Llc,
    mem: &mut MemorySystem,
    fills: &mut FastHashMap<RequestId, u64>,
    waiters: &mut FastHashMap<u64, Vec<(usize, LoadId)>>,
    wb_backlog: &mut VecDeque<(u64, usize)>,
    now: u64,
    bus_now: u64,
    hit_latency: u64,
    l: &mut Layers,
    mech: &MechTimer,
) -> AccessReply {
    l.accesses += 1;
    let line = llc.line_of(access.op.addr());
    let reply = match access.op {
        MemOp::Load(_) => {
            let t = Instant::now();
            let hit = matches!(llc.read(line), cpu::LlcOutcome::Hit);
            l.llc_ns += ns(t);
            if hit {
                return AccessReply::HitAt(now + hit_latency);
            }
            if let Some(ws) = waiters.get_mut(&line) {
                ws.push((access.core, access.load_id));
                return AccessReply::Pending;
            }
            let req = MemRequest {
                addr: line,
                kind: AccessKind::Read,
                core: access.core,
            };
            match timed_enqueue(mem, req, bus_now, l, mech) {
                Some(id) => {
                    fills.insert(id, line);
                    waiters.insert(line, vec![(access.core, access.load_id)]);
                    AccessReply::Pending
                }
                None => AccessReply::Retry,
            }
        }
        MemOp::Store(_) => {
            let t = Instant::now();
            let outcome = llc.write(line);
            l.llc_ns += ns(t);
            if let cpu::LlcOutcome::Miss {
                writeback: Some(wb),
            } = outcome
            {
                wb_backlog.push_back((wb, access.core));
            }
            AccessReply::Done
        }
    };
    if reply == AccessReply::Retry {
        l.retries += 1;
    }
    reply
}

fn timed_enqueue(
    mem: &mut MemorySystem,
    req: MemRequest,
    bus_now: u64,
    l: &mut Layers,
    mech: &MechTimer,
) -> Option<RequestId> {
    let m0 = mech.ns.load(Relaxed);
    let t = Instant::now();
    let id = mem.try_enqueue(req, bus_now);
    l.enqueue_ns += ns(t).saturating_sub(mech.ns.load(Relaxed) - m0);
    l.enqueues += 1;
    if id.is_none() {
        l.rejects += 1;
    }
    id
}

impl Replica {
    fn build(cfg: &SystemConfig, apps: &[WorkloadSpec], p: &ExpParams) -> Result<Replica, String> {
        assert_eq!(
            cfg.engine,
            Engine::EventSkip,
            "the replica runs the event-skip engine"
        );
        cfg.validate()?;
        if apps.len() != cfg.cores {
            return Err(format!("{} workloads for {} cores", apps.len(), cfg.cores));
        }
        let mut l = Layers::default();
        let trace = Arc::new(TraceTimer::default());
        let t = Instant::now();
        let cores = apps
            .iter()
            .enumerate()
            .map(|(core, spec)| {
                let inner = spec.build(core_seed(p, core), cfg.region_base(core));
                let timed = TimedTrace {
                    inner,
                    timer: Arc::clone(&trace),
                };
                Core::new(core, cfg.core, Box::new(timed))
            })
            .collect();
        l.trace_ns += ns(t);
        let t = Instant::now();
        let llc = Llc::new(cfg.llc);
        l.llc_ns += ns(t);
        let mech = Arc::new(MechTimer::default());
        let t = Instant::now();
        let ctx = MechanismContext {
            timing: &cfg.dram.timing,
            cores: cfg.cores,
        };
        let mechs = (0..cfg.dram.org.channels)
            .map(|_| {
                registry::build_spec(&cfg.mechanism, &ctx).map(|inner| {
                    Box::new(TimedMech {
                        inner,
                        timer: Arc::clone(&mech),
                    }) as Box<dyn LatencyMechanism>
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut mem = MemorySystem::new(cfg.dram.clone(), cfg.ctrl.clone(), mechs);
        if cfg.measure_energy {
            mem.device_mut().enable_log();
        }
        l.tick_ns += ns(t);
        Ok(Replica {
            cpb: cfg.cpu_per_bus,
            sleep: vec![AWAKE; cfg.cores],
            cores,
            llc,
            mem,
            fills: FastHashMap::default(),
            waiters: FastHashMap::default(),
            wb_backlog: VecDeque::new(),
            completions: Vec::new(),
            now: 0,
            bus_now: 0,
            bus_phase: 0,
            step_ns: 0,
            callback_ns: 0,
            mech,
            trace,
            l,
        })
    }

    fn advance_clock(&mut self) {
        self.now += 1;
        self.bus_phase += 1;
        if self.bus_phase == self.cpb {
            self.bus_phase = 0;
            self.bus_now += 1;
        }
    }

    fn resync_clock(&mut self) {
        self.bus_now = self.now / self.cpb;
        self.bus_phase = self.now % self.cpb;
    }

    fn tick_memory(&mut self, bus_now: u64) {
        let now = self.now;
        let mut completions = std::mem::take(&mut self.completions);
        let m0 = self.mech.ns.load(Relaxed);
        let t = Instant::now();
        self.mem.tick_into(bus_now, &mut completions);
        self.l.tick_ns += ns(t).saturating_sub(self.mech.ns.load(Relaxed) - m0);
        self.l.ticks += 1;
        self.l.queue_depth_sum += self.mem.queued_requests() as u64;
        for c in completions.drain(..) {
            if let Some(line) = self.fills.remove(&c.id) {
                let t = Instant::now();
                let wb = self.llc.fill(line);
                self.l.llc_ns += ns(t);
                if let Some(wb) = wb {
                    self.wb_backlog.push_back((wb, c.core));
                }
                if let Some(ws) = self.waiters.remove(&line) {
                    for (core, load) in ws {
                        self.cores[core].complete_load(load);
                        let st = &mut self.sleep[core];
                        if st.asleep {
                            self.cores[core].absorb_idle_cycles(now - st.since);
                            *st = AWAKE;
                        }
                    }
                }
            }
        }
        self.completions = completions;
        while let Some(&(line, core)) = self.wb_backlog.front() {
            let req = MemRequest {
                addr: line,
                kind: AccessKind::Write,
                core,
            };
            if timed_enqueue(&mut self.mem, req, bus_now, &mut self.l, &self.mech).is_some() {
                self.wb_backlog.pop_front();
            } else {
                break;
            }
        }
    }

    fn step_event(&mut self) {
        let now = self.now;
        let bus_now = self.bus_now;
        if self.bus_phase == 0 {
            let t = Instant::now();
            let work = self.mem.has_work(bus_now);
            self.l.has_work_ns += ns(t);
            self.l.has_work_calls += 1;
            if work || !self.wb_backlog.is_empty() {
                self.tick_memory(bus_now);
            }
        }
        let Self {
            cores,
            llc,
            mem,
            fills,
            waiters,
            wb_backlog,
            sleep,
            step_ns,
            callback_ns,
            mech,
            l,
            ..
        } = self;
        let hit_latency = llc.config().hit_latency;
        for (core, st) in cores.iter_mut().zip(sleep.iter_mut()) {
            if st.asleep {
                if st.wake_at > now {
                    continue;
                }
                core.absorb_idle_cycles(now - st.since);
                *st = AWAKE;
            }
            let t = Instant::now();
            let outcome = core.step(now, &mut |access: MemAccess| {
                let t = Instant::now();
                let r = service_access(
                    access,
                    llc,
                    mem,
                    fills,
                    waiters,
                    wb_backlog,
                    now,
                    bus_now,
                    hit_latency,
                    l,
                    mech,
                );
                *callback_ns += ns(t);
                r
            });
            *step_ns += ns(t);
            l.core_steps += 1;
            if outcome.quiescent() {
                st.asleep = true;
                st.since = now + 1;
                st.wake_at = core.next_event_cycle().unwrap_or(u64::MAX);
            }
        }
        self.advance_clock();
    }

    fn next_event_cycle(&mut self, deadline: u64) -> u64 {
        let now = self.now;
        let cpb = self.cpb;
        let mut next = deadline;
        for st in &self.sleep {
            next = next.min(st.wake_at.max(now));
        }
        if !self.wb_backlog.is_empty() {
            next = next.min(now.next_multiple_of(cpb));
        }
        let bus_last = (now - 1) / cpb;
        let t = Instant::now();
        let ev = self.mem.next_event(bus_last);
        self.l.next_event_ns += ns(t);
        self.l.next_event_calls += 1;
        if let Some(bus) = ev {
            next = next.min((bus * cpb).max(now));
        }
        next
    }

    fn run_until_retired(&mut self, target: u64, max_cycles: u64) -> bool {
        let deadline = self.now + max_cycles;
        let reached = loop {
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
            self.step_event();
            if self.sleep.iter().all(|s| s.asleep) {
                let next = self.next_event_cycle(deadline).min(deadline);
                if next > self.now {
                    self.l.skip_jumps += 1;
                    self.l.skipped_cycles += next - self.now;
                    self.now = next;
                    self.resync_clock();
                }
            }
        };
        let now = self.now;
        for (core, st) in self.cores.iter_mut().zip(self.sleep.iter_mut()) {
            if st.asleep {
                core.absorb_idle_cycles(now - st.since);
                *st = AWAKE;
            }
        }
        if self.now > 0 {
            let m0 = self.mech.ns.load(Relaxed);
            let t = Instant::now();
            self.mem.sync_mech((self.now - 1) / self.cpb);
            self.l.tick_ns += ns(t).saturating_sub(self.mech.ns.load(Relaxed) - m0);
            self.l.ticks += 1;
        }
        reached
    }

    fn core_stats(&self) -> Vec<CoreStats> {
        self.cores.iter().map(|c| *c.stats()).collect()
    }
}

/// Runs one cell through the replica, as `sim::run_configured` runs it,
/// and returns its result with the cell's layer split.
///
/// # Errors
///
/// Returns a message when the configuration is invalid or the mechanism
/// spec does not build.
pub fn run_cell(
    cfg: &SystemConfig,
    apps: &[WorkloadSpec],
    p: &ExpParams,
) -> Result<(RunResult, Layers), String> {
    let t_cell = Instant::now();
    let mut r = Replica::build(cfg, apps, p)?;
    let max_cycles = p.max_cycle_factor * (p.insts_per_core + p.warmup_insts);
    r.run_until_retired(p.warmup_insts, max_cycles);
    r.l.dram_log_records += r.mem.device_mut().take_log().len() as u64;
    let warm = Warm::take(r.now, &r.core_stats(), &r.mem);
    let reached = r.run_until_retired(p.warmup_insts + p.insts_per_core, max_cycles);
    let cores = r.core_stats();
    let llc = *r.llc.stats();
    let (result, energy_ns, records) =
        finish(cfg, r.now, &cores, &llc, &mut r.mem, &warm, !reached);

    let mut l = r.l;
    l.cells = 1;
    l.energy_ns = energy_ns;
    l.energy_records = records;
    l.dram_log_records += records;
    l.trace_entries = r.trace.entries.load(Relaxed);
    let trace_ns = r.trace.ns.load(Relaxed);
    l.trace_ns += trace_ns;
    l.core_ns = r.step_ns.saturating_sub(r.callback_ns + trace_ns);
    l.mech_ns = r.mech.ns.load(Relaxed);
    l.mech_activate = r.mech.activate.load(Relaxed);
    l.mech_precharge = r.mech.precharge.load(Relaxed);
    l.mech_tick = r.mech.tick.load(Relaxed);
    l.mech_other = r.mech.other.load(Relaxed);
    l.sim_cycles = r.now;
    for c in &cores {
        l.stall_cycles += c.stall_cycles;
        l.core_cycles += c.cycles;
    }
    l.llc_accesses = llc.read_accesses + llc.write_accesses;
    l.llc_hits = llc.read_hits + llc.write_hits;
    l.llc_fills = llc.fills;
    let ctrl = r.mem.stats();
    l.sched_passes = ctrl.sched_passes;
    l.bank_visits = ctrl.sched_bank_visits;
    l.row_hits = ctrl.row_hits;
    l.row_accesses = ctrl.row_hits + ctrl.activations();
    l.read_latency_sum = ctrl.read_latency_sum;
    l.read_latency_count = ctrl.read_latency_count;
    let dev = *r.mem.device().stats();
    l.dram_acts = dev.acts;
    l.dram_reads = dev.reads;
    l.dram_writes = dev.writes;
    l.dram_refs = dev.refs;
    let mech = r.mem.mech_report();
    l.hcrac_lookups = mech.get(chargecache::C_HCRAC_LOOKUPS);
    l.hcrac_hits = mech.get(chargecache::C_HCRAC_HITS);
    l.activates = mech.activates();
    l.reduced_acts = mech.reduced_activates();
    l.run_ns = ns(t_cell);
    // The engine's self time is whatever the cell span's children did
    // not cover: loop bookkeeping, sleep/wake, fill/waiter maps and
    // statistics collection (the access callback's glue included).
    l.engine_ns = l.run_ns.saturating_sub(l.attributed_ns());
    Ok((result, l))
}
