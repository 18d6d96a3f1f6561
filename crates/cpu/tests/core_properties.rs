//! Randomized property tests for the core model: instruction accounting
//! and window discipline hold for arbitrary traces and arbitrary memory
//! behaviour. Cases come from a seeded in-file PRNG so every run checks
//! the same set.

use cpu::{AccessReply, Core, CoreConfig, LoadId, MemAccess, MemOp, TraceEntry, VecTrace};

/// xorshift64* — deterministic case generator.
struct Cases(u64);

impl Cases {
    fn new(seed: u64) -> Self {
        Self(seed | 1)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[derive(Debug, Clone, Copy)]
struct Behaviour {
    /// Memory replies cycle through: hit(latency), pending(latency), retry.
    hit_latency: u8,
    pending_latency: u8,
    retry_every: u8,
}

fn random_entries(c: &mut Cases, max_len: u64) -> Vec<TraceEntry> {
    let len = 1 + c.below(max_len) as usize;
    (0..len)
        .map(|_| {
            let nonmem = c.below(20) as u32;
            let op = match c.below(3) {
                0 => None,
                1 => Some(MemOp::Load(c.below(1 << 16) * 64)),
                _ => Some(MemOp::Store(c.below(1 << 16) * 64)),
            };
            TraceEntry { nonmem, op }
        })
        .collect()
}

/// Every instruction in the trace is retired exactly once, regardless of
/// memory behaviour, and the core terminates.
#[test]
fn retired_equals_trace_instructions() {
    let mut c = Cases::new(0xC0DE);
    for _ in 0..48 {
        let entries = random_entries(&mut c, 79);
        let b = Behaviour {
            hit_latency: 1 + c.below(39) as u8,
            pending_latency: 1 + c.below(59) as u8,
            retry_every: 2 + c.below(7) as u8,
        };
        let total: u64 = entries.iter().map(|e| e.instructions()).sum();
        let mut core = Core::new(0, CoreConfig::paper(), Box::new(VecTrace::once(entries)));
        let mut pending: Vec<(u64, LoadId)> = Vec::new();
        let mut counter = 0u64;
        let mut now = 0u64;
        // Generous bound: every instruction could stall for max latency.
        let deadline = 200 + total * (u64::from(b.pending_latency) + 64);

        while !core.finished() && now < deadline {
            while let Some(pos) = pending.iter().position(|&(at, _)| at <= now) {
                let (_, id) = pending.remove(pos);
                core.complete_load(id);
            }
            core.step(now, &mut |a| {
                counter += 1;
                match a.op {
                    MemOp::Store(_) => {
                        if counter.is_multiple_of(u64::from(b.retry_every)) {
                            AccessReply::Retry
                        } else {
                            AccessReply::Done
                        }
                    }
                    MemOp::Load(_) => match counter % 3 {
                        0 => AccessReply::HitAt(now + u64::from(b.hit_latency)),
                        1 => {
                            pending.push((now + u64::from(b.pending_latency), a.load_id));
                            AccessReply::Pending
                        }
                        _ => {
                            if counter.is_multiple_of(u64::from(b.retry_every)) {
                                AccessReply::Retry
                            } else {
                                AccessReply::HitAt(now + u64::from(b.hit_latency))
                            }
                        }
                    },
                }
            });
            now += 1;
            assert!(core.outstanding_misses() <= CoreConfig::paper().mshrs);
        }
        assert!(core.finished(), "core did not finish by {deadline}");
        assert_eq!(core.retired(), total);
    }
}

/// IPC never exceeds the issue width.
#[test]
fn ipc_bounded_by_width() {
    let mut c = Cases::new(0xC0DF);
    for _ in 0..48 {
        let entries = random_entries(&mut c, 59);
        let mut core = Core::new(0, CoreConfig::paper(), Box::new(VecTrace::once(entries)));
        let mut now = 0;
        while !core.finished() && now < 100_000 {
            core.step(now, &mut |a| match a.op {
                MemOp::Load(_) => AccessReply::HitAt(now + 1),
                MemOp::Store(_) => AccessReply::Done,
            });
            now += 1;
        }
        assert!(core.stats().ipc() <= 3.0 + 1e-9);
    }
}

/// The core's window discipline as it was before load readiness moved to
/// a ring indexed by load id: every completion and hit promotion scans
/// the window for its load, and hits insert into their queue in sorted
/// position. The differential test below holds [`Core`] to it.
mod reference {
    use std::collections::VecDeque;

    use cpu::{
        AccessReply, CoreConfig, CoreStats, LoadId, MemAccess, MemOp, TraceSource, VecTrace,
    };

    enum Slot {
        Ready(u32),
        Load { id: LoadId, ready: bool },
    }

    pub struct ScanCore {
        cfg: CoreConfig,
        trace: VecTrace,
        window: VecDeque<Slot>,
        occupancy: usize,
        nonmem_credit: u32,
        pending_op: Option<MemOp>,
        hit_queue: VecDeque<(u64, LoadId)>,
        outstanding: usize,
        next_load_id: LoadId,
        trace_done: bool,
        pub stats: CoreStats,
    }

    impl ScanCore {
        pub fn new(cfg: CoreConfig, trace: VecTrace) -> Self {
            Self {
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
                stats: CoreStats::default(),
            }
        }

        pub fn finished(&self) -> bool {
            self.trace_done
                && self.window.is_empty()
                && self.pending_op.is_none()
                && self.nonmem_credit == 0
        }

        pub fn outstanding_misses(&self) -> usize {
            self.outstanding
        }

        pub fn next_event_cycle(&self) -> Option<u64> {
            self.hit_queue.front().map(|&(at, _)| at)
        }

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

        /// One cycle: `(retired, dispatched, blocked_on_retry)`.
        pub fn step(
            &mut self,
            now: u64,
            access: &mut impl FnMut(MemAccess) -> AccessReply,
        ) -> (u32, u32, bool) {
            self.stats.cycles += 1;
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
            let (dispatched, blocked) = self.dispatch(now, access);
            if dispatched == 0 && !self.finished() {
                self.stats.stall_cycles += 1;
            }
            (retired, dispatched, blocked)
        }

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

        fn dispatch(
            &mut self,
            now: u64,
            access: &mut impl FnMut(MemAccess) -> AccessReply,
        ) -> (u32, bool) {
            let mut dispatched = 0;
            while dispatched < self.cfg.issue_width {
                if self.occupancy >= self.cfg.window {
                    break;
                }
                if self.nonmem_credit == 0 && self.pending_op.is_none() {
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
                let Some(op) = self.pending_op else { continue };
                let load_id = match op {
                    MemOp::Load(_) if self.outstanding >= self.cfg.mshrs => break,
                    MemOp::Load(_) => self.next_load_id,
                    MemOp::Store(_) => 0,
                };
                match access(MemAccess {
                    core: 0,
                    op,
                    load_id,
                }) {
                    AccessReply::Retry => return (dispatched, true),
                    AccessReply::Done => {
                        self.push_ready(1);
                        self.stats.stores += 1;
                    }
                    reply => {
                        self.next_load_id += 1;
                        self.window.push_back(Slot::Load {
                            id: load_id,
                            ready: false,
                        });
                        self.occupancy += 1;
                        self.stats.loads += 1;
                        if let AccessReply::HitAt(at) = reply {
                            let at = at.max(now + 1);
                            let pos = self.hit_queue.partition_point(|&(t, _)| t <= at);
                            self.hit_queue.insert(pos, (at, load_id));
                        } else {
                            self.outstanding += 1;
                        }
                    }
                }
                self.pending_op = None;
                dispatched += 1;
            }
            (dispatched, false)
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
}

/// Random hit latencies (hits mature out of dispatch order, some already
/// past) and random miss latencies (completions arrive out of order): the
/// core retires, stalls and dispatches exactly as the window-scanning
/// reference does, cycle by cycle, with the same accesses.
#[test]
fn ring_core_matches_the_window_scanning_reference() {
    let mut c = Cases::new(0xC0E0);
    for case in 0..64 {
        let entries = random_entries(&mut c, 400);
        let cfg = CoreConfig {
            issue_width: 1 + c.below(4) as u32,
            window: [3, 16, 100, 128][c.below(4) as usize],
            mshrs: 1 + c.below(12) as usize,
        };
        let replies_seed = c.next_u64();
        let mut core = Core::new(0, cfg, Box::new(VecTrace::once(entries.clone())));
        let mut scan = reference::ScanCore::new(cfg, VecTrace::once(entries));
        // Each side draws its replies from its own copy of one stream and
        // keeps its own completion list, so any divergence shows.
        let mut sides = [
            (Cases::new(replies_seed), Vec::<(u64, LoadId)>::new()),
            (Cases::new(replies_seed), Vec::<(u64, LoadId)>::new()),
        ];
        let reply = |r: &mut Cases, pending: &mut Vec<(u64, LoadId)>, now: u64, a: MemAccess| {
            match (a.op, r.below(8)) {
                (_, 0) => AccessReply::Retry,
                (MemOp::Store(_), _) => AccessReply::Done,
                (MemOp::Load(_), 1..=4) => {
                    // Up to 5 cycles in the past: clamped to `now + 1`.
                    AccessReply::HitAt((now + r.below(45)).saturating_sub(5))
                }
                (MemOp::Load(_), _) => {
                    pending.push((now + 1 + r.below(90), a.load_id));
                    AccessReply::Pending
                }
            }
        };
        let mut now = 0;
        while !(core.finished() && scan.finished()) {
            assert!(now < 1_000_000, "case {case} did not finish");
            for (i, (_, pending)) in sides.iter_mut().enumerate() {
                while let Some(pos) = pending.iter().position(|&(at, _)| at <= now) {
                    let (_, id) = pending.remove(pos);
                    if i == 0 {
                        core.complete_load(id);
                    } else {
                        scan.complete_load(id);
                    }
                }
            }
            let [(r0, p0), (r1, p1)] = &mut sides;
            let mut seen = [Vec::new(), Vec::new()];
            let out = core.step(now, &mut |a| {
                seen[0].push(a);
                reply(r0, p0, now, a)
            });
            let (retired, dispatched, blocked) = scan.step(now, &mut |a| {
                seen[1].push(a);
                reply(r1, p1, now, a)
            });
            let at = format!("case {case} cycle {now}");
            assert_eq!(seen[0], seen[1], "{at}");
            assert_eq!(
                (out.retired, out.dispatched, out.blocked_on_retry),
                (retired, dispatched, blocked),
                "{at}"
            );
            assert_eq!(*core.stats(), scan.stats, "{at}");
            assert_eq!(core.finished(), scan.finished(), "{at}");
            assert_eq!(core.outstanding_misses(), scan.outstanding_misses(), "{at}");
            assert_eq!(core.next_event_cycle(), scan.next_event_cycle(), "{at}");
            now += 1;
        }
        assert!(core.stats().loads > 0, "case {case} dispatched no load");
    }
}
