//! Per-channel controller: bank-indexed queues, FR-FCFS scheduling,
//! refresh duty and the ChargeCache mechanism seam.
//!
//! # Bank-indexed scheduler
//!
//! Requests live in per-bank [`BankBucket`]s rather than flat queues. A
//! global age sequence (`age_seq`) stamps every accepted request, so
//! "oldest first" selection across banks reproduces the former flat-scan
//! FIFO order bit-identically — that determinism contract is enforced by
//! `tests/scheduler_equivalence.rs` against captures of the pre-rewrite
//! scan order. Three structures replace the former O(queue) work per
//! scheduler pass:
//!
//! * **Per-bank request lists** (`entries`, ordered by age) — each
//!   FR-FCFS class needs only a bank's *oldest* member, so one pass
//!   inspects banks, not queue entries.
//! * **Per-bank open-row hit lists** (`by_row`) — the oldest row hit and
//!   the row-demand count the conflict gate consults are O(1) lookups.
//! * **A row-keyed write index** (`wq_lines`) — read-enqueue forwarding
//!   is a hash probe instead of a write-queue scan.
//!
//! A **bank-ready calendar** (`bank_ready`, one slot per bank) caches
//! each bank's sound next-issue bound between passes: an enqueue to bank
//! B invalidates only B's slot, banks whose slot lies in the future are
//! skipped by the pass entirely, and `next_try` — the cycle-skip
//! engine's command wake source — is the calendar minimum merged with
//! the refresh bound. Cached bounds stay sound because DRAM timing
//! constraints are monotone (commands elsewhere only delay a bank's
//! legality) and every event that could advance a bank's legality — an
//! enqueue to it, a command issued on it, its rank's refresh completing —
//! re-arms its calendar slot.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use chargecache::{LatencyMechanism, RowKey};
use dram::{BankLoc, BusCycle, Command, DramConfig, DramDevice, RankLoc, RowId};
use fasthash::codec::{
    load_slice, put_slice, put_usize, take_bytes, take_usize, CodecResult, State,
};
use fasthash::{impl_state, FastHashMap};

use crate::config::{CtrlConfig, RowPolicy, SchedPolicy};
use crate::request::{AccessKind, Completion, Pending, Progress, Queued};
use crate::reuse::RowReuseTracker;
use crate::rltl::RltlTracker;
use crate::stats::CtrlStats;

/// Minimum of two optional cycle quotes.
fn merge(a: Option<BusCycle>, b: Option<BusCycle>) -> Option<BusCycle> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// The `(RowKey, column)` identity of one cache line, used by the
/// write-forwarding index.
fn line_key(p: &Pending) -> (RowKey, u32) {
    (RowKey::from_loc(p.addr.loc, p.addr.row), p.addr.col)
}

/// A read issued to DRAM (or forwarded), waiting for its data beat.
///
/// Ordered by `(at, seq)` so a min-heap pops completions in data-arrival
/// order, with the enqueue sequence breaking ties exactly like the former
/// insertion-ordered scan — completion order is part of the simulator's
/// determinism contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Inflight {
    at: BusCycle,
    seq: u64,
    p: Pending,
}

impl Ord for Inflight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Inflight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl_state!(Inflight { at, seq, p });

/// One bank's share of a request queue: entries in global age order plus
/// the row-keyed hit lists.
///
/// Enqueue stamps are monotone, so a deque kept in arrival order *is*
/// sorted by age — push-back insert, front-biased removal, no tree or
/// heap maintenance. Buckets hold a queue's per-bank share (a handful of
/// entries), so the occasional keyed lookup is a short scan.
#[derive(Debug, Default)]
struct BankBucket {
    /// Queued requests as `(seq, entry)`, age-ascending; the front is the
    /// bank's oldest request.
    entries: VecDeque<(u64, Queued)>,
    /// Row → age-ascending `(seq, column)` of queued requests targeting
    /// it. The open row's list is the FR-FCFS hit class (the column
    /// rides along so quoting needs no entry lookup); summed with the
    /// sibling kind's list it is the row-demand count the conflict gate
    /// and the closed-row policy consult (the former `row_demand` map,
    /// folded into the index).
    by_row: FastHashMap<RowId, VecDeque<(u64, u32)>>,
}

impl BankBucket {
    fn insert(&mut self, seq: u64, q: Queued) {
        debug_assert!(self.entries.back().is_none_or(|&(s, _)| s < seq));
        self.by_row
            .entry(q.p.addr.row)
            .or_default()
            .push_back((seq, q.p.addr.col));
        self.entries.push_back((seq, q));
    }

    /// Removes `seq` and returns its entry. A `seq` the bucket never
    /// held indicates an index-maintenance bug: debug builds assert,
    /// release builds degrade to a no-op and bump `misses`
    /// ([`CtrlStats::index_release_misses`]) so the sweep finishes with
    /// *observably* skewed stats instead of aborting.
    fn remove(&mut self, seq: u64, misses: &mut u64) -> Option<Queued> {
        let at = self.entries.iter().position(|&(s, _)| s == seq);
        debug_assert!(
            at.is_some(),
            "removing request seq {seq} that was never queued"
        );
        if at.is_none() {
            *misses += 1;
        }
        let (_, q) = self.entries.remove(at?)?;
        if let Some(list) = self.by_row.get_mut(&q.p.addr.row) {
            // Hits issue oldest-first, so the seq is the front of its row
            // list in every legal schedule.
            if list.front().is_some_and(|&(s, _)| s == seq) {
                list.pop_front();
            } else if let Some(i) = list.iter().position(|&(s, _)| s == seq) {
                debug_assert!(false, "request seq {seq} out of age order in its row list");
                *misses += 1;
                list.remove(i);
            }
            if list.is_empty() {
                self.by_row.remove(&q.p.addr.row);
            }
        }
        Some(q)
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The bank's oldest request (the ACT / conflict-PRE candidate).
    fn oldest(&self) -> Option<(u64, &Queued)> {
        self.entries.front().map(|(s, q)| (*s, q))
    }

    /// Queued requests targeting `row` in this bucket.
    fn row_len(&self, row: RowId) -> u32 {
        self.by_row.get(&row).map_or(0, |l| l.len() as u32)
    }

    fn get(&self, seq: u64) -> Option<&Queued> {
        self.entries
            .iter()
            .find(|&&(s, _)| s == seq)
            .map(|(_, q)| q)
    }

    fn get_mut(&mut self, seq: u64) -> Option<&mut Queued> {
        self.entries
            .iter_mut()
            .find(|&&mut (s, _)| s == seq)
            .map(|(_, q)| q)
    }
}

/// A bucket travels as its age-ordered entries; the row index is
/// rebuilt on load.
impl State for BankBucket {
    fn put(&self, out: &mut Vec<u8>) {
        self.entries.put(out);
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        let entries = VecDeque::<(u64, Queued)>::take(input)?;
        self.entries.clear();
        self.by_row.clear();
        for (seq, q) in entries {
            if self.entries.back().is_some_and(|&(s, _)| s >= seq) {
                return Err("bucket entries out of age order".to_string());
            }
            self.insert(seq, q);
        }
        Ok(())
    }
}

/// Oldest issuable `(seq, bank)` per FR-FCFS class, gathered for one
/// request kind while evaluating the due banks of a pass.
#[derive(Debug, Clone, Copy, Default)]
struct KindCands {
    /// Oldest issuable row-hit column command.
    hit: Option<(u64, usize)>,
    /// Oldest legal ACT into a precharged bank.
    act: Option<(u64, usize)>,
    /// Oldest legal conflict PRE (no queued demand on the open row).
    pre: Option<(u64, usize)>,
}

impl KindCands {
    fn is_empty(&self) -> bool {
        self.hit.is_none() && self.act.is_none() && self.pre.is_none()
    }
}

/// Keeps `slot` holding the globally oldest candidate of its class.
fn consider(slot: &mut Option<(u64, usize)>, seq: u64, bank: usize) {
    if slot.is_none_or(|(s, _)| seq < s) {
        *slot = Some((seq, bank));
    }
}

fn kind_idx(kind: AccessKind) -> usize {
    match kind {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
    }
}

/// One channel's controller.
pub(crate) struct ChannelCtrl {
    channel: u8,
    cfg: Arc<CtrlConfig>,
    banks_per_rank: u8,
    /// Per-bank read queue shares, indexed by [`BankLoc::flat_index`].
    read_banks: Vec<BankBucket>,
    /// Per-bank write queue shares.
    write_banks: Vec<BankBucket>,
    /// Total queued reads (capacity checks, drain hysteresis, idleness).
    read_len: usize,
    /// Total queued writes.
    write_len: usize,
    /// Global age stamp: FIFO order across banks within each kind.
    age_seq: u64,
    /// Queued-write count per cache line — O(1) read forwarding.
    wq_lines: FastHashMap<(RowKey, u32), u32>,
    /// Reads issued to DRAM (or forwarded), waiting for data; min-heap on
    /// the data-arrival deadline so collecting completions is O(log n)
    /// per completion instead of a full scan every bus cycle.
    inflight: BinaryHeap<Reverse<Inflight>>,
    /// Monotonic sequence for in-flight heap tie-breaking.
    inflight_seq: u64,
    /// Sound lower bound on the next cycle any command (demand or
    /// refresh) can issue. Ticks before this cycle skip the scheduler
    /// pass entirely, and the cycle-skipping engine reads it as its
    /// command event source. Maintained as the bank-ready calendar
    /// minimum merged with the refresh bound.
    next_try: BusCycle,
    /// The bank-ready calendar: per-bank sound next-issue bounds — no
    /// command for bank `b` can become legal before `bank_ready[b]`.
    /// `MAX` parks a bank with nothing to schedule (empty,
    /// refresh-blocked, or quote-less) until an enqueue / its rank's REF
    /// re-arms it. The calendar minimum feeds [`Self::next_try`]. A flat
    /// array beats a min-heap here: with ≤ 64 banks per channel the
    /// branch-free minimum scan is cheaper than heap churn (measured —
    /// lazy-deletion heap pops were ~25% of controller CPU), while
    /// keeping O(1) single-slot invalidation on enqueue.
    bank_ready: Vec<BusCycle>,
    /// Write-drain mode latch.
    draining: bool,
    /// Core that opened the row in each bank (rank-major).
    opened_by: Vec<usize>,
    /// Per-rank flag: refresh is due and being drained.
    refresh_pending: Vec<bool>,
    mech: Box<dyn LatencyMechanism>,
    rltl: RltlTracker,
    reuse: RowReuseTracker,
    stats: CtrlStats,
}

impl ChannelCtrl {
    pub(crate) fn new(
        channel: u8,
        cfg: Arc<CtrlConfig>,
        mech: Box<dyn LatencyMechanism>,
        dram: &DramConfig,
    ) -> Self {
        let ranks = dram.org.ranks;
        let banks = dram.org.banks;
        let total = usize::from(ranks) * usize::from(banks);
        Self {
            channel,
            cfg,
            banks_per_rank: banks,
            read_banks: (0..total).map(|_| BankBucket::default()).collect(),
            write_banks: (0..total).map(|_| BankBucket::default()).collect(),
            read_len: 0,
            write_len: 0,
            age_seq: 0,
            wq_lines: FastHashMap::default(),
            inflight: BinaryHeap::new(),
            inflight_seq: 0,
            next_try: 0,
            bank_ready: vec![0; total],
            draining: false,
            opened_by: vec![0; total],
            refresh_pending: vec![false; usize::from(ranks)],
            mech,
            rltl: RltlTracker::paper(dram.timing.cycles_per_ms()),
            // Depth well beyond any HCRAC capacity we sweep (Figure 10
            // tops out at 1024 entries/core).
            reuse: RowReuseTracker::new(16_384),
            stats: CtrlStats::default(),
        }
    }

    pub(crate) fn stats(&self) -> &CtrlStats {
        &self.stats
    }

    pub(crate) fn rltl(&self) -> &RltlTracker {
        &self.rltl
    }

    pub(crate) fn reuse(&self) -> &RowReuseTracker {
        &self.reuse
    }

    pub(crate) fn mech(&self) -> &dyn LatencyMechanism {
        self.mech.as_ref()
    }

    pub(crate) fn can_accept(&self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Read => self.read_len < self.cfg.read_queue,
            AccessKind::Write => self.write_len < self.cfg.write_queue,
        }
    }

    pub(crate) fn queued_requests(&self) -> usize {
        self.read_len + self.write_len
    }

    pub(crate) fn inflight_reads(&self) -> usize {
        self.inflight.len()
    }

    fn bucket(&self, kind: AccessKind, bank: usize) -> &BankBucket {
        match kind {
            AccessKind::Read => &self.read_banks[bank],
            AccessKind::Write => &self.write_banks[bank],
        }
    }

    fn bucket_mut(&mut self, kind: AccessKind, bank: usize) -> &mut BankBucket {
        match kind {
            AccessKind::Read => &mut self.read_banks[bank],
            AccessKind::Write => &mut self.write_banks[bank],
        }
    }

    fn bank_loc(&self, bank: usize) -> BankLoc {
        BankLoc::from_flat_index(self.channel, bank, self.banks_per_rank)
    }

    /// Number of queued requests (either kind) targeting `row` of bank
    /// `bank` — the former `row_demand` map, read from the hit lists.
    fn demand(&self, bank: usize, row: RowId) -> u32 {
        self.read_banks[bank].row_len(row) + self.write_banks[bank].row_len(row)
    }

    /// Re-arms bank `bank`'s calendar slot at `cycle`, or parks it when
    /// `cycle` is `MAX`.
    fn set_bank_ready(&mut self, bank: usize, cycle: BusCycle) {
        self.bank_ready[bank] = cycle;
    }

    /// The calendar minimum: the earliest bank-ready cycle, or `None`
    /// when every bank is parked.
    fn calendar_min(&self) -> Option<BusCycle> {
        let min = self
            .bank_ready
            .iter()
            .copied()
            .min()
            .unwrap_or(BusCycle::MAX);
        (min != BusCycle::MAX).then_some(min)
    }

    /// Drops one queued-write count for `p`'s line (on write issue).
    /// A line that was never indexed indicates an index-maintenance bug:
    /// debug builds assert, release builds saturate to a no-op and bump
    /// [`CtrlStats::index_release_misses`].
    fn release_wq_line(&mut self, p: &Pending) {
        let key = line_key(p);
        match self.wq_lines.get_mut(&key) {
            Some(1) => {
                self.wq_lines.remove(&key);
            }
            Some(n) => *n -= 1,
            None => {
                debug_assert!(false, "releasing a write line that was never indexed");
                self.stats.index_release_misses += 1;
            }
        }
    }

    /// Accepts a request the caller has verified fits (`can_accept`).
    pub(crate) fn enqueue(&mut self, p: Pending, now: BusCycle) {
        let bank = p.addr.loc.flat_index(self.banks_per_rank);
        match p.kind {
            AccessKind::Read => {
                self.stats.reads += 1;
                // Forward from a queued write to the same line: O(1) in
                // the row-keyed write index. The queues are untouched, so
                // the maintained issue bound still holds.
                if self.wq_lines.contains_key(&line_key(&p)) {
                    self.stats.forwarded_reads += 1;
                    self.push_inflight(now + 1, p);
                    return;
                }
                self.read_banks[bank].insert(
                    self.age_seq,
                    Queued {
                        p,
                        progress: Progress::Fresh,
                    },
                );
                self.read_len += 1;
            }
            AccessKind::Write => {
                self.stats.writes += 1;
                *self.wq_lines.entry(line_key(&p)).or_insert(0) += 1;
                self.write_banks[bank].insert(
                    self.age_seq,
                    Queued {
                        p,
                        progress: Progress::Fresh,
                    },
                );
                self.write_len += 1;
            }
        }
        self.age_seq += 1;
        // Only the targeted bank's bound is invalidated: the new request
        // may be schedulable immediately, nothing else changed.
        self.set_bank_ready(bank, now);
        self.next_try = self.next_try.min(now);
    }

    fn push_inflight(&mut self, at: BusCycle, p: Pending) {
        let seq = self.inflight_seq;
        self.inflight_seq += 1;
        self.inflight.push(Reverse(Inflight { at, seq, p }));
    }

    /// True if ticking at `now` would do anything: a completion is due or
    /// the issue gate is open. A channel with no work needs no tick — the
    /// cycle-skipping engine uses this to bypass idle boundaries (the
    /// mechanism's time-based counters catch up at the next real tick).
    pub(crate) fn has_work(&self, now: BusCycle) -> bool {
        if self.next_try <= now {
            return true;
        }
        matches!(self.inflight.peek(), Some(&Reverse(f)) if f.at <= now)
    }

    /// One bus cycle: collect completions into `done`, then issue at most
    /// one command.
    pub(crate) fn tick(
        &mut self,
        now: BusCycle,
        device: &mut DramDevice,
        done: &mut Vec<Completion>,
    ) {
        self.mech.tick(now);

        while let Some(&Reverse(f)) = self.inflight.peek() {
            if f.at > now {
                break;
            }
            self.inflight.pop();
            self.stats.record_read_latency(f.at - f.p.arrived);
            done.push(Completion {
                id: f.p.id,
                core: f.p.core,
                at: f.at,
                kind: AccessKind::Read,
            });
        }

        if now >= self.next_try {
            self.next_try = match self.schedule_pass(now, device) {
                // A command issued: re-evaluate the due banks against the
                // post-issue timing state (typically the next command is
                // gated by tCCD/tRRD, not now + 1).
                (true, _) => self.schedule_bound(now, device),
                // Nothing issued: the state is unchanged, so the bound
                // gathered during the very same evaluation is exact.
                (false, bound) => bound,
            };
        }
    }

    /// Advances time-based mechanism state (invalidation counters) to
    /// `now` without ticking the scheduler. The cycle-skipping engine
    /// calls this before reading statistics so skipped cycles cannot
    /// leave invalidations unaccounted.
    pub(crate) fn sync_mech(&mut self, now: BusCycle) {
        self.mech.tick(now);
    }

    /// Earliest bus cycle strictly after `now` at which this channel can
    /// do observable work: a read completion arriving, a queued request's
    /// next command becoming legal, or the refresh duty engaging. O(1):
    /// completions come from the deadline heap's root and command/refresh
    /// events from the maintained [`Self::next_try`] bound.
    ///
    /// The bound is *sound* (never later than the real next event) but may
    /// be conservative: waking the controller on a cycle where nothing
    /// issues is a no-op, exactly as the dense per-cycle loop experiences
    /// on most cycles.
    pub(crate) fn next_event(&self, now: BusCycle, _device: &DramDevice) -> Option<BusCycle> {
        let mut best = self.next_try.max(now + 1);
        if let Some(&Reverse(f)) = self.inflight.peek() {
            best = best.min(f.at.max(now + 1));
        }
        Some(best)
    }

    /// Earliest cycle the refresh duty can next act: the pending
    /// drain/REF sequence's command times, or the cycle the duty will
    /// next engage (`due`, postponed up to the budget while demand is
    /// queued).
    fn refresh_bound(&self, now: BusCycle, device: &DramDevice) -> Option<BusCycle> {
        let mut best: Option<BusCycle> = None;
        let mut consider = |t: BusCycle| {
            best = Some(best.map_or(t, |b: BusCycle| b.min(t)));
        };
        let trefi = BusCycle::from(device.config().timing.trefi);
        let slack = BusCycle::from(self.cfg.max_postponed_refs) * trefi;
        let idle = self.read_len == 0 && self.write_len == 0;
        for rank in 0..self.refresh_pending.len() as u8 {
            let rl = RankLoc {
                channel: self.channel,
                rank,
            };
            if self.refresh_pending[rank as usize] {
                if device.refresh_ready(rl) {
                    if let Ok(t) = device.earliest_issue(&Command::Ref { rank: rl }, now) {
                        consider(t);
                    }
                } else {
                    // Per-bank refresh only needs its target bank drained;
                    // all-bank refresh drains the whole rank.
                    let banks = device.config().org.banks;
                    let target = device.refresh_target(rl);
                    for bank in 0..banks {
                        if target.is_some_and(|t| t != bank) {
                            continue;
                        }
                        let loc = BankLoc {
                            channel: self.channel,
                            rank,
                            bank,
                        };
                        if device.open_row(loc).is_some() {
                            if let Ok(t) = device.earliest_issue(&Command::pre(loc), now) {
                                consider(t);
                            }
                        }
                    }
                }
            } else {
                let due = device.refresh_due(rl);
                // Busy queues postpone the latch up to the DDR3 budget;
                // if they drain earlier, a recompute after that tick
                // tightens the bound to `due` itself.
                consider(if idle { due } else { due + slack });
            }
        }
        best
    }

    /// Next-issue bound after a command issued at `now`: the issued
    /// bank's slot was re-armed, so re-evaluating the due banks against
    /// the post-issue timing state (every quote now ≥ `now + 1`, the
    /// command bus being busy) restores an exact calendar, and the bound
    /// is its minimum merged with the refresh bound.
    fn schedule_bound(&mut self, now: BusCycle, device: &mut DramDevice) -> BusCycle {
        if self.cfg.scheduler == SchedPolicy::Fcfs {
            let (issued, bound) = self.fcfs_scan(now, device, false);
            debug_assert!(!issued);
            return bound;
        }
        let cands = self.eval_due_banks(now, device);
        debug_assert!(
            cands.iter().all(KindCands::is_empty),
            "post-issue evaluation found an issuable command"
        );
        self.gathered_bound(now, device)
    }

    /// The pass's no-issue bound: refresh duty merged with the bank-ready
    /// calendar minimum, clamped to the future.
    fn gathered_bound(&mut self, now: BusCycle, device: &DramDevice) -> BusCycle {
        let mut bound = self.refresh_bound(now, device);
        bound = merge(bound, self.calendar_min());
        bound.map_or(now + 1, |b| b.max(now + 1))
    }

    /// Evaluates every *due* bank (ready bound ≤ `now`): refreshes each
    /// bank's calendar bound from fresh `earliest_issue` quotes and
    /// gathers the oldest issuable `(seq, bank)` per FR-FCFS class and
    /// kind. Banks whose cached bound lies in the future are skipped —
    /// timing monotonicity keeps their bounds sound.
    fn eval_due_banks(&mut self, now: BusCycle, device: &DramDevice) -> [KindCands; 2] {
        let mut cands = [KindCands::default(), KindCands::default()];
        for bank in 0..self.bank_ready.len() {
            if self.bank_ready[bank] > now {
                continue;
            }
            let loc = self.bank_loc(bank);
            if self.read_banks[bank].is_empty() && self.write_banks[bank].is_empty() {
                // Nothing queued: parked until an enqueue re-arms it.
                self.bank_ready[bank] = BusCycle::MAX;
                continue;
            }
            if self.rank_blocked(loc.rank) {
                // Refresh duty owns the rank: parked until its REF
                // issues, which re-arms every bank of the rank.
                self.bank_ready[bank] = BusCycle::MAX;
                continue;
            }
            self.stats.sched_bank_visits += 1;
            let bound = self.eval_bank(now, device, bank, &mut cands);
            self.set_bank_ready(bank, bound);
        }
        cands
    }

    /// Classifies one bank's oldest candidates (both kinds) against its
    /// row-buffer state, quoting each command class once — DDR3 command
    /// legality depends on the bank and bus state, not the column or row
    /// operand, so the ACT / PRE quotes are shared across kinds and the
    /// row-buffer state is probed a single time. Candidates issuable at
    /// `now` enter `cands` and hold the bank's bound at `now`; future
    /// quotes lower the returned bound.
    fn eval_bank(
        &self,
        now: BusCycle,
        device: &DramDevice,
        bank: usize,
        cands: &mut [KindCands; 2],
    ) -> BusCycle {
        let loc = self.bank_loc(bank);
        let mut bound = BusCycle::MAX;
        // Illegal-state errors are unreachable: the command class is
        // chosen from the bank's row-buffer state. Treat them as "never"
        // so the class simply contributes no quote.
        let quote = |cmd: &Command| device.earliest_issue(cmd, now).unwrap_or(BusCycle::MAX);
        let note =
            |bound: &mut BusCycle, slot: &mut Option<(u64, usize)>, seq: u64, t: BusCycle| {
                if t == now {
                    consider(slot, seq, bank);
                    *bound = now;
                } else if t != BusCycle::MAX {
                    *bound = (*bound).min(t);
                }
            };
        match device.open_row(loc) {
            Some(open) => {
                // One hit-list probe per kind answers both questions: the
                // oldest row hit, and that kind's share of the row demand.
                let read_hits = self.read_banks[bank].by_row.get(&open);
                let write_hits = self.write_banks[bank].by_row.get(&open);
                if let Some(&(seq, col)) = read_hits.and_then(|l| l.front()) {
                    note(
                        &mut bound,
                        &mut cands[0].hit,
                        seq,
                        quote(&Command::rd(loc, col)),
                    );
                }
                if let Some(&(seq, col)) = write_hits.and_then(|l| l.front()) {
                    note(
                        &mut bound,
                        &mut cands[1].hit,
                        seq,
                        quote(&Command::wr(loc, col)),
                    );
                }
                // FR-FCFS: do not close a row that still has queued
                // demand (in either queue) — it wakes on the hit's own
                // quote instead. With zero demand every entry here
                // conflicts, so each kind's oldest request is its PRE
                // candidate, sharing one quote.
                if read_hits.is_none() && write_hits.is_none() {
                    let t = quote(&Command::pre(loc));
                    for (ki, bucket) in [&self.read_banks[bank], &self.write_banks[bank]]
                        .into_iter()
                        .enumerate()
                    {
                        if let Some((seq, _)) = bucket.oldest() {
                            note(&mut bound, &mut cands[ki].pre, seq, t);
                        }
                    }
                }
            }
            None => {
                // One ACT quote serves both kinds (legality ignores the
                // row operand).
                let mut act = None;
                for (ki, bucket) in [&self.read_banks[bank], &self.write_banks[bank]]
                    .into_iter()
                    .enumerate()
                {
                    if let Some((seq, q)) = bucket.oldest() {
                        let t = *act.get_or_insert_with(|| quote(&Command::act(loc, q.p.addr.row)));
                        note(&mut bound, &mut cands[ki].act, seq, t);
                    }
                }
            }
        }
        bound
    }

    /// Queue service order for this pass: writes first while draining (or
    /// with no reads queued), reads first otherwise. Reads the `draining`
    /// latch, so callers must apply the hysteresis update beforehand.
    fn kind_order(&self) -> [AccessKind; 2] {
        if self.draining || self.read_len == 0 {
            [AccessKind::Write, AccessKind::Read]
        } else {
            [AccessKind::Read, AccessKind::Write]
        }
    }

    /// Scheduler pass: refresh duty first, then FR-FCFS over the per-bank
    /// index. Returns whether a command was issued and, if not, the exact
    /// next-issue bound gathered during the same evaluation (the state
    /// did not change, so the per-bank quotes remain valid).
    fn schedule_pass(&mut self, now: BusCycle, device: &mut DramDevice) -> (bool, BusCycle) {
        self.stats.sched_passes += 1;
        if self.issue_refresh_duty(now, device) {
            return (true, 0);
        }

        // Write-drain hysteresis.
        if self.write_len >= self.cfg.write_hi_watermark {
            self.draining = true;
        } else if self.write_len <= self.cfg.write_lo_watermark {
            self.draining = false;
        }

        if self.cfg.scheduler == SchedPolicy::Fcfs {
            return self.fcfs_scan(now, device, true);
        }

        let cands = self.eval_due_banks(now, device);
        for kind in self.kind_order() {
            let c = cands[kind_idx(kind)];
            if let Some((seq, bank)) = c.hit {
                self.issue_column(now, device, kind, bank, seq);
                return (true, 0);
            }
            if let Some((seq, bank)) = c.act {
                self.issue_act(now, device, kind, bank, seq);
                return (true, 0);
            }
            if let Some((seq, bank)) = c.pre {
                self.issue_conflict_pre(now, device, kind, bank, seq);
                return (true, 0);
            }
        }
        (false, self.gathered_bound(now, device))
    }

    /// Strict FCFS ablation: only the globally oldest request of each
    /// kind may issue commands, exactly like the former head-only scan.
    /// The calendar is bypassed — the bound comes from the heads' own
    /// quotes. With `issue` false the scan only gathers the bound
    /// (post-issue recompute, where nothing can be legal at `now`).
    fn fcfs_scan(
        &mut self,
        now: BusCycle,
        device: &mut DramDevice,
        issue: bool,
    ) -> (bool, BusCycle) {
        let mut bound = self.refresh_bound(now, device);
        for kind in self.kind_order() {
            // Head = globally oldest request of this kind.
            let head = (0..self.bank_ready.len())
                .filter_map(|b| self.bucket(kind, b).oldest().map(|(s, _)| (s, b)))
                .min();
            let Some((seq, bank)) = head else {
                continue;
            };
            let loc = self.bank_loc(bank);
            if self.rank_blocked(loc.rank) {
                continue;
            }
            self.stats.sched_bank_visits += 1;
            let q = *self.bucket(kind, bank).get(seq).expect("head is queued");
            let quote = |cmd: &Command| device.earliest_issue(cmd, now).unwrap_or(BusCycle::MAX);
            let (t, class): (BusCycle, u8) = match device.open_row(loc) {
                Some(open) if open == q.p.addr.row => (quote(&column_cmd(&q, false)), 0),
                None => (quote(&Command::act(loc, q.p.addr.row)), 1),
                Some(open) => {
                    if self.demand(bank, open) > 0 {
                        continue;
                    }
                    (quote(&Command::pre(loc)), 2)
                }
            };
            if t == now {
                debug_assert!(issue, "post-issue FCFS scan found an issuable command");
                if issue {
                    match class {
                        0 => self.issue_column(now, device, kind, bank, seq),
                        1 => self.issue_act(now, device, kind, bank, seq),
                        _ => self.issue_conflict_pre(now, device, kind, bank, seq),
                    }
                    return (true, 0);
                }
            } else if t != BusCycle::MAX {
                bound = merge(bound, Some(t));
            }
        }
        (false, bound.map_or(now + 1, |b| b.max(now + 1)))
    }

    /// Refresh duty: once a rank's REF is due (and any postponement budget
    /// is spent), stop opening rows, drain its open banks and issue the
    /// REF. Returns true if a command was issued.
    fn issue_refresh_duty(&mut self, now: BusCycle, device: &mut DramDevice) -> bool {
        let trefi = BusCycle::from(device.config().timing.trefi);
        for rank in 0..self.refresh_pending.len() as u8 {
            let rl = RankLoc {
                channel: self.channel,
                rank,
            };
            let due = device.refresh_due(rl);
            if now >= due {
                // Postpone while demand traffic is queued, up to the DDR3
                // budget; the deficit is repaid by back-to-back REFs once
                // the budget runs out or the queues drain.
                let slack = BusCycle::from(self.cfg.max_postponed_refs) * trefi;
                let must = now >= due + slack;
                let idle = self.read_len == 0 && self.write_len == 0;
                if must || idle {
                    self.refresh_pending[rank as usize] = true;
                }
            }
            if !self.refresh_pending[rank as usize] {
                continue;
            }
            let cmd = Command::Ref { rank: rl };
            if device.refresh_ready(rl) {
                if device.can_issue(&cmd, now) {
                    let out = device.issue(&cmd, now, device.config().timing.act_timings());
                    self.stats.refreshes += 1;
                    self.refresh_pending[rank as usize] = false;
                    // The rank is schedulable again: re-arm every one of
                    // its banks (they were parked while blocked).
                    for bank in 0..device.config().org.banks {
                        let loc = BankLoc {
                            channel: self.channel,
                            rank,
                            bank,
                        };
                        self.set_bank_ready(loc.flat_index(self.banks_per_rank), now);
                    }
                    // Inform the mechanism of every row the REF just
                    // replenished: the same range in every bank of the
                    // rank for all-bank REF, or only the covered bank for
                    // per-bank REFpb.
                    if let Some((first_row, count)) = out.refreshed {
                        let banks = device.config().org.banks;
                        for bank in 0..banks {
                            if out.refreshed_bank.is_some_and(|b| b != bank) {
                                continue;
                            }
                            let loc = BankLoc {
                                channel: self.channel,
                                rank,
                                bank,
                            };
                            for row in first_row..first_row + count {
                                self.mech.on_refresh_row(now, RowKey::from_loc(loc, row));
                            }
                        }
                    }
                    return true;
                }
                continue;
            }
            // Precharge any open bank that is ready (only the refresh
            // target under per-bank refresh — other banks keep serving).
            let banks = device.config().org.banks;
            let target = device.refresh_target(rl);
            for bank in 0..banks {
                if target.is_some_and(|t| t != bank) {
                    continue;
                }
                let loc = BankLoc {
                    channel: self.channel,
                    rank,
                    bank,
                };
                if device.open_row(loc).is_some() {
                    let pre = Command::pre(loc);
                    if device.can_issue(&pre, now) {
                        let spec = device.config().timing.act_timings();
                        let out = device.issue(&pre, now, spec);
                        self.note_closed_rows(&out.closed_rows);
                        return true;
                    }
                }
            }
        }
        false
    }

    fn rank_blocked(&self, rank: u8) -> bool {
        self.refresh_pending[rank as usize]
    }

    fn issue_column(
        &mut self,
        now: BusCycle,
        device: &mut DramDevice,
        kind: AccessKind,
        bank: usize,
        seq: u64,
    ) {
        let Some(&q) = self.bucket(kind, bank).get(seq) else {
            debug_assert!(false, "issuing column for seq {seq} that is not queued");
            return;
        };
        // Closed-row policy: auto-precharge when this is the last queued
        // request for the open row (demand includes `q` itself).
        let auto_pre =
            self.cfg.row_policy == RowPolicy::Closed && self.demand(bank, q.p.addr.row) == 1;
        let cmd = column_cmd(&q, auto_pre);
        // The auto_pre variant shares legality with the plain one that was
        // quoted, but re-verify to be safe.
        if !device.can_issue(&cmd, now) {
            return;
        }
        let spec = device.config().timing.act_timings();
        let out = device.issue(&cmd, now, spec);
        let key = RowKey::from_loc(q.p.addr.loc, q.p.addr.row);
        match q.p.kind {
            AccessKind::Read => self.mech.on_read(now, q.p.core, key),
            AccessKind::Write => self.mech.on_write(now, q.p.core, key),
        }
        if q.progress == Progress::Fresh {
            self.stats.row_hits += 1;
        }
        self.note_closed_rows(&out.closed_rows);
        // Direct field access (not `bucket_mut`) so the stats counter can
        // be borrowed alongside the bucket.
        let bucket = match kind {
            AccessKind::Read => &mut self.read_banks[bank],
            AccessKind::Write => &mut self.write_banks[bank],
        };
        let Some(q) = bucket.remove(seq, &mut self.stats.index_release_misses) else {
            return;
        };
        match q.p.kind {
            AccessKind::Read => self.read_len -= 1,
            AccessKind::Write => {
                self.write_len -= 1;
                self.release_wq_line(&q.p);
            }
        }
        self.set_bank_ready(bank, now);
        if q.p.kind == AccessKind::Read {
            let data_at = out.data_at.expect("reads return data");
            self.push_inflight(data_at, q.p);
        }
    }

    fn issue_act(
        &mut self,
        now: BusCycle,
        device: &mut DramDevice,
        kind: AccessKind,
        bank: usize,
        seq: u64,
    ) {
        let Some(&q) = self.bucket(kind, bank).get(seq) else {
            debug_assert!(false, "issuing ACT for seq {seq} that is not queued");
            return;
        };
        let loc = q.p.addr.loc;
        let key = RowKey::from_loc(loc, q.p.addr.row);
        let refresh_age = device.refresh_age(loc, q.p.addr.row, now);
        let timings = self.mech.on_activate(now, q.p.core, key, refresh_age);
        device.issue(&Command::act(loc, q.p.addr.row), now, timings);
        self.rltl.on_activate(now, key, refresh_age);
        self.reuse.on_activate(key);
        self.opened_by[bank] = q.p.core;
        match q.progress {
            Progress::PreIssued => self.stats.row_conflicts += 1,
            _ => self.stats.row_misses += 1,
        }
        if let Some(q) = self.bucket_mut(kind, bank).get_mut(seq) {
            q.progress = Progress::ActIssued;
        }
        self.set_bank_ready(bank, now);
    }

    fn issue_conflict_pre(
        &mut self,
        now: BusCycle,
        device: &mut DramDevice,
        kind: AccessKind,
        bank: usize,
        seq: u64,
    ) {
        let Some(&q) = self.bucket(kind, bank).get(seq) else {
            debug_assert!(false, "issuing PRE for seq {seq} that is not queued");
            return;
        };
        let spec = device.config().timing.act_timings();
        let out = device.issue(&Command::pre(q.p.addr.loc), now, spec);
        self.note_closed_rows(&out.closed_rows);
        if let Some(q) = self.bucket_mut(kind, bank).get_mut(seq) {
            q.progress = Progress::PreIssued;
        }
        self.set_bank_ready(bank, now);
    }

    /// Routes every closed row to the mechanism and the RLTL tracker,
    /// attributed to the core that opened it.
    fn note_closed_rows(&mut self, closed: &[(BankLoc, u32, BusCycle)]) {
        for &(loc, row, at) in closed {
            let core = self.opened_by[loc.flat_index(self.banks_per_rank)];
            let key = RowKey::from_loc(loc, row);
            self.mech.on_precharge(at, core, key);
            self.rltl.on_precharge(at, key);
        }
    }

    /// True when the mechanism supports checkpointing (its
    /// `save_state` hook succeeds).
    pub(crate) fn checkpointable(&self) -> bool {
        self.mech.save_state(&mut Vec::new())
    }
}

/// The controller's complete mutable state (checkpoint support); only
/// valid when [`ChannelCtrl::checkpointable`] holds. The mechanism's
/// state travels as a length-prefixed byte run.
///
/// Derived indices (`by_row`, the queue length totals, `wq_lines`) are
/// rebuilt on load from the serialized queue entries, and the in-flight
/// heap is written in `(at, seq)` order, so the byte stream is a pure
/// function of the logical scheduler state.
impl State for ChannelCtrl {
    fn put(&self, out: &mut Vec<u8>) {
        let mut mech = Vec::new();
        let supported = self.mech.save_state(&mut mech);
        debug_assert!(supported, "checkpoint of a mechanism without state capture");
        put_slice(out, &self.read_banks);
        put_slice(out, &self.write_banks);
        self.age_seq.put(out);
        let mut flights: Vec<Inflight> = self.inflight.iter().map(|r| r.0).collect();
        flights.sort_unstable();
        flights.put(out);
        self.inflight_seq.put(out);
        self.next_try.put(out);
        put_slice(out, &self.bank_ready);
        self.draining.put(out);
        for c in &self.opened_by {
            c.put(out);
        }
        for p in &self.refresh_pending {
            p.put(out);
        }
        put_usize(out, mech.len());
        out.extend_from_slice(&mech);
        self.rltl.put(out);
        self.reuse.put(out);
        self.stats.put(out);
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        for (kind, banks) in [
            (AccessKind::Read, &mut self.read_banks),
            (AccessKind::Write, &mut self.write_banks),
        ] {
            load_slice(input, banks, |n, have| {
                format!("bank count mismatch: checkpoint has {n}, controller has {have}")
            })?;
            for (bank, bucket) in banks.iter().enumerate() {
                for (_, q) in &bucket.entries {
                    if q.p.kind != kind {
                        return Err("queued request kind does not match its queue".to_string());
                    }
                    if q.p.addr.loc.channel != self.channel
                        || q.p.addr.loc.flat_index(self.banks_per_rank) != bank
                    {
                        return Err("queued request filed under the wrong bank".to_string());
                    }
                }
            }
        }
        self.age_seq.load(input)?;
        self.inflight = Vec::<Inflight>::take(input)?
            .into_iter()
            .map(Reverse)
            .collect();
        self.inflight_seq.load(input)?;
        self.next_try.load(input)?;
        load_slice(input, &mut self.bank_ready, |n, have| {
            format!("bank-ready count mismatch: checkpoint has {n}, controller has {have}")
        })?;
        self.draining.load(input)?;
        for c in &mut self.opened_by {
            c.load(input)?;
        }
        for p in &mut self.refresh_pending {
            p.load(input)?;
        }
        let mlen = take_usize(input, "mechanism state")?;
        let mut mech = take_bytes(input, mlen, "mechanism state")?;
        self.mech.load_state(&mut mech)?;
        if !mech.is_empty() {
            return Err("mechanism state has trailing bytes".to_string());
        }
        self.rltl.load(input)?;
        self.reuse.load(input)?;
        self.stats.load(input)?;

        // Rebuild the queue totals and the write-forwarding index from
        // the restored queues.
        let count = |banks: &[BankBucket]| banks.iter().map(|b| b.entries.len()).sum();
        self.read_len = count(&self.read_banks);
        self.write_len = count(&self.write_banks);
        self.wq_lines.clear();
        for bucket in &self.write_banks {
            for (_, q) in &bucket.entries {
                *self.wq_lines.entry(line_key(&q.p)).or_insert(0u32) += 1;
            }
        }
        Ok(())
    }
}

/// Builds the RD/WR command for a queued request; `auto_pre` per the
/// closed-row policy decision.
fn column_cmd(q: &Queued, auto_pre: bool) -> Command {
    match q.p.kind {
        AccessKind::Read => {
            if auto_pre {
                Command::rda(q.p.addr.loc, q.p.addr.col)
            } else {
                Command::rd(q.p.addr.loc, q.p.addr.col)
            }
        }
        AccessKind::Write => {
            if auto_pre {
                Command::wra(q.p.addr.loc, q.p.addr.col)
            } else {
                Command::wr(q.p.addr.loc, q.p.addr.col)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chargecache::Baseline;
    use dram::AddressMapper;

    fn ctrl(cfg: CtrlConfig) -> (ChannelCtrl, AddressMapper) {
        let dram_cfg = DramConfig::ddr3_1600_paper();
        let mech = Box::new(Baseline::new(&dram_cfg.timing));
        let mapper = AddressMapper::paper_default(dram_cfg.org.clone());
        (ChannelCtrl::new(0, Arc::new(cfg), mech, &dram_cfg), mapper)
    }

    fn pend(mapper: &AddressMapper, id: u64, addr: u64, kind: AccessKind) -> Pending {
        Pending {
            id,
            core: 0,
            addr: mapper.decode(addr),
            arrived: 0,
            kind,
        }
    }

    /// Property: concatenating the per-bank lists in age order reproduces
    /// the global enqueue order of each kind — the FIFO contract the
    /// scheduler's oldest-first selection relies on.
    #[test]
    fn per_bank_age_order_equals_global_enqueue_order() {
        let (mut c, mapper) = ctrl(CtrlConfig {
            read_queue: 4096,
            write_queue: 4096,
            write_hi_watermark: 4095,
            ..CtrlConfig::paper_single_core()
        });
        // Deterministic LCG (Numerical Recipes constants).
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 16
        };
        let mut shadow: [Vec<(usize, u64)>; 2] = [Vec::new(), Vec::new()];
        for id in 0..600 {
            let kind = if rng() % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            // Writes must be unique lines so none of the reads forward.
            let addr = (rng() % (1 << 22)) * 64;
            let p = pend(&mapper, id, addr, kind);
            if kind == AccessKind::Read && c.wq_lines.contains_key(&line_key(&p)) {
                continue; // would forward: not part of the queue order
            }
            let bank = p.addr.loc.flat_index(c.banks_per_rank);
            shadow[kind_idx(kind)].push((bank, p.addr.row as u64));
            c.enqueue(p, 0);
        }

        for (ki, kind) in [AccessKind::Read, AccessKind::Write]
            .into_iter()
            .enumerate()
        {
            // Merge all buckets by seq: must equal global FIFO order.
            let mut merged: Vec<(u64, usize, u64)> = (0..c.bank_ready.len())
                .flat_map(|b| {
                    c.bucket(kind, b)
                        .entries
                        .iter()
                        .map(move |&(s, q)| (s, b, q.p.addr.row as u64))
                })
                .collect();
            merged.sort_unstable();
            assert_eq!(merged.len(), shadow[ki].len());
            for ((_, bank, row), &(sbank, srow)) in merged.iter().zip(&shadow[ki]) {
                assert_eq!((*bank, *row), (sbank, srow), "kind {kind:?} order diverged");
            }
            // Row lists are age-ascending and consistent with the entries.
            for b in 0..c.bank_ready.len() {
                let bucket = c.bucket(kind, b);
                let mut listed = 0;
                for (row, list) in &bucket.by_row {
                    assert!(!list.is_empty());
                    assert!(
                        list.iter().zip(list.iter().skip(1)).all(|(a, b)| a.0 < b.0),
                        "row list out of age order"
                    );
                    listed += list.len();
                    for &(s, col) in list {
                        let q = bucket.get(s).unwrap();
                        assert_eq!(q.p.addr.row, *row);
                        assert_eq!(q.p.addr.col, col);
                    }
                }
                assert_eq!(listed, bucket.entries.len());
            }
        }
    }

    #[test]
    fn demand_is_derived_from_the_row_lists() {
        let (mut c, mapper) = ctrl(CtrlConfig::paper_single_core());
        let p = pend(&mapper, 0, 0x10000, AccessKind::Read);
        let bank = p.addr.loc.flat_index(c.banks_per_rank);
        let row = p.addr.row;
        assert_eq!(c.demand(bank, row), 0);
        c.enqueue(p, 0);
        assert_eq!(c.demand(bank, row), 1);
        // A write to the same row raises the same counter.
        let w = pend(&mapper, 1, 0x10040, AccessKind::Write);
        assert_eq!(w.addr.loc, p.addr.loc);
        assert_eq!(w.addr.row, row);
        c.enqueue(w, 0);
        assert_eq!(c.demand(bank, row), 2);
    }

    #[test]
    fn forwarded_read_leaves_queues_and_bounds_untouched() {
        let (mut c, mapper) = ctrl(CtrlConfig::paper_single_core());
        c.enqueue(pend(&mapper, 0, 0x40, AccessKind::Write), 0);
        c.next_try = 50;
        let ready = c.bank_ready.clone();
        c.enqueue(pend(&mapper, 1, 0x40, AccessKind::Read), 10);
        assert_eq!(c.stats.forwarded_reads, 1);
        assert_eq!(c.read_len, 0);
        assert_eq!(c.next_try, 50, "forwarding must not re-open the issue gate");
        assert_eq!(c.bank_ready, ready);
        assert_eq!(c.inflight_reads(), 1);
    }

    #[test]
    fn release_wq_line_saturates_in_release_builds() {
        let (mut c, mapper) = ctrl(CtrlConfig::paper_single_core());
        let p = pend(&mapper, 0, 0x40, AccessKind::Write);
        if cfg!(debug_assertions) {
            // The misuse is asserted in debug builds; exercise only the
            // legal path there.
            c.enqueue(p, 0);
            c.release_wq_line(&p);
            assert!(c.wq_lines.is_empty());
            assert_eq!(c.stats.index_release_misses, 0);
        } else {
            c.release_wq_line(&p); // must not panic or underflow
            assert!(c.wq_lines.is_empty());
            // The degraded path is observable, not silent.
            assert_eq!(c.stats.index_release_misses, 1);
        }
    }

    #[test]
    fn bucket_remove_of_unknown_seq_degrades_gracefully() {
        let mut b = BankBucket::default();
        let mut misses = 0u64;
        if !cfg!(debug_assertions) {
            assert!(b.remove(7, &mut misses).is_none());
            assert_eq!(misses, 1, "degraded removal must bump the counter");
        }
        let (mut c, mapper) = ctrl(CtrlConfig::paper_single_core());
        c.enqueue(pend(&mapper, 0, 0x40, AccessKind::Read), 0);
        let bank = mapper.decode(0x40).loc.flat_index(c.banks_per_rank);
        let mut ok_misses = 0u64;
        let q = c
            .bucket_mut(AccessKind::Read, bank)
            .remove(0, &mut ok_misses);
        assert!(q.is_some());
        assert_eq!(ok_misses, 0, "a legal removal is not an anomaly");
        assert!(c.bucket(AccessKind::Read, bank).is_empty());
        let _ = b;
    }
}
