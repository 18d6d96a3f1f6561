//! DDR3 memory controller with the ChargeCache mechanism seam.
//!
//! The reproduction's substitute for the controller half of Ramulator:
//! per-channel request queues with FR-FCFS scheduling, open-/closed-row
//! policies, write-drain hysteresis, read-from-write forwarding, and
//! rank-refresh duty — all issuing commands through the timing-checked
//! [`dram::DramDevice`].
//!
//! ChargeCache (or NUAT, or any [`chargecache::LatencyMechanism`]) plugs in
//! per channel: the controller consults it on every activation and informs
//! it of every row closure, exactly the two hooks the paper's Figure 5
//! describes. The controller also hosts the RLTL measurement used by the
//! paper's motivation figures.
//!
//! # Example
//!
//! ```
//! use dram::DramConfig;
//! use memctrl::{AccessKind, CtrlConfig, MemRequest, MemorySystem};
//!
//! let mut mem = MemorySystem::baseline(DramConfig::ddr3_1600_paper(), CtrlConfig::default());
//! let id = mem
//!     .try_enqueue(MemRequest { addr: 0x4000, kind: AccessKind::Read, core: 0 }, 0)
//!     .expect("queue has space");
//!
//! // Tick the bus until the read completes.
//! let mut done = Vec::new();
//! for now in 0..200 {
//!     done.extend(mem.tick(now));
//! }
//! assert_eq!(done.len(), 1);
//! assert_eq!(done[0].id, id);
//! ```

mod controller;

pub mod config;
pub mod request;
pub mod reuse;
pub mod rltl;
pub mod stats;

pub use config::{CtrlConfig, RowPolicy, SchedPolicy};
pub use request::{AccessKind, Completion, MemRequest, RequestId};
pub use reuse::{ReuseReport, RowReuseTracker};
pub use rltl::{RltlReport, RltlTracker, PAPER_INTERVALS_MS};
pub use stats::CtrlStats;

use std::sync::Arc;

use chargecache::{
    registry, Baseline, LatencyMechanism, MechanismContext, MechanismReport, MechanismSpec,
};
use controller::ChannelCtrl;
use dram::{AddressMapper, BusCycle, DramConfig, DramDevice};
use fasthash::codec::{load_slice, put_slice, CodecResult, State};

use crate::request::Pending;

/// The full memory system: address mapper, DRAM device and one controller
/// per channel.
pub struct MemorySystem {
    device: DramDevice,
    mapper: AddressMapper,
    channels: Vec<ChannelCtrl>,
    next_id: RequestId,
}

impl MemorySystem {
    /// Creates a system with one mechanism instance per channel.
    ///
    /// # Panics
    ///
    /// Panics if `mechs` does not provide exactly one mechanism per
    /// channel, or if a configuration is invalid.
    pub fn new(
        dram_cfg: DramConfig,
        ctrl_cfg: CtrlConfig,
        mechs: Vec<Box<dyn LatencyMechanism>>,
    ) -> Self {
        dram_cfg.validate().expect("invalid DRAM configuration");
        ctrl_cfg
            .validate()
            .expect("invalid controller configuration");
        assert_eq!(
            mechs.len(),
            usize::from(dram_cfg.org.channels),
            "need one mechanism per channel"
        );
        let mapper = AddressMapper::paper_default(dram_cfg.org.clone());
        // Cold-path allocation hygiene: one shared controller config
        // instead of a deep clone per channel, and the DRAM config moves
        // into the device instead of being cloned for it.
        let ctrl_cfg = Arc::new(ctrl_cfg);
        let channels = mechs
            .into_iter()
            .enumerate()
            .map(|(ch, mech)| ChannelCtrl::new(ch as u8, Arc::clone(&ctrl_cfg), mech, &dram_cfg))
            .collect();
        let device = DramDevice::new(dram_cfg);
        Self {
            device,
            mapper,
            channels,
            next_id: 0,
        }
    }

    /// Convenience: a system with baseline (specification) timing.
    pub fn baseline(dram_cfg: DramConfig, ctrl_cfg: CtrlConfig) -> Self {
        let mechs = (0..dram_cfg.org.channels)
            .map(|_| Box::new(Baseline::new(&dram_cfg.timing)) as Box<dyn LatencyMechanism>)
            .collect();
        Self::new(dram_cfg, ctrl_cfg, mechs)
    }

    /// A system running the mechanism described by `spec` on every
    /// channel, resolved through the global
    /// [`chargecache::MechanismRegistry`] for `cores` cores.
    ///
    /// # Errors
    ///
    /// Returns a message if the spec's name is unregistered or its
    /// parameters are rejected by the factory.
    pub fn from_spec(
        dram_cfg: DramConfig,
        ctrl_cfg: CtrlConfig,
        spec: &MechanismSpec,
        cores: usize,
    ) -> Result<Self, String> {
        let ctx = MechanismContext {
            timing: &dram_cfg.timing,
            cores,
        };
        let mechs = (0..dram_cfg.org.channels)
            .map(|_| registry::build_spec(spec, &ctx))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::new(dram_cfg, ctrl_cfg, mechs))
    }

    /// The DRAM device (for stats and energy logging).
    pub fn device(&self) -> &DramDevice {
        &self.device
    }

    /// Mutable access to the device (to enable/drain the command log).
    pub fn device_mut(&mut self) -> &mut DramDevice {
        &mut self.device
    }

    /// The address mapper in use.
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// True if the owning channel can accept a request of this kind.
    pub fn can_accept(&self, addr: u64, kind: AccessKind) -> bool {
        let ch = self.mapper.decode(addr).loc.channel;
        self.channels[ch as usize].can_accept(kind)
    }

    /// Enqueues a request at bus cycle `now`; returns its id, or `None` if
    /// the target channel's queue is full (caller retries later).
    pub fn try_enqueue(&mut self, req: MemRequest, now: BusCycle) -> Option<RequestId> {
        let addr = self.mapper.decode(req.addr);
        let ctrl = &mut self.channels[addr.loc.channel as usize];
        if !ctrl.can_accept(req.kind) {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        ctrl.enqueue(
            Pending {
                id,
                core: req.core,
                addr,
                arrived: now,
                kind: req.kind,
            },
            now,
        );
        Some(id)
    }

    /// Advances every channel one bus cycle; returns completed reads.
    pub fn tick(&mut self, now: BusCycle) -> Vec<Completion> {
        let mut done = Vec::new();
        self.tick_into(now, &mut done);
        done
    }

    /// Advances every channel one bus cycle, appending completed reads to
    /// `done` — the allocation-free form the simulator's hot loop uses.
    pub fn tick_into(&mut self, now: BusCycle, done: &mut Vec<Completion>) {
        for ch in &mut self.channels {
            ch.tick(now, &mut self.device, done);
        }
    }

    /// True if any channel would do observable work when ticked at `now`
    /// (a due completion or an open issue gate). The cycle-skipping
    /// engine bypasses the tick entirely on boundaries with no work.
    pub fn has_work(&self, now: BusCycle) -> bool {
        self.channels.iter().any(|ch| ch.has_work(now))
    }

    /// Earliest bus cycle strictly after `now` at which any channel can do
    /// observable work (completion, command issue, or refresh duty). The
    /// cycle-skipping engine advances time directly to this cycle when the
    /// CPU side is quiescent; ticking every intermediate cycle would be a
    /// no-op. The bound is sound (never late) but may be conservative.
    pub fn next_event(&self, now: BusCycle) -> Option<BusCycle> {
        self.channels
            .iter()
            .filter_map(|ch| ch.next_event(now, &self.device))
            .min()
    }

    /// Catches time-based mechanism state (invalidation counters, expiry
    /// sweeps) up to `now`. The engine calls this before statistics are
    /// read so a run that skipped cycles reports exactly the state a
    /// per-cycle run would.
    pub fn sync_mech(&mut self, now: BusCycle) {
        for ch in &mut self.channels {
            ch.sync_mech(now);
        }
    }

    /// Number of requests queued across all channels.
    pub fn queued_requests(&self) -> usize {
        self.channels.iter().map(|c| c.queued_requests()).sum()
    }

    /// Number of reads in flight (issued, awaiting data).
    pub fn inflight_reads(&self) -> usize {
        self.channels.iter().map(|c| c.inflight_reads()).sum()
    }

    /// True when no request is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queued_requests() == 0 && self.inflight_reads() == 0
    }

    /// Controller statistics aggregated across channels.
    pub fn stats(&self) -> CtrlStats {
        let mut agg = CtrlStats::default();
        for ch in &self.channels {
            agg.absorb(ch.stats());
        }
        agg
    }

    /// Row-reuse-distance report aggregated across channels.
    pub fn reuse_report(&self) -> ReuseReport {
        let mut agg = self.channels[0].reuse().clone();
        for ch in &self.channels[1..] {
            agg.absorb(ch.reuse());
        }
        agg.report()
    }

    /// RLTL report aggregated across channels.
    pub fn rltl_report(&self) -> RltlReport {
        let mut agg = self.channels[0].rltl().clone();
        for ch in &self.channels[1..] {
            agg.absorb(ch.rltl());
        }
        agg.report()
    }

    /// Mechanism statistics aggregated across channels (named counters
    /// accumulate additively; see [`chargecache::report`]).
    pub fn mech_report(&self) -> MechanismReport {
        let mut agg = MechanismReport::default();
        for ch in &self.channels {
            ch.mech().report_stats(&mut agg);
        }
        agg
    }

    /// True when every channel's mechanism supports checkpoint
    /// save/restore, i.e. when the [`State`] encoding is available.
    pub fn checkpointable(&self) -> bool {
        self.channels.iter().all(ChannelCtrl::checkpointable)
    }
}

/// The complete memory-system state — request-id counter, every channel
/// controller (queues, calendars, mechanism, trackers) and the DRAM
/// device — for checkpointing. Encode only when
/// [`MemorySystem::checkpointable`] holds.
impl State for MemorySystem {
    fn put(&self, out: &mut Vec<u8>) {
        self.next_id.put(out);
        put_slice(out, &self.channels);
        self.device.put(out);
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        self.next_id.load(input)?;
        load_slice(input, &mut self.channels, |n, have| {
            format!("channel count mismatch: checkpoint has {n}, system has {have}")
        })?;
        self.device.load(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(addr: u64) -> MemRequest {
        MemRequest {
            addr,
            kind: AccessKind::Read,
            core: 0,
        }
    }

    fn write(addr: u64) -> MemRequest {
        MemRequest {
            addr,
            kind: AccessKind::Write,
            core: 0,
        }
    }

    fn run(mem: &mut MemorySystem, from: BusCycle, cycles: BusCycle) -> Vec<Completion> {
        let mut done = Vec::new();
        for now in from..from + cycles {
            done.extend(mem.tick(now));
        }
        done
    }

    #[test]
    fn single_read_completes_with_miss_latency() {
        let cfg = DramConfig::ddr3_1600_paper();
        let t = cfg.timing.clone();
        let mut mem = MemorySystem::baseline(cfg, CtrlConfig::default());
        mem.try_enqueue(read(0x10000), 0).unwrap();
        let done = run(&mut mem, 0, 100);
        assert_eq!(done.len(), 1);
        // ACT at 0, RD at tRCD, data at tRCD + tCL + tBL.
        assert_eq!(done[0].at, u64::from(t.trcd + t.tcl + t.tbl));
        let s = mem.stats();
        assert_eq!(s.row_misses, 1);
        assert_eq!(s.row_hits, 0);
    }

    #[test]
    fn second_read_same_row_is_a_row_hit() {
        let cfg = DramConfig::ddr3_1600_paper();
        let mut mem = MemorySystem::baseline(cfg, CtrlConfig::default());
        mem.try_enqueue(read(0x10000), 0).unwrap();
        mem.try_enqueue(read(0x10040), 0).unwrap();
        let done = run(&mut mem, 0, 200);
        assert_eq!(done.len(), 2);
        let s = mem.stats();
        assert_eq!(s.row_misses, 1);
        assert_eq!(s.row_hits, 1);
    }

    #[test]
    fn conflicting_rows_cause_precharge_and_conflict_stat() {
        let cfg = DramConfig::ddr3_1600_paper();
        let row_stride =
            cfg.org.row_bytes() * u64::from(cfg.org.banks) * u64::from(cfg.org.channels);
        let mut mem = MemorySystem::baseline(cfg, CtrlConfig::default());
        // Same bank, different rows.
        mem.try_enqueue(read(0), 0).unwrap();
        mem.try_enqueue(read(row_stride), 0).unwrap();
        let done = run(&mut mem, 0, 400);
        assert_eq!(done.len(), 2);
        let s = mem.stats();
        assert_eq!(s.row_misses, 1);
        assert_eq!(s.row_conflicts, 1);
    }

    #[test]
    fn writes_are_drained_and_counted() {
        let cfg = DramConfig::ddr3_1600_paper();
        let mut mem = MemorySystem::baseline(cfg, CtrlConfig::default());
        for i in 0..4 {
            mem.try_enqueue(write(i * 64), 0).unwrap();
        }
        run(&mut mem, 0, 500);
        assert!(mem.is_idle());
        assert_eq!(mem.stats().writes, 4);
        assert!(mem.device().stats().writes >= 4);
    }

    #[test]
    fn read_forwards_from_queued_write() {
        let cfg = DramConfig::ddr3_1600_paper();
        let mut mem = MemorySystem::baseline(cfg, CtrlConfig::default());
        mem.try_enqueue(write(0x40), 0).unwrap();
        mem.try_enqueue(read(0x40), 0).unwrap();
        let done = run(&mut mem, 0, 10);
        assert_eq!(done.len(), 1);
        assert_eq!(mem.stats().forwarded_reads, 1);
    }

    #[test]
    fn refresh_is_issued_on_schedule() {
        let cfg = DramConfig::ddr3_1600_paper();
        let trefi = u64::from(cfg.timing.trefi);
        let mut mem = MemorySystem::baseline(cfg, CtrlConfig::default());
        run(&mut mem, 0, trefi * 3 + 100);
        assert!(mem.stats().refreshes >= 2);
    }

    #[test]
    fn postponed_refresh_defers_under_load_then_catches_up() {
        let cfg = DramConfig::ddr3_1600_paper();
        let trefi = u64::from(cfg.timing.trefi);
        let strict_cfg = CtrlConfig {
            max_postponed_refs: 0,
            ..CtrlConfig::default()
        };
        let lazy_cfg = CtrlConfig {
            max_postponed_refs: 8,
            ..CtrlConfig::default()
        };

        // Keep the controller busy across several tREFI periods.
        let run_busy = |ctrl_cfg: CtrlConfig| {
            let mut mem = MemorySystem::baseline(DramConfig::ddr3_1600_paper(), ctrl_cfg);
            let mut next_addr = 0u64;
            let horizon = trefi * 4;
            let mut first_ref_at = None;
            for now in 0..horizon {
                // Keep ~8 reads queued at all times.
                while mem.queued_requests() < 8 {
                    mem.try_enqueue(read(next_addr), now);
                    next_addr += 64 * 129; // hop rows/banks
                }
                let before = mem.stats().refreshes;
                mem.tick(now);
                if first_ref_at.is_none() && mem.stats().refreshes > before {
                    first_ref_at = Some(now);
                }
            }
            (first_ref_at, mem.stats().refreshes)
        };

        let (strict_first, strict_refs) = run_busy(strict_cfg);
        let (lazy_first, _lazy_refs) = run_busy(lazy_cfg);
        // Strict refreshes near the first tREFI; the postponing controller
        // defers its first REF under load.
        let sf = strict_first.expect("strict controller must refresh");
        assert!(sf < trefi + trefi / 2, "strict first REF at {sf}");
        // None means the lazy controller postponed beyond the horizon.
        if let Some(lf) = lazy_first {
            assert!(lf > sf, "lazy first REF at {lf} vs strict {sf}");
        }
        assert!(strict_refs >= 3);
    }

    #[test]
    fn queue_fills_and_rejects() {
        let cfg = DramConfig::ddr3_1600_paper();
        let mut mem = MemorySystem::baseline(cfg, CtrlConfig::default());
        let mut accepted = 0;
        for i in 0..100 {
            if mem.try_enqueue(read(i * 64), 0).is_some() {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 64);
        assert!(!mem.can_accept(0, AccessKind::Read));
    }

    #[test]
    fn chargecache_system_reduces_reactivations() {
        let cfg = DramConfig::ddr3_1600_paper();
        let mut mem = MemorySystem::from_spec(
            cfg.clone(),
            CtrlConfig::default(),
            &MechanismSpec::chargecache(),
            1,
        )
        .expect("built-in spec");
        let row_stride = cfg.org.row_bytes() * u64::from(cfg.org.banks);
        // Ping-pong between two rows of the same bank: every activation
        // after the first round should hit in the HCRAC.
        let mut now = 0;
        for round in 0..6 {
            for r in 0..2u64 {
                mem.try_enqueue(read(r * row_stride + round * 64), now)
                    .unwrap();
            }
            for _ in 0..300 {
                mem.tick(now);
                now += 1;
            }
        }
        // Each round after the first re-activates exactly one recently
        // precharged row (the other is still open and served as a row hit).
        let m = mem.mech_report();
        assert!(m.activates() >= 7, "activates = {}", m.activates());
        assert!(
            m.reduced_activates() >= m.activates() - 2,
            "reduced {} of {}",
            m.reduced_activates(),
            m.activates()
        );
        let rltl = mem.rltl_report();
        assert!(
            rltl.rltl_fraction[0] > 0.6,
            "0.125ms-RLTL = {}",
            rltl.rltl_fraction[0]
        );
    }
}
