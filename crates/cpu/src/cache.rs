//! Shared last-level cache: set-associative, LRU, write-back,
//! write-allocate (without fetch for stores).

use fasthash::codec::{load_slice, put_slice, CodecResult, State};
use fasthash::impl_state;

/// LLC configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Cache-line size in bytes.
    pub line_bytes: u64,
    /// Hit latency in CPU cycles.
    pub hit_latency: u64,
}

impl LlcConfig {
    /// The paper's Table 1 LLC: 4 MB, 16-way, 64 B lines.
    pub fn paper_4mb() -> Self {
        Self {
            capacity_bytes: 4 << 20,
            ways: 16,
            line_bytes: 64,
            hit_latency: 20,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.capacity_bytes / (self.ways as u64 * self.line_bytes)) as usize
    }

    /// Validates geometry.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated requirement.
    pub fn validate(&self) -> Result<(), String> {
        if self.ways == 0 || self.line_bytes == 0 || self.capacity_bytes == 0 {
            return Err("all dimensions must be non-zero".into());
        }
        if !self.line_bytes.is_power_of_two() {
            return Err("line size must be a power of two".into());
        }
        if !self
            .capacity_bytes
            .is_multiple_of(self.ways as u64 * self.line_bytes)
        {
            return Err("capacity must divide evenly into sets".into());
        }
        if !(self.sets() as u64).is_power_of_two() {
            return Err("set count must be a power of two".into());
        }
        Ok(())
    }
}

impl Default for LlcConfig {
    fn default() -> Self {
        Self::paper_4mb()
    }
}

/// LLC statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LlcStats {
    /// Load lookups.
    pub read_accesses: u64,
    /// Load lookups that hit.
    pub read_hits: u64,
    /// Store lookups.
    pub write_accesses: u64,
    /// Store lookups that hit.
    pub write_hits: u64,
    /// Lines filled (from memory).
    pub fills: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
}

impl LlcStats {
    /// Overall hit rate.
    pub fn hit_rate(&self) -> f64 {
        let acc = self.read_accesses + self.write_accesses;
        if acc == 0 {
            0.0
        } else {
            (self.read_hits + self.write_hits) as f64 / acc as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    stamp: u64,
}

/// Outcome of an LLC access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LlcOutcome {
    /// Line present.
    Hit,
    /// Line absent; the caller must fetch it (loads) or it was allocated
    /// in place (stores), evicting `writeback` if dirty.
    Miss {
        /// Dirty line address evicted by an in-place allocation.
        writeback: Option<u64>,
    },
}

/// The shared last-level cache.
#[derive(Debug, Clone)]
pub struct Llc {
    cfg: LlcConfig,
    sets: usize,
    /// `log2(line_bytes)` — lines are located by shift, not division.
    line_shift: u32,
    lines: Vec<Line>,
    stamp: u64,
    stats: LlcStats,
}

impl Llc {
    /// Creates an LLC.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`LlcConfig::validate`].
    pub fn new(cfg: LlcConfig) -> Self {
        cfg.validate().expect("invalid LLC configuration");
        let sets = cfg.sets();
        Self {
            line_shift: cfg.line_bytes.trailing_zeros(),
            cfg,
            sets,
            lines: vec![Line::default(); sets * cfg.ways],
            stamp: 0,
            stats: LlcStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &LlcConfig {
        &self.cfg
    }

    /// Statistics.
    pub fn stats(&self) -> &LlcStats {
        &self.stats
    }

    /// Line-aligns an address.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line_bytes - 1)
    }

    /// Load lookup. On a miss the caller fetches the line and later calls
    /// [`Self::fill`]; nothing is allocated here.
    pub fn read(&mut self, addr: u64) -> LlcOutcome {
        self.stats.read_accesses += 1;
        if self.touch(addr, false) {
            self.stats.read_hits += 1;
            LlcOutcome::Hit
        } else {
            LlcOutcome::Miss { writeback: None }
        }
    }

    /// Store lookup. Hits mark the line dirty; misses allocate the line in
    /// place (write-validate), possibly evicting a dirty victim.
    pub fn write(&mut self, addr: u64) -> LlcOutcome {
        self.stats.write_accesses += 1;
        if self.touch(addr, true) {
            self.stats.write_hits += 1;
            return LlcOutcome::Hit;
        }
        let wb = self.allocate(addr, true);
        LlcOutcome::Miss { writeback: wb }
    }

    /// Installs a fetched line (load-miss fill); returns the evicted dirty
    /// line's address, if any.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        self.stats.fills += 1;
        if self.probe(addr) {
            // Already filled by a racing store or merge; nothing to evict.
            return None;
        }
        self.allocate(addr, false)
    }

    /// True if the line is present (no LRU update, no stats).
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        self.set_lines(set).iter().any(|l| l.valid && l.tag == tag)
    }

    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let set = (line as usize) & (self.sets - 1);
        (set, line)
    }

    fn set_lines(&self, set: usize) -> &[Line] {
        &self.lines[set * self.cfg.ways..(set + 1) * self.cfg.ways]
    }

    /// LRU-touches the line if present; optionally marks dirty.
    fn touch(&mut self, addr: u64, dirty: bool) -> bool {
        let (set, tag) = self.locate(addr);
        self.stamp += 1;
        let stamp = self.stamp;
        let ways = self.cfg.ways;
        let slice = &mut self.lines[set * ways..(set + 1) * ways];
        if let Some(l) = slice.iter_mut().find(|l| l.valid && l.tag == tag) {
            l.stamp = stamp;
            l.dirty |= dirty;
            true
        } else {
            false
        }
    }

    /// Allocates a line, returning the evicted dirty address, if any.
    fn allocate(&mut self, addr: u64, dirty: bool) -> Option<u64> {
        let (set, tag) = self.locate(addr);
        self.stamp += 1;
        let stamp = self.stamp;
        let ways = self.cfg.ways;

        let slice = &mut self.lines[set * ways..(set + 1) * ways];
        let victim = match slice.iter_mut().find(|l| !l.valid) {
            Some(v) => v,
            None => slice.iter_mut().min_by_key(|l| l.stamp).expect("ways > 0"),
        };
        let wb = if victim.valid && victim.dirty {
            Some(victim.tag << self.line_shift)
        } else {
            None
        };
        *victim = Line {
            tag,
            valid: true,
            dirty,
            stamp,
        };
        if wb.is_some() {
            self.stats.writebacks += 1;
        }
        wb
    }
}

impl_state!(Line {
    tag,
    valid,
    dirty,
    stamp
});

impl_state!(LlcStats {
    read_accesses,
    read_hits,
    write_accesses,
    write_hits,
    fills,
    writebacks
});

/// The cache's complete mutable state (checkpoint support). Geometry is
/// not serialized — it is reconstructed from the config.
impl State for Llc {
    fn put(&self, out: &mut Vec<u8>) {
        put_slice(out, &self.lines);
        self.stamp.put(out);
        self.stats.put(out);
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        load_slice(input, &mut self.lines, |n, have| {
            format!("llc geometry mismatch: checkpoint has {n} lines, cache has {have}")
        })?;
        self.stamp.load(input)?;
        self.stats.load(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Llc {
        // 8 KiB, 2-way, 64 B lines → 64 sets.
        Llc::new(LlcConfig {
            capacity_bytes: 8 << 10,
            ways: 2,
            line_bytes: 64,
            hit_latency: 20,
        })
    }

    #[test]
    fn paper_config_geometry() {
        let cfg = LlcConfig::paper_4mb();
        cfg.validate().unwrap();
        assert_eq!(cfg.sets(), 4096);
    }

    #[test]
    fn read_miss_then_fill_then_hit() {
        let mut c = small();
        assert_eq!(c.read(0x1000), LlcOutcome::Miss { writeback: None });
        assert_eq!(c.fill(0x1000), None);
        assert_eq!(c.read(0x1000), LlcOutcome::Hit);
        assert_eq!(c.stats().read_hits, 1);
        assert_eq!(c.stats().fills, 1);
    }

    #[test]
    fn write_allocates_dirty_and_evicts_dirty_victim() {
        let mut c = small();
        // Three lines in the same set (set stride = 64 sets × 64 B = 4096).
        let a = 0x0000;
        let b = 0x1000;
        let d = 0x2000;
        assert_eq!(c.write(a), LlcOutcome::Miss { writeback: None });
        assert_eq!(c.write(b), LlcOutcome::Miss { writeback: None });
        // Set full of dirty lines; next write evicts LRU (a).
        match c.write(d) {
            LlcOutcome::Miss { writeback } => assert_eq!(writeback, Some(a)),
            o => panic!("expected miss, got {o:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn fill_evicts_clean_silently() {
        let mut c = small();
        c.read(0x0000);
        c.fill(0x0000);
        c.read(0x1000);
        c.fill(0x1000);
        // Third fill in the same set evicts the clean LRU line (0x0000).
        assert_eq!(c.fill(0x2000), None);
        assert!(!c.probe(0x0000));
        assert!(c.probe(0x1000));
        assert!(c.probe(0x2000));
    }

    #[test]
    fn lru_respects_recency() {
        let mut c = small();
        c.fill(0x0000);
        c.fill(0x1000);
        c.read(0x0000); // make 0x1000 the LRU
        c.fill(0x2000);
        assert!(c.probe(0x0000));
        assert!(!c.probe(0x1000));
    }

    #[test]
    fn double_fill_is_idempotent() {
        let mut c = small();
        c.fill(0x1000);
        assert_eq!(c.fill(0x1000), None);
        assert!(c.probe(0x1000));
    }

    #[test]
    fn line_alignment() {
        let c = small();
        assert_eq!(c.line_of(0x1234), 0x1200);
    }

    #[test]
    #[should_panic(expected = "invalid LLC configuration")]
    fn bad_geometry_panics() {
        Llc::new(LlcConfig {
            capacity_bytes: 1000,
            ways: 3,
            line_bytes: 64,
            hit_latency: 20,
        });
    }
}
