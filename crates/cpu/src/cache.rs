//! Shared last-level cache: set-associative, LRU, write-back,
//! write-allocate (without fetch for stores).

use fasthash::codec::{
    put_u32, put_usize, take_bool, take_len, take_u32, take_u64, take_usize, CodecResult, State,
};
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
        if self.line_bytes < 2 {
            // A line's tag keeps its dirty flag in the top bit, which a
            // line number is free of only when lines span two bytes.
            return Err("line size must be at least 2 bytes".into());
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

/// One cache line in 16 bytes. The line is valid iff `stamp` (its LRU
/// time) is non-zero: the stamp counter is bumped before every use, so
/// no touched line carries 0. The dirty flag is the tag's top bit
/// ([`DIRTY`]), which no line number reaches.
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    /// Line number (`addr >> line_shift`), or'ed with [`DIRTY`].
    tag: u64,
    /// LRU time of the last touch; 0 marks an empty way.
    stamp: u64,
}

/// The dirty flag's bit in [`Line::tag`].
const DIRTY: u64 = 1 << 63;

impl Line {
    fn valid(&self) -> bool {
        self.stamp != 0
    }

    fn dirty(&self) -> bool {
        self.tag & DIRTY != 0
    }

    /// The line number, without the dirty flag.
    fn line(&self) -> u64 {
        self.tag & !DIRTY
    }

    /// True if this way holds line `tag`.
    fn holds(&self, tag: u64) -> bool {
        self.valid() && self.line() == tag
    }
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
        self.set_lines(set).iter().any(|l| l.holds(tag))
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
        if let Some(l) = slice.iter_mut().find(|l| l.holds(tag)) {
            l.stamp = stamp;
            if dirty {
                l.tag |= DIRTY;
            }
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
        let victim = match slice.iter_mut().find(|l| !l.valid()) {
            Some(v) => v,
            None => slice.iter_mut().min_by_key(|l| l.stamp).expect("ways > 0"),
        };
        let wb = if victim.valid() && victim.dirty() {
            Some(victim.line() << self.line_shift)
        } else {
            None
        };
        *victim = Line {
            tag: if dirty { tag | DIRTY } else { tag },
            stamp,
        };
        if wb.is_some() {
            self.stats.writebacks += 1;
        }
        wb
    }
}

/// A valid line on the wire, as `(tag, dirty, stamp)`: `valid` is
/// implied by its position. Decoding rejects a stamp of 0 (an empty way
/// listed as valid) and a tag that overlaps the dirty bit.
impl State for Line {
    const MIN_BYTES: usize = 8 + 1 + 8;

    fn put(&self, out: &mut Vec<u8>) {
        self.line().put(out);
        self.dirty().put(out);
        self.stamp.put(out);
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        let tag = take_u64(input, "llc line tag")?;
        let dirty = take_bool(input, "llc line dirty flag")?;
        let stamp = take_u64(input, "llc line stamp")?;
        if tag & DIRTY != 0 {
            return Err(format!("llc line tag {tag:#x} out of range"));
        }
        if stamp == 0 {
            return Err("llc line listed with stamp 0".to_string());
        }
        *self = Line {
            tag: if dirty { tag | DIRTY } else { tag },
            stamp,
        };
        Ok(())
    }
}

impl_state!(LlcStats {
    read_accesses,
    read_hits,
    write_accesses,
    write_hits,
    fills,
    writebacks
});

/// Encoded size of a non-empty set with one line: index, count, line.
const MIN_SET_BYTES: usize = 4 + 8 + <Line as State>::MIN_BYTES;

/// The cache's complete mutable state (checkpoint support). Geometry is
/// not serialized — it is reconstructed from the config.
///
/// Lines never become invalid and `allocate` takes the first
/// invalid way, so each set's valid lines are a prefix of its ways. Only
/// non-empty sets are written, in ascending order, each as its `u32`
/// index, its valid-way count and those ways' lines; every other line
/// decodes to `Line::default()`, exactly what it was.
impl State for Llc {
    fn put(&self, out: &mut Vec<u8>) {
        let ways = self.cfg.ways;
        put_usize(out, self.lines.len());
        let sets = self.lines.chunks_exact(ways);
        put_usize(out, sets.clone().filter(|s| s[0].valid()).count());
        for (index, set) in sets.enumerate() {
            let n = set.iter().take_while(|l| l.valid()).count();
            debug_assert!(!set[n..].iter().any(Line::valid));
            if n > 0 {
                put_u32(out, u32::try_from(index).expect("set index fits u32"));
                put_usize(out, n);
                set[..n].iter().for_each(|l| l.put(out));
            }
        }
        self.stamp.put(out);
        self.stats.put(out);
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        let n = take_usize(input, "llc lines")?;
        if n != self.lines.len() {
            return Err(format!(
                "llc geometry mismatch: checkpoint has {n} lines, cache has {}",
                self.lines.len()
            ));
        }
        self.lines.fill(Line::default());
        let ways = self.cfg.ways;
        let mut next = 0;
        for _ in 0..take_len(input, MIN_SET_BYTES, "llc sets")? {
            let index = take_u32(input, "llc set index")? as usize;
            if index < next || index >= self.sets {
                return Err(format!("llc set index {index} out of order or range"));
            }
            next = index + 1;
            let n = take_len(input, Line::MIN_BYTES, "llc set lines")?;
            if n == 0 || n > ways {
                return Err(format!("llc set {index} has {n} lines of {ways} ways"));
            }
            for line in &mut self.lines[index * ways..index * ways + n] {
                line.load(input)?;
            }
        }
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

    fn encode(c: &Llc) -> Vec<u8> {
        let mut out = Vec::new();
        c.put(&mut out);
        out
    }

    /// Drives `c` with `ops` pseudo-random accesses over four times its
    /// capacity: reads (filled on a miss) and writes. Returns each
    /// access's outcome with the eviction its fill caused.
    fn churn(c: &mut Llc, ops: usize, seed: u64) -> Vec<(LlcOutcome, Option<u64>)> {
        let lines = c.config().capacity_bytes / c.config().line_bytes;
        let mut x = seed;
        (0..ops)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let addr = ((x >> 20) % (4 * lines)) * c.config().line_bytes;
                if x >> 63 == 0 {
                    (c.write(addr), None)
                } else {
                    let outcome = c.read(addr);
                    let evicted = match outcome {
                        LlcOutcome::Miss { .. } => c.fill(addr),
                        LlcOutcome::Hit => None,
                    };
                    (outcome, evicted)
                }
            })
            .collect()
    }

    #[test]
    fn state_round_trips_at_every_fill_level() {
        let sixteen_way = LlcConfig {
            capacity_bytes: 64 << 10,
            ways: 16,
            line_bytes: 64,
            hit_latency: 20,
        };
        for cfg in [*small().config(), sixteen_way] {
            let lines = cfg.sets() * cfg.ways;
            // Empty, partial, and full with dirty evictions.
            for ops in [0, 7, 20 * lines] {
                let mut src = Llc::new(cfg);
                churn(&mut src, ops, 1);
                if ops > lines {
                    assert!(src.lines.iter().all(Line::valid));
                    assert!(src.stats().writebacks > 0);
                }
                let bytes = encode(&src);
                // The receiver holds other lines: full under a sparse
                // source, half full under a full one.
                let other = if ops > lines { lines / 2 } else { 5 * lines };
                let mut dst = Llc::new(cfg);
                churn(&mut dst, other, 99);
                let mut cur = bytes.as_slice();
                dst.load(&mut cur).unwrap();
                assert!(cur.is_empty());
                assert_eq!(encode(&dst), bytes, "{cfg:?} after {ops} accesses");
                assert_eq!(churn(&mut dst, 3 * lines, 7), churn(&mut src, 3 * lines, 7));
                assert_eq!(dst.stats(), src.stats());
                assert_eq!(encode(&dst), encode(&src));
            }
        }
    }

    #[test]
    fn state_size_follows_valid_lines() {
        let mut c = Llc::new(LlcConfig::paper_4mb());
        let lines = c.lines.len() as u64;
        // Line count, set count, stamp and stats, then one set: index,
        // count and a 17-byte line.
        assert_eq!(encode(&c).len(), 8 + 8 + 8 + 48);
        c.fill(0x40);
        assert_eq!(encode(&c).len(), 8 + 8 + (4 + 8 + 17) + 8 + 48);
        // Full, with evictions: no larger than the dense layout.
        for i in 0..lines + 100 {
            c.write(i * 64);
        }
        assert!(c.lines.iter().all(Line::valid));
        assert!(encode(&c).len() <= 8 + 18 * lines as usize + 8 + 48);
    }

    #[test]
    fn corrupt_set_framing_is_rejected() {
        // `small()`: 64 sets of 2 ways.
        let payload = |sets: &[(u32, usize)]| {
            let mut out = Vec::new();
            put_usize(&mut out, 128);
            put_usize(&mut out, sets.len());
            for &(index, n) in sets {
                put_u32(&mut out, index);
                put_usize(&mut out, n);
                for tag in 0..n as u64 {
                    Line {
                        tag,
                        stamp: tag + 1,
                    }
                    .put(&mut out);
                }
            }
            5u64.put(&mut out);
            LlcStats::default().put(&mut out);
            out
        };
        let load = |bytes: Vec<u8>| small().load(&mut bytes.as_slice());
        load(payload(&[(3, 2), (63, 1)])).unwrap();
        for (sets, why) in [
            (&[(3, 3)][..], "count above ways"),
            (&[(3, 0)], "empty set"),
            (&[(64, 1)], "index out of range"),
            (&[(5, 1), (3, 1)], "index out of order"),
            (&[(5, 1), (5, 1)], "index repeated"),
        ] {
            assert!(load(payload(sets)).is_err(), "{why} decoded");
        }
        // A listed line must be valid (stamp ≠ 0) and its tag must leave
        // the dirty bit free.
        let mut zero_stamp = payload(&[(3, 1)]);
        zero_stamp[8 + 8 + 4 + 8 + 9..][..8].fill(0);
        let err = load(zero_stamp).unwrap_err();
        assert!(err.contains("stamp 0"), "{err}");
        let mut wide_tag = payload(&[(3, 1)]);
        wide_tag[8 + 8 + 4 + 8 + 7] = 0x80;
        assert!(load(wide_tag).unwrap_err().contains("out of range"));
        // The geometry check stays.
        let err = Llc::new(LlcConfig::paper_4mb())
            .load(&mut payload(&[]).as_slice())
            .unwrap_err();
        assert!(err.contains("geometry mismatch"), "{err}");
    }

    #[test]
    fn line_is_sixteen_bytes_and_keeps_dirty_in_the_tag() {
        assert_eq!(std::mem::size_of::<Line>(), 16);
        let mut c = small();
        c.write(0x1000);
        c.fill(0x2000);
        let (set, tag) = c.locate(0x1000);
        let line = c.set_lines(set).iter().find(|l| l.holds(tag)).unwrap();
        assert!(line.dirty() && line.line() == tag);
        let (set, tag) = c.locate(0x2000);
        let line = c.set_lines(set).iter().find(|l| l.holds(tag)).unwrap();
        assert!(!line.dirty() && line.line() == tag);
        let one_byte = LlcConfig {
            line_bytes: 1,
            ..*c.config()
        };
        assert!(one_byte.validate().unwrap_err().contains("at least 2"));
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
