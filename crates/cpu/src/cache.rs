//! Shared last-level cache: set-associative, LRU, write-back,
//! write-allocate (without fetch for stores).

use fasthash::codec::{
    put_bool, put_u32, put_u64, put_u8, put_usize, take_bool, take_len, take_u32, take_u64,
    take_u8, take_usize, CodecResult, State,
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

    /// `log2` of the address range the cache can hold: a way's 32-bit
    /// tag keeps 30 bits of an address above its set index and line
    /// offset, so addresses must lie below `2^(30 + log2(capacity / ways))`
    /// bytes (2^48 B for the paper LLC).
    pub fn addr_bits(&self) -> u32 {
        TAG_BITS + (self.capacity_bytes / self.ways as u64).trailing_zeros()
    }

    /// Validates geometry. The address range ([`Self::addr_bits`])
    /// follows from it; an access beyond that range panics.
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
        if self.ways > 256 {
            // Recency ranks are bytes.
            return Err("at most 256 ways".into());
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

/// A way's tag: the line number above the set index (`line >> log2(sets)`,
/// the set supplying the low bits) or'ed with [`VALID`], and with
/// [`DIRTY`] once written. An empty way's tag is 0, which no valid line
/// matches.
const DIRTY: u32 = 1 << 31;

/// The valid flag's bit in a way's tag.
const VALID: u32 = 1 << 30;

/// Bits of a tag below the flags: the address bits above the set index
/// a way can hold.
const TAG_BITS: u32 = 30;

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
///
/// Ways are stored as two parallel arrays, 5 bytes a way: the 32-bit
/// tag (the line number above the set index, which the way's set
/// supplies, with the valid and dirty flags in its top two bits) and a
/// recency rank within the set (0 = most recently used). Each set's ranks are a permutation of `0..ways`, and
/// its empty ways rank below every valid way, the first empty way
/// lowest. So the way ranked `ways - 1` is the victim: the first empty
/// way while one is left, else the least recently used.
#[derive(Debug, Clone)]
pub struct Llc {
    cfg: LlcConfig,
    sets: usize,
    /// `log2(line_bytes)` — lines are located by shift, not division.
    line_shift: u32,
    /// `log2(sets)`: a line's bits above it form its tag.
    set_shift: u32,
    tags: Vec<u32>,
    ranks: Vec<u8>,
    stats: LlcStats,
}

/// The ranks of an empty set: way `i` ranks `ways - 1 - i`, so the
/// first way is the first victim.
fn empty_ranks(set: &mut [u8]) {
    let ways = set.len();
    for (i, r) in set.iter_mut().enumerate() {
        *r = (ways - 1 - i) as u8;
    }
}

/// Makes way `w` of a set its most recently used: every way ranked
/// above it (more recent) moves down one.
#[inline]
fn promote(ranks: &mut [u8], w: usize) {
    let r = ranks[w];
    for x in ranks.iter_mut() {
        *x += u8::from(*x < r);
    }
    ranks[w] = 0;
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
        let mut ranks = vec![0; sets * cfg.ways];
        ranks.chunks_exact_mut(cfg.ways).for_each(empty_ranks);
        Self {
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            cfg,
            sets,
            tags: vec![0; sets * cfg.ways],
            ranks,
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
        let (set, key) = self.locate(addr);
        self.tags[set..set + self.cfg.ways]
            .iter()
            .any(|&t| t & !DIRTY == key)
    }

    /// The first way of the set holding `addr`, and the tag a valid
    /// line of `addr` carries without its dirty flag.
    ///
    /// # Panics
    ///
    /// Panics if `addr` lies beyond [`LlcConfig::addr_bits`].
    #[inline]
    fn locate(&self, addr: u64) -> (usize, u32) {
        let line = addr >> self.line_shift;
        let set = (line as usize) & (self.sets - 1);
        let tag = line >> self.set_shift;
        if tag >= 1 << TAG_BITS {
            self.out_of_range(addr);
        }
        (set * self.cfg.ways, tag as u32 | VALID)
    }

    #[cold]
    #[inline(never)]
    fn out_of_range(&self, addr: u64) -> ! {
        panic!(
            "address {addr:#x} is beyond the LLC's 2^{} B address range",
            self.cfg.addr_bits()
        )
    }

    /// The line number a valid way of set `set` holds under `tag`.
    fn tag_line(&self, set: u64, tag: u32) -> u64 {
        (u64::from(tag & !(DIRTY | VALID)) << self.set_shift) | set
    }

    /// LRU-touches the line if present; optionally marks dirty.
    fn touch(&mut self, addr: u64, dirty: bool) -> bool {
        let (set, key) = self.locate(addr);
        let ways = self.cfg.ways;
        let tags = &mut self.tags[set..set + ways];
        let Some(w) = tags.iter().position(|&t| t & !DIRTY == key) else {
            return false;
        };
        if dirty {
            tags[w] |= DIRTY;
        }
        promote(&mut self.ranks[set..set + ways], w);
        true
    }

    /// Allocates a line, returning the evicted dirty address, if any.
    fn allocate(&mut self, addr: u64, dirty: bool) -> Option<u64> {
        let (set, key) = self.locate(addr);
        let ways = self.cfg.ways;
        let ranks = &mut self.ranks[set..set + ways];
        let lru = (ways - 1) as u8;
        let w = ranks
            .iter()
            .position(|&r| r == lru)
            .expect("a set's ranks are a permutation of its ways");
        promote(ranks, w);
        let old = std::mem::replace(
            &mut self.tags[set + w],
            if dirty { key | DIRTY } else { key },
        );
        if old & DIRTY == 0 {
            return None;
        }
        self.stats.writebacks += 1;
        // The victim shares its set, the low bits of its line, with `addr`.
        let set = (addr >> self.line_shift) & (self.sets as u64 - 1);
        Some(self.tag_line(set, old) << self.line_shift)
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

/// Encoded size of one valid way: line number, dirty flag, rank.
const WAY_BYTES: usize = 8 + 1 + 1;

/// Encoded size of a non-empty set with one line: index, count, way.
const MIN_SET_BYTES: usize = 4 + 8 + WAY_BYTES;

/// The cache's complete mutable state (checkpoint support). Geometry is
/// not serialized — it is reconstructed from the config.
///
/// Lines never become invalid and allocation takes the first empty way,
/// so each set's valid lines are a prefix of its ways, ranked `0..n`.
/// Only non-empty sets are written, in ascending order, each as its
/// `u32` index, its valid-way count `n` and those ways' `(line number,
/// dirty, rank)`. Every other way decodes to what it was: tag 0, and
/// empty way `i` ranked `ways - 1 - i + n`. Decoding rejects a line
/// number beyond the address range, a line whose low bits name another
/// set than the one it is listed under, and ranks that are not a
/// permutation of `0..n`.
impl State for Llc {
    fn put(&self, out: &mut Vec<u8>) {
        let ways = self.cfg.ways;
        put_usize(out, self.tags.len());
        let sets = self
            .tags
            .chunks_exact(ways)
            .zip(self.ranks.chunks_exact(ways));
        put_usize(out, sets.clone().filter(|(t, _)| t[0] != 0).count());
        for (index, (tags, ranks)) in sets.enumerate() {
            let n = tags.iter().take_while(|&&t| t != 0).count();
            debug_assert!(tags[n..].iter().all(|&t| t == 0));
            if n > 0 {
                put_u32(out, u32::try_from(index).expect("set index fits u32"));
                put_usize(out, n);
                for (&tag, &rank) in tags[..n].iter().zip(ranks) {
                    put_u64(out, self.tag_line(index as u64, tag));
                    put_bool(out, tag & DIRTY != 0);
                    put_u8(out, rank);
                }
            }
        }
        self.stats.put(out);
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        let n = take_usize(input, "llc lines")?;
        if n != self.tags.len() {
            return Err(format!(
                "llc geometry mismatch: checkpoint has {n} lines, cache has {}",
                self.tags.len()
            ));
        }
        let ways = self.cfg.ways;
        self.tags.fill(0);
        self.ranks.chunks_exact_mut(ways).for_each(empty_ranks);
        let mut next = 0;
        for _ in 0..take_len(input, MIN_SET_BYTES, "llc sets")? {
            let index = take_u32(input, "llc set index")? as usize;
            if index < next || index >= self.sets {
                return Err(format!("llc set index {index} out of order or range"));
            }
            next = index + 1;
            let n = take_len(input, WAY_BYTES, "llc set lines")?;
            if n == 0 || n > ways {
                return Err(format!("llc set {index} has {n} lines of {ways} ways"));
            }
            let set = index * ways;
            let mut seen = [false; 256];
            for w in set..set + n {
                let line = take_u64(input, "llc line tag")?;
                let dirty = take_bool(input, "llc line dirty flag")?;
                let rank = take_u8(input, "llc line rank")?;
                let tag = line >> self.set_shift;
                if tag >= 1 << TAG_BITS {
                    return Err(format!("llc line tag {line:#x} out of range"));
                }
                if line as usize & (self.sets - 1) != index {
                    return Err(format!("llc line {line:#x} filed under set {index}"));
                }
                if usize::from(rank) >= n || std::mem::replace(&mut seen[usize::from(rank)], true) {
                    return Err(format!("llc set {index} ranks are not a permutation"));
                }
                self.tags[w] = tag as u32 | VALID | if dirty { DIRTY } else { 0 };
                self.ranks[w] = rank;
            }
            for (i, r) in self.ranks[set + n..set + ways].iter_mut().enumerate() {
                *r = (ways - 1 - i) as u8;
            }
        }
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
                    assert!(src.tags.iter().all(|&t| t != 0));
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
        let lines = c.tags.len() as u64;
        // Line count, set count and stats, then one set: index, count
        // and a 10-byte way.
        assert_eq!(encode(&c).len(), 8 + 8 + 48);
        c.fill(0x40);
        assert_eq!(encode(&c).len(), 8 + 8 + (4 + 8 + 10) + 48);
        // Full, with evictions: no larger than the dense layout.
        for i in 0..lines + 100 {
            c.write(i * 64);
        }
        assert!(c.tags.iter().all(|&t| t != 0));
        assert!(encode(&c).len() <= 8 + 8 + 11 * lines as usize + 48);
    }

    /// A checkpoint of `small()` (64 sets of 2 ways) listing `sets` as
    /// `(index, valid ways)`: way `w` of set `index` holds line
    /// `line(index, w)`, ranked `w`.
    fn small_payload(sets: &[(u32, usize)], line: impl Fn(u32, u8) -> u64) -> Vec<u8> {
        let mut out = Vec::new();
        put_usize(&mut out, 128);
        put_usize(&mut out, sets.len());
        for &(index, n) in sets {
            put_u32(&mut out, index);
            put_usize(&mut out, n);
            for w in 0..n as u8 {
                put_u64(&mut out, line(index, w));
                put_bool(&mut out, false);
                put_u8(&mut out, w);
            }
        }
        LlcStats::default().put(&mut out);
        out
    }

    /// Line `w` of set `index` in `small()`: its low 6 bits are the set.
    fn in_set(index: u32, w: u8) -> u64 {
        u64::from(w) << 6 | u64::from(index)
    }

    fn load_small(bytes: Vec<u8>) -> CodecResult<()> {
        small().load(&mut bytes.as_slice())
    }

    #[test]
    fn corrupt_set_framing_is_rejected() {
        let payload = |sets: &[(u32, usize)]| small_payload(sets, in_set);
        load_small(payload(&[(3, 2), (63, 1)])).unwrap();
        for (sets, why) in [
            (&[(3, 3)][..], "count above ways"),
            (&[(3, 0)], "empty set"),
            (&[(64, 1)], "index out of range"),
            (&[(5, 1), (3, 1)], "index out of order"),
            (&[(5, 1), (5, 1)], "index repeated"),
        ] {
            assert!(load_small(payload(sets)).is_err(), "{why} decoded");
        }
        // A set's ranks must be a permutation of its valid ways, and a
        // line must lie in the address range.
        const WAY: usize = 8 + 8 + 4 + 8;
        for (rank, why) in [(2, "rank past the valid ways"), (0, "rank repeated")] {
            let mut bad = payload(&[(3, 2)]);
            bad[WAY + 10 + 9] = rank;
            let err = load_small(bad).unwrap_err();
            assert!(err.contains("not a permutation"), "{why}: {err}");
        }
        for high in [0x80, 0x40, 0x01] {
            let mut wide_tag = payload(&[(3, 1)]);
            wide_tag[WAY + 7] = high;
            assert!(load_small(wide_tag).unwrap_err().contains("out of range"));
        }
        // The geometry check stays.
        let err = Llc::new(LlcConfig::paper_4mb())
            .load(&mut payload(&[]).as_slice())
            .unwrap_err();
        assert!(err.contains("geometry mismatch"), "{err}");
    }

    #[test]
    fn a_line_filed_under_another_set_is_rejected() {
        // The set index is not stored in a way, so a line listed under
        // the wrong set would come back as another address.
        let of_set_5 = |_, w| in_set(5, w);
        let err = load_small(small_payload(&[(3, 1)], of_set_5)).unwrap_err();
        assert!(err.contains("filed under set 3"), "{err}");
        // Only the second way strays, into set 4.
        let err =
            load_small(small_payload(&[(3, 2)], |i, w| in_set(i + u32::from(w), 0))).unwrap_err();
        assert!(err.contains("filed under set 3"), "{err}");
        load_small(small_payload(&[(5, 2)], of_set_5)).unwrap();
    }

    #[test]
    fn ways_take_five_bytes_and_keep_their_flags_in_the_tag() {
        let paper = Llc::new(LlcConfig::paper_4mb());
        assert_eq!(
            size_of_val(&paper.tags[0]) + size_of_val(&paper.ranks[0]),
            5
        );
        assert_eq!(paper.tags.len() * 5, 320 << 10);
        assert_eq!(paper.config().addr_bits(), 48);
        let mut c = small();
        c.write(0x1000);
        c.fill(0x2000);
        for (addr, dirty) in [(0x1000, true), (0x2000, false)] {
            let (set, key) = c.locate(addr);
            let tag = c.tags[set..set + 2]
                .iter()
                .find(|&&t| t & !DIRTY == key)
                .unwrap();
            assert_eq!(tag & DIRTY != 0, dirty);
            // The tag holds the line above the set index, beside both
            // flags.
            assert_eq!(tag & !(DIRTY | VALID), (addr >> 12) as u32);
        }
        let too_wide = LlcConfig {
            ways: 512,
            capacity_bytes: 512 * 64,
            ..*c.config()
        };
        assert!(too_wide.validate().unwrap_err().contains("at most 256"));
        let widest = LlcConfig {
            ways: 256,
            capacity_bytes: 4 * 256 * 64,
            ..*c.config()
        };
        widest.validate().unwrap();
        // The tag's spare bits no longer depend on the line size: a
        // 2-byte line only narrows the address range.
        let narrow = LlcConfig {
            line_bytes: 2,
            ..*c.config()
        };
        narrow.validate().unwrap();
        assert_eq!(narrow.addr_bits(), 30 + 12);
    }

    #[test]
    fn victims_at_the_top_of_the_tag_range_keep_their_address() {
        for cfg in [*small().config(), LlcConfig::paper_4mb()] {
            // The last line of the range, and the stride between lines of
            // one set.
            let top = (1u64 << cfg.addr_bits()) - cfg.line_bytes;
            let span = cfg.capacity_bytes / cfg.ways as u64;
            let mut c = Llc::new(cfg);
            c.write(top);
            for i in 1..cfg.ways as u64 {
                c.fill(top - i * span);
            }
            // Evicted by a store miss, and by a fill after a checkpoint
            // round trip.
            let mut restored = Llc::new(cfg);
            restored.load(&mut encode(&c).as_slice()).unwrap();
            let next = top - cfg.ways as u64 * span;
            assert_eq!(
                c.write(next),
                LlcOutcome::Miss {
                    writeback: Some(top)
                },
                "{cfg:?}"
            );
            assert_eq!(restored.fill(next), Some(top), "{cfg:?}");
            assert!(!restored.probe(top) && restored.probe(next));
        }
    }

    #[test]
    #[should_panic(expected = "beyond the LLC's 2^48 B address range")]
    fn an_address_beyond_the_tag_range_panics_with_the_limit() {
        let mut c = Llc::new(LlcConfig::paper_4mb());
        c.read((1 << 48) - 64);
        c.read(1 << 48);
    }

    /// The LLC as it was before recency ranks: every way carries the
    /// 64-bit stamp of its last touch from a global counter (0 marks an
    /// empty way); the victim is the first empty way, else the way with
    /// the smallest stamp.
    struct StampLru {
        ways: usize,
        sets: u64,
        /// `(line, dirty, stamp)` per way.
        lines: Vec<(u64, bool, u64)>,
        stamp: u64,
        stats: LlcStats,
    }

    impl StampLru {
        fn new(cfg: LlcConfig) -> Self {
            Self {
                ways: cfg.ways,
                sets: cfg.sets() as u64,
                lines: vec![(0, false, 0); cfg.sets() * cfg.ways],
                stamp: 0,
                stats: LlcStats::default(),
            }
        }

        fn set(&mut self, line: u64) -> &mut [(u64, bool, u64)] {
            let set = (line % self.sets) as usize;
            &mut self.lines[set * self.ways..(set + 1) * self.ways]
        }

        fn touch(&mut self, line: u64, dirty: bool) -> bool {
            self.stamp += 1;
            let stamp = self.stamp;
            match self.set(line).iter_mut().find(|l| l.2 != 0 && l.0 == line) {
                Some(l) => {
                    l.2 = stamp;
                    l.1 |= dirty;
                    true
                }
                None => false,
            }
        }

        fn allocate(&mut self, line: u64, dirty: bool) -> Option<u64> {
            self.stamp += 1;
            let stamp = self.stamp;
            let set = self.set(line);
            let victim = match set.iter().position(|l| l.2 == 0) {
                Some(w) => w,
                None => (0..set.len()).min_by_key(|&w| set[w].2).unwrap(),
            };
            let old = std::mem::replace(&mut set[victim], (line, dirty, stamp));
            let wb = (old.2 != 0 && old.1).then_some(old.0 * 64);
            self.stats.writebacks += u64::from(wb.is_some());
            wb
        }

        fn probe(&mut self, line: u64) -> bool {
            self.set(line).iter().any(|l| l.2 != 0 && l.0 == line)
        }

        fn read(&mut self, line: u64) -> LlcOutcome {
            self.stats.read_accesses += 1;
            if self.touch(line, false) {
                self.stats.read_hits += 1;
                return LlcOutcome::Hit;
            }
            LlcOutcome::Miss { writeback: None }
        }

        fn write(&mut self, line: u64) -> LlcOutcome {
            self.stats.write_accesses += 1;
            if self.touch(line, true) {
                self.stats.write_hits += 1;
                return LlcOutcome::Hit;
            }
            LlcOutcome::Miss {
                writeback: self.allocate(line, true),
            }
        }

        fn fill(&mut self, line: u64) -> Option<u64> {
            self.stats.fills += 1;
            if self.probe(line) {
                return None;
            }
            self.allocate(line, false)
        }
    }

    /// What one operation of a random stream returned.
    #[derive(Debug, PartialEq)]
    enum Op {
        Access(LlcOutcome),
        Fill(Option<u64>),
        Probe(bool),
    }

    #[test]
    fn recency_ranks_replace_exactly_like_stamps() {
        for ways in [1, 2, 4, 16] {
            let cfg = LlcConfig {
                capacity_bytes: 8 * ways as u64 * 64,
                ways,
                line_bytes: 64,
                hit_latency: 20,
            };
            let mut x = 0x5eed ^ ways as u64;
            let mut next = |n: u64| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 33) % n
            };
            let mut llc = Llc::new(cfg);
            let mut stamps = StampLru::new(cfg);
            let lines = 3 * 8 * ways as u64;
            for i in 0..20_000 {
                if i == 7_000 {
                    // A checkpoint round trip into a cache holding
                    // other lines, mid-stream.
                    let mut restored = Llc::new(cfg);
                    churn(&mut restored, 100, 3);
                    restored.load(&mut encode(&llc).as_slice()).unwrap();
                    llc = restored;
                }
                let line = next(lines);
                let addr = line * 64 + next(64);
                let (got, want) = match next(4) {
                    0 => (Op::Access(llc.read(addr)), Op::Access(stamps.read(line))),
                    1 => (Op::Access(llc.write(addr)), Op::Access(stamps.write(line))),
                    2 => (Op::Fill(llc.fill(addr)), Op::Fill(stamps.fill(line))),
                    _ => (Op::Probe(llc.probe(addr)), Op::Probe(stamps.probe(line))),
                };
                assert_eq!(got, want, "{ways} ways, operation {i}");
            }
            assert_eq!(llc.stats(), &stamps.stats, "{ways} ways");
            assert!(stamps.stats.writebacks > 0);
        }
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
