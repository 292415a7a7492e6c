//! A set-associative cache hierarchy with a stream prefetcher.
//!
//! Table 2's memory system: 64 KB I-cache, 32 KB L1D (3-cycle), 2 MB L2
//! (16-cycle), 100 ns memory, and a 16-stream hardware data prefetcher.

use crate::params::{CacheParams, MachineParams};

/// Tag of a way that holds no line. A real tag is `addr >> line_shift >>
/// set_bits` with a line of at least 2 bytes, so it never reaches it.
const INVALID: u64 = u64::MAX;

/// One set-associative cache level with true-LRU replacement.
///
/// Tags and recency ranks live in two flat `sets × ways` arrays; set `s`
/// owns indices `s * ways .. (s + 1) * ways`. A set's ranks are a
/// permutation of `0..ways`: rank 0 is the most recently used way and
/// rank `ways - 1` the victim. A new set starts at `ranks[w] = ways - 1 -
/// w` with every tag invalid (`u64::MAX`), so never-filled ways stay
/// older than every filled one, lowest index oldest, and fill in way
/// order.
#[derive(Clone, Debug)]
pub struct Cache {
    tags: Vec<u64>,
    ranks: Vec<u8>,
    ways: usize,
    line_shift: u32,
    set_bits: u32,
    set_mask: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds a cache from its parameters.
    ///
    /// # Panics
    ///
    /// Panics if the associativity is outside `1..=256`, the line is
    /// smaller than 2 bytes, or the geometry does not give a power-of-two
    /// set count.
    #[must_use]
    pub fn new(p: &CacheParams) -> Self {
        assert!(
            (1..=256).contains(&p.ways),
            "cache ways {} must be in 1..=256",
            p.ways
        );
        assert!(p.line_bytes >= 2, "cache lines must be at least 2 bytes");
        let sets = p.sets();
        let oldest = (p.ways - 1) as u8;
        Self {
            tags: vec![INVALID; sets * p.ways],
            ranks: (0..sets * p.ways)
                .map(|i| oldest - (i % p.ways) as u8)
                .collect(),
            ways: p.ways,
            line_shift: p.line_bytes.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            set_mask: (sets - 1) as u64,
            hits: 0,
            misses: 0,
        }
    }

    /// The first way index of `addr`'s set, and its tag.
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        (
            (line & self.set_mask) as usize * self.ways,
            line >> self.set_bits,
        )
    }

    /// One pass over the set at `base` with no early exit: the way
    /// holding `tag` (`ways` if none) and the victim way.
    fn probe(&self, base: usize, tag: u64) -> (usize, usize) {
        let oldest = (self.ways - 1) as u8;
        let tags = &self.tags[base..base + self.ways];
        let ranks = &self.ranks[base..base + self.ways];
        let (mut hit, mut victim) = (self.ways, 0);
        for (w, (&t, &r)) in tags.iter().zip(ranks).enumerate() {
            hit = if t == tag { w } else { hit };
            victim = if r == oldest { w } else { victim };
        }
        (hit, victim)
    }

    /// Makes `way` of the set at `base` the most recently used.
    fn touch(&mut self, base: usize, way: usize) {
        let ranks = &mut self.ranks[base..base + self.ways];
        let old = ranks[way];
        for r in ranks.iter_mut() {
            *r += u8::from(*r < old);
        }
        ranks[way] = 0;
    }

    /// Accesses `addr`; returns whether it hit. Misses allocate the line.
    pub fn access(&mut self, addr: u64) -> bool {
        let (base, tag) = self.locate(addr);
        let (hit_way, victim) = self.probe(base, tag);
        let hit = hit_way < self.ways;
        let way = if hit { hit_way } else { victim };
        self.tags[base + way] = tag;
        self.touch(base, way);
        self.hits += u64::from(hit);
        self.misses += u64::from(!hit);
        hit
    }

    /// Installs a line without counting an access (prefetch fill). A
    /// resident line keeps its recency.
    pub fn fill(&mut self, addr: u64) {
        let (base, tag) = self.locate(addr);
        let (hit_way, victim) = self.probe(base, tag);
        if hit_way == self.ways {
            self.tags[base + victim] = tag;
            self.touch(base, victim);
        }
    }

    /// Whether `addr` is resident (no state change).
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        let (base, tag) = self.locate(addr);
        self.probe(base, tag).0 < self.ways
    }

    /// Demand hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Demand miss rate.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A simple stream-based hardware prefetcher (Table 2: 16 streams).
///
/// Detects ascending line-granularity streams on L2 accesses and prefetches
/// the next lines into L2.
#[derive(Clone, Debug)]
struct StreamPrefetcher {
    /// (last line, confidence) per stream, LRU by slot age.
    streams: Vec<(u64, u32, u64)>,
    clock: u64,
    issued: u64,
}

impl StreamPrefetcher {
    fn new(n: usize) -> Self {
        Self {
            streams: vec![(u64::MAX, 0, 0); n],
            clock: 0,
            issued: 0,
        }
    }

    /// Observes a demand line address; returns how many lines after it
    /// to prefetch (0 = none).
    fn observe(&mut self, line: u64) -> u64 {
        self.clock += 1;
        // Existing stream one line behind?
        if let Some(s) = self
            .streams
            .iter_mut()
            .find(|(last, _, _)| last.wrapping_add(1) == line)
        {
            s.0 = line;
            s.1 = (s.1 + 1).min(8);
            s.2 = self.clock;
            if s.1 >= 2 {
                let depth = u64::from(s.1.min(4));
                self.issued += depth;
                return depth;
            }
            return 0;
        }
        // Allocate a new stream over the LRU slot.
        let slot = self
            .streams
            .iter_mut()
            .min_by_key(|(_, _, age)| *age)
            .expect("prefetcher has streams");
        *slot = (line, 0, self.clock);
        0
    }
}

/// Latency classification of one data access.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AccessLevel {
    /// L1D hit.
    L1,
    /// L2 hit.
    L2,
    /// Memory access.
    Memory,
}

/// The full data-side hierarchy: L1D + L2 + memory latency + prefetcher.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    l1: Cache,
    l2: Cache,
    prefetcher: StreamPrefetcher,
    l1_hit: u64,
    l2_hit: u64,
    mem_lat: u64,
    pub_l1_hits: u64,
    pub_l2_hits: u64,
    pub_mem: u64,
    stall_cycles: u64,
}

impl Hierarchy {
    /// Builds the Table 2 data hierarchy.
    #[must_use]
    pub fn new(m: &MachineParams) -> Self {
        Self {
            l1: Cache::new(&m.l1d),
            l2: Cache::new(&m.l2),
            prefetcher: StreamPrefetcher::new(m.prefetch_streams),
            l1_hit: m.l1d.hit_cycles,
            l2_hit: m.l2.hit_cycles,
            mem_lat: m.memory_cycles(),
            pub_l1_hits: 0,
            pub_l2_hits: 0,
            pub_mem: 0,
            stall_cycles: 0,
        }
    }

    /// Performs a demand data access; returns `(latency_cycles, level)`.
    pub fn access(&mut self, addr: u64) -> (u64, AccessLevel) {
        if self.l1.access(addr) {
            self.pub_l1_hits += 1;
            return (self.l1_hit, AccessLevel::L1);
        }
        // The prefetcher observes the full L2 access stream (hits included,
        // so a stream keeps training once its own prefetches start hitting).
        let shift = self.l2.line_shift;
        let line = addr >> shift;
        let depth = self.prefetcher.observe(line);
        for next in line + 1..=line + depth {
            self.l2.fill(next << shift);
        }
        if self.l2.access(addr) {
            self.pub_l2_hits += 1;
            self.stall_cycles += self.l2_hit - self.l1_hit;
            return (self.l2_hit, AccessLevel::L2);
        }
        self.pub_mem += 1;
        self.stall_cycles += self.mem_lat - self.l1_hit;
        (self.mem_lat, AccessLevel::Memory)
    }

    /// `(l1_hits, l2_hits, memory_accesses)` so far.
    #[must_use]
    pub fn counts(&self) -> (u64, u64, u64) {
        (self.pub_l1_hits, self.pub_l2_hits, self.pub_mem)
    }

    /// Bubble bookkeeping: total latency cycles beyond an L1 hit incurred
    /// by demand accesses so far — the raw (un-overlapped) data-stall
    /// exposure the pipeline model divides by its memory-level-parallelism
    /// factor.
    #[must_use]
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Prefetch lines issued so far.
    #[must_use]
    pub fn prefetches(&self) -> u64 {
        self.prefetcher.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheParams {
        CacheParams {
            size_bytes: 1024,
            ways: 2,
            line_bytes: 64,
            hit_cycles: 1,
        }
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(&tiny());
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1030), "same 64-byte line");
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn lru_eviction_within_set() {
        // 1024B / 2 ways / 64B lines = 8 sets. Same set every 8 lines.
        let mut c = Cache::new(&tiny());
        let a = 0x0000u64;
        let b = a + 8 * 64;
        let d = a + 16 * 64;
        c.access(a);
        c.access(b);
        c.access(a); // a most recent; b is LRU
        c.access(d); // evicts b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    #[should_panic(expected = "must be in 1..=256")]
    fn zero_ways_are_rejected() {
        let _ = Cache::new(&CacheParams { ways: 0, ..tiny() });
    }

    #[test]
    #[should_panic(expected = "must be in 1..=256")]
    fn more_than_256_ways_are_rejected() {
        let _ = Cache::new(&CacheParams {
            size_bytes: 257 * 64,
            ways: 257,
            ..tiny()
        });
    }

    #[test]
    fn fill_does_not_count_as_demand() {
        let mut c = Cache::new(&tiny());
        c.fill(0x2000);
        assert_eq!(c.misses() + c.hits(), 0);
        assert!(c.access(0x2000), "prefilled line hits");
    }

    #[test]
    fn hierarchy_latencies_are_ordered() {
        let m = MachineParams::isca04();
        let mut h = Hierarchy::new(&m);
        let (mem, lvl) = h.access(0x10_0000);
        assert_eq!(lvl, AccessLevel::Memory);
        assert_eq!(mem, 380);
        let (l1, lvl) = h.access(0x10_0000);
        assert_eq!(lvl, AccessLevel::L1);
        assert_eq!(l1, 3);
        // Bubble bookkeeping: one memory access beyond L1, one free hit.
        assert_eq!(h.stall_cycles(), 380 - 3);
    }

    #[test]
    fn streaming_pattern_trains_prefetcher() {
        let m = MachineParams::isca04();
        let mut h = Hierarchy::new(&m);
        let mut mem_accesses_late = 0;
        for i in 0..64u64 {
            let addr = 0x800_0000 + i * 64;
            let (_, lvl) = h.access(addr);
            if i >= 16 && lvl == AccessLevel::Memory {
                mem_accesses_late += 1;
            }
        }
        assert!(
            mem_accesses_late < 24,
            "prefetcher should cover a linear stream, {mem_accesses_late} late misses"
        );
        assert!(h.prefetches() > 0);
    }

    #[test]
    fn prefetcher_follows_the_l2_line_size() {
        // 128-byte L2 lines: a stream striding one L2 line per access is
        // consecutive at L2 granularity (and two apart at 64 bytes), so
        // only a prefetcher working in L2 lines turns it into L2 hits.
        let mut m = MachineParams::isca04();
        m.l2.line_bytes = 128;
        let mut h = Hierarchy::new(&m);
        for i in 0..64u64 {
            let _ = h.access(0x800_0000 + i * 128);
        }
        let (_, l2_hits, mem) = h.counts();
        assert!(h.prefetches() > 0);
        assert!(
            l2_hits >= 48 && mem <= 16,
            "prefetches must cover the 128-byte-line stream: {l2_hits} L2 hits, {mem} misses"
        );
    }

    #[test]
    fn random_pattern_defeats_prefetcher() {
        let m = MachineParams::isca04();
        let mut h = Hierarchy::new(&m);
        let mut x = 12345u64;
        let mut mem = 0;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            // 64 MB working set: far beyond L2.
            let addr = (x >> 10) % (64 << 20);
            if matches!(h.access(addr).1, AccessLevel::Memory) {
                mem += 1;
            }
        }
        assert!(
            mem > 150,
            "random far accesses should mostly miss, got {mem}"
        );
    }
}
