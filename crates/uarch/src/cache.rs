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
/// Tags and LRU stamps live in two flat `sets × ways` arrays; set `s`
/// owns indices `s * ways .. (s + 1) * ways`. A way never filled holds
/// the invalid tag `u64::MAX` and stamp 0, and every fill stamps the
/// (already advanced, so ≥ 1) clock. The victim is the first way with
/// the minimum stamp: never-filled ways win, in index order, then the
/// least recently used line.
#[derive(Clone, Debug)]
pub struct Cache {
    tags: Vec<u64>,
    lru: Vec<u64>,
    ways: usize,
    line_shift: u32,
    set_bits: u32,
    set_mask: u64,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds a cache from its parameters.
    ///
    /// # Panics
    ///
    /// Panics if the line is smaller than 2 bytes or the geometry does
    /// not give a power-of-two set count.
    #[must_use]
    pub fn new(p: &CacheParams) -> Self {
        assert!(p.line_bytes >= 2, "cache lines must be at least 2 bytes");
        let sets = p.sets();
        Self {
            tags: vec![INVALID; sets * p.ways],
            lru: vec![0; sets * p.ways],
            ways: p.ways,
            line_shift: p.line_bytes.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            set_mask: (sets - 1) as u64,
            clock: 0,
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

    /// The resident way of `tag` in the set starting at `base`, if any.
    fn find(&self, base: usize, tag: u64) -> Option<usize> {
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == tag)
            .map(|w| base + w)
    }

    /// Replaces the first minimum-stamp way of the set at `base` with `tag`.
    fn install(&mut self, base: usize, tag: u64) {
        let stamps = &self.lru[base..base + self.ways];
        let mut victim = 0;
        for (w, &s) in stamps.iter().enumerate().skip(1) {
            if s < stamps[victim] {
                victim = w;
            }
        }
        self.tags[base + victim] = tag;
        self.lru[base + victim] = self.clock;
    }

    /// Accesses `addr`; returns whether it hit. Misses allocate the line.
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let (base, tag) = self.locate(addr);
        if let Some(way) = self.find(base, tag) {
            self.lru[way] = self.clock;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        self.install(base, tag);
        false
    }

    /// Installs a line without counting an access (prefetch fill).
    pub fn fill(&mut self, addr: u64) {
        self.clock += 1;
        let (base, tag) = self.locate(addr);
        if self.find(base, tag).is_none() {
            self.install(base, tag);
        }
    }

    /// Whether `addr` is resident (no state change).
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        let (base, tag) = self.locate(addr);
        self.find(base, tag).is_some()
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
