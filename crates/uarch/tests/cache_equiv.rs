//! Differential test of the flat tag/rank cache layout: seeded random
//! `access`/`fill`/`contains` sequences over several geometries must
//! agree, call by call, with a naive true-LRU reference that keeps one
//! `Vec` of `(valid, tag, lru)` ways per set; and the data hierarchy must
//! agree with a reference hierarchy built from it.

use uarch::{AccessLevel, Cache, CacheParams, Hierarchy, MachineParams};

/// splitmix64: the crate has no dependencies, so the test brings its own
/// seeded generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The reference cache: per-set rows of `(valid, tag, lru)`, victim =
/// first minimum of `(valid, lru)`.
struct RefCache {
    sets: Vec<Vec<(bool, u64, u64)>>,
    line_shift: u32,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl RefCache {
    fn new(p: &CacheParams) -> Self {
        Self {
            sets: vec![vec![(false, 0, 0); p.ways]; p.sets()],
            line_shift: p.line_bytes.trailing_zeros(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let n = self.sets.len() as u64;
        ((line % n) as usize, line / n)
    }

    fn insert(ways: &mut [(bool, u64, u64)], tag: u64, clock: u64) {
        let victim = ways
            .iter_mut()
            .min_by_key(|(v, _, lru)| (*v, *lru))
            .expect("cache has ways");
        *victim = (true, tag, clock);
    }

    fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let (set, tag) = self.locate(addr);
        let ways = &mut self.sets[set];
        if let Some(w) = ways.iter_mut().find(|(v, t, _)| *v && *t == tag) {
            w.2 = self.clock;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        Self::insert(ways, tag, self.clock);
        false
    }

    fn fill(&mut self, addr: u64) {
        self.clock += 1;
        let (set, tag) = self.locate(addr);
        let ways = &mut self.sets[set];
        if !ways.iter().any(|(v, t, _)| *v && *t == tag) {
            Self::insert(ways, tag, self.clock);
        }
    }

    fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        self.sets[set].iter().any(|(v, t, _)| *v && *t == tag)
    }
}

/// The reference hierarchy: two reference caches and a stream
/// prefetcher that returns the lines to prefetch, in L2 lines.
struct RefHierarchy {
    l1: RefCache,
    l2: RefCache,
    streams: Vec<(u64, u32, u64)>,
    pf_clock: u64,
    issued: u64,
    l1_hit: u64,
    l2_hit: u64,
    mem_lat: u64,
    counts: (u64, u64, u64),
    stall: u64,
}

impl RefHierarchy {
    fn new(m: &MachineParams) -> Self {
        Self {
            l1: RefCache::new(&m.l1d),
            l2: RefCache::new(&m.l2),
            streams: vec![(u64::MAX, 0, 0); m.prefetch_streams],
            pf_clock: 0,
            issued: 0,
            l1_hit: m.l1d.hit_cycles,
            l2_hit: m.l2.hit_cycles,
            mem_lat: m.memory_cycles(),
            counts: (0, 0, 0),
            stall: 0,
        }
    }

    fn observe(&mut self, line: u64) -> Vec<u64> {
        self.pf_clock += 1;
        if let Some(s) = self
            .streams
            .iter_mut()
            .find(|(last, _, _)| last.wrapping_add(1) == line)
        {
            s.0 = line;
            s.1 = (s.1 + 1).min(8);
            s.2 = self.pf_clock;
            if s.1 >= 2 {
                let depth = u64::from(s.1.min(4));
                self.issued += depth;
                return (1..=depth).map(|d| line + d).collect();
            }
            return Vec::new();
        }
        let slot = self
            .streams
            .iter_mut()
            .min_by_key(|(_, _, age)| *age)
            .expect("prefetcher has streams");
        *slot = (line, 0, self.pf_clock);
        Vec::new()
    }

    fn access(&mut self, addr: u64) -> (u64, AccessLevel) {
        if self.l1.access(addr) {
            self.counts.0 += 1;
            return (self.l1_hit, AccessLevel::L1);
        }
        let shift = self.l2.line_shift;
        for line in self.observe(addr >> shift) {
            self.l2.fill(line << shift);
        }
        if self.l2.access(addr) {
            self.counts.1 += 1;
            self.stall += self.l2_hit - self.l1_hit;
            return (self.l2_hit, AccessLevel::L2);
        }
        self.counts.2 += 1;
        self.stall += self.mem_lat - self.l1_hit;
        (self.mem_lat, AccessLevel::Memory)
    }
}

fn params(sets: usize, ways: usize, line_bytes: usize, hit_cycles: u64) -> CacheParams {
    CacheParams {
        size_bytes: sets * ways * line_bytes,
        ways,
        line_bytes,
        hit_cycles,
    }
}

/// An address that collides often within `p`'s sets (a pool of about
/// three lines per way), occasionally far away or at the top of the
/// address space.
fn address(rng: &mut SplitMix, p: &CacheParams) -> u64 {
    let lines = (p.sets() * p.ways * 3) as u64;
    match rng.below(20) {
        0 => u64::MAX - rng.below(1 << 16),
        1 => rng.next(),
        _ => rng.below(lines) * p.line_bytes as u64 + rng.below(p.line_bytes as u64),
    }
}

#[test]
fn flat_cache_matches_the_per_set_reference() {
    // 64 ways (1 set of them is fully associative) drive recency ranks
    // past 15, beyond a single 16-byte rank vector.
    for ways in [1, 2, 8, 16, 64] {
        for line_bytes in [64, 128] {
            for sets in [1, 4, 32] {
                let p = params(sets, ways, line_bytes, 1);
                let mut rng = SplitMix((ways * 1000 + line_bytes + sets) as u64);
                let mut flat = Cache::new(&p);
                let mut naive = RefCache::new(&p);
                for step in 0..20_000 {
                    let addr = address(&mut rng, &p);
                    let ctx = format!("{sets}x{ways}x{line_bytes}B step {step} addr {addr:#x}");
                    match rng.below(10) {
                        0..=5 => assert_eq!(flat.access(addr), naive.access(addr), "{ctx}"),
                        6 | 7 => {
                            flat.fill(addr);
                            naive.fill(addr);
                        }
                        _ => assert_eq!(flat.contains(addr), naive.contains(addr), "{ctx}"),
                    }
                }
                assert_eq!(
                    (flat.hits(), flat.misses()),
                    (naive.hits, naive.misses),
                    "{sets}x{ways}x{line_bytes}B"
                );
                assert!(flat.hits() > 0 && flat.misses() > 0);
            }
        }
    }
}

#[test]
fn hierarchy_matches_the_reference_hierarchy() {
    for ways in [1, 2, 8, 16] {
        for line_bytes in [64, 128] {
            let mut m = MachineParams::isca04();
            m.l1d = params(8, ways.min(4), 64, 3);
            m.l2 = params(64, ways, line_bytes, 16);
            let mut flat = Hierarchy::new(&m);
            let mut naive = RefHierarchy::new(&m);
            let mut rng = SplitMix((ways * 7 + line_bytes) as u64);
            let span = (64 * ways * line_bytes * 2) as u64;
            let mut cursor = 0u64;
            for step in 0..20_000 {
                // Linear runs (which train the prefetcher) mixed with
                // scattered accesses over twice the L2's capacity.
                let addr = if rng.below(3) == 0 {
                    rng.below(span)
                } else {
                    cursor += 8 * (1 + rng.below(16));
                    cursor % span
                };
                assert_eq!(
                    flat.access(addr),
                    naive.access(addr),
                    "{ways} ways, {line_bytes}B L2 lines, step {step}"
                );
            }
            assert_eq!(flat.counts(), naive.counts);
            assert_eq!(flat.stall_cycles(), naive.stall);
            assert_eq!(flat.prefetches(), naive.issued);
            let (l1, l2, mem) = flat.counts();
            assert!(l1 > 0 && l2 > 0 && mem > 0 && flat.prefetches() > 0);
        }
    }
}
