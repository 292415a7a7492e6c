//! Differential test of the rank-based `TaggedTable`: seeded random
//! `lookup`/`peek`/`insert` sequences over several associativities and
//! narrow tags (so tags collide and sets overflow) must agree, step by
//! step, with a naive true-LRU reference that keeps one `Vec` of
//! `(valid, tag, u64 stamp, data)` ways per set — returned data,
//! `TagLookup`, `occupancy()` and the `iter()` order alike.

use workloads::rng::SmallRng;

use predictors::{TagLookup, TaggedTable};

/// The reference table: victim = first invalid way, else the first way
/// with the minimum stamp. The stamp is a `u64`, so it never wraps.
struct RefTable {
    sets: Vec<Vec<(bool, u64, u64, u32)>>,
    tag_mask: u64,
    clock: u64,
}

impl RefTable {
    fn new(sets: usize, ways: usize, tag_bits: usize) -> Self {
        Self {
            sets: vec![vec![(false, 0, 0, 0); ways]; sets],
            tag_mask: (1 << tag_bits) - 1,
            clock: 0,
        }
    }

    fn set(&mut self, index: u64) -> &mut Vec<(bool, u64, u64, u32)> {
        let n = self.sets.len() as u64;
        &mut self.sets[(index % n) as usize]
    }

    fn peek(&mut self, index: u64, tag: u64) -> Option<u32> {
        let tag = tag & self.tag_mask;
        self.set(index)
            .iter()
            .find(|w| w.0 && w.1 == tag)
            .map(|w| w.3)
    }

    fn lookup(&mut self, index: u64, tag: u64) -> Option<u32> {
        self.clock += 1;
        let (tag, clock) = (tag & self.tag_mask, self.clock);
        self.set(index)
            .iter_mut()
            .find(|w| w.0 && w.1 == tag)
            .map(|w| {
                w.2 = clock;
                w.3
            })
    }

    fn insert(&mut self, index: u64, tag: u64, data: u32) -> TagLookup {
        self.clock += 1;
        let (tag, clock) = (tag & self.tag_mask, self.clock);
        let set = self.set(index);
        if let Some(w) = set.iter_mut().find(|w| w.0 && w.1 == tag) {
            w.2 = clock;
            w.3 = data;
            return TagLookup::Hit;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|w| (w.0, w.2))
            .expect("set has ways");
        *victim = (true, tag, clock, data);
        TagLookup::Miss
    }

    fn entries(&self) -> Vec<(usize, u64, u32)> {
        self.sets
            .iter()
            .enumerate()
            .flat_map(|(s, ways)| ways.iter().filter(|w| w.0).map(move |w| (s, w.1, w.3)))
            .collect()
    }
}

#[test]
fn tagged_table_matches_the_stamp_reference() {
    for ways in [1usize, 2, 4, 8, 16, 64] {
        // Four masked tags per way: sets overflow and evict.
        let tag_bits = ways.trailing_zeros() as usize + 2;
        for sets in [1usize, 4, 16] {
            let mut rng = SmallRng::seed_from_u64((ways * 100 + sets * 10 + tag_bits) as u64);
            let mut table: TaggedTable<u32> = TaggedTable::new(sets, ways, tag_bits, 0);
            let mut naive = RefTable::new(sets, ways, tag_bits);
            // Tags range over twice the masked width (high bits must be
            // ignored); indices over twice the set count (aliasing).
            let tag_span = 1u64 << (tag_bits + 1);
            let index_span = 2 * sets as u64;
            for step in 0..6_000 {
                let index = rng.gen_range(0..index_span);
                let tag = rng.gen_range(0..tag_span);
                let ctx = format!("{sets}x{ways} {tag_bits}-bit tags, step {step}");
                match rng.gen_range(0u32..10) {
                    0..=3 => assert_eq!(
                        table.lookup(index, tag).map(|d| *d),
                        naive.lookup(index, tag),
                        "{ctx}: lookup"
                    ),
                    4 | 5 => assert_eq!(
                        table.peek(index, tag).copied(),
                        naive.peek(index, tag),
                        "{ctx}: peek"
                    ),
                    _ => {
                        let data = step;
                        assert_eq!(
                            table.insert(index, tag, data),
                            naive.insert(index, tag, data),
                            "{ctx}: insert"
                        );
                    }
                }
                let want = naive.entries();
                assert_eq!(table.occupancy(), want.len(), "{ctx}: occupancy");
                let got: Vec<_> = table.iter().map(|(s, t, d)| (s, t, *d)).collect();
                assert_eq!(got, want, "{ctx}: iter");
            }
            assert_eq!(table.occupancy(), sets * ways, "{sets}x{ways} never filled");
        }
    }
}
