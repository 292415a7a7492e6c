//! Prediction table storage: bit-packed direct-mapped counter banks and
//! structure-of-arrays set-associative tagged tables with LRU replacement.
//!
//! Both structures are laid out for the batched kernels in the predictor
//! implementations: counters are packed many-per-word so the hot tables fit
//! in L1, and tagged sets are flat parallel arrays instead of
//! vectors-of-vectors-of-structs. The packing is an implementation detail —
//! the observable semantics (indexing, saturation, LRU victim choice) are
//! bit-identical to a plain `Vec<SatCounter>` / array-of-structs layout, and
//! the tests below and `tests/tagged_table_equiv.rs` pin that equivalence.

use crate::counter::{packed_update, SatCounter};
use crate::history::mask;

/// A direct-mapped table of saturating counters (the pattern history table of
/// two-level predictors), bit-packed into 64-bit words.
///
/// Counters never straddle a word boundary: each word holds the largest
/// *power of two* of counters that fits (`2^⌊log2(64 / counter_bits)⌋`),
/// so slot-to-word addressing is a shift and a mask rather than a hardware
/// division — the unpipelined 64-bit divide would otherwise dominate every
/// table access. For 1-, 2- and 4-bit counters the power-of-two lane count
/// equals `⌊64 / counter_bits⌋` exactly; odd widths leave a few unused high
/// bits per word. A 16K-entry two-bit table therefore occupies 4 KB — small
/// enough to stay L1-resident under replay — instead of the 32 KB an
/// unpacked `Vec<SatCounter>` would take.
///
/// # Examples
///
/// ```
/// use predictors::CounterTable;
///
/// let mut t = CounterTable::new(1024, 2);
/// assert!(!t.counter(5).is_taken());
/// t.update(5, true);
/// t.update(5, true);
/// assert!(t.counter(5).is_taken());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterTable {
    words: Vec<u64>,
    entries: usize,
    index_mask: u64,
    counter_bits: usize,
    /// log2 of the counters per 64-bit word.
    lane_shift: u32,
    /// `(1 << lane_shift) - 1`: selects a slot's lane within its word.
    lane_mask: usize,
}

impl CounterTable {
    /// Creates a table of `entries` counters of `counter_bits` width, all
    /// initialized weakly not-taken.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a non-zero power of two, or if the counter
    /// width is out of range.
    #[must_use]
    pub fn new(entries: usize, counter_bits: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "table entries {entries} must be a power of two"
        );
        // Delegates the width check (1..=7) and yields the reset value.
        let init = u64::from(SatCounter::weakly_not_taken(counter_bits).value());
        let lane_shift = (64 / counter_bits).ilog2();
        let per_word = 1usize << lane_shift;
        let mut filled = 0u64;
        for slot in 0..per_word {
            filled |= init << (slot * counter_bits);
        }
        Self {
            words: vec![filled; entries.div_ceil(per_word)],
            entries,
            index_mask: (entries - 1) as u64,
            counter_bits,
            lane_shift,
            lane_mask: per_word - 1,
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the table has zero entries (never true by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// log2 of the entry count — the index width in bits.
    #[must_use]
    pub fn index_bits(&self) -> usize {
        self.entries.trailing_zeros() as usize
    }

    /// Storage budget in bits (entries × counter width).
    #[must_use]
    pub fn storage_bits(&self) -> usize {
        self.entries * self.counter_bits
    }

    /// The packed slot for `index`, masked to the table size.
    fn slot_of(&self, index: u64) -> usize {
        (index & self.index_mask) as usize
    }

    /// Splits a slot into its word index and in-word bit shift — pure
    /// shift-and-mask thanks to the power-of-two lane count.
    fn word_shift_of(&self, slot: usize) -> (usize, usize) {
        (
            slot >> self.lane_shift,
            (slot & self.lane_mask) * self.counter_bits,
        )
    }

    /// The counter at `index` (masked to the table size).
    #[must_use]
    pub fn counter(&self, index: u64) -> SatCounter {
        let (word, shift) = self.word_shift_of(self.slot_of(index));
        let raw = (self.words[word] >> shift) & mask(self.counter_bits);
        SatCounter::new(self.counter_bits, raw as u8)
    }

    /// Moves the counter at `index` toward `taken` with saturation —
    /// equivalent to `SatCounter::update` on the packed value.
    pub fn update(&mut self, index: u64, taken: bool) {
        let (word, shift) = self.word_shift_of(self.slot_of(index));
        let field = mask(self.counter_bits);
        let word = &mut self.words[word];
        let value = (*word >> shift) & field;
        let next = packed_update(value, field, taken);
        *word = (*word & !(field << shift)) | (next << shift);
    }

    /// Overwrites the counter at `index` with a raw `value` — the
    /// allocation primitive of tagged-geometric predictors, where a newly
    /// stolen entry's counter resets to weakly agree with the outcome
    /// instead of stepping there through saturating updates.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in the counter width.
    pub fn set(&mut self, index: u64, value: u8) {
        let field = mask(self.counter_bits);
        assert!(
            u64::from(value) <= field,
            "counter value {value} exceeds {}-bit field",
            self.counter_bits
        );
        let (word, shift) = self.word_shift_of(self.slot_of(index));
        let word = &mut self.words[word];
        *word = (*word & !(field << shift)) | (u64::from(value) << shift);
    }

    /// Halves every counter in the table — one shift-and-mask per packed
    /// word, not per entry. This is the periodic useful-bit aging of
    /// tagged-geometric predictors: entries that stopped earning usefulness
    /// decay toward 0 and become allocation victims again.
    pub fn halve_all(&mut self) {
        // After a whole-word right shift, the top bit of each lane holds the
        // low bit of its higher neighbour; keep only each lane's low
        // `counter_bits - 1` bits (a halved value never needs the top bit).
        let mut keep = 0u64;
        let lane = mask(self.counter_bits - 1);
        for slot in 0..=self.lane_mask {
            keep |= lane << (slot * self.counter_bits);
        }
        for word in &mut self.words {
            *word = (*word >> 1) & keep;
        }
    }

    /// The direction the counter at `index` currently predicts, without
    /// materializing a [`SatCounter`].
    #[must_use]
    pub fn taken(&self, index: u64) -> bool {
        let (word, shift) = self.word_shift_of(self.slot_of(index));
        let raw = (self.words[word] >> shift) & mask(self.counter_bits);
        raw >= 1 << (self.counter_bits - 1)
    }

    /// Fused predict-then-train: returns the pre-update direction at
    /// `index` and moves the counter toward `taken`, with one addressing
    /// computation and one word visit. Step-for-step identical to
    /// `counter(index).is_taken()` followed by `update(index, taken)` —
    /// the batched kernels' single-visit building block.
    pub fn predict_update(&mut self, index: u64, taken: bool) -> bool {
        let (word, shift) = self.word_shift_of(self.slot_of(index));
        let field = mask(self.counter_bits);
        let word = &mut self.words[word];
        let value = (*word >> shift) & field;
        let next = packed_update(value, field, taken);
        *word = (*word & !(field << shift)) | (next << shift);
        value >= 1 << (self.counter_bits - 1)
    }
}

/// The result of a tagged lookup.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TagLookup {
    /// The tag was present in the set.
    Hit,
    /// The tag was absent.
    Miss,
}

/// Tag of a way that holds no entry. Stored tags are masked to at most 32
/// bits, so no real tag reaches it.
const EMPTY: u64 = u64::MAX;

/// A set-associative table of tagged payloads with true-LRU replacement.
///
/// This is the structure behind the tagged gshare critic (“similar to an
/// N-way associative cache, with each data item being a two-bit counter”,
/// §6), the filter tag table of the filtered perceptron, YAGS's direction
/// caches and the BTB.
///
/// The ways are stored structure-of-arrays: three flat parallel vectors
/// (tag / recency rank / payload) indexed `set * ways + way`, so a set
/// probe touches contiguous memory per field instead of hopping across
/// per-way structs. A never-filled way holds the tag `u64::MAX`. A set's
/// ranks are a permutation of `0..ways`: rank 0 is the most recently used
/// way and rank `ways - 1` the victim. A new set starts at `ranks[w] =
/// ways - 1 - w`, so empty ways fill in way order before any entry is
/// evicted, and after that the least recently used entry goes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaggedTable<T> {
    tags: Vec<u64>,
    ranks: Vec<u8>,
    data: Vec<T>,
    ways: usize,
    tag_bits: usize,
    set_mask: u64,
}

impl<T: Clone> TaggedTable<T> {
    /// Creates a table with `sets` sets of `ways` ways and `tag_bits`-wide
    /// tags.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a non-zero power of two, `ways` is outside
    /// `1..=256`, or `tag_bits` is 0 or greater than 32.
    #[must_use]
    pub fn new(sets: usize, ways: usize, tag_bits: usize, fill: T) -> Self {
        assert!(sets.is_power_of_two(), "sets {sets} must be a power of two");
        assert!(
            (1..=256).contains(&ways),
            "tagged table ways {ways} must be in 1..=256"
        );
        assert!(
            (1..=32).contains(&tag_bits),
            "tag width {tag_bits} out of range"
        );
        let slots = sets * ways;
        let oldest = (ways - 1) as u8;
        Self {
            tags: vec![EMPTY; slots],
            ranks: (0..slots).map(|s| oldest - (s % ways) as u8).collect(),
            data: vec![fill; slots],
            ways,
            tag_bits,
            set_mask: (sets - 1) as u64,
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.tags.len() / self.ways
    }

    /// Associativity.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// log2 of the set count — the index width in bits.
    #[must_use]
    pub fn index_bits(&self) -> usize {
        self.sets().trailing_zeros() as usize
    }

    /// Tag width in bits.
    #[must_use]
    pub fn tag_bits(&self) -> usize {
        self.tag_bits
    }

    /// Total entry capacity (sets × ways).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.tags.len()
    }

    /// The first slot of the set selected by `index`.
    fn base_of(&self, index: u64) -> usize {
        (index & self.set_mask) as usize * self.ways
    }

    fn masked_tag(&self, tag: u64) -> u64 {
        tag & mask(self.tag_bits)
    }

    /// One pass over the set at `base` with no early exit: the slot
    /// holding `tag` (`None` if absent) and the victim slot.
    fn probe(&self, base: usize, tag: u64) -> (Option<usize>, usize) {
        let oldest = (self.ways - 1) as u8;
        let tags = &self.tags[base..base + self.ways];
        let ranks = &self.ranks[base..base + self.ways];
        let (mut hit, mut victim) = (self.ways, 0);
        for (w, (&t, &r)) in tags.iter().zip(ranks).enumerate() {
            hit = if t == tag { w } else { hit };
            victim = if r == oldest { w } else { victim };
        }
        ((hit < self.ways).then_some(base + hit), base + victim)
    }

    /// Makes `slot` the most recently used way of the set at `base`.
    fn touch(&mut self, base: usize, slot: usize) {
        let ranks = &mut self.ranks[base..base + self.ways];
        let old = ranks[slot - base];
        for r in ranks.iter_mut() {
            *r += u8::from(*r < old);
        }
        ranks[slot - base] = 0;
    }

    /// Looks up `tag` in the set selected by `index` without touching LRU
    /// state.
    #[must_use]
    pub fn peek(&self, index: u64, tag: u64) -> Option<&T> {
        let tag = self.masked_tag(tag);
        self.probe(self.base_of(index), tag)
            .0
            .map(|s| &self.data[s])
    }

    /// Looks up `tag` in the set selected by `index`, updating LRU state on a
    /// hit.
    pub fn lookup(&mut self, index: u64, tag: u64) -> Option<&mut T> {
        let tag = self.masked_tag(tag);
        let base = self.base_of(index);
        let hit = self.probe(base, tag).0;
        hit.map(|s| {
            self.touch(base, s);
            &mut self.data[s]
        })
    }

    /// Inserts `data` under `tag`, evicting the LRU way if the set is full.
    ///
    /// Returns [`TagLookup::Hit`] if the tag was already present (its data is
    /// replaced), [`TagLookup::Miss`] if a way was allocated.
    pub fn insert(&mut self, index: u64, tag: u64, data: T) -> TagLookup {
        let tag = self.masked_tag(tag);
        let base = self.base_of(index);
        let (hit, victim) = self.probe(base, tag);
        let slot = hit.unwrap_or(victim);
        self.tags[slot] = tag;
        self.data[slot] = data;
        self.touch(base, slot);
        if hit.is_some() {
            TagLookup::Hit
        } else {
            TagLookup::Miss
        }
    }

    /// Number of valid entries currently held.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }

    /// Iterates over all valid `(set, tag, data)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64, &T)> {
        self.tags
            .iter()
            .enumerate()
            .filter(|(_, &t)| t != EMPTY)
            .map(|(s, &t)| (s / self.ways, t, &self.data[s]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_table_indexes_with_mask() {
        let mut t = CounterTable::new(8, 2);
        t.update(3, true);
        t.update(3, true);
        // Index 11 aliases to 3 in an 8-entry table.
        assert!(t.counter(11).is_taken());
        assert_eq!(t.index_bits(), 3);
        assert_eq!(t.storage_bits(), 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn counter_table_rejects_non_power_of_two() {
        let _ = CounterTable::new(100, 2);
    }

    #[test]
    fn packed_counters_are_independent_within_a_word() {
        // 32 two-bit counters share each word; training one slot must not
        // leak into its packed neighbours.
        let mut t = CounterTable::new(64, 2);
        t.update(7, true);
        t.update(7, true);
        t.update(7, true);
        for i in 0..64u64 {
            if i == 7 {
                assert_eq!(t.counter(i).value(), 3);
            } else {
                assert_eq!(t.counter(i).value(), 1, "slot {i} corrupted");
            }
        }
    }

    #[test]
    fn word_boundary_neighbours_do_not_alias() {
        // With 3-bit counters 16 fit per word (power-of-two lanes, the top
        // 16 bits unused); slots 15 and 16 are the last of word 0 and the
        // first of word 1.
        let mut t = CounterTable::new(64, 3);
        for _ in 0..7 {
            t.update(15, true);
        }
        for _ in 0..3 {
            t.update(16, false);
        }
        assert_eq!(t.counter(15).value(), 7);
        assert_eq!(t.counter(16).value(), 0);
        assert_eq!(
            t.counter(14).value(),
            3,
            "weakly-not-taken reset for 3 bits"
        );
        assert_eq!(t.counter(17).value(), 3);
    }

    #[test]
    fn saturation_at_both_rails_in_packed_storage() {
        let mut t = CounterTable::new(8, 2);
        for _ in 0..10 {
            t.update(0, true);
        }
        assert_eq!(t.counter(0).value(), 3);
        assert!(t.counter(0).is_strong());
        for _ in 0..10 {
            t.update(0, false);
        }
        assert_eq!(t.counter(0).value(), 0);
        assert!(t.counter(0).is_strong());
    }

    #[test]
    fn packed_table_matches_unpacked_reference_per_slot() {
        // Drive the packed table and a plain Vec<SatCounter> with the same
        // deterministic stream; every slot must agree afterwards.
        for bits in 1..=7usize {
            let entries = 128;
            let mut packed = CounterTable::new(entries, bits);
            let mut reference = vec![SatCounter::weakly_not_taken(bits); entries];
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..4096 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let index = state >> 32; // exercises the index mask too
                let taken = state & 1 == 1;
                packed.update(index, taken);
                reference[(index as usize) % entries].update(taken);
            }
            for (i, want) in reference.iter().enumerate() {
                assert_eq!(
                    packed.counter(i as u64),
                    *want,
                    "{bits}-bit slot {i} diverged from reference"
                );
            }
        }
    }

    #[test]
    fn fused_predict_update_matches_split_read_then_train() {
        // predict_update must be indistinguishable from counter().is_taken()
        // followed by update(), for every width, over a deterministic sweep.
        for bits in 1..=7usize {
            let mut fused = CounterTable::new(64, bits);
            let mut split = CounterTable::new(64, bits);
            let mut state = 0x243f_6a88_85a3_08d3u64;
            for _ in 0..2048 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let index = state >> 40;
                let taken = state & 2 == 2;
                let want = split.counter(index).is_taken();
                split.update(index, taken);
                assert_eq!(fused.taken(index), want, "{bits}-bit read drifted");
                assert_eq!(
                    fused.predict_update(index, taken),
                    want,
                    "{bits}-bit fused direction drifted"
                );
            }
            assert_eq!(fused, split, "{bits}-bit tables diverged after sweep");
        }
    }

    #[test]
    fn full_index_space_sweep_at_smallest_table3_budget() {
        // The smallest Table-3 gshare (2 KB budget) has 8K two-bit entries.
        // Touch every index once and verify full isolation, then again via
        // aliased indices above the mask.
        let entries = 8 * 1024;
        let mut t = CounterTable::new(entries, 2);
        for i in 0..entries as u64 {
            t.update(i, i % 3 == 0);
        }
        for i in 0..entries as u64 {
            let want = if i % 3 == 0 { 2 } else { 0 };
            assert_eq!(t.counter(i).value(), want, "slot {i}");
        }
        // An index with bits above the mask must land on its alias.
        t.update(entries as u64 + 5, true);
        assert_eq!(t.counter(5).value(), t.counter(entries as u64 + 5).value());
    }

    #[test]
    fn set_overwrites_without_touching_neighbours() {
        let mut t = CounterTable::new(64, 3);
        for i in 0..64u64 {
            t.update(i, i % 2 == 0);
        }
        let before: Vec<u8> = (0..64u64).map(|i| t.counter(i).value()).collect();
        t.set(20, 7);
        t.set(21, 0);
        for i in 0..64u64 {
            let want = match i {
                20 => 7,
                21 => 0,
                _ => before[i as usize],
            };
            assert_eq!(t.counter(i).value(), want, "slot {i}");
        }
        // Aliased indices land on the same slot.
        t.set(64 + 20, 2);
        assert_eq!(t.counter(20).value(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn set_rejects_oversized_value() {
        let mut t = CounterTable::new(8, 2);
        t.set(0, 4);
    }

    #[test]
    fn halve_all_matches_per_entry_halving() {
        for bits in 1..=7usize {
            let mut t = CounterTable::new(64, bits);
            let mut state = 0x1234_5678_9abc_def0u64;
            for _ in 0..1024 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                t.update(state >> 32, state & 1 == 1);
            }
            let want: Vec<u8> = (0..64u64).map(|i| t.counter(i).value() / 2).collect();
            t.halve_all();
            for i in 0..64u64 {
                assert_eq!(
                    t.counter(i).value(),
                    want[i as usize],
                    "{bits}-bit slot {i}"
                );
            }
        }
    }

    #[test]
    fn tagged_miss_then_hit() {
        let mut t: TaggedTable<u8> = TaggedTable::new(4, 2, 8, 0);
        assert!(t.peek(1, 0x42).is_none());
        assert_eq!(t.insert(1, 0x42, 7), TagLookup::Miss);
        assert_eq!(t.peek(1, 0x42), Some(&7));
        assert_eq!(*t.lookup(1, 0x42).unwrap(), 7);
    }

    #[test]
    fn tagged_insert_same_tag_replaces() {
        let mut t: TaggedTable<u8> = TaggedTable::new(4, 2, 8, 0);
        t.insert(0, 0x11, 1);
        assert_eq!(t.insert(0, 0x11, 2), TagLookup::Hit);
        assert_eq!(t.peek(0, 0x11), Some(&2));
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut t: TaggedTable<u8> = TaggedTable::new(1, 2, 8, 0);
        t.insert(0, 0xa, 1);
        t.insert(0, 0xb, 2);
        // Touch 0xa so 0xb becomes LRU.
        let _ = t.lookup(0, 0xa);
        t.insert(0, 0xc, 3);
        assert!(t.peek(0, 0xa).is_some(), "recently used entry must survive");
        assert!(t.peek(0, 0xb).is_none(), "LRU entry must be evicted");
        assert!(t.peek(0, 0xc).is_some());
    }

    #[test]
    fn invalid_ways_fill_before_eviction() {
        let mut t: TaggedTable<u8> = TaggedTable::new(1, 4, 8, 0);
        for (i, tag) in [0x1u64, 0x2, 0x3, 0x4].iter().enumerate() {
            t.insert(0, *tag, i as u8);
        }
        assert_eq!(t.occupancy(), 4);
        for tag in [0x1u64, 0x2, 0x3, 0x4] {
            assert!(t.peek(0, tag).is_some());
        }
    }

    #[test]
    #[should_panic(expected = "must be in 1..=256")]
    fn tagged_table_rejects_zero_ways() {
        let _: TaggedTable<u8> = TaggedTable::new(4, 0, 8, 0);
    }

    #[test]
    #[should_panic(expected = "must be in 1..=256")]
    fn tagged_table_rejects_more_than_256_ways() {
        let _: TaggedTable<u8> = TaggedTable::new(1, 257, 8, 0);
    }

    #[test]
    fn tags_are_masked_to_width() {
        let mut t: TaggedTable<u8> = TaggedTable::new(2, 1, 4, 0);
        t.insert(0, 0xf3, 9);
        // Only low 4 bits of the tag are stored/compared.
        assert_eq!(t.peek(0, 0x3), Some(&9));
    }

    #[test]
    fn sets_are_independent() {
        let mut t: TaggedTable<u8> = TaggedTable::new(2, 1, 8, 0);
        t.insert(0, 0x5, 1);
        t.insert(1, 0x5, 2);
        assert_eq!(t.peek(0, 0x5), Some(&1));
        assert_eq!(t.peek(1, 0x5), Some(&2));
    }

    #[test]
    fn iter_reports_valid_entries() {
        let mut t: TaggedTable<u8> = TaggedTable::new(2, 2, 8, 0);
        t.insert(0, 0x1, 10);
        t.insert(1, 0x2, 20);
        let mut entries: Vec<_> = t.iter().map(|(s, tag, d)| (s, tag, *d)).collect();
        entries.sort_unstable();
        assert_eq!(entries, vec![(0, 0x1, 10), (1, 0x2, 20)]);
    }
}
