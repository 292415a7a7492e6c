//! Synthetic data-access streams.
//!
//! The paper's LITs contain full memory images; our programs have no data
//! side, so the cycle model synthesizes one: each basic block owns a
//! deterministic access generator — streaming (array walk, prefetchable) or
//! pointer-chasing (hash-scattered over the working set) — so the cache
//! hierarchy and prefetcher see realistic locality structure that differs
//! by benchmark.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::iter::FusedIterator;

/// Per-program data-side character.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct DataProfile {
    /// Working-set bytes (drives L2 residency).
    pub working_set: u64,
    /// Permille of blocks whose accesses stream sequentially.
    pub streaming_permille: u16,
    /// Data accesses per `access_every` uops (1 access per N uops).
    pub uops_per_access: u32,
}

impl DataProfile {
    /// A cache-friendly profile (FP-like: streaming over big arrays).
    #[must_use]
    pub fn streaming() -> Self {
        Self {
            working_set: 32 << 20,
            streaming_permille: 850,
            uops_per_access: 3,
        }
    }

    /// A pointer-chasing profile (server-like: scattered over a big set).
    #[must_use]
    pub fn scattered() -> Self {
        Self {
            working_set: 48 << 20,
            streaming_permille: 200,
            uops_per_access: 3,
        }
    }

    /// A mostly-resident profile (integer codes: modest working set).
    #[must_use]
    pub fn resident() -> Self {
        Self {
            working_set: 1 << 20,
            streaming_permille: 500,
            uops_per_access: 3,
        }
    }
}

fn mix(x: u64) -> u64 {
    // splitmix64 finalizer: cheap, well-distributed.
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A multiplicative hasher for the per-block counter map: block keys are
/// program counters, which need no DoS-resistant (and slow) SipHash. The
/// map is never iterated, so its hash order cannot reach any result.
#[derive(Copy, Clone, Default, Debug)]
struct PcHasher(u64);

impl Hasher for PcHasher {
    fn finish(&self) -> u64 {
        // The table indexes buckets by the low bits and tags them by the
        // top ones: rotate the well-mixed high product bits down.
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Deterministic per-block data-address generator.
#[derive(Clone, Debug)]
pub struct DataStream {
    profile: DataProfile,
    /// Per-block iteration counters (position in the block's array walk).
    counters: HashMap<u64, u64, BuildHasherDefault<PcHasher>>,
    base: u64,
}

impl DataStream {
    /// Creates a stream generator for one program run.
    #[must_use]
    pub fn new(profile: DataProfile, seed: u64) -> Self {
        Self {
            profile,
            counters: HashMap::default(),
            base: 0x1000_0000 ^ (seed << 12),
        }
    }

    /// The data addresses a block of `uops` uops issues on this visit.
    /// `block_key` identifies the static block (e.g. its terminator pc).
    ///
    /// The visit is recorded at the call; the returned iterator owns
    /// everything it needs, so it does not borrow the stream.
    pub fn accesses(&mut self, block_key: u64, uops: u64) -> Accesses {
        let n = uops / u64::from(self.profile.uops_per_access.max(1));
        if n == 0 {
            return Accesses::default();
        }
        let h = mix(block_key);
        let streaming = (h % 1000) < u64::from(self.profile.streaming_permille);
        let iter = self.counters.entry(block_key).or_insert(0);
        let start = *iter * n;
        *iter += 1;
        let ws = self.profile.working_set.max(4096);
        let (origin, modulus) = if streaming {
            // Sequential walk over a per-block array region.
            let region = (h >> 10) % 64;
            (self.base + region * (ws / 64), ws / 64)
        } else {
            // Hash-scattered over the working set (pointer chase).
            (self.base, ws)
        };
        Accesses {
            pos: start,
            end: start + n,
            streaming,
            h,
            origin,
            modulus,
        }
    }
}

/// The data addresses of one block visit, in issue order (see
/// [`DataStream::accesses`]).
#[derive(Clone, Debug, Default)]
pub struct Accesses {
    /// Walk position of the next access (`visit * n + k`).
    pos: u64,
    end: u64,
    streaming: bool,
    /// The block's hash, which seeds a scattered walk.
    h: u64,
    /// Address `origin + (offset % modulus)` for each walk offset.
    origin: u64,
    modulus: u64,
}

impl Iterator for Accesses {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.pos == self.end {
            return None;
        }
        let i = self.pos;
        self.pos += 1;
        Some(if self.streaming {
            self.origin + (i * 8) % self.modulus
        } else {
            self.origin + mix(self.h ^ i) % self.modulus
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.end - self.pos) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Accesses {}

impl FusedIterator for Accesses {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_count_scales_with_uops() {
        let mut d = DataStream::new(DataProfile::resident(), 1);
        assert_eq!(d.accesses(0x100, 9).count(), 3);
        assert_eq!(d.accesses(0x100, 2).count(), 0);
    }

    #[test]
    fn accesses_report_their_exact_length() {
        let mut d = DataStream::new(DataProfile::scattered(), 3);
        let mut a = d.accesses(0x200, 30);
        assert_eq!(a.len(), 10);
        let _ = a.next();
        assert_eq!(a.len(), 9);
        assert_eq!(a.count(), 9);
    }

    #[test]
    fn streaming_blocks_emit_sequential_addresses() {
        let profile = DataProfile {
            working_set: 1 << 20,
            streaming_permille: 1000,
            uops_per_access: 3,
        };
        let mut d = DataStream::new(profile, 1);
        let a: Vec<u64> = d.accesses(0x40, 30).collect();
        let b: Vec<u64> = d.accesses(0x40, 30).collect();
        // Consecutive visits continue the walk: first address of b follows
        // the last address of a by one stride.
        assert_eq!(b[0], a.last().unwrap() + 8);
        assert!(a.windows(2).all(|w| w[1] == w[0] + 8));
    }

    #[test]
    fn scattered_blocks_jump_around() {
        let profile = DataProfile {
            working_set: 32 << 20,
            streaming_permille: 0,
            uops_per_access: 3,
        };
        let mut d = DataStream::new(profile, 1);
        let a: Vec<u64> = d.accesses(0x40, 30).collect();
        let far = a.windows(2).filter(|w| w[0].abs_diff(w[1]) > 4096).count();
        assert!(far >= a.len() / 2, "scattered accesses should be far apart");
    }

    #[test]
    fn generator_is_deterministic() {
        let mut d1 = DataStream::new(DataProfile::scattered(), 9);
        let mut d2 = DataStream::new(DataProfile::scattered(), 9);
        assert!(d1.accesses(0x77, 24).eq(d2.accesses(0x77, 24)));
    }
}
