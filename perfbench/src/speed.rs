//! Host-speed calibration.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by tens of percent over minutes as other tenants load it: on a 2-core
//! 2.1 GHz Xeon VM the same exec pass took 1.8 s in one run and 2.7 s a
//! few minutes later, with no steal time. A fixed kernel owned by the benchmark (table lookups feeding
//! unpredictable branches, the shape of a predictor simulation) is timed
//! between the operations of every pass, so its time tracks the host's
//! speed at that moment. Each end-to-end time is then multiplied by
//! [`REF_NS`] / (the median kernel time around it): it reads as the time
//! the work would take on a host where the kernel takes [`REF_NS`].
//! A change to the program leaves the kernel's time alone, so it moves
//! these figures by its own effect.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::probe::elapsed_ns;

/// Steps of one kernel sample (about 0.5 ms on an idle host).
pub const KERNEL_STEPS: u32 = 50_000;

/// Entries of the kernel's table: 64 KiB, so it stays in the L2 cache.
pub const TABLE_ENTRIES: usize = 1 << 13;

/// The reference kernel time: about the median of [`KERNEL_STEPS`] steps
/// on the 2-core 2.1 GHz Xeon VM the benchmark was tuned on, so scaled
/// times there read close to measured ones.
pub const REF_NS: f64 = 500_000.0;

/// Samples a scale factor uses at least; the nearest ones in time are
/// added when fewer fall inside the interval.
pub const NEAREST: usize = 16;

/// One kernel sample.
#[derive(Clone, Copy, Debug)]
struct Sample {
    /// When the sweep before the kernel started.
    start: Instant,
    /// The kernel's own time.
    kernel_ns: u64,
    /// The sweep and the kernel together: time spent in [`HostSpeed::sample`].
    total_ns: u64,
}

/// The calibration kernel's timeline over one run.
#[derive(Debug)]
pub struct HostSpeed {
    table: Vec<u64>,
    samples: RefCell<Vec<Sample>>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self::new()
    }
}

impl HostSpeed {
    /// A timeline with no samples yet; the table is a fixed pseudo-random
    /// fill, so every sample does the same work.
    #[must_use]
    pub fn new() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1D_u64;
        let table = (0..TABLE_ENTRIES)
            .map(|_| {
                x = xorshift(x);
                x
            })
            .collect();
        Self {
            table,
            samples: RefCell::new(Vec::new()),
        }
    }

    /// Times one kernel run (after an untimed sweep that brings the table
    /// back into cache) and records it.
    pub fn sample(&self) {
        if self.table.is_empty() {
            return;
        }
        let start = Instant::now();
        black_box(self.table.iter().fold(0u64, |a, &v| a ^ v));
        let t = Instant::now();
        black_box(kernel(&self.table));
        let kernel_ns = elapsed_ns(t);
        self.samples.borrow_mut().push(Sample {
            start,
            kernel_ns,
            total_ns: elapsed_ns(start),
        });
    }

    /// A timeline that never samples: it scales nothing. Serve uses it,
    /// because its times are mostly the server's fixed accept-loop tick,
    /// not CPU work.
    #[must_use]
    pub fn unscaled() -> Self {
        Self {
            table: Vec::new(),
            samples: RefCell::new(Vec::new()),
        }
    }

    /// Samples taken so far.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.samples.borrow().len()
    }

    /// `wall`, measured from `start`, less the time the samples taken
    /// inside it spent, scaled to the reference speed, in seconds.
    #[must_use]
    pub fn scaled(&self, start: Instant, wall: Duration) -> f64 {
        let end = start + wall;
        let own: u64 = self
            .samples
            .borrow()
            .iter()
            .filter(|s| s.start >= start && s.start < end)
            .map(|s| s.total_ns)
            .sum();
        let work = wall.saturating_sub(Duration::from_nanos(own));
        work.as_secs_f64() * self.factor(start, end)
    }

    /// The factor that scales a time measured over `from..to` to the
    /// reference speed: [`REF_NS`] / the median of the samples taken in
    /// that interval, or of the [`NEAREST`] samples nearest to it when
    /// fewer fall inside. 1 when there are no samples at all.
    #[must_use]
    pub fn factor(&self, from: Instant, to: Instant) -> f64 {
        let samples = self.samples.borrow();
        let mut near: Vec<(Duration, u64)> = samples
            .iter()
            .map(|s| {
                let distance = if s.start < from {
                    from - s.start
                } else {
                    s.start.saturating_duration_since(to)
                };
                (distance, s.kernel_ns)
            })
            .collect();
        near.sort_by_key(|&(d, _)| d);
        let inside = near.iter().filter(|(d, _)| d.is_zero()).count();
        let ns: Vec<f64> = near
            .iter()
            .take(inside.max(NEAREST))
            .map(|&(_, ns)| ns as f64)
            .collect();
        crate::stats::median(&ns).map_or(1.0, |m| REF_NS / m.max(1.0))
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// The calibration kernel: pseudo-random table lookups, each deciding an
/// unpredictable branch.
fn kernel(table: &[u64]) -> u64 {
    let mask = table.len() - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut acc = 0u64;
    for _ in 0..KERNEL_STEPS {
        x = xorshift(x);
        let i = (x as usize) & mask;
        if table[i] & 1 == 0 {
            acc = acc.wrapping_add(table[(i ^ 0x55) & mask]);
        } else {
            acc ^= x.rotate_left(7);
        }
    }
    acc
}
