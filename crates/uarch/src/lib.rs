//! The cycle-level machine substrate for the prophet/critic reproduction:
//! Table 2's microarchitecture parameters, a set-associative cache
//! hierarchy with a stream prefetcher, and synthetic data-access streams.
//!
//! The timing *orchestration* (fetch/critique/resolve cursors, uPC
//! accounting) lives in the `sim` crate; this crate owns the reusable
//! hardware models.
//!
//! ```
//! use uarch::{Hierarchy, MachineParams};
//!
//! let m = MachineParams::isca04();
//! assert_eq!(m.mispredict_penalty, 30);
//! let mut mem = Hierarchy::new(&m);
//! let (latency, _) = mem.access(0xdead_b000);
//! assert_eq!(latency, m.memory_cycles()); // cold: full memory latency
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod datagen;
mod params;

pub use cache::{AccessLevel, Cache, Hierarchy};
pub use datagen::{Accesses, DataProfile, DataStream};
pub use params::{CacheParams, MachineParams};
