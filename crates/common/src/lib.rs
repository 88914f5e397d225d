//! # hermes-common
//!
//! Shared foundation for the HERMES mediator reproduction (SIGMOD 1996,
//! *Query Caching and Optimization in Distributed Mediator Systems*).
//!
//! This crate holds the pieces every other crate needs and nothing else:
//!
//! * [`Value`] — the data model exchanged between the mediator and external
//!   domains. Domain functions may return complex structures, so values
//!   include lists and records in addition to scalars. Values have a *total*
//!   order and a stable hash so they can key answer caches and statistics
//!   tables.
//! * [`AttrPath`] — attribute selection paths such as `$ans.1.name`, used by
//!   rule conditions to reach inside complex values.
//! * [`SimClock`] / [`SimDuration`] — the virtual clock. All experiment
//!   timings are simulated milliseconds integrated on this clock, which keeps
//!   runs deterministic and lets a "48 second call to Italy" finish instantly.
//! * [`Rng64`] — a small, seedable, dependency-free PRNG (SplitMix64 +
//!   xoshiro256**) with the distribution helpers the network simulator and
//!   workload generators need.
//! * [`frame`] — the one binary [`Value`] codec, the length-prefixed
//!   frames `hermes-serve` speaks over TCP, and the state-file container
//!   the caches persist through.
//! * [`atomic_file`] — whole-file, crash-safe replacement of the state
//!   files the caches persist to.
//! * [`HermesError`] — the error type shared across the workspace.

pub mod atomic_file;
pub mod call;
pub mod clock;
pub mod error;
pub mod frame;
pub mod path;
pub mod rng;
pub mod sync;
pub mod value;

pub use call::{shard_index, CallPattern, GroundCall, PatArg, PatternShape};
pub use clock::{SimClock, SimDuration, SimInstant};
pub use error::{HermesError, Result};
pub use frame::{DoneFrame, ErrorFrame, Frame, FrameDecoder, QueryFrame};
pub use path::{AttrPath, PathStep};
pub use rng::Rng64;
pub use value::{Record, Value};

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// element with at least fraction `p` (0.0–1.0) of the sample at or below
/// it. An empty sample yields `T::default()`.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile::<u64>(&[], 0.5), 0);
        assert_eq!(percentile(&[7u64], 0.0), 7);
        assert_eq!(percentile(&[7u64], 1.0), 7);
        let sample = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sample, 0.0), 1.0);
        assert_eq!(percentile(&sample, 0.5), 2.0);
        assert_eq!(percentile(&sample, 0.51), 3.0);
        assert_eq!(percentile(&sample, 1.0), 4.0);
    }
}
