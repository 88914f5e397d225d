//! Virtual time.
//!
//! The paper's experiments report wall-clock milliseconds measured across
//! the 1996 Internet ("query initialization + wait for response + display").
//! We reproduce those experiments on a *simulated* clock: every domain call
//! returns a simulated cost, and the executor advances a [`SimClock`] by
//! exactly that cost. Runs are deterministic, independent of the host
//! machine, and a 49-second call to the Italian site completes instantly.
//!
//! Durations are stored as integer **microseconds** so arithmetic is exact;
//! public accessors speak milliseconds, matching the paper's tables.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A span of simulated time, non-negative, microsecond resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration {
    micros: u64,
}

impl SimDuration {
    /// Zero duration.
    pub const ZERO: SimDuration = SimDuration { micros: 0 };

    /// From whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration { micros }
    }

    /// From whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration {
            micros: millis * 1_000,
        }
    }

    /// From fractional milliseconds (clamped at zero; NaN becomes zero).
    pub fn from_millis_f64(millis: f64) -> Self {
        if !millis.is_finite() || millis <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration {
            micros: (millis * 1_000.0).round() as u64,
        }
    }

    /// From whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration {
            micros: secs * 1_000_000,
        }
    }

    /// Microseconds.
    pub const fn as_micros(self) -> u64 {
        self.micros
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.micros as f64 / 1_000.0
    }

    /// Whole milliseconds, rounded to nearest.
    pub fn as_millis(self) -> u64 {
        (self.micros + 500) / 1_000
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.micros as f64 / 1_000_000.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration {
            micros: self.micros.saturating_sub(other.micros),
        }
    }

    /// Larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            micros: self.micros.saturating_add(rhs.micros),
        }
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.micros = self.micros.saturating_add(rhs.micros);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        self.saturating_sub(rhs)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration {
            micros: self.micros.saturating_mul(rhs),
        }
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_millis_f64(self.as_millis_f64() * rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

/// A point on the simulated timeline (microseconds since simulation start).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimInstant {
    micros: u64,
}

impl SimInstant {
    /// The simulation epoch.
    pub const EPOCH: SimInstant = SimInstant { micros: 0 };

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.micros
    }

    /// Fractional milliseconds since the epoch.
    pub fn as_millis_f64(self) -> f64 {
        self.micros as f64 / 1_000.0
    }

    /// Elapsed time since an earlier instant (saturating).
    pub fn duration_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration::from_micros(self.micros.saturating_sub(earlier.micros))
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant {
            micros: self.micros.saturating_add(rhs.as_micros()),
        }
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}ms", self.as_millis_f64())
    }
}

/// A real-time anchor: maps a wall-clock origin onto the simulated
/// timeline, so `now()` can be read off the host clock.
#[derive(Clone, Copy, Debug)]
struct WallAnchor {
    /// The host instant that corresponds to `base` on the timeline.
    origin: std::time::Instant,
    /// Where on the (shared, e.g. server-wide) timeline the origin sits.
    base: SimInstant,
}

/// The clock the executor reads as it "waits" for domain calls.
///
/// Two modes share one type, so the executor needs no generics:
///
/// * **Simulated** ([`SimClock::new`], the default): the executor advances
///   the clock by each call's *simulated* cost. Runs are deterministic,
///   independent of the host machine, and a 49-second call to the Italian
///   site completes instantly. This is the paper-exact path.
/// * **Wall-anchored** ([`SimClock::wall`] / [`SimClock::wall_from`]): the
///   network serving stack's mode. `now()` reads real elapsed time from
///   the host clock; [`advance`](Self::advance) and
///   [`advance_to`](Self::advance_to) become no-ops because real time
///   passes on its own (the simulated per-call charges would double-count
///   it). Deadlines, budgets, and tier checkpoints are all computed as
///   `now() + d` and compared against `now()`, so under a wall anchor
///   they bind to real time with no executor changes.
///
/// Cloning the clock snapshots the current time (and shares the anchor);
/// the executor owns the live clock. The clock is single-threaded by
/// design — concurrency in the paper (issuing a real call in parallel with
/// a partial cache hit) is modeled analytically by `max`-combining
/// durations, not by threads.
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    now: SimInstant,
    wall: Option<WallAnchor>,
}

impl SimClock {
    /// A simulated clock at the epoch (the paper-exact mode).
    pub fn new() -> Self {
        SimClock {
            now: SimInstant::EPOCH,
            wall: None,
        }
    }

    /// A wall-anchored clock whose timeline starts at the epoch *now* (in
    /// host time).
    pub fn wall() -> Self {
        SimClock::wall_from(SimInstant::EPOCH)
    }

    /// A wall-anchored clock whose timeline starts at `base` *now* (in
    /// host time). A server seeds `base` from its virtual-time high-water
    /// mark so per-query timelines stay monotone across queries.
    pub fn wall_from(base: SimInstant) -> Self {
        SimClock {
            now: base,
            wall: Some(WallAnchor {
                origin: std::time::Instant::now(),
                base,
            }),
        }
    }

    /// Current time: the advanced simulated instant, or (wall mode) the
    /// anchor base plus real elapsed time, whichever is later — the clock
    /// never runs backwards across a mode's own reads.
    pub fn now(&self) -> SimInstant {
        match self.wall {
            None => self.now,
            Some(anchor) => {
                let real = anchor.base
                    + SimDuration::from_micros(
                        anchor.origin.elapsed().as_micros().min(u64::MAX as u128) as u64,
                    );
                real.max(self.now)
            }
        }
    }

    /// Advances by `d` and returns the new now. Under a wall anchor this
    /// is a no-op (real time passes on its own; charging simulated costs
    /// on top would double-count them).
    pub fn advance(&mut self, d: SimDuration) -> SimInstant {
        if self.wall.is_none() {
            self.now = self.now + d;
        }
        self.now()
    }

    /// Advances to `t` if it is in the future; the clock never goes back.
    /// No-op under a wall anchor.
    pub fn advance_to(&mut self, t: SimInstant) {
        if self.wall.is_none() && t > self.now {
            self.now = t;
        }
    }

    /// Waits out `d`: advances the simulated clock, or — under a wall
    /// anchor — actually sleeps the host thread. The retry-backoff path
    /// uses this so backoff binds to real time when serving over the
    /// network and stays a pure virtual charge in simulation.
    pub fn sleep(&mut self, d: SimDuration) -> SimInstant {
        match self.wall {
            None => self.advance(d),
            Some(_) => {
                if d > SimDuration::ZERO {
                    std::thread::sleep(std::time::Duration::from_micros(d.as_micros()));
                }
                self.now()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(3);
        let b = SimDuration::from_micros(500);
        assert_eq!((a + b).as_micros(), 3_500);
        assert_eq!((a - b).as_micros(), 2_500);
        assert_eq!((b - a), SimDuration::ZERO); // saturates
        assert_eq!((a * 4).as_millis(), 12);
    }

    #[test]
    fn duration_from_fractional_millis() {
        assert_eq!(SimDuration::from_millis_f64(1.5).as_micros(), 1_500);
        assert_eq!(SimDuration::from_millis_f64(-2.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn duration_rounding_to_millis() {
        assert_eq!(SimDuration::from_micros(1_499).as_millis(), 1);
        assert_eq!(SimDuration::from_micros(1_500).as_millis(), 2);
    }

    #[test]
    fn float_scaling() {
        let d = SimDuration::from_millis(10) * 2.5;
        assert_eq!(d.as_millis(), 25);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut c = SimClock::new();
        let t1 = c.advance(SimDuration::from_millis(5));
        assert_eq!(t1.as_millis_f64(), 5.0);
        c.advance_to(SimInstant::EPOCH); // no-op, never rewinds
        assert_eq!(c.now(), t1);
        c.advance_to(t1 + SimDuration::from_millis(1));
        assert_eq!(c.now().as_millis_f64(), 6.0);
    }

    #[test]
    fn instant_duration_since() {
        let a = SimInstant::EPOCH + SimDuration::from_millis(10);
        let b = SimInstant::EPOCH + SimDuration::from_millis(4);
        assert_eq!(a.duration_since(b).as_millis(), 6);
        assert_eq!(b.duration_since(a), SimDuration::ZERO);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4u64).map(SimDuration::from_millis).sum();
        assert_eq!(total.as_millis(), 10);
    }

    #[test]
    fn wall_clock_reads_real_elapsed_time() {
        let clock = SimClock::wall();
        let t0 = clock.now();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let elapsed = clock.now().duration_since(t0);
        assert!(elapsed >= SimDuration::from_millis(4), "read {elapsed}");
    }

    #[test]
    fn wall_clock_ignores_virtual_advances() {
        let mut clock = SimClock::wall();
        let before = clock.now();
        clock.advance(SimDuration::from_secs(3600));
        clock.advance_to(before + SimDuration::from_secs(7200));
        // An hour of simulated charge moves a wall clock by (at most) the
        // real time those calls took.
        assert!(clock.now().duration_since(before) < SimDuration::from_secs(1));
    }

    #[test]
    fn wall_clock_starts_at_its_base() {
        let base = SimInstant::EPOCH + SimDuration::from_millis(250);
        let clock = SimClock::wall_from(base);
        assert!(clock.now() >= base);
        assert!(clock.now().duration_since(base) < SimDuration::from_secs(1));
    }

    #[test]
    fn wall_clock_sleep_takes_real_time() {
        let mut clock = SimClock::wall();
        let t0 = std::time::Instant::now();
        clock.sleep(SimDuration::from_millis(5));
        assert!(t0.elapsed() >= std::time::Duration::from_millis(5));
    }

    #[test]
    fn sim_clock_sleep_is_a_virtual_advance() {
        let mut clock = SimClock::new();
        let t0 = std::time::Instant::now();
        clock.sleep(SimDuration::from_secs(30));
        assert!(t0.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(clock.now().as_micros(), 30_000_000);
    }
}
