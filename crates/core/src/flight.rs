//! Single-flight coalescing: one computation per key, shared by every
//! concurrent caller that needs it.
//!
//! When K concurrent queries need the same result at (roughly) the same
//! wall-clock moment, only one of them — the **leader** — computes it;
//! the other K−1 — **followers** — block until the leader publishes and
//! then share the same `Arc`-backed value. [`Flights<K, V>`] is the one
//! implementation. [`InFlightRegistry`] coalesces ground domain calls, the
//! paper's unit of remote cost (§4.1); [`crate::matcache`] coalesces whole
//! subplans with a `Flights<MatKey, MatRows>`.
//!
//! ## Protocol
//!
//! 1. A caller about to do the work asks to [`join`](Flights::join) the
//!    key's flight.
//! 2. If no flight exists, the caller becomes the leader and receives a
//!    [`FlightLeader`] token. It does the work through its normal path
//!    and then [`publish`](FlightLeader::publish)es the value — or drops
//!    the token (an error return or a panic), which marks the flight
//!    **abandoned**.
//! 3. Otherwise the caller becomes a follower and blocks in
//!    [`FlightHandle::wait`]. A published value is cloned out (an `Arc`
//!    bump); an abandoned flight returns `None` and the follower falls back
//!    to doing the work itself (re-joining, so one follower inherits
//!    leadership and the rest coalesce behind *it*).
//!
//! The leader removes the key's entry when it resolves the flight, so a
//! later identical request starts a fresh flight (it will normally hit a
//! cache instead).
//!
//! ## Lock order and soundness
//!
//! The map lock is only ever held to look up / insert / remove an entry —
//! never across the leader's work and never while a slot lock is held.
//! Each flight's slot lock guards only its own state enum and is held only
//! inside `wait`/`publish`/`abandon`. Followers therefore block on the
//! condition variable with no other lock held, and the leader's real work
//! happens entirely outside both locks — there is no path on which two of
//! these locks nest.
//!
//! Coalescing never serves *stale* data: followers receive a value the
//! leader computed during the followers' own wait window — strictly
//! fresher than any cache entry they could have accepted. Virtual time
//! stays per-query: a ground-call follower charges the leader's
//! `t_first`/`t_all` on its own clock, exactly as if it had performed the
//! call itself.

use crate::serve::parked;
use hermes_common::sync::Mutex;
use hermes_common::GroundCall;
use hermes_net::RemoteOutcome;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar};

/// One in-flight computation's shared state.
#[derive(Debug)]
struct FlightSlot<V> {
    state: Mutex<FlightState<V>>,
    arrived: Condvar,
}

#[derive(Debug)]
enum FlightState<V> {
    /// The leader is still working.
    Pending,
    /// The leader published its value.
    Done(V),
    /// The leader failed or panicked without publishing.
    Abandoned,
}

impl<V> FlightSlot<V> {
    fn resolve(&self, state: FlightState<V>) {
        *self.state.lock() = state;
        self.arrived.notify_all();
    }
}

/// A follower's handle on another caller's in-flight computation.
#[derive(Debug)]
pub struct FlightHandle<'f, V> {
    slot: Arc<FlightSlot<V>>,
    served: &'f AtomicU64,
}

impl<V: Clone> FlightHandle<'_, V> {
    /// Blocks until the flight resolves. `Some` carries the leader's value
    /// (shared by `Arc` bump) and counts as a served follower; `None`
    /// means the leader abandoned the flight and the caller must do the
    /// work itself.
    pub fn wait(self) -> Option<V> {
        let pending = matches!(*self.slot.state.lock(), FlightState::Pending);
        let value = match pending {
            // Waiting on another query: a serving worker lends its slot.
            true => parked(|| self.resolved()),
            false => self.resolved(),
        };
        if value.is_some() {
            self.served.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// Blocks while the flight is pending.
    fn resolved(&self) -> Option<V> {
        let mut state = self.slot.state.lock();
        loop {
            match &*state {
                FlightState::Pending => {
                    state = self
                        .slot
                        .arrived
                        .wait(state)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                FlightState::Done(value) => return Some(value.clone()),
                FlightState::Abandoned => return None,
            }
        }
    }
}

/// The leader's obligation to resolve its flight. Dropping the token
/// without [`publish`](FlightLeader::publish)ing abandons the flight (this
/// covers error returns, deadline unwinds and panics), releasing every
/// follower to retry on its own.
#[derive(Debug)]
pub struct FlightLeader<'f, K: Eq + Hash, V> {
    flights: &'f Flights<K, V>,
    key: K,
    slot: Arc<FlightSlot<V>>,
    resolved: bool,
}

impl<K: Eq + Hash, V> FlightLeader<'_, K, V> {
    /// Publishes the value to every follower and closes the flight.
    pub fn publish(mut self, value: V) {
        self.resolve(FlightState::Done(value));
    }

    /// Explicitly abandons the flight (same as dropping the token, but
    /// reads better at call sites that know the work failed).
    pub fn abandon(self) {
        // Drop does the work.
    }

    fn resolve(&mut self, state: FlightState<V>) {
        if let Some(slot) = self.flights.slots.lock().remove(&self.key) {
            // Strong count > 2 (map's clone + leader's clone) means at
            // least one follower holds a handle.
            if Arc::strong_count(&slot) > 2 {
                self.flights
                    .coalesced_flights
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        self.slot.resolve(state);
        self.resolved = true;
    }
}

impl<K: Eq + Hash, V> Drop for FlightLeader<'_, K, V> {
    fn drop(&mut self) {
        if !self.resolved {
            self.resolve(FlightState::Abandoned);
        }
    }
}

/// The caller's role in a flight, decided by [`Flights::join`].
#[derive(Debug)]
pub enum FlightRole<'f, K: Eq + Hash, V> {
    /// First caller in: do the work, then publish or abandon.
    Leader(FlightLeader<'f, K, V>),
    /// A leader is already working: wait for its value.
    Follower(FlightHandle<'f, V>),
}

/// The flights currently in the air, keyed by what they compute, plus
/// the coalescing counters.
#[derive(Debug)]
pub struct Flights<K, V> {
    slots: Mutex<HashMap<K, Arc<FlightSlot<V>>>>,
    /// Follower joins (each one is a caller that did not open its own
    /// flight).
    joined: AtomicU64,
    /// Followers actually served by a published value (a follower whose
    /// leader abandoned falls back and is *not* served).
    served: AtomicU64,
    /// Flights that had at least one follower when they resolved.
    coalesced_flights: AtomicU64,
}

impl<K, V> Default for Flights<K, V> {
    fn default() -> Self {
        Flights {
            slots: Mutex::new(HashMap::new()),
            joined: AtomicU64::new(0),
            served: AtomicU64::new(0),
            coalesced_flights: AtomicU64::new(0),
        }
    }
}

impl<K: Eq + Hash + Clone, V> Flights<K, V> {
    /// No flights yet.
    pub fn new() -> Self {
        Flights::default()
    }

    /// Joins the flight for `key`, becoming its leader or a follower.
    pub fn join(&self, key: &K) -> FlightRole<'_, K, V> {
        let mut slots = self.slots.lock();
        if let Some(slot) = slots.get(key) {
            self.joined.fetch_add(1, Ordering::Relaxed);
            return FlightRole::Follower(FlightHandle {
                slot: slot.clone(),
                served: &self.served,
            });
        }
        let slot = Arc::new(FlightSlot {
            state: Mutex::new(FlightState::Pending),
            arrived: Condvar::new(),
        });
        slots.insert(key.clone(), slot.clone());
        FlightRole::Leader(FlightLeader {
            flights: self,
            key: key.clone(),
            slot,
            resolved: false,
        })
    }

    /// Callers that joined an existing flight instead of opening their own.
    pub fn followers_joined(&self) -> u64 {
        self.joined.load(Ordering::Relaxed)
    }

    /// Followers whose wait returned the leader's value.
    pub fn followers_served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Flights that resolved with at least one follower attached.
    pub fn coalesced_flights(&self) -> u64 {
        self.coalesced_flights.load(Ordering::Relaxed)
    }

    /// Flights in the air right now (for diagnostics; racy by nature).
    pub fn in_flight(&self) -> usize {
        self.slots.lock().len()
    }
}

/// The flights of ground calls currently on the wire.
///
/// Shared by every query a [`crate::Mediator`] serves.
pub type InFlightRegistry = Flights<GroundCall, RemoteOutcome>;

impl InFlightRegistry {
    /// Calls that joined an existing flight instead of opening their own.
    pub fn calls_coalesced(&self) -> u64 {
        self.followers_joined()
    }

    /// Source round trips avoided: followers that received a published
    /// outcome.
    pub fn round_trips_saved(&self) -> u64 {
        self.followers_served()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_common::{SimDuration, Value};

    fn call(k: i64) -> GroundCall {
        GroundCall::new("d", "f", vec![Value::Int(k)])
    }

    fn outcome(n: usize) -> RemoteOutcome {
        RemoteOutcome {
            answers: (0..n as i64).map(Value::Int).collect::<Vec<_>>().into(),
            t_first: SimDuration::from_millis_f64(1.0),
            t_all: SimDuration::from_millis_f64(2.0),
            bytes: 64,
            site: "test".into(),
            truncated: false,
        }
    }

    #[test]
    fn first_in_leads_second_follows() {
        let registry = InFlightRegistry::new();
        let leader = match registry.join(&call(1)) {
            FlightRole::Leader(l) => l,
            FlightRole::Follower(_) => panic!("first join must lead"),
        };
        let follower = match registry.join(&call(1)) {
            FlightRole::Follower(f) => f,
            FlightRole::Leader(_) => panic!("second join must follow"),
        };
        // A different call opens its own flight.
        assert!(matches!(registry.join(&call(2)), FlightRole::Leader(_)));
        leader.publish(outcome(3));
        let got = follower.wait().expect("published");
        assert_eq!(got.answers.len(), 3);
        assert_eq!(registry.calls_coalesced(), 1);
        assert_eq!(registry.round_trips_saved(), 1);
        assert_eq!(registry.coalesced_flights(), 1);
    }

    #[test]
    fn published_answers_share_one_allocation() {
        let registry = InFlightRegistry::new();
        let FlightRole::Leader(leader) = registry.join(&call(1)) else {
            panic!("lead");
        };
        let FlightRole::Follower(follower) = registry.join(&call(1)) else {
            panic!("follow");
        };
        let out = outcome(2);
        leader.publish(out.clone());
        let got = follower.wait().expect("published");
        assert!(Arc::ptr_eq(&got.answers, &out.answers));
    }

    #[test]
    fn abandoned_flight_releases_followers_to_retry() {
        let registry = InFlightRegistry::new();
        let FlightRole::Leader(leader) = registry.join(&call(1)) else {
            panic!("lead");
        };
        let FlightRole::Follower(follower) = registry.join(&call(1)) else {
            panic!("follow");
        };
        leader.abandon();
        assert!(follower.wait().is_none());
        // The entry is gone: the next join starts a fresh flight.
        assert!(matches!(registry.join(&call(1)), FlightRole::Leader(_)));
        assert_eq!(registry.round_trips_saved(), 0);
    }

    #[test]
    fn cross_thread_followers_block_until_publish() {
        let registry = Arc::new(InFlightRegistry::new());
        let FlightRole::Leader(leader) = registry.join(&call(7)) else {
            panic!("lead");
        };
        let mut joiners = Vec::new();
        for _ in 0..4 {
            let registry = registry.clone();
            joiners.push(std::thread::spawn(move || match registry.join(&call(7)) {
                FlightRole::Follower(f) => f.wait().map(|o| o.answers.len()),
                FlightRole::Leader(_) => panic!("leader already exists"),
            }));
        }
        // Give followers a moment to block, then publish.
        std::thread::sleep(std::time::Duration::from_millis(20));
        leader.publish(outcome(5));
        for j in joiners {
            assert_eq!(j.join().expect("no panic"), Some(5));
        }
        assert_eq!(registry.calls_coalesced(), 4);
        assert_eq!(registry.in_flight(), 0);
    }

    #[test]
    fn a_leader_that_panics_releases_its_followers() {
        let flights: Flights<&str, Arc<str>> = Flights::new();
        std::thread::scope(|s| {
            let FlightRole::Leader(leader) = flights.join(&"k") else {
                panic!("lead");
            };
            let FlightRole::Follower(follower) = flights.join(&"k") else {
                panic!("follow");
            };
            let waiter = s.spawn(move || follower.wait());
            // Give the follower a moment to block, then unwind the leader
            // before it publishes. A follower that reaches `wait` only
            // after the unwind must get the same `None`.
            std::thread::sleep(std::time::Duration::from_millis(20));
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                let _leader = leader;
                panic!("the leader's work panicked");
            }));
            assert!(unwound.is_err());
            assert_eq!(waiter.join().expect("follower returns"), None);
        });
        // The flight is gone and nobody was served: the next join leads.
        assert!(matches!(flights.join(&"k"), FlightRole::Leader(_)));
        assert_eq!(flights.followers_joined(), 1);
        assert_eq!(flights.followers_served(), 0);
        assert_eq!(flights.in_flight(), 0);
    }
}
