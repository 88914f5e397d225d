//! Single-flight coalescing of identical ground domain calls.
//!
//! When K concurrent queries need the same ground call at (roughly) the
//! same wall-clock moment, only one of them — the **leader** — should pay
//! the source round trip; the other K−1 — **followers** — block until the
//! leader publishes its [`RemoteOutcome`] and then share the same
//! `Arc`-backed answer set. Under a skewed workload this turns the zero-copy
//! answer representation into cross-query sharing and cuts duplicate source
//! traffic exactly where it concentrates: on the hot keys.
//!
//! ## Protocol
//!
//! 1. A query about to perform a source call asks the registry to
//!    [`join`](InFlightRegistry::join) the call's flight.
//! 2. If no flight exists, the caller becomes the leader and receives a
//!    [`FlightLeader`] token. It performs the call through its normal path
//!    (breaker admission, retries, DCSM recording all included) and then
//!    [`publish`](FlightLeader::publish)es the outcome — or drops the token,
//!    which marks the flight **abandoned**.
//! 3. Otherwise the caller becomes a follower and blocks in
//!    [`FlightHandle::wait`]. A published outcome is cloned out (an `Arc`
//!    bump); an abandoned flight returns `None` and the follower falls back
//!    to performing the call itself (re-joining, so one follower inherits
//!    leadership and the rest coalesce behind *it*).
//!
//! The leader removes the call's registry entry when it resolves the
//! flight, so a later identical call starts a fresh flight (it will
//! normally hit the answer cache instead).
//!
//! ## Lock order and soundness
//!
//! The registry lock is only ever held to look up / insert / remove a map
//! entry — never across a source call and never while a shard or slot lock
//! is held. Each flight's slot lock guards only its own state enum and is
//! held only inside `wait`/`publish`/`abandon`. Followers therefore block
//! on the condition variable with no other lock held, and the leader's
//! real work happens entirely outside both locks — there is no path on
//! which two of these locks nest.
//!
//! Coalescing never serves *stale* data: followers receive an outcome the
//! leader obtained from the source during the followers' own wait window —
//! strictly fresher than any cache entry they could have accepted. Virtual
//! time stays per-query: each follower charges the leader's `t_first`/`t_all`
//! on its own clock, exactly as if it had performed the call itself.

use crate::serve::parked;
use hermes_common::sync::Mutex;
use hermes_common::GroundCall;
use hermes_net::RemoteOutcome;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar};

/// One in-flight call's shared state.
#[derive(Debug)]
struct FlightSlot {
    state: Mutex<FlightState>,
    arrived: Condvar,
}

#[derive(Debug)]
enum FlightState {
    /// The leader is still on the wire.
    Pending,
    /// The leader published its outcome.
    Done(RemoteOutcome),
    /// The leader failed or panicked without publishing.
    Abandoned,
}

impl FlightSlot {
    fn new() -> Self {
        FlightSlot {
            state: Mutex::new(FlightState::Pending),
            arrived: Condvar::new(),
        }
    }

    fn resolve(&self, state: FlightState) {
        *self.state.lock() = state;
        self.arrived.notify_all();
    }
}

/// A follower's handle on another query's in-flight call.
#[derive(Debug)]
pub struct FlightHandle {
    slot: Arc<FlightSlot>,
}

impl FlightHandle {
    /// Blocks until the flight resolves. `Some` carries the leader's
    /// outcome (answers shared by `Arc` bump); `None` means the leader
    /// abandoned the flight and the caller must perform the call itself.
    pub fn wait(self) -> Option<RemoteOutcome> {
        let pending = matches!(*self.slot.state.lock(), FlightState::Pending);
        match pending {
            // Waiting on another query: a serving worker lends its slot.
            true => parked(|| self.resolved()),
            false => self.resolved(),
        }
    }

    /// Blocks while the flight is pending.
    fn resolved(&self) -> Option<RemoteOutcome> {
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
                FlightState::Done(outcome) => return Some(outcome.clone()),
                FlightState::Abandoned => return None,
            }
        }
    }
}

/// The leader's obligation to resolve its flight. Dropping the token
/// without [`publish`](FlightLeader::publish)ing abandons the flight (this
/// covers both error returns and panics), releasing every follower to
/// retry on its own.
#[derive(Debug)]
pub struct FlightLeader<'r> {
    registry: &'r InFlightRegistry,
    call: GroundCall,
    slot: Arc<FlightSlot>,
    resolved: bool,
}

impl FlightLeader<'_> {
    /// Publishes the outcome to every follower and closes the flight.
    pub fn publish(mut self, outcome: &RemoteOutcome) {
        self.registry.remove(&self.call);
        self.slot.resolve(FlightState::Done(outcome.clone()));
        self.resolved = true;
    }

    /// Explicitly abandons the flight (same as dropping the token, but
    /// reads better at call sites that know the call failed).
    pub fn abandon(self) {
        // Drop does the work.
    }
}

impl Drop for FlightLeader<'_> {
    fn drop(&mut self) {
        if !self.resolved {
            self.registry.remove(&self.call);
            self.slot.resolve(FlightState::Abandoned);
        }
    }
}

/// The caller's role in a flight, decided by [`InFlightRegistry::join`].
#[derive(Debug)]
pub enum FlightRole<'r> {
    /// First caller in: perform the call, then publish or abandon.
    Leader(FlightLeader<'r>),
    /// A leader is already on the wire: wait for its outcome.
    Follower(FlightHandle),
}

/// The registry of ground calls currently on the wire.
///
/// Shared (behind `Arc`) by every query a `ConcurrentMediator` serves.
/// A serial `Mediator` doesn't use one — with a single client there is
/// nobody to coalesce with.
#[derive(Debug, Default)]
pub struct InFlightRegistry {
    flights: Mutex<HashMap<GroundCall, Arc<FlightSlot>>>,
    /// Flights that had at least one follower when they resolved.
    coalesced_flights: AtomicU64,
    /// Total follower joins (each one is a call that did not open its own
    /// flight).
    calls_coalesced: AtomicU64,
    /// Followers actually served by a published outcome (a follower whose
    /// leader abandoned falls back and does *not* save a round trip).
    round_trips_saved: AtomicU64,
}

impl InFlightRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        InFlightRegistry::default()
    }

    /// Joins the flight for `call`, becoming its leader or a follower.
    pub fn join(&self, call: &GroundCall) -> FlightRole<'_> {
        let mut flights = self.flights.lock();
        if let Some(slot) = flights.get(call) {
            self.calls_coalesced.fetch_add(1, Ordering::Relaxed);
            FlightRole::Follower(FlightHandle { slot: slot.clone() })
        } else {
            let slot = Arc::new(FlightSlot::new());
            flights.insert(call.clone(), slot.clone());
            FlightRole::Leader(FlightLeader {
                registry: self,
                call: call.clone(),
                slot,
                resolved: false,
            })
        }
    }

    /// Notes that a follower was served by a published outcome.
    pub(crate) fn note_round_trip_saved(&self) {
        self.round_trips_saved.fetch_add(1, Ordering::Relaxed);
    }

    fn remove(&self, call: &GroundCall) {
        if let Some(slot) = self.flights.lock().remove(call) {
            // Strong count > 2 (map's clone + leader's clone) means at
            // least one follower holds a handle.
            if Arc::strong_count(&slot) > 2 {
                self.coalesced_flights.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Calls that joined an existing flight instead of opening their own.
    pub fn calls_coalesced(&self) -> u64 {
        self.calls_coalesced.load(Ordering::Relaxed)
    }

    /// Source round trips avoided: followers that received a published
    /// outcome.
    pub fn round_trips_saved(&self) -> u64 {
        self.round_trips_saved.load(Ordering::Relaxed)
    }

    /// Flights that resolved with at least one follower attached.
    pub fn coalesced_flights(&self) -> u64 {
        self.coalesced_flights.load(Ordering::Relaxed)
    }

    /// Calls on the wire right now (for diagnostics; racy by nature).
    pub fn in_flight(&self) -> usize {
        self.flights.lock().len()
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
        leader.publish(&outcome(3));
        let got = follower.wait().expect("published");
        assert_eq!(got.answers.len(), 3);
        assert_eq!(registry.calls_coalesced(), 1);
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
        leader.publish(&out);
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
        leader.publish(&outcome(5));
        for j in joiners {
            assert_eq!(j.join().expect("no panic"), Some(5));
        }
        assert_eq!(registry.calls_coalesced(), 4);
        assert_eq!(registry.in_flight(), 0);
    }
}
