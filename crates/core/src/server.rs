//! The mediator's state: the one [`Mediator`] struct (also named
//! [`ConcurrentMediator`]), its admission gate and its counters.
//!
//! A mediator is an **immutable planning snapshot** (the checked program
//! with its analysis warnings, CIM routing, configuration, pushdown
//! rules) and a **shared-state layer** every query reaches through
//! `&self`: the answer and statistics caches, sharded by
//! `(domain, function)` into independently locked shards ([`ShardedCim`],
//! [`ShardedDcsm`]), the circuit-breaker bank, and the single-flight
//! [`InFlightRegistry`]. [`Mediator::query`] therefore takes `&self`, and
//! the type is `Send + Sync`: wrap it in an `Arc` and call it from as many
//! client threads as you like.
//!
//! **Changing the planning core.** `register_program`,
//! `caches().policy()…apply()` and `add_pushdown` take `&self`; the
//! exclusive owner may also `config_mut`. A change edits a copy of the
//! current snapshot and installs it under a write lock, so concurrent
//! changes all land. A query reads the snapshot once, at `stage`, and
//! plans against it with no lock held: a query staged before a change
//! finishes on the core it staged against, and one staged after sees the
//! whole change — a new program always with its own routing.
//!
//! **Virtual time.** Each query runs on its own virtual clock, started at
//! the high-water mark of finished queries (an atomic, in microseconds),
//! so concurrent queries overlap in real time while each reports its own
//! simulated timeline.

use crate::breaker::BreakerBank;
use crate::caches::CacheControl;
use crate::flight::InFlightRegistry;
use crate::matcache::MatCache;
use crate::mediator::{QueryRequest, QueryResult};
use crate::pipeline::PlanningCore;
use crate::tier::TierLoad;
use hermes_cim::ShardedCim;
use hermes_common::sync::{Mutex, RwLock};
use hermes_common::{HermesError, Result, SimClock, SimDuration, SimInstant};
use hermes_dcsm::ShardedDcsm;
use hermes_net::Network;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Server-wide counters, assembled on demand from the shared state.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Queries served to completion (success or error).
    pub queries: u64,
    /// Ground calls that joined another query's identical in-flight call.
    pub calls_coalesced: u64,
    /// Coalesced calls actually served by a leader's published outcome —
    /// source round trips the coalescing avoided.
    pub round_trips_saved: u64,
    /// Flights that resolved with at least one follower attached.
    pub coalesced_flights: u64,
    /// Calls that reached a source executor (one per flight, however many
    /// queries coalesced onto it).
    pub source_calls: u64,
    /// Blocking CIM shard-lock acquisitions (a `try_lock` found the shard
    /// held by another query).
    pub cim_lock_contention: u64,
    /// Blocking DCSM shard-lock acquisitions.
    pub dcsm_lock_contention: u64,
    /// Queries the admission gate let through (everything not shed, so
    /// `admitted + shed == queries`).
    pub admitted: u64,
    /// Queries refused outright with [`HermesError::Shed`].
    pub shed: u64,
    /// Admitted queries that served degraded: started below the `Full`
    /// tier, or downgraded mid-execution under budget pressure.
    pub downgraded: u64,
    /// Queries served whole from a materialized subplan entry.
    pub subplan_hits: u64,
    /// Queries served by another query's in-flight subplan computation.
    pub subplans_coalesced: u64,
    /// Complete plan results admitted into the subplan cache.
    pub subplans_materialized: u64,
}

/// The admission gate: a lock-free count of admitted queries under one
/// capacity (`usize::MAX` = unbounded, the default). Admission is checked
/// at the front door, before any parsing or planning — a shed query costs
/// nothing and returns immediately.
#[derive(Debug)]
pub(crate) struct AdmissionGate {
    capacity: AtomicUsize,
    in_flight: AtomicUsize,
}

impl AdmissionGate {
    fn unbounded() -> Self {
        AdmissionGate {
            capacity: AtomicUsize::new(usize::MAX),
            in_flight: AtomicUsize::new(0),
        }
    }

    /// True when the capacity is finite — only then does the gate engage
    /// the tier selector on the default path.
    fn is_bounded(&self) -> bool {
        self.capacity.load(Ordering::Relaxed) != usize::MAX
    }

    /// The load the tier selector sees, when the gate is bounded.
    pub(crate) fn load(&self) -> Option<TierLoad> {
        self.is_bounded().then(|| TierLoad {
            in_flight: self.in_flight.load(Ordering::Relaxed),
            capacity: self.capacity.load(Ordering::Relaxed),
        })
    }

    /// Front-door admission. `None` means shed (`gate-full`).
    pub(crate) fn admit(self: &Arc<Self>) -> Option<GatePermit> {
        let capacity = self.capacity.load(Ordering::Relaxed);
        let prev = self.in_flight.fetch_add(1, Ordering::AcqRel);
        if prev >= capacity {
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            return None;
        }
        Some(GatePermit { gate: self.clone() })
    }
}

/// RAII admission slot. It owns its handle on the gate, so a staged
/// query can carry its admission from the thread that staged it to the
/// thread that runs it.
#[derive(Debug)]
pub(crate) struct GatePermit {
    gate: Arc<AdmissionGate>,
}

impl Drop for GatePermit {
    fn drop(&mut self) {
        self.gate.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The HERMES mediator: a program, a network of domains, the two caches,
/// and a persistent virtual clock, shared by every query (see the
/// [module docs](self)). [`Mediator::new`] and [`Mediator::from_source`]
/// build one with one shard per cache; [`Mediator::to_concurrent`] makes
/// a copy over more shards.
pub struct Mediator {
    /// The current planning snapshot: read once per query, replaced
    /// whole by every change.
    pub(crate) core: RwLock<Arc<PlanningCore>>,
    pub(crate) network: Arc<Network>,
    pub(crate) cim: ShardedCim,
    pub(crate) dcsm: ShardedDcsm,
    pub(crate) breakers: Arc<Mutex<BreakerBank>>,
    flight: InFlightRegistry,
    /// The subplan materialization cache. A mediator made with
    /// `to_concurrent` shares it with the one it came from; each plan's
    /// own routes decide whether it may use it (see
    /// [`MatCache::ticket`]), whatever routing either mediator has.
    pub(crate) matcache: Arc<MatCache>,
    /// High-water mark of virtual time over finished queries, in
    /// microseconds since the epoch. Each query's clock starts here.
    epoch_us: AtomicU64,
    /// Run queries on a wall-anchored clock instead of the simulator:
    /// deadlines, budgets, and tier checkpoints bind to real elapsed
    /// time. The network serving stack (`hermes-serve`) turns this on.
    wall_clock: AtomicBool,
    queries: AtomicU64,
    pub(crate) gate: Arc<AdmissionGate>,
    admitted: AtomicU64,
    shed: AtomicU64,
    pub(crate) downgraded: AtomicU64,
}

/// The mediator under the name its served face had before the two faces
/// became one type.
pub type ConcurrentMediator = Mediator;

impl Mediator {
    pub(crate) fn from_parts(
        core: Arc<PlanningCore>,
        network: Arc<Network>,
        cim: ShardedCim,
        dcsm: ShardedDcsm,
        breakers: Arc<Mutex<BreakerBank>>,
        matcache: Arc<MatCache>,
        epoch: SimInstant,
    ) -> Self {
        Mediator {
            core: RwLock::new(core),
            network,
            cim,
            dcsm,
            breakers,
            flight: InFlightRegistry::new(),
            matcache,
            epoch_us: AtomicU64::new(epoch.duration_since(SimInstant::EPOCH).as_micros()),
            wall_clock: AtomicBool::new(false),
            queries: AtomicU64::new(0),
            gate: Arc::new(AdmissionGate::unbounded()),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            downgraded: AtomicU64::new(0),
        }
    }

    /// The current planning snapshot. A query reads it once, at `stage`.
    pub(crate) fn snapshot(&self) -> Arc<PlanningCore> {
        self.core.read().clone()
    }

    /// Installs a changed planning snapshot: `change` edits the current
    /// one under the write lock — a copy of it while any query or read
    /// handle still holds it — so concurrent changes apply one after the
    /// other and none is lost.
    pub(crate) fn change_core(&self, change: impl FnOnce(&mut PlanningCore)) {
        change(Arc::make_mut(&mut self.core.write()))
    }

    /// Bounds the admission gate at `capacity` concurrently admitted
    /// queries; `None` makes it unbounded again, the default (nothing is
    /// shed). A bounded gate also engages the tier selector on every
    /// query, so overload degrades service instead of queueing it.
    pub fn set_gate(&self, capacity: Option<usize>) {
        let capacity = capacity.unwrap_or(usize::MAX);
        self.gate.capacity.store(capacity, Ordering::Relaxed);
    }

    /// Switches query execution onto a wall-anchored clock (see
    /// [`SimClock::wall_from`]): per-query deadlines, budgets, and tier
    /// checkpoints then bind to real elapsed time, which is what a server
    /// answering remote clients over real-latency backends needs. Off by
    /// default — the simulated clock keeps runs deterministic.
    pub fn set_wall_clock(&self, on: bool) {
        self.wall_clock.store(on, Ordering::Relaxed);
    }

    /// True when queries run on the wall clock.
    pub fn wall_clock(&self) -> bool {
        self.wall_clock.load(Ordering::Relaxed)
    }

    /// Runs a query. Accepts plain source text (all-answers mode, §3) or
    /// a [`QueryRequest`] carrying per-run options:
    ///
    /// ```ignore
    /// m.query("?- item(A, B).")?;
    /// m.query(QueryRequest::new("?- item(A, B).").limit(5).parallelism(4))?;
    /// ```
    ///
    /// Request options override a copy of the mediator's configuration,
    /// for this run only. Takes `&self` — call it from any thread.
    pub fn query(&self, req: impl Into<QueryRequest>) -> Result<QueryResult> {
        self.run(self.stage(&req.into())?)
    }

    /// Advances the virtual clock (e.g. to model idle time between
    /// experiment runs).
    pub fn advance_clock(&mut self, d: SimDuration) {
        *self.epoch_us.get_mut() += d.as_micros();
    }

    /// True while the admission gate is bounded: every query then goes
    /// through the tier selector.
    pub(crate) fn gate_bounded(&self) -> bool {
        self.gate.is_bounded()
    }

    /// A fresh per-query clock at the high-water mark of finished queries.
    pub(crate) fn query_clock(&self) -> SimClock {
        if self.wall_clock() {
            SimClock::wall_from(self.now())
        } else {
            let mut sim = SimClock::new();
            sim.advance_to(self.now());
            sim
        }
    }

    /// Folds a finished query's clock into the high-water mark.
    pub(crate) fn fold_clock(&self, clock: &SimClock) {
        self.epoch_us.fetch_max(
            clock.now().duration_since(SimInstant::EPOCH).as_micros(),
            Ordering::Relaxed,
        );
    }

    /// Counts a query that ended in `error`: shed, or admitted and failed.
    /// Every query is counted exactly once, by whichever of `stage`,
    /// `run` or `run_cached` ends it, so `admitted + shed == queries`.
    pub(crate) fn count(&self, error: &HermesError) {
        if matches!(error, HermesError::Shed { .. }) {
            self.shed.fetch_add(1, Ordering::Relaxed);
            self.queries.fetch_add(1, Ordering::Relaxed);
        } else {
            self.count_admitted();
        }
    }

    pub(crate) fn count_admitted(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
        self.queries.fetch_add(1, Ordering::Relaxed);
    }

    /// The sharded answer cache.
    pub fn cim(&self) -> &ShardedCim {
        &self.cim
    }

    /// The unified cache-control facade over both cache tiers (the CIM's
    /// ground-call answer cache and the subplan materialization cache):
    /// stats, per-source invalidation, clearing, invariants, and the
    /// policy builder. See [`CacheControl`].
    pub fn caches(&self) -> CacheControl<'_> {
        CacheControl::new(self)
    }

    /// The sharded statistics cache.
    pub fn dcsm(&self) -> &ShardedDcsm {
        &self.dcsm
    }

    /// The single-flight registry.
    pub fn flight(&self) -> &InFlightRegistry {
        &self.flight
    }

    /// The network of placed domains.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The per-site circuit breakers. The bank lives as long as the
    /// mediator (and is shared with those made by `to_concurrent`), so a
    /// site isolated during one query stays isolated for the next until
    /// its cooldown elapses.
    pub fn breakers(&self) -> &Mutex<BreakerBank> {
        &self.breakers
    }

    /// Current virtual time: the high-water mark of finished queries (it
    /// advances across queries, so the simulated network load drifts like
    /// the paper's day-long measurement runs).
    pub fn now(&self) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_micros(self.epoch_us.load(Ordering::Relaxed))
    }

    /// Server-wide counters.
    pub fn stats(&self) -> ServerStats {
        let mat = self.matcache.stats();
        ServerStats {
            queries: self.queries.load(Ordering::Relaxed),
            calls_coalesced: self.flight.calls_coalesced(),
            round_trips_saved: self.flight.round_trips_saved(),
            coalesced_flights: self.flight.coalesced_flights(),
            source_calls: self.network.source_calls(),
            cim_lock_contention: self.cim.lock_contention(),
            dcsm_lock_contention: self.dcsm.lock_contention(),
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            downgraded: self.downgraded.load(Ordering::Relaxed),
            subplan_hits: mat.hits,
            subplans_coalesced: mat.coalesced,
            subplans_materialized: mat.materialized,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Handoff, StagedQuery};
    use crate::tier::PlanTier;
    use hermes_cim::{CimPreview, CimResolution, CimView};
    use hermes_common::{GroundCall, Value};
    use hermes_domains::slow::SlowDomain;
    use hermes_domains::synthetic::{RelationSpec, SyntheticDomain};
    use hermes_net::profiles;
    use std::time::Duration;

    fn mediator() -> Mediator {
        counted_mediator().0
    }

    /// The test world, and a count of the calls its source executed.
    fn counted_mediator() -> (Mediator, Arc<AtomicU64>) {
        let domain = SyntheticDomain::generate("d1", 42, &[RelationSpec::uniform("p", 8, 2.0)]);
        let domain = SlowDomain::new(Arc::new(domain), Duration::ZERO);
        let calls = domain.counter();
        (mediator_over(domain), calls)
    }

    fn mediator_over(domain: SlowDomain) -> Mediator {
        let mut net = Network::new(1);
        net.place(Arc::new(domain), profiles::cornell());
        Mediator::from_source(
            "
            item(A, B) :- in(Ans, d1:p_ff()) & =(Ans.a, A) & =(Ans.b, B).
            item(A, B) :- in(B, d1:p_bf(A)).
            item(A, B) :- in(A, d1:p_fb(B)).
            ",
            net,
        )
        .unwrap()
    }

    /// The server's own cache, except that every preview says `Hit`: what
    /// an eviction between the preview and the lookup looks like.
    struct StalePreview<'a>(&'a ShardedCim);

    impl CimView for StalePreview<'_> {
        fn lookup(&self, call: &GroundCall, now: SimInstant) -> (CimResolution, SimDuration) {
            self.0.lookup(call, now)
        }
        fn store(&self, call: GroundCall, answers: Arc<[Value]>, complete: bool, now: SimInstant) {
            self.0.store(call, answers, complete, now);
        }
        fn stale_answers(&self, call: &GroundCall) -> Option<Arc<[Value]>> {
            self.0.stale_answers(call)
        }
        fn merge_partial(
            &self,
            call: &GroundCall,
            cached: &[Value],
            actual: &[Value],
        ) -> (Vec<Value>, SimDuration) {
            self.0.merge_partial(call, cached, actual)
        }
        fn preview(&self, _call: &GroundCall) -> CimPreview {
            CimPreview::Hit
        }
    }

    fn assert_no_permit_out(server: &ConcurrentMediator) {
        assert_eq!(server.gate.in_flight.load(Ordering::Acquire), 0);
    }

    fn sorted(rows: &[Vec<hermes_common::Value>]) -> Vec<Vec<hermes_common::Value>> {
        let mut rows = rows.to_vec();
        rows.sort();
        rows
    }

    #[test]
    fn concurrent_mediator_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConcurrentMediator>();
    }

    #[test]
    fn serves_the_same_answers_as_the_serial_mediator() {
        let serial = mediator();
        let expected = serial.query("?- item(A, B).").unwrap();
        let server = mediator().to_concurrent(4);
        let got = server.query("?- item(A, B).").unwrap();
        assert_eq!(sorted(&got.rows), sorted(&expected.rows));
        assert_eq!(server.stats().queries, 1);
    }

    #[test]
    fn warm_cache_carries_over_into_the_shards() {
        let serial = mediator();
        let warm = serial.query("?- item('p_1', B).").unwrap();
        let server = serial.to_concurrent(4);
        let got = server.query("?- item('p_1', B).").unwrap();
        assert_eq!(sorted(&got.rows), sorted(&warm.rows));
        assert_eq!(got.stats.actual_calls, 0, "served from migrated cache");
    }

    #[test]
    fn many_threads_query_one_server() {
        let server = Arc::new(mediator().to_concurrent(4));
        let expected = sorted(&server.query("?- item(A, B).").unwrap().rows);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let server = server.clone();
                let expected = expected.clone();
                std::thread::spawn(move || {
                    for _ in 0..3 {
                        let got = server.query("?- item(A, B).").unwrap();
                        assert_eq!(sorted(&got.rows), expected);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("no panics");
        }
        assert_eq!(server.stats().queries, 13);
    }

    #[test]
    fn virtual_time_high_water_advances() {
        let server = mediator().to_concurrent(2);
        let t0 = server.now();
        server.query("?- item('p_1', B).").unwrap();
        assert!(server.now() > t0);
    }

    #[test]
    fn default_gate_never_sheds_and_counts_everyone_admitted() {
        let server = mediator().to_concurrent(2);
        for _ in 0..5 {
            server.query("?- item('p_1', B).").unwrap();
        }
        let stats = server.stats();
        assert_eq!(stats.queries, 5);
        assert_eq!(stats.admitted, 5);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.downgraded, 0);
    }

    #[test]
    fn zero_capacity_gate_sheds_with_the_gate_full_reason() {
        let server = mediator().to_concurrent(2);
        server.set_gate(Some(0));
        let err = server.query("?- item('p_1', B).").unwrap_err();
        match err {
            HermesError::Shed { reason } => assert_eq!(reason, "gate-full"),
            other => panic!("expected Shed, got {other:?}"),
        }
        let stats = server.stats();
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.admitted, 0);
    }

    #[test]
    fn bounded_gate_serves_the_same_answers_as_unbounded() {
        let unbounded = mediator().to_concurrent(2);
        let expected = sorted(&unbounded.query("?- item(A, B).").unwrap().rows);
        let server = mediator().to_concurrent(2);
        server.set_gate(Some(8));
        let got = server.query("?- item(A, B).").unwrap();
        assert_eq!(sorted(&got.rows), expected);
        let stats = server.stats();
        assert_eq!(stats.admitted + stats.shed, stats.queries);
    }

    #[test]
    fn explicit_cache_only_requests_count_as_downgraded() {
        let server = mediator().to_concurrent(2);
        // Warm the cache at full service first.
        server.query("?- item('p_1', B).").unwrap();
        let req = QueryRequest::new("?- item('p_1', B).").tier(PlanTier::CacheOnly);
        let got = server.query(req).unwrap();
        assert_eq!(got.stats.actual_calls, 0, "cache-only never hits the wire");
        let stats = server.stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.downgraded, 1);
    }

    #[test]
    fn a_staged_query_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<StagedQuery>();
    }

    #[test]
    fn run_cached_answers_a_warm_point_query_and_counts_it_once() {
        let (m, calls) = counted_mediator();
        let server = m.to_concurrent(2);
        let point = QueryRequest::new("?- item('p_1', B).");

        // Cold: the preview misses, the query comes back untouched.
        let staged = server.stage(&point).unwrap();
        let Handoff::Back(staged) = server.run_cached(staged) else {
            panic!("nothing cached yet")
        };
        assert_eq!(server.stats().queries, 0, "handed back, not yet counted");
        let cold = server.run(staged).unwrap();
        let source_calls = calls.load(Ordering::Relaxed);
        assert!(source_calls >= 1);

        // Warm: finished here, same rows, no source call, counted once.
        let staged = server.stage(&point).unwrap();
        let Handoff::Done(warm) = server.run_cached(staged) else {
            panic!("the cache holds the call")
        };
        assert_eq!(warm.rows, cold.rows);
        assert_eq!(warm.columns, cold.columns);
        assert!(!warm.incomplete);
        assert_eq!(warm.stats.actual_calls, 0);
        assert_eq!(warm.stats.tier_downgrades, 0);
        assert_eq!(calls.load(Ordering::Relaxed), source_calls);
        let stats = server.stats();
        assert_eq!((stats.queries, stats.admitted, stats.shed), (2, 2, 0));
        assert_eq!(stats.downgraded, 0, "the wire gate is not a tier decision");
        assert_no_permit_out(&server);
    }

    #[test]
    fn run_cached_hands_back_whatever_engages_the_tier_machinery() {
        let m = mediator();
        m.query("?- item('p_1', B).").unwrap();
        let warm = "?- item('p_1', B).";
        let budget = SimDuration::from_secs(60);
        let refused = |server: &ConcurrentMediator, req: QueryRequest| {
            let staged = server.stage(&req).unwrap();
            let Handoff::Back(staged) = server.run_cached(staged) else {
                panic!("must go to `run`")
            };
            server.run(staged).unwrap();
            assert_no_permit_out(server);
        };

        let server = m.to_concurrent(2);
        refused(&server, QueryRequest::new(warm).tier(PlanTier::Full));
        refused(&server, QueryRequest::new(warm).budget(budget));
        server.set_gate(Some(8));
        refused(&server, QueryRequest::new(warm));
        server.set_gate(None);
        let staged = server.stage(&QueryRequest::new(warm)).unwrap();
        assert!(
            matches!(server.run_cached(staged), Handoff::Done(_)),
            "and nothing else does"
        );
    }

    #[test]
    fn a_preview_hit_that_misses_is_handed_back_and_counted_once() {
        let (m, calls) = counted_mediator();
        let server = Arc::new(m.to_concurrent(2));
        let staged = server
            .stage(&QueryRequest::new("?- item('p_1', B)."))
            .unwrap();

        let Handoff::Back(staged) = server.run_cached_on(&StalePreview(server.cim()), staged)
        else {
            panic!("the lookup missed: nothing to answer from")
        };
        assert_eq!(calls.load(Ordering::Relaxed), 0, "no source call here");
        assert_eq!(server.stats().queries, 0, "handed back, not yet counted");
        assert_eq!(
            server.gate.in_flight.load(Ordering::Acquire),
            1,
            "the admission travels with the staged query"
        );

        let worker = {
            let server = server.clone();
            std::thread::spawn(move || server.run(staged))
        };
        let result = worker.join().expect("no panic").unwrap();
        assert!(!result.incomplete, "the worker answers in full");
        assert!(!result.rows.is_empty());
        assert_eq!(result.stats.tier_skipped_calls, 0);
        assert!(calls.load(Ordering::Relaxed) >= 1);
        let stats = server.stats();
        assert_eq!((stats.queries, stats.admitted, stats.shed), (1, 1, 0));
        assert_eq!(stats.downgraded, 0);
        assert_no_permit_out(&server);
    }

    #[test]
    fn a_query_that_fails_to_stage_is_counted_and_releases_its_slot() {
        let server = mediator().to_concurrent(2);
        assert!(server.stage(&QueryRequest::new("not a query")).is_err());
        let stats = server.stats();
        assert_eq!((stats.queries, stats.admitted, stats.shed), (1, 1, 0));
        assert_no_permit_out(&server);
    }
}
