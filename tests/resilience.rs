//! Resilience integration tests: the deterministic chaos harness and the
//! executor's fault-handling machinery working together end to end.
//!
//! The four scenarios here are the acceptance criteria for the resilient
//! execution layer:
//!   1. the same seeded `FaultPlan` replays bit-identically (traces AND
//!      answers);
//!   2. an open circuit breaker short-circuits a dead site, answering in
//!      far less simulated time than retry backoff alone;
//!   3. a deadline-bounded query returns partial answers with per-subgoal
//!      completeness provenance instead of running forever;
//!   4. failover replanning answers a query whose original plan routes
//!      through a dead site.

use hermes::domains::relational::{Column, ColumnType, RelationalDomain, Schema, Table};
use hermes::domains::synthetic::{RelationSpec, SyntheticDomain};
use hermes::domains::video::gen::{rope_store, ROPE_CAST};
use hermes::net::profiles;
use hermes::{
    BreakerConfig, BreakerState, FaultPlan, HermesError, IncompleteReason, Mediator, Network,
    QueryResult, SimDuration, SimInstant, Value,
};
use std::sync::Arc;

fn cast_table() -> Table {
    let mut cast = Table::new(
        "cast",
        Schema::new(vec![
            Column::new("name", ColumnType::Str),
            Column::new("role", ColumnType::Str),
        ])
        .unwrap(),
    );
    for (role, actor) in ROPE_CAST {
        cast.insert(vec![Value::str(*actor), Value::str(*role)])
            .unwrap();
    }
    cast
}

/// The rope-cast join world used by the end-to-end tests, with a seeded
/// chaos plan layered on the network: the transatlantic video site drops
/// and truncates calls, the relational site flaps, and a latency spike
/// covers the first minute.
fn chaos_mediator(net_seed: u64, fault_seed: u64) -> Mediator {
    let relation = RelationalDomain::new("relation");
    relation.add_table(cast_table());
    let mut net = Network::new(net_seed);
    net.place(Arc::new(rope_store()), profiles::italy());
    net.place(relation, profiles::cornell());
    net.set_fault_plan(
        FaultPlan::new(fault_seed)
            .drop_rate("milan", 0.15)
            .drop_rate("cornell", 0.15)
            .truncation("milan", 0.5, 0.6)
            .flapping(
                "cornell",
                SimDuration::from_secs(8),
                SimDuration::from_secs(1),
                SimDuration::from_secs(4),
            )
            .latency_spike(
                "milan",
                SimInstant::EPOCH,
                SimInstant::EPOCH + SimDuration::from_secs(60),
                2.0,
            ),
    );
    let mut m = Mediator::from_source(
        "
        scene_actors(F, L, Object, Actor) :-
            in(Object, video:frames_to_objects('rope', F, L)) &
            in(Tuple, relation:select_eq('cast', 'role', Object)) &
            =(Tuple.name, Actor).
        ",
        net,
    )
    .unwrap();
    // Retries ride out drops and one-second flap windows; a generous
    // breaker threshold keeps this run in pure retry territory so the two
    // replays exercise the full fault surface instead of short-circuiting.
    let exec = &mut m.config_mut().exec;
    exec.collect_trace = true;
    exec.retry_attempts = 3;
    m.breakers().lock().set_config(BreakerConfig {
        failure_threshold: 32,
        cooldown: SimDuration::from_secs(30),
    });
    m
}

fn run_chaos(net_seed: u64, fault_seed: u64) -> QueryResult {
    let m = chaos_mediator(net_seed, fault_seed);
    m.query("?- scene_actors(0, 935, O, A).").unwrap()
}

#[test]
fn seeded_chaos_replays_bit_identically() {
    let a = run_chaos(11, 1996);
    let b = run_chaos(11, 1996);
    // Bit-identical replay: every event at the same virtual instant, the
    // same answers, the same counters, the same provenance.
    assert_eq!(a.trace, b.trace);
    assert!(!a.trace.is_empty());
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.t_all, b.t_all);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.incomplete, b.incomplete);
    assert_eq!(a.provenance, b.provenance);
    // The plan actually injected faults: this seed pays retries.
    assert!(
        a.stats.retries > 0 || a.stats.truncated_calls > 0,
        "chaos plan injected nothing: {:?}",
        a.stats
    );
    // Truncated answer sets are never silently passed off as complete.
    if a.stats.truncated_calls > 0 {
        assert!(a.incomplete);
        assert!(a.provenance.iter().any(|p| p
            .gaps
            .iter()
            .any(|g| matches!(g, IncompleteReason::Truncated { .. }))));
    }
}

#[test]
fn different_fault_seed_is_a_different_storm() {
    let a = run_chaos(11, 1996);
    let b = run_chaos(11, 2025);
    // Same world, different storm: the traces must diverge (drops and
    // truncations are drawn from the fault plan's own stream).
    assert_ne!(a.trace, b.trace);
}

/// Two replicas of the same synthetic relation: `d1` healthy at Cornell,
/// `d2` at Milan inside a day-long outage. The program lists the doomed
/// replica's rule first so the rewriter always produces a plan through it.
fn replicated_mediator() -> Mediator {
    let spec = [RelationSpec::uniform("p", 8, 2.0)];
    let d1 = SyntheticDomain::generate("d1", 42, &spec);
    let d2 = SyntheticDomain::generate("d2", 42, &spec);
    let mut net = Network::new(5);
    net.place(Arc::new(d1), profiles::cornell());
    net.place(
        Arc::new(d2),
        profiles::italy().with_outage(
            SimInstant::EPOCH,
            SimInstant::EPOCH + SimDuration::from_secs(86_400),
        ),
    );
    Mediator::from_source(
        "
        item(A, B) :- in(B, d2:p_bf(A)).
        item(A, B) :- in(B, d1:p_bf(A)).
        ",
        net,
    )
    .unwrap()
}

/// Forces the chosen plan onto the dead `d2` replica.
fn choose_dead_plan(planned: &mut hermes::core::Planned) {
    planned.chosen = planned
        .plans
        .iter()
        .position(|p| p.to_string().contains("d2:"))
        .expect("a plan uses the d2 replica");
}

#[test]
fn failover_replans_around_a_dead_site() {
    let m = replicated_mediator();
    let mut planned = m.plan("?- item('p_1', B).").unwrap();
    assert!(planned.plans.len() >= 2);
    choose_dead_plan(&mut planned);
    let result = m.execute(planned, None).unwrap();
    // The doomed plan failed over onto the live replica and answered.
    assert_eq!(result.failovers, 1);
    assert!(!result.incomplete);
    assert!(result.plan.to_string().contains("d1:"));
    let mut direct = m.query("?- item('p_1', B).").unwrap().rows;
    let mut rows = result.rows;
    rows.sort();
    direct.sort();
    assert_eq!(rows, direct);
}

#[test]
fn breaker_short_circuit_beats_retry_backoff() {
    // Both mediators are forced onto the dead replica twice and fail over.
    // The retry-only one pays the full exponential backoff ladder against
    // the dead site every time; the breaker one pays it once, trips, and
    // afterwards short-circuits in zero simulated time.
    let run_twice = |with_breaker: bool| -> (SimDuration, QueryResult) {
        let mut m = replicated_mediator();
        let exec = &mut m.config_mut().exec;
        exec.retry_attempts = 2;
        exec.retry_backoff_ms = 500.0;
        m.breakers().lock().set_config(BreakerConfig {
            failure_threshold: if with_breaker { 1 } else { u32::MAX },
            cooldown: SimDuration::from_secs(3_600),
        });
        let mut planned = m.plan("?- item('p_1', B).").unwrap();
        choose_dead_plan(&mut planned);
        m.execute(planned, None).unwrap();
        // The mediator's persistent clock includes the virtual time the
        // dead plan burned before failing over, so the second query's
        // true cost is the clock delta around it.
        let before = m.now();
        let mut planned = m.plan("?- item('p_2', B).").unwrap();
        choose_dead_plan(&mut planned);
        let second = m.execute(planned, None).unwrap();
        (m.now().duration_since(before), second)
    };
    let (t_retry, retry_result) = run_twice(false);
    let (t_breaker, breaker_result) = run_twice(true);
    // Retry-only: 500ms + 1000ms of backoff before giving up on d2.
    assert!(
        t_retry >= SimDuration::from_millis(1_500),
        "retry-only second query too fast: {t_retry}"
    );
    assert_eq!(retry_result.stats.breaker_short_circuits, 0);
    // Breaker: the open breaker rejects d2 instantly, so the second query
    // costs roughly one live call — a fraction of the retry ladder.
    assert!(
        t_breaker * 4 < t_retry,
        "breaker {t_breaker} not ≪ retry-only {t_retry}"
    );
    assert!(breaker_result.stats.breaker_short_circuits >= 1);
    assert_eq!(breaker_result.stats.retries, 0);
    assert_eq!(breaker_result.failovers, 1);
    // Both still produce the same answers, just at different cost.
    let mut a = retry_result.rows;
    let mut b = breaker_result.rows;
    a.sort();
    b.sort();
    assert_eq!(a, b);
}

#[test]
fn breaker_state_outlives_queries_and_recovers_on_the_virtual_clock() {
    let mut m = replicated_mediator();
    m.breakers().lock().set_config(BreakerConfig {
        failure_threshold: 1,
        cooldown: SimDuration::from_secs(3_600),
    });
    let mut planned = m.plan("?- item('p_1', B).").unwrap();
    choose_dead_plan(&mut planned);
    m.execute(planned, None).unwrap();
    assert_eq!(
        m.breakers().lock().state_at("milan", m.now()),
        BreakerState::Open
    );
    // Past the cooldown the breaker is willing to probe again.
    m.advance_clock(SimDuration::from_secs(4_000));
    assert_eq!(
        m.breakers().lock().state_at("milan", m.now()),
        BreakerState::HalfOpen
    );
}

#[test]
fn deadline_bounds_query_and_reports_provenance() {
    let world = || {
        let relation = RelationalDomain::new("relation");
        relation.add_table(cast_table());
        let mut net = Network::new(7);
        net.place(Arc::new(rope_store()), profiles::cornell());
        net.place(relation, profiles::maryland());
        Mediator::from_source(
            "
            scene_actors(F, L, Object, Actor) :-
                in(Object, video:frames_to_objects('rope', F, L)) &
                in(Tuple, relation:select_eq('cast', 'role', Object)) &
                =(Tuple.name, Actor).
            ",
            net,
        )
        .unwrap()
    };
    // Baseline: how long the full query takes in this world.
    let baseline = world();
    let full = baseline.query("?- scene_actors(0, 935, O, A).").unwrap();
    let t_first = full.t_first.unwrap();
    assert!(t_first < full.t_all);
    // Rerun the identical world with a deadline between first answer and
    // completion: the query is cut off cleanly, partway through.
    let midpoint = SimDuration::from_micros((t_first.as_micros() + full.t_all.as_micros()) / 2);
    let mut bounded = world();
    bounded.config_mut().exec.deadline = Some(midpoint);
    let partial = bounded.query("?- scene_actors(0, 935, O, A).").unwrap();
    assert!(partial.t_all <= full.t_all);
    assert!(partial.incomplete);
    assert_eq!(partial.stats.deadline_aborts, 1);
    // Partial but real: a non-empty prefix of the full answer stream.
    assert!(!partial.rows.is_empty());
    assert!(partial.rows.len() < full.rows.len());
    assert_eq!(partial.rows[..], full.rows[..partial.rows.len()]);
    // And the gap is attributed, per subgoal, to the deadline.
    assert!(partial
        .provenance
        .iter()
        .any(|p| p.gaps.contains(&IncompleteReason::DeadlineExceeded)));
}

#[test]
fn strict_deadline_is_a_typed_error() {
    let d1 = SyntheticDomain::generate("d1", 3, &[RelationSpec::uniform("p", 8, 2.0)]);
    let mut net = Network::new(3);
    net.place(Arc::new(d1), profiles::cornell());
    let mut m = Mediator::from_source(
        "
        pair(A, B) :- in(A, d1:p_ff()) & in(B, d1:p_ff()).
        ",
        net,
    )
    .unwrap();
    m.config_mut().exec.deadline = Some(SimDuration::ZERO);
    m.config_mut().exec.deadline_strict = true;
    let err = m.query("?- pair(A, B).").unwrap_err();
    assert!(matches!(err, HermesError::DeadlineExceeded { .. }), "{err}");
}
