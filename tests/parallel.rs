//! Parallel scheduler integration tests: determinism on the virtual
//! clock, answer-set equivalence with the sequential executor, deadline
//! behaviour mid-group, and same-site batching.

use hermes::core::trace::{self, TraceEvent};
use hermes::domains::synthetic::{RelationSpec, SyntheticDomain};
use hermes::net::profiles;
use hermes::{Mediator, Network, QueryRequest, SimDuration, Value};
use std::sync::Arc;

/// Four independent synthetic relations, one domain per site.
fn four_site_world(seed: u64) -> Mediator {
    let mut net = Network::new(seed);
    for (i, site) in [
        profiles::maryland(),
        profiles::cornell(),
        profiles::bucknell(),
        profiles::maryland(),
    ]
    .into_iter()
    .enumerate()
    {
        let d = SyntheticDomain::generate(
            format!("d{}", i + 1),
            seed.wrapping_add(i as u64),
            &[RelationSpec::uniform("p", 4, 1.0)],
        );
        net.place(Arc::new(d), site);
    }
    let m = Mediator::from_source("", net).unwrap();
    m.caches()
        .policy()
        .routing(hermes::CimPolicy::never())
        .apply()
        .unwrap();
    m
}

const FOUR_CALLS: &str = "?- in(A, d1:p_ff()) & in(B, d2:p_ff()) &
                             in(C, d3:p_ff()) & in(D, d4:p_ff()).";

fn sorted(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut rows = rows.to_vec();
    rows.sort();
    rows
}

#[test]
fn parallel_runs_are_deterministic() {
    // Ten runs from identical seeds must agree bit-for-bit: same answers
    // in the same order, same trace event sequence, same virtual times.
    let reference = four_site_world(11)
        .query(QueryRequest::new(FOUR_CALLS).parallelism(4).trace(true))
        .unwrap();
    assert!(reference.stats.parallel_groups >= 1);
    for _ in 0..9 {
        let run = four_site_world(11)
            .query(QueryRequest::new(FOUR_CALLS).parallelism(4).trace(true))
            .unwrap();
        assert_eq!(run.rows, reference.rows);
        assert_eq!(run.t_all, reference.t_all);
        assert_eq!(trace::render(&run.trace), trace::render(&reference.trace));
    }
}

#[test]
fn parallel_answer_multiset_matches_sequential() {
    for seed in 1..=5 {
        let serial = four_site_world(seed).query(FOUR_CALLS).unwrap();
        for k in [2, 3, 4, 8] {
            let parallel = four_site_world(seed)
                .query(QueryRequest::new(FOUR_CALLS).parallelism(k))
                .unwrap();
            assert_eq!(
                sorted(&parallel.rows),
                sorted(&serial.rows),
                "seed {seed}, parallelism {k}"
            );
            assert!(
                parallel.t_all <= serial.t_all,
                "seed {seed}, parallelism {k}: {} > {}",
                parallel.t_all,
                serial.t_all
            );
        }
    }
}

#[test]
fn parallel_run_emits_group_trace_and_in_flight_peaks() {
    let m = four_site_world(3);
    let result = m
        .query(QueryRequest::new(FOUR_CALLS).parallelism(4).trace(true))
        .unwrap();
    assert!(result
        .trace
        .iter()
        .any(|e| matches!(e.event, TraceEvent::GroupDispatched { calls: 4, .. })));
    assert!(result
        .trace
        .iter()
        .any(|e| matches!(e.event, TraceEvent::Overlapped { .. })));
    assert!(result.stats.overlapped_calls == 4);
    assert!(result.stats.overlap_saved_us > 0);
    // d1 and d4 share the Maryland site, so its peak must reach 2 while
    // the single-tenant sites stay at 1.
    assert_eq!(m.network().peak_in_flight("umd"), 2);
    assert_eq!(m.network().peak_in_flight("cornell"), 1);
    assert_eq!(m.network().peak_in_flight("bucknell"), 1);
}

#[test]
fn deadline_mid_group_cancels_undispatched_calls() {
    // Two slots, four slow calls: the second wave's slots open only after
    // the first wave's ~400ms+ transfers, far past the 150ms deadline, so
    // those members are abandoned with a Cancelled trace event and the
    // run returns partial answers.
    let mut net = Network::new(9);
    for i in 0..4 {
        let d = SyntheticDomain::generate(
            format!("d{}", i + 1),
            i as u64,
            &[RelationSpec::uniform("p", 4, 1.0)],
        );
        net.place(Arc::new(d), profiles::cornell());
    }
    let m = Mediator::from_source("", net).unwrap();
    m.caches()
        .policy()
        .routing(hermes::CimPolicy::never())
        .apply()
        .unwrap();
    let result = m
        .query(
            QueryRequest::new(FOUR_CALLS)
                .parallelism(2)
                .deadline(SimDuration::from_millis_f64(150.0))
                .trace(true),
        )
        .unwrap();
    assert!(result.incomplete);
    assert!(result.stats.deadline_aborts >= 1);
    assert!(
        result.stats.cancelled_calls >= 2,
        "expected the second wave abandoned, stats: {:?}",
        result.stats
    );
    assert!(result
        .trace
        .iter()
        .any(|e| matches!(e.event, TraceEvent::Cancelled { .. })));
}

#[test]
fn repeated_site_function_calls_batch_into_one_round_trip() {
    // Both group members target d1:p_ff — the second piggybacks on the
    // first's round trip, and the answers still match the serial run.
    let query = "?- in(A, d1:p_ff()) & in(B, d1:p_ff()).";
    let world = |seed| {
        let mut net = Network::new(seed);
        let d = SyntheticDomain::generate("d1", 5, &[RelationSpec::uniform("p", 4, 1.0)]);
        net.place(Arc::new(d), profiles::cornell());
        let m = Mediator::from_source("", net).unwrap();
        m.caches()
            .policy()
            .routing(hermes::CimPolicy::never())
            .apply()
            .unwrap();
        m
    };
    let serial = world(21).query(query).unwrap();
    let parallel = world(21)
        .query(QueryRequest::new(query).parallelism(2))
        .unwrap();
    assert!(parallel.stats.batched_calls >= 1, "{:?}", parallel.stats);
    assert_eq!(sorted(&parallel.rows), sorted(&serial.rows));
    assert!(parallel.t_all < serial.t_all);
}
