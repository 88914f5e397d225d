//! Serial/concurrent pipeline parity: a serial `Mediator` and a one-shard
//! `ConcurrentMediator` driven by one thread over identically-seeded
//! worlds must agree bit for bit — ordered rows, chosen plan, virtual
//! times, counters, trace, provenance, failovers, and the clock after
//! every query. Both mediators are thin callers of one query pipeline;
//! this is the proof that what each passes into it (state views, clock,
//! load signal) changes nothing the paper-exact path can observe.

use hermes::domains::synthetic::{RelationSpec, SyntheticDomain};
use hermes::lang::Subst;
use hermes::net::{profiles, Site};
use hermes::{
    ConcurrentMediator, Mediator, Network, PlanTier, QueryRequest, QueryResult, SimDuration,
    SimInstant, Value,
};
use std::sync::Arc;

const SEEDS: [u64; 5] = [1, 7, 42, 1996, 31_337];

/// A mediator over two one-relation synthetic domains, each on its site.
fn world(seed: u64, placed: [(&str, u64, &str, Site); 2], rules: &str) -> Mediator {
    let mut net = Network::new(seed);
    for (domain, data_seed, relation, site) in placed {
        let spec = [RelationSpec::uniform(relation, 8, 2.0)];
        net.place(
            Arc::new(SyntheticDomain::generate(domain, data_seed, &spec)),
            site,
        );
    }
    Mediator::from_source(rules, net).unwrap()
}

/// Two relations on two sites, reachable through every access path, plus
/// a join of one onto the other's inverse.
fn two_site_world(seed: u64) -> Mediator {
    let placed = [
        ("d1", seed, "p", profiles::cornell()),
        ("d2", seed.wrapping_add(1), "q", profiles::maryland()),
    ];
    world(
        seed,
        placed,
        "item(A, B) :- in(B, d1:p_bf(A)).
         item(A, B) :- in(A, d1:p_fb(B)).
         scan(A, B) :- in(Ans, d1:p_ff()) & =(Ans.a, A) & =(Ans.b, B).
         back(B, C) :- in(C, d2:q_fb(B)).",
    )
}

/// Two replicas of the same relation: `d2` on a site that is dark for the
/// whole run and never learns statistics (so its plan keeps the cheap
/// prior and is chosen every time), `d1` on a slow live site.
fn replica_world(seed: u64) -> Mediator {
    let month = SimDuration::from_secs(30 * 86_400);
    let dark = profiles::maryland().with_outage(SimInstant::EPOCH, SimInstant::EPOCH + month);
    world(
        seed,
        [
            ("d1", seed, "p", profiles::italy()),
            ("d2", seed, "p", dark),
        ],
        "item(A, B) :- in(B, d2:p_bf(A)).
         item(A, B) :- in(B, d1:p_bf(A)).",
    )
}

/// The request mix: every per-run option the pipeline applies, a
/// dependent join, an independent pair, and repeats so warm
/// (cache-served) runs are compared too.
fn requests() -> Vec<QueryRequest> {
    let point = "?- item('p_1', B).";
    let join = "?- item('p_2', B) & back(B, C).";
    let wide = "?- scan(A, B) & back(B, C).";
    vec![
        QueryRequest::new(point),
        QueryRequest::new(point),
        QueryRequest::new("?- item(A, B).").bindings(Subst::from_pairs([("A", Value::str("p_3"))])),
        QueryRequest::new("?- scan(A, B).").limit(3),
        // Cache-only, cold then warm: incomplete, then served whole.
        QueryRequest::new("?- item('p_6', B).").tier(PlanTier::CacheOnly),
        QueryRequest::new(point).tier(PlanTier::CacheOnly),
        // A budget the estimate already exceeds (selected down up front)
        // and one the run burns through (pinned Full, so the first call
        // spends it and the executor steps down mid-run).
        QueryRequest::new("?- item('p_5', B).").budget(SimDuration::from_millis(5)),
        QueryRequest::new("?- item('p_0', B) & back(B, C).")
            .tier(PlanTier::Full)
            .budget(SimDuration::from_millis(1)),
        // The deadline passes between the join's calls.
        QueryRequest::new("?- item('p_4', B) & back(B, C).")
            .deadline(SimDuration::from_millis(500)),
        // Two independent calls overlap; a dependent join cannot.
        QueryRequest::new("?- item('p_7', B) & back(3, C).").parallelism(4),
        QueryRequest::new(join).parallelism(4),
        QueryRequest::new(join),
        QueryRequest::new(wide).parallelism(4).limit(5),
    ]
}

/// Drives `requests` through both mediators in lockstep, comparing the
/// complete outcome (every `QueryResult` field, or the error) and the
/// clock after every query.
fn drive(
    seed: u64,
    serial: &mut Mediator,
    concurrent: &ConcurrentMediator,
    requests: Vec<QueryRequest>,
    mut check: impl FnMut(usize, &QueryResult),
) {
    assert_eq!(serial.now(), concurrent.now(), "seed {seed}: start clocks");
    for (i, req) in requests.into_iter().enumerate() {
        let ctx = format!("seed {seed}, request {i} ({req:?})");
        let s = serial.query(req.clone().trace(true));
        let c = concurrent.query(req.trace(true));
        // `Debug` prints every field, floats in shortest round-trip form.
        assert_eq!(format!("{s:#?}"), format!("{c:#?}"), "{ctx}");
        assert_eq!(serial.now(), concurrent.now(), "{ctx}: now() after");
        check(i, &s.expect("the mix has no failing request"));
    }
}

#[test]
fn serial_and_one_shard_concurrent_agree_bit_for_bit() {
    use hermes::core::TraceEvent;
    let (mut answered, mut tier_events) = (0usize, 0usize);
    let (mut downgrades, mut groups, mut cut_short) = (0u64, 0u64, 0usize);
    for seed in SEEDS {
        let mut serial = two_site_world(seed);
        let concurrent = two_site_world(seed).to_concurrent(1);
        drive(seed, &mut serial, &concurrent, requests(), |_, r| {
            answered += r.rows.len();
            downgrades += r.stats.tier_downgrades;
            groups += r.stats.parallel_groups;
            cut_short += usize::from(r.stats.tier_skipped_calls == 0 && r.incomplete);
            tier_events += r
                .trace
                .iter()
                .filter(|e| matches!(e.event, TraceEvent::TierSelected { .. }))
                .count();
        });
        let stats = concurrent.stats();
        assert_eq!(stats.queries, requests().len() as u64);
        assert_eq!(stats.shed, 0);
    }
    // The mix is not vacuous: answers flowed, the selector ran, a budget
    // stepped a run down, calls overlapped, and a deadline cut a join.
    assert!(answered > 0, "no answers at all");
    assert!(tier_events >= 2 * SEEDS.len(), "{tier_events} tier events");
    assert!(downgrades > 0, "no budget-pressure downgrade");
    assert!(groups > 0, "no parallel group dispatched");
    assert!(cut_short > 0, "no deadline-incomplete run");
}

#[test]
fn failover_around_a_dark_replica_agrees_bit_for_bit() {
    for seed in SEEDS {
        let mut serial = replica_world(seed);
        let concurrent = replica_world(seed).to_concurrent(1);
        let requests: Vec<QueryRequest> = ["p_1", "p_2", "p_1", "p_4", "p_2", "p_7"]
            .into_iter()
            .map(|a| QueryRequest::new(format!("?- item('{a}', B).")))
            .collect();
        drive(seed, &mut serial, &concurrent, requests, |i, r| {
            assert_eq!(r.failovers, 1, "seed {seed}, request {i}: one failover");
            assert!(r.plan.to_string().contains("d1:"), "{}", r.plan);
        });
    }
}
