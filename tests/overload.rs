//! Overload behavior: deterministic tier selection, one-way fail-soft
//! downgrade under budget pressure, serial-vs-tiered equivalence when
//! nothing is wrong, and a thundering-herd stampede against a bounded
//! admission gate — shed queries must return [`HermesError::Shed`]
//! immediately (never hang) while admitted queries complete.

use hermes::core::tier::{select_tier, TierInputs, TierLoad};
use hermes::core::TraceEvent;
use hermes::domains::synthetic::{RelationSpec, SyntheticDomain};
use hermes::net::profiles;
use hermes::{
    HermesError, IncompleteReason, Mediator, Network, PlanTier, QueryRequest, SimDuration, Site,
    Value,
};
use std::sync::{Arc, Barrier};

fn mediator(seed: u64) -> Mediator {
    mediator_at(seed, profiles::maryland())
}

fn mediator_at(seed: u64, site: Site) -> Mediator {
    let domain = SyntheticDomain::generate("d1", seed, &[RelationSpec::uniform("p", 12, 2.0)]);
    let mut net = Network::new(seed);
    net.place(Arc::new(domain), site);
    Mediator::from_source(
        "
        item(A, B) :- in(Ans, d1:p_ff()) & =(Ans.a, A) & =(Ans.b, B).
        item(A, B) :- in(B, d1:p_bf(A)).
        item(A, B) :- in(A, d1:p_fb(B)).
        pair(B, C) :- in(B, d1:p_bf('p_1')) & in(C, d1:p_bf('p_2')).
        ",
        net,
    )
    .unwrap()
}

fn sorted(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut rows = rows.to_vec();
    rows.sort();
    rows
}

#[test]
fn tier_selector_is_deterministic_across_seeds() {
    // The selector is a pure function: for each seeded input, ten
    // evaluations yield one decision, and re-building identical inputs
    // later yields it again.
    for seed in 0..10u64 {
        let build = || TierInputs {
            requested: None,
            budget: if seed % 2 == 0 {
                Some(SimDuration::from_millis(40 + seed * 7))
            } else {
                None
            },
            estimate_ms: 25.0 * seed as f64,
            plan_site_breaker_open: seed % 4 == 0,
            load: TierLoad {
                in_flight: seed as usize,
                capacity: 12,
            },
        };
        let first = select_tier(&build());
        for _ in 0..10 {
            assert_eq!(select_tier(&build()), first, "seed {seed}");
        }
    }
}

#[test]
fn budget_pressure_downgrades_one_way_and_never_aborts() {
    // Two sequential remote calls; the budget burns out after the first.
    // The deadline is far away: the budget must fire first, producing a
    // `Downgraded` gap — not a `DeadlineExceeded` abort. A Cornell call
    // takes longer than `CHEAP_CALL_MS`, so once the DCSM has seen the
    // first, the cheaper tier refuses the second.
    let m = mediator_at(42, profiles::cornell());
    let req = QueryRequest::new("?- pair(B, C).")
        .tier(PlanTier::Full)
        .budget(SimDuration::from_millis(1))
        .deadline(SimDuration::from_secs(3600))
        .trace(true);
    let result = m.query(req).unwrap();
    assert!(result.incomplete, "the second call was skipped");
    assert_eq!(result.stats.deadline_aborts, 0, "budget beat the deadline");
    assert!(result.stats.tier_downgrades >= 1);
    assert!(result.stats.tier_skipped_calls >= 1);
    assert!(result
        .provenance
        .iter()
        .any(|p| p.gaps.contains(&IncompleteReason::Downgraded)));
    // Every downgrade in the trace moves strictly down — never up.
    let mut last = PlanTier::Full;
    for entry in &result.trace {
        if let TraceEvent::TierDowngraded { from, to, .. } = &entry.event {
            assert!(to < from, "downgrade must move down: {from} -> {to}");
            assert!(*from <= last, "tier can never climb back to {from}");
            last = *to;
        }
    }
}

#[test]
fn deadline_without_budget_still_aborts_with_its_own_reason() {
    // The control for the test above: no budget, a too-tight deadline.
    // Provenance must say `DeadlineExceeded`, never `Downgraded`.
    let m = mediator_at(42, profiles::cornell());
    let req = QueryRequest::new("?- pair(B, C).").deadline(SimDuration::from_millis(1));
    let result = m.query(req).unwrap();
    assert!(result.incomplete);
    assert!(result.stats.deadline_aborts >= 1);
    assert!(result
        .provenance
        .iter()
        .any(|p| p.gaps.contains(&IncompleteReason::DeadlineExceeded)));
    assert!(!result
        .provenance
        .iter()
        .any(|p| p.gaps.contains(&IncompleteReason::Downgraded)));
}

#[test]
fn tiered_serving_matches_serial_when_nothing_is_wrong() {
    // The selector engaged by a budget no query comes near, healthy
    // system, no load: it must pick Full and the answers must be
    // bit-identical to the plain paper-exact mediator.
    let plain = mediator(7);
    let expected = plain.query("?- item(A, B).").unwrap();
    let tiered = mediator(7);
    let roomy = QueryRequest::new("?- item(A, B).").budget(SimDuration::from_secs(3_600));
    let got = tiered.query(roomy).unwrap();
    assert_eq!(sorted(&got.rows), sorted(&expected.rows));
    assert_eq!(got.stats.tier_downgrades, 0);
    assert_eq!(got.stats.tier_skipped_calls, 0);
    assert_eq!(got.stats.actual_calls, expected.stats.actual_calls);

    // Same through the concurrent server with a bounded-but-idle gate.
    let server = mediator(7).to_concurrent(4);
    server.set_gate(Some(64));
    let got = server.query("?- item(A, B).").unwrap();
    assert_eq!(sorted(&got.rows), sorted(&expected.rows));
    let stats = server.stats();
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.downgraded, 0);
}

#[test]
fn stampede_sheds_cleanly_and_admitted_queries_complete() {
    const THREADS: usize = 16;
    const PER_THREAD: usize = 4;

    let warm = mediator(3);
    let expected = sorted(&warm.query("?- item(A, B).").unwrap().rows);
    let server = Arc::new(warm.to_concurrent(4));
    server.set_gate(Some(2));

    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut served = 0usize;
                let mut shed = 0usize;
                barrier.wait();
                for _ in 0..PER_THREAD {
                    match server.query("?- item(A, B).") {
                        Ok(result) => {
                            assert_eq!(sorted(&result.rows), expected);
                            served += 1;
                        }
                        Err(HermesError::Shed { reason }) => {
                            assert_eq!(reason, "gate-full");
                            shed += 1;
                        }
                        Err(other) => panic!("unexpected error: {other:?}"),
                    }
                }
                (served, shed)
            })
        })
        .collect();

    let mut served = 0usize;
    let mut shed = 0usize;
    for h in handles {
        // A hung shed query would deadlock this join; completing it at
        // all is the "shed never hangs" proof.
        let (s, d) = h.join().expect("no panics");
        served += s;
        shed += d;
    }
    assert_eq!(served + shed, THREADS * PER_THREAD);
    assert!(served > 0, "a capacity-2 gate still serves someone");

    let stats = server.stats();
    assert_eq!(stats.queries, (THREADS * PER_THREAD) as u64);
    assert_eq!(stats.admitted, served as u64);
    assert_eq!(stats.shed, shed as u64);
    assert_eq!(
        stats.admitted + stats.shed,
        stats.queries,
        "every query is accounted for exactly once"
    );
    // Every issued query is exactly one of shed, downgraded, or served
    // at the paper-exact Full tier.
    let full = stats
        .admitted
        .checked_sub(stats.downgraded)
        .expect("only admitted queries are downgraded");
    assert_eq!(stats.shed + stats.downgraded + full, stats.queries);
}

#[test]
fn explicit_cache_only_request_serves_warm_answers_without_the_wire() {
    let m = mediator(5);
    let full = m.query("?- item('p_1', B).").unwrap();
    let req = QueryRequest::new("?- item('p_1', B).").tier(PlanTier::CacheOnly);
    let cached = m.query(req).unwrap();
    assert_eq!(sorted(&cached.rows), sorted(&full.rows));
    assert_eq!(cached.stats.actual_calls, 0, "never touched the wire");
}
