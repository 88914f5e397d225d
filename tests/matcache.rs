//! Integration tests of the runtime subplan materialization cache: with
//! sharing on, every query must return exactly the answer multiset the
//! paper-exact (sharing-off) pipeline returns — across seeds, across
//! repeated rounds, and across a mid-workload source invalidation — and
//! HA071-volatile subplans must never be served from a snapshot.

use hermes::domains::synthetic::{RelationSpec, SyntheticDomain};
use hermes::domains::video::gen::rope_store;
use hermes::net::profiles;
use hermes::{CimPolicy, Mediator, Network, RoutingDecision, Value};
use std::sync::Arc;

fn world(seed: u64) -> Mediator {
    let synth = SyntheticDomain::generate("synth", seed, &[RelationSpec::uniform("r", 30, 2.0)]);
    let mut net = Network::new(seed);
    net.place(Arc::new(rope_store()), profiles::italy());
    net.place(Arc::new(synth), profiles::maryland());
    Mediator::from_source(
        "scene(F, L, O) :- in(O, video:frames_to_objects('rope', F, L)).
         pairs(A, B) :- in(Ans, synth:r_ff()) & =(Ans.a, A) & =(Ans.b, B).",
        net,
    )
    .unwrap()
}

const QUERIES: [&str; 4] = [
    "?- scene(0, 40, O).",
    "?- scene(30, 70, O).",
    "?- pairs(A, B).",
    "?- scene(0, 40, O).",
];

fn sorted_rows(m: &mut Mediator, q: &str) -> Vec<Vec<Value>> {
    let mut rows = m.query(q).unwrap().rows;
    rows.sort();
    rows
}

#[test]
fn sharing_on_matches_sharing_off_across_seeds_with_invalidation() {
    for seed in 0..10u64 {
        let mut reference = world(seed);
        let mut shared = world(seed);
        shared
            .caches()
            .policy()
            .share_subplans(true)
            .apply()
            .unwrap();

        for round in 0..3 {
            for q in QUERIES {
                assert_eq!(
                    sorted_rows(&mut shared, q),
                    sorted_rows(&mut reference, q),
                    "seed {seed} round {round} query {q}: sharing changed answers"
                );
            }
            if round == 0 {
                // Mid-workload invalidation: dirty every subplan that reads
                // the video source. Rounds 1-2 must re-materialize and still
                // agree with the paper-exact run.
                let sweep = shared
                    .caches()
                    .invalidate_source("video", "frames_to_objects");
                assert!(
                    sweep.subplans_dropped >= 1,
                    "seed {seed}: no materialized subplan was invalidated"
                );
            }
        }

        let snap = shared.caches().stats();
        assert!(
            snap.subplans.hits >= 1,
            "seed {seed}: repeated queries never hit the subplan cache"
        );
        assert!(
            snap.subplans.invalidated >= 1,
            "seed {seed}: invalidation sweep dropped nothing"
        );
        assert!(
            snap.subplans.materialized > snap.subplans.hits.min(1),
            "seed {seed}: invalidated subplans were never re-materialized"
        );
    }
}

#[test]
fn volatile_subplans_are_never_served_from_a_snapshot() {
    // Routing `synth` around the CIM makes every subplan that reads it
    // HA071-volatile: the matcache must refuse those plans a ticket, so
    // repeated identical queries keep re-executing.
    let mut m = world(3);
    let mut policy = CimPolicy::cache_everything();
    policy.set_domain("synth", RoutingDecision::Direct);
    m.caches()
        .policy()
        .routing(policy)
        .share_subplans(true)
        .apply()
        .unwrap();

    let mut reference = world(3);
    let mut ref_policy = CimPolicy::cache_everything();
    ref_policy.set_domain("synth", RoutingDecision::Direct);
    reference
        .caches()
        .policy()
        .routing(ref_policy)
        .apply()
        .unwrap();

    for _ in 0..3 {
        assert_eq!(
            sorted_rows(&mut m, "?- pairs(A, B)."),
            sorted_rows(&mut reference, "?- pairs(A, B)."),
        );
    }
    let snap = m.caches().stats();
    assert_eq!(snap.subplans.hits, 0, "volatile subplan served from cache");
    assert_eq!(snap.subplans.materialized, 0, "volatile subplan was stored");
    assert!(
        snap.subplans.volatile_skips >= 3,
        "volatile plans should be refused a ticket every time, got {}",
        snap.subplans.volatile_skips
    );
}

#[test]
fn a_server_keeps_its_own_routes_when_the_serial_face_reroutes() {
    // The server is split off while `synth` bypasses the CIM, so its plans
    // read `synth` directly: no invalidation signal reaches a snapshot of
    // them. The serial face shares the subplan cache; rerouting it later,
    // and materializing `pairs` there, must not let the server read that
    // snapshot.
    let mut m = world(3);
    let mut policy = CimPolicy::cache_everything();
    policy.set_domain("synth", RoutingDecision::Direct);
    m.caches()
        .policy()
        .routing(policy)
        .share_subplans(true)
        .apply()
        .unwrap();
    let server = m.to_concurrent(2);
    m.caches()
        .policy()
        .routing(CimPolicy::cache_everything())
        .apply()
        .unwrap();
    let serial = sorted_rows(&mut m, "?- pairs(A, B).");
    assert_eq!(m.caches().stats().subplans.materialized, 1);

    let served = server.query("?- pairs(A, B).").unwrap();
    assert_eq!(served.stats.subplan_hits, 0, "served from a snapshot");
    assert_eq!(served.stats.actual_calls, 1, "the direct call was skipped");
    let mut rows = served.rows;
    rows.sort();
    assert_eq!(rows, serial);
}

#[test]
fn a_served_mediator_rerouted_to_never_plans_direct_and_reads_no_snapshot() {
    // Subplans are shared and warm on a served mediator. Rerouting that
    // mediator itself, through `&self`, to `never` reaches every query
    // staged afterwards: each plan routes every call Direct, so no later
    // query reads a snapshot.
    use hermes::core::{PlanStep, Route};
    let m = world(4);
    m.caches().policy().share_subplans(true).apply().unwrap();
    let server = Arc::new(m.to_concurrent(4));
    for q in QUERIES {
        server.query(q).unwrap();
    }
    let warm = server.query(QUERIES[0]).unwrap();
    assert_eq!(warm.stats.subplan_hits, 1, "the snapshot serves before");

    server
        .caches()
        .policy()
        .routing(CimPolicy::never())
        .apply()
        .unwrap();
    let hits = server.caches().stats().subplans.hits;
    for q in QUERIES {
        for plan in server.plan(q).unwrap().plans {
            for step in &plan.steps {
                if let PlanStep::Call { route, .. } = step {
                    assert_eq!(*route, Route::Direct, "{q}: {plan}");
                }
            }
        }
        assert_eq!(server.query(q).unwrap().stats.subplan_hits, 0, "{q}");
    }
    assert_eq!(server.caches().stats().subplans.hits, hits);
}

#[test]
fn clearing_the_subplan_tier_leaves_answers_intact() {
    let mut m = world(5);
    m.caches().policy().share_subplans(true).apply().unwrap();
    let first = sorted_rows(&mut m, "?- scene(0, 40, O).");
    let warm = sorted_rows(&mut m, "?- scene(0, 40, O).");
    assert_eq!(first, warm);
    assert!(m.caches().stats().subplans.hits >= 1);

    m.caches().clear(hermes::CacheTier::Subplans);
    assert_eq!(m.caches().stats().subplans.entries, 0);
    let after = sorted_rows(&mut m, "?- scene(0, 40, O).");
    assert_eq!(first, after, "clearing the subplan tier changed answers");
}
