//! Stress: a wide federation (all seven substrate domains at four sites),
//! a deep query, and a long query sequence exercising cache eviction,
//! statistics growth, and clock progression together.

use hermes::common::Record;
use hermes::domains::objectstore::ObjectStoreDomain;
use hermes::domains::relational::{Column, ColumnType, RelationalDomain, Schema, Table};
use hermes::domains::spatial::{uniform_points, SpatialDomain};
use hermes::domains::synthetic::{RelationSpec, SyntheticDomain};
use hermes::domains::terrain::{demo_map, TerrainDomain};
use hermes::domains::text::newswire;
use hermes::domains::video::gen::{rope_store, ROPE_CAST};
use hermes::net::profiles;
use hermes::{Mediator, Network, Value};
use std::sync::Arc;

fn big_world(seed: u64) -> Mediator {
    let relation = RelationalDomain::new("relation");
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
    relation.add_table(cast);

    let spatial = SpatialDomain::new("spatial");
    spatial.load_points("sites", uniform_points(seed, 1_000, 200.0), 20.0);
    let terrain = TerrainDomain::new("terraindb", demo_map());
    let text = newswire(seed, "text", "usatoday", 500);
    let synth = SyntheticDomain::generate("synth", seed, &[RelationSpec::uniform("r", 30, 2.0)]);
    let oodb = ObjectStoreDomain::new("design");
    for i in 0..20 {
        let oid = oodb.create("doc", Record::from_fields([("n", Value::Int(i as i64))]));
        if oid > 0 {
            oodb.add_ref("doc", oid - 1, "next", "doc", oid);
        }
    }

    let mut net = Network::new(seed);
    net.place(Arc::new(rope_store()), profiles::italy());
    net.place(relation, profiles::cornell());
    net.place(Arc::new(text), profiles::bucknell());
    net.place(Arc::new(synth), profiles::maryland());
    net.place_local(Arc::new(spatial));
    net.place_local(Arc::new(terrain));
    net.place_local(Arc::new(oodb));

    Mediator::from_source(
        "
        scene(F, L, O) :- in(O, video:frames_to_objects('rope', F, L)).
        played_by(O, A) :-
            in(T, relation:select_eq('cast', 'role', O)) & =(T.name, A).
        press(Term, H) :-
            in(D, text:search('usatoday', Term)) & =(D.headline, H).
        chainable(A, B) :- in(B, synth:r_bf(A)).
        near(X, Y, D, P) :- in(P, spatial:count_range('sites', X, Y, D)).
        rte(F, T, R) :- in(R, terraindb:distance(F, T)).
        chain_doc(N, M) :- in(D, design:follow('doc', N, 'next')) & =(D.n, M).

        dossier(F, L, Object, Actor, Stories, NearSites, Route) :-
            scene(F, L, Object) &
            played_by(Object, Actor) &
            in(Stories, text:search('usatoday', 'election')) &
            near(50, 50, 30, NearSites) &
            rte('place1', 'aberdeen', Route).
        ",
        net,
    )
    .unwrap()
}

#[test]
fn seven_domain_dossier_query_runs() {
    let m = big_world(2);
    let result = m.query("?- dossier(4, 47, O, A, S, N, R).").unwrap();
    // Cast members in the opening scene: brandon, phillip, david,
    // mrs_wilson, janet, rupert (6 of them) × stories cross product.
    assert!(!result.rows.is_empty());
    assert!(result.plans_considered >= 1);
    let distinct_actors: std::collections::BTreeSet<String> =
        result.rows.iter().map(|r| r[1].to_string()).collect();
    assert!(distinct_actors.len() >= 5, "{distinct_actors:?}");
    assert!(!result.incomplete);
}

#[test]
fn hundred_query_session_stays_consistent() {
    let m = big_world(3);
    // A tight cache budget forces continuous eviction.
    m.caches()
        .policy()
        .answer_budget(Some(1_024))
        .apply()
        .unwrap();
    let mut reference: Option<Vec<Vec<Value>>> = None;
    let t0 = m.now();
    for i in 0..100 {
        let f = (i % 10) * 30;
        let result = m.query(format!("?- scene({f}, {}, O).", f + 40)).unwrap();
        assert!(!result.rows.is_empty());
        if f == 0 {
            let mut rows = result.rows.clone();
            rows.sort();
            match &reference {
                None => reference = Some(rows),
                Some(r) => assert_eq!(&rows, r, "answers drifted at query {i}"),
            }
        }
    }
    // The virtual clock progressed substantially and the caches did real
    // work under pressure.
    assert!(m.now().duration_since(t0).as_secs_f64() > 10.0);
    let snap = m.caches().stats();
    assert!(snap.answers.evictions > 0, "budget never binded");
    assert!(snap.cim.exact_hits + snap.cim.misses >= 100);
    assert!(m.dcsm().records() >= 10);
}

#[test]
fn concurrent_answers_match_serial_across_seeds() {
    // The tentpole soundness property: a ConcurrentMediator serving four
    // threads produces, per query, exactly the answer multiset a serial
    // mediator over the same world produces — across ten seeds, with each
    // thread walking the query mix from a different offset so cache hits,
    // partial hits, and misses interleave differently every run.
    const QUERIES: [&str; 5] = [
        "?- scene(0, 40, O).",
        "?- scene(30, 70, O).",
        "?- played_by('brandon', A).",
        "?- near(50, 50, 30, P).",
        "?- rte('place1', 'aberdeen', R).",
    ];
    for seed in 0..10u64 {
        let serial = big_world(seed);
        let reference: Vec<Vec<Vec<Value>>> = QUERIES
            .iter()
            .map(|q| {
                let mut rows = serial.query(*q).unwrap().rows;
                rows.sort();
                rows
            })
            .collect();

        let server = big_world(seed).to_concurrent(4);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let reference = &reference;
                let server = &server;
                s.spawn(move || {
                    for k in 0..QUERIES.len() {
                        let q = (t + k) % QUERIES.len();
                        let mut rows = server.query(QUERIES[q]).unwrap().rows;
                        rows.sort();
                        assert_eq!(
                            rows, reference[q],
                            "seed {seed} thread {t} query {q} diverged from serial answers"
                        );
                    }
                });
            }
        });
        assert_eq!(server.stats().queries, 20);
    }
}

/// `p_bf` over two synthetic sources, `d1` and `d2`, that answer apart.
fn two_source_net() -> Network {
    let spec = [RelationSpec::uniform("p", 8, 2.0)];
    let mut net = Network::new(1);
    let d1 = SyntheticDomain::generate("d1", 42, &spec);
    let d2 = SyntheticDomain::generate("d2", 7, &spec);
    net.place(Arc::new(d1), profiles::maryland());
    net.place(Arc::new(d2), profiles::cornell());
    net
}

#[test]
fn a_program_swap_under_eight_querying_threads_never_mixes_programs() {
    // Two programs define q/2 over different sources, and each routes only
    // its own source through the CIM. While eight threads query one served
    // mediator, the main thread installs one program, then the other,
    // again and again. A query plans against the one snapshot it staged
    // with, so every answer set is one program's whole answer, never a
    // mix, none fails, and every call goes through the CIM: a program
    // planned with the other's routing would call its source directly.
    use std::sync::atomic::{AtomicBool, Ordering};
    const PROGRAMS: [&str; 2] = [
        "%! cache d1\nq(A, B) :- in(B, d1:p_bf(A)).",
        "%! cache d2\nq(A, B) :- in(B, d2:p_bf(A)).",
    ];
    let queries: Vec<String> = (0..8).map(|k| format!("?- q('p_{k}', B).")).collect();
    let through_cim = |stats: &hermes::core::ExecStats| {
        stats.cim_exact + stats.cim_equal + stats.cim_partial + stats.cim_miss > 0
    };
    let answers = |program: &str| -> Vec<Vec<Vec<Value>>> {
        let m = Mediator::from_source(program, two_source_net()).unwrap();
        let sorted = |q: &String| {
            let result = m.query(q.as_str()).unwrap();
            assert!(through_cim(&result.stats), "{:?}", result.stats);
            let mut rows = result.rows;
            rows.sort();
            rows
        };
        queries.iter().map(sorted).collect()
    };
    let expected = [answers(PROGRAMS[0]), answers(PROGRAMS[1])];
    assert_ne!(
        expected[0], expected[1],
        "the two programs must answer apart"
    );

    let served = Mediator::from_source(PROGRAMS[0], two_source_net())
        .unwrap()
        .to_concurrent(4);
    let swapping = AtomicBool::new(true);
    let start = std::sync::Barrier::new(9);
    std::thread::scope(|s| {
        for t in 0..8usize {
            let (served, expected, queries) = (&served, &expected, &queries);
            let (swapping, start) = (&swapping, &start);
            s.spawn(move || {
                start.wait();
                let mut asked = 0;
                while swapping.load(Ordering::Acquire) || asked < queries.len() {
                    let i = (t + asked) % queries.len();
                    let result = served.query(queries[i].as_str()).unwrap();
                    let mut rows = result.rows;
                    rows.sort();
                    assert!(
                        rows == expected[0][i] || rows == expected[1][i],
                        "thread {t}: `{}` answered {rows:?}, neither program's answer",
                        queries[i]
                    );
                    assert!(
                        through_cim(&result.stats),
                        "thread {t}: `{}` ran with the other program's routing: {:?}",
                        queries[i],
                        result.stats
                    );
                    asked += 1;
                }
            });
        }
        start.wait();
        for swap in 0..60 {
            served
                .register_source(PROGRAMS[(swap + 1) % 2], &[])
                .unwrap();
        }
        swapping.store(false, Ordering::Release);
    });
    assert_eq!(served.flight().in_flight(), 0, "a flight is still open");
    let stats = served.stats();
    assert_eq!((stats.admitted, stats.shed), (stats.queries, 0));
    // A gate of one admits a query only while no permit is out.
    served.set_gate(Some(1));
    served.query(queries[0].as_str()).unwrap();
}

#[test]
fn registrations_declaring_one_invariant_at_once_store_it_once_per_shard() {
    // Two threads register, at the same moment, programs that declare the
    // same invariant. Checking for it and adding it are one step, so the
    // later registration finds it there: every shard stores it once.
    const INVARIANT: &str = "%! invariant X = X => d1:p_bf(X) = d2:p_bf(X).";
    for round in 0..1000 {
        let served = Mediator::from_source("q(A, B) :- in(B, d1:p_bf(A)).", two_source_net())
            .unwrap()
            .to_concurrent(4);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for d in 1..=2 {
                let (served, start) = (&served, &start);
                s.spawn(move || {
                    let program = format!("{INVARIANT}\nq(A, B) :- in(B, d{d}:p_bf(A)).");
                    start.wait();
                    served.register_source(&program, &[]).unwrap();
                });
            }
        });
        served.cim().for_each_shard(|i, shard| {
            let held = shard.invariants().all().len();
            assert_eq!(held, 1, "round {round}: shard {i} holds {held} invariants");
        });
    }
}

#[test]
fn sharded_cache_coherent_under_concurrent_mutation() {
    use hermes::cim::{CimResolution, CimView};
    use hermes::{GroundCall, ShardedCim, SimInstant};

    let cim = ShardedCim::new(8);
    let call_for = |i: u64| {
        let domain = if i.is_multiple_of(2) { "keep" } else { "drop" };
        GroundCall::new(domain, format!("f{}", i % 4), vec![Value::Int(i as i64)])
    };
    let answers_for =
        |i: u64| -> Arc<[Value]> { vec![Value::Int(i as i64), Value::Int(-(i as i64))].into() };

    std::thread::scope(|s| {
        // Two writers over disjoint key ranges.
        for w in 0..2u64 {
            let cim = &cim;
            s.spawn(move || {
                for i in (w * 200)..(w * 200 + 200) {
                    cim.store(call_for(i), answers_for(i), true, SimInstant::EPOCH);
                }
            });
        }
        // An invalidator repeatedly sweeping the `drop` domain while the
        // writers are still landing entries in it.
        let invalidator = &cim;
        s.spawn(move || {
            for _ in 0..50 {
                invalidator.invalidate_domain("drop");
                std::thread::yield_now();
            }
        });
        // Readers: whatever the interleaving, a hit must carry exactly the
        // answer set that was stored for that call — never a torn state.
        for r in 0..2u64 {
            let cim = &cim;
            s.spawn(move || {
                for k in 0..400u64 {
                    let i = (k + r * 13) % 400;
                    let (res, _) = cim.lookup(&call_for(i), SimInstant::EPOCH);
                    if let CimResolution::ExactHit { answers } = res {
                        assert_eq!(
                            answers.as_ref(),
                            answers_for(i).as_ref(),
                            "torn read for call {i}"
                        );
                    }
                }
            });
        }
    });

    // Quiesced: one final sweep leaves exactly the `keep` entries, intact.
    cim.invalidate_domain("drop");
    assert_eq!(cim.len(), 200);
    for i in (0..400u64).filter(|i| i.is_multiple_of(2)) {
        let (res, _) = cim.lookup(&call_for(i), SimInstant::EPOCH);
        match res {
            CimResolution::ExactHit { answers } => {
                assert_eq!(answers.as_ref(), answers_for(i).as_ref())
            }
            other => panic!("keep call {i} lost: {other:?}"),
        }
    }
    for i in (0..400u64).filter(|i| i % 2 == 1) {
        let (res, _) = cim.lookup(&call_for(i), SimInstant::EPOCH);
        assert!(
            matches!(res, CimResolution::Miss { .. }),
            "drop call {i} survived invalidation"
        );
    }
}

#[test]
fn single_flight_coalesces_identical_concurrent_calls() {
    use hermes::domains::SlowDomain;
    use std::sync::atomic::Ordering;
    use std::sync::Barrier;
    use std::time::Duration;

    // A source whose calls take 150 ms of *real* time: long enough that
    // every thread released by the barrier reaches the in-flight registry
    // while the first call is still on the wire.
    let synth = SyntheticDomain::generate("d1", 11, &[RelationSpec::uniform("p", 20, 3.0)]);
    let a0 = synth.domain_values("p")[0].clone();
    let slow = SlowDomain::new(Arc::new(synth), Duration::from_millis(150));
    let counter = slow.counter();
    let mut net = Network::new(11);
    net.place(Arc::new(slow), profiles::maryland());
    let m = Mediator::from_source("item(A, B) :- in(B, d1:p_bf(A)).", net).unwrap();
    let server = m.to_concurrent(4);

    const K: usize = 6;
    let query = format!("?- item({}, B).", a0.to_literal());
    let barrier = Barrier::new(K);
    let rows: Vec<Vec<Vec<Value>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..K)
            .map(|_| {
                let (server, barrier, query) = (&server, &barrier, &query);
                s.spawn(move || {
                    barrier.wait();
                    let mut rows = server.query(query.as_str()).unwrap().rows;
                    rows.sort();
                    rows
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert!(!rows[0].is_empty());
    for r in &rows[1..] {
        assert_eq!(r, &rows[0], "coalesced answers diverged");
    }
    // Exactly one source round trip for K identical concurrent calls: the
    // flight leader paid it; everyone else coalesced onto the in-flight
    // call or hit the cache the leader filled.
    assert_eq!(counter.load(Ordering::Relaxed), 1, "source asked twice");
    assert_eq!(server.network().source_calls(), 1);
    let flight = server.flight();
    assert!(flight.calls_coalesced() >= 1, "no call ever coalesced");
    assert_eq!(flight.round_trips_saved(), flight.calls_coalesced());
    assert_eq!(server.stats().queries as usize, K);
}

#[test]
fn subplan_single_flight_materializes_once_and_shares_rows() {
    use hermes::domains::SlowDomain;
    use std::sync::Barrier;
    use std::time::Duration;

    // K threads fire the *same whole query* at once. With subplan sharing
    // on, the matcache's plan-level single flight elects one leader; every
    // other thread blocks on the flight and is served the leader's
    // materialized snapshot — one materialization total, and the follower
    // rows share the leader's allocations instead of re-deriving them.
    let synth = SyntheticDomain::generate("d1", 13, &[RelationSpec::uniform("p", 20, 3.0)]);
    let slow = SlowDomain::new(Arc::new(synth), Duration::from_millis(150));
    let mut net = Network::new(13);
    net.place(Arc::new(slow), profiles::maryland());
    let m = Mediator::from_source(
        "item(A, B) :- in(Ans, d1:p_ff()) & =(Ans.a, A) & =(Ans.b, B).",
        net,
    )
    .unwrap();
    m.caches().policy().share_subplans(true).apply().unwrap();
    let server = m.to_concurrent(4);

    const K: usize = 6;
    let query = "?- item(A, B).".to_string();
    let barrier = Barrier::new(K);
    let rows: Vec<Vec<Vec<Value>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..K)
            .map(|_| {
                let (server, barrier, query) = (&server, &barrier, &query);
                s.spawn(move || {
                    barrier.wait();
                    server.query(query.as_str()).unwrap().rows
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert!(!rows[0].is_empty());
    for r in &rows[1..] {
        let (mut a, mut b) = (rows[0].clone(), r.clone());
        a.sort();
        b.sort();
        assert_eq!(a, b, "shared subplan answers diverged");
    }
    // Exactly one thread ran the plan; the rest were served the snapshot
    // (coalesced onto the flight, or a cache hit if they arrived after
    // the leader published).
    let stats = server.stats();
    assert_eq!(
        stats.subplans_materialized, 1,
        "materialized more than once"
    );
    assert_eq!(
        stats.subplans_coalesced + stats.subplan_hits,
        (K - 1) as u64,
        "every non-leader should be served the shared snapshot"
    );
    assert!(stats.subplans_coalesced >= 1, "no thread ever coalesced");
    // Served rows share the materialized allocations: any string answer in
    // a follower's rows is the *same* Arc<str> as the leader's, not a copy.
    let find_str = |rows: &[Vec<Value>]| -> Arc<str> {
        let mut sorted = rows.to_vec();
        sorted.sort();
        sorted
            .iter()
            .flatten()
            .find_map(|v| match v {
                Value::Str(s) => Some(s.clone()),
                _ => None,
            })
            .expect("no string answer to compare")
    };
    let first = find_str(&rows[0]);
    for r in &rows[1..] {
        assert!(
            Arc::ptr_eq(&first, &find_str(r)),
            "follower re-derived its rows instead of sharing the snapshot"
        );
    }
}

#[test]
fn deep_unfolding_chain() {
    // A chain of IDB predicates ten levels deep still plans and runs.
    let mut src = String::from("p0(A, B) :- chainable(A, B).\n");
    for i in 1..10 {
        src.push_str(&format!(
            "p{i}(A, B) :- p{}(A, C) & chainable(C, B).\n",
            i - 1
        ));
    }
    src.push_str("chainable(A, B) :- in(B, synth:r_bf(A)).\n");
    let synth = SyntheticDomain::generate("synth", 9, &[RelationSpec::uniform("r", 60, 1.2)]);
    let a0 = synth.domain_values("r")[0].clone();
    let mut net = Network::new(9);
    net.place(Arc::new(synth), profiles::maryland());
    let mut m = Mediator::from_source(&src, net).unwrap();
    m.config_mut().rewrite.max_plans = 4;
    let result = m.query(format!("?- p9({}, B).", a0.to_literal())).unwrap();
    // The chain may die out; what matters is it plans, runs, terminates.
    assert!(result.plans_considered >= 1);
    assert!(result.stats.calls_attempted >= 1);
}
