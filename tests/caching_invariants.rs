//! Integration tests of the caching + invariants machinery (§4) against
//! live domains — the behaviors Figure 5 measures, as assertions.

use hermes::core::{PlanStep, Planned, Route};
use hermes::domains::spatial::{uniform_points, SpatialDomain};
use hermes::domains::video::gen::rope_store;
use hermes::net::profiles;
use hermes::{parse_invariant, CacheTier, CimPolicy, Mediator, Network};
use std::sync::Arc;

fn video_mediator(seed: u64, policy: CimPolicy) -> Mediator {
    let mut net = Network::new(seed);
    net.place(Arc::new(rope_store()), profiles::italy());
    let m = Mediator::from_source(
        "objs(F, L, O) :- in(O, video:frames_to_objects('rope', F, L)).",
        net,
    )
    .unwrap();
    m.caches().policy().routing(policy).apply().unwrap();
    m
}

fn frame_range_invariant() -> hermes::lang::Invariant {
    parse_invariant(
        "F2 <= F1 & L1 <= L2 =>
         video:frames_to_objects(V, F2, L2) >= video:frames_to_objects(V, F1, L1).",
    )
    .unwrap()
}

#[test]
fn caching_always_helps_remote_sources() {
    // Figure 5's headline: "using caches always leads to savings in time
    // when the software/data is located at remote sites."
    let m = video_mediator(1, CimPolicy::cache_everything());
    let cold = m.query("?- objs(4, 47, O).").unwrap();
    let warm = m.query("?- objs(4, 47, O).").unwrap();
    assert_eq!(warm.rows, cold.rows);
    assert!(warm.t_all.as_millis_f64() < cold.t_all.as_millis_f64() / 10.0);
    assert!(warm.t_first.unwrap().as_millis_f64() < cold.t_first.unwrap().as_millis_f64() / 10.0);
}

#[test]
fn no_cache_policy_pays_full_price_every_time() {
    let m = video_mediator(1, CimPolicy::never());
    let first = m.query("?- objs(4, 47, O).").unwrap();
    let second = m.query("?- objs(4, 47, O).").unwrap();
    // Both runs make the actual call; timings stay in the same regime.
    assert_eq!(first.stats.actual_calls, 1);
    assert_eq!(second.stats.actual_calls, 1);
    assert!(second.t_all.as_millis_f64() > first.t_all.as_millis_f64() / 4.0);
}

#[test]
fn partial_invariant_gives_fast_first_answer_but_full_all_answers_time() {
    // The Figure 5 "cache + partial inv" rows: first answer near cache
    // speed, all answers near the no-cache time (the actual call still
    // runs, in parallel).
    let m = video_mediator(2, CimPolicy::cache_everything());
    m.caches().add_invariant(frame_range_invariant()).unwrap();
    // Warm with a narrow range.
    m.query("?- objs(10, 40, O).").unwrap();
    // Query a wider, uncached range.
    let wide = m.query("?- objs(0, 600, O).").unwrap();
    assert_eq!(wide.stats.cim_partial, 1);
    assert_eq!(wide.stats.actual_calls, 1);
    let t_first = wide.t_first.unwrap().as_millis_f64();
    let t_all = wide.t_all.as_millis_f64();
    assert!(
        t_first < 500.0,
        "first answer should be cache-fast, got {t_first}"
    );
    assert!(
        t_all > 2_000.0,
        "all answers need the real call, got {t_all}"
    );
    assert!(
        t_all > t_first * 10.0,
        "t_all {t_all} should dwarf t_first {t_first}"
    );
}

#[test]
fn partial_answers_complete_and_deduplicated() {
    let m = video_mediator(3, CimPolicy::cache_everything());
    m.caches().add_invariant(frame_range_invariant()).unwrap();
    // Reference: the same wide query without any cache.
    let reference = video_mediator(3, CimPolicy::never());
    let want = {
        let mut rows = reference.query("?- objs(0, 600, O).").unwrap().rows;
        rows.sort();
        rows
    };
    m.query("?- objs(10, 40, O).").unwrap();
    let mut got = m.query("?- objs(0, 600, O).").unwrap().rows;
    got.sort();
    got.dedup();
    assert_eq!(got, want);
}

#[test]
fn interactive_stop_within_partial_prefix_skips_actual_call() {
    // "In the interactive mode, the partial set of answers may prove to be
    // sufficient and the actual call may not need to be made at all."
    let m = {
        let m = video_mediator(4, CimPolicy::cache_everything());
        m.caches().add_invariant(frame_range_invariant()).unwrap();
        m
    };
    let mut warmup = m.query_interactive("?- objs(10, 40, O).").unwrap();
    while warmup.next_answer().is_some() {}
    drop(warmup);
    let mut wide = m.query_interactive("?- objs(0, 600, O).").unwrap();
    let first_three = wide.next_batch(3);
    assert_eq!(first_three.len(), 3);
    // All three should be nearly instant (cache speed).
    for (_, at) in &first_three {
        assert!(at.as_millis_f64() < 500.0, "answer at {at}");
    }
    let summary = wide.stop();
    assert!(!summary.finished);
    assert!(summary.error.is_none());
}

#[test]
fn interactive_stop_at_the_end_of_the_partial_prefix_makes_no_source_call() {
    // Pulling exactly the cached prefix's rows and stopping must not issue
    // the actual call: nothing runs between pulls, so nothing runs ahead
    // of the consumer.
    for seed in 1..=5 {
        let m = video_mediator(seed, CimPolicy::cache_everything());
        m.caches().add_invariant(frame_range_invariant()).unwrap();
        let mut warmup = m.query_interactive("?- objs(10, 40, O).").unwrap();
        let prefix = std::iter::from_fn(|| warmup.next_answer()).count();
        assert!(warmup.stop().finished);
        let calls = m.network().source_calls();
        let mut wide = m.query_interactive("?- objs(0, 600, O).").unwrap();
        assert_eq!(wide.next_batch(prefix).len(), prefix, "seed {seed}");
        let summary = wide.stop();
        assert_eq!(m.network().source_calls(), calls, "seed {seed}");
        assert_eq!(summary.stats.map(|s| s.cancelled_calls), Some(1));
    }
}

#[test]
fn equality_invariant_spatial_range_shrinking() {
    // The paper's §4 example: any range ≥ 142 over a 100x100 point file
    // equals the 142 range. A *miss* should execute the cheaper
    // substituted call and then serve future big-range queries from it.
    let spatial = SpatialDomain::new("spatial");
    spatial.load_points("points", uniform_points(7, 2_000, 100.0), 10.0);
    let mut net = Network::new(5);
    net.place(Arc::new(spatial), profiles::cornell());
    let m = Mediator::from_source(
        "near(X, Y, D, P) :- in(P, spatial:range('points', X, Y, D)).",
        net,
    )
    .unwrap();
    m.caches()
        .add_invariant(
            parse_invariant(
                "Dist > 142 =>
                 spatial:range('points', X, Y, Dist) = spatial:range('points', X, Y, 142).",
            )
            .unwrap(),
        )
        .unwrap();

    let huge = m.query("?- near(0, 0, 100000, P).").unwrap();
    assert_eq!(huge.rows.len(), 2_000); // everything is within 142 of (0,0)? No:
                                        // (0,0) corner: max distance is sqrt(2)*100 ≈ 141.4 < 142. Yes, all.
    assert_eq!(huge.stats.substituted_calls, 1);
    // The big call was rewritten to range(...,142) and BOTH keys cached:
    let big2 = m.query("?- near(0, 0, 99999, P).").unwrap();
    // Different radius, still > 142: equality invariant finds the cached
    // 142 call without any network traffic.
    assert_eq!(big2.stats.actual_calls, 0);
    assert!(big2.stats.cim_equal + big2.stats.cim_exact >= 1);
    assert_eq!(big2.rows.len(), huge.rows.len());
}

#[test]
fn invariant_hits_counted_in_cim_stats() {
    let m = video_mediator(6, CimPolicy::cache_everything());
    m.caches().add_invariant(frame_range_invariant()).unwrap();
    m.query("?- objs(10, 40, O).").unwrap();
    m.query("?- objs(0, 600, O).").unwrap();
    let stats = m.caches().stats().cim;
    assert_eq!(stats.partial_hits, 1);
    assert!(stats.stores >= 2);
}

#[test]
fn cache_budget_evicts_but_stays_correct() {
    let m = video_mediator(7, CimPolicy::cache_everything());
    // Tiny cache: every new store evicts the previous entry.
    m.caches().policy().answer_budget(Some(64)).apply().unwrap();
    let a = m.query("?- objs(4, 47, O).").unwrap();
    let b = m.query("?- objs(100, 200, O).").unwrap();
    let a2 = m.query("?- objs(4, 47, O).").unwrap();
    assert_eq!(a.rows, a2.rows);
    assert!(!b.rows.is_empty());
    let evictions = m.caches().stats().answers.evictions;
    assert!(evictions >= 1, "expected evictions, got {evictions}");
}

#[test]
fn early_stopped_interactive_run_still_caches_completed_calls() {
    // The interactive consumer stopped after two answers, but the single
    // underlying call had already completed — so its (complete) answer set
    // is cached and a later all-answers query is served locally with the
    // full, correct result.
    let m = video_mediator(8, CimPolicy::cache_everything());
    let mut iq = m.query_interactive("?- objs(4, 47, O).").unwrap();
    let _ = iq.next_batch(2);
    drop(iq);
    let m = m;
    let full = m.query("?- objs(4, 47, O).").unwrap();
    assert!(full.rows.len() > 10);
    assert_eq!(full.stats.actual_calls, 0);
    assert_eq!(full.stats.cim_exact, 1);
    // And it matches a from-scratch no-cache run.
    let reference = video_mediator(8, CimPolicy::never());
    let want = reference.query("?- objs(4, 47, O).").unwrap();
    assert_eq!(full.rows, want.rows);
}

#[test]
fn cache_control_does_the_same_on_both_faces() {
    // Two identical mediators; one is split into a four-shard server. The
    // same `caches()` script must leave both in the same state.
    let mut serial = video_mediator(9, CimPolicy::cache_everything());
    let server = video_mediator(9, CimPolicy::cache_everything()).to_concurrent(4);
    let run = |serial: &mut Mediator, q: &str| {
        let want = serial.query(q).unwrap();
        let got = server.query(q).unwrap();
        assert_eq!(got.rows, want.rows, "{q}");
    };

    let inv = frame_range_invariant();
    assert_eq!(
        server.caches().add_invariant(inv.clone()).unwrap(),
        serial.caches().add_invariant(inv).unwrap()
    );
    run(&mut serial, "?- objs(10, 40, O).");
    run(&mut serial, "?- objs(0, 600, O).");
    run(&mut serial, "?- objs(4, 47, O).");
    assert_eq!(server.caches().stats(), serial.caches().stats());
    assert!(serial.caches().stats().cim.partial_hits > 0);

    serial.caches().set_serve_stale(true);
    server.caches().set_serve_stale(true);
    serial
        .caches()
        .policy()
        .answer_budget(Some(64))
        .apply()
        .unwrap();
    server
        .caches()
        .policy()
        .answer_budget(Some(64))
        .apply()
        .unwrap();
    run(&mut serial, "?- objs(100, 200, O).");
    assert_eq!(server.caches().stats(), serial.caches().stats());
    assert!(serial.caches().stats().answers.evictions > 0);

    let sweep = serial
        .caches()
        .invalidate_source("video", "frames_to_objects");
    assert_eq!(
        server
            .caches()
            .invalidate_source("video", "frames_to_objects"),
        sweep
    );
    assert!(sweep.answers_dropped > 0);
    run(&mut serial, "?- objs(4, 47, O).");
    for tier in [CacheTier::Subplans, CacheTier::Answers, CacheTier::All] {
        serial.caches().clear(tier);
        server.caches().clear(tier);
        assert_eq!(server.caches().stats(), serial.caches().stats());
    }
    assert_eq!(serial.caches().stats().answer_entries, 0);

    // Routing and subplan sharing change the planning snapshot: both
    // mediators apply them, the served one too, to queries staged
    // afterwards.
    let q = "?- objs(4, 47, O).";
    let before = server.plan(q).unwrap();
    for m in [&serial, &server] {
        m.caches()
            .policy()
            .routing(CimPolicy::never())
            .apply()
            .unwrap();
        m.caches().policy().share_subplans(true).apply().unwrap();
    }
    let routes = |planned: &Planned| -> Vec<Route> {
        let steps = planned.plan().steps.iter();
        steps
            .filter_map(|step| match step {
                PlanStep::Call { route, .. } => Some(*route),
                _ => None,
            })
            .collect()
    };
    assert!(routes(&before).iter().all(|r| *r == Route::Cim));
    let after = routes(&server.plan(q).unwrap());
    assert!(!after.is_empty() && after.iter().all(|r| *r == Route::Direct));
    assert!(server.config().exec.share_subplans);
    run(&mut serial, q);
    assert_eq!(server.caches().stats(), serial.caches().stats());
}
