//! Integration tests of cost-based plan choice: does the DCSM-driven
//! optimizer actually pick plans that run faster? (The §8 claims, as
//! assertions; the full sweep lives in the `plan_choice` bench.)

use hermes::domains::synthetic::{CostProfile, RelationSpec, SyntheticDomain};
use hermes::net::profiles;
use hermes::{CimPolicy, Mediator, Network};
use std::sync::Arc;

/// A federation where starting from the small `dir` relation is clearly
/// better than starting from the big, expensive `big` relation.
fn asymmetric_mediator(seed: u64) -> Mediator {
    let big = SyntheticDomain::generate(
        "srcbig",
        seed,
        &[
            RelationSpec::uniform("big", 400, 5.0).with_profile(CostProfile {
                start_ms: 10.0,
                per_answer_ms: 0.5,
                per_probe_ms: 2.0,
            }),
        ],
    );
    let small = SyntheticDomain::generate(
        "srcsmall",
        seed + 1,
        &[RelationSpec::uniform("dir", 12, 2.0)],
    );
    let mut net = Network::new(seed);
    net.place(Arc::new(big), profiles::bucknell());
    net.place(Arc::new(small), profiles::maryland());
    let m = Mediator::from_source(
        "
        big(A, B) :- in(B, srcbig:big_bf(A)).
        big(A, B) :- in(A, srcbig:big_fb(B)).
        big(A, B) :- in(Ans, srcbig:big_ff()) & =(Ans.a, A) & =(Ans.b, B).
        dir(A, B) :- in(B, srcsmall:dir_bf(A)).
        dir(A, B) :- in(A, srcsmall:dir_fb(B)).
        dir(A, B) :- in(Ans, srcsmall:dir_ff()) & =(Ans.a, A) & =(Ans.b, B).
        joined(X, Y, Z) :- dir(X, Y) & big(Z, Y).
        ",
        net,
    )
    .unwrap();
    // Keep runs comparable: no result caching, statistics only.
    m.caches()
        .policy()
        .routing(CimPolicy::never())
        .apply()
        .unwrap();
    m
}

/// Executes every candidate plan of `q` on a fresh mediator and returns
/// (plan index, simulated t_all ms).
fn measure_all_plans(q: &str, seed: u64) -> Vec<(usize, f64)> {
    let planner = asymmetric_mediator(seed);
    let planned = planner.plan(q).unwrap();
    (0..planned.plans.len())
        .map(|i| {
            let fresh = asymmetric_mediator(seed);
            let single = hermes::core::Planned {
                plans: vec![planned.plans[i].clone()],
                estimates: vec![planned.estimates[i]],
                chosen: 0,
            };
            let r = fresh.execute(single, None).unwrap();
            (i, r.t_all.as_millis_f64())
        })
        .collect()
}

/// Trains DCSM by running a few queries, then returns the mediator.
fn trained_mediator(seed: u64) -> Mediator {
    let m = asymmetric_mediator(seed);
    for x in 0..4 {
        let _ = m.query(format!("?- joined('dir_{x}', Y, Z)."));
        let _ = m.query(format!("?- big('big_{x}', B)."));
        let _ = m.query(format!("?- dir('dir_{x}', B)."));
    }
    m
}

#[test]
fn trained_optimizer_picks_a_near_optimal_plan() {
    let q = "?- joined('dir_5', Y, Z).";
    let m = trained_mediator(21);
    let planned = m.plan(q).unwrap();
    assert!(planned.plans.len() >= 2, "need a real choice");

    let timings = measure_all_plans(q, 21);
    let best = timings
        .iter()
        .cloned()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    let worst = timings
        .iter()
        .cloned()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    let chosen_time = timings[planned.chosen].1;
    // The chosen plan must be much closer to the best than to the worst.
    assert!(
        chosen_time <= best.1 * 3.0 + 50.0,
        "chosen {} ({}ms) vs best {} ({}ms), worst {} ({}ms)",
        planned.chosen,
        chosen_time,
        best.0,
        best.1,
        worst.0,
        worst.1
    );
}

#[test]
fn predicted_ordering_matches_actual_for_large_margins() {
    // §8 claim 1: when DCSM predicts Q1 much better than Q2 for all
    // answers, Q1 really is faster.
    let q = "?- joined('dir_3', Y, Z).";
    let m = trained_mediator(33);
    let planned = m.plan(q).unwrap();
    let timings = measure_all_plans(q, 33);
    for (i, ei) in planned.estimates.iter().enumerate() {
        for (j, ej) in planned.estimates.iter().enumerate() {
            let (pi, pj) = (ei.t_all_ms.unwrap(), ej.t_all_ms.unwrap());
            // A 5x predicted gap is a "large margin".
            if pi * 5.0 < pj {
                let (ai, aj) = (timings[i].1, timings[j].1);
                assert!(
                    ai < aj * 1.5,
                    "predicted {i}({pi}ms) ≪ {j}({pj}ms) but measured {ai}ms vs {aj}ms"
                );
            }
        }
    }
}

#[test]
fn first_answer_mode_changes_objective() {
    let q = "?- joined(X, Y, Z).";
    let mut m = trained_mediator(44);
    m.config_mut().optimize_first_answer = false;
    let all_mode = m.plan(q).unwrap();
    m.config_mut().optimize_first_answer = true;
    let first_mode = m.plan(q).unwrap();
    // The two objectives pick (possibly) different plans; each must win on
    // its own metric.
    let est_all = &all_mode.estimates[all_mode.chosen];
    let est_first = &first_mode.estimates[first_mode.chosen];
    assert!(est_all.t_all_ms.unwrap() <= est_first.t_all_ms.unwrap() + 1e-9);
    assert!(est_first.t_first_ms.unwrap() <= est_all.t_first_ms.unwrap() + 1e-9);
}

#[test]
fn estimates_converge_toward_actuals_with_training() {
    let q = "?- big('big_9', B).";
    let relative_error = |m: Mediator| {
        let planned = m.plan(q).unwrap();
        let est = planned.estimate().t_all_ms.unwrap();
        let actual = m.query(q).unwrap().t_all.as_millis_f64();
        (est - actual).abs() / actual.max(1.0)
    };
    let untrained_err = relative_error(asymmetric_mediator(55));
    let trained_err = relative_error(trained_mediator(55));
    assert!(
        trained_err < untrained_err,
        "training should reduce error: {trained_err} vs {untrained_err}"
    );
}

#[test]
fn external_estimator_feeds_the_optimizer() {
    use hermes::domains::relational::{Column, ColumnType, RelationalDomain, Schema, Table};
    use hermes::Value;
    // A relational source exports its own cost model; with zero training
    // the optimizer should still get a sane (non-prior) estimate.
    let rel = RelationalDomain::new("rel");
    let mut t = Table::new(
        "wide",
        Schema::new(vec![
            Column::new("k", ColumnType::Int),
            Column::new("v", ColumnType::Int),
        ])
        .unwrap(),
    );
    for i in 0..500 {
        t.insert(vec![Value::Int(i % 50), Value::Int(i)]).unwrap();
    }
    rel.add_table(t);
    let est_src = rel.clone();
    let mut net = Network::new(66);
    net.place(rel, profiles::maryland());
    let m =
        Mediator::from_source("rows(K, T) :- in(T, rel:select_eq('wide', 'k', K)).", net).unwrap();
    m.dcsm()
        .for_each_shard_mut(|_, dcsm| dcsm.register_external("rel", est_src.clone()));
    let planned = m.plan("?- rows(7, T).").unwrap();
    let card = planned.estimate().cardinality.unwrap();
    // 500 rows / 50 distinct keys = 10 per key — the native model knows.
    assert!((card - 10.0).abs() < 1.0, "cardinality {card}");
}
