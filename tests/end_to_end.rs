//! Full-stack integration tests: program text → plans → execution over the
//! simulated network, across all substrate domains.

use hermes::domains::relational::{Column, ColumnType, RelationalDomain, Schema, Table};
use hermes::domains::spatial::{uniform_points, SpatialDomain};
use hermes::domains::terrain::{demo_map, TerrainDomain};
use hermes::domains::video::gen::{rope_store, ROPE_CAST};
use hermes::net::profiles;
use hermes::{Mediator, Network, Value};
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

fn rope_mediator(seed: u64) -> Mediator {
    let relation = RelationalDomain::new("relation");
    relation.add_table(cast_table());
    let mut net = Network::new(seed);
    net.place(Arc::new(rope_store()), profiles::cornell());
    net.place(relation, profiles::maryland());
    Mediator::from_source(
        "
        scene_actors(F, L, Object, Actor) :-
            in(Object, video:frames_to_objects('rope', F, L)) &
            in(Tuple, relation:select_eq('cast', 'role', Object)) &
            =(Tuple.name, Actor).

        movie_size(V, S) :- in(S, video:video_size(V)).
        ",
        net,
    )
    .unwrap()
}

#[test]
fn video_relational_join_returns_cast_members() {
    let m = rope_mediator(1);
    let result = m.query("?- scene_actors(0, 935, O, A).").unwrap();
    // Every cast member appears somewhere in the film; props have no
    // matching cast row and are filtered by the join.
    assert_eq!(result.rows.len(), ROPE_CAST.len());
    let actors: Vec<String> = result.rows.iter().map(|r| r[1].to_string()).collect();
    assert!(actors.contains(&"james stewart".to_string()));
    assert!(actors.contains(&"dick hogan".to_string()));
}

#[test]
fn narrow_scene_excludes_late_arrivals() {
    let m = rope_mediator(2);
    let result = m.query("?- scene_actors(4, 47, O, A).").unwrap();
    let objects: Vec<String> = result.rows.iter().map(|r| r[0].to_string()).collect();
    // kenneth enters at frame 110.
    assert!(!objects.contains(&"kenneth".to_string()));
    assert!(objects.contains(&"brandon".to_string()));
}

#[test]
fn all_candidate_plans_agree_on_answers() {
    let m = rope_mediator(3);
    let planned = m.plan("?- scene_actors(4, 127, O, A).").unwrap();
    assert!(!planned.plans.is_empty());
    let mut reference: Option<Vec<Vec<Value>>> = None;
    for i in 0..planned.plans.len() {
        let m2 = rope_mediator(3);
        let single = hermes::core::Planned {
            plans: vec![planned.plans[i].clone()],
            estimates: vec![planned.estimates[i]],
            chosen: 0,
        };
        let mut rows = m2.execute(single, None).unwrap().rows;
        rows.sort();
        match &reference {
            None => reference = Some(rows),
            Some(r) => assert_eq!(&rows, r, "plan {i} disagrees"),
        }
    }
}

#[test]
fn movie_size_scalar_answer() {
    let m = rope_mediator(4);
    let result = m.query("?- movie_size('rope', S).").unwrap();
    assert_eq!(result.rows.len(), 1);
    assert_eq!(result.rows[0][0], Value::Int(936 * 3_580));
}

#[test]
fn four_domain_federation_runs() {
    // relational + video + spatial + terrain in one program.
    let relation = RelationalDomain::new("relation");
    relation.add_table(cast_table());
    let spatial = SpatialDomain::new("spatial");
    spatial.load_points("sites", uniform_points(5, 200, 100.0), 10.0);
    let terrain = TerrainDomain::new("terraindb", demo_map());

    let mut net = Network::new(5);
    net.place(Arc::new(rope_store()), profiles::italy());
    net.place(relation, profiles::cornell());
    net.place_local(Arc::new(spatial));
    net.place_local(Arc::new(terrain));

    let m = Mediator::from_source(
        "
        briefing(Actor, NSites, Route) :-
            in(Tuple, relation:select_eq('cast', 'role', 'rupert')) &
            =(Tuple.name, Actor) &
            in(NSites, spatial:count_range('sites', 50, 50, 25)) &
            in(Route, terraindb:findrte('place1', 'aberdeen')).
        ",
        net,
    )
    .unwrap();
    let result = m.query("?- briefing(A, N, R).").unwrap();
    assert_eq!(result.rows.len(), 1);
    assert_eq!(result.rows[0][0], Value::str("james stewart"));
    assert!(result.rows[0][1].as_int().unwrap() > 0);
    assert!(matches!(result.rows[0][2], Value::List(_)));
}

#[test]
fn remote_placement_slows_queries_proportionally() {
    let place = |site: hermes::Site| {
        let mut net = Network::new(9);
        net.place(Arc::new(rope_store()), site);
        let m = Mediator::from_source(
            "objs(O) :- in(O, video:frames_to_objects('rope', 4, 47)).",
            net,
        )
        .unwrap();
        m.query("?- objs(O).").unwrap().t_all
    };
    let md = place(profiles::maryland());
    let co = place(profiles::cornell());
    let it = place(profiles::italy());
    assert!(co > md, "cornell {co} <= maryland {md}");
    assert!(it > co * 3, "italy {it} not ≫ cornell {co}");
}

#[test]
fn cache_survives_source_outage() {
    use hermes::{SimDuration, SimInstant};
    let mut net = Network::new(6);
    // Site goes down 1 virtual minute in, for an hour.
    let down_from = SimInstant::EPOCH + SimDuration::from_secs(60);
    let down_to = SimInstant::EPOCH + SimDuration::from_secs(3660);
    net.place(
        Arc::new(rope_store()),
        profiles::cornell().with_outage(down_from, down_to),
    );
    let mut m = Mediator::from_source(
        "objs(O) :- in(O, video:frames_to_objects('rope', 4, 47)).",
        net,
    )
    .unwrap();
    // Query while the site is up: populates the cache.
    let warm = m.query("?- objs(O).").unwrap();
    // Jump into the outage window.
    m.advance_clock(SimDuration::from_secs(120));
    let during = m.query("?- objs(O).").unwrap();
    assert_eq!(during.rows, warm.rows);
    assert!(!during.incomplete);
    assert_eq!(during.stats.actual_calls, 0);
    // A *different* query cannot be served and fails.
    let err = m.query("?- objs2(O) & objs(O).");
    assert!(err.is_err()); // undefined predicate → no plan
    let err2 = m
        .query("?- in(O, video:frames_to_objects('rope', 200, 300)).")
        .unwrap_err();
    assert!(matches!(err2, hermes::HermesError::Unavailable { .. }));
}

#[test]
fn direct_in_goals_work_in_queries() {
    // Queries may call domains directly without an IDB wrapper.
    let mut net = Network::new(7);
    net.place_local(Arc::new(rope_store()));
    let m = Mediator::from_source("", net).unwrap();
    let result = m
        .query("?- in(S, video:video_size('rope')) & >(S, 1000000).")
        .unwrap();
    assert_eq!(result.rows.len(), 1);
}

#[test]
fn unknown_domain_is_reported_at_execution() {
    let net = Network::new(8);
    let m = Mediator::from_source("", net).unwrap();
    let err = m.query("?- in(X, ghost:f()).").unwrap_err();
    assert!(matches!(err, hermes::HermesError::UnknownDomain(_)));
}

#[test]
fn statistics_improve_estimates_over_time() {
    let m = rope_mediator(10);
    let cold = m.plan("?- scene_actors(4, 47, O, A).").unwrap();
    let cold_est = cold.estimate().t_all_ms.unwrap();
    m.query("?- scene_actors(4, 47, O, A).").unwrap();
    // Clear the answer cache so the second run re-executes, but keep the
    // statistics: the *estimate* should now be grounded in observation.
    m.caches().clear(hermes::CacheTier::Answers);
    let warm = m.plan("?- scene_actors(4, 47, O, A).").unwrap();
    let warm_est = warm.estimate().t_all_ms.unwrap();
    let actual = m.query("?- scene_actors(4, 47, O, A).").unwrap();
    let actual_ms = actual.t_all.as_millis_f64();
    let err = |est: f64| (est - actual_ms).abs() / actual_ms;
    assert!(
        err(warm_est) < err(cold_est),
        "warm estimate {warm_est} should beat cold {cold_est} against actual {actual_ms}"
    );
}
