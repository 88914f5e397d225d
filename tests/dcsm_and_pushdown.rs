//! Integration tests: DCSM lifecycle management in vivo, selection
//! pushdown end-to-end, and the text-database federation.

use hermes::core::PushdownRule;
use hermes::dcsm::CostSource;
use hermes::domains::relational::{Column, ColumnType, RelationalDomain, Schema, Table};
use hermes::domains::text::newswire;
use hermes::net::profiles;
use hermes::{CimPolicy, Mediator, Network, Value};
use std::sync::Arc;

fn inventory_mediator(seed: u64, with_pushdown: bool, with_index: bool) -> Mediator {
    let rel = RelationalDomain::new("relation");
    let mut inv = Table::new(
        "inventory",
        Schema::new(vec![
            Column::new("item", ColumnType::Str),
            Column::new("loc", ColumnType::Str),
            Column::new("qty", ColumnType::Int),
        ])
        .unwrap(),
    );
    for i in 0..3_000i64 {
        inv.insert(vec![
            Value::str(format!("item_{}", i % 60)),
            Value::str(format!("depot_{}", i % 7)),
            Value::Int(i % 100),
        ])
        .unwrap();
    }
    if with_index {
        inv.create_hash_index("item").unwrap();
    }
    rel.add_table(inv);
    let mut net = Network::new(seed);
    net.place(rel, profiles::cornell());
    let mut m = Mediator::from_source(
        "
        stock(Item, Loc, Qty) :-
            in(T, relation:all('inventory')) &
            =(T.item, Item) & =(T.loc, Loc) & =(T.qty, Qty).
        ",
        net,
    )
    .unwrap();
    m.caches()
        .policy()
        .routing(CimPolicy::never())
        .apply()
        .unwrap();
    if with_pushdown {
        m.add_pushdown(PushdownRule::relational("relation"));
    }
    m
}

#[test]
fn pushdown_plan_is_chosen_and_faster_on_indexed_tables() {
    let q = "?- stock('item_7', Loc, Qty).";
    // Train both mediators so estimates are informed.
    let train = |m: &mut Mediator| {
        for i in 0..4 {
            let _ = m.query(format!("?- stock('item_{i}', L, Q)."));
            let _ = m.query(format!(
                "?- in(T, relation:select_eq('inventory', 'item', 'item_{i}')))."
            ));
        }
    };
    let mut plain = inventory_mediator(3, false, true);
    train(&mut plain);
    let mut pushed = inventory_mediator(3, true, true);
    train(&mut pushed);

    let r_plain = plain.query(q).unwrap();
    let r_pushed = pushed.query(q).unwrap();

    // Same answers either way (row order may differ across plans).
    let mut a = r_plain.rows.clone();
    let mut b = r_pushed.rows.clone();
    a.sort();
    b.sort();
    assert_eq!(a, b);
    assert_eq!(a.len(), 50); // 3000 rows / 60 items

    // The pushed mediator chose the fused select_eq plan and won big: the
    // scan ships 3000 rows over the WAN, the indexed select ships 50.
    assert!(
        r_pushed.plan.to_string().contains("select_eq"),
        "chosen plan:\n{}",
        r_pushed.plan
    );
    assert!(
        r_pushed.t_all.as_millis_f64() * 3.0 < r_plain.t_all.as_millis_f64(),
        "pushed {} vs plain {}",
        r_pushed.t_all,
        r_plain.t_all
    );
    assert!(r_pushed.stats.bytes < r_plain.stats.bytes / 3);
}

#[test]
fn range_pushdown_end_to_end() {
    let mut m = inventory_mediator(5, true, false);
    let low = m
        .query("?- in(T, relation:all('inventory')) & <(T.qty, 5) & =(T.item, I).")
        .unwrap();
    // 3000 rows, qty = i % 100 → 5% have qty < 5.
    assert_eq!(low.rows.len(), 150);
    // The plan space includes the select_lt fusion.
    let planned = m
        .plan("?- in(T, relation:all('inventory')) & <(T.qty, 5) & =(T.item, I).")
        .unwrap();
    assert!(planned
        .plans
        .iter()
        .any(|p| p.to_string().contains("select_lt('inventory', 'qty', 5)")));
}

#[test]
fn dcsm_maintenance_in_vivo() {
    let mut m = inventory_mediator(7, true, true);
    // Generate estimator traffic on one hot shape.
    for i in 0..6 {
        let _ = m.query(format!("?- stock('item_{i}', L, Q)."));
    }
    // The serial mediator's statistics cache is one shard.
    m.dcsm().for_each_shard_mut(|_, dcsm| {
        assert_eq!(dcsm.table_count(), 0);
        let (created, _) = dcsm.maintain(3, 0);
        assert!(!created.is_empty(), "hot shapes should be materialized");
        // Pick a materialized shape whose function actually executed (has
        // detail records — the optimizer costs *every* candidate plan, so
        // never-executed functions can be hot too).
        let shape = created
            .iter()
            .find(|s| !dcsm.db().records_for(&s.domain, &s.function).is_empty())
            .expect("some hot shape belongs to an executed function")
            .clone();
        // Its table answers a matching pattern; after dropping the detail the
        // estimate still comes from the summary, not the prior.
        let sample_call = dcsm.db().records_for(&shape.domain, &shape.function)[0]
            .call
            .clone();
        let pattern = shape.project(&sample_call.pattern()).unwrap();
        let freed = dcsm.drop_detail(&shape.domain, &shape.function);
        assert!(freed > 0);
        let est = dcsm.cost(&pattern);
        assert!(est.t_all_ms() > 0.0);
        assert!(
            matches!(est.source, hermes::dcsm::EstimateSource::Summary { .. }),
            "source {:?}",
            est.source
        );
    });
}

#[test]
fn text_federation_queries_run() {
    let text = newswire(11, "text", "usatoday", 3_000);
    let mut net = Network::new(11);
    net.place(Arc::new(text), profiles::bucknell());
    let mut m = Mediator::from_source(
        "
        headlines(Term, H) :-
            in(D, text:search('usatoday', Term)) & =(D.headline, H).
        both(T1, T2, H) :-
            in(D, text:search_and('usatoday', T1, T2)) & =(D.headline, H).
        story(Id, Body) :-
            in(D, text:fetch('usatoday', Id)) & =(D.body, Body).
        ",
        net,
    )
    .unwrap();

    let popular = m.query("?- headlines('election', H).").unwrap();
    let rare = m.query("?- headlines('taxes', H).").unwrap();
    assert!(popular.rows.len() > rare.rows.len());
    assert!(
        popular.t_all > rare.t_all,
        "posting-list skew shows in time"
    );

    let both = m.query("?- both('election', 'budget', H).").unwrap();
    assert!(both.rows.len() <= popular.rows.len());

    let story = m.query("?- story(5, B).").unwrap();
    assert_eq!(story.rows.len(), 1);

    // Second run of the popular query: served by the cache.
    let again = m.query("?- headlines('election', H).").unwrap();
    assert_eq!(again.rows, popular.rows);
    assert_eq!(again.stats.actual_calls, 0);
}

#[test]
fn dcsm_learns_posting_list_skew() {
    let text = newswire(13, "text", "usatoday", 3_000);
    let mut net = Network::new(13);
    net.place(Arc::new(text), profiles::maryland());
    let mut m = Mediator::from_source(
        "headlines(Term, H) :- in(D, text:search('usatoday', Term)) & =(D.headline, H).",
        net,
    )
    .unwrap();
    m.caches()
        .policy()
        .routing(CimPolicy::never())
        .apply()
        .unwrap();
    for _ in 0..3 {
        m.query("?- headlines('election', H).").unwrap();
        m.query("?- headlines('taxes', H).").unwrap();
    }
    let dcsm = m.dcsm();
    let est = |term: &str| {
        dcsm.cost(
            &hermes::GroundCall::new(
                "text",
                "search",
                vec![Value::str("usatoday"), Value::str(term)],
            )
            .pattern(),
        )
    };
    let hot = est("election");
    let cold = est("taxes");
    assert!(hot.cardinality() > cold.cardinality());
    assert!(hot.t_all_ms() > cold.t_all_ms());
}
