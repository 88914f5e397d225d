//! Quickstart: build a two-source mediator, run a query three ways, and
//! watch the caches work.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use hermes::domains::relational::{Column, ColumnType, RelationalDomain, Schema, Table};
use hermes::domains::video::gen::{rope_store, ROPE_CAST};
use hermes::net::profiles;
use hermes::{Mediator, Network, Value};
use std::sync::Arc;

fn main() {
    // 1. Sources. The AVIS-style video store sits in Italy (1996 network
    //    conditions); the relational cast database at Cornell.
    let video = rope_store();
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

    let mut net = Network::new(42);
    net.place(Arc::new(video), profiles::italy());
    net.place(relation, profiles::cornell());

    // 2. The mediator program: who plays the objects seen in a scene? Its
    // `%! invariant` line is installed with it: a *wider* frame range
    // always contains a narrower one, so a cached narrow range partially
    // answers a wide query.
    let mediator = Mediator::from_source(include_str!("programs/quickstart.hms"), net)
        .expect("program compiles");

    // 3. Cold run: everything goes over the (simulated) Atlantic.
    let q = "?- scene_actors(4, 47, Object, Actor).";
    let cold = mediator.query(q).expect("query runs");
    println!(
        "cold run:  {} answers, first in {}, all in {}",
        cold.rows.len(),
        fmt(cold.t_first),
        cold.t_all
    );

    // 4. Warm run: served from the answer cache.
    let warm = mediator.query(q).expect("query runs");
    println!(
        "warm run:  {} answers, first in {}, all in {}",
        warm.rows.len(),
        fmt(warm.t_first),
        warm.t_all
    );
    assert_eq!(cold.rows, warm.rows);

    // 5. A *wider* scene was never cached — the invariant lets the cache
    //    answer partially while the real call runs in parallel.
    let wide = mediator
        .query("?- scene_actors(4, 127, Object, Actor).")
        .expect("query runs");
    println!(
        "wide run:  {} answers, first in {}, all in {} ({} partial cache hits)",
        wide.rows.len(),
        fmt(wide.t_first),
        wide.t_all,
        wide.stats.cim_partial
    );

    // 6. What did the optimizer consider?
    println!("\n{}", mediator.explain(q).unwrap());

    for row in wide.rows.iter().take(5) {
        println!("  {} played by {}", row[0], row[1]);
    }
}

fn fmt(d: Option<hermes::SimDuration>) -> String {
    d.map(|d| d.to_string()).unwrap_or_else(|| "-".into())
}
