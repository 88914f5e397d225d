//! The paper's §2 motivating example: `routetosupplies` — find a place
//! holding a supply item in a remote INGRES-style inventory, then plan a
//! route to it with a terrain path planner that has no cost model at all.
//!
//! ```sh
//! cargo run --example logistics
//! ```

use hermes::dcsm::CostSource;
use hermes::domains::relational::{Column, ColumnType, RelationalDomain, Schema, Table};
use hermes::domains::terrain::{demo_map, TerrainDomain};
use hermes::net::profiles;
use hermes::{Mediator, Network, Value};
use std::sync::Arc;

fn main() {
    // The inventory database (remote, Cornell).
    let ingres = RelationalDomain::new("ingres");
    let mut inventory = Table::new(
        "inventory",
        Schema::new(vec![
            Column::new("item", ColumnType::Str),
            Column::new("loc", ColumnType::Str),
            Column::new("qty", ColumnType::Int),
        ])
        .unwrap(),
    );
    inventory
        .insert_all([
            vec![
                Value::str("h-22 fuel"),
                Value::str("pax river"),
                Value::Int(40),
            ],
            vec![
                Value::str("h-22 fuel"),
                Value::str("aberdeen"),
                Value::Int(12),
            ],
            vec![Value::str("ammo"), Value::str("aberdeen"), Value::Int(500)],
            vec![
                Value::str("rations"),
                Value::str("college park"),
                Value::Int(90),
            ],
        ])
        .unwrap();
    inventory.create_hash_index("item").unwrap();
    ingres.add_table(inventory);

    // The terrain path planner (a local Army package).
    let terrain = TerrainDomain::new("terraindb", demo_map());

    let mut net = Network::new(7);
    net.place(ingres, profiles::cornell());
    net.place_local(Arc::new(terrain));

    // The §2 rule, verbatim modulo syntax conventions.
    let mediator = Mediator::from_source(include_str!("programs/logistics.hms"), net)
        .expect("program compiles");

    // \"When this is queried with routetosupplies('place1', 'h-22 fuel',
    // To, R) we request to find a place To that has the h-22 fuel and plan
    // a path R from place1 to it.\"
    let result = mediator
        .query("?- routetosupplies('place1', 'h-22 fuel', To, R).")
        .expect("query runs");

    println!(
        "routes to h-22 fuel from place1 ({} found):",
        result.rows.len()
    );
    for row in &result.rows {
        let to = &row[0];
        let waypoints = match &row[1] {
            Value::List(wps) => wps.len(),
            _ => 0,
        };
        println!("  -> {to}: {waypoints} waypoints");
    }
    println!(
        "\nfirst route in {}, all routes in {}",
        result
            .t_first
            .map(|d| d.to_string())
            .unwrap_or_else(|| "-".into()),
        result.t_all
    );

    // Run it again: the inventory lookup and both route computations are
    // cached, so the whole query answers locally.
    let again = mediator
        .query("?- routetosupplies('place1', 'h-22 fuel', To, R).")
        .expect("query runs");
    println!(
        "cached rerun: all routes in {} ({} cache hits)",
        again.t_all, again.stats.cim_exact
    );

    // After two executions DCSM has learned what findrte costs — something
    // no analytic model could predict from the arguments.
    let pattern = hermes::GroundCall::new(
        "terraindb",
        "findrte",
        vec![Value::str("place1"), Value::str("pax river")],
    )
    .blanket_pattern();
    let est = mediator.dcsm().cost(&pattern);
    println!(
        "\nDCSM now estimates terraindb:findrte($b, $b) at {:.1}ms per call",
        est.t_all_ms()
    );
}
