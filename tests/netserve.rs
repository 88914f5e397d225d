//! Loopback integration of the network serving stack through the root
//! crate's public API: `NetServer` + `WireClient` end to end, including
//! concurrent clients, gate sheds on the wire, and graceful shutdown.

mod common;

use common::OffReactor;
use hermes::domains::synthetic::{RelationSpec, SyntheticDomain};
use hermes::net::profiles;
use hermes::{
    HermesError, Mediator, NetServer, Network, QueryFrame, ServeConfig, Value, WireClient,
};
use std::sync::Arc;
use std::time::Duration;

fn world() -> Mediator {
    let domain = SyntheticDomain::generate("d1", 9, &[RelationSpec::uniform("p", 16, 2.0)]);
    let mut net = Network::new(9);
    net.place(Arc::new(OffReactor::new(domain)), profiles::maryland());
    Mediator::from_source(
        "
        item(A, B) :- in(Ans, d1:p_ff()) & =(Ans.a, A) & =(Ans.b, B).
        item(A, B) :- in(B, d1:p_bf(A)).
        ",
        net,
    )
    .unwrap()
}

fn start() -> (NetServer, String) {
    let server = Arc::new(world().to_concurrent(4));
    let net = NetServer::bind(server, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = net.addr().to_string();
    (net, addr)
}

#[test]
fn concurrent_clients_all_get_the_right_answers() {
    let (net, addr) = start();
    let mut expected = world().query("?- item(A, B).").unwrap().rows;
    expected.sort();

    std::thread::scope(|s| {
        for _ in 0..4 {
            let addr = addr.clone();
            let expected = expected.clone();
            s.spawn(move || {
                let mut client = WireClient::connect_retry(&addr, Duration::from_secs(5)).unwrap();
                for _ in 0..5 {
                    let got = client.query(QueryFrame::new("?- item(A, B).")).unwrap();
                    let mut rows = got.rows;
                    rows.sort();
                    assert_eq!(rows, expected);
                }
            });
        }
    });

    let stats = net.shutdown();
    assert_eq!(stats.accepted, 4);
    assert_eq!(stats.requests, 20);
    assert_eq!(stats.bad_frames, 0);
}

#[test]
fn limits_deadlines_and_traces_travel_with_the_frame() {
    let (net, addr) = start();
    let mut client = WireClient::connect(&addr).unwrap();

    let mut q = QueryFrame::new("?- item(A, B).");
    q.limit = Some(3);
    let got = client.query(q).unwrap();
    assert!(got.rows.len() <= 3, "limit must cap the answer set");

    let mut q = QueryFrame::new("?- item('p_1', B).");
    q.trace = true;
    let got = client.query(q).unwrap();
    assert!(
        !got.done.trace.is_empty(),
        "requested trace must come back rendered"
    );

    // A very generous deadline changes nothing.
    let mut q = QueryFrame::new("?- item('p_1', B).");
    q.deadline_us = Some(60_000_000);
    let got = client.query(q).unwrap();
    assert!(!got.done.incomplete);
    net.shutdown();
}

#[test]
fn warm_queries_hit_the_cache_over_the_wire() {
    let (net, addr) = start();
    let mut client = WireClient::connect(&addr).unwrap();
    let cold = client.query(QueryFrame::new("?- item('p_2', B).")).unwrap();
    let warm = client.query(QueryFrame::new("?- item('p_2', B).")).unwrap();
    assert_eq!(cold.rows, warm.rows);
    assert!(cold.done.source_calls >= 1);
    assert_eq!(warm.done.source_calls, 0, "second answer comes from CIM");
    assert!(warm.done.cache_hits >= 1);
    net.shutdown();
}

#[test]
fn gate_shed_reaches_the_client_as_a_shed_error() {
    let (net, addr) = start();
    net.mediator().set_gate(Some(0));
    let mut client = WireClient::connect(&addr).unwrap();
    let err = client.query(QueryFrame::new("?- item(A, B).")).unwrap_err();
    let HermesError::Shed { reason } = err else {
        panic!("expected a shed, got {err:?}");
    };
    assert_eq!(reason, "gate-full");
    // Stats must agree with what the client saw.
    let stats = client.stats().unwrap();
    let Value::Record(rec) = &stats else {
        panic!("stats is not a record");
    };
    let Some(Value::Record(server)) = rec.get("server") else {
        panic!("no server section");
    };
    assert_eq!(server.get("shed"), Some(&Value::Int(1)));
    net.shutdown();
}

#[test]
fn client_driven_shutdown_drains_cleanly() {
    let (net, addr) = start();
    let mut client = WireClient::connect(&addr).unwrap();
    client.query(QueryFrame::new("?- item('p_3', B).")).unwrap();
    client.shutdown_server().unwrap();
    let stats = net.wait();
    assert_eq!(stats.requests, 2);
}

#[test]
fn a_ten_thousand_condition_query_is_answered_and_the_server_keeps_serving() {
    let (net, addr) = start();
    let mut client = WireClient::connect(&addr).unwrap();
    // One frame of about 100 KB: `?- =(A, 1) & … .`, as long a plan as
    // the server's 2 MB worker stacks then run.
    let long = format!("?- {}.", vec!["=(A, 1)"; 10_000].join(" & "));
    let got = client.query(QueryFrame::new(long)).unwrap();
    assert_eq!(got.rows, vec![vec![Value::int(1)]]);
    let got = client.query(QueryFrame::new("?- item('p_1', B).")).unwrap();
    assert!(!got.rows.is_empty());
    let stats = net.shutdown();
    assert_eq!((stats.requests, stats.bad_frames), (2, 0));
}

#[test]
fn a_call_nothing_can_bind_is_refused_at_once_and_the_connection_keeps_serving() {
    let (net, addr) = start();
    let mut client = WireClient::connect(&addr).unwrap();
    // Ten independent calls and one whose argument `Z` nothing binds: no
    // ordering of the ten is worth trying.
    let calls: Vec<String> = (0..10).map(|i| format!("in(X{i}, d{i}:f())")).collect();
    let query = format!("?- {} & in(Y, dz:g(Z)).", calls.join(" & "));
    let mut fastest = Duration::MAX;
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        let err = client.query(QueryFrame::new(query.as_str())).unwrap_err();
        fastest = fastest.min(t0.elapsed());
        assert!(
            err.to_string().contains("no executable ordering found"),
            "{err}"
        );
    }
    assert!(fastest < Duration::from_millis(10), "took {fastest:?}");
    let got = client.query(QueryFrame::new("?- item('p_1', B).")).unwrap();
    assert!(!got.rows.is_empty());
    let stats = net.shutdown();
    assert_eq!((stats.requests, stats.bad_frames), (4, 0));
}
