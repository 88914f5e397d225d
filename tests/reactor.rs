//! Torture tests for the epoll reactor serving engine: connection
//! scaling far past the worker count, partial-I/O robustness, deadline
//! evictions, pipelining order, bounded-depth sheds, graceful drain,
//! and serial-vs-reactor answer equivalence.
//!
//! Linux-only: on other platforms `ServeMode::Reactor` falls back to
//! the worker pool, and these tests assert reactor-specific behavior.
#![cfg(target_os = "linux")]

mod common;

use common::{assert_permits_released, example_world, OffReactor};
use hermes::core::serve::{INLINE_BUDGET, PARKED_PER_WORKER};
use hermes::domains::synthetic::{RelationSpec, SyntheticDomain};
use hermes::domains::SlowDomain;
use hermes::net::profiles;
use hermes::{
    parse_program, ConcurrentMediator, Frame, FrameDecoder, HermesError, Mediator, NetServer,
    Network, PlanTier, QueryFrame, QueryRequest, QueryResult, RemoteResult, ServeConfig, ServeMode,
    SimDuration, Value, WireClient,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

fn slow_world(delay: Duration) -> Mediator {
    let domain = SyntheticDomain::generate("d1", 9, &[RelationSpec::uniform("p", 16, 2.0)]);
    let mut net = Network::new(9);
    net.place(
        Arc::new(OffReactor::new(SlowDomain::new(Arc::new(domain), delay))),
        profiles::maryland(),
    );
    Mediator::from_source("item(A, B) :- in(B, d1:p_bf(A)).", net).unwrap()
}

fn reactor(config: ServeConfig) -> (NetServer, String) {
    let server = Arc::new(world().to_concurrent(4));
    let net = NetServer::bind(server, "127.0.0.1:0", config).unwrap();
    assert_eq!(net.mode(), ServeMode::Reactor);
    let addr = net.addr().to_string();
    (net, addr)
}

#[test]
fn concurrent_open_connections_far_exceed_workers() {
    // 2 workers, 32 live connections: the pool engine would serve 2 and
    // park the rest; the reactor must hold ALL of them open and answer
    // on each. 16× over the worker count clears the ≥4× acceptance bar.
    let workers = 2usize;
    let conns = 32usize;
    let config = ServeConfig::builder()
        .mode(ServeMode::Reactor)
        .workers(workers)
        .build();
    let (net, addr) = reactor(config);

    let mut clients: Vec<WireClient> = (0..conns)
        .map(|_| WireClient::connect_retry(&addr, Duration::from_secs(5)).unwrap())
        .collect();
    // Every connection is open at once; prove each is live in turn.
    for client in &mut clients {
        client.ping().unwrap();
    }
    let mut expected = world().query("?- item(A, B).").unwrap().rows;
    expected.sort();
    for client in &mut clients {
        let mut rows = client
            .query(QueryFrame::new("?- item(A, B)."))
            .unwrap()
            .rows;
        rows.sort();
        assert_eq!(rows, expected);
    }
    let stats = net.shutdown();
    assert_eq!(stats.accepted, conns as u64);
    assert_eq!(stats.refused, 0);
    assert_eq!(stats.bad_frames, 0);
    assert!(conns >= 4 * workers);
}

#[test]
fn one_byte_reads_and_writes_survive_the_state_machine() {
    // The client dribbles its query one byte at a time and slurps the
    // response one byte at a time: every partial-read re-entry of the
    // decoder and every short-write path must compose to the same
    // answer a well-behaved client gets.
    let (net, addr) = reactor(
        ServeConfig::builder()
            .mode(ServeMode::Reactor)
            .batch_rows(2)
            .build(),
    );
    let mut expected = world().query("?- item(A, B).").unwrap().rows;
    expected.sort();

    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.set_nodelay(true).unwrap();
    let query = Frame::Query(QueryFrame::new("?- item(A, B).")).encode();
    for byte in &query {
        raw.write_all(std::slice::from_ref(byte)).unwrap();
        raw.flush().unwrap();
        std::thread::sleep(Duration::from_micros(300));
    }

    // Reassemble Batch* + Done from single-byte reads.
    let mut decoder = FrameDecoder::new();
    let mut rows: Vec<Vec<Value>> = Vec::new();
    let mut one = [0u8; 1];
    'outer: loop {
        match raw.read(&mut one) {
            Ok(0) => panic!("server hung up before Done"),
            Ok(_) => decoder.feed(&one),
            Err(e) => panic!("read failed: {e}"),
        }
        while let Some(frame) = decoder.next_frame().unwrap() {
            match frame {
                Frame::Batch(mut batch) => rows.append(&mut batch),
                Frame::Done(done) => {
                    assert_eq!(done.rows as usize, rows.len());
                    break 'outer;
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }
    rows.sort();
    assert_eq!(rows, expected);
    let stats = net.shutdown();
    assert_eq!(stats.bad_frames, 0);
}

/// A server on `world()` under `config`, running the engine it names.
fn serve_in(mode: ServeMode, config: hermes::ServeConfigBuilder) -> (NetServer, String) {
    let server = Arc::new(world().to_concurrent(4));
    let net = NetServer::bind(server, "127.0.0.1:0", config.mode(mode).build()).unwrap();
    assert_eq!(net.mode(), mode);
    let addr = net.addr().to_string();
    (net, addr)
}

#[test]
fn slow_loris_connections_are_evicted_on_the_frame_deadline() {
    // Both engines drive one connection core, so both evict.
    for mode in [ServeMode::Reactor, ServeMode::Pool] {
        let config = ServeConfig::builder()
            .frame_timeout(Duration::from_millis(150))
            .idle_poll(Duration::from_millis(20));
        let (net, addr) = serve_in(mode, config);

        // Two header bytes, then silence: a classic slow loris.
        let mut loris = TcpStream::connect(&addr).unwrap();
        loris.write_all(&[9, 0]).unwrap();

        // The server must hang up within a few frame timeouts.
        loris
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = [0u8; 16];
        let start = Instant::now();
        let hung_up = matches!(loris.read(&mut buf), Ok(0) | Err(_));
        assert!(
            hung_up,
            "{mode:?}: loris connection should be closed by the server"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "{mode:?}: eviction took too long"
        );

        // A healthy client is unaffected before and after.
        let mut client = WireClient::connect(&addr).unwrap();
        client.ping().unwrap();
        let stats = net.shutdown();
        assert_eq!(stats.evicted, 1, "{mode:?}: exactly the loris is evicted");
        assert_eq!(stats.bad_frames, 0, "{mode:?}");
    }
}

#[test]
fn a_frame_trickled_in_byte_by_byte_is_evicted_on_the_frame_deadline() {
    // The deadline bounds the whole frame, not each read: a peer that
    // sends one byte every third of `frame_timeout` never lets a read
    // wait that long, and must still be cut off after `frame_timeout`.
    let frame_timeout = Duration::from_millis(300);
    for mode in [ServeMode::Reactor, ServeMode::Pool] {
        let config = ServeConfig::builder()
            .frame_timeout(frame_timeout)
            .idle_poll(Duration::from_millis(20));
        let (net, addr) = serve_in(mode, config);

        // A header announcing a 200-byte body, then the body a byte at a time.
        let mut loris = TcpStream::connect(&addr).unwrap();
        loris.write_all(&200u32.to_le_bytes()).unwrap();
        loris.set_read_timeout(Some(frame_timeout / 3)).unwrap();
        let start = Instant::now();
        let mut closed = false;
        while !closed && start.elapsed() < 3 * frame_timeout {
            let _ = loris.write_all(&[0]);
            let mut buf = [0u8; 16];
            closed = match loris.read(&mut buf) {
                Ok(0) => true,
                Ok(n) => panic!("{mode:?}: {n} bytes answered an unfinished frame"),
                Err(e) => !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
            };
        }
        assert!(
            closed,
            "{mode:?}: a trickling frame was still open after {:?}",
            start.elapsed()
        );

        let mut client = WireClient::connect(&addr).unwrap();
        client.ping().unwrap();
        let stats = net.shutdown();
        assert_eq!(stats.evicted, 1, "{mode:?}: the trickle is evicted");
        assert_eq!(stats.bad_frames, 0, "{mode:?}");
    }
}

#[test]
fn idle_timeout_reclaims_quiet_connections() {
    let config = ServeConfig::builder()
        .mode(ServeMode::Reactor)
        .idle_timeout(Some(Duration::from_millis(120)))
        .idle_poll(Duration::from_millis(20))
        .build();
    let (net, addr) = reactor(config);

    let mut idle = WireClient::connect(&addr).unwrap();
    idle.ping().unwrap();
    // Go quiet past the idle limit; the server reclaims the slot.
    std::thread::sleep(Duration::from_millis(400));
    let gone = idle.ping().is_err();
    assert!(gone, "idle connection should have been evicted");
    let stats = net.shutdown();
    assert!(stats.evicted >= 1);
}

#[test]
fn pipelined_responses_arrive_in_request_order() {
    let (net, addr) = reactor(ServeConfig::builder().mode(ServeMode::Reactor).build());
    let direct = world();
    let keys: Vec<String> = (0..8).map(|k| format!("p_{k}")).collect();

    let mut client = WireClient::connect(&addr).unwrap();
    for key in &keys {
        client
            .send_query(QueryFrame::new(format!("?- item('{key}', B).")))
            .unwrap();
    }
    // Distinct keys have distinct answer sets, so order mixups would
    // show up as wrong rows, not just reordered rows.
    for key in &keys {
        let mut expected = direct.query(format!("?- item('{key}', B).")).unwrap().rows;
        expected.sort();
        let mut got = client.recv_result().unwrap().rows;
        got.sort();
        assert_eq!(got, expected, "response out of order for {key}");
    }
    net.shutdown();
}

#[test]
fn pipeline_depth_sheds_with_a_typed_error_and_keeps_the_gate_invariant() {
    // 1 worker on slow sources and a depth of 2: a burst of 6 pipelined
    // queries must come back as exactly 6 FIFO responses, the overflow
    // shed as `pipeline-full` without ever becoming a mediator query.
    let server = Arc::new(slow_world(Duration::from_millis(150)).to_concurrent(2));
    let config = ServeConfig::builder()
        .mode(ServeMode::Reactor)
        .workers(1)
        .pipeline_depth(2)
        .build();
    let net = NetServer::bind(server, "127.0.0.1:0", config).unwrap();
    let addr = net.addr().to_string();

    let mut client = WireClient::connect(&addr).unwrap();
    let burst = 6usize;
    for _ in 0..burst {
        client
            .send_query(QueryFrame::new("?- item('p_1', B)."))
            .unwrap();
    }
    let mut answered = 0u64;
    let mut shed = 0u64;
    for _ in 0..burst {
        match client.recv_result() {
            Ok(_) => answered += 1,
            Err(HermesError::Shed { reason }) => {
                assert_eq!(reason, "pipeline-full");
                shed += 1;
            }
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }
    assert_eq!(answered + shed, burst as u64);
    assert!(shed >= 1, "burst past the depth must shed");
    assert!(answered >= 2, "the in-depth queries must be answered");

    // Pre-gate sheds never reach the mediator: the gate invariant holds
    // and the query count equals what was actually admitted downstream.
    let m = net.mediator().stats();
    assert_eq!(m.queries, answered);
    assert_eq!(m.admitted + m.shed, m.queries);
    let stats = net.shutdown();
    assert_eq!(stats.pre_gate_shed, shed);
}

#[test]
fn shutdown_drains_inflight_pipelined_responses() {
    // Queries are mid-flight on slow sources when another client asks
    // the server to shut down: every owed response must still arrive,
    // in order, before the connection closes.
    let server = Arc::new(slow_world(Duration::from_millis(100)).to_concurrent(2));
    let config = ServeConfig::builder()
        .mode(ServeMode::Reactor)
        .workers(4)
        .build();
    let net = NetServer::bind(server, "127.0.0.1:0", config).unwrap();
    let addr = net.addr().to_string();

    let mut busy = WireClient::connect(&addr).unwrap();
    for k in 0..4 {
        busy.send_query(QueryFrame::new(format!("?- item('p_{k}', B).")))
            .unwrap();
    }
    let mut admin = WireClient::connect(&addr).unwrap();
    admin.shutdown_server().unwrap();

    while busy.in_flight() > 0 {
        busy.recv_result().unwrap();
    }
    let stats = net.wait();
    assert_eq!(stats.requests, 5, "4 queries + shutdown");
    // Every worker was parked at its source when the drain began.
    assert_eq!(stats.parked, 4);
}

#[test]
fn connection_ceiling_refuses_with_accept_queue_full() {
    let config = ServeConfig::builder()
        .mode(ServeMode::Reactor)
        .max_conns(3)
        .build();
    let (net, addr) = reactor(config);

    let mut held: Vec<WireClient> = (0..3)
        .map(|_| WireClient::connect(&addr).unwrap())
        .collect();
    for c in &mut held {
        c.ping().unwrap();
    }
    let mut overflow = WireClient::connect(&addr).unwrap();
    let err = overflow.ping().unwrap_err();
    let HermesError::Shed { reason } = err else {
        panic!("expected a shed, got {err:?}");
    };
    assert_eq!(reason, "accept-queue-full");

    // Closing one held connection frees a slot.
    drop(held.pop());
    std::thread::sleep(Duration::from_millis(200));
    let mut retry = WireClient::connect_retry(&addr, Duration::from_secs(5)).unwrap();
    retry.ping().unwrap();

    let stats = net.shutdown();
    assert_eq!(stats.refused, 1);
}

#[test]
fn serial_and_reactor_answers_are_the_same_multiset() {
    let (net, addr) = reactor(ServeConfig::builder().mode(ServeMode::Reactor).build());
    let direct = world();
    let mut client = WireClient::connect(&addr).unwrap();

    let queries = [
        "?- item(A, B).",
        "?- item('p_1', B).",
        "?- item('p_5', B).",
        "?- item('p_13', B).",
    ];
    for q in queries {
        let mut expected = direct.query(q).unwrap().rows;
        expected.sort();
        let mut got = client.query(QueryFrame::new(q)).unwrap().rows;
        got.sort();
        assert_eq!(got, expected, "answers diverge for {q}");
    }
    net.shutdown();
}

// ------------------------------------------- a waiting worker lends its slot

/// A one-worker reactor over `server`, and a connection to it.
fn one_worker(server: ConcurrentMediator, queue_depth: usize) -> (NetServer, WireClient) {
    let config = ServeConfig::builder()
        .mode(ServeMode::Reactor)
        .workers(1)
        .queue_depth(queue_depth)
        .build();
    let net = NetServer::bind(Arc::new(server), "127.0.0.1:0", config).unwrap();
    let client = WireClient::connect(net.addr()).unwrap();
    (net, client)
}

#[test]
fn source_waits_of_pipelined_cold_queries_overlap_on_one_worker() {
    // One worker may have 1 + PARKED_PER_WORKER queries at the sources:
    // that many pipelined cold queries take one source wait together,
    // where a worker that holds its thread through each wait needs one
    // wait per query.
    let wait = Duration::from_millis(150);
    let burst = 1 + PARKED_PER_WORKER;
    let direct = slow_world(Duration::ZERO);
    let queries: Vec<String> = (0..burst)
        .map(|k| format!("?- item('p_{k}', B)."))
        .collect();
    // A stall of the shared machine can only add time, so the best of
    // three attempts is what the server is capable of.
    let mut best = Duration::MAX;
    for _ in 0..3 {
        let (net, mut client) = one_worker(slow_world(wait).to_concurrent(2), 1024);
        let start = Instant::now();
        for q in &queries {
            client.send_query(QueryFrame::new(q.as_str())).unwrap();
        }
        // Distinct keys have distinct answer sets: FIFO order is checked.
        for q in &queries {
            let got = client.recv_result().unwrap();
            assert_eq!(got.done.source_calls, 1, "{q} is cold");
            assert_eq!(got.rows, direct.query(q.as_str()).unwrap().rows, "{q}");
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed >= wait,
            "{elapsed:?}: the sources were not waited on"
        );
        best = best.min(elapsed);

        let stats = net.net_stats();
        assert_eq!(stats.parked, burst as u64, "every query parked once");
        assert_eq!(stats.worker_threads_peak, burst as u64);
        assert_permits_released(net.mediator(), &queries[0]);
        net.shutdown();
        if best < wait * 2 {
            break;
        }
    }
    assert!(
        best < wait * 2,
        "{best:?}: {burst} source waits did not overlap"
    );
}

#[test]
fn warm_and_cpu_bound_bursts_park_nobody_and_start_no_thread() {
    let domain = SyntheticDomain::generate(
        "d1",
        9,
        &[
            RelationSpec::uniform("p", 16, 2.0),
            RelationSpec::uniform("q", 16, 2.0),
        ],
    );
    let mut net = Network::new(9);
    net.place(Arc::new(OffReactor::new(domain)), profiles::maryland());
    let world = Mediator::from_source(
        "
        item(A, B) :- in(B, d1:p_bf(A)).
        star(A, B, C) :- in(B, d1:p_bf(A)) & in(C, d1:q_bf(A)).
        ",
        net,
    )
    .unwrap();
    let points: Vec<String> = (0..16).map(|k| format!("?- item('p_{k}', B).")).collect();
    let joins: Vec<String> = (0..16)
        .map(|k| format!("?- star('p_{k}', B, C)."))
        .collect();

    // Warmed in process: a caller that is no serving worker parks nobody.
    let server = world.to_concurrent(4);
    for q in points.iter().chain(&joins) {
        server.query(q.as_str()).unwrap();
    }
    let workers = 2;
    let config = ServeConfig::builder()
        .mode(ServeMode::Reactor)
        .workers(workers)
        .build();
    let net = NetServer::bind(Arc::new(server), "127.0.0.1:0", config).unwrap();
    let mut client = WireClient::connect(net.addr()).unwrap();

    // A burst of warm points (the reactor answers the head of it itself),
    // then a burst of two-call joins, which only a worker finishes.
    for burst in [&points, &joins] {
        for q in burst.iter().chain(burst) {
            client.send_query(QueryFrame::new(q.as_str())).unwrap();
        }
        while client.in_flight() > 0 {
            let got = client.recv_result().unwrap();
            assert_eq!(got.done.source_calls, 0, "everything is warm");
        }
    }
    let stats = net.shutdown();
    assert!(stats.inline_answers < 64, "the workers ran the joins");
    assert_eq!(stats.parked, 0, "nothing waited on anyone");
    assert_eq!(stats.worker_threads_peak, workers as u64);
}

#[test]
fn at_the_thread_cap_a_full_worker_queue_still_sheds() {
    // One worker, so 1 + PARKED_PER_WORKER threads, each parked at a slow
    // source; one more query fits the queue and the rest are shed.
    let cap = 1 + PARKED_PER_WORKER;
    let wait = Duration::from_millis(300);
    let (net, mut client) = one_worker(slow_world(wait).to_concurrent(2), 1);

    let overflow = 2;
    for k in 0..cap + 1 + overflow {
        let q = QueryFrame::new(format!("?- item('p_{k}', B)."));
        client.send_query(q).unwrap();
        // Let each query that gets a thread reach its source first, so
        // the next one meets a queue that is empty again.
        let parked = (k as u64 + 1).min(cap as u64);
        while net.net_stats().parked < parked {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    for k in 0..cap + 1 + overflow {
        match client.recv_result() {
            Ok(got) => assert!(k <= cap, "query {k} ran: {:?}", got.done),
            Err(HermesError::Shed { reason }) => {
                assert!(k > cap, "query {k} was shed");
                assert_eq!(reason, "worker-queue-full");
            }
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }
    let m = net.mediator().stats();
    assert_eq!(m.queries, cap as u64 + 1);
    assert_eq!(m.admitted + m.shed, m.queries);
    let stats = net.shutdown();
    assert_eq!(stats.pre_gate_shed, overflow as u64);
    assert_eq!(stats.worker_threads_peak, cap as u64);
}

#[test]
fn a_parked_leader_and_parked_followers_cannot_deadlock() {
    // Eight connections ask one worker for the same cold key at once. The
    // leader parks at the source and the followers it lent its slot to
    // park on its flight, every thread the cap allows; the leader must
    // still finish. (Were leaving `parked` to wait for a run slot, the
    // followers' successors could hold every slot the leader waits for.)
    let wait = Duration::from_millis(50);
    let query = "?- item('p_3', B).";
    for share_subplans in [false, true] {
        let mut slow_rounds = 0;
        for round in 0..20 {
            let domain = SyntheticDomain::generate("d1", 9, &[RelationSpec::uniform("p", 16, 2.0)]);
            let slow = SlowDomain::new(Arc::new(domain), wait);
            let source_calls = slow.counter();
            let mut net = Network::new(9);
            net.place(Arc::new(OffReactor::new(slow)), profiles::maryland());
            let m = Mediator::from_source("item(A, B) :- in(B, d1:p_bf(A)).", net).unwrap();
            m.caches()
                .policy()
                .share_subplans(share_subplans)
                .apply()
                .unwrap();
            let (net, first) = one_worker(m.to_concurrent(2), 1024);

            let mut clients = vec![first];
            clients.extend((1..8).map(|_| WireClient::connect(net.addr()).unwrap()));
            let start = Instant::now();
            for client in &mut clients {
                client.send_query(QueryFrame::new(query)).unwrap();
            }
            let answers: Vec<Vec<Vec<Value>>> = clients
                .iter_mut()
                .map(|client| client.recv_result().unwrap().rows)
                .collect();
            let elapsed = start.elapsed();

            let tag = format!("share_subplans {share_subplans}, round {round}");
            assert!(!answers[0].is_empty(), "{tag}");
            assert!(answers.iter().all(|a| a == &answers[0]), "{tag}");
            // A stall of the shared machine may cost a round its time; a
            // hang costs it the test.
            assert!(elapsed < Duration::from_secs(5), "{tag}: took {elapsed:?}");
            slow_rounds += usize::from(elapsed >= wait * 3);
            let calls = source_calls.load(std::sync::atomic::Ordering::Relaxed);
            assert_eq!(calls, 1, "{tag}: the source was asked {calls} times");
            net.shutdown();
        }
        assert!(
            slow_rounds <= 2,
            "share_subplans {share_subplans}: {slow_rounds} of 20 rounds took 3 source waits"
        );
    }
}

// ---------------------------------------------- answers on the reactor thread

/// A reactor server on virtual time: with the wall clock off, what the
/// statistics cache learns — and so every plan choice — repeats exactly,
/// and an in-process mediator given the same requests is a reference.
fn sim_reactor(server: ConcurrentMediator) -> (NetServer, WireClient) {
    let config = ServeConfig::builder()
        .mode(ServeMode::Reactor)
        .wall_clock(false)
        .build();
    let net = NetServer::bind(Arc::new(server), "127.0.0.1:0", config).unwrap();
    let client = WireClient::connect(net.addr()).unwrap();
    (net, client)
}

/// The wire answer against the in-process one: rows and columns, and the
/// `Done` summary against the result it summarizes.
fn assert_same_answer(query: &str, got: &RemoteResult, want: &QueryResult) {
    assert_eq!(got.rows, want.rows, "{query}: rows");
    let columns: Vec<String> = want.columns.iter().map(|c| c.to_string()).collect();
    assert_eq!(got.done.columns, columns, "{query}: columns");
    assert_eq!(got.done.rows as usize, want.rows.len(), "{query}");
    assert_eq!(got.done.incomplete, want.incomplete, "{query}");
    assert_eq!(got.done.source_calls, want.stats.actual_calls, "{query}");
    let hits = want.stats.cim_exact + want.stats.cim_equal + want.stats.cim_partial;
    assert_eq!(got.done.cache_hits, hits, "{query}: cache hits");
    assert_eq!(
        got.done.tier_downgrades, want.stats.tier_downgrades,
        "{query}: tier downgrades"
    );
}

fn assert_gate_counts_agree(served: &ConcurrentMediator, reference: &ConcurrentMediator) {
    let (s, r) = (served.stats(), reference.stats());
    assert_eq!(s.admitted + s.shed, s.queries, "every query counted once");
    assert_eq!(
        (s.queries, s.admitted, s.shed, s.downgraded),
        (r.queries, r.admitted, r.shed, r.downgraded)
    );
}

#[test]
fn reactor_answers_match_in_process_for_every_example_program() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/programs");
    let mut inline = 0;
    let mut programs = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/programs exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "hms") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        // One query per declared form: a constant at every bound position.
        let queries: Vec<String> = parse_program(&src)
            .unwrap()
            .declarations
            .query_forms
            .iter()
            .map(|form| {
                let args = form.bound.iter().enumerate().map(|(i, bound)| match bound {
                    true => format!("{}", 10 + i),
                    false => format!("V{i}"),
                });
                format!("?- {}({}).", form.pred, args.collect::<Vec<_>>().join(", "))
            })
            .collect();
        assert!(!queries.is_empty(), "{}: no query form", path.display());

        let reference = example_world(&src).to_concurrent(4);
        let (net, mut client) = sim_reactor(example_world(&src).to_concurrent(4));
        // Cold, warm, and warm again once every form has run.
        for query in queries.iter().flat_map(|q| [q, q]).chain(&queries) {
            let got = client.query(QueryFrame::new(query.as_str())).unwrap();
            let want = reference.query(query.as_str()).unwrap();
            assert_same_answer(query, &got, &want);
        }
        assert_gate_counts_agree(net.mediator(), &reference);
        assert_permits_released(net.mediator(), &queries[0]);
        let stats = net.shutdown();
        assert!(stats.inline_answers <= stats.requests);
        inline += stats.inline_answers;
        programs += 1;
    }
    assert!(programs >= 6, "only {programs} example programs served");
    // The single-call forms (demo's `objs`, `near`, `route`; the video
    // catalog's `in_scene`) are answered on the reactor once warm.
    assert!(inline >= 8, "only {inline} answers came from the reactor");
}

#[test]
fn one_read_of_pipelined_warm_queries_answers_at_most_the_budget_inline() {
    let (net, addr) = reactor(ServeConfig::builder().mode(ServeMode::Reactor).build());
    let burst = 4 * INLINE_BUDGET;
    let queries: Vec<String> = (0..burst)
        .map(|k| format!("?- item('p_{}', B).", k % 16))
        .collect();
    // Warm every key, and keep each answer: distinct keys have distinct
    // answer sets, so a response out of order shows up as wrong rows.
    let mut warm = WireClient::connect(&addr).unwrap();
    let expected: Vec<Vec<Vec<Value>>> = queries
        .iter()
        .map(|q| warm.query(QueryFrame::new(q.as_str())).unwrap().rows)
        .collect();
    let before = net.net_stats().inline_answers;

    // One write on an idle connection, far below a loopback segment: the
    // whole burst reaches the reactor in one read, in one wake.
    let mut raw = TcpStream::connect(&addr).unwrap();
    let bytes: Vec<u8> = queries
        .iter()
        .flat_map(|q| Frame::Query(QueryFrame::new(q.as_str())).encode())
        .collect();
    raw.write_all(&bytes).unwrap();

    let mut decoder = FrameDecoder::new();
    let mut answers: Vec<Vec<Vec<Value>>> = Vec::new();
    let mut rows = Vec::new();
    let mut chunk = [0u8; 4096];
    while answers.len() < burst {
        match raw.read(&mut chunk).unwrap() {
            0 => panic!("server hung up after {} answers", answers.len()),
            n => decoder.feed(&chunk[..n]),
        }
        while let Some(frame) = decoder.next_frame().unwrap() {
            match frame {
                Frame::Batch(mut batch) => rows.append(&mut batch),
                Frame::Done(done) => {
                    assert_eq!(done.source_calls, 0, "every key is warm");
                    answers.push(std::mem::take(&mut rows));
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }
    assert_eq!(answers, expected, "responses are in request order");

    let inline = net.net_stats().inline_answers - before;
    assert!(inline >= 1, "the head of the burst is answered inline");
    assert!(
        inline <= INLINE_BUDGET as u64,
        "{inline} inline answers in one wake, budget {INLINE_BUDGET}"
    );
    let m = net.mediator().stats();
    assert_eq!(m.admitted + m.shed, m.queries);
    assert_eq!(m.queries, 2 * burst as u64);
    assert_permits_released(net.mediator(), &queries[0]);
    let stats = net.shutdown();
    assert_eq!(
        stats.pre_gate_shed, 0,
        "past the budget means a worker, not a shed"
    );
}

#[test]
fn tier_machinery_keeps_every_query_on_the_workers() {
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Engaged {
        ExplicitTier,
        Budget,
        BoundedGate,
    }
    let warm = "?- item('p_1', B).";
    let budget_us = 60_000_000;
    for engaged in [Engaged::ExplicitTier, Engaged::Budget, Engaged::BoundedGate] {
        let build = || {
            let server = world().to_concurrent(4);
            if engaged == Engaged::BoundedGate {
                server.set_gate(Some(8));
            }
            server
        };
        let reference = build();
        let (net, mut client) = sim_reactor(build());

        // Cold once (a worker's job in any case), then warm five times
        // with whatever engages the tier machinery.
        let mut frame = QueryFrame::new(warm);
        let mut request = QueryRequest::new(warm);
        client.query(frame.clone()).unwrap();
        reference.query(request.clone()).unwrap();
        match engaged {
            Engaged::ExplicitTier => {
                frame.tier = Some("cache-only".into());
                request = request.tier(PlanTier::CacheOnly);
            }
            Engaged::Budget => {
                frame.budget_us = Some(budget_us);
                request = request.budget(SimDuration::from_micros(budget_us));
            }
            Engaged::BoundedGate => {}
        }
        for _ in 0..5 {
            let got = client.query(frame.clone()).unwrap();
            let want = reference.query(request.clone()).unwrap();
            assert_same_answer(warm, &got, &want);
        }
        assert_eq!(net.net_stats().inline_answers, 0, "{engaged:?}");
        assert_gate_counts_agree(net.mediator(), &reference);

        // The same warm query with nothing engaged is the reactor's.
        if matches!(engaged, Engaged::ExplicitTier | Engaged::Budget) {
            client.query(QueryFrame::new(warm)).unwrap();
            assert_eq!(net.net_stats().inline_answers, 1, "{engaged:?}");
        }
        assert_permits_released(net.mediator(), warm);
        net.shutdown();
    }
}
