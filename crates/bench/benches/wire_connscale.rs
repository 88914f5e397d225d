//! `wire_connscale` — connection scaling: the epoll reactor versus the
//! worker pool, on the same warm loopback workload (PR 10).
//!
//! Three experiments, written to `BENCH_pr10.json`:
//!
//! * **conn_scale** — 100 and 1000 churning closed-loop clients
//!   (connect, run a short slice, hang up) against an 8-worker server
//!   in each mode. The pool survives *churn* by cycling connections
//!   through its accept queue (refusing what overflows it); the
//!   reactor holds every connection concurrently with zero refusals
//!   and bounded p99. Both keep the gate invariant exact.
//! * **idle_scale** — the experiment the reactor exists for:
//!   *held-open* connections. The reactor holds 1000 open idle
//!   connections (125× the worker count) while a foreground client is
//!   served at microsecond latency through the noise. The pool parks
//!   one worker per open connection, so 4× workers of idle clients
//!   starve a deadline-bounded foreground probe outright — measured
//!   as `starved`, not suffered as a hang.
//! * **pipeline_sweep** — one reactor server, fixed connections,
//!   client-side pipeline depth swept 1 → beyond the server's cap;
//!   depths past `pipeline_depth` shed `pipeline-full` in FIFO order
//!   instead of queueing unboundedly.
//!
//! The gate invariant `admitted + shed == queries` is asserted after
//! every pass in both modes. `--test-mode` shrinks everything and turns
//! the comparisons into assertions for CI.

use hermes_common::{percentile, HermesError, QueryFrame, Rng64};
use hermes_core::{Mediator, NetServer, ServeConfig, ServeMode, WireClient};
use hermes_domains::synthetic::{RelationSpec, SyntheticDomain};
use hermes_domains::SlowDomain;
use hermes_net::{profiles, Network};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Real wall-clock delay per executed (cold) source call.
const SOURCE_DELAY: Duration = Duration::from_millis(3);
/// Keys per relation — matches the `hermes-serve` synthetic world.
const KEYS: usize = 64;
/// Query workers per server in every experiment.
const WORKERS: usize = 8;

// ---------------------------------------------------------------- world

/// The serving world: two SlowDomain-wrapped synthetic sites, the same
/// shape `hermes-serve` builds, so bench numbers transfer.
fn build_server(seed: u64) -> Mediator {
    build_world(seed, SOURCE_DELAY)
}

fn build_world(seed: u64, delay: Duration) -> Mediator {
    let d0 = SyntheticDomain::generate(
        "d0",
        seed,
        &[
            RelationSpec::uniform("r0", KEYS, 2.0),
            RelationSpec::uniform("r1", KEYS, 2.0),
        ],
    );
    let d1 = SyntheticDomain::generate(
        "d1",
        seed + 1,
        &[
            RelationSpec::uniform("r0", KEYS, 2.0),
            RelationSpec::uniform("r1", KEYS, 2.0),
        ],
    );
    let mut net = Network::new(seed);
    net.place(
        Arc::new(SlowDomain::new(Arc::new(d0), delay)),
        profiles::maryland(),
    );
    net.place(
        Arc::new(SlowDomain::new(Arc::new(d1), delay)),
        profiles::cornell(),
    );
    let m = Mediator::from_source(
        "
        q0(A, B) :- in(B, d0:r0_bf(A)).
        q1(A, B) :- in(B, d0:r1_bf(A)).
        q2(A, B) :- in(B, d1:r0_bf(A)).
        q3(A, B) :- in(B, d1:r1_bf(A)).
        ",
        net,
    )
    .expect("bench program parses");
    m.to_concurrent(8)
}

/// The Zipf-skewed mix over the serving world's query forms — identical
/// in shape to `hermes-load` and the other wire bench.
fn zipf_mix(seed: u64, count: usize) -> Vec<String> {
    let mut rng = Rng64::new(seed ^ 0x7F4A_7C15);
    (0..count)
        .map(|_| {
            let f = rng.range_usize(0, 4);
            let key = rng.zipf(KEYS, 1.1) % KEYS;
            let rel = if f.is_multiple_of(2) { "r0" } else { "r1" };
            format!("?- q{f}('{rel}_{key}', B).")
        })
        .collect()
}

/// Pre-warms every key of every form through one connection, so the
/// measured passes run against a hot CIM (source calls near zero) and
/// the comparison isolates *connection handling*, not source latency.
fn warm(addr: &str) {
    let mut client =
        WireClient::connect_retry(addr, Duration::from_secs(5)).expect("warm client connects");
    for f in 0..4usize {
        let rel = if f.is_multiple_of(2) { "r0" } else { "r1" };
        for k in 0..KEYS {
            client
                .query(QueryFrame::new(format!("?- q{f}('{rel}_{k}', B).")))
                .expect("warm query runs");
        }
    }
}

// ------------------------------------------------------------ conn scale

#[derive(Default)]
struct PassTally {
    issued: u64,
    answered: u64,
    sheds: BTreeMap<String, u64>,
    transport_errors: u64,
    served_conns: u64,
    latencies_us: Vec<u64>,
}

struct PassRow {
    mode: &'static str,
    conns: usize,
    issued: u64,
    answered: u64,
    shed_total: u64,
    sheds: BTreeMap<String, u64>,
    transport_errors: u64,
    served_conns: u64,
    refused: u64,
    evicted: u64,
    wall_s: f64,
    qps: f64,
    p50_us: u64,
    p99_us: u64,
}

/// One measured pass: `conns` closed-loop clients, `per_conn` warm
/// queries each, against a fresh warmed server in `mode`.
fn run_pass(mode: ServeMode, conns: usize, per_conn: usize) -> PassRow {
    let mediator = Arc::new(build_server(42));
    let config = ServeConfig::builder().mode(mode).workers(WORKERS).build();
    let net = NetServer::bind(Arc::clone(&mediator), "127.0.0.1:0", config)
        .expect("conn-scale server binds");
    let addr = net.addr().to_string();
    warm(&addr);

    let t0 = Instant::now();
    let tallies: Vec<PassTally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let addr = addr.clone();
                let mix = zipf_mix(1000 + c as u64, per_conn);
                s.spawn(move || {
                    let mut tally = PassTally::default();
                    let mut client = match WireClient::connect_retry(&addr, Duration::from_secs(30))
                    {
                        Ok(cl) => cl,
                        Err(_) => {
                            tally.transport_errors += 1;
                            return tally;
                        }
                    };
                    for q in &mix {
                        tally.issued += 1;
                        let start = Instant::now();
                        match client.query(QueryFrame::new(q.clone())) {
                            Ok(_) => {
                                tally.answered += 1;
                                tally.latencies_us.push(start.elapsed().as_micros() as u64);
                            }
                            Err(HermesError::Shed { reason }) => {
                                *tally.sheds.entry(reason.to_string()).or_default() += 1;
                                // Socket-level sheds close the connection.
                                match WireClient::connect_retry(&addr, Duration::from_secs(30)) {
                                    Ok(cl) => client = cl,
                                    Err(_) => {
                                        tally.transport_errors += 1;
                                        break;
                                    }
                                }
                            }
                            Err(_) => {
                                tally.transport_errors += 1;
                                match WireClient::connect_retry(&addr, Duration::from_secs(30)) {
                                    Ok(cl) => client = cl,
                                    Err(_) => break,
                                }
                            }
                        }
                    }
                    tally.served_conns = u64::from(tally.answered > 0);
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();

    let stats = mediator.stats();
    assert_eq!(
        stats.admitted + stats.shed,
        stats.queries,
        "gate invariant broken in {mode:?} at {conns} conns"
    );
    let net_stats = net.shutdown();

    let mut total = PassTally::default();
    for t in tallies {
        total.issued += t.issued;
        total.answered += t.answered;
        for (class, n) in t.sheds {
            *total.sheds.entry(class).or_default() += n;
        }
        total.transport_errors += t.transport_errors;
        total.served_conns += t.served_conns;
        total.latencies_us.extend(t.latencies_us);
    }
    total.latencies_us.sort_unstable();
    let shed_total: u64 = total.sheds.values().sum();
    PassRow {
        mode: if mode == ServeMode::Pool {
            "pool"
        } else {
            "reactor"
        },
        conns,
        issued: total.issued,
        answered: total.answered,
        shed_total,
        sheds: total.sheds,
        transport_errors: total.transport_errors,
        served_conns: total.served_conns,
        refused: net_stats.refused,
        evicted: net_stats.evicted,
        wall_s,
        qps: total.answered as f64 / wall_s,
        p50_us: percentile(&total.latencies_us, 0.50),
        p99_us: percentile(&total.latencies_us, 0.99),
    }
}

// ------------------------------------------------------------ idle scale

struct IdleScale {
    mode: &'static str,
    idle_conns: usize,
    workers: usize,
    accepted: u64,
    refused: u64,
    foreground_queries: u64,
    foreground_answered: u64,
    foreground_p50_us: u64,
    foreground_p99_us: u64,
    starved: bool,
}

/// Holds `idle_conns` open, idle connections, then probes with a
/// foreground client. This is the experiment the reactor exists for:
/// open connections must cost state, not threads. On the pool every
/// held-open connection parks a worker, so a handful of idle clients
/// starve the foreground — the probe is deadline-bounded (`patience`)
/// so starvation is *measured*, not hung on.
fn run_idle_scale(
    mode: ServeMode,
    idle_conns: usize,
    foreground: usize,
    patience: Duration,
) -> IdleScale {
    let mediator = Arc::new(build_server(43));
    let config = ServeConfig::builder().mode(mode).workers(WORKERS).build();
    let net = NetServer::bind(Arc::clone(&mediator), "127.0.0.1:0", config)
        .expect("idle-scale server binds");
    let addr = net.addr().to_string();
    warm(&addr);
    let reactor = mode != ServeMode::Pool;

    let mut idle: Vec<WireClient> = Vec::with_capacity(idle_conns);
    for _ in 0..idle_conns {
        let mut c =
            WireClient::connect_retry(&addr, Duration::from_secs(30)).expect("idle conn connects");
        if reactor {
            // On the pool a queued connection would block here forever;
            // open is all a parked client needs to hold its worker.
            c.ping().expect("idle conn is live");
        }
        idle.push(c);
    }

    let mut fg =
        WireClient::connect_retry(&addr, Duration::from_secs(30)).expect("foreground connects");
    let mix = zipf_mix(7, foreground);
    let mut latencies: Vec<u64> = Vec::with_capacity(foreground);
    let mut answered = 0u64;
    'probe: for q in &mix {
        let start = Instant::now();
        fg.send_query(QueryFrame::new(q.clone()))
            .expect("foreground send");
        loop {
            match fg.poll_result().expect("foreground poll") {
                Some(result) => {
                    result.expect("foreground query runs");
                    answered += 1;
                    latencies.push(start.elapsed().as_micros() as u64);
                    break;
                }
                None if start.elapsed() > patience => break 'probe,
                None => std::thread::sleep(Duration::from_micros(200)),
            }
        }
    }
    latencies.sort_unstable();

    if reactor {
        // Every idle connection is still alive after the foreground run.
        for c in idle.iter_mut() {
            c.ping().expect("idle conn survived the foreground run");
        }
    }
    drop(idle);
    drop(fg);

    let stats = mediator.stats();
    assert_eq!(stats.admitted + stats.shed, stats.queries);
    let net_stats = net.shutdown();
    assert!(
        idle_conns >= 4 * WORKERS,
        "experiment must exceed the 4x-workers acceptance bar"
    );
    IdleScale {
        mode: if reactor { "reactor" } else { "pool" },
        idle_conns,
        workers: WORKERS,
        accepted: net_stats.accepted,
        refused: net_stats.refused,
        foreground_queries: foreground as u64,
        foreground_answered: answered,
        foreground_p50_us: percentile(&latencies, 0.50),
        foreground_p99_us: percentile(&latencies, 0.99),
        starved: answered < foreground as u64,
    }
}

// --------------------------------------------------------- pipeline sweep

struct DepthRow {
    depth: usize,
    issued: u64,
    answered: u64,
    pipeline_sheds: u64,
    wall_s: f64,
    qps: f64,
    p99_us: u64,
}

/// One client, warm keys, `total` queries sent with a `depth`-deep
/// window. Depths beyond the server's `pipeline_depth` cap shed
/// `pipeline-full` — in FIFO order, not as hangups.
fn run_depth(addr: &str, depth: usize, total: usize) -> DepthRow {
    let mut client =
        WireClient::connect_retry(addr, Duration::from_secs(30)).expect("sweep client connects");
    let mix = zipf_mix(17, total);
    let mut latencies: Vec<u64> = Vec::with_capacity(total);
    let mut answered = 0u64;
    let mut pipeline_sheds = 0u64;
    let mut sent = 0usize;
    let mut starts: std::collections::VecDeque<Instant> = std::collections::VecDeque::new();

    let t0 = Instant::now();
    while answered + pipeline_sheds < total as u64 {
        while sent < total && starts.len() < depth {
            client
                .send_query(QueryFrame::new(mix[sent].clone()))
                .expect("sweep send");
            starts.push_back(Instant::now());
            sent += 1;
        }
        match client.recv_result() {
            Ok(_) => {
                answered += 1;
                let start = starts.pop_front().expect("response matches a send");
                latencies.push(start.elapsed().as_micros() as u64);
            }
            Err(HermesError::Shed { reason }) => {
                assert_eq!(reason, "pipeline-full", "only depth sheds expected");
                starts.pop_front();
                pipeline_sheds += 1;
            }
            Err(e) => panic!("sweep query failed: {e}"),
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    latencies.sort_unstable();
    DepthRow {
        depth,
        issued: total as u64,
        answered,
        pipeline_sheds,
        wall_s,
        qps: answered as f64 / wall_s,
        p99_us: percentile(&latencies, 0.99),
    }
}

fn run_pipeline_sweep(depths: &[usize], cap: usize, total: usize) -> Vec<DepthRow> {
    let mediator = Arc::new(build_server(44));
    let config = ServeConfig::builder()
        .mode(ServeMode::Reactor)
        .workers(WORKERS)
        .pipeline_depth(cap)
        .build();
    let net =
        NetServer::bind(Arc::clone(&mediator), "127.0.0.1:0", config).expect("sweep server binds");
    let addr = net.addr().to_string();
    warm(&addr);

    let rows: Vec<DepthRow> = depths.iter().map(|&d| run_depth(&addr, d, total)).collect();
    let stats = mediator.stats();
    assert_eq!(stats.admitted + stats.shed, stats.queries);
    net.shutdown();
    rows
}

struct Overflow {
    cap: usize,
    burst: usize,
    answered: u64,
    pipeline_sheds: u64,
}

/// Deterministic beyond-cap shedding: one worker, slow cold sources, a
/// burst wider than the per-connection pipeline cap. Every frame past
/// the cap arrives while the worker is still busy, so the reactor must
/// shed it with a typed `pipeline-full` error in its FIFO slot — the
/// connection survives and the gate invariant is untouched.
fn run_pipeline_overflow(cap: usize, burst: usize) -> Overflow {
    let mediator = Arc::new(build_world(45, Duration::from_millis(100)));
    let config = ServeConfig::builder()
        .mode(ServeMode::Reactor)
        .workers(1)
        .pipeline_depth(cap)
        .build();
    let net = NetServer::bind(Arc::clone(&mediator), "127.0.0.1:0", config)
        .expect("overflow server binds");
    let addr = net.addr().to_string();

    let mut client =
        WireClient::connect_retry(&addr, Duration::from_secs(30)).expect("overflow connects");
    // Distinct cold keys: every answered query really holds the worker
    // for the full source delay.
    for i in 0..burst {
        client
            .send_query(QueryFrame::new(format!("?- q0('r0_{}', B).", i % KEYS)))
            .expect("overflow send");
    }
    let mut answered = 0u64;
    let mut pipeline_sheds = 0u64;
    for _ in 0..burst {
        match client.recv_result() {
            Ok(_) => answered += 1,
            Err(HermesError::Shed { reason }) => {
                assert_eq!(reason, "pipeline-full", "only depth sheds expected");
                pipeline_sheds += 1;
            }
            Err(e) => panic!("overflow query failed: {e}"),
        }
    }
    // The connection is still usable after shedding.
    client.ping().expect("connection survives the overflow");

    let stats = mediator.stats();
    assert_eq!(stats.admitted + stats.shed, stats.queries);
    net.shutdown();
    assert!(pipeline_sheds > 0, "burst {burst} over cap {cap} must shed");
    assert_eq!(answered + pipeline_sheds, burst as u64);
    Overflow {
        cap,
        burst,
        answered,
        pipeline_sheds,
    }
}

// ----------------------------------------------------------------- main

fn write_json(
    passes: &[PassRow],
    idle_rows: &[IdleScale],
    sweep: &[DepthRow],
    overflow: &Overflow,
) -> std::io::Result<()> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr10.json");
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str("  \"bench\": \"wire_connscale\",\n");
    body.push_str(&format!("  \"workers\": {WORKERS},\n"));
    body.push_str("  \"conn_scale\": [\n");
    for (i, p) in passes.iter().enumerate() {
        let sheds: Vec<String> = p
            .sheds
            .iter()
            .map(|(class, n)| format!("\"{class}\": {n}"))
            .collect();
        body.push_str(&format!(
            "    {{\"mode\": \"{}\", \"conns\": {}, \"issued\": {}, \"answered\": {}, \
             \"shed\": {}, \"shed_classes\": {{{}}}, \"transport_errors\": {}, \
             \"served_conns\": {}, \"refused\": {}, \"evicted\": {}, \"wall_s\": {:.3}, \
             \"qps\": {:.1}, \"p50_us\": {}, \"p99_us\": {}}}{}\n",
            p.mode,
            p.conns,
            p.issued,
            p.answered,
            p.shed_total,
            sheds.join(", "),
            p.transport_errors,
            p.served_conns,
            p.refused,
            p.evicted,
            p.wall_s,
            p.qps,
            p.p50_us,
            p.p99_us,
            if i + 1 < passes.len() { "," } else { "" },
        ));
    }
    body.push_str("  ],\n");
    body.push_str("  \"idle_scale\": [\n");
    for (i, idle) in idle_rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"mode\": \"{}\", \"idle_conns\": {}, \"workers\": {}, \
             \"conns_per_worker\": {:.0}, \"accepted\": {}, \"refused\": {}, \
             \"foreground_queries\": {}, \"foreground_answered\": {}, \
             \"foreground_p50_us\": {}, \"foreground_p99_us\": {}, \"starved\": {}}}{}\n",
            idle.mode,
            idle.idle_conns,
            idle.workers,
            idle.idle_conns as f64 / idle.workers as f64,
            idle.accepted,
            idle.refused,
            idle.foreground_queries,
            idle.foreground_answered,
            idle.foreground_p50_us,
            idle.foreground_p99_us,
            idle.starved,
            if i + 1 < idle_rows.len() { "," } else { "" },
        ));
    }
    body.push_str("  ],\n");
    body.push_str("  \"pipeline_sweep\": [\n");
    for (i, r) in sweep.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"depth\": {}, \"issued\": {}, \"answered\": {}, \"pipeline_sheds\": {}, \
             \"wall_s\": {:.3}, \"qps\": {:.1}, \"p99_us\": {}}}{}\n",
            r.depth,
            r.issued,
            r.answered,
            r.pipeline_sheds,
            r.wall_s,
            r.qps,
            r.p99_us,
            if i + 1 < sweep.len() { "," } else { "" },
        ));
    }
    body.push_str("  ],\n");
    body.push_str(&format!(
        "  \"pipeline_overflow\": {{\"cap\": {}, \"burst\": {}, \"answered\": {}, \
         \"pipeline_sheds\": {}}}\n",
        overflow.cap, overflow.burst, overflow.answered, overflow.pipeline_sheds,
    ));
    body.push_str("}\n");
    std::fs::write(path, body)
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test-mode");
    let reactor_available = cfg!(target_os = "linux");
    if !reactor_available {
        // The comparison is reactor-vs-pool; without epoll there is
        // nothing to compare, and the fallback path is covered by the
        // serve unit tests.
        println!("wire_connscale: reactor unavailable on this platform; skipping");
        return;
    }

    let (conn_counts, per_conn, idle_conns, foreground, sweep_total): (
        Vec<usize>,
        usize,
        usize,
        usize,
        usize,
    ) = if test_mode {
        (vec![32], 4, 64, 64, 96)
    } else {
        (vec![100, 1000], 10, 1000, 512, 2048)
    };
    let cap = 32usize;
    let depths: Vec<usize> = if test_mode {
        vec![1, 4, 16]
    } else {
        vec![1, 2, 4, 8, 16, 32]
    };
    let (overflow_cap, overflow_burst) = if test_mode { (2, 8) } else { (4, 16) };

    println!("wire_connscale: conn scaling, {WORKERS} workers per server");
    println!(
        "  {:<8} {:>6} {:>8} {:>9} {:>7} {:>9} {:>7} {:>10} {:>10}",
        "mode", "conns", "answered", "shed", "refused", "served", "qps", "p50_us", "p99_us"
    );
    let mut passes = Vec::new();
    for &conns in &conn_counts {
        for mode in [ServeMode::Pool, ServeMode::Reactor] {
            let row = run_pass(mode, conns, per_conn);
            println!(
                "  {:<8} {:>6} {:>8} {:>9} {:>7} {:>9} {:>7.0} {:>10} {:>10}",
                row.mode,
                row.conns,
                row.answered,
                row.shed_total,
                row.refused,
                row.served_conns,
                row.qps,
                row.p50_us,
                row.p99_us,
            );
            passes.push(row);
        }
    }

    // Held-open connections: the reactor holds `idle_conns` (well past
    // the 4x-workers bar) and still answers the foreground instantly;
    // the pool parks a worker per open connection, so 4x workers of
    // idle clients starve the deadline-bounded foreground probe.
    let patience = Duration::from_millis(if test_mode { 500 } else { 2000 });
    let idle_rows = [
        run_idle_scale(ServeMode::Reactor, idle_conns, foreground, patience),
        run_idle_scale(ServeMode::Pool, 4 * WORKERS, 4, patience),
    ];
    for idle in &idle_rows {
        println!(
            "  idle-scale {:<8}: {} idle conns over {} workers ({}x), fg {}/{} answered, \
             p50 {} us p99 {} us{}",
            idle.mode,
            idle.idle_conns,
            idle.workers,
            idle.idle_conns / idle.workers,
            idle.foreground_answered,
            idle.foreground_queries,
            idle.foreground_p50_us,
            idle.foreground_p99_us,
            if idle.starved { " (starved)" } else { "" },
        );
    }

    println!("  pipeline sweep (server cap {cap}):");
    let sweep = run_pipeline_sweep(&depths, cap, sweep_total);
    for r in &sweep {
        println!(
            "    depth {:>3}: {:>7.0} qps, p99 {:>8} us, {} sheds",
            r.depth, r.qps, r.p99_us, r.pipeline_sheds
        );
    }

    let overflow = run_pipeline_overflow(overflow_cap, overflow_burst);
    println!(
        "  pipeline overflow: burst {} over cap {} -> {} answered, {} shed pipeline-full",
        overflow.burst, overflow.cap, overflow.answered, overflow.pipeline_sheds
    );

    // The headline claims, asserted every run (CI included).
    for row in &passes {
        if row.mode == "reactor" {
            assert_eq!(row.refused, 0, "reactor must accept every connection");
            assert_eq!(row.transport_errors, 0, "reactor must not drop clients");
            assert_eq!(
                row.served_conns, row.conns as u64,
                "reactor must serve every connection"
            );
            assert!(
                row.conns >= 4 * WORKERS,
                "experiment must exceed 4x workers"
            );
        }
    }
    let reactor_idle = &idle_rows[0];
    assert_eq!(reactor_idle.refused, 0);
    assert_eq!(
        reactor_idle.accepted,
        reactor_idle.idle_conns as u64 + 2,
        "idle + warm + fg"
    );
    assert_eq!(
        reactor_idle.foreground_answered, reactor_idle.foreground_queries,
        "reactor foreground must be fully served through idle noise"
    );
    assert!(
        idle_rows[1].starved,
        "pool must starve the foreground behind held-open connections"
    );
    for r in &sweep {
        assert_eq!(
            r.pipeline_sheds, 0,
            "in-cap depth {} must not shed",
            r.depth
        );
        assert_eq!(r.answered + r.pipeline_sheds, r.issued);
    }

    if test_mode {
        println!("wire_connscale: test-mode assertions passed");
    } else {
        write_json(&passes, &idle_rows, &sweep, &overflow).expect("write BENCH_pr10.json");
        println!("wire_connscale: wrote BENCH_pr10.json");
    }
}
