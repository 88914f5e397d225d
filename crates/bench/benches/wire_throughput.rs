//! Network serving throughput: sustained loopback qps of a [`NetServer`]
//! with wall-clock latency percentiles, plus the framing micro-benchmark
//! (binary frame codec vs the text wire codec). Run with
//! `cargo bench -p hermes-bench --bench wire_throughput`; CI passes
//! `-- --test-mode` for a quick smoke run with assertions.
//!
//! The full run emits `BENCH_pr9.json` at the repo root — the serving
//! point in the performance trajectory (see README "Performance").
//!
//! Three experiments:
//!
//! * **codec** — round-trip a corpus of answer-shaped values through the
//!   binary (`value_to_bytes`/`value_from_bytes`) and text
//!   (`encode_value`/`value_from_str`) codecs and compare ns/round-trip
//!   and encoded size. The binary framing exists because the profile
//!   showed text parsing dominating warm cache hits; this keeps the
//!   receipt honest.
//! * **serving** — a real `NetServer` on a loopback socket over the same
//!   Zipf world as `hermes-serve`, sources behind [`SlowDomain`] (3 ms
//!   real latency per executed call). Client threads drive the mix cold
//!   (cache misses pay real source time) and then warm (CIM hits pay
//!   only wire + parse time), reporting qps and p50/p95/p99 wall-clock
//!   latency per phase.
//! * **overload** — a deliberately small server (2 workers, 2 pending
//!   conns, gate bounded at 2 concurrent queries) driven by 2× more
//!   connections than pool + queue can hold, on cold keys so every
//!   admitted query really occupies a worker. Reports how much load was
//!   shed at the gate vs refused at the socket — backpressure must show
//!   up as *counted* sheds, not as transport errors or hangs.

use hermes_common::frame::{value_from_bytes, value_to_bytes};
use hermes_common::wire::{encode_value, value_from_str};
use hermes_common::{percentile, QueryFrame, Record, Rng64, Value};
use hermes_core::{
    ConcurrentMediator, GateConfig, Mediator, NetServer, ServeConfig, ServeMode, WireClient,
};
use hermes_domains::synthetic::{RelationSpec, SyntheticDomain};
use hermes_domains::SlowDomain;
use hermes_net::{profiles, Network};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Real wall-clock delay per executed source call.
const SOURCE_DELAY: Duration = Duration::from_millis(3);
/// Keys per relation — matches the `hermes-serve` synthetic world.
const KEYS: usize = 64;

// ---------------------------------------------------------------- world

/// The serving world: two SlowDomain-wrapped synthetic sites, the same
/// shape `hermes-serve` builds, so bench numbers transfer.
fn build_server(seed: u64) -> ConcurrentMediator {
    let d0 = SyntheticDomain::generate(
        "d0",
        seed,
        &[
            RelationSpec::uniform("r0", KEYS, 2.0),
            RelationSpec::uniform("r1", KEYS, 2.0),
            RelationSpec::uniform("h", KEYS, 2.0),
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
        Arc::new(SlowDomain::new(Arc::new(d0), SOURCE_DELAY)),
        profiles::maryland(),
    );
    net.place(
        Arc::new(SlowDomain::new(Arc::new(d1), SOURCE_DELAY)),
        profiles::cornell(),
    );
    let m = Mediator::from_source(
        "
        q0(A, B) :- in(B, d0:r0_bf(A)).
        q1(A, B) :- in(B, d0:r1_bf(A)).
        q2(A, B) :- in(B, d1:r0_bf(A)).
        q3(A, B) :- in(B, d1:r1_bf(A)).
        hot(A, B) :- in(B, d0:h_bf(A)).
        ",
        net,
    )
    .expect("bench program parses");
    m.to_concurrent(8)
}

/// The Zipf-skewed mix over the serving world's query forms — identical
/// in shape to `hermes-load` and the `mediator_throughput` bench.
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

// ---------------------------------------------------------------- codec

/// Answer-shaped values: records with string/int/float fields, the
/// payload every batch frame actually carries.
fn sample_values(n: usize) -> Vec<Value> {
    let mut rng = Rng64::new(0x00DE_CC0D);
    (0..n)
        .map(|i| {
            Value::Record(Record::from_fields(vec![
                ("a", Value::Str(format!("r{}_{}", i % 4, i % KEYS).into())),
                ("b", Value::Int(rng.range_i64(-1_000_000, 1_000_000))),
                ("c", Value::Float(rng.range_f64(0.0, 1.0))),
                (
                    "tags",
                    Value::List(vec![
                        Value::Str("hot".into()),
                        Value::Bool(rng.chance(0.5)),
                        Value::Null,
                    ]),
                ),
            ]))
        })
        .collect()
}

struct CodecRow {
    values: usize,
    iters: usize,
    binary_ns_per_roundtrip: f64,
    text_ns_per_roundtrip: f64,
    binary_bytes_per_value: f64,
    text_bytes_per_value: f64,
    speedup: f64,
}

fn bench_codec(values: usize, iters: usize) -> CodecRow {
    let corpus = sample_values(values);

    // Encoded sizes, once.
    let bin_bytes: usize = corpus.iter().map(|v| value_to_bytes(v).len()).sum();
    let text_bytes: usize = corpus
        .iter()
        .map(|v| {
            let mut s = String::new();
            encode_value(v, &mut s);
            s.len()
        })
        .sum();

    // Binary round trips.
    let t0 = Instant::now();
    for _ in 0..iters {
        for v in &corpus {
            let bytes = value_to_bytes(v);
            let back = value_from_bytes(&bytes).expect("binary codec round-trips");
            assert_eq!(&back, v);
        }
    }
    let bin_ns = t0.elapsed().as_nanos() as f64 / (iters * values) as f64;

    // Text round trips.
    let t0 = Instant::now();
    for _ in 0..iters {
        for v in &corpus {
            let mut s = String::new();
            encode_value(v, &mut s);
            let back = value_from_str(&s).expect("text codec round-trips");
            assert_eq!(&back, v);
        }
    }
    let text_ns = t0.elapsed().as_nanos() as f64 / (iters * values) as f64;

    CodecRow {
        values,
        iters,
        binary_ns_per_roundtrip: bin_ns,
        text_ns_per_roundtrip: text_ns,
        binary_bytes_per_value: bin_bytes as f64 / values as f64,
        text_bytes_per_value: text_bytes as f64 / values as f64,
        speedup: text_ns / bin_ns,
    }
}

// -------------------------------------------------------------- serving

struct Phase {
    name: &'static str,
    conns: usize,
    queries: u64,
    wall_s: f64,
    qps: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    max_us: u64,
    source_calls: u64,
}

/// Drives `mix` split across `conns` client threads against `addr` and
/// reports throughput + latency percentiles for the pass. The caller
/// fills in `source_calls` from the server's own counters afterwards.
fn run_phase(addr: &str, conns: usize, mix: &[String], name: &'static str) -> Phase {
    let t0 = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let lo = c * mix.len() / conns;
                let hi = (c + 1) * mix.len() / conns;
                let slice = &mix[lo..hi];
                s.spawn(move || {
                    let mut client = WireClient::connect_retry(addr, Duration::from_secs(5))
                        .expect("bench client connects");
                    let mut lat = Vec::with_capacity(slice.len());
                    for q in slice {
                        let start = Instant::now();
                        client
                            .query(QueryFrame::new(q.clone()))
                            .expect("bench query runs");
                        lat.push(start.elapsed().as_micros() as u64);
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    latencies.sort_unstable();
    Phase {
        name,
        conns,
        queries: mix.len() as u64,
        wall_s,
        qps: mix.len() as f64 / wall_s,
        p50_us: percentile(&latencies, 0.50),
        p95_us: percentile(&latencies, 0.95),
        p99_us: percentile(&latencies, 0.99),
        max_us: latencies.last().copied().unwrap_or(0),
        source_calls: 0,
    }
}

// ------------------------------------------------------------- overload

struct Overload {
    conns: usize,
    workers: usize,
    issued: u64,
    answered: u64,
    shed: u64,
    socket_refused: u64,
    transport_errors: u64,
}

/// 2× overload: a small pool + queue + gate, driven by twice as many
/// connections as they can hold, on cold keys (every admitted query
/// occupies a worker for real source time).
fn run_overload(duration: Duration) -> Overload {
    let workers = 2usize;
    let mediator = Arc::new(build_server(77));
    mediator.set_gate(GateConfig::bounded(2));
    // Pinned to the pool engine: this scenario measures the pool's
    // accept-queue backpressure specifically (the reactor has no
    // per-worker connection ceiling to overload this way).
    let config = ServeConfig::builder()
        .mode(ServeMode::Pool)
        .workers(workers)
        .pending_conns(2)
        .build();
    let net = NetServer::bind(Arc::clone(&mediator), "127.0.0.1:0", config)
        .expect("overload server binds");
    let addr = net.addr().to_string();
    // 2× of (workers + pending queue + gate capacity).
    let conns = 2 * (workers + 2 + 2);

    let tallies: Vec<(u64, u64, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let addr = addr.clone();
                s.spawn(move || {
                    let mut rng = Rng64::new(0xBEEF ^ c as u64);
                    let mut client = match WireClient::connect_retry(&addr, Duration::from_secs(5))
                    {
                        Ok(c) => c,
                        Err(_) => return (0, 0, 0, 1),
                    };
                    let (mut issued, mut answered, mut shed, mut transport) = (0, 0, 0, 0);
                    let deadline = Instant::now() + duration;
                    while Instant::now() < deadline {
                        // A cold key most of the time: occupy the worker.
                        let key = rng.range_usize(0, KEYS);
                        let q = format!("?- q{}('r0_{key}', B).", rng.range_usize(0, 2) * 2);
                        issued += 1;
                        match client.query(QueryFrame::new(q)) {
                            Ok(_) => answered += 1,
                            Err(hermes_common::HermesError::Shed { .. }) => {
                                shed += 1;
                                // An accept-queue shed closes the socket;
                                // reconnect either way and keep pushing.
                                match WireClient::connect_retry(&addr, Duration::from_secs(5)) {
                                    Ok(c) => client = c,
                                    Err(_) => {
                                        transport += 1;
                                        break;
                                    }
                                }
                            }
                            Err(_) => {
                                transport += 1;
                                match WireClient::connect_retry(&addr, Duration::from_secs(5)) {
                                    Ok(c) => client = c,
                                    Err(_) => break,
                                }
                            }
                        }
                    }
                    (issued, answered, shed, transport)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let server_shed = mediator.stats().shed;
    let net_stats = net.shutdown();
    let mut o = Overload {
        conns,
        workers,
        issued: 0,
        answered: 0,
        shed: 0,
        socket_refused: net_stats.refused,
        transport_errors: 0,
    };
    for (i, a, s, t) in tallies {
        o.issued += i;
        o.answered += a;
        o.shed += s;
        o.transport_errors += t;
    }
    // The client saw every gate shed the server counted (socket refusals
    // are counted separately, before a query ever exists).
    assert!(
        o.shed >= server_shed,
        "client sheds {} < gate sheds {server_shed}",
        o.shed
    );
    o
}

// ----------------------------------------------------------------- main

fn write_json(codec: &CodecRow, phases: &[Phase], over: &Overload) -> std::io::Result<()> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr9.json");
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str("  \"bench\": \"wire_throughput\",\n");
    body.push_str(
        "  \"description\": \"NetServer loopback qps with wall-clock latency percentiles \
         (cold vs warm cache, 3 ms real source latency), binary-vs-text codec \
         micro-bench, and shed accounting under 2x overload\",\n",
    );
    body.push_str(&format!(
        "  \"codec\": {{\"values\": {}, \"iters\": {}, \"binary_ns_per_roundtrip\": {:.1}, \
         \"text_ns_per_roundtrip\": {:.1}, \"binary_bytes_per_value\": {:.1}, \
         \"text_bytes_per_value\": {:.1}, \"binary_speedup\": {:.2}}},\n",
        codec.values,
        codec.iters,
        codec.binary_ns_per_roundtrip,
        codec.text_ns_per_roundtrip,
        codec.binary_bytes_per_value,
        codec.text_bytes_per_value,
        codec.speedup,
    ));
    body.push_str("  \"serving\": [\n");
    for (i, p) in phases.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"phase\": \"{}\", \"conns\": {}, \"queries\": {}, \"wall_s\": {:.3}, \
             \"qps\": {:.1}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \"max_us\": {}, \
             \"source_calls\": {}}}{}\n",
            p.name,
            p.conns,
            p.queries,
            p.wall_s,
            p.qps,
            p.p50_us,
            p.p95_us,
            p.p99_us,
            p.max_us,
            p.source_calls,
            if i + 1 < phases.len() { "," } else { "" },
        ));
    }
    body.push_str("  ],\n");
    body.push_str(&format!(
        "  \"overload\": {{\"conns\": {}, \"workers\": {}, \"issued\": {}, \"answered\": {}, \
         \"shed\": {}, \"socket_refused\": {}, \"transport_errors\": {}}}\n",
        over.conns,
        over.workers,
        over.issued,
        over.answered,
        over.shed,
        over.socket_refused,
        over.transport_errors,
    ));
    body.push_str("}\n");
    std::fs::write(path, body)?;
    println!("wrote {path}");
    Ok(())
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test-mode");
    let (codec_values, codec_iters, conns, mix_len, warm_len, overload_ms) = if test_mode {
        (64, 20, 4, 200, 400, 250)
    } else {
        (512, 200, 8, 3000, 20000, 1500)
    };

    println!("wire_throughput: binary framing + loopback serving\n");

    // Codec micro-bench.
    let codec = bench_codec(codec_values, codec_iters);
    println!(
        "codec: binary {:.0} ns/rt ({:.0} B), text {:.0} ns/rt ({:.0} B) -> {:.2}x",
        codec.binary_ns_per_roundtrip,
        codec.binary_bytes_per_value,
        codec.text_ns_per_roundtrip,
        codec.text_bytes_per_value,
        codec.speedup,
    );

    // Serving: one server, cold pass then warm pass over the same keys.
    let mediator = Arc::new(build_server(42));
    let net = NetServer::bind(Arc::clone(&mediator), "127.0.0.1:0", ServeConfig::default())
        .expect("bench server binds");
    let addr = net.addr().to_string();

    let cold_mix = zipf_mix(42, mix_len);
    let mut cold = run_phase(&addr, conns, &cold_mix, "cold");
    cold.source_calls = mediator.stats().source_calls;
    // Unmeasured sweep of every (form, key) combo: the Zipf tail may
    // never come up cold, and the warm pass must be all cache hits.
    let sweep: Vec<String> = (0..4usize)
        .flat_map(|f| {
            (0..KEYS).map(move |k| {
                let rel = if f.is_multiple_of(2) { "r0" } else { "r1" };
                format!("?- q{f}('{rel}_{k}', B).")
            })
        })
        .collect();
    run_phase(&addr, conns, &sweep, "sweep");
    let after_sweep = mediator.stats().source_calls;
    let warm_mix = zipf_mix(42, warm_len);
    let mut warm = run_phase(&addr, conns, &warm_mix, "warm");
    warm.source_calls = mediator.stats().source_calls - after_sweep;
    net.shutdown();
    let phases = [cold, warm];
    println!(
        "\n{:>6}  {:>6}  {:>8}  {:>9}  {:>8}  {:>8}  {:>8}  {:>9}",
        "phase", "conns", "queries", "qps", "p50 us", "p95 us", "p99 us", "src calls"
    );
    for p in &phases {
        println!(
            "{:>6}  {:>6}  {:>8}  {:>9.0}  {:>8}  {:>8}  {:>8}  {:>9}",
            p.name, p.conns, p.queries, p.qps, p.p50_us, p.p95_us, p.p99_us, p.source_calls
        );
    }

    // Overload.
    let over = run_overload(Duration::from_millis(overload_ms));
    println!(
        "\noverload: {} conns vs {} workers: issued {}  answered {}  shed {}  \
         socket-refused {}  transport-errors {}",
        over.conns,
        over.workers,
        over.issued,
        over.answered,
        over.shed,
        over.socket_refused,
        over.transport_errors,
    );

    let (cold, warm) = (&phases[0], &phases[1]);
    // Invariants that hold in any mode; test mode turns them into the
    // CI contract, the full run still refuses to write nonsense.
    assert!(
        codec.binary_speedup_ok(),
        "binary codec slower than text: {:.2}x",
        codec.speedup
    );
    assert!(
        warm.source_calls == 0,
        "warm pass paid {} source calls",
        warm.source_calls
    );
    assert!(cold.source_calls > 0, "cold pass never reached a source");
    assert!(
        warm.qps > cold.qps,
        "warm serving no faster than cold: {:.0} <= {:.0}",
        warm.qps,
        cold.qps
    );
    assert!(
        over.shed + over.socket_refused > 0,
        "2x overload shed nothing — backpressure never engaged"
    );
    assert_eq!(
        over.answered + over.shed + over.transport_errors,
        over.issued,
        "overload queries unaccounted for"
    );

    if test_mode {
        println!("\nwire_throughput: OK (test mode)");
    } else if let Err(e) = write_json(&codec, &phases, &over) {
        eprintln!("failed to write BENCH_pr9.json: {e}");
        std::process::exit(1);
    }
}

impl CodecRow {
    /// The whole point of the binary framing: it must not lose to text.
    fn binary_speedup_ok(&self) -> bool {
        self.speedup >= 1.0
    }
}
