//! Overload stampede: tail latency and load shedding at 2–4× the client
//! load of the PR 5 throughput bench. Run with `cargo bench -p
//! hermes-bench --bench overload_stampede`; CI passes `-- --test-mode`
//! for a quick smoke run that asserts the admission accounting is exact
//! and that a bounded gate actually sheds under a thundering herd.
//!
//! The full run emits `BENCH_pr6.json` at the repo root.
//!
//! Two configurations serve the identical workload (Zipf mix plus
//! barrier-released stampede rounds, 3 ms of real latency per executed
//! source call):
//!
//! * **unbounded** — the PR 5 behavior: every query admitted at `Full`,
//!   overload queues behind the slow sources;
//! * **gated** — a bounded admission gate (capacity 8, 6 `Full` slots):
//!   excess queries are shed immediately with [`HermesError::Shed`], and
//!   queries arriving under high load start at a cheaper plan tier.
//!
//! Every query is accounted for exactly once:
//! `shed + downgraded + full == issued`, where `full` is the admitted
//! queries that served at the paper-exact tier end to end.

use hermes_common::{percentile, HermesError};
use hermes_core::{ConcurrentMediator, GateConfig, Mediator};
use hermes_domains::synthetic::{RelationSpec, SyntheticDomain};
use hermes_domains::SlowDomain;
use hermes_net::{profiles, Network};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Real wall-clock delay per executed source call.
const SOURCE_DELAY: Duration = Duration::from_millis(3);
/// Keys per relation; the Zipf mix draws from these.
const KEYS: usize = 64;
/// Identical queries per stampede round (divisible by every thread count).
const PER_ROUND: usize = 32;
/// Total concurrently admitted queries in the gated configuration.
const GATE_CAPACITY: usize = 8;
/// `Full`-tier slots in the gated configuration.
const GATE_FULL_SLOTS: usize = 6;

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

/// The same Zipf-skewed mix as the PR 5 bench, at a larger count.
fn zipf_mix(seed: u64, count: usize) -> Vec<String> {
    let mut rng = hermes_common::Rng64::new(seed ^ 0x7F4A_7C15);
    (0..count)
        .map(|_| {
            let f = rng.range_usize(0, 4);
            let key = rng.zipf(KEYS, 1.1) % KEYS;
            let rel = if f.is_multiple_of(2) { "r0" } else { "r1" };
            format!("?- q{f}('{rel}_{key}', B).")
        })
        .collect()
}

struct Run {
    config: &'static str,
    threads: usize,
    issued: usize,
    admitted: u64,
    shed: u64,
    downgraded: u64,
    full: u64,
    wall_s: f64,
    qps: f64,
    served_p50_ms: f64,
    served_p99_ms: f64,
    shed_p99_ms: f64,
}

/// Serves the workload from `threads` clients, recording per-query wall
/// latency; `gated` bounds the admission gate first.
fn run_workload(
    threads: usize,
    mix: &[String],
    stampede_rounds: usize,
    seed: u64,
    gated: bool,
) -> Run {
    let server = build_server(seed);
    if gated {
        server.set_gate(GateConfig {
            capacity: GATE_CAPACITY,
            cache_only_slots: usize::MAX,
            cached_cheap_slots: usize::MAX,
            full_slots: GATE_FULL_SLOTS,
        });
    }
    let barrier = Barrier::new(threads);
    let copies = PER_ROUND / threads;
    let t0 = Instant::now();
    let (mut served_ms, mut shed_ms) = (Vec::new(), Vec::new());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (server, barrier) = (&server, &barrier);
                let lo = t * mix.len() / threads;
                let hi = (t + 1) * mix.len() / threads;
                let slice = &mix[lo..hi];
                s.spawn(move || {
                    let mut served = Vec::new();
                    let mut shed = Vec::new();
                    let mut run_one = |q: &str| {
                        let q0 = Instant::now();
                        match server.query(q) {
                            Ok(_) => served.push(q0.elapsed().as_secs_f64() * 1e3),
                            Err(HermesError::Shed { .. }) => {
                                shed.push(q0.elapsed().as_secs_f64() * 1e3)
                            }
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    };
                    for round in 0..stampede_rounds {
                        barrier.wait();
                        for _ in 0..copies {
                            run_one(&format!("?- hot('h_{round}', B)."));
                        }
                    }
                    for q in slice {
                        run_one(q);
                    }
                    (served, shed)
                })
            })
            .collect();
        for h in handles {
            let (served, shed) = h.join().expect("no panics");
            served_ms.extend(served);
            shed_ms.extend(shed);
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = server.stats();
    let issued = mix.len() + stampede_rounds * PER_ROUND;

    // The accounting identity: every issued query is exactly one of shed,
    // downgraded, or served at the paper-exact Full tier.
    assert_eq!(stats.queries as usize, issued);
    assert_eq!(stats.admitted + stats.shed, stats.queries);
    assert_eq!(stats.admitted as usize, served_ms.len());
    assert_eq!(stats.shed as usize, shed_ms.len());
    let full = stats.admitted - stats.downgraded;
    assert_eq!(stats.shed + stats.downgraded + full, stats.queries);

    served_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    shed_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Run {
        config: if gated { "gated" } else { "unbounded" },
        threads,
        issued,
        admitted: stats.admitted,
        shed: stats.shed,
        downgraded: stats.downgraded,
        full,
        wall_s,
        qps: issued as f64 / wall_s,
        served_p50_ms: percentile(&served_ms, 0.50),
        served_p99_ms: percentile(&served_ms, 0.99),
        shed_p99_ms: percentile(&shed_ms, 0.99),
    }
}

fn write_json(rows: &[Run]) -> std::io::Result<()> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr6.json");
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str("  \"bench\": \"overload_stampede\",\n");
    body.push_str(
        "  \"description\": \"bounded admission gate vs unbounded serving under a \
         thundering herd (Zipf mix + stampede, 3 ms real source latency); \
         shed + downgraded + full == issued for every row\",\n",
    );
    body.push_str(&format!(
        "  \"gate\": {{\"capacity\": {GATE_CAPACITY}, \"full_slots\": {GATE_FULL_SLOTS}}},\n"
    ));
    body.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"config\": \"{}\", \"threads\": {}, \"issued\": {}, \"admitted\": {}, \
             \"shed\": {}, \"downgraded\": {}, \"full\": {}, \"wall_s\": {:.3}, \
             \"qps\": {:.1}, \"served_p50_ms\": {:.3}, \"served_p99_ms\": {:.3}, \
             \"shed_p99_ms\": {:.3}}}{}\n",
            r.config,
            r.threads,
            r.issued,
            r.admitted,
            r.shed,
            r.downgraded,
            r.full,
            r.wall_s,
            r.qps,
            r.served_p50_ms,
            r.served_p99_ms,
            r.shed_p99_ms,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    body.push_str("  ]\n");
    body.push_str("}\n");
    std::fs::write(path, body)?;
    println!("wrote {path}");
    Ok(())
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test-mode");
    // 2–4x the PR 5 full-run load (8 client threads there).
    let (thread_counts, mix_len, stampede_rounds): (&[usize], usize, usize) = if test_mode {
        (&[16], 160, 2)
    } else {
        (&[16, 32], 1200, 8)
    };
    let mix = zipf_mix(42, mix_len);

    println!("overload_stampede: bounded admission gate under a thundering herd\n");
    println!(
        "{:>10}  {:>7}  {:>7}  {:>8}  {:>5}  {:>10}  {:>5}  {:>9}  {:>9}  {:>9}",
        "config",
        "threads",
        "issued",
        "admitted",
        "shed",
        "downgraded",
        "full",
        "p50 (ms)",
        "p99 (ms)",
        "wall (s)"
    );
    let mut rows = Vec::new();
    for &threads in thread_counts {
        for gated in [false, true] {
            let r = run_workload(threads, &mix, stampede_rounds, 42, gated);
            println!(
                "{:>10}  {:>7}  {:>7}  {:>8}  {:>5}  {:>10}  {:>5}  {:>9.3}  {:>9.3}  {:>9.3}",
                r.config,
                r.threads,
                r.issued,
                r.admitted,
                r.shed,
                r.downgraded,
                r.full,
                r.served_p50_ms,
                r.served_p99_ms,
                r.wall_s
            );
            rows.push(r);
        }
    }

    if test_mode {
        let gated = rows
            .iter()
            .find(|r| r.config == "gated")
            .expect("gated row");
        let unbounded = rows
            .iter()
            .find(|r| r.config == "unbounded")
            .expect("unbounded row");
        assert_eq!(
            unbounded.shed, 0,
            "an unbounded gate must never shed anything"
        );
        assert!(
            gated.shed > 0,
            "16 threads against a capacity-{GATE_CAPACITY} gate never shed a query"
        );
        assert!(
            gated.shed + gated.downgraded + gated.full == gated.issued as u64,
            "accounting leak: {} + {} + {} != {}",
            gated.shed,
            gated.downgraded,
            gated.full,
            gated.issued
        );
        println!("\noverload_stampede: OK (test mode)");
    } else if let Err(e) = write_json(&rows) {
        eprintln!("failed to write BENCH_pr6.json: {e}");
        std::process::exit(1);
    }
}
