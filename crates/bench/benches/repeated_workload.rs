//! Repeated workload: the PR 8 subplan materialization cache under a
//! multi-client replay of the same query set. Run with `cargo bench -p
//! hermes-bench --bench repeated_workload`; CI passes `-- --test-mode`
//! for a quick smoke run that asserts sharing saves source calls and
//! virtual time and that HA071-volatile subplans never hit the cache.
//!
//! The full run emits `BENCH_pr8.json` at the repo root.
//!
//! Three configurations replay K distinct queries for R rounds from four
//! client threads, under a deliberately tiny answer-cache budget so the
//! CIM's ground-call entries thrash between rounds:
//!
//! * **sharing_off** — the paper-exact pipeline: every round re-joins, and
//!   once the answer cache starts evicting, re-pays source calls too;
//! * **sharing_on** — `share_subplans(true)`: after round 0 the whole-plan
//!   snapshots serve repeats at zero virtual-time cost, independent of
//!   the thrashing answer cache;
//! * **volatile** — sharing on, but the workload only reads a source
//!   routed `Direct` (around the CIM), so every subplan is HA071-volatile:
//!   the matcache must refuse it a ticket and record zero hits.

use hermes_cim::{CimPolicy, RoutingDecision};
use hermes_common::percentile;
use hermes_core::{ConcurrentMediator, MatCacheStats, Mediator};
use hermes_domains::synthetic::{RelationSpec, SyntheticDomain};
use hermes_net::{profiles, Network};
use std::sync::{Arc, Barrier};

/// Client threads replaying the workload.
const THREADS: usize = 4;
/// Answer-cache byte budget: below a single entry's wire size, so each
/// CIM shard retains only its most recent ground call and the replayed
/// mix keeps evicting itself — the sharing-off configuration re-pays
/// source calls every round.
const ANSWER_BUDGET: usize = 16;

fn build_server(seed: u64, k: usize, share: bool) -> ConcurrentMediator {
    let specs: Vec<RelationSpec> = (0..k)
        .map(|i| RelationSpec::uniform(format!("r{i}"), 16, 4.0))
        .collect();
    let db = SyntheticDomain::generate("db", seed, &specs);
    let live = SyntheticDomain::generate("live", seed + 1, &[RelationSpec::uniform("v", 16, 4.0)]);
    let mut net = Network::new(seed);
    net.place(Arc::new(db), profiles::maryland());
    net.place(Arc::new(live), profiles::cornell());

    let mut src = String::new();
    for i in 0..k {
        src.push_str(&format!("q{i}(A, B) :- in(B, db:r{i}_bf(A)).\n"));
    }
    src.push_str("vq(A, B) :- in(B, live:v_bf(A)).\n");
    let mut m = Mediator::from_source(&src, net).expect("bench program parses");

    // `live` bypasses the CIM, which makes every subplan reading it
    // HA071-volatile; `db` is cached and safe.
    let mut policy = CimPolicy::cache_everything();
    policy.set_domain("live", RoutingDecision::Direct);
    let mut p = m
        .caches()
        .policy()
        .routing(policy)
        .answer_budget(Some(ANSWER_BUDGET));
    if share {
        p = p.share_subplans(true);
    }
    p.apply().expect("serial policy applies");
    m.to_concurrent(THREADS)
}

struct Round {
    round: usize,
    source_calls: u64,
    p50_ms: f64,
    p99_ms: f64,
}

struct Run {
    config: &'static str,
    rounds: Vec<Round>,
    source_calls_total: u64,
    mat: MatCacheStats,
}

/// Replays `queries` for `rounds` rounds from [`THREADS`] clients, each
/// walking the list from a different offset. Per round: the source-call
/// delta and the p50/p99 of per-query *virtual* time (the simulated
/// network clock — the quantity Figure 5 measures).
fn run_workload(
    config: &'static str,
    seed: u64,
    queries: &[String],
    rounds: usize,
    share: bool,
) -> Run {
    let server = build_server(seed, queries.len(), share);
    let barrier = Barrier::new(THREADS);
    let mut out = Vec::new();
    let mut calls_before = server.network().source_calls();
    for round in 0..rounds {
        let mut virt_ms: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (server, barrier) = (&server, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        (0..queries.len())
                            .map(|i| {
                                let q = &queries[(t + i) % queries.len()];
                                let r = server.query(q.as_str()).expect("query runs");
                                r.t_all.as_millis_f64()
                            })
                            .collect::<Vec<f64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("no panics"))
                .collect()
        });
        virt_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let calls_now = server.network().source_calls();
        out.push(Round {
            round,
            source_calls: calls_now - calls_before,
            p50_ms: percentile(&virt_ms, 0.50),
            p99_ms: percentile(&virt_ms, 0.99),
        });
        calls_before = calls_now;
    }
    let mat = server.caches().stats().subplans;
    Run {
        config,
        source_calls_total: calls_before,
        rounds: out,
        mat,
    }
}

fn write_json(runs: &[Run]) -> std::io::Result<()> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr8.json");
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str("  \"bench\": \"repeated_workload\",\n");
    body.push_str(
        "  \"description\": \"subplan materialization cache vs the paper-exact pipeline \
         replaying K distinct queries for R rounds from 4 client threads under a thrashing \
         answer-cache budget; latencies are simulated-network virtual time; the volatile \
         config reads only a CIM-bypassing source and must record zero cache hits\",\n",
    );
    body.push_str(&format!("  \"answer_budget_bytes\": {ANSWER_BUDGET},\n"));
    body.push_str("  \"rows\": [\n");
    let total_rows: usize = runs.iter().map(|r| r.rounds.len()).sum();
    let mut n = 0;
    for run in runs {
        for r in &run.rounds {
            n += 1;
            body.push_str(&format!(
                "    {{\"config\": \"{}\", \"round\": {}, \"source_calls\": {}, \
                 \"p50_virtual_ms\": {:.3}, \"p99_virtual_ms\": {:.3}}}{}\n",
                run.config,
                r.round,
                r.source_calls,
                r.p50_ms,
                r.p99_ms,
                if n < total_rows { "," } else { "" },
            ));
        }
    }
    body.push_str("  ],\n");
    body.push_str("  \"summary\": [\n");
    for (i, run) in runs.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"config\": \"{}\", \"source_calls_total\": {}, \"subplan_hits\": {}, \
             \"subplans_coalesced\": {}, \"subplans_materialized\": {}, \
             \"volatile_skips\": {}}}{}\n",
            run.config,
            run.source_calls_total,
            run.mat.hits,
            run.mat.coalesced,
            run.mat.materialized,
            run.mat.volatile_skips,
            if i + 1 < runs.len() { "," } else { "" },
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
    let (k, rounds) = if test_mode { (6, 3) } else { (12, 6) };

    // K distinct safe queries over the cached `db` source, fixed keys so
    // every round replays the identical plan set.
    let safe: Vec<String> = (0..k).map(|i| format!("?- q{i}('r{i}_3', B).")).collect();
    // The volatile workload: K repeats of queries over the `Direct` source.
    let volatile: Vec<String> = (0..k)
        .map(|i| format!("?- vq('v_{}', B).", i % 4))
        .collect();

    println!("repeated_workload: subplan materialization cache under replay\n");
    println!(
        "{:>12}  {:>5}  {:>12}  {:>16}  {:>16}",
        "config", "round", "source_calls", "p50 virtual (ms)", "p99 virtual (ms)"
    );
    let runs = vec![
        run_workload("sharing_off", 42, &safe, rounds, false),
        run_workload("sharing_on", 42, &safe, rounds, true),
        run_workload("volatile", 42, &volatile, rounds, true),
    ];
    for run in &runs {
        for r in &run.rounds {
            println!(
                "{:>12}  {:>5}  {:>12}  {:>16.3}  {:>16.3}",
                run.config, r.round, r.source_calls, r.p50_ms, r.p99_ms
            );
        }
        println!(
            "{:>12}  total source calls {}, mat: {} hits, {} coalesced, {} materialized, {} volatile skips\n",
            run.config,
            run.source_calls_total,
            run.mat.hits,
            run.mat.coalesced,
            run.mat.materialized,
            run.mat.volatile_skips
        );
    }

    let by = |name: &str| runs.iter().find(|r| r.config == name).expect("config row");
    let (off, on, vol) = (by("sharing_off"), by("sharing_on"), by("volatile"));

    // Sharing must save source calls outright under the thrashing budget…
    assert!(
        on.source_calls_total < off.source_calls_total,
        "sharing saved no source calls: {} vs {}",
        on.source_calls_total,
        off.source_calls_total
    );
    // …and serve warm rounds faster than the re-joining pipeline.
    let warm = |run: &Run| {
        let mut ms: Vec<f64> = run.rounds[1..].iter().map(|r| r.p50_ms).collect();
        ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
        percentile(&ms, 0.50)
    };
    assert!(
        warm(on) <= warm(off),
        "sharing slowed warm rounds: p50 {} vs {}",
        warm(on),
        warm(off)
    );
    assert!(on.mat.hits > 0, "sharing_on never hit the subplan cache");
    // HA071: the volatile workload must never be served from a snapshot.
    assert_eq!(vol.mat.hits, 0, "volatile subplan served from the cache");
    assert_eq!(vol.mat.materialized, 0, "volatile subplan was stored");
    assert!(
        vol.mat.volatile_skips > 0,
        "volatile plans were never refused a ticket"
    );

    if test_mode {
        println!("repeated_workload: OK (test mode)");
    } else if let Err(e) = write_json(&runs) {
        eprintln!("failed to write BENCH_pr8.json: {e}");
        std::process::exit(1);
    }
}
