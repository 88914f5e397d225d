//! Micro-benchmarks of the optimizer machinery itself — the *real*
//! (wall-clock) costs, including the §8 claim that "the overhead of
//! checking the cache and the invariants without success … is negligible".
//! Run with `cargo bench -p hermes-bench --bench micro`; CI passes
//! `-- --test-mode`, which runs every row once, untimed, and asserts that
//! all of them ran.
//!
//! Dependency-free harness: each case is warmed up, then timed over enough
//! iterations to fill a fixed measurement window; we report the mean and
//! the spread across batches.

use hermes_cim::{Cim, CimPolicy};
use hermes_common::{CallPattern, GroundCall, PatArg, PatternShape, SimInstant, Value};
use hermes_core::{
    choose_plan, enumerate_plans, estimate_plan, CheckedProgram, CostConfig, RewriteConfig,
};
use hermes_dcsm::Dcsm;
use hermes_lang::{parse_invariant, parse_program, parse_query};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const WARMUP: Duration = Duration::from_millis(200);
const MEASURE: Duration = Duration::from_millis(800);
const BATCHES: usize = 10;
/// Rows a full run prints; `--test-mode` asserts it ran this many.
const ROWS: usize = 22;

/// `--test-mode`: run each row once instead of timing it.
static TEST_MODE: AtomicBool = AtomicBool::new(false);
static ROWS_RUN: AtomicUsize = AtomicUsize::new(0);

/// Times `f` (which must consume a fresh input from `setup` per iteration)
/// and prints a `name: mean ± spread` line.
fn bench<I, O>(name: &str, mut setup: impl FnMut() -> I, mut f: impl FnMut(I) -> O) {
    ROWS_RUN.fetch_add(1, Ordering::Relaxed);
    if TEST_MODE.load(Ordering::Relaxed) {
        std::hint::black_box(f(std::hint::black_box(setup())));
        println!("  {name:<44} ran");
        return;
    }
    // Warm-up: discover a per-iteration cost and heat caches.
    let warm_start = Instant::now();
    let mut iters: u64 = 0;
    while warm_start.elapsed() < WARMUP {
        let input = setup();
        std::hint::black_box(f(std::hint::black_box(input)));
        iters += 1;
    }
    let per_batch =
        (iters.max(1) * MEASURE.as_micros() as u64 / WARMUP.as_micros() as u64 / BATCHES as u64)
            .max(1);

    let mut means = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        // Build inputs outside the timed region (criterion's iter_batched).
        let inputs: Vec<I> = (0..per_batch).map(|_| setup()).collect();
        let start = Instant::now();
        for input in inputs {
            std::hint::black_box(f(std::hint::black_box(input)));
        }
        means.push(start.elapsed().as_secs_f64() / per_batch as f64);
    }
    means.sort_by(|a, b| a.total_cmp(b));
    let mid = means[BATCHES / 2];
    let spread = means[BATCHES - 1] - means[0];
    let scale = |s: f64| {
        if s >= 1e-3 {
            format!("{:8.3} ms", s * 1e3)
        } else if s >= 1e-6 {
            format!("{:8.3} us", s * 1e6)
        } else {
            format!("{:8.1} ns", s * 1e9)
        }
    };
    println!(
        "  {name:<44} {}  (spread {}, {} iters/batch)",
        scale(mid),
        scale(spread),
        per_batch
    );
}

fn populated_cim(entries: usize, invariants: bool) -> Cim {
    let mut cim = Cim::new();
    if invariants {
        cim.add_invariant(
            parse_invariant(
                "F2 <= F1 & L1 <= L2 =>
                 video:frames_to_objects(V, F2, L2) >= video:frames_to_objects(V, F1, L1).",
            )
            .unwrap(),
        )
        .unwrap();
        cim.add_invariant(
            parse_invariant(
                "Dist > 142 => spatial:range(F, X, Y, Dist) = spatial:range(F, X, Y, 142).",
            )
            .unwrap(),
        )
        .unwrap();
    }
    for i in 0..entries {
        cim.store(
            GroundCall::new(
                "video",
                "frames_to_objects",
                vec![
                    Value::str("rope"),
                    Value::Int(i as i64),
                    Value::Int(i as i64 + 40),
                ],
            ),
            (0..10).map(Value::Int).collect::<Vec<_>>(),
            true,
            SimInstant::EPOCH,
        );
    }
    cim
}

fn bench_cim() {
    println!("cim_lookup:");
    for &n in &[16usize, 256] {
        let hit_call = GroundCall::new(
            "video",
            "frames_to_objects",
            vec![Value::str("rope"), Value::Int(3), Value::Int(43)],
        );
        let miss_call = GroundCall::new(
            "video",
            "frames_to_objects",
            vec![Value::str("vertigo"), Value::Int(1), Value::Int(2)],
        );
        bench(
            &format!("exact_hit_{n}_entries"),
            || populated_cim(n, false),
            |mut cim| cim.lookup(&hit_call, SimInstant::EPOCH),
        );
        bench(
            &format!("miss_with_invariants_{n}_entries"),
            || populated_cim(n, true),
            |mut cim| cim.lookup(&miss_call, SimInstant::EPOCH),
        );
        let wide = GroundCall::new(
            "video",
            "frames_to_objects",
            vec![Value::str("rope"), Value::Int(0), Value::Int(900)],
        );
        bench(
            &format!("partial_hit_{n}_entries"),
            || populated_cim(n, true),
            |mut cim| cim.lookup(&wide, SimInstant::EPOCH),
        );
    }
}

/// One of 40 distinct `frames_to_objects` calls.
fn rope_call(i: usize) -> GroundCall {
    GroundCall::new(
        "video",
        "frames_to_objects",
        vec![
            Value::str("rope"),
            Value::Int((i % 40) as i64),
            Value::Int((i % 40) as i64 + 50),
        ],
    )
}

fn warmed_dcsm(records: usize) -> Dcsm {
    let mut d = Dcsm::new();
    for i in 0..records {
        d.record(
            &rope_call(i),
            Some(1.0),
            Some(10.0 + i as f64),
            Some(20.0),
            SimInstant::EPOCH,
        );
    }
    d
}

fn bench_dcsm() {
    println!("dcsm_estimate:");
    let detail = warmed_dcsm(1_000);
    let mut summarized = warmed_dcsm(1_000);
    for dims in [[true; 3], [false; 3]] {
        let shape = PatternShape::new("video", "frames_to_objects", dims.to_vec());
        summarized.build_table(shape);
    }
    summarized.drop_detail("video", "frames_to_objects");

    let seen = GroundCall::new(
        "video",
        "frames_to_objects",
        vec![Value::str("rope"), Value::Int(3), Value::Int(53)],
    )
    .pattern();
    let unseen = GroundCall::new(
        "video",
        "frames_to_objects",
        vec![Value::str("rope"), Value::Int(999), Value::Int(1_000)],
    )
    .pattern();

    // What a plan step asks: the rule's constant, `$b` for the bound
    // frame range. It hits at the asked pattern, before any relaxation.
    let step = CallPattern::new(
        "video",
        "frames_to_objects",
        vec![
            PatArg::Const(Value::str("rope")),
            PatArg::Bound,
            PatArg::Bound,
        ],
    );

    bench("detail_aggregation_seen", || (), |_| detail.cost(&seen));
    bench("dcsm_cost_seen_first_probe", || (), |_| detail.cost(&step));
    bench(
        "detail_aggregation_unseen_relaxes",
        || (),
        |_| detail.cost(&unseen),
    );
    bench("summary_lookup_seen", || (), |_| summarized.cost(&seen));
    bench(
        "summary_lookup_unseen_relaxes",
        || (),
        |_| summarized.cost(&unseen),
    );
}

/// What one `record` costs before a function's first fold — only the
/// shapes a probe built are kept current — and after two folds, when every
/// `2^arity` shape is (arity 3 here: 8 cells a record, and a fold each
/// `DETAIL_WINDOW` records).
fn bench_dcsm_record() {
    use hermes_dcsm::DETAIL_WINDOW;
    println!("dcsm_record:");
    let record = |d: &mut Dcsm, i: usize| {
        d.record(
            &rope_call(i),
            Some(1.0),
            Some(10.0),
            Some(20.0),
            SimInstant::EPOCH,
        )
    };
    // The shapes one estimate of a seen call builds, as in a mediator.
    let fresh = || {
        let d = warmed_dcsm(16);
        d.cost(&rope_call(3).pattern());
        d
    };
    let mut unfolded = fresh();
    let mut i = 0;
    bench(
        "dcsm_record",
        || (),
        |_| {
            // Start over before the window fills: this row never folds.
            if unfolded.db().detail_len() + 1 >= 2 * DETAIL_WINDOW {
                unfolded = fresh();
            }
            i += 1;
            record(&mut unfolded, i)
        },
    );
    let mut folded = warmed_dcsm(3 * DETAIL_WINDOW);
    assert!(folded.db().detail_len() < folded.db().len(), "folded twice");
    bench(
        "dcsm_record_folding",
        || (),
        |_| {
            i += 1;
            record(&mut folded, i)
        },
    );
}

/// Entering and leaving `serve::parked` on a thread that holds a run slot
/// with nothing queued: what lending the slot adds to every source call a
/// reactor worker makes (two uncontended lock round trips).
fn bench_pool() {
    println!("pool:");
    bench(
        "pool_handoff_parked_x1000",
        || (),
        |_| hermes_core::serve::parked_handoff_probe(1000),
    );
}

fn bench_rewriter() {
    println!("rewriter:");
    let program = parse_program(
        "
        p(A, B) :- in(B, d1:p_bf(A)).
        p(A, B) :- in(A, d1:p_fb(B)).
        p(A, B) :- in(Ans, d1:p_ff()) & =(Ans.a, A) & =(Ans.b, B).
        q(A, B) :- in(B, d2:q_bf(A)).
        q(A, B) :- in(A, d2:q_fb(B)).
        q(A, B) :- in(Ans, d2:q_ff()) & =(Ans.a, A) & =(Ans.b, B).
        join(X, Y, Z) :- p(X, Y) & q(Z, Y).
        ",
    )
    .unwrap();
    let query = parse_query("?- join('a', Y, Z).").unwrap();
    let policy = CimPolicy::cache_everything();
    // The public entry checks and indexes the bare program on every call;
    // a mediator does that once, where the program is installed, and pays
    // only the `_checked` row per query.
    bench(
        "enumerate_join_plans",
        || (),
        |_| enumerate_plans(&program, &query, &policy, RewriteConfig::default()).unwrap(),
    );
    let checked = CheckedProgram::new(program.clone());
    bench(
        "enumerate_join_plans_checked",
        || (),
        |_| {
            checked
                .enumerate_plans(&query, &policy, RewriteConfig::default(), &[])
                .unwrap()
        },
    );
    bench(
        "check_and_index_program",
        || program.clone(),
        CheckedProgram::new,
    );

    let plans = enumerate_plans(&program, &query, &policy, RewriteConfig::default()).unwrap();
    let dcsm = warmed_dcsm(100);
    bench(
        "cost_estimate_per_plan",
        || (),
        |_| {
            for p in &plans {
                std::hint::black_box(estimate_plan(p, &dcsm, &CostConfig::default()));
            }
        },
    );
    // The rope-warmed DCSM above has never seen the join's functions, so
    // that row times the relaxation walk down to the prior. This one
    // prices the same plans against records of every function they call.
    let mut trained = Dcsm::new();
    for i in 0..100i64 {
        for (domain, function, args) in [
            ("d1", "p_bf", vec![Value::str("a")]),
            ("d1", "p_fb", vec![Value::Int(i % 10)]),
            ("d1", "p_ff", vec![]),
            ("d2", "q_bf", vec![Value::Int(i % 10)]),
            ("d2", "q_fb", vec![Value::Int(i % 10)]),
            ("d2", "q_ff", vec![]),
        ] {
            let call = GroundCall::new(domain, function, args);
            let t_all = 5.0 + (i % 7) as f64;
            trained.record(&call, Some(1.0), Some(t_all), Some(3.0), SimInstant::EPOCH);
        }
    }
    bench(
        "choose_join_plans",
        || (),
        |_| choose_plan(&plans, &trained, &CostConfig::default(), false),
    );
}

fn bench_executor() {
    use hermes_core::{ExecConfig, Executor, Mediator, PlanStep, Route};
    use hermes_domains::synthetic::{RelationSpec, SyntheticDomain};
    use hermes_net::{profiles, Network};
    use std::sync::Arc;

    println!("executor:");
    // Wall-clock cost of running a fully-cached query: the real overhead a
    // mediator adds once the network is out of the picture.
    let mut m = {
        let d = SyntheticDomain::generate("d1", 3, &[RelationSpec::uniform("p", 20, 4.0)]);
        let mut net = Network::new(3);
        net.place(Arc::new(d), profiles::maryland());
        Mediator::from_source(
            "p(A, B) :- in(B, d1:p_bf(A)).
             p(A, B) :- in(Ans, d1:p_ff()) & =(Ans.a, A) & =(Ans.b, B).",
            net,
        )
        .unwrap()
    };
    let planned = m.plan("?- p('p_3', B).").unwrap();
    let plan = planned.plan().clone();
    // Warm the cache.
    m.query("?- p('p_3', B).").unwrap();
    // The same plan with every call routed past the CIM: the fetch path
    // (wire call, charge schedule, iteration) a cache miss also takes.
    let mut direct = plan.clone();
    for step in &mut direct.steps {
        if let PlanStep::Call { route, .. } = step {
            *route = Route::Direct;
        }
    }
    // This micro-bench drives the Executor directly, bypassing the
    // mediator on purpose, over the one-shard server's state views.
    let server = m.to_concurrent(1);
    let config = ExecConfig {
        record_stats: false,
        ..ExecConfig::default()
    };
    for (name, plan) in [
        ("cached_query_wall_time", &plan),
        ("uncached_direct_call_wall_time", &direct),
    ] {
        bench(
            name,
            || (),
            |_| {
                Executor::new(
                    server.network(),
                    server.cim(),
                    server.dcsm(),
                    hermes_common::SimClock::new(),
                    config,
                )
                .run(plan, None)
                .unwrap()
            },
        );
    }
}

fn bench_parser() {
    println!("parser:");
    let src = "
        routetosupplies(From, Sup1, To, R) :-
            in(Tuple, ingres:select_eq('inventory', 'item', Sup1)) &
            =(Tuple.loc, To) &
            in(R, terraindb:findrte(From, To)).
    ";
    bench("parse_rule", || (), |_| parse_program(src).unwrap());
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test-mode");
    TEST_MODE.store(test_mode, Ordering::Relaxed);
    println!("micro-benchmarks (wall-clock; median of {BATCHES} batches)\n");
    bench_cim();
    bench_dcsm();
    bench_dcsm_record();
    bench_pool();
    bench_rewriter();
    bench_executor();
    bench_parser();
    assert_eq!(ROWS_RUN.load(Ordering::Relaxed), ROWS, "a row did not run");
    if test_mode {
        println!("micro: test-mode assertions passed ({ROWS} rows ran)");
    }
}
