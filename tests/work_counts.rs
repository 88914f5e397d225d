//! Work counts: how many heap allocations a call on a hot path makes, and
//! how many bytes they ask for, counted on the calling thread and compared
//! with `tests/expectations/work_counts.txt` exactly. A row that moves is a
//! change to the work the path does, and the file's diff shows it.
//!
//! Allocations do not depend on the optimization level, so the file holds
//! in debug and release alike. To regenerate it after an intended change,
//! delete it and run `cargo test --release --test work_counts`.

use hermes::cim::AnswerCache;
use hermes::common::{CallPattern, PatArg};
use hermes::core::serve::InlineAnswerProbe;
use hermes::core::{choose_plan, CheckedProgram, CostConfig, RewriteConfig};
use hermes::domains::synthetic::{RelationSpec, SyntheticDomain};
use hermes::lang::{parse_program, parse_query, Program};
use hermes::{profiles, Mediator, Network};
use hermes::{Cim, CimPolicy, Dcsm, DoneFrame, Frame, FrameDecoder, GroundCall, QueryFrame};
use hermes::{SimInstant, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write;
use std::path::Path;

thread_local! {
    /// Allocations made by this thread so far, and the bytes they asked for.
    static ALLOCATIONS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Counts every allocation (`alloc`, `alloc_zeroed`, `realloc`) per thread,
/// with its size: `layout.size()`, or the new size of a `realloc`.
struct Counting;

fn count(bytes: usize) {
    // `try_with`: an allocation during thread teardown has nowhere to count.
    let _ = ALLOCATIONS.try_with(|n| {
        let (calls, total) = n.get();
        n.set((calls + 1, total + bytes as u64));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; `count` touches only a
// `const`-initialised thread-local `Cell` and so never allocates. The
// provided `alloc_zeroed` goes through `alloc`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocations of one call of `f` and their bytes, after a first call
/// has warmed whatever it fills lazily. The most of three calls, so a path
/// that allocates only sometimes shows.
fn allocations<T>(mut f: impl FnMut() -> T) -> (u64, u64) {
    drop(f());
    (0..3)
        .map(|_| {
            let before = ALLOCATIONS.with(Cell::get);
            let out = f();
            let after = ALLOCATIONS.with(Cell::get);
            drop(out);
            (after.0 - before.0, after.1 - before.1)
        })
        .max()
        .unwrap()
}

/// The benchmark world's program (`perfbench/src/world.rs`).
const BENCHWORLD: &str = "
d0_ra(A, B) :- in(B, d0:ra_bf(A)).
d0_rb(A, B) :- in(B, d0:rb_bf(A)).
d0_rc(A, B) :- in(B, d0:rc_bf(A)).
d1_ra(A, B) :- in(B, d1:ra_bf(A)).
d1_rb(A, B) :- in(B, d1:rb_bf(A)).
d1_rc(A, B) :- in(B, d1:rc_bf(A)).
d0_cold(A, B) :- in(B, d0:cold_bf(A)).
d1_cold(A, B) :- in(B, d1:cold_bf(A)).
m0_ra(A, B) :- in(B, m0:ra_bf(A)).

ja(A, B) :- in(B, d0:ra_bf(A)).
ja(A, B) :- in(A, d0:ra_fb(B)).
ja(A, B) :- in(Ans, d0:ra_ff()) & =(Ans.a, A) & =(Ans.b, B).
jb(A, B) :- in(B, d1:rb_bf(A)).
jb(A, B) :- in(A, d1:rb_fb(B)).
jc(A, B) :- in(B, d0:rc_bf(A)).
jc(A, B) :- in(A, d0:rc_fb(B)).
star2(A1, A2, X) :- ja(A1, X) & jb(A2, X).
star3(A1, A2, A3, X) :- ja(A1, X) & jb(A2, X) & jc(A3, X).

actors(F, L, O, A) :-
    in(O, video:frames_to_objects('rope', F, L)) &
    in(T, relation:select_eq('cast', 'role', O)) &
    =(T.name, A).
";

/// A mediator over the benchmark world's sources (`perfbench/src/world.rs`)
/// with its program: the two synthetic sites, the video store and the
/// cast table; and a star3 query over them that has answers.
fn bench_world() -> (Mediator, String) {
    use hermes::domains::relational::{Column, ColumnType, RelationalDomain, Schema, Table};
    use hermes::domains::video::gen::{rope_store, ROPE_CAST};
    use hermes::domains::Domain;
    use std::sync::Arc;

    let site = |name: &str, seed: u64| {
        let hot = |r: &str| {
            let mut spec = RelationSpec::uniform(r, 64, 3.0);
            spec.range_size = 12;
            spec
        };
        let specs = [
            hot("ra"),
            hot("rb"),
            hot("rc"),
            RelationSpec::uniform("cold", 64, 2.0),
        ];
        SyntheticDomain::generate(name, seed, &specs)
    };
    let schema = Schema::new(vec![
        Column::new("name", ColumnType::Str),
        Column::new("role", ColumnType::Str),
    ])
    .unwrap();
    let mut cast = Table::new("cast", schema);
    for (role, actor) in ROPE_CAST {
        cast.insert(vec![Value::str(*actor), Value::str(*role)])
            .unwrap();
    }
    cast.create_hash_index("role").unwrap();
    let relation = RelationalDomain::new("relation");
    relation.add_table(cast);
    let (d0, d1) = (site("d0", 1996), site("d1", 1997));
    let key = Value::str("ra_0");
    let x = d0
        .call("ra_bf", std::slice::from_ref(&key))
        .unwrap()
        .answers[0]
        .clone();
    let b = d1.call("rb_fb", &[x]).unwrap().answers[0].clone();
    let star3 = format!("?- star3({}, {}, A3, X).", key.to_literal(), b.to_literal());
    let mut net = Network::new(1996);
    net.place(Arc::new(d0), profiles::maryland());
    net.place(Arc::new(d1), profiles::cornell());
    net.place(Arc::new(site("m0", 1996)), profiles::maryland());
    net.place(Arc::new(rope_store()), profiles::cornell());
    net.place(relation, profiles::maryland());
    (Mediator::from_source(BENCHWORLD, net).unwrap(), star3)
}

fn table() -> String {
    let mut out = String::from(
        "# Heap allocations per call on the calling thread, and the bytes they ask for (tests/work_counts.rs).\n",
    );
    let mut row = |name: &str, (n, bytes): (u64, u64)| {
        writeln!(out, "{name:<64} {n:>4} {bytes:>7} B").unwrap()
    };

    let checked = CheckedProgram::new(parse_program(BENCHWORLD).unwrap());
    let policy = CimPolicy::cache_everything();
    for (name, text) in [
        ("star2", "?- star2(1, 2, X)."),
        ("star3", "?- star3(1, 2, A3, X)."),
        ("actors", "?- actors(10, 20, O, A)."),
        ("point", "?- d0_ra(7, B)."),
    ] {
        let query = parse_query(text).unwrap();
        let plan = || {
            checked
                .enumerate_plans(&query, &policy, RewriteConfig::default(), &[])
                .unwrap()
        };
        let plans = plan().len();
        row(
            &format!("CheckedProgram::enumerate_plans {name} ({plans} plans)"),
            allocations(plan),
        );
    }

    // Six independent calls: the search reaches each subset of placed
    // calls once per ordering of it, the many-states case.
    let calls: Vec<String> = (0..6).map(|i| format!("in(X{i}, d{i}:f())")).collect();
    let query = parse_query(&format!("?- {}.", calls.join(" & "))).unwrap();
    let bare = CheckedProgram::new(Program::default());
    row(
        "CheckedProgram::enumerate_plans 6 independent calls (cap 128)",
        allocations(|| {
            bare.enumerate_plans(&query, &policy, RewriteConfig::default(), &[])
                .unwrap()
        }),
    );

    // One pricing of the join program's widest plan space, against
    // statistics for every function it calls.
    let star3 = checked
        .enumerate_plans(
            &parse_query("?- star3(1, 2, A3, X).").unwrap(),
            &policy,
            RewriteConfig::default(),
            &[],
        )
        .unwrap();
    let mut trained = Dcsm::new();
    for (k, function) in ["ra_bf", "ra_fb", "ra_ff", "rc_bf", "rc_fb"]
        .into_iter()
        .enumerate()
    {
        let args = if function.ends_with("ff") {
            vec![]
        } else {
            vec![Value::Int(k as i64)]
        };
        let call = GroundCall::new("d0", function, args);
        trained.record(
            &call,
            Some(1.0),
            Some(2.0 + k as f64),
            Some(3.0),
            SimInstant::EPOCH,
        );
    }
    for (k, function) in ["rb_bf", "rb_fb"].into_iter().enumerate() {
        let call = GroundCall::new("d1", function, vec![Value::Int(k as i64)]);
        trained.record(&call, Some(1.5), Some(4.0), Some(2.0), SimInstant::EPOCH);
    }
    row(
        &format!("choose_plan star3 ({} plans)", star3.len()),
        allocations(|| choose_plan(&star3, &trained, &CostConfig::default(), false)),
    );

    let mut routed = CimPolicy::never();
    routed.set_domain("d0", hermes::RoutingDecision::UseCim);
    routed.set_function("d1", "rb_bf", hermes::RoutingDecision::UseCim);
    for (name, policy) in [("cache_everything", &policy), ("with routes", &routed)] {
        row(
            &format!("CimPolicy::decide ({name})"),
            allocations(|| policy.decide("d1", "rb_bf")),
        );
    }

    let mut dcsm = Dcsm::new();
    let call = GroundCall::new("d0", "ra_bf", vec![Value::Int(7)]);
    dcsm.record(&call, Some(1.0), Some(2.0), Some(3.0), SimInstant::EPOCH);
    let asked = CallPattern::new("d0", "ra_bf", vec![PatArg::Const(Value::Int(7))]);
    row(
        "Dcsm::cost (recorded pattern)",
        allocations(|| dcsm.cost(&asked)),
    );

    // A warm point query on each mediator face: the one call it makes is
    // answered from the cache, so the row is the query path's own work.
    let d0 = SyntheticDomain::generate("d0", 1996, &[RelationSpec::uniform("ra", 64, 3.0)]);
    let key = d0.domain_values("ra")[0].clone();
    let point = format!("?- d0_ra('{}', B).", key.as_str().unwrap());
    let mut net = Network::new(1);
    net.place(std::sync::Arc::new(d0), profiles::maryland());
    let serial = Mediator::from_source("d0_ra(A, B) :- in(B, d0:ra_bf(A)).", net).unwrap();
    let point = point.as_str();
    assert!(!serial.query(point).unwrap().rows.is_empty());
    row(
        "Mediator::query warm point (1 shard)",
        allocations(|| serial.query(point).unwrap()),
    );
    let server = serial.to_concurrent(4);
    row(
        "ConcurrentMediator::query warm point (4 shards)",
        allocations(|| server.query(point).unwrap()),
    );

    // The benchmark world's warm joins, and one pull of a warm walk that
    // makes no call: a scan's next record, two fields assigned, one row.
    let (world, star3) = bench_world();
    let actors = "?- actors(300, 420, O, A).".to_string();
    for (name, text) in [("star3", star3), ("actors", actors)] {
        let text = text.as_str();
        assert!(!world.query(text).unwrap().rows.is_empty(), "{name}");
        row(
            &format!("Mediator::query warm {name} (benchmark world)"),
            allocations(|| world.query(text).unwrap()),
        );
    }
    world.query("?- ja(A, B).").unwrap();
    let mut walk = world.query_interactive("?- ja(A, B).").unwrap();
    walk.next_answer().unwrap();
    row(
        "one answer of a drained walk (warm scan, two assignments)",
        allocations(|| walk.next_answer().unwrap()),
    );
    drop(walk);

    // The same warm point as the reactor answers it on its own thread,
    // from the `Query` frame's bytes to the response's written out, on a
    // connection kept between requests.
    let request = Frame::Query(QueryFrame::new(point)).encode();
    let mut inline = InlineAnswerProbe::new(std::sync::Arc::new(serial.to_concurrent(4)));
    assert!(inline.answer(&request).is_some());
    row(
        "reactor inline warm point, request to response",
        allocations(|| inline.answer(&request).unwrap()),
    );
    row(
        "Frame::encode + FrameDecoder one Query",
        allocations(|| {
            let bytes = Frame::Query(QueryFrame::new(point)).encode();
            let mut decoder = FrameDecoder::new();
            decoder.feed(&bytes);
            decoder.next_frame().unwrap()
        }),
    );

    // The frames that answer a one-row query on the wire, and reading them.
    let batch = Frame::Batch(vec![vec![key, Value::Int(3)]]);
    let done = Frame::Done(DoneFrame {
        columns: vec!["B".into()],
        rows: 1,
        incomplete: false,
        elapsed_us: 120,
        source_calls: 0,
        cache_hits: 1,
        tier_downgrades: 0,
        trace: Vec::new(),
    });
    row(
        "Frame::encode one-row Batch + Done",
        allocations(|| (batch.encode(), done.encode())),
    );
    let mut kept = Vec::new();
    row(
        "Frame::encode_into kept buffer one-row Batch+Done",
        allocations(|| {
            kept.clear();
            batch.encode_into(&mut kept);
            done.encode_into(&mut kept);
        }),
    );
    let bytes = [batch.encode(), done.encode()].concat();
    row(
        "FrameDecoder one-row Batch + Done",
        allocations(|| {
            let mut decoder = FrameDecoder::new();
            decoder.feed(&bytes);
            (decoder.next_frame().unwrap(), decoder.next_frame().unwrap())
        }),
    );

    // The empty copy a sharded cache makes of its template, per shard: its
    // cost must not grow with the entries the template holds.
    for entries in [10, 1_000] {
        let mut cim = Cim::new();
        for i in 0..entries {
            let call = GroundCall::new("d0", "ra_bf", vec![Value::Int(i)]);
            cim.store(call, vec![Value::Int(i)], true, SimInstant::EPOCH);
        }
        row(
            &format!("Cim::fork_empty ({entries} entries)"),
            allocations(|| cim.fork_empty()),
        );
    }

    // An insert into an answer cache filled to its 16 KiB budget with
    // 10-byte answers: it evicts one entry, the least recently used. The
    // warm-up cycles settle the tables' capacity first.
    let answer: std::sync::Arc<[Value]> = vec![Value::str("answer-10")].into();
    let mut cache = AnswerCache::with_budget(16 * 1024);
    let mut calls = (0..).map(|i| GroundCall::new("d0", "ra_bf", vec![Value::Int(i)]));
    for call in calls.by_ref().take(16 * 1024 / 10 + 10_000) {
        cache.insert(call, answer.clone(), true, SimInstant::EPOCH);
    }
    let mut pending: Vec<GroundCall> = calls.take(4).collect();
    let evictions = cache.stats().evictions;
    row(
        "AnswerCache::insert full 16 KiB budget (1 eviction)",
        allocations(|| {
            let call = pending.pop().unwrap();
            cache.insert(call, answer.clone(), true, SimInstant::EPOCH)
        }),
    );
    assert_eq!(
        cache.stats().evictions,
        evictions + 4,
        "one eviction per insert"
    );
    out
}

#[test]
fn work_counts_match_the_expectation_file() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/expectations/work_counts.txt");
    let got = table();
    match std::fs::read_to_string(&path) {
        Ok(want) => assert_eq!(got, want, "work counts moved; the new table is above"),
        Err(_) => std::fs::write(&path, &got).unwrap(),
    }
}
