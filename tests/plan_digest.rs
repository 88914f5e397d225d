//! One digest of every plan list the rewriter returns over a fixed grid
//! of programs and queries: each predicate under each adornment of the
//! example programs, the analyzer fixtures, the benchmark world's
//! program, the rewriter's §5.1 program and a rule chain as deep as
//! `max_depth` unfolds, plus 3 to 8 independent calls. Every query is
//! planned at caps 128 and 3, with `favor_parallel` off and on, under
//! `cache_everything` and `never`, with relational pushdowns. The `{:?}`
//! of each `Result<Vec<Plan>>` is hashed: the plans, their order, the
//! `V#k` names of renamed variables, the routes, the pushdown variants
//! and the error strings.
//!
//! The value was taken from the search that cloned its state at every
//! branch. A change to how the search walks must keep it.

use hermes::core::{CheckedProgram, PushdownRule, RewriteConfig};
use hermes::lang::{parse_program, parse_query, Program};
use hermes::CimPolicy;
use std::path::Path;

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

/// Example 5.1's program, as the rewriter's unit tests write it.
const M1: &str = "
m(A, C) :- p(A, B) & q(B, C).
p(A, B) :- in(Ans, d1:p_ff()) & =(Ans.1, A) & =(Ans.2, B).
p(A, B) :- in(B, d1:p_bf(A)).
p(A, B) :- in(X, d1:p_bb(A, B)).
q(B, C) :- in(Ans, d2:q_ff()) & =(Ans.1, B) & =(Ans.2, C).
q(B, C) :- in(C, d2:q_bf(B)).
";

/// The shapes the rewriter's unit tests plan: repeated and constant head
/// arguments, scans a condition can be fused into, a call no ordering
/// can ground.
const SHAPES: &str = "
same(X) :- pair(X, X).
pair(A, B) :- in(Ans, d:pairs_ff()) & =(Ans.1, A) & =(Ans.2, B).
special('gold', X) :- in(X, d:gold_ff()).
special('silver', X) :- in(X, d:silver_ff()).
actor_of(Object, Actor) :-
    in(P, relation:all('cast')) & =(P.name, Actor) & =(P.role, Object).
low(T) :- in(T, relation:all('inventory')) & >(10, T.qty).
r(T, V) :- in(T, relation:all('t')) & =(T.f, V) & in(V, other:vals()).
only(C) :- in(C, d2:q_bf(B)) & in(B, d9:undefined_pred(C)).
";

/// Queries beyond the adorned ones, for [`M1`] and [`SHAPES`].
const EXTRA_QUERIES: [&str; 6] = [
    "?- m('a', C) & =(C, 5).",
    "?- p('a', 5).",
    "?- special('gold', X).",
    "?- actor_of('brandon', A).",
    "?- same(V) & low(V).",
    "?- m(A, C) & pair(C, D) & <(D, 3).",
];

/// `p0 :- p1. … p30 :- p31.` over a leaf rule: the deepest chain the
/// default `max_depth` of 32 still unfolds to its leaf.
fn chain_at_the_cap() -> String {
    let mut src = String::new();
    for i in 0..31 {
        src.push_str(&format!("p{i}(A, B) :- p{}(A, B).\n", i + 1));
    }
    src.push_str("p31(A, B) :- in(B, d1:p_bf(A)).\n");
    src
}

/// Every `.hms` file of `dir`, in name order.
fn hms_files(dir: &str) -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "hms"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect()
}

/// A query per defined predicate and adornment: a constant at each
/// bound position, a variable at each free one.
fn adorned_queries(program: &Program) -> Vec<String> {
    let mut out = Vec::new();
    for (name, arity) in program.defined_predicates() {
        for mask in 0..1u32 << arity {
            let args: Vec<String> = (0..arity)
                .map(|i| match mask >> i & 1 {
                    1 => format!("{}", 10 + i),
                    _ => format!("V{i}"),
                })
                .collect();
            out.push(format!("?- {name}({}).", args.join(", ")));
        }
    }
    out
}

/// `in(X0, d0:f()) & … & in(X{n-1}, d{n-1}:f())`: n! orderings.
fn independent_calls(n: usize) -> String {
    let calls: Vec<String> = (0..n).map(|i| format!("in(X{i}, d{i}:f())")).collect();
    format!("?- {}.", calls.join(" & "))
}

/// 64-bit FNV-1a, continued from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn plan_lists_match_the_parent_digest() {
    let mut cases: Vec<(Program, Vec<String>)> = Vec::new();
    let mut sources = hms_files("examples/programs");
    sources.extend(hms_files("tests/fixtures"));
    sources.extend([
        BENCHWORLD.to_string(),
        format!("{M1}{SHAPES}"),
        chain_at_the_cap(),
    ]);
    for src in &sources {
        let program = parse_program(src).unwrap();
        let mut queries = adorned_queries(&program);
        if src.contains(SHAPES) {
            queries.extend(EXTRA_QUERIES.map(String::from));
        }
        cases.push((program, queries));
    }
    cases.push((Program::default(), (3..=8).map(independent_calls).collect()));

    let pushdowns = ["relation", "inventory"].map(PushdownRule::relational);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let (mut results, mut planned) = (0, 0);
    for (program, queries) in cases {
        let checked = CheckedProgram::new(program);
        for text in &queries {
            let query = parse_query(text).unwrap();
            for max_plans in [128, 3] {
                for favor_parallel in [false, true] {
                    for policy in [CimPolicy::cache_everything(), CimPolicy::never()] {
                        let config = RewriteConfig {
                            max_plans,
                            favor_parallel,
                        };
                        let result = checked.enumerate_plans(&query, &policy, config, &pushdowns);
                        planned += usize::from(result.is_ok());
                        results += 1;
                        hash = fnv1a(hash, format!("{text}\n{result:?}\n").as_bytes());
                    }
                }
            }
        }
    }
    // The grid reaches plans and errors both.
    assert!(
        planned > 1000 && results - planned > 1000,
        "{planned}/{results}"
    );
    assert_eq!(hash, 0x3ea5_f3d2_5961_7599);
}
