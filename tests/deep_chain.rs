//! A rule chain 100 000 predicates deep — `p0 :- p1. … pN :- in(..).` —
//! is not recursive and not wrong, only deeper than the rewriter unfolds.
//! Every walk of the predicate dependency graph keeps its path on the
//! heap, so the chain gets a planning error or a clean analysis on a
//! 2 MB thread stack, where a walk that recursed once per predicate
//! overflowed (near 25 000 rules) and took the process down. A query of
//! 10 000 conditions is as long a plan: the executor's walk keeps its
//! open steps on the heap too, where recursing once per plan step
//! overflowed near 2 000. And a query as wide as it is long — ten
//! independent calls and one whose argument nothing binds — is refused
//! before the rewriter tries every ordering of the other ten. A chain
//! that unfolds past the rewriter's cap plans nothing, and the analyzer
//! says so (`HA011`) for every declared query form that needs more
//! expansions than the cap.

use hermes::analysis::Analyzer;
use hermes::core::{enumerate_plans, RewriteConfig};
use hermes::domains::synthetic::{RelationSpec, SyntheticDomain};
use hermes::lang::{parse_program, parse_query, Program};
use hermes::net::profiles;
use hermes::{CimPolicy, Mediator, Network, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DEPTH: usize = 100_000;

fn chain_source(depth: usize) -> String {
    named_chain("p", depth)
}

/// `{name}0 :- {name}1. … {name}{depth}(A, B) :- in(..).`: `depth` links
/// and the leaf, `depth + 1` rule expansions.
fn named_chain(name: &str, depth: usize) -> String {
    let mut src = String::new();
    for i in 0..depth {
        src.push_str(&format!("{name}{i}(A, B) :- {name}{}(A, B).\n", i + 1));
    }
    src.push_str(&format!("{name}{depth}(A, B) :- in(B, d1:p_bf(A)).\n"));
    src
}

/// Runs `f` on a thread with the 2 MB stack of a worker or test thread.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("thread spawns")
        .join()
        .expect("the walk must not overflow the stack")
}

fn chain() -> Program {
    parse_program(&chain_source(DEPTH)).unwrap()
}

#[test]
fn rewriter_reports_a_planning_error_for_a_deep_chain() {
    let err = on_small_stack(|| {
        enumerate_plans(
            &chain(),
            &parse_query("?- p0('p_1', B).").unwrap(),
            &CimPolicy::never(),
            RewriteConfig::default(),
        )
        .unwrap_err()
    });
    // Deeper than `max_depth` unfoldings: no plan, and not "recursive".
    let msg = err.to_string();
    assert!(msg.contains("no executable ordering"), "{msg}");
}

#[test]
fn a_chain_past_max_depth_names_the_cap() {
    let plan = |depth| {
        enumerate_plans(
            &parse_program(&chain_source(depth)).unwrap(),
            &parse_query("?- p0('p_1', B).").unwrap(),
            &CimPolicy::never(),
            RewriteConfig::default(),
        )
    };
    // 31 links and the leaf: 32 unfoldings, as many as `max_depth` allows.
    assert_eq!(plan(31).unwrap().len(), 1);
    // One link more: the leaf's call could run, the unfolding stopped.
    let msg = plan(32).unwrap_err().to_string();
    assert!(
        msg.contains("no executable ordering found for query"),
        "{msg}"
    );
    assert!(
        msg.contains("unfolding stopped at `p32/2`, max_depth (32) rule expansions deep"),
        "{msg}"
    );
}

/// The chain of `depth` links under a declared `p0(b, f)` form.
fn declared_chain(depth: usize) -> String {
    format!("%! query p0(b, f)\n{}", chain_source(depth))
}

/// `top` over two chains of `depth` links each: `2 * depth + 3` rule
/// expansions, though the rules nest only `depth + 2` deep.
fn declared_fork(depth: usize) -> String {
    format!(
        "%! query top(b, f)\ntop(A, C) :- a0(A, B) & b0(B, C).\n{}{}",
        named_chain("a", depth),
        named_chain("b", depth)
    )
}

/// True when the analysis of `src` warns that a declared form unfolds
/// past the rewriter's cap.
fn warns_too_deep(src: &str) -> bool {
    let program = parse_program(src).unwrap();
    let report = Analyzer::new(&program).analyze();
    assert!(report.errors().is_empty(), "{}", report.render());
    let warned = report
        .diagnostics
        .iter()
        .any(|d| d.code.as_str() == "HA011");
    assert!(warned || report.is_clean(), "{}", report.render());
    warned
}

fn plans(src: &str, query: &str) -> bool {
    let program = parse_program(src).unwrap();
    let query = parse_query(query).unwrap();
    enumerate_plans(
        &program,
        &query,
        &CimPolicy::never(),
        RewriteConfig::default(),
    )
    .is_ok()
}

#[test]
fn a_declared_chain_past_the_cap_warns() {
    assert!(!warns_too_deep(&declared_chain(31)));
    assert!(plans(&declared_chain(31), "?- p0('p_1', B)."));
    assert!(warns_too_deep(&declared_chain(32)));
    assert!(!plans(&declared_chain(32), "?- p0('p_1', B)."));
}

#[test]
fn two_chains_under_one_rule_count_every_expansion() {
    assert!(!warns_too_deep(&declared_fork(14)));
    assert!(plans(&declared_fork(14), "?- top('k', C)."));
    assert!(warns_too_deep(&declared_fork(15)));
    assert!(!plans(&declared_fork(15), "?- top('k', C)."));
}

#[test]
fn registering_a_chain_past_the_cap_lists_the_warning() {
    let domain = SyntheticDomain::generate("d1", 42, &[RelationSpec::uniform("p", 8, 2.0)]);
    let mut net = Network::new(1);
    net.place(Arc::new(domain), profiles::cornell());
    let m = Mediator::from_source(&declared_chain(32), net).unwrap();
    let warnings = m.analysis_warnings();
    let warning = warnings
        .iter()
        .find(|d| d.code.as_str() == "HA011")
        .expect("the form is flagged");
    assert!(warning.message.contains("33 rule expansions"), "{warning}");
}

#[test]
fn analyzer_walks_a_deep_chain() {
    let report = on_small_stack(|| Analyzer::new(&chain()).analyze());
    assert!(
        !report.has_code(hermes::analysis::DiagCode::RecursiveCycle),
        "{}",
        report.render()
    );
}

#[test]
fn registering_a_deep_chain_returns() {
    let (registered, queried) = on_small_stack(|| {
        let domain = SyntheticDomain::generate("d1", 42, &[RelationSpec::uniform("p", 8, 2.0)]);
        let mut net = Network::new(1);
        net.place(Arc::new(domain), profiles::cornell());
        let m = Mediator::from_source("item(A, B) :- in(B, d1:p_bf(A)).", net).unwrap();
        let registered = m.register_source(&chain_source(DEPTH), &[]);
        let queried = m.query("?- p0('p_1', B).").map(|r| r.rows.len());
        (registered, queried)
    });
    // The analyzer has no finding against a deep chain, so it installs;
    // the query then fails in planning like the bare rewriter call.
    registered.unwrap();
    let msg = queried.unwrap_err().to_string();
    assert!(msg.contains("no executable ordering"), "{msg}");
}

/// `?- =(A, 1) & … .` with `conditions` conditions: the first binds `A`,
/// the rest filter.
fn long_query(conditions: usize) -> String {
    format!("?- {}.", vec!["=(A, 1)"; conditions].join(" & "))
}

#[test]
fn a_ten_thousand_condition_query_answers_on_a_small_stack() {
    let rows = on_small_stack(|| {
        let domain = SyntheticDomain::generate("d1", 42, &[RelationSpec::uniform("p", 8, 2.0)]);
        let mut net = Network::new(1);
        net.place(Arc::new(domain), profiles::cornell());
        let m = Mediator::from_source("item(A, B) :- in(B, d1:p_bf(A)).", net).unwrap();
        m.query(long_query(10_000).as_str()).map(|r| r.rows)
    });
    assert_eq!(rows.unwrap(), vec![vec![Value::int(1)]]);
}

/// `in(X0, d0:f()) & … & in(X{n-1}, d{n-1}:f())` plus a call whose
/// argument `Z` nothing binds.
fn unbindable_goals(n: usize) -> String {
    let calls: Vec<String> = (0..n).map(|i| format!("in(X{i}, d{i}:f())")).collect();
    format!("{} & in(Y, dz:g(Z))", calls.join(" & "))
}

/// Two calls that each need the other's target, beside `n` calls that
/// run at once: every call can bind something, yet the two never run.
fn mutually_blocked_goals(n: usize) -> String {
    let calls: Vec<String> = (0..n).map(|i| format!("in(X{i}, d{i}:f())")).collect();
    format!("{} & in(Y, dz:g(Z)) & in(Z, dw:h(Y))", calls.join(" & "))
}

/// The fastest of three runs of `f`, which must fail.
fn best_of_three_failures(f: impl Fn() -> String) -> (Duration, String) {
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let msg = f();
            (t0.elapsed(), msg)
        })
        .min_by_key(|(took, _)| *took)
        .unwrap()
}

#[test]
fn a_call_nothing_can_bind_is_refused_at_once() {
    let query = format!("?- {}.", unbindable_goals(10));
    let m = Mediator::new(Program::default(), Network::new(1)).unwrap();
    let (took, msg) = best_of_three_failures(|| m.plan(&query).unwrap_err().to_string());
    assert!(took < Duration::from_millis(10), "took {took:?}");
    assert!(
        msg.contains("no executable ordering found for query"),
        "{msg}"
    );
    assert!(msg.contains("`in(Y, dz:g(Z))` can never run"), "{msg}");

    // The same call behind a rule, whose caller leaves `Z` free, is
    // refused once the rule is unfolded.
    let program = parse_program(&format!("p(Z, Y) :- {}.", unbindable_goals(10))).unwrap();
    let m = Mediator::new(program, Network::new(1)).unwrap();
    let (took, msg) = best_of_three_failures(|| m.plan("?- p(Z, Y).").unwrap_err().to_string());
    assert!(took < Duration::from_millis(10), "took {took:?}");
    assert!(
        msg.contains("no executable ordering found for query"),
        "{msg}"
    );
}

#[test]
fn two_calls_waiting_on_each_other_are_refused_before_any_search() {
    // Each call has a goal that could bind its argument, but only after
    // it ran itself: the search used to try every ordering of the other
    // calls first (0.4 s at ten of them in release, tenfold per call).
    let query = format!("?- {}.", mutually_blocked_goals(11));
    let m = Mediator::new(Program::default(), Network::new(1)).unwrap();
    let (took, msg) = best_of_three_failures(|| m.plan(&query).unwrap_err().to_string());
    assert!(took < Duration::from_millis(10), "took {took:?}");
    let goals = parse_query(&query).unwrap().goals;
    let why = hermes::analysis::explain_infeasible_query(&Program::default(), &goals)
        .expect("the analyzer names the blocked calls");
    assert!(msg.ends_with(&why), "{msg}");
    assert!(msg.contains("`in(Y, dz:g(Z))` can never run"), "{msg}");
    assert!(msg.contains("`in(Z, dw:h(Y))` can never run"), "{msg}");
}
