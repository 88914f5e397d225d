//! Plan parity: planning over the program a mediator checked and indexed
//! once, where it was installed, agrees with the public rewriter entry
//! that checks a bare `Program` on every call — the same plans in the
//! same order, the same choice, the same estimates, and for a program
//! that fails a check the same error, at query time, every time. And the
//! checked program follows the installed one through re-registration and
//! `to_concurrent`.

mod common;

use common::example_world;
use hermes::core::{
    choose_plan, enumerate_plans_with_pushdowns, estimate_plan, CostConfig, PushdownRule,
};
use hermes::dcsm::CostVector;
use hermes::domains::synthetic::{RelationSpec, SyntheticDomain};
use hermes::net::profiles;
use hermes::{parse_program, parse_query, CimPolicy, HermesError, Mediator, Network, QueryForm};
use std::path::PathBuf;
use std::sync::Arc;

/// The benchmark world's program (`perfbench/src/world.rs`): three access
/// paths for `ja`, two for `jb` and `jc`, joined by `star2` and `star3`.
const BENCHWORLD: &str = "
d0_ra(A, B) :- in(B, d0:ra_bf(A)).
d1_rb(A, B) :- in(B, d1:rb_bf(A)).
d0_cold(A, B) :- in(B, d0:cold_bf(A)).
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

const BENCHWORLD_FORMS: [&str; 9] = [
    "d0_ra(b, f)",
    "d1_rb(b, f)",
    "d0_cold(b, f)",
    "m0_ra(b, f)",
    "ja(f, b)",
    "ja(f, f)",
    "star2(b, b, f)",
    "star3(b, b, f, f)",
    "actors(b, b, f, f)",
];

/// A query of the form's shape: a constant at every bound position, a
/// variable at every free one.
fn query_for(form: &QueryForm) -> String {
    let args: Vec<String> = form
        .bound
        .iter()
        .enumerate()
        .map(|(i, bound)| match bound {
            true => format!("{}", 10 + i),
            false => format!("V{i}"),
        })
        .collect();
    format!("?- {}({}).", form.pred, args.join(", "))
}

/// The relational sources of the example programs: both ways of planning
/// get their selection pushdowns.
const RELATIONAL: [&str; 2] = ["relation", "inventory"];

/// Planning needs no source: an empty network will do. `Mediator::new`
/// skips the analyzer, which would refuse calls to sources not placed.
fn planner(src: &str) -> Mediator {
    let m = Mediator::new(parse_program(src).unwrap(), Network::new(1)).unwrap();
    for domain in RELATIONAL {
        m.add_pushdown(PushdownRule::relational(domain));
    }
    m
}

/// Plans `text` both ways and returns how many plans each found.
fn assert_plans_agree(m: &Mediator, text: &str) -> usize {
    let query = parse_query(text).unwrap();
    let checked = m.plan_query(&query).unwrap();
    let pushdowns = RELATIONAL.map(PushdownRule::relational);
    let plans = enumerate_plans_with_pushdowns(
        m.program(),
        &query,
        &CimPolicy::cache_everything(),
        m.config().rewrite,
        &pushdowns,
    )
    .unwrap();
    let (chosen, estimates) = choose_plan(
        &plans,
        m.dcsm(),
        &m.config().cost,
        m.config().optimize_first_answer,
    );
    assert_eq!(checked.plans, plans, "{text}: plan list");
    assert_eq!(checked.chosen, chosen, "{text}: chosen plan");
    assert_eq!(checked.estimates, estimates, "{text}: estimates");
    plans.len()
}

/// Both rewriter configurations the pipeline can ask for.
fn assert_forms_agree(src: &str, forms: &[QueryForm]) -> usize {
    let mut m = planner(src);
    let mut compared = 0;
    for favor_parallel in [false, true] {
        m.config_mut().rewrite.favor_parallel = favor_parallel;
        for form in forms {
            assert_plans_agree(&m, &query_for(form));
            compared += 1;
        }
    }
    compared
}

#[test]
fn example_programs_plan_the_same_both_ways() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/programs");
    let mut compared = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/programs exists") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "hms") {
            let src = std::fs::read_to_string(&path).unwrap();
            let forms = parse_program(&src).unwrap().declarations.query_forms;
            assert!(
                !forms.is_empty(),
                "{} declares no query form",
                path.display()
            );
            compared += assert_forms_agree(&src, &forms);
        }
    }
    assert!(compared >= 20, "only {compared} queries compared");
}

#[test]
fn benchworld_queries_plan_the_same_both_ways() {
    let forms: Vec<QueryForm> = BENCHWORLD_FORMS
        .iter()
        .map(|f| QueryForm::parse(f).unwrap())
        .collect();
    assert_eq!(assert_forms_agree(BENCHWORLD, &forms), 18);
    // The shape the benchmark relies on: 7 and 14 plans with two keys bound.
    let m = planner(BENCHWORLD);
    assert_eq!(assert_plans_agree(&m, "?- star2('a', 'b', X)."), 7);
    assert_eq!(assert_plans_agree(&m, "?- star3('a', 'b', A3, X)."), 14);
}

#[test]
fn trained_statistics_cost_the_same_both_ways() {
    let m = served(
        "item(A, B) :- in(B, d1:p_bf(A)).
         item(A, B) :- in(A, d1:p_fb(B)).
         item(A, B) :- in(Ans, d1:p_ff()) & =(Ans.a, A) & =(Ans.b, B).",
    );
    m.query("?- item('p_1', B).").unwrap();
    m.query("?- item(A, B).").unwrap();
    assert!(m.dcsm().records() > 0);
    for text in ["?- item('p_1', B).", "?- item(A, 3).", "?- item(A, B)."] {
        assert_plans_agree(&m, text);
    }
}

/// A mediator whose `d1` source answers `p_bf` / `p_fb` / `p_ff`, built
/// with `Mediator::new` so that a program the analyzer refuses is still
/// installed and its stored verdict can be asked.
fn served(src: &str) -> Mediator {
    let domain = SyntheticDomain::generate("d1", 42, &[RelationSpec::uniform("p", 8, 2.0)]);
    let mut net = Network::new(1);
    net.place(Arc::new(domain), profiles::cornell());
    Mediator::new(parse_program(src).unwrap(), net).unwrap()
}

/// `choose_plan` prices each distinct call pattern of a choice once. It
/// must pick the plan, and give every plan the estimate, that pricing each
/// plan on its own with `estimate_plan` gives: the same index and
/// bitwise-equal vectors, in both modes, sequential and overlapped.
fn assert_choice_prices_plans_one_by_one(m: &Mediator, text: &str) {
    let plans = m.plan_query(&parse_query(text).unwrap()).unwrap().plans;
    let bits =
        |v: &CostVector| [v.t_first_ms, v.t_all_ms, v.cardinality].map(|x| x.map(f64::to_bits));
    for max_parallel_calls in [1, 3] {
        let config = CostConfig { max_parallel_calls };
        for first_answer in [false, true] {
            let (chosen, estimates) = choose_plan(&plans, m.dcsm(), &config, first_answer);
            let one_by_one: Vec<CostVector> = plans
                .iter()
                .map(|p| estimate_plan(p, m.dcsm(), &config))
                .collect();
            let key = |i: usize| {
                let v = &one_by_one[i];
                let t = if first_answer {
                    v.t_first_ms
                } else {
                    v.t_all_ms
                };
                t.unwrap_or(f64::MAX)
            };
            let cheapest = (0..plans.len()).min_by(|&a, &b| key(a).total_cmp(&key(b)));
            assert_eq!(chosen, cheapest.unwrap_or(0), "{text}: chosen plan");
            let got: Vec<_> = estimates.iter().map(bits).collect();
            let want: Vec<_> = one_by_one.iter().map(bits).collect();
            assert_eq!(got, want, "{text}: estimates");
        }
    }
}

#[test]
fn example_programs_choose_as_their_plans_price_one_by_one() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/programs");
    let mut compared = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/programs exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "hms") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let forms = parse_program(&src).unwrap().declarations.query_forms;
        let queries: Vec<String> = forms.iter().map(query_for).collect();
        // Statistics learned by running every form, cold then warm.
        let m = example_world(&src);
        for query in queries.iter().flat_map(|q| [q, q]) {
            m.query(query.as_str()).unwrap();
        }
        assert!(m.dcsm().records() > 0, "{}", path.display());
        for query in &queries {
            assert_choice_prices_plans_one_by_one(&m, query);
            compared += 1;
        }
    }
    assert!(compared >= 10, "only {compared} queries compared");
}

#[test]
fn the_benchmark_program_chooses_as_its_plans_price_one_by_one() {
    // The benchmark's synthetic sites; `actors` has no source here, so its
    // calls are priced from the prior.
    let relations = |names: &[&str]| -> Vec<RelationSpec> {
        let spec = |n: &&str| RelationSpec::uniform(*n, 8, 2.0);
        names.iter().map(spec).collect()
    };
    let mut net = Network::new(1);
    for (site, names) in [
        ("d0", &["ra", "rc", "cold"][..]),
        ("d1", &["rb"]),
        ("m0", &["ra"]),
    ] {
        let domain = SyntheticDomain::generate(site, 42, &relations(names));
        net.place(Arc::new(domain), profiles::cornell());
    }
    // `Mediator::new`: the analyzer would refuse `actors`' unplaced source.
    let m = Mediator::new(parse_program(BENCHWORLD).unwrap(), net).unwrap();
    let mut queries: Vec<String> = BENCHWORLD_FORMS
        .iter()
        .map(|f| query_for(&QueryForm::parse(f).unwrap()))
        .collect();
    for k in 0..6 {
        queries.extend([
            format!("?- star2('ra_{k}', 'rb_{k}', X)."),
            format!("?- star3('ra_{k}', 'rb_{}', A3, X).", k + 1),
            format!("?- d0_ra('ra_{k}', B)."),
            format!("?- m0_ra('ra_{k}', B)."),
            format!("?- d0_cold('cold_{k}', B)."),
            format!("?- ja(A, {k})."),
            // One function under two constants in every plan: the two
            // steps are different patterns, however alike.
            format!("?- d0_ra('ra_{k}', B) & d0_ra('ra_{}', C).", k + 1),
            format!("?- star2('ra_{k}', 'rb_{k}', X) & ja('ra_{}', X).", k + 1),
        ]);
    }
    for query in queries.iter().filter(|q| !q.contains("actors")) {
        m.query(query.as_str()).unwrap();
    }
    assert!(m.dcsm().records() > 0);
    for query in &queries {
        assert_choice_prices_plans_one_by_one(&m, query);
    }
}

const GOOD: &str = "item(A, B) :- in(B, d1:p_bf(A)).";
const RECURSIVE: &str = "
    edge('a', 'b').
    reach(X, Y) :- edge(X, Y).
    reach(X, Y) :- reach(X, Z) & edge(Z, Y).";
const MIXED: &str = "
    mix('a', 'b').
    mix(A, B) :- in(B, d1:p_bf(A)).";
const UNGROUNDABLE: &str = "item(A, B) :- in(B, d1:p_bf(Z)) & =(A, 1).";

/// What the public, per-call-checking entry says about `src`.
fn public_error(src: &str, query: &str) -> String {
    enumerate_plans_with_pushdowns(
        &parse_program(src).unwrap(),
        &parse_query(query).unwrap(),
        &CimPolicy::cache_everything(),
        Default::default(),
        &[],
    )
    .unwrap_err()
    .to_string()
}

#[test]
fn a_program_that_fails_a_check_fails_every_query_with_the_public_message() {
    for (src, query, needle) in [
        (MIXED, "?- mix(X, Y).", "mixes facts and rules"),
        (RECURSIVE, "?- reach('a', Y).", "is recursive"),
    ] {
        let expect = public_error(src, query);
        assert!(expect.contains(needle), "{expect}");
        // Installing the program is not an error; asking it anything is.
        let serial = served(src);
        let concurrent = served(src).to_concurrent(1);
        for nth in 1..=100 {
            let got = serial.query(query).unwrap_err().to_string();
            assert_eq!(got, expect, "serial, query {nth}");
            let got = concurrent.query(query).unwrap_err().to_string();
            assert_eq!(got, expect, "concurrent, query {nth}");
        }
        assert_eq!(serial.plan(query).unwrap_err().to_string(), expect);
    }
}

#[test]
fn an_ungroundable_rule_is_refused_with_the_public_message() {
    // No mediator ever holds such a program — `Mediator::new` raises the
    // validation error and the analyzer refuses to register it — so there
    // is no query time to compare at; the message is the rewriter's.
    let expect = public_error(UNGROUNDABLE, "?- item(1, B).");
    assert!(expect.contains("can never become ground"), "{expect}");
    let built = Mediator::from_source(UNGROUNDABLE, Network::new(1));
    assert_eq!(built.unwrap_err().to_string(), expect);
    let m = served(GOOD);
    let refused = m.register_source(UNGROUNDABLE, &[]).unwrap_err();
    assert!(matches!(refused, HermesError::Analysis { .. }), "{refused}");
    assert_eq!(m.program(), &parse_program(GOOD).unwrap());
    assert!(!m.query("?- item('p_1', B).").unwrap().rows.is_empty());
}

#[test]
fn the_checked_program_follows_the_installed_program() {
    // Born recursive: the verdict is stored and every query gets it.
    let m = served(RECURSIVE);
    let recursive = public_error(RECURSIVE, "?- reach('a', Y).");
    assert_eq!(
        m.query("?- reach('a', Y).").unwrap_err().to_string(),
        recursive
    );
    // Registering a good program replaces the verdict with the program.
    m.register_source(GOOD, &[]).unwrap();
    assert_eq!(m.program(), &parse_program(GOOD).unwrap());
    let rows = m.query("?- item('p_1', B).").unwrap().rows;
    assert!(!rows.is_empty());
    // The analyzer refuses a recursive program (HA001), so registration
    // cannot go good → recursive: the good program and its index stay.
    let refused = m.register_source(RECURSIVE, &[]).unwrap_err().to_string();
    assert!(refused.contains("HA001"), "{refused}");
    assert_eq!(m.program(), &parse_program(GOOD).unwrap());
    assert_eq!(m.query("?- item('p_1', B).").unwrap().rows, rows);
    // A server split off after a re-registration plans against the new
    // program, not the one the mediator was built with.
    let renamed = GOOD.replace("item", "entry");
    m.register_source(&renamed, &[]).unwrap();
    assert_eq!(m.program(), &parse_program(&renamed).unwrap());
    let server = m.to_concurrent(2);
    assert_eq!(server.query("?- entry('p_1', B).").unwrap().rows, rows);
    let gone = server.query("?- item('p_1', B).").unwrap_err().to_string();
    assert_eq!(gone, m.query("?- item('p_1', B).").unwrap_err().to_string());
    assert!(gone.contains("not defined"), "{gone}");
}
