//! A program's `%!` declarations are installed with it: `Mediator::from_source`
//! adds the declared invariants to the CIM and routes calls as `%! cache`
//! and `%! volatile` say. And the analyzer, which reads the same
//! declarations, agrees with what the mediator then does: HA071 with the
//! subplan cache's tickets, HA060 with the cache-servable plans, HA010 with
//! planning.

mod common;

use common::{canned_network, OffReactor};
use hermes::analysis::Locus;
use hermes::core::{cache_servable_plans, PlanStep, Route};
use hermes::domains::synthetic::{RelationSpec, SyntheticDomain};
use hermes::domains::video::gen::rope_store;
use hermes::net::profiles;
use hermes::{
    parse_program, AnalysisReport, CimPolicy, DiagCode, Mediator, NetServer, Network, Plan,
    QueryForm, QueryFrame, ServeConfig, WireClient,
};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

const NARROW: &str = "?- in_scene('rope', 10, 40, O).";
const WIDE: &str = "?- in_scene('rope', 0, 600, O).";

fn video_catalog() -> Mediator {
    let src = include_str!("../examples/programs/video_catalog.hms");
    let mut net = Network::new(1996);
    net.place(Arc::new(OffReactor::new(rope_store())), profiles::italy());
    Mediator::from_source(src, net).expect("video_catalog.hms installs")
}

#[test]
fn a_declared_invariant_serves_a_partial_hit_in_process() {
    let m = video_catalog();
    m.query(NARROW).unwrap();
    let wide = m.query(WIDE).unwrap();
    assert_eq!(wide.stats.cim_partial, 1, "{:?}", wide.stats);
    assert_eq!(m.caches().stats().cim.partial_hits, 1);
}

#[test]
fn a_declared_invariant_serves_a_partial_hit_over_the_wire() {
    let server = Arc::new(video_catalog().to_concurrent(2));
    let net = NetServer::bind(server, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = WireClient::connect(net.addr().to_string()).unwrap();
    client.query(QueryFrame::new(NARROW)).unwrap();
    let wide = client.query(QueryFrame::new(WIDE)).unwrap();
    assert!(!wide.rows.is_empty());
    assert_eq!(net.mediator().caches().stats().cim.partial_hits, 1);
    net.shutdown();
}

/// A mediator over a synthetic `d1` that answers `p_bf`.
fn item_world(declarations: &str) -> Mediator {
    let domain = SyntheticDomain::generate("d1", 7, &[RelationSpec::uniform("p", 8, 2.0)]);
    let mut net = Network::new(7);
    net.place(Arc::new(domain), profiles::cornell());
    let src = format!("{declarations}\nitem(A, B) :- in(B, d1:p_bf(A)).\n");
    Mediator::from_source(&src, net).unwrap()
}

#[test]
fn a_volatile_function_is_called_every_time_and_never_materialized() {
    let m = item_world("%! volatile d1:p_bf");
    m.caches().policy().share_subplans(true).apply().unwrap();
    let calls: u64 = (0..2)
        .map(|_| m.query("?- item('p_1', B).").unwrap().stats.actual_calls)
        .sum();
    assert_eq!(calls, 2);
    assert_eq!(m.caches().stats().subplans.entries, 0);
    // Without the declaration the second ask is a cache hit.
    let cached = item_world("");
    let calls: u64 = (0..2)
        .map(|_| {
            cached
                .query("?- item('p_1', B).")
                .unwrap()
                .stats
                .actual_calls
        })
        .sum();
    assert_eq!(calls, 1);
}

#[test]
fn cache_never_routes_every_plan_step_direct() {
    let m = item_world("%! cache never");
    let planned = m.plan("?- item('p_1', B) & item('p_2', C).").unwrap();
    let routes: Vec<Route> = planned
        .plans
        .iter()
        .flat_map(|plan| &plan.steps)
        .filter_map(|step| match step {
            PlanStep::Call { route, .. } => Some(*route),
            _ => None,
        })
        .collect();
    assert!(routes.len() >= 4, "{routes:?}");
    assert!(routes.iter().all(|r| *r == Route::Direct), "{routes:?}");
}

#[test]
fn a_later_program_without_cache_lines_keeps_the_routing() {
    let m = item_world("%! cache never");
    m.register_source("item(A, B) :- in(B, d1:p_bf(A)).", &[])
        .unwrap();
    let plan = m.plan("?- item('p_1', B).").unwrap();
    assert!(cache_servable_plans(&plan.plans).is_empty());
}

/// One query per form: a constant at every bound position.
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

/// Indices of the rules a form's predicate reaches.
fn reachable_rules(program: &hermes::lang::Program, pred: &str) -> BTreeSet<usize> {
    let mut preds: Vec<String> = vec![pred.to_string()];
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut rules = BTreeSet::new();
    while let Some(pred) = preds.pop() {
        if !seen.insert(pred.clone()) {
            continue;
        }
        for (i, rule) in program.rules.iter().enumerate() {
            if rule.head.name.as_ref() == pred {
                rules.insert(i);
                for atom in &rule.body {
                    if let hermes::lang::BodyAtom::Pred(p) = atom {
                        preds.push(p.name.to_string());
                    }
                }
            }
        }
    }
    rules
}

fn has(report: &AnalysisReport, code: DiagCode, at: impl Fn(&Locus) -> bool) -> bool {
    report
        .diagnostics
        .iter()
        .any(|d| d.code == code && at(&d.locus))
}

/// The mediator a file describes. A file the analyzer refuses is installed
/// with `Mediator::new`, and its declared routing applied the way
/// `register_program` applies it; `None` when even `new` refuses it (a
/// rule that can never run).
fn installed(src: &str) -> Option<Mediator> {
    if let Ok(m) = Mediator::from_source(src, canned_network(src)) {
        return Some(m);
    }
    let program = parse_program(src).unwrap();
    let mut routing = CimPolicy::cache_everything();
    routing.declare(&program.declarations);
    let m = Mediator::new(program, canned_network(src)).ok()?;
    m.caches().policy().routing(routing).apply().unwrap();
    Some(m)
}

#[test]
fn the_analyzer_judges_what_the_mediator_does() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files = 0;
    let mut forms_checked = 0;
    let mut seen = [false; 3];
    for dir in ["examples/programs", "tests/fixtures"] {
        for entry in std::fs::read_dir(root.join(dir)).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|e| e != "hms") {
                continue;
            }
            let src = std::fs::read_to_string(&path).unwrap();
            let name = path.display();
            files += 1;
            let program = parse_program(&src).unwrap();
            // A file that declares no form is asked each predicate with
            // every position bound, and with every position free.
            let implicit: Vec<QueryForm> = if program.declarations.query_forms.is_empty() {
                let heads: BTreeSet<_> = program.rules.iter().map(|r| r.head.key()).collect();
                heads
                    .into_iter()
                    .flat_map(|(pred, arity)| {
                        [true, false].map(|b| QueryForm::new(pred.clone(), vec![b; arity]))
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let forms: Vec<QueryForm> = program
                .declarations
                .query_forms
                .iter()
                .chain(&implicit)
                .cloned()
                .collect();
            let Some(m) = installed(&src) else {
                let report = hermes::analyze_source(&src).unwrap();
                assert!(report.has_code(DiagCode::UngroundableVariable), "{name}");
                continue;
            };
            let report = m.analyze_materialization(&implicit);
            // A recursive program, or one mixing facts and rules, fails
            // every query with the check's verdict.
            let program_refused = has(&report, DiagCode::RecursiveCycle, |_| true)
                || has(&report, DiagCode::MixedFactsAndRules, |_| true);
            let mut servable = false;
            let mut planned_any = false;
            for form in &forms {
                let query = query_for(form);
                let planned = m.plan(&query);
                let ha010 = has(
                    &report,
                    DiagCode::InfeasibleAdornment,
                    |l| matches!(l, Locus::QueryForm { text } if *text == form.to_string()),
                );
                assert_eq!(
                    planned.is_err(),
                    ha010 || program_refused,
                    "{name} {form}: HA010 {ha010}, planning {:?}",
                    planned.as_ref().err()
                );
                seen[0] |= ha010;
                let Ok(planned) = planned else { continue };
                planned_any = true;
                let reach = reachable_rules(&m.program(), &form.pred);
                let ha071 = has(
                    &report,
                    DiagCode::MaterializeVolatile,
                    |l| matches!(l, Locus::Rule { index, .. } if reach.contains(index)),
                );
                let refused = planned
                    .plans
                    .iter()
                    .any(|plan: &Plan| m.caches().subplans().ticket(plan).is_none());
                assert_eq!(ha071, refused, "{name} {form}: HA071 vs tickets");
                seen[1] |= ha071;
                servable |= !cache_servable_plans(&planned.plans).is_empty();
                forms_checked += 1;
            }
            // A program none of whose forms plans has nothing for the
            // cache-only tier to serve or refuse.
            if planned_any {
                let ha060 = has(&report, DiagCode::CacheStarved, |_| true);
                assert_eq!(ha060, !servable, "{name}: HA060 vs cache-servable plans");
                seen[2] |= ha060;
            }
        }
    }
    assert!(files >= 14, "only {files} files");
    assert!(forms_checked >= 15, "only {forms_checked} forms planned");
    assert_eq!(seen, [true; 3], "each finding fires on some file");
}
