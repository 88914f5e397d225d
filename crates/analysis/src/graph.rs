//! Pass 1 — predicate dependency graph.
//!
//! Builds the graph whose nodes are defined predicate identities
//! (`name/arity`) and whose edges go from a rule head to every IDB predicate
//! its body references, then checks:
//!
//! * **HA001** recursion (an SCC of size > 1 or a self-loop) — the
//!   nested-loops rewriter/executor flattens rules and cannot terminate on
//!   recursive programs;
//! * **HA002** references to predicates no rule defines;
//! * **HA003** predicates unreachable from every declared query form
//!   (dead rules) — only checked when query forms are declared;
//! * **HA004** predicates that mix ground facts and proper rules;
//! * **HA011** declared query forms whose every plan needs more rule
//!   expansions than the rewriter's [`MAX_DEPTH`] cap allows.
//!
//! The same graph and the same Tarjan pass give pass 7 its recursive
//! predicates and the rewriter its recursion verdict
//! ([`first_predicate_reaching_recursion`]): this module holds the
//! workspace's one walk of the predicate graph.

use crate::diagnostic::{DiagCode, Diagnostic, Locus};
use hermes_lang::QueryForm;
use hermes_lang::{BodyAtom, Program, RuleIndex, MAX_DEPTH};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

type PredKey = (Arc<str>, usize);
type Edges = BTreeMap<PredKey, BTreeSet<PredKey>>;

fn fmt_key(k: &PredKey) -> String {
    format!("{}/{}", k.0, k.1)
}

/// The dependency graph every walk here reads: each defined predicate,
/// with an edge from a rule head to every defined predicate its body
/// references.
fn dependency_graph(program: &Program) -> Edges {
    let mut edges: Edges = program
        .defined_predicates()
        .into_iter()
        .map(|k| (k, BTreeSet::new()))
        .collect();
    for rule in &program.rules {
        for atom in &rule.body {
            if let BodyAtom::Pred(p) = atom {
                let k = p.key();
                if edges.contains_key(&k) {
                    edges.entry(rule.head.key()).or_default().insert(k);
                }
            }
        }
    }
    edges
}

/// A strongly connected component is recursive when it has more than one
/// predicate or its one predicate depends on itself.
fn is_cycle(scc: &[PredKey], edges: &Edges) -> bool {
    scc.len() > 1 || edges[&scc[0]].contains(&scc[0])
}

/// Runs the pass.
pub(crate) fn run(program: &Program, query_forms: &[QueryForm], out: &mut Vec<Diagnostic>) {
    let edges = dependency_graph(program);

    // HA002: body references no rule defines.
    for (index, rule) in program.rules.iter().enumerate() {
        for atom in &rule.body {
            let BodyAtom::Pred(p) = atom else { continue };
            let k = p.key();
            if edges.contains_key(&k) {
                continue;
            }
            let mut d = Diagnostic::new(
                DiagCode::UndefinedPredicate,
                Locus::Rule {
                    index,
                    head: rule.head.to_string(),
                },
                format!("body references `{}`, which no rule defines", fmt_key(&k)),
            );
            let same_name: Vec<String> = edges
                .keys()
                .filter(|(n, _)| n == &k.0)
                .map(fmt_key)
                .collect();
            if !same_name.is_empty() {
                d = d.with_suggestion(format!(
                    "a predicate with this name exists at a \
                     different arity: {}",
                    same_name.join(", ")
                ));
            }
            out.push(d);
        }
    }

    // HA001: strongly connected components of the defined-predicate graph.
    let components = sccs(&edges);
    for scc in &components {
        if is_cycle(scc, &edges) {
            let cycle: Vec<String> = scc.iter().chain(scc.first()).map(fmt_key).collect();
            out.push(
                Diagnostic::new(
                    DiagCode::RecursiveCycle,
                    Locus::Program,
                    format!(
                        "recursive cycle {}; the rewriter flattens rules \
                         and cannot terminate on recursion",
                        cycle.join(" -> ")
                    ),
                )
                .with_suggestion(
                    "break the cycle: bounded traversals must be unrolled \
                     into distinct predicates",
                ),
            );
        }
    }

    // HA004: a predicate defined by both facts and proper rules.
    let index = RuleIndex::new(program);
    for mixed in index.iter().filter(|defs| defs.is_mixed()) {
        let defs = mixed.rule_positions();
        let facts = defs
            .iter()
            .filter(|&&pos| program.rules[pos].body.is_empty())
            .count();
        out.push(
            Diagnostic::new(
                DiagCode::MixedFactsAndRules,
                Locus::Program,
                format!(
                    "predicate `{}/{}` mixes facts and rules ({} fact(s), \
                     {} rule(s))",
                    mixed.name(),
                    mixed.arity(),
                    facts,
                    defs.len() - facts
                ),
            )
            .with_suggestion(
                "move the facts into a separate predicate and add a \
                 bridging rule",
            ),
        );
    }

    // HA003: reachability from declared query forms.
    if !query_forms.is_empty() {
        let mut reached: BTreeSet<PredKey> = BTreeSet::new();
        let mut stack: Vec<PredKey> = query_forms
            .iter()
            .map(|f| (f.pred.clone(), f.bound.len()))
            .filter(|k| edges.contains_key(k))
            .collect();
        while let Some(k) = stack.pop() {
            if !reached.insert(k.clone()) {
                continue;
            }
            if let Some(succ) = edges.get(&k) {
                stack.extend(succ.iter().cloned());
            }
        }
        for key in edges.keys().filter(|k| !reached.contains(*k)) {
            out.push(
                Diagnostic::new(
                    DiagCode::UnreachablePredicate,
                    Locus::Program,
                    format!(
                        "predicate `{}` is unreachable from every declared \
                         query form (dead rules)",
                        fmt_key(key)
                    ),
                )
                .with_suggestion("delete the rules or declare a query form that uses them"),
            );
        }
    }

    // HA011: declared query forms the rewriter's expansion cap cuts off.
    if !query_forms.is_empty() {
        let needed = expansions_needed(program, &edges, &components);
        for form in query_forms {
            let key = (form.pred.clone(), form.bound.len());
            let Some(&Some(need)) = needed.get(&key) else {
                continue;
            };
            if need <= MAX_DEPTH {
                continue;
            }
            out.push(
                Diagnostic::new(
                    DiagCode::UnfoldingTooDeep,
                    Locus::QueryForm {
                        text: form.to_string(),
                    },
                    format!(
                        "every plan for `{}` needs at least {need} rule \
                         expansions, and the rewriter stops at max_depth \
                         ({MAX_DEPTH}): no query of this form can plan",
                        fmt_key(&key)
                    ),
                )
                .with_suggestion(
                    "fold chains of one-atom rules into fewer rules, so a \
                     plan unfolds fewer rule-defined atoms",
                ),
            );
        }
    }
}

/// The fewest rule expansions a plan for each defined predicate takes —
/// what the rewriter's [`MAX_DEPTH`] cap counts along a search path. A
/// predicate defined by facts alone needs none, as does an undefined one
/// (HA002 reports it); a rule-defined one needs one plus, over its rules,
/// the least sum of what its body's predicate atoms need. A predicate on
/// or above a recursive cycle (HA001) has no count. One pass over
/// Tarjan's components, which come successors first.
fn expansions_needed(
    program: &Program,
    edges: &Edges,
    components: &[Vec<PredKey>],
) -> BTreeMap<PredKey, Option<usize>> {
    let mut bodies: BTreeMap<PredKey, Vec<&[BodyAtom]>> = BTreeMap::new();
    for rule in program.rules.iter().filter(|r| !r.body.is_empty()) {
        bodies.entry(rule.head.key()).or_default().push(&rule.body);
    }
    let mut needed: BTreeMap<PredKey, Option<usize>> = BTreeMap::new();
    for scc in components {
        if is_cycle(scc, edges) {
            needed.extend(scc.iter().map(|k| (k.clone(), None)));
            continue;
        }
        let key = &scc[0];
        let need = match bodies.get(key) {
            None => Some(0),
            Some(rules) => rules
                .iter()
                .filter_map(|body| {
                    body.iter()
                        .filter_map(|atom| match atom {
                            BodyAtom::Pred(p) => Some(p.key()),
                            _ => None,
                        })
                        .try_fold(0usize, |sum, k| {
                            Some(sum + needed.get(&k).copied().unwrap_or(Some(0))?)
                        })
                })
                .min()
                .map(|least| least + 1),
        };
        needed.insert(key.clone(), need);
    }
    needed
}

/// The predicate identities sitting on a recursive SCC (size > 1, or a
/// self-loop). Shared with the materialization pass (`HA072`), which must
/// not snapshot a fixpoint.
pub(crate) fn recursive_predicates(program: &Program) -> BTreeSet<PredKey> {
    let edges = dependency_graph(program);
    sccs(&edges)
        .into_iter()
        .filter(|scc| is_cycle(scc, &edges))
        .flatten()
        .collect()
}

/// The predicates from which the dependency graph reaches a recursive SCC,
/// the SCCs' own members included. One pass over Tarjan's output: it lists
/// components in reverse topological order, so every successor outside a
/// component has its answer before the component is read.
pub(crate) fn reaching_recursion(program: &Program) -> BTreeSet<PredKey> {
    let edges = dependency_graph(program);
    let mut reaching = BTreeSet::new();
    for scc in sccs(&edges) {
        if is_cycle(&scc, &edges)
            || scc
                .iter()
                .any(|v| edges[v].iter().any(|w| reaching.contains(w)))
        {
            reaching.extend(scc);
        }
    }
    reaching
}

/// The first predicate, in name order, from which the dependency graph
/// reaches a recursive cycle, or `None` when the program is not
/// recursive: the predicate the rewriter names when it rejects a program.
pub fn first_predicate_reaching_recursion(program: &Program) -> Option<(Arc<str>, usize)> {
    reaching_recursion(program).pop_first()
}

/// Tarjan's strongly-connected-components algorithm. The depth-first
/// walk keeps its path on an explicit stack of frames, so a rule chain of
/// any length costs heap, not call frames.
fn sccs(edges: &Edges) -> Vec<Vec<PredKey>> {
    /// One predicate on the walk's path and its successors left to follow.
    struct Frame<'g> {
        node: &'g PredKey,
        succ: std::collections::btree_set::Iter<'g, PredKey>,
    }
    struct Walk<'g> {
        edges: &'g Edges,
        no_succ: &'g BTreeSet<PredKey>,
        indices: BTreeMap<&'g PredKey, usize>,
        lowlink: BTreeMap<&'g PredKey, usize>,
        stack: Vec<&'g PredKey>,
        on_stack: BTreeSet<&'g PredKey>,
        path: Vec<Frame<'g>>,
    }
    impl<'g> Walk<'g> {
        /// First visit of `v`: number it and start on its successors.
        fn enter(&mut self, v: &'g PredKey) {
            let index = self.indices.len();
            self.indices.insert(v, index);
            self.lowlink.insert(v, index);
            self.stack.push(v);
            self.on_stack.insert(v);
            self.path.push(Frame {
                node: v,
                succ: self.edges.get(v).unwrap_or(self.no_succ).iter(),
            });
        }

        fn lower(&mut self, v: &'g PredKey, to: usize) {
            let vl = self.lowlink.get_mut(v).expect("entered before lowered");
            *vl = (*vl).min(to);
        }
    }

    let no_succ = BTreeSet::new();
    let mut walk = Walk {
        edges,
        no_succ: &no_succ,
        indices: BTreeMap::new(),
        lowlink: BTreeMap::new(),
        stack: Vec::new(),
        on_stack: BTreeSet::new(),
        path: Vec::new(),
    };
    let mut out = Vec::new();
    for root in edges.keys() {
        if !walk.indices.contains_key(root) {
            walk.enter(root);
        }
        while let Some(frame) = walk.path.last_mut() {
            let v = frame.node;
            match frame.succ.next() {
                Some(w) if !walk.indices.contains_key(w) => walk.enter(w),
                Some(w) => {
                    if walk.on_stack.contains(w) {
                        walk.lower(v, walk.indices[w]);
                    }
                }
                // Every successor of `v` is done: close its component if
                // it is a root, then hand its lowlink to the frame below.
                None => {
                    walk.path.pop();
                    let vl = walk.lowlink[v];
                    if vl == walk.indices[v] {
                        let mut comp = Vec::new();
                        while let Some(w) = walk.stack.pop() {
                            walk.on_stack.remove(w);
                            comp.push(w.clone());
                            if w == v {
                                break;
                            }
                        }
                        comp.reverse();
                        out.push(comp);
                    }
                    if let Some(below) = walk.path.last() {
                        walk.lower(below.node, vl);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_lang::parse_program;

    fn diags(src: &str, forms: &[QueryForm]) -> Vec<Diagnostic> {
        let p = parse_program(src).unwrap();
        let mut out = Vec::new();
        run(&p, forms, &mut out);
        out
    }

    #[test]
    fn ha001_direct_and_mutual_recursion() {
        let out = diags("p(A) :- p(A).", &[]);
        assert!(out.iter().any(|d| d.code == DiagCode::RecursiveCycle));

        let out = diags("p(A) :- q(A).\n q(A) :- p(A).\n", &[]);
        let rec: Vec<_> = out
            .iter()
            .filter(|d| d.code == DiagCode::RecursiveCycle)
            .collect();
        assert_eq!(rec.len(), 1);
        assert!(rec[0].message.contains("p/1"));
        assert!(rec[0].message.contains("q/1"));
    }

    /// Tarjan's algorithm as the textbook writes it, one call per node:
    /// the order of components, and of predicates inside one, that the
    /// HA001 message was always built from.
    fn sccs_by_recursion(edges: &BTreeMap<PredKey, BTreeSet<PredKey>>) -> Vec<Vec<PredKey>> {
        #[derive(Default)]
        struct State {
            indices: BTreeMap<PredKey, usize>,
            lowlink: BTreeMap<PredKey, usize>,
            stack: Vec<PredKey>,
            out: Vec<Vec<PredKey>>,
        }
        fn visit(s: &mut State, edges: &BTreeMap<PredKey, BTreeSet<PredKey>>, v: &PredKey) {
            let index = s.indices.len();
            s.indices.insert(v.clone(), index);
            s.lowlink.insert(v.clone(), index);
            s.stack.push(v.clone());
            for w in edges.get(v).into_iter().flatten() {
                let reached = if !s.indices.contains_key(w) {
                    visit(s, edges, w);
                    s.lowlink[w]
                } else if s.stack.contains(w) {
                    s.indices[w]
                } else {
                    continue;
                };
                let low = s.lowlink[v].min(reached);
                s.lowlink.insert(v.clone(), low);
            }
            if s.lowlink[v] == s.indices[v] {
                let at = s.stack.iter().position(|w| w == v).unwrap();
                let comp = s.stack.split_off(at);
                s.out.push(comp);
            }
        }
        let mut s = State::default();
        for v in edges.keys() {
            if !s.indices.contains_key(v) {
                visit(&mut s, edges, v);
            }
        }
        s.out
    }

    #[test]
    fn explicit_stack_walk_finds_the_components_recursion_finds() {
        const N: usize = 9;
        let key = |i: usize| -> PredKey { (Arc::from(format!("p{i}")), 1) };
        let mut rng = hermes_common::Rng64::new(1996);
        let mut recursive = 0;
        for _ in 0..300 {
            let mut edges: BTreeMap<PredKey, BTreeSet<PredKey>> = BTreeMap::new();
            for from in 0..N {
                // Some predicates have no entry at all (never a head).
                if rng.chance(0.8) {
                    edges.entry(key(from)).or_default();
                }
                for to in 0..N {
                    if rng.chance(0.15) {
                        edges.entry(key(from)).or_default().insert(key(to));
                    }
                }
            }
            let got = sccs(&edges);
            assert_eq!(got, sccs_by_recursion(&edges), "{edges:?}");
            recursive += got.iter().filter(|c| c.len() > 1).count();
        }
        assert!(recursive > 100, "only {recursive} multi-node components");
    }

    #[test]
    fn ha002_undefined_predicate_with_arity_hint() {
        let out = diags("p(A) :- q(A, 'x').\n q(A) :- in(A, d:f()).\n", &[]);
        let miss: Vec<_> = out
            .iter()
            .filter(|d| d.code == DiagCode::UndefinedPredicate)
            .collect();
        assert_eq!(miss.len(), 1);
        assert!(miss[0].message.contains("q/2"));
        assert!(miss[0].suggestion.as_deref().unwrap().contains("q/1"));
    }

    #[test]
    fn ha003_unreachable_only_with_query_forms() {
        let src = "p(A) :- in(A, d:f()).\n dead(A) :- in(A, d:g()).\n";
        assert!(diags(src, &[]).is_empty());
        let forms = vec![QueryForm::parse("p(f)").unwrap()];
        let out = diags(src, &forms);
        let dead: Vec<_> = out
            .iter()
            .filter(|d| d.code == DiagCode::UnreachablePredicate)
            .collect();
        assert_eq!(dead.len(), 1);
        assert!(dead[0].message.contains("dead/1"));
    }

    #[test]
    fn ha004_mixed_facts_and_rules() {
        let out = diags("p('a').\n p(A) :- in(A, d:f()).\n", &[]);
        assert!(out.iter().any(|d| d.code == DiagCode::MixedFactsAndRules));
    }

    #[test]
    fn clean_layered_program_has_no_graph_findings() {
        let out = diags(
            "m(A, C) :- p(A, B) & q(B, C).\n\
             p(A, B) :- in(Ans, d1:p_ff()) & =(Ans.1, A) & =(Ans.2, B).\n\
             q(B, C) :- in(C, d2:q_bf(B)).\n",
            &[QueryForm::parse("m(f, f)").unwrap()],
        );
        assert!(out.is_empty(), "{out:?}");
    }
}
