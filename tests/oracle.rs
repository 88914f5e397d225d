//! Generated programs against a reference evaluator that shares no code
//! with the planner or the executor (`tests/common/oracle.rs`).
//!
//! A seeded generator writes non-recursive programs over two synthetic
//! domains and one relational domain: two or three layers of predicates,
//! one to three rules each, bodies mixing calls in every binding pattern,
//! lower predicates, a fact table, `=` and `<` conditions (some of them
//! pushed into the relational source), repeated variables and constants
//! from the sources' values, and two subset invariants, so a cache primed
//! with subsets of the scans serves partial hits. Every head is queried under random adornments.
//!
//! For each program and query, the answer set must be the evaluator's:
//! every plan of the list run alone on a fresh mediator, every query run
//! in turn and then again on one warm mediator that caches every call and
//! shares subplans, and each query on its `to_concurrent(4)` copy. A
//! refused query must fail as having no executable ordering; how many of
//! those the analyzer can explain is printed.

mod common;

use common::oracle::{self, Sources};
use hermes::analysis::explain_infeasible_query;
use hermes::common::Rng64;
use hermes::core::{Planned, PushdownRule};
use hermes::domains::relational::{Column, ColumnType, RelationalDomain, Schema, Table};
use hermes::domains::synthetic::{RelationSpec, SyntheticDomain};
use hermes::domains::Domain;
use hermes::lang::{parse_program, parse_query, validate_program, Program};
use hermes::{profiles, CimPolicy, Mediator, Network, Value};
use std::fmt::Write;
use std::sync::Arc;

/// Program–query pairs with an executable plan to check at least.
const PAIRS: usize = 300;

/// The sources one program runs over, and the evaluator's view of them.
struct World {
    s1: Arc<SyntheticDomain>,
    s2: Arc<SyntheticDomain>,
    rel: Arc<RelationalDomain>,
    sources: Sources,
}

impl World {
    fn new(rng: &mut Rng64) -> World {
        let spec = |name: &str| RelationSpec::uniform(name, 4, 3.0);
        let s1 = SyntheticDomain::generate("s1", rng.next_u64(), &[spec("r"), spec("q")]);
        let s2 = SyntheticDomain::generate("s2", rng.next_u64(), &[spec("w")]);
        let schema = Schema::new(vec![
            Column::new("k", ColumnType::Int),
            Column::new("v", ColumnType::Int),
            Column::new("name", ColumnType::Str),
        ])
        .unwrap();
        let mut table = Table::new("t", schema);
        for _ in 0..6 {
            let row = vec![
                Value::Int(rng.range_i64(0, 8)),
                Value::Int(rng.range_i64(0, 8)),
                Value::str(format!("r_{}", rng.range_u64(0, 4))),
            ];
            table.insert(row).unwrap();
        }
        let rel = RelationalDomain::new("rel");
        rel.add_table(table);
        let mut sources = Sources::default();
        sources.synthetic(&s1, &["r", "q"]);
        sources.synthetic(&s2, &["w"]);
        sources.relational(&rel, &["t"]);
        World {
            s1: Arc::new(s1),
            s2: Arc::new(s2),
            rel,
            sources,
        }
    }

    fn network(&self) -> Network {
        let mut net = Network::new(7);
        net.place(self.s1.clone(), profiles::maryland());
        net.place(self.s2.clone(), profiles::cornell());
        net.place(self.rel.clone(), profiles::cornell());
        net
    }

    /// A mediator over this world, with the relational pushdowns.
    fn mediator(&self, src: &str) -> Mediator {
        let m = Mediator::from_source(src, self.network()).unwrap();
        m.add_pushdown(PushdownRule::relational("rel"));
        m
    }
}

/// What a variable ranges over: the sources' integers, or the keys of
/// one synthetic relation (`r_0`…`r_3`).
#[derive(Clone, Copy, PartialEq)]
enum Sort {
    Int,
    Key(&'static str),
}

/// One atom of a predicate's definition, before it is written as rules.
enum Atom {
    /// `(a, b)` in the synthetic relation `rel` of domain `dom`.
    Pair(&'static str, &'static str, String, String),
    /// A row of table `t`: its `k`, its `name`, and a filter on its `v`.
    Row(String, String, Option<(&'static str, String)>),
    /// A row of the fact table `fr`.
    Fact(String, String),
    /// A lower predicate.
    Pred(String, Vec<String>),
    /// A comparison.
    Cond(&'static str, String, String),
}

/// The generator's state while it writes one predicate's definition.
struct Body<'g> {
    rng: &'g mut Rng64,
    vars: Vec<(String, Sort)>,
    atoms: Vec<Atom>,
}

impl Body<'_> {
    fn constant(&mut self, sort: Sort) -> String {
        match sort {
            Sort::Int => self.rng.range_u64(0, 8).to_string(),
            Sort::Key(rel) => format!("'{rel}_{}'", self.rng.range_u64(0, 4)),
        }
    }

    fn fresh(&mut self, sort: Sort) -> String {
        let name = format!("V{}", self.vars.len());
        self.vars.push((name.clone(), sort));
        name
    }

    fn existing(&mut self, sort: Sort) -> Option<String> {
        let names: Vec<&String> = self
            .vars
            .iter()
            .filter(|(_, s)| *s == sort)
            .map(|(n, _)| n)
            .collect();
        (!names.is_empty()).then(|| self.rng.pick(&names).to_string())
    }

    /// A term a condition reads: a variable in use, or a constant.
    fn input(&mut self, sort: Sort) -> String {
        match self.existing(sort) {
            Some(v) if self.rng.chance(0.75) => v,
            _ => self.constant(sort),
        }
    }

    /// A term of a relation: a new variable, one in use (a join, or a
    /// membership probe), or a constant.
    fn output(&mut self, sort: Sort) -> String {
        let roll = self.rng.f64();
        match self.existing(sort) {
            Some(v) if roll < 0.35 => v,
            _ if roll < 0.43 => self.constant(sort),
            _ => self.fresh(sort),
        }
    }

    /// One relation atom.
    fn generator(&mut self, lower: &[(String, Vec<Sort>)]) {
        let (dom, rel) = *self.rng.pick(&[("s1", "r"), ("s1", "q"), ("s2", "w")]);
        let atom = match self
            .rng
            .range_usize(0, if lower.is_empty() { 5 } else { 7 })
        {
            0 | 1 => Atom::Pair(
                dom,
                rel,
                self.output(Sort::Key(rel)),
                self.output(Sort::Int),
            ),
            2 => {
                let (k, name) = (self.output(Sort::Int), self.output(Sort::Key("r")));
                let filter = self.rng.chance(0.6).then(|| {
                    let op = *self.rng.pick(&["<", "<=", ">"]);
                    (op, self.input(Sort::Int))
                });
                Atom::Row(k, name, filter)
            }
            3 => Atom::Fact(self.output(Sort::Key("r")), self.output(Sort::Int)),
            4 => Atom::Pair(
                "s1",
                "r",
                self.output(Sort::Key("r")),
                self.output(Sort::Int),
            ),
            _ => {
                let (name, sorts) = self.rng.pick(lower).clone();
                Atom::Pred(name, sorts.iter().map(|&s| self.output(s)).collect())
            }
        };
        self.atoms.push(atom);
    }

    /// A condition over the variables in use.
    fn condition(&mut self) {
        let sort = if self.rng.chance(0.7) {
            Sort::Int
        } else {
            Sort::Key("r")
        };
        let Some(x) = self.existing(sort) else {
            return;
        };
        let y = match self.input(sort) {
            y if y == x => self.constant(sort),
            y => y,
        };
        let op = if sort == Sort::Int && self.rng.chance(0.6) {
            "<"
        } else {
            "="
        };
        self.atoms.push(Atom::Cond(op, x, y));
    }

    /// The definition written as one rule body: each relation atom through
    /// one of its sources' access paths (`scans` takes the scan every time,
    /// which binds every term).
    fn write(&mut self, scans: bool) -> String {
        let mut out: Vec<String> = Vec::new();
        for (i, atom) in self.atoms.iter().enumerate() {
            let t = format!("T{i}");
            let mode = if scans { 0 } else { self.rng.range_usize(0, 4) };
            match atom {
                Atom::Pair(dom, rel, a, b) => match mode {
                    0 => {
                        out.push(format!("in({t}, {dom}:{rel}_ff())"));
                        out.push(format!("=({t}.a, {a})"));
                        out.push(format!("=({t}.b, {b})"));
                    }
                    1 => out.push(format!("in({b}, {dom}:{rel}_bf({a}))")),
                    2 => out.push(format!("in({a}, {dom}:{rel}_fb({b}))")),
                    _ => out.push(format!("in({t}, {dom}:{rel}_bb({a}, {b}))")),
                },
                Atom::Row(k, name, filter) => {
                    out.push(match mode {
                        0 | 1 => format!("in({t}, rel:all('t'))"),
                        2 => format!("in({t}, rel:select_eq('t', 'k', {k}))"),
                        _ => format!("in({t}, rel:select_eq('t', 'name', {name}))"),
                    });
                    out.push(format!("=({t}.k, {k})"));
                    out.push(format!("=({t}.name, {name})"));
                    if let Some((op, v)) = filter {
                        out.push(format!("{op}({t}.v, {v})"));
                    }
                }
                Atom::Fact(a, b) => out.push(format!("fr({a}, {b})")),
                Atom::Pred(name, args) => out.push(format!("{name}({})", args.join(", "))),
                Atom::Cond(op, x, y) => out.push(format!("{op}({x}, {y})")),
            }
        }
        out.join(" & ")
    }
}

/// A program and, per head, its signature. Each predicate has one
/// definition, written as one to three rules that reach its relations
/// through different access paths, so every rule computes the same
/// answers (the access-path reading of a predicate's rules).
fn program(rng: &mut Rng64) -> (String, Vec<(String, Vec<Sort>)>) {
    let mut src = String::from(
        "%! invariant A = A & B = B => s1:r_ff() >= s1:r_bb(A, B).\n\
         %! invariant V = V => rel:all(T) >= rel:select_eq(T, C, V).\n\
         fr('r_1', 3).\nfr('r_2', 5).\nfr('r_3', 3).\n\
         rbb(A, B) :- in(T, s1:r_bb(A, B)).\n\
         tsel(K, N) :- in(T, rel:select_eq('t', 'k', K)) & =(T.name, N).\n",
    );
    let mut heads: Vec<(String, Vec<Sort>)> = Vec::new();
    for layer in 0..rng.range_usize(2, 4) {
        let lower = heads.clone();
        for p in 0..rng.range_usize(1, 3) {
            let name = format!("p{layer}{p}");
            let sorts: Vec<Sort> = (0..rng.range_usize(1, 4))
                .map(|_| *rng.pick(&[Sort::Int, Sort::Int, Sort::Key("r")]))
                .collect();
            let mut body = Body {
                rng,
                vars: Vec::new(),
                atoms: Vec::new(),
            };
            let head: Vec<String> = sorts.iter().map(|&s| body.fresh(s)).collect();
            for _ in 0..body.rng.range_usize(1, 3) {
                body.generator(&lower);
            }
            for _ in 0..body.rng.range_usize(0, 2) {
                body.condition();
            }
            // Range restriction: a head variable no relation atom binds
            // is tied to a value of its sort.
            for (h, &sort) in head.iter().zip(&sorts) {
                let binds = |atom: &Atom| match atom {
                    Atom::Pair(_, _, a, b) | Atom::Fact(a, b) | Atom::Row(a, b, _) => {
                        a == h || b == h
                    }
                    Atom::Pred(_, args) => args.contains(h),
                    Atom::Cond(..) => false,
                };
                if !body.atoms.iter().any(binds) {
                    let c = body.constant(sort);
                    body.atoms.push(Atom::Cond("=", h.clone(), c));
                }
            }
            let head = format!("{name}({})", head.join(", "));
            let scans = body.rng.chance(0.6);
            for k in 0..body.rng.range_usize(1, 4) {
                // An access path that leaves a variable unbindable makes
                // no rule; the scans always make one.
                let rule = (0..4)
                    .map(|_| format!("{head} :- {}.", body.write(scans && k == 0)))
                    .find(|rule| parse_program(rule).is_ok_and(|p| validate_program(&p).is_ok()))
                    .unwrap_or_else(|| format!("{head} :- {}.", body.write(true)));
                let _ = writeln!(src, "{rule}");
            }
            heads.push((name, sorts));
        }
    }
    (src, heads)
}

/// A query on `name` under a random adornment.
fn query(rng: &mut Rng64, name: &str, sorts: &[Sort]) -> String {
    let mut used: Vec<(String, Sort)> = Vec::new();
    let args: Vec<String> = sorts
        .iter()
        .map(|&sort| {
            if rng.chance(0.3) {
                return match sort {
                    Sort::Int => rng.range_u64(0, 8).to_string(),
                    Sort::Key(rel) => format!("'{rel}_{}'", rng.range_u64(0, 4)),
                };
            }
            if let Some((v, _)) = used.iter().find(|(_, s)| *s == sort) {
                if rng.chance(0.2) {
                    return v.clone();
                }
            }
            let v = format!("X{}", used.len());
            used.push((v.clone(), sort));
            v
        })
        .collect();
    format!("?- {name}({}).", args.join(", "))
}

/// Sorted and without duplicates: the rows as a set.
fn set(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows.dedup();
    rows
}

#[test]
fn every_plan_of_generated_programs_answers_as_the_reference_evaluator() {
    let (mut pairs, mut refused, mut explained, mut plans_run, mut nonempty) = (0, 0, 0, 0, 0);
    let (mut pushed, mut partial_hits, mut subplan_hits) = (0, 0, 0);
    let mut seed = 0u64;
    while pairs < PAIRS {
        seed += 1;
        assert!(
            seed < 1_000,
            "only {pairs} executable pairs in {seed} programs"
        );
        let mut rng = Rng64::new(0x0bac_1e5e_ed00 ^ seed);
        let world = World::new(&mut rng);
        let (src, heads) = program(&mut rng);
        let parsed: Program = parse_program(&src).unwrap();
        let queries: Vec<String> = heads
            .iter()
            .flat_map(|(name, sorts)| [query(&mut rng, name, sorts), query(&mut rng, name, sorts)])
            .collect();
        let ctx = |q: &str| format!("seed {seed}\nprogram:\n{src}query: {q}");

        // Half the programs plan every call around the CIM, so the plans
        // run alone read the sources directly.
        let planner = world.mediator(&src);
        if seed % 2 == 1 {
            let routing = planner.caches().policy().routing(CimPolicy::never());
            routing.apply().unwrap();
        }
        let warm = world.mediator(&src);
        warm.caches().policy().share_subplans(true).apply().unwrap();
        // Subsets of the scans in the cache, so a scan's first call is a
        // partial hit.
        for a in 0..4 {
            let key = Value::str(format!("r_{a}"));
            if let Some(b) = world.s1.call("r_bf", &[key]).unwrap().answers.first() {
                warm.query(format!("?- rbb('r_{a}', {b}).").as_str())
                    .unwrap();
            }
            warm.query(format!("?- tsel({a}, N).").as_str()).unwrap();
        }
        let mut executable = Vec::new();
        for q in &queries {
            let planned = match planner.plan(q) {
                Ok(planned) => planned,
                Err(e) => {
                    let e = e.to_string();
                    assert!(
                        e.contains("no executable ordering found"),
                        "{e}\n{}",
                        ctx(q)
                    );
                    let goals = parse_query(q).unwrap().goals;
                    explained += usize::from(explain_infeasible_query(&parsed, &goals).is_some());
                    refused += 1;
                    continue;
                }
            };
            let want = oracle::answers(&parsed, &world.sources, &parse_query(q).unwrap());
            nonempty += usize::from(!want.is_empty());
            for (i, plan) in planned.plans.iter().enumerate() {
                let alone = Planned {
                    plans: vec![plan.clone()],
                    estimates: vec![planned.estimates[i]],
                    chosen: 0,
                };
                pushed += usize::from(plan.to_string().contains("rel:select_"));
                let fresh = world.mediator(&src);
                let got = fresh.execute(alone, None).unwrap();
                assert_eq!(set(got.rows), want, "plan {i}:\n{plan}\n{}", ctx(q));
                plans_run += 1;
            }
            executable.push((q, want));
            pairs += 1;
        }
        // Twice through on the warm mediator: the first pass reads what
        // the earlier queries cached (partial hits among them), the second
        // its own answers and subplans.
        for pass in 0..2 {
            for (q, want) in &executable {
                let got = warm.query(q.as_str()).unwrap();
                partial_hits += got.stats.cim_partial;
                subplan_hits += got.stats.subplan_hits;
                assert_eq!(&set(got.rows), want, "warm pass {pass}\n{}", ctx(q));
            }
        }
        let concurrent = warm.to_concurrent(4);
        for (q, want) in &executable {
            let got = concurrent.query(q.as_str()).unwrap();
            assert_eq!(&set(got.rows), want, "to_concurrent(4)\n{}", ctx(q));
        }
    }
    eprintln!(
        "{pairs} executable pairs ({nonempty} with answers, {plans_run} plans run), \
         {refused} refused ({explained} explained by the analyzer), {seed} programs; \
         {pushed} plans with a selection in the source, {partial_hits} partial hits and \
         {subplan_hits} subplan hits warm"
    );
    assert!(pushed > 0 && partial_hits > 0 && subplan_hits > 0);
    assert!(
        nonempty * 4 >= pairs,
        "too few pairs with answers: {nonempty}"
    );
}
