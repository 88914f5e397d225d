//! A reference evaluator that shares no code with the planner or the
//! executor: bottom-up, naive, set semantics. Each source relation is read
//! whole once (a synthetic relation through its `{r}_ff()` scan, a
//! relational table through `all`), every rule is evaluated by nested loops
//! over the extensions derived so far until nothing new is derived (the
//! programs are not recursive), and the query's answers are selected at the
//! end. There are no binding patterns, no plan orderings, no pushdowns and
//! no caches: a call is a relation over its arguments and its answer.

use hermes::domains::relational::RelationalDomain;
use hermes::domains::synthetic::SyntheticDomain;
use hermes::domains::Domain;
use hermes::lang::{BodyAtom, Condition, PathTerm, Program, Query, Relop, Term};
use hermes::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One set of variable values; a variable that is absent is unbound.
type Env = BTreeMap<Arc<str>, Value>;

/// A relation: its tuples, without duplicates.
type Relation = BTreeSet<Vec<Value>>;

/// The sources as whole relations: per `domain:function`, every tuple of
/// the call's arguments followed by one of its answers.
#[derive(Default)]
pub struct Sources {
    calls: BTreeMap<(String, String), Relation>,
}

impl Sources {
    /// Adds a synthetic domain's relations `rels`, read from their `_ff`
    /// scans: `r_bf(a) ∋ b`, `r_fb(b) ∋ a`, `r_ff() ∋ {a, b}` and
    /// `r_bb(a, b) ∋ {a, b}` for every pair `(a, b)`.
    pub fn synthetic(&mut self, domain: &SyntheticDomain, rels: &[&str]) {
        for rel in rels {
            let scan = domain.call(&format!("{rel}_ff"), &[]).unwrap();
            for record in scan.answers {
                let Value::Record(r) = &record else {
                    panic!("a pair record")
                };
                let (a, b) = (r.get("a").unwrap().clone(), r.get("b").unwrap().clone());
                let mut add = |mode: &str, tuple: Vec<Value>| {
                    self.relation(domain.name(), &format!("{rel}_{mode}"))
                        .insert(tuple);
                };
                add("bf", vec![a.clone(), b.clone()]);
                add("fb", vec![b.clone(), a.clone()]);
                add("ff", vec![record.clone()]);
                add("bb", vec![a, b, record.clone()]);
            }
        }
    }

    /// Adds a relational domain's `tables`, read through `all`:
    /// `all(t) ∋ row` and `select_eq(t, c, row.c) ∋ row` for every row.
    pub fn relational(&mut self, domain: &RelationalDomain, tables: &[&str]) {
        for table in tables {
            let name = Value::str(*table);
            let rows = domain
                .call("all", std::slice::from_ref(&name))
                .unwrap()
                .answers;
            for row in rows {
                let Value::Record(r) = &row else {
                    panic!("a row record")
                };
                for (column, value) in r.iter() {
                    let tuple = vec![name.clone(), Value::str(column), value.clone(), row.clone()];
                    self.relation(domain.name(), "select_eq").insert(tuple);
                }
                self.relation(domain.name(), "all")
                    .insert(vec![name.clone(), row.clone()]);
            }
        }
    }

    fn relation(&mut self, domain: &str, function: &str) -> &mut Relation {
        let key = (domain.to_string(), function.to_string());
        self.calls.entry(key).or_default()
    }
}

/// Every answer of `query` against `program` over `sources`: the rows of
/// the query's answer variables in first-occurrence order, sorted, without
/// duplicates. A variable no goal binds reads `Null`.
pub fn answers(program: &Program, sources: &Sources, query: &Query) -> Vec<Vec<Value>> {
    let extensions = derive(program, sources);
    let columns = query.answer_variables();
    let rows: BTreeSet<Vec<Value>> = solve(&query.goals, sources, &extensions)
        .into_iter()
        .map(|env| {
            columns
                .iter()
                .map(|v| env.get(v).cloned().unwrap_or(Value::Null))
                .collect()
        })
        .collect();
    rows.into_iter().collect()
}

/// The extension of every predicate, by naive iteration to the fixpoint.
fn derive(program: &Program, sources: &Sources) -> BTreeMap<(Arc<str>, usize), Relation> {
    let mut extensions: BTreeMap<(Arc<str>, usize), Relation> = BTreeMap::new();
    loop {
        let mut changed = false;
        for rule in &program.rules {
            let head = &rule.head;
            let tuples: Vec<Vec<Value>> = solve(&rule.body, sources, &extensions)
                .into_iter()
                .filter_map(|env| head.args.iter().map(|t| value(t, &env)).collect())
                .collect();
            let ext = extensions
                .entry((head.name.clone(), head.args.len()))
                .or_default();
            for tuple in tuples {
                changed |= ext.insert(tuple);
            }
        }
        if !changed {
            return extensions;
        }
    }
}

/// Every environment satisfying `body`: the generators (calls and
/// predicates) by nested loops in written order, then the conditions —
/// an equality with one side unbound assigns it — until none is left.
/// An environment with a condition that never becomes evaluable is
/// dropped.
fn solve(
    body: &[BodyAtom],
    sources: &Sources,
    extensions: &BTreeMap<(Arc<str>, usize), Relation>,
) -> Vec<Env> {
    let empty = Relation::new();
    let mut envs = vec![Env::new()];
    let mut conditions = Vec::new();
    for atom in body {
        let (relation, terms): (&Relation, Vec<&Term>) = match atom {
            BodyAtom::In { target, call } => {
                let key = (call.domain.to_string(), call.function.to_string());
                let terms = call.args.iter().chain([target]).collect();
                (sources.calls.get(&key).unwrap_or(&empty), terms)
            }
            BodyAtom::Pred(p) => {
                let key = (p.name.clone(), p.args.len());
                (
                    extensions.get(&key).unwrap_or(&empty),
                    p.args.iter().collect(),
                )
            }
            BodyAtom::Cond(c) => {
                conditions.push(c);
                continue;
            }
        };
        envs = envs
            .iter()
            .flat_map(|env| relation.iter().filter_map(|t| unify(env, &terms, t)))
            .collect();
    }
    envs.into_iter()
        .filter_map(|env| apply(env, &conditions))
        .collect()
}

/// `env` extended so that `terms` equal `tuple`, or `None` on a clash.
fn unify(env: &Env, terms: &[&Term], tuple: &[Value]) -> Option<Env> {
    let mut env = env.clone();
    for (term, v) in terms.iter().zip(tuple) {
        match term {
            Term::Const(c) if c != v => return None,
            Term::Const(_) => {}
            Term::Var(x) => match env.get(x) {
                Some(bound) if bound != v => return None,
                Some(_) => {}
                None => {
                    env.insert(x.clone(), v.clone());
                }
            },
        }
    }
    Some(env)
}

/// `env` after every condition, or `None` when one fails or can never be
/// evaluated.
fn apply(mut env: Env, conditions: &[&Condition]) -> Option<Env> {
    let mut pending: Vec<&Condition> = conditions.to_vec();
    while !pending.is_empty() {
        let before = pending.len();
        let mut waiting = Vec::new();
        for c in pending {
            match (operand(&c.lhs, &env), operand(&c.rhs, &env)) {
                (Some(l), Some(r)) if compare(c.op, &l, &r) => {}
                (Some(_), Some(_)) => return None,
                (Some(v), None) if assignable(c, &c.rhs) => assign(&mut env, &c.rhs, v),
                (None, Some(v)) if assignable(c, &c.lhs) => assign(&mut env, &c.lhs, v),
                _ => waiting.push(c),
            }
        }
        if waiting.len() == before {
            return None;
        }
        pending = waiting;
    }
    Some(env)
}

fn assignable(c: &Condition, side: &PathTerm) -> bool {
    c.op == Relop::Eq && side.path.is_empty() && matches!(side.base, Term::Var(_))
}

fn assign(env: &mut Env, side: &PathTerm, v: Value) {
    if let Term::Var(x) = &side.base {
        env.insert(x.clone(), v);
    }
}

fn value(t: &Term, env: &Env) -> Option<Value> {
    match t {
        Term::Const(c) => Some(c.clone()),
        Term::Var(x) => env.get(x).cloned(),
    }
}

/// An operand's value: its base's, then each field of its path.
fn operand(pt: &PathTerm, env: &Env) -> Option<Value> {
    let base = value(&pt.base, env)?;
    pt.path.resolve(&base).cloned()
}

/// The comparison on `Value`'s total order.
fn compare(op: Relop, l: &Value, r: &Value) -> bool {
    match op {
        Relop::Eq => l == r,
        Relop::Ne => l != r,
        Relop::Lt => l < r,
        Relop::Le => l <= r,
        Relop::Gt => l > r,
        Relop::Ge => l >= r,
    }
}
