//! A fully parameterizable synthetic domain for optimizer experiments.
//!
//! The plan-choice experiment (§8 claims 1–2) needs many queries whose
//! alternative orderings have *known, controllable* cost differences. This
//! domain generates binary relations `R ⊆ U × U` deterministically from a
//! seed and exposes each through the paper's binding-pattern function
//! family (Example 5.1):
//!
//! * `{r}_ff()` — all pairs, as `{a, b}` records;
//! * `{r}_bf(a)` — every `b` with `(a, b) ∈ R`;
//! * `{r}_fb(b)` — every `a` with `(a, b) ∈ R`;
//! * `{r}_bb(a, b)` — the pair itself if `(a, b) ∈ R`, else empty.
//!
//! All four views are consistent by construction, so every subgoal ordering
//! of a query computes the same answers — differing only in simulated cost,
//! which is exactly what the optimizer experiments measure.

use crate::domain::{CallOutcome, ComputeCost, Domain, FunctionSig};
use hermes_common::{Record, Result, Rng64, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-relation cost profile, milliseconds.
#[derive(Clone, Copy, Debug)]
pub struct CostProfile {
    /// Fixed per-call startup.
    pub start_ms: f64,
    /// Cost per answer produced.
    pub per_answer_ms: f64,
    /// Cost of one indexed probe (`_bf` / `_fb` / `_bb`).
    pub per_probe_ms: f64,
}

impl Default for CostProfile {
    fn default() -> Self {
        CostProfile {
            start_ms: 1.0,
            per_answer_ms: 0.05,
            per_probe_ms: 0.2,
        }
    }
}

/// A generated binary relation with forward and inverse adjacency.
#[derive(Clone, Debug)]
struct SyntheticRelation {
    pairs: Vec<(Value, Value)>,
    forward: BTreeMap<Value, Vec<Value>>,
    inverse: BTreeMap<Value, Vec<Value>>,
    profile: CostProfile,
}

/// Configuration for generating one relation.
#[derive(Clone, Debug)]
pub struct RelationSpec {
    /// Relation name (function family prefix).
    pub name: String,
    /// Number of distinct left-hand values.
    pub domain_size: usize,
    /// Mean out-degree (right-hand values per left value).
    pub avg_fanout: f64,
    /// Zipf skew of the fanout across left values (0 = uniform).
    pub skew: f64,
    /// Size of the right-hand value universe.
    pub range_size: usize,
    /// Cost profile for this relation's functions.
    pub profile: CostProfile,
}

impl RelationSpec {
    /// A uniform relation with default costs.
    pub fn uniform(name: impl Into<String>, domain_size: usize, avg_fanout: f64) -> Self {
        RelationSpec {
            name: name.into(),
            domain_size,
            avg_fanout,
            skew: 0.0,
            range_size: domain_size * 2,
            profile: CostProfile::default(),
        }
    }

    /// Overrides the cost profile.
    pub fn with_profile(mut self, profile: CostProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Overrides the skew.
    pub fn with_skew(mut self, skew: f64) -> Self {
        self.skew = skew;
        self
    }
}

/// The synthetic domain: a set of generated relations.
pub struct SyntheticDomain {
    name: Arc<str>,
    relations: BTreeMap<String, SyntheticRelation>,
}

impl SyntheticDomain {
    /// Generates the domain from relation specs, deterministically.
    pub fn generate(name: impl Into<Arc<str>>, seed: u64, specs: &[RelationSpec]) -> Self {
        let mut rng = Rng64::new(seed);
        let mut relations = BTreeMap::new();
        for spec in specs {
            let mut r = rng.fork(relations.len() as u64 + 1);
            relations.insert(spec.name.clone(), Self::generate_relation(&mut r, spec));
        }
        SyntheticDomain {
            name: name.into(),
            relations,
        }
    }

    fn generate_relation(rng: &mut Rng64, spec: &RelationSpec) -> SyntheticRelation {
        let mut pairs = Vec::new();
        let mut forward: BTreeMap<Value, Vec<Value>> = BTreeMap::new();
        let mut inverse: BTreeMap<Value, Vec<Value>> = BTreeMap::new();
        for a_idx in 0..spec.domain_size {
            let a = Value::str(format!("{}_{a_idx}", spec.name));
            // Skewed fanout: popular left values have larger out-degree.
            let weight = if spec.skew > 0.0 {
                (spec.domain_size as f64 / (a_idx as f64 + 1.0)).powf(spec.skew)
            } else {
                1.0
            };
            let norm = if spec.skew > 0.0 {
                // Normalize so the mean fanout stays ~avg_fanout.
                let total: f64 = (0..spec.domain_size)
                    .map(|i| (spec.domain_size as f64 / (i as f64 + 1.0)).powf(spec.skew))
                    .sum();
                spec.domain_size as f64 / total
            } else {
                1.0
            };
            let mean = (spec.avg_fanout * weight * norm).max(0.0);
            let fanout = rng.exponential(mean.max(1e-9)).round() as usize;
            let mut seen = std::collections::HashSet::new();
            for _ in 0..fanout {
                let b_idx = rng.range_usize(0, spec.range_size.max(1));
                if !seen.insert(b_idx) {
                    continue;
                }
                let b = Value::Int(b_idx as i64);
                pairs.push((a.clone(), b.clone()));
                forward.entry(a.clone()).or_default().push(b.clone());
                inverse.entry(b).or_default().push(a.clone());
            }
        }
        SyntheticRelation {
            pairs,
            forward,
            inverse,
            profile: spec.profile,
        }
    }

    /// All left-hand values of a relation (workload generators draw probe
    /// arguments from here).
    pub fn domain_values(&self, relation: &str) -> Vec<Value> {
        self.relations
            .get(relation)
            .map(|r| r.forward.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// Total number of pairs in a relation.
    pub fn pair_count(&self, relation: &str) -> usize {
        self.relations
            .get(relation)
            .map(|r| r.pairs.len())
            .unwrap_or(0)
    }

    fn split_function<'f>(&self, function: &'f str) -> Option<(&'f str, &'f str)> {
        let (rel, mode) = function.rsplit_once('_')?;
        if matches!(mode, "ff" | "bf" | "fb" | "bb") && self.relations.contains_key(rel) {
            Some((rel, mode))
        } else {
            None
        }
    }

    fn pair_record(a: &Value, b: &Value) -> Value {
        Value::Record(Record::from_fields([("a", a.clone()), ("b", b.clone())]))
    }
}

impl Domain for SyntheticDomain {
    fn name(&self) -> &str {
        &self.name
    }

    fn functions(&self) -> Vec<FunctionSig> {
        let mut out = Vec::new();
        for rel in self.relations.keys() {
            out.push(FunctionSig::new(format!("{rel}_ff"), 0, "all pairs"));
            out.push(FunctionSig::new(
                format!("{rel}_bf"),
                1,
                "b values for an a",
            ));
            out.push(FunctionSig::new(format!("{rel}_fb"), 1, "a values for a b"));
            out.push(FunctionSig::new(format!("{rel}_bb"), 2, "membership probe"));
        }
        out
    }

    fn call(&self, function: &str, args: &[Value]) -> Result<CallOutcome> {
        let (rel_name, mode) = self
            .split_function(function)
            .ok_or_else(|| self.unknown_function(function))?;
        let rel = &self.relations[rel_name];
        let p = rel.profile;
        match mode {
            "ff" => {
                self.check_arity(function, 0, args)?;
                let answers: Vec<Value> = rel
                    .pairs
                    .iter()
                    .map(|(a, b)| Self::pair_record(a, b))
                    .collect();
                let n = answers.len() as f64;
                Ok(CallOutcome {
                    answers,
                    compute: ComputeCost::from_millis(
                        p.start_ms + p.per_answer_ms,
                        p.start_ms + p.per_answer_ms * n,
                    ),
                })
            }
            "bf" | "fb" => {
                self.check_arity(function, 1, args)?;
                let map = if mode == "bf" {
                    &rel.forward
                } else {
                    &rel.inverse
                };
                let answers = map.get(&args[0]).cloned().unwrap_or_default();
                let n = answers.len() as f64;
                Ok(CallOutcome {
                    answers,
                    compute: ComputeCost::from_millis(
                        p.start_ms + p.per_probe_ms + p.per_answer_ms,
                        p.start_ms + p.per_probe_ms + p.per_answer_ms * n,
                    ),
                })
            }
            "bb" => {
                self.check_arity(function, 2, args)?;
                let hit = rel
                    .forward
                    .get(&args[0])
                    .is_some_and(|bs| bs.contains(&args[1]));
                let answers = if hit {
                    vec![Self::pair_record(&args[0], &args[1])]
                } else {
                    vec![]
                };
                Ok(CallOutcome {
                    answers,
                    compute: ComputeCost::from_millis(
                        p.start_ms + p.per_probe_ms,
                        p.start_ms + p.per_probe_ms,
                    ),
                })
            }
            _ => Err(self.unknown_function(function)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> SyntheticDomain {
        SyntheticDomain::generate(
            "d1",
            42,
            &[
                RelationSpec::uniform("p", 20, 3.0),
                RelationSpec::uniform("q", 40, 2.0).with_skew(1.0),
            ],
        )
    }

    #[test]
    fn views_are_mutually_consistent() {
        let d = domain();
        let all = d.call("p_ff", &[]).unwrap().answers;
        assert_eq!(all.len(), d.pair_count("p"));
        for pair in &all {
            let (a, b) = match pair {
                Value::Record(r) => (r.get("a").unwrap().clone(), r.get("b").unwrap().clone()),
                other => panic!("expected record, got {other}"),
            };
            // forward view contains b
            let bf = d.call("p_bf", std::slice::from_ref(&a)).unwrap().answers;
            assert!(bf.contains(&b), "p_bf({a}) missing {b}");
            // inverse view contains a
            let fb = d.call("p_fb", std::slice::from_ref(&b)).unwrap().answers;
            assert!(fb.contains(&a), "p_fb({b}) missing {a}");
            // membership probe hits
            let bb = d.call("p_bb", &[a.clone(), b.clone()]).unwrap().answers;
            assert_eq!(bb.len(), 1);
        }
    }

    #[test]
    fn missing_pair_probe_is_empty() {
        let d = domain();
        let out = d
            .call("p_bb", &[Value::str("no_such"), Value::Int(0)])
            .unwrap();
        assert!(out.answers.is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = domain().call("q_ff", &[]).unwrap().answers;
        let b = domain().call("q_ff", &[]).unwrap().answers;
        assert_eq!(a, b);
    }

    #[test]
    fn skew_concentrates_fanout() {
        let d = SyntheticDomain::generate(
            "d",
            1,
            &[RelationSpec::uniform("r", 200, 4.0).with_skew(1.5)],
        );
        let values = d.domain_values("r");
        let degree = |v: &Value| {
            d.call("r_bf", std::slice::from_ref(v))
                .unwrap()
                .answers
                .len()
        };
        // First (most popular) left values should dominate the tail.
        let head: usize = values.iter().take(5).map(degree).sum();
        let tail: usize = values.iter().rev().take(5).map(degree).sum();
        assert!(head > tail, "head {head} <= tail {tail}");
    }

    #[test]
    fn ff_costs_scale_with_size_and_probe_is_cheap() {
        let d = domain();
        let ff = d.call("p_ff", &[]).unwrap().compute.t_all;
        let a = d.domain_values("p")[0].clone();
        let bf = d
            .call("p_bf", std::slice::from_ref(&a))
            .unwrap()
            .compute
            .t_all;
        assert!(ff > bf);
    }

    #[test]
    fn unknown_function_shapes_rejected() {
        let d = domain();
        assert!(d.call("z_ff", &[]).is_err());
        assert!(d.call("p_xx", &[]).is_err());
        assert!(d.call("p", &[]).is_err());
    }

    #[test]
    fn signatures_enumerate_all_views() {
        let d = domain();
        let sigs = d.functions();
        assert_eq!(sigs.len(), 8); // 2 relations × 4 views
    }
}
