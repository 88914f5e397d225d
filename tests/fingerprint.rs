//! Stability and collision tests for the canonical subplan fingerprints
//! (`hermes::analysis::fingerprint`, re-exported from `hermes_core::rewrite`).
//!
//! The fingerprint is the key a subplan result cache files answers under,
//! so two properties matter end to end:
//!
//! * **stability** — alpha-renaming the variables or permuting the body
//!   atoms of a rule must not move the key (10 seeded shuffles each);
//! * **no collisions** — across every rule of the shipped examples and
//!   test fixtures, equal fingerprints must mean equal canonical forms.

use hermes::analysis::fingerprint::fingerprint_rule;
use hermes::lang::{parse_program, parse_rule, Rule};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// A tiny deterministic LCG (the tests must not depend on ambient
/// randomness: a seed that fails must fail tomorrow too).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Renames every variable of `rule` through a seeded bijection: variables
/// are collected, shuffled, and mapped to fresh names `R0, R1, ...` in
/// shuffled order, so different seeds produce different bijections.
fn alpha_rename(rule: &Rule, rng: &mut Lcg) -> Rule {
    let mut vars: Vec<Arc<str>> = rule.variables().into_iter().collect();
    rng.shuffle(&mut vars);
    let map: BTreeMap<Arc<str>, Arc<str>> = vars
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, Arc::from(format!("R{i}").as_str())))
        .collect();
    rule.map_vars(|v| map[v].clone())
}

/// Every rule of every `.hms` file under the shipped examples and the test
/// fixtures — the corpus the no-collision guarantee is checked against.
fn corpus() -> Vec<Rule> {
    let mut rules = Vec::new();
    for dir in ["examples/programs", "tests/fixtures"] {
        for entry in std::fs::read_dir(repo_path(dir)).expect("corpus dir exists") {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|ext| ext != "hms") {
                continue;
            }
            let src = std::fs::read_to_string(&path).unwrap();
            if let Ok(program) = parse_program(&src) {
                rules.extend(program.rules.iter().cloned());
            }
        }
    }
    assert!(rules.len() >= 20, "corpus too small: {} rules", rules.len());
    rules
}

#[test]
fn fingerprints_survive_renaming_and_reordering_across_seeds() {
    let corpus = corpus();
    for seed in 0..10u64 {
        let mut rng = Lcg(seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(seed + 1));
        for rule in &corpus {
            let bound = vec![false; rule.head.args.len()];
            let reference = fingerprint_rule(rule, &bound);

            let mut mutated = alpha_rename(rule, &mut rng);
            rng.shuffle(&mut mutated.body);
            let shuffled = fingerprint_rule(&mutated, &bound);

            assert_eq!(
                reference.fingerprint, shuffled.fingerprint,
                "seed {seed}, rule `{}`:\n  {}\nvs\n  {}",
                rule.head, reference.canonical, shuffled.canonical
            );
            assert_eq!(reference.canonical, shuffled.canonical);
        }
    }
}

#[test]
fn adornment_is_part_of_the_key() {
    let rule = parse_rule("p(A, B) :- in(B, d:f(A)).").unwrap();
    let free = fingerprint_rule(&rule, &[false, false]);
    let bound = fingerprint_rule(&rule, &[true, false]);
    assert_ne!(
        free.fingerprint, bound.fingerprint,
        "a subplan entered with `A` bound answers a different question"
    );
}

#[test]
fn no_collisions_across_the_corpus() {
    // Equal fingerprint must mean equal canonical form — a 64-bit
    // collision on a corpus this small would be a broken hash, not luck.
    let mut by_fp: BTreeMap<u64, String> = BTreeMap::new();
    for rule in corpus() {
        let key = fingerprint_rule(&rule, &vec![false; rule.head.args.len()]);
        if let Some(prior) = by_fp.insert(key.fingerprint.0, key.canonical.clone()) {
            assert_eq!(
                prior, key.canonical,
                "fingerprint {} collides across different canonical forms",
                key.fingerprint
            );
        }
    }
}
