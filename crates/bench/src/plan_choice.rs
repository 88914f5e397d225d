//! The §8 plan-choice claims, as a randomized sweep:
//!
//! 1. *All answers*: "If DCSM predicts Q1 is better than Q2, then Q1
//!    almost always runs much faster than Q2."
//! 2. *First answers*: "If DCSM predicts Q1 is better than Q2 by at least
//!    a 50% margin, then Q1 usually runs faster. … by a small margin, the
//!    results are unpredictable."
//!
//! Each trial builds a random two-relation federation with asymmetric cost
//! profiles, trains DCSM on neighboring queries, then compares the
//! *predicted* plan ordering with the *measured* ordering for every plan
//! pair, bucketed by predicted margin.

use crate::table::TextTable;
use hermes_cim::CimPolicy;
use hermes_common::Rng64;
use hermes_core::{Mediator, Planned};
use hermes_domains::synthetic::{CostProfile, RelationSpec, SyntheticDomain};
use hermes_net::{profiles, Network};
use std::sync::Arc;

/// One predicted-vs-actual plan pair observation.
#[derive(Clone, Copy, Debug)]
pub struct PairObservation {
    /// Predicted cost ratio `worse/better` (≥ 1).
    pub predicted_margin: f64,
    /// True if the predicted-better plan actually ran faster.
    pub prediction_held: bool,
    /// True if this pair was measured on first-answer time (else all).
    pub first_answer_mode: bool,
}

/// Aggregated accuracy for one margin bucket.
#[derive(Clone, Debug)]
pub struct Bucket {
    /// Display label, e.g. `1.0-1.5x`.
    pub label: String,
    /// Pairs in the bucket.
    pub pairs: usize,
    /// Fraction where the prediction held.
    pub accuracy: f64,
}

fn build_world(seed: u64) -> Mediator {
    let mut rng = Rng64::new(seed);
    let spec_a = RelationSpec::uniform("ra", 40 + rng.range_usize(0, 200), rng.range_f64(1.0, 8.0))
        .with_profile(CostProfile {
            start_ms: rng.range_f64(1.0, 20.0),
            per_answer_ms: rng.range_f64(0.05, 0.8),
            per_probe_ms: rng.range_f64(0.2, 3.0),
        })
        .with_skew(rng.range_f64(0.0, 1.2));
    let spec_b = RelationSpec::uniform("rb", 10 + rng.range_usize(0, 60), rng.range_f64(1.0, 4.0))
        .with_profile(CostProfile {
            start_ms: rng.range_f64(0.5, 6.0),
            per_answer_ms: rng.range_f64(0.02, 0.3),
            per_probe_ms: rng.range_f64(0.1, 1.0),
        });
    let da = SyntheticDomain::generate("sa", seed ^ 0xA, &[spec_a]);
    let db = SyntheticDomain::generate("sb", seed ^ 0xB, &[spec_b]);
    let mut net = Network::new(seed);
    let far_site = if rng.chance(0.5) {
        profiles::cornell()
    } else {
        profiles::bucknell()
    };
    net.place(Arc::new(da), far_site);
    net.place(Arc::new(db), profiles::maryland());
    let mut m = Mediator::from_source(
        "
        ra(A, B) :- in(B, sa:ra_bf(A)).
        ra(A, B) :- in(A, sa:ra_fb(B)).
        ra(A, B) :- in(Ans, sa:ra_ff()) & =(Ans.a, A) & =(Ans.b, B).
        rb(A, B) :- in(B, sb:rb_bf(A)).
        rb(A, B) :- in(A, sb:rb_fb(B)).
        rb(A, B) :- in(Ans, sb:rb_ff()) & =(Ans.a, A) & =(Ans.b, B).
        chain(X, Y, Z) :- ra(X, Y) & rb(Z, Y).
        ",
        net,
    )
    .unwrap();
    m.caches()
        .policy()
        .routing(CimPolicy::never())
        .apply()
        .unwrap();
    m.config_mut().rewrite.max_plans = 8;
    m
}

fn train(m: &mut Mediator, seed: u64) {
    // Cover every call pattern with varied instantiations, as the paper
    // does ("about 20 different instantiations for the arguments of a
    // domain call"): the bound probes, the inverses, and the full scans.
    let mut rng = Rng64::new(seed ^ 0x7717);
    for _ in 0..12 {
        let x = rng.range_usize(0, 40);
        let y = rng.range_i64(0, 80);
        let _ = m.query(format!("?- in(B, sa:ra_bf('ra_{x}'))."));
        let _ = m.query(format!("?- in(A, sa:ra_fb({y}))."));
        let _ = m.query(format!("?- in(X, sa:ra_bb('ra_{x}', {y}))."));
        let _ = m.query(format!(
            "?- in(B, sb:rb_bf('rb_{}')).",
            rng.range_usize(0, 10)
        ));
        let _ = m.query(format!("?- in(A, sb:rb_fb({y}))."));
        let _ = m.query(format!(
            "?- in(X, sb:rb_bb('rb_{}', {y})).",
            rng.range_usize(0, 10)
        ));
    }
    for _ in 0..3 {
        let _ = m.query("?- in(P, sa:ra_ff()).");
        let _ = m.query("?- in(P, sb:rb_ff()).");
    }
}

/// Measures every candidate plan of `planned` on fresh worlds; returns
/// per-plan (t_first_ms, t_all_ms).
fn measure_plans(seed: u64, q: &str, planned: &Planned) -> Vec<(f64, f64)> {
    (0..planned.plans.len())
        .map(|i| {
            let fresh = build_world(seed);
            // Re-train so DCSM state does not matter for the measurement
            // (we reuse the same network/cost world).
            let single = Planned {
                plans: vec![planned.plans[i].clone()],
                estimates: vec![planned.estimates[i]],
                chosen: 0,
            };
            let _ = q;
            let r = fresh.execute(single, None).expect("plan executes");
            (
                r.t_first
                    .map(|d| d.as_millis_f64())
                    .unwrap_or(r.t_all.as_millis_f64()),
                r.t_all.as_millis_f64(),
            )
        })
        .collect()
}

/// Runs `trials` random federations; returns all pair observations.
pub fn run(base_seed: u64, trials: usize) -> Vec<PairObservation> {
    let mut out = Vec::new();
    for t in 0..trials {
        let seed = base_seed + t as u64 * 977;
        let mut m = build_world(seed);
        train(&mut m, seed);
        let x = t % 30;
        let q = format!("?- chain('ra_{x}', Y, Z).");
        let Ok(planned) = m.plan(&q) else { continue };
        if planned.plans.len() < 2 {
            continue;
        }
        let measured = measure_plans(seed, &q, &planned);
        for i in 0..planned.plans.len() {
            for j in 0..planned.plans.len() {
                if i == j {
                    continue;
                }
                for first_mode in [false, true] {
                    let (pi, pj, ai, aj) = if first_mode {
                        (
                            planned.estimates[i].t_first_ms.unwrap(),
                            planned.estimates[j].t_first_ms.unwrap(),
                            measured[i].0,
                            measured[j].0,
                        )
                    } else {
                        (
                            planned.estimates[i].t_all_ms.unwrap(),
                            planned.estimates[j].t_all_ms.unwrap(),
                            measured[i].1,
                            measured[j].1,
                        )
                    };
                    if pi >= pj || pi <= 0.0 {
                        continue; // consider each unordered pair once, i better
                    }
                    out.push(PairObservation {
                        predicted_margin: pj / pi,
                        prediction_held: ai <= aj,
                        first_answer_mode: first_mode,
                    });
                }
            }
        }
    }
    out
}

/// Buckets observations by predicted margin for one mode.
pub fn bucketize(obs: &[PairObservation], first_answer_mode: bool) -> Vec<Bucket> {
    // The paper's claim 2 names a "50% margin" (1.5x) as the reliability
    // boundary for first-answer predictions; finer buckets below it show
    // the unpredictable region.
    let edges: [(f64, f64, &str); 6] = [
        (1.0, 1.1, "1.0-1.1x"),
        (1.1, 1.3, "1.1-1.3x"),
        (1.3, 1.5, "1.3-1.5x"),
        (1.5, 3.0, "1.5-3.0x"),
        (3.0, 10.0, "3-10x"),
        (10.0, f64::INFINITY, ">10x"),
    ];
    edges
        .iter()
        .map(|(lo, hi, label)| {
            let in_bucket: Vec<&PairObservation> = obs
                .iter()
                .filter(|o| {
                    o.first_answer_mode == first_answer_mode
                        && o.predicted_margin >= *lo
                        && o.predicted_margin < *hi
                })
                .collect();
            let held = in_bucket.iter().filter(|o| o.prediction_held).count();
            Bucket {
                label: label.to_string(),
                pairs: in_bucket.len(),
                accuracy: if in_bucket.is_empty() {
                    f64::NAN
                } else {
                    held as f64 / in_bucket.len() as f64
                },
            }
        })
        .collect()
}

/// Renders the accuracy table for both modes.
pub fn render(obs: &[PairObservation]) -> String {
    let mut t = TextTable::new([
        "Predicted margin",
        "All-answers pairs",
        "All-answers accuracy",
        "First-answer pairs",
        "First-answer accuracy",
    ]);
    let all = bucketize(obs, false);
    let first = bucketize(obs, true);
    for (a, f) in all.iter().zip(&first) {
        t.row([
            a.label.clone(),
            a.pairs.to_string(),
            format!("{:.0}%", a.accuracy * 100.0),
            f.pairs.to_string(),
            format!("{:.0}%", f.accuracy * 100.0),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_hold_on_a_small_sweep() {
        let obs = run(100, 8);
        assert!(obs.len() > 20, "only {} observations", obs.len());
        // Claim 1: all-answers predictions with a *large* margin (>= 3x)
        // are reliable.
        let all = bucketize(&obs, false);
        let big: Vec<&Bucket> = all
            .iter()
            .filter(|b| (b.label == "3-10x" || b.label == ">10x") && b.pairs > 0)
            .collect();
        let weighted: f64 = big.iter().map(|b| b.accuracy * b.pairs as f64).sum::<f64>()
            / big.iter().map(|b| b.pairs as f64).sum::<f64>().max(1.0);
        assert!(
            weighted > 0.8,
            "all-answers >=3x-margin accuracy {weighted}"
        );
    }
}
