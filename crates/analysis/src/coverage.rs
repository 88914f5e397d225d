//! Pass 5 — cost-coverage advisory.
//!
//! The optimizer ranks orderings with DCSM cost estimates (§6). A call
//! pattern with neither statistics (summary table or detail records) nor a
//! native estimator silently falls back to the configured prior — plans
//! involving it are ranked blind. **HA040** makes those blind spots visible
//! before benchmarking.

use crate::analyzer::SignatureTable;
use crate::diagnostic::{DiagCode, Diagnostic, Locus};
use hermes_common::{CallPattern, PatArg};
use hermes_dcsm::{CostSource, EstimateSource};
use hermes_lang::{BodyAtom, Program, Term};
use std::collections::BTreeSet;

/// Runs the pass.
pub(crate) fn run(
    program: &Program,
    dcsm: &dyn CostSource,
    signatures: Option<&SignatureTable>,
    out: &mut Vec<Diagnostic>,
) {
    let mut patterns: BTreeSet<CallPattern> = BTreeSet::new();
    for rule in &program.rules {
        for atom in &rule.body {
            if let BodyAtom::In { call, .. } = atom {
                let args: Vec<PatArg> = call
                    .args
                    .iter()
                    .map(|t| match t {
                        Term::Const(v) => PatArg::Const(v.clone()),
                        Term::Var(_) => PatArg::Bound,
                    })
                    .collect();
                patterns.insert(CallPattern::new(
                    call.domain.clone(),
                    call.function.clone(),
                    args,
                ));
            }
        }
    }

    for pattern in &patterns {
        let outcome = dcsm.cost(pattern);
        if !matches!(outcome.source, EstimateSource::Prior) {
            continue;
        }
        let has_native = signatures.is_some_and(|t| t.has_native_estimator(&pattern.domain));
        let suggestion = if has_native {
            format!(
                "the `{}` domain ships a native estimator; register it \
                 with the DCSM (`Dcsm::register_external`)",
                pattern.domain
            )
        } else {
            "record profile runs (`Dcsm::record`) or build a summary table \
             for this call's shape"
                .to_string()
        };
        out.push(
            Diagnostic::new(
                DiagCode::EstimatorBlindSpot,
                Locus::CallPattern {
                    text: pattern.to_string(),
                },
                "no DCSM statistics and no native estimate cover this call \
                 pattern; cost ranking falls back to the configured prior",
            )
            .with_suggestion(suggestion),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_common::{GroundCall, SimInstant};
    use hermes_dcsm::Dcsm;
    use hermes_lang::parse_program;

    #[test]
    fn ha040_fires_only_for_uncovered_patterns() {
        let p = parse_program("p(A, B) :- in(A, d:f(B)) & in(B, d:g()).").unwrap();
        let mut dcsm = Dcsm::new();
        // Give `d:g()` detail statistics; `d:f($b)` stays blind.
        dcsm.record(
            &GroundCall::new("d", "g", vec![]),
            Some(10.0),
            Some(12.0),
            Some(3.0),
            SimInstant::EPOCH,
        );
        let mut out = Vec::new();
        run(&p, &dcsm, None, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, DiagCode::EstimatorBlindSpot);
        assert!(matches!(
            &out[0].locus,
            Locus::CallPattern { text } if text.contains("d:f")
        ));
    }

    #[test]
    fn ha040_suggests_native_estimator_when_available() {
        let p = parse_program("p(A) :- in(A, d:f('x')).").unwrap();
        let dcsm = Dcsm::new();
        let mut table = SignatureTable::new();
        table.declare("d", "f", 1);
        table.declare_estimator("d");
        let mut out = Vec::new();
        run(&p, &dcsm, Some(&table), &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0]
            .suggestion
            .as_deref()
            .unwrap()
            .contains("register_external"));
    }

    #[test]
    fn duplicate_call_sites_report_once() {
        let p = parse_program("p(A) :- in(A, d:f('x')).\n q(A) :- in(A, d:f('x')).\n").unwrap();
        let dcsm = Dcsm::new();
        let mut out = Vec::new();
        run(&p, &dcsm, None, &mut out);
        assert_eq!(out.len(), 1);
    }
}
