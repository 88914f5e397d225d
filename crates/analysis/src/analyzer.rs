//! The analyzer driver: inputs, builder, and pass orchestration.

use crate::diagnostic::{AnalysisReport, DiagCode, Diagnostic, Locus};
use crate::{adorn, cacheable, coverage, graph, invariants, materialize, sigs};
use hermes_cim::{CimPolicy, InvariantStore, RoutingDecision};
use hermes_dcsm::CostSource;
use hermes_domains::DomainRegistry;
use hermes_lang::{DeclarationFault, Declarations, Invariant, Program, QueryForm};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What the analyzer knows about one domain.
#[derive(Clone, Debug, Default)]
struct DomainSigs {
    /// Exported functions and their arities.
    functions: BTreeMap<Arc<str>, usize>,
    /// True when the domain ships its own cost estimator (§6).
    has_native_estimator: bool,
}

/// Known domain signatures, either snapshotted from a live
/// [`DomainRegistry`] or declared (by `%! domain` and `%! estimator` lines
/// in a `.hms` file).
#[derive(Clone, Debug, Default)]
pub struct SignatureTable {
    domains: BTreeMap<Arc<str>, DomainSigs>,
}

impl SignatureTable {
    /// An empty table (every call will be an unknown domain).
    pub fn new() -> Self {
        SignatureTable::default()
    }

    /// Snapshots every registered domain's signatures.
    pub fn from_registry(reg: &DomainRegistry) -> Self {
        let mut table = SignatureTable::new();
        for name in reg.names() {
            if let Ok(d) = reg.get(&name) {
                for sig in d.functions() {
                    table.declare(name.clone(), sig.name, sig.arity);
                }
                if d.native_estimator().is_some() {
                    table.declare_estimator(name.clone());
                }
            }
        }
        table
    }

    /// The signatures a program's `%!` lines declare; `None` when no
    /// `domain` or `estimator` line appeared (signature checking stays
    /// off).
    pub fn from_declarations(declarations: &Declarations) -> Option<Self> {
        if declarations.domains.is_empty() && declarations.estimators.is_empty() {
            return None;
        }
        let mut table = SignatureTable::new();
        for domain in &declarations.domains {
            for (function, arity) in &domain.functions {
                table.declare(domain.name.as_str(), function.as_str(), *arity);
            }
        }
        for domain in &declarations.estimators {
            table.declare_estimator(domain.as_str());
        }
        Some(table)
    }

    /// Declares one function signature.
    pub fn declare(
        &mut self,
        domain: impl Into<Arc<str>>,
        function: impl Into<Arc<str>>,
        arity: usize,
    ) {
        self.domains
            .entry(domain.into())
            .or_default()
            .functions
            .insert(function.into(), arity);
    }

    /// Marks a domain as shipping a native estimator.
    pub fn declare_estimator(&mut self, domain: impl Into<Arc<str>>) {
        self.domains
            .entry(domain.into())
            .or_default()
            .has_native_estimator = true;
    }

    /// Declared domain names.
    pub fn domain_names(&self) -> Vec<Arc<str>> {
        self.domains.keys().cloned().collect()
    }

    /// True when `domain` is declared.
    pub fn has_domain(&self, domain: &str) -> bool {
        self.domains.contains_key(domain)
    }

    /// The declared arity of `domain:function`, if any.
    pub fn arity(&self, domain: &str, function: &str) -> Option<usize> {
        self.domains.get(domain)?.functions.get(function).copied()
    }

    /// Function names declared for `domain`.
    pub fn functions_of(&self, domain: &str) -> Vec<Arc<str>> {
        self.domains
            .get(domain)
            .map(|d| d.functions.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// True when `domain` declared a native estimator.
    pub fn has_native_estimator(&self, domain: &str) -> bool {
        self.domains
            .get(domain)
            .is_some_and(|d| d.has_native_estimator)
    }
}

/// The multi-pass static analyzer (see crate docs for the pass list).
///
/// Only the program is mandatory. Its `%!` declarations seed query forms,
/// invariants, signatures (when a `domain` or `estimator` line appears)
/// and the CIM routing ([`CimPolicy::declare`] over `cache_everything`);
/// the builder methods add to them or replace them, as a mediator does
/// with its live registry and policy.
pub struct Analyzer<'a> {
    program: &'a Program,
    invariants: Vec<Invariant>,
    signatures: Option<SignatureTable>,
    dcsm: Option<&'a dyn CostSource>,
    query_forms: Vec<QueryForm>,
    routing: CimPolicy,
    materialize: bool,
}

impl<'a> Analyzer<'a> {
    /// Starts an analysis of `program`, with what its declarations say.
    pub fn new(program: &'a Program) -> Self {
        let declarations = &program.declarations;
        let mut routing = CimPolicy::cache_everything();
        routing.declare(declarations);
        Analyzer {
            program,
            invariants: declarations.invariants.clone(),
            signatures: SignatureTable::from_declarations(declarations),
            dcsm: None,
            query_forms: declarations.query_forms.clone(),
            routing,
            materialize: false,
        }
    }

    /// Adds every invariant of a CIM store that the program does not
    /// declare itself (pass 4).
    pub fn with_invariant_store(mut self, store: &InvariantStore) -> Self {
        let declared = &self.program.declarations.invariants;
        let extra = store.all().iter().filter(|inv| !declared.contains(inv));
        self.invariants.extend(extra.cloned());
        self
    }

    /// Replaces the signatures (pass 3; also sharpens pass 5).
    pub fn with_signatures(mut self, table: SignatureTable) -> Self {
        self.signatures = Some(table);
        self
    }

    /// Snapshots signatures from a live registry (pass 3).
    pub fn with_registry(self, reg: &DomainRegistry) -> Self {
        self.with_signatures(SignatureTable::from_registry(reg))
    }

    /// Enables cost-coverage advisories against this DCSM (pass 5): a
    /// plain `Dcsm`, or a sharded one asked through [`CostSource`].
    pub fn with_dcsm(mut self, dcsm: &'a dyn CostSource) -> Self {
        self.dcsm = Some(dcsm);
        self
    }

    /// Adds several query forms.
    pub fn with_query_forms(mut self, forms: impl IntoIterator<Item = QueryForm>) -> Self {
        self.query_forms.extend(forms);
        self
    }

    /// Replaces the CIM routing that passes 6 (`HA060`) and 7 (`HA071`)
    /// judge, e.g. with a mediator's live policy.
    pub fn with_cache_routing(mut self, routing: CimPolicy) -> Self {
        self.routing = routing;
        self
    }

    /// Enables the materialization-safety pass (pass 7, `HA070`–`HA074`).
    /// Opt-in: the pass emits an inventory of notes, which would be noise
    /// in a plain correctness lint.
    pub fn with_materialization(mut self) -> Self {
        self.materialize = true;
        self
    }

    /// Runs every enabled pass and collects the findings, sorted by
    /// `(code, locus)` with duplicates collapsed.
    pub fn analyze(&self) -> AnalysisReport {
        let mut out = Vec::new();
        graph::run(self.program, &self.query_forms, &mut out);
        adorn::run(self.program, &self.query_forms, &mut out);
        if let Some(table) = &self.signatures {
            sigs::run(self.program, &self.invariants, table, &mut out);
        }
        invariants::run(&self.invariants, &mut out);
        if let Some(dcsm) = self.dcsm {
            coverage::run(self.program, dcsm, self.signatures.as_ref(), &mut out);
        }
        let routes = |domain: &str, function: &str| {
            self.routing.decide(domain, function) == RoutingDecision::UseCim
        };
        cacheable::run(self.program, &self.invariants, &routes, &mut out);
        if self.materialize {
            let inputs = materialize::Inputs {
                query_forms: &self.query_forms,
                routes: &routes,
                volatile: &self.program.declarations.volatile,
                dcsm: self.dcsm,
            };
            materialize::run(self.program, &inputs, &mut out);
        }
        declaration_problems(&self.program.declarations, &mut out);
        let mut report = AnalysisReport { diagnostics: out };
        report.normalize();
        report
    }
}

/// `HA080`–`HA082`: the `%!` lines that declared nothing. A malformed or
/// unknown line is an error, because skipping it silently drops what it
/// meant to declare.
fn declaration_problems(declarations: &Declarations, out: &mut Vec<Diagnostic>) {
    for problem in &declarations.problems {
        let locus = Locus::Directive {
            line: problem.line,
            text: problem.text.clone(),
        };
        out.push(match &problem.fault {
            DeclarationFault::Malformed(msg) => {
                Diagnostic::new(DiagCode::MalformedDirective, locus, msg.clone())
            }
            DeclarationFault::Unknown => Diagnostic::new(
                DiagCode::UnknownDirective,
                locus,
                format!(
                    "unknown directive `{}`; expected `query`, `domain`, \
                     `estimator`, `invariant`, `cache`, or `volatile`",
                    problem.text
                ),
            )
            .with_suggestion("a typo here silently disables the checks it would enable"),
            DeclarationFault::Duplicate => Diagnostic::new(
                DiagCode::DuplicateDirective,
                locus,
                "directive repeats an earlier declaration verbatim",
            )
            .with_suggestion("drop one copy; declarations accumulate, nothing is shadowed"),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostic::DiagCode;
    use hermes_lang::parse_program;

    #[test]
    fn query_form_parses_both_syntaxes() {
        let a = QueryForm::parse("route(b, f)").unwrap();
        assert_eq!(a.pred.as_ref(), "route");
        assert_eq!(a.bound, vec![true, false]);
        assert_eq!(a.adornment(), "bf");
        let b = QueryForm::parse("route/bf").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "route(b, f)");
        assert!(QueryForm::parse("route(b, x)").is_err());
        assert!(QueryForm::parse("route").is_err());
    }

    #[test]
    fn zero_arity_form_parses() {
        let f = QueryForm::parse("ping()").unwrap();
        assert!(f.bound.is_empty());
    }

    #[test]
    fn analyzer_runs_only_enabled_passes() {
        // Unknown domain, but no signature table: pass 3 must stay silent.
        let p = parse_program("p(A) :- in(A, nosuch:f()).").unwrap();
        let report = Analyzer::new(&p).analyze();
        assert!(report.is_clean(), "{}", report.render());

        // With an empty table the same call is an unknown domain.
        let report = Analyzer::new(&p)
            .with_signatures(SignatureTable::new())
            .analyze();
        assert!(report.has_code(DiagCode::UnknownDomain));
    }

    #[test]
    fn signature_table_declarations_round_trip() {
        let mut t = SignatureTable::new();
        t.declare("d", "f", 2);
        t.declare_estimator("d");
        assert!(t.has_domain("d"));
        assert_eq!(t.arity("d", "f"), Some(2));
        assert_eq!(t.arity("d", "g"), None);
        assert!(t.has_native_estimator("d"));
        assert!(!t.has_native_estimator("e"));
        assert_eq!(t.functions_of("d").len(), 1);
    }
}
