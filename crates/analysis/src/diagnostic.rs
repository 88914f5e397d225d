//! Structured diagnostics emitted by the analyzer.
//!
//! Every finding carries a stable code (`HA001`…), a severity, a locus
//! (which rule/invariant/query form it is about), a human message, and an
//! optional suggestion. Codes are stable so tests, CI, and users can match
//! on them; messages are free to improve over time.

use crate::fingerprint::Fingerprint;
use std::fmt;

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: nothing is wrong — the finding is an inventory entry
    /// or an optimization opportunity (the `HA07x` materialization family).
    /// Notes never affect `hermes-lint`'s exit status.
    Note,
    /// The program is still executable, but something looks wrong or will
    /// hurt (dead rules, estimator blind spots, redundant invariants).
    Warning,
    /// The program (or invariant set) is broken: registering it would only
    /// defer the failure to query time.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => f.write_str("note"),
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// Stable diagnostic codes, one per distinct kind of finding.
///
/// Numbering groups by pass: `HA00x` dependency graph, `HA01x` adornment
/// feasibility, `HA02x` domain signatures, `HA03x` invariants, `HA04x`
/// cost coverage, `HA05x` parallelizability, `HA06x` cacheability,
/// `HA07x` materialization safety, `HA08x` lint directives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagCode {
    /// `HA001` — recursive predicate cycle; the nested-loops executor
    /// cannot terminate on recursion.
    RecursiveCycle,
    /// `HA002` — a body atom references a predicate no rule defines.
    UndefinedPredicate,
    /// `HA003` — a predicate is unreachable from every declared query form
    /// (dead rules).
    UnreachablePredicate,
    /// `HA004` — a predicate mixes ground facts and proper rules.
    MixedFactsAndRules,
    /// `HA005` — a variable can never become ground in any subgoal order.
    UngroundableVariable,
    /// `HA006` — a head variable does not occur in the body.
    HeadVarNotInBody,
    /// `HA007` — a fact (empty body) contains variables.
    NonGroundFact,
    /// `HA010` — no rule admits an executable ordering under a declared
    /// query adornment.
    InfeasibleAdornment,
    /// `HA011` — every plan for a declared query form needs more rule
    /// expansions than the rewriter's cap (`hermes_lang::MAX_DEPTH`).
    UnfoldingTooDeep,
    /// `HA020` — a domain call names an unregistered domain.
    UnknownDomain,
    /// `HA021` — a domain call names a function the domain does not export.
    UnknownFunction,
    /// `HA022` — a domain call's arity disagrees with the signature.
    ArityMismatch,
    /// `HA030` — an invariant condition mentions a variable that appears in
    /// neither call.
    FreeConditionVariable,
    /// `HA031` — equality invariants form a substitution cycle that can
    /// make rewriting loop.
    CyclicInvariantChain,
    /// `HA032` — an invariant's condition can never be satisfied.
    UnsatisfiableCondition,
    /// `HA033` — an invariant duplicates another (up to renaming/flipping).
    DuplicateInvariant,
    /// `HA034` — the `⊆`/`⊇` direction looks wrong given the condition.
    SuspiciousDirection,
    /// `HA040` — a call pattern has neither DCSM statistics nor a native
    /// estimator; costing falls back to the prior.
    EstimatorBlindSpot,
    /// `HA050` — under a declared adornment, a rule's domain calls can only
    /// run one after another, while a more-bound adornment would let two or
    /// more dispatch concurrently (the parallel scheduler overlaps only
    /// calls that are ground at the same point).
    SerializedParallelizable,
    /// `HA060` — the program makes domain calls, but none is routed
    /// through the CIM and no invariant is declared: the `cache-only`
    /// plan tier can never serve it, so under overload (or an explicit
    /// cache-only request) every query comes back empty.
    CacheStarved,
    /// `HA070` — a rule's subplan is safe to materialize: pure domain
    /// calls, non-recursive, and no volatile source feeds it.
    MaterializeSafe,
    /// `HA071` — a subplan reads a volatile source (declared `%! volatile`,
    /// or routed around the CIM), so a materialized copy would go stale
    /// with no invalidation signal.
    MaterializeVolatile,
    /// `HA072` — a subplan sits on a recursive SCC; materializing it needs
    /// semi-naive/delta evaluation, not a one-shot snapshot.
    MaterializeRecursive,
    /// `HA073` — the same subplan fingerprint appears in two or more rules:
    /// materializing it once serves all of them.
    SharedSubplan,
    /// `HA074` — invalidation scope: which domain:function updates dirty
    /// which materialized fingerprints.
    InvalidationScope,
    /// `HA080` — a `%!` directive's arguments are malformed.
    MalformedDirective,
    /// `HA081` — an unknown `%!` directive name.
    UnknownDirective,
    /// `HA082` — a `%!` directive repeats an earlier declaration verbatim.
    DuplicateDirective,
}

impl DiagCode {
    /// The stable `HAxxx` string.
    pub fn as_str(self) -> &'static str {
        match self {
            DiagCode::RecursiveCycle => "HA001",
            DiagCode::UndefinedPredicate => "HA002",
            DiagCode::UnreachablePredicate => "HA003",
            DiagCode::MixedFactsAndRules => "HA004",
            DiagCode::UngroundableVariable => "HA005",
            DiagCode::HeadVarNotInBody => "HA006",
            DiagCode::NonGroundFact => "HA007",
            DiagCode::InfeasibleAdornment => "HA010",
            DiagCode::UnfoldingTooDeep => "HA011",
            DiagCode::UnknownDomain => "HA020",
            DiagCode::UnknownFunction => "HA021",
            DiagCode::ArityMismatch => "HA022",
            DiagCode::FreeConditionVariable => "HA030",
            DiagCode::CyclicInvariantChain => "HA031",
            DiagCode::UnsatisfiableCondition => "HA032",
            DiagCode::DuplicateInvariant => "HA033",
            DiagCode::SuspiciousDirection => "HA034",
            DiagCode::EstimatorBlindSpot => "HA040",
            DiagCode::SerializedParallelizable => "HA050",
            DiagCode::CacheStarved => "HA060",
            DiagCode::MaterializeSafe => "HA070",
            DiagCode::MaterializeVolatile => "HA071",
            DiagCode::MaterializeRecursive => "HA072",
            DiagCode::SharedSubplan => "HA073",
            DiagCode::InvalidationScope => "HA074",
            DiagCode::MalformedDirective => "HA080",
            DiagCode::UnknownDirective => "HA081",
            DiagCode::DuplicateDirective => "HA082",
        }
    }

    /// Parses the stable `HAxxx` string back to a code.
    pub fn from_code(text: &str) -> Option<Self> {
        DiagCode::all().iter().copied().find(|c| c.as_str() == text)
    }

    /// Every code, in `HAxxx` order.
    pub fn all() -> &'static [DiagCode] {
        &[
            DiagCode::RecursiveCycle,
            DiagCode::UndefinedPredicate,
            DiagCode::UnreachablePredicate,
            DiagCode::MixedFactsAndRules,
            DiagCode::UngroundableVariable,
            DiagCode::HeadVarNotInBody,
            DiagCode::NonGroundFact,
            DiagCode::InfeasibleAdornment,
            DiagCode::UnfoldingTooDeep,
            DiagCode::UnknownDomain,
            DiagCode::UnknownFunction,
            DiagCode::ArityMismatch,
            DiagCode::FreeConditionVariable,
            DiagCode::CyclicInvariantChain,
            DiagCode::UnsatisfiableCondition,
            DiagCode::DuplicateInvariant,
            DiagCode::SuspiciousDirection,
            DiagCode::EstimatorBlindSpot,
            DiagCode::SerializedParallelizable,
            DiagCode::CacheStarved,
            DiagCode::MaterializeSafe,
            DiagCode::MaterializeVolatile,
            DiagCode::MaterializeRecursive,
            DiagCode::SharedSubplan,
            DiagCode::InvalidationScope,
            DiagCode::MalformedDirective,
            DiagCode::UnknownDirective,
            DiagCode::DuplicateDirective,
        ]
    }

    /// The severity this code always carries.
    pub fn severity(self) -> Severity {
        match self {
            DiagCode::RecursiveCycle
            | DiagCode::UndefinedPredicate
            | DiagCode::MixedFactsAndRules
            | DiagCode::UngroundableVariable
            | DiagCode::HeadVarNotInBody
            | DiagCode::NonGroundFact
            | DiagCode::InfeasibleAdornment
            | DiagCode::UnknownDomain
            | DiagCode::UnknownFunction
            | DiagCode::ArityMismatch
            | DiagCode::FreeConditionVariable
            | DiagCode::MalformedDirective
            | DiagCode::UnknownDirective => Severity::Error,
            DiagCode::UnreachablePredicate
            | DiagCode::CyclicInvariantChain
            | DiagCode::UnsatisfiableCondition
            | DiagCode::DuplicateInvariant
            | DiagCode::SuspiciousDirection
            | DiagCode::UnfoldingTooDeep
            | DiagCode::EstimatorBlindSpot
            | DiagCode::SerializedParallelizable
            | DiagCode::CacheStarved
            | DiagCode::DuplicateDirective => Severity::Warning,
            DiagCode::MaterializeSafe
            | DiagCode::MaterializeVolatile
            | DiagCode::MaterializeRecursive
            | DiagCode::SharedSubplan
            | DiagCode::InvalidationScope => Severity::Note,
        }
    }

    /// One-line meaning, used by `hermes-lint --explain` and docs.
    pub fn title(self) -> &'static str {
        match self {
            DiagCode::RecursiveCycle => "recursive predicate cycle",
            DiagCode::UndefinedPredicate => "body references an undefined predicate",
            DiagCode::UnreachablePredicate => "predicate unreachable from every query form",
            DiagCode::MixedFactsAndRules => "predicate mixes ground facts and rules",
            DiagCode::UngroundableVariable => "variable can never become ground",
            DiagCode::HeadVarNotInBody => "head variable does not occur in the body",
            DiagCode::NonGroundFact => "fact contains variables",
            DiagCode::InfeasibleAdornment => "no executable ordering under a declared adornment",
            DiagCode::UnfoldingTooDeep => "query form needs more rule expansions than the cap",
            DiagCode::UnknownDomain => "call names an unregistered domain",
            DiagCode::UnknownFunction => "call names a function the domain does not export",
            DiagCode::ArityMismatch => "call arity disagrees with the signature",
            DiagCode::FreeConditionVariable => "invariant condition variable appears in no call",
            DiagCode::CyclicInvariantChain => "equality invariants form a substitution cycle",
            DiagCode::UnsatisfiableCondition => "invariant condition can never hold",
            DiagCode::DuplicateInvariant => "invariant duplicates another",
            DiagCode::SuspiciousDirection => "invariant direction looks inverted",
            DiagCode::EstimatorBlindSpot => "call pattern costed only from the prior",
            DiagCode::SerializedParallelizable => "adornment serializes parallelizable calls",
            DiagCode::CacheStarved => "cache-only tier can never serve this program",
            DiagCode::MaterializeSafe => "subplan is safe to materialize",
            DiagCode::MaterializeVolatile => "subplan reads a volatile source",
            DiagCode::MaterializeRecursive => "recursive subplan needs delta evaluation",
            DiagCode::SharedSubplan => "identical subplan shared by several rules",
            DiagCode::InvalidationScope => "source updates that dirty materialized subplans",
            DiagCode::MalformedDirective => "malformed `%!` directive arguments",
            DiagCode::UnknownDirective => "unknown `%!` directive",
            DiagCode::DuplicateDirective => "duplicate `%!` directive",
        }
    }

    /// A longer explanation for `hermes-lint --explain HAxxx`.
    pub fn explain(self) -> &'static str {
        match self {
            DiagCode::RecursiveCycle => {
                "The rewriter flattens rules into finite plans and cannot \
                 terminate on recursion. Break the cycle by unrolling bounded \
                 traversals into distinct predicates."
            }
            DiagCode::UndefinedPredicate => {
                "A rule body references a predicate that no rule defines; \
                 every query through it returns nothing. Check the name and \
                 arity — a near-miss arity is reported in the suggestion."
            }
            DiagCode::UnreachablePredicate => {
                "No declared `%! query` form can reach this predicate, so its \
                 rules are dead weight. Delete them or declare a query form."
            }
            DiagCode::MixedFactsAndRules => {
                "A predicate defined by both ground facts and proper rules is \
                 usually a modelling slip; move the facts into a separate \
                 predicate with a bridging rule."
            }
            DiagCode::UngroundableVariable => {
                "Domain calls must be ground when issued (§3). This variable \
                 is never bound by any subgoal order, so no executable \
                 ordering of the body exists."
            }
            DiagCode::HeadVarNotInBody => {
                "A head variable the body never binds makes every answer \
                 non-ground. Bind it in the body or drop it from the head."
            }
            DiagCode::NonGroundFact => {
                "A fact (a rule with an empty body) must be ground; a \
                 variable in a fact matches everything."
            }
            DiagCode::InfeasibleAdornment => {
                "Under a declared query adornment, no rule for the predicate \
                 admits an executable subgoal ordering — queries of that form \
                 will always fail at plan time."
            }
            DiagCode::UnfoldingTooDeep => {
                "The rewriter expands at most 32 rule-defined atoms along one \
                 search path, counting every expansion, not how deep the \
                 rules nest: a rule over two 15-link chains needs 33. Every \
                 plan for this query form needs more, so each query of the \
                 form fails at plan time with \"unfolding stopped\". Fold \
                 chains of one-atom rules into fewer rules."
            }
            DiagCode::UnknownDomain => {
                "The call names a domain that is not registered (or not \
                 declared via `%! domain`)."
            }
            DiagCode::UnknownFunction => "The domain exists but does not export this function.",
            DiagCode::ArityMismatch => {
                "The call passes a different number of arguments than the \
                 domain's declared signature."
            }
            DiagCode::FreeConditionVariable => {
                "An invariant condition mentions a variable that appears in \
                 neither call, so the condition can never be checked against \
                 a concrete call (§4)."
            }
            DiagCode::CyclicInvariantChain => {
                "Equality invariants chain into a substitution cycle; the \
                 rewriter could loop replacing calls forever."
            }
            DiagCode::UnsatisfiableCondition => {
                "The invariant's guard contradicts itself, so the invariant \
                 never fires."
            }
            DiagCode::DuplicateInvariant => {
                "The invariant restates another (up to renaming and \
                 flipping); drop one copy."
            }
            DiagCode::SuspiciousDirection => {
                "The containment direction disagrees with what the guard \
                 implies; a wrong direction silently returns partial answers."
            }
            DiagCode::EstimatorBlindSpot => {
                "Neither DCSM statistics nor a native estimator cover this \
                 call pattern; the optimizer costs it from the prior and may \
                 pick bad plans. Profile the pattern or ship an estimator."
            }
            DiagCode::SerializedParallelizable => {
                "Under the declared adornment the rule's calls can only run \
                 sequentially, while a more-bound adornment would let them \
                 overlap."
            }
            DiagCode::CacheStarved => {
                "No call routes through the CIM and no invariant is declared, \
                 so the cache-only plan tier always returns empty answers \
                 under overload."
            }
            DiagCode::MaterializeSafe => {
                "The rule's subplan makes only pure, non-recursive, \
                 non-volatile domain calls: its answer set can be cached \
                 whole under its canonical fingerprint and reused until a \
                 source in its invalidation scope (HA074) changes."
            }
            DiagCode::MaterializeVolatile => {
                "A source feeding this subplan is declared `%! volatile` or \
                 is routed around the CIM, so there is no invalidation signal \
                 for a materialized copy — it would serve stale answers. \
                 Route the source through the CIM or leave the subplan \
                 unmaterialized."
            }
            DiagCode::MaterializeRecursive => {
                "The subplan belongs to a recursive SCC; a one-shot snapshot \
                 is not a fixpoint. Materializing it requires semi-naive or \
                 delta evaluation to maintain."
            }
            DiagCode::SharedSubplan => {
                "Two or more rules evaluate the same canonical subplan \
                 (identical fingerprint): materializing it once serves all of \
                 them, saving roughly (occurrences - 1) times the subplan's \
                 estimated cost per multi-rule query."
            }
            DiagCode::InvalidationScope => {
                "Inventory of which domain:function updates dirty which \
                 materialized fingerprints; a subplan cache subscribes to \
                 exactly these sources for invalidation."
            }
            DiagCode::MalformedDirective => {
                "The `%!` directive was recognized but its arguments do not \
                 parse; the directive is ignored, which may silently disable \
                 the pass it would have enabled."
            }
            DiagCode::UnknownDirective => {
                "`%!` starts a lint directive, but this name is not one of \
                 `query`, `domain`, `estimator`, `invariant`, `cache`, or \
                 `volatile`. A typo here silently disables checks."
            }
            DiagCode::DuplicateDirective => {
                "The directive repeats an earlier declaration verbatim; drop \
                 one copy (a changed copy would shadow nothing — declarations \
                 accumulate)."
            }
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a diagnostic is about.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Locus {
    /// The program as a whole (cycles spanning rules, reachability).
    Program,
    /// A specific rule, by index in the program and rendered head.
    Rule {
        /// Index into `Program::rules`.
        index: usize,
        /// The rendered head atom, e.g. `p(A, B)`.
        head: String,
    },
    /// A specific invariant, by index in the analyzed list.
    Invariant {
        /// Index into the analyzed invariant list.
        index: usize,
        /// The rendered invariant.
        text: String,
    },
    /// A declared query form, e.g. `route(b, f)`.
    QueryForm {
        /// The rendered form.
        text: String,
    },
    /// A domain-call pattern, e.g. `ingres:select_eq('inventory', $b, $b)`.
    CallPattern {
        /// The rendered pattern.
        text: String,
    },
    /// A `%!` lint directive, by source line (1-based).
    Directive {
        /// 1-based source line of the directive.
        line: usize,
        /// The directive text.
        text: String,
    },
}

impl Locus {
    /// A stable ordering key: variant rank, then the variant's own index
    /// (rule/invariant index, directive line), then its text. Used to sort
    /// reports deterministically regardless of pass-execution order.
    pub fn sort_key(&self) -> (u8, usize, &str) {
        match self {
            Locus::Program => (0, 0, ""),
            Locus::Rule { index, head } => (1, *index, head),
            Locus::Invariant { index, text } => (2, *index, text),
            Locus::QueryForm { text } => (3, 0, text),
            Locus::CallPattern { text } => (4, 0, text),
            Locus::Directive { line, text } => (5, *line, text),
        }
    }
}

impl fmt::Display for Locus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Locus::Program => f.write_str("program"),
            Locus::Rule { index, head } => write!(f, "rule #{index} `{head}`"),
            Locus::Invariant { index, text } => {
                write!(f, "invariant #{index} `{text}`")
            }
            Locus::QueryForm { text } => write!(f, "query form `{text}`"),
            Locus::CallPattern { text } => write!(f, "call pattern `{text}`"),
            Locus::Directive { line, text } => write!(f, "directive (line {line}) `{text}`"),
        }
    }
}

/// One analyzer finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: DiagCode,
    /// Severity (always `code.severity()`).
    pub severity: Severity,
    /// What the finding is about.
    pub locus: Locus,
    /// Human-readable explanation.
    pub message: String,
    /// Optional actionable hint.
    pub suggestion: Option<String>,
    /// The canonical subplan fingerprint this finding is about, if any
    /// (the `HA07x` materialization family attaches it so tooling can join
    /// findings against a subplan cache).
    pub fingerprint: Option<Fingerprint>,
}

impl Diagnostic {
    /// Builds a diagnostic; severity comes from the code.
    pub fn new(code: DiagCode, locus: Locus, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            locus,
            message: message.into(),
            suggestion: None,
            fingerprint: None,
        }
    }

    /// Attaches a suggestion.
    pub fn with_suggestion(mut self, s: impl Into<String>) -> Self {
        self.suggestion = Some(s.into());
        self
    }

    /// Attaches a subplan fingerprint.
    pub fn with_fingerprint(mut self, fp: Fingerprint) -> Self {
        self.fingerprint = Some(fp);
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.locus, self.message
        )?;
        if let Some(s) = &self.suggestion {
            write!(f, "\n  help: {s}")?;
        }
        Ok(())
    }
}

/// Everything the analyzer found, in pass order.
#[derive(Clone, Debug, Default)]
pub struct AnalysisReport {
    /// All findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// True when no findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when at least one error-severity finding exists.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// The error-severity findings.
    pub fn errors(&self) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect()
    }

    /// The warning-severity findings.
    pub fn warnings(&self) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .collect()
    }

    /// The note-severity findings (the materialization inventory).
    pub fn notes(&self) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Note)
            .collect()
    }

    /// Sorts findings by `(code, locus, message)` and collapses exact
    /// duplicates, making output independent of pass-execution order.
    pub fn normalize(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            (a.code, a.locus.sort_key(), &a.message, &a.suggestion).cmp(&(
                b.code,
                b.locus.sort_key(),
                &b.message,
                &b.suggestion,
            ))
        });
        self.diagnostics.dedup();
    }

    /// True when some finding carries `code`.
    pub fn has_code(&self, code: DiagCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Renders every finding, one per line (suggestions indented below).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_is_derived_from_code() {
        let d = Diagnostic::new(DiagCode::RecursiveCycle, Locus::Program, "cycle p/1 -> p/1");
        assert_eq!(d.severity, Severity::Error);
        let w = Diagnostic::new(
            DiagCode::EstimatorBlindSpot,
            Locus::CallPattern {
                text: "d:f($b)".into(),
            },
            "no stats",
        );
        assert_eq!(w.severity, Severity::Warning);
    }

    #[test]
    fn render_includes_code_locus_and_suggestion() {
        let d = Diagnostic::new(
            DiagCode::UngroundableVariable,
            Locus::Rule {
                index: 0,
                head: "p(A)".into(),
            },
            "variable `Z` can never become ground",
        )
        .with_suggestion("bind `Z` via an `in(...)` answer target");
        let text = d.to_string();
        assert!(text.contains("error[HA005] rule #0 `p(A)`"));
        assert!(text.contains("help: bind `Z`"));
    }

    #[test]
    fn report_partitions_by_severity() {
        let mut r = AnalysisReport::default();
        assert!(r.is_clean() && !r.has_errors());
        r.diagnostics.push(Diagnostic::new(
            DiagCode::DuplicateInvariant,
            Locus::Program,
            "dup",
        ));
        assert!(!r.has_errors());
        r.diagnostics.push(Diagnostic::new(
            DiagCode::UndefinedPredicate,
            Locus::Program,
            "missing",
        ));
        assert!(r.has_errors());
        assert_eq!(r.errors().len(), 1);
        assert_eq!(r.warnings().len(), 1);
        assert!(r.has_code(DiagCode::UndefinedPredicate));
        assert!(!r.has_code(DiagCode::RecursiveCycle));
    }

    #[test]
    fn every_code_round_trips_and_explains() {
        for code in DiagCode::all() {
            assert_eq!(DiagCode::from_code(code.as_str()), Some(*code));
            assert!(!code.title().is_empty());
            assert!(!code.explain().is_empty());
        }
        assert_eq!(DiagCode::from_code("HA999"), None);
        // `all()` is sorted by code string and free of duplicates.
        let strs: Vec<&str> = DiagCode::all().iter().map(|c| c.as_str()).collect();
        let mut sorted = strs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(strs, sorted);
    }

    #[test]
    fn notes_rank_below_warnings_and_never_count_as_errors() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        let mut r = AnalysisReport::default();
        r.diagnostics.push(Diagnostic::new(
            DiagCode::MaterializeSafe,
            Locus::Program,
            "x",
        ));
        assert!(!r.has_errors());
        assert_eq!(r.notes().len(), 1);
        assert!(r.warnings().is_empty());
    }

    #[test]
    fn normalize_sorts_by_code_then_locus_and_dedups() {
        let mk = |code, index| {
            Diagnostic::new(
                code,
                Locus::Rule {
                    index,
                    head: format!("p{index}()"),
                },
                "m",
            )
        };
        let mut r = AnalysisReport {
            diagnostics: vec![
                mk(DiagCode::CacheStarved, 1),
                mk(DiagCode::RecursiveCycle, 2),
                mk(DiagCode::RecursiveCycle, 0),
                mk(DiagCode::CacheStarved, 1),
            ],
        };
        r.normalize();
        let got: Vec<(DiagCode, (u8, usize, String))> = r
            .diagnostics
            .iter()
            .map(|d| {
                let (a, b, c) = d.locus.sort_key();
                (d.code, (a, b, c.to_string()))
            })
            .collect();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].0, DiagCode::RecursiveCycle);
        assert_eq!(got[0].1 .1, 0);
        assert_eq!(got[1].1 .1, 2);
        assert_eq!(got[2].0, DiagCode::CacheStarved);
    }
}
