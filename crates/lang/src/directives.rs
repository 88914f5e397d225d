//! Declarations: the `%!` lines of a `.hms` program file.
//!
//! `%` starts a comment in the rule language, so declarations hide in
//! comments beginning with `%!`. [`crate::parse_program`] reads them with
//! the rules and files them in [`crate::Program::declarations`]:
//!
//! ```text
//! %! query route(b, f)                 an exported query adornment
//! %! domain terraindb: findrte/2       a domain's signatures
//! %! estimator terraindb               the domain ships a native estimator
//! %! invariant X > 0 => d:f(X) = d:g(X).   an invariant (§4)
//! %! cache terraindb                   the domain's calls route through CIM
//! %! cache terraindb:findrte           one function routes through CIM
//! %! cache never                       nothing routes through CIM
//! %! volatile feed                     the domain's answers change underfoot
//! %! volatile feed:price               one function is volatile
//! ```
//!
//! A malformed line, an unknown name or a verbatim repeat never fails the
//! parse: it is recorded in [`Declarations::problems`], which the analyzer
//! reports (`HA080`–`HA082`).

use crate::ast::Invariant;
use crate::parser::parse_invariant;
use hermes_common::{HermesError, Result};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A declared query adornment, e.g. `route(b, f)`: the mediator promises to
/// answer queries on `route/2` with the first argument bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryForm {
    /// The predicate name.
    pub pred: Arc<str>,
    /// Per-position binding: `true` = bound (`b`), `false` = free (`f`).
    pub bound: Vec<bool>,
}

impl QueryForm {
    /// Builds a form from a name and per-position bindings.
    pub fn new(pred: impl Into<Arc<str>>, bound: Vec<bool>) -> Self {
        QueryForm {
            pred: pred.into(),
            bound,
        }
    }

    /// Parses `pred(b, f, ...)` — also accepts the compact `pred/bf` form.
    pub fn parse(text: &str) -> Result<Self> {
        let text = text.trim().trim_end_matches('.');
        let bad = |msg: &str| HermesError::Parse {
            line: 0,
            col: 0,
            msg: format!("query form `{text}`: {msg}"),
        };
        let (pred, adornment) = if let Some((p, rest)) = text.split_once('(') {
            let rest = rest
                .strip_suffix(')')
                .ok_or_else(|| bad("missing closing `)`"))?;
            (p.trim(), rest.replace([',', ' '], ""))
        } else if let Some((p, a)) = text.split_once('/') {
            (p.trim(), a.trim().to_string())
        } else {
            return Err(bad("expected `pred(b, f, ...)` or `pred/bf`"));
        };
        if pred.is_empty() {
            return Err(bad("empty predicate name"));
        }
        let mut bound = Vec::with_capacity(adornment.len());
        for c in adornment.chars() {
            match c {
                'b' => bound.push(true),
                'f' => bound.push(false),
                other => {
                    return Err(bad(&format!(
                        "adornment positions must be `b` or `f`, got `{other}`"
                    )))
                }
            }
        }
        Ok(QueryForm::new(pred, bound))
    }

    /// The adornment string, e.g. `bf`.
    pub fn adornment(&self) -> String {
        self.bound
            .iter()
            .map(|b| if *b { 'b' } else { 'f' })
            .collect()
    }
}

impl fmt::Display for QueryForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let args: Vec<String> = self.adornment().chars().map(String::from).collect();
        write!(f, "{}({})", self.pred, args.join(", "))
    }
}

/// A set of sources named by `%! cache` or `%! volatile` lines: whole
/// domains and single `domain:function`s.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheRouting {
    /// Whole domains.
    pub domains: BTreeSet<String>,
    /// Single functions, as `(domain, function)`.
    pub functions: BTreeSet<(String, String)>,
}

impl CacheRouting {
    /// True when the set names `domain:function`, directly or through its
    /// domain.
    pub fn routes(&self, domain: &str, function: &str) -> bool {
        self.domains.contains(domain)
            || self
                .functions
                .contains(&(domain.to_string(), function.to_string()))
    }

    /// True when the set names nothing.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty() && self.functions.is_empty()
    }
}

/// A `%! domain name: f/2, g/1` line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DomainDecl {
    /// The domain's name.
    pub name: String,
    /// Its functions and their arities, in line order.
    pub functions: Vec<(String, usize)>,
}

/// Why a `%!` line was skipped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeclarationFault {
    /// A known declaration with arguments that do not parse; the message
    /// says what was expected.
    Malformed(String),
    /// A declaration name nobody knows.
    Unknown,
    /// A verbatim repeat of an earlier line.
    Duplicate,
}

/// A `%!` line that declared nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeclarationProblem {
    /// 1-based line number in the source.
    pub line: usize,
    /// The line after `%!`, trimmed.
    pub text: String,
    /// What is wrong with it.
    pub fault: DeclarationFault,
}

/// Everything the `%!` lines of one program declare, as plain data.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Declarations {
    /// `%! query` forms, in line order.
    pub query_forms: Vec<QueryForm>,
    /// `%! domain` lines, in line order.
    pub domains: Vec<DomainDecl>,
    /// `%! estimator` domains, in line order.
    pub estimators: Vec<String>,
    /// `%! invariant` lines, in line order.
    pub invariants: Vec<Invariant>,
    /// The `%! cache` routing; `None` when no `cache` line appeared
    /// (`%! cache never` declares the empty routing).
    pub cache: Option<CacheRouting>,
    /// The `%! volatile` sources.
    pub volatile: CacheRouting,
    /// Lines that declared nothing, in line order.
    pub problems: Vec<DeclarationProblem>,
}

/// Reads the `%!` lines of `src`. Never fails: a line that cannot be read
/// becomes a [`DeclarationProblem`].
pub(crate) fn parse_declarations(src: &str) -> Declarations {
    let mut out = Declarations::default();
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for (lineno, line) in src.lines().enumerate() {
        let Some(rest) = line.trim_start().strip_prefix("%!") else {
            continue;
        };
        let rest = rest.trim();
        let fault = if !seen.insert(rest) {
            Some(DeclarationFault::Duplicate)
        } else {
            declare(rest, &mut out).err()
        };
        if let Some(fault) = fault {
            out.problems.push(DeclarationProblem {
                line: lineno + 1,
                text: rest.to_string(),
                fault,
            });
        }
    }
    out
}

/// Files one line's declaration in `out`.
fn declare(rest: &str, out: &mut Declarations) -> std::result::Result<(), DeclarationFault> {
    let malformed = DeclarationFault::Malformed;
    if let Some(arg) = rest.strip_prefix("query ") {
        let form = QueryForm::parse(arg).map_err(|e| malformed(e.to_string()))?;
        out.query_forms.push(form);
    } else if let Some(arg) = rest.strip_prefix("domain ") {
        let (name, funcs) = arg
            .split_once(':')
            .ok_or_else(|| malformed("expected `domain name: f/2, g/1`".into()))?;
        let mut functions = Vec::new();
        for f in funcs.split(',') {
            let f = f.trim().trim_end_matches('.');
            if f.is_empty() {
                continue;
            }
            let (fname, arity) = f
                .split_once('/')
                .ok_or_else(|| malformed(format!("function `{f}` must be `name/arity`")))?;
            let arity = arity
                .trim()
                .parse::<usize>()
                .map_err(|_| malformed(format!("bad arity in `{f}`")))?;
            functions.push((fname.trim().to_string(), arity));
        }
        out.domains.push(DomainDecl {
            name: name.trim().to_string(),
            functions,
        });
    } else if let Some(arg) = rest.strip_prefix("estimator ") {
        out.estimators
            .push(arg.trim().trim_end_matches('.').to_string());
    } else if let Some(arg) = rest.strip_prefix("invariant ") {
        let inv = parse_invariant(arg.trim()).map_err(|e| malformed(e.to_string()))?;
        out.invariants.push(inv);
    } else if let Some(arg) = rest.strip_prefix("cache ") {
        let routing = out.cache.get_or_insert_with(CacheRouting::default);
        route_line(arg, "cache", true, routing).map_err(malformed)?;
    } else if let Some(arg) = rest.strip_prefix("volatile ") {
        route_line(arg, "volatile", false, &mut out.volatile).map_err(malformed)?;
    } else if matches!(
        rest,
        "query" | "domain" | "estimator" | "invariant" | "cache" | "volatile"
    ) {
        return Err(malformed(format!(
            "`{rest}` directive is missing its arguments"
        )));
    } else {
        return Err(DeclarationFault::Unknown);
    }
    Ok(())
}

/// Parses the source-set argument shared by `cache` and `volatile`:
/// `domain`, `domain:function`, or (for `cache` only) `never`.
fn route_line(
    arg: &str,
    kind: &str,
    allow_never: bool,
    routing: &mut CacheRouting,
) -> std::result::Result<(), String> {
    let arg = arg.trim().trim_end_matches('.');
    let forms = if allow_never {
        format!("`{kind} domain`, `{kind} domain:function`, or `{kind} never`")
    } else {
        format!("`{kind} domain` or `{kind} domain:function`")
    };
    if allow_never && arg == "never" {
        // The empty routing: nothing routed.
    } else if let Some((domain, function)) = arg.split_once(':') {
        let (domain, function) = (domain.trim(), function.trim());
        if domain.is_empty() || function.is_empty() {
            return Err(format!("{kind} route `{arg}` must be one of {forms}"));
        }
        let function = (domain.to_string(), function.to_string());
        routing.functions.insert(function);
    } else if arg.is_empty() {
        return Err(format!("expected {forms}"));
    } else {
        routing.domains.insert(arg.to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    fn declarations(src: &str) -> Declarations {
        parse_program(src).unwrap().declarations
    }

    fn faults(d: &Declarations) -> Vec<&DeclarationFault> {
        d.problems.iter().map(|p| &p.fault).collect()
    }

    #[test]
    fn parses_all_directive_kinds() {
        let program = parse_program(
            "%! query route(b, f)\n\
             % plain comment, ignored\n\
             %! domain terraindb: findrte/2, within/3\n\
             %! estimator terraindb\n\
             %! invariant X > 0 => d:f(X) = d:g(X).\n\
             %! volatile feed:price\n\
             route(A, B) :- in(B, terraindb:findrte(A, 'x')).\n",
        )
        .unwrap();
        assert_eq!(program.rules.len(), 1);
        let d = program.declarations;
        assert!(d.problems.is_empty(), "{:?}", d.problems);
        assert_eq!(d.query_forms.len(), 1);
        assert_eq!(d.query_forms[0].adornment(), "bf");
        assert_eq!(
            d.domains,
            [DomainDecl {
                name: "terraindb".into(),
                functions: vec![("findrte".into(), 2), ("within".into(), 3)],
            }]
        );
        assert_eq!(d.estimators, ["terraindb"]);
        assert_eq!(d.invariants.len(), 1);
        assert!(d.volatile.routes("feed", "price"));
        assert!(!d.volatile.routes("feed", "other"));
    }

    #[test]
    fn no_domain_directive_means_no_signature_table() {
        let d = declarations("%! query p(f)\np(A) :- in(A, d:f()).\n");
        assert!(d.domains.is_empty() && d.estimators.is_empty());
        assert!(d.volatile.is_empty());
        assert_eq!(declarations("%! estimator d\n").estimators, ["d"]);
    }

    #[test]
    fn unknown_directive_is_a_diagnostic_not_a_failure() {
        let d = declarations("%! frobnicate yes\n");
        assert_eq!(
            d.problems,
            [DeclarationProblem {
                line: 1,
                text: "frobnicate yes".into(),
                fault: DeclarationFault::Unknown,
            }]
        );
    }

    #[test]
    fn malformed_domain_directives_are_diagnostics() {
        let d = declarations("%! domain nocolon\n%! domain d: g/1, f/x\n");
        assert_eq!(
            faults(&d),
            [
                &DeclarationFault::Malformed("expected `domain name: f/2, g/1`".into()),
                &DeclarationFault::Malformed("bad arity in `f/x`".into()),
            ]
        );
        // The half-parsed `domain d:` line must not leave partial signatures.
        assert!(d.domains.is_empty(), "{:?}", d.domains);
    }

    #[test]
    fn malformed_query_and_invariant_are_diagnostics() {
        let d = declarations("%! query route(b, x)\n%! invariant garbage\n");
        assert_eq!(d.problems.len(), 2);
        assert!(faults(&d)
            .iter()
            .all(|f| matches!(f, DeclarationFault::Malformed(_))));
        assert!(d.query_forms.is_empty());
        assert!(d.invariants.is_empty());
    }

    #[test]
    fn duplicate_directive_is_warned_and_skipped() {
        let d = declarations("%! query p(f)\n%! query p(f)\n%! query q(b)\n");
        assert_eq!(d.query_forms.len(), 2, "the duplicate is not re-added");
        assert_eq!(faults(&d), [&DeclarationFault::Duplicate]);
        assert_eq!(d.problems[0].line, 2);
    }

    #[test]
    fn cache_directives_build_the_routing() {
        let routing = declarations("%! cache d\n%! cache e:f\n").cache.unwrap();
        assert!(routing.routes("d", "anything"));
        assert!(routing.routes("e", "f"));
        assert!(!routing.routes("e", "g"));
        assert!(!routing.routes("x", "y"));
    }

    #[test]
    fn cache_never_declares_the_empty_routing() {
        let routing = declarations("%! cache never\n").cache.unwrap();
        assert!(routing.is_empty());
        assert!(!routing.routes("d", "f"));
    }

    #[test]
    fn no_cache_directive_means_no_routing() {
        let d = declarations("%! volatile d\np(A) :- in(A, d:f()).\n");
        assert!(d.cache.is_none());
        assert!(d.problems.is_empty());
        assert_eq!(
            declarations("p(A) :- in(A, d:f()).\n"),
            Declarations::default()
        );
    }

    #[test]
    fn malformed_cache_directives_are_diagnostics() {
        for src in ["%! cache d:\n", "%! cache :f\n", "%! cache \n"] {
            let d = declarations(src);
            assert_eq!(d.problems.len(), 1, "{src:?}");
            assert!(matches!(
                d.problems[0].fault,
                DeclarationFault::Malformed(_)
            ));
        }
    }

    #[test]
    fn volatile_never_is_malformed() {
        // `never` only makes sense for routing; a volatile set is additive.
        let d = declarations("%! volatile never\n");
        assert!(d.problems.is_empty());
        // ...it reads as a domain named `never`, which is harmless; the
        // empty-arg form is the malformed one.
        assert_eq!(declarations("%! volatile \n").problems.len(), 1);
    }
}
