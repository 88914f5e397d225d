//! # hermes-lang
//!
//! The HERMES mediator rule language (§2 of the paper), as a library:
//! lexer, parser, AST, substitutions/unification, and static validation.
//!
//! A mediator is a set of rules
//!
//! ```text
//! A :- B1 & … & Bn & D1 & … & Dm & E1 & … & Ek.
//! ```
//!
//! where the `B`s are ordinary (IDB) predicate atoms, the `D`s are *domain
//! call* atoms `in(X, d:f(args))` — `X` is in the answer set returned by
//! executing function `f` of external source `d` on ground `args` — and the
//! `E`s are comparison conditions `relop(V1, V2)` whose operands may select
//! attributes of complex values (`Ans.1`, `P.name`).
//!
//! Syntax conventions (Prolog-style, documented here because the paper's own
//! typography is inconsistent): identifiers starting with an uppercase letter
//! or `$` are **variables**; lowercase identifiers, quoted strings, and
//! numbers are **constants**. Conjuncts are separated by `&` or `,`; every
//! rule, query, and invariant ends with `.`.
//!
//! ```
//! use hermes_lang::parse_program;
//!
//! let program = parse_program(
//!     "route(From, Sup, To, R) :-
//!          in(Tuple, ingres:select_eq('inventory', 'item', Sup)) &
//!          =(Tuple.loc, To) &
//!          in(R, terraindb:findrte(From, To)).",
//! ).unwrap();
//! assert_eq!(program.rules.len(), 1);
//! ```
//!
//! A `%!` line is a declaration, not a comment: [`parse_program`] files it
//! in [`Program::declarations`] (see [`directives`]).
//!
//! Invariants (§4) share the term language:
//!
//! ```
//! use hermes_lang::parse_invariant;
//!
//! let inv = parse_invariant(
//!     "V1 <= V2 => relation:select_lt(T, A, V2) >= relation:select_lt(T, A, V1).",
//! ).unwrap();
//! assert!(inv.rel.is_superset());
//! ```

pub mod ast;
pub mod directives;
pub mod lexer;
pub mod parser;
pub mod subst;
pub mod validate;

pub use ast::{
    BodyAtom, CallTemplate, Condition, InvRel, Invariant, PathTerm, PredAtom, PredRules, Program,
    Query, Relop, Rule, RuleIndex, Term,
};
pub use directives::{
    CacheRouting, DeclarationFault, DeclarationProblem, Declarations, DomainDecl, QueryForm,
};
pub use parser::{parse_invariant, parse_invariants, parse_program, parse_query, parse_rule};
pub use subst::Subst;
pub use validate::{
    groundability, validate_invariant, validate_program, validate_rule, GroundabilityReport,
    StuckAtom,
};

/// The most rule expansions one plan may take: the rewriter stops
/// unfolding a search path once it has expanded this many rule-defined
/// atoms (its `max_depth` error), and the analyzer warns (`HA011`) about
/// a declared query form that needs more. The count is a sum over the
/// whole unfolding, not how deep the rules nest: two 15-link chains under
/// one rule need 33.
pub const MAX_DEPTH: usize = 32;
