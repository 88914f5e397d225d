//! Recursive-descent parser for programs, queries, and invariants.

use crate::ast::*;
use crate::directives::parse_declarations;
use crate::lexer::{lex, Spanned, Tok};
use hermes_common::{AttrPath, HermesError, PathStep, Result, Value};
use std::sync::Arc;

/// Parses a whole mediator program: zero or more `.`-terminated rules,
/// plus the `%!` declarations among them (see [`crate::directives`]).
pub fn parse_program(input: &str) -> Result<Program> {
    let mut p = Parser::new(input)?;
    let mut rules = Vec::new();
    while !p.at_end() {
        rules.push(p.rule()?);
    }
    Ok(Program {
        rules,
        declarations: parse_declarations(input),
    })
}

/// Parses a single rule.
pub fn parse_rule(input: &str) -> Result<Rule> {
    let mut p = Parser::new(input)?;
    let r = p.rule()?;
    p.expect_end()?;
    Ok(r)
}

/// Parses a query. The leading `?-` is optional.
pub fn parse_query(input: &str) -> Result<Query> {
    let mut p = Parser::new(input)?;
    let q = p.query()?;
    p.expect_end()?;
    Ok(q)
}

/// Parses a single invariant.
pub fn parse_invariant(input: &str) -> Result<Invariant> {
    let mut p = Parser::new(input)?;
    let inv = p.invariant()?;
    p.expect_end()?;
    Ok(inv)
}

/// Parses zero or more `.`-terminated invariants.
pub fn parse_invariants(input: &str) -> Result<Vec<Invariant>> {
    let mut p = Parser::new(input)?;
    let mut out = Vec::new();
    while !p.at_end() {
        out.push(p.invariant()?);
    }
    Ok(out)
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn new(input: &str) -> Result<Self> {
        Ok(Parser {
            toks: lex(input)?,
            pos: 0,
        })
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|s| &s.tok)
    }

    fn here(&self) -> (usize, usize) {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map(|s| (s.line, s.col))
            .unwrap_or((1, 1))
    }

    fn err(&self, msg: impl Into<String>) -> HermesError {
        let (line, col) = self.here();
        HermesError::Parse {
            line,
            col,
            msg: msg.into(),
        }
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, want: &Tok) -> bool {
        if self.peek() == Some(want) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, want: &Tok) -> Result<()> {
        if self.eat(want) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{want}`, found {}",
                self.peek()
                    .map(|t| format!("`{t}`"))
                    .unwrap_or_else(|| "end of input".into())
            )))
        }
    }

    fn expect_end(&self) -> Result<()> {
        if self.at_end() {
            Ok(())
        } else {
            Err(self.err("trailing input after clause"))
        }
    }

    fn ident(&mut self) -> Result<Arc<str>> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(Arc::from(s.as_str())),
            other => Err(self.err(format!(
                "expected identifier, found {}",
                other
                    .map(|t| format!("`{t}`"))
                    .unwrap_or_else(|| "end of input".into())
            ))),
        }
    }

    /// rule := pred_atom ( ":-" conjuncts )? "."
    fn rule(&mut self) -> Result<Rule> {
        let head = self.pred_atom()?;
        let body = if self.eat(&Tok::Turnstile) {
            self.conjuncts()?
        } else {
            Vec::new()
        };
        self.expect(&Tok::Period)?;
        Ok(Rule::new(head, body))
    }

    /// query := "?-"? conjuncts "."
    fn query(&mut self) -> Result<Query> {
        self.eat(&Tok::QueryMark);
        let goals = self.conjuncts()?;
        self.expect(&Tok::Period)?;
        Ok(Query::new(goals))
    }

    /// invariant := (conditions "=>")? call REL call "."
    /// An empty condition list may be written by starting with "=>".
    fn invariant(&mut self) -> Result<Invariant> {
        let mut conditions = Vec::new();
        if !self.eat(&Tok::Implies) {
            loop {
                conditions.push(self.condition()?);
                if self.eat(&Tok::Amp) || self.eat(&Tok::Comma) {
                    continue;
                }
                self.expect(&Tok::Implies)?;
                break;
            }
        }
        let lhs = self.call_template()?;
        let rel = match self.bump() {
            Some(Tok::OpEq) => InvRel::Equal,
            Some(Tok::OpGe) => InvRel::Superset,
            Some(Tok::OpLe) => InvRel::Subset,
            other => {
                return Err(self.err(format!(
                    "expected invariant relation `=`, `>=`, or `<=`, found {}",
                    other
                        .map(|t| format!("`{t}`"))
                        .unwrap_or_else(|| "end of input".into())
                )))
            }
        };
        let rhs = self.call_template()?;
        self.expect(&Tok::Period)?;
        Ok(Invariant::new(conditions, lhs, rel, rhs))
    }

    fn conjuncts(&mut self) -> Result<Vec<BodyAtom>> {
        let mut atoms = vec![self.body_atom()?];
        while self.eat(&Tok::Amp) || self.eat(&Tok::Comma) {
            atoms.push(self.body_atom()?);
        }
        Ok(atoms)
    }

    fn body_atom(&mut self) -> Result<BodyAtom> {
        match self.peek() {
            Some(t) if t.is_relop() => Ok(BodyAtom::Cond(self.prefix_condition()?)),
            Some(Tok::Ident(name)) if name == "in" && self.peek2() == Some(&Tok::LParen) => {
                self.in_atom()
            }
            Some(Tok::Ident(_)) if self.peek2() == Some(&Tok::LParen) => {
                Ok(BodyAtom::Pred(self.pred_atom()?))
            }
            _ => {
                // Infix condition: path_term relop path_term.
                let lhs = self.path_term()?;
                let op = self.relop()?;
                let rhs = self.path_term()?;
                Ok(BodyAtom::Cond(Condition::new(op, lhs, rhs)))
            }
        }
    }

    /// condition := relop "(" path_term "," path_term ")"
    ///            | path_term relop path_term
    fn condition(&mut self) -> Result<Condition> {
        if self.peek().is_some_and(Tok::is_relop) {
            self.prefix_condition()
        } else {
            let lhs = self.path_term()?;
            let op = self.relop()?;
            let rhs = self.path_term()?;
            Ok(Condition::new(op, lhs, rhs))
        }
    }

    fn prefix_condition(&mut self) -> Result<Condition> {
        let op = self.relop()?;
        self.expect(&Tok::LParen)?;
        let lhs = self.path_term()?;
        self.expect(&Tok::Comma)?;
        let rhs = self.path_term()?;
        self.expect(&Tok::RParen)?;
        Ok(Condition::new(op, lhs, rhs))
    }

    fn relop(&mut self) -> Result<Relop> {
        match self.bump() {
            Some(Tok::OpEq) => Ok(Relop::Eq),
            Some(Tok::OpNe) => Ok(Relop::Ne),
            Some(Tok::OpLt) => Ok(Relop::Lt),
            Some(Tok::OpLe) => Ok(Relop::Le),
            Some(Tok::OpGt) => Ok(Relop::Gt),
            Some(Tok::OpGe) => Ok(Relop::Ge),
            other => Err(self.err(format!(
                "expected comparison operator, found {}",
                other
                    .map(|t| format!("`{t}`"))
                    .unwrap_or_else(|| "end of input".into())
            ))),
        }
    }

    /// in_atom := "in" "(" term "," call ")"
    fn in_atom(&mut self) -> Result<BodyAtom> {
        self.bump(); // `in`
        self.expect(&Tok::LParen)?;
        let target = self.term()?;
        self.expect(&Tok::Comma)?;
        let call = self.call_template()?;
        self.expect(&Tok::RParen)?;
        Ok(BodyAtom::In { target, call })
    }

    /// call := ident ":" ident "(" terms? ")"
    fn call_template(&mut self) -> Result<CallTemplate> {
        let domain = self.ident()?;
        self.expect(&Tok::Colon)?;
        let function = self.ident()?;
        self.expect(&Tok::LParen)?;
        let args = self.term_list()?;
        self.expect(&Tok::RParen)?;
        Ok(CallTemplate {
            domain,
            function,
            args,
        })
    }

    fn pred_atom(&mut self) -> Result<PredAtom> {
        let name = self.ident()?;
        self.expect(&Tok::LParen)?;
        let args = self.term_list()?;
        self.expect(&Tok::RParen)?;
        Ok(PredAtom { name, args })
    }

    fn term_list(&mut self) -> Result<Vec<Term>> {
        let mut args = Vec::new();
        if self.peek() == Some(&Tok::RParen) {
            return Ok(args);
        }
        args.push(self.term()?);
        while self.eat(&Tok::Comma) {
            args.push(self.term()?);
        }
        Ok(args)
    }

    fn term(&mut self) -> Result<Term> {
        match self.bump() {
            Some(Tok::Var(v)) => Ok(Term::Var(Arc::from(v.as_str()))),
            Some(Tok::Ident(s)) => Ok(Term::Const(Value::str(s))),
            Some(Tok::Str(s)) => Ok(Term::Const(Value::str(s))),
            Some(Tok::Int(i)) => Ok(Term::Const(Value::Int(i))),
            Some(Tok::Float(f)) => Ok(Term::Const(Value::Float(f))),
            other => Err(self.err(format!(
                "expected term, found {}",
                other
                    .map(|t| format!("`{t}`"))
                    .unwrap_or_else(|| "end of input".into())
            ))),
        }
    }

    /// path_term := term ( "." path_step )*
    fn path_term(&mut self) -> Result<PathTerm> {
        let base = self.term()?;
        let mut steps = Vec::new();
        while self.eat(&Tok::PathDot) {
            match self.bump() {
                Some(Tok::Int(i)) if i > 0 => steps.push(PathStep::Index(i as usize)),
                Some(Tok::Int(i)) => {
                    return Err(self.err(format!("path index must be positive, got {i}")))
                }
                Some(Tok::Ident(s)) => steps.push(PathStep::Field(Arc::from(s.as_str()))),
                Some(Tok::Var(s)) => steps.push(PathStep::Field(Arc::from(s.as_str()))),
                other => {
                    return Err(self.err(format!(
                        "expected attribute selector after `.`, found {}",
                        other
                            .map(|t| format!("`{t}`"))
                            .unwrap_or_else(|| "end of input".into())
                    )))
                }
            }
        }
        if steps.is_empty() {
            Ok(PathTerm::bare(base))
        } else {
            if base.as_var().is_none() {
                return Err(self.err("attribute paths may only be applied to variables"));
            }
            Ok(PathTerm::with_path(base, AttrPath::new(steps)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paper_mediator_m1() {
        // Mediator (M1) from Example 5.1, in our variable convention.
        let src = "
            m(A, C) :- p(A, B) & q(B, C).
            p(A, B) :- in(Ans, d1:p_ff()) & =(Ans.1, A) & =(Ans.2, B).
            p(A, B) :- in(A, d1:p_fb(B)).
            q(B, C) :- in(Ans, d2:q_ff()) & =(Ans.1, B) & =(Ans.2, C).
            q(B, C) :- in(C, d2:q_bf(B)).
        ";
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.rules.len(), 5);
        assert_eq!(prog.rules_for("p", 2).len(), 2);
        let r = &prog.rules[1];
        assert_eq!(r.body.len(), 3);
        assert!(matches!(r.body[0], BodyAtom::In { .. }));
        assert!(matches!(r.body[1], BodyAtom::Cond(_)));
    }

    #[test]
    fn parse_query_with_and_without_marker() {
        let q1 = parse_query("?- m('a', C).").unwrap();
        let q2 = parse_query("m('a', C).").unwrap();
        assert_eq!(q1, q2);
        assert_eq!(q1.goals.len(), 1);
    }

    #[test]
    fn parse_routetosupplies_example() {
        // The motivating rule from §2 of the paper.
        let src = "
            routetosupplies(From, Sup1, To, R) :-
                in(Tuple, ingres:select_eq('inventory', 'item', Sup1)) &
                =(Tuple.loc, To) &
                in(R, terraindb:findrte(From, To)).
        ";
        let prog = parse_program(src).unwrap();
        let r = &prog.rules[0];
        assert_eq!(r.head.args.len(), 4);
        match &r.body[1] {
            BodyAtom::Cond(c) => {
                assert_eq!(c.lhs.to_string(), "Tuple.loc");
                assert_eq!(c.op, Relop::Eq);
            }
            other => panic!("expected condition, got {other}"),
        }
    }

    #[test]
    fn parse_infix_conditions() {
        let q = parse_query("in(X, d:f('a')) & X > 5 & X.1 <= 10.").unwrap();
        assert_eq!(q.goals.len(), 3);
        match &q.goals[1] {
            BodyAtom::Cond(c) => assert_eq!(c.op, Relop::Gt),
            other => panic!("expected condition, got {other}"),
        }
    }

    #[test]
    fn parse_equality_invariant() {
        let inv = parse_invariant(
            "Dist > 142 => spatial:range('points', X, Y, Dist) = spatial:range('points', X, Y, 142).",
        )
        .unwrap();
        assert_eq!(inv.rel, InvRel::Equal);
        assert_eq!(inv.conditions.len(), 1);
        assert_eq!(inv.lhs.args.len(), 4);
        assert_eq!(inv.rhs.args[3], Term::constant(142));
    }

    #[test]
    fn parse_superset_invariant() {
        let inv = parse_invariant(
            "V1 <= V2 => relation:select_lt(T, A, V2) >= relation:select_lt(T, A, V1).",
        )
        .unwrap();
        assert_eq!(inv.rel, InvRel::Superset);
        assert_eq!(inv.lhs.function.as_ref(), "select_lt");
    }

    #[test]
    fn parse_unconditional_invariant() {
        let inv = parse_invariant("=> d:f(X) = d:g(X).").unwrap();
        assert!(inv.conditions.is_empty());
    }

    #[test]
    fn parse_multiple_invariants() {
        let invs = parse_invariants("=> d:f(X) = d:g(X).\nA < B => d:h(B) >= d:h(A).").unwrap();
        assert_eq!(invs.len(), 2);
    }

    #[test]
    fn comma_and_amp_both_conjoin() {
        let a = parse_query("p(X), q(X).").unwrap();
        let b = parse_query("p(X) & q(X).").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn lowercase_idents_are_string_constants() {
        let q = parse_query("p(abc, X).").unwrap();
        match &q.goals[0] {
            BodyAtom::Pred(p) => {
                assert_eq!(p.args[0], Term::Const(Value::str("abc")));
                assert!(p.args[1].is_var());
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn dollar_vars_match_plain_vars() {
        let a = parse_query("p($ans) & =($ans.1, 5).").unwrap();
        let b = parse_query("p(Ans) & =(Ans.1, 5).").unwrap();
        // $ans and Ans normalize differently (case preserved), but both are vars.
        match (&a.goals[0], &b.goals[0]) {
            (BodyAtom::Pred(pa), BodyAtom::Pred(pb)) => {
                assert!(pa.args[0].is_var());
                assert!(pb.args[0].is_var());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn missing_period_is_error() {
        assert!(parse_rule("p(A) :- q(A)").is_err());
    }

    #[test]
    fn trailing_garbage_is_error() {
        assert!(parse_rule("p(A) :- q(A). extra").is_err());
    }

    #[test]
    fn path_on_constant_is_error() {
        assert!(parse_query("=(abc.1, 5).").is_err());
    }

    #[test]
    fn zero_path_index_is_error() {
        assert!(parse_query("=(X.0, 5).").is_err());
    }

    #[test]
    fn facts_parse_as_empty_body_rules() {
        let prog = parse_program("edge(a, b). edge(b, c).").unwrap();
        assert_eq!(prog.rules.len(), 2);
        assert!(prog.rules[0].body.is_empty());
    }

    #[test]
    fn display_reparses_to_same_ast() {
        let src = "p(A, B) :- in(Ans, d1:p_ff()) & =(Ans.1, A) & in(B, d2:q_bf(A)).";
        let r1 = parse_rule(src).unwrap();
        let r2 = parse_rule(&r1.to_string()).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn appendix_query2_parses() {
        // query2 from the paper's appendix (adapted to our conventions).
        let src = "
            query2(First, Last, Object, Frames, Actor) :-
                in(Object, video:frames_to_objects('rope', First, Last)) &
                in(Frames, video:object_to_frames('rope', Object)) &
                in(Actor, relation:select_eq('cast', 'role', Object)).
        ";
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.rules[0].body.len(), 3);
    }
}
