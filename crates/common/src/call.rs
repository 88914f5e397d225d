//! Ground domain calls and domain-call patterns.
//!
//! A **ground call** `domain:function(v1, …, vN)` with all arguments bound to
//! constants is the unit of work the mediator sends to an external source; it
//! is also the *key* of both caches the paper introduces — the answer cache
//! (CIM, §4) and the statistics cache (DCSM, §6).
//!
//! A **call pattern** `domain:function(v1, $b, …)` replaces some arguments by
//! the symbol `$b` ("bound to an unknown constant"). Patterns are what the
//! cost estimator asks DCSM about before execution, when it knows an argument
//! will be bound by a prior subgoal but not to which value (§6). Patterns of
//! the same call form a lattice ordered by generalization; DCSM's lookup
//! algorithm (§6.3) walks this lattice.

use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A fully ground domain call: `domain:function(arg1, …, argN)`.
///
/// The argument list is `Arc`-backed: ground calls are the *keys* of both
/// caches (CIM answers, DCSM statistics) and get cloned on every probe,
/// store, and invariant hit. With shared args a clone is three reference
/// bumps — the key path never allocates.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroundCall {
    /// The external source ("domain") name, e.g. `video`.
    pub domain: Arc<str>,
    /// The function exported by that domain, e.g. `frames_to_objects`.
    pub function: Arc<str>,
    /// Ground argument values (shared; clone is a reference bump).
    pub args: Arc<[Value]>,
}

impl GroundCall {
    /// Builds a ground call.
    pub fn new(
        domain: impl Into<Arc<str>>,
        function: impl Into<Arc<str>>,
        args: impl Into<Arc<[Value]>>,
    ) -> Self {
        GroundCall {
            domain: domain.into(),
            function: function.into(),
            args: args.into(),
        }
    }

    /// The fully-constant pattern of this call (every argument `Const`).
    pub fn pattern(&self) -> CallPattern {
        CallPattern {
            domain: self.domain.clone(),
            function: self.function.clone(),
            args: self.args.iter().cloned().map(PatArg::Const).collect(),
        }
    }

    /// The fully-general pattern (`$b` in every position).
    pub fn blanket_pattern(&self) -> CallPattern {
        CallPattern {
            domain: self.domain.clone(),
            function: self.function.clone(),
            args: self.args.iter().map(|_| PatArg::Bound).collect(),
        }
    }

    /// Approximate wire size of the request, for the network model.
    pub fn request_bytes(&self) -> usize {
        self.domain.len()
            + self.function.len()
            + 2
            + self.args.iter().map(Value::size_bytes).sum::<usize>()
    }
}

/// Deterministic shard routing for `(domain, function)` keys.
///
/// Both sharded caches (`ShardedCim` answers, `ShardedDcsm` statistics)
/// partition state by the same key so that every structure that must see
/// *all* entries of one function — invariant posting lists, ordered
/// indexes, DCSM summary tables — lives whole inside a single shard.
/// `DefaultHasher::new()` uses fixed SipHash keys, so the routing is stable
/// across runs and processes (cache persistence round-trips keep shards).
pub fn shard_index(domain: &str, function: &str, n: usize) -> usize {
    use std::hash::{Hash, Hasher};
    if n <= 1 {
        return 0;
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    domain.hash(&mut h);
    function.hash(&mut h);
    (h.finish() % n as u64) as usize
}

impl fmt::Display for GroundCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}(", self.domain, self.function)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", a.to_literal())?;
        }
        write!(f, ")")
    }
}

/// One argument position of a [`CallPattern`].
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PatArg {
    /// Known constant.
    Const(Value),
    /// Bound at execution time, value unknown at planning time (`$b`).
    Bound,
}

/// A domain-call pattern: constants in some positions, `$b` in the rest.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CallPattern {
    /// The domain name.
    pub domain: Arc<str>,
    /// The function name.
    pub function: Arc<str>,
    /// Per-position constants or `$b`.
    pub args: Vec<PatArg>,
}

impl CallPattern {
    /// Builds a pattern.
    pub fn new(
        domain: impl Into<Arc<str>>,
        function: impl Into<Arc<str>>,
        args: Vec<PatArg>,
    ) -> Self {
        CallPattern {
            domain: domain.into(),
            function: function.into(),
            args,
        }
    }

    /// Number of argument positions.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// Indices of positions holding constants.
    pub fn const_positions(&self) -> Vec<usize> {
        self.args
            .iter()
            .enumerate()
            .filter_map(|(i, a)| matches!(a, PatArg::Const(_)).then_some(i))
            .collect()
    }

    /// Number of constant positions (the pattern's *specificity*).
    pub fn specificity(&self) -> usize {
        self.args
            .iter()
            .filter(|a| matches!(a, PatArg::Const(_)))
            .count()
    }

    /// True if `self` is at least as general as `other`: same call shape and
    /// every constant position of `self` holds the same constant in `other`.
    /// (`other` may fix positions `self` leaves as `$b`.)
    pub fn generalizes(&self, other: &CallPattern) -> bool {
        self.domain == other.domain
            && self.function == other.function
            && self.args.len() == other.args.len()
            && self.args.iter().zip(&other.args).all(|(s, o)| match s {
                PatArg::Bound => true,
                PatArg::Const(v) => matches!(o, PatArg::Const(w) if v == w),
            })
    }

    /// True if the pattern matches a ground call (constants agree).
    pub fn matches(&self, call: &GroundCall) -> bool {
        self.domain == call.domain
            && self.function == call.function
            && self.args.len() == call.args.len()
            && self
                .args
                .iter()
                .zip(call.args.iter())
                .all(|(p, v)| match p {
                    PatArg::Bound => true,
                    PatArg::Const(c) => c == v,
                })
    }

    /// The patterns produced by replacing exactly one constant with `$b` —
    /// the single relaxation step of the §6.3 lookup algorithm.
    pub fn relaxations(&self) -> Vec<CallPattern> {
        self.const_positions()
            .into_iter()
            .map(|i| {
                let args = self
                    .args
                    .iter()
                    .enumerate()
                    .map(|(j, a)| if j == i { PatArg::Bound } else { a.clone() })
                    .collect();
                CallPattern {
                    domain: self.domain.clone(),
                    function: self.function.clone(),
                    args,
                }
            })
            .collect()
    }

    /// The constant positions as a bit mask (bit `i` set ⇔ `args[i]` holds a
    /// constant) — the hash key of the DCSM relaxation-lattice index. `None`
    /// when the arity exceeds 64 positions.
    pub fn mask_bits(&self) -> Option<u64> {
        if self.args.len() > 64 {
            return None;
        }
        let mut mask = 0u64;
        for (i, a) in self.args.iter().enumerate() {
            if matches!(a, PatArg::Const(_)) {
                mask |= 1 << i;
            }
        }
        Some(mask)
    }

    /// The *shape* of this pattern: which positions are constants. Two
    /// patterns with the same shape belong to the same DCSM table.
    pub fn shape(&self) -> PatternShape {
        PatternShape {
            domain: self.domain.clone(),
            function: self.function.clone(),
            const_mask: self
                .args
                .iter()
                .map(|a| matches!(a, PatArg::Const(_)))
                .collect(),
        }
    }

    /// The constants, in position order (the DCSM table row key).
    pub fn const_values(&self) -> Vec<Value> {
        self.constants().cloned().collect()
    }

    /// The constants, in position order, borrowed.
    pub fn constants(&self) -> impl Iterator<Item = &Value> {
        self.args.iter().filter_map(|a| match a {
            PatArg::Const(v) => Some(v),
            PatArg::Bound => None,
        })
    }
}

impl fmt::Display for CallPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}(", self.domain, self.function)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match a {
                PatArg::Const(v) => write!(f, "{}", v.to_literal())?,
                PatArg::Bound => write!(f, "$b")?,
            }
        }
        write!(f, ")")
    }
}

/// Which argument positions of a call shape are constants — the identity of
/// a DCSM (summary) table. `d:f($b, B, C)` in the paper is the shape with
/// `const_mask = [false, true, true]`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternShape {
    /// The domain name.
    pub domain: Arc<str>,
    /// The function name.
    pub function: Arc<str>,
    /// `true` where the position holds a constant ("dimension" attribute).
    pub const_mask: Vec<bool>,
}

impl PatternShape {
    /// Builds a shape.
    pub fn new(
        domain: impl Into<Arc<str>>,
        function: impl Into<Arc<str>>,
        const_mask: Vec<bool>,
    ) -> Self {
        PatternShape {
            domain: domain.into(),
            function: function.into(),
            const_mask,
        }
    }

    /// Number of dimension (constant) positions.
    pub fn dimension_count(&self) -> usize {
        self.const_mask.iter().filter(|b| **b).count()
    }

    /// The fully-general shape of the same call.
    pub fn blanket(&self) -> PatternShape {
        PatternShape {
            domain: self.domain.clone(),
            function: self.function.clone(),
            const_mask: vec![false; self.const_mask.len()],
        }
    }

    /// Projects a pattern of shape `other ⊇ self` onto this shape, keeping
    /// only this shape's dimensions. Returns `None` on shape mismatch.
    pub fn project(&self, pattern: &CallPattern) -> Option<CallPattern> {
        if pattern.domain != self.domain
            || pattern.function != self.function
            || pattern.args.len() != self.const_mask.len()
        {
            return None;
        }
        let args = pattern
            .args
            .iter()
            .zip(&self.const_mask)
            .map(|(a, keep)| if *keep { a.clone() } else { PatArg::Bound })
            .collect();
        Some(CallPattern {
            domain: self.domain.clone(),
            function: self.function.clone(),
            args,
        })
    }
}

impl fmt::Display for PatternShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}[", self.domain, self.function)?;
        for (i, c) in self.const_mask.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", if *c { "C" } else { "$b" })?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call() -> GroundCall {
        GroundCall::new(
            "d",
            "f",
            vec![Value::str("a"), Value::Int(5), Value::Int(2)],
        )
    }

    #[test]
    fn display_forms() {
        assert_eq!(call().to_string(), "d:f('a', 5, 2)");
        let p = CallPattern::new("d", "f", vec![PatArg::Const(Value::Int(5)), PatArg::Bound]);
        assert_eq!(p.to_string(), "d:f(5, $b)");
    }

    #[test]
    fn pattern_from_call_matches_it() {
        let c = call();
        assert!(c.pattern().matches(&c));
        assert!(c.blanket_pattern().matches(&c));
        assert_eq!(c.pattern().specificity(), 3);
    }

    #[test]
    fn pattern_mismatch_on_different_constant() {
        let c = call();
        let mut p = c.pattern();
        p.args[1] = PatArg::Const(Value::Int(6));
        assert!(!p.matches(&c));
    }

    #[test]
    fn generalization_order() {
        let c = call();
        let full = c.pattern();
        let blanket = c.blanket_pattern();
        let mid = {
            let mut p = full.clone();
            p.args[0] = PatArg::Bound;
            p
        };
        assert!(blanket.generalizes(&full));
        assert!(blanket.generalizes(&mid));
        assert!(mid.generalizes(&full));
        assert!(!full.generalizes(&mid));
        assert!(full.generalizes(&full));
    }

    #[test]
    fn relaxations_drop_one_constant_each() {
        let c = call();
        let rs = c.pattern().relaxations();
        assert_eq!(rs.len(), 3);
        for r in &rs {
            assert_eq!(r.specificity(), 2);
            assert!(r.generalizes(&c.pattern()));
        }
        assert!(c.blanket_pattern().relaxations().is_empty());
    }

    #[test]
    fn shape_identity_and_projection() {
        let c = call();
        let full_shape = c.pattern().shape();
        assert_eq!(full_shape.dimension_count(), 3);
        let lossy = PatternShape::new("d", "f", vec![true, false, false]);
        let projected = lossy.project(&c.pattern()).unwrap();
        assert_eq!(projected.to_string(), "d:f('a', $b, $b)");
        // projecting a pattern of the wrong arity fails
        let other = CallPattern::new("d", "f", vec![PatArg::Bound]);
        assert!(lossy.project(&other).is_none());
    }

    #[test]
    fn mask_bits_mark_constant_positions() {
        let c = call();
        assert_eq!(c.pattern().mask_bits(), Some(0b111));
        assert_eq!(c.blanket_pattern().mask_bits(), Some(0));
        let mut mid = c.pattern();
        mid.args[1] = PatArg::Bound;
        assert_eq!(mid.mask_bits(), Some(0b101));
    }

    #[test]
    fn ground_call_clone_shares_args() {
        let c = call();
        let d = c.clone();
        assert!(Arc::ptr_eq(&c.args, &d.args));
        assert_eq!(c, d);
    }

    #[test]
    fn shape_display() {
        let s = PatternShape::new("d", "f", vec![true, false]);
        assert_eq!(s.to_string(), "d:f[C,$b]");
    }

    #[test]
    fn request_bytes_counts_args() {
        let c = GroundCall::new("d", "f", vec![Value::Int(1)]);
        assert_eq!(c.request_bytes(), 1 + 1 + 2 + 8);
    }
}
