//! Cost vectors and aggregation primitives.

use std::fmt;

/// A (possibly partial) cost vector `[T_first, T_all, Card]` (§6).
///
/// Fields are optional because observations can be incomplete: in
/// interactive mode the user may stop before all answers arrive, so a
/// record may carry `t_first` but not `t_all` or `card`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostVector {
    /// Time to the first answer, milliseconds.
    pub t_first_ms: Option<f64>,
    /// Time to all answers, milliseconds.
    pub t_all_ms: Option<f64>,
    /// Answer-set cardinality.
    pub cardinality: Option<f64>,
}

impl CostVector {
    /// A fully-populated vector.
    pub const fn full(t_first_ms: f64, t_all_ms: f64, cardinality: f64) -> Self {
        CostVector {
            t_first_ms: Some(t_first_ms),
            t_all_ms: Some(t_all_ms),
            cardinality: Some(cardinality),
        }
    }

    /// True if every component is present.
    pub fn is_complete(&self) -> bool {
        self.t_first_ms.is_some() && self.t_all_ms.is_some() && self.cardinality.is_some()
    }

    /// Fills missing components of `self` from `other`.
    pub fn or(&self, other: &CostVector) -> CostVector {
        CostVector {
            t_first_ms: self.t_first_ms.or(other.t_first_ms),
            t_all_ms: self.t_all_ms.or(other.t_all_ms),
            cardinality: self.cardinality.or(other.cardinality),
        }
    }
}

impl fmt::Display for CostVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let show = |x: Option<f64>| match x {
            Some(v) => format!("{v:.2}"),
            None => "?".to_string(),
        };
        write!(
            f,
            "[Tf={}, Ta={}, Card={}]",
            show(self.t_first_ms),
            show(self.t_all_ms),
            show(self.cardinality)
        )
    }
}

/// An incrementally-updatable (optionally decayed) mean.
///
/// With `decay = None` this is the plain average the paper uses. With
/// `decay = Some(λ)` each existing observation's weight is multiplied by
/// `exp(-λ · Δt_ms)` before a new one is added — the "giving precedence to
/// more recent statistics" extension §6.2 mentions as future work.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MeanAgg {
    sum: f64,
    weight: f64,
    /// Number of raw observations folded in (the paper's `l` column).
    pub count: u64,
}

impl MeanAgg {
    /// An empty aggregate.
    pub fn new() -> Self {
        MeanAgg::default()
    }

    /// Adds an observation with weight 1.
    pub fn add(&mut self, value: f64) {
        self.sum += value;
        self.weight += 1.0;
        self.count += 1;
    }

    /// Decays all existing weight by `factor` (≤ 1).
    pub fn decay(&mut self, factor: f64) {
        let f = factor.clamp(0.0, 1.0);
        self.sum *= f;
        self.weight *= f;
    }

    /// Merges another aggregate into this one.
    pub fn merge(&mut self, other: &MeanAgg) {
        self.sum += other.sum;
        self.weight += other.weight;
        self.count += other.count;
    }

    /// The current mean, if any observation survives.
    pub fn mean(&self) -> Option<f64> {
        if self.weight > 1e-12 {
            Some(self.sum / self.weight)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_vector_or_fills_gaps() {
        let partial = CostVector {
            t_first_ms: Some(1.0),
            t_all_ms: None,
            cardinality: None,
        };
        let fallback = CostVector::full(9.0, 5.0, 3.0);
        let merged = partial.or(&fallback);
        assert_eq!(merged.t_first_ms, Some(1.0));
        assert_eq!(merged.t_all_ms, Some(5.0));
        assert_eq!(merged.cardinality, Some(3.0));
        assert!(merged.is_complete());
        assert!(!partial.is_complete());
    }

    #[test]
    fn display_marks_missing() {
        let v = CostVector {
            t_first_ms: Some(1.5),
            t_all_ms: None,
            cardinality: Some(2.0),
        };
        assert_eq!(v.to_string(), "[Tf=1.50, Ta=?, Card=2.00]");
    }

    #[test]
    fn mean_agg_plain_average() {
        let mut m = MeanAgg::new();
        assert_eq!(m.mean(), None);
        m.add(2.0);
        m.add(4.0);
        assert_eq!(m.mean(), Some(3.0));
        assert_eq!(m.count, 2);
    }

    #[test]
    fn mean_agg_merge() {
        let mut a = MeanAgg::new();
        a.add(1.0);
        let mut b = MeanAgg::new();
        b.add(3.0);
        b.add(5.0);
        a.merge(&b);
        assert_eq!(a.mean(), Some(3.0));
        assert_eq!(a.count, 3);
    }

    #[test]
    fn decay_prefers_recent() {
        let mut m = MeanAgg::new();
        m.add(100.0); // old observation
        m.decay(0.1);
        m.add(10.0); // recent observation
        let mean = m.mean().unwrap();
        assert!(mean < 55.0, "decayed mean {mean} should lean recent");
        assert!(mean > 10.0);
        // Count still tracks raw observations.
        assert_eq!(m.count, 2);
    }

    #[test]
    fn full_decay_forgets() {
        let mut m = MeanAgg::new();
        m.add(100.0);
        m.decay(0.0);
        assert_eq!(m.mean(), None);
        m.add(7.0);
        assert_eq!(m.mean(), Some(7.0));
    }
}
