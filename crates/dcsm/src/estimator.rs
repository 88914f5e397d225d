//! The DCSM facade: recording, summarization management, and the §6.3
//! pattern-relaxation cost estimation algorithm.

use crate::cost::CostVector;
use crate::summary::SummaryTable;
use crate::vectordb::CostVectorDb;
use hermes_common::{CallPattern, GroundCall, PatternShape, SimInstant};
use hermes_domains::NativeEstimator;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Configuration of the module.
#[derive(Clone, Debug)]
pub struct DcsmConfig {
    /// Keep full-detail records (the cost vector database). Disabling
    /// models a deployment that *only* maintains summaries.
    pub keep_detail: bool,
    /// Incrementally fold new observations into existing summary tables.
    pub online_update: bool,
    /// Recency decay applied to a summary row before each new observation
    /// (`None` = plain averages, the paper's default).
    pub recency_decay: Option<f64>,
    /// Last-resort estimate when nothing is known about a call.
    pub default_prior: CostVector,
}

impl Default for DcsmConfig {
    fn default() -> Self {
        DcsmConfig {
            keep_detail: true,
            online_update: true,
            recency_decay: None,
            default_prior: CostVector::full(250.0, 1_000.0, 10.0),
        }
    }
}

/// Where an estimate came from (reported for diagnostics and experiments).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EstimateSource {
    /// A summary-table row, after `relaxations` constants became `$b`.
    Summary {
        /// The shape of the table that answered.
        shape: PatternShape,
        /// Number of relaxation steps from the asked pattern.
        relaxations: usize,
    },
    /// Aggregated on the fly from detail records.
    Detail {
        /// Records aggregated.
        records: usize,
        /// Number of relaxation steps from the asked pattern.
        relaxations: usize,
    },
    /// Fully answered by the domain's own estimator.
    External,
    /// Nothing known: the configured prior.
    Prior,
}

/// A cost estimate plus provenance and the work the lookup performed.
#[derive(Clone, Debug)]
pub struct EstimateOutcome {
    /// The estimate. Components the source couldn't provide are filled
    /// from the prior, so the vector is always complete.
    pub vector: CostVector,
    /// Provenance.
    pub source: EstimateSource,
    /// Rows/records examined — the §6.2 "expensive aggregation" metric the
    /// summarization-tradeoff experiment plots.
    pub lookup_work: usize,
}

impl EstimateOutcome {
    /// Time to all answers, ms (always present).
    pub fn t_all_ms(&self) -> f64 {
        self.vector.t_all_ms.expect("estimate is complete")
    }

    /// Time to first answer, ms (always present).
    pub fn t_first_ms(&self) -> f64 {
        self.vector.t_first_ms.expect("estimate is complete")
    }

    /// Cardinality (always present).
    pub fn cardinality(&self) -> f64 {
        self.vector.cardinality.expect("estimate is complete")
    }
}

/// The Domain Cost and Statistics Module.
pub struct Dcsm {
    config: DcsmConfig,
    db: CostVectorDb,
    tables: HashMap<PatternShape, SummaryTable>,
    external: HashMap<Arc<str>, Arc<dyn NativeEstimator>>,
    /// Lookup-shape counters driving table maintenance (§6.2: "watch the
    /// access patterns for the tables"). Interior mutability because
    /// `cost` takes `&self`.
    tracker: hermes_common::sync::Mutex<crate::maintenance::AccessTracker>,
}

impl Default for Dcsm {
    fn default() -> Self {
        Dcsm::new()
    }
}

impl Dcsm {
    /// A DCSM with default configuration.
    pub fn new() -> Self {
        Dcsm::with_config(DcsmConfig::default())
    }

    /// A DCSM with explicit configuration.
    pub fn with_config(config: DcsmConfig) -> Self {
        Dcsm {
            config,
            db: CostVectorDb::new(),
            tables: HashMap::new(),
            external: HashMap::new(),
            tracker: hermes_common::sync::Mutex::new(crate::maintenance::AccessTracker::new()),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DcsmConfig {
        &self.config
    }

    /// The detail database.
    pub fn db(&self) -> &CostVectorDb {
        &self.db
    }

    /// The summary tables, keyed by shape.
    pub fn tables(&self) -> &HashMap<PatternShape, SummaryTable> {
        &self.tables
    }

    /// Registers a source-provided estimator for a domain (§6: "if a
    /// domain already provides a cost estimation module, the DCSM can be
    /// connected to them").
    pub fn register_external(
        &mut self,
        domain: impl Into<Arc<str>>,
        est: Arc<dyn NativeEstimator>,
    ) {
        self.external.insert(domain.into(), est);
    }

    /// Records an executed call's observed costs.
    pub fn record(
        &mut self,
        call: &GroundCall,
        t_first_ms: Option<f64>,
        t_all_ms: Option<f64>,
        cardinality: Option<f64>,
        now: SimInstant,
    ) {
        let vector = CostVector {
            t_first_ms,
            t_all_ms,
            cardinality,
        };
        if self.config.keep_detail {
            self.db.record(call.clone(), vector, now);
        }
        if self.config.online_update {
            let decay = self.config.recency_decay;
            for table in self.tables.values_mut() {
                if table.shape.domain == call.domain && table.shape.function == call.function {
                    if let Some(d) = decay {
                        table.decay_all(d);
                    }
                    table.observe(call, &vector);
                }
            }
        }
    }

    /// Builds (or rebuilds) the lossless summary table for a function from
    /// the detail database (§6.2.1). Returns its shape.
    pub fn build_lossless(&mut self, domain: &str, function: &str) -> PatternShape {
        let table = SummaryTable::summarize_lossless(&self.db, domain, function);
        let shape = table.shape.clone();
        self.tables.insert(shape.clone(), table);
        shape
    }

    /// Adds a lossy table with the given dimension mask, derived from the
    /// lossless summary (built on demand) (§6.2.2).
    pub fn build_lossy(
        &mut self,
        domain: &str,
        function: &str,
        const_mask: Vec<bool>,
    ) -> Option<PatternShape> {
        let lossless = SummaryTable::summarize_lossless(&self.db, domain, function);
        let shape = PatternShape::new(domain, function, const_mask);
        let table = lossless.derive_lossy(shape.clone())?;
        self.tables.insert(shape.clone(), table);
        Some(shape)
    }

    /// Runs one maintenance epoch (§6.2): materializes a summary table for
    /// every shape the estimator was asked about at least `min_hot` times,
    /// drops tables colder than `min_cold` lookups, and resets the
    /// counters. Returns `(created, dropped)` shape lists. Blanket tables
    /// are never dropped — they are the last-resort fallback and cost a
    /// single row.
    pub fn maintain(
        &mut self,
        min_hot: u64,
        min_cold: u64,
    ) -> (Vec<PatternShape>, Vec<PatternShape>) {
        let (hot, cold) = {
            let tracker = self.tracker.lock();
            let hot: Vec<PatternShape> = tracker
                .hot_shapes(min_hot)
                .into_iter()
                .map(|(s, _)| s)
                .filter(|s| !self.tables.contains_key(s))
                .collect();
            let cold: Vec<PatternShape> = tracker
                .cold_shapes(self.tables.keys(), min_cold)
                .into_iter()
                .filter(|s| s.dimension_count() > 0)
                .collect();
            (hot, cold)
        };
        let mut created = Vec::new();
        for shape in hot {
            // Derive from detail when available; otherwise start empty and
            // let online updates fill it.
            let lossless =
                SummaryTable::summarize_lossless(&self.db, &shape.domain, &shape.function);
            let table = if lossless.shape.const_mask.len() == shape.const_mask.len() {
                lossless.derive_lossy(shape.clone())
            } else {
                None
            };
            self.tables.insert(
                shape.clone(),
                table.unwrap_or_else(|| SummaryTable::new(shape.clone())),
            );
            created.push(shape);
        }
        let mut dropped = Vec::new();
        for shape in cold {
            if self.tables.remove(&shape).is_some() {
                dropped.push(shape);
            }
        }
        self.tracker.lock().reset();
        (created, dropped)
    }

    /// Replaces the statistics this DCSM holds — the detail and every
    /// summary table's rows — with the records of `db`, replayed as
    /// [`Dcsm::record`] takes them (detail and/or online table updates,
    /// per configuration). Table shapes, registered external estimators
    /// and the configuration stay. This is how persisted statistics are
    /// adopted after a restart; adopting the same `db` twice is adopting
    /// it once.
    pub fn load_db(&mut self, db: &CostVectorDb) {
        self.db = CostVectorDb::new();
        for table in self.tables.values_mut() {
            *table = SummaryTable::new(table.shape.clone());
        }
        for (domain, function) in db.functions() {
            for r in db.records_for(&domain, &function) {
                self.record(
                    &r.call,
                    r.vector.t_first_ms,
                    r.vector.t_all_ms,
                    r.vector.cardinality,
                    r.recorded_at,
                );
            }
        }
    }

    /// Copies one function's detail — retained records and aggregation
    /// cells — from `source` (see [`CostVectorDb::adopt_function`]).
    pub fn adopt_detail(&mut self, source: &Dcsm, domain: &str, function: &str) {
        self.db.adopt_function(&source.db, domain, function);
    }

    /// Ensures an (initially empty) summary table of `shape` exists, so
    /// online updates accumulate into it — how a deployment that keeps no
    /// detail bootstraps its tables.
    pub fn ensure_table(&mut self, shape: PatternShape) {
        self.tables
            .entry(shape.clone())
            .or_insert_with(|| SummaryTable::new(shape));
    }

    /// Drops a summary table.
    pub fn drop_table(&mut self, shape: &PatternShape) -> bool {
        self.tables.remove(shape).is_some()
    }

    /// Drops the detail of a function (after summarizing, the §6.2 storage
    /// saving). Returns the observations dropped.
    pub fn drop_detail(&mut self, domain: &str, function: &str) -> usize {
        self.db.drop_function(domain, function)
    }

    /// Total approximate storage of detail + summaries.
    pub fn approx_bytes(&self) -> usize {
        self.db.approx_bytes()
            + self
                .tables
                .values()
                .map(SummaryTable::approx_bytes)
                .sum::<usize>()
    }

    /// The §6.3 estimation algorithm.
    ///
    /// 1. Ask the domain's external estimator, if registered; a complete
    ///    answer wins outright.
    /// 2. Walk the relaxation lattice from the asked pattern, most
    ///    specific first (breadth-first, so fewer `$b`s are preferred;
    ///    ties in [`CallPattern::relaxations`] order): at each pattern,
    ///    probe the summary table of its exact shape, then (if detail is
    ///    kept) aggregate matching detail records. The asked pattern is
    ///    probed before any of the walk is built, so an estimate found
    ///    there allocates nothing.
    /// 3. Missing components are filled from the external hint, then the
    ///    prior.
    ///
    /// Every call counts one lookup of the pattern's shape for table
    /// maintenance. The planner's `choose_plan` asks once per distinct
    /// pattern of a plan choice, so that is what the counts measure — not
    /// one per plan step.
    pub fn cost(&self, pattern: &CallPattern) -> EstimateOutcome {
        self.tracker.lock().touch(pattern);
        let hint = self
            .external
            .get(&pattern.domain)
            .and_then(|e| e.estimate(pattern))
            .map(|h| CostVector {
                t_first_ms: h.t_first_ms,
                t_all_ms: h.t_all_ms,
                cardinality: h.cardinality,
            });
        if let Some(h) = &hint {
            if h.is_complete() {
                return EstimateOutcome {
                    vector: *h,
                    source: EstimateSource::External,
                    lookup_work: 0,
                };
            }
        }

        let mut lookup_work = 0usize;
        let found = self
            .probe(pattern, 0, &mut lookup_work)
            .or_else(|| self.relax(pattern, &mut lookup_work));
        let (vector, source) = match found {
            Some((v, s)) => (v, s),
            None => (CostVector::default(), EstimateSource::Prior),
        };
        // Fill gaps: learned stats > external hint > prior.
        let mut filled = vector;
        if let Some(h) = &hint {
            filled = filled.or(h);
        }
        let vector = filled.or(&self.config.default_prior);
        EstimateOutcome {
            vector,
            source,
            lookup_work,
        }
    }

    /// One node of the §6.3 walk: the summary table of `p`'s exact shape,
    /// then (if detail is kept) the detail records `p` matches.
    fn probe(
        &self,
        p: &CallPattern,
        relaxations: usize,
        lookup_work: &mut usize,
    ) -> Option<(CostVector, EstimateSource)> {
        if !self.tables.is_empty() {
            if let Some(table) = self.tables.get(&p.shape()) {
                *lookup_work += 1;
                if let Some(row) = table.lookup(p) {
                    let source = EstimateSource::Summary {
                        shape: table.shape.clone(),
                        relaxations,
                    };
                    return Some((row.vector(), source));
                }
            }
        }
        if self.config.keep_detail {
            let (v, matched) = self.db.aggregate(p);
            *lookup_work += matched;
            if matched > 0 {
                let source = EstimateSource::Detail {
                    records: matched,
                    relaxations,
                };
                return Some((v, source));
            }
        }
        None
    }

    /// The §6.3 walk below `pattern`, once `pattern` itself has missed:
    /// breadth-first by relaxation count, ties in
    /// [`CallPattern::relaxations`] order, each pattern probed once.
    fn relax(
        &self,
        pattern: &CallPattern,
        lookup_work: &mut usize,
    ) -> Option<(CostVector, EstimateSource)> {
        let mut queue: VecDeque<(CallPattern, usize)> =
            pattern.relaxations().into_iter().map(|r| (r, 1)).collect();
        let mut visited: HashSet<CallPattern> = queue.iter().map(|(r, _)| r.clone()).collect();
        while let Some((p, relaxations)) = queue.pop_front() {
            if let Some(found) = self.probe(&p, relaxations, lookup_work) {
                return Some(found);
            }
            for r in p.relaxations() {
                if visited.insert(r.clone()) {
                    queue.push_back((r, relaxations + 1));
                }
            }
        }
        None
    }

    /// Estimated saving, in milliseconds, from materializing a subplan with
    /// these call patterns once instead of executing it `occurrences` times
    /// (the static analyzer's `HA073` sharing estimate). The per-execution
    /// cost is the sequential sum of the patterns' `t_all` estimates — a
    /// deliberate upper bound: sharing saves the most exactly when the
    /// calls could not overlap anyway.
    pub fn estimate_subplan_savings(&self, patterns: &[CallPattern], occurrences: usize) -> f64 {
        let per_exec: f64 = patterns.iter().map(|p| self.cost(p).t_all_ms()).sum();
        per_exec * occurrences.saturating_sub(1) as f64
    }
}

/// Greedy list-scheduling makespan of a parallel dispatch group — the
/// single overlap formula shared by the plan cost model and the executor,
/// so estimates and simulated execution agree.
///
/// Each call, in order, occupies the earliest-free of `slots` dispatch
/// slots for its duration plus `dispatch_overhead_ms` (the scheduler's
/// per-call bookkeeping); the makespan is when the last slot drains.
/// `slots = 1` degenerates to the sequential sum (plus overheads); with
/// unlimited slots it approaches `max(durations) + overhead`.
pub fn overlap_makespan(durations_ms: &[f64], slots: usize, dispatch_overhead_ms: f64) -> f64 {
    let slots = slots.max(1).min(durations_ms.len().max(1));
    let mut free = vec![0.0f64; slots];
    for &d in durations_ms {
        let slot = free
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("at least one slot");
        free[slot] += d.max(0.0) + dispatch_overhead_ms.max(0.0);
    }
    free.iter().copied().fold(0.0, f64::max)
}

impl std::fmt::Debug for Dcsm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dcsm")
            .field("detail_records", &self.db.len())
            .field("tables", &self.tables.len())
            .field("external", &self.external.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectordb::figure2_database;
    use hermes_common::{PatArg, Value};
    use hermes_domains::CostHint;

    fn dcsm_fig2() -> Dcsm {
        let mut d = Dcsm::new();
        let db = figure2_database();
        for (dom, func) in db.functions() {
            for r in db.records_for(&dom, &func) {
                d.record(
                    &r.call,
                    r.vector.t_first_ms,
                    r.vector.t_all_ms,
                    r.vector.cardinality,
                    r.recorded_at,
                );
            }
        }
        d
    }

    #[test]
    fn detail_estimation_matches_paper_example() {
        let d = dcsm_fig2();
        let p = GroundCall::new("d1", "p_bf", vec![Value::str("a")]).pattern();
        let est = d.cost(&p);
        assert!((est.t_all_ms() - 2.10).abs() < 1e-9);
        assert!(matches!(
            est.source,
            EstimateSource::Detail {
                records: 2,
                relaxations: 0
            }
        ));
    }

    #[test]
    fn relaxation_to_blanket_when_constant_unseen() {
        let d = dcsm_fig2();
        // 'z' never observed → relax to $b and average all four records.
        let p = GroundCall::new("d1", "p_bf", vec![Value::str("z")]).pattern();
        let est = d.cost(&p);
        assert!((est.t_all_ms() - 9.84 / 4.0 * 0.8).abs() < 1.0); // sanity: near 2.46
        match est.source {
            EstimateSource::Detail { relaxations, .. } => assert_eq!(relaxations, 1),
            other => panic!("expected detail, got {other:?}"),
        }
    }

    #[test]
    fn summary_table_preferred_over_detail() {
        let mut d = dcsm_fig2();
        d.build_lossless("d1", "p_bf");
        let p = GroundCall::new("d1", "p_bf", vec![Value::str("a")]).pattern();
        let est = d.cost(&p);
        assert!(matches!(
            est.source,
            EstimateSource::Summary { relaxations: 0, .. }
        ));
        assert!((est.t_all_ms() - 2.10).abs() < 1e-9);
        // Summary lookup is constant work, not 2 records.
        assert_eq!(est.lookup_work, 1);
    }

    #[test]
    fn example_6_3_relaxation_through_lossy_tables() {
        // Mirror of §6.3 Example: three-place call with tables at
        // different shapes; lookup relaxes until something matches.
        let mut d = Dcsm::new();
        let call = |a: i64, b: i64, c: i64| {
            GroundCall::new("d", "f", vec![Value::Int(a), Value::Int(b), Value::Int(c)])
        };
        for i in 0..5 {
            d.record(
                &call(i, i * 2, 2),
                Some(1.0),
                Some(10.0 + i as f64),
                Some(4.0),
                SimInstant::EPOCH,
            );
        }
        // Tables: full detail summary, $b,$b,C  and $b,$b,$b.
        d.build_lossless("d", "f");
        d.build_lossy("d", "f", vec![false, false, true]).unwrap();
        d.build_lossy("d", "f", vec![false, false, false]).unwrap();
        // Drop the detail so only tables answer.
        d.drop_detail("d", "f");

        // Pattern d:f(9, $b, 2): no (9,*,2) in full table; relax → ($b,$b,2)
        // matches the C-table.
        let p = CallPattern::new(
            "d",
            "f",
            vec![
                PatArg::Const(Value::Int(9)),
                PatArg::Bound,
                PatArg::Const(Value::Int(2)),
            ],
        );
        let est = d.cost(&p);
        match &est.source {
            EstimateSource::Summary { shape, relaxations } => {
                assert_eq!(shape.const_mask, vec![false, false, true]);
                assert_eq!(*relaxations, 1);
            }
            other => panic!("expected summary, got {other:?}"),
        }
        // Pattern with C=7 (unseen): relaxes all the way to the blanket.
        let p2 = CallPattern::new(
            "d",
            "f",
            vec![PatArg::Bound, PatArg::Bound, PatArg::Const(Value::Int(7))],
        );
        let est2 = d.cost(&p2);
        match &est2.source {
            EstimateSource::Summary { shape, .. } => {
                assert_eq!(shape.const_mask, vec![false, false, false]);
            }
            other => panic!("expected blanket summary, got {other:?}"),
        }
    }

    #[test]
    fn prior_when_nothing_known() {
        let d = Dcsm::new();
        let est = d.cost(&GroundCall::new("x", "y", vec![]).pattern());
        assert_eq!(est.source, EstimateSource::Prior);
        assert!(est.vector.is_complete());
        assert_eq!(est.t_all_ms(), 1_000.0);
    }

    #[test]
    fn external_estimator_complete_answer_wins() {
        struct Fixed;
        impl NativeEstimator for Fixed {
            fn estimate(&self, _: &CallPattern) -> Option<CostHint> {
                Some(CostHint {
                    t_first_ms: Some(1.0),
                    t_all_ms: Some(2.0),
                    cardinality: Some(3.0),
                })
            }
        }
        let mut d = dcsm_fig2();
        d.register_external("d1", Arc::new(Fixed));
        let est = d.cost(&GroundCall::new("d1", "p_bf", vec![Value::str("a")]).pattern());
        assert_eq!(est.source, EstimateSource::External);
        assert_eq!(est.t_all_ms(), 2.0);
        // Other domains unaffected.
        let est2 = d.cost(&GroundCall::new("d2", "q_ff", vec![]).pattern());
        assert!(matches!(est2.source, EstimateSource::Detail { .. }));
    }

    #[test]
    fn partial_external_hint_fills_missing_components() {
        struct CardOnly;
        impl NativeEstimator for CardOnly {
            fn estimate(&self, _: &CallPattern) -> Option<CostHint> {
                Some(CostHint {
                    t_first_ms: None,
                    t_all_ms: None,
                    cardinality: Some(42.0),
                })
            }
        }
        let mut d = Dcsm::new();
        d.register_external("ext", Arc::new(CardOnly));
        // record only timing (no cardinality) for a call
        let call = GroundCall::new("ext", "f", vec![]);
        d.record(&call, Some(5.0), Some(9.0), None, SimInstant::EPOCH);
        let est = d.cost(&call.pattern());
        assert_eq!(est.vector.t_all_ms, Some(9.0)); // learned
        assert_eq!(est.vector.cardinality, Some(42.0)); // external hint
    }

    #[test]
    fn online_update_keeps_tables_fresh() {
        let mut d = dcsm_fig2();
        d.build_lossless("d1", "p_bf");
        let call = GroundCall::new("d1", "p_bf", vec![Value::str("a")]);
        d.record(&call, None, Some(8.0), Some(3.0), SimInstant::EPOCH);
        let est = d.cost(&call.pattern());
        // New average over 3 observations: (2.0+2.2+8.0)/3
        assert!((est.t_all_ms() - 12.2 / 3.0).abs() < 1e-9);
        assert!(matches!(est.source, EstimateSource::Summary { .. }));
    }

    #[test]
    fn recency_decay_weights_recent_observations() {
        let cfg = DcsmConfig {
            recency_decay: Some(0.5),
            keep_detail: false,
            ..DcsmConfig::default()
        };
        let mut d = Dcsm::with_config(cfg);
        let call = GroundCall::new("d", "f", vec![]);
        // Create the (empty) blanket table so online updates land somewhere.
        d.build_lossless("d", "f");
        // Seed the table shape: with no detail, build_lossless produced an
        // arity-0 shape only if records existed; record directly instead.
        d.record(&call, None, Some(100.0), Some(1.0), SimInstant::EPOCH);
        d.record(&call, None, Some(10.0), Some(1.0), SimInstant::EPOCH);
        let est = d.cost(&call.pattern());
        // Plain average would be 55; decayed mean must lean toward 10.
        assert!(est.t_all_ms() < 45.0, "decayed estimate {}", est.t_all_ms());
    }

    #[test]
    fn without_detail_unseen_calls_fall_to_prior() {
        let cfg = DcsmConfig {
            keep_detail: false,
            ..DcsmConfig::default()
        };
        let d = Dcsm::with_config(cfg);
        let est = d.cost(&GroundCall::new("d", "f", vec![]).pattern());
        assert_eq!(est.source, EstimateSource::Prior);
    }

    #[test]
    fn maintenance_materializes_hot_shapes_and_drops_cold_tables() {
        let mut d = dcsm_fig2();
        // Ask repeatedly for the ('a')-shaped pattern of p_bf.
        let hot_pattern = GroundCall::new("d1", "p_bf", vec![Value::str("a")]).pattern();
        for _ in 0..5 {
            d.cost(&hot_pattern);
        }
        // A cold table that nobody asks about.
        d.build_lossless("d2", "q_bf");
        let (created, dropped) = d.maintain(3, 1);
        assert_eq!(created.len(), 1);
        assert_eq!(created[0].const_mask, vec![true]);
        assert_eq!(dropped.len(), 1, "cold q_bf table dropped");
        // The hot shape now answers from a summary table.
        let est = d.cost(&hot_pattern);
        assert!(matches!(est.source, EstimateSource::Summary { .. }));
        assert!((est.t_all_ms() - 2.10).abs() < 1e-9);
        // Counters were reset: an immediate second epoch creates nothing
        // (1 lookup < min_hot) and drops nothing above min_cold 0.
        let (c2, d2) = d.maintain(3, 0);
        assert!(c2.is_empty());
        assert!(d2.is_empty());
    }

    #[test]
    fn maintenance_never_drops_blanket_tables() {
        let mut d = dcsm_fig2();
        d.build_lossy("d2", "q_ff", vec![]);
        let (_, dropped) = d.maintain(1_000, 1_000);
        assert!(
            dropped.is_empty(),
            "blanket table must survive: {dropped:?}"
        );
    }

    // ------------------------------------- the walk against its reference

    use crate::DETAIL_WINDOW;
    use hermes_common::Rng64;

    /// The §6.3 walk as one breadth-first loop from the asked pattern,
    /// the way [`Dcsm::cost`] read before the asked pattern got a probe of
    /// its own. `cost` must equal it in every field, bit for bit.
    fn reference_cost(d: &Dcsm, pattern: &CallPattern) -> EstimateOutcome {
        let hint = d
            .external
            .get(&pattern.domain)
            .and_then(|e| e.estimate(pattern))
            .map(|h| CostVector {
                t_first_ms: h.t_first_ms,
                t_all_ms: h.t_all_ms,
                cardinality: h.cardinality,
            });
        if let Some(h) = hint.filter(CostVector::is_complete) {
            return EstimateOutcome {
                vector: h,
                source: EstimateSource::External,
                lookup_work: 0,
            };
        }
        let mut lookup_work = 0usize;
        let mut queue = VecDeque::from([(pattern.clone(), 0)]);
        let mut visited = HashSet::from([pattern.clone()]);
        let mut found: Option<(CostVector, EstimateSource)> = None;
        while let Some((p, relaxations)) = queue.pop_front() {
            if let Some(table) = d.tables.get(&p.shape()) {
                lookup_work += 1;
                if let Some(row) = table.lookup(&p) {
                    let shape = p.shape();
                    found = Some((row.vector(), EstimateSource::Summary { shape, relaxations }));
                    break;
                }
            }
            if d.config.keep_detail {
                let (v, matched) = d.db.aggregate(&p);
                lookup_work += matched;
                if matched > 0 {
                    let records = matched;
                    found = Some((
                        v,
                        EstimateSource::Detail {
                            records,
                            relaxations,
                        },
                    ));
                    break;
                }
            }
            for r in p.relaxations() {
                if visited.insert(r.clone()) {
                    queue.push_back((r, relaxations + 1));
                }
            }
        }
        let (vector, source) = found.unwrap_or((CostVector::default(), EstimateSource::Prior));
        let vector = hint.map_or(vector, |h| vector.or(&h));
        EstimateOutcome {
            vector: vector.or(&d.config.default_prior),
            source,
            lookup_work,
        }
    }

    /// Knows only the cardinality, and only of one- and two-place calls.
    struct PartialHint;
    impl NativeEstimator for PartialHint {
        fn estimate(&self, p: &CallPattern) -> Option<CostHint> {
            (1..=2).contains(&p.arity()).then_some(CostHint {
                t_first_ms: None,
                t_all_ms: None,
                cardinality: Some(4.5),
            })
        }
    }

    /// How a scenario's DCSM keeps its statistics.
    #[derive(Clone, Copy, Debug)]
    enum Keeping {
        DetailOnly,
        TablesAndDetail,
        /// Tables built from detail, then the detail of half the
        /// functions dropped.
        TablesDetailDropped,
        /// `keep_detail: false`: tables filled by online updates only.
        TablesOnly,
    }

    /// `d:f<arity>` for arities 0–3, plus `d:big/2`, which folds.
    const FUNCTIONS: [(&str, usize); 5] = [("f0", 0), ("f1", 1), ("f2", 2), ("f3", 3), ("big", 2)];

    fn random_call(rng: &mut Rng64, function: &str, arity: usize) -> GroundCall {
        let arg = |rng: &mut Rng64| match rng.chance(0.7) {
            true => Value::Int(rng.range_i64(0, 4)),
            false => Value::str(["a", "b"][rng.range_usize(0, 2)]),
        };
        let args: Vec<Value> = (0..arity).map(|_| arg(rng)).collect();
        GroundCall::new("d", function, args)
    }

    fn random_vector(rng: &mut Rng64) -> (Option<f64>, Option<f64>, Option<f64>) {
        let mut component = || rng.chance(0.85).then(|| rng.range_f64(0.1, 40.0));
        (component(), component(), component())
    }

    fn scenario(rng: &mut Rng64, keeping: Keeping, hint: bool) -> Dcsm {
        let keep_detail = !matches!(keeping, Keeping::TablesOnly);
        let mut d = Dcsm::with_config(DcsmConfig {
            keep_detail,
            ..DcsmConfig::default()
        });
        if hint {
            d.register_external("d", Arc::new(PartialHint));
        }
        let lossy_masks = |rng: &mut Rng64, arity: usize| -> Vec<Vec<bool>> {
            (0..2)
                .map(|_| (0..arity).map(|_| rng.chance(0.5)).collect())
                .collect()
        };
        if let Keeping::TablesOnly = keeping {
            for (function, arity) in FUNCTIONS {
                d.ensure_table(PatternShape::new("d", function, vec![true; arity]));
                for mask in lossy_masks(rng, arity) {
                    d.ensure_table(PatternShape::new("d", function, mask));
                }
            }
        }
        for (function, arity) in FUNCTIONS {
            let n = match function {
                "big" => 2 * DETAIL_WINDOW + rng.range_usize(1, 300),
                _ => rng.range_usize(0, 60),
            };
            for _ in 0..n {
                let call = random_call(rng, function, arity);
                let (t_first, t_all, card) = random_vector(rng);
                d.record(&call, t_first, t_all, card, SimInstant::EPOCH);
            }
        }
        if let Keeping::TablesAndDetail | Keeping::TablesDetailDropped = keeping {
            for (function, arity) in FUNCTIONS {
                if rng.chance(0.7) {
                    d.build_lossless("d", function);
                }
                for mask in lossy_masks(rng, arity) {
                    d.build_lossy("d", function, mask);
                }
                if matches!(keeping, Keeping::TablesDetailDropped) && rng.chance(0.5) {
                    d.drop_detail("d", function);
                }
            }
        }
        d
    }

    /// A pattern of `function`: each position a `$b`, a seen constant, or
    /// one of at most two constants never recorded (each forces one more
    /// relaxation).
    fn random_pattern(rng: &mut Rng64, function: &str, arity: usize) -> CallPattern {
        let seen = random_call(rng, function, arity);
        let mut unseen = rng.range_usize(0, 3);
        let args = seen.args.iter().map(|v| {
            if unseen > 0 && rng.chance(0.4) {
                unseen -= 1;
                return PatArg::Const(Value::Int(100 + unseen as i64));
            }
            match rng.chance(0.6) {
                true => PatArg::Const(v.clone()),
                false => PatArg::Bound,
            }
        });
        CallPattern::new("d", function, args.collect())
    }

    fn outcome_bits(o: &EstimateOutcome) -> ([Option<u64>; 3], EstimateSource, usize) {
        let v = o.vector;
        let bits = [v.t_first_ms, v.t_all_ms, v.cardinality].map(|x| x.map(f64::to_bits));
        (bits, o.source.clone(), o.lookup_work)
    }

    #[test]
    fn cost_is_the_reference_walk_bit_for_bit() {
        let mut rng = Rng64::new(0x63_0001);
        let keepings = [
            Keeping::DetailOnly,
            Keeping::TablesAndDetail,
            Keeping::TablesDetailDropped,
            Keeping::TablesOnly,
        ];
        let mut relaxed = [0usize; 3];
        for round in 0..16 {
            let keeping = keepings[round % keepings.len()];
            let d = scenario(&mut rng, keeping, round % 8 >= 4);
            for _ in 0..150 {
                let (function, arity) = FUNCTIONS[rng.range_usize(0, FUNCTIONS.len())];
                let p = random_pattern(&mut rng, function, arity);
                let want = outcome_bits(&reference_cost(&d, &p));
                assert_eq!(outcome_bits(&d.cost(&p)), want, "{keeping:?}: {p}");
                if let EstimateSource::Summary { relaxations, .. }
                | EstimateSource::Detail { relaxations, .. } = want.1
                {
                    relaxed[relaxations.min(2)] += 1;
                }
            }
        }
        // The probes reach the first node, one relaxation and two.
        assert!(relaxed.iter().all(|&n| n > 50), "{relaxed:?}");
    }

    #[test]
    fn storage_accounting_moves_from_detail_to_summary() {
        let mut d = dcsm_fig2();
        let detail_only = d.approx_bytes();
        d.build_lossless("d1", "p_bf");
        let with_table = d.approx_bytes();
        assert!(with_table > detail_only);
        d.drop_detail("d1", "p_bf");
        let summarized = d.approx_bytes();
        assert!(summarized < with_table);
    }
}
