//! The DCSM facade: recording, summarization management, and the §6.3
//! pattern-relaxation cost estimation algorithm.
//!
//! All statistics live in one store, the shape index of [`CostVectorDb`]: a
//! summary table is a shape flagged by [`Dcsm::build_table`] or
//! [`Dcsm::maintain`], and each node of the relaxation walk is one lookup
//! in that index.

use crate::cost::CostVector;
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
    /// Recency decay applied to a summary row before each new observation
    /// (`None` = plain averages, the paper's default).
    pub recency_decay: Option<f64>,
}

/// Last-resort estimate when nothing is known about a call: what fills
/// the components that neither the statistics nor a hint supply.
pub const DEFAULT_PRIOR: CostVector = CostVector::full(250.0, 1_000.0, 10.0);

impl Default for DcsmConfig {
    fn default() -> Self {
        DcsmConfig {
            keep_detail: true,
            recency_decay: None,
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

    /// Number of summary tables.
    pub fn table_count(&self) -> usize {
        self.db.tables().len()
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

    /// Records an executed call's observed costs: into the detail (if
    /// kept) and every shape built for the function, summary tables
    /// included, which decay first under `recency_decay`.
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
        let (keep, decay) = (self.config.keep_detail, self.config.recency_decay);
        self.db.observe(call.clone(), vector, now, keep, decay);
    }

    /// Makes `shape` a summary table (§6.2.1 when every position is a
    /// dimension, §6.2.2 otherwise), which online updates then keep
    /// current. A shape the index has built keeps its rows, so the table
    /// holds the function's full history; an unbuilt one is summed from
    /// the retained records, which is nothing under `keep_detail: false`.
    /// False if `shape` was a table already.
    pub fn build_table(&mut self, shape: PatternShape) -> bool {
        self.db.flag(shape)
    }

    /// Runs one maintenance epoch (§6.2): makes a summary table of every
    /// shape the estimator was asked about at least `min_hot` times, drops
    /// tables colder than `min_cold` lookups, and resets the counters.
    /// Returns `(created, dropped)` shape lists. Blanket tables are never
    /// dropped — they are the last-resort fallback and cost a single row.
    pub fn maintain(
        &mut self,
        min_hot: u64,
        min_cold: u64,
    ) -> (Vec<PatternShape>, Vec<PatternShape>) {
        let (hot, cold) = {
            let mut tracker = self.tracker.lock();
            let hot = tracker.hot_shapes(min_hot);
            let tables = self.db.tables();
            let mut cold = tracker.cold_shapes(tables.iter(), min_cold);
            cold.retain(|s| s.dimension_count() > 0);
            tracker.reset();
            (hot, cold)
        };
        let created = hot
            .into_iter()
            .map(|(shape, _)| shape)
            .filter(|shape| self.db.flag(shape.clone()))
            .collect();
        let dropped = cold.into_iter().filter(|s| self.db.drop_table(s)).collect();
        (created, dropped)
    }

    /// Replaces the statistics this DCSM holds — the detail and every
    /// summary table's rows — with the records of `db`, replayed as
    /// [`Dcsm::record`] takes them. Table shapes, registered external
    /// estimators and the configuration stay. This is how persisted
    /// statistics are adopted after a restart; adopting the same `db` twice
    /// is adopting it once.
    pub fn load_db(&mut self, db: &CostVectorDb) {
        let tables = self.db.tables();
        self.db = CostVectorDb::new();
        for shape in tables {
            self.db.flag(shape);
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

    /// Copies one function's statistics — retained records and every
    /// shape, summary tables included — from `source` (see
    /// [`CostVectorDb::adopt_function`]).
    pub fn adopt_function(&mut self, source: &Dcsm, domain: &str, function: &str) {
        self.db.adopt_function(&source.db, domain, function);
    }

    /// Drops a summary table; a later estimate rebuilds its shape from the
    /// retained records, as detail.
    pub fn drop_table(&mut self, shape: &PatternShape) -> bool {
        self.db.drop_table(shape)
    }

    /// Drops the detail of a function (after summarizing, the §6.2 storage
    /// saving); its summary tables stay. Returns the observations dropped.
    pub fn drop_detail(&mut self, domain: &str, function: &str) -> usize {
        self.db.drop_function(domain, function)
    }

    /// Total approximate storage of detail + summaries.
    pub fn approx_bytes(&self) -> usize {
        self.db.approx_bytes()
    }

    /// The §6.3 estimation algorithm.
    ///
    /// 1. Ask the domain's external estimator, if registered; a complete
    ///    answer wins outright.
    /// 2. Walk the relaxation lattice from the asked pattern, most
    ///    specific first (breadth-first, so fewer `$b`s are preferred;
    ///    ties in [`CallPattern::relaxations`] order): at each pattern,
    ///    one lookup in its shape — a summary table's row, or (if detail is
    ///    kept) the aggregate of the matching records. The asked pattern is
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
        let vector = filled.or(&DEFAULT_PRIOR);
        EstimateOutcome {
            vector,
            source,
            lookup_work,
        }
    }

    /// One node of the §6.3 walk: one lookup of `p` in the shape index. A
    /// summary table costs one unit of work whether or not its row is
    /// there; detail costs the records it aggregates.
    fn probe(
        &self,
        p: &CallPattern,
        relaxations: usize,
        lookup_work: &mut usize,
    ) -> Option<(CostVector, EstimateSource)> {
        let (table, row) = self.db.probe(p, self.config.keep_detail)?;
        *lookup_work += if table { 1 } else { row.map_or(0, |(_, l)| l) };
        let (v, records) = row?;
        let source = match table {
            true => EstimateSource::Summary {
                shape: p.shape(),
                relaxations,
            },
            false => EstimateSource::Detail {
                records,
                relaxations,
            },
        };
        Some((v, source))
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
}

/// Mediator-side milliseconds to put one call of a dispatched group in
/// flight: what [`overlap_makespan`] charges each call, and what the
/// executor's group dispatch adds to each member's slot time.
pub const DISPATCH_OVERHEAD_MS: f64 = 0.05;

/// Greedy list-scheduling makespan of a parallel dispatch group, as the
/// plan cost model prices it. The executor schedules its slots in its own
/// loop over the same rule (earliest-free slot, plus
/// [`DISPATCH_OVERHEAD_MS`] per call), on measured rather than estimated
/// durations.
///
/// Each call, in order, occupies the earliest-free of `slots` dispatch
/// slots for its duration plus the dispatch overhead; the makespan is
/// when the last slot drains. `slots = 1` degenerates to the sequential
/// sum (plus overheads); with unlimited slots it approaches
/// `max(durations) + overhead`.
pub fn overlap_makespan(durations_ms: &[f64], slots: usize) -> f64 {
    let slots = slots.max(1).min(durations_ms.len().max(1));
    let mut free = vec![0.0f64; slots];
    for &d in durations_ms {
        let slot = free
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("at least one slot");
        free[slot] += d.max(0.0) + DISPATCH_OVERHEAD_MS;
    }
    free.iter().copied().fold(0.0, f64::max)
}

impl std::fmt::Debug for Dcsm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dcsm")
            .field("detail_records", &self.db.len())
            .field("tables", &self.table_count())
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

    /// The lossless (every position a dimension) shape of `domain:function`.
    fn lossless(domain: &str, function: &str, arity: usize) -> PatternShape {
        PatternShape::new(domain, function, vec![true; arity])
    }

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
        d.build_table(lossless("d1", "p_bf", 1));
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
        d.build_table(lossless("d", "f", 3));
        d.build_table(PatternShape::new("d", "f", vec![false, false, true]));
        d.build_table(PatternShape::new("d", "f", vec![false, false, false]));
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
    fn records_keep_tables_fresh() {
        let mut d = dcsm_fig2();
        d.build_table(lossless("d1", "p_bf", 1));
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
        };
        let mut d = Dcsm::with_config(cfg);
        let call = GroundCall::new("d", "f", vec![]);
        // Create the (empty) table so online updates land somewhere.
        assert!(d.build_table(lossless("d", "f", 0)));
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
        d.build_table(lossless("d2", "q_bf", 1));
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
        d.build_table(lossless("d2", "q_ff", 0));
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
            match d.db.probe(&p, d.config.keep_detail) {
                Some((true, row)) => {
                    lookup_work += 1;
                    if let Some((v, _)) = row {
                        let shape = p.shape();
                        found = Some((v, EstimateSource::Summary { shape, relaxations }));
                        break;
                    }
                }
                Some((false, Some((v, records)))) => {
                    lookup_work += records;
                    found = Some((
                        v,
                        EstimateSource::Detail {
                            records,
                            relaxations,
                        },
                    ));
                    break;
                }
                Some((false, None)) | None => {}
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
            vector: vector.or(&DEFAULT_PRIOR),
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

    /// One seeded scenario. `big` records past `2 × DETAIL_WINDOW`, and so
    /// folds, only when `big_folds`.
    fn scenario(rng: &mut Rng64, keeping: Keeping, hint: bool, big_folds: bool) -> Dcsm {
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
                d.build_table(lossless("d", function, arity));
                for mask in lossy_masks(rng, arity) {
                    d.build_table(PatternShape::new("d", function, mask));
                }
            }
        }
        for (function, arity) in FUNCTIONS {
            let n = match function {
                "big" if big_folds => 2 * DETAIL_WINDOW + rng.range_usize(1, 300),
                "big" => DETAIL_WINDOW + rng.range_usize(1, 300),
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
                // A function that recorded nothing gets no tables.
                let seen = !d.db().records_for("d", function).is_empty();
                let full = rng.chance(0.7).then(|| vec![true; arity]);
                for mask in full.into_iter().chain(lossy_masks(rng, arity)) {
                    if seen {
                        d.build_table(PatternShape::new("d", function, mask));
                    }
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

    const KEEPINGS: [Keeping; 4] = [
        Keeping::DetailOnly,
        Keeping::TablesAndDetail,
        Keeping::TablesDetailDropped,
        Keeping::TablesOnly,
    ];

    #[test]
    fn cost_is_the_reference_walk_bit_for_bit() {
        let mut rng = Rng64::new(0x63_0001);
        let mut relaxed = [0usize; 3];
        for round in 0..16 {
            let keeping = KEEPINGS[round % KEEPINGS.len()];
            let d = scenario(&mut rng, keeping, round % 8 >= 4, true);
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

    /// 64-bit FNV-1a, continued from `hash`.
    fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(hash, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The reference test's 16 scenarios, with `big` left unfolded where
    /// tables are built (what a table built after a fold holds is not part
    /// of the pin), hashed probe by probe: `source`, `lookup_work` and the
    /// vector bits. A lossy table's bits are left out: when the value was
    /// pinned, lossy rows were merged from lossless rows in `HashMap` order,
    /// so their bits varied from run to run. The value pins the estimates of
    /// the DCSM that kept summary tables as a structure of their own beside
    /// the detail aggregates; a change to how statistics are stored must
    /// keep it.
    #[test]
    fn cost_matches_the_parent_digest() {
        let mut rng = Rng64::new(0x63_0001);
        let mut hash = 0xcbf2_9ce4_8422_2325;
        for round in 0..16 {
            let keeping = KEEPINGS[round % KEEPINGS.len()];
            let big_folds = matches!(keeping, Keeping::DetailOnly);
            let d = scenario(&mut rng, keeping, round % 8 >= 4, big_folds);
            for _ in 0..150 {
                let (function, arity) = FUNCTIONS[rng.range_usize(0, FUNCTIONS.len())];
                let p = random_pattern(&mut rng, function, arity);
                let (bits, source, lookup_work) = outcome_bits(&d.cost(&p));
                hash = fnv1a(hash, format!("{source:?} {lookup_work}").as_bytes());
                let lossy = matches!(&source, EstimateSource::Summary { shape, .. }
                    if shape.dimension_count() < arity);
                if !lossy {
                    for x in bits {
                        hash = fnv1a(hash, &x.unwrap_or(u64::MAX).to_le_bytes());
                    }
                }
            }
        }
        assert_eq!(hash, 0x6927_bbdf_3c1c_e817);
    }

    fn vector_bits(v: CostVector) -> [Option<u64>; 3] {
        [v.t_first_ms, v.t_all_ms, v.cardinality].map(|x| x.map(f64::to_bits))
    }

    #[test]
    fn a_table_built_after_a_fold_summarizes_the_whole_history() {
        let mut d = Dcsm::new();
        let mut whole = crate::SummaryRow::default();
        for i in 0..3 * DETAIL_WINDOW {
            // A drifting cost, so the window's and the history's averages differ.
            let call = GroundCall::new("d", "f", vec![Value::Int(i as i64 % 7)]);
            let v = CostVector::full(1.0, i as f64, 2.0);
            d.record(
                &call,
                v.t_first_ms,
                v.t_all_ms,
                v.cardinality,
                SimInstant::EPOCH,
            );
            whole.add(&v);
        }
        assert!(d.db().detail_len() < 2 * DETAIL_WINDOW, "folded");
        d.build_table(PatternShape::new("d", "f", vec![false]));
        let est = d.cost(&CallPattern::new("d", "f", vec![PatArg::Bound]));
        assert!(
            matches!(est.source, EstimateSource::Summary { .. }),
            "{:?}",
            est.source
        );
        assert_eq!(vector_bits(est.vector), vector_bits(whole.vector()));
    }

    #[test]
    fn a_lossy_table_row_is_the_record_order_aggregate() {
        let mut rng = Rng64::new(0x10557);
        let mut d = Dcsm::new();
        let mut db = CostVectorDb::new();
        for _ in 0..600 {
            let call = GroundCall::new("d", "f", vec![Value::Int(rng.range_i64(0, 200))]);
            let (t_first, t_all) = (rng.range_f64(0.1, 9.0), rng.range_f64(1.0, 90.0));
            let v = CostVector::full(t_first, t_all, rng.range_f64(0.0, 30.0));
            d.record(
                &call,
                v.t_first_ms,
                v.t_all_ms,
                v.cardinality,
                SimInstant::EPOCH,
            );
            db.record(call, v, SimInstant::EPOCH);
        }
        d.build_table(lossless("d", "f", 1));
        d.build_table(PatternShape::new("d", "f", vec![false]));
        let blanket = CallPattern::new("d", "f", vec![PatArg::Bound]);
        let est = d.cost(&blanket);
        assert!(
            matches!(est.source, EstimateSource::Summary { .. }),
            "{:?}",
            est.source
        );
        assert_eq!(
            vector_bits(est.vector),
            vector_bits(db.aggregate(&blanket).0)
        );
    }

    #[test]
    fn storage_accounting_moves_from_detail_to_summary() {
        let mut d = dcsm_fig2();
        let detail_only = d.approx_bytes();
        d.build_table(lossless("d1", "p_bf", 1));
        let with_table = d.approx_bytes();
        assert!(with_table > detail_only);
        d.drop_detail("d1", "p_bf");
        let summarized = d.approx_bytes();
        assert!(summarized < with_table);
    }
}
