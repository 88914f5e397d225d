//! Concurrent DCSM access: the [`CostSource`] / [`DcsmView`] traits and the
//! [`ShardedDcsm`] facade.
//!
//! The planner asks "what will this call pattern cost?" ([`CostSource`]) and
//! the executor reports "here is what the call actually cost"
//! ([`DcsmView::record`]). Both route by `(domain, function)`, so the cost
//! statistics partition the same way the answer cache does: each shard owns
//! the complete detail records *and* summary tables for its functions, and
//! the §6.3 relaxation-lattice lookup runs entirely inside one shard.

use crate::estimator::{Dcsm, DcsmConfig, EstimateOutcome};
use crate::vectordb::CostVectorDb;
use hermes_common::sync::Shards;
use hermes_common::{CallPattern, GroundCall, Result, SimInstant};
use std::path::Path;
use std::sync::Arc;

/// Read-side cost estimation. `estimate_plan`/`choose_plan` are generic
/// over this, so a plain [`Dcsm`] and a [`ShardedDcsm`] both plug into the
/// optimizer unchanged.
pub trait CostSource {
    /// Estimates the cost of a call pattern (§6.3 pattern relaxation).
    fn cost(&self, pattern: &CallPattern) -> EstimateOutcome;

    /// Estimated saving, in milliseconds, from materializing a subplan
    /// with these call patterns once instead of executing it
    /// `occurrences` times: the analyzer's HA073 sharing estimate, and the
    /// price by which the runtime subplan cache demotes entries. The
    /// per-execution cost is the sequential sum of the patterns' `t_all`
    /// estimates — a deliberate upper bound: sharing saves the most
    /// exactly when the calls could not overlap anyway.
    fn estimate_subplan_savings(&self, patterns: &[CallPattern], occurrences: usize) -> f64 {
        let per_exec: f64 = patterns.iter().map(|p| self.cost(p).t_all_ms()).sum();
        per_exec * occurrences.saturating_sub(1) as f64
    }
}

/// Shared-state DCSM access for the executor: estimation plus observation
/// recording. All methods take `&self`; implementations provide interior
/// mutability.
pub trait DcsmView: CostSource {
    /// Records an observed call outcome into the detail database and
    /// summary tables.
    fn record(
        &self,
        call: &GroundCall,
        t_first_ms: Option<f64>,
        t_all_ms: Option<f64>,
        cardinality: Option<f64>,
        now: SimInstant,
    );
}

impl CostSource for Dcsm {
    fn cost(&self, pattern: &CallPattern) -> EstimateOutcome {
        Dcsm::cost(self, pattern)
    }
}

/// N independently locked DCSM shards partitioned by `(domain, function)`.
///
/// One [`Shards`] container, like `ShardedCim`: every operation holds at
/// most one shard lock, aggregates visit shards sequentially.
/// Source-provided native estimators are *not* replicated (they are
/// registered against a live `Dcsm`); a concurrent deployment wanting them
/// registers per shard via [`ShardedDcsm::with_shard`].
#[derive(Debug)]
pub struct ShardedDcsm {
    shards: Shards<Dcsm>,
}

impl ShardedDcsm {
    /// `n` empty shards with default configuration (`n` clamped to ≥ 1).
    pub fn new(n: usize) -> Self {
        ShardedDcsm::with_config(DcsmConfig::default(), n)
    }

    /// `n` empty shards sharing one configuration.
    pub fn with_config(config: DcsmConfig, n: usize) -> Self {
        ShardedDcsm::from_dcsm(&Dcsm::with_config(config), n)
    }

    /// `n` shards seeded from an existing estimator: configuration is
    /// copied and each function's statistics — retained records and every
    /// shape, summary tables included, so estimates carry over bit for bit
    /// whatever the detail window has dropped — go to its owning shard.
    /// Native estimators are not carried over.
    pub fn from_dcsm(source: &Dcsm, n: usize) -> Self {
        let fork = |_| Dcsm::with_config(source.config().clone());
        let sharded = ShardedDcsm {
            shards: Shards::new((0..n.max(1)).map(fork).collect()),
        };
        sharded.carry(source);
        sharded
    }

    /// The same statistics over `n` shards, carried as
    /// [`ShardedDcsm::from_dcsm`] does, with shard 0's configuration.
    pub fn reshard(&self, n: usize) -> Self {
        let config = self.shards.first().config().clone();
        let fresh = ShardedDcsm::with_config(config, n);
        for shard in self.shards.each() {
            fresh.carry(&shard);
        }
        fresh
    }

    /// Copies each of `from`'s functions' statistics into the shard that
    /// owns it.
    fn carry(&self, from: &Dcsm) {
        self.shards
            .distribute(from.db().functions(), owner, |shard, functions| {
                for (domain, function) in functions {
                    shard.adopt_function(from, &domain, &function);
                }
            });
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.count()
    }

    /// Observations the shards' detail answers for (see
    /// [`CostVectorDb::len`](crate::CostVectorDb::len)); each shard folds
    /// its own functions' records independently.
    pub fn records(&self) -> usize {
        self.shards.each().map(|s| s.db().len()).sum()
    }

    /// Total summary tables across shards.
    pub fn table_count(&self) -> usize {
        self.shards.each().map(|s| s.table_count()).sum()
    }

    /// Approximate resident bytes across shards.
    pub fn approx_bytes(&self) -> usize {
        self.shards.each().map(|s| s.approx_bytes()).sum()
    }

    /// Writes every shard's retained records into one statistics file:
    /// the file one shard holding them writes (see
    /// [`persist::save_to_path`](crate::persist::save_to_path)).
    pub fn save_to_path(&self, path: &Path) -> Result<()> {
        let one = ShardedDcsm::new(1);
        for shard in self.shards.each() {
            one.carry(&shard);
        }
        let merged = one.shards.first();
        crate::persist::save_to_path(merged.db(), path)
    }

    /// Replaces every shard's statistics with the functions of `db` it
    /// owns (see [`Dcsm::load_db`]), so loading the same database twice is
    /// loading it once.
    pub fn load_db(&self, db: &CostVectorDb) {
        self.shards
            .distribute(db.functions(), owner, |shard, functions| {
                let mut owned = CostVectorDb::new();
                for (domain, function) in functions {
                    owned.adopt_function(db, &domain, &function);
                }
                shard.load_db(&owned);
            });
    }

    /// Blocking shard-lock acquisitions so far.
    pub fn lock_contention(&self) -> u64 {
        self.shards.contention()
    }

    /// Runs `f` with the shard owning `(domain, function)` locked —
    /// registration hook for per-shard native estimators and for tests.
    pub fn with_shard<R>(&self, domain: &str, function: &str, f: impl FnOnce(&mut Dcsm) -> R) -> R {
        f(&mut self.shards.owner(domain, function))
    }

    /// Runs `f` over each shard in index order with mutable access (one
    /// shard locked at a time), like `ShardedCim::for_each_shard_mut`.
    pub fn for_each_shard_mut(&self, mut f: impl FnMut(usize, &mut Dcsm)) {
        for (i, mut shard) in self.shards.each().enumerate() {
            f(i, &mut shard);
        }
    }
}

/// The key a function's statistics are sharded by.
fn owner((domain, function): &(Arc<str>, Arc<str>)) -> (&str, &str) {
    (domain, function)
}

impl CostSource for ShardedDcsm {
    fn cost(&self, pattern: &CallPattern) -> EstimateOutcome {
        self.shards
            .owner(&pattern.domain, &pattern.function)
            .cost(pattern)
    }
}

impl DcsmView for ShardedDcsm {
    fn record(
        &self,
        call: &GroundCall,
        t_first_ms: Option<f64>,
        t_all_ms: Option<f64>,
        cardinality: Option<f64>,
        now: SimInstant,
    ) {
        self.shards.owner(&call.domain, &call.function).record(
            call,
            t_first_ms,
            t_all_ms,
            cardinality,
            now,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_common::Value;
    use std::sync::atomic::Ordering;

    fn call(function: &str, k: i64) -> GroundCall {
        GroundCall::new("d", function, vec![Value::Int(k)])
    }

    #[test]
    fn record_then_cost_round_trips_in_one_shard() {
        let sharded = ShardedDcsm::new(4);
        for k in 0..5 {
            sharded.record(
                &call("f", k),
                Some(10.0),
                Some(40.0),
                Some(8.0),
                SimInstant::EPOCH,
            );
        }
        assert_eq!(sharded.records(), 5);
        let estimate = sharded.cost(&call("f", 2).pattern());
        assert_eq!(estimate.t_all_ms(), 40.0);
        // Only the owning shard holds the function's records.
        let mut owners = 0;
        sharded.for_each_shard_mut(|_, shard| {
            if !shard.db().is_empty() {
                owners += 1;
            }
        });
        assert_eq!(owners, 1);
    }

    /// Prices `plans` the way the planner's `choose_plan` does: one probe
    /// per distinct pattern, in first-appearance order, each plan summed
    /// from those answers. Returns the cheapest plan and every plan's
    /// `T_all` bits.
    fn choose(dcsm: &dyn CostSource, plans: &[Vec<CallPattern>]) -> (usize, Vec<u64>) {
        let mut priced: Vec<(&CallPattern, f64)> = Vec::new();
        let totals: Vec<f64> = plans
            .iter()
            .map(|plan| {
                plan.iter()
                    .map(|p| match priced.iter().find(|(seen, _)| *seen == p) {
                        Some((_, t)) => *t,
                        None => {
                            let t = dcsm.cost(p).t_all_ms();
                            priced.push((p, t));
                            t
                        }
                    })
                    .sum()
            })
            .collect();
        let best = (0..totals.len())
            .min_by(|&a, &b| totals[a].total_cmp(&totals[b]))
            .unwrap_or(0);
        (best, totals.into_iter().map(f64::to_bits).collect())
    }

    #[test]
    fn choices_during_concurrent_records_end_where_a_serial_rerun_does() {
        use hermes_common::{PatArg, Rng64};
        // Each recorder owns its functions, so every function's records
        // arrive in one order and a serial replay of the two logs builds
        // the same cells.
        let logs: Vec<Vec<(GroundCall, f64)>> = [("f", "g"), ("h", "k")]
            .into_iter()
            .enumerate()
            .map(|(seed, functions)| {
                let mut rng = Rng64::new(seed as u64);
                (0..600)
                    .map(|_| {
                        let function = [functions.0, functions.1][rng.range_usize(0, 2)];
                        (call(function, rng.range_i64(0, 6)), rng.range_f64(1.0, 9.0))
                    })
                    .collect()
            })
            .collect();
        let plans: Vec<Vec<CallPattern>> = (0..6)
            .map(|i| {
                ["f", "g", "h", "k"]
                    .iter()
                    .cycle()
                    .skip(i)
                    .take(3)
                    .enumerate()
                    .map(|(j, f)| match j {
                        0 => call(f, i as i64 % 7).pattern(),
                        _ => CallPattern::new("d", *f, vec![PatArg::Bound]),
                    })
                    .collect()
            })
            .collect();
        let sharded = ShardedDcsm::new(3);
        let recording = std::sync::atomic::AtomicUsize::new(logs.len());
        // Every thread starts at once, so choices overlap records.
        let start = std::sync::Barrier::new(logs.len() + 4);
        std::thread::scope(|s| {
            for log in &logs {
                let (sharded, recording, start) = (&sharded, &recording, &start);
                s.spawn(move || {
                    start.wait();
                    for (c, t_all) in log {
                        sharded.record(c, Some(1.0), Some(*t_all), Some(2.0), SimInstant::EPOCH);
                    }
                    recording.fetch_sub(1, Ordering::SeqCst);
                });
            }
            for _ in 0..4 {
                let (sharded, recording, plans, start) = (&sharded, &recording, &plans, &start);
                s.spawn(move || {
                    start.wait();
                    loop {
                        let done = recording.load(Ordering::SeqCst) == 0;
                        let (best, totals) = choose(sharded, plans);
                        assert!(best < plans.len());
                        assert!(totals.iter().all(|t| f64::from_bits(*t).is_finite()));
                        if done {
                            break;
                        }
                    }
                });
            }
        });
        let mut serial = Dcsm::new();
        for (c, t_all) in logs.iter().flatten() {
            serial.record(c, Some(1.0), Some(*t_all), Some(2.0), SimInstant::EPOCH);
        }
        assert_eq!(sharded.records(), serial.db().len());
        assert_eq!(choose(&sharded, &plans), choose(&serial, &plans));
        let bits = |o: EstimateOutcome| {
            let v = o.vector;
            let vector = [v.t_first_ms, v.t_all_ms, v.cardinality].map(|x| x.map(f64::to_bits));
            (vector, o.source, o.lookup_work)
        };
        for p in plans.iter().flatten() {
            assert_eq!(bits(sharded.cost(p)), bits(serial.cost(p)), "{p}");
        }
    }

    #[test]
    fn from_dcsm_replays_detail_records() {
        let mut source = Dcsm::new();
        for k in 0..4 {
            source.record(
                &call("f", k),
                Some(5.0),
                Some(20.0),
                Some(3.0),
                SimInstant::EPOCH,
            );
            source.record(
                &call("g", k),
                Some(7.0),
                Some(30.0),
                Some(4.0),
                SimInstant::EPOCH,
            );
        }
        let sharded = ShardedDcsm::from_dcsm(&source, 3);
        assert_eq!(sharded.records(), 8);
        assert_eq!(sharded.cost(&call("g", 1).pattern()).t_all_ms(), 30.0);
    }
}
