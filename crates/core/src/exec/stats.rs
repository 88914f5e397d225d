//! What a run reports: counters, per-subgoal completeness provenance and
//! the outcome.

use crate::trace::TraceEntry;
use hermes_common::{SimDuration, Value};
use std::fmt;
use std::sync::Arc;

/// Execution counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Call steps entered (including repeats from backtracking).
    pub calls_attempted: u64,
    /// Calls that actually reached a source over the network.
    pub actual_calls: u64,
    /// CIM exact hits.
    pub cim_exact: u64,
    /// CIM equality-invariant hits.
    pub cim_equal: u64,
    /// CIM partial (subset-invariant) hits.
    pub cim_partial: u64,
    /// CIM misses.
    pub cim_miss: u64,
    /// Misses executed through an invariant substitute call.
    pub substituted_calls: u64,
    /// Calls answered from the per-query memo.
    pub memo_hits: u64,
    /// Actual calls skipped because the consumer stopped early.
    pub cancelled_calls: u64,
    /// Call attempts that found their site unavailable.
    pub unavailable: u64,
    /// Retries issued after unavailability.
    pub retries: u64,
    /// Bytes received from sources.
    pub bytes: u64,
    /// Breakers tripped open by consecutive failures.
    pub breaker_trips: u64,
    /// Calls short-circuited by an open breaker (no network time paid).
    pub breaker_short_circuits: u64,
    /// Probe calls admitted by half-open breakers.
    pub breaker_probes: u64,
    /// Breakers closed by a successful probe.
    pub breaker_recoveries: u64,
    /// Runs aborted by the deadline.
    pub deadline_aborts: u64,
    /// Actual calls whose answer set arrived truncated (injected fault).
    pub truncated_calls: u64,
    /// Independence groups dispatched concurrently.
    pub parallel_groups: u64,
    /// Calls put in flight as part of a dispatched group.
    pub overlapped_calls: u64,
    /// Group calls that piggybacked on an earlier call's round trip.
    pub batched_calls: u64,
    /// Simulated microseconds saved by overlap (serial sum − makespan).
    pub overlap_saved_us: u64,
    /// Calls that joined another query's identical in-flight call instead
    /// of opening their own (single-flight followers).
    pub calls_coalesced: u64,
    /// Coalesced calls actually served by the leader's published outcome —
    /// each one is a source round trip this query never paid. (A follower
    /// whose leader failed falls back to its own call and saves nothing.)
    pub round_trips_saved: u64,
    /// Mid-execution tier downgrades fired by budget pressure.
    pub tier_downgrades: u64,
    /// Remote calls skipped because the active tier forbade them.
    pub tier_skipped_calls: u64,
    /// Runs served whole from a materialized subplan entry.
    pub subplan_hits: u64,
    /// Complete plan results admitted into the subplan cache.
    pub subplans_materialized: u64,
    /// Runs served by another query's in-flight subplan computation
    /// (single-flight followers at the plan level).
    pub subplans_coalesced: u64,
    /// Complete plan results the subplan cache refused to admit
    /// (admission price or byte budget).
    pub subplan_rejections: u64,
}

impl ExecStats {
    /// Adds `other`'s counters into `self` — used to carry the work a
    /// failed plan attempt did into the result of the plan that finally
    /// answered (failover must not make burned calls disappear).
    pub fn absorb(&mut self, other: &ExecStats) {
        self.calls_attempted += other.calls_attempted;
        self.actual_calls += other.actual_calls;
        self.cim_exact += other.cim_exact;
        self.cim_equal += other.cim_equal;
        self.cim_partial += other.cim_partial;
        self.cim_miss += other.cim_miss;
        self.substituted_calls += other.substituted_calls;
        self.memo_hits += other.memo_hits;
        self.cancelled_calls += other.cancelled_calls;
        self.unavailable += other.unavailable;
        self.retries += other.retries;
        self.bytes += other.bytes;
        self.breaker_trips += other.breaker_trips;
        self.breaker_short_circuits += other.breaker_short_circuits;
        self.breaker_probes += other.breaker_probes;
        self.breaker_recoveries += other.breaker_recoveries;
        self.deadline_aborts += other.deadline_aborts;
        self.truncated_calls += other.truncated_calls;
        self.parallel_groups += other.parallel_groups;
        self.overlapped_calls += other.overlapped_calls;
        self.batched_calls += other.batched_calls;
        self.overlap_saved_us += other.overlap_saved_us;
        self.calls_coalesced += other.calls_coalesced;
        self.round_trips_saved += other.round_trips_saved;
        self.tier_downgrades += other.tier_downgrades;
        self.tier_skipped_calls += other.tier_skipped_calls;
        self.subplan_hits += other.subplan_hits;
        self.subplans_materialized += other.subplans_materialized;
        self.subplans_coalesced += other.subplans_coalesced;
        self.subplan_rejections += other.subplan_rejections;
    }
}

/// Why part of a subgoal's answer set may be missing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IncompleteReason {
    /// The subgoal's site was unavailable and the cache could only serve
    /// a prefix.
    SiteUnavailable {
        /// The unreachable site.
        site: String,
    },
    /// An open circuit breaker short-circuited the subgoal's call.
    BreakerOpen {
        /// The isolated site.
        site: String,
    },
    /// The query's deadline fired before the subgoal finished.
    DeadlineExceeded,
    /// The active plan tier forbade the subgoal's remote call: the query
    /// was selected into (or downgraded to) a cheaper tier, and only the
    /// cache could serve this subgoal. Distinct from `DeadlineExceeded` —
    /// a downgrade is a deliberate fail-soft decision, not a timeout.
    Downgraded,
    /// An injected fault truncated the subgoal's answer set in flight.
    Truncated {
        /// The site whose answers were cut short.
        site: String,
    },
}

impl fmt::Display for IncompleteReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IncompleteReason::SiteUnavailable { site } => {
                write!(f, "site `{site}` unavailable")
            }
            IncompleteReason::BreakerOpen { site } => {
                write!(f, "breaker open for `{site}`")
            }
            IncompleteReason::DeadlineExceeded => write!(f, "deadline exceeded"),
            IncompleteReason::Downgraded => {
                write!(f, "downgraded to a cheaper plan tier")
            }
            IncompleteReason::Truncated { site } => {
                write!(f, "answers truncated by `{site}`")
            }
        }
    }
}

/// Completeness provenance for one call step of the plan: which subgoal,
/// and every reason its contribution may be partial. Replaces a single
/// query-wide boolean with an auditable per-subgoal account.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubgoalProvenance {
    /// The subgoal (rendered call template) this entry covers.
    pub subgoal: String,
    /// Gaps observed while evaluating it; empty means complete.
    pub gaps: Vec<IncompleteReason>,
}

impl SubgoalProvenance {
    /// True when no gaps were recorded for this subgoal.
    pub fn complete(&self) -> bool {
        self.gaps.is_empty()
    }
}

/// A run's answers: one row per answer, in production order, each
/// holding the plan's answer variables in answer-column order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Rows {
    columns: Arc<[Arc<str>]>,
    rows: Vec<Vec<Value>>,
}

impl Rows {
    pub(crate) fn new(columns: Arc<[Arc<str>]>, rows: Vec<Vec<Value>>) -> Self {
        Rows { columns, rows }
    }

    /// Number of answers.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there is no answer.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The answers, readable by answer variable.
    pub fn iter(&self) -> impl Iterator<Item = Row<'_>> {
        let columns = &self.columns[..];
        self.rows.iter().map(move |values| Row { columns, values })
    }

    /// The rows, each in answer-column order.
    pub fn as_slice(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// The rows, moved out.
    pub fn into_rows(self) -> Vec<Vec<Value>> {
        self.rows
    }
}

/// One answer of [`Rows`].
#[derive(Clone, Copy, Debug)]
pub struct Row<'a> {
    columns: &'a [Arc<str>],
    values: &'a [Value],
}

impl<'a> Row<'a> {
    /// The value of answer variable `var`, if it is one.
    pub fn get(&self, var: &str) -> Option<&'a Value> {
        let col = self.columns.iter().position(|c| c.as_ref() == var)?;
        self.values.get(col)
    }
}

/// The result of executing a plan.
#[derive(Clone, Debug)]
pub struct ExecOutcome {
    /// The answer rows, in production order.
    pub answers: Rows,
    /// Time to the first answer (None if there were no answers).
    pub t_first: Option<SimDuration>,
    /// Time to completion (or to the stop point, in limited runs).
    pub t_all: SimDuration,
    /// Counters.
    pub stats: ExecStats,
    /// True when any subgoal's answers may be incomplete (derived from
    /// `provenance`).
    pub incomplete: bool,
    /// Per-subgoal completeness provenance, one entry per call step.
    pub provenance: Vec<SubgoalProvenance>,
    /// The execution trace (empty unless `collect_trace` was set).
    pub trace: Vec<TraceEntry>,
}
