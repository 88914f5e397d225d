//! Interactive-mode streaming (§3's second mode of operation).
//!
//! An [`InteractiveQuery`] owns its plan and the executor's paused walk of
//! it, and each pull runs the walk to its next answer — exactly the
//! "mediator calculates a first set of answers and presents them to the
//! user" loop. Nothing runs between pulls, so stopping or dropping the
//! handle leaves no outstanding work: a call the user never pulled for is
//! never made (the paper: "the query processor stops the execution of all
//! the running external programs when they are no longer needed").
//!
//! The query inherits the mediator's [`ExecConfig`](crate::ExecConfig)
//! verbatim, including `max_parallel_calls`: with `k > 1` the pull that
//! enters an independence group dispatches it, so early answers already
//! reflect the overlapped (shorter) virtual timeline, and stopping between
//! pulls abandons only calls not yet dispatched.

use crate::exec::{ExecOutcome, ExecStats, Executor, Walk};
use crate::plan::Plan;
use hermes_common::{HermesError, SimDuration, Value};

/// One streamed answer: the projected row and the virtual time at which it
/// became available.
pub type StreamedAnswer = (Vec<Value>, SimDuration);

/// Final summary of an interactive run.
#[derive(Clone, Debug, Default)]
pub struct InteractiveSummary {
    /// True if the plan ran to completion (not stopped).
    pub finished: bool,
    /// Total simulated time of the run (to completion or cancellation);
    /// absent when the run failed.
    pub t_all: Option<SimDuration>,
    /// Execution counters, up to completion or cancellation; absent when
    /// the run failed.
    pub stats: Option<ExecStats>,
    /// True when an unavailable source truncated the answers.
    pub incomplete: bool,
    /// The error that ended the run, if any.
    pub error: Option<HermesError>,
}

impl InteractiveSummary {
    fn of(outcome: ExecOutcome, finished: bool) -> Self {
        InteractiveSummary {
            finished,
            t_all: Some(outcome.t_all),
            stats: Some(outcome.stats),
            incomplete: outcome.incomplete,
            error: None,
        }
    }
}

/// A running interactive query, borrowing the mediator it runs against.
pub struct InteractiveQuery<'m> {
    executor: Executor<'m>,
    plan: Plan,
    /// The paused walk; `None` once the run ended (finished or failed).
    walk: Option<Walk>,
    summary: InteractiveSummary,
}

impl<'m> InteractiveQuery<'m> {
    /// Starts `executor` on `plan` (used by `Mediator::query_interactive`).
    pub(crate) fn new(mut executor: Executor<'m>, plan: Plan) -> Self {
        let walk = executor.start(&plan);
        InteractiveQuery {
            executor,
            plan,
            walk: Some(walk),
            summary: InteractiveSummary::default(),
        }
    }

    /// Pulls the next answer; `None` when the stream has ended (finished
    /// or failed).
    pub fn next_answer(&mut self) -> Option<StreamedAnswer> {
        let walk = self.walk.as_mut()?;
        match self.executor.next_answer(&self.plan, walk) {
            Ok(Some(answer)) => return Some(answer),
            Ok(None) => self.summary = InteractiveSummary::of(self.executor.finish(walk), true),
            Err(e) => self.summary.error = Some(e),
        }
        self.walk = None;
        None
    }

    /// Pulls up to `k` answers (the paper's "next set of answers").
    pub fn next_batch(&mut self, k: usize) -> Vec<StreamedAnswer> {
        (0..k).map_while(|_| self.next_answer()).collect()
    }

    /// Stops the query and returns the summary of what ran: the time and
    /// counters up to here, when it was still running.
    pub fn stop(mut self) -> InteractiveSummary {
        match self.walk.as_mut() {
            Some(walk) => InteractiveSummary::of(self.executor.finish(walk), false),
            None => self.summary,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecConfig;
    use crate::plan::{PlanStep, Route};
    use hermes_cim::ShardedCim;
    use hermes_common::SimClock;
    use hermes_dcsm::ShardedDcsm;
    use hermes_domains::synthetic::{RelationSpec, SyntheticDomain};
    use hermes_lang::{CallTemplate, Term};
    use hermes_net::{profiles, Network};
    use std::sync::Arc;

    struct World {
        net: Network,
        cim: ShardedCim,
        dcsm: ShardedDcsm,
        plan: Plan,
    }

    impl World {
        fn query(&self) -> InteractiveQuery<'_> {
            let executor = Executor::new(
                &self.net,
                &self.cim,
                &self.dcsm,
                SimClock::new(),
                ExecConfig::default(),
            );
            InteractiveQuery::new(executor, self.plan.clone())
        }
    }

    fn setup() -> World {
        let domain = SyntheticDomain::generate("d1", 9, &[RelationSpec::uniform("p", 10, 4.0)]);
        let mut net = Network::new(2);
        net.place(Arc::new(domain), profiles::cornell());
        let plan = Plan {
            steps: vec![PlanStep::Call {
                target: Term::var("P"),
                call: CallTemplate::new("d1", "p_ff", vec![]),
                route: Route::Direct,
            }],
            answer_vars: [Arc::from("P")].into(),
        };
        World {
            net,
            cim: ShardedCim::new(1),
            dcsm: ShardedDcsm::new(1),
            plan,
        }
    }

    #[test]
    fn stream_then_stop_midway() {
        let world = setup();
        let mut iq = world.query();
        let batch = iq.next_batch(2);
        assert_eq!(batch.len(), 2);
        // Answers carry nondecreasing virtual timestamps.
        assert!(batch[0].1 <= batch[1].1);
        let summary = iq.stop();
        // Cancelled mid-run: not finished, no error.
        assert!(!summary.finished);
        assert!(summary.error.is_none());
        // The run up to the stop is reported: its time reaches the second
        // answer, and its one call was made.
        assert!(summary.t_all.unwrap() >= batch[1].1);
        assert_eq!(summary.stats.unwrap().actual_calls, 1);
    }

    #[test]
    fn stream_to_completion() {
        let world = setup();
        let mut iq = world.query();
        let mut n = 0;
        while iq.next_answer().is_some() {
            n += 1;
        }
        let summary = iq.stop();
        assert!(summary.finished);
        assert!(n > 0);
        assert_eq!(summary.stats.unwrap().actual_calls, 1);
        assert!(summary.t_all.unwrap() > SimDuration::ZERO);
    }

    #[test]
    fn drop_without_consuming_does_not_hang() {
        let world = setup();
        drop(world.query());
        // Nothing ran: not even the one call.
        assert_eq!(world.net.source_calls(), 0);
    }

    #[test]
    fn failure_is_reported() {
        let mut world = setup();
        // Empty network: the call's domain is unknown.
        world.net = Network::new(1);
        let mut iq = world.query();
        assert!(iq.next_answer().is_none());
        let summary = iq.stop();
        assert!(matches!(summary.error, Some(HermesError::UnknownDomain(_))));
    }
}
