//! Interactive-mode streaming (§3's second mode of operation).
//!
//! The plan runs on a worker thread; answers cross a rendezvous channel,
//! so the executor is *suspended* between pulls — exactly the "mediator
//! calculates a first set of answers and presents them to the user" loop.
//! Dropping or stopping the handle closes the channel; the executor's next
//! send fails and evaluation unwinds, cancelling outstanding source calls
//! (the paper: "the query processor stops the execution of all the running
//! external programs when they are no longer needed").
//!
//! The cursor inherits the mediator's [`ExecConfig`] verbatim, including
//! `max_parallel_calls`: with `k > 1` the worker dispatches each
//! independence group before the first pull that touches it, so early
//! answers already reflect the overlapped (shorter) virtual timeline, and
//! stopping between pulls abandons only calls not yet dispatched.

use crate::breaker::BreakerBank;
use crate::exec::{ExecConfig, ExecStats, Executor};
use crate::plan::Plan;
use hermes_cim::ShardedCim;
use hermes_common::sync::Mutex;
use hermes_common::{HermesError, SimClock, SimDuration, Value};
use hermes_dcsm::ShardedDcsm;
use hermes_net::Network;
use std::sync::mpsc;
use std::sync::Arc;

/// One streamed answer: the projected row and the virtual time at which it
/// became available.
pub type StreamedAnswer = (Vec<Value>, SimDuration);

/// Final summary of an interactive run.
#[derive(Clone, Debug, Default)]
pub struct InteractiveSummary {
    /// True if the plan ran to completion (not cancelled).
    pub finished: bool,
    /// Total simulated time of the run (to completion or cancellation).
    pub t_all: Option<SimDuration>,
    /// Execution counters (present when the run finished).
    pub stats: Option<ExecStats>,
    /// True when an unavailable source truncated the answers.
    pub incomplete: bool,
    /// The error that ended the run, if any.
    pub error: Option<HermesError>,
}

enum Event {
    Answer(StreamedAnswer),
    Done {
        t_all: SimDuration,
        stats: ExecStats,
        incomplete: bool,
    },
    Failed(HermesError),
}

/// A running interactive query.
pub struct InteractiveQuery {
    rx: Option<mpsc::Receiver<Event>>,
    handle: Option<std::thread::JoinHandle<()>>,
    summary: InteractiveSummary,
    exhausted: bool,
}

impl InteractiveQuery {
    /// Spawns the worker thread (used by `Mediator::query_interactive`).
    pub(crate) fn spawn(
        network: Arc<Network>,
        cim: Arc<ShardedCim>,
        dcsm: Arc<ShardedDcsm>,
        breakers: Option<Arc<Mutex<BreakerBank>>>,
        clock: SimClock,
        config: ExecConfig,
        plan: Plan,
    ) -> Self {
        // Rendezvous channel: the executor blocks until the consumer pulls.
        let (tx, rx) = mpsc::sync_channel::<Event>(0);
        let handle = std::thread::spawn(move || {
            let columns = plan.answer_vars.clone();
            let mut sink = |theta: &hermes_lang::Subst, elapsed: SimDuration| {
                let row: Vec<Value> = columns
                    .iter()
                    .map(|v| theta.get(v).cloned().unwrap_or(Value::Null))
                    .collect();
                tx.send(Event::Answer((row, elapsed))).is_ok()
            };
            let mut executor = Executor::new(&network, cim.as_ref(), dcsm.as_ref(), clock, config);
            if let Some(bank) = breakers.as_ref() {
                executor = executor.with_breakers(bank);
            }
            match executor.run_with_sink(&plan, None, Some(&mut sink)) {
                Ok(outcome) => {
                    let _ = tx.send(Event::Done {
                        t_all: outcome.t_all,
                        stats: outcome.stats,
                        incomplete: outcome.incomplete,
                    });
                }
                Err(e) => {
                    let _ = tx.send(Event::Failed(e));
                }
            }
        });
        InteractiveQuery {
            rx: Some(rx),
            handle: Some(handle),
            summary: InteractiveSummary::default(),
            exhausted: false,
        }
    }

    /// Pulls the next answer; `None` when the stream has ended (finished,
    /// failed, or cancelled).
    pub fn next_answer(&mut self) -> Option<StreamedAnswer> {
        if self.exhausted {
            return None;
        }
        let rx = self.rx.as_ref().expect("receiver live until exhausted");
        match rx.recv() {
            Ok(Event::Answer(a)) => Some(a),
            Ok(Event::Done {
                t_all,
                stats,
                incomplete,
            }) => {
                self.summary.finished = true;
                self.summary.t_all = Some(t_all);
                self.summary.stats = Some(stats);
                self.summary.incomplete = incomplete;
                self.exhausted = true;
                None
            }
            Ok(Event::Failed(e)) => {
                self.summary.error = Some(e);
                self.exhausted = true;
                None
            }
            Err(_) => {
                self.exhausted = true;
                None
            }
        }
    }

    /// Pulls up to `k` answers (the paper's "next set of answers").
    pub fn next_batch(&mut self, k: usize) -> Vec<StreamedAnswer> {
        let mut out = Vec::with_capacity(k);
        for _ in 0..k {
            match self.next_answer() {
                Some(a) => out.push(a),
                None => break,
            }
        }
        out
    }

    /// Stops the query (cancelling any outstanding work) and returns the
    /// summary of what ran.
    pub fn stop(mut self) -> InteractiveSummary {
        self.shutdown();
        self.summary.clone()
    }

    fn shutdown(&mut self) {
        if !self.exhausted {
            // Drain anything in flight without blocking (a rendezvous
            // try_recv picks up a sender mid-handshake), then close the
            // channel: the worker's next send fails and it unwinds.
            if let Some(rx) = self.rx.take() {
                while let Ok(ev) = rx.try_recv() {
                    if let Event::Done {
                        t_all,
                        stats,
                        incomplete,
                    } = ev
                    {
                        self.summary.finished = true;
                        self.summary.t_all = Some(t_all);
                        self.summary.stats = Some(stats);
                        self.summary.incomplete = incomplete;
                    }
                }
            }
            self.exhausted = true;
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for InteractiveQuery {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PlanStep, Route};
    use hermes_domains::synthetic::{RelationSpec, SyntheticDomain};
    use hermes_lang::{CallTemplate, Term};
    use hermes_net::profiles;

    type World = (Arc<Network>, Arc<ShardedCim>, Arc<ShardedDcsm>, Plan);

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
            answer_vars: vec![Arc::from("P")],
        };
        (
            Arc::new(net),
            Arc::new(ShardedCim::new(1)),
            Arc::new(ShardedDcsm::new(1)),
            plan,
        )
    }

    #[test]
    fn stream_then_stop_midway() {
        let (net, cim, dcsm, plan) = setup();
        let mut iq = InteractiveQuery::spawn(
            net,
            cim,
            dcsm,
            None,
            SimClock::new(),
            ExecConfig::default(),
            plan,
        );
        let batch = iq.next_batch(2);
        assert_eq!(batch.len(), 2);
        // Answers carry nondecreasing virtual timestamps.
        assert!(batch[0].1 <= batch[1].1);
        let summary = iq.stop();
        // Cancelled mid-run: not finished, no error.
        assert!(!summary.finished);
        assert!(summary.error.is_none());
    }

    #[test]
    fn stream_to_completion() {
        let (net, cim, dcsm, plan) = setup();
        let mut iq = InteractiveQuery::spawn(
            net.clone(),
            cim,
            dcsm,
            None,
            SimClock::new(),
            ExecConfig::default(),
            plan,
        );
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
        let (net, cim, dcsm, plan) = setup();
        let iq = InteractiveQuery::spawn(
            net,
            cim,
            dcsm,
            None,
            SimClock::new(),
            ExecConfig::default(),
            plan,
        );
        drop(iq); // must join cleanly
    }

    #[test]
    fn failure_is_reported() {
        let (_, cim, dcsm, plan) = setup();
        // Empty network: the call's domain is unknown.
        let net = Arc::new(Network::new(1));
        let mut iq = InteractiveQuery::spawn(
            net,
            cim,
            dcsm,
            None,
            SimClock::new(),
            ExecConfig::default(),
            plan,
        );
        assert!(iq.next_answer().is_none());
        let summary = iq.stop();
        assert!(matches!(summary.error, Some(HermesError::UnknownDomain(_))));
    }
}
