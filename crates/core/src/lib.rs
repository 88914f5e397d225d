//! # hermes-core
//!
//! The HERMES mediator: the paper's optimizer architecture (Figure 1)
//! assembled over the substrate crates.
//!
//! * [`rewrite`] — the rule rewriter (§5): adornment-compatible subgoal
//!   reorderings, access-path rule unfolding, condition pushdown, CIM
//!   routing.
//! * [`cost`] — the rule cost estimator (§7): combines per-call DCSM
//!   estimates through the pipelined nested-loops formulas.
//! * [`exec`] — the executor: pipelined backtracking evaluation on the
//!   virtual clock, with the §4.1 cache/invariant pipeline inline and the
//!   statistics feedback loop into DCSM.
//! * `pipeline` (crate-private) — the one query path, as methods of
//!   [`Mediator`]: admission → request overrides → rewrite + cost +
//!   choose → tier selection → executor run with plan failover →
//!   projection.
//! * [`server`] — the one [`Mediator`] state (also named
//!   [`ConcurrentMediator`]): a swappable planning snapshot over sharded
//!   caches, behind an admission gate, `query(&self)`.
//! * [`mediator`] — its configuration, requests and results, and the
//!   methods that install a program, analyze, explain, persist and
//!   reshard.
//!
//! ```
//! use hermes_core::Mediator;
//! use hermes_net::{Network, profiles};
//! use hermes_domains::video::gen::rope_store;
//! use std::sync::Arc;
//!
//! let mut net = Network::new(7);
//! net.place(Arc::new(rope_store()), profiles::maryland());
//! let mediator = Mediator::from_source(
//!     "objects_in(V, F, L, O) :- in(O, video:frames_to_objects(V, F, L)).",
//!     net,
//! ).unwrap();
//!
//! let result = mediator.query("?- objects_in('rope', 4, 47, O).").unwrap();
//! assert!(result.rows.len() > 10);
//! // Ask again: the answer cache makes it much faster.
//! let again = mediator.query("?- objects_in('rope', 4, 47, O).").unwrap();
//! assert!(again.t_all < result.t_all);
//! ```

pub mod breaker;
pub mod caches;
pub mod cost;
pub mod cursor;
pub mod exec;
pub mod flight;
pub mod matcache;
pub mod mediator;
mod pipeline;
pub mod plan;
pub mod rewrite;
pub mod serve;
pub mod server;
pub mod tier;
pub mod trace;

pub use breaker::{Admission, Breaker, BreakerBank, BreakerConfig, BreakerState};
pub use caches::{CacheControl, CachePolicy, CacheSnapshot, CacheTier, InvalidationSweep};
pub use cost::{choose_plan, estimate_plan, CostConfig};
pub use cursor::{InteractiveQuery, InteractiveSummary};
pub use exec::{
    ExecConfig, ExecOutcome, ExecStats, Executor, IncompleteReason, Row, Rows, SubgoalProvenance,
};
pub use flight::{FlightHandle, FlightLeader, FlightRole, Flights, InFlightRegistry};
pub use matcache::{MatCache, MatCacheStats, MatLookup, MatTicket};
pub use mediator::{MediatorConfig, Planned, QueryRequest, QueryResult, Snapshot};
pub use plan::{independence_groups, Plan, PlanStep, Route};
pub use rewrite::{
    bind_query, cache_servable_plans, enumerate_plans, enumerate_plans_with_pushdowns,
    fingerprint_body, fingerprint_rule, CheckedProgram, Fingerprint, PushdownRule, RewriteConfig,
    SubplanKey,
};
pub use serve::{
    NetServer, NetServerStats, RemoteResult, ServeConfig, ServeConfigBuilder, ServeMode, WireClient,
};
pub use server::{ConcurrentMediator, Mediator, ServerStats};
pub use tier::{select_tier, PlanTier, TierDecision, TierInputs, TierLoad, TierReason};
pub use trace::{TraceEntry, TraceEvent};
