//! # hermes
//!
//! A from-scratch Rust reproduction of **"Query Caching and Optimization in
//! Distributed Mediator Systems"** (Adali, Candan, Papakonstantinou,
//! Subrahmanian — SIGMOD 1996): the HERMES mediator with
//!
//! * **intelligent result caching** — a Cache and Invariant Manager (CIM)
//!   that serves domain calls from prior results, including calls never
//!   cached explicitly, via *invariants* (`Cond ⇒ DC1 {=, ⊇} DC2`);
//! * **statistics-cache cost optimization** — a Domain Cost and Statistics
//!   Module (DCSM) that learns `[T_first, T_all, Card]` vectors from actual
//!   calls, summarizes them losslessly or lossily, and costs candidate
//!   plans for sources that have no cost model at all;
//! * **a rule rewriter and pipelined executor** over a simulated wide-area
//!   network of heterogeneous sources: a relational engine, flat files, an
//!   AVIS-style video store, a spatial index, and a terrain path planner.
//!
//! This crate re-exports the workspace's public API. Start with
//! [`Mediator`]:
//!
//! ```
//! use hermes::{Mediator, Network, profiles};
//! use hermes::domains::video::gen::rope_store;
//! use std::sync::Arc;
//!
//! let mut net = Network::new(7);
//! net.place(Arc::new(rope_store()), profiles::italy());
//!
//! let mut mediator = Mediator::from_source(
//!     "objects_in(V, F, L, O) :- in(O, video:frames_to_objects(V, F, L)).",
//!     net,
//! ).unwrap();
//!
//! let cold = mediator.query("?- objects_in('rope', 4, 47, O).").unwrap();
//! let warm = mediator.query("?- objects_in('rope', 4, 47, O).").unwrap();
//! assert_eq!(cold.rows, warm.rows);
//! // Transatlantic call answered from the local cache the second time:
//! assert!(warm.t_all.as_millis_f64() * 10.0 < cold.t_all.as_millis_f64());
//! ```

pub use hermes_analysis as analysis;
pub use hermes_cim as cim;
pub use hermes_common as common;
pub use hermes_core as core;
pub use hermes_dcsm as dcsm;
pub use hermes_domains as domains;
pub use hermes_lang as lang;
pub use hermes_net as net;

pub use hermes_analysis::{
    analyze_source, analyze_source_with, report_from_json, report_to_json, report_to_sarif,
    AnalysisReport, AnalyzeOptions, Analyzer, DiagCode, Diagnostic, FileReport, Fingerprint,
    QueryForm, Severity, SubplanKey,
};
pub use hermes_cim::{Cim, CimPolicy, CimResolution, RoutingDecision, ShardedCim};
pub use hermes_common::{
    DoneFrame, ErrorFrame, Frame, FrameDecoder, GroundCall, HermesError, QueryFrame, Result,
    SimClock, SimDuration, SimInstant, Value,
};
pub use hermes_core::{
    BreakerBank, BreakerConfig, BreakerState, CacheControl, CachePolicy, CacheSnapshot, CacheTier,
    ConcurrentMediator, ExecConfig, ExecStats, InFlightRegistry, IncompleteReason,
    InteractiveQuery, InvalidationSweep, MatCache, MatCacheStats, Mediator, MediatorConfig,
    NetServer, NetServerStats, Plan, PlanTier, QueryRequest, QueryResult, RemoteResult,
    ServeConfig, ServeConfigBuilder, ServeMode, ServerStats, SubgoalProvenance, TierReason,
    WireClient,
};
pub use hermes_dcsm::{Dcsm, DcsmConfig, ShardedDcsm};
pub use hermes_lang::{parse_invariant, parse_invariants, parse_program, parse_query};
pub use hermes_net::{profiles, FaultPlan, LinkModel, Network, Site};
