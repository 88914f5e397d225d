//! # hermes-dcsm
//!
//! The **Domain Cost and Statistics Module** (§6): cost estimation for
//! sources with *no* cost model, built on a statistics cache of actual
//! calls.
//!
//! The module records a cost vector `[T_first, T_all, Card]` for every
//! executed domain call ([`CostVectorDb`]) and answers `cost(pattern)`
//! queries with the §6.3 relaxation algorithm: look for the most specific
//! applicable row, replacing constants by `$b` until something matches.
//!
//! One store holds every aggregate: per function, a [`SummaryTable`] per
//! pattern shape, summed in record order. A shape built for a probe answers
//! as detail; one flagged by [`Dcsm::build_table`] is a §6.2 summary table —
//! lossless (every position a dimension, §6.2.1) or lossy (dimensions
//! dropped, §6.2.2) — which keeps answering after the detail is dropped.
//!
//! Sources that *do* have a cost model plug in through
//! [`Dcsm::register_external`]; their (possibly partial) hints are merged
//! with learned statistics, per the paper's extensibility requirement.
//!
//! ```
//! use hermes_dcsm::Dcsm;
//! use hermes_common::{GroundCall, SimInstant, Value, PatArg, CallPattern};
//!
//! let mut dcsm = Dcsm::new();
//! let call = GroundCall::new("d1", "p_bf", vec![Value::str("a")]);
//! dcsm.record(&call, Some(2.0), Some(2.0), Some(3.0), SimInstant::EPOCH);
//! dcsm.record(&call, Some(2.2), Some(2.2), Some(3.0), SimInstant::EPOCH);
//!
//! // Exact-constant pattern: averaged from the two observations.
//! let est = dcsm.cost(&call.pattern());
//! assert!((est.vector.t_all_ms.unwrap() - 2.1).abs() < 1e-9);
//!
//! // $b pattern: falls back to the blanket average.
//! let blanket = CallPattern::new("d1", "p_bf", vec![PatArg::Bound]);
//! assert!(dcsm.cost(&blanket).vector.cardinality.is_some());
//! ```

pub mod cost;
pub mod estimator;
pub mod maintenance;
pub mod persist;
pub mod sharded;
pub mod summary;
pub mod vectordb;

pub use cost::{CostVector, MeanAgg};
pub use estimator::{
    overlap_makespan, Dcsm, DcsmConfig, EstimateOutcome, EstimateSource, DEFAULT_PRIOR,
    DISPATCH_OVERHEAD_MS,
};
pub use maintenance::{droppable_dimensions, AccessTracker};
pub use sharded::{CostSource, DcsmView, ShardedDcsm};
pub use summary::{SummaryRow, SummaryTable};
pub use vectordb::{CallRecord, CostVectorDb, DETAIL_WINDOW};
