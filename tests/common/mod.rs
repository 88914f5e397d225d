//! Shared by the serving test files (`reactor.rs`, `netserve.rs`),
//! `plan_parity.rs` and `oracle.rs`: the source wrapper that keeps source calls off the
//! reactor thread, the probe that shows every gate permit came back, and
//! a world of canned sources for any example program.
#![allow(dead_code)] // each test file uses its own subset

pub mod oracle;

use hermes::common::Record;
use hermes::domains::{CallOutcome, Domain, FunctionSig, NativeEstimator};
use hermes::net::profiles;
use hermes::{parse_program, ConcurrentMediator, HermesError, Mediator, Network, Value};
use std::sync::Arc;

/// Wraps a source so that a call executed on the thread named
/// `hermes-reactor` panics: the event loop may answer a query from the
/// cache, it must never wait on a source. Every world these test files
/// serve is built over it, so the whole of their traffic is checked.
pub struct OffReactor {
    inner: Arc<dyn Domain>,
}

impl OffReactor {
    pub fn new(inner: impl Domain + 'static) -> Self {
        OffReactor {
            inner: Arc::new(inner),
        }
    }
}

impl Domain for OffReactor {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn functions(&self) -> Vec<FunctionSig> {
        self.inner.functions()
    }

    fn call(&self, function: &str, args: &[Value]) -> hermes::Result<CallOutcome> {
        assert_ne!(
            std::thread::current().name(),
            Some("hermes-reactor"),
            "source call {}:{function} ran on the reactor thread",
            self.inner.name()
        );
        self.inner.call(function, args)
    }

    fn native_estimator(&self) -> Option<&dyn NativeEstimator> {
        self.inner.native_estimator()
    }
}

/// Shows that no gate permit is still out, through the public API alone:
/// a leaked permit makes a one-slot gate shed. Leaves the gate unbounded.
/// `query` must be answerable from the cache.
pub fn assert_permits_released(m: &ConcurrentMediator, query: &str) {
    m.set_gate(Some(1));
    if let Err(e @ HermesError::Shed { .. }) = m.query(query) {
        panic!("a gate permit is still out: {e}");
    }
    m.set_gate(None);
}

/// A stand-in source for the example programs: every declared function
/// answers two records that carry every field the example rules read.
struct Canned {
    name: String,
    sigs: Vec<FunctionSig>,
}

impl Domain for Canned {
    fn name(&self) -> &str {
        &self.name
    }

    fn functions(&self) -> Vec<FunctionSig> {
        self.sigs.clone()
    }

    fn call(&self, function: &str, _args: &[Value]) -> hermes::Result<CallOutcome> {
        const FIELDS: [&str; 7] = ["name", "loc", "part", "depot", "qty", "a", "b"];
        let answers = (0..2).map(|i| {
            let value = Value::str(format!("{function}{i}"));
            Value::Record(Record::from_fields(FIELDS.map(|f| (f, value.clone()))))
        });
        Ok(CallOutcome::free(answers.collect()))
    }
}

/// A network of canned sources for a program, one per declared `%!
/// domain` line.
pub fn canned_network(src: &str) -> Network {
    let mut net = Network::new(5);
    for domain in parse_program(src).unwrap().declarations.domains {
        let sigs = domain.functions.iter();
        let canned = Canned {
            name: domain.name,
            sigs: sigs
                .map(|(function, arity)| FunctionSig::new(function.as_str(), *arity, "canned"))
                .collect(),
        };
        net.place(Arc::new(OffReactor::new(canned)), profiles::maryland());
    }
    net
}

/// A mediator for an example program over its canned sources.
pub fn example_world(src: &str) -> Mediator {
    Mediator::from_source(src, canned_network(src)).unwrap()
}
