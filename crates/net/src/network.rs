//! The network: domain placement and remote call execution.

use crate::fault::FaultPlan;
use crate::site::Site;
use hermes_common::sync::Mutex;
use hermes_common::{GroundCall, HermesError, Result, Rng64, SimDuration, SimInstant, Value};
use hermes_domains::{Domain, DomainRegistry};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// The result of executing a call across the (simulated) network.
///
/// The answer set is `Arc`-backed: cloning an outcome — the executor's
/// prefetch map, the single-flight registry fanning one result out to K
/// coalesced queries — bumps a reference count instead of copying rows.
#[derive(Clone, Debug)]
pub struct RemoteOutcome {
    /// The answers (shared; clone is a reference bump).
    pub answers: Arc<[Value]>,
    /// Simulated time until the first answer arrived at the mediator.
    pub t_first: SimDuration,
    /// Simulated time until the full answer set arrived.
    pub t_all: SimDuration,
    /// Bytes received (answers on the wire).
    pub bytes: usize,
    /// The site that served the call.
    pub site: Arc<str>,
    /// True when an injected fault cut the answer set short: the answers
    /// present are genuine, but the set is incomplete and must not be
    /// cached as complete.
    pub truncated: bool,
}

impl RemoteOutcome {
    /// Number of answers.
    pub fn cardinality(&self) -> usize {
        self.answers.len()
    }
}

/// Domains placed at sites, plus the shared deterministic jitter stream.
///
/// `execute` is the single entry point the mediator uses to reach the
/// outside world. Figure 5's "sites in USA" / "sites in Italy" variants are
/// two `Network`s placing the same domain behind different [`Site`]s.
pub struct Network {
    registry: DomainRegistry,
    placement: BTreeMap<Arc<str>, Arc<Site>>,
    rng: Mutex<Rng64>,
    faults: Option<FaultPlan>,
    /// Peak concurrent in-flight calls observed per site. The parallel
    /// scheduler reports each dispatch schedule here; tests and benches
    /// query it to verify that overlap actually happened.
    inflight_peak: Mutex<BTreeMap<Arc<str>, usize>>,
    /// Live wall-clock in-flight counters per site. Unlike
    /// `inflight_peak` (a *schedule's* virtual-time claim, one query at a
    /// time), these count calls actually inside [`Network::execute_batched`]
    /// right now, so concurrent queries from many client threads are
    /// accounted correctly.
    live_in_flight: Mutex<BTreeMap<Arc<str>, Arc<SiteLoad>>>,
    /// Total calls that reached a source (the denominator for the
    /// single-flight "exactly one round trip" check).
    source_calls: AtomicU64,
}

/// Live in-flight accounting for one site (atomics — updated from many
/// client threads without taking the map lock per call boundary).
#[derive(Debug, Default)]
struct SiteLoad {
    current: AtomicUsize,
    peak: AtomicUsize,
}

/// RAII guard: one call in flight at a site until dropped (any exit path
/// of `execute_batched`, including faults and outages mid-attempt).
struct LoadGuard(Arc<SiteLoad>);

impl Drop for LoadGuard {
    fn drop(&mut self) {
        self.0.current.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Network {
    /// An empty network with a seeded jitter stream.
    pub fn new(seed: u64) -> Self {
        Network {
            registry: DomainRegistry::new(),
            placement: BTreeMap::new(),
            rng: Mutex::new(Rng64::new(seed)),
            faults: None,
            inflight_peak: Mutex::new(BTreeMap::new()),
            live_in_flight: Mutex::new(BTreeMap::new()),
            source_calls: AtomicU64::new(0),
        }
    }

    /// Marks one call entering `site`, returning the guard that marks it
    /// leaving. Updates the site's live peak.
    fn enter_site(&self, site: &Arc<str>) -> LoadGuard {
        let load = {
            let mut map = self.live_in_flight.lock();
            map.entry(site.clone()).or_default().clone()
        };
        let concurrent = load.current.fetch_add(1, Ordering::AcqRel) + 1;
        load.peak.fetch_max(concurrent, Ordering::AcqRel);
        LoadGuard(load)
    }

    /// Total calls that reached a source over this network's lifetime.
    pub fn source_calls(&self) -> u64 {
        self.source_calls.load(Ordering::Relaxed)
    }

    /// Records that `concurrent` calls to `site` were in flight at the same
    /// simulated moment (the per-site high-water mark is kept).
    pub fn record_in_flight(&self, site: &str, concurrent: usize) {
        let mut peaks = self.inflight_peak.lock();
        let entry = peaks.entry(Arc::from(site)).or_insert(0);
        *entry = (*entry).max(concurrent);
    }

    /// The highest number of concurrent in-flight calls ever observed for
    /// `site` (0 when the site was never dispatched to in parallel): the
    /// max of scheduler-reported virtual-time peaks and the live
    /// wall-clock peak from concurrent client threads.
    pub fn peak_in_flight(&self, site: &str) -> usize {
        let reported = self.inflight_peak.lock().get(site).copied().unwrap_or(0);
        let live = self
            .live_in_flight
            .lock()
            .get(site)
            .map(|l| l.peak.load(Ordering::Acquire))
            .unwrap_or(0);
        reported.max(live)
    }

    /// Installs a fault-injection plan (chaos harness). The plan draws from
    /// its own seeded stream, so the network's organic jitter for calls the
    /// plan does not fault is unchanged.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Places a domain at a site.
    pub fn place(&mut self, domain: Arc<dyn Domain>, site: Site) {
        let name: Arc<str> = Arc::from(domain.name());
        self.registry.register(domain);
        self.placement.insert(name, Arc::new(site));
    }

    /// Places a domain on the mediator's own machine (zero network cost).
    pub fn place_local(&mut self, domain: Arc<dyn Domain>) {
        self.place(domain, Site::local());
    }

    /// The registry of placed domains.
    pub fn registry(&self) -> &DomainRegistry {
        &self.registry
    }

    /// The site hosting `domain`.
    pub fn site_of(&self, domain: &str) -> Result<&Arc<Site>> {
        self.placement
            .get(domain)
            .ok_or_else(|| HermesError::UnknownDomain(domain.to_string()))
    }

    /// Executes a ground call at virtual time `now`.
    ///
    /// Fails with [`HermesError::Unavailable`] when the hosting site is in
    /// a scheduled outage or the link's failure rate fires — the situation
    /// in which only the answer cache can serve the query (§1, §4).
    pub fn execute(&self, call: &GroundCall, now: SimInstant) -> Result<RemoteOutcome> {
        self.execute_batched(call, now, false)
    }

    /// Like [`Network::execute`], but `piggyback` marks the call as a
    /// non-first member of a `(site, function)` batch: its request rides in
    /// the batch leader's packet, so the connect + RTT request overhead is
    /// not paid again. Source compute and answer transfer are still the
    /// call's own.
    pub fn execute_batched(
        &self,
        call: &GroundCall,
        now: SimInstant,
        piggyback: bool,
    ) -> Result<RemoteOutcome> {
        let site = self.site_of(&call.domain)?.clone();
        if site.is_down(now) {
            return Err(HermesError::Unavailable {
                site: site.name.to_string(),
                reason: "scheduled outage".into(),
            });
        }
        let _in_flight = self.enter_site(&site.name);
        // Injected faults, drawn from the plan's own stream *before* the
        // network's jitter stream so untouched calls keep their timings.
        let mut latency_factor = 1.0;
        let mut bandwidth_divisor = 1.0;
        let mut truncation: Option<f64> = None;
        if let Some(plan) = &self.faults {
            if plan.flapping_down(&site.name, now) {
                return Err(HermesError::Unavailable {
                    site: site.name.to_string(),
                    reason: "site flapping (injected)".into(),
                });
            }
            if plan.draw_drop(&site.name) {
                return Err(HermesError::Unavailable {
                    site: site.name.to_string(),
                    reason: "transient drop (injected)".into(),
                });
            }
            latency_factor = plan.latency_factor(&site.name, now);
            bandwidth_divisor = plan.bandwidth_divisor(&site.name, now);
            truncation = plan.draw_truncation(&site.name);
        }
        let jitter = {
            let mut rng = self.rng.lock();
            if site.link.failure_rate > 0.0 && rng.chance(site.link.failure_rate) {
                return Err(HermesError::Unavailable {
                    site: site.name.to_string(),
                    reason: "connection failed".into(),
                });
            }
            if site.link.jitter_frac > 0.0 {
                // Lognormal-ish positive factor around 1.
                (1.0 + site.link.jitter_frac * rng.gaussian()).clamp(0.25, 4.0)
            } else {
                1.0
            }
        };

        let mut outcome = self.registry.execute(call)?;
        self.source_calls.fetch_add(1, Ordering::Relaxed);
        let truncated = match truncation {
            Some(keep_frac) if !outcome.answers.is_empty() => {
                // Keep a prefix (at least one answer): the source cut the
                // stream short mid-transfer.
                let keep = ((outcome.answers.len() as f64 * keep_frac).ceil() as usize)
                    .clamp(1, outcome.answers.len());
                let cut = keep < outcome.answers.len();
                outcome.answers.truncate(keep);
                cut
            }
            _ => false,
        };
        let bytes = outcome.answer_bytes();
        let load = site.link.load_factor(now);
        let lat = &site.link;
        let slow = load * jitter * latency_factor;

        let round_trip = if piggyback {
            SimDuration::ZERO
        } else {
            SimDuration::from_millis_f64((lat.connect_ms + lat.rtt_ms) * slow)
        };
        let request_overhead = round_trip + lat.transfer(call.request_bytes()) * bandwidth_divisor;

        // First answer: overhead + source's time-to-first + first tuple on
        // the wire (approximated by the mean answer size).
        let first_bytes = if outcome.answers.is_empty() {
            0
        } else {
            bytes / outcome.answers.len()
        };
        let t_first = request_overhead
            + outcome.compute.t_first
            + lat.transfer(first_bytes) * (load * jitter * bandwidth_divisor);
        let t_all = request_overhead
            + outcome.compute.t_all
            + lat.transfer(bytes) * (load * jitter * bandwidth_divisor);

        Ok(RemoteOutcome {
            answers: outcome.answers.into(),
            t_first,
            t_all: t_all.max(t_first),
            bytes,
            site: site.name.clone(),
            truncated,
        })
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let placement: Vec<String> = self
            .placement
            .iter()
            .map(|(d, s)| format!("{d}@{}", s.name))
            .collect();
        f.debug_struct("Network")
            .field("placement", &placement)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use crate::site::LinkModel;
    use hermes_domains::video::gen::rope_store;

    fn call() -> GroundCall {
        GroundCall::new(
            "video",
            "frames_to_objects",
            vec![Value::str("rope"), Value::Int(4), Value::Int(47)],
        )
    }

    #[test]
    fn local_placement_charges_only_compute() {
        let mut net = Network::new(1);
        net.place_local(Arc::new(rope_store()));
        let out = net.execute(&call(), SimInstant::EPOCH).unwrap();
        assert!(!out.answers.is_empty());
        // The video domain's own compute cost is a few ms; no network cost.
        assert!(out.t_all.as_millis_f64() < 50.0, "t_all {}", out.t_all);
    }

    #[test]
    fn remote_placement_adds_latency() {
        let mut local = Network::new(1);
        local.place_local(Arc::new(rope_store()));
        let mut remote = Network::new(1);
        remote.place(Arc::new(rope_store()), profiles::italy());
        let t_local = local.execute(&call(), SimInstant::EPOCH).unwrap().t_all;
        let t_remote = remote.execute(&call(), SimInstant::EPOCH).unwrap().t_all;
        assert!(
            t_remote > t_local * 5,
            "remote {t_remote} vs local {t_local}"
        );
    }

    #[test]
    fn same_seed_same_timings() {
        let mk = || {
            let mut n = Network::new(9);
            n.place(Arc::new(rope_store()), profiles::cornell());
            n
        };
        let a = mk().execute(&call(), SimInstant::EPOCH).unwrap();
        let b = mk().execute(&call(), SimInstant::EPOCH).unwrap();
        assert_eq!(a.t_all, b.t_all);
        assert_eq!(a.answers, b.answers);
    }

    #[test]
    fn outage_returns_unavailable() {
        let site = profiles::cornell().with_outage(
            SimInstant::EPOCH,
            SimInstant::EPOCH + SimDuration::from_secs(60),
        );
        let mut net = Network::new(1);
        net.place(Arc::new(rope_store()), site);
        let err = net.execute(&call(), SimInstant::EPOCH).unwrap_err();
        assert!(matches!(err, HermesError::Unavailable { .. }));
        // After the outage the call succeeds.
        let later = SimInstant::EPOCH + SimDuration::from_secs(61);
        assert!(net.execute(&call(), later).is_ok());
    }

    #[test]
    fn failure_rate_one_always_fails() {
        let site = Site::new(
            "flaky",
            "USA",
            LinkModel {
                failure_rate: 1.0,
                ..LinkModel::default()
            },
        );
        let mut net = Network::new(1);
        net.place(Arc::new(rope_store()), site);
        assert!(matches!(
            net.execute(&call(), SimInstant::EPOCH),
            Err(HermesError::Unavailable { .. })
        ));
    }

    #[test]
    fn load_curve_slows_peak_hours() {
        let site = Site::new(
            "loaded",
            "USA",
            LinkModel {
                connect_ms: 100.0,
                rtt_ms: 100.0,
                load_amplitude: 1.0,
                load_period_ms: 1_000.0,
                ..LinkModel::default()
            },
        );
        let mut net = Network::new(1);
        net.place(Arc::new(rope_store()), site);
        // Scan a period for min and max service times.
        let mut lo = SimDuration::from_secs(1_000_000);
        let mut hi = SimDuration::ZERO;
        for i in 0..10 {
            let t = SimInstant::EPOCH + SimDuration::from_millis(i * 100);
            let d = net.execute(&call(), t).unwrap().t_all;
            lo = if d < lo { d } else { lo };
            hi = hi.max(d);
        }
        assert!(hi.as_millis_f64() > lo.as_millis_f64() * 1.3);
    }

    #[test]
    fn unknown_domain_is_error() {
        let net = Network::new(1);
        assert!(matches!(
            net.execute(&call(), SimInstant::EPOCH),
            Err(HermesError::UnknownDomain(_))
        ));
    }

    #[test]
    fn larger_results_transfer_longer_on_thin_pipes() {
        // Same site, two calls with very different result sizes: the wide
        // frame sweep ships more bytes and pays proportionally.
        let mut net = Network::new(4);
        let mut site = profiles::italy();
        site.link.jitter_frac = 0.0; // isolate the transfer term
        net.place(Arc::new(rope_store()), site);
        let small = net
            .execute(
                &GroundCall::new("video", "video_size", vec![Value::str("rope")]),
                SimInstant::EPOCH,
            )
            .unwrap();
        let big = net
            .execute(
                &GroundCall::new(
                    "video",
                    "frames_to_objects",
                    vec![Value::str("rope"), Value::Int(0), Value::Int(900)],
                ),
                SimInstant::EPOCH,
            )
            .unwrap();
        assert!(big.bytes > small.bytes * 5);
        assert!(big.t_all > small.t_all);
        assert_eq!(big.cardinality(), big.answers.len());
    }

    #[test]
    fn site_of_reports_placement() {
        let mut net = Network::new(4);
        net.place(Arc::new(rope_store()), profiles::cornell());
        assert_eq!(net.site_of("video").unwrap().name.as_ref(), "cornell");
        assert!(net.site_of("nope").is_err());
        assert!(format!("{net:?}").contains("video@cornell"));
    }

    #[test]
    fn outage_endpoints_are_inclusive() {
        // Calls exactly at either end of a closed outage interval fail;
        // one microsecond outside either end succeeds.
        let from = SimInstant::EPOCH + SimDuration::from_millis(100);
        let to = SimInstant::EPOCH + SimDuration::from_millis(200);
        let mut net = Network::new(1);
        net.place(
            Arc::new(rope_store()),
            profiles::cornell().with_outage(from, to),
        );
        let us = SimDuration::from_micros(1);
        assert!(net.execute(&call(), from).is_err());
        assert!(net.execute(&call(), to).is_err());
        assert!(net
            .execute(
                &call(),
                SimInstant::EPOCH + (from.duration_since(SimInstant::EPOCH) - us)
            )
            .is_ok());
        assert!(net.execute(&call(), to + us).is_ok());
    }

    #[test]
    fn injected_drop_fails_with_unavailable() {
        let mut net = Network::new(1);
        net.place(Arc::new(rope_store()), profiles::cornell());
        net.set_fault_plan(crate::FaultPlan::new(5).drop_rate("cornell", 1.0));
        match net.execute(&call(), SimInstant::EPOCH) {
            Err(HermesError::Unavailable { site, reason }) => {
                assert_eq!(site, "cornell");
                assert!(reason.contains("injected"), "{reason}");
            }
            other => panic!("expected injected drop, got {other:?}"),
        }
    }

    #[test]
    fn flapping_site_alternates_up_and_down() {
        let mut net = Network::new(1);
        net.place(Arc::new(rope_store()), profiles::cornell());
        net.set_fault_plan(crate::FaultPlan::new(5).flapping(
            "cornell",
            SimDuration::from_millis(1_000),
            SimDuration::from_millis(400),
            SimDuration::ZERO,
        ));
        let at = |ms| SimInstant::EPOCH + SimDuration::from_millis(ms);
        assert!(net.execute(&call(), at(0)).is_err());
        assert!(net.execute(&call(), at(399)).is_err());
        assert!(net.execute(&call(), at(400)).is_ok());
        assert!(net.execute(&call(), at(1_050)).is_err());
        assert!(net.execute(&call(), at(1_500)).is_ok());
    }

    #[test]
    fn latency_spike_and_degraded_bandwidth_slow_the_window() {
        let mk = |plan: Option<crate::FaultPlan>| {
            let mut site = profiles::italy();
            site.link.jitter_frac = 0.0;
            let mut net = Network::new(2);
            net.place(Arc::new(rope_store()), site);
            if let Some(p) = plan {
                net.set_fault_plan(p);
            }
            net
        };
        let inside = SimInstant::EPOCH + SimDuration::from_millis(500);
        let outside = SimInstant::EPOCH + SimDuration::from_secs(100);
        let healthy = mk(None);
        let spiked = mk(Some(
            crate::FaultPlan::new(9)
                .latency_spike(
                    "milan",
                    SimInstant::EPOCH,
                    SimInstant::EPOCH + SimDuration::from_secs(1),
                    6.0,
                )
                .degrade_bandwidth(
                    "milan",
                    SimInstant::EPOCH,
                    SimInstant::EPOCH + SimDuration::from_secs(1),
                    10.0,
                ),
        ));
        let t_healthy = healthy.execute(&call(), inside).unwrap().t_all;
        let t_spiked = spiked.execute(&call(), inside).unwrap().t_all;
        assert!(
            t_spiked > t_healthy * 2,
            "spiked {t_spiked} vs healthy {t_healthy}"
        );
        // Outside the window the plan is inert.
        let h = healthy.execute(&call(), outside).unwrap().t_all;
        let s = spiked.execute(&call(), outside).unwrap().t_all;
        assert_eq!(h, s);
    }

    #[test]
    fn truncation_shortens_answers_and_flags_outcome() {
        let mut net = Network::new(1);
        net.place(Arc::new(rope_store()), profiles::cornell());
        let full = net.execute(&call(), SimInstant::EPOCH).unwrap();
        assert!(!full.truncated);
        net.set_fault_plan(crate::FaultPlan::new(5).truncation("cornell", 1.0, 0.5));
        let cut = net.execute(&call(), SimInstant::EPOCH).unwrap();
        assert!(cut.truncated);
        assert!(!cut.answers.is_empty());
        assert!(cut.answers.len() < full.answers.len());
        assert_eq!(cut.answers[..], full.answers[..cut.answers.len()]);
        assert!(cut.bytes < full.bytes);
    }

    #[test]
    fn fault_plan_replays_bit_identically() {
        let mk = || {
            let mut net = Network::new(11);
            net.place(Arc::new(rope_store()), profiles::cornell());
            net.set_fault_plan(
                crate::FaultPlan::new(23)
                    .drop_rate("cornell", 0.4)
                    .truncation("cornell", 0.4, 0.3),
            );
            net
        };
        let a = mk();
        let b = mk();
        for i in 0..40 {
            let t = SimInstant::EPOCH + SimDuration::from_millis(i * 97);
            match (a.execute(&call(), t), b.execute(&call(), t)) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x.answers, y.answers);
                    assert_eq!(x.t_all, y.t_all);
                    assert_eq!(x.truncated, y.truncated);
                }
                (Err(x), Err(y)) => assert_eq!(x, y),
                (x, y) => panic!("runs diverged: {x:?} vs {y:?}"),
            }
        }
    }

    #[test]
    fn t_first_never_exceeds_t_all() {
        let mut net = Network::new(3);
        net.place(Arc::new(rope_store()), profiles::italy());
        for i in 0..20 {
            let t = SimInstant::EPOCH + SimDuration::from_millis(i * 137);
            let out = net.execute(&call(), t).unwrap();
            assert!(out.t_first <= out.t_all);
        }
    }
}
