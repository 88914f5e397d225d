//! Shared scenario builders for the experiments.

use hermes_cim::CimPolicy;
use hermes_common::Value;
use hermes_core::{Mediator, Plan, PlanStep, Route};
use hermes_domains::relational::{Column, ColumnType, RelationalDomain, Schema, Table};
use hermes_domains::video::gen::{rope_store, ROPE_CAST};
use hermes_lang::{parse_query, BodyAtom, Query};
use hermes_net::{profiles, Network, Site};
use std::sync::Arc;

/// Where the AVIS store lives in a scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VideoSite {
    /// A well-connected US site (Cornell profile).
    Usa,
    /// The transatlantic site (Milan profile).
    Italy,
}

impl VideoSite {
    /// The site profile.
    pub fn site(self) -> Site {
        match self {
            VideoSite::Usa => profiles::cornell(),
            VideoSite::Italy => profiles::italy(),
        }
    }

    /// The label the experiment tables print.
    pub fn label(self) -> &'static str {
        match self {
            VideoSite::Usa => "sites in USA",
            VideoSite::Italy => "sites in Italy",
        }
    }
}

/// The relational `cast` table for "The Rope".
pub fn cast_table() -> Table {
    let mut cast = Table::new(
        "cast",
        Schema::new(vec![
            Column::new("name", ColumnType::Str),
            Column::new("role", ColumnType::Str),
        ])
        .unwrap(),
    );
    for (role, actor) in ROPE_CAST {
        cast.insert(vec![Value::str(*actor), Value::str(*role)])
            .unwrap();
    }
    cast.create_hash_index("role").unwrap();
    cast
}

/// The standard Figure 5 / Figure 6 world: AVIS (`video`, plus a replica
/// `mirror` on the local LAN), and the relational `cast` database
/// (`relation`, Maryland). Returns a mediator whose program exposes the
/// building-block predicates the experiments query.
pub fn rope_world(seed: u64, video_site: VideoSite, policy: CimPolicy) -> Mediator {
    let relation = RelationalDomain::new("relation");
    relation.add_table(cast_table());

    // The replica: the same content under a different domain name, hosted
    // on the LAN — the sound basis for the Figure 5 equality-invariant
    // configuration (replicated sources).
    let mirror = {
        let store = rope_store();
        MirrorDomain::wrap("mirror", Arc::new(store))
    };

    let mut net = Network::new(seed);
    net.place(Arc::new(rope_store()), video_site.site());
    net.place(Arc::new(mirror), profiles::maryland());
    net.place(relation, profiles::maryland());

    let mediator = Mediator::from_source(
        "
        objs(F, L, O) :- in(O, video:frames_to_objects('rope', F, L)).
        vobjs(V, F, L, O) :- in(O, video:frames_to_objects(V, F, L)).
        mobjs(F, L, O) :- in(O, mirror:frames_to_objects('rope', F, L)).
        actors(F, L, O, A) :-
            in(O, video:frames_to_objects('rope', F, L)) &
            in(T, relation:select_eq('cast', 'role', O)) &
            =(T.name, A).
        ",
        net,
    )
    .expect("rope world program compiles");
    mediator.caches().policy().routing(policy).apply().unwrap();
    mediator
}

/// A domain re-exporting another domain's functions under a new name (a
/// replica at a different site).
pub struct MirrorDomain {
    name: Arc<str>,
    inner: Arc<dyn hermes_domains::Domain>,
}

impl MirrorDomain {
    /// Wraps `inner` under `name`.
    pub fn wrap(name: impl Into<Arc<str>>, inner: Arc<dyn hermes_domains::Domain>) -> Self {
        MirrorDomain {
            name: name.into(),
            inner,
        }
    }
}

impl hermes_domains::Domain for MirrorDomain {
    fn name(&self) -> &str {
        &self.name
    }
    fn functions(&self) -> Vec<hermes_domains::FunctionSig> {
        self.inner.functions()
    }
    fn call(
        &self,
        function: &str,
        args: &[Value],
    ) -> hermes_common::Result<hermes_domains::CallOutcome> {
        self.inner.call(function, args)
    }
}

/// The monotone frame-range invariant (narrow ⊆ wide), the basis of the
/// partial-invariant configurations.
pub fn frame_range_invariant() -> hermes_lang::Invariant {
    hermes_lang::parse_invariant(
        "F2 <= F1 & L1 <= L2 =>
         video:frames_to_objects(V, F2, L2) >= video:frames_to_objects(V, F1, L1).",
    )
    .unwrap()
}

/// The replica equality invariant: `video` and `mirror` hold the same data.
pub fn mirror_invariant() -> hermes_lang::Invariant {
    hermes_lang::parse_invariant(
        "=> video:frames_to_objects(V, F, L) = mirror:frames_to_objects(V, F, L).",
    )
    .unwrap()
}

/// Builds a plan that executes a query's goals **in written order** with
/// direct routing — how Figure 6 measures the appendix queries and their
/// primed reorderings without letting the optimizer interfere.
pub fn plan_in_written_order(query_src: &str) -> Plan {
    let query: Query = parse_query(query_src).expect("query parses");
    let mut steps = Vec::new();
    for goal in &query.goals {
        match goal {
            BodyAtom::In { target, call } => steps.push(PlanStep::Call {
                target: target.clone(),
                call: call.clone(),
                route: Route::Direct,
            }),
            BodyAtom::Cond(c) => steps.push(PlanStep::Cond(c.clone())),
            BodyAtom::Pred(p) => {
                panic!("written-order plans must not contain IDB predicates, got {p}")
            }
        }
    }
    Plan {
        steps,
        answer_vars: query.answer_variables().into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_common::SimDuration;

    #[test]
    fn rope_world_answers_queries_at_both_sites() {
        for site in [VideoSite::Usa, VideoSite::Italy] {
            let m = rope_world(1, site, CimPolicy::never());
            let r = m.query("?- objs(4, 47, O).").unwrap();
            assert!(r.rows.len() >= 17, "{site:?}: {} rows", r.rows.len());
        }
    }

    #[test]
    fn italy_slower_than_usa() {
        let t = |site| {
            let m = rope_world(2, site, CimPolicy::never());
            m.query("?- objs(4, 47, O).").unwrap().t_all
        };
        assert!(t(VideoSite::Italy) > t(VideoSite::Usa) * 3);
    }

    #[test]
    fn mirror_serves_same_answers_locally() {
        let m = rope_world(3, VideoSite::Italy, CimPolicy::never());
        let remote = m.query("?- objs(4, 47, O).").unwrap();
        let local = m.query("?- mobjs(4, 47, O).").unwrap();
        assert_eq!(remote.rows, local.rows);
        assert!(local.t_all < remote.t_all);
    }

    #[test]
    fn written_order_plan_preserves_goal_order() {
        let plan = plan_in_written_order(
            "?- in(S, video:video_size('rope')) &
                in(O, video:frames_to_objects('rope', 4, 47)).",
        );
        assert_eq!(plan.steps.len(), 2);
        assert!(plan.steps[0].to_string().contains("video_size"));
        assert!(plan.steps[1].to_string().contains("frames_to_objects"));
        assert_eq!(plan.answer_vars.len(), 2);
    }

    #[test]
    fn cast_join_produces_actor_names() {
        let m = rope_world(4, VideoSite::Usa, CimPolicy::never());
        let r = m.query("?- actors(0, 935, O, A).").unwrap();
        assert_eq!(r.rows.len(), ROPE_CAST.len());
        assert!(r.t_all > SimDuration::ZERO);
    }
}
