//! Composite host applications: any number of engines behind one
//! [`rftp_fabric::Application`].
//!
//! §IV.C: "The application probably issues multiple data transfer tasks
//! simultaneously. Each task is associated with a global session
//! identifier." Concurrent tasks need concurrent protocol endpoints;
//! this module routes a host's completions and wakeups to whichever
//! engine owns the queue pair / token namespace, letting one host run N
//! parallel sources, N parallel sinks, or any mix (a full-duplex host,
//! [`crate::harness::run_duplex`], is one source plus one sink).

use crate::engine::{SinkEngine, SourceEngine};
use rftp_fabric::{Api, Application, Cqe, QpId};
use std::collections::HashMap;

/// An engine that can be composed behind a router. Endpoints are few
/// (one or two per simulated host) and long-lived, so the size gap
/// between the variants is not worth an indirection.
#[allow(clippy::large_enum_variant)]
pub enum Endpoint {
    Source(SourceEngine),
    Sink(SinkEngine),
}

impl Endpoint {
    fn owns_qp(&self, qp: QpId) -> bool {
        match self {
            Endpoint::Source(e) => e.owns_qp(qp),
            Endpoint::Sink(e) => e.owns_qp(qp),
        }
    }

    fn owns_token(&self, token: u64) -> bool {
        match self {
            Endpoint::Source(e) => e.owns_token(token),
            Endpoint::Sink(e) => e.owns_token(token),
        }
    }

    pub fn as_source(&self) -> Option<&SourceEngine> {
        match self {
            Endpoint::Source(e) => Some(e),
            Endpoint::Sink(_) => None,
        }
    }
}

/// N engines on one host. Engines of the same role must carry distinct
/// token tags (`with_token_tag`) so wakeups route unambiguously; a source
/// and a sink may share a tag, since their wakeup kinds are disjoint.
pub struct MultiEngine {
    pub endpoints: Vec<Endpoint>,
    /// QP → endpoint index, learned lazily as queue pairs appear (data
    /// QPs are created mid-negotiation, so the map cannot be built up
    /// front). Routing a completion is one hash lookup instead of an
    /// O(endpoints · qps-per-endpoint) ownership scan per CQE; a hit is
    /// still validated against the owner so a QP that was torn down and
    /// reborn elsewhere (fault recovery) re-routes instead of misfiring.
    route: HashMap<QpId, usize>,
}

impl MultiEngine {
    pub fn new(endpoints: Vec<Endpoint>) -> MultiEngine {
        MultiEngine {
            endpoints,
            route: HashMap::new(),
        }
    }

    /// Resolve which endpoint owns `qp`, consulting the cached route
    /// first and rescanning (then re-caching) on miss or stale hit.
    fn route_qp(&mut self, qp: QpId) -> Option<usize> {
        if let Some(&i) = self.route.get(&qp) {
            if self.endpoints[i].owns_qp(qp) {
                return Some(i);
            }
        }
        let i = self.endpoints.iter().position(|e| e.owns_qp(qp))?;
        self.route.insert(qp, i);
        Some(i)
    }

    /// All sources done and all sinks drained?
    pub fn is_finished(&self) -> bool {
        self.endpoints.iter().all(|e| match e {
            Endpoint::Source(s) => s.is_finished(),
            Endpoint::Sink(k) => k.all_sessions_complete(),
        })
    }

    /// First failure across the composed engines, if any.
    pub fn failure(&self) -> Option<&str> {
        self.endpoints.iter().find_map(|e| match e {
            Endpoint::Source(s) => s.failure.as_deref(),
            Endpoint::Sink(k) => k.failure.as_deref(),
        })
    }
}

impl Application for MultiEngine {
    fn on_start(&mut self, api: &mut Api) {
        for e in &mut self.endpoints {
            match e {
                Endpoint::Source(s) => s.on_start(api),
                Endpoint::Sink(k) => k.on_start(api),
            }
        }
    }

    fn on_cqe(&mut self, cqe: &Cqe, api: &mut Api) {
        let Some(i) = self.route_qp(cqe.qp) else {
            panic!("multi: completion for unowned qp {:?}", cqe.qp);
        };
        match &mut self.endpoints[i] {
            Endpoint::Source(s) => s.on_cqe(cqe, api),
            Endpoint::Sink(k) => k.on_cqe(cqe, api),
        }
    }

    fn on_wakeup(&mut self, token: u64, api: &mut Api) {
        for e in &mut self.endpoints {
            if e.owns_token(token) {
                match e {
                    Endpoint::Source(s) => s.on_wakeup(token, api),
                    Endpoint::Sink(k) => k.on_wakeup(token, api),
                }
                return;
            }
        }
        panic!("multi: wakeup for unowned token {token:#x}");
    }
}
