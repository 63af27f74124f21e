//! # rftp-faults — deterministic fault plans for the RDMA fabric
//!
//! A [`FaultPlan`] is a seeded, scheduled list of fault events — link
//! flaps, per-link probabilistic drop windows, QP-to-error transitions,
//! swallowed completions, NIC stalls — compiled onto the netsim kernel
//! as timer events ([`rftp_fabric::Ev::Fault`]). The fabric injects the
//! faults; the protocol layer above is expected to *survive* them (per-
//! block retransmission and session resume in `rftp-core`).
//!
//! Everything is deterministic: the same plan against the same
//! experiment replays the same outage, fragment for fragment. An empty
//! plan is byte-identical to not having the fault layer at all — no RNG
//! draws, no extra events, no behavior change.
//!
//! ```
//! use rftp_faults::FaultPlan;
//! use rftp_netsim::time::{SimDur, SimTime};
//!
//! // Link 0 flaps down for 200 ms, one second into the run, and a 2%
//! // drop window follows.
//! let plan = FaultPlan::new()
//!     .link_flap(0, SimTime::ZERO + SimDur::from_secs(1), SimDur::from_millis(200))
//!     .drop_window(
//!         0,
//!         SimTime::ZERO + SimDur::from_secs(2),
//!         SimTime::ZERO + SimDur::from_secs(3),
//!         0.02,
//!     );
//! assert_eq!(plan.events.len(), 4);
//! ```

pub mod wan;

pub use wan::{WanDice, WanProfile};

use rftp_fabric::{Ev, FabricWorld, FaultAction, HostId};
use rftp_netsim::kernel::Sim;
use rftp_netsim::time::{SimDur, SimTime};

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    pub at: SimTime,
    pub action: FaultAction,
}

/// A deterministic schedule of fault events plus the seed for the
/// fabric's fault RNG (which only probabilistic drop windows consume).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fabric's dedicated fault RNG.
    pub seed: u64,
    pub events: Vec<FaultEvent>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::new()
    }
}

impl FaultPlan {
    pub fn new() -> FaultPlan {
        FaultPlan {
            seed: 0xFA_017,
            events: Vec::new(),
        }
    }

    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// No events scheduled (applying this plan changes nothing).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Schedule a raw action.
    pub fn at(mut self, at: SimTime, action: FaultAction) -> FaultPlan {
        self.events.push(FaultEvent { at, action });
        self
    }

    /// Link `link` goes down at `down_at` and comes back after `outage`.
    pub fn link_flap(self, link: u32, down_at: SimTime, outage: SimDur) -> FaultPlan {
        self.at(down_at, FaultAction::LinkDown { link })
            .at(down_at + outage, FaultAction::LinkUp { link })
    }

    /// Between `from` and `until`, each fragment crossing `link` is lost
    /// independently with probability `p`.
    pub fn drop_window(self, link: u32, from: SimTime, until: SimTime, p: f64) -> FaultPlan {
        assert!(until > from, "empty drop window");
        assert!((0.0..=1.0).contains(&p), "drop probability out of range");
        self.at(from, FaultAction::DropStart { link, p })
            .at(until, FaultAction::DropStop { link })
    }

    /// Force QP `qp` (by raw fabric index) into the error state at `at`.
    pub fn qp_kill(self, qp: u32, at: SimTime) -> FaultPlan {
        self.at(at, FaultAction::QpKill { qp })
    }

    /// Freeze `host`'s NIC transmit engine for `dur` starting at `at`.
    pub fn nic_stall(self, host: HostId, at: SimTime, dur: SimDur) -> FaultPlan {
        self.at(at, FaultAction::NicStall { host, dur })
    }

    /// Between `from` and `until`, successful RDMA WRITE completions on
    /// `host` are swallowed (the lost-completion fault).
    pub fn cqe_drop_window(self, host: HostId, from: SimTime, until: SimTime) -> FaultPlan {
        assert!(until > from, "empty CQE-drop window");
        self.at(from, FaultAction::CqeDropStart { host })
            .at(until, FaultAction::CqeDropStop { host })
    }

    /// Compile the plan onto `sim`'s event queue. Call before (or during)
    /// the run; events already in the past fire immediately. An empty
    /// plan returns without touching the sim at all.
    pub fn apply(&self, sim: &mut Sim<FabricWorld>) {
        if self.events.is_empty() {
            return;
        }
        self.validate(sim);
        sim.world_mut().core.reseed_faults(self.seed);
        let now = sim.now();
        for ev in &self.events {
            let delay = if ev.at > now {
                ev.at.since(now)
            } else {
                SimDur::ZERO
            };
            sim.prime(delay, Ev::Fault(ev.action));
        }
    }

    /// Panic early (with a useful message) on out-of-range targets, so a
    /// mis-addressed plan fails at apply time rather than mid-run.
    fn validate(&self, sim: &Sim<FabricWorld>) {
        let core = &sim.world().core;
        let (links, qps, hosts) = (
            core.links().len() as u32,
            core.qps.len() as u32,
            core.hosts.len() as u32,
        );
        for ev in &self.events {
            match ev.action {
                FaultAction::LinkDown { link }
                | FaultAction::LinkUp { link }
                | FaultAction::DropStart { link, .. }
                | FaultAction::DropStop { link } => {
                    assert!(link < links, "fault plan targets missing link {link}");
                }
                FaultAction::QpKill { qp } => {
                    assert!(qp < qps, "fault plan targets missing QP {qp}");
                }
                FaultAction::NicStall { host, .. }
                | FaultAction::CqeDropStart { host }
                | FaultAction::CqeDropStop { host } => {
                    assert!(host.0 < hosts, "fault plan targets missing host {host:?}");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rftp_fabric::{
        build_sim, two_host_fabric, Api, Application, Backing, Cqe, MrId, MrSlice, QpId, QpOptions,
        WcStatus, WorkRequest, WrOp,
    };
    use rftp_netsim::testbed;
    use rftp_netsim::ThreadId;

    struct Sender {
        qp: QpId,
        mr: MrId,
        statuses: Vec<WcStatus>,
    }
    impl Application for Sender {
        fn on_start(&mut self, api: &mut Api) {
            api.post_send(
                self.qp,
                WorkRequest::signaled(
                    7,
                    WrOp::Send {
                        local: MrSlice::new(self.mr, 0, 4096),
                        imm: None,
                    },
                ),
            )
            .unwrap();
        }
        fn on_cqe(&mut self, cqe: &Cqe, _api: &mut Api) {
            self.statuses.push(cqe.status);
        }
    }
    struct Receiver {
        qp: QpId,
        mr: MrId,
        received: u32,
    }
    impl Application for Receiver {
        fn on_start(&mut self, api: &mut Api) {
            api.post_recv(
                self.qp,
                rftp_fabric::RecvWr {
                    wr_id: 0,
                    local: MrSlice::new(self.mr, 0, 4096),
                },
            )
            .unwrap();
        }
        fn on_cqe(&mut self, cqe: &Cqe, _api: &mut Api) {
            if cqe.ok() {
                self.received += 1;
            }
        }
    }

    fn wired() -> (Sim<FabricWorld>, rftp_fabric::HostId, rftp_fabric::HostId) {
        let tb = testbed::roce_lan();
        let (mut core, a, b) = two_host_fabric(&tb);
        let cq_a = core.hosts[a.index()].create_cq(ThreadId(0));
        let cq_b = core.hosts[b.index()].create_cq(ThreadId(0));
        let qa = core.create_qp(a, QpOptions::default(), cq_a, cq_a);
        let qb = core.create_qp(b, QpOptions::default(), cq_b, cq_b);
        core.connect(qa, qb).unwrap();
        let (mr_a, _) = core.hosts[a.index()].register_mr(Backing::zeroed(4096));
        let (mr_b, _) = core.hosts[b.index()].register_mr(Backing::zeroed(4096));
        let sim = build_sim(
            core,
            vec![
                Some(Box::new(Sender {
                    qp: qa,
                    mr: mr_a,
                    statuses: vec![],
                })),
                Some(Box::new(Receiver {
                    qp: qb,
                    mr: mr_b,
                    received: 0,
                })),
            ],
        );
        (sim, a, b)
    }

    #[test]
    fn downed_link_fails_the_send_with_retry_exceeded() {
        let (mut sim, a, b) = wired();
        FaultPlan::new()
            .at(SimTime::ZERO, FaultAction::LinkDown { link: 0 })
            .apply(&mut sim);
        sim.run(SimTime::ZERO + SimDur::from_secs(5));
        let s: &Sender = sim.world().app(a);
        assert_eq!(s.statuses, vec![WcStatus::RetryExceeded]);
        let r: &Receiver = sim.world().app(b);
        assert_eq!(r.received, 0, "nothing crosses a downed link");
        assert!(sim.world().core.fault_counters.frags_dropped >= 1);
    }

    // spec: [P6-fault-stats]
    #[test]
    fn empty_plan_changes_nothing() {
        let (mut clean, a, _) = wired();
        clean.run(SimTime::ZERO + SimDur::from_secs(5));
        let clean_end = clean.now();

        let (mut planned, a2, _) = wired();
        FaultPlan::seeded(12345).apply(&mut planned);
        planned.run(SimTime::ZERO + SimDur::from_secs(5));

        assert_eq!(clean_end, planned.now());
        let s1: &Sender = clean.world().app(a);
        let s2: &Sender = planned.world().app(a2);
        assert_eq!(s1.statuses, s2.statuses);
        assert_eq!(planned.world().core.fault_counters.frags_dropped, 0);
    }

    #[test]
    fn certain_drop_window_loses_the_message() {
        let (mut sim, a, _) = wired();
        FaultPlan::new()
            .drop_window(0, SimTime::ZERO, SimTime::ZERO + SimDur::from_secs(1), 1.0)
            .apply(&mut sim);
        sim.run(SimTime::ZERO + SimDur::from_secs(5));
        let s: &Sender = sim.world().app(a);
        assert_eq!(s.statuses, vec![WcStatus::RetryExceeded]);
    }

    #[test]
    fn qp_kill_surfaces_async_error_cqe() {
        let (mut sim, a, _) = wired();
        // Kill after the transfer completes so the only CQE after the
        // success is the synthetic async-event error.
        FaultPlan::new()
            .qp_kill(0, SimTime::ZERO + SimDur::from_secs(1))
            .apply(&mut sim);
        sim.run(SimTime::ZERO + SimDur::from_secs(5));
        let s: &Sender = sim.world().app(a);
        assert_eq!(s.statuses, vec![WcStatus::Success, WcStatus::RetryExceeded]);
        assert_eq!(sim.world().core.fault_counters.qp_kills, 1);
    }

    #[test]
    fn nic_stall_delays_but_delivers() {
        let (mut sim, a, b) = wired();
        let h = sim.world().core.hosts[a.index()].id;
        FaultPlan::new()
            .nic_stall(h, SimTime::ZERO, SimDur::from_millis(50))
            .apply(&mut sim);
        sim.run(SimTime::ZERO + SimDur::from_secs(5));
        let s: &Sender = sim.world().app(a);
        assert_eq!(s.statuses, vec![WcStatus::Success]);
        let r: &Receiver = sim.world().app(b);
        assert_eq!(r.received, 1);
    }

    #[test]
    #[should_panic(expected = "missing link")]
    fn out_of_range_target_rejected_at_apply() {
        let (mut sim, _, _) = wired();
        FaultPlan::new()
            .at(SimTime::ZERO, FaultAction::LinkDown { link: 99 })
            .apply(&mut sim);
    }
}
