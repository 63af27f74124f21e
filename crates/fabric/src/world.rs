//! The fabric world: event dispatch, the verbs-style API, and RC/UD
//! transport semantics.
//!
//! Applications implement [`Application`] and interact with the fabric
//! through [`Api`] exactly the way OFED applications use `libibverbs`:
//! register memory, create and connect queue pairs, post work requests,
//! and reap completions. All timing — NIC arbitration, wire serialization,
//! propagation, acknowledgements, RNR back-off, CPU costs of posts and
//! completions — is modelled by the event handlers here.

use crate::host::HostState;
use crate::ids::{CqId, DeviceId, HostId, MrId, QpId, Rkey, SrqId};
use crate::mr::{Backing, MemoryRegion, MrSlice};
use crate::nic::{next_fragment, Fragment, MsgKind, MsgState};
use crate::qp::{QpOptions, QpState, QpType};
use crate::util::Slab;
use crate::wr::{Cqe, CqeKind, PostError, RecvWr, WcStatus, WorkRequest, WrOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rftp_netsim::cpu::ThreadId;
use rftp_netsim::kernel::{Scheduler, Sim, World};
use rftp_netsim::link::{Dir, Link};
use rftp_netsim::time::{Bandwidth, SimDur, SimTime};
use std::any::Any;
use std::collections::HashMap;

/// Event alphabet of the fabric world.
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    /// Deliver `on_start` to the host's application.
    Start(HostId),
    /// The host NIC finished serializing a fragment; transmit the next.
    NicTx(HostId),
    /// Re-examine the NIC (after an RNR stall expires or work appears);
    /// a no-op if a transmit chain is already active.
    NicKick(HostId),
    /// A wire fragment arrives at its destination host.
    Deliver { dst: HostId, frag: Fragment },
    /// The polling thread reaps the next completion from `cq`.
    HandleCqe { host: HostId, cq: CqId },
    /// A timer or work item fires on `thread`.
    Wakeup {
        host: HostId,
        thread: ThreadId,
        token: u64,
    },
    /// A scheduled fault-plan action fires (see the `rftp-faults` crate,
    /// which compiles a `FaultPlan` onto the kernel as these events).
    Fault(FaultAction),
    /// Loss timer: a message had fragments dropped and its initiator's
    /// transport has now exhausted its retry budget. The `uid` guards
    /// against the slab key having been recycled in the meantime.
    MsgLost { msg: u32, uid: u64 },
}

/// One fault-plan action applied to the fabric at a scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Take a link down: every fragment that starts serializing while
    /// the link is down is lost (both directions).
    LinkDown { link: u32 },
    /// Bring a link back up.
    LinkUp { link: u32 },
    /// Start dropping each newly transmitted fragment with probability
    /// `p` (independent Bernoulli draws from the dedicated fault RNG).
    DropStart { link: u32, p: f64 },
    /// End a probabilistic drop window.
    DropStop { link: u32 },
    /// Force a QP into the error state, as a local async fatal event
    /// (`IBV_EVENT_QP_FATAL`) would. The owner sees an error CQE with
    /// `wr_id == u64::MAX` plus flushes for anything queued.
    QpKill { qp: u32 },
    /// Freeze a host NIC's transmit engine for `dur` (nothing dropped;
    /// in-flight receives still land, acks queue up behind the stall).
    NicStall { host: HostId, dur: SimDur },
    /// Start swallowing successful RDMA WRITE send completions on
    /// `host` — the "lost completion" fault the retransmit timer covers.
    CqeDropStart { host: HostId },
    /// Stop swallowing completions on `host`.
    CqeDropStop { host: HostId },
}

/// What the fault layer actually injected (for reports and tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultCounters {
    /// Fragments lost to downed links or drop windows.
    pub frags_dropped: u64,
    /// Successful completions swallowed by `CqeDrop` windows.
    pub cqes_dropped: u64,
    /// QPs force-failed by `QpKill`.
    pub qp_kills: u64,
    /// Link up/down transitions applied.
    pub link_transitions: u64,
}

/// A point-to-point cable between two hosts, plus its per-packet framing
/// overhead (used to convert payload bytes to wire bytes).
#[derive(Debug)]
pub struct FabricLink {
    pub a: HostId,
    pub b: HostId,
    pub link: Link,
    pub overhead_per_packet: u32,
    /// Fault state: false while a `LinkDown` outage is in effect.
    pub up: bool,
    /// Fault state: per-fragment drop probability (0.0 outside windows).
    pub drop_p: f64,
    /// Fragments this link lost to injected faults (both directions).
    pub faults_dropped: u64,
}

impl FabricLink {
    fn wire_bytes(&self, payload: u64) -> u64 {
        let packets = payload.div_ceil(self.link.mtu() as u64).max(1);
        payload + packets * self.overhead_per_packet as u64
    }
}

/// Errors from QP connection management.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectError {
    SameHost,
    NotRc,
    AlreadyConnected,
    NoLink,
}

/// All fabric state except the applications.
pub struct FabricCore {
    pub hosts: Vec<HostState>,
    pub qps: Vec<QpState>,
    pub msgs: Slab<MsgState>,
    links: Vec<FabricLink>,
    link_map: HashMap<(u32, u32), u32>,
    /// Maximum bytes per wire fragment (NIC arbitration granularity).
    pub frag_size: u64,
    /// Seeded noise source for cost jitter (`CostModel::jitter_pct`).
    rng: StdRng,
    /// Monotonic message-uid source (uids are never reused).
    next_msg_uid: u64,
    /// Dedicated RNG for fault draws. Kept separate from the jitter RNG
    /// and only consumed inside active drop windows, so an empty fault
    /// plan leaves runs byte-identical to a fabric without fault hooks.
    fault_rng: StdRng,
    /// Per-host lost-completion fault switch (indexed by `HostId`).
    cqe_drop: Vec<bool>,
    /// Aggregate tally of injected faults.
    pub fault_counters: FaultCounters,
}

impl FabricCore {
    pub fn new(frag_size: u64) -> FabricCore {
        assert!(frag_size > 0);
        FabricCore {
            hosts: Vec::new(),
            qps: Vec::new(),
            msgs: Slab::with_capacity(1024),
            links: Vec::new(),
            link_map: HashMap::new(),
            frag_size,
            rng: StdRng::seed_from_u64(0x5EED_FAB1),
            next_msg_uid: 0,
            fault_rng: StdRng::seed_from_u64(0xFA_017),
            cqe_drop: Vec::new(),
            fault_counters: FaultCounters::default(),
        }
    }

    /// Reseed the fault RNG (drop windows draw from this stream only).
    pub fn reseed_faults(&mut self, seed: u64) {
        self.fault_rng = StdRng::seed_from_u64(seed);
    }

    fn alloc_msg_uid(&mut self) -> u64 {
        self.next_msg_uid += 1;
        self.next_msg_uid
    }

    /// Apply the host's configured cost jitter to `cost`.
    fn jittered(&mut self, host: HostId, cost: SimDur) -> SimDur {
        let j = self.hosts[host.index()].costs.jitter_pct;
        if j == 0 || cost.nanos() == 0 {
            return cost;
        }
        let span = cost.nanos() * j as u64 / 100;
        let lo = cost.nanos() - span;
        let hi = cost.nanos() + span;
        SimDur(self.rng.gen_range(lo..=hi))
    }

    pub fn add_host(
        &mut self,
        name: impl Into<String>,
        cores: u32,
        costs: rftp_netsim::testbed::CostModel,
    ) -> HostId {
        let id = HostId(self.hosts.len() as u32);
        let mut host = HostState::new(id, name, cores, costs);
        host.cpu.spawn("main");
        self.hosts.push(host);
        self.cqe_drop.push(false);
        id
    }

    pub fn add_link(&mut self, a: HostId, b: HostId, link: Link, overhead_per_packet: u32) {
        assert_ne!(a, b);
        let idx = self.links.len() as u32;
        self.links.push(FabricLink {
            a,
            b,
            link,
            overhead_per_packet,
            up: true,
            drop_p: 0.0,
            faults_dropped: 0,
        });
        let key = (a.0.min(b.0), a.0.max(b.0));
        self.link_map.insert(key, idx);
    }

    pub fn link_between(&self, a: HostId, b: HostId) -> Option<(u32, Dir)> {
        let key = (a.0.min(b.0), a.0.max(b.0));
        let idx = *self.link_map.get(&key)?;
        let dir = if self.links[idx as usize].a == a {
            Dir::AtoB
        } else {
            Dir::BtoA
        };
        Some((idx, dir))
    }

    pub fn link(&self, idx: u32) -> &FabricLink {
        &self.links[idx as usize]
    }

    pub fn links(&self) -> &[FabricLink] {
        &self.links
    }

    /// Create an (unconnected) queue pair on `host`.
    pub fn create_qp(
        &mut self,
        host: HostId,
        opts: QpOptions,
        send_cq: CqId,
        recv_cq: CqId,
    ) -> QpId {
        let id = QpId(self.qps.len() as u32);
        self.qps
            .push(QpState::new(id, host, opts, send_cq, recv_cq));
        id
    }

    /// Connect two RC queue pairs (models the out-of-band `rdma_cm`
    /// INIT→RTR→RTS exchange as instantaneous; the paper's protocol does
    /// its own parameter negotiation over the control channel on top).
    pub fn connect(&mut self, a: QpId, b: QpId) -> Result<(), ConnectError> {
        let (ha, hb) = (self.qps[a.index()].host, self.qps[b.index()].host);
        if ha == hb {
            return Err(ConnectError::SameHost);
        }
        if self.qps[a.index()].opts.qp_type != QpType::Rc
            || self.qps[b.index()].opts.qp_type != QpType::Rc
        {
            return Err(ConnectError::NotRc);
        }
        if self.qps[a.index()].peer.is_some() || self.qps[b.index()].peer.is_some() {
            return Err(ConnectError::AlreadyConnected);
        }
        if self.link_between(ha, hb).is_none() {
            return Err(ConnectError::NoLink);
        }
        self.qps[a.index()].peer = Some((hb, b));
        self.qps[b.index()].peer = Some((ha, a));
        Ok(())
    }

    /// Pop the next receive buffer for `qp`: from its shared receive
    /// queue when it has one, else its own RQ.
    fn pop_recv_buffer(&mut self, qp_id: QpId) -> Option<RecvWr> {
        let qp = &mut self.qps[qp_id.index()];
        match qp.opts.srq {
            None => qp.pop_rq(),
            Some(srq) => {
                let host = qp.host;
                let s = &mut self.hosts[host.index()].srqs[srq.index()];
                let r = s.queue.pop_front();
                if r.is_some() {
                    s.consumed_total += 1;
                }
                r
            }
        }
    }

    /// Push a completion and schedule its reap on the CQ's polling
    /// thread. With moderation, only the first completion of each batch
    /// pays the interrupt cost; the rest are polled cheaply.
    fn push_cqe(&mut self, sched: &mut Scheduler<Ev>, host: HostId, cq: CqId, cqe: Cqe) {
        // Lost-completion fault: swallow successful bulk-data send
        // completions (only those — eating control-ring or error CQEs
        // would model a broken *host*, not a flaky completion path).
        if self.cqe_drop[host.index()]
            && cqe.status == WcStatus::Success
            && cqe.kind == CqeKind::RdmaWrite
        {
            self.fault_counters.cqes_dropped += 1;
            return;
        }
        let base = {
            let q = &mut self.hosts[host.index()].cqs[cq.index()];
            q.since_interrupt += 1;
            if q.since_interrupt >= q.moderation {
                q.since_interrupt = 0;
                self.hosts[host.index()].costs.verbs_cqe
            } else {
                self.hosts[host.index()].costs.verbs_poll
            }
        };
        let cost = self.jittered(host, base);
        let h = &mut self.hosts[host.index()];
        let q = &mut h.cqs[cq.index()];
        q.queue.push_back(cqe);
        q.total += 1;
        let thread = q.thread;
        let t = h.cpu.run_on(thread, sched.now(), cost);
        h.counters.cqes_reaped += 1;
        sched.at(t, Ev::HandleCqe { host, cq });
    }

    /// Make sure a transmit chain is running on `host`'s NIC.
    fn kick_nic(&mut self, sched: &mut Scheduler<Ev>, host: HostId) {
        let h = &mut self.hosts[host.index()];
        if !h.nic.active && h.nic.has_work() {
            h.nic.active = true;
            sched.now_ev(Ev::NicTx(host));
        }
    }

    /// Transmit at most one fragment from `host`'s NIC. Returns false if
    /// nothing was transmittable (chain goes idle).
    fn nic_tx_one(&mut self, sched: &mut Scheduler<Ev>, host: HostId) -> bool {
        let now = sched.now();
        // 0. NIC-stall fault: the transmit engine is frozen; resume the
        // chain when the stall expires.
        let stalled_until = self.hosts[host.index()].nic.stalled_until;
        if stalled_until > now {
            sched.at(stalled_until, Ev::NicTx(host));
            return true;
        }
        // 1. Strict-priority transport control (ACKs / NAKs).
        let frag = if let Some(m) = self.hosts[host.index()].nic.ctrl_q.pop_front() {
            Some(Fragment {
                msg: m,
                uid: self.msgs[m].uid,
                bytes: 0,
                last: true,
            })
        } else {
            // 2. Round-robin one fragment across transmittable QPs.
            self.scan_ring(host, now)
        };
        let Some(frag) = frag else {
            self.hosts[host.index()].nic.active = false;
            return false;
        };

        let m = &self.msgs[frag.msg];
        let dst = m.dst_host;
        let src_qp = m.qp;
        let kind = m.kind;
        let signaled = m.signaled;
        let wr_id = m.wr_id;
        let len = m.len;
        let already_lost = m.lost;

        let (li, dir) = self
            .link_between(host, dst)
            .expect("message routed over missing link");
        let fl = &mut self.links[li as usize];
        let wire = fl.wire_bytes(frag.bytes);
        let tx = fl.link.transmit(now, dir, wire);
        let link_up = fl.up;
        let drop_p = fl.drop_p;
        let rtt = fl.link.rtt();
        let h = &mut self.hosts[host.index()];
        h.nic.fragments_sent += 1;
        // Fault check at serialization time: a downed link or an active
        // drop window loses the fragment on the wire. The sender cannot
        // tell — the NIC keeps transmitting the rest of the message and
        // the transport only finds out when its retries time out (the
        // `MsgLost` loss timer, modelled at a few RTTs).
        if already_lost {
            // A sibling fragment was already dropped; the rest of the
            // message serializes but never delivers.
        } else if !link_up || (drop_p > 0.0 && self.fault_rng.gen_bool(drop_p)) {
            self.links[li as usize].faults_dropped += 1;
            self.fault_counters.frags_dropped += 1;
            self.msgs[frag.msg].lost = true;
            let timeout = SimDur(rtt.nanos().saturating_mul(4) + 10_000_000);
            sched.at(
                tx.arrival + timeout,
                Ev::MsgLost {
                    msg: frag.msg,
                    uid: frag.uid,
                },
            );
        } else {
            sched.at(tx.arrival, Ev::Deliver { dst, frag });
        }
        sched.at(tx.tx_end, Ev::NicTx(host));

        // Count data-plane bytes on the sending QP.
        if !kind.is_transport_control() {
            let qp = &mut self.qps[src_qp.index()];
            qp.counters.bytes_sent += frag.bytes;
            if frag.last {
                qp.counters.msgs_sent += 1;
                // UD has no acknowledgements: the send completes when the
                // last fragment hits the wire.
                if qp.opts.qp_type == QpType::Ud && matches!(kind, MsgKind::Send) {
                    qp.sq_outstanding -= 1;
                    let send_cq = qp.send_cq;
                    if signaled {
                        self.push_cqe(
                            sched,
                            host,
                            send_cq,
                            Cqe {
                                wr_id,
                                qp: src_qp,
                                kind: CqeKind::Send,
                                status: WcStatus::Success,
                                bytes: len,
                                imm: None,
                            },
                        );
                    }
                }
            }
        }
        true
    }

    /// One deficit-round-robin scan over the NIC ring. Each QP's turn
    /// lasts one quantum (`frag_size`) of wire bytes: a bulk QP sends one
    /// max-size fragment per turn while a control QP can send many small
    /// messages in the same turn — byte-fair arbitration, as real HCA
    /// schedulers provide. Without this, per-message round-robin would
    /// throttle the control channel to one message per full data round,
    /// starving credit/notification traffic exactly when many data
    /// channels are busy. QPs with no pending work leave the ring.
    fn scan_ring(&mut self, host: HostId, now: SimTime) -> Option<Fragment> {
        let ring_len = self.hosts[host.index()].nic.ring.len();
        // Up to 2x passes: a QP mid-turn stays at the front, so the first
        // pass may rotate turn-expired QPs before finding a sendable one.
        for _ in 0..(2 * ring_len) {
            let qp_id = *self.hosts[host.index()].nic.ring.front()?;
            let qp = &mut self.qps[qp_id.index()];
            if qp.launch_q.is_empty() || qp.error {
                qp.in_nic_ring = false;
                qp.turn_bytes = 0;
                self.hosts[host.index()].nic.ring.pop_front();
                continue;
            }
            if qp.turn_bytes >= self.frag_size {
                // Quantum spent: rotate to the back of the ring.
                qp.turn_bytes = 0;
                let id = self.hosts[host.index()]
                    .nic
                    .ring
                    .pop_front()
                    .expect("front");
                self.hosts[host.index()].nic.ring.push_back(id);
                continue;
            }
            match next_fragment(qp, &self.msgs, self.frag_size, now) {
                Some(frag) => {
                    qp.turn_bytes += frag.bytes.max(64); // floor: headers cost wire time
                    if qp.launch_q.is_empty() {
                        qp.in_nic_ring = false;
                        qp.turn_bytes = 0;
                        self.hosts[host.index()].nic.ring.pop_front();
                    }
                    return Some(frag);
                }
                None => {
                    // Stalled (RNR back-off or rd_atomic budget): keep it
                    // in the ring so it is revisited, but move on.
                    qp.turn_bytes = 0;
                    let id = self.hosts[host.index()]
                        .nic
                        .ring
                        .pop_front()
                        .expect("front");
                    self.hosts[host.index()].nic.ring.push_back(id);
                }
            }
        }
        None
    }

    /// Queue a transport-control message (ack/nak) from `from_host` back
    /// toward `to_host` and kick the NIC.
    fn send_ctrl(
        &mut self,
        sched: &mut Scheduler<Ev>,
        from_host: HostId,
        to_host: HostId,
        from_qp: QpId,
        to_qp: QpId,
        kind: MsgKind,
    ) {
        let uid = self.alloc_msg_uid();
        let key = self.msgs.insert(MsgState {
            kind,
            uid,
            qp: from_qp,
            src_host: from_host,
            dst_host: to_host,
            dst_qp: to_qp,
            wr_id: 0,
            signaled: false,
            len: 0,
            delivered: 0,
            local: MrSlice::new(MrId(0), 0, 0),
            remote: None,
            imm: None,
            rnr_left: 0,
            src_epoch: self.qps[from_qp.index()].epoch,
            dst_epoch: self.qps[to_qp.index()].epoch,
            lost: false,
        });
        self.hosts[from_host.index()].nic.enqueue_ctrl(key);
        self.kick_nic(sched, from_host);
    }

    /// Copy message payload across hosts (no-op when either side is
    /// virtual). `src_slice` on `src_host` → (`dst_mr`, `dst_off`) on
    /// `dst_host`.
    fn copy_cross(
        &mut self,
        src_host: HostId,
        src_slice: MrSlice,
        dst_host: HostId,
        dst_mr: MrId,
        dst_off: u64,
    ) {
        debug_assert_ne!(src_host, dst_host);
        let (a, b) = (src_host.index(), dst_host.index());
        let (src, dst): (&HostState, &mut HostState) = if a < b {
            let (lo, hi) = self.hosts.split_at_mut(b);
            (&lo[a], &mut hi[0])
        } else {
            let (lo, hi) = self.hosts.split_at_mut(a);
            (&hi[0], &mut lo[b])
        };
        let src_mr = src.mr(src_slice.mr);
        let data_len = src_slice.len;
        crate::mr::copy_between(
            src_mr,
            src_slice.offset,
            dst.mr_mut(dst_mr),
            dst_off,
            data_len,
        );
    }

    /// Complete a WR with an error CQE and flush everything still queued
    /// on the QP (verbs semantics: the QP enters the error state and all
    /// outstanding WRs complete with `WrFlushed`).
    fn fail_qp(
        &mut self,
        sched: &mut Scheduler<Ev>,
        qp_id: QpId,
        first_wr: u64,
        first_kind: CqeKind,
        status: WcStatus,
    ) {
        let qp = &mut self.qps[qp_id.index()];
        qp.error = true;
        qp.sq_outstanding = qp.sq_outstanding.saturating_sub(1);
        let host = qp.host;
        let send_cq = qp.send_cq;
        let flushed: Vec<u32> = qp.launch_q.drain(..).collect();
        qp.head_sent = 0;
        self.push_cqe(
            sched,
            host,
            send_cq,
            Cqe {
                wr_id: first_wr,
                qp: qp_id,
                kind: first_kind,
                status,
                bytes: 0,
                imm: None,
            },
        );
        for key in flushed {
            let m = self.msgs.remove(key);
            let qp = &mut self.qps[qp_id.index()];
            qp.sq_outstanding = qp.sq_outstanding.saturating_sub(1);
            self.push_cqe(
                sched,
                host,
                send_cq,
                Cqe {
                    wr_id: m.wr_id,
                    qp: qp_id,
                    kind: wr_kind(&m.kind),
                    status: WcStatus::WrFlushed,
                    bytes: 0,
                    imm: None,
                },
            );
        }
    }

    /// Handle final-fragment delivery of a message. This is where RC
    /// semantics live: placement, RQ consumption, completions, acks.
    fn deliver_msg(&mut self, sched: &mut Scheduler<Ev>, key: u32) {
        let m = *self.msgs.get(key).expect("delivered unknown message");
        // A QP that was reset (stale epoch) or forced to error no longer
        // recognizes this connection's in-flight traffic: respond with a
        // NAK so the sender's QP fails and its owner can recover. Real RC
        // surfaces this as retry-exceeded once the peer stops responding.
        if !m.kind.is_transport_control() {
            let dst = &self.qps[m.dst_qp.index()];
            if dst.error || dst.epoch != m.dst_epoch {
                if self.qps[m.qp.index()].opts.qp_type == QpType::Ud {
                    // UD: silent drop, sender already completed.
                    self.msgs.remove(key);
                } else {
                    self.send_ctrl(
                        sched,
                        m.dst_host,
                        m.src_host,
                        m.dst_qp,
                        m.qp,
                        MsgKind::RemoteErrNak { for_msg: key },
                    );
                }
                return;
            }
        }
        match m.kind {
            MsgKind::Send => self.deliver_send(sched, key, m),
            MsgKind::Write => self.deliver_write(sched, key, m),
            MsgKind::ReadReq => self.deliver_read_req(sched, key, m),
            MsgKind::ReadResp { req } => self.deliver_read_resp(sched, key, m, req),
            MsgKind::Ack { for_msg } => {
                self.msgs.remove(key);
                self.complete_acked(sched, for_msg);
            }
            MsgKind::RnrNak { for_msg } => {
                self.msgs.remove(key);
                self.handle_rnr_nak(sched, for_msg);
            }
            MsgKind::RemoteErrNak { for_msg } => {
                self.msgs.remove(key);
                // The NAKed message may be gone already (its QP reset or
                // failed while the NAK was in flight).
                let Some(orig) = self.msgs.get(for_msg).copied() else {
                    return;
                };
                self.msgs.remove(for_msg);
                let qp = orig.qp;
                if orig.src_epoch != self.qps[qp.index()].epoch {
                    return; // posted before a reset: silently forgotten
                }
                self.qps[qp.index()].counters.remote_errors += 1;
                if self.qps[qp.index()].error {
                    self.flush_one(sched, qp, &orig);
                    return;
                }
                self.fail_qp(
                    sched,
                    qp,
                    orig.wr_id,
                    wr_kind(&orig.kind),
                    WcStatus::RemoteAccessError,
                );
            }
        }
    }

    fn deliver_send(&mut self, sched: &mut Scheduler<Ev>, key: u32, m: MsgState) {
        let is_ud = self.qps[m.dst_qp.index()].opts.qp_type == QpType::Ud;
        match self.pop_recv_buffer(m.dst_qp) {
            None => {
                let dst_qp = &mut self.qps[m.dst_qp.index()];
                if is_ud {
                    // UD: silent drop, sender already completed.
                    dst_qp.counters.ud_drops += 1;
                    self.msgs.remove(key);
                } else {
                    dst_qp.counters.rnr_naks += 1;
                    self.send_ctrl(
                        sched,
                        m.dst_host,
                        m.src_host,
                        m.dst_qp,
                        m.qp,
                        MsgKind::RnrNak { for_msg: key },
                    );
                }
            }
            Some(recv) => {
                let dst_qp = &mut self.qps[m.dst_qp.index()];
                if recv.local.len < m.len {
                    // Receive buffer too small: fatal for RC.
                    let recv_cq = dst_qp.recv_cq;
                    let dst_qp_id = m.dst_qp;
                    self.push_cqe(
                        sched,
                        m.dst_host,
                        recv_cq,
                        Cqe {
                            wr_id: recv.wr_id,
                            qp: dst_qp_id,
                            kind: CqeKind::Recv,
                            status: WcStatus::LocalLenError,
                            bytes: 0,
                            imm: None,
                        },
                    );
                    if !is_ud {
                        self.send_ctrl(
                            sched,
                            m.dst_host,
                            m.src_host,
                            dst_qp_id,
                            m.qp,
                            MsgKind::RemoteErrNak { for_msg: key },
                        );
                    } else {
                        self.msgs.remove(key);
                    }
                    return;
                }
                dst_qp.counters.msgs_received += 1;
                dst_qp.counters.bytes_received += m.len;
                let recv_cq = dst_qp.recv_cq;
                if m.len > 0 {
                    self.copy_cross(
                        m.src_host,
                        m.local,
                        m.dst_host,
                        recv.local.mr,
                        recv.local.offset,
                    );
                }
                self.push_cqe(
                    sched,
                    m.dst_host,
                    recv_cq,
                    Cqe {
                        wr_id: recv.wr_id,
                        qp: m.dst_qp,
                        kind: CqeKind::Recv,
                        status: WcStatus::Success,
                        bytes: m.len,
                        imm: m.imm,
                    },
                );
                if is_ud {
                    self.msgs.remove(key);
                } else {
                    self.send_ctrl(
                        sched,
                        m.dst_host,
                        m.src_host,
                        m.dst_qp,
                        m.qp,
                        MsgKind::Ack { for_msg: key },
                    );
                }
            }
        }
    }

    fn deliver_write(&mut self, sched: &mut Scheduler<Ev>, key: u32, m: MsgState) {
        let remote = m.remote.expect("write without remote target");
        let dst_host = &self.hosts[m.dst_host.index()];
        let mr_id = remote.rkey.mr();
        let ok = dst_host
            .mrs
            .get(mr_id.index())
            .map(|mr| mr.check_remote(remote.rkey, remote.offset, m.len).is_ok())
            .unwrap_or(false);
        if !ok {
            self.send_ctrl(
                sched,
                m.dst_host,
                m.src_host,
                m.dst_qp,
                m.qp,
                MsgKind::RemoteErrNak { for_msg: key },
            );
            return;
        }
        // WRITE_WITH_IMM additionally consumes an RQ entry to raise the
        // completion at the sink; without one, RNR like a SEND.
        if m.imm.is_some() {
            match self.pop_recv_buffer(m.dst_qp) {
                None => {
                    let dst_qp = &mut self.qps[m.dst_qp.index()];
                    dst_qp.counters.rnr_naks += 1;
                    self.send_ctrl(
                        sched,
                        m.dst_host,
                        m.src_host,
                        m.dst_qp,
                        m.qp,
                        MsgKind::RnrNak { for_msg: key },
                    );
                    return;
                }
                Some(recv) => {
                    let dst_qp = &mut self.qps[m.dst_qp.index()];
                    dst_qp.counters.msgs_received += 1;
                    dst_qp.counters.bytes_received += m.len;
                    let recv_cq = dst_qp.recv_cq;
                    self.copy_cross(m.src_host, m.local, m.dst_host, mr_id, remote.offset);
                    self.push_cqe(
                        sched,
                        m.dst_host,
                        recv_cq,
                        Cqe {
                            wr_id: recv.wr_id,
                            qp: m.dst_qp,
                            kind: CqeKind::RecvRdmaWithImm,
                            status: WcStatus::Success,
                            bytes: m.len,
                            imm: m.imm,
                        },
                    );
                }
            }
        } else {
            // Pure one-sided write: place silently; zero remote CPU. This
            // is precisely the property §II argues makes WRITE the right
            // bulk primitive.
            let dst_qp = &mut self.qps[m.dst_qp.index()];
            dst_qp.counters.msgs_received += 1;
            dst_qp.counters.bytes_received += m.len;
            self.copy_cross(m.src_host, m.local, m.dst_host, mr_id, remote.offset);
        }
        self.send_ctrl(
            sched,
            m.dst_host,
            m.src_host,
            m.dst_qp,
            m.qp,
            MsgKind::Ack { for_msg: key },
        );
    }

    fn deliver_read_req(&mut self, sched: &mut Scheduler<Ev>, key: u32, m: MsgState) {
        let remote = m.remote.expect("read without remote source");
        let mr_id = remote.rkey.mr();
        let ok = self.hosts[m.dst_host.index()]
            .mrs
            .get(mr_id.index())
            .map(|mr| mr.check_remote(remote.rkey, remote.offset, m.len).is_ok())
            .unwrap_or(false);
        if !ok {
            self.send_ctrl(
                sched,
                m.dst_host,
                m.src_host,
                m.dst_qp,
                m.qp,
                MsgKind::RemoteErrNak { for_msg: key },
            );
            return;
        }
        // The target NIC streams the response back through its own data
        // path — entirely in hardware, no target CPU.
        let uid = self.alloc_msg_uid();
        let resp = self.msgs.insert(MsgState {
            kind: MsgKind::ReadResp { req: key },
            uid,
            qp: m.dst_qp,
            src_host: m.dst_host,
            dst_host: m.src_host,
            dst_qp: m.qp,
            wr_id: m.wr_id,
            signaled: false,
            len: m.len,
            delivered: 0,
            local: MrSlice::new(mr_id, remote.offset, m.len),
            remote: None,
            imm: None,
            rnr_left: 0,
            src_epoch: self.qps[m.dst_qp.index()].epoch,
            dst_epoch: self.qps[m.qp.index()].epoch,
            lost: false,
        });
        let dst_qp = &mut self.qps[m.dst_qp.index()];
        dst_qp.launch_q.push_back(resp);
        let host = m.dst_host;
        self.hosts[host.index()]
            .nic
            .enqueue_qp(&mut self.qps[m.dst_qp.index()]);
        self.kick_nic(sched, host);
    }

    fn deliver_read_resp(&mut self, sched: &mut Scheduler<Ev>, key: u32, m: MsgState, req: u32) {
        self.msgs.remove(key);
        // Tolerant: the request may be gone or epoch-orphaned (initiator
        // QP reset while the response was streaming back).
        let Some(orig) = self.msgs.get(req).copied() else {
            return;
        };
        self.msgs.remove(req);
        if orig.src_epoch != self.qps[orig.qp.index()].epoch {
            return;
        }
        // Place the fetched data into the initiator's local buffer.
        if m.len > 0 {
            self.copy_cross(
                m.src_host,
                m.local,
                m.dst_host,
                orig.local.mr,
                orig.local.offset,
            );
        }
        let qp = &mut self.qps[orig.qp.index()];
        qp.outstanding_reads -= 1;
        qp.sq_outstanding -= 1;
        qp.counters.bytes_received += m.len;
        let host = qp.host;
        let send_cq = qp.send_cq;
        let signaled = orig.signaled;
        // Freeing a max_rd_atomic slot may unblock the launch queue.
        if !qp.launch_q.is_empty() {
            self.hosts[host.index()]
                .nic
                .enqueue_qp(&mut self.qps[orig.qp.index()]);
            self.kick_nic(sched, host);
        }
        if signaled {
            self.push_cqe(
                sched,
                host,
                send_cq,
                Cqe {
                    wr_id: orig.wr_id,
                    qp: orig.qp,
                    kind: CqeKind::RdmaRead,
                    status: WcStatus::Success,
                    bytes: m.len,
                    imm: None,
                },
            );
        }
    }

    /// Flush one already-removed message's WR on an errored QP.
    fn flush_one(&mut self, sched: &mut Scheduler<Ev>, qp_id: QpId, m: &MsgState) {
        let qp = &mut self.qps[qp_id.index()];
        qp.sq_outstanding = qp.sq_outstanding.saturating_sub(1);
        let host = qp.host;
        let send_cq = qp.send_cq;
        self.push_cqe(
            sched,
            host,
            send_cq,
            Cqe {
                wr_id: m.wr_id,
                qp: qp_id,
                kind: wr_kind(&m.kind),
                status: WcStatus::WrFlushed,
                bytes: 0,
                imm: None,
            },
        );
    }

    fn complete_acked(&mut self, sched: &mut Scheduler<Ev>, for_msg: u32) {
        // Tolerant: the acked message may already be gone, or belong to a
        // previous incarnation of its QP (reset while the ack was in
        // flight) — in either case there is nothing left to complete.
        let Some(m) = self.msgs.get(for_msg).copied() else {
            return;
        };
        self.msgs.remove(for_msg);
        if m.src_epoch != self.qps[m.qp.index()].epoch {
            return;
        }
        let qp = &mut self.qps[m.qp.index()];
        qp.sq_outstanding -= 1;
        let host = qp.host;
        let send_cq = qp.send_cq;
        if m.signaled {
            self.push_cqe(
                sched,
                host,
                send_cq,
                Cqe {
                    wr_id: m.wr_id,
                    qp: m.qp,
                    kind: wr_kind(&m.kind),
                    status: WcStatus::Success,
                    bytes: m.len,
                    imm: None,
                },
            );
        }
    }

    fn handle_rnr_nak(&mut self, sched: &mut Scheduler<Ev>, for_msg: u32) {
        let (qp_id, retry_budget);
        {
            // Tolerant: the message may be gone or epoch-orphaned (QP
            // reset while the NAK was in flight).
            let Some(m) = self.msgs.get(for_msg) else {
                return;
            };
            qp_id = m.qp;
            if m.src_epoch != self.qps[qp_id.index()].epoch {
                self.msgs.remove(for_msg);
                return;
            }
            retry_budget = self.qps[qp_id.index()].opts.rnr_retry;
        }
        // If the QP already failed (e.g. a sibling WR exhausted its RNR
        // budget), in-flight messages flush instead of retrying.
        if self.qps[qp_id.index()].error {
            let orig = self.msgs.remove(for_msg);
            let qp = &mut self.qps[qp_id.index()];
            qp.sq_outstanding = qp.sq_outstanding.saturating_sub(1);
            let host = qp.host;
            let send_cq = qp.send_cq;
            self.push_cqe(
                sched,
                host,
                send_cq,
                Cqe {
                    wr_id: orig.wr_id,
                    qp: qp_id,
                    kind: wr_kind(&orig.kind),
                    status: WcStatus::WrFlushed,
                    bytes: 0,
                    imm: None,
                },
            );
            return;
        }
        let infinite = retry_budget == 7; // IB spec: 7 = retry forever
        let m = self.msgs.get_mut(for_msg).unwrap();
        if !infinite && m.rnr_left == 0 {
            let orig = self.msgs.remove(for_msg);
            self.qps[qp_id.index()].counters.rnr_retries_exhausted += 1;
            self.fail_qp(
                sched,
                qp_id,
                orig.wr_id,
                wr_kind(&orig.kind),
                WcStatus::RnrRetryExceeded,
            );
            return;
        }
        if !infinite {
            m.rnr_left -= 1;
        }
        m.delivered = 0;
        let qp = &mut self.qps[qp_id.index()];
        qp.counters.rnr_naks += 1;
        qp.launch_q.push_front(for_msg);
        let resume = sched.now() + qp.opts.rnr_timer;
        qp.stalled_until = resume;
        let host = qp.host;
        self.hosts[host.index()]
            .nic
            .enqueue_qp(&mut self.qps[qp_id.index()]);
        sched.at(resume, Ev::NicKick(host));
    }

    /// The loss timer for `msg` fired: the initiating transport gives up.
    /// A lost ACK/NAK strands the message it was acknowledging; a lost
    /// READ response strands the original request.
    fn handle_msg_lost(&mut self, sched: &mut Scheduler<Ev>, key: u32, uid: u64) {
        let Some(m) = self.msgs.get(key) else {
            return;
        };
        if m.uid != uid {
            return; // slab key recycled; this timer is stale
        }
        let m = *m;
        match m.kind {
            MsgKind::Ack { for_msg }
            | MsgKind::RnrNak { for_msg }
            | MsgKind::RemoteErrNak { for_msg } => {
                self.msgs.remove(key);
                self.fail_lost_msg(sched, for_msg);
            }
            MsgKind::ReadResp { req } => {
                self.msgs.remove(key);
                self.fail_lost_msg(sched, req);
            }
            _ => self.fail_lost_msg(sched, key),
        }
    }

    /// Give up on an initiated message whose delivery or acknowledgement
    /// was lost: remove it and fail its QP with retry-exhausted
    /// semantics — unless a reset already orphaned it, or the QP is UD
    /// (which never promised delivery in the first place).
    fn fail_lost_msg(&mut self, sched: &mut Scheduler<Ev>, key: u32) {
        let Some(m) = self.msgs.get(key).copied() else {
            return;
        };
        self.msgs.remove(key);
        let qp = &self.qps[m.qp.index()];
        if m.src_epoch != qp.epoch || qp.opts.qp_type == QpType::Ud {
            return;
        }
        if qp.error {
            self.flush_one(sched, m.qp, &m);
            return;
        }
        self.qps[m.qp.index()].counters.transport_retries_exceeded += 1;
        self.fail_qp(
            sched,
            m.qp,
            m.wr_id,
            wr_kind(&m.kind),
            WcStatus::RetryExceeded,
        );
    }

    /// Apply one scheduled fault action.
    fn apply_fault(&mut self, sched: &mut Scheduler<Ev>, action: FaultAction) {
        match action {
            FaultAction::LinkDown { link } => {
                let l = &mut self.links[link as usize];
                if l.up {
                    l.up = false;
                    self.fault_counters.link_transitions += 1;
                }
            }
            FaultAction::LinkUp { link } => {
                let l = &mut self.links[link as usize];
                if !l.up {
                    l.up = true;
                    self.fault_counters.link_transitions += 1;
                }
            }
            FaultAction::DropStart { link, p } => {
                self.links[link as usize].drop_p = p.clamp(0.0, 1.0);
            }
            FaultAction::DropStop { link } => {
                self.links[link as usize].drop_p = 0.0;
            }
            FaultAction::QpKill { qp } => {
                let id = QpId(qp);
                if !self.qps[id.index()].error {
                    self.fault_counters.qp_kills += 1;
                    // Sentinel wr_id: the error CQE announces the async
                    // event, it does not correspond to any posted WR.
                    // `fail_qp` releases one SQ slot for the WR it
                    // reports, so balance the books for the synthetic one
                    // (in-flight messages keep their slots until their
                    // acks or loss timers resolve them).
                    self.qps[id.index()].sq_outstanding += 1;
                    self.fail_qp(sched, id, u64::MAX, CqeKind::Send, WcStatus::RetryExceeded);
                }
            }
            FaultAction::NicStall { host, dur } => {
                let until = sched.now() + dur;
                let nic = &mut self.hosts[host.index()].nic;
                nic.stalled_until = nic.stalled_until.max(until);
            }
            FaultAction::CqeDropStart { host } => self.cqe_drop[host.index()] = true,
            FaultAction::CqeDropStop { host } => self.cqe_drop[host.index()] = false,
        }
    }

    /// Reset a QP out of the error state, verbs-style (ERR → RESET →
    /// INIT → RTS), keeping its peer connection. All queued work is
    /// dropped, posted receives are cleared, and the epoch is bumped so
    /// anything still in flight (or its acknowledgements and loss
    /// timers) is silently ignored when it finally lands.
    pub fn reset_qp(&mut self, qp_id: QpId) {
        let dropped: Vec<u32> = {
            let qp = &mut self.qps[qp_id.index()];
            qp.epoch = qp.epoch.wrapping_add(1);
            qp.error = false;
            qp.head_sent = 0;
            qp.sq_outstanding = 0;
            qp.outstanding_reads = 0;
            qp.stalled_until = SimTime::ZERO;
            qp.turn_bytes = 0;
            qp.rq.clear();
            qp.launch_q.drain(..).collect()
        };
        for key in dropped {
            self.msgs.remove(key);
        }
    }
}

/// Map a message kind back to the WR completion opcode.
fn wr_kind(kind: &MsgKind) -> CqeKind {
    match kind {
        MsgKind::Send => CqeKind::Send,
        MsgKind::Write => CqeKind::RdmaWrite,
        MsgKind::ReadReq | MsgKind::ReadResp { .. } => CqeKind::RdmaRead,
        _ => CqeKind::Send,
    }
}

/// The world: fabric core plus one application per host.
pub struct FabricWorld {
    pub core: FabricCore,
    apps: Vec<Option<Box<dyn Application>>>,
}

/// Application callbacks. One instance per host; all interaction with
/// the fabric goes through [`Api`].
///
/// A minimal ping application (send 1 KB, count the completion):
///
/// ```
/// use rftp_fabric::*;
/// use rftp_netsim::{testbed, SimTime, SimDur, ThreadId};
///
/// struct Ping { qp: QpId, mr: MrId, done: bool }
/// impl Application for Ping {
///     fn on_start(&mut self, api: &mut Api) {
///         api.post_send(self.qp, WorkRequest::signaled(1, WrOp::Send {
///             local: MrSlice::whole(self.mr, 1024), imm: None,
///         })).unwrap();
///     }
///     fn on_cqe(&mut self, cqe: &Cqe, _api: &mut Api) {
///         assert!(cqe.ok());
///         self.done = true;
///     }
/// }
/// struct Pong { qp: QpId, mr: MrId }
/// impl Application for Pong {
///     fn on_start(&mut self, api: &mut Api) {
///         api.post_recv(self.qp, RecvWr {
///             wr_id: 0, local: MrSlice::whole(self.mr, 1024),
///         }).unwrap();
///     }
///     fn on_cqe(&mut self, _cqe: &Cqe, _api: &mut Api) {}
/// }
///
/// let tb = testbed::roce_lan();
/// let (mut core, a, b) = two_host_fabric(&tb);
/// let cq_a = core.hosts[a.index()].create_cq(ThreadId(0));
/// let cq_b = core.hosts[b.index()].create_cq(ThreadId(0));
/// let qa = core.create_qp(a, QpOptions::default(), cq_a, cq_a);
/// let qb = core.create_qp(b, QpOptions::default(), cq_b, cq_b);
/// core.connect(qa, qb).unwrap();
/// let (mr_a, _) = core.hosts[a.index()].register_mr(Backing::zeroed(1024));
/// let (mr_b, _) = core.hosts[b.index()].register_mr(Backing::zeroed(1024));
///
/// let mut sim = build_sim(core, vec![
///     Some(Box::new(Ping { qp: qa, mr: mr_a, done: false })),
///     Some(Box::new(Pong { qp: qb, mr: mr_b })),
/// ]);
/// sim.run(SimTime::ZERO + SimDur::from_secs(1));
/// assert!(sim.world().app::<Ping>(a).done);
/// ```
pub trait Application: Any {
    /// Called once at simulation start on the host's main thread.
    fn on_start(&mut self, _api: &mut Api) {}
    /// A completion was reaped from one of the host's CQs (already
    /// charged to the CQ's polling thread).
    fn on_cqe(&mut self, cqe: &Cqe, api: &mut Api);
    /// A timer / work item / device completion fired.
    fn on_wakeup(&mut self, _token: u64, _api: &mut Api) {}
}

impl FabricWorld {
    pub fn new(core: FabricCore, apps: Vec<Option<Box<dyn Application>>>) -> FabricWorld {
        assert_eq!(core.hosts.len(), apps.len(), "one app slot per host");
        FabricWorld { core, apps }
    }

    /// Downcast the application on `host` to its concrete type.
    pub fn app<T: Application>(&self, host: HostId) -> &T {
        let app = self.apps[host.index()]
            .as_ref()
            .expect("no application on host");
        let any: &dyn Any = app.as_ref();
        any.downcast_ref::<T>().expect("application type mismatch")
    }

    fn dispatch(
        &mut self,
        host: HostId,
        thread: ThreadId,
        sched: &mut Scheduler<Ev>,
        f: impl FnOnce(&mut dyn Application, &mut Api),
    ) {
        let Some(mut app) = self.apps[host.index()].take() else {
            return;
        };
        {
            let mut api = Api {
                core: &mut self.core,
                sched,
                host,
                thread,
            };
            f(app.as_mut(), &mut api);
        }
        self.apps[host.index()] = Some(app);
    }
}

impl World for FabricWorld {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, sched: &mut Scheduler<Ev>) {
        match ev {
            Ev::Start(host) => {
                self.dispatch(host, ThreadId(0), sched, |app, api| app.on_start(api));
            }
            Ev::NicTx(host) => {
                self.core.nic_tx_one(sched, host);
            }
            Ev::NicKick(host) => {
                self.core.kick_nic(sched, host);
            }
            Ev::Deliver { dst, frag } => {
                let _ = dst;
                // Tolerant lookup: the message may have been freed while
                // this fragment was in flight (QP reset or failure), and
                // its slab key may even have been recycled for a newer
                // message — the uid disambiguates. Lost messages keep
                // serializing but never deliver.
                let Some(m) = self.core.msgs.get_mut(frag.msg) else {
                    return;
                };
                if m.uid != frag.uid || m.lost {
                    return;
                }
                m.delivered += frag.bytes;
                if frag.last {
                    self.core.deliver_msg(sched, frag.msg);
                }
            }
            Ev::HandleCqe { host, cq } => {
                let (cqe, thread) = {
                    let q = &mut self.core.hosts[host.index()].cqs[cq.index()];
                    let cqe = q.queue.pop_front().expect("CQ reap without completion");
                    (cqe, q.thread)
                };
                self.dispatch(host, thread, sched, |app, api| app.on_cqe(&cqe, api));
            }
            Ev::Wakeup {
                host,
                thread,
                token,
            } => {
                self.dispatch(host, thread, sched, |app, api| app.on_wakeup(token, api));
            }
            Ev::Fault(action) => self.core.apply_fault(sched, action),
            Ev::MsgLost { msg, uid } => self.core.handle_msg_lost(sched, msg, uid),
        }
    }
}

/// Build a [`Sim`] over a fabric with `Start` events primed for each host.
pub fn build_sim(core: FabricCore, apps: Vec<Option<Box<dyn Application>>>) -> Sim<FabricWorld> {
    let hosts = core.hosts.len();
    let mut sim = Sim::new(FabricWorld::new(core, apps));
    for h in 0..hosts {
        sim.prime(SimDur::ZERO, Ev::Start(HostId(h as u32)));
    }
    sim
}

/// The per-callback handle applications use to drive the fabric.
pub struct Api<'a> {
    pub core: &'a mut FabricCore,
    sched: &'a mut Scheduler<Ev>,
    host: HostId,
    thread: ThreadId,
}

impl<'a> Api<'a> {
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// The host this application runs on.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// The simulated thread this callback is running on.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// Create a completion queue polled by `thread`.
    pub fn create_cq(&mut self, thread: ThreadId) -> CqId {
        self.core.hosts[self.host.index()].create_cq(thread)
    }

    /// Create a completion queue with interrupt moderation (one wakeup
    /// per `moderation` completions).
    pub fn create_cq_moderated(&mut self, thread: ThreadId, moderation: u32) -> CqId {
        self.core.hosts[self.host.index()].create_cq_moderated(thread, moderation)
    }

    /// Register memory; the pinning cost is charged to the current thread.
    pub fn register_mr(&mut self, backing: Backing) -> MrId {
        let h = &mut self.core.hosts[self.host.index()];
        let (id, cost) = h.register_mr(backing);
        h.cpu.run_on(self.thread, self.sched.now(), cost);
        id
    }

    pub fn deregister_mr(&mut self, id: MrId) {
        self.core.hosts[self.host.index()].deregister_mr(id);
    }

    pub fn mr(&self, id: MrId) -> &MemoryRegion {
        self.core.hosts[self.host.index()].mr(id)
    }

    pub fn mr_mut(&mut self, id: MrId) -> &mut MemoryRegion {
        self.core.hosts[self.host.index()].mr_mut(id)
    }

    /// Rkey of a local MR (what a sink advertises in credit messages).
    pub fn rkey(&self, id: MrId) -> Rkey {
        self.mr(id).rkey()
    }

    pub fn create_qp(&mut self, opts: QpOptions, send_cq: CqId, recv_cq: CqId) -> QpId {
        self.core.create_qp(self.host, opts, send_cq, recv_cq)
    }

    /// Connect a local QP with a peer QP (out-of-band exchange of QPNs is
    /// the caller's business, as with `rdma_cm`).
    pub fn connect(&mut self, local: QpId, peer: QpId) -> Result<(), ConnectError> {
        self.core.connect(local, peer)
    }

    /// Reset a local QP out of the error state (ERR → RESET → RTS; see
    /// [`FabricCore::reset_qp`]). Charges one verbs-post worth of CPU,
    /// roughly what the `ibv_modify_qp` round costs.
    pub fn reset_qp(&mut self, qp_id: QpId) {
        debug_assert_eq!(
            self.core.qps[qp_id.index()].host,
            self.host,
            "resetting another host's QP"
        );
        let cost = self.core.hosts[self.host.index()].costs.verbs_post;
        self.core.hosts[self.host.index()]
            .cpu
            .run_on(self.thread, self.sched.now(), cost);
        self.core.reset_qp(qp_id);
    }

    /// Post a send-queue work request. Charges the doorbell cost to the
    /// current thread.
    pub fn post_send(&mut self, qp_id: QpId, wr: WorkRequest) -> Result<(), PostError> {
        self.post_send_inner(qp_id, wr, None)
    }

    /// Post a UD send addressed to `(dst_host, dst_qp)` (the address
    /// handle). The payload must fit one MTU.
    pub fn post_send_ud(
        &mut self,
        qp_id: QpId,
        wr: WorkRequest,
        dst_host: HostId,
        dst_qp: QpId,
    ) -> Result<(), PostError> {
        self.post_send_inner(qp_id, wr, Some((dst_host, dst_qp)))
    }

    fn post_send_inner(
        &mut self,
        qp_id: QpId,
        wr: WorkRequest,
        ud_dest: Option<(HostId, QpId)>,
    ) -> Result<(), PostError> {
        let now = self.sched.now();
        let qp = &self.core.qps[qp_id.index()];
        debug_assert_eq!(qp.host, self.host, "posting to another host's QP");
        if qp.error {
            return Err(PostError::BadQpState);
        }
        let (dst_host, dst_qp) = match (qp.opts.qp_type, ud_dest) {
            (QpType::Rc, None) => qp.peer.ok_or(PostError::BadQpState)?,
            (QpType::Ud, Some(dest)) => dest,
            (QpType::Ud, None) => return Err(PostError::BadQpState),
            (QpType::Rc, Some(_)) => return Err(PostError::OpNotSupported),
        };
        if !qp.sq_has_room() {
            return Err(PostError::SqFull);
        }
        let kind = match wr.op {
            WrOp::Send { .. } => MsgKind::Send,
            WrOp::Write { .. } => {
                if qp.opts.qp_type == QpType::Ud {
                    return Err(PostError::OpNotSupported);
                }
                MsgKind::Write
            }
            WrOp::Read { .. } => {
                if qp.opts.qp_type == QpType::Ud {
                    return Err(PostError::OpNotSupported);
                }
                MsgKind::ReadReq
            }
        };
        let (local, remote, imm) = match wr.op {
            WrOp::Send { local, imm } => (local, None, imm),
            WrOp::Write { local, remote, imm } => (local, Some(remote), imm),
            WrOp::Read { local, remote } => (local, Some(remote), None),
        };
        // Local MR validation happens at post time, like ibv_post_send.
        let h = &self.core.hosts[self.host.index()];
        let mr = h.mrs.get(local.mr.index()).ok_or(PostError::BadLocalMr)?;
        if mr.check_local(local.offset, local.len).is_err() {
            return Err(PostError::BadLocalMr);
        }
        if qp.opts.qp_type == QpType::Ud {
            let (li, _) = self
                .core
                .link_between(self.host, dst_host)
                .ok_or(PostError::BadQpState)?;
            if local.len > self.core.link(li).link.mtu() as u64 {
                return Err(PostError::OpNotSupported);
            }
        }

        let rnr_left = self.core.qps[qp_id.index()].opts.rnr_retry;
        let uid = self.core.alloc_msg_uid();
        let key = self.core.msgs.insert(MsgState {
            kind,
            uid,
            qp: qp_id,
            src_host: self.host,
            dst_host,
            dst_qp,
            wr_id: wr.wr_id,
            signaled: wr.signaled,
            len: local.len,
            delivered: 0,
            local,
            remote,
            imm,
            rnr_left,
            src_epoch: self.core.qps[qp_id.index()].epoch,
            dst_epoch: self.core.qps[dst_qp.index()].epoch,
            lost: false,
        });
        let qp = &mut self.core.qps[qp_id.index()];
        qp.sq_outstanding += 1;
        qp.launch_q.push_back(key);
        let cost = self.core.jittered(
            self.host,
            self.core.hosts[self.host.index()].costs.verbs_post,
        );
        let host_state = &mut self.core.hosts[self.host.index()];
        host_state.counters.posts += 1;
        host_state.cpu.run_on(self.thread, now, cost);
        host_state.nic.enqueue_qp(&mut self.core.qps[qp_id.index()]);
        self.core.kick_nic(self.sched, self.host);
        Ok(())
    }

    /// Post a receive buffer.
    pub fn post_recv(&mut self, qp_id: QpId, recv: RecvWr) -> Result<(), PostError> {
        let now = self.sched.now();
        let h = &self.core.hosts[self.host.index()];
        let mr = h
            .mrs
            .get(recv.local.mr.index())
            .ok_or(PostError::BadLocalMr)?;
        if mr.check_local(recv.local.offset, recv.local.len).is_err() {
            return Err(PostError::BadLocalMr);
        }
        let qp = &mut self.core.qps[qp_id.index()];
        debug_assert_eq!(qp.host, self.host);
        if !qp.rq_has_room() {
            return Err(PostError::RqFull);
        }
        qp.rq.push_back(recv);
        let host_state = &mut self.core.hosts[self.host.index()];
        host_state.counters.posts += 1;
        let cost = host_state.costs.verbs_post;
        host_state.cpu.run_on(self.thread, now, cost);
        Ok(())
    }

    /// Charge CPU time to the current thread (e.g. protocol processing).
    pub fn charge(&mut self, cost: SimDur) {
        let h = &mut self.core.hosts[self.host.index()];
        h.cpu.run_on(self.thread, self.sched.now(), cost);
    }

    /// Charge CPU time to a specific thread without a wakeup (work whose
    /// completion nothing waits on).
    pub fn charge_on(&mut self, thread: ThreadId, cost: SimDur) {
        let h = &mut self.core.hosts[self.host.index()];
        h.cpu.run_on(thread, self.sched.now(), cost);
    }

    /// Run `cost` of work on `thread`; `on_wakeup(token)` fires at
    /// completion (models the middleware's worker threads, data loading,
    /// etc.).
    pub fn work(&mut self, thread: ThreadId, cost: SimDur, token: u64) {
        let cost = self.core.jittered(self.host, cost);
        let h = &mut self.core.hosts[self.host.index()];
        let t = h.cpu.run_on(thread, self.sched.now(), cost);
        self.sched.at(
            t,
            Ev::Wakeup {
                host: self.host,
                thread,
                token,
            },
        );
    }

    /// Fire `on_wakeup(token)` on `thread` after `delay` (pure timer; no
    /// CPU charged).
    pub fn set_timer(&mut self, thread: ThreadId, delay: SimDur, token: u64) {
        self.sched.after(
            delay,
            Ev::Wakeup {
                host: self.host,
                thread,
                token,
            },
        );
    }

    /// Create a shared receive queue.
    pub fn create_srq(&mut self) -> SrqId {
        self.core.hosts[self.host.index()].create_srq()
    }

    /// Post a receive buffer to a shared receive queue.
    pub fn post_srq_recv(&mut self, srq: SrqId, recv: RecvWr) -> Result<(), PostError> {
        let now = self.sched.now();
        let h = &self.core.hosts[self.host.index()];
        let mr = h
            .mrs
            .get(recv.local.mr.index())
            .ok_or(PostError::BadLocalMr)?;
        if mr.check_local(recv.local.offset, recv.local.len).is_err() {
            return Err(PostError::BadLocalMr);
        }
        let host_state = &mut self.core.hosts[self.host.index()];
        let s = &mut host_state.srqs[srq.index()];
        s.queue.push_back(recv);
        s.posted_total += 1;
        host_state.counters.posts += 1;
        let cost = host_state.costs.verbs_post;
        host_state.cpu.run_on(self.thread, now, cost);
        Ok(())
    }

    /// Create a rate-limited FIFO device (e.g. a disk array).
    pub fn create_device(&mut self, rate: Bandwidth) -> DeviceId {
        self.core.hosts[self.host.index()].create_device(rate)
    }

    /// Submit `bytes` to a device; `on_wakeup(token)` fires on `thread`
    /// when the device completes the operation.
    pub fn device_submit(&mut self, dev: DeviceId, bytes: u64, thread: ThreadId, token: u64) {
        let end =
            self.core.hosts[self.host.index()].devices[dev.index()].submit(self.sched.now(), bytes);
        self.sched.at(
            end,
            Ev::Wakeup {
                host: self.host,
                thread,
                token,
            },
        );
    }

    /// This host's cost model (for computing realistic work charges).
    pub fn costs(&self) -> &rftp_netsim::testbed::CostModel {
        &self.core.hosts[self.host.index()].costs
    }
}
