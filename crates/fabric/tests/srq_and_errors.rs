//! Shared-receive-queue semantics and connection-management error paths.

use rftp_fabric::{
    build_sim, two_host_fabric, Api, Application, Backing, ConnectError, Cqe, CqeKind, MrId,
    MrSlice, QpId, QpOptions, RecvWr, SrqId, WorkRequest, WrOp,
};
use rftp_netsim::testbed;
use rftp_netsim::time::{SimDur, SimTime};
use rftp_netsim::ThreadId;

fn horizon() -> SimTime {
    SimTime::ZERO + SimDur::from_secs(60)
}

/// Two QPs share one SRQ: sends on either consume from the same pool of
/// buffers, FIFO.
// spec: [P1-data-qps]
#[test]
fn srq_is_shared_across_qps() {
    let tb = testbed::roce_lan();
    let (mut core, a, b) = two_host_fabric(&tb);
    let cq_a = core.hosts[a.index()].create_cq(ThreadId(0));
    let cq_b = core.hosts[b.index()].create_cq(ThreadId(0));
    let srq = core.hosts[b.index()].create_srq();
    let mk = |core: &mut rftp_fabric::FabricCore| {
        let opts_a = QpOptions::default();
        let opts_b = QpOptions {
            srq: Some(srq),
            ..QpOptions::default()
        };
        let qa = core.create_qp(a, opts_a, cq_a, cq_a);
        let qb = core.create_qp(b, opts_b, cq_b, cq_b);
        core.connect(qa, qb).unwrap();
        (qa, qb)
    };
    let (qa1, _qb1) = mk(&mut core);
    let (qa2, _qb2) = mk(&mut core);
    let (mr_a, _) = core.hosts[a.index()].register_mr(Backing::zeroed(8192));
    let (mr_b, _) = core.hosts[b.index()].register_mr(Backing::zeroed(8192));

    struct Sender {
        qps: Vec<QpId>,
        mr: MrId,
        completions: Vec<Cqe>,
    }
    impl Application for Sender {
        fn on_start(&mut self, api: &mut Api) {
            for (i, &qp) in self.qps.iter().enumerate() {
                api.post_send(
                    qp,
                    WorkRequest::signaled(
                        i as u64,
                        WrOp::Send {
                            local: MrSlice::new(self.mr, 0, 4096),
                            imm: None,
                        },
                    ),
                )
                .unwrap();
            }
        }
        fn on_cqe(&mut self, cqe: &Cqe, _api: &mut Api) {
            self.completions.push(*cqe);
        }
    }
    struct SrqSink {
        srq: SrqId,
        mr: MrId,
        recvs: Vec<u64>,
    }
    impl Application for SrqSink {
        fn on_start(&mut self, api: &mut Api) {
            for i in 0..2 {
                api.post_srq_recv(
                    self.srq,
                    RecvWr {
                        wr_id: 100 + i,
                        local: MrSlice::new(self.mr, i * 4096, 4096),
                    },
                )
                .unwrap();
            }
        }
        fn on_cqe(&mut self, cqe: &Cqe, _api: &mut Api) {
            if cqe.kind == CqeKind::Recv {
                self.recvs.push(cqe.wr_id);
            }
        }
    }
    let sender = Sender {
        qps: vec![qa1, qa2],
        mr: mr_a,
        completions: vec![],
    };
    let sink = SrqSink {
        srq,
        mr: mr_b,
        recvs: vec![],
    };
    let mut sim = build_sim(core, vec![Some(Box::new(sender)), Some(Box::new(sink))]);
    sim.run(horizon());
    let w = sim.world();
    let s: &Sender = w.app(a);
    let k: &SrqSink = w.app(b);
    assert_eq!(s.completions.len(), 2, "both sends complete");
    assert!(s.completions.iter().all(|c| c.ok()));
    // FIFO consumption from the shared queue: wr_ids 100 then 101.
    assert_eq!(k.recvs, vec![100, 101]);
    assert_eq!(w.core.hosts[b.index()].srqs[srq.index()].consumed_total, 2);
}

/// An exhausted SRQ produces RNR exactly like an exhausted per-QP RQ.
#[test]
fn srq_exhaustion_rnrs() {
    let tb = testbed::roce_lan();
    let (mut core, a, b) = two_host_fabric(&tb);
    let cq_a = core.hosts[a.index()].create_cq(ThreadId(0));
    let cq_b = core.hosts[b.index()].create_cq(ThreadId(0));
    let srq = core.hosts[b.index()].create_srq();
    let opts_b = QpOptions {
        srq: Some(srq),
        rnr_retry: 1,
        ..QpOptions::default()
    };
    let opts_a = QpOptions {
        rnr_retry: 1,
        ..QpOptions::default()
    };
    let qa = core.create_qp(a, opts_a, cq_a, cq_a);
    let qb = core.create_qp(b, opts_b, cq_b, cq_b);
    core.connect(qa, qb).unwrap();
    let (mr_a, _) = core.hosts[a.index()].register_mr(Backing::zeroed(4096));

    struct Sender {
        qp: QpId,
        mr: MrId,
        statuses: Vec<rftp_fabric::WcStatus>,
    }
    impl Application for Sender {
        fn on_start(&mut self, api: &mut Api) {
            api.post_send(
                self.qp,
                WorkRequest::signaled(
                    0,
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
    struct Empty;
    impl Application for Empty {
        fn on_cqe(&mut self, _c: &Cqe, _a: &mut Api) {}
    }
    let sender = Sender {
        qp: qa,
        mr: mr_a,
        statuses: vec![],
    };
    let mut sim = build_sim(core, vec![Some(Box::new(sender)), Some(Box::new(Empty))]);
    sim.run(horizon());
    let s: &Sender = sim.world().app(a);
    assert_eq!(s.statuses, vec![rftp_fabric::WcStatus::RnrRetryExceeded]);
}

/// Connection-management misuse is rejected with the right errors.
#[test]
fn connect_error_paths() {
    let tb = testbed::roce_lan();
    let (mut core, a, b) = two_host_fabric(&tb);
    let cq_a = core.hosts[a.index()].create_cq(ThreadId(0));
    let cq_b = core.hosts[b.index()].create_cq(ThreadId(0));

    // Same host.
    let x1 = core.create_qp(a, QpOptions::default(), cq_a, cq_a);
    let x2 = core.create_qp(a, QpOptions::default(), cq_a, cq_a);
    assert_eq!(core.connect(x1, x2), Err(ConnectError::SameHost));

    // UD cannot connect.
    let u = core.create_qp(a, QpOptions::ud(), cq_a, cq_a);
    let r = core.create_qp(b, QpOptions::default(), cq_b, cq_b);
    assert_eq!(core.connect(u, r), Err(ConnectError::NotRc));

    // Double connect.
    let p = core.create_qp(a, QpOptions::default(), cq_a, cq_a);
    let q = core.create_qp(b, QpOptions::default(), cq_b, cq_b);
    core.connect(p, q).unwrap();
    let q2 = core.create_qp(b, QpOptions::default(), cq_b, cq_b);
    assert_eq!(core.connect(p, q2), Err(ConnectError::AlreadyConnected));
}

/// Posting to an unconnected RC QP fails cleanly; RDMA ops on UD are
/// rejected.
#[test]
fn post_misuse_errors() {
    use rftp_fabric::PostError;
    let tb = testbed::roce_lan();
    let (mut core, a, b) = two_host_fabric(&tb);
    let cq_a = core.hosts[a.index()].create_cq(ThreadId(0));
    let unconnected = core.create_qp(a, QpOptions::default(), cq_a, cq_a);
    let ud = core.create_qp(a, QpOptions::ud(), cq_a, cq_a);
    let cq_b = core.hosts[b.index()].create_cq(ThreadId(0));
    let peer_ud = core.create_qp(b, QpOptions::ud(), cq_b, cq_b);
    let (mr_a, _) = core.hosts[a.index()].register_mr(Backing::zeroed(4096));
    let (mr_b, _) = core.hosts[b.index()].register_mr(Backing::zeroed(4096));
    let rkey = core.hosts[b.index()].mr(mr_b).rkey();

    struct Checker {
        unconnected: QpId,
        ud: QpId,
        peer: (rftp_fabric::HostId, QpId),
        mr: MrId,
        rkey: rftp_fabric::Rkey,
    }
    impl Application for Checker {
        fn on_start(&mut self, api: &mut Api) {
            let slice = MrSlice::new(self.mr, 0, 1024);
            // RC post before connect: BadQpState.
            let e = api
                .post_send(
                    self.unconnected,
                    WorkRequest::signaled(
                        0,
                        WrOp::Send {
                            local: slice,
                            imm: None,
                        },
                    ),
                )
                .unwrap_err();
            assert_eq!(e, PostError::BadQpState);
            // RDMA WRITE over UD: unsupported.
            let e = api
                .post_send_ud(
                    self.ud,
                    WorkRequest::signaled(
                        1,
                        WrOp::Write {
                            local: slice,
                            remote: rftp_fabric::RemoteSlice {
                                rkey: self.rkey,
                                offset: 0,
                            },
                            imm: None,
                        },
                    ),
                    self.peer.0,
                    self.peer.1,
                )
                .unwrap_err();
            assert_eq!(e, PostError::OpNotSupported);
            // Bad local MR slice.
            let e = api
                .post_send_ud(
                    self.ud,
                    WorkRequest::signaled(
                        2,
                        WrOp::Send {
                            local: MrSlice::new(self.mr, 4000, 1024),
                            imm: None,
                        },
                    ),
                    self.peer.0,
                    self.peer.1,
                )
                .unwrap_err();
            assert_eq!(e, PostError::BadLocalMr);
        }
        fn on_cqe(&mut self, _c: &Cqe, _a: &mut Api) {}
    }
    struct Empty;
    impl Application for Empty {
        fn on_cqe(&mut self, _c: &Cqe, _a: &mut Api) {}
    }
    let app = Checker {
        unconnected,
        ud,
        peer: (b, peer_ud),
        mr: mr_a,
        rkey,
    };
    let mut sim = build_sim(core, vec![Some(Box::new(app)), Some(Box::new(Empty))]);
    sim.run(horizon());
}

/// CQ moderation: N-coalesced completions cost one interrupt + N-1
/// polls instead of N interrupts.
#[test]
fn cq_moderation_reduces_reap_cost() {
    use rftp_fabric::{RemoteSlice, WcStatus};
    let run = |moderation: u32| -> u64 {
        let tb = testbed::roce_lan();
        let (mut core, a, b) = two_host_fabric(&tb);
        let cq_a = core.hosts[a.index()].create_cq_moderated(ThreadId(0), moderation);
        let cq_b = core.hosts[b.index()].create_cq(ThreadId(0));
        let qa = core.create_qp(a, QpOptions::default(), cq_a, cq_a);
        let qb = core.create_qp(b, QpOptions::default(), cq_b, cq_b);
        core.connect(qa, qb).unwrap();
        let (mr_a, _) = core.hosts[a.index()].register_mr(Backing::Virtual(1 << 20));
        let (mr_b, _) = core.hosts[b.index()].register_mr(Backing::Virtual(1 << 20));
        let rkey = core.hosts[b.index()].mr(mr_b).rkey();

        struct W {
            qp: QpId,
            mr: MrId,
            rkey: rftp_fabric::Rkey,
            n: u64,
            done: u64,
        }
        impl Application for W {
            fn on_start(&mut self, api: &mut Api) {
                for i in 0..self.n {
                    api.post_send(
                        self.qp,
                        WorkRequest::signaled(
                            i,
                            WrOp::Write {
                                local: MrSlice::new(self.mr, 0, 4096),
                                remote: RemoteSlice {
                                    rkey: self.rkey,
                                    offset: 0,
                                },
                                imm: None,
                            },
                        ),
                    )
                    .unwrap();
                }
            }
            fn on_cqe(&mut self, cqe: &Cqe, _api: &mut Api) {
                assert_eq!(cqe.status, WcStatus::Success);
                self.done += 1;
            }
        }
        struct Quiet;
        impl Application for Quiet {
            fn on_cqe(&mut self, _c: &Cqe, _a: &mut Api) {}
        }
        let w = W {
            qp: qa,
            mr: mr_a,
            rkey,
            n: 64,
            done: 0,
        };
        let mut sim = build_sim(core, vec![Some(Box::new(w)), Some(Box::new(Quiet))]);
        sim.run(horizon());
        let world = sim.world();
        let app: &W = world.app(a);
        assert_eq!(app.done, 64);
        world.core.hosts[a.index()].cpu.busy_in_window().nanos()
    };
    let none = run(1);
    let heavy = run(16);
    // 64 completions: 64 interrupts vs 4 interrupts + 60 polls.
    assert!(
        heavy < none * 2 / 3,
        "moderation should cut reap CPU: {heavy} vs {none}"
    );
}
