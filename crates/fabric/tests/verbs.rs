//! End-to-end verbs semantics: two-host scenarios driving the full event
//! machinery (NIC arbitration, wire timing, acks, RNR, read limits).

use rftp_fabric::{
    build_sim, two_host_fabric, Api, Application, Backing, Cqe, CqeKind, FabricCore, HostId, MrId,
    MrSlice, QpId, QpOptions, RecvWr, RemoteSlice, WcStatus, WorkRequest, WrOp,
};
use rftp_netsim::testbed;
use rftp_netsim::time::{SimDur, SimTime};

/// A scripted sender: posts its plan at start, records completions.
struct Sender {
    qp: QpId,
    plan: Vec<WorkRequest>,
    completions: Vec<(SimTime, Cqe)>,
}

impl Application for Sender {
    fn on_start(&mut self, api: &mut Api) {
        for wr in self.plan.clone() {
            api.post_send(self.qp, wr).expect("post_send failed");
        }
    }
    fn on_cqe(&mut self, cqe: &Cqe, api: &mut Api) {
        self.completions.push((api.now(), *cqe));
    }
}

/// A scripted receiver: pre-posts `npost` receive buffers carved from one
/// MR, records completions.
struct Receiver {
    qp: QpId,
    mr: MrId,
    slot: u64,
    npost: u32,
    completions: Vec<(SimTime, Cqe)>,
}

impl Application for Receiver {
    fn on_start(&mut self, api: &mut Api) {
        for i in 0..self.npost {
            api.post_recv(
                self.qp,
                RecvWr {
                    wr_id: i as u64,
                    local: MrSlice::new(self.mr, i as u64 * self.slot, self.slot),
                },
            )
            .expect("post_recv failed");
        }
    }
    fn on_cqe(&mut self, cqe: &Cqe, api: &mut Api) {
        self.completions.push((api.now(), *cqe));
    }
}

/// Wire a connected RC pair on a fresh RoCE-LAN fabric. Returns
/// (core, src host, dst host, src qp, dst qp).
fn rc_pair(opts: QpOptions) -> (FabricCore, HostId, HostId, QpId, QpId) {
    rc_pair_on(&testbed::roce_lan(), opts)
}

fn rc_pair_on(
    tb: &rftp_netsim::Testbed,
    opts: QpOptions,
) -> (FabricCore, HostId, HostId, QpId, QpId) {
    let (mut core, a, b) = two_host_fabric(tb);
    let cq_a = core.hosts[a.index()].create_cq(rftp_netsim::ThreadId(0));
    let cq_b = core.hosts[b.index()].create_cq(rftp_netsim::ThreadId(0));
    let qa = core.create_qp(a, opts, cq_a, cq_a);
    let qb = core.create_qp(b, opts, cq_b, cq_b);
    core.connect(qa, qb).unwrap();
    (core, a, b, qa, qb)
}

fn horizon() -> SimTime {
    SimTime::ZERO + SimDur::from_secs(300)
}

#[test]
fn send_recv_delivers_data_and_completions() {
    let (mut core, a, b, qa, qb) = rc_pair(QpOptions::default());
    let (mr_a, _) = core.hosts[a.index()].register_mr(Backing::zeroed(4096));
    let (mr_b, _) = core.hosts[b.index()].register_mr(Backing::zeroed(4096));
    core.hosts[a.index()].mr_mut(mr_a).fill_pattern(0, 4096, 7);
    let sum = core.hosts[a.index()].mr(mr_a).checksum(0, 4096);

    let sender = Sender {
        qp: qa,
        plan: vec![WorkRequest::signaled(
            42,
            WrOp::Send {
                local: MrSlice::whole(mr_a, 4096),
                imm: Some(0xBEEF),
            },
        )],
        completions: vec![],
    };
    let receiver = Receiver {
        qp: qb,
        mr: mr_b,
        slot: 4096,
        npost: 1,
        completions: vec![],
    };
    let mut sim = build_sim(core, vec![Some(Box::new(sender)), Some(Box::new(receiver))]);
    sim.run(horizon());

    let w = sim.world();
    let s: &Sender = w.app(a);
    let r: &Receiver = w.app(b);
    assert_eq!(s.completions.len(), 1);
    let (t_send, cqe) = s.completions[0];
    assert_eq!(cqe.kind, CqeKind::Send);
    assert!(cqe.ok());
    assert_eq!(cqe.wr_id, 42);
    assert_eq!(r.completions.len(), 1);
    let (t_recv, rcqe) = r.completions[0];
    assert_eq!(rcqe.kind, CqeKind::Recv);
    assert_eq!(rcqe.bytes, 4096);
    assert_eq!(rcqe.imm, Some(0xBEEF));
    // Data arrived intact.
    assert_eq!(w.core.hosts[b.index()].mr(mr_b).checksum(0, 4096), sum);
    // RC: sender's completion requires the ack round trip, so it lands
    // after the receiver's completion was generated (minus CQ poll costs).
    assert!(t_send + SimDur::from_micros(10) > t_recv);
    // Timing sanity: one-way prop is 13 us.
    assert!(t_recv >= SimTime(13_000));
}

#[test]
fn rdma_write_is_invisible_to_target_cpu() {
    let (mut core, a, b, qa, _qb) = rc_pair(QpOptions::default());
    let (mr_a, _) = core.hosts[a.index()].register_mr(Backing::zeroed(8192));
    let (mr_b, _) = core.hosts[b.index()].register_mr(Backing::zeroed(8192));
    core.hosts[a.index()].mr_mut(mr_a).fill_pattern(0, 8192, 3);
    let sum = core.hosts[a.index()].mr(mr_a).checksum(0, 8192);
    let rkey = core.hosts[b.index()].mr(mr_b).rkey();

    let sender = Sender {
        qp: qa,
        plan: vec![WorkRequest::signaled(
            1,
            WrOp::Write {
                local: MrSlice::whole(mr_a, 8192),
                remote: RemoteSlice { rkey, offset: 0 },
                imm: None,
            },
        )],
        completions: vec![],
    };
    // The target application posts nothing and hears nothing.
    struct Passive;
    impl Application for Passive {
        fn on_cqe(&mut self, _c: &Cqe, _a: &mut Api) {
            panic!("one-sided write must not produce target completions");
        }
    }
    let mut sim = build_sim(core, vec![Some(Box::new(sender)), Some(Box::new(Passive))]);
    sim.run(horizon());

    let w = sim.world();
    let s: &Sender = w.app(a);
    assert_eq!(s.completions.len(), 1);
    assert_eq!(s.completions[0].1.kind, CqeKind::RdmaWrite);
    assert!(s.completions[0].1.ok());
    assert_eq!(w.core.hosts[b.index()].mr(mr_b).checksum(0, 8192), sum);
    // Zero CPU consumed at the target: the whole point of one-sided ops.
    assert_eq!(w.core.hosts[b.index()].cpu.busy_in_window(), SimDur::ZERO);
}

#[test]
fn write_with_imm_consumes_rq_and_notifies_sink() {
    let (mut core, a, b, qa, qb) = rc_pair(QpOptions::default());
    let (mr_a, _) = core.hosts[a.index()].register_mr(Backing::zeroed(4096));
    let (mr_b, _) = core.hosts[b.index()].register_mr(Backing::zeroed(4096));
    let (mr_rq, _) = core.hosts[b.index()].register_mr(Backing::zeroed(64));
    let rkey = core.hosts[b.index()].mr(mr_b).rkey();

    let sender = Sender {
        qp: qa,
        plan: vec![WorkRequest::signaled(
            9,
            WrOp::Write {
                local: MrSlice::whole(mr_a, 4096),
                remote: RemoteSlice { rkey, offset: 0 },
                imm: Some(77),
            },
        )],
        completions: vec![],
    };
    let receiver = Receiver {
        qp: qb,
        mr: mr_rq,
        slot: 64,
        npost: 1,
        completions: vec![],
    };
    let mut sim = build_sim(core, vec![Some(Box::new(sender)), Some(Box::new(receiver))]);
    sim.run(horizon());

    let r: &Receiver = sim.world().app(b);
    assert_eq!(r.completions.len(), 1);
    let cqe = r.completions[0].1;
    assert_eq!(cqe.kind, CqeKind::RecvRdmaWithImm);
    assert_eq!(cqe.imm, Some(77));
    assert_eq!(cqe.bytes, 4096);
}

#[test]
fn rdma_read_fetches_remote_data() {
    let (mut core, a, b, qa, _qb) = rc_pair(QpOptions::default());
    let (mr_a, _) = core.hosts[a.index()].register_mr(Backing::zeroed(16384));
    let (mr_b, _) = core.hosts[b.index()].register_mr(Backing::zeroed(16384));
    core.hosts[b.index()]
        .mr_mut(mr_b)
        .fill_pattern(0, 16384, 11);
    let sum = core.hosts[b.index()].mr(mr_b).checksum(0, 16384);
    let rkey = core.hosts[b.index()].mr(mr_b).rkey();

    let sender = Sender {
        qp: qa,
        plan: vec![WorkRequest::signaled(
            5,
            WrOp::Read {
                local: MrSlice::whole(mr_a, 16384),
                remote: RemoteSlice { rkey, offset: 0 },
            },
        )],
        completions: vec![],
    };
    struct Passive;
    impl Application for Passive {
        fn on_cqe(&mut self, _c: &Cqe, _a: &mut Api) {}
    }
    let mut sim = build_sim(core, vec![Some(Box::new(sender)), Some(Box::new(Passive))]);
    sim.run(horizon());

    let w = sim.world();
    let s: &Sender = w.app(a);
    assert_eq!(s.completions.len(), 1);
    assert_eq!(s.completions[0].1.kind, CqeKind::RdmaRead);
    assert!(s.completions[0].1.ok());
    assert_eq!(w.core.hosts[a.index()].mr(mr_a).checksum(0, 16384), sum);
}

// spec: [P5-rnr]
#[test]
fn rnr_retries_until_receiver_posts() {
    // Receiver posts its buffer only after 5 ms; the sender's SEND takes
    // RNR NAKs and back-offs until then, and ultimately succeeds.
    struct LateReceiver {
        qp: QpId,
        mr: MrId,
        completions: Vec<Cqe>,
    }
    impl Application for LateReceiver {
        fn on_start(&mut self, api: &mut Api) {
            let thread = api.thread();
            api.set_timer(thread, SimDur::from_millis(5), 1);
        }
        fn on_wakeup(&mut self, _token: u64, api: &mut Api) {
            api.post_recv(
                self.qp,
                RecvWr {
                    wr_id: 0,
                    local: MrSlice::new(self.mr, 0, 4096),
                },
            )
            .unwrap();
        }
        fn on_cqe(&mut self, cqe: &Cqe, _api: &mut Api) {
            self.completions.push(*cqe);
        }
    }

    let (mut core, a, b, qa, qb) = rc_pair(QpOptions::default());
    let (mr_a, _) = core.hosts[a.index()].register_mr(Backing::zeroed(4096));
    let (mr_b, _) = core.hosts[b.index()].register_mr(Backing::zeroed(4096));
    let sender = Sender {
        qp: qa,
        plan: vec![WorkRequest::signaled(
            1,
            WrOp::Send {
                local: MrSlice::whole(mr_a, 4096),
                imm: None,
            },
        )],
        completions: vec![],
    };
    let receiver = LateReceiver {
        qp: qb,
        mr: mr_b,
        completions: vec![],
    };
    let mut sim = build_sim(core, vec![Some(Box::new(sender)), Some(Box::new(receiver))]);
    sim.run(horizon());

    let w = sim.world();
    let s: &Sender = w.app(a);
    assert_eq!(s.completions.len(), 1, "send must eventually succeed");
    let (t, cqe) = s.completions[0];
    assert!(cqe.ok());
    assert!(
        t >= SimTime(5_000_000),
        "completion can't precede the recv post"
    );
    // RNR NAKs were actually taken (5 ms / 0.64 ms timer ≈ 8 retries).
    assert!(w.core.qps[qa.index()].counters.rnr_naks >= 4);
    let r: &LateReceiver = w.app(b);
    assert_eq!(r.completions.len(), 1);
}

// spec: [P5-rnr]
#[test]
fn rnr_retry_budget_exhaustion_errors_the_qp() {
    let opts = QpOptions {
        rnr_retry: 2, // two retries, then fail
        ..QpOptions::default()
    };
    let (mut core, a, _b, qa, _qb) = rc_pair(opts);
    let (mr_a, _) = core.hosts[a.index()].register_mr(Backing::zeroed(4096));
    let sender = Sender {
        qp: qa,
        plan: vec![
            WorkRequest::signaled(
                1,
                WrOp::Send {
                    local: MrSlice::whole(mr_a, 4096),
                    imm: None,
                },
            ),
            // A second WR that should be flushed when the QP errors.
            WorkRequest::signaled(
                2,
                WrOp::Send {
                    local: MrSlice::whole(mr_a, 4096),
                    imm: None,
                },
            ),
        ],
        completions: vec![],
    };
    struct Never;
    impl Application for Never {
        fn on_cqe(&mut self, _c: &Cqe, _a: &mut Api) {}
    }
    let mut sim = build_sim(core, vec![Some(Box::new(sender)), Some(Box::new(Never))]);
    sim.run(horizon());

    let w = sim.world();
    let s: &Sender = w.app(a);
    assert_eq!(s.completions.len(), 2);
    assert_eq!(s.completions[0].1.status, WcStatus::RnrRetryExceeded);
    assert_eq!(s.completions[1].1.status, WcStatus::WrFlushed);
    assert!(w.core.qps[qa.index()].error);
    assert_eq!(w.core.qps[qa.index()].counters.rnr_retries_exhausted, 1);
}

// spec: [P5-remote-access]
#[test]
fn bad_rkey_faults_with_remote_access_error() {
    let (mut core, a, b, qa, _qb) = rc_pair(QpOptions::default());
    let (mr_a, _) = core.hosts[a.index()].register_mr(Backing::zeroed(4096));
    let (mr_b, _) = core.hosts[b.index()].register_mr(Backing::zeroed(4096));
    let real = core.hosts[b.index()].mr(mr_b).rkey();
    let bogus = rftp_fabric::Rkey::new(real.mr(), real.nonce() ^ 0xFFFF);

    let sender = Sender {
        qp: qa,
        plan: vec![WorkRequest::signaled(
            1,
            WrOp::Write {
                local: MrSlice::whole(mr_a, 4096),
                remote: RemoteSlice {
                    rkey: bogus,
                    offset: 0,
                },
                imm: None,
            },
        )],
        completions: vec![],
    };
    struct Never;
    impl Application for Never {
        fn on_cqe(&mut self, _c: &Cqe, _a: &mut Api) {}
    }
    let mut sim = build_sim(core, vec![Some(Box::new(sender)), Some(Box::new(Never))]);
    sim.run(horizon());

    let s: &Sender = sim.world().app(a);
    assert_eq!(s.completions.len(), 1);
    assert_eq!(s.completions[0].1.status, WcStatus::RemoteAccessError);
    assert!(sim.world().core.qps[qa.index()].error);
}

#[test]
fn max_rd_atomic_serializes_reads() {
    // On a long-latency path, READ throughput is gated by how many
    // requests may be outstanding (`max_rd_atomic`): 8 reads with budget 1
    // pay ~8 RTTs; with budget 8 they pipeline into ~1 RTT. This is the
    // mechanism behind READ's poor WAN performance in the related work
    // the paper cites.
    fn read_time(max_rd_atomic: u32) -> SimTime {
        let opts = QpOptions {
            max_rd_atomic,
            ..QpOptions::default()
        };
        let (mut core, a, b, qa, _qb) = rc_pair_on(&testbed::ani_wan(), opts);
        let blk = 1 << 20;
        let (mr_a, _) = core.hosts[a.index()].register_mr(Backing::Virtual(8 * blk));
        let (mr_b, _) = core.hosts[b.index()].register_mr(Backing::Virtual(8 * blk));
        let rkey = core.hosts[b.index()].mr(mr_b).rkey();
        let plan = (0..8)
            .map(|i| {
                WorkRequest::signaled(
                    i,
                    WrOp::Read {
                        local: MrSlice::new(mr_a, i * blk, blk),
                        remote: RemoteSlice {
                            rkey,
                            offset: i * blk,
                        },
                    },
                )
            })
            .collect();
        let sender = Sender {
            qp: qa,
            plan,
            completions: vec![],
        };
        struct Never;
        impl Application for Never {
            fn on_cqe(&mut self, _c: &Cqe, _a: &mut Api) {}
        }
        let mut sim = build_sim(core, vec![Some(Box::new(sender)), Some(Box::new(Never))]);
        sim.run(horizon());
        let s: &Sender = sim.world().app(a);
        assert_eq!(s.completions.len(), 8);
        s.completions.iter().map(|(t, _)| *t).max().unwrap()
    }

    let serial = read_time(1);
    let parallel = read_time(8);
    assert!(
        serial.nanos() > parallel.nanos() * 3,
        "rd_atomic=1 ({serial}) should be much slower than rd_atomic=8 ({parallel})"
    );
}

#[test]
fn writes_saturate_the_link() {
    // 512 x 1 MB pipelined writes over 40 Gbps: goodput within a few
    // percent of line rate.
    let (mut core, a, b, qa, _qb) = rc_pair(QpOptions::default());
    let blk: u64 = 1 << 20;
    let n: u64 = 512;
    let (mr_a, _) = core.hosts[a.index()].register_mr(Backing::Virtual(n * blk));
    let (mr_b, _) = core.hosts[b.index()].register_mr(Backing::Virtual(n * blk));
    let rkey = core.hosts[b.index()].mr(mr_b).rkey();
    let plan = (0..n)
        .map(|i| {
            WorkRequest::signaled(
                i,
                WrOp::Write {
                    local: MrSlice::new(mr_a, i * blk, blk),
                    remote: RemoteSlice {
                        rkey,
                        offset: i * blk,
                    },
                    imm: None,
                },
            )
        })
        .collect();
    let sender = Sender {
        qp: qa,
        plan,
        completions: vec![],
    };
    struct Never;
    impl Application for Never {
        fn on_cqe(&mut self, _c: &Cqe, _a: &mut Api) {}
    }
    let mut sim = build_sim(core, vec![Some(Box::new(sender)), Some(Box::new(Never))]);
    sim.run(horizon());

    let s: &Sender = sim.world().app(a);
    assert_eq!(s.completions.len(), n as usize);
    let done = s.completions.iter().map(|(t, _)| *t).max().unwrap();
    let gbps = rftp_netsim::gbps(n * blk, done.since(SimTime::ZERO));
    assert!(
        gbps > 38.0 && gbps <= 40.0,
        "expected near-line-rate goodput, got {gbps:.2} Gbps"
    );
}

#[test]
fn ud_drops_silently_without_rq() {
    let tb = testbed::roce_lan();
    let (mut core, a, b) = two_host_fabric(&tb);
    let cq_a = core.hosts[a.index()].create_cq(rftp_netsim::ThreadId(0));
    let cq_b = core.hosts[b.index()].create_cq(rftp_netsim::ThreadId(0));
    let qa = core.create_qp(a, QpOptions::ud(), cq_a, cq_a);
    let qb = core.create_qp(b, QpOptions::ud(), cq_b, cq_b);
    let (mr_a, _) = core.hosts[a.index()].register_mr(Backing::zeroed(4096));

    struct UdSender {
        qp: QpId,
        mr: MrId,
        dst: (HostId, QpId),
        completions: Vec<Cqe>,
    }
    impl Application for UdSender {
        fn on_start(&mut self, api: &mut Api) {
            api.post_send_ud(
                self.qp,
                WorkRequest::signaled(
                    1,
                    WrOp::Send {
                        local: MrSlice::whole(self.mr, 4096),
                        imm: None,
                    },
                ),
                self.dst.0,
                self.dst.1,
            )
            .unwrap();
        }
        fn on_cqe(&mut self, cqe: &Cqe, _api: &mut Api) {
            self.completions.push(*cqe);
        }
    }
    struct Never;
    impl Application for Never {
        fn on_cqe(&mut self, _c: &Cqe, _a: &mut Api) {
            panic!("no RQ posted: UD delivery must drop silently");
        }
    }
    let sender = UdSender {
        qp: qa,
        mr: mr_a,
        dst: (b, qb),
        completions: vec![],
    };
    let mut sim = build_sim(core, vec![Some(Box::new(sender)), Some(Box::new(Never))]);
    sim.run(horizon());

    let w = sim.world();
    let s: &UdSender = w.app(a);
    // UD send completes locally even though the datagram was dropped.
    assert_eq!(s.completions.len(), 1);
    assert!(s.completions[0].ok());
    assert_eq!(w.core.qps[qb.index()].counters.ud_drops, 1);
}

#[test]
fn ud_rejects_oversized_and_rdma_ops() {
    let tb = testbed::roce_lan(); // MTU 9000
    let (mut core, a, b) = two_host_fabric(&tb);
    let cq_a = core.hosts[a.index()].create_cq(rftp_netsim::ThreadId(0));
    let qa = core.create_qp(a, QpOptions::ud(), cq_a, cq_a);
    let cq_b = core.hosts[b.index()].create_cq(rftp_netsim::ThreadId(0));
    let qb = core.create_qp(b, QpOptions::ud(), cq_b, cq_b);
    let (mr_a, _) = core.hosts[a.index()].register_mr(Backing::zeroed(65536));

    struct Checker {
        qp: QpId,
        mr: MrId,
        dst: (HostId, QpId),
    }
    impl Application for Checker {
        fn on_start(&mut self, api: &mut Api) {
            // Over-MTU datagram rejected at post time.
            let err = api
                .post_send_ud(
                    self.qp,
                    WorkRequest::signaled(
                        1,
                        WrOp::Send {
                            local: MrSlice::whole(self.mr, 16384),
                            imm: None,
                        },
                    ),
                    self.dst.0,
                    self.dst.1,
                )
                .unwrap_err();
            assert_eq!(err, rftp_fabric::PostError::OpNotSupported);
        }
        fn on_cqe(&mut self, _c: &Cqe, _a: &mut Api) {}
    }
    struct Never;
    impl Application for Never {
        fn on_cqe(&mut self, _c: &Cqe, _a: &mut Api) {}
    }
    let app = Checker {
        qp: qa,
        mr: mr_a,
        dst: (b, qb),
    };
    let mut sim = build_sim(core, vec![Some(Box::new(app)), Some(Box::new(Never))]);
    sim.run(horizon());
}

#[test]
fn control_messages_overtake_bulk_data_across_qps() {
    // Start a huge write on one QP, then a tiny send on a second QP: the
    // tiny message must arrive long before the bulk write completes
    // (fragment-granularity round-robin).
    let tb = testbed::ani_wan(); // 10 Gbps: 256 MB takes ~214 ms to serialize
    let (mut core, a, b) = two_host_fabric(&tb);
    let cq_a = core.hosts[a.index()].create_cq(rftp_netsim::ThreadId(0));
    let cq_b = core.hosts[b.index()].create_cq(rftp_netsim::ThreadId(0));
    let bulk_a = core.create_qp(a, QpOptions::default(), cq_a, cq_a);
    let bulk_b = core.create_qp(b, QpOptions::default(), cq_b, cq_b);
    core.connect(bulk_a, bulk_b).unwrap();
    let ctl_a = core.create_qp(a, QpOptions::default(), cq_a, cq_a);
    let ctl_b = core.create_qp(b, QpOptions::default(), cq_b, cq_b);
    core.connect(ctl_a, ctl_b).unwrap();

    let big: u64 = 256 << 20;
    let (mr_big_a, _) = core.hosts[a.index()].register_mr(Backing::Virtual(big));
    let (mr_big_b, _) = core.hosts[b.index()].register_mr(Backing::Virtual(big));
    let (mr_small_a, _) = core.hosts[a.index()].register_mr(Backing::zeroed(64));
    let (mr_small_b, _) = core.hosts[b.index()].register_mr(Backing::zeroed(64));
    let rkey = core.hosts[b.index()].mr(mr_big_b).rkey();

    struct TwoQp {
        bulk: QpId,
        ctl: QpId,
        mr_big: MrId,
        mr_small: MrId,
        big: u64,
        rkey: rftp_fabric::Rkey,
        completions: Vec<(SimTime, Cqe)>,
    }
    impl Application for TwoQp {
        fn on_start(&mut self, api: &mut Api) {
            api.post_send(
                self.bulk,
                WorkRequest::signaled(
                    1,
                    WrOp::Write {
                        local: MrSlice::whole(self.mr_big, self.big),
                        remote: RemoteSlice {
                            rkey: self.rkey,
                            offset: 0,
                        },
                        imm: None,
                    },
                ),
            )
            .unwrap();
            api.post_send(
                self.ctl,
                WorkRequest::signaled(
                    2,
                    WrOp::Send {
                        local: MrSlice::whole(self.mr_small, 64),
                        imm: None,
                    },
                ),
            )
            .unwrap();
        }
        fn on_cqe(&mut self, cqe: &Cqe, api: &mut Api) {
            self.completions.push((api.now(), *cqe));
        }
    }
    let src = TwoQp {
        bulk: bulk_a,
        ctl: ctl_a,
        mr_big: mr_big_a,
        mr_small: mr_small_a,
        big,
        rkey,
        completions: vec![],
    };
    let sink = Receiver {
        qp: ctl_b,
        mr: mr_small_b,
        slot: 64,
        npost: 1,
        completions: vec![],
    };
    let _ = mr_big_a;
    let mut sim = build_sim(core, vec![Some(Box::new(src)), Some(Box::new(sink))]);
    sim.run(horizon());

    let w = sim.world();
    let s: &TwoQp = w.app(a);
    let small_done = s
        .completions
        .iter()
        .find(|(_, c)| c.wr_id == 2)
        .expect("small send completed")
        .0;
    let big_done = s
        .completions
        .iter()
        .find(|(_, c)| c.wr_id == 1)
        .expect("bulk write completed")
        .0;
    // 256 MB at 10 Gbps ≈ 214 ms serialization; the 64 B send shares the
    // wire at fragment granularity and must finish within ~RTT + a bit.
    assert!(
        small_done.nanos() < 60_000_000,
        "control message stuck behind bulk: {small_done}"
    );
    assert!(big_done.nanos() > 200_000_000);
}
