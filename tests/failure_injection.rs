//! Failure injection: the unhappy paths the protocol must survive (or
//! fail loudly on), exercised end-to-end.

use rftp_core::{build_experiment, ConsumeMode, SinkConfig, SourceConfig, SourceEngine};
use rftp_ioengine::{run_job, JobConfig, Semantics};
use rftp_netsim::time::{SimDur, SimTime};
use rftp_netsim::{testbed, Bandwidth};

const MB: u64 = 1 << 20;
const GB: u64 = 1 << 30;

/// Negotiation rejection: a block size beyond the sink's memory policy
/// fails the session cleanly (SessionReject), not with a hang.
// spec: [P5-reject]
#[test]
fn session_reject_fails_cleanly_and_fast() {
    let tb = testbed::ani_wan();
    let cfg = SourceConfig::new(512 * MB, 1, GB);
    let snk = SinkConfig {
        max_block_size: 16 * MB,
        ..SinkConfig::default()
    };
    let mut e = build_experiment(&tb, cfg, snk);
    let src = e.src;
    e.sim.run_until(SimTime::ZERO + SimDur::from_secs(5), |w| {
        let s: &SourceEngine = w.app(src);
        s.is_finished()
    });
    let s: &SourceEngine = e.sim.world().app(src);
    let failure = s.failure.clone().expect("must fail");
    assert!(failure.contains("rejected"));
    // The rejection round-trips in ~1 RTT, far under a second.
    assert!(e.sim.now() < SimTime::ZERO + SimDur::from_millis(200));
}

/// Channel-count rejection uses its own reason code.
// spec: [P4.1-validate] [P5-reject]
#[test]
fn too_many_channels_rejected() {
    let tb = testbed::roce_lan();
    let cfg = SourceConfig::new(MB, 16, GB);
    let snk = SinkConfig {
        max_channels: 4,
        ..SinkConfig::default()
    };
    let mut e = build_experiment(&tb, cfg, snk);
    let src = e.src;
    e.sim.run_until(SimTime::ZERO + SimDur::from_secs(5), |w| {
        let s: &SourceEngine = w.app(src);
        s.is_finished()
    });
    let s: &SourceEngine = e.sim.world().app(src);
    assert!(s.failure.as_deref().unwrap_or("").contains("reason 2"));
}

/// RNR retry exhaustion kills the queue pair with the right status and
/// flushes everything behind the failed work request (verbs semantics).
// spec: [P5-rnr]
#[test]
fn rnr_exhaustion_is_fatal_and_flushes() {
    use rftp_fabric::{
        build_sim, two_host_fabric, Api, Application, Backing, Cqe, MrSlice, QpId, QpOptions,
        WcStatus, WorkRequest, WrOp,
    };
    let tb = testbed::roce_lan();
    let (mut core, a, b) = two_host_fabric(&tb);
    let cq_a = core.hosts[a.index()].create_cq(rftp_netsim::ThreadId(0));
    let cq_b = core.hosts[b.index()].create_cq(rftp_netsim::ThreadId(0));
    let opts = QpOptions {
        rnr_retry: 1,
        ..QpOptions::default()
    };
    let qa = core.create_qp(a, opts, cq_a, cq_a);
    let qb = core.create_qp(b, opts, cq_b, cq_b);
    core.connect(qa, qb).unwrap();
    let (mr, _) = core.hosts[a.index()].register_mr(Backing::zeroed(1024));

    struct Sender {
        qp: QpId,
        mr: rftp_fabric::MrId,
        statuses: Vec<WcStatus>,
    }
    impl Application for Sender {
        fn on_start(&mut self, api: &mut Api) {
            for i in 0..3 {
                api.post_send(
                    self.qp,
                    WorkRequest::signaled(
                        i,
                        WrOp::Send {
                            local: MrSlice::new(self.mr, 0, 1024),
                            imm: None,
                        },
                    ),
                )
                .unwrap();
            }
        }
        fn on_cqe(&mut self, cqe: &Cqe, _api: &mut Api) {
            self.statuses.push(cqe.status);
        }
    }
    struct NoRecv;
    impl Application for NoRecv {
        fn on_cqe(&mut self, _c: &Cqe, _a: &mut Api) {}
    }
    let mut sim = build_sim(
        core,
        vec![
            Some(Box::new(Sender {
                qp: qa,
                mr,
                statuses: vec![],
            })),
            Some(Box::new(NoRecv)),
        ],
    );
    sim.run(SimTime::ZERO + SimDur::from_secs(30));
    let s: &Sender = sim.world().app(a);
    assert_eq!(s.statuses.len(), 3, "all three WRs must complete");
    assert_eq!(s.statuses[0], WcStatus::RnrRetryExceeded);
    assert!(s.statuses[1..].iter().all(|st| *st == WcStatus::WrFlushed));
}

/// A slow disk at the sink backpressures the source through the credit
/// system instead of overrunning memory: goodput converges to the disk
/// rate and the sink pool never over-allocates.
#[test]
fn slow_disk_backpressure_caps_at_device_rate() {
    let tb = testbed::roce_lan(); // 40G network, 2G disk
    let cfg = SourceConfig::new(4 * MB, 4, 2 * GB).with_pool(32);
    let snk = SinkConfig {
        pool_blocks: 32,
        ctrl_ring_slots: cfg.ctrl_ring_slots,
        consume: ConsumeMode::Disk {
            rate: Bandwidth::from_gbps(2),
            direct_io: true,
        },
        ..SinkConfig::default()
    };
    let r = build_experiment(&tb, cfg, snk).run(SimDur::from_secs(36_000));
    assert!(
        r.goodput_gbps < 2.2,
        "transfer must track the 2 Gbps disk: {:.2}",
        r.goodput_gbps
    );
    assert!(
        r.goodput_gbps > 1.8,
        "but not collapse: {:.2}",
        r.goodput_gbps
    );
    // The source spent nearly the whole run credit-starved — that IS the
    // backpressure signal propagating.
    assert!(r.source.credit_starved.as_secs_f64() > 0.5 * r.elapsed.as_secs_f64());
}

/// A UD-based mover sheds datagrams when the receiver stops posting:
/// data loss is silent, which is exactly why the protocol uses RC.
#[test]
fn ud_sheds_data_when_receiver_lags() {
    let tb = testbed::roce_lan();
    let mut cfg = JobConfig::new(Semantics::UdSend, 8 << 10, 64, 256 * MB);
    cfg.target_slots = Some(8);
    cfg.target_repost_delay = Some(SimDur::from_micros(50));
    let r = run_job(&tb, &cfg);
    assert!(r.drops > 0, "an overwhelmed UD receiver must drop");
    assert!(r.delivered_bytes < r.bytes_moved);
}

/// The RC equivalent of the same overload never loses data — it stalls.
#[test]
fn rc_stalls_instead_of_dropping() {
    let tb = testbed::roce_lan();
    let mut cfg = JobConfig::new(Semantics::SendRecv, 8 << 10, 64, 64 * MB);
    cfg.target_slots = Some(8);
    cfg.target_repost_delay = Some(SimDur::from_micros(50));
    let r = run_job(&tb, &cfg);
    assert_eq!(r.drops, 0);
    assert_eq!(r.delivered_bytes, r.bytes_moved);
    assert!(r.rnr_naks > 0, "the stall shows up as RNR back-off");
}
