//! End-to-end protocol tests: full transfers over the simulated fabric,
//! covering negotiation, credits, reassembly, teardown, and both
//! notification modes, on all three Table I testbeds.

use rftp_core::{
    build_experiment, run_transfer, ConsumeMode, CreditMode, NotifyMode, SinkConfig, SourceConfig,
    TransferReport,
};
use rftp_netsim::testbed;
use rftp_netsim::time::SimDur;

const MB: u64 = 1 << 20;
const GB: u64 = 1 << 30;

fn hour() -> SimDur {
    SimDur::from_secs(3600)
}

// spec: [P4.2-load]
#[test]
fn small_real_transfer_is_byte_exact() {
    let tb = testbed::roce_lan();
    let mut cfg = SourceConfig::new(256 * 1024, 2, 16 * MB);
    cfg.real_data = true;
    cfg.pool_blocks = 8;
    let snk = SinkConfig {
        real_data: true,
        pool_blocks: 8,
        ..SinkConfig::default()
    };
    let r = build_experiment(&tb, cfg, snk).run(hour());
    assert_eq!(r.source.blocks_sent, 64);
    assert_eq!(r.sink.blocks_delivered, 64);
    assert_eq!(r.source.bytes_sent, 16 * MB);
    assert_eq!(r.sink.bytes_delivered, 16 * MB);
    assert_eq!(r.sink.checksum_failures, 0, "payload corrupted in flight");
    assert_eq!(r.source.sessions_completed, 1);
}

#[test]
fn short_tail_block_handled() {
    let tb = testbed::roce_lan();
    // 1 MB + 1000 bytes: the last block is 1000 bytes.
    let mut cfg = SourceConfig::new(MB, 1, MB + 1000);
    cfg.real_data = true;
    cfg.pool_blocks = 4;
    let snk = SinkConfig {
        real_data: true,
        pool_blocks: 4,
        ..SinkConfig::default()
    };
    let r = build_experiment(&tb, cfg, snk).run(hour());
    assert_eq!(r.source.blocks_sent, 2);
    assert_eq!(r.sink.bytes_delivered, MB + 1000);
    assert_eq!(r.sink.checksum_failures, 0);
}

#[test]
fn rftp_saturates_roce_lan() {
    let tb = testbed::roce_lan();
    let mut cfg = SourceConfig::new(4 * MB, 4, 4 * GB);
    cfg.pool_blocks = 64;
    let r = run_transfer(&tb, cfg);
    assert!(
        r.goodput_gbps > 37.0,
        "RFTP should saturate the 40G LAN: {:.2} Gbps",
        r.goodput_gbps
    );
}

#[test]
fn rftp_saturates_ib_lan_at_pcie_ceiling() {
    let tb = testbed::ib_lan();
    let mut cfg = SourceConfig::new(4 * MB, 4, 4 * GB);
    cfg.pool_blocks = 64;
    let r = run_transfer(&tb, cfg);
    assert!(
        r.goodput_gbps > 24.0 && r.goodput_gbps <= 25.6,
        "IB LAN should hit the 25.6G PCIe ceiling: {:.2} Gbps",
        r.goodput_gbps
    );
}

#[test]
fn rftp_fills_the_wan_pipe() {
    // 10 Gbps x 49 ms = 61 MB in flight needed; 64 x 4 MB pools cover it.
    let tb = testbed::ani_wan();
    let mut cfg = SourceConfig::new(4 * MB, 4, 8 * GB);
    cfg.pool_blocks = 64;
    let snk = SinkConfig {
        pool_blocks: 64,
        ..SinkConfig::default()
    };
    let r = build_experiment(&tb, cfg, snk).run(hour());
    assert!(
        r.goodput_gbps > 9.0,
        "RFTP should fill the 10G WAN pipe: {:.2} Gbps",
        r.goodput_gbps
    );
}

// spec: [P4.1-initial-credits] [P4.2-grant-per-completion]
#[test]
fn credit_ramp_is_slow_start_like() {
    let tb = testbed::ani_wan();
    let mut cfg = SourceConfig::new(4 * MB, 4, 2 * GB);
    cfg.pool_blocks = 64;
    let snk = SinkConfig {
        pool_blocks: 64,
        ..SinkConfig::default()
    };
    let r = build_experiment(&tb, cfg, snk).run(hour());
    // The stock must have ramped well beyond the initial 2 credits.
    assert!(
        r.source.max_credit_stock >= 8,
        "credit stock never ramped: max {}",
        r.source.max_credit_stock
    );
    // And the sink granted roughly one credit per block (plus the ramp).
    assert!(r.sink.credits_granted >= r.source.blocks_sent);
}

#[test]
fn proactive_credits_beat_on_demand_on_the_wan() {
    // The paper's argument against Tian et al.'s request/response
    // credits: each refill costs an RTT. At 49 ms that is fatal.
    let tb = testbed::ani_wan();
    let run = |mode: CreditMode| -> TransferReport {
        let mut cfg = SourceConfig::new(4 * MB, 4, 2 * GB);
        cfg.pool_blocks = 64;
        let snk = SinkConfig {
            pool_blocks: 64,
            credit_mode: mode,
            grant_per_request: 8,
            ..SinkConfig::default()
        };
        build_experiment(&tb, cfg, snk).run(hour())
    };
    let proactive = run(CreditMode::Proactive);
    let on_demand = run(CreditMode::OnDemand);
    assert!(
        proactive.goodput_gbps > on_demand.goodput_gbps * 1.5,
        "proactive {:.2} vs on-demand {:.2} Gbps",
        proactive.goodput_gbps,
        on_demand.goodput_gbps
    );
    // On-demand leaves the source starved for credits far longer (each
    // refill costs a WAN round trip).
    assert!(
        on_demand.source.credit_starved.nanos() * 2 > proactive.source.credit_starved.nanos() * 3,
        "starved: on-demand {} vs proactive {}",
        on_demand.source.credit_starved,
        proactive.source.credit_starved
    );
}

// spec: [P4.2-stream-in-order]
#[test]
fn parallel_channels_reorder_out_of_order_blocks() {
    // A short tail block on one of 8 channels serializes faster than the
    // full-size blocks ahead of it on the others, arriving out of order;
    // the sink must hold it and deliver strictly in sequence.
    let tb = testbed::roce_lan();
    let mut cfg = SourceConfig::new(512 * 1024, 8, 256 * MB + 999);
    cfg.real_data = true;
    cfg.pool_blocks = 32;
    let snk = SinkConfig {
        real_data: true,
        pool_blocks: 32,
        ..SinkConfig::default()
    };
    let r = build_experiment(&tb, cfg, snk).run(hour());
    assert_eq!(r.sink.checksum_failures, 0);
    assert!(
        r.sink.ooo_blocks > 0,
        "the short tail should arrive out of order"
    );
    assert!(r.sink.max_reorder_depth >= 1);
    assert_eq!(r.sink.blocks_delivered, 513);
    assert_eq!(r.sink.bytes_delivered, 256 * MB + 999);
}

// spec: [P4.1-reuse] [P4.3-revoke]
#[test]
fn sequential_jobs_reuse_channels_and_memory() {
    let tb = testbed::roce_lan();
    let mut cfg = SourceConfig::new(MB, 2, 0);
    cfg.jobs = vec![64 * MB, 32 * MB, 64 * MB];
    cfg.real_data = true;
    cfg.pool_blocks = 16;
    let snk = SinkConfig {
        real_data: true,
        pool_blocks: 16,
        ..SinkConfig::default()
    };
    let (r, sim) = build_experiment(&tb, cfg, snk).run_keep_world(hour());
    assert_eq!(r.source.sessions_completed, 3);
    assert_eq!(r.sink.sessions_completed, 3);
    assert_eq!(r.sink.bytes_delivered, 160 * MB);
    assert_eq!(r.sink.checksum_failures, 0);
    // Memory-region reuse: the sink registered its pool once (plus the
    // two control rings and the imm dummy), not once per session.
    let sink_host = &sim.world().core.hosts[1];
    assert_eq!(
        sink_host.counters.mr_registrations, 4,
        "sink must reuse its registered pool across sessions"
    );
}

// spec: [P4.1-validate] [P5-reject]
#[test]
fn oversized_block_is_rejected() {
    let tb = testbed::roce_lan();
    let cfg = SourceConfig::new(512 * MB, 1, GB);
    let snk = SinkConfig {
        max_block_size: 64 * MB,
        ..SinkConfig::default()
    };
    let src = {
        let mut e = build_experiment(&tb, cfg, snk);
        let src = e.src;
        e.sim
            .run_until(rftp_netsim::SimTime::ZERO + SimDur::from_secs(10), |w| {
                let s: &rftp_core::SourceEngine = w.app(src);
                s.is_finished()
            });
        let s: &rftp_core::SourceEngine = e.sim.world().app(src);
        s.failure.clone()
    };
    let failure = src.expect("source must observe the rejection");
    assert!(failure.contains("rejected"), "failure: {failure}");
}

// spec: [P1-data-qps] [P4.2-write-imm]
#[test]
fn write_imm_mode_works_end_to_end() {
    let tb = testbed::roce_lan();
    let mut cfg = SourceConfig::new(512 * 1024, 4, 128 * MB);
    cfg.notify = NotifyMode::WriteImm;
    cfg.real_data = true;
    cfg.pool_blocks = 16;
    let snk = SinkConfig {
        real_data: true,
        pool_blocks: 16,
        ..SinkConfig::default()
    };
    let r = build_experiment(&tb, cfg, snk).run(hour());
    assert_eq!(r.sink.blocks_delivered, 256);
    assert_eq!(r.sink.checksum_failures, 0);
    // WriteImm saves the per-block control message from the source: only
    // negotiation, credit requests, and teardown remain.
    assert!(
        r.source.ctrl_msgs_sent < r.source.blocks_sent / 2,
        "WriteImm should not send per-block control messages: {} for {} blocks",
        r.source.ctrl_msgs_sent,
        r.source.blocks_sent
    );
}

#[test]
fn notify_modes_agree_on_goodput() {
    let tb = testbed::roce_lan();
    let run = |mode: NotifyMode| {
        let mut cfg = SourceConfig::new(MB, 4, GB);
        cfg.notify = mode;
        cfg.pool_blocks = 32;
        run_transfer(&tb, cfg).goodput_gbps
    };
    let ctrl = run(NotifyMode::CtrlMsg);
    let imm = run(NotifyMode::WriteImm);
    assert!(
        (ctrl - imm).abs() / ctrl < 0.1,
        "modes should perform comparably at 1 MB blocks: {ctrl:.2} vs {imm:.2}"
    );
}

#[test]
fn disk_sink_matches_null_sink_bandwidth_with_direct_io() {
    // Fig. 11's claim: RFTP maintains the same bandwidth memory-to-disk
    // as memory-to-memory (direct I/O, disk array faster than the WAN).
    let tb = testbed::ani_wan();
    let run = |consume: ConsumeMode| {
        let mut cfg = SourceConfig::new(4 * MB, 4, 4 * GB);
        cfg.pool_blocks = 64;
        let snk = SinkConfig {
            pool_blocks: 64,
            consume,
            ..SinkConfig::default()
        };
        build_experiment(&tb, cfg, snk).run(hour())
    };
    let mem = run(ConsumeMode::Null);
    let disk = run(ConsumeMode::Disk {
        rate: rftp_netsim::Bandwidth::from_gbps(16),
        direct_io: true,
    });
    assert!(
        (mem.goodput_gbps - disk.goodput_gbps).abs() / mem.goodput_gbps < 0.05,
        "disk (direct I/O) should keep up with the WAN: mem {:.2} vs disk {:.2}",
        mem.goodput_gbps,
        disk.goodput_gbps
    );
    // Disk writes cost the server a bit more CPU (paper: "slightly
    // higher CPU usage at the RFTP server").
    assert!(disk.dst_cpu_pct >= mem.dst_cpu_pct);
}

#[test]
fn deterministic_transfers() {
    let tb = testbed::ani_wan();
    let run = || {
        let mut cfg = SourceConfig::new(2 * MB, 4, GB);
        cfg.pool_blocks = 48;
        run_transfer(&tb, cfg)
    };
    let a = run();
    let b = run();
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.source.ctrl_msgs_sent, b.source.ctrl_msgs_sent);
    assert_eq!(a.sink.ooo_blocks, b.sink.ooo_blocks);
}

#[test]
fn cpu_declines_with_block_size_for_rftp() {
    // Fig. 8's RFTP CPU trend: larger blocks, fewer control messages and
    // interrupts, lower CPU.
    let tb = testbed::roce_lan();
    let run = |bs: u64| {
        let mut cfg = SourceConfig::new(bs, 4, 2 * GB);
        cfg.pool_blocks = (256 * MB / bs).clamp(16, 256) as u32;
        let snk = SinkConfig {
            pool_blocks: (256 * MB / bs).clamp(16, 256) as u32,
            ..SinkConfig::default()
        };
        build_experiment(&tb, cfg, snk).run(hour())
    };
    let small = run(256 * 1024);
    let large = run(16 * MB);
    assert!(
        small.src_cpu_pct > large.src_cpu_pct,
        "256K CPU {:.0}% should exceed 16M CPU {:.0}%",
        small.src_cpu_pct,
        large.src_cpu_pct
    );
    // Both saturate the link regardless of block size (RFTP's headline).
    assert!(small.goodput_gbps > 37.0 && large.goodput_gbps > 37.0);
}

#[test]
fn full_duplex_runs_both_directions_at_line_rate() {
    // Host A uploads to B while B uploads to A over the same full-duplex
    // LAN link: both directions should see (near) line rate because the
    // two payload streams serialize on opposite directions of the wire.
    use rftp_core::harness::run_duplex;
    let tb = testbed::roce_lan();
    let mk_src = || {
        let mut c = SourceConfig::new(2 * MB, 2, 512 * MB).with_pool(32);
        c.real_data = true;
        c
    };
    let mk_snk = |ring: u32| SinkConfig {
        pool_blocks: 32,
        ctrl_ring_slots: ring,
        real_data: true,
        ..SinkConfig::default()
    };
    let a_cfg = mk_src();
    let ring = a_cfg.ctrl_ring_slots;
    let r = run_duplex(&tb, a_cfg, mk_snk(ring), mk_src(), mk_snk(ring));
    assert!(
        r.forward_gbps > 34.0,
        "forward {:.2} Gbps should be near line rate",
        r.forward_gbps
    );
    assert!(
        r.reverse_gbps > 34.0,
        "reverse {:.2} Gbps should be near line rate",
        r.reverse_gbps
    );
}

#[test]
fn full_duplex_wan_asymmetric_sizes() {
    use rftp_core::harness::run_duplex;
    let tb = testbed::ani_wan();
    let mut a_cfg = SourceConfig::new(4 * MB, 2, 2 * GB).with_pool(64);
    a_cfg.real_data = false;
    let mut b_cfg = SourceConfig::new(MB, 2, 512 * MB).with_pool(256);
    b_cfg.real_data = false;
    let ring = a_cfg.ctrl_ring_slots.max(b_cfg.ctrl_ring_slots);
    let snk = |pool: u32| SinkConfig {
        pool_blocks: pool,
        ctrl_ring_slots: ring,
        ..SinkConfig::default()
    };
    let r = run_duplex(&tb, a_cfg, snk(256), b_cfg, snk(64));
    assert!(r.forward_gbps > 8.0, "forward {:.2}", r.forward_gbps);
    // The reverse job is short (0.43 s at line rate), so its average
    // includes the whole credit ramp; it must still clear half of line.
    assert!(r.reverse_gbps > 5.0, "reverse {:.2}", r.reverse_gbps);
    assert_eq!(r.forward.bytes_sent, 2 * GB);
    assert_eq!(r.reverse.bytes_sent, 512 * MB);
}

// spec: [P8-fuzz-completes]
#[test]
fn cost_jitter_desynchronizes_channels_into_reordering() {
    // With idealized (zero-jitter) costs, symmetric channels complete in
    // lockstep and nothing reorders; with realistic per-op jitter the
    // channels drift and the sink must genuinely reassemble. Either way
    // the delivered stream is exact.
    let run = |jitter: u32| {
        let mut tb = testbed::roce_lan();
        tb.src_costs.jitter_pct = jitter;
        tb.dst_costs.jitter_pct = jitter;
        let mut cfg = SourceConfig::new(512 * 1024, 8, 128 * MB);
        cfg.real_data = true;
        cfg.pool_blocks = 32;
        let snk = SinkConfig {
            real_data: true,
            pool_blocks: 32,
            ..SinkConfig::default()
        };
        build_experiment(&tb, cfg, snk).run(hour())
    };
    let ideal = run(0);
    let noisy = run(25);
    assert_eq!(ideal.sink.checksum_failures, 0);
    assert_eq!(noisy.sink.checksum_failures, 0);
    assert_eq!(noisy.sink.bytes_delivered, 128 * MB);
    assert!(
        noisy.sink.ooo_blocks > ideal.sink.ooo_blocks,
        "jitter should create reordering: noisy {} vs ideal {}",
        noisy.sink.ooo_blocks,
        ideal.sink.ooo_blocks
    );
    // Throughput is barely affected — reassembly absorbs the disorder.
    assert!((noisy.goodput_gbps - ideal.goodput_gbps).abs() / ideal.goodput_gbps < 0.05);
}

// spec: [P8-fuzz-completes]
#[test]
fn jittered_runs_are_still_deterministic() {
    let run = || {
        let mut tb = testbed::ani_wan();
        tb.src_costs.jitter_pct = 20;
        tb.dst_costs.jitter_pct = 20;
        let cfg = SourceConfig::new(2 * MB, 4, 512 * MB).with_pool(64);
        let snk = SinkConfig {
            pool_blocks: 64,
            ctrl_ring_slots: 256,
            ..SinkConfig::default()
        };
        build_experiment(&tb, cfg, snk).run(hour())
    };
    let a = run();
    let b = run();
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.sink.ooo_blocks, b.sink.ooo_blocks);
    assert_eq!(a.source.ctrl_msgs_sent, b.source.ctrl_msgs_sent);
}

#[test]
fn concurrent_jobs_share_the_link_fairly() {
    // Two independent transfers (own control QPs, pools, sessions) run
    // simultaneously over one 40G LAN link: each gets about half.
    use rftp_core::harness::run_parallel_jobs;
    let tb = testbed::roce_lan();
    let job = || {
        let mut cfg = SourceConfig::new(2 * MB, 2, 2 * GB).with_pool(32);
        cfg.real_data = false;
        let snk = SinkConfig {
            pool_blocks: 32,
            ctrl_ring_slots: cfg.ctrl_ring_slots,
            ..SinkConfig::default()
        };
        (cfg, snk)
    };
    let (stats, elapsed) = run_parallel_jobs(&tb, vec![job(), job()]);
    assert_eq!(stats.len(), 2);
    for s in &stats {
        assert_eq!(s.bytes_sent, 2 * GB);
        let gbps = s.goodput_gbps();
        assert!(
            (15.0..25.0).contains(&gbps),
            "each of two jobs should get roughly half the link: {gbps:.2}"
        );
    }
    // Together they kept the wire full: 4 GB in about 4GB/40Gbps time.
    let total_gbps = rftp_netsim::gbps(4 * GB, elapsed);
    assert!(total_gbps > 37.0, "aggregate {total_gbps:.2}");
}

#[test]
fn four_concurrent_jobs_on_the_wan() {
    use rftp_core::harness::run_parallel_jobs;
    let tb = testbed::ani_wan();
    let job = || {
        let cfg = SourceConfig::new(4 * MB, 1, GB).with_pool(32);
        let snk = SinkConfig {
            pool_blocks: 32,
            ctrl_ring_slots: cfg.ctrl_ring_slots,
            ..SinkConfig::default()
        };
        (cfg, snk)
    };
    let (stats, elapsed) = run_parallel_jobs(&tb, vec![job(), job(), job(), job()]);
    assert_eq!(stats.len(), 4);
    let total: u64 = stats.iter().map(|s| s.bytes_sent).sum();
    assert_eq!(total, 4 * GB);
    let agg = rftp_netsim::gbps(total, elapsed);
    // Four 32-block windows (128 MB each) jointly cover the 2xBDP need.
    assert!(agg > 8.5, "aggregate {agg:.2}");
}

// spec: [P6-timer]
#[test]
fn eight_wan_jobs_queue_past_the_retransmit_timeout_and_complete_exactly_once() {
    // The concurrent_jobs harness's heaviest WAN row: 8 jobs × 58 blocks
    // × 4 MB take ≈ 1.6 s to drain through the 10 Gb/s wire, longer than
    // the 1 s retransmit timeout. A block that is only queued must not be
    // re-posted, and every block completes exactly once.
    use rftp_core::harness::run_parallel_jobs;
    let tb = testbed::ani_wan();
    let pool = ((4 * tb.bdp_bytes()) / (4 * MB)).clamp(16, 1024) as u32;
    assert_eq!(pool, 58);
    let job = || {
        let cfg = SourceConfig::new(4 * MB, 2, GB).with_pool(pool);
        let snk = SinkConfig {
            pool_blocks: pool,
            ctrl_ring_slots: cfg.ctrl_ring_slots,
            ..SinkConfig::default()
        };
        (cfg, snk)
    };
    let queued = rftp_netsim::gbps(8 * pool as u64 * 4 * MB, SimDur::from_secs(1));
    assert!(
        queued > tb.bare_metal.as_gbps(),
        "the queue outlasts the timeout"
    );
    let (stats, _) = run_parallel_jobs(&tb, (0..8).map(|_| job()).collect());
    for s in &stats {
        assert_eq!(s.bytes_sent, GB);
        assert_eq!(s.blocks_sent, 256, "every block completes exactly once");
        assert_eq!(s.faults.retransmits, 0, "queued blocks are not lost");
    }
}

// spec: [P4.1-accept] [P4.2-block-complete] [P4.3-dataset-complete]
#[test]
fn protocol_trace_shows_the_three_phases() {
    let tb = testbed::roce_lan();
    let mut cfg = SourceConfig::new(MB, 2, 8 * MB).with_pool(8);
    cfg.record_trace = true;
    let snk = SinkConfig {
        pool_blocks: 8,
        ctrl_ring_slots: cfg.ctrl_ring_slots,
        record_trace: true,
        ..SinkConfig::default()
    };
    let r = build_experiment(&tb, cfg, snk).run(hour());
    let src_trace = r.source.trace.join("\n");
    let snk_trace = r.sink.trace.join("\n");
    // Phase 1: negotiation.
    assert!(src_trace.contains("src --> SessionRequest"));
    assert!(snk_trace.contains("snk --> SessionAccept"));
    // Phase 2: proactive credits and completion notifications.
    assert!(snk_trace.contains("snk --> Credits"));
    assert!(src_trace.contains("src --> BlockComplete"));
    // Phase 3: teardown.
    assert!(src_trace.contains("src --> DatasetComplete"));
    assert!(snk_trace.contains("snk <-- DatasetComplete"));
    // Ordering: request precedes accept precedes the first notification.
    let pos = |t: &str, pat: &str| t.find(pat).unwrap_or(usize::MAX);
    assert!(pos(&src_trace, "SessionRequest") < pos(&src_trace, "BlockComplete"));
    assert!(pos(&src_trace, "BlockComplete") < pos(&src_trace, "DatasetComplete"));
}
