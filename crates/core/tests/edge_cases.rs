//! Protocol edge cases: degenerate sizes, skewed configurations, and
//! pathological-but-legal parameter combinations must all complete
//! correctly (or fail loudly), never hang.

use rftp_core::{
    build_experiment, CreditMode, NotifyMode, SinkConfig, SourceConfig, TransferReport,
};
use rftp_netsim::testbed;
use rftp_netsim::time::SimDur;

const KB: u64 = 1 << 10;
const MB: u64 = 1 << 20;

fn hour() -> SimDur {
    SimDur::from_secs(3600)
}

fn run(cfg: SourceConfig, snk: SinkConfig) -> TransferReport {
    build_experiment(&testbed::roce_lan(), cfg, snk).run(hour())
}

#[test]
fn one_byte_job() {
    let mut cfg = SourceConfig::new(MB, 1, 1);
    cfg.real_data = true;
    cfg.pool_blocks = 2;
    let snk = SinkConfig {
        real_data: true,
        pool_blocks: 2,
        ..SinkConfig::default()
    };
    let r = run(cfg, snk);
    assert_eq!(r.source.blocks_sent, 1);
    assert_eq!(r.sink.bytes_delivered, 1);
    assert_eq!(r.sink.checksum_failures, 0);
}

#[test]
fn job_smaller_than_block() {
    let mut cfg = SourceConfig::new(4 * MB, 2, 100 * KB);
    cfg.real_data = true;
    let snk = SinkConfig {
        real_data: true,
        ..SinkConfig::default()
    };
    let r = run(cfg, snk);
    assert_eq!(r.source.blocks_sent, 1);
    assert_eq!(r.sink.bytes_delivered, 100 * KB);
    assert_eq!(r.sink.checksum_failures, 0);
}

#[test]
fn block_exactly_divides_job() {
    let mut cfg = SourceConfig::new(MB, 2, 16 * MB);
    cfg.real_data = true;
    let snk = SinkConfig {
        real_data: true,
        ..SinkConfig::default()
    };
    let r = run(cfg, snk);
    assert_eq!(r.source.blocks_sent, 16);
    assert_eq!(r.sink.checksum_failures, 0);
}

#[test]
fn single_block_pool_still_completes() {
    // Pool of 1: the transfer fully serializes (load, send, wait, free).
    let mut cfg = SourceConfig::new(MB, 1, 8 * MB);
    cfg.pool_blocks = 1;
    cfg.loader_threads = 1;
    let snk = SinkConfig {
        pool_blocks: 1,
        initial_credits: 1,
        ..SinkConfig::default()
    };
    let r = run(cfg, snk);
    assert_eq!(r.source.blocks_sent, 8);
    // One block in flight at a time: goodput is latency-bound, tiny.
    assert!(r.goodput_gbps < 30.0);
}

#[test]
fn asymmetric_pools() {
    // Sink pool far smaller than the source's: the sink's 4 blocks
    // gate the pipeline but everything still flows.
    let mut cfg = SourceConfig::new(MB, 4, 64 * MB);
    cfg.pool_blocks = 64;
    cfg.real_data = true;
    let snk = SinkConfig {
        pool_blocks: 4,
        real_data: true,
        ..SinkConfig::default()
    };
    let r = run(cfg, snk);
    assert_eq!(r.sink.bytes_delivered, 64 * MB);
    assert_eq!(r.sink.checksum_failures, 0);
}

#[test]
fn zero_proactive_grants_degenerates_to_request_response() {
    // grant_per_completion = 0 with Proactive mode: only the initial
    // seed and MrRequest-driven grants move credits. Must still finish.
    let mut cfg = SourceConfig::new(MB, 2, 32 * MB);
    cfg.pool_blocks = 16;
    let snk = SinkConfig {
        pool_blocks: 16,
        grant_per_completion: 0,
        grant_per_request: 4,
        ..SinkConfig::default()
    };
    let r = run(cfg, snk);
    assert_eq!(r.source.blocks_sent, 32);
    assert!(
        r.source.credit_requests > 0,
        "requests must carry the transfer when proactive grants are off"
    );
}

#[test]
fn on_demand_with_write_imm() {
    // Mode cross-product corner: RXIO-style credits + immediate
    // notifications.
    let mut cfg = SourceConfig::new(512 * KB, 4, 32 * MB);
    cfg.notify = NotifyMode::WriteImm;
    cfg.real_data = true;
    cfg.pool_blocks = 16;
    let snk = SinkConfig {
        pool_blocks: 16,
        credit_mode: CreditMode::OnDemand,
        real_data: true,
        ..SinkConfig::default()
    };
    let r = run(cfg, snk);
    assert_eq!(r.sink.blocks_delivered, 64);
    assert_eq!(r.sink.checksum_failures, 0);
}

// spec: [P4.1-reuse]
#[test]
fn write_imm_sequential_jobs() {
    let mut cfg = SourceConfig::new(MB, 2, 0);
    cfg.jobs = vec![8 * MB, 8 * MB, 8 * MB];
    cfg.notify = NotifyMode::WriteImm;
    cfg.real_data = true;
    cfg.pool_blocks = 8;
    let snk = SinkConfig {
        pool_blocks: 8,
        real_data: true,
        ..SinkConfig::default()
    };
    let r = run(cfg, snk);
    assert_eq!(r.source.sessions_completed, 3);
    assert_eq!(r.sink.bytes_delivered, 24 * MB);
    assert_eq!(r.sink.checksum_failures, 0);
}

// spec: [P1-ctrl-ring]
#[test]
fn tiny_ctrl_ring_throttles_but_completes() {
    // A deliberately undersized control ring on the WAN: notifications
    // throttle at ring/RTT, so the transfer is slow but correct.
    let tb = testbed::ani_wan();
    let mut cfg = SourceConfig::new(MB, 2, 64 * MB);
    cfg.pool_blocks = 256;
    cfg.ctrl_ring_slots = 8;
    let snk = SinkConfig {
        pool_blocks: 256,
        ctrl_ring_slots: 8,
        ..SinkConfig::default()
    };
    let r = build_experiment(&tb, cfg, snk).run(hour());
    assert_eq!(r.source.blocks_sent, 64);
    // 8-slot ring → ≤ ~8 notifications per RTT → ≤ ~8 MB per 49 ms.
    assert!(
        r.goodput_gbps < 2.0,
        "ring throttling should bite: {:.2}",
        r.goodput_gbps
    );
}

// spec: [P4.1-reuse]
#[test]
fn many_small_jobs() {
    let mut cfg = SourceConfig::new(MB, 2, 0);
    cfg.jobs = vec![3 * MB; 12];
    cfg.real_data = true;
    cfg.pool_blocks = 8;
    let snk = SinkConfig {
        pool_blocks: 8,
        real_data: true,
        ..SinkConfig::default()
    };
    let r = run(cfg, snk);
    assert_eq!(r.source.sessions_completed, 12);
    assert_eq!(r.sink.sessions_completed, 12);
    assert_eq!(r.sink.bytes_delivered, 36 * MB);
    assert_eq!(r.sink.checksum_failures, 0);
}

#[test]
fn single_loader_single_data_thread() {
    let mut cfg = SourceConfig::new(MB, 8, 64 * MB);
    cfg.loader_threads = 1;
    cfg.data_cq_threads = 1;
    let snk = SinkConfig {
        data_cq_threads: 1,
        ..SinkConfig::default()
    };
    let r = run(cfg, snk);
    assert_eq!(r.source.blocks_sent, 64);
}

// spec: [P1-data-qps]
#[test]
fn sixteen_channels() {
    let mut cfg = SourceConfig::new(512 * KB, 16, 64 * MB);
    cfg.real_data = true;
    cfg.pool_blocks = 32;
    let snk = SinkConfig {
        pool_blocks: 32,
        real_data: true,
        ..SinkConfig::default()
    };
    let r = run(cfg, snk);
    assert_eq!(r.sink.checksum_failures, 0);
    assert_eq!(r.sink.blocks_delivered, 128);
}

#[test]
fn goodput_is_consistent_with_elapsed() {
    let cfg = SourceConfig::new(4 * MB, 4, 256 * MB);
    let r = run(cfg, SinkConfig::default());
    let implied = r.source.bytes_sent as f64 * 8.0 / r.elapsed.as_secs_f64() / 1e9;
    assert!((implied - r.goodput_gbps).abs() < 1e-9);
}
