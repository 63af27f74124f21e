//! Fault-matrix integration tests: scheduled fabric faults against full
//! transfers on the 49 ms WAN. Every plan must end with the dataset
//! delivered byte-exact; the recovery counters must show the protocol
//! actually exercised its retransmit / resume machinery; and an empty
//! plan must be indistinguishable from never having the fault layer.
//!
//! The fabric escalates any fragment loss to a QP error (`RetryExceeded`
//! after the transport retry budget), so link flaps and drop windows
//! exercise the session-resume path; the swallowed-completion fault is
//! the one that exercises the per-block retransmit watchdog.
//!
//! Corruption-sensitive cases run with real (checksummed) payload on a
//! 256 MB dataset of 1 MB blocks — small enough that an unoptimized
//! build fills and verifies it in seconds. The remaining cases only
//! assert on protocol counters and run virtual multi-gigabyte payloads.

use rftp_core::{
    build_experiment, NotifyMode, RecoveryConfig, SinkConfig, SourceConfig, SourceEngine,
    TransferReport,
};
use rftp_fabric::HostId;
use rftp_faults::FaultPlan;
use rftp_netsim::testbed;
use rftp_netsim::time::{SimDur, SimTime};

const MB: u64 = 1 << 20;
const GB: u64 = 1 << 30;

/// Raw fabric indices wired by `build_experiment` (the control pair is
/// created before the in-protocol data channels).
const SRC_CTRL_QP: u32 = 0;
const SNK_CTRL_QP: u32 = 1;
const WAN_LINK: u32 = 0;

fn hour() -> SimDur {
    SimDur::from_secs(3600)
}

fn at(ms: u64) -> SimTime {
    SimTime::ZERO + SimDur::from_millis(ms)
}

fn wan_cfgs(total: u64, block: u64, real_data: bool) -> (SourceConfig, SinkConfig) {
    let mut cfg = SourceConfig::new(block, 4, total);
    cfg.pool_blocks = 64;
    cfg.real_data = real_data;
    let snk = SinkConfig {
        pool_blocks: 64,
        real_data,
        ..SinkConfig::default()
    };
    (cfg, snk)
}

/// Counter-focused run: virtual payload, 4 MB blocks (cheap even in a
/// debug build, so multi-GB datasets keep faults landing mid-transfer).
fn run_with_plan(plan: &FaultPlan, total: u64) -> TransferReport {
    let (cfg, snk) = wan_cfgs(total, 4 * MB, false);
    let mut exp = build_experiment(&testbed::ani_wan(), cfg, snk);
    plan.apply(&mut exp.sim);
    exp.run(hour())
}

/// Byte-verification run: real checksummed payload, 256 MB of 1 MB
/// blocks. The clean transfer finishes in ~500 ms of simulated time, so
/// faults scheduled around 150 ms land mid-stream.
const CHECKED_TOTAL: u64 = 256 * MB;

fn run_checksummed(plan: &FaultPlan) -> TransferReport {
    let (cfg, snk) = wan_cfgs(CHECKED_TOTAL, MB, true);
    let mut exp = build_experiment(&testbed::ani_wan(), cfg, snk);
    plan.apply(&mut exp.sim);
    exp.run(hour())
}

/// The delivered dataset is complete (and, when the run carries real
/// payload, byte-verified). `bytes_sent` counts retransmitted payload
/// too, so under faults it may legitimately exceed the dataset size.
fn assert_delivered(r: &TransferReport, total: u64) {
    assert!(
        r.source.bytes_sent >= total,
        "sent {} < dataset {}",
        r.source.bytes_sent,
        total
    );
    assert_eq!(r.sink.bytes_delivered, total);
    assert_eq!(r.sink.checksum_failures, 0, "payload corrupted in flight");
    assert_eq!(r.source.sessions_completed, 1);
    assert!(r.goodput_gbps > 0.0);
}

/// The recovery machinery (watchdog + always-armed timers) must not
/// perturb a healthy run: stats with recovery enabled, with recovery
/// disabled, and with an empty fault plan applied are all identical.
// spec: [P6-fault-stats] [P8-faults-complete]
#[test]
fn empty_plan_and_recovery_arming_are_byte_identical() {
    let run = |recovery: bool, empty_plan: bool| {
        let mut cfg = SourceConfig::new(4 * MB, 4, 512 * MB);
        cfg.pool_blocks = 64;
        if !recovery {
            cfg.recovery = RecoveryConfig::disabled();
        }
        let snk = SinkConfig {
            pool_blocks: 64,
            recovery,
            ..SinkConfig::default()
        };
        let mut exp = build_experiment(&testbed::ani_wan(), cfg, snk);
        if empty_plan {
            FaultPlan::seeded(0xDEAD_BEEF).apply(&mut exp.sim);
        }
        exp.run(hour())
    };
    let baseline = run(false, false); // the seed behaviour
    for r in [run(true, false), run(true, true)] {
        assert_eq!(r.elapsed, baseline.elapsed);
        assert_eq!(r.source.blocks_sent, baseline.source.blocks_sent);
        assert_eq!(r.source.ctrl_msgs_sent, baseline.source.ctrl_msgs_sent);
        assert_eq!(r.source.credit_requests, baseline.source.credit_requests);
        assert_eq!(r.source.credit_starved, baseline.source.credit_starved);
        assert_eq!(r.source.sq_full_retries, baseline.source.sq_full_retries);
        assert_eq!(r.sink.ooo_blocks, baseline.sink.ooo_blocks);
        assert_eq!(r.sink.credits_granted, baseline.sink.credits_granted);
        assert_eq!(r.source.faults, Default::default());
        assert_eq!(r.sink.faults, Default::default());
    }
}

/// A 200 ms link outage mid-transfer: every in-flight WRITE fails with
/// retry-exceeded; the session resumes once the link returns.
// spec: [P5-fatal-resumes] [P6-void-credits] [P6-resume-request] [P8-faults-complete]
#[test]
fn link_flap_mid_transfer_resumes_and_completes() {
    let clean = run_checksummed(&FaultPlan::new());
    let plan = FaultPlan::new().link_flap(WAN_LINK, at(150), SimDur::from_millis(200));
    let r = run_checksummed(&plan);
    assert_delivered(&r, CHECKED_TOTAL);
    assert!(r.source.faults.qp_errors >= 1, "{:?}", r.source.faults);
    assert!(r.source.faults.reconnects >= 1, "{:?}", r.source.faults);
    assert!(r.sink.faults.reconnects >= 1, "{:?}", r.sink.faults);
    // The source only learns of the outage once the transport retry
    // budget (a few RTTs) expires — by then the link is back, so the
    // *degraded window* (error detected → session resumed) is short;
    // the outage's real cost shows up as lost wall-clock versus a clean
    // run: the 200 ms outage plus ~4 RTTs of loss detection plus the
    // resume handshake.
    assert!(
        r.source.faults.degraded > SimDur::ZERO,
        "{:?}",
        r.source.faults
    );
    assert!(
        r.elapsed >= clean.elapsed + SimDur::from_millis(200),
        "outage cost no time: clean {:?} faulted {:?}",
        clean.elapsed,
        r.elapsed
    );
    // The outage plus resume handshakes cost real time: goodput is
    // degraded relative to the clean WAN run, but far from zero.
    assert!(
        r.goodput_gbps > 0.5 && r.goodput_gbps < 9.0,
        "goodput {:.2} Gbps",
        r.goodput_gbps
    );
}

/// A lossy window (2% per-fragment drop for 150 ms): repeated QP errors
/// and resume churn while the window lasts, clean completion after.
// spec: [P6-reask] [P6-reset-once] [P6-void-credits] [P6-resume-accept] [P6-latest-nonce] [P6-credits-in-transfer] [P8-faults-complete]
#[test]
fn lossy_window_survives_with_degraded_goodput() {
    let plan = FaultPlan::new().drop_window(WAN_LINK, at(150), at(300), 0.02);
    let r = run_checksummed(&plan);
    assert_delivered(&r, CHECKED_TOTAL);
    assert!(r.source.faults.qp_errors >= 1);
    assert!(r.source.faults.reconnects >= 1);
    assert!(
        r.source.faults.retransmits >= 1,
        "resume must have re-sent something: {:?}",
        r.source.faults
    );
    assert!(r.sink.faults.credits_regranted >= 1);
    assert!(r.goodput_gbps > 0.2 && r.goodput_gbps < 9.0);
}

/// Three consecutive flaps; each one forces a fresh resume round.
// spec: [P6-resume-backoff] [P6-reset-once]
#[test]
fn repeated_flaps_resume_each_time() {
    let plan = FaultPlan::new()
        .link_flap(WAN_LINK, at(800), SimDur::from_millis(150))
        .link_flap(WAN_LINK, at(1_700), SimDur::from_millis(150))
        .link_flap(WAN_LINK, at(2_600), SimDur::from_millis(150));
    let r = run_with_plan(&plan, 2 * GB);
    assert_delivered(&r, 2 * GB);
    assert!(
        r.source.faults.reconnects >= 2,
        "each flap lands in a live transfer: {:?}",
        r.source.faults
    );
    assert!(r.source.faults.degraded >= SimDur::from_millis(300));
}

/// The source's control QP dies while the SessionRequest is still in
/// flight: negotiation restarts from scratch (the sink treats the
/// duplicate request idempotently and must not double-grant).
// spec: [P5-fatal-resumes] [P6-reask] [P8-faults-complete]
#[test]
fn qp_kill_during_negotiation_source_side() {
    let plan = FaultPlan::new().qp_kill(SRC_CTRL_QP, at(10));
    let total = 512 * MB;
    let r = run_with_plan(&plan, total);
    assert_delivered(&r, total);
    assert!(r.source.faults.qp_errors >= 1);
    assert!(r.source.faults.reconnects >= 1);
}

/// The sink's control QP dies just after it accepted: early credits and
/// completion notifications are lost both ways until both sides repair.
// spec: [P6-reask] [P6-credits-in-transfer]
#[test]
fn qp_kill_during_negotiation_sink_side() {
    let plan = FaultPlan::new().qp_kill(SNK_CTRL_QP, at(60));
    let total = 512 * MB;
    let r = run_with_plan(&plan, total);
    assert_delivered(&r, total);
    assert!(
        r.source.faults.qp_errors + r.sink.faults.qp_errors >= 1,
        "src {:?} snk {:?}",
        r.source.faults,
        r.sink.faults
    );
}

/// The control QP dies at 90% of the clean run's duration — right around
/// teardown. The resume handshake learns everything already landed and
/// re-drives `DatasetComplete` without re-sending payload wholesale.
// spec: [P6-resume-request] [P6-resume-accept] [P6-duplicate-block] [P8-faults-complete]
#[test]
fn qp_kill_near_teardown_completes_without_redelivery() {
    let total = GB;
    let clean = run_with_plan(&FaultPlan::new(), total);
    let kill_at = clean.source.started_at + SimDur(clean.elapsed.nanos().saturating_mul(9) / 10);
    let plan = FaultPlan::new().qp_kill(SRC_CTRL_QP, kill_at);
    let r = run_with_plan(&plan, total);
    assert_delivered(&r, total);
    assert!(r.source.faults.qp_errors >= 1);
    assert!(r.source.faults.reconnects >= 1);
    // Payload is not re-sent wholesale: at worst the in-flight window
    // (the 64-block pool) goes out twice.
    let unique = total / (4 * MB);
    assert!(
        r.source.blocks_sent - unique <= 64,
        "{} blocks sent for a {}-block dataset",
        r.source.blocks_sent,
        unique
    );
}

/// Swallowed WRITE completions (the lost-CQE fault): the only fault that
/// leaves no QP error behind, so only the retransmit watchdog can save
/// the transfer. The sink must not double-deliver the duplicates.
// spec: [P6-original-credit] [P6-fast] [P6-duplicate-block] [P8-faults-complete]
#[test]
fn swallowed_completions_are_retransmitted() {
    let plan = FaultPlan::new().cqe_drop_window(HostId(0), at(150), at(170));
    let r = run_checksummed(&plan);
    assert_delivered(&r, CHECKED_TOTAL);
    assert!(
        r.source.faults.retransmits >= 1,
        "the watchdog must have re-posted: {:?}",
        r.source.faults
    );
    // The drop window is mid-stream: later completions on each channel
    // name the holes before any timer would.
    assert!(
        r.source.faults.fast_retransmits > 0,
        "the completion order must have named the holes: {:?}",
        r.source.faults
    );
    // The original WRITEs landed (only their completions were eaten), so
    // the retransmitted copies overwrite identical bytes in place and the
    // sink, which only learns of blocks via BlockComplete, sees each
    // block exactly once.
    assert_eq!(r.sink.faults.duplicate_blocks, 0);
    assert_eq!(r.source.faults.qp_errors, 0, "no QP error in this fault");
}

/// A 300 ms NIC transmit freeze delays traffic without dropping any of
/// it; the transfer absorbs the stall without tripping recovery: no QP
/// error, no resume, no duplicate, and at most one window re-posted.
// spec: [P8-faults-complete]
#[test]
fn nic_stall_is_absorbed() {
    let plan = FaultPlan::new().nic_stall(HostId(0), at(1_000), SimDur::from_millis(300));
    let r = run_with_plan(&plan, 2 * GB);
    assert_delivered(&r, 2 * GB);
    assert_eq!(r.sink.checksum_failures, 0);
    assert_eq!(r.source.faults.qp_errors, 0, "{:?}", r.source.faults);
    assert_eq!(r.source.faults.reconnects, 0, "{:?}", r.source.faults);
    assert_eq!(r.sink.faults.duplicate_blocks, 0, "{:?}", r.sink.faults);
    assert!(r.source.faults.retransmits <= 64, "{:?}", r.source.faults);
}

/// The estimator takes the retransmit timeout over from the configured
/// initial one. With a 20 ms `retx_timeout` under the 49 ms RTT, the
/// first window is re-posted before any completion is timed; after that
/// the RTO is at least four RTTs, so a 100 ms NIC stall at 1 s — five
/// initial timeouts of silence on every channel — re-posts nothing more,
/// and every block still completes once.
// spec: [P6-rto]
#[test]
fn the_estimator_takes_over_the_initial_rto() {
    let (mut cfg, snk) = wan_cfgs(2 * GB, 4 * MB, false);
    cfg.recovery.retx_timeout = SimDur::from_millis(20);
    let mut exp = build_experiment(&testbed::ani_wan(), cfg, snk);
    let plan = FaultPlan::new().nic_stall(HostId(0), at(1_000), SimDur::from_millis(100));
    plan.apply(&mut exp.sim);
    let r = exp.run(hour());
    assert_delivered(&r, 2 * GB);
    assert!(
        (1..=64).contains(&r.source.faults.retransmits),
        "only the first window of the 64-block pool is re-posted: {:?}",
        r.source.faults
    );
    assert_eq!(
        r.source.blocks_sent,
        2 * GB / (4 * MB),
        "each block completes once"
    );
    assert_eq!(r.sink.faults.duplicate_blocks, 0);
}

/// Determinism under faults: the same plan replays the same outage and
/// the same recovery, fragment for fragment.
// spec: [P6-fault-stats]
#[test]
fn faulted_runs_are_deterministic() {
    let plan = FaultPlan::new()
        .link_flap(WAN_LINK, at(900), SimDur::from_millis(120))
        .drop_window(WAN_LINK, at(1_500), at(1_800), 0.01);
    let a = run_with_plan(&plan, GB);
    let b = run_with_plan(&plan, GB);
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.source.faults, b.source.faults);
    assert_eq!(a.sink.faults, b.sink.faults);
    assert_eq!(a.source.ctrl_msgs_sent, b.source.ctrl_msgs_sent);
}

/// A retransmit timeout shorter than the 49 ms RTT: the watchdog re-posts
/// blocks whose first WRITE is still in flight on a silent channel, so
/// both copies complete. The first completion frees the block, which is
/// reloaded for a new sequence; the late copy's completion must be
/// ignored rather than complete the new occupant.
// spec: [P6-post-id]
#[test]
fn late_completion_of_a_reposted_block_is_ignored() {
    let (mut cfg, snk) = wan_cfgs(GB, 4 * MB, false);
    cfg.recovery = RecoveryConfig {
        retx_timeout: SimDur::from_millis(20),
        ..RecoveryConfig::default()
    };
    let r = build_experiment(&testbed::ani_wan(), cfg, snk).run(hour());
    assert!(
        r.source.faults.retransmits > 0,
        "the watchdog must have re-posted in-flight blocks: {:?}",
        r.source.faults
    );
    assert_eq!(
        r.source.blocks_sent,
        GB / (4 * MB),
        "each block completes once"
    );
    assert_eq!(r.source.bytes_sent, GB);
}

/// In write-with-immediate mode a lost completion is not re-posted: a
/// second immediate would consume a second receive at the sink and
/// could name a slot it has since recycled. The watchdog resumes the
/// session instead, and the dataset still arrives exactly once.
// spec: [P6-write-imm-resumes]
#[test]
fn write_imm_recovers_swallowed_completions_by_resume() {
    let (mut cfg, snk) = wan_cfgs(CHECKED_TOTAL, MB, true);
    cfg.notify = NotifyMode::WriteImm;
    let mut exp = build_experiment(&testbed::ani_wan(), cfg, snk);
    FaultPlan::new()
        .cqe_drop_window(HostId(0), at(150), at(170))
        .apply(&mut exp.sim);
    let r = exp.run(hour());
    assert_eq!(r.sink.bytes_delivered, CHECKED_TOTAL);
    // A block the resume finds already placed is never re-sent, so its
    // completion may never be seen: the resume counts it as sent.
    assert_eq!(r.source.bytes_sent, CHECKED_TOTAL);
    assert_eq!(r.sink.checksum_failures, 0, "payload corrupted in flight");
    assert_eq!(r.source.sessions_completed, 1);
    assert!(r.source.faults.reconnects >= 1, "{:?}", r.source.faults);
    assert_eq!(
        r.source.faults.fast_retransmits, 0,
        "a WRITE_WITH_IMM was re-posted: {:?}",
        r.source.faults
    );
}

/// The source's end, from `SourceEngine::failure`, of a run against a
/// link that goes down at 150 ms and never comes back.
fn fate_behind_a_dead_link(recovery: RecoveryConfig) -> (Option<String>, u64) {
    let (mut cfg, snk) = wan_cfgs(GB, 4 * MB, false);
    cfg.recovery = recovery;
    let mut exp = build_experiment(&testbed::ani_wan(), cfg, snk);
    FaultPlan::new()
        .link_flap(WAN_LINK, at(150), hour())
        .apply(&mut exp.sim);
    let src = exp.src;
    exp.sim
        .run_until(SimTime::ZERO + SimDur::from_secs(60), |w| {
            w.app::<SourceEngine>(src).is_finished()
        });
    let s: &SourceEngine = exp.sim.world().app(src);
    (s.failure.clone(), s.stats.faults.reconnects)
}

/// With recovery disabled a transport error fails the engine at once,
/// the pre-recovery behaviour.
// spec: [P5-fatal-resumes]
#[test]
fn with_recovery_disabled_a_downed_link_fails_the_source() {
    let (failure, reconnects) = fate_behind_a_dead_link(RecoveryConfig::disabled());
    assert!(failure.is_some(), "the source kept going");
    assert_eq!(reconnects, 0);
}

/// A link that never returns spends the resume budget — back-offs of
/// 10, 20 and 40 ms, then a fourth attempt is refused — and the source
/// fails instead of retrying forever.
// spec: [P6-resume-backoff]
#[test]
fn a_link_that_never_returns_exhausts_the_resume_budget() {
    let (failure, reconnects) = fate_behind_a_dead_link(RecoveryConfig {
        resume_backoff: SimDur::from_millis(10),
        resume_backoff_max: SimDur::from_millis(40),
        max_resume_attempts: 3,
        ..RecoveryConfig::default()
    });
    let failure = failure.expect("the source must give up");
    assert!(failure.contains("resume attempts exhausted"), "{failure}");
    assert_eq!(reconnects, 0);
}
