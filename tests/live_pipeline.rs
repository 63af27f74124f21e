//! The live pipeline under tier-1: `rftp_live::run_live` end to end, at
//! sizes a debug build finishes in a few seconds.
//!
//! There is one live data path (the split halves over a transport), and
//! `run_live` is that path over the in-process transport with the two
//! halves' reports merged — so these runs cover the loaders,
//! dispatcher, watchdog (both its triggers), receivers, sink handler,
//! the one-copy channel transport, and the merge itself.

use rftp_core::engine::pattern_seed;
use rftp_core::pattern::fill_pattern;
use rftp_live::{run_live, run_split_pair, try_run_live, LiveConfig, LiveReport, WanProfile};
use std::time::{Duration, Instant};

#[test]
fn pattern_transfer_with_odd_tail_is_exact() {
    let mut cfg = LiveConfig::new(64 << 10, 2, 32 * (64 << 10) + 777);
    cfg.pool_blocks = 8;
    let r = run_live(&cfg);
    assert_eq!((r.bytes, r.blocks), (cfg.total_bytes, 33));
    assert_eq!(r.checksum_failures, 0);
    assert_eq!((r.dropped_payloads, r.retransmits), (0, 0));
    // Both halves' clocks reach the one report.
    assert!(r.stages.load_ns > 0.0 && r.stages.dispatch_ns > 0.0);
    assert!(r.stages.place_ns > 0.0 && r.stages.verify_ns > 0.0);
    assert!(r.ctrl_msgs > 0);
    assert!(r.adapt.is_none(), "static run must not grow a controller");
}

#[test]
fn seeded_drops_recover_through_the_one_watchdog() {
    let mut cfg = LiveConfig::new(16 << 10, 2, 64 * (16 << 10));
    cfg.pool_blocks = 4;
    cfg.fault_drop_p = 0.2;
    cfg.fault_seed = 7;
    cfg.retx_timeout = Duration::from_millis(10);
    let r = run_live(&cfg);
    assert_eq!((r.bytes, r.blocks), (cfg.total_bytes, 64));
    assert_eq!(r.checksum_failures, 0);
    assert!(r.dropped_payloads >= 1, "fault injector never fired");
    assert!(
        r.retransmits >= r.dropped_payloads,
        "every drop needs a re-send: {} drops, {} retransmits",
        r.dropped_payloads,
        r.retransmits
    );
}

/// The ack-driven trigger on its own (the tier-1 copy of `split.rs`'s
/// `dropped_payloads_recover_from_acks_alone`): the timer's first scan
/// is 2.5 s away, so finishing inside 2 s means every lost block was
/// named by the ack stream and the watchdog was woken by completion.
/// Seed 32 drops 18 first sends (the last is sequence 450 of 512) and
/// none of their re-sends, so nothing is left for the timer.
#[test]
fn seeded_drops_recover_from_acks_alone() {
    acks_alone_recover_every_drop(64);
}

/// The same run through a four-slot pool. A sink that frees in sequence
/// order parks the three arrivals behind a hole and has nothing left to
/// grant, so fewer than three later sends ever reach the hole's channel
/// and every drop waits out the 10 s timer. Retiring slots as they land
/// costs a hole one slot: the other three keep cycling, and the acks
/// name the loss.
#[test]
fn seeded_drops_recover_from_acks_alone_with_a_four_slot_pool() {
    acks_alone_recover_every_drop(4);
}

fn acks_alone_recover_every_drop(pool_blocks: u32) {
    let mut cfg = LiveConfig::new(8 << 10, 2, 4 << 20);
    cfg.pool_blocks = pool_blocks;
    cfg.fault_drop_p = 0.05;
    cfg.fault_seed = 32;
    cfg.retx_timeout = Duration::from_secs(10);
    let t0 = Instant::now();
    let r = run_live(&cfg);
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(2),
        "recovery waited for the timer: {took:?}"
    );
    assert_eq!(r.checksum_failures, 0);
    assert_eq!(r.dropped_payloads, 18);
    assert_eq!(r.retransmits, r.dropped_payloads + r.duplicate_payloads);
    assert_eq!(r.fast_retransmits, r.retransmits);
}

#[test]
fn file_to_file_is_byte_identical() {
    let dir = std::env::temp_dir();
    let src = dir.join(format!("rftp_tier1_{}_src", std::process::id()));
    let dst = dir.join(format!("rftp_tier1_{}_dst", std::process::id()));
    let total = (1usize << 20) + 4321;
    let data: Vec<u8> = (0..total)
        .map(|i| (i as u32).wrapping_mul(0x9E37_79B9).to_le_bytes()[3])
        .collect();
    std::fs::write(&src, &data).expect("write source");

    let mut cfg = LiveConfig::new(64 << 10, 2, total as u64);
    cfg.pool_blocks = 8;
    cfg.src_file = Some(src.clone());
    cfg.dst_file = Some(dst.clone());
    let r = try_run_live(&cfg).expect("transfer failed");
    assert_eq!(r.checksum_failures, 0, "header validation failed");
    assert!(r.stages.flush_ns > 0.0, "write-behind clock never ticked");
    let copied = std::fs::read(&dst).expect("read back");
    std::fs::remove_file(&src).ok();
    std::fs::remove_file(&dst).ok();
    assert!(copied == data, "destination differs from source");
}

/// The sink compares every payload byte with the pattern, so it can fail:
/// a source file holding each block's pattern but one flipped byte (the
/// last, in the ragged tail's partial word) fails exactly that block, and
/// an all-zero file fails every block. Either way the transfer completes
/// and reports the failures; it does not error out.
#[test]
fn the_sink_fails_exactly_the_blocks_that_differ_from_the_pattern() {
    let block = 64 << 10;
    let total = 16 * block + 777;
    let mut data = vec![0u8; total];
    for (seq, chunk) in data.chunks_mut(block).enumerate() {
        fill_pattern(chunk, pattern_seed(1, seq as u32));
    }
    assert_eq!(failures_sending(&data, block, "intact"), 0);
    data[total - 1] ^= 0x01;
    assert_eq!(failures_sending(&data, block, "one_flip"), 1);
    assert_eq!(failures_sending(&vec![0u8; total], block, "zeros"), 17);
}

/// Send `data` from a source file into the verifying (no `dst_file`)
/// sink and return the sink's checksum-failure count.
fn failures_sending(data: &[u8], block: usize, tag: &str) -> u64 {
    let src = std::env::temp_dir().join(format!("rftp_tier1_{}_{tag}", std::process::id()));
    std::fs::write(&src, data).expect("write source");
    let mut cfg = LiveConfig::new(block, 2, data.len() as u64);
    cfg.pool_blocks = 8;
    cfg.src_file = Some(src.clone());
    let r = try_run_live(&cfg);
    std::fs::remove_file(&src).ok();
    let r = r.expect("a failed verification is counted, not an error");
    assert_eq!(r.blocks, data.len().div_ceil(block) as u64);
    r.checksum_failures
}

/// The two things the single-process entry point could never report
/// before it ran on the split halves.
#[test]
fn adaptive_run_reports_controller_state_and_tails() {
    let mut cfg = LiveConfig::new(32 << 10, 2, 64 * (32 << 10));
    cfg.pool_blocks = 8;
    cfg.adaptive = true;
    let r = run_live(&cfg);
    assert_eq!(r.checksum_failures, 0);
    let adapt = r.adapt.expect("adaptive run reports its estimator");
    assert!(adapt.srtt_us > 0.0, "ack loop never sampled");
    assert!(
        adapt.first_block_us > 0.0,
        "sink never marked the first block"
    );
    for (name, h) in [
        ("load", &r.tails.load),
        ("dispatch", &r.tails.dispatch),
        ("place", &r.tails.place),
        ("verify", &r.tails.verify),
    ] {
        assert_eq!(h.count(), r.blocks, "{name} histogram");
    }
}

/// One merge rule for every in-process pair — `try_run_live` and
/// `rftp-live`'s local `--wan` arm alike: through a WAN profile the merged
/// report still carries the source's clock, credit requests and load
/// clock, and the sink's placement, verification and duplicate counts.
#[test]
fn merged_wan_pair_keeps_each_halfs_figures() {
    let wan = WanProfile::parse("roce-lan").unwrap();
    let mut cfg = LiveConfig::new(64 << 10, 2, 64 * (64 << 10));
    cfg.pool_blocks = 8;
    cfg.apply_wan(&wan);
    let (src, snk) = run_split_pair(&cfg, &wan).expect("wan pair");
    let r = LiveReport::merge(src.clone(), snk.clone());
    assert_eq!(r.checksum_failures, 0);
    assert_eq!(r.elapsed, src.elapsed);
    assert_eq!(r.credit_requests, src.credit_requests);
    assert!(r.stages.load_ns > 0.0 && r.stages.load_ns == src.stages.load_ns);
    assert_eq!(r.stages.place_ns, snk.stages.place_ns);
    assert_eq!(r.stages.verify_ns, snk.stages.verify_ns);
    assert_eq!(r.duplicate_payloads, snk.duplicate_payloads);
}
