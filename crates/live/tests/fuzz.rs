//! Concurrency fuzz for the native-thread pipeline: random legal
//! configurations must complete byte-exactly with strict in-order
//! delivery, under real scheduler nondeterminism.

use proptest::prelude::*;
use rftp_live::{run_live, LiveConfig};

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        // Each case spins up ~10 threads; no shrinking marathon on hangs.
        timeout: 60_000,
    })]

    // spec: [P8-fuzz-completes]
    #[test]
    fn any_legal_live_configuration_completes(
        block_kb in 4u64..=256,
        channels in 1usize..=6,
        loaders in 1usize..=4,
        pool in 2u32..=24,
        depth in 1usize..=8,
        grant in 1u32..=4,
        initial in 1u32..=8,
        ctrl_batch in 1usize..=16,
        blocks in 1u64..=48,
    ) {
        let block_size = (block_kb * 1024) as usize;
        let mut cfg = LiveConfig::new(
            block_size,
            channels,
            blocks * block_size as u64 - (blocks % 3) * 7, // odd tails
        );
        cfg.pool_blocks = pool;
        cfg.loaders = loaders;
        cfg.channel_depth = depth;
        cfg.grant_per_completion = grant;
        cfg.initial_credits = initial;
        cfg.ctrl_batch = ctrl_batch;
        let r = run_live(&cfg);
        prop_assert_eq!(r.checksum_failures, 0);
        prop_assert_eq!(r.blocks, cfg.total_bytes.div_ceil(block_size as u64));
        prop_assert_eq!(r.bytes, cfg.total_bytes);
    }
}
