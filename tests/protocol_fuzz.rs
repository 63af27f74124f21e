//! Protocol fuzz: random-but-legal configurations must always complete
//! byte-exactly. This is the whole-protocol analogue of the per-module
//! property tests — negotiation, credits, dispatch, reassembly, and
//! teardown under arbitrary parameter combinations.

use proptest::prelude::*;
use rftp_core::{build_experiment, CreditMode, NotifyMode, SinkConfig, SourceConfig};
use rftp_netsim::testbed;
use rftp_netsim::time::SimDur;

#[derive(Debug, Clone)]
struct FuzzCfg {
    block_size: u64,
    channels: u16,
    src_pool: u32,
    snk_pool: u32,
    initial_credits: u32,
    grant_per_completion: u32,
    credit_mode: CreditMode,
    notify: NotifyMode,
    loader_threads: u32,
    jobs: Vec<u64>,
    testbed: u8,
}

fn arb_cfg() -> impl Strategy<Value = FuzzCfg> {
    (
        // Block sizes from 4 KB to 4 MB (odd values included).
        4096u64..=4 << 20,
        1u16..=8,
        2u32..=32,
        2u32..=32,
        1u32..=8,
        0u32..=4,
        prop_oneof![Just(CreditMode::Proactive), Just(CreditMode::OnDemand)],
        prop_oneof![Just(NotifyMode::CtrlMsg), Just(NotifyMode::WriteImm)],
        1u32..=3,
        prop::collection::vec(1u64..=8 << 20, 1..=3),
        0u8..2, // LANs only: WAN runs take too long for a fuzz corpus
    )
        .prop_map(
            |(
                block_size,
                channels,
                src_pool,
                snk_pool,
                initial_credits,
                grant_per_completion,
                credit_mode,
                notify,
                loader_threads,
                jobs,
                testbed,
            )| FuzzCfg {
                block_size,
                channels,
                src_pool,
                snk_pool,
                initial_credits,
                grant_per_completion,
                credit_mode,
                notify,
                loader_threads,
                jobs,
                testbed,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    // spec: [P8-fuzz-completes]
    #[test]
    fn any_legal_configuration_completes_byte_exactly(cfg in arb_cfg()) {
        let tb = if cfg.testbed == 0 {
            testbed::roce_lan()
        } else {
            testbed::ib_lan()
        };
        let total: u64 = cfg.jobs.iter().sum();
        let mut src = SourceConfig::new(cfg.block_size, cfg.channels, 0);
        src.jobs = cfg.jobs.clone();
        src.pool_blocks = cfg.src_pool;
        src.notify = cfg.notify;
        src.loader_threads = cfg.loader_threads;
        src.real_data = true;
        let snk = SinkConfig {
            pool_blocks: cfg.snk_pool,
            initial_credits: cfg.initial_credits,
            grant_per_completion: cfg.grant_per_completion,
            credit_mode: cfg.credit_mode,
            real_data: true,
            ..SinkConfig::default()
        };
        let r = build_experiment(&tb, src, snk).run(SimDur::from_secs(36_000));
        prop_assert_eq!(r.source.bytes_sent, total, "cfg: {:?}", cfg);
        prop_assert_eq!(r.sink.bytes_delivered, total);
        prop_assert_eq!(r.sink.checksum_failures, 0);
        prop_assert_eq!(r.source.sessions_completed, cfg.jobs.len() as u32);
        prop_assert_eq!(r.sink.sessions_completed, cfg.jobs.len() as u32);
    }
}
