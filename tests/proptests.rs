//! Property-based tests on the core data structures and invariants.

use proptest::prelude::*;
use rftp_core::wire::{Credit, CtrlMsg, PayloadHeader, CTRL_SLOT_LEN, MAX_CREDITS_PER_MSG};
use rftp_core::{AtomicSinkPool, AtomicSourcePool, CreditStock, PoolGeometry, ReorderBuffer};
use rftp_netsim::link::{Dir, Link};
use rftp_netsim::tcp::{CcAlgo, TcpConfig, TcpFlow};
use rftp_netsim::time::{Bandwidth, SimDur, SimTime};
use rftp_netsim::LatencyHistogram;

fn arb_credit() -> impl Strategy<Value = Credit> {
    (any::<u32>(), any::<u64>(), any::<u64>(), any::<u32>()).prop_map(
        |(slot, rkey, offset, len)| Credit {
            slot,
            rkey,
            offset,
            len,
        },
    )
}

fn arb_ctrl_msg() -> impl Strategy<Value = CtrlMsg> {
    prop_oneof![
        (
            any::<u32>(),
            any::<u64>(),
            any::<u16>(),
            any::<u64>(),
            any::<bool>()
        )
            .prop_map(|(session, block_size, channels, total_bytes, notify_imm)| {
                CtrlMsg::SessionRequest {
                    session,
                    block_size,
                    channels,
                    total_bytes,
                    notify_imm,
                }
            }),
        (
            any::<u32>(),
            any::<u64>(),
            prop::collection::vec(any::<u32>(), 0..=32)
        )
            .prop_map(|(session, block_size, data_qpns)| CtrlMsg::SessionAccept {
                session,
                block_size,
                data_qpns,
            }),
        (any::<u32>(), any::<u8>())
            .prop_map(|(session, reason)| CtrlMsg::SessionReject { session, reason }),
        any::<u32>().prop_map(|session| CtrlMsg::ChannelsReady { session }),
        (
            any::<u32>(),
            prop::collection::vec(arb_credit(), 1..=MAX_CREDITS_PER_MSG)
        )
            .prop_map(|(session, credits)| CtrlMsg::Credits { session, credits }),
        any::<u32>().prop_map(|session| CtrlMsg::MrRequest { session }),
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()).prop_map(
            |(session, seq, slot, len)| CtrlMsg::BlockComplete {
                session,
                seq,
                slot,
                len,
            }
        ),
        (any::<u32>(), any::<u32>()).prop_map(|(session, total_blocks)| {
            CtrlMsg::DatasetComplete {
                session,
                total_blocks,
            }
        }),
    ]
}

proptest! {
    /// Every control message round-trips byte-exactly and fits its slot.
    // spec: [P8-wire-roundtrip]
    #[test]
    fn ctrl_msg_roundtrip(msg in arb_ctrl_msg()) {
        let mut buf = [0u8; CTRL_SLOT_LEN];
        let n = msg.encode(&mut buf);
        prop_assert!(n <= CTRL_SLOT_LEN);
        let back = CtrlMsg::decode(&buf[..n]).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// Payload headers round-trip for arbitrary field values.
    // spec: [P8-wire-roundtrip]
    #[test]
    fn payload_header_roundtrip(session in any::<u32>(), seq in any::<u32>(),
                                offset in any::<u64>(), len in any::<u32>()) {
        let h = PayloadHeader { session, seq, offset, len };
        let mut buf = [0u8; 24];
        h.encode(&mut buf);
        prop_assert_eq!(PayloadHeader::decode(&buf).unwrap(), h);
    }

    /// Decoding arbitrary bytes never panics.
    // spec: [P8-wire-roundtrip]
    #[test]
    fn ctrl_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..CTRL_SLOT_LEN)) {
        let _ = CtrlMsg::decode(&bytes);
        let _ = PayloadHeader::decode(&bytes);
    }

    /// The reorder buffer delivers exactly 0..n in order for any arrival
    /// permutation.
    // spec: [P4.2-stream-in-order] [P8-exactly-once]
    #[test]
    fn reorder_delivers_any_permutation(
        perm in (0u32..64)
            .prop_flat_map(|n| Just((0..n).collect::<Vec<u32>>()).prop_shuffle())
    ) {
        let n = perm.len() as u32;
        let mut r = ReorderBuffer::new();
        let mut delivered = Vec::new();
        for seq in perm {
            for (s, _) in r.push(seq, ()) {
                delivered.push(s);
            }
        }
        prop_assert_eq!(delivered.len() as u32, n);
        prop_assert!(delivered.windows(2).all(|w| w[0] + 1 == w[1]));
        prop_assert!(r.is_drained());
        if n > 0 {
            prop_assert_eq!(delivered[0], 0);
        }
    }

    /// Source pool conservation: across arbitrary operation sequences,
    /// every block is in exactly one state and the free list matches.
    // spec: [P8-blocks-conserved]
    #[test]
    fn source_pool_conserves_blocks(ops in prop::collection::vec(0u8..5, 0..200)) {
        let pool = AtomicSourcePool::new(PoolGeometry::new(4096, 8));
        let mut loading = Vec::new();
        let mut loaded = Vec::new();
        let mut waiting = Vec::new();
        for op in ops {
            match op {
                0 => {
                    if let Some(b) = pool.get_free() {
                        loading.push(b);
                    }
                }
                1 => {
                    if let Some(b) = loading.pop() {
                        pool.loaded(b).unwrap();
                        loaded.push(b);
                    }
                }
                2 => {
                    if let Some(b) = loaded.pop() {
                        pool.start_sending(b).unwrap();
                        pool.posted(b).unwrap();
                        waiting.push(b);
                    }
                }
                3 => {
                    if let Some(b) = waiting.pop() {
                        pool.complete(b).unwrap();
                    }
                }
                _ => {
                    if let Some(b) = waiting.pop() {
                        pool.send_failed(b).unwrap();
                        loaded.push(b);
                    }
                }
            }
            pool.check_invariants();
            let accounted = pool.free_count() + loading.len() + loaded.len() + waiting.len();
            prop_assert_eq!(accounted, 8);
        }
    }

    /// Sink pool: grant/ready/consume/revoke sequences conserve blocks.
    // spec: [P4.3-revoke] [P8-blocks-conserved] [P8-credits-conserved]
    #[test]
    fn sink_pool_conserves_blocks(ops in prop::collection::vec(0u8..4, 0..200)) {
        let pool = AtomicSinkPool::new(PoolGeometry::new(4096, 8));
        let mut waiting = Vec::new();
        let mut ready = Vec::new();
        for op in ops {
            match op {
                0 => {
                    if let Some(b) = pool.grant() {
                        waiting.push(b);
                    }
                }
                1 => {
                    if let Some(b) = waiting.pop() {
                        pool.ready(b).unwrap();
                        ready.push(b);
                    }
                }
                2 => {
                    if let Some(b) = ready.pop() {
                        pool.put_free(b).unwrap();
                    }
                }
                _ => {
                    if let Some(b) = waiting.pop() {
                        pool.revoke(b).unwrap();
                    }
                }
            }
            pool.check_invariants();
            prop_assert_eq!(pool.free_count() + waiting.len() + ready.len(), 8);
        }
    }

    /// Credit stock never loses or invents credits.
    // spec: [P8-credits-conserved]
    #[test]
    fn credit_stock_conserves(deposits in prop::collection::vec(1u32..16, 0..50)) {
        let mut stock = CreditStock::new();
        let mut put = 0u64;
        let mut took = 0u64;
        for (i, n) in deposits.iter().enumerate() {
            stock.deposit((0..*n).map(|k| Credit {
                slot: k,
                rkey: 1,
                offset: 0,
                len: 4096,
            }));
            put += *n as u64;
            if i % 2 == 0 {
                while stock.take().is_some() {
                    took += 1;
                }
            }
        }
        took += std::iter::from_fn(|| stock.take()).count() as u64;
        prop_assert_eq!(put, took);
        prop_assert_eq!(stock.received_total, put);
        prop_assert_eq!(stock.consumed_total, took);
    }

    /// The fluid link never reorders messages in one direction and always
    /// carries exactly the configured rate when saturated.
    #[test]
    fn link_is_fifo_and_rate_exact(sizes in prop::collection::vec(1u64..1_000_000, 1..100)) {
        let mut l = Link::new(Bandwidth::from_gbps(10), SimDur::from_micros(100), 9000);
        let mut last_arrival = SimTime::ZERO;
        let mut total = 0u64;
        let mut last_txend = SimTime::ZERO;
        for &s in &sizes {
            let t = l.transmit(SimTime::ZERO, Dir::AtoB, s);
            prop_assert!(t.arrival >= last_arrival, "FIFO violated");
            last_arrival = t.arrival;
            last_txend = t.tx_end;
            total += s;
        }
        // Back-to-back serialization: total wire time equals bytes/rate
        // within per-message rounding (1 ns each).
        let expect_ns = total as f64 * 8.0 / 10.0; // ns at 10 Gbps
        let got = last_txend.nanos() as f64;
        prop_assert!((got - expect_ns).abs() <= sizes.len() as f64 + 1.0,
                     "rate drift: got {got}, expected {expect_ns}");
    }

    /// TCP invariant: inflight never exceeds min(cwnd, rwnd) + one MSS,
    /// across arbitrary send/ack/loss interleavings.
    #[test]
    fn tcp_window_invariant(events in prop::collection::vec(0u8..3, 1..300)) {
        let cfg = TcpConfig::new(9000, 1 << 20, CcAlgo::Cubic);
        let mut f = TcpFlow::new(cfg);
        let mut now = SimTime::ZERO;
        for e in events {
            now += SimDur::from_micros(100);
            match e {
                0 => {
                    let n = f.available_window().min(9000);
                    if n > 0 {
                        f.on_sent(n);
                        // Sends respect the window at send time (after a
                        // loss, inflight may legitimately exceed the
                        // shrunken window until acks drain it).
                        prop_assert!(f.inflight() <= f.window() + 9000);
                    }
                }
                1 => {
                    let n = f.inflight().min(9000);
                    if n > 0 {
                        f.on_ack(n, now, 0.001);
                    }
                }
                _ => {
                    f.on_loss(now);
                }
            }
            prop_assert!(f.window() <= 1 << 20);
            prop_assert!(f.cwnd_bytes() >= 9000, "cwnd collapsed below 1 MSS");
        }
    }

    /// Histogram quantiles are monotone and bounded by min/max.
    #[test]
    fn histogram_quantiles_monotone(values in prop::collection::vec(1u64..10_000_000, 1..200)) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(SimDur(v));
        }
        let qs = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        let mut prev = SimDur(0);
        for &q in &qs {
            let x = h.quantile(q);
            prop_assert!(x >= prev, "quantiles must be monotone");
            prop_assert!(x >= h.min() && x <= h.max());
            prev = x;
        }
        let lo = *values.iter().min().unwrap();
        let hi = *values.iter().max().unwrap();
        prop_assert_eq!(h.min(), SimDur(lo));
        prop_assert_eq!(h.max(), SimDur(hi));
    }
}
