//! The live pipeline: a standalone source half and sink half joined
//! only by a [`crate::transport`].
//!
//! [`run_split_source`] (`source.rs`) runs loaders → dispatcher, a
//! control stage and the retransmit watchdog against a
//! [`SourceTransport`](crate::transport::SourceTransport);
//! [`run_split_sink`] (`sink.rs`) runs per-channel receivers and a
//! control pump → handler against a
//! [`SinkTransport`](crate::transport::SinkTransport); each half may run
//! the adaptive `Controller` (`controller.rs`). Nothing crosses except
//! control frames and data frames. Over the TCP backend ([`crate::net`])
//! the two halves are two OS processes; over the in-process channel
//! backend ([`run_split_pair`]) they are the single-process transfer
//! [`run_live`](crate::run_live) reports on.
//!
//! Every stage of either half is a function started the same way — by
//! `stage` on a scoped thread, or `run_stage` on the caller's: its
//! error trips the half's first-error latch (`Fail`), and what it
//! counted comes back as a `Tally` that the half merges at join into
//! its [`LiveReport`].
//!
//! Every transport sees the same protocol:
//!
//! * **Arrivals are in-band.** An RDMA WRITE is invisible to the sink
//!   CPU, so a verbs sink needs a completion notification to learn a
//!   block landed. Every live transport delivers the bytes *through*
//!   the sink's receiver — each arrival is its own notification, exactly
//!   the WRITE-with-immediate analogue, so the sink always runs
//!   imm-style.
//! * **Acks flow sink → source.** A send completing locally says nothing
//!   about remote placement. The sink acks placed blocks (coalesced
//!   `AckBatch`, its only ack form — one cap and one flush window for
//!   acks and grants alike) and the source retires blocks on those acks.
//! * **Placement is the transport read.** The receiver reads each
//!   frame's wire image straight into the slot its credit named — the
//!   transport hands over the header first, then fills the credited
//!   buffer, so there is no intermediate copy on either side of the wire.
//!
//! * **Slots retire on arrival.** Both consumers a live sink has are
//!   offset-addressed — pattern verification is a function of the
//!   block's own sequence, a file sink `pwrite`s at `seq × block_size`
//!   at placement — so the handler verifies and frees a slot the moment
//!   its block lands, in whatever order that is. A lost frame holds one
//!   slot until its re-send arrives, not the pool behind it; exactly-once
//!   is the receivers' claim-before-copy bitmap plus the handler's
//!   retired-sequence bitmap. (The simulated sink, which feeds a
//!   *stream* consumer, still reassembles in order — §IV.C.)
//!
//! The source still dispatches in sequence order (loaders finish out of
//! order; the dispatcher's reorder buffer puts them back). Against a sink
//! that freed in order this was load-bearing — later sequences taking
//! the last credits while an earlier one lagged filled the pool with
//! blocks the sink could not free, a head-of-line deadlock (DESIGN.md).
//! This sink cannot be wedged that way; ordered dispatch stays because
//! it keeps the unplaced sequences one contiguous window, at most a pool
//! wide. For the same reason a loader takes a block *before* it claims a
//! sequence number.

mod controller;
mod sink;
mod source;

pub(crate) use controller::Controller;
pub use sink::run_split_sink;
pub(crate) use sink::{run_sink_session, FairShare, SinkEvt, SinkFront, SinkSession, SINK_EVENTS};
pub use source::run_split_source;

use crate::hist::StageTails;
use crate::pipeline::{LiveConfig, LiveReport};
use crate::store::{BlockPool, SlotBuf};
use crate::transport::channel_transport;
use parking_lot::Mutex;
use rftp_faults::WanProfile;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::thread::{Scope, ScopedJoinHandle};

pub(crate) fn perr(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, msg.into())
}

/// First-error-wins failure latch shared by every thread of a half.
/// Recording an error tears the transport down ([`SourceTransport::abort`]
/// / [`SinkTransport::abort`]), so peers and siblings blocked on a link
/// error out instead of hanging; lock-free waits poll [`Fail::is_set`].
pub(crate) struct Fail {
    err: OnceLock<io::Error>,
    abort: Arc<dyn Fn() + Send + Sync>,
}

impl Fail {
    pub(crate) fn new(abort: Arc<dyn Fn() + Send + Sync>) -> Fail {
        Fail {
            err: OnceLock::new(),
            abort,
        }
    }

    pub(crate) fn set(&self, e: io::Error) {
        let _ = self.err.set(e);
        (self.abort)();
    }

    pub(crate) fn is_set(&self) -> bool {
        self.err.get().is_some()
    }

    /// The first error recorded, if any.
    pub(crate) fn into_err(self) -> Option<io::Error> {
        self.err.into_inner()
    }
}

/// What a pipeline stage counted and clocked. Each stage thread fills its
/// own and the half merges them at join, so nothing on the per-block path
/// is shared; a half fills the fields its stages own.
#[derive(Default)]
pub(crate) struct Tally {
    /// Control frames sent and received.
    pub(crate) ctrl: u64,
    pub(crate) credit_requests: u64,
    /// Sends the fault injector ate.
    pub(crate) dropped: u64,
    pub(crate) retransmits: u64,
    pub(crate) fast_retransmits: u64,
    /// Arrivals discarded as already placed.
    pub(crate) duplicates: u64,
    pub(crate) checksum_failures: u64,
    /// Blocks retired ahead of the lowest unretired sequence.
    pub(crate) ooo: u64,
    /// Stage clocks, nanoseconds summed over the stage's threads.
    pub(crate) load_ns: u64,
    pub(crate) dispatch_ns: u64,
    pub(crate) place_ns: u64,
    pub(crate) verify_ns: u64,
    pub(crate) flush_ns: u64,
    pub(crate) sync_ns: u64,
    pub(crate) tails: StageTails,
}

impl Tally {
    pub(crate) fn merge(&mut self, o: &Tally) {
        self.ctrl += o.ctrl;
        self.credit_requests += o.credit_requests;
        self.dropped += o.dropped;
        self.retransmits += o.retransmits;
        self.fast_retransmits += o.fast_retransmits;
        self.duplicates += o.duplicates;
        self.checksum_failures += o.checksum_failures;
        self.ooo += o.ooo;
        self.load_ns += o.load_ns;
        self.dispatch_ns += o.dispatch_ns;
        self.place_ns += o.place_ns;
        self.verify_ns += o.verify_ns;
        self.flush_ns += o.flush_ns;
        self.sync_ns += o.sync_ns;
        self.tails.load.merge(&o.tails.load);
        self.tails.dispatch.merge(&o.tails.dispatch);
        self.tails.place.merge(&o.tails.place);
        self.tails.verify.merge(&o.tails.verify);
    }
}

/// How every pipeline stage runs, fails and reports, on the calling
/// thread: an `Err` goes into the first-error latch, and the stage's
/// tally comes back either way. A panic trips the latch too — so the
/// transport is torn down and the siblings and the peer error out instead
/// of waiting on a thread that is gone — and then resumes, to surface
/// where the stage is joined. The body is `FnMut` so what it captures —
/// queue ends above all — drops only once the latch holds its error: a
/// sibling that sees the queue close then finds the root cause already
/// recorded.
pub(crate) fn run_stage(fail: &Fail, mut body: impl FnMut(&mut Tally) -> io::Result<()>) -> Tally {
    let mut tally = Tally::default();
    match panic::catch_unwind(AssertUnwindSafe(|| body(&mut tally))) {
        Ok(Ok(())) => {}
        Ok(Err(e)) => fail.set(e),
        Err(payload) => {
            fail.set(perr("a pipeline thread panicked"));
            panic::resume_unwind(payload);
        }
    }
    tally
}

/// [`run_stage`] on a thread of `scope`.
pub(crate) fn stage<'s>(
    scope: &'s Scope<'s, '_>,
    fail: &'s Fail,
    body: impl FnMut(&mut Tally) -> io::Result<()> + Send + 's,
) -> ScopedJoinHandle<'s, Tally> {
    scope.spawn(move || run_stage(fail, body))
}

/// Run both halves in this process over the in-proc channel transport —
/// the split pipeline's loopback — with `wan` impairing both directions,
/// so control and data feel the profile's full RTT, loss, and rate cap
/// (the in-process form of a two-process `--wan` run; a clean profile
/// wraps nothing). Source takes the `src_file`/fault side of `cfg`, sink
/// the `dst_file` side. Returns `(source, sink)` reports.
pub fn run_split_pair(cfg: &LiveConfig, wan: &WanProfile) -> io::Result<(LiveReport, LiveReport)> {
    let pair = channel_transport(cfg.channels, cfg.channel_depth);
    let (st, kt) = crate::netem::wrap_pair(pair, wan);
    let mut src_cfg = cfg.clone();
    src_cfg.dst_file = None;
    let mut snk_cfg = cfg.clone();
    snk_cfg.src_file = None;
    snk_cfg.src_rate = None;
    snk_cfg.fault_drop_p = 0.0;
    // The sink's pool exists before either half starts, as a listening
    // sink's does in two-process mode. Zeroing it takes tens of
    // milliseconds at megabyte blocks; a source that started its clock
    // while the sink was still allocating would report that wait as
    // transfer time.
    let snk_bufs = BlockPool::new(snk_cfg.pool_blocks, snk_cfg.block_size);
    let view: Vec<&Mutex<SlotBuf>> = snk_bufs.iter().collect();
    std::thread::scope(|s| {
        let sink = s.spawn(|| run_sink_session(&snk_cfg, kt, None, &view, None));
        let source = run_split_source(&src_cfg, st);
        let sink = sink.join().expect("sink half panicked");
        match (source, sink) {
            (Ok(source), Ok(sink)) => Ok((source, sink)),
            // When one half dies the other sees its links hang up
            // (`BrokenPipe`); report the root cause, not its echo.
            (Err(echo), Err(root))
                if echo.kind() == io::ErrorKind::BrokenPipe
                    && root.kind() != io::ErrorKind::BrokenPipe =>
            {
                Err(root)
            }
            (Err(e), _) | (_, Err(e)) => Err(e),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::sink::SinkHandler;
    use super::*;
    use crate::coalesce::CoalescedSink;
    use crate::pipeline::{pattern_seed, MAX_POOL_BLOCKS, SESSION};
    use crate::transport::CtrlTx;
    use rftp_core::pattern::fill_pattern;
    use rftp_core::wire::{CtrlMsg, DataFrameHeader, PayloadHeader, PAYLOAD_HEADER_LEN};
    use std::time::Instant;

    const SCALE: u64 = if cfg!(debug_assertions) { 8 } else { 1 };

    /// The one admission check every receiver shares: a frame outside
    /// the session's geometry is `InvalidData` and claims nothing; a
    /// sequence is admitted once and counted as a duplicate after.
    #[test]
    fn admit_bounds_each_header_field_and_claims_once() {
        let mut cfg = LiveConfig::new(4096, 1, 8 * 4096);
        cfg.pool_blocks = 4;
        let front = SinkFront::open(&cfg).unwrap();
        let mut tally = Tally::default();
        let good = DataFrameHeader {
            session: SESSION,
            seq: 7,
            slot: 3,
            len: 4096,
        };
        let bad = [
            DataFrameHeader {
                session: SESSION + 1,
                ..good
            },
            DataFrameHeader { slot: 4, ..good },
            DataFrameHeader { len: 4097, ..good },
            DataFrameHeader { seq: 8, ..good },
        ];
        for hdr in bad {
            let err = front.admit(&hdr, &mut tally).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{hdr:?}: {err}");
        }
        assert!(front.admit(&good, &mut tally).unwrap(), "first arrival");
        assert!(!front.admit(&good, &mut tally).unwrap(), "second arrival");
        assert_eq!(tally.duplicates, 1);
    }

    #[test]
    fn split_pair_moves_pattern_data_exactly() {
        let mut cfg = LiveConfig::new(64 * 1024, 2, (8 << 20) / SCALE);
        cfg.pool_blocks = 16;
        let (src, snk) = run_split_pair(&cfg, &WanProfile::clean()).expect("split transfer");
        assert_eq!(src.blocks, 128 / SCALE);
        assert_eq!(snk.blocks, 128 / SCALE);
        assert_eq!(snk.checksum_failures, 0);
        assert!(src.ctrl_msgs > 0 && snk.ctrl_msgs > 0);
    }

    #[test]
    fn split_pair_coalesces_control_traffic() {
        let mut cfg = LiveConfig::new(8 * 1024, 4, (8 << 20) / SCALE);
        cfg.pool_blocks = 32;
        cfg.flush_window = std::time::Duration::from_micros(500);
        let (src, snk) = run_split_pair(&cfg, &WanProfile::clean()).expect("split transfer");
        assert_eq!(snk.checksum_failures, 0);
        assert!(
            src.ctrl_msgs_per_block < 1.0,
            "source saw {:.2} ctrl frames per block",
            src.ctrl_msgs_per_block
        );
        assert!(
            snk.ctrl_msgs_per_block < 1.0,
            "sink saw {:.2} ctrl frames per block",
            snk.ctrl_msgs_per_block
        );
    }

    #[test]
    fn split_pair_short_tail_and_single_block() {
        let cfg = LiveConfig::new(64 * 1024, 1, (64 << 10) * 3 + 777);
        let (src, snk) = run_split_pair(&cfg, &WanProfile::clean()).expect("split transfer");
        assert_eq!(src.blocks, 4);
        assert_eq!(snk.checksum_failures, 0);

        let cfg = LiveConfig::new(4096, 1, 4096);
        let (_, snk) = run_split_pair(&cfg, &WanProfile::clean()).expect("split transfer");
        assert_eq!(snk.blocks, 1);
        assert_eq!(snk.checksum_failures, 0);
    }

    /// One payload in four vanishes and the pool is four blocks, so every
    /// block is reused many times while retransmits of its earlier
    /// sequences may still sit on a data link. Over the in-process
    /// transport those stale frames name a block that now holds a newer
    /// sequence; the claim bitmap must discard each of them unread, or a
    /// checksum fails.
    #[test]
    fn split_pair_recovers_dropped_payloads() {
        let mut cfg = LiveConfig::new(32 * 1024, 2, (4 << 20) / SCALE + 777);
        cfg.pool_blocks = 4;
        cfg.fault_drop_p = 0.25;
        cfg.fault_seed = 7;
        cfg.retx_timeout = std::time::Duration::from_millis(5);
        let (src, snk) = run_split_pair(&cfg, &WanProfile::clean()).expect("split transfer");
        assert_eq!(snk.checksum_failures, 0);
        assert_eq!((snk.bytes, snk.blocks), (cfg.total_bytes, 128 / SCALE + 1));
        assert_eq!((src.bytes, src.blocks), (snk.bytes, snk.blocks));
        assert!(src.dropped_payloads >= 1, "fault injector never fired");
        assert!(src.retransmits > 0);
        assert!(
            src.retransmits >= src.dropped_payloads,
            "every drop needs at least one re-send: {} drops, {} retransmits",
            src.dropped_payloads,
            src.retransmits
        );
    }

    /// The `fault_seed` under which the source dispatcher, for every
    /// block, waits between publishing the block's slot and sending the
    /// block until the watchdog's copy of it has been acked.
    pub(super) const STALLED_DISPATCH_SEED: u64 = 0x57A11ED;

    /// The watchdog overtakes a stalled dispatcher: a block is re-sent,
    /// placed and acked before its first send leaves, so its ack
    /// reaches `complete` while the dispatcher still sleeps. The
    /// FSM must already have moved when the slot became visible — when
    /// it moved after, that ack found the block `Loaded`, the control
    /// thread panicked and the transfer hung. The last block stalls too:
    /// its ack ends the transfer and closes the link, so its late first
    /// send fails — on a block already acked, which is not an error.
    #[test]
    fn watchdog_overtaking_a_stalled_dispatcher_is_harmless() {
        let mut cfg = LiveConfig::new(16 * 1024, 2, 8 * 16 * 1024);
        cfg.fault_drop_p = f64::MIN_POSITIVE; // arms the watchdog, drops nothing
        cfg.fault_seed = STALLED_DISPATCH_SEED;
        cfg.retx_timeout = std::time::Duration::from_millis(4);
        let (src, snk) = run_split_pair(&cfg, &WanProfile::clean()).expect("split transfer");
        assert_eq!((snk.blocks, snk.checksum_failures), (8, 0));
        assert_eq!(src.dropped_payloads, 0);
        assert!(
            src.retransmits >= 8,
            "the watchdog sent each stalled block first"
        );
        assert!(
            snk.duplicate_payloads > 0,
            "the late first sends are discarded"
        );
    }

    /// A pipeline thread that panics takes the transfer down with it:
    /// every send is dropped and the deadline is 100 µs, so the watchdog
    /// reaches its `attempts < 64` assert within a second. Both halves
    /// must then end — the source by that panic surfacing at the join (or
    /// an error), the sink with an error — where they used to wait for
    /// ever on acks and frames that could no longer come.
    #[test]
    fn a_panicking_pipeline_thread_fails_both_halves() {
        let mut cfg = LiveConfig::new(16 * 1024, 2, 8 * 16 * 1024);
        cfg.fault_drop_p = 1.0;
        cfg.retx_timeout = std::time::Duration::from_micros(100);
        let (st, kt) = channel_transport(cfg.channels, cfg.channel_depth);
        let (src_tx, src_rx) = std::sync::mpsc::channel();
        let (snk_tx, snk_rx) = std::sync::mpsc::channel();
        let (src_cfg, snk_cfg) = (cfg.clone(), cfg);
        std::thread::spawn(move || {
            let run = std::panic::AssertUnwindSafe(|| run_split_source(&src_cfg, st));
            let _ = src_tx.send(std::panic::catch_unwind(run));
        });
        std::thread::spawn(move || {
            let _ = snk_tx.send(run_split_sink(&snk_cfg, kt, None));
        });
        let deadline = std::time::Duration::from_secs(10);
        let src = src_rx.recv_timeout(deadline).expect("source half hung");
        assert!(!matches!(src, Ok(Ok(_))), "nothing was delivered");
        let snk = snk_rx.recv_timeout(deadline).expect("sink half hung");
        assert!(snk.is_err(), "the sink must fail, not block");
    }

    /// Recovery with the timer out of the picture: one send in twenty
    /// vanishes, the deadline is ten seconds (its first scan would come
    /// at 2.5 s), and the transfer must still finish at once — only the
    /// ack stream can have named the lost blocks, and only completion
    /// waking the watchdog can have let the source return. Seed 32 drops
    /// 18 first sends, the last of them sequence 450 of 512, and none of
    /// their re-sends: every casualty has well over three later sends
    /// behind it on its channel, which is exactly the case the inference
    /// covers. (A tail drop is the timer's, and so is a lost re-send that
    /// went out after the stalled source had spent its last credit — at
    /// zero RTT that is a race, so the seed avoids both.)
    #[test]
    fn dropped_payloads_recover_from_acks_alone() {
        let mut cfg = LiveConfig::new(8 * 1024, 2, 4 << 20);
        cfg.pool_blocks = 64;
        cfg.fault_drop_p = 0.05;
        cfg.fault_seed = 32;
        cfg.retx_timeout = std::time::Duration::from_secs(10);
        let t0 = Instant::now();
        let (src, snk) = run_split_pair(&cfg, &WanProfile::clean()).expect("split transfer");
        let took = t0.elapsed();
        assert!(
            took < std::time::Duration::from_secs(2),
            "recovery waited for the timer: {took:?}"
        );
        assert_eq!(snk.checksum_failures, 0);
        assert_eq!((snk.bytes, snk.blocks), (cfg.total_bytes, 512));
        assert_eq!(src.dropped_payloads, 18, "first sends only");
        assert_eq!(
            src.retransmits,
            src.dropped_payloads + snk.duplicate_payloads,
            "a re-send replaces a lost frame or is discarded as a duplicate"
        );
        assert_eq!(src.fast_retransmits, src.retransmits, "the timer never ran");
    }

    /// Loss from the impairment shim instead of the injector, over a
    /// 20 ms path with the adaptive controller running. Neither half can
    /// see what the shim ate, but the books still close: every arrival
    /// beyond one per block is a discarded duplicate, so `retransmits −
    /// duplicates` is what was lost. The ack trigger never fires on a
    /// block that is merely late, so every duplicate must be the timer's
    /// (a scheduling stall past the deadline re-sends healthy blocks).
    #[test]
    fn shim_loss_recovers_with_exact_accounting() {
        let wan = rftp_faults::WanProfile::parse("rtt=20ms,drop=0.02,seed=5").unwrap();
        let mut cfg = LiveConfig::new(16 * 1024, 2, 8 << 20);
        cfg.pool_blocks = 64;
        cfg.apply_wan(&wan);
        let (src, snk) = run_split_pair(&cfg, &wan).expect("wan transfer");
        assert_eq!(snk.checksum_failures, 0);
        assert_eq!(snk.blocks, 512);
        assert_eq!(
            src.dropped_payloads, 0,
            "the injector is off; the shim drops"
        );
        assert!(src.retransmits > 0, "2% of 512 frames dropped nothing");
        assert!(
            snk.duplicate_payloads <= src.retransmits - src.fast_retransmits,
            "{} re-sends ({} ack-driven), {} of them duplicates",
            src.retransmits,
            src.fast_retransmits,
            snk.duplicate_payloads
        );
        assert!(
            src.fast_retransmits > 0,
            "mid-transfer drops must be recovered from the acks"
        );
    }

    /// A control link that keeps what the handler sends.
    #[derive(Default)]
    struct Sent(Mutex<Vec<CtrlMsg>>);

    impl CtrlTx for Sent {
        fn send(&self, msg: &CtrlMsg) -> io::Result<()> {
            self.0.lock().push(msg.clone());
            Ok(())
        }
    }

    impl Sent {
        /// Slots granted since the last call, in grant order.
        fn take_granted(&self) -> Vec<u32> {
            self.0
                .lock()
                .drain(..)
                .filter_map(|m| match m {
                    CtrlMsg::CreditBatch { slots, .. } => Some(slots),
                    _ => None,
                })
                .flatten()
                .collect()
        }
    }

    /// Put sequence `seq` of a pattern transfer into `slot`, as a
    /// receiver would have, and announce it.
    fn arrive(h: &mut SinkHandler, bufs: &BlockPool, seq: u32, slot: u32) -> io::Result<()> {
        let len = h.cfg.block_size as u32;
        {
            let mut buf = bufs[slot as usize].lock();
            PayloadHeader {
                session: SESSION,
                seq,
                offset: seq as u64 * len as u64,
                len,
            }
            .encode(&mut buf[..PAYLOAD_HEADER_LEN]);
            fill_pattern(
                &mut buf[PAYLOAD_HEADER_LEN..PAYLOAD_HEADER_LEN + len as usize],
                pattern_seed(seq),
            );
        }
        h.handle(SinkEvt::Arrival { seq, slot, len })
    }

    /// A four-block transfer into a four-slot pool with sequence 0
    /// missing: the three blocks behind the hole must hand their slots
    /// back as they land (a sink that frees in order parks all three and
    /// answers the credit request with nothing), and the transfer still
    /// completes exactly when the hole fills.
    #[test]
    fn slots_behind_a_hole_retire_and_are_granted_again() {
        let mut cfg = LiveConfig::new(4096, 1, 4 * 4096);
        cfg.pool_blocks = 4;
        cfg.initial_credits = 4;
        cfg.grant_per_completion = 0; // grants only on request: the free list is observable
        let bufs = BlockPool::new(cfg.pool_blocks, cfg.block_size);
        let sent = Sent::default();
        let view: Vec<&Mutex<SlotBuf>> = bufs.iter().collect();
        let sess = SinkSession::open(&cfg, view.len()).unwrap();
        let (snk_pool, mut h) = (&sess.snk_pool, sess.handler(&sent, &view, None));

        h.handle(SinkEvt::Ctrl(CtrlMsg::SessionRequest {
            session: SESSION,
            block_size: 4096,
            channels: 1,
            total_bytes: cfg.total_bytes,
            notify_imm: true,
        }))
        .unwrap();
        let granted = sent.take_granted();
        assert_eq!(granted.len(), 4);
        assert_eq!(snk_pool.free_count(), 0);

        // Sequence 0 rode granted[0] and was lost; 1, 2, 3 land.
        for seq in 1..4 {
            arrive(&mut h, &bufs, seq, granted[seq as usize]).unwrap();
        }
        assert_eq!(snk_pool.free_count(), 3, "the hole holds one slot");
        assert_eq!(
            (h.delivered, h.tally.ooo, h.tally.checksum_failures),
            (3, 3, 0)
        );
        h.handle(SinkEvt::Ctrl(CtrlMsg::MrRequest { session: SESSION }))
            .unwrap();
        let mut regranted = sent.take_granted();
        regranted.sort_unstable();
        let mut freed = granted[1..].to_vec();
        freed.sort_unstable();
        assert_eq!(regranted, freed, "freed slots go straight back out");

        h.handle(SinkEvt::Ctrl(CtrlMsg::DatasetComplete {
            session: SESSION,
            total_blocks: 4,
        }))
        .unwrap();
        assert!(!h.done(), "sequence 0 is still missing");
        arrive(&mut h, &bufs, 0, granted[0]).unwrap();
        assert!(h.done());
        assert_eq!(
            (h.delivered, h.tally.ooo, h.tally.checksum_failures),
            (4, 3, 0)
        );

        // Exactly-once, online: the same sequence in a freshly granted
        // slot is refused, not counted.
        let err = arrive(&mut h, &bufs, 2, regranted[0]).expect_err("second retirement");
        assert!(err.to_string().contains("retired twice"), "{err}");
        assert_eq!(h.delivered, 4);
    }

    /// Retire-on-arrival under everything a WAN does to order — loss,
    /// re-sends and deliberate reordering on a 20 ms path — with the file
    /// sink as consumer: blocks are freed in whatever order they land and
    /// the destination must still equal the source byte for byte.
    #[test]
    fn lossy_reordering_wan_with_a_file_sink_is_byte_exact() {
        let dir = std::env::temp_dir();
        let src = dir.join(format!("rftp_split_{}_wan_src", std::process::id()));
        let dst = dir.join(format!("rftp_split_{}_wan_dst", std::process::id()));
        let total = (4usize << 20) + 1234;
        let data: Vec<u8> = (0..total)
            .map(|i| (i as u32).wrapping_mul(0x9E37_79B9).to_le_bytes()[3])
            .collect();
        std::fs::write(&src, &data).expect("write source");

        let wan = rftp_faults::WanProfile::parse("rtt=20ms,drop=0.02,reorder=0.2,seed=9").unwrap();
        let mut cfg = LiveConfig::new(16 * 1024, 2, total as u64);
        cfg.pool_blocks = 32;
        cfg.src_file = Some(src.clone());
        cfg.dst_file = Some(dst.clone());
        cfg.apply_wan(&wan);
        let out = run_split_pair(&cfg, &wan);
        let copied = std::fs::read(&dst);
        std::fs::remove_file(&src).ok();
        std::fs::remove_file(&dst).ok();
        let (src_r, snk_r) = out.expect("wan transfer");
        assert_eq!(snk_r.checksum_failures, 0, "header validation failed");
        assert!(src_r.retransmits > 0, "2% of 257 frames dropped nothing");
        assert!(snk_r.ooo_blocks > 0, "nothing arrived out of order");
        assert!(copied.expect("read back") == data, "destination differs");
    }

    #[test]
    fn split_pair_repeated_runs_are_clean() {
        for i in 0..6 {
            let mut cfg = LiveConfig::new(32 * 1024, 3, (4 << 20) / SCALE);
            cfg.pool_blocks = 8;
            cfg.loaders = 3;
            let (_, snk) = run_split_pair(&cfg, &WanProfile::clean()).expect("split transfer");
            assert_eq!(snk.checksum_failures, 0, "iteration {i}");
        }
    }

    /// The watchdog regression ISSUE 10 names: at 49 ms RTT a clean
    /// transfer must finish with **zero** retransmits. A fixed 100 ms
    /// deadline survives this; the adaptive deadline must too, even
    /// after `rttvar` has decayed and the RTO has tightened onto `srtt`.
    #[test]
    fn adaptive_clean_wan_run_performs_zero_retransmits() {
        let wan = rftp_faults::WanProfile::parse("rtt=49ms").unwrap();
        let mut cfg = LiveConfig::new(64 * 1024, 2, 2 << 20);
        cfg.pool_blocks = 16;
        cfg.apply_wan(&wan);
        assert!(cfg.adaptive);
        let (src, snk) = run_split_pair(&cfg, &wan).expect("wan transfer");
        assert_eq!(snk.checksum_failures, 0);
        assert_eq!(src.retransmits, 0, "clean 49 ms path must not retransmit");
        assert_eq!(snk.duplicate_payloads, 0);
        let adapt = src.adapt.expect("adaptive source reports its estimator");
        assert!(
            adapt.srtt_us > 44_000.0,
            "ack-loop srtt must see the path RTT: {} us",
            adapt.srtt_us
        );
        assert_eq!(adapt.loss_rate, 0.0);
        let snk_adapt = snk.adapt.expect("adaptive sink reports its estimator");
        assert!(
            snk_adapt.dwell_ns > 1_000_000,
            "dwell must scale with RTT (~srtt/8), got {} ns",
            snk_adapt.dwell_ns
        );
        assert!(
            snk_adapt.first_block_us > 0.0,
            "sink must record first-block latency"
        );
    }

    /// With the path rate known, the controller bounds outstanding
    /// credits to ~2×BDP instead of flooding the whole pool — and the
    /// deferred-grant path keeps the credit loop alive under the clamp.
    #[test]
    fn adaptive_depth_clamp_tracks_bdp_and_completes() {
        let wan = rftp_faults::WanProfile::parse("rtt=10ms,rate=80M").unwrap();
        let mut cfg = LiveConfig::new(64 * 1024, 1, 1 << 20);
        cfg.pool_blocks = 16;
        cfg.apply_wan(&wan);
        let (src, snk) = run_split_pair(&cfg, &wan).expect("wan transfer");
        assert_eq!(snk.checksum_failures, 0);
        assert_eq!(src.retransmits, 0);
        let adapt = snk.adapt.expect("adaptive sink snapshot");
        // 80 Mbps × 10 ms = 100 KB BDP; 2× over 64 KiB blocks ≈ 4.
        assert!(
            adapt.effective_depth >= 2 && adapt.effective_depth < cfg.pool_blocks,
            "depth target must clamp below the pool: {}",
            adapt.effective_depth
        );
    }

    /// Static configurations must not grow a controller: `adapt` stays
    /// `None` and the fixed knobs keep running the transfer.
    #[test]
    fn static_runs_report_no_adapt_state() {
        let cfg = LiveConfig::new(64 * 1024, 1, 512 << 10);
        let (src, snk) = run_split_pair(&cfg, &WanProfile::clean()).expect("split transfer");
        assert!(src.adapt.is_none() && snk.adapt.is_none());
    }

    #[test]
    fn sink_errors_when_source_vanishes_mid_transfer() {
        // Source half dies (simulated by aborting its transport after
        // the session opens); the sink must surface an error, not hang.
        let mut cfg = LiveConfig::new(64 * 1024, 2, 8 << 20);
        cfg.pool_blocks = 8;
        let (st, kt) = channel_transport(cfg.channels, cfg.channel_depth);
        let cfg2 = cfg.clone();
        let sink = std::thread::spawn(move || run_split_sink(&cfg2, kt, None));
        // Open the session by hand, then cut every link.
        st.ctrl_tx
            .send(&CtrlMsg::SessionRequest {
                session: SESSION,
                block_size: cfg.block_size as u64,
                channels: cfg.channels as u16,
                total_bytes: cfg.total_bytes,
                notify_imm: true,
            })
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        (st.abort)();
        drop(st);
        let err = sink.join().unwrap().expect_err("sink must fail");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe, "{err}");
    }

    /// The stage spawner: the first `Err` trips the latch and a later one
    /// does not replace it; a panic trips the latch and still surfaces at
    /// the join; the tally comes back on the `Ok` and `Err` paths alike.
    #[test]
    fn stage_latches_the_first_error_or_panic_and_returns_its_tally() {
        let (fail, panicked) = (Fail::new(Arc::new(|| {})), Fail::new(Arc::new(|| {})));
        std::thread::scope(|s| {
            let ok = stage(s, &fail, |t| {
                t.ctrl = 1;
                Ok(())
            });
            assert_eq!(ok.join().unwrap().ctrl, 1);
            assert!(!fail.is_set());
            let e1 = stage(s, &fail, |t| {
                t.ctrl = 2;
                Err(io::Error::other("e1"))
            });
            assert_eq!(e1.join().unwrap().ctrl, 2, "the tally of a failed stage");
            stage(s, &fail, |_| Err(io::Error::other("e2")))
                .join()
                .unwrap();
            let h = stage(s, &panicked, |_| panic!("stage body panics on purpose"));
            assert!(h.join().is_err(), "the panic surfaces at join");
        });
        assert_eq!(
            fail.into_err().unwrap().to_string(),
            "e1",
            "first error wins"
        );
        assert_eq!(
            panicked.into_err().unwrap().to_string(),
            "a pipeline thread panicked"
        );
    }

    /// A sink pool past the source's credit ring would hang the transfer
    /// (the ring fills and the source's control stage spins on a deposit),
    /// so the sink refuses one; `apply_wan` leaves such a pool alone,
    /// without panicking, for the sink to refuse.
    #[test]
    fn a_pool_past_the_credit_ring_is_refused() {
        let ani = WanProfile::parse("ani-wan").unwrap();
        let mut cfg = LiveConfig::new(64 * 1024, 2, 1 << 20);
        for slots in [MAX_POOL_BLOCKS + 1, 5000] {
            cfg.pool_blocks = slots;
            cfg.apply_wan(&ani);
            assert_eq!(cfg.pool_blocks, slots, "apply_wan never shrinks a pool");
            let err = SinkSession::open(&cfg, slots as usize).err();
            assert_eq!(err.map(|e| e.kind()), Some(io::ErrorKind::InvalidInput));
        }
        // A pool the WAN widens stops at the ring (2×BDP is ~30 000
        // blocks of 4 KiB on the ANI WAN).
        let mut cfg = LiveConfig::new(4096, 2, 1 << 20);
        cfg.apply_wan(&ani);
        assert_eq!(cfg.pool_blocks, MAX_POOL_BLOCKS);
        assert!(SinkSession::open(&cfg, MAX_POOL_BLOCKS as usize).is_ok());
    }

    /// A peer that is not a sink from this tree may grant a slot past the
    /// credit ring; the source's control stage must refuse it rather
    /// than spin on a full ring.
    #[test]
    fn a_credit_past_the_ring_fails_the_source() {
        let cfg = LiveConfig::new(64 * 1024, 1, 1 << 20);
        let (st, kt) = channel_transport(cfg.channels, cfg.channel_depth);
        let (tx, rx) = std::sync::mpsc::channel();
        let src_cfg = cfg.clone();
        std::thread::spawn(move || {
            let _ = tx.send(run_split_source(&src_cfg, st));
        });
        kt.ctrl_tx
            .send(&CtrlMsg::CreditBatch {
                session: SESSION,
                rkey: crate::pipeline::SINK_RKEY,
                slot_len: cfg.slot_bytes() as u32,
                slots: vec![MAX_POOL_BLOCKS],
            })
            .unwrap();
        let out = rx.recv_timeout(std::time::Duration::from_secs(10));
        let err = out.expect("source hung").expect_err("source must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }
}
