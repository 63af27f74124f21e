//! Unit tests of the split pipeline's stages and both halves.

use super::*;
use crate::pipeline::{pattern_seed, MAX_POOL_BLOCKS, SESSION};
use crate::store::{BlockPool, SlotBuf};
use crate::transport::{CtrlRx, CtrlTx, DataTx, Landing, SourceTransport};
use parking_lot::Mutex;
use rftp_core::pattern::fill_pattern;
use rftp_core::wire::{CtrlMsg, DataFrameHeader, PayloadHeader, PAYLOAD_HEADER_LEN};
use std::collections::HashSet;
use std::time::Instant;

const SCALE: u64 = if cfg!(debug_assertions) { 8 } else { 1 };

/// The one admission check every receiver shares: a frame outside
/// the session's geometry is `InvalidData` and claims nothing — a
/// length other than its block's among them, short or long, at the
/// tail or before it; a sequence is admitted once and counted as a
/// duplicate after.
// spec: [P7-frame-len] [P7-exactly-once-placement]
#[test]
fn admit_bounds_each_header_field_and_claims_once() {
    let mut cfg = LiveConfig::new(4096, 1, 8 * 4096 - 96);
    cfg.pool_blocks = 4;
    let front = SinkFront::open(&cfg).unwrap();
    let mut tally = Tally::default();
    let good = DataFrameHeader {
        session: SESSION,
        seq: 7,
        slot: 3,
        len: 4000,
    };
    let bad = [
        DataFrameHeader {
            session: SESSION + 1,
            ..good
        },
        DataFrameHeader { slot: 4, ..good },
        DataFrameHeader { len: 4097, ..good },
        DataFrameHeader { seq: 8, ..good },
        DataFrameHeader { seq: 3, ..good },
        DataFrameHeader { len: 4096, ..good },
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
// spec: [P6-duplicate-block]
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

/// Sequences whose ack the source's control stage has handled; shared
/// by one [`HoldUntilAcked`] transport's links.
#[derive(Default)]
struct Acked {
    handled: Mutex<HashSet<u32>>,
    cond: parking_lot::Condvar,
}

/// A source data link that passes each frame on, then holds the
/// `send_block` call until the control stage has handled that
/// sequence's ack (or `bound` goes by), counting the holds the ack
/// ended: the sender descheduled after its frame left, on demand.
struct HoldUntilAcked {
    links: Arc<Vec<Box<dyn DataTx>>>,
    ch: usize,
    acked: Arc<Acked>,
    bound: std::time::Duration,
    retired_inside: Arc<std::sync::atomic::AtomicU64>,
}

impl DataTx for HoldUntilAcked {
    fn send(&self, hdr: DataFrameHeader, wire: &[u8]) -> io::Result<()> {
        self.links[self.ch].send(hdr, wire)
    }

    fn send_block(
        &self,
        hdr: DataFrameHeader,
        bufs: &[Mutex<SlotBuf>],
        block: u32,
    ) -> io::Result<()> {
        self.links[self.ch].send_block(hdr, bufs, block)?;
        self.links[self.ch].kick()?;
        let (t0, mut handled) = (Instant::now(), self.acked.handled.lock());
        while !handled.contains(&hdr.seq) && t0.elapsed() < self.bound {
            (self.acked.cond).wait_for(&mut handled, std::time::Duration::from_millis(1));
        }
        if handled.contains(&hdr.seq) {
            (self.retired_inside).fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        Ok(())
    }

    fn kick(&self) -> io::Result<()> {
        self.links[self.ch].kick()
    }
}

/// The source's control receiver of a [`HoldUntilAcked`] transport: the
/// acks of one message count as handled once the control stage comes
/// back for the next.
struct NoteHandledAcks {
    inner: Box<dyn CtrlRx>,
    acked: Arc<Acked>,
    pending: Vec<u32>,
}

impl CtrlRx for NoteHandledAcks {
    fn recv(&mut self) -> io::Result<Option<CtrlMsg>> {
        self.acked.handled.lock().extend(self.pending.drain(..));
        self.acked.cond.notify_all();
        let msg = self.inner.recv()?;
        if let Some(CtrlMsg::AckBatch { acks, .. }) = &msg {
            self.pending.extend(acks.iter().map(|a| a.seq));
        }
        Ok(msg)
    }
}

/// A block's ack can retire it before its first `send_block` returns:
/// the frame is on the link, the sink places and acks it, and the
/// control stage completes the block while the sender is still inside
/// the call. Everything the ack touches — the pool FSM above all —
/// must have moved before the frame left: when the FSM moved after,
/// that ack found the block `Loaded`, the control stage panicked and
/// the transfer hung. Every first send is held this way here, and the
/// transfer must still land byte-exact.
// spec: [P6-one-sender-ordinals]
#[test]
fn an_ack_inside_the_first_send_finds_the_block_posted() {
    let cfg = LiveConfig::new(16 * 1024, 2, 8 * 16 * 1024);
    let (st, kt) = channel_transport(cfg.channels).unwrap();
    let acked = Arc::new(Acked::default());
    let retired_inside = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let data = (0..cfg.channels).map(|ch| {
        Box::new(HoldUntilAcked {
            links: Arc::clone(&st.data),
            ch,
            acked: Arc::clone(&acked),
            bound: std::time::Duration::from_secs(5),
            retired_inside: Arc::clone(&retired_inside),
        }) as Box<dyn DataTx>
    });
    let st = SourceTransport {
        data: Arc::new(data.collect()),
        ctrl_rx: Box::new(NoteHandledAcks {
            inner: st.ctrl_rx,
            acked,
            pending: Vec::new(),
        }),
        ..st
    };
    let (src, snk) = std::thread::scope(|s| {
        let sink = s.spawn(|| run_split_sink(&cfg, kt, None));
        let src = run_split_source(&cfg, st).expect("source half");
        (src, sink.join().unwrap().expect("sink half"))
    });
    assert_eq!((snk.blocks, snk.checksum_failures), (8, 0));
    assert_eq!(src.blocks, 8);
    assert_eq!(
        retired_inside.load(std::sync::atomic::Ordering::Relaxed),
        8,
        "every block was retired inside its first send"
    );
}

/// A block that spends its [`rftp_core::MAX_RESENDS`] re-sends fails
/// the transfer with a typed error, not a panic: every send is dropped
/// and the deadline is 100 µs, so the budget runs out within a second.
/// The sink must end with an error too, not wait for frames that can no
/// longer come.
// spec: [P6-budget]
#[test]
fn a_block_out_of_resends_fails_the_transfer_with_timed_out() {
    let mut cfg = LiveConfig::new(16 * 1024, 2, 8 * 16 * 1024);
    cfg.fault_drop_p = 1.0;
    cfg.retx_timeout = std::time::Duration::from_micros(100);
    let (st, kt) = channel_transport(cfg.channels).unwrap();
    let (src_tx, src_rx) = std::sync::mpsc::channel();
    let (snk_tx, snk_rx) = std::sync::mpsc::channel();
    let (src_cfg, snk_cfg) = (cfg.clone(), cfg);
    std::thread::spawn(move || {
        let _ = src_tx.send(run_split_source(&src_cfg, st));
    });
    std::thread::spawn(move || {
        let _ = snk_tx.send(run_split_sink(&snk_cfg, kt, None));
    });
    let deadline = std::time::Duration::from_secs(10);
    let src = src_rx.recv_timeout(deadline).expect("source half hung");
    let err = src.expect_err("nothing was delivered");
    assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
    assert!(err.to_string().contains("re-sends"), "{err}");
    let snk = snk_rx.recv_timeout(deadline).expect("sink half hung");
    assert!(snk.is_err(), "the sink must fail, not block");
}

/// A source data link whose `send_block` panics.
struct PanicOnSend;

impl DataTx for PanicOnSend {
    fn send(&self, _: DataFrameHeader, _: &[u8]) -> io::Result<()> {
        panic!("a data link panics on purpose")
    }

    fn send_block(&self, _: DataFrameHeader, _: &[Mutex<SlotBuf>], _: u32) -> io::Result<()> {
        panic!("a data link panics on purpose")
    }

    fn kick(&self) -> io::Result<()> {
        Ok(())
    }
}

/// A pipeline thread that panics takes the transfer down with it: the
/// source's first `send_block` panics on the sender's thread. Both
/// halves must then end — the source by that panic surfacing at the
/// join (or an error), the sink with an error — where they used to wait
/// for ever on acks and frames that could no longer come.
// spec: [P5-panic-fails-alone]
#[test]
fn a_panicking_pipeline_thread_fails_both_halves() {
    let cfg = LiveConfig::new(16 * 1024, 2, 8 * 16 * 1024);
    let (st, kt) = channel_transport(cfg.channels).unwrap();
    let data = (0..cfg.channels).map(|_| Box::new(PanicOnSend) as Box<dyn DataTx>);
    let st = SourceTransport {
        data: Arc::new(data.collect()),
        ..st
    };
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

/// A stage's panic is its half's error, not a panic at the caller: with
/// every data link panicking, `run_split_source` returns an `Err` that
/// names the panic and keeps its message, and the sink fails too.
#[test]
fn a_panicking_data_link_is_the_source_error() {
    let cfg = LiveConfig::new(16 * 1024, 2, 8 * 16 * 1024);
    let (st, kt) = channel_transport(cfg.channels).unwrap();
    let data = (0..cfg.channels).map(|_| Box::new(PanicOnSend) as Box<dyn DataTx>);
    let st = SourceTransport {
        data: Arc::new(data.collect()),
        ..st
    };
    let (src, snk) = std::thread::scope(|s| {
        let sink = s.spawn(|| run_split_sink(&cfg, kt, None));
        (run_split_source(&cfg, st), sink.join().unwrap())
    });
    let err = src.expect_err("nothing was delivered");
    let msg = err.to_string();
    assert!(msg.contains("panicked"), "{msg}");
    assert!(msg.contains("a data link panics on purpose"), "{msg}");
    assert!(snk.is_err(), "the sink must fail, not block");
}

/// The thread of every send call a source makes, once its
/// `SessionRequest` is out: data links and the control link alike.
#[derive(Default)]
struct Senders(Mutex<HashSet<std::thread::ThreadId>>);

impl Senders {
    fn note(&self) {
        self.0.lock().insert(std::thread::current().id());
    }
}

/// A data link that notes the thread of every call into it.
struct NoteDataTx {
    links: Arc<Vec<Box<dyn DataTx>>>,
    ch: usize,
    seen: Arc<Senders>,
}

impl DataTx for NoteDataTx {
    fn send(&self, hdr: DataFrameHeader, wire: &[u8]) -> io::Result<()> {
        self.seen.note();
        self.links[self.ch].send(hdr, wire)
    }

    fn send_block(
        &self,
        hdr: DataFrameHeader,
        bufs: &[Mutex<SlotBuf>],
        block: u32,
    ) -> io::Result<()> {
        self.seen.note();
        self.links[self.ch].send_block(hdr, bufs, block)
    }

    fn kick(&self) -> io::Result<()> {
        self.seen.note();
        self.links[self.ch].kick()
    }
}

/// A control link that notes the thread of every send but the request.
struct NoteCtrlTx {
    inner: Arc<dyn CtrlTx>,
    seen: Arc<Senders>,
}

impl CtrlTx for NoteCtrlTx {
    fn send(&self, msg: &CtrlMsg) -> io::Result<()> {
        if !matches!(msg, CtrlMsg::SessionRequest { .. }) {
            self.seen.note();
        }
        self.inner.send(msg)
    }
}

/// A lossy transfer that re-sends, through a 4-block pool.
fn one_sender_cfg() -> LiveConfig {
    let mut cfg = LiveConfig::new(32 * 1024, 2, (4 << 20) / SCALE);
    cfg.pool_blocks = 4;
    cfg.fault_drop_p = 0.25;
    cfg.fault_seed = 7;
    cfg.retx_timeout = std::time::Duration::from_millis(5);
    cfg
}

/// `st` with every send call after the request noted in `seen`.
fn note_sends(st: SourceTransport, seen: &Arc<Senders>) -> SourceTransport {
    let data = (0..st.data.len()).map(|ch| {
        Box::new(NoteDataTx {
            links: Arc::clone(&st.data),
            ch,
            seen: Arc::clone(seen),
        }) as Box<dyn DataTx>
    });
    let ctrl_tx = Arc::new(NoteCtrlTx {
        inner: st.ctrl_tx,
        seen: Arc::clone(seen),
    });
    SourceTransport {
        data: Arc::new(data.collect()),
        ctrl_tx,
        ..st
    }
}

/// After the `SessionRequest`, one thread makes every send call of a
/// source — first sends, re-sends, kicks, `MrRequest` and
/// `DatasetComplete` — on a lossy transfer that re-sends.
// spec: [P6-one-sender-ordinals]
#[test]
fn every_send_after_the_request_leaves_from_one_thread() {
    let cfg = one_sender_cfg();
    let (st, kt) = channel_transport(cfg.channels).unwrap();
    let seen = Arc::new(Senders::default());
    let st = note_sends(st, &seen);
    let (src, snk) = std::thread::scope(|s| {
        let sink = s.spawn(|| run_split_sink(&cfg, kt, None));
        let src = run_split_source(&cfg, st).expect("source half");
        (src, sink.join().unwrap().expect("sink half"))
    });
    assert_eq!(snk.checksum_failures, 0);
    assert_eq!(snk.blocks, 128 / SCALE);
    assert!(src.retransmits > 0, "nothing was re-sent");
    assert_eq!(seen.0.lock().len(), 1, "sends left from several threads");
}

/// The same on shm, where the loaders write into the window, wait for
/// credits themselves and have the sender ask for more when starved.
// spec: [P6-one-sender-ordinals] [P7.2-credit-is-rkey]
#[test]
fn every_shm_send_after_the_request_leaves_from_one_thread() {
    use crate::shm::{connect_source_shm, run_shm_sink, ShmListener};
    let cfg = one_sender_cfg();
    let path = std::env::temp_dir().join(format!("rftp-one-sender-{}.sock", std::process::id()));
    let listener = ShmListener::bind(&path).unwrap();
    let seen = Arc::new(Senders::default());
    let (src_cfg, src_seen) = (cfg.clone(), Arc::clone(&seen));
    let src = std::thread::spawn(move || {
        let st = note_sends(connect_source_shm(&path, src_cfg.channels)?, &src_seen);
        run_split_source(&src_cfg, st)
    });
    let (sess, first) = listener.accept_session().unwrap();
    let snk = run_shm_sink(&cfg, sess, Some(first)).expect("sink half");
    let src = src.join().unwrap().expect("source half");
    assert_eq!(snk.checksum_failures, 0);
    assert_eq!(snk.blocks, 128 / SCALE);
    assert!(src.retransmits > 0, "nothing was re-sent");
    assert_eq!(seen.0.lock().len(), 1, "sends left from several threads");
}

/// Recovery with the timer out of the picture: one send in twenty
/// vanishes, the deadline is ten seconds (its first scan would come
/// at 2.5 s), and the transfer must still finish at once — only the
/// ack stream can have named the lost blocks, and only the control
/// stage ending can have let the sender, and with it the source, return. Seed 32 drops
/// 18 first sends, the last of them sequence 450 of 512, and none of
/// their re-sends: every casualty has well over three later sends
/// behind it on its channel, which is exactly the case the inference
/// covers. (A tail drop is the timer's, and so is a lost re-send that
/// went out after the stalled source had spent its last credit — at
/// zero RTT that is a race, so the seed avoids both.)
// spec: [P6-fast]
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

/// A static configuration behind a lossy shim: no drop injector and
/// no controller, so nothing in the config expects loss, and every
/// frame the shim eats must still be re-sent — recovery is armed on
/// every transfer.
#[test]
fn static_config_behind_a_lossy_shim_recovers() {
    let wan = WanProfile::parse("drop=0.05,seed=3").unwrap();
    let cfg = LiveConfig::new(64 << 10, 2, 8 << 20);
    let (tx, rx) = std::sync::mpsc::channel();
    let run_cfg = cfg.clone();
    std::thread::spawn(move || {
        let _ = tx.send(run_split_pair(&run_cfg, &wan));
    });
    let out = rx.recv_timeout(std::time::Duration::from_secs(60));
    let (src, snk) = out.expect("transfer hung").expect("lossy transfer");
    assert_eq!(snk.checksum_failures, 0);
    assert_eq!((snk.bytes, snk.blocks), (cfg.total_bytes, 128));
    assert_eq!(src.dropped_payloads, 0, "the injector is off");
    assert!(src.retransmits >= 1, "5% of 128 frames dropped nothing");
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

/// Put sequence `seq` of a pattern transfer of `len`-byte blocks
/// into `slot` and check it, as a receiver would have; the arrival to
/// announce.
fn land(bufs: &BlockPool, len: u32, seq: u32, slot: u32) -> SinkEvt {
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
    let hdr = DataFrameHeader {
        session: SESSION,
        seq,
        slot,
        len,
    };
    let mut check = Landing::new(&hdr, Some(pattern_seed(seq)));
    check.advance(&buf[..hdr.wire_len()], hdr.wire_len());
    SinkEvt::Arrival {
        seq,
        slot,
        len,
        intact: check.intact(),
    }
}

/// [`land`] and announce.
fn arrive(h: &mut SinkSession, bufs: &BlockPool, seq: u32, slot: u32) -> io::Result<()> {
    h.handle(land(bufs, h.cfg.block_size as u32, seq, slot))
}

/// The opening request of a one-channel transfer of `cfg`.
fn request(cfg: &LiveConfig) -> SinkEvt {
    SinkEvt::Ctrl(CtrlMsg::SessionRequest {
        session: SESSION,
        block_size: cfg.block_size as u64,
        channels: 1,
        total_bytes: cfg.total_bytes,
        notify_imm: true,
    })
}

/// `DatasetComplete` ahead of the last arrival, as the source sends
/// it: the arrival that completes the set ends the handler in the
/// drain it lands in, its ack flushed at once — no dwell on the
/// partial batch, however long the window — and it joins the acks
/// of the blocks before it in one `AckBatch`.
// spec: [P7-acks-reverse] [P7-teardown-sink]
#[test]
fn last_arrival_after_dataset_complete_leaves_its_ack_without_a_dwell() {
    let mut cfg = LiveConfig::new(4096, 1, 4 * 4096);
    cfg.pool_blocks = 4;
    cfg.initial_credits = 4;
    cfg.flush_window = std::time::Duration::from_secs(2);
    let bufs = BlockPool::new(cfg.pool_blocks, cfg.block_size);
    let sent = Sent::default();
    let mut h = SinkSession::open(&cfg, 1, &sent, None).unwrap();
    h.handle(request(&cfg)).unwrap();
    let granted = sent.take_granted();
    let (tx, rx) = crossbeam::channel::bounded(SINK_EVENTS);
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(move || {
            let ran = h.run(None, &rx);
            let _ = done_tx.send((ran.map(|()| h.delivered), Instant::now()));
        });
        let send = |ev| assert!(tx.send(ev).is_ok(), "the handler stopped early");
        for seq in 0..3 {
            send(land(&bufs, 4096, seq, granted[seq as usize]));
        }
        send(SinkEvt::Ctrl(CtrlMsg::DatasetComplete {
            session: SESSION,
            total_blocks: 4,
        }));
        std::thread::sleep(std::time::Duration::from_millis(50));
        let last = Instant::now();
        send(land(&bufs, 4096, 3, granted[3]));
        // The queue stays open: a handler that dwelt would wait out
        // the window, and one that missed the end would never return.
        let out = done_rx.recv_timeout(std::time::Duration::from_secs(5));
        drop(tx);
        let (delivered, ended) = out.expect("the handler did not end on its last arrival");
        assert_eq!(delivered.unwrap(), 4);
        let after = ended - last;
        assert!(
            after < std::time::Duration::from_millis(200),
            "ended {after:?} after the last arrival"
        );
    });
    let acks: Vec<Vec<u32>> = (sent.0.lock().iter())
        .filter_map(|m| match m {
            CtrlMsg::AckBatch { acks, .. } => Some(acks.iter().map(|a| a.seq).collect()),
            _ => None,
        })
        .collect();
    assert_eq!(acks, [vec![0, 1, 2, 3]], "one AckBatch, the last ack in it");
}

/// The sequences of each `AckBatch` sent so far, in send order.
fn ack_batches(sent: &Sent) -> Vec<Vec<u32>> {
    (sent.0.lock().iter())
        .filter_map(|m| match m {
            CtrlMsg::AckBatch { acks, .. } => Some(acks.iter().map(|a| a.seq).collect()),
            _ => None,
        })
        .collect()
}

/// A session of `blocks` blocks over a pool that grants them all at
/// the opening, with `ctrl_batch` entries per frame and a flush window
/// of `window`.
fn coalescing_cfg(blocks: u64, ctrl_batch: usize, window: std::time::Duration) -> LiveConfig {
    let mut cfg = LiveConfig::new(4096, 1, blocks * 4096);
    cfg.pool_blocks = 16;
    cfg.initial_credits = blocks as u32;
    cfg.ctrl_batch = ctrl_batch;
    cfg.flush_window = window;
    cfg
}

/// A drain that ends the session flushes what is pending: ten arrivals
/// under a cap of four leave as two full `AckBatch`es and the partial
/// one, at once, though the flush window is far longer than the run;
/// no frame of either kind holds more than the cap.
// spec: [P7-coalesce]
#[test]
fn a_drain_to_done_flushes_partial_batches() {
    let cfg = coalescing_cfg(10, 4, std::time::Duration::from_secs(2));
    let bufs = BlockPool::new(cfg.pool_blocks, cfg.block_size);
    let sent = Sent::default();
    let mut h = SinkSession::open(&cfg, 1, &sent, None).unwrap();
    h.handle(request(&cfg)).unwrap();
    let granted = sent.take_granted();
    let (tx, rx) = crossbeam::channel::bounded(SINK_EVENTS);
    for seq in 0..10 {
        assert!(tx
            .send(land(&bufs, 4096, seq, granted[seq as usize]))
            .is_ok());
    }
    let dc = CtrlMsg::DatasetComplete {
        session: SESSION,
        total_blocks: 10,
    };
    assert!(tx.send(SinkEvt::Ctrl(dc)).is_ok());
    let t0 = Instant::now();
    h.run(None, &rx).expect("the session ran to done");
    let took = t0.elapsed();
    assert!(took < std::time::Duration::from_secs(1), "dwelt {took:?}");
    assert_eq!(
        ack_batches(&sent),
        [vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]]
    );
    for m in sent.0.lock().iter() {
        if let CtrlMsg::CreditBatch { slots, .. } = m {
            assert!(slots.len() <= 4, "{} slots in one frame", slots.len());
        }
    }
}

/// The dwell: a partial batch waits out the flush window for more
/// events, so an arrival inside the window joins the same flush
/// instead of costing frames of its own; a quiet window ends the
/// dwell, and the batch leaves before the session waits again with no
/// deadline.
// spec: [P7-coalesce]
#[test]
fn arrivals_inside_one_flush_window_share_one_flush() {
    let cfg = coalescing_cfg(4, 16, std::time::Duration::from_millis(200));
    let bufs = BlockPool::new(cfg.pool_blocks, cfg.block_size);
    let sent = Sent::default();
    let mut h = SinkSession::open(&cfg, 1, &sent, None).unwrap();
    h.handle(request(&cfg)).unwrap();
    let granted = sent.take_granted();
    let (tx, rx) = crossbeam::channel::bounded(SINK_EVENTS);
    let flushed = std::thread::scope(|s| {
        let run = s.spawn(move || h.run(None, &rx));
        assert!(tx.send(land(&bufs, 4096, 0, granted[0])).is_ok());
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(tx.send(land(&bufs, 4096, 1, granted[1])).is_ok());
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while ack_batches(&sent).is_empty() && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let flushed = ack_batches(&sent);
        drop(tx);
        let end = run.join().unwrap();
        assert!(end.is_err(), "the stream closed mid-transfer");
        flushed
    });
    assert_eq!(
        flushed,
        [vec![0, 1]],
        "one flush, both acks, the stream still open"
    );
    let credits = (sent.0.lock().iter())
        .filter(|m| matches!(m, CtrlMsg::CreditBatch { .. }))
        .count();
    assert_eq!(credits, 1, "the grants ride the same flush");
}

/// A closed event stream flushes the pending batch, then fails the
/// session, without waiting out the window: the peer hears of every
/// block that landed.
// spec: [P7-coalesce]
#[test]
fn a_closed_event_stream_flushes_then_fails_the_session() {
    let cfg = coalescing_cfg(4, 16, std::time::Duration::from_secs(2));
    let bufs = BlockPool::new(cfg.pool_blocks, cfg.block_size);
    let sent = Sent::default();
    let mut h = SinkSession::open(&cfg, 1, &sent, None).unwrap();
    h.handle(request(&cfg)).unwrap();
    let granted = sent.take_granted();
    let (tx, rx) = crossbeam::channel::bounded(SINK_EVENTS);
    assert!(tx.send(land(&bufs, 4096, 0, granted[0])).is_ok());
    drop(tx);
    let t0 = Instant::now();
    let err = h
        .run(None, &rx)
        .expect_err("the stream closed mid-transfer");
    let took = t0.elapsed();
    assert!(err.to_string().contains("event pipeline stopped"), "{err}");
    assert!(took < std::time::Duration::from_secs(1), "dwelt {took:?}");
    assert_eq!(ack_batches(&sent), [vec![0]]);
}

/// A four-block transfer into a four-slot pool with sequence 0
/// missing: the three blocks behind the hole must hand their slots
/// back as they land (a sink that frees in order parks all three and
/// answers the credit request with nothing), and the transfer still
/// completes exactly when the hole fills.
// spec: [P4.2-retire-on-arrival] [P4.2-retire-once] [P6-hole-one-slot] [P8-exactly-once]
#[test]
fn slots_behind_a_hole_retire_and_are_granted_again() {
    let mut cfg = LiveConfig::new(4096, 1, 4 * 4096);
    cfg.pool_blocks = 4;
    cfg.initial_credits = 4;
    cfg.grant_per_completion = 0; // grants only on request: the free list is observable
    let bufs = BlockPool::new(cfg.pool_blocks, cfg.block_size);
    let sent = Sent::default();
    let mut h = SinkSession::open(&cfg, 1, &sent, None).unwrap();

    h.handle(request(&cfg)).unwrap();
    let granted = sent.take_granted();
    assert_eq!(granted.len(), 4);
    assert_eq!(h.snk_pool.free_count(), 0);

    // Sequence 0 rode granted[0] and was lost; 1, 2, 3 land.
    for seq in 1..4 {
        arrive(&mut h, &bufs, seq, granted[seq as usize]).unwrap();
    }
    assert_eq!(h.snk_pool.free_count(), 3, "the hole holds one slot");
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

/// A data link that records the sequence of every frame sent on it.
struct SeqDataTx {
    inner: Box<dyn DataTx>,
    seqs: Arc<Mutex<Vec<u32>>>,
}

impl DataTx for SeqDataTx {
    fn send(&self, hdr: DataFrameHeader, wire: &[u8]) -> io::Result<()> {
        self.seqs.lock().push(hdr.seq);
        self.inner.send(hdr, wire)
    }

    fn send_block(
        &self,
        hdr: DataFrameHeader,
        bufs: &[Mutex<SlotBuf>],
        block: u32,
    ) -> io::Result<()> {
        self.seqs.lock().push(hdr.seq);
        self.inner.send_block(hdr, bufs, block)
    }

    fn kick(&self) -> io::Result<()> {
        self.inner.kick()
    }
}

/// Four loaders finish their blocks in any order, and the sender still
/// puts them on the wire in sequence order: on a clean run the frames,
/// over both channels, carry 0, 1, 2, … in the order they were sent.
// spec: [P4.2-dispatch-in-order] [P8-dispatch-order]
#[test]
fn first_sends_leave_in_sequence_order() {
    let mut cfg = LiveConfig::new(16 * 1024, 2, (4 << 20) / SCALE);
    cfg.loaders = 4;
    cfg.pool_blocks = 16;
    let (st, kt) = channel_transport(cfg.channels).unwrap();
    let seqs = Arc::new(Mutex::new(Vec::new()));
    let links = Arc::try_unwrap(st.data).ok().expect("the one handle");
    let data = links.into_iter().map(|inner| {
        Box::new(SeqDataTx {
            inner,
            seqs: Arc::clone(&seqs),
        }) as Box<dyn DataTx>
    });
    let st = SourceTransport {
        data: Arc::new(data.collect()),
        ..st
    };
    let (src, snk) = std::thread::scope(|s| {
        let sink = s.spawn(|| run_split_sink(&cfg, kt, None));
        let src = run_split_source(&cfg, st).expect("source half");
        (src, sink.join().unwrap().expect("sink half"))
    });
    assert_eq!((src.retransmits, snk.checksum_failures), (0, 0));
    let want: Vec<u32> = (0..snk.blocks as u32).collect();
    assert_eq!(*seqs.lock(), want);
}

/// The live source speaks the stream mapping's control plane: its
/// opening `SessionRequest` asks for in-band notification (every live
/// arrival passes through a sink receiver), and a `BlockComplete`, the
/// simulator's per-block notification, fails it.
// spec: [P7-notify-imm] [P7-acks-reverse]
#[test]
fn the_live_source_asks_for_notify_imm_and_refuses_block_complete() {
    let cfg = LiveConfig::new(4096, 1, 4 * 4096);
    let (st, mut kt) = channel_transport(cfg.channels).unwrap();
    let (done, src) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(run_split_source(&cfg, st));
    });
    let first = kt.ctrl_rx.recv().unwrap().expect("the opening frame");
    assert!(
        matches!(
            first,
            CtrlMsg::SessionRequest {
                notify_imm: true,
                ..
            }
        ),
        "{first:?}"
    );
    kt.ctrl_tx
        .send(&CtrlMsg::BlockComplete {
            session: SESSION,
            seq: 0,
            slot: 0,
            len: 4096,
        })
        .unwrap();
    let end = src.recv_timeout(std::time::Duration::from_secs(10));
    (kt.abort)();
    let err = (end.expect("the source took the BlockComplete and went on"))
        .expect_err("BlockComplete at the source");
    assert!(
        err.to_string().contains("unexpected ctrl at source"),
        "{err}"
    );
}

/// The live sink acks with `AckBatch` and never hears of a block but
/// from its own receivers: a `BlockComplete` is a protocol error.
// spec: [P7-acks-reverse]
#[test]
fn the_live_sink_refuses_block_complete() {
    let cfg = LiveConfig::new(4096, 1, 4 * 4096);
    let sent = Sent::default();
    let mut h = SinkSession::open(&cfg, 1, &sent, None).unwrap();
    h.handle(request(&cfg)).unwrap();
    let slot = sent.take_granted()[0];
    let err = h
        .handle(SinkEvt::Ctrl(CtrlMsg::BlockComplete {
            session: SESSION,
            seq: 0,
            slot,
            len: 4096,
        }))
        .expect_err("BlockComplete at the sink");
    assert!(err.to_string().contains("unexpected ctrl at sink"), "{err}");
    assert_eq!(h.delivered, 0, "nothing retired on its word");
}

/// `apply_wan` sizes both pools and the first grant by the one
/// window rule at the declared path; a LAN preset's window is under
/// the default pool, which it keeps.
// spec: [P4.1-wan-first-grant]
#[test]
fn apply_wan_sizes_pools_and_first_grant_by_the_window() {
    let ani = WanProfile::parse("ani-wan").unwrap();
    let mut cfg = LiveConfig::new(256 * 1024, 2, 1 << 30);
    cfg.apply_wan(&ani);
    let window = rftp_core::window_blocks(10e9, ani.rtt(), 256 * 1024, 2);
    assert_eq!(window, 263, "9/8 of the ANI-WAN BDP in 256 KiB blocks");
    assert_eq!((cfg.pool_blocks, cfg.initial_credits), (window, window));
    assert!(cfg.channel_depth >= 132, "each channel queues its share");

    let mut lan = LiveConfig::new(256 * 1024, 2, 1 << 30);
    let pool = lan.pool_blocks;
    lan.apply_wan(&WanProfile::parse("roce-lan").unwrap());
    assert_eq!(lan.pool_blocks, pool, "a LAN keeps the default pool");
    assert!(lan.adaptive);
}

/// The grant tally, counted at the handler with no clock in it: the
/// opening `CreditBatch`es grant the whole window before anything
/// lands, and a pool configured larger than the window never has
/// more than the window on loan — not at the opening grant (sized by
/// the declared path), nor once the controller has measured it (the
/// depth clamp), however the 2-per-completion grants fall.
// spec: [P4.1-wan-first-grant]
#[test]
fn the_first_grant_is_the_window_and_never_more_is_outstanding() {
    let ani = WanProfile::parse("ani-wan").unwrap();
    let mut cfg = LiveConfig::new(256 * 1024, 1, 1 << 30);
    cfg.apply_wan(&ani);
    let sent = Sent::default();
    let mut h = SinkSession::open(&cfg, 1, &sent, None).unwrap();
    h.handle(request(&cfg)).unwrap();
    let mut opening = sent.take_granted();
    assert_eq!(
        opening.len(),
        263,
        "the whole window in the opening batches"
    );
    opening.sort_unstable();
    opening.dedup();
    assert_eq!(opening.len(), 263, "each slot granted once");
    assert_eq!(h.snk_pool.free_count(), 0);

    let path = WanProfile::parse("rtt=10ms,rate=80M").unwrap();
    let total = 256u32;
    let mut cfg = LiveConfig::new(4096, 1, total as u64 * 4096);
    cfg.pool_blocks = 64;
    cfg.apply_wan(&path);
    let window = rftp_core::window_blocks(80e6, path.rtt(), 4096, 1);
    assert_eq!((cfg.pool_blocks, window), (64, 28), "the pool is larger");
    let bufs = BlockPool::new(cfg.pool_blocks, cfg.block_size);
    let sent = Sent::default();
    let mut h = SinkSession::open(&cfg, 1, &sent, None).unwrap();
    h.handle(request(&cfg)).unwrap();
    h.handle(SinkEvt::Ctrl(CtrlMsg::DatasetComplete {
        session: SESSION,
        total_blocks: total,
    }))
    .unwrap();
    let mut loaned: std::collections::VecDeque<u32> = sent.take_granted().into();
    assert_eq!(
        loaned.len(),
        window as usize,
        "the opening grant is the window"
    );
    // The controller's measured round trip: the declared path. The
    // handler's own samples (no wire) can only lower the minimum,
    // and with it the clamp.
    let ctl = h.ctl.as_ref().expect("apply_wan runs adaptively");
    ctl.on_rtt_sample(path.rtt());
    assert_eq!(ctl.snapshot().effective_depth, window);
    for seq in 0..total {
        let slot = loaned.pop_front().expect("the credit loop ran dry");
        arrive(&mut h, &bufs, seq, slot).unwrap();
        h.flush().unwrap();
        loaned.extend(sent.take_granted());
        assert!(
            loaned.len() <= window as usize,
            "{} on loan after {seq}",
            loaned.len()
        );
    }
    assert!(h.done() && h.delivered == total as u64);
    assert!(h.ctl.as_ref().unwrap().snapshot().effective_depth <= window);
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

/// A retransmit regression once seen: at 49 ms RTT a clean
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
/// credits to one credit loop instead of flooding the whole pool —
/// and the deferred-grant path keeps the credit loop alive under the
/// clamp.
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
    // 80 Mbps over 10 ms plus its dwell is 112.5 KB, 2 blocks of
    // 64 KiB; the measured loop adds serialization, a block or so.
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

// spec: [P7-peer-loss]
#[test]
fn sink_errors_when_source_vanishes_mid_transfer() {
    // Source half dies (simulated by aborting its transport after
    // the session opens); the sink must surface an error, not hang.
    let mut cfg = LiveConfig::new(64 * 1024, 2, 8 << 20);
    cfg.pool_blocks = 8;
    let (st, kt) = channel_transport(cfg.channels).unwrap();
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
    assert!(is_hangup(&err), "{err}");
}

/// The in-process pair runs shm's sink endpoints: one notify reader and
/// the control pump, whatever the channel count.
#[test]
fn the_in_process_sink_runs_one_receiver_at_any_channel_count() {
    for channels in [1, 8] {
        let cfg = LiveConfig::new(64 * 1024, channels, (4 << 20) / SCALE);
        let (src, snk) = run_split_pair(&cfg, &WanProfile::clean()).expect("split transfer");
        assert_eq!(snk.checksum_failures, 0);
        let threads = (src.transport_threads, snk.transport_threads);
        assert_eq!(threads, (0, 2), "{channels} channels");
    }
}

/// A sink that cannot open its file fails the pair with that error,
/// every time: the source only sees its links hang up — a closed pipe,
/// or a reset when the sink's end closed with bytes unread — and that
/// echo is never what the pair reports.
#[test]
fn a_sink_that_cannot_open_its_file_reports_why_every_time() {
    let mut cfg = LiveConfig::new(64 * 1024, 4, 64 << 20);
    let dir = std::env::temp_dir().join(format!("rftp-missing-{}", std::process::id()));
    cfg.dst_file = Some(dir.join("x"));
    for run in 0..20 {
        let err = crate::try_run_live(&cfg).expect_err("the sink has no file");
        assert_eq!(err.kind(), io::ErrorKind::NotFound, "run {run}: {err}");
    }
}

/// The stage spawner: the first `Err` trips the latch and a later one
/// does not replace it; a panic is the stage's error, naming the panic,
/// and does not surface at the join; the tally comes back on the `Ok`,
/// `Err` and panic paths alike.
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
        let h = stage(s, &panicked, |t| {
            t.ctrl = 3;
            panic!("stage body panics on purpose")
        });
        assert_eq!(h.join().unwrap().ctrl, 3, "the tally of a panicked stage");
    });
    assert_eq!(
        fail.into_err().unwrap().to_string(),
        "e1",
        "first error wins"
    );
    assert_eq!(
        panicked.into_err().unwrap().to_string(),
        "a pipeline thread panicked: stage body panics on purpose"
    );
}

/// A sink pool past the source's credit ring would hang the transfer
/// (the ring fills and the source's control stage spins on a deposit),
/// so the sink refuses one; `apply_wan` leaves such a pool alone,
/// without panicking, for the sink to refuse.
// spec: [P7-credit-slot-bound]
#[test]
fn a_pool_past_the_credit_ring_is_refused() {
    let ani = WanProfile::parse("ani-wan").unwrap();
    let mut cfg = LiveConfig::new(64 * 1024, 2, 1 << 20);
    for slots in [MAX_POOL_BLOCKS + 1, 5000] {
        cfg.pool_blocks = slots;
        cfg.apply_wan(&ani);
        assert_eq!(cfg.pool_blocks, slots, "apply_wan never shrinks a pool");
        let err = SinkSession::open(&cfg, 2, &Sent::default(), None).err();
        assert_eq!(err.map(|e| e.kind()), Some(io::ErrorKind::InvalidInput));
    }
    // A pool the WAN widens stops at the ring (one credit loop is
    // ~16 800 blocks of 4 KiB on the ANI WAN).
    let mut cfg = LiveConfig::new(4096, 2, 1 << 20);
    cfg.apply_wan(&ani);
    assert_eq!(cfg.pool_blocks, MAX_POOL_BLOCKS);
    assert!(SinkSession::open(&cfg, 2, &Sent::default(), None).is_ok());
}

/// A peer that is not a sink from this tree may grant a slot past the
/// credit ring; the source's control stage must refuse it rather
/// than spin on a full ring.
// spec: [P7-credit-slot-bound]
#[test]
fn a_credit_past_the_ring_fails_the_source() {
    let cfg = LiveConfig::new(64 * 1024, 1, 1 << 20);
    let (st, kt) = channel_transport(cfg.channels).unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let src_cfg = cfg.clone();
    std::thread::spawn(move || {
        let _ = tx.send(run_split_source(&src_cfg, st));
    });
    let _window = kt.ctrl_tx.open_window(cfg.pool_blocks, cfg.block_size);
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
