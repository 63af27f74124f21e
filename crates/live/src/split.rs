//! The live pipeline: a standalone source half and sink half joined
//! only by a [`crate::transport`].
//!
//! [`run_split_source`] runs loaders → dispatcher → retransmit watchdog
//! against a [`SourceTransport`], [`run_split_sink`] runs per-channel
//! receivers → control handler against a [`SinkTransport`], and nothing
//! crosses except control frames and data frames. Over the TCP backend
//! ([`crate::net`]) the two halves are two OS processes; over the
//! in-process channel backend ([`run_split_pair`]) they are the
//! single-process transfer [`run_live`](crate::run_live) reports on.
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
//!   [`CtrlMsg::AckBatch`], one cap and one flush window for acks and
//!   grants alike) and the source retires blocks on those acks.
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

use crate::coalesce::{channel_events, drain_coalesced, CoalescedSink, DrainEnd};
use crate::hist::{NsHist, StageTails};
use crate::pipeline::{
    backoff, drop_roll, pattern_seed, AtomicBitmap, CreditSlots, InFlightInfo, LiveConfig,
    LiveReport, SnkBackend, SrcBackend, StageBreakdown, SESSION, SINK_RKEY,
};
use crate::store::{BlockPool, RatePacer, SlotBuf};
use crate::transport::{channel_transport, CtrlTx, SinkTransport, SourceTransport, UringStats};
use crossbeam::channel::{bounded, TryRecvError};
use parking_lot::Mutex;
use rftp_core::engine::expected_checksum;
use rftp_core::pattern::{checksum, fill_pattern};
use rftp_core::wire::{BlockAck, CtrlMsg, DataFrameHeader, PayloadHeader, PAYLOAD_HEADER_LEN};
use rftp_core::{
    AtomicSinkPool, AtomicSourcePool, Granter, LossDetector, PoolGeometry, ReorderBuffer,
    WeightedFair,
};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Capacity of the source's credit ring. The peer's pool bounds how many
/// credits can be outstanding, and the source no longer knows its size —
/// so the ring is simply sized past any configurable sink pool.
const REMOTE_SLOT_RING: u32 = 4096;

pub(crate) fn perr(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, msg.into())
}

/// First-error-wins failure latch shared by every thread of a half.
/// Recording an error tears the transport down ([`SourceTransport::abort`]
/// / [`SinkTransport::abort`]), so peers and siblings blocked on a link
/// error out instead of hanging; lock-free waits poll [`Fail::is_set`].
pub(crate) struct Fail {
    flag: AtomicBool,
    err: Mutex<Option<io::Error>>,
    abort: Arc<dyn Fn() + Send + Sync>,
}

impl Fail {
    pub(crate) fn new(abort: Arc<dyn Fn() + Send + Sync>) -> Fail {
        Fail {
            flag: AtomicBool::new(false),
            err: Mutex::new(None),
            abort,
        }
    }

    pub(crate) fn set(&self, e: io::Error) {
        {
            let mut slot = self.err.lock();
            if slot.is_none() {
                *slot = Some(e);
            }
        }
        self.flag.store(true, Ordering::Release);
        (self.abort)();
    }

    pub(crate) fn is_set(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    pub(crate) fn into_err(self) -> io::Error {
        self.err
            .into_inner()
            .unwrap_or_else(|| perr("transfer failed"))
    }

    /// Held at the top of every pipeline thread: if the thread unwinds,
    /// the latch trips, so the transport is torn down and the siblings
    /// and the peer error out instead of waiting on a thread that is gone.
    /// (The panic itself still surfaces where the thread is joined.)
    pub(crate) fn on_panic(&self) -> PanicGuard<'_> {
        PanicGuard(self)
    }
}

pub(crate) struct PanicGuard<'a>(&'a Fail);

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.set(perr("a pipeline thread panicked"));
        }
    }
}

// ---------------------------------------------------------------------------
// Adaptive controller
// ---------------------------------------------------------------------------

/// Per-session adaptive control: one RFC 6298 estimator behind a lock,
/// with every figure the hot paths consume (retransmit deadline, dwell
/// window, in-flight depth target) mirrored into atomics so the watchdog
/// and the coalescing loop read without contending on the estimator.
///
/// Each half runs its own controller off its own feedback loop:
///
/// * the **source** samples block-sent → ack-retired (Karn-filtered to
///   first-attempt acks) and drives the retransmit deadline from
///   `srtt + 4·rttvar` instead of the fixed `retx_timeout`, which fires
///   spuriously the moment the path RTT approaches it;
/// * the **sink** samples credit-granted → data-arrived per slot and
///   drives the coalescing dwell (~srtt/8 instead of the loopback-tuned
///   floor) and — when the offered path rate is known — a 2×BDP bound on
///   outstanding credits, so a short pipe is not flooded with the whole
///   pool and a long one is filled.
pub(crate) struct Controller {
    est: Mutex<rftp_core::RttEstimator>,
    /// Derived figures, 0 = no estimate yet (fall back to the static knob).
    rto_ns: AtomicU64,
    dwell_ns: AtomicU64,
    depth: AtomicU64,
    first_block_ns: AtomicU64,
    t0: Instant,
    rate_bps: Option<f64>,
    block_size: usize,
    depth_cap: u32,
    depth_floor: u32,
}

impl Controller {
    pub(crate) fn new(cfg: &LiveConfig) -> Controller {
        Controller {
            est: Mutex::new(rftp_core::RttEstimator::new()),
            rto_ns: AtomicU64::new(0),
            dwell_ns: AtomicU64::new(0),
            depth: AtomicU64::new(0),
            first_block_ns: AtomicU64::new(0),
            t0: Instant::now(),
            rate_bps: cfg.wan_rate_bps,
            block_size: cfg.block_size,
            depth_cap: cfg.pool_blocks,
            // Never throttle below two blocks per channel — the BDP of a
            // LAN path rounds to almost nothing, but every channel still
            // needs work in flight to overlap with the credit loop.
            depth_floor: (cfg.channels as u32 * 2).min(cfg.pool_blocks),
        }
    }

    /// Fold in one clean feedback-loop sample and refresh the derived
    /// atomics. Callers apply Karn's rule (first-attempt acks only).
    pub(crate) fn on_rtt_sample(&self, rtt: std::time::Duration) {
        let mut est = self.est.lock();
        est.on_sample(rtt);
        if let Some(rto) = est.rto() {
            // The controller's own depth target keeps ~2×BDP in flight,
            // so a block lawfully waits ~3×min_rtt for its ack —
            // propagation plus a full window draining ahead of it. The
            // RFC 6298 deadline undershoots that during the ramp (srtt
            // lags the queue it is busy building), so floor it at
            // 4×min_rtt: by-design queueing must never read as loss.
            // LAN paths are unaffected (µs-scale min_rtt, the 10 ms
            // estimator floor dominates).
            let floor = est
                .min_rtt()
                .map_or(0, |m| 4 * m.as_nanos().min(u64::MAX as u128 / 4) as u64);
            self.rto_ns
                .store((rto.as_nanos() as u64).max(floor), Ordering::Relaxed);
        }
        if let Some(dwell) = est.dwell() {
            self.dwell_ns
                .store(dwell.as_nanos() as u64, Ordering::Relaxed);
        }
        // The BDP depth target only means something on a propagation-
        // dominated path: below ~1 ms the measured floor is mostly
        // per-block service time (placement, checksum, scheduling), and
        // a clamp computed from it starves the thread pipeline that the
        // pool was sized for. LAN-class paths keep the full pool.
        if let (Some(rate), Some(min_rtt)) = (self.rate_bps, est.min_rtt()) {
            if min_rtt >= std::time::Duration::from_millis(1) {
                if let Some(bdp) = est.bdp_blocks(rate, self.block_size) {
                    let d = (bdp.min(self.depth_cap as u64) as u32).max(self.depth_floor);
                    self.depth.store(d as u64, Ordering::Relaxed);
                }
            }
        }
    }

    /// The watchdog re-sent a block (either trigger): count it toward
    /// the loss rate.
    pub(crate) fn on_loss(&self) {
        self.est.lock().on_loss();
    }

    /// Current retransmit deadline; `initial` until the first sample.
    pub(crate) fn rto(&self, initial: std::time::Duration) -> std::time::Duration {
        match self.rto_ns.load(Ordering::Relaxed) {
            0 => initial,
            ns => std::time::Duration::from_nanos(ns),
        }
    }

    /// Current dwell window; `initial` until the first sample.
    pub(crate) fn dwell(&self, initial: std::time::Duration) -> std::time::Duration {
        match self.dwell_ns.load(Ordering::Relaxed) {
            0 => initial,
            ns => std::time::Duration::from_nanos(ns),
        }
    }

    /// BDP-derived bound on outstanding credits, once rate and RTT are
    /// both known; `None` = leave the pool-sized default alone.
    pub(crate) fn depth(&self) -> Option<u32> {
        match self.depth.load(Ordering::Relaxed) {
            0 => None,
            d => Some(d as u32),
        }
    }

    /// Record first-block placement latency (idempotent; the first call
    /// wins). Measured from controller construction, which both halves
    /// do before the session handshake.
    pub(crate) fn mark_first_block(&self) {
        let ns = self.t0.elapsed().as_nanos().max(1) as u64;
        let _ = self
            .first_block_ns
            .compare_exchange(0, ns, Ordering::Relaxed, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> rftp_core::AdaptSnapshot {
        let mut s = self.est.lock().snapshot();
        s.effective_depth = self.depth.load(Ordering::Relaxed) as u32;
        s.first_block_us = self.first_block_ns.load(Ordering::Relaxed) as f64 / 1e3;
        s
    }
}

/// The source's current retransmit deadline. Statically configured runs
/// use the fixed `retx_timeout`; adaptive runs start from a deadline that
/// cannot fire before the path is measured (a fixed 100 ms default fires
/// spuriously at WAN RTTs) and then track the estimator.
fn retx_deadline(cfg: &LiveConfig, ctl: Option<&Controller>) -> std::time::Duration {
    match ctl {
        Some(c) => c.rto(cfg.retx_timeout.max(std::time::Duration::from_millis(100))),
        None => cfg.retx_timeout,
    }
}

// ---------------------------------------------------------------------------
// Source half
// ---------------------------------------------------------------------------

/// Run the source half of a transfer over `t`: negotiate, load blocks
/// (pattern or `src_file`), dispatch them in sequence order as data
/// frames, retire them on the sink's acks, send `DatasetComplete`, and
/// half-close. Returns this half's view of the transfer.
pub fn run_split_source(cfg: &LiveConfig, t: SourceTransport) -> io::Result<LiveReport> {
    assert!(cfg.channels >= 1 && cfg.loaders >= 1 && cfg.total_bytes > 0);
    let total_blocks = cfg.total_blocks();
    let geo = PoolGeometry::new(cfg.block_size as u64, cfg.pool_blocks);
    let src_backend = SrcBackend::open(cfg)?;
    let direct_io_active = src_backend.direct_active();
    // Read-ahead limit: how many blocks the source may hold at once. +1
    // because "no read-ahead" still needs the block in service; capped at
    // the pool, where the free-list wait already throttles.
    let ra_limit = (cfg.readahead.saturating_add(1)).min(cfg.pool_blocks) as usize;
    // Modeled-device pacing only applies where there is a device to
    // model: a pattern source has no read stage.
    let pacer = match &src_backend {
        SrcBackend::File(_) => cfg.src_rate.map(RatePacer::new),
        SrcBackend::Pattern => None,
    };

    let SourceTransport {
        ctrl_tx,
        mut ctrl_rx,
        data,
        register,
        transport_threads,
        shutdown_write,
        abort,
    } = t;
    // The ack-loop estimator: block sent → ack retired, Karn-filtered.
    let ctl = cfg.adaptive.then(|| Controller::new(cfg));

    // The request leaves before the pool exists: zero-filling a BDP-sized
    // pool takes as long as a WAN round trip, and the sink needs nothing
    // from it to accept the session and start granting.
    let start = Instant::now();
    ctrl_tx.send(&CtrlMsg::SessionRequest {
        session: SESSION,
        block_size: cfg.block_size as u64,
        channels: cfg.channels as u16,
        total_bytes: cfg.total_bytes,
        notify_imm: true, // stream arrivals are inherently in-band
    })?;
    let mut ctrl_msgs = 1u64;

    let src_pool = AtomicSourcePool::new(geo);
    // Arc'd so a completion-based transport can hold the pool across its
    // in-flight sends (the registered-buffer lifetime).
    let src_bufs = Arc::new(BlockPool::new(cfg.pool_blocks, cfg.block_size));
    let stock = CreditSlots::new(REMOTE_SLOT_RING);
    let inflight: Vec<Mutex<Option<InFlightInfo>>> =
        (0..cfg.pool_blocks).map(|_| Mutex::new(None)).collect();
    // Which pool block carries each in-flight sequence — the ack names a
    // sequence, and over a real wire the sink cannot name our block.
    let seq2block: Mutex<HashMap<u32, u32>> = Mutex::new(HashMap::new());
    // Pin the pool into the transport (fixed-buffer registration on
    // io_uring, no-op elsewhere) before any data is sent.
    register(&src_bufs)?;
    let fail = Fail::new(abort);
    let next_seq = AtomicU64::new(0);
    let (loaded_tx, loaded_rx) = bounded::<u32>(cfg.pool_blocks as usize);

    // Loss recovery runs on one watchdog thread with two triggers: the
    // control thread hands it blocks the ack stream proves lost (see
    // [`rftp_core::LossDetector`]), and a timer scan catches what acks
    // cannot — the tail of a transfer, a re-send with too few sends
    // behind it. A clean static run starts neither.
    let detector = LossDetector::new(cfg.channels);
    let (lost_tx, lost_rx) = (cfg.fault_drop_p > 0.0 || cfg.adaptive)
        .then(|| bounded::<u32>(cfg.pool_blocks as usize))
        .unzip();

    #[derive(Default)]
    struct Tally {
        ctrl: u64,
        credit_requests: u64,
        dropped: u64,
        retransmits: u64,
        fast_retransmits: u64,
        load_ns: u64,
        dispatch_ns: u64,
        load_hist: NsHist,
        dispatch_hist: NsHist,
    }
    let mut tally = Tally::default();

    std::thread::scope(|s| {
        // Loaders: claim sequence numbers, fill blocks with header +
        // payload (pattern or file read), hand them to the dispatcher.
        // The free-wait polls the failure latch so a dead transport
        // releases them.
        let loader_handles: Vec<_> = (0..cfg.loaders)
            .map(|_| {
                let loaded_tx = loaded_tx.clone();
                let (src_pool, src_backend, pacer) = (&src_pool, &src_backend, &pacer);
                let (src_bufs, inflight, seq2block) = (&src_bufs, &inflight, &seq2block);
                let (next_seq, fail, cfg) = (&next_seq, &fail, &cfg);
                s.spawn(move || {
                    let _guard = fail.on_panic();
                    let mut load_ns = 0u64;
                    let mut load_hist = NsHist::new();
                    loop {
                        // Hold a block BEFORE claiming a sequence:
                        // claiming first would let sibling loaders absorb
                        // the whole pool for later sequences and starve
                        // the one the in-order pipeline needs next.
                        //
                        // Read-ahead pacing rides the same wait: a loader
                        // only prefetches while fewer than `ra_limit`
                        // blocks are in flight. At the default (full-pool)
                        // depth that is the free-list wait itself; at
                        // `readahead = 0` it serializes the transfer for
                        // overlap-ablation runs.
                        let mut spins = 0;
                        let block = loop {
                            if next_seq.load(Ordering::Relaxed) >= total_blocks || fail.is_set() {
                                return (load_ns, load_hist);
                            }
                            if src_pool.in_flight() < ra_limit {
                                if let Some(b) = src_pool.get_free() {
                                    break b;
                                }
                            }
                            backoff(&mut spins);
                        };
                        let seq = next_seq.fetch_add(1, Ordering::Relaxed);
                        if seq >= total_blocks {
                            src_pool.abandon(block).expect("FSM: abandon");
                            return (load_ns, load_hist);
                        }
                        let offset = seq * cfg.block_size as u64;
                        let len = (cfg.total_bytes - offset).min(cfg.block_size as u64) as u32;
                        let t0 = Instant::now();
                        {
                            let mut buf = src_bufs[block as usize].lock();
                            PayloadHeader {
                                session: SESSION,
                                seq: seq as u32,
                                offset,
                                len,
                            }
                            .encode(&mut buf[..PAYLOAD_HEADER_LEN]);
                            match src_backend {
                                SrcBackend::Pattern => fill_pattern(
                                    &mut buf[PAYLOAD_HEADER_LEN..PAYLOAD_HEADER_LEN + len as usize],
                                    pattern_seed(seq as u32),
                                ),
                                SrcBackend::File(f) => {
                                    if let Err(e) = f.read_block(
                                        &mut buf[PAYLOAD_HEADER_LEN..],
                                        len as usize,
                                        offset,
                                    ) {
                                        fail.set(e);
                                        return (load_ns, load_hist);
                                    }
                                    if let Some(p) = pacer {
                                        p.pace(len as usize);
                                    }
                                }
                            }
                        }
                        let ns = t0.elapsed().as_nanos() as u64;
                        load_ns += ns;
                        load_hist.record(ns);
                        *inflight[block as usize].lock() = Some(InFlightInfo {
                            seq: seq as u32,
                            slot: u32::MAX,
                            len,
                            sent_at: Instant::now(),
                            attempts: 0,
                            ch: 0,
                            ordinal: 0,
                        });
                        seq2block.lock().insert(seq as u32, block);
                        src_pool.loaded(block).expect("FSM: loaded");
                        if loaded_tx.send(block).is_err() {
                            return (load_ns, load_hist); // dispatcher bailed; fail is set
                        }
                    }
                })
            })
            .collect();
        drop(loaded_tx);

        // Dispatcher: in-order, credit-paired, one vectored send per
        // block straight from the pinned block buffer.
        let dispatcher = {
            let (data, ctrl_tx) = (data.clone(), ctrl_tx.clone());
            let (stock, src_pool, inflight, src_bufs) = (&stock, &src_pool, &inflight, &src_bufs);
            let (fail, cfg, ctl, detector) = (&fail, &cfg, &ctl, &detector);
            s.spawn(move || {
                let _guard = fail.on_panic();
                let mut rr = 0usize;
                let mut fault_rng = cfg.fault_seed;
                let mut dispatch_ns = 0u64;
                let mut dispatch_hist = NsHist::new();
                let mut ctrl_sent = 0u64;
                let mut credit_requests = 0u64;
                let mut dropped = 0u64;
                // Dispatch stays in sequence order (see the module doc);
                // loaders finish out of order.
                let mut dispatch_order = ReorderBuffer::<u32>::new();
                let mut ready: std::collections::VecDeque<u32> = Default::default();
                let mut drain: Vec<u32> = Vec::with_capacity(cfg.pool_blocks as usize);
                // A send can fail *after* its block completed: the
                // watchdog's copy of a block this thread stalled on was
                // placed and acked, the control thread finished the
                // transfer and closed the link, and only then did the
                // first send go out. A link error is an error only while
                // a block it could have carried is still unacked.
                let unacked = |block: u32, seq: u32| {
                    (inflight[block as usize].lock().as_ref()).is_some_and(|i| i.seq == seq)
                };
                let any_dispatched = || {
                    let dispatched = |i: &InFlightInfo| i.slot != u32::MAX;
                    (inflight.iter()).any(|m| m.lock().as_ref().is_some_and(dispatched))
                };
                let kick_all = || match data.iter().try_for_each(|d| d.kick()) {
                    Err(e) if any_dispatched() => Err(e),
                    _ => Ok(()),
                };
                while let Ok(_n) = loaded_rx.recv_batch(&mut drain, cfg.pool_blocks as usize) {
                    for block in drain.drain(..) {
                        let seq = inflight[block as usize]
                            .lock()
                            .as_ref()
                            .expect("loaded block untracked")
                            .seq;
                        for (_, b) in dispatch_order.push(seq, block) {
                            ready.push_back(b);
                        }
                    }
                    while let Some(block) = ready.pop_front() {
                        let slot = {
                            let mut spins = 0;
                            let mut starved_since: Option<Instant> = None;
                            let mut kicked = false;
                            loop {
                                if fail.is_set() {
                                    return (
                                        dispatch_ns,
                                        ctrl_sent,
                                        credit_requests,
                                        dropped,
                                        dispatch_hist,
                                    );
                                }
                                if let Some(s2) = stock.slots.try_pop() {
                                    break s2;
                                }
                                // Out of credits: before waiting on the
                                // sink's grants, make sure every queued
                                // send is actually on the wire — the
                                // grants we are waiting for are earned by
                                // arrivals.
                                if !kicked {
                                    kicked = true;
                                    if let Err(e) = kick_all() {
                                        fail.set(e);
                                        return (
                                            dispatch_ns,
                                            ctrl_sent,
                                            credit_requests,
                                            dropped,
                                            dispatch_hist,
                                        );
                                    }
                                }
                                if !stock.request_outstanding.swap(true, Ordering::AcqRel) {
                                    credit_requests += 1;
                                    ctrl_sent += 1;
                                    if let Err(e) =
                                        ctrl_tx.send(&CtrlMsg::MrRequest { session: SESSION })
                                    {
                                        fail.set(e);
                                        return (
                                            dispatch_ns,
                                            ctrl_sent,
                                            credit_requests,
                                            dropped,
                                            dispatch_hist,
                                        );
                                    }
                                    starved_since = Some(Instant::now());
                                }
                                // Re-arm only once the first request's
                                // answer is overdue: on a measured path
                                // that is the retransmit deadline — a
                                // fixed 20 ms re-asks two or three times
                                // per starvation inside one WAN round
                                // trip, each answered by a grant the
                                // first request already earned.
                                let rearm = match ctl {
                                    Some(c) => retx_deadline(cfg, Some(c)),
                                    None => std::time::Duration::from_millis(20),
                                };
                                if starved_since.is_some_and(|t| t.elapsed() > rearm) {
                                    stock.request_outstanding.store(false, Ordering::Release);
                                    starved_since = None;
                                }
                                backoff(&mut spins);
                            }
                        };
                        let t0 = Instant::now();
                        let ch = rr % data.len();
                        rr += 1;
                        // The FSM moves before the block's slot is
                        // published: from that store on the watchdog may
                        // re-send the block and its ack may complete it,
                        // even ahead of the send below — a dispatcher
                        // descheduled here for one retransmit deadline
                        // must leave the block in a state `complete`
                        // accepts.
                        src_pool.start_sending(block).expect("FSM: start_sending");
                        src_pool.posted(block).expect("FSM: posted");
                        let info = {
                            let mut inf = inflight[block as usize].lock();
                            let i = inf.as_mut().expect("loaded block untracked");
                            i.slot = slot;
                            i.sent_at = Instant::now();
                            i.attempts = 1;
                            i.ch = ch;
                            i.ordinal = detector.on_send(ch);
                            *i
                        };
                        // Test hook: the descheduling described above,
                        // on demand and for two deadlines per block.
                        #[cfg(test)]
                        if cfg.fault_seed == tests::STALLED_DISPATCH_SEED {
                            std::thread::sleep(2 * cfg.retx_timeout);
                        }
                        if cfg.fault_drop_p > 0.0 && drop_roll(&mut fault_rng) < cfg.fault_drop_p {
                            // The wire ate it — ordinal and all, as a real
                            // loss would; the watchdog re-sends.
                            dropped += 1;
                        } else {
                            let hdr = DataFrameHeader {
                                session: SESSION,
                                seq: info.seq,
                                slot,
                                len: info.len,
                            };
                            if let Err(e) = data[ch].send_block(hdr, src_bufs, block) {
                                if unacked(block, info.seq) {
                                    fail.set(e);
                                    return (
                                        dispatch_ns,
                                        ctrl_sent,
                                        credit_requests,
                                        dropped,
                                        dispatch_hist,
                                    );
                                }
                            }
                        }
                        let ns = t0.elapsed().as_nanos() as u64;
                        dispatch_ns += ns;
                        dispatch_hist.record(ns);
                    }
                    // One doorbell per drain: submit the whole batch of
                    // queued sends with a single kernel crossing before
                    // blocking for the next load.
                    let t0 = Instant::now();
                    if let Err(e) = kick_all() {
                        fail.set(e);
                        return (
                            dispatch_ns,
                            ctrl_sent,
                            credit_requests,
                            dropped,
                            dispatch_hist,
                        );
                    }
                    dispatch_ns += t0.elapsed().as_nanos() as u64;
                }
                if !fail.is_set() {
                    assert!(
                        dispatch_order.is_drained(),
                        "loads ended with a sequence gap"
                    );
                }
                (
                    dispatch_ns,
                    ctrl_sent,
                    credit_requests,
                    dropped,
                    dispatch_hist,
                )
            })
        };

        // Retransmit watchdog — the live analogue of the simulated
        // engine's TOK_RETX scan, parked on the control thread's hand-off
        // queue. It wakes for a block the acks prove lost, or after a
        // quarter deadline to scan for blocks unacked past it; either way
        // the block is judged again under its in-flight lock, so one
        // queued twice (or acked meanwhile) is not sent twice. A re-send
        // can itself be lost and retried. The queue disconnecting — the
        // control thread finished or failed — ends the thread at once.
        let retx_watchdog = lost_rx.map(|lost_rx| {
            let data = data.clone();
            let (inflight, src_bufs, detector) = (&inflight, &src_bufs, &detector);
            let (fail, cfg, ctl) = (&fail, &cfg, &ctl);
            s.spawn(move || {
                let _guard = fail.on_panic();
                let mut rr = 0usize;
                let mut retransmits = 0u64;
                let mut fast_retransmits = 0u64;
                let mut dropped = 0u64;
                let mut due: Vec<u32> = Vec::with_capacity(cfg.pool_blocks as usize);
                let mut next_scan = Instant::now() + retx_deadline(cfg, ctl.as_ref()) / 4;
                loop {
                    let wait = next_scan.saturating_duration_since(Instant::now());
                    if lost_rx.recv_batch_timeout(&mut due, cfg.pool_blocks as usize, wait)
                        == Err(TryRecvError::Disconnected)
                        || fail.is_set()
                    {
                        break;
                    }
                    let deadline = retx_deadline(cfg, ctl.as_ref());
                    if Instant::now() >= next_scan {
                        due.clear();
                        due.extend(0..cfg.pool_blocks);
                        next_scan = Instant::now() + deadline / 4;
                    }
                    for block in due.drain(..) {
                        // Hold the entry across the re-send so a racing
                        // ack cannot retire the block mid-send.
                        let mut inf = inflight[block as usize].lock();
                        let Some(i) = inf.as_mut() else { continue };
                        if i.slot == u32::MAX {
                            continue;
                        }
                        let by_ack = detector.is_lost(i.ch, i.ordinal);
                        // Karn's backoff: every unacked attempt doubles
                        // this block's own deadline. The RTO tracks
                        // *network* srtt, but the ack can also stall on
                        // receiver-side work (write-behind flush, CPU
                        // steal); without backoff one such stall expires
                        // the whole window, and the retransmits re-queue
                        // behind the stall and expire again — a storm
                        // that feeds the loss EWMA instead of the pipe.
                        let shift = i.attempts.saturating_sub(1).min(6);
                        if !by_ack && i.sent_at.elapsed() < deadline.saturating_mul(1 << shift) {
                            continue;
                        }
                        assert!(i.attempts < 64, "block seq {} will not go through", i.seq);
                        let ch = rr % data.len();
                        rr += 1;
                        i.sent_at = Instant::now();
                        i.attempts += 1;
                        retransmits += 1;
                        fast_retransmits += by_ack as u64;
                        if let Some(c) = ctl {
                            c.on_loss();
                        }
                        // The same drop dice as a first send, keyed by
                        // (sequence, attempt): which re-sends the wire
                        // eats is a property of the seed, not of the
                        // order recovery happened to run in.
                        let mut dice = cfg.fault_seed
                            ^ 0x5EED_5EED_5EED_5EED
                            ^ ((i.seq as u64) << 8 | i.attempts as u64);
                        if drop_roll(&mut dice) < cfg.fault_drop_p {
                            dropped += 1;
                        } else {
                            let hdr = DataFrameHeader {
                                session: SESSION,
                                seq: i.seq,
                                slot: i.slot,
                                len: i.len,
                            };
                            // Queue + kick immediately: retransmits are
                            // rare and latency-bound, not batched.
                            if let Err(e) = data[ch]
                                .send_block(hdr, src_bufs, block)
                                .and_then(|()| data[ch].kick())
                            {
                                fail.set(e);
                                return (retransmits, fast_retransmits, dropped);
                            }
                        }
                        // Stamped once the frame is on the link, not
                        // before: the dispatcher shares these channels,
                        // and an ordinal drawn ahead of a send it then
                        // overtakes would read as a hole three acks later.
                        // Drawn late, the ordinal can only understate how
                        // long the attempt has been out.
                        i.ch = ch;
                        i.ordinal = detector.on_send(ch);
                    }
                }
                (retransmits, fast_retransmits, dropped)
            })
        });

        // Control thread: deposits credits, retires blocks on the sink's
        // acks, and runs the teardown — `DatasetComplete`, write
        // shutdown, then a drain to end-of-stream so the link closes
        // only after the sink has read everything.
        let ctrl = {
            let ctrl_tx = ctrl_tx.clone();
            let (stock, src_pool, inflight, seq2block) = (&stock, &src_pool, &inflight, &seq2block);
            let (fail, ctl, cfg, detector) = (&fail, &ctl, &cfg, &detector);
            s.spawn(move || {
                let _guard = fail.on_panic();
                let mut lost_tx = lost_tx;
                let watched = lost_tx.is_some();
                let mut ctrl_count = 0u64;
                let mut completed = 0u64;
                // Retire one acked sequence; true when recovery is running
                // and the ack moved its channel's high-water mark.
                let retire = |seq: u32| -> io::Result<bool> {
                    let block = seq2block
                        .lock()
                        .remove(&seq)
                        .ok_or_else(|| perr(format!("ack for unknown seq {seq}")))?;
                    let info = inflight[block as usize]
                        .lock()
                        .take()
                        .ok_or_else(|| perr(format!("ack for idle block {block}")))?;
                    debug_assert_eq!(info.seq, seq);
                    // Karn's rule: a retransmitted block's ack cannot be
                    // attributed to an attempt, so only first-attempt
                    // acks feed the estimator.
                    let first_attempt = info.attempts == 1;
                    if first_attempt {
                        if let Some(c) = ctl {
                            c.on_rtt_sample(info.sent_at.elapsed());
                        }
                    }
                    src_pool.complete(block).expect("FSM: complete");
                    Ok(watched && detector.on_ack(info.ch, info.ordinal, first_attempt))
                };
                while completed < total_blocks {
                    match ctrl_rx.recv() {
                        Ok(Some(msg)) => {
                            ctrl_count += 1;
                            let mut advanced = false;
                            let handled = match msg {
                                CtrlMsg::SessionAccept { session, .. } if session == SESSION => {
                                    Ok(())
                                }
                                CtrlMsg::Credits { session, credits } if session == SESSION => {
                                    for c in credits {
                                        stock.deposit(c.slot);
                                    }
                                    Ok(())
                                }
                                CtrlMsg::CreditBatch { session, slots, .. }
                                    if session == SESSION =>
                                {
                                    for slot in slots {
                                        stock.deposit(slot);
                                    }
                                    Ok(())
                                }
                                CtrlMsg::BlockComplete { session, seq, .. }
                                    if session == SESSION =>
                                {
                                    completed += 1;
                                    retire(seq).map(|adv| advanced = adv)
                                }
                                CtrlMsg::AckBatch { session, acks } if session == SESSION => {
                                    completed += acks.len() as u64;
                                    acks.iter()
                                        .try_for_each(|a| retire(a.seq).map(|adv| advanced |= adv))
                                }
                                // Typed admission outcomes: a busy sink
                                // names a retry delay (transient), a
                                // reject names a geometry the sink will
                                // never take. Distinct error kinds so
                                // callers can tell them apart.
                                CtrlMsg::SessionBusy { retry_after_ms, .. } => Err(io::Error::new(
                                    io::ErrorKind::ConnectionRefused,
                                    format!("sink is busy; retry after {retry_after_ms} ms"),
                                )),
                                CtrlMsg::SessionReject { reason, .. } => Err(io::Error::new(
                                    io::ErrorKind::InvalidInput,
                                    format!("sink rejected the session (reason {reason})"),
                                )),
                                other => Err(perr(format!("unexpected ctrl at source: {other:?}"))),
                            };
                            if let Err(e) = handled {
                                fail.set(e);
                                return ctrl_count;
                            }
                            // A high-water mark moved: hand the watchdog
                            // every attempt it now proves lost. (Nothing
                            // is scanned for acks that moved no mark.)
                            if let (true, Some(tx)) = (advanced, &lost_tx) {
                                for block in 0..cfg.pool_blocks {
                                    let lost =
                                        inflight[block as usize].lock().as_ref().is_some_and(|i| {
                                            i.slot != u32::MAX && detector.is_lost(i.ch, i.ordinal)
                                        });
                                    if lost {
                                        // A dead watchdog has set `fail`.
                                        let _ = tx.send(block);
                                    }
                                }
                            }
                        }
                        Ok(None) => {
                            fail.set(perr("peer closed the control stream mid-transfer"));
                            return ctrl_count;
                        }
                        Err(e) => {
                            if !fail.is_set() {
                                fail.set(e);
                            }
                            return ctrl_count;
                        }
                    }
                }
                // Every block is acked: wake the watchdog to exit now.
                lost_tx.take();
                match ctrl_tx.send(&CtrlMsg::DatasetComplete {
                    session: SESSION,
                    total_blocks: total_blocks as u32,
                }) {
                    Ok(()) => ctrl_count += 1,
                    Err(e) => {
                        fail.set(e);
                        return ctrl_count;
                    }
                }
                shutdown_write();
                // Drain trailing frames (credits granted after our last
                // block freed) until the sink closes its side.
                while let Ok(Some(_)) = ctrl_rx.recv() {
                    ctrl_count += 1;
                }
                ctrl_count
            })
        };

        for h in loader_handles {
            let (load_ns, load_hist) = h.join().expect("loader panicked");
            tally.load_ns += load_ns;
            tally.load_hist.merge(&load_hist);
        }
        let (dispatch_ns, disp_ctrl, credit_requests, dropped, dispatch_hist) =
            dispatcher.join().expect("dispatcher panicked");
        tally.dispatch_ns = dispatch_ns;
        tally.dispatch_hist = dispatch_hist;
        tally.ctrl += disp_ctrl;
        tally.credit_requests = credit_requests;
        tally.dropped = dropped;
        if let Some(h) = retx_watchdog {
            let (retransmits, fast_retransmits, dropped) =
                h.join().expect("retx watchdog panicked");
            tally.retransmits = retransmits;
            tally.fast_retransmits = fast_retransmits;
            tally.dropped += dropped;
        }
        tally.ctrl += ctrl.join().expect("source ctrl panicked");
    });

    if fail.is_set() {
        return Err(fail.into_err());
    }
    ctrl_msgs += tally.ctrl;
    let elapsed = start.elapsed();
    src_pool.check_invariants();
    let per_block = |ns: u64| ns as f64 / total_blocks as f64;
    Ok(LiveReport {
        bytes: cfg.total_bytes,
        blocks: total_blocks,
        elapsed,
        gbytes_per_sec: cfg.total_bytes as f64 / 1e9 / elapsed.as_secs_f64().max(1e-9),
        checksum_failures: 0,
        ooo_blocks: 0,
        ctrl_msgs,
        ctrl_msgs_per_block: ctrl_msgs as f64 / total_blocks as f64,
        credit_requests: tally.credit_requests,
        dropped_payloads: tally.dropped,
        retransmits: tally.retransmits,
        fast_retransmits: tally.fast_retransmits,
        duplicate_payloads: 0,
        stages: StageBreakdown {
            load_ns: per_block(tally.load_ns),
            dispatch_ns: per_block(tally.dispatch_ns),
            ..Default::default()
        },
        tails: StageTails {
            load: tally.load_hist,
            dispatch: tally.dispatch_hist,
            ..Default::default()
        },
        transport_threads,
        direct_io_active,
        uring: None,
        adapt: ctl.as_ref().map(Controller::snapshot),
    })
}

// ---------------------------------------------------------------------------
// Sink half
// ---------------------------------------------------------------------------

/// Everything the sink's control handler reacts to, on one channel.
pub(crate) enum SinkEvt {
    /// A data frame placed into its credited slot.
    Arrival { seq: u32, slot: u32, len: u32 },
    /// A control frame from the peer.
    Ctrl(CtrlMsg),
    /// One data link reached clean end-of-stream.
    DataEof,
    /// The control link reached clean end-of-stream.
    CtrlEof,
}

/// The weighted-fair arbiter hook a daemon session runs under: grants
/// pass through `fair.allow(id, …)` before leaving, and every freed
/// block releases one outstanding credit back to the shared budget.
/// Standalone sinks run without one (no clamp).
pub(crate) type FairShare<'a> = Option<(&'a WeightedFair, u64)>;

/// What a session's receivers — per-channel threads, or a ring driver on
/// its behalf — clocked and counted while placing blocks.
#[derive(Default)]
pub(crate) struct PlaceTally {
    pub(crate) place_ns: u64,
    pub(crate) flush_ns: u64,
    pub(crate) duplicates: u64,
    pub(crate) place_hist: NsHist,
}

impl PlaceTally {
    pub(crate) fn merge(&mut self, other: &PlaceTally) {
        self.place_ns += other.place_ns;
        self.flush_ns += other.flush_ns;
        self.duplicates += other.duplicates;
        self.place_hist.merge(&other.place_hist);
    }
}

/// The placement front: what every receiver of a session — the TCP/shm
/// reader threads, the uring driver's multishot parser and its
/// header-first fallback — decides about a data frame, in one place. A
/// frame is *admitted* (valid for this session's geometry, and the first
/// arrival of its sequence) before any payload byte is read, and
/// *landed* once its wire image sits in the credited slot.
pub(crate) struct SinkFront {
    block_size: usize,
    pool_blocks: u32,
    total_blocks: u64,
    /// Claim-before-copy: one bit per sequence, set by whichever frame
    /// arrives first.
    placed: AtomicBitmap,
    backend: SnkBackend,
}

impl SinkFront {
    pub(crate) fn open(cfg: &LiveConfig) -> io::Result<SinkFront> {
        Ok(SinkFront {
            block_size: cfg.block_size,
            pool_blocks: cfg.pool_blocks,
            total_blocks: cfg.total_blocks(),
            placed: AtomicBitmap::new(cfg.total_blocks()),
            backend: SnkBackend::open(cfg)?,
        })
    }

    /// Route on the header alone. `Err` is a frame outside the session's
    /// geometry (the peer is broken or hostile — the session dies);
    /// `Ok(false)` is a duplicate — a retransmit raced a slow ack, its
    /// slot may have been re-granted, so the caller discards the wire
    /// image unread and nothing is placed twice; `Ok(true)` means read
    /// it into slot `hdr.slot`.
    pub(crate) fn admit(&self, hdr: &DataFrameHeader, tally: &mut PlaceTally) -> io::Result<bool> {
        if hdr.session != SESSION
            || hdr.slot >= self.pool_blocks
            || hdr.len as usize > self.block_size
            || hdr.seq as u64 >= self.total_blocks
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad data frame {hdr:?}"),
            ));
        }
        let first = self.placed.claim(hdr.seq as u64);
        if !first {
            tally.duplicates += 1;
        }
        Ok(first)
    }

    /// The frame's wire image is in `slot`: stop the place clock started
    /// at `t0`, write the payload behind to a file sink at its final
    /// offset (sparse placement *is* the reassembly), and name the
    /// arrival for the handler.
    pub(crate) fn landed(
        &self,
        hdr: &DataFrameHeader,
        slot: &[u8],
        t0: Instant,
        tally: &mut PlaceTally,
    ) -> io::Result<SinkEvt> {
        let ns = t0.elapsed().as_nanos() as u64;
        tally.place_ns += ns;
        tally.place_hist.record(ns);
        if let SnkBackend::File(sink) = &self.backend {
            let t1 = Instant::now();
            sink.write_block(
                &slot[PAYLOAD_HEADER_LEN..PAYLOAD_HEADER_LEN + hdr.len as usize],
                hdr.seq as u64 * self.block_size as u64,
            )?;
            tally.flush_ns += t1.elapsed().as_nanos() as u64;
        }
        Ok(SinkEvt::Arrival {
            seq: hdr.seq,
            slot: hdr.slot,
            len: hdr.len,
        })
    }
}

/// One sink session's shared state, whatever carries its bytes: the
/// placement front, the Fig. 6 slot FSM, the granter, the grant-loop
/// controller and the session clock. The three runners
/// ([`run_sink_session`] and the two in [`crate::uring`]) differ only in
/// who feeds [`SinkHandler::run`] its events.
pub(crate) struct SinkSession<'a> {
    cfg: &'a LiveConfig,
    /// `Arc` because the daemon's shared uring driver places on another
    /// thread that this session does not scope.
    pub(crate) front: Arc<SinkFront>,
    snk_pool: AtomicSinkPool,
    granter: Mutex<Granter>,
    ctl: Option<Controller>,
    start: Instant,
}

impl<'a> SinkSession<'a> {
    /// Open the session over `slots` borrowed slot buffers; the clock
    /// starts here.
    pub(crate) fn open(cfg: &'a LiveConfig, slots: usize) -> io::Result<SinkSession<'a>> {
        assert!(cfg.channels >= 1 && cfg.total_bytes > 0);
        assert_eq!(slots, cfg.pool_blocks as usize, "one buffer per pool block");
        Ok(SinkSession {
            cfg,
            front: Arc::new(SinkFront::open(cfg)?),
            snk_pool: AtomicSinkPool::new(PoolGeometry::new(
                cfg.block_size as u64,
                cfg.pool_blocks,
            )),
            granter: Mutex::new(Granter::new(
                rftp_core::CreditMode::Proactive,
                cfg.initial_credits,
                cfg.grant_per_completion,
                4,
            )),
            ctl: cfg.adaptive.then(|| Controller::new(cfg)),
            start: Instant::now(),
        })
    }

    pub(crate) fn handler(
        &'a self,
        ctrl_tx: &'a dyn CtrlTx,
        snk_bufs: &'a [&'a Mutex<SlotBuf>],
        fair: FairShare<'a>,
    ) -> SinkHandler<'a> {
        SinkHandler::new(
            self.cfg,
            ctrl_tx,
            &self.snk_pool,
            &self.granter,
            snk_bufs,
            fair,
            self.ctl.as_ref(),
        )
    }

    /// Close a session whose handler ran to `Done`: dataset-completion
    /// durability inside the timing window, the exactly-once and FSM
    /// invariants, and the sink half's report.
    pub(crate) fn finish(
        &self,
        h: SinkHandler<'_>,
        tally: PlaceTally,
        transport_threads: usize,
        uring: Option<UringStats>,
    ) -> io::Result<LiveReport> {
        let cfg = self.cfg;
        let total_blocks = cfg.total_blocks();
        let mut sync_ns = 0u64;
        if let SnkBackend::File(sink) = &self.front.backend {
            let t0 = Instant::now();
            sink.sync()?;
            sync_ns = t0.elapsed().as_nanos() as u64;
        }
        let elapsed = self.start.elapsed();
        assert_eq!(h.delivered, total_blocks, "blocks lost in the pipeline");
        self.snk_pool.check_invariants();
        let per_block = |ns: u64| ns as f64 / total_blocks as f64;
        Ok(LiveReport {
            bytes: cfg.total_bytes,
            blocks: total_blocks,
            elapsed,
            gbytes_per_sec: cfg.total_bytes as f64 / 1e9 / elapsed.as_secs_f64().max(1e-9),
            checksum_failures: h.checksum_failures,
            ooo_blocks: h.ooo_blocks,
            ctrl_msgs: h.ctrl_msgs,
            ctrl_msgs_per_block: h.ctrl_msgs as f64 / total_blocks as f64,
            credit_requests: 0,
            dropped_payloads: 0,
            retransmits: 0,
            fast_retransmits: 0,
            duplicate_payloads: tally.duplicates,
            stages: StageBreakdown {
                place_ns: per_block(tally.place_ns),
                verify_ns: per_block(h.verify_ns),
                flush_ns: per_block(tally.flush_ns),
                sync_ns: per_block(sync_ns),
                ..Default::default()
            },
            tails: StageTails {
                place: tally.place_hist,
                verify: h.verify_hist,
                ..Default::default()
            },
            transport_threads,
            direct_io_active: self.front.backend.direct_active(),
            uring,
            adapt: self.ctl.as_ref().map(Controller::snapshot),
        })
    }
}

/// The sink's protocol brain: negotiation, credit grants,
/// verify-and-free on arrival, and the coalesced sink→source control traffic
/// (`AckBatch` for placements, `CreditBatch` for grants, one flush
/// window for both). Shared by the thread-per-channel sink below and the
/// io_uring sink driver ([`crate::uring`]).
///
/// Buffers arrive as a borrowed *view* (`&[&Mutex<SlotBuf>]`): a
/// standalone sink passes refs to its own pool, a daemon session passes
/// refs to the arena slots it leased — wire slot `i` is `snk_bufs[i]`
/// either way, so the protocol never sees the difference.
pub(crate) struct SinkHandler<'a> {
    cfg: &'a LiveConfig,
    ctrl_tx: &'a dyn CtrlTx,
    snk_pool: &'a AtomicSinkPool,
    granter: &'a Mutex<Granter>,
    snk_bufs: &'a [&'a Mutex<SlotBuf>],
    fair: FairShare<'a>,
    /// The grant-loop estimator (credit sent → data arrived), when this
    /// session runs adaptively. Drives the dwell window and the
    /// BDP-derived clamp on outstanding credits.
    ctl: Option<&'a Controller>,
    /// When each outstanding slot's grant left, for the grant-loop RTT
    /// sample its arrival closes. Only maintained under `ctl`.
    grant_at: HashMap<u32, Instant>,
    /// Grant opportunities the depth clamp withheld; retried as blocks
    /// free (a clamped completion grant must not evaporate, or the
    /// credit loop leaks and the source starves into `MrRequest`s).
    deferred: u32,
    verify_payload: bool,
    total_blocks: u64,
    /// One bit per sequence this session has verified and freed: the
    /// online exactly-once check.
    retired: AtomicBitmap,
    /// Lowest sequence not yet retired — every one below it is.
    low_water: u64,
    /// Arrivals ahead of `low_water` when they landed.
    pub(crate) ooo_blocks: u64,
    dc_seen: bool,
    eof_data: usize,
    pending_acks: Vec<BlockAck>,
    pending_credits: Vec<u32>,
    pub(crate) ctrl_msgs: u64,
    pub(crate) delivered: u64,
    pub(crate) checksum_failures: u64,
    pub(crate) verify_ns: u64,
    pub(crate) verify_hist: NsHist,
}

impl<'a> SinkHandler<'a> {
    pub(crate) fn new(
        cfg: &'a LiveConfig,
        ctrl_tx: &'a dyn CtrlTx,
        snk_pool: &'a AtomicSinkPool,
        granter: &'a Mutex<Granter>,
        snk_bufs: &'a [&'a Mutex<SlotBuf>],
        fair: FairShare<'a>,
        ctl: Option<&'a Controller>,
    ) -> SinkHandler<'a> {
        SinkHandler {
            cfg,
            ctrl_tx,
            snk_pool,
            granter,
            snk_bufs,
            fair,
            ctl,
            grant_at: HashMap::new(),
            deferred: 0,
            verify_payload: cfg.dst_file.is_none(),
            total_blocks: cfg.total_blocks(),
            retired: AtomicBitmap::new(cfg.total_blocks()),
            low_water: 0,
            ooo_blocks: 0,
            dc_seen: false,
            eof_data: 0,
            pending_acks: Vec::with_capacity(cfg.ack_batch()),
            pending_credits: Vec::with_capacity(cfg.pool_blocks as usize),
            ctrl_msgs: 0,
            delivered: 0,
            checksum_failures: 0,
            verify_ns: 0,
            verify_hist: NsHist::new(),
        }
    }
}

impl SinkHandler<'_> {
    /// Drive the session to completion: replay `first_ctrl` (a frame the
    /// listener already read to size the session), then coalesce over
    /// whatever `recv` delivers — a channel the receivers fill, or the
    /// ring driver's pump — until `DatasetComplete` and the last block.
    pub(crate) fn run(
        &mut self,
        first_ctrl: Option<CtrlMsg>,
        recv: &mut dyn FnMut(Option<std::time::Duration>, &mut Vec<SinkEvt>) -> bool,
    ) -> io::Result<()> {
        if let Some(msg) = first_ctrl {
            self.handle(SinkEvt::Ctrl(msg))?;
        }
        match drain_coalesced(self, recv)? {
            DrainEnd::Done => Ok(()),
            DrainEnd::Closed => Err(perr("event pipeline stopped before transfer completed")),
        }
    }

    fn idle(&self) -> bool {
        self.pending_acks.is_empty() && self.pending_credits.is_empty()
    }

    /// Pop up to `want` free slots into the pending grant batch. Under
    /// a daemon the arbiter clamps `want` to this session's fair share
    /// first; slots the pool could not actually supply are returned to
    /// the shared budget immediately. An adaptive session additionally
    /// clamps to the controller's BDP depth target — withheld grants are
    /// deferred, not dropped, and retried as blocks free.
    fn accumulate(&mut self, want: u32) {
        let want = match self.ctl.and_then(Controller::depth) {
            Some(depth) => {
                // Everything not free is on loan to the source (granted
                // or in flight) — including the slots already batched in
                // `pending_credits`.
                let outstanding =
                    (self.cfg.pool_blocks as usize - self.snk_pool.free_count()) as u32;
                let allowed = want.min(depth.saturating_sub(outstanding));
                self.deferred = (self.deferred + (want - allowed)).min(self.cfg.pool_blocks);
                allowed
            }
            None => want,
        };
        let want = match self.fair {
            Some((fair, id)) => fair.allow(id, want),
            None => want,
        };
        let before = self.pending_credits.len();
        self.pending_credits
            .extend((0..want).map_while(|_| self.snk_pool.grant()));
        let got = (self.pending_credits.len() - before) as u32;
        if got > 0 {
            self.granter.lock().note_granted(got);
        }
        if let Some((fair, id)) = self.fair {
            if got < want {
                fair.release(id, want - got);
            }
        }
    }

    fn flush_credits(&mut self) -> io::Result<()> {
        if self.pending_credits.is_empty() {
            return Ok(());
        }
        for chunk in self.pending_credits.chunks(self.cfg.credit_batch()) {
            self.ctrl_msgs += 1;
            self.ctrl_tx.send(&CtrlMsg::CreditBatch {
                session: SESSION,
                rkey: SINK_RKEY,
                slot_len: self.cfg.slot_bytes() as u32,
                slots: chunk.to_vec(),
            })?;
        }
        if self.ctl.is_some() {
            let now = Instant::now();
            for &slot in &self.pending_credits {
                self.grant_at.insert(slot, now);
            }
        }
        self.pending_credits.clear();
        Ok(())
    }

    fn flush_acks(&mut self) -> io::Result<()> {
        if self.pending_acks.is_empty() {
            return Ok(());
        }
        let msg = if self.pending_acks.len() == 1 && self.cfg.ctrl_batch <= 1 {
            let a = self.pending_acks[0];
            CtrlMsg::BlockComplete {
                session: SESSION,
                seq: a.seq,
                slot: a.slot,
                len: a.len,
            }
        } else {
            CtrlMsg::AckBatch {
                session: SESSION,
                acks: std::mem::take(&mut self.pending_acks),
            }
        };
        self.pending_acks.clear();
        self.ctrl_msgs += 1;
        self.ctrl_tx.send(&msg)
    }

    /// Verify and free one placed block, whatever its place in the
    /// sequence: neither consumer needs the order (module doc), so the
    /// slot goes `DataReady → Free` with no hold in between. Retiring a
    /// sequence twice is a protocol error — the receivers' claim bitmap
    /// admits each sequence once, so a second retirement means a
    /// transport handed over a frame it should have discarded.
    fn retire(&mut self, seq: u32, slot: u32, len: u32) -> io::Result<()> {
        if seq as u64 >= self.total_blocks {
            return Err(perr(format!(
                "arrival for sequence {seq} of a {}-block transfer",
                self.total_blocks
            )));
        }
        if !self.retired.claim(seq as u64) {
            return Err(perr(format!("sequence {seq} retired twice")));
        }
        if seq as u64 > self.low_water {
            self.ooo_blocks += 1;
        }
        while self.low_water < self.total_blocks && self.retired.is_set(self.low_water) {
            self.low_water += 1;
        }
        if self.delivered == 0 {
            if let Some(c) = self.ctl {
                // First-block latency: the credit-ramp figure. Proactive
                // grants should land this inside 2·RTT of session start.
                c.mark_first_block();
            }
        }
        let t0 = Instant::now();
        {
            let buf = self.snk_bufs[slot as usize].lock();
            let hdr = PayloadHeader::decode(&buf[..PAYLOAD_HEADER_LEN])
                .map_err(|e| perr(format!("bad payload header: {e:?}")))?;
            let ok = hdr.session == SESSION
                && hdr.seq == seq
                && hdr.len == len
                && (!self.verify_payload
                    || checksum(&buf[PAYLOAD_HEADER_LEN..PAYLOAD_HEADER_LEN + len as usize])
                        == expected_checksum(SESSION, seq, len));
            if !ok {
                self.checksum_failures += 1;
            }
        }
        let ns = t0.elapsed().as_nanos() as u64;
        self.verify_ns += ns;
        self.verify_hist.record(ns);
        self.snk_pool
            .put_free(slot)
            .map_err(|e| perr(format!("FSM put_free: {e:?}")))?;
        if let Some((fair, id)) = self.fair {
            fair.release(id, 1); // the credit this block rode came home
        }
        let owed = self.granter.lock().on_block_freed();
        if owed > 0 {
            // Answer a starved MrRequest immediately.
            self.accumulate(owed);
            self.flush_credits()?;
        }
        // A freed block opens depth-clamp headroom: retry withheld
        // grants (they ride the next batch flush, no urgency).
        let retry = std::mem::take(&mut self.deferred);
        if retry > 0 {
            self.accumulate(retry);
        }
        self.delivered += 1;
        Ok(())
    }
}

/// The shared [`drain_coalesced`] loop drives the handler, with
/// arrivals, peer control frames, and link EOFs as the event stream.
impl CoalescedSink<SinkEvt> for SinkHandler<'_> {
    type Err = io::Error;

    fn done(&self) -> bool {
        self.dc_seen && self.delivered == self.total_blocks
    }

    fn dwell(&self) -> bool {
        !self.idle()
    }

    fn window(&self) -> std::time::Duration {
        self.ctl
            .map_or(self.cfg.flush_window, |c| c.dwell(self.cfg.flush_window))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.flush_acks()?;
        self.flush_credits()
    }

    fn handle(&mut self, ev: SinkEvt) -> io::Result<()> {
        match ev {
            SinkEvt::Arrival { seq, slot, len } => {
                if let Some(c) = self.ctl {
                    if let Some(granted) = self.grant_at.remove(&slot) {
                        // Grant-loop sample: credit out → data in. A
                        // retransmitted block inflates this (no Karn
                        // attribution at the sink), which only widens
                        // the dwell — conservative by construction.
                        c.on_rtt_sample(granted.elapsed());
                    }
                }
                self.snk_pool
                    .ready(slot)
                    .map_err(|e| perr(format!("arrival in non-granted slot {slot}: {e:?}")))?;
                self.retire(seq, slot, len)?;
                let want = self.granter.lock().on_completion();
                self.accumulate(want);
                self.pending_acks.push(BlockAck { seq, slot, len });
                if self.pending_acks.len() >= self.cfg.ack_batch() {
                    self.flush_acks()?;
                }
                if self.pending_credits.len() >= self.cfg.credit_batch() {
                    self.flush_credits()?;
                }
                Ok(())
            }
            SinkEvt::Ctrl(msg) => {
                self.ctrl_msgs += 1;
                match msg {
                    CtrlMsg::SessionRequest {
                        session,
                        block_size,
                        channels,
                        total_bytes,
                        ..
                    } => {
                        if session != SESSION
                            || block_size != self.cfg.block_size as u64
                            || channels != self.cfg.channels as u16
                            || total_bytes != self.cfg.total_bytes
                        {
                            return Err(perr(format!(
                                "SessionRequest disagrees with sink config: \
                                 {block_size}B × {channels}ch, {total_bytes} bytes vs \
                                 {}B × {}ch, {} bytes",
                                self.cfg.block_size, self.cfg.channels, self.cfg.total_bytes
                            )));
                        }
                        self.ctrl_msgs += 1;
                        self.ctrl_tx.send(&CtrlMsg::SessionAccept {
                            session: SESSION,
                            block_size: self.cfg.block_size as u64,
                            data_qpns: (0..self.cfg.channels as u32).collect(),
                        })?;
                        let want = self.granter.lock().on_accept();
                        self.accumulate(want);
                        self.flush_credits()
                    }
                    CtrlMsg::MrRequest { session } if session == SESSION => {
                        let free = self.snk_pool.free_count();
                        let want = self.granter.lock().on_request(free);
                        self.accumulate(want);
                        self.flush_credits()
                    }
                    CtrlMsg::DatasetComplete {
                        session,
                        total_blocks,
                    } if session == SESSION => {
                        if total_blocks as u64 != self.total_blocks {
                            return Err(perr(format!(
                                "DatasetComplete for {total_blocks} blocks, expected {}",
                                self.total_blocks
                            )));
                        }
                        self.dc_seen = true;
                        Ok(())
                    }
                    other => Err(perr(format!("unexpected ctrl at sink: {other:?}"))),
                }
            }
            SinkEvt::DataEof => {
                self.eof_data += 1;
                if self.eof_data == self.cfg.channels && self.delivered < self.total_blocks {
                    return Err(perr(format!(
                        "peer closed the data streams after {} of {} blocks",
                        self.delivered, self.total_blocks
                    )));
                }
                Ok(())
            }
            SinkEvt::CtrlEof => {
                if self.dc_seen {
                    Ok(())
                } else {
                    Err(perr("peer closed the control stream mid-transfer"))
                }
            }
        }
    }
}

/// Run the sink half of a transfer over `t`: grant credits, place
/// arriving frames into their credited slots (directly from the link —
/// the transport read *is* the placement), verify and free each as it
/// lands, ack placed blocks back to the source, and finish on
/// `DatasetComplete`.
///
/// `cfg` must agree with the source on `block_size`, `channels`, and
/// `total_bytes` (the handler checks the `SessionRequest` against it);
/// pool size, destination file, and I/O mode are this side's own.
/// `first_ctrl` is a frame already read off the control link during
/// session setup (the TCP listener consumes the `SessionRequest` to
/// build `cfg`), replayed to the handler before live traffic.
///
/// Without a `dst_file` the sink checksum-verifies against the pattern
/// generator — pair a file *source* with a file *sink*, or every block
/// counts as a checksum failure.
pub fn run_split_sink(
    cfg: &LiveConfig,
    t: SinkTransport,
    first_ctrl: Option<CtrlMsg>,
) -> io::Result<LiveReport> {
    let snk_bufs = BlockPool::new(cfg.pool_blocks, cfg.block_size);
    let view: Vec<&Mutex<SlotBuf>> = snk_bufs.iter().collect();
    run_sink_session(cfg, t, first_ctrl, &view, None)
}

/// The reusable per-session sink runner the daemon schedules: exactly
/// [`run_split_sink`], but the slot buffers are borrowed (a lease from
/// the daemon's shared arena — or the standalone wrapper's own pool)
/// and grants can run under a [`WeightedFair`] arbiter. `bufs[i]` backs
/// wire slot `i`; its capacity may exceed `cfg.block_size` (arena slots
/// are sized for the largest admissible session — every access is a
/// `wire_len` prefix).
pub(crate) fn run_sink_session(
    cfg: &LiveConfig,
    t: SinkTransport,
    first_ctrl: Option<CtrlMsg>,
    snk_bufs: &[&Mutex<SlotBuf>],
    fair: FairShare<'_>,
) -> io::Result<LiveReport> {
    let sess = SinkSession::open(cfg, snk_bufs.len())?;
    let SinkTransport {
        ctrl_tx,
        mut ctrl_rx,
        data,
        abort,
    } = t;
    assert_eq!(data.len(), cfg.channels, "one data link per channel");
    let fail = Fail::new(abort);
    let (evt_tx, evt_rx) = bounded::<SinkEvt>(1024);
    let mut tally = PlaceTally::default();
    let mut handler_out: Option<SinkHandler> = None;

    std::thread::scope(|s| {
        // Control pump: frames off the control link into the event
        // channel. Exits at end-of-stream (normal once DatasetComplete
        // has passed) or on a link error.
        let pump = {
            let evt_tx = evt_tx.clone();
            let fail = &fail;
            s.spawn(move || {
                let _guard = fail.on_panic();
                loop {
                    match ctrl_rx.recv() {
                        Ok(Some(msg)) => {
                            if evt_tx.send(SinkEvt::Ctrl(msg)).is_err() {
                                return; // handler bailed; fail is set
                            }
                        }
                        Ok(None) => {
                            let _ = evt_tx.send(SinkEvt::CtrlEof);
                            return;
                        }
                        Err(e) => {
                            if !fail.is_set() {
                                fail.set(e);
                            }
                            return;
                        }
                    }
                }
            })
        };

        // Per-channel receivers: the "NIC". Each admitted frame's wire
        // image is read straight into the slot its header names — the
        // credited, pre-registered buffer — and a duplicate is discarded
        // unread.
        let receiver_handles: Vec<_> = data
            .into_iter()
            .map(|mut rx| {
                let evt_tx = evt_tx.clone();
                let (front, fail) = (&*sess.front, &fail);
                s.spawn(move || {
                    let _guard = fail.on_panic();
                    let mut tally = PlaceTally::default();
                    let mut receive = || -> io::Result<()> {
                        while let Some(hdr) = rx.recv_header()? {
                            if !front.admit(&hdr, &mut tally)? {
                                rx.discard_wire(hdr.wire_len())?;
                                continue;
                            }
                            let t0 = Instant::now();
                            let mut dst = snk_bufs[hdr.slot as usize].lock();
                            rx.recv_wire(&mut dst[..hdr.wire_len()])?;
                            let ev = front.landed(&hdr, &dst, t0, &mut tally)?;
                            drop(dst);
                            if evt_tx.send(ev).is_err() {
                                return Ok(()); // handler bailed; fail is set
                            }
                        }
                        let _ = evt_tx.send(SinkEvt::DataEof);
                        Ok(())
                    };
                    if let Err(e) = receive() {
                        if !fail.is_set() {
                            fail.set(e);
                        }
                    }
                    tally
                })
            })
            .collect();
        drop(evt_tx);

        // The handler runs on the scope's own thread.
        let _guard = fail.on_panic();
        let mut h = sess.handler(ctrl_tx.as_ref(), snk_bufs, fair);
        if let Err(e) = h.run(first_ctrl, &mut channel_events(&evt_rx, 64)) {
            if !fail.is_set() {
                fail.set(e);
            }
        }
        // Release any receiver blocked handing over an event, then join.
        drop(evt_rx);
        handler_out = Some(h);
        for rh in receiver_handles {
            tally.merge(&rh.join().expect("receiver panicked"));
        }
        pump.join().expect("ctrl pump panicked");
    });

    if fail.is_set() {
        return Err(fail.into_err());
    }
    // Per-channel receivers plus the control pump — the O(channels)
    // thread zoo the ring backend collapses.
    sess.finish(
        handler_out.expect("handler state"),
        tally,
        cfg.channels + 1,
        None,
    )
}

/// Run both halves in this process over the in-proc channel transport —
/// the split pipeline's loopback. Source takes the `src_file`/fault side
/// of `cfg`, sink the `dst_file` side. Returns `(source, sink)` reports.
pub fn run_split_pair(cfg: &LiveConfig) -> io::Result<(LiveReport, LiveReport)> {
    run_split_pair_wan(cfg, &rftp_faults::WanProfile::clean())
}

/// [`run_split_pair`] with a WAN impairment shim between the halves —
/// the in-process form of a two-process `--wan` run: both directions of
/// the in-proc transport are wrapped, so control and data feel the
/// profile's full RTT, loss, and rate cap. A clean profile degenerates
/// to the plain pair.
pub fn run_split_pair_wan(
    cfg: &LiveConfig,
    wan: &rftp_faults::WanProfile,
) -> io::Result<(LiveReport, LiveReport)> {
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
    use super::*;

    const SCALE: u64 = if cfg!(debug_assertions) { 8 } else { 1 };

    /// The one admission check every receiver shares: a frame outside
    /// the session's geometry is `InvalidData` and claims nothing; a
    /// sequence is admitted once and counted as a duplicate after.
    #[test]
    fn admit_bounds_each_header_field_and_claims_once() {
        let mut cfg = LiveConfig::new(4096, 1, 8 * 4096);
        cfg.pool_blocks = 4;
        let front = SinkFront::open(&cfg).unwrap();
        let mut tally = PlaceTally::default();
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
        let (src, snk) = run_split_pair(&cfg).expect("split transfer");
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
        let (src, snk) = run_split_pair(&cfg).expect("split transfer");
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
        let (src, snk) = run_split_pair(&cfg).expect("split transfer");
        assert_eq!(src.blocks, 4);
        assert_eq!(snk.checksum_failures, 0);

        let cfg = LiveConfig::new(4096, 1, 4096);
        let (_, snk) = run_split_pair(&cfg).expect("split transfer");
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
        let (src, snk) = run_split_pair(&cfg).expect("split transfer");
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

    /// The `fault_seed` under which the source dispatcher sleeps two
    /// retransmit deadlines between publishing a block's slot and
    /// sending the block, for every block.
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
        let (src, snk) = run_split_pair(&cfg).expect("split transfer");
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
        let (src, snk) = run_split_pair(&cfg).expect("split transfer");
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
        let (src, snk) = run_split_pair_wan(&cfg, &wan).expect("wan transfer");
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
        let geo = PoolGeometry::new(cfg.block_size as u64, cfg.pool_blocks);
        let bufs = BlockPool::new(cfg.pool_blocks, cfg.block_size);
        let (snk_pool, sent) = (AtomicSinkPool::new(geo), Sent::default());
        let granter = Mutex::new(Granter::new(rftp_core::CreditMode::Proactive, 4, 0, 4));
        let view: Vec<&Mutex<SlotBuf>> = bufs.iter().collect();
        let mut h = SinkHandler::new(&cfg, &sent, &snk_pool, &granter, &view, None, None);

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
        assert_eq!((h.delivered, h.ooo_blocks, h.checksum_failures), (3, 3, 0));
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
        assert_eq!((h.delivered, h.ooo_blocks, h.checksum_failures), (4, 3, 0));

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
        let out = run_split_pair_wan(&cfg, &wan);
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
            let (_, snk) = run_split_pair(&cfg).expect("split transfer");
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
        let (src, snk) = run_split_pair_wan(&cfg, &wan).expect("wan transfer");
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
        let (src, snk) = run_split_pair_wan(&cfg, &wan).expect("wan transfer");
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
        let (src, snk) = run_split_pair(&cfg).expect("split transfer");
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
}
