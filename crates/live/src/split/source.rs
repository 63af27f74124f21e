//! The source half: loaders → dispatcher → wire, a control stage that
//! retires blocks on the sink's acks, and the retransmit watchdog. Each
//! stage is a function over one shared [`Src`].

use super::{perr, stage, Controller, Fail, Tally};
use crate::pipeline::{pattern_seed, LiveConfig, LiveReport, MAX_POOL_BLOCKS, SESSION};
use crate::store::{BlockPool, FileSource, RatePacer};
use crate::transport::{CtrlRx, CtrlTx, DataTx, SourceTransport};
use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError};
use parking_lot::Mutex;
use rftp_core::pattern::fill_pattern;
use rftp_core::wire::{CtrlMsg, DataFrameHeader, PayloadHeader, PAYLOAD_HEADER_LEN};
use rftp_core::{AtomicSourcePool, IndexQueue, LossDetector, PoolGeometry, ReorderBuffer};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The source's current retransmit deadline. Statically configured runs
/// use the fixed `retx_timeout`; adaptive runs start from a deadline that
/// cannot fire before the path is measured (a fixed 100 ms default fires
/// spuriously at WAN RTTs) and then track the estimator.
fn retx_deadline(cfg: &LiveConfig, ctl: Option<&Controller>) -> Duration {
    match ctl {
        Some(c) => c.rto(cfg.retx_timeout.max(Duration::from_millis(100))),
        None => cfg.retx_timeout,
    }
}

/// The queues between source stages — `loaded` (loaders → dispatcher)
/// and `lost` (control → watchdog) — carry pool block indices, one entry
/// per pool block at most.
fn block_queue(cfg: &LiveConfig) -> (Sender<u32>, Receiver<u32>) {
    bounded(cfg.pool_blocks as usize)
}

/// What every source stage shares.
struct Src<'a> {
    cfg: &'a LiveConfig,
    total_blocks: u64,
    backend: SrcBackend,
    pacer: Option<RatePacer>,
    /// Read-ahead limit: how many blocks the source may hold at once.
    ra_limit: usize,
    pool: AtomicSourcePool,
    /// Arc'd so a completion-based transport can hold the pool across its
    /// in-flight sends (the registered-buffer lifetime).
    bufs: Arc<BlockPool>,
    stock: CreditSlots,
    inflight: Vec<Mutex<Option<InFlightInfo>>>,
    /// Which pool block carries each in-flight sequence — the ack names a
    /// sequence, and over a real wire the sink cannot name our block.
    seq2block: Mutex<HashMap<u32, u32>>,
    next_seq: AtomicU64,
    detector: LossDetector,
    /// The ack-loop estimator: block sent → ack retired, Karn-filtered.
    ctl: Option<Controller>,
    ctrl_tx: Arc<dyn CtrlTx>,
    data: Arc<Vec<Box<dyn DataTx>>>,
    fail: Fail,
}

/// Run the source half of a transfer over `t`: negotiate, load blocks
/// (pattern or `src_file`), dispatch them in sequence order as data
/// frames, retire them on the sink's acks, send `DatasetComplete`, and
/// half-close. Returns this half's view of the transfer.
pub fn run_split_source(cfg: &LiveConfig, t: SourceTransport) -> io::Result<LiveReport> {
    assert!(cfg.channels >= 1 && cfg.loaders >= 1 && cfg.total_bytes > 0);
    let backend = SrcBackend::open(cfg)?;
    // Modeled-device pacing only applies where there is a device to
    // model: a pattern source has no read stage.
    let pacer = match &backend {
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
    let src = Src {
        cfg,
        total_blocks: cfg.total_blocks(),
        backend,
        pacer,
        // +1 because "no read-ahead" still needs the block in service;
        // capped at the pool, where the free-list wait already throttles.
        ra_limit: (cfg.readahead.saturating_add(1)).min(cfg.pool_blocks) as usize,
        pool: AtomicSourcePool::new(PoolGeometry::new(cfg.block_size as u64, cfg.pool_blocks)),
        bufs: Arc::new(BlockPool::new(cfg.pool_blocks, cfg.block_size)),
        stock: CreditSlots {
            slots: IndexQueue::new(MAX_POOL_BLOCKS as usize),
            request_outstanding: AtomicBool::new(false),
        },
        inflight: (0..cfg.pool_blocks).map(|_| Mutex::new(None)).collect(),
        seq2block: Mutex::new(HashMap::new()),
        next_seq: AtomicU64::new(0),
        detector: LossDetector::new(cfg.channels),
        ctl,
        ctrl_tx,
        data,
        fail: Fail::new(abort),
    };
    // Pin the pool into the transport (fixed-buffer registration on
    // io_uring, no-op elsewhere) before any data is sent.
    register(&src.bufs)?;
    let (loaded_tx, loaded_rx) = block_queue(cfg);
    // Loss recovery runs on one watchdog with two triggers: the control
    // stage hands it blocks the ack stream proves lost (see
    // [`rftp_core::LossDetector`]), and a timer scan catches what acks
    // cannot — the tail of a transfer, a re-send with too few sends
    // behind it. A clean static run starts neither.
    let (mut lost_tx, lost_rx) = (cfg.fault_drop_p > 0.0 || cfg.adaptive)
        .then(|| block_queue(cfg))
        .unzip();

    let mut tally = Tally {
        ctrl: 1, // the SessionRequest
        ..Tally::default()
    };
    std::thread::scope(|s| {
        let (src, fail) = (&src, &src.fail);
        let loaders: Vec<_> = (0..cfg.loaders)
            .map(|_| {
                let loaded_tx = loaded_tx.clone();
                stage(s, fail, move |t| load(src, &loaded_tx, t))
            })
            .collect();
        drop(loaded_tx);
        let dispatcher = stage(s, fail, move |t| dispatch(src, &loaded_rx, t));
        let watchdog = lost_rx.map(|rx| stage(s, fail, move |t| watchdog(src, &rx, t)));
        let control = stage(s, fail, move |t| {
            control(src, &mut *ctrl_rx, &mut lost_tx, &*shutdown_write, t)
        });
        let stages = loaders.into_iter().chain([dispatcher]).chain(watchdog);
        for h in stages.chain([control]) {
            tally.merge(&h.join().expect("source stage panicked"));
        }
    });

    if let Some(e) = src.fail.into_err() {
        return Err(e);
    }
    let elapsed = start.elapsed();
    src.pool.check_invariants();
    Ok(LiveReport::from_tally(
        cfg,
        elapsed,
        tally,
        transport_threads,
        src.backend.direct_active(),
        None,
        src.ctl.as_ref().map(Controller::snapshot),
    ))
}

/// Loader: claim sequence numbers, fill blocks with header + payload
/// (pattern or file read), hand them to the dispatcher. The free-wait
/// polls the failure latch so a dead transport releases it.
fn load(src: &Src, loaded: &Sender<u32>, t: &mut Tally) -> io::Result<()> {
    let cfg = src.cfg;
    loop {
        // Hold a block BEFORE claiming a sequence: claiming first would
        // let sibling loaders absorb the whole pool for later sequences
        // and starve the one the in-order pipeline needs next.
        //
        // Read-ahead pacing rides the same wait: a loader only prefetches
        // while fewer than `ra_limit` blocks are in flight. At the default
        // (full-pool) depth that is the free-list wait itself; at
        // `readahead = 0` it serializes the transfer for overlap-ablation
        // runs.
        let mut spins = 0;
        let block = loop {
            if src.next_seq.load(Ordering::Relaxed) >= src.total_blocks || src.fail.is_set() {
                return Ok(());
            }
            if src.pool.in_flight() < src.ra_limit {
                if let Some(b) = src.pool.get_free() {
                    break b;
                }
            }
            backoff(&mut spins);
        };
        let seq = src.next_seq.fetch_add(1, Ordering::Relaxed);
        if seq >= src.total_blocks {
            src.pool.abandon(block).expect("FSM: abandon");
            return Ok(());
        }
        let offset = seq * cfg.block_size as u64;
        let len = (cfg.total_bytes - offset).min(cfg.block_size as u64) as u32;
        let t0 = Instant::now();
        {
            let mut buf = src.bufs[block as usize].lock();
            PayloadHeader {
                session: SESSION,
                seq: seq as u32,
                offset,
                len,
            }
            .encode(&mut buf[..PAYLOAD_HEADER_LEN]);
            match &src.backend {
                SrcBackend::Pattern => fill_pattern(
                    &mut buf[PAYLOAD_HEADER_LEN..PAYLOAD_HEADER_LEN + len as usize],
                    pattern_seed(seq as u32),
                ),
                SrcBackend::File(f) => {
                    f.read_block(&mut buf[PAYLOAD_HEADER_LEN..], len as usize, offset)?;
                    if let Some(p) = &src.pacer {
                        p.pace(len as usize);
                    }
                }
            }
        }
        let ns = t0.elapsed().as_nanos() as u64;
        t.load_ns += ns;
        t.tails.load.record(ns);
        *src.inflight[block as usize].lock() = Some(InFlightInfo {
            seq: seq as u32,
            slot: u32::MAX,
            len,
            sent_at: Instant::now(),
            attempts: 0,
            ch: 0,
            ordinal: 0,
        });
        src.seq2block.lock().insert(seq as u32, block);
        src.pool.loaded(block).expect("FSM: loaded");
        if loaded.send(block).is_err() {
            return Ok(()); // dispatcher bailed; fail is set
        }
    }
}

/// Dispatcher: in-order, credit-paired, one vectored send per block
/// straight from the pinned block buffer.
fn dispatch(src: &Src, loaded: &Receiver<u32>, t: &mut Tally) -> io::Result<()> {
    let (cfg, data, inflight) = (src.cfg, &src.data, &src.inflight);
    let mut rr = 0usize;
    let mut fault_rng = cfg.fault_seed;
    // Dispatch stays in sequence order (see the module doc); loaders
    // finish out of order.
    let mut dispatch_order = ReorderBuffer::<u32>::new();
    let mut ready: VecDeque<u32> = Default::default();
    let mut drain: Vec<u32> = Vec::with_capacity(cfg.pool_blocks as usize);
    // A send can fail *after* its block completed: the watchdog's copy of
    // a block this thread stalled on was placed and acked, the control
    // stage finished the transfer and closed the link, and only then did
    // the first send go out. A link error is an error only while a block
    // it could have carried is still unacked.
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
    while let Ok(_n) = loaded.recv_batch(&mut drain, cfg.pool_blocks as usize) {
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
                    if src.fail.is_set() {
                        return Ok(());
                    }
                    if let Some(s2) = src.stock.slots.try_pop() {
                        break s2;
                    }
                    // Out of credits: before waiting on the sink's grants,
                    // make sure every queued send is actually on the wire
                    // — the grants we are waiting for are earned by
                    // arrivals.
                    if !kicked {
                        kicked = true;
                        kick_all()?;
                    }
                    if !src.stock.request_outstanding.swap(true, Ordering::AcqRel) {
                        t.credit_requests += 1;
                        t.ctrl += 1;
                        src.ctrl_tx.send(&CtrlMsg::MrRequest { session: SESSION })?;
                        starved_since = Some(Instant::now());
                    }
                    // Re-arm only once the first request's answer is
                    // overdue: on a measured path that is the retransmit
                    // deadline — a fixed 20 ms re-asks two or three times
                    // per starvation inside one WAN round trip, each
                    // answered by a grant the first request already earned.
                    let rearm = match &src.ctl {
                        Some(c) => retx_deadline(cfg, Some(c)),
                        None => Duration::from_millis(20),
                    };
                    if starved_since.is_some_and(|t| t.elapsed() > rearm) {
                        src.stock
                            .request_outstanding
                            .store(false, Ordering::Release);
                        starved_since = None;
                    }
                    backoff(&mut spins);
                }
            };
            let t0 = Instant::now();
            let ch = rr % data.len();
            rr += 1;
            // The FSM moves before the block's slot is published: from
            // that store on the watchdog may re-send the block and its ack
            // may complete it, even ahead of the send below — a dispatcher
            // descheduled here for one retransmit deadline must leave the
            // block in a state `complete` accepts.
            src.pool.start_sending(block).expect("FSM: start_sending");
            src.pool.posted(block).expect("FSM: posted");
            let info = {
                let mut inf = inflight[block as usize].lock();
                let i = inf.as_mut().expect("loaded block untracked");
                i.slot = slot;
                i.sent_at = Instant::now();
                i.attempts = 1;
                i.ch = ch;
                i.ordinal = src.detector.on_send(ch);
                *i
            };
            // Test hook: the descheduling described above, on demand, held
            // until the watchdog's copy of the block has been acked (or a
            // hundred deadlines pass), so the overtaking is certain rather
            // than a race against the scheduler.
            #[cfg(test)]
            if cfg.fault_seed == super::tests::STALLED_DISPATCH_SEED {
                let t0 = Instant::now();
                while unacked(block, info.seq) && t0.elapsed() < 100 * cfg.retx_timeout {
                    std::thread::sleep(cfg.retx_timeout / 4);
                }
            }
            if cfg.fault_drop_p > 0.0 && drop_roll(&mut fault_rng) < cfg.fault_drop_p {
                // The wire ate it — ordinal and all, as a real loss
                // would; the watchdog re-sends.
                t.dropped += 1;
            } else {
                let hdr = DataFrameHeader {
                    session: SESSION,
                    seq: info.seq,
                    slot,
                    len: info.len,
                };
                if let Err(e) = data[ch].send_block(hdr, &src.bufs, block) {
                    if unacked(block, info.seq) {
                        return Err(e);
                    }
                }
            }
            let ns = t0.elapsed().as_nanos() as u64;
            t.dispatch_ns += ns;
            t.tails.dispatch.record(ns);
        }
        // One doorbell per drain: submit the whole batch of queued sends
        // with a single kernel crossing before blocking for the next load.
        let t0 = Instant::now();
        kick_all()?;
        t.dispatch_ns += t0.elapsed().as_nanos() as u64;
    }
    assert!(
        src.fail.is_set() || dispatch_order.is_drained(),
        "loads ended with a sequence gap"
    );
    Ok(())
}

/// Retransmit watchdog — the live analogue of the simulated engine's
/// TOK_RETX scan, parked on the control stage's hand-off queue. It wakes
/// for a block the acks prove lost, or after a quarter deadline to scan
/// for blocks unacked past it; either way the block is judged again under
/// its in-flight lock, so one queued twice (or acked meanwhile) is not
/// sent twice. A re-send can itself be lost and retried. The queue
/// disconnecting — the control stage finished or failed — ends the stage
/// at once.
fn watchdog(src: &Src, lost: &Receiver<u32>, t: &mut Tally) -> io::Result<()> {
    let (cfg, data, ctl) = (src.cfg, &src.data, src.ctl.as_ref());
    let mut rr = 0usize;
    let mut due: Vec<u32> = Vec::with_capacity(cfg.pool_blocks as usize);
    let mut next_scan = Instant::now() + retx_deadline(cfg, ctl) / 4;
    loop {
        let wait = next_scan.saturating_duration_since(Instant::now());
        if lost.recv_batch_timeout(&mut due, cfg.pool_blocks as usize, wait)
            == Err(TryRecvError::Disconnected)
            || src.fail.is_set()
        {
            return Ok(());
        }
        let deadline = retx_deadline(cfg, ctl);
        if Instant::now() >= next_scan {
            due.clear();
            due.extend(0..cfg.pool_blocks);
            next_scan = Instant::now() + deadline / 4;
        }
        for block in due.drain(..) {
            // Hold the entry across the re-send so a racing ack cannot
            // retire the block mid-send.
            let mut inf = src.inflight[block as usize].lock();
            let Some(i) = inf.as_mut() else { continue };
            if i.slot == u32::MAX {
                continue;
            }
            let by_ack = src.detector.is_lost(i.ch, i.ordinal);
            // Karn's backoff: every unacked attempt doubles this block's
            // own deadline. The RTO tracks *network* srtt, but the ack can
            // also stall on receiver-side work (write-behind flush, CPU
            // steal); without backoff one such stall expires the whole
            // window, and the retransmits re-queue behind the stall and
            // expire again — a storm that feeds the loss EWMA instead of
            // the pipe.
            let shift = i.attempts.saturating_sub(1).min(6);
            if !by_ack && i.sent_at.elapsed() < deadline.saturating_mul(1 << shift) {
                continue;
            }
            assert!(i.attempts < 64, "block seq {} will not go through", i.seq);
            let ch = rr % data.len();
            rr += 1;
            i.sent_at = Instant::now();
            i.attempts += 1;
            t.retransmits += 1;
            t.fast_retransmits += by_ack as u64;
            if let Some(c) = ctl {
                c.on_loss();
            }
            // The same drop dice as a first send, keyed by (sequence,
            // attempt): which re-sends the wire eats is a property of the
            // seed, not of the order recovery happened to run in.
            let mut dice =
                cfg.fault_seed ^ 0x5EED_5EED_5EED_5EED ^ ((i.seq as u64) << 8 | i.attempts as u64);
            if drop_roll(&mut dice) < cfg.fault_drop_p {
                t.dropped += 1;
            } else {
                let hdr = DataFrameHeader {
                    session: SESSION,
                    seq: i.seq,
                    slot: i.slot,
                    len: i.len,
                };
                // Queue + kick immediately: retransmits are rare and
                // latency-bound, not batched.
                data[ch]
                    .send_block(hdr, &src.bufs, block)
                    .and_then(|()| data[ch].kick())?;
            }
            // Stamped once the frame is on the link, not before: the
            // dispatcher shares these channels, and an ordinal drawn ahead
            // of a send it then overtakes would read as a hole three acks
            // later. Drawn late, the ordinal can only understate how long
            // the attempt has been out.
            i.ch = ch;
            i.ordinal = src.detector.on_send(ch);
        }
    }
}

/// Control: deposits credits, retires blocks on the sink's acks, and runs
/// the teardown — `DatasetComplete`, write shutdown, then a drain to
/// end-of-stream so the link closes only after the sink has read
/// everything.
fn control(
    src: &Src,
    ctrl_rx: &mut dyn CtrlRx,
    lost_tx: &mut Option<Sender<u32>>,
    shutdown_write: &dyn Fn(),
    t: &mut Tally,
) -> io::Result<()> {
    let watched = lost_tx.is_some();
    let mut completed = 0u64;
    // Retire one acked sequence; true when recovery is running and the ack
    // moved its channel's high-water mark.
    let retire = |seq: u32| -> io::Result<bool> {
        let block = src
            .seq2block
            .lock()
            .remove(&seq)
            .ok_or_else(|| perr(format!("ack for unknown seq {seq}")))?;
        let info = src.inflight[block as usize]
            .lock()
            .take()
            .ok_or_else(|| perr(format!("ack for idle block {block}")))?;
        debug_assert_eq!(info.seq, seq);
        // Karn's rule: a retransmitted block's ack cannot be attributed to
        // an attempt, so only first-attempt acks feed the estimator.
        let first_attempt = info.attempts == 1;
        if first_attempt {
            if let Some(c) = &src.ctl {
                c.on_rtt_sample(info.sent_at.elapsed());
            }
        }
        src.pool.complete(block).expect("FSM: complete");
        Ok(watched && src.detector.on_ack(info.ch, info.ordinal, first_attempt))
    };
    while completed < src.total_blocks {
        let msg =
            (ctrl_rx.recv()?).ok_or_else(|| perr("peer closed the control stream mid-transfer"))?;
        t.ctrl += 1;
        let mut advanced = false;
        match msg {
            CtrlMsg::SessionAccept { session, .. } if session == SESSION => {}
            CtrlMsg::CreditBatch { session, slots, .. } if session == SESSION => {
                for slot in slots {
                    // No sink pool reaches this index, and only a credit
                    // naming one could fill the ring.
                    if slot >= MAX_POOL_BLOCKS {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("credit for slot {slot}, past the {MAX_POOL_BLOCKS}-slot ring"),
                        ));
                    }
                    src.stock.deposit(slot);
                }
            }
            CtrlMsg::AckBatch { session, acks } if session == SESSION => {
                completed += acks.len() as u64;
                for a in acks {
                    advanced |= retire(a.seq)?;
                }
            }
            // Typed admission outcomes: a busy sink names a retry delay
            // (transient), a reject names a geometry the sink will never
            // take. Distinct error kinds so callers can tell them apart.
            CtrlMsg::SessionBusy { retry_after_ms, .. } => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("sink is busy; retry after {retry_after_ms} ms"),
                ))
            }
            CtrlMsg::SessionReject { reason, .. } => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("sink rejected the session (reason {reason})"),
                ))
            }
            other => return Err(perr(format!("unexpected ctrl at source: {other:?}"))),
        }
        // A high-water mark moved: hand the watchdog every attempt it now
        // proves lost. (Nothing is scanned for acks that moved no mark.)
        if let (true, Some(tx)) = (advanced, &*lost_tx) {
            for block in 0..src.cfg.pool_blocks {
                let lost = src.inflight[block as usize]
                    .lock()
                    .as_ref()
                    .is_some_and(|i| i.slot != u32::MAX && src.detector.is_lost(i.ch, i.ordinal));
                if lost {
                    // A dead watchdog has set `fail`.
                    let _ = tx.send(block);
                }
            }
        }
    }
    // Every block is acked: wake the watchdog to exit now.
    lost_tx.take();
    src.ctrl_tx.send(&CtrlMsg::DatasetComplete {
        session: SESSION,
        total_blocks: src.total_blocks as u32,
    })?;
    t.ctrl += 1;
    shutdown_write();
    // Drain trailing frames (credits granted after our last block freed)
    // until the sink closes its side.
    while let Ok(Some(_)) = ctrl_rx.recv() {
        t.ctrl += 1;
    }
    Ok(())
}

/// Where the loaders get payload bytes.
pub(crate) enum SrcBackend {
    /// Synthetic seeded pattern (the memory-to-memory experiments).
    Pattern,
    /// Aligned block reads from a real file.
    File(FileSource),
}

impl SrcBackend {
    /// Open the backend `cfg` names, validating the source covers the
    /// transfer.
    pub(crate) fn open(cfg: &LiveConfig) -> std::io::Result<SrcBackend> {
        match &cfg.src_file {
            Some(path) => {
                let f = FileSource::open(path, cfg.direct_io)?;
                if f.len() < cfg.total_bytes {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        format!(
                            "source file {} holds {} bytes, transfer wants {}",
                            path.display(),
                            f.len(),
                            cfg.total_bytes
                        ),
                    ));
                }
                Ok(SrcBackend::File(f))
            }
            None => Ok(SrcBackend::Pattern),
        }
    }

    pub(crate) fn direct_active(&self) -> bool {
        matches!(self, SrcBackend::File(f) if f.direct_active())
    }
}

#[derive(Clone, Copy)]
pub(crate) struct InFlightInfo {
    pub(crate) seq: u32,
    pub(crate) slot: u32,
    pub(crate) len: u32,
    /// When the block last went onto the wire (dispatch or retransmit);
    /// the watchdog's timer re-sends once the deadline passes without an
    /// ack.
    pub(crate) sent_at: Instant,
    /// Wire attempts so far — a runaway count means the recovery loop is
    /// broken, not that the fabric is unlucky.
    pub(crate) attempts: u32,
    /// Data channel the latest attempt went out on, and its send ordinal
    /// there — what [`rftp_core::LossDetector`] judges the attempt by.
    pub(crate) ch: usize,
    pub(crate) ordinal: u64,
}

/// splitmix64 — the drop RNG. Self-contained so the fault injector adds
/// no dependency to the crate; determinism per seed is all it needs.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One uniform draw in [0, 1); drops fire when it lands below `p`.
pub(crate) fn drop_roll(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Backoff for lock-free waits. Escalates fast to `yield_now`: on a
/// saturated (or single-core) machine the event being waited on is
/// produced by another thread that needs this core, so burning cycles in
/// a spin loop delays the very thing being awaited. A short sleep caps
/// the cost of long waits without adding meaningful wakeup latency.
pub(crate) fn backoff(spins: &mut u32) {
    *spins = spins.saturating_add(1);
    if *spins < 4 {
        std::hint::spin_loop();
    } else if *spins < 64 {
        std::thread::yield_now();
    } else {
        std::thread::sleep(std::time::Duration::from_micros(50));
    }
}

/// Lock-free source-side credit inventory: granted sink slots in a
/// Vyukov ring (every credit of a pool transfer shares rkey and length,
/// so the slot index is the whole credit), plus the MrRequest debounce
/// flag. The threaded replacement for `Mutex<CreditStock>` + condvar.
/// The ring holds [`MAX_POOL_BLOCKS`] credits: the peer's pool bounds how
/// many can be outstanding, no sink opens a larger pool, and the control
/// stage refuses a credit for a slot past it.
pub(crate) struct CreditSlots {
    pub(crate) slots: IndexQueue,
    /// True while an MrRequest is outstanding (at most one at a time).
    pub(crate) request_outstanding: AtomicBool,
}

impl CreditSlots {
    pub(crate) fn deposit(&self, slot: u32) {
        // The protocol bounds outstanding credits to the sink pool size,
        // so the ring can never actually overflow — but a dispatcher
        // preempted mid-pop can make it look transiently full to a
        // lapping deposit. push_must rides that window out.
        self.slots.push_must(slot);
        self.request_outstanding.store(false, Ordering::Release);
    }
}
