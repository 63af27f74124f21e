//! The source half: loaders → sender → wire, and a control stage that
//! retires blocks on the sink's acks and condemns the ones they prove
//! lost. Each stage is a function over one shared [`Src`]; after the
//! `SessionRequest` the sender is the only one that sends.
//!
//! Loaders write a block into one of two places, and that is the only
//! difference between transports here. Most load ahead into the
//! source's own pool, and the sender pairs each block with a credit as
//! it sends it. A one-sided transport (shm, and the in-process pair)
//! hands back its window from `register`: a loader then takes a credit
//! before it claims a sequence and writes the block straight into that
//! sink slot, so the send only publishes it and the pool is bookkeeping
//! that is never written.

use super::{perr, stage, Controller, Fail, Tally};
use crate::pipeline::{pattern_seed, LiveConfig, LiveReport, MAX_POOL_BLOCKS, SESSION};
use crate::store::{BlockPool, FileSource, RatePacer};
use crate::transport::{CtrlRx, CtrlTx, DataTx, LoadWindow, SourceTransport};
use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError};
use parking_lot::Mutex;
use rftp_core::pattern::fill_pattern;
use rftp_core::wire::{CtrlMsg, DataFrameHeader, PayloadHeader, PAYLOAD_HEADER_LEN};
use rftp_core::{
    AtomicSourcePool, Attempt, IndexQueue, LossDetector, PoolGeometry, ReorderBuffer, Verdict,
};
use rftp_faults::WanDice;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
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

/// An entry of the sender's inbox: a pool block the loaders filled (and
/// its sequence), for its first send, or one the acks prove lost, for a
/// re-send, or a loader starved of credits, for an `MrRequest`. The tag
/// is load-bearing: a stale re-send entry can name a block acked and
/// reloaded since, which must never go out as a first send.
#[derive(Clone, Copy)]
enum Job {
    Loaded(u32, u32),
    Lost(u32),
    Ask,
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
    /// The window a one-sided transport's `register` returned: loaders
    /// write blocks into credited sink slots, never into `bufs`.
    window: Option<Arc<dyn LoadWindow>>,
    /// Granted sink slots (a credit's rkey and length never vary, so the
    /// slot is the credit). No sink pool is larger than the ring's
    /// [`MAX_POOL_BLOCKS`], and the control stage refuses a slot past it.
    credits: IndexQueue,
    /// An `MrRequest` is outstanding (at most one at a time).
    asked: AtomicBool,
    /// A loader's [`Job::Ask`] waits in the inbox (at most one at a time).
    ask_queued: AtomicBool,
    inflight: Vec<Mutex<Option<InFlightInfo>>>,
    /// Per pool block: a `Lost` entry for it waits in the sender's inbox.
    /// One `Loaded` and one `Lost` entry per block and one `Ask` at most:
    /// the inbox (two per block, plus one) never fills, and the control
    /// stage never waits on it.
    /// `Relaxed`: the flag publishes nothing, the inbox carries the block.
    condemned: Vec<AtomicBool>,
    /// Which pool block carries each in-flight sequence — the ack names a
    /// sequence, and over a real wire the sink cannot name our block.
    seq2block: Mutex<HashMap<u32, u32>>,
    next_seq: AtomicU64,
    /// Dispatched blocks not yet acked: each earns a grant as it lands,
    /// so the sender asks for credits only when this is zero.
    unacked: AtomicU32,
    /// Set just before `DatasetComplete` leaves: from then on the sink
    /// may end, and close its links, the moment the last block lands.
    dc_sent: AtomicBool,
    /// The first data-link error after `DatasetComplete`, held for the
    /// control stage to judge (see [`Src::link_err`]).
    late_err: Mutex<Option<io::Error>>,
    detector: LossDetector,
    /// What the detector's nanosecond times count from.
    epoch: Instant,
    /// The ack-loop estimator: block sent → ack retired, Karn-filtered.
    ctl: Option<Controller>,
    ctrl_tx: Arc<dyn CtrlTx>,
    data: Arc<Vec<Box<dyn DataTx>>>,
    fail: Fail,
}

impl Src<'_> {
    /// Now, on the detector's clock.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A data link failed. Before `DatasetComplete` the sink cannot have
    /// ended, so that is the half's error. After it the sink ends on its
    /// last arrival and closes its links, so a re-send still on its way
    /// may find one gone; the control link decides: every ack before
    /// its end-of-stream is success, anything less fails with this error.
    fn link_err(&self, e: io::Error) -> io::Result<()> {
        if !self.dc_sent.load(Ordering::Acquire) {
            return Err(e);
        }
        self.late_err.lock().get_or_insert(e);
        Ok(())
    }

    /// Whether a side out of credits should ask for more: only when no
    /// dispatched block is unacked (each earns a grant as it lands) and
    /// no request is already outstanding.
    fn wants_credit(&self) -> bool {
        self.unacked.load(Ordering::Acquire) == 0 && !self.asked.load(Ordering::Acquire)
    }

    /// [`Src::wants_credit`], claiming the one outstanding request.
    fn claim_ask(&self) -> bool {
        self.wants_credit() && !self.asked.swap(true, Ordering::AcqRel)
    }

    /// How long an unanswered `MrRequest` stands before it may be re-sent:
    /// on a measured path the retransmit deadline — a fixed 20 ms re-asks
    /// two or three times per starvation inside one WAN round trip, each
    /// answered by a grant the first request already earned.
    fn ask_rearm(&self) -> Duration {
        match &self.ctl {
            Some(c) => retx_deadline(self.cfg, Some(c)),
            None => Duration::from_millis(20),
        }
    }
}

/// Run the source half of a transfer over `t`: negotiate, load blocks
/// (pattern or `src_file`), send them in sequence order as data frames,
/// send `DatasetComplete` behind the last of them, re-send what is lost,
/// retire blocks on the sink's acks, and hang up once the sink has closed
/// its side. Returns this half's view of the transfer.
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

    // The request leaves before the pool exists: the sink needs nothing
    // from it to accept the session and start granting.
    let start = Instant::now();
    ctrl_tx.send(&CtrlMsg::SessionRequest {
        session: SESSION,
        block_size: cfg.block_size as u64,
        channels: cfg.channels as u16,
        total_bytes: cfg.total_bytes,
        notify_imm: true, // stream arrivals are inherently in-band
    })?;
    // Pin the pool into the transport (fixed-buffer registration on
    // io_uring, no-op elsewhere) before any data is sent; a one-sided
    // transport answers with the window to load into instead.
    let bufs = Arc::new(BlockPool::new(cfg.pool_blocks, cfg.block_size));
    let window = register(&bufs)?;
    let src = Src {
        cfg,
        total_blocks: cfg.total_blocks(),
        backend,
        pacer,
        // +1 because "no read-ahead" still needs the block in service;
        // capped at the pool, where the free-list wait already throttles.
        ra_limit: (cfg.readahead.saturating_add(1)).min(cfg.pool_blocks) as usize,
        pool: AtomicSourcePool::new(PoolGeometry::new(cfg.block_size as u64, cfg.pool_blocks)),
        bufs,
        window,
        credits: IndexQueue::new(MAX_POOL_BLOCKS as usize),
        asked: AtomicBool::new(false),
        ask_queued: AtomicBool::new(false),
        inflight: (0..cfg.pool_blocks).map(|_| Mutex::new(None)).collect(),
        condemned: (0..cfg.pool_blocks).map(|_| Default::default()).collect(),
        seq2block: Mutex::new(HashMap::new()),
        next_seq: AtomicU64::new(0),
        unacked: AtomicU32::new(0),
        dc_sent: AtomicBool::new(false),
        late_err: Mutex::new(None),
        detector: LossDetector::new(cfg.channels),
        epoch: Instant::now(),
        ctl,
        ctrl_tx,
        data,
        fail: Fail::new(abort),
    };
    // The sender's one inbox: loaded blocks and asks from the loaders,
    // condemned blocks from the control stage. It disconnects once every
    // loader and the control stage have ended, and that ends the sender.
    let (inbox_tx, inbox) = bounded(2 * cfg.pool_blocks as usize + 1);

    let mut tally = Tally {
        ctrl: 1, // the SessionRequest
        ..Tally::default()
    };
    std::thread::scope(|s| {
        let (src, fail) = (&src, &src.fail);
        let loaders: Vec<_> = (0..cfg.loaders)
            .map(|_| {
                let inbox_tx = inbox_tx.clone();
                stage(s, fail, move |t| load(src, &inbox_tx, t))
            })
            .collect();
        let sender = stage(s, fail, move |t| send(src, &inbox, t));
        let control = stage(s, fail, move |t| {
            control(src, &mut *ctrl_rx, &inbox_tx, &*shutdown_write, t)
        });
        for h in loaders.into_iter().chain([sender, control]) {
            tally.merge(&h.join().unwrap_or_default());
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

/// Loader: claim sequence numbers, write blocks — header + payload
/// (pattern or file read) — into the pool or, on a window, into a
/// credited sink slot, and hand them to the sender. Each wait polls the
/// failure latch so a dead transport releases it.
fn load(src: &Src, inbox: &Sender<Job>, t: &mut Tally) -> io::Result<()> {
    let cfg = src.cfg;
    loop {
        // Hold a block BEFORE claiming a sequence: claiming first would
        // let sibling loaders absorb the whole pool for later sequences
        // and starve the one the in-order pipeline needs next. Read-ahead
        // pacing rides the same wait: a loader prefetches only while fewer
        // than `ra_limit` blocks are in flight — at the default (full-pool)
        // depth the free-list wait itself; at `readahead = 0` a serialized
        // transfer, for overlap-ablation runs.
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
        // On a window the block's destination is a sink slot, so hold
        // its credit before claiming a sequence too, for the same reason.
        let slot = match &src.window {
            None => u32::MAX,
            Some(_) => match credit(src, inbox) {
                Some(slot) => slot,
                None => {
                    src.pool.abandon(block).expect("FSM: abandon");
                    return Ok(());
                }
            },
        };
        let seq = src.next_seq.fetch_add(1, Ordering::Relaxed);
        if seq >= src.total_blocks {
            src.pool.abandon(block).expect("FSM: abandon");
            if slot != u32::MAX {
                src.credits.push_must(slot);
            }
            return Ok(());
        }
        let offset = seq * cfg.block_size as u64;
        let len = (cfg.total_bytes - offset).min(cfg.block_size as u64) as u32;
        let hdr = DataFrameHeader {
            session: SESSION,
            seq: seq as u32,
            slot,
            len,
        };
        let t0 = Instant::now();
        let mut write = |buf: &mut [u8]| write_block(src, &hdr, offset, buf);
        match &src.window {
            None => write(&mut src.bufs[block as usize].lock())?,
            Some(window) => window.load(&hdr, &mut write)?,
        }
        let ns = t0.elapsed().as_nanos() as u64;
        t.tails.load.record(ns);
        *src.inflight[block as usize].lock() = Some(InFlightInfo {
            seq: seq as u32,
            slot,
            len,
            at: Attempt::default(),
        });
        src.seq2block.lock().insert(seq as u32, block);
        src.pool.loaded(block).expect("FSM: loaded");
        if inbox.send(Job::Loaded(block, seq as u32)).is_err() {
            return Ok(()); // the sender bailed; fail is set
        }
    }
}

/// Write block `hdr.seq`'s wire image into `buf`: the payload header,
/// then the pattern or the file's bytes at `offset`.
fn write_block(src: &Src, hdr: &DataFrameHeader, offset: u64, buf: &mut [u8]) -> io::Result<()> {
    let len = hdr.len as usize;
    PayloadHeader {
        session: SESSION,
        seq: hdr.seq,
        offset,
        len: hdr.len,
    }
    .encode(&mut buf[..PAYLOAD_HEADER_LEN]);
    match &src.backend {
        SrcBackend::Pattern => fill_pattern(
            &mut buf[PAYLOAD_HEADER_LEN..PAYLOAD_HEADER_LEN + len],
            pattern_seed(hdr.seq),
        ),
        SrcBackend::File(f) => {
            f.read_block(&mut buf[PAYLOAD_HEADER_LEN..], len, offset)?;
            if let Some(p) = &src.pacer {
                p.pace(len);
            }
        }
    }
    Ok(())
}

/// A loader's credit wait on a window: a granted sink slot, or `None`
/// once every sequence is claimed or the transfer failed. Only the
/// sender sends, so a starved loader that should ask for credits queues
/// one [`Job::Ask`] for it.
fn credit(src: &Src, inbox: &Sender<Job>) -> Option<u32> {
    let mut spins = 0;
    loop {
        if src.next_seq.load(Ordering::Relaxed) >= src.total_blocks || src.fail.is_set() {
            return None;
        }
        if let Some(slot) = src.credits.try_pop() {
            return Some(slot);
        }
        if src.wants_credit() && !src.ask_queued.swap(true, Ordering::AcqRel) {
            // Never waits: the inbox has room for one `Ask`. An error
            // means the sender bailed, and `fail` is set.
            let _ = inbox.send(Job::Ask);
        }
        backoff(&mut spins);
    }
}

/// Sender: after the `SessionRequest`, the only thread that sends. One
/// loop takes loaded and condemned blocks off the inbox, re-sends what the
/// acks condemn or its quarter-deadline scan finds overdue, sends first
/// attempts in sequence order as far as credits reach (a block loaded
/// into a window holds its credit already), and sends `DatasetComplete`
/// once every sequence has gone out once (the sink knows the count from
/// the request). Starved of credits — its own, or a loader's [`Job::Ask`]
/// — it asks for more and keeps re-sending: a lost block holds its sink
/// slot until its re-send lands, so a small pool could wait for ever. The
/// inbox disconnecting or the latch ends it.
fn send(src: &Src, inbox: &Receiver<Job>, t: &mut Tally) -> io::Result<()> {
    let cfg = src.cfg;
    let mut s = Sending {
        src,
        rr: 0,
        fault_dice: WanDice::from_state(cfg.fault_seed),
        sent: 0,
        order: ReorderBuffer::new(),
        ready: VecDeque::new(),
        next_scan: Instant::now() + retx_deadline(cfg, src.ctl.as_ref()) / 4,
        asked_at: None,
    };
    let kick_all = || src.data.iter().try_for_each(|d| d.kick());
    let mut jobs = Vec::new();
    // The current credit starvation's backoff.
    let mut spins = 0;
    loop {
        // Block only when no block waits for a credit, and wake by the
        // next scan and by the time an unanswered ask may be re-armed.
        let wait = if s.ready.is_empty() {
            let rearm = s.asked_at.map(|at| at + src.ask_rearm());
            let wake = rearm.map_or(s.next_scan, |r| r.min(s.next_scan));
            wake.saturating_duration_since(Instant::now())
        } else {
            Duration::ZERO
        };
        let batch = inbox.recv_batch_timeout(&mut jobs, usize::MAX, wait);
        if batch == Err(TryRecvError::Disconnected) || src.fail.is_set() {
            return Ok(());
        }
        for job in jobs.drain(..) {
            s.take(job, t)?;
        }
        s.scan(t)?;
        if s.asked_at.is_some_and(|at| at.elapsed() > src.ask_rearm()) {
            src.asked.store(false, Ordering::Release);
            s.asked_at = None;
        }
        let before = s.sent;
        while let Some(&(_, block)) = s.ready.front() {
            let slot = match &src.window {
                Some(_) => None,
                None => match src.credits.try_pop() {
                    Some(slot) => Some(slot),
                    None => break,
                },
            };
            s.ready.pop_front();
            s.first_send(block, slot, t)?;
        }
        if s.sent > before {
            spins = 0;
            if s.ready.is_empty() {
                // One doorbell per drain: submit the whole batch of queued
                // sends with a single kernel crossing.
                let t0 = Instant::now();
                kick_all()?;
                t.dispatch_ns += t0.elapsed().as_nanos() as u64;
            }
            if s.sent == src.total_blocks {
                src.dc_sent.store(true, Ordering::Release);
                t.ctrl += 1;
                src.ctrl_tx.send(&CtrlMsg::DatasetComplete {
                    session: SESSION,
                    total_blocks: src.total_blocks as u32,
                })?;
            }
        }
        if s.ready.is_empty() {
            continue;
        }
        // Out of credits: first put every queued send on the wire (arrivals
        // earn the grants awaited), then ask if no arrival will.
        if spins == 0 {
            kick_all()?;
        }
        if src.claim_ask() {
            s.ask(t)?;
        }
        backoff(&mut spins);
    }
}

/// The sender's own state.
struct Sending<'a, 's> {
    src: &'a Src<'s>,
    /// Round-robin over the data links, first sends and re-sends alike.
    rr: usize,
    /// The drop dice of first sends, rolled in sequence order.
    fault_dice: WanDice,
    sent: u64,
    /// Loaders finish out of order; first sends leave in sequence order
    /// (see the module doc) from `ready`, each as a credit comes.
    order: ReorderBuffer<u32>,
    ready: VecDeque<(u32, u32)>,
    next_scan: Instant,
    /// When the outstanding `MrRequest` went out.
    asked_at: Option<Instant>,
}

impl Sending<'_, '_> {
    fn next_link(&mut self) -> usize {
        self.rr += 1;
        (self.rr - 1) % self.src.data.len()
    }

    /// One inbox entry: a loaded block joins the sequence-order queue,
    /// a condemned one is judged for a re-send, an ask is made if still
    /// wanted.
    fn take(&mut self, job: Job, t: &mut Tally) -> io::Result<()> {
        match job {
            Job::Loaded(block, seq) => {
                self.order.push_into(seq, block, &mut self.ready);
                Ok(())
            }
            Job::Lost(block) => {
                self.src.condemned[block as usize].store(false, Ordering::Relaxed);
                self.resend(block, t)
            }
            Job::Ask => {
                self.src.ask_queued.store(false, Ordering::Release);
                if self.src.claim_ask() {
                    self.ask(t)?;
                }
                Ok(())
            }
        }
    }

    /// Ask the sink for credits.
    fn ask(&mut self, t: &mut Tally) -> io::Result<()> {
        t.credit_requests += 1;
        t.ctrl += 1;
        (self.src.ctrl_tx).send(&CtrlMsg::MrRequest { session: SESSION })?;
        self.asked_at = Some(Instant::now());
        Ok(())
    }

    /// The timer's share of recovery, every quarter deadline: judge every
    /// block, which catches what acks cannot — the tail of a transfer, a
    /// re-send with too few sends behind it.
    fn scan(&mut self, t: &mut Tally) -> io::Result<()> {
        if Instant::now() < self.next_scan {
            return Ok(());
        }
        let (cfg, ctl) = (self.src.cfg, self.src.ctl.as_ref());
        self.next_scan = Instant::now() + retx_deadline(cfg, ctl) / 4;
        (0..cfg.pool_blocks).try_for_each(|block| self.resend(block, t))
    }

    /// Re-send `block` if the verdict on its latest attempt says so. The
    /// block is judged and sent under its in-flight lock, so a racing
    /// ack cannot retire it mid-send and a block condemned twice goes
    /// out once. A re-send can itself be lost and retried; a block out of
    /// re-sends fails the transfer with `TimedOut`.
    fn resend(&mut self, block: u32, t: &mut Tally) -> io::Result<()> {
        let src = self.src;
        let mut inf = src.inflight[block as usize].lock();
        let Some(i) = inf.as_mut().filter(|i| i.sent()) else {
            return Ok(()); // idle, or loaded and not yet sent
        };
        let rto_ns = retx_deadline(src.cfg, src.ctl.as_ref()).as_nanos() as u64;
        let verdict = src.detector.verdict(&i.at, rto_ns, src.now_ns());
        match verdict {
            Verdict::Wait => return Ok(()),
            Verdict::GiveUp => {
                let resends = i.at.attempts - 1;
                let msg = format!("block seq {} still unacked after {resends} re-sends", i.seq);
                return Err(io::Error::new(io::ErrorKind::TimedOut, msg));
            }
            Verdict::Fast | Verdict::Timer => {}
        }
        t.retransmits += 1;
        t.fast_retransmits += (verdict == Verdict::Fast) as u64;
        if let Some(c) = &src.ctl {
            c.on_loss();
        }
        let ch = self.next_link();
        i.at = src.detector.next_attempt(&i.at, ch, src.now_ns());
        // The same drop dice as a first send, keyed by (sequence,
        // attempt): which re-sends the wire eats is a property of the
        // seed, not of the order recovery happened to run in.
        let key = (i.seq as u64) << 8 | i.at.attempts as u64;
        let state = src.cfg.fault_seed ^ 0x5EED_5EED_5EED_5EED ^ key;
        if WanDice::from_state(state).roll(src.cfg.fault_drop_p) {
            t.dropped += 1;
            return Ok(());
        }
        // Queue + kick at once: re-sends are rare and latency-bound, not
        // batched. The kick also puts the first sends queued ahead of it
        // on the wire, in the order their ordinals were drawn.
        let link = &src.data[ch];
        let sent = (link.send_block(i.header(), &src.bufs, block)).and_then(|()| link.kick());
        sent.or_else(|e| src.link_err(e))
    }

    /// The first attempt of `block`, into the sink's `slot` — or, for a
    /// block loaded into the window, into the slot it was loaded into.
    fn first_send(&mut self, block: u32, slot: Option<u32>, t: &mut Tally) -> io::Result<()> {
        let src = self.src;
        let t0 = Instant::now();
        let ch = self.next_link();
        // Everything the block's ack touches is in place before the frame
        // leaves: the ack can retire the block before `send_block`
        // returns, and `complete` takes only a posted block.
        src.unacked.fetch_add(1, Ordering::AcqRel);
        src.pool.start_sending(block).expect("FSM: start_sending");
        src.pool.posted(block).expect("FSM: posted");
        let hdr = {
            let mut inf = src.inflight[block as usize].lock();
            let i = inf.as_mut().expect("loaded block untracked");
            if let Some(slot) = slot {
                i.slot = slot;
            }
            i.at = src.detector.next_attempt(&i.at, ch, src.now_ns());
            i.header()
        };
        if self.fault_dice.roll(src.cfg.fault_drop_p) {
            // The wire ate it — ordinal and all, as a real loss would.
            t.dropped += 1;
        } else {
            src.data[ch].send_block(hdr, &src.bufs, block)?;
        }
        self.sent += 1;
        let ns = t0.elapsed().as_nanos() as u64;
        t.dispatch_ns += ns;
        t.tails.dispatch.record(ns);
        Ok(())
    }
}

/// Control: deposits credits, retires blocks on the sink's acks, hands
/// the sender every block the acks prove lost, and runs the teardown —
/// once every block is acked, a drain to the sink's end-of-stream (it
/// closes its side behind its last ack), then write shutdown.
fn control(
    src: &Src,
    ctrl_rx: &mut dyn CtrlRx,
    inbox: &Sender<Job>,
    shutdown_write: &dyn Fn(),
    t: &mut Tally,
) -> io::Result<()> {
    let mut completed = 0u64;
    // Retire one acked sequence; true when the ack moved its channel's
    // high-water mark.
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
        let (at, now) = (info.at, src.now_ns());
        let first_attempt = at.attempts == 1;
        if first_attempt {
            if let Some(c) = &src.ctl {
                c.on_rtt_sample(Duration::from_nanos(now.saturating_sub(at.sent_ns)));
            }
        }
        src.pool.complete(block).expect("FSM: complete");
        src.unacked.fetch_sub(1, Ordering::AcqRel);
        if src.dc_sent.load(Ordering::Acquire) && src.window.is_none() {
            // Every load is done: the block is never filled again, so
            // its pages go back while the last acks are still in flight.
            src.bufs.release(block as usize);
        }
        Ok(src.detector.on_ack(at.ch, at.ordinal, first_attempt, now))
    };
    while completed < src.total_blocks {
        let msg = match ctrl_rx.recv() {
            Ok(Some(msg)) => msg,
            // The sink went before acking everything: a data link that
            // failed after `DatasetComplete` saw it first.
            end => {
                let e = (end.err())
                    .unwrap_or_else(|| perr("peer closed the control stream mid-transfer"));
                return Err(src.late_err.lock().take().unwrap_or(e));
            }
        };
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
                    // Outstanding credits never exceed the sink's pool, but a
                    // sender preempted mid-pop can make the ring look full to
                    // a lapping push; `push_must` rides that out.
                    src.credits.push_must(slot);
                    src.asked.store(false, Ordering::Release);
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
                let msg = format!("sink is busy; retry after {retry_after_ms} ms");
                return Err(io::Error::new(io::ErrorKind::ConnectionRefused, msg));
            }
            CtrlMsg::SessionReject { reason, .. } => {
                let msg = format!("sink rejected the session (reason {reason})");
                return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
            }
            other => return Err(perr(format!("unexpected ctrl at source: {other:?}"))),
        }
        // A high-water mark moved: hand the sender every attempt it now
        // proves lost, each block at most once in the inbox. (Nothing is
        // scanned for acks that moved no mark.)
        if advanced {
            for block in 0..src.cfg.pool_blocks {
                let lost = src.inflight[block as usize]
                    .lock()
                    .as_ref()
                    .is_some_and(|i| i.sent() && src.detector.is_lost(i.at.ch, i.at.ordinal));
                if lost && !src.condemned[block as usize].swap(true, Ordering::Relaxed) {
                    // A dead sender has set `fail`.
                    let _ = inbox.send(Job::Lost(block));
                }
            }
        }
    }
    // Every block is acked. Drain trailing frames (credits granted after
    // our last block freed) up to the sink's end-of-stream, which follows
    // its last ack; then let go.
    while let Ok(Some(_)) = ctrl_rx.recv() {
        t.ctrl += 1;
    }
    shutdown_write();
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
    pub(crate) fn open(cfg: &LiveConfig) -> io::Result<SrcBackend> {
        let Some(path) = &cfg.src_file else {
            return Ok(SrcBackend::Pattern);
        };
        let f = FileSource::open(path, cfg.direct_io)?;
        if f.len() < cfg.total_bytes {
            let (have, want) = (f.len(), cfg.total_bytes);
            let msg = format!(
                "source file {} holds {have} bytes, transfer wants {want}",
                path.display()
            );
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, msg));
        }
        Ok(SrcBackend::File(f))
    }

    pub(crate) fn direct_active(&self) -> bool {
        matches!(self, SrcBackend::File(f) if f.direct_active())
    }
}

#[derive(Clone, Copy)]
pub(crate) struct InFlightInfo {
    pub(crate) seq: u32,
    /// The sink slot: bound at load time on a window, at the first send
    /// elsewhere (`u32::MAX` until then).
    pub(crate) slot: u32,
    pub(crate) len: u32,
    /// The latest wire attempt (none yet while loading) — what the
    /// sender's [`LossDetector::verdict`] judges.
    pub(crate) at: Attempt,
}

impl InFlightInfo {
    /// Whether the block has gone out at least once.
    fn sent(&self) -> bool {
        self.at.attempts > 0
    }

    /// The data-frame header of any attempt of this block.
    fn header(&self) -> DataFrameHeader {
        DataFrameHeader {
            session: SESSION,
            seq: self.seq,
            slot: self.slot,
            len: self.len,
        }
    }
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
