//! The protocol engines: event-driven source and sink endpoints.
//!
//! This module is the paper's §IV made executable. Each endpoint is a
//! [`rftp_fabric::Application`] — an event-driven state machine reacting
//! to completions, timers, and worker-thread wakeups, mirroring the
//! middleware's thread-pool architecture (Fig. 2):
//!
//! * the **control thread** polls the control QP's completion queue and
//!   runs negotiation, credit, and notification handlers;
//! * **loader threads** (source) fill blocks from the data source;
//! * **data threads** poll the data-channel CQs;
//! * the **consumer thread** (sink) drains in-order blocks to the
//!   application (null sink or disk device).
//!
//! A transfer runs the paper's three phases: (1) initialization and
//! parameter negotiation, (2) data transfer with credit flow control and
//! out-of-order reassembly, (3) teardown via *dataset transfer
//! completion*. Multiple jobs (files) run as sequential sessions over the
//! same queue pairs and the same registered pools — the "reuse of memory
//! regions" optimization.

use crate::config::{ConsumeMode, NotifyMode, SinkConfig, SourceConfig};
use crate::credit::{CreditStock, Granter};
use crate::estimator::RttEstimator;
use crate::loss::{Attempt, LossDetector, Verdict};
use crate::pool::{AtomicSinkPool, AtomicSourcePool, BlockIdx, PoolGeometry};
use crate::reorder::ReorderBuffer;
use crate::stats::{SinkStats, SourceStats};
use crate::wire::{
    reject_reason, Credit, CtrlMsg, PayloadHeader, CTRL_SLOT_LEN, MAX_CREDITS_PER_MSG,
    PAYLOAD_HEADER_LEN,
};
use rftp_fabric::{
    Api, Application, Backing, CqId, Cqe, CqeKind, DeviceId, MrId, MrSlice, PostError, QpId,
    QpOptions, RecvWr, RemoteSlice, Rkey, WcStatus, WorkRequest, WrOp,
};
use rftp_netsim::cpu::per_byte_cost;
use rftp_netsim::time::{SimDur, SimTime};
use rftp_netsim::ThreadId;
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

/// Default slots in each control send/recv ring. On long-fat paths the
/// ring must be deeper: a send slot is only reusable after the RC ack
/// returns (one RTT), so the control channel carries at most
/// `slots / RTT` messages per second — with one `BlockComplete` per
/// block, an undersized ring throttles the whole transfer. Endpoint
/// configs size rings at ~2x the pool depth for this reason.
pub const CTRL_RING_SLOTS: u32 = 64;

/// Wakeup-token layout: kind in the top byte, an engine *tag* in the
/// next byte (so several engines can share one host application — see
/// [`crate::multi`]), payload below.
const TOK_LOAD: u64 = 1 << 56;
const TOK_CONSUME: u64 = 2 << 56;
/// Source retransmit-watchdog tick (pure timer, armed while recovery is
/// enabled; a no-op scan on a healthy transfer).
const TOK_RETX: u64 = 3 << 56;
/// Source session-resume back-off timer.
const TOK_RESUME: u64 = 4 << 56;
/// Sink control-QP self-repair (debounced reset after an error CQE).
const TOK_REPAIR: u64 = 5 << 56;

fn tok_kind(token: u64) -> u64 {
    token & (0xFF << 56)
}

fn tok_tag(token: u64) -> u8 {
    (token >> 48) as u8
}

fn tok_with_tag(kind: u64, tag: u8, payload: u64) -> u64 {
    debug_assert_eq!(payload >> 48, 0, "token payload overflows into the tag");
    kind | ((tag as u64) << 48) | payload
}

fn tok_payload(token: u64) -> u64 {
    token & !(0xFFFF << 48)
}

/// A ring of registered control-message slots plus overflow queue.
struct CtrlRing {
    mr: MrId,
    capacity: u32,
    free: VecDeque<u32>,
    /// Slots on the wire: set as `drain` takes a slot from `free`,
    /// cleared as its completion (or a `reset`) returns it.
    posted: Vec<bool>,
    pending: VecDeque<CtrlMsg>,
}

impl CtrlRing {
    fn create(api: &mut Api, slots: u32) -> CtrlRing {
        assert!(slots > 0);
        let mr = api.register_mr(Backing::zeroed(slots as usize * CTRL_SLOT_LEN));
        CtrlRing {
            mr,
            capacity: slots,
            free: (0..slots).collect(),
            posted: vec![false; slots as usize],
            pending: VecDeque::new(),
        }
    }

    /// Send (or queue) a control message on `qp`. Returns messages put on
    /// the wire now (0 or more if the pending queue drained), or the post
    /// error that interrupted draining (the message stays queued; a
    /// recovering engine resets the ring and re-drives the conversation).
    fn send(&mut self, api: &mut Api, qp: QpId, msg: CtrlMsg) -> Result<u64, PostError> {
        self.pending.push_back(msg);
        self.drain(api, qp)
    }

    fn drain(&mut self, api: &mut Api, qp: QpId) -> Result<u64, PostError> {
        let mut sent = 0;
        while let (Some(&slot), true) = (self.free.front(), !self.pending.is_empty()) {
            let msg = self.pending.front().expect("checked nonempty");
            let mut buf = [0u8; CTRL_SLOT_LEN];
            let n = msg.encode(&mut buf);
            let off = slot as u64 * CTRL_SLOT_LEN as u64;
            api.mr_mut(self.mr).write_bytes(off, &buf[..n]);
            let wr = WorkRequest::signaled(
                slot as u64,
                WrOp::Send {
                    local: MrSlice::new(self.mr, off, n as u64),
                    imm: None,
                },
            );
            match api.post_send(qp, wr) {
                Ok(()) => {
                    self.pending.pop_front();
                    self.free.pop_front();
                    self.posted[slot as usize] = true;
                    sent += 1;
                }
                // SQ backpressure: the message stays pending and goes out
                // on the next send completion.
                Err(PostError::SqFull) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(sent)
    }

    /// A control send completed; its slot is reusable.
    fn on_sent(&mut self, api: &mut Api, qp: QpId, slot: u32) -> Result<u64, PostError> {
        // Ignore completions from before a `reset` (their slots were
        // already returned wholesale); double-pushing would make the ring
        // look permanently non-idle.
        if std::mem::take(&mut self.posted[slot as usize]) {
            self.free.push_back(slot);
        }
        self.drain(api, qp)
    }

    /// Forget all in-flight sends and queued messages (session resume:
    /// the QP was reset, so nothing posted will ever complete, and the
    /// recovering engine re-drives the conversation from scratch).
    fn reset(&mut self) {
        self.free = (0..self.capacity).collect();
        self.posted.fill(false);
        self.pending.clear();
    }

    fn idle(&self) -> bool {
        self.free.len() == self.capacity as usize && self.pending.is_empty()
    }
}

/// A ring of posted control receive buffers.
struct RecvRing {
    mr: MrId,
    slots: u32,
}

impl RecvRing {
    fn create_and_post(api: &mut Api, qp: QpId, slots: u32) -> Result<RecvRing, PostError> {
        let mr = api.register_mr(Backing::zeroed(slots as usize * CTRL_SLOT_LEN));
        let ring = RecvRing { mr, slots };
        ring.repost_all(api, qp)?;
        Ok(ring)
    }

    fn post(api: &mut Api, qp: QpId, mr: MrId, slot: u32) -> Result<(), PostError> {
        api.post_recv(
            qp,
            RecvWr {
                wr_id: slot as u64,
                local: MrSlice::new(mr, slot as u64 * CTRL_SLOT_LEN as u64, CTRL_SLOT_LEN as u64),
            },
        )
    }

    /// Post the full ring of receives — at startup, and again after a QP
    /// reset (which empties the receive queue).
    fn repost_all(&self, api: &mut Api, qp: QpId) -> Result<(), PostError> {
        for slot in 0..self.slots {
            Self::post(api, qp, self.mr, slot)?;
        }
        Ok(())
    }

    /// Decode the message in `slot` and repost the buffer. A repost
    /// failure (errored QP) is returned alongside the message, which is
    /// still valid — it was delivered before the QP died.
    fn take(
        &self,
        api: &mut Api,
        qp: QpId,
        slot: u32,
        len: u64,
    ) -> (CtrlMsg, Result<(), PostError>) {
        let off = slot as u64 * CTRL_SLOT_LEN as u64;
        let msg = {
            let bytes = api.mr(self.mr).bytes(off, len);
            CtrlMsg::decode(bytes).expect("undecodable control message")
        };
        let reposted = Self::post(api, qp, self.mr, slot);
        (msg, reposted)
    }
}

/// Per-block in-flight bookkeeping at the source.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    seq: u32,
    /// Offset of the block within the current job.
    offset: u64,
    /// Payload bytes (short for the tail block).
    len: u32,
    /// The credit consumed at dispatch (`None` while loading). Kept so
    /// the retransmit watchdog can re-WRITE to the same sink slot.
    credit: Option<Credit>,
    /// Post id of this occupancy's first WRITE (`u64::MAX` until it is
    /// dispatched). Post ids only grow, so a completion for an earlier
    /// post belongs to an earlier occupant of the block and is ignored.
    first_post: u64,
    /// The latest WRITE (first post or watchdog re-post), as the
    /// watchdog's [`LossDetector::verdict`] judges it. A resume re-send
    /// starts at one attempt, so Karn's rule treats it as a retransmit.
    at: Attempt,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SrcPhase {
    AwaitAccept,
    Transfer,
    Draining,
    /// A fatal QP error was detected; the engine tears its QPs down and
    /// re-runs an abbreviated negotiation (`SessionResume`) under an
    /// exponential back-off, then rewinds to the sink's resume point.
    Recovering,
    Done,
    Failed,
}

/// The data-source protocol engine.
pub struct SourceEngine {
    cfg: SourceConfig,
    ctrl_qp: QpId,
    loader_threads: Vec<ThreadId>,
    data_threads: Vec<ThreadId>,
    data_cqs: Vec<CqId>,

    pool_mr: MrId,
    pool: AtomicSourcePool,
    ctrl_tx: Option<CtrlRing>,
    ctrl_rx: Option<RecvRing>,
    data_qps: Vec<QpId>,
    rr_qp: usize,
    /// Id of the next data WRITE; each WRITE's `wr_id` carries its id
    /// (see [`data_wr_id`]).
    posts: u64,
    /// Send ordinals and WRITE completions per data channel (an RC queue
    /// pair completes in post order), and the RTO over first-attempt
    /// post → completion times: the watchdog's evidence.
    detector: LossDetector,
    rtt: RttEstimator,

    // Current job/session state.
    job_idx: usize,
    session: u32,
    phase: SrcPhase,
    next_seq: u32,
    next_load_off: u64,
    job_blocks: u64,
    blocks_completed: u64,
    loads_in_flight: u32,
    next_loader: usize,
    /// Blocks loaded but not yet dispatched, ordered by sequence number.
    /// Dispatching strictly in sequence order is load-bearing: if a later
    /// sequence could take the last credits while an earlier one is still
    /// loading, the sink's bounded pool could fill with blocks its
    /// in-order consumer cannot accept — a head-of-line deadlock (the
    /// live-thread port of this engine exposed it).
    loaded_order: ReorderBuffer<BlockIdx>,
    loaded_q: VecDeque<BlockIdx>,
    inflight: Vec<Option<InFlight>>,
    credits: CreditStock,
    starved_since: Option<SimTime>,
    /// When the outstanding `MrRequest` (if any) was sent; the watchdog
    /// re-asks once it has gone unanswered for a full timeout.
    request_sent_at: SimTime,

    // Recovery state.
    /// Thread the watchdog / resume timers fire on (set at `on_start`).
    timer_thread: ThreadId,
    /// Bumped on every resume; loader completions carrying a stale epoch
    /// are ignored (their pool was torn down under them).
    load_epoch: u8,
    /// High-water mark of assigned sequence numbers; re-assigning below
    /// it means a resume is re-sending, which counts as retransmission.
    max_seq_started: u32,
    /// The current session has seen its `SessionAccept` (resume can use
    /// the abbreviated handshake instead of a full request).
    negotiated: bool,
    resume_attempts: u32,
    resume_backoff_cur: SimDur,
    /// Identifies the latest resume attempt; the sink echoes it and the
    /// source ignores accepts for superseded attempts (their credits
    /// were revoked when the sink processed the newer attempt).
    resume_nonce: u32,
    /// The transport must be torn down (QPs reset, rings cleared, pool
    /// rebuilt) before the next resume attempt. Set on every fatal
    /// error; cleared once the teardown runs. Re-sending a lost
    /// handshake over a healthy QP must NOT reset it again — the reset
    /// orphans the peer's in-flight replies, whose NAKs then fail the
    /// peer's QP, whose repair fails ours: a reset war that never
    /// converges.
    resume_needs_reset: bool,
    /// Set when a fatal error is detected, cleared when the session is
    /// reestablished; the difference accumulates into `faults.degraded`.
    degraded_since: Option<SimTime>,
    /// When the engine (last) entered `AwaitAccept`; a quiet timeout
    /// re-sends the request (a lost accept leaves no error CQE here).
    await_since: SimTime,

    /// Token namespace when several engines share one host application.
    token_tag: u8,

    pub stats: SourceStats,
    pub done: bool,
    pub failure: Option<String>,
}

impl SourceEngine {
    /// Build an engine. `ctrl_qp` must already be connected to the sink's
    /// control QP; `threads` are pre-spawned on the host (see
    /// [`crate::harness`]).
    pub fn new(
        cfg: SourceConfig,
        ctrl_qp: QpId,
        loader_threads: Vec<ThreadId>,
        data_threads: Vec<ThreadId>,
    ) -> SourceEngine {
        assert!(!cfg.jobs.is_empty(), "no jobs configured");
        assert!(!loader_threads.is_empty() && !data_threads.is_empty());
        assert!(
            cfg.pool_blocks <= 1 << 24,
            "a data wr_id holds 24 bits of block index"
        );
        let geo = PoolGeometry::new(cfg.block_size, cfg.pool_blocks);
        let pool = AtomicSourcePool::new(geo);
        let inflight = vec![None; cfg.pool_blocks as usize];
        let job0 = cfg.jobs[0];
        let job_blocks = cfg.blocks_for(job0);
        let timer_thread = loader_threads[0];
        let resume_backoff_cur = cfg.recovery.resume_backoff;
        SourceEngine {
            session: cfg.first_session,
            cfg,
            ctrl_qp,
            loader_threads,
            data_threads,
            data_cqs: Vec::new(),
            pool_mr: MrId(0),
            pool,
            ctrl_tx: None,
            ctrl_rx: None,
            data_qps: Vec::new(),
            rr_qp: 0,
            posts: 0,
            detector: LossDetector::new(0),
            rtt: RttEstimator::new(),
            job_idx: 0,
            phase: SrcPhase::AwaitAccept,
            next_seq: 0,
            next_load_off: 0,
            job_blocks,
            blocks_completed: 0,
            loads_in_flight: 0,
            next_loader: 0,
            loaded_order: ReorderBuffer::new(),
            loaded_q: VecDeque::new(),
            inflight,
            credits: CreditStock::new(),
            starved_since: None,
            request_sent_at: SimTime::ZERO,
            timer_thread,
            load_epoch: 0,
            max_seq_started: 0,
            negotiated: false,
            resume_attempts: 0,
            resume_backoff_cur,
            resume_nonce: 0,
            resume_needs_reset: false,
            degraded_since: None,
            await_since: SimTime::ZERO,
            token_tag: 0,
            stats: SourceStats::default(),
            done: false,
            failure: None,
        }
    }

    /// Assign a token namespace (required when composing several engines
    /// into one host application, e.g. parallel jobs).
    pub fn with_token_tag(mut self, tag: u8) -> SourceEngine {
        self.token_tag = tag;
        self
    }

    pub fn is_finished(&self) -> bool {
        self.done || self.failure.is_some()
    }

    /// Does this engine own `qp` (its control QP or one of its data
    /// channels)? Used by [`crate::multi::MultiEngine`] to route
    /// completions when a host runs several engines side by side.
    pub fn owns_qp(&self, qp: QpId) -> bool {
        qp == self.ctrl_qp || self.data_qps.contains(&qp)
    }

    /// Wakeup tokens this engine understands (loader, watchdog, and
    /// resume kinds + its tag).
    pub fn owns_token(&self, token: u64) -> bool {
        let kind = tok_kind(token);
        (kind == TOK_LOAD || kind == TOK_RETX || kind == TOK_RESUME)
            && tok_tag(token) == self.token_tag
    }

    fn job_bytes(&self) -> u64 {
        self.cfg.jobs[self.job_idx]
    }

    fn fail(&mut self, why: impl Into<String>) {
        self.failure = Some(why.into());
        self.phase = SrcPhase::Failed;
    }

    /// Route a fatal completion: recoverable errors start a session
    /// resume; with recovery disabled (or on RNR exhaustion, which means
    /// the peer stopped posting receives — retrying cannot cure a
    /// protocol/config failure) the engine fails as the seed did.
    fn on_fatal(&mut self, api: &mut Api, status: WcStatus, what: &str) {
        if self.cfg.record_trace && self.stats.trace.len() < 10_000 {
            self.stats
                .trace
                .push(format!("{} src !! {what}: {status:?}", api.now()));
        }
        if !self.cfg.recovery.enabled || status == WcStatus::RnrRetryExceeded {
            self.fail(format!("{what} failed: {status:?}"));
        } else {
            self.enter_recovery(api);
        }
    }

    /// Route a synchronous post failure (typically `BadQpState` racing an
    /// errored QP) the same way.
    fn on_post_error(&mut self, api: &mut Api, e: PostError, what: &str) {
        if self.cfg.record_trace && self.stats.trace.len() < 10_000 {
            self.stats
                .trace
                .push(format!("{} src !! {what}: {e:?}", api.now()));
        }
        if !self.cfg.recovery.enabled {
            self.fail(format!("{what}: {e:?}"));
        } else {
            self.enter_recovery(api);
        }
    }

    fn send_ctrl(&mut self, api: &mut Api, msg: CtrlMsg) {
        if self.cfg.record_trace && self.stats.trace.len() < 10_000 {
            self.stats
                .trace
                .push(format!("{} src --> {msg:?}", api.now()));
        }
        let ring = self.ctrl_tx.as_mut().expect("ctrl ring not built");
        match ring.send(api, self.ctrl_qp, msg) {
            Ok(n) => self.stats.ctrl_msgs_sent += n,
            Err(e) => self.on_post_error(api, e, "ctrl send"),
        }
    }

    /// Start filling free blocks, up to one outstanding load per loader
    /// thread (the paper's loader pool).
    fn kick_loaders(&mut self, api: &mut Api) {
        while self.loads_in_flight < self.loader_threads.len() as u32
            && self.next_load_off < self.job_bytes()
        {
            let Some(block) = self.pool.get_free() else {
                break;
            };
            let len = (self.job_bytes() - self.next_load_off).min(self.cfg.block_size) as u32;
            let seq = self.next_seq;
            self.next_seq += 1;
            // Re-assigning a sequence that was dispatched in a failed
            // incarnation of this session: a resume retransmission.
            let resend = seq < self.max_seq_started;
            self.stats.faults.retransmits += resend as u64;
            self.max_seq_started = self.max_seq_started.max(seq + 1);
            self.inflight[block as usize] = Some(InFlight {
                seq,
                offset: self.next_load_off,
                len,
                credit: None,
                first_post: u64::MAX,
                at: Attempt {
                    attempts: resend as u32,
                    ..Attempt::default()
                },
            });
            self.next_load_off += len as u64;
            let thread = self.loader_threads[self.next_loader];
            self.next_loader = (self.next_loader + 1) % self.loader_threads.len();
            let cost = per_byte_cost(api.costs().load_per_byte_ps, len as u64);
            let tok = tok_with_tag(
                TOK_LOAD,
                self.token_tag,
                ((self.load_epoch as u64) << 40) | block as u64,
            );
            api.work(thread, cost, tok);
            self.loads_in_flight += 1;
        }
    }

    fn on_load_done(&mut self, api: &mut Api, epoch: u8, block: BlockIdx) {
        if epoch != self.load_epoch {
            // A load from before a resume: its pool slot was rebuilt and
            // possibly re-assigned; the resume already re-queued the data.
            return;
        }
        self.loads_in_flight -= 1;
        let inf = self.inflight[block as usize].expect("load for unknown block");
        if self.cfg.real_data {
            // Write the Fig. 7b payload header followed by pattern data.
            let geo = self.pool.geometry();
            let base = geo.offset(block);
            let mut hdr = [0u8; PAYLOAD_HEADER_LEN];
            PayloadHeader {
                session: self.session,
                seq: inf.seq,
                offset: inf.offset,
                len: inf.len,
            }
            .encode(&mut hdr);
            let mr = api.mr_mut(self.pool_mr);
            mr.write_bytes(base, &hdr);
            mr.fill_pattern(
                base + PAYLOAD_HEADER_LEN as u64,
                inf.len as u64,
                pattern_seed(self.session, inf.seq),
            );
        }
        self.pool.loaded(block).expect("FSM: loaded");
        for (_, b) in self.loaded_order.push(inf.seq, block) {
            self.loaded_q.push_back(b);
        }
        self.kick_loaders(api);
        self.try_dispatch(api);
    }

    /// Pair loaded blocks with credits and fire RDMA WRITEs across the
    /// data channels.
    fn try_dispatch(&mut self, api: &mut Api) {
        if self.phase != SrcPhase::Transfer {
            return;
        }
        while !self.loaded_q.is_empty() {
            let Some(credit) = self.credits.take() else {
                break;
            };
            let block = *self.loaded_q.front().expect("checked nonempty");
            let inf = self.inflight[block as usize].expect("loaded block untracked");
            let wire_len = inf.len as u64 + PAYLOAD_HEADER_LEN as u64;
            if (credit.len as u64) < wire_len {
                self.fail(format!("credit too small: {} < {}", credit.len, wire_len));
                return;
            }
            let imm = match self.cfg.notify {
                NotifyMode::CtrlMsg => None,
                NotifyMode::WriteImm => Some(pack_imm(credit.slot, inf.seq)),
            };
            let post = match self.post_write(api, block, credit, imm) {
                Ok(Some(post)) => post,
                // All SQs full: put the credit back and retry on the next
                // completion.
                Ok(None) => {
                    self.credits.restore(credit);
                    break;
                }
                Err(e) => {
                    self.on_post_error(api, e, "data post");
                    return;
                }
            };
            self.loaded_q.pop_front();
            let inf = self.inflight[block as usize].as_mut().expect("just read");
            inf.credit = Some(credit);
            inf.first_post = post;
            self.pool.start_sending(block).expect("FSM: start_sending");
            self.pool.posted(block).expect("FSM: posted");
        }

        // Starvation bookkeeping + explicit credit request.
        let now = api.now();
        if !self.loaded_q.is_empty() && self.credits.is_empty() {
            if self.starved_since.is_none() {
                self.starved_since = Some(now);
            }
            self.request_credits(api);
        } else if let Some(since) = self.starved_since.take() {
            self.stats.credit_starved += now.since(since);
        }
        self.stats.max_credit_stock = self.stats.max_credit_stock.max(self.credits.max_stock);
    }

    /// Ask the sink for credits, unless a request is already out.
    fn request_credits(&mut self, api: &mut Api) {
        if self.credits.should_request() {
            self.stats.credit_requests += 1;
            self.request_sent_at = api.now();
            let session = self.session;
            self.send_ctrl(api, CtrlMsg::MrRequest { session });
        }
    }

    fn on_data_write_done(&mut self, api: &mut Api, cqe: &Cqe) {
        if !cqe.ok() {
            self.on_fatal(api, cqe.status, "data write");
            return;
        }
        let (post, block) = (cqe.wr_id >> 24, (cqe.wr_id & 0xFF_FFFF) as BlockIdx);
        let chan = (self.data_qps.iter().position(|&q| q == cqe.qp)).expect("foreign data QP");
        let now = api.now().nanos();
        let slot = &mut self.inflight[block as usize];
        if !slot.is_some_and(|inf| post >= inf.first_post) {
            // Not this occupant's WRITE: the other copy of a watchdog
            // re-post already completed the block (which may since hold
            // a new sequence), or the completion predates a resume that
            // rebuilt the pool and re-queued this block's data. Each
            // occupancy completes exactly once; the channel is alive.
            self.detector.on_ack(chan, 0, false, now);
            return;
        }
        let inf = slot.take().expect("checked above");
        // Karn's rule: only a block's one and only WRITE is a sample, or
        // evidence for the loss mark.
        let first_attempt = inf.at.attempts == 1;
        if first_attempt {
            self.rtt
                .on_sample(Duration::from_nanos(now - inf.at.sent_ns));
        }
        self.detector
            .on_ack(chan, inf.at.ordinal, first_attempt, now);
        self.pool.complete(block).expect("FSM: complete");
        self.stats.blocks_sent += 1;
        self.stats.bytes_sent += inf.len as u64;
        self.blocks_completed += 1;
        if self.cfg.record_timeline && self.stats.timeline.len() < 65_536 {
            let inflight = self
                .inflight
                .iter()
                .filter(|x| x.is_some_and(|i| i.credit.is_some()))
                .count() as u32;
            self.stats.timeline.push(crate::stats::TimelinePoint {
                at: api.now(),
                bytes: self.stats.bytes_sent,
                credit_stock: self.credits.available(),
                inflight,
            });
        }
        if self.cfg.notify == NotifyMode::CtrlMsg {
            // Safe only now: the WRITE completion proves the payload is
            // placed at the sink, so the notification cannot overtake it.
            self.send_ctrl(
                api,
                CtrlMsg::BlockComplete {
                    session: self.session,
                    seq: inf.seq,
                    slot: inf.credit.expect("completed block had no credit").slot,
                    len: inf.len,
                },
            );
        }
        if self.blocks_completed == self.job_blocks {
            self.send_ctrl(
                api,
                CtrlMsg::DatasetComplete {
                    session: self.session,
                    total_blocks: self.job_blocks as u32,
                },
            );
            self.phase = SrcPhase::Draining;
        } else {
            self.kick_loaders(api);
            self.try_dispatch(api);
        }
    }

    fn maybe_advance_job(&mut self, api: &mut Api) {
        if self.phase != SrcPhase::Draining || !self.ctrl_tx.as_ref().expect("ring").idle() {
            return;
        }
        self.stats.sessions_completed += 1;
        self.job_idx += 1;
        if self.job_idx == self.cfg.jobs.len() {
            self.phase = SrcPhase::Done;
            self.done = true;
            self.stats.finished_at = api.now();
            return;
        }
        // Next job: new session over the same QPs and the same registered
        // pool (channels = 0 ⇒ reuse).
        self.session += 1;
        self.next_seq = 0;
        self.next_load_off = 0;
        self.loaded_order = ReorderBuffer::new();
        self.blocks_completed = 0;
        self.job_blocks = self.cfg.blocks_for(self.job_bytes());
        self.credits = CreditStock::new();
        self.max_seq_started = 0;
        self.negotiated = false;
        self.await_since = api.now();
        self.phase = SrcPhase::AwaitAccept;
        self.request_session(api);
    }

    /// Ask for the current job's session (again). Once the data channels
    /// exist, `channels: 0` reuses them.
    fn request_session(&mut self, api: &mut Api) {
        let msg = CtrlMsg::SessionRequest {
            session: self.session,
            block_size: self.cfg.block_size,
            channels: if self.data_qps.is_empty() {
                self.cfg.channels
            } else {
                0
            },
            total_bytes: self.job_bytes(),
            notify_imm: self.cfg.notify == NotifyMode::WriteImm,
        };
        self.send_ctrl(api, msg);
    }

    /// A fatal QP error was observed: stop the pipeline and schedule a
    /// session resume after the current back-off. Idempotent while a
    /// resume is already pending (flushed completions arrive in bursts).
    fn enter_recovery(&mut self, api: &mut Api) {
        debug_assert!(self.cfg.recovery.enabled);
        // Even when a resume is already pending, a fresh fatal error
        // means the transport broke (again) and the next attempt must
        // tear it down.
        self.resume_needs_reset = true;
        if self.phase == SrcPhase::Recovering || self.is_finished() {
            return;
        }
        self.stats.faults.qp_errors += 1;
        if self.degraded_since.is_none() {
            self.degraded_since = Some(api.now());
        }
        self.phase = SrcPhase::Recovering;
        api.set_timer(
            self.timer_thread,
            self.resume_backoff_cur,
            tok_with_tag(TOK_RESUME, self.token_tag, 0),
        );
    }

    /// Rewind the job cursor to `resume_from` (the sink's highest
    /// contiguous sequence): everything before it is already placed and
    /// is never re-sent.
    fn rewind_to(&mut self, resume_from: u32) {
        self.next_seq = resume_from;
        self.next_load_off = (resume_from as u64 * self.cfg.block_size).min(self.job_bytes());
        self.loaded_order = ReorderBuffer::starting_at(resume_from);
        self.blocks_completed = resume_from as u64;
    }

    /// The back-off expired: tear the transport down to a clean state and
    /// re-run the (abbreviated) negotiation.
    fn do_resume(&mut self, api: &mut Api) {
        if self.phase != SrcPhase::Recovering {
            return; // stale back-off timer after a completed resume
        }
        self.resume_attempts += 1;
        if self.resume_attempts > self.cfg.recovery.max_resume_attempts {
            self.fail("resume attempts exhausted");
            return;
        }
        if self.resume_needs_reset {
            self.resume_needs_reset = false;
            // Resetting bumps each QP's epoch, so anything from the
            // failed incarnation still in flight is dropped at delivery
            // instead of landing in reused slots.
            api.reset_qp(self.ctrl_qp);
            for i in 0..self.data_qps.len() {
                let qp = self.data_qps[i];
                api.reset_qp(qp);
            }
            self.ctrl_tx.as_mut().expect("ring").reset();
            if let Err(e) = self
                .ctrl_rx
                .as_ref()
                .expect("ring")
                .repost_all(api, self.ctrl_qp)
            {
                self.fail(format!("resume recv repost: {e:?}"));
                return;
            }
            // Forget all in-flight work. Loads still running on the
            // loader threads complete into a stale epoch and are ignored.
            self.load_epoch = self.load_epoch.wrapping_add(1);
            self.loads_in_flight = 0;
            self.pool = AtomicSourcePool::new(self.pool.geometry());
            self.loaded_q.clear();
            for f in &mut self.inflight {
                *f = None;
            }
            if let Some(since) = self.starved_since.take() {
                self.stats.credit_starved += api.now().since(since);
            }
            self.rr_qp = 0;
        }
        // Every attempt voids the stock: the sink revokes all
        // outstanding grants when it processes the resume, so credits
        // deposited before this send name slots about to be re-owned.
        self.credits.clear();
        // Arm the next attempt before asking: if this handshake is lost
        // too, the timer fires again with a doubled back-off.
        api.set_timer(
            self.timer_thread,
            self.resume_backoff_cur,
            tok_with_tag(TOK_RESUME, self.token_tag, 0),
        );
        self.resume_backoff_cur = SimDur(
            (self.resume_backoff_cur.0.saturating_mul(2))
                .min(self.cfg.recovery.resume_backoff_max.0),
        );
        if self.negotiated {
            self.resume_nonce = self.resume_nonce.wrapping_add(1);
            self.send_ctrl(
                api,
                CtrlMsg::SessionResume {
                    session: self.session,
                    next_seq: self.next_seq,
                    nonce: self.resume_nonce,
                },
            );
        } else {
            // The failure hit during negotiation: nothing was dispatched,
            // so start the session over with a plain request (idempotent
            // at the sink).
            self.phase = SrcPhase::AwaitAccept;
            self.await_since = api.now();
            self.rewind_to(0);
            self.max_seq_started = 0;
            self.request_session(api);
        }
    }

    /// The session is reestablished: close the degraded-time window and
    /// reset the back-off schedule.
    fn recovered(&mut self, api: &mut Api) {
        if let Some(since) = self.degraded_since.take() {
            self.stats.faults.degraded += api.now().since(since);
            self.stats.faults.reconnects += 1;
        }
        self.resume_attempts = 0;
        self.resume_backoff_cur = self.cfg.recovery.resume_backoff;
    }

    fn on_resume_accept(&mut self, api: &mut Api, session: u32, resume_from: u32, nonce: u32) {
        if session != self.session
            || self.phase != SrcPhase::Recovering
            || nonce != self.resume_nonce
        {
            // Stale acknowledgement of a superseded attempt: the sink
            // revoked its credits when it processed the newer attempt,
            // so resuming on it would write into re-owned slots.
            return;
        }
        self.rewind_to(resume_from);
        self.phase = SrcPhase::Transfer;
        self.recovered(api);
        if self.blocks_completed >= self.job_blocks {
            // The failure hit at teardown; every block already landed.
            self.send_ctrl(
                api,
                CtrlMsg::DatasetComplete {
                    session: self.session,
                    total_blocks: self.job_blocks as u32,
                },
            );
            self.phase = SrcPhase::Draining;
        } else {
            self.kick_loaders(api);
            self.try_dispatch(api);
        }
    }

    /// The current retransmit timeout: the estimator's, or the configured
    /// initial one before the first sample.
    fn rto(&self) -> SimDur {
        (self.rtt.rto()).map_or(self.cfg.recovery.retx_timeout, |d| {
            SimDur::from_nanos(d.as_nanos() as u64)
        })
    }

    /// Arm the next watchdog scan, a quarter RTO out.
    fn arm_retx(&mut self, api: &mut Api) {
        let tok = tok_with_tag(TOK_RETX, self.token_tag, 0);
        api.set_timer(self.timer_thread, SimDur(self.rto().0 / 4), tok);
    }

    /// Periodic watchdog: re-post blocks the shared loss verdict calls
    /// lost (a swallowed CQE), re-ask for credits lost in flight, and
    /// re-send a session request nobody answered — each after the
    /// current RTO. A no-op scan on a healthy transfer — the timer is
    /// pure, so arming it costs nothing.
    fn on_retx_tick(&mut self, api: &mut Api) {
        if self.is_finished() {
            return; // let the timer lapse
        }
        self.arm_retx(api);
        let now = api.now();
        let timeout = self.rto();
        match self.phase {
            // A lost request or accept leaves no error completion on
            // our side; re-ask after a quiet timeout.
            SrcPhase::AwaitAccept if now.since(self.await_since) >= timeout => {
                self.await_since = now;
                self.request_session(api);
            }
            SrcPhase::Transfer => {
                let due: Vec<(BlockIdx, Verdict)> = (self.inflight.iter().enumerate())
                    .filter_map(|(b, inf)| {
                        let i = inf.as_ref().filter(|i| i.credit.is_some())?;
                        let v = self.detector.verdict(&i.at, timeout.0, now.nanos());
                        (v != Verdict::Wait).then_some((b as BlockIdx, v))
                    })
                    .collect();
                if !due.is_empty() && self.cfg.notify == NotifyMode::WriteImm {
                    // A re-WRITE with immediate would consume a second
                    // receive and could chase a slot the sink already
                    // recycled; rewind the whole session instead.
                    self.enter_recovery(api);
                    return;
                }
                for (block, verdict) in due {
                    self.retransmit(api, block, verdict);
                    if self.phase != SrcPhase::Transfer {
                        return;
                    }
                }
                // A credit request or grant lost in flight leaves the
                // source dry with its request bit set forever; re-ask
                // once the outstanding request has gone unanswered for a
                // full timeout. (Keying off `starved_since` would misfire
                // on healthy runs: a dry spell legitimately spans many
                // answered grant cycles when the stock keeps draining to
                // zero between them.)
                if self.credits.request_outstanding
                    && self.credits.is_empty()
                    && now.since(self.request_sent_at) >= timeout
                {
                    self.credits.request_outstanding = false;
                    self.request_credits(api);
                }
            }
            _ => {}
        }
    }

    /// Re-post one block whose WRITE completion never arrived. The
    /// original credit is reused — the slot is still reserved at the sink
    /// — and if both copies land, the sink frees the duplicate.
    fn retransmit(&mut self, api: &mut Api, block: BlockIdx, verdict: Verdict) {
        let Some(inf) = self.inflight[block as usize] else {
            return;
        };
        let Some(credit) = inf.credit else {
            return;
        };
        if verdict == Verdict::GiveUp {
            self.fail(format!(
                "block seq {} exhausted its retransmit budget",
                inf.seq
            ));
            return;
        }
        match self.post_write(api, block, credit, None) {
            Ok(Some(_)) => {
                self.stats.faults.retransmits += 1;
                self.stats.faults.fast_retransmits += (verdict == Verdict::Fast) as u64;
            }
            // Every SQ full: the block stays due; the next scan retries.
            Ok(None) => {}
            Err(e) => self.on_post_error(api, e, "retransmit post"),
        }
    }

    /// WRITE `block`'s payload into `credit`'s sink slot on the next data
    /// channel with SQ room, round-robin, and stamp it as the block's
    /// next attempt. Returns the post id, or `None` when every SQ is full.
    fn post_write(
        &mut self,
        api: &mut Api,
        block: BlockIdx,
        credit: Credit,
        imm: Option<u32>,
    ) -> Result<Option<u64>, PostError> {
        let len = self.inflight[block as usize].expect("untracked block").len;
        let wire_len = len as u64 + PAYLOAD_HEADER_LEN as u64;
        let local = MrSlice::new(self.pool_mr, self.pool.geometry().offset(block), wire_len);
        let remote = RemoteSlice {
            rkey: Rkey::from_raw(credit.rkey),
            offset: credit.offset,
        };
        let nqp = self.data_qps.len();
        for _ in 0..nqp {
            let chan = self.rr_qp;
            self.rr_qp = (self.rr_qp + 1) % nqp;
            let post = self.posts;
            let op = WrOp::Write { local, remote, imm };
            match api.post_send(
                self.data_qps[chan],
                WorkRequest::signaled(data_wr_id(post, block), op),
            ) {
                Ok(()) => {
                    self.posts += 1;
                    let inf = self.inflight[block as usize].as_mut().expect("just read");
                    inf.at = self.detector.next_attempt(&inf.at, chan, api.now().nanos());
                    return Ok(Some(post));
                }
                Err(PostError::SqFull) => self.stats.sq_full_retries += 1,
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    fn on_ctrl_msg(&mut self, api: &mut Api, msg: CtrlMsg) {
        self.stats.ctrl_msgs_received += 1;
        if self.cfg.record_trace && self.stats.trace.len() < 10_000 {
            self.stats
                .trace
                .push(format!("{} src <-- {msg:?}", api.now()));
        }
        match msg {
            CtrlMsg::SessionAccept {
                session,
                block_size,
                data_qpns,
            } => {
                if self.phase != SrcPhase::AwaitAccept {
                    // Duplicate accept (the sink answered a re-sent
                    // request it had already honoured): drop it.
                    return;
                }
                if session != self.session || block_size != self.cfg.block_size {
                    self.fail("accept for wrong session/parameters");
                    return;
                }
                self.negotiated = true;
                self.recovered(api);
                if self.data_qps.is_empty() {
                    // First session: build and connect the data channels.
                    for (i, qpn) in data_qpns.iter().enumerate() {
                        let cq = self.data_cqs[i % self.data_cqs.len()];
                        let qp = api.create_qp(QpOptions::default(), cq, cq);
                        if let Err(e) = api.connect(qp, QpId(*qpn)) {
                            self.fail(format!("connect: {e:?}"));
                            return;
                        }
                        self.data_qps.push(qp);
                    }
                    self.detector = LossDetector::new(self.data_qps.len());
                    self.send_ctrl(
                        api,
                        CtrlMsg::ChannelsReady {
                            session: self.session,
                        },
                    );
                }
                self.phase = SrcPhase::Transfer;
                self.kick_loaders(api);
                self.try_dispatch(api);
            }
            CtrlMsg::SessionReject { reason, .. } => {
                self.fail(format!("session rejected: reason {reason}"));
            }
            CtrlMsg::Credits { session, credits } => {
                if session != self.session
                    || !matches!(self.phase, SrcPhase::Transfer | SrcPhase::Draining)
                {
                    // Stale credits: a finished session's leftovers, or
                    // grants from a resume attempt this engine has since
                    // superseded (mid-recovery the sink revokes and
                    // re-owns those slots, so banking them would corrupt
                    // the next incarnation).
                    return;
                }
                self.credits.deposit(credits);
                self.try_dispatch(api);
            }
            CtrlMsg::ResumeAccept {
                session,
                resume_from,
                nonce,
            } => self.on_resume_accept(api, session, resume_from, nonce),
            other => {
                self.fail(format!("unexpected control message at source: {other:?}"));
            }
        }
    }
}

impl Application for SourceEngine {
    fn on_start(&mut self, api: &mut Api) {
        self.stats.started_at = api.now();
        // Registered resources: one big data pool + control rings. The
        // pool is registered once and reused for every block and session.
        let geo = self.pool.geometry();
        let backing = if self.cfg.real_data {
            Backing::zeroed(geo.total_bytes() as usize)
        } else {
            Backing::Virtual(geo.total_bytes())
        };
        self.pool_mr = api.register_mr(backing);
        self.ctrl_tx = Some(CtrlRing::create(api, self.cfg.ctrl_ring_slots));
        match RecvRing::create_and_post(api, self.ctrl_qp, self.cfg.ctrl_ring_slots) {
            Ok(ring) => self.ctrl_rx = Some(ring),
            Err(e) => {
                self.fail(format!("control recv post failed: {e:?}"));
                return;
            }
        }
        for i in 0..self.cfg.data_cq_threads {
            let t = self.data_threads[i as usize % self.data_threads.len()];
            self.data_cqs.push(api.create_cq(t));
        }
        self.timer_thread = api.thread();
        self.await_since = api.now();
        if self.cfg.recovery.enabled {
            self.arm_retx(api);
        }
        self.request_session(api);
        // Loading can start before the accept arrives.
        self.kick_loaders(api);
    }

    fn on_cqe(&mut self, cqe: &Cqe, api: &mut Api) {
        if self.phase == SrcPhase::Failed {
            return;
        }
        if cqe.qp == self.ctrl_qp {
            match cqe.kind {
                CqeKind::Send => {
                    if !cqe.ok() {
                        self.on_fatal(api, cqe.status, "ctrl send");
                        return;
                    }
                    let ring = self.ctrl_tx.as_mut().expect("ring");
                    match ring.on_sent(api, self.ctrl_qp, cqe.wr_id as u32) {
                        Ok(n) => self.stats.ctrl_msgs_sent += n,
                        Err(e) => {
                            self.on_post_error(api, e, "ctrl drain");
                            return;
                        }
                    }
                    self.maybe_advance_job(api);
                }
                CqeKind::Recv => {
                    if !cqe.ok() {
                        self.on_fatal(api, cqe.status, "ctrl recv");
                        return;
                    }
                    let ring = self.ctrl_rx.as_ref().expect("ring");
                    let (msg, reposted) = ring.take(api, self.ctrl_qp, cqe.wr_id as u32, cqe.bytes);
                    self.on_ctrl_msg(api, msg);
                    if let Err(e) = reposted {
                        self.on_post_error(api, e, "ctrl recv repost");
                    }
                }
                other => self.fail(format!("unexpected ctrl completion {other:?}")),
            }
        } else {
            if self.phase == SrcPhase::Recovering {
                // Flushed data completions racing the teardown; the
                // resume rebuilds everything they refer to.
                return;
            }
            debug_assert!(cqe.kind == CqeKind::RdmaWrite || !cqe.ok());
            self.on_data_write_done(api, cqe);
        }
    }

    fn on_wakeup(&mut self, token: u64, api: &mut Api) {
        if self.phase == SrcPhase::Failed {
            return;
        }
        match tok_kind(token) {
            TOK_LOAD => {
                let payload = tok_payload(token);
                self.on_load_done(api, (payload >> 40) as u8, payload as u32 as BlockIdx);
            }
            TOK_RETX => self.on_retx_tick(api),
            TOK_RESUME => self.do_resume(api),
            other => panic!("source: unknown wakeup token kind {other:#x}"),
        }
    }
}

/// A data WRITE's `wr_id`: its post id above a 24-bit block index.
fn data_wr_id(post: u64, block: BlockIdx) -> u64 {
    (post << 24) | block as u64
}

/// Pack (sink slot, sequence) into a 32-bit immediate for `WriteImm`
/// notification mode: slot in the high 16 bits, the low 16 bits of the
/// sequence below. The sequence is reconstructed at the sink from its
/// expected window (valid while fewer than 2^16 blocks are in flight).
pub fn pack_imm(slot: u32, seq: u32) -> u32 {
    assert!(slot < (1 << 16), "WriteImm mode supports 2^16 sink slots");
    (slot << 16) | (seq & 0xFFFF)
}

/// Unpack an immediate at the sink given the reorder buffer's expected
/// sequence number.
pub fn unpack_imm(imm: u32, expected_seq: u32) -> (u32, u32) {
    let slot = imm >> 16;
    let seq16 = (imm & 0xFFFF) as u16;
    let delta = seq16.wrapping_sub(expected_seq as u16);
    (slot, expected_seq.wrapping_add(delta as u32))
}

/// The pattern seed a source uses when generating block `seq` of
/// `session` (and the one the sink's verifier must therefore assume).
pub fn pattern_seed(session: u32, seq: u32) -> u64 {
    ((session as u64) << 32) | seq as u64
}

/// Per-session sink state.
struct SnkSession {
    reorder: ReorderBuffer<(u32, u32)>, // seq -> (slot, len)
    delivered: u64,
    total_blocks: Option<u32>,
    notify_imm: bool,
    /// Credits advertised to the source and not yet written into. Any
    /// still outstanding at teardown are revoked back to the free pool —
    /// otherwise every session would strand the source's leftover stock.
    granted_outstanding: Vec<u32>,
    /// Completion already counted in the stats (a resumed teardown can
    /// replay `DatasetComplete`; the count must not double).
    completed: bool,
}

/// The data-sink protocol engine.
pub struct SinkEngine {
    cfg: SinkConfig,
    ctrl_qp: QpId,
    data_threads: Vec<ThreadId>,
    consumer_thread: ThreadId,
    data_cqs: Vec<CqId>,

    pool_mr: MrId,
    pool: Option<AtomicSinkPool>,
    granter: Granter,
    ctrl_tx: Option<CtrlRing>,
    ctrl_rx: Option<RecvRing>,
    data_qps: Vec<QpId>,
    /// Zero-length buffers backing WriteImm receives.
    imm_rq_mr: MrId,
    /// Shared receive queue feeding all data channels in WriteImm mode,
    /// so pre-posting scales with the pool rather than channel count.
    imm_srq: Option<rftp_fabric::SrqId>,

    sessions: HashMap<u32, SnkSession>,
    active_session: u32,
    device: Option<DeviceId>,
    deliver_q: VecDeque<(u32, u32, u32, u32)>, // (session, seq, slot, len)
    consuming: bool,
    consuming_len: Option<u32>,
    /// Thread the self-repair timer fires on (set at `on_start`).
    timer_thread: ThreadId,
    /// A control-QP repair is already scheduled (debounces the burst of
    /// flushed completions one error produces).
    repair_pending: bool,
    token_tag: u8,

    pub stats: SinkStats,
    pub failure: Option<String>,
}

impl SinkEngine {
    pub fn new(
        cfg: SinkConfig,
        ctrl_qp: QpId,
        data_threads: Vec<ThreadId>,
        consumer_thread: ThreadId,
    ) -> SinkEngine {
        let timer_thread = consumer_thread;
        let granter = Granter::new(
            cfg.credit_mode,
            cfg.initial_credits,
            cfg.grant_per_completion,
            cfg.grant_per_request,
        );
        SinkEngine {
            cfg,
            ctrl_qp,
            data_threads,
            consumer_thread,
            data_cqs: Vec::new(),
            pool_mr: MrId(0),
            pool: None,
            granter,
            ctrl_tx: None,
            ctrl_rx: None,
            data_qps: Vec::new(),
            imm_rq_mr: MrId(0),
            imm_srq: None,
            sessions: HashMap::new(),
            active_session: 0,
            device: None,
            deliver_q: VecDeque::new(),
            consuming: false,
            consuming_len: None,
            timer_thread,
            repair_pending: false,
            token_tag: 0,
            stats: SinkStats::default(),
            failure: None,
        }
    }

    /// Assign a token namespace (for composite host applications).
    pub fn with_token_tag(mut self, tag: u8) -> SinkEngine {
        self.token_tag = tag;
        self
    }

    /// Does this engine own `qp`?
    pub fn owns_qp(&self, qp: QpId) -> bool {
        qp == self.ctrl_qp || self.data_qps.contains(&qp)
    }

    /// Wakeup tokens this engine understands (consumer and repair kinds
    /// + its tag).
    pub fn owns_token(&self, token: u64) -> bool {
        let kind = tok_kind(token);
        (kind == TOK_CONSUME || kind == TOK_REPAIR) && tok_tag(token) == self.token_tag
    }

    /// All sessions that were opened have fully delivered their datasets.
    pub fn all_sessions_complete(&self) -> bool {
        !self.sessions.is_empty()
            && self
                .sessions
                .values()
                .all(|s| s.total_blocks.is_some_and(|t| s.delivered == t as u64))
    }

    fn fail(&mut self, why: impl Into<String>) {
        self.failure = Some(why.into());
    }

    fn send_ctrl(&mut self, api: &mut Api, msg: CtrlMsg) {
        if self.cfg.record_trace && self.stats.trace.len() < 10_000 {
            self.stats
                .trace
                .push(format!("{} snk --> {msg:?}", api.now()));
        }
        let ring = self.ctrl_tx.as_mut().expect("ctrl ring not built");
        match ring.send(api, self.ctrl_qp, msg) {
            Ok(n) => self.stats.ctrl_msgs_sent += n,
            Err(e) => self.ctrl_broken(api, format!("ctrl send: {e:?}")),
        }
    }

    /// The control QP died (error completion or failed post). Schedule a
    /// debounced self-repair: reset the QP, clear the send ring (dropped
    /// messages — credit grants, resume replies — are re-driven by the
    /// source's timeouts), repost the receives. The data path is left to
    /// the source's session resume.
    fn ctrl_broken(&mut self, api: &mut Api, why: String) {
        if !self.cfg.recovery {
            self.fail(why);
            return;
        }
        self.stats.faults.qp_errors += 1;
        if self.repair_pending {
            return;
        }
        self.repair_pending = true;
        api.set_timer(
            self.timer_thread,
            SimDur::from_millis(1),
            tok_with_tag(TOK_REPAIR, self.token_tag, 0),
        );
    }

    fn do_repair(&mut self, api: &mut Api) {
        self.repair_pending = false;
        api.reset_qp(self.ctrl_qp);
        self.ctrl_tx.as_mut().expect("ring").reset();
        if let Err(e) = self
            .ctrl_rx
            .as_ref()
            .expect("ring")
            .repost_all(api, self.ctrl_qp)
        {
            self.fail(format!("repair recv repost: {e:?}"));
        }
    }

    /// Advertise up to `want` free blocks to the source. Returns how many
    /// credits actually went out (the pool may run dry first).
    fn grant_credits(&mut self, api: &mut Api, session: u32, want: u32) -> u32 {
        if want == 0 {
            return 0;
        }
        let rkey = api.mr(self.pool_mr).rkey().raw();
        let pool = self.pool.as_mut().expect("pool not built");
        let geo = pool.geometry();
        let mut batch: Vec<Credit> = Vec::with_capacity(want as usize);
        for _ in 0..want {
            let Some(slot) = pool.grant() else {
                break;
            };
            batch.push(Credit {
                slot,
                rkey,
                offset: geo.offset(slot),
                len: geo.slot_bytes() as u32,
            });
        }
        if batch.is_empty() {
            return 0;
        }
        if let Some(sess) = self.sessions.get_mut(&session) {
            sess.granted_outstanding
                .extend(batch.iter().map(|c| c.slot));
        }
        self.stats.credits_granted += batch.len() as u64;
        for chunk in batch.chunks(MAX_CREDITS_PER_MSG) {
            self.send_ctrl(
                api,
                CtrlMsg::Credits {
                    session,
                    credits: chunk.to_vec(),
                },
            );
        }
        batch.len() as u32
    }

    fn on_session_request(
        &mut self,
        api: &mut Api,
        session: u32,
        block_size: u64,
        channels: u16,
        total_bytes: u64,
        notify_imm: bool,
    ) {
        if self.sessions.contains_key(&session) {
            // The source re-sent a request whose accept was lost in
            // flight. Idempotent re-accept: answer again but never
            // re-grant — the credits from the first accept are either
            // live at the source or covered by the resume path.
            self.active_session = session;
            let qpns = self.data_qps.iter().map(|q| q.0).collect();
            self.send_ctrl(
                api,
                CtrlMsg::SessionAccept {
                    session,
                    block_size,
                    data_qpns: qpns,
                },
            );
            return;
        }
        if block_size > self.cfg.max_block_size {
            self.send_ctrl(
                api,
                CtrlMsg::SessionReject {
                    session,
                    reason: reject_reason::BLOCK_TOO_LARGE,
                },
            );
            return;
        }
        if channels > self.cfg.max_channels {
            self.send_ctrl(
                api,
                CtrlMsg::SessionReject {
                    session,
                    reason: reject_reason::TOO_MANY_CHANNELS,
                },
            );
            return;
        }
        // Build (or reuse) the registered pool. Geometry changes force a
        // re-registration; sequential same-size jobs reuse the region.
        let geo = PoolGeometry::new(block_size, self.cfg.pool_blocks);
        let rebuild = self
            .pool
            .as_ref()
            .map(|p| p.geometry().slot_bytes() != geo.slot_bytes())
            .unwrap_or(true);
        if rebuild {
            let backing = if self.cfg.real_data {
                Backing::zeroed(geo.total_bytes() as usize)
            } else {
                Backing::Virtual(geo.total_bytes())
            };
            self.pool_mr = api.register_mr(backing);
            self.pool = Some(AtomicSinkPool::new(geo));
        }
        // Provision data channels (first session; later sessions reuse).
        // In write-with-immediate mode every channel draws its receives
        // from one shared receive queue.
        if channels > 0 && self.data_qps.is_empty() {
            let srq = if notify_imm {
                let srq = api.create_srq();
                self.imm_srq = Some(srq);
                Some(srq)
            } else {
                None
            };
            for i in 0..channels {
                let cq = self.data_cqs[i as usize % self.data_cqs.len()];
                let opts = QpOptions {
                    srq,
                    ..QpOptions::default()
                };
                let qp = api.create_qp(opts, cq, cq);
                self.data_qps.push(qp);
            }
        }
        if notify_imm {
            // Pre-post zero-length receives (one per potential in-flight
            // block, pool-sized with headroom) to absorb the immediates.
            let srq = self.imm_srq.expect("imm mode without SRQ");
            let want = (self.cfg.pool_blocks * 2).max(64);
            for _ in 0..want {
                api.post_srq_recv(
                    srq,
                    RecvWr {
                        wr_id: 0,
                        local: MrSlice::new(self.imm_rq_mr, 0, 0),
                    },
                )
                .expect("imm srq post");
            }
        }
        self.sessions.insert(
            session,
            SnkSession {
                reorder: ReorderBuffer::new(),
                delivered: 0,
                total_blocks: None,
                notify_imm,
                granted_outstanding: Vec::new(),
                completed: false,
            },
        );
        self.active_session = session;
        let _ = total_bytes;
        let qpns = self.data_qps.iter().map(|q| q.0).collect();
        self.send_ctrl(
            api,
            CtrlMsg::SessionAccept {
                session,
                block_size,
                data_qpns: qpns,
            },
        );
        let initial = self.granter.on_accept();
        let free = self.pool.as_ref().expect("pool").free_count() as u32;
        self.grant_credits(api, session, initial.min(free));
    }

    /// A block landed (notification via control message or immediate).
    fn on_block_arrival(&mut self, api: &mut Api, session: u32, seq: u32, slot: u32, len: u32) {
        let pool = self.pool.as_mut().expect("pool");
        if let Err(e) = pool.ready(slot) {
            if self.cfg.recovery {
                // Duplicate notification for a slot already filled or
                // already recycled (a retransmission whose original
                // landed after all): count it and move on.
                self.stats.faults.duplicate_blocks += 1;
            } else {
                self.fail(format!("block arrival: {e}"));
            }
            return;
        }
        if self.cfg.real_data {
            self.verify_block(api, session, seq, slot, len);
        }
        let Some(sess) = self.sessions.get_mut(&session) else {
            self.fail(format!("block for unknown session {session}"));
            return;
        };
        if let Some(pos) = sess.granted_outstanding.iter().position(|&s| s == slot) {
            sess.granted_outstanding.swap_remove(pos);
        }
        let before_ooo = sess.reorder.ooo_arrivals;
        let (deliverable, ooo_delta, max_held) = match sess.reorder.offer(seq, (slot, len)) {
            Ok(d) => (
                d,
                sess.reorder.ooo_arrivals - before_ooo,
                sess.reorder.max_held,
            ),
            Err(_) => {
                // A resume re-sent a block that had already been placed
                // (delivered or parked out of order). Free the duplicate
                // copy's slot; the original stands.
                self.stats.faults.duplicate_blocks += 1;
                self.pool
                    .as_mut()
                    .expect("pool")
                    .put_free(slot)
                    .expect("FSM: free duplicate");
                let want = self.granter.on_completion();
                self.grant_credits(api, session, want);
                self.kick_consumer(api);
                return;
            }
        };
        self.stats.ooo_blocks += ooo_delta;
        self.stats.max_reorder_depth = self.stats.max_reorder_depth.max(max_held);
        for (s, (slot, len)) in deliverable {
            self.deliver_q.push_back((session, s, slot, len));
        }
        // Proactive feedback: up to two fresh credits ride every
        // completion notification ("exponential increase ... similar to
        // the slow start of TCP").
        let want = self.granter.on_completion();
        self.grant_credits(api, session, want);
        self.kick_consumer(api);
    }

    /// Validate the payload header of a received block and compare every
    /// payload byte against the regenerated pattern (real-data mode:
    /// end-to-end integrity check).
    fn verify_block(&mut self, api: &mut Api, session: u32, seq: u32, slot: u32, len: u32) {
        let geo = self.pool.as_ref().expect("pool").geometry();
        let base = geo.offset(slot);
        let mr = api.mr(self.pool_mr);
        let hdr = PayloadHeader::decode(mr.bytes(base, PAYLOAD_HEADER_LEN as u64))
            .expect("payload header decode");
        let payload = base + PAYLOAD_HEADER_LEN as u64;
        let ok = hdr.session == session
            && hdr.seq == seq
            && hdr.len == len
            && mr.matches_pattern(payload, len as u64, pattern_seed(session, seq));
        if !ok {
            self.stats.checksum_failures += 1;
        }
    }

    /// Deliver in-order blocks to the consumer, one at a time.
    fn kick_consumer(&mut self, api: &mut Api) {
        if self.consuming {
            return;
        }
        let Some((session, _seq, slot, len)) = self.deliver_q.pop_front() else {
            return;
        };
        self.consuming = true;
        self.consuming_len = Some(len);
        debug_assert!(session < (1 << 16), "session id overflows the token layout");
        let token = tok_with_tag(
            TOK_CONSUME,
            self.token_tag,
            ((session as u64) << 32) | slot as u64,
        );
        match self.cfg.consume {
            ConsumeMode::Null => {
                let cost = per_byte_cost(api.costs().sink_per_byte_ps, len as u64);
                api.work(self.consumer_thread, cost, token);
            }
            ConsumeMode::Disk { rate, direct_io } => {
                if self.device.is_none() {
                    self.device = Some(api.create_device(rate));
                }
                let dev = self.device.expect("device");
                // Direct I/O skips the kernel buffer copy but still pays
                // the write syscall; POSIX buffered writes additionally
                // pay the user→kernel copy per byte.
                let cpu_ps = if direct_io {
                    api.costs().disk_direct_per_byte_ps
                } else {
                    api.costs().disk_buffered_per_byte_ps
                };
                let cost = api.costs().syscall + per_byte_cost(cpu_ps, len as u64);
                api.charge_on(self.consumer_thread, cost);
                api.device_submit(dev, len as u64, self.consumer_thread, token);
            }
        }
    }

    fn on_consume_done(&mut self, api: &mut Api, session: u32, slot: u32) {
        let len = self
            .consuming_len
            .take()
            .expect("consume completion without active consume");
        let pool = self.pool.as_mut().expect("pool");
        pool.put_free(slot).expect("FSM: put_free");
        let Some(sess) = self.sessions.get_mut(&session) else {
            return;
        };
        sess.delivered += 1;
        self.stats.blocks_delivered += 1;
        self.stats.bytes_delivered += len as u64;
        self.consuming = false;
        // A starved MrRequest is answered as soon as a block frees up
        // ("the responder will be delayed until one becomes available").
        let owed = self.granter.on_block_freed();
        self.grant_credits(api, session, owed);
        self.check_session_done(api, session);
        self.kick_consumer(api);
    }

    fn check_session_done(&mut self, api: &mut Api, session: u32) {
        let Some(sess) = self.sessions.get_mut(&session) else {
            return;
        };
        if sess
            .total_blocks
            .is_some_and(|t| sess.delivered == t as u64)
            && !sess.completed
        {
            sess.completed = true;
            self.stats.sessions_completed += 1;
            self.stats.finished_at = api.now();
        }
    }

    /// The source lost its transport and asks to continue `session` from
    /// wherever we are. Reply with our highest contiguous sequence and
    /// restart the credit pipeline; blocks at or past the resume point
    /// that already landed will arrive again and be freed as duplicates.
    fn on_session_resume(&mut self, api: &mut Api, session: u32, next_seq: u32, nonce: u32) {
        let _ = next_seq; // the sink's own frontier is authoritative
        if !self.sessions.contains_key(&session) {
            self.send_ctrl(
                api,
                CtrlMsg::SessionReject {
                    session,
                    reason: reject_reason::BUSY,
                },
            );
            return;
        }
        self.stats.faults.reconnects += 1;
        // Quiesce the data path: bump every data QP's epoch so writes
        // from the failed incarnation cannot land in recycled slots.
        for i in 0..self.data_qps.len() {
            let qp = self.data_qps[i];
            api.reset_qp(qp);
        }
        self.active_session = session;
        let sess = self.sessions.get_mut(&session).expect("checked");
        let resume_from = sess.reorder.expected();
        // Outstanding grants died with the old transport: the source
        // dropped its stock, so revoke and re-advertise from scratch.
        let leftovers = std::mem::take(&mut sess.granted_outstanding);
        if let Some(pool) = self.pool.as_mut() {
            for slot in leftovers {
                pool.revoke(slot).expect("revoke granted block");
            }
        }
        self.send_ctrl(
            api,
            CtrlMsg::ResumeAccept {
                session,
                resume_from,
                nonce,
            },
        );
        let initial = self.granter.on_accept();
        let free = self.pool.as_ref().map(|p| p.free_count()).unwrap_or(0) as u32;
        let granted = self.grant_credits(api, session, initial.min(free));
        self.stats.faults.credits_regranted += granted as u64;
    }

    fn on_ctrl_msg(&mut self, api: &mut Api, msg: CtrlMsg) {
        self.stats.ctrl_msgs_received += 1;
        if self.cfg.record_trace && self.stats.trace.len() < 10_000 {
            self.stats
                .trace
                .push(format!("{} snk <-- {msg:?}", api.now()));
        }
        match msg {
            CtrlMsg::SessionRequest {
                session,
                block_size,
                channels,
                total_bytes,
                notify_imm,
            } => {
                self.on_session_request(api, session, block_size, channels, total_bytes, notify_imm)
            }
            CtrlMsg::ChannelsReady { .. } => {}
            CtrlMsg::BlockComplete {
                session,
                seq,
                slot,
                len,
            } => self.on_block_arrival(api, session, seq, slot, len),
            CtrlMsg::MrRequest { session } => {
                let free = self.pool.as_ref().map(|p| p.free_count()).unwrap_or(0);
                let n = self.granter.on_request(free);
                self.grant_credits(api, session, n);
            }
            CtrlMsg::DatasetComplete {
                session,
                total_blocks,
            } => {
                if let Some(sess) = self.sessions.get_mut(&session) {
                    sess.total_blocks = Some(total_blocks);
                    // Revoke credits the source never used: the session is
                    // over, so those advertisements are dead and their
                    // blocks must rejoin the free pool for the next job.
                    let leftovers = std::mem::take(&mut sess.granted_outstanding);
                    if let Some(pool) = self.pool.as_mut() {
                        for slot in leftovers {
                            pool.revoke(slot).expect("revoke granted block");
                        }
                    }
                }
                self.check_session_done(api, session);
            }
            CtrlMsg::SessionResume {
                session,
                next_seq,
                nonce,
            } => self.on_session_resume(api, session, next_seq, nonce),
            other => self.fail(format!("unexpected control message at sink: {other:?}")),
        }
    }
}

impl Application for SinkEngine {
    fn on_start(&mut self, api: &mut Api) {
        self.timer_thread = api.thread();
        self.ctrl_tx = Some(CtrlRing::create(api, self.cfg.ctrl_ring_slots));
        match RecvRing::create_and_post(api, self.ctrl_qp, self.cfg.ctrl_ring_slots) {
            Ok(ring) => self.ctrl_rx = Some(ring),
            Err(e) => {
                self.fail(format!("control recv post failed: {e:?}"));
                return;
            }
        }
        self.imm_rq_mr = api.register_mr(Backing::zeroed(64));
        for i in 0..self.cfg.data_cq_threads {
            let t = self.data_threads[i as usize % self.data_threads.len()];
            self.data_cqs.push(api.create_cq(t));
        }
    }

    fn on_cqe(&mut self, cqe: &Cqe, api: &mut Api) {
        if self.failure.is_some() {
            return;
        }
        if cqe.qp == self.ctrl_qp {
            match cqe.kind {
                CqeKind::Send => {
                    if !cqe.ok() {
                        if cqe.status == WcStatus::RnrRetryExceeded {
                            self.fail(format!("ctrl send failed: {:?}", cqe.status));
                        } else {
                            self.ctrl_broken(api, format!("ctrl send: {:?}", cqe.status));
                        }
                        return;
                    }
                    let ring = self.ctrl_tx.as_mut().expect("ring");
                    match ring.on_sent(api, self.ctrl_qp, cqe.wr_id as u32) {
                        Ok(n) => self.stats.ctrl_msgs_sent += n,
                        Err(e) => self.ctrl_broken(api, format!("ctrl drain: {e:?}")),
                    }
                }
                CqeKind::Recv => {
                    if !cqe.ok() {
                        self.ctrl_broken(api, format!("ctrl recv: {:?}", cqe.status));
                        return;
                    }
                    let ring = self.ctrl_rx.as_ref().expect("ring");
                    let (msg, reposted) = ring.take(api, self.ctrl_qp, cqe.wr_id as u32, cqe.bytes);
                    self.on_ctrl_msg(api, msg);
                    if let Err(e) = reposted {
                        self.ctrl_broken(api, format!("ctrl recv repost: {e:?}"));
                    }
                }
                other => self.fail(format!("unexpected ctrl completion {other:?}")),
            }
        } else {
            // Data-QP completion: only WriteImm mode produces successful
            // ones; error completions (a killed QP, flushed receives)
            // are absorbed here — the source's resume rebuilds the path.
            if !cqe.ok() {
                self.stats.faults.qp_errors += 1;
                return;
            }
            if cqe.kind != CqeKind::RecvRdmaWithImm {
                return;
            }
            let session = self.active_session;
            let Some(sess) = self.sessions.get(&session) else {
                self.fail("imm for unknown session");
                return;
            };
            debug_assert!(sess.notify_imm);
            let imm = cqe.imm.expect("imm completion without immediate");
            let (slot, seq) = unpack_imm(imm, sess.reorder.expected());
            let len = (cqe.bytes as u32).saturating_sub(PAYLOAD_HEADER_LEN as u32);
            // Replenish the consumed zero-length receive on the SRQ.
            api.post_srq_recv(
                self.imm_srq.expect("imm mode without SRQ"),
                RecvWr {
                    wr_id: 0,
                    local: MrSlice::new(self.imm_rq_mr, 0, 0),
                },
            )
            .expect("imm srq repost");
            self.on_block_arrival(api, session, seq, slot, len);
        }
    }

    fn on_wakeup(&mut self, token: u64, api: &mut Api) {
        if self.failure.is_some() {
            return;
        }
        match tok_kind(token) {
            TOK_CONSUME => {
                let payload = tok_payload(token);
                let session = (payload >> 32) as u32;
                let slot = payload as u32;
                self.on_consume_done(api, session, slot);
            }
            TOK_REPAIR => self.do_repair(api),
            other => panic!("sink: unknown wakeup token kind {other:#x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imm_packing_roundtrip() {
        for (slot, seq) in [(0u32, 0u32), (5, 1), (65535, 70000), (3, u32::MAX - 1)] {
            let imm = pack_imm(slot, seq);
            // Reconstruct with an expectation within 2^15 of the truth.
            let (s2, q2) = unpack_imm(imm, seq.saturating_sub(100));
            assert_eq!(s2, slot);
            assert_eq!(q2, seq);
            let (s3, q3) = unpack_imm(imm, seq);
            assert_eq!((s3, q3), (slot, seq));
        }
    }

    #[test]
    #[should_panic(expected = "2^16 sink slots")]
    fn imm_slot_overflow_panics() {
        pack_imm(1 << 16, 0);
    }

    #[test]
    fn token_encoding() {
        let t = TOK_LOAD | 42;
        assert_eq!(tok_kind(t), TOK_LOAD);
        assert_eq!(tok_payload(t), 42);
        let t = TOK_CONSUME | (7u64 << 32) | 9;
        assert_eq!(tok_kind(t), TOK_CONSUME);
        assert_eq!(tok_payload(t) >> 32, 7);
        assert_eq!(tok_payload(t) as u32, 9);
    }

    #[test]
    fn pattern_seed_is_stable_and_keyed() {
        use rftp_fabric::pattern::{fill_pattern, pattern_matches};
        let mut block = vec![0u8; 1024];
        fill_pattern(&mut block, pattern_seed(1, 2));
        assert!(pattern_matches(&block, pattern_seed(1, 2)));
        assert!(!pattern_matches(&block, pattern_seed(1, 3)));
        assert!(!pattern_matches(&block, pattern_seed(2, 2)));
    }
}
