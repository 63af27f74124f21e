//! The sink half: per-channel receivers and a control pump feeding one
//! handler that grants, verifies and frees on arrival, and acks. Each
//! stage is a function; [`SinkSession`] is the state they share, whatever
//! carries the bytes.

use super::{perr, run_stage, stage, Controller, Fail, Tally};
use crate::coalesce::{drain_coalesced, CoalescedSink, DrainEnd};
use crate::pipeline::{pattern_seed, LiveConfig, LiveReport, MAX_POOL_BLOCKS, SESSION, SINK_RKEY};
use crate::store::{BlockPool, FileSink, SlotBuf};
use crate::transport::{CtrlRx, CtrlTx, DataRx, SinkTransport, UringStats};
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use rftp_core::pattern::pattern_matches;
use rftp_core::wire::{BlockAck, CtrlMsg, DataFrameHeader, PayloadHeader, PAYLOAD_HEADER_LEN};
use rftp_core::{AtomicSinkPool, Granter, PoolGeometry, WeightedFair};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

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

/// Depth of a session's event queue (receivers, control pump or ring
/// driver → handler), and how many events one handler drain takes.
pub(crate) const SINK_EVENTS: usize = 1024;
const SINK_EVENT_DRAIN: usize = 64;

/// The placement front: what every receiver of a session — the TCP/shm
/// reader threads and the uring driver's header-first links — decides
/// about a data frame, in one place. A
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
    pub(crate) fn admit(&self, hdr: &DataFrameHeader, tally: &mut Tally) -> io::Result<bool> {
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
        tally: &mut Tally,
    ) -> io::Result<SinkEvt> {
        let ns = t0.elapsed().as_nanos() as u64;
        tally.place_ns += ns;
        tally.tails.place.record(ns);
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
/// controller and the session clock. The two runners
/// ([`run_sink_session`] and the uring session in [`crate::uring`])
/// differ only in who feeds [`SinkHandler::run`] its events.
pub(crate) struct SinkSession<'a> {
    cfg: &'a LiveConfig,
    /// `Arc` because the shared uring driver places on another thread
    /// that this session does not scope.
    pub(crate) front: Arc<SinkFront>,
    pub(super) snk_pool: AtomicSinkPool,
    granter: Mutex<Granter>,
    ctl: Option<Controller>,
    start: Instant,
}

impl<'a> SinkSession<'a> {
    /// Open the session over `slots` borrowed slot buffers; the clock
    /// starts here. A pool past [`MAX_POOL_BLOCKS`] is refused: it could
    /// grant more credits than the source's ring holds.
    pub(crate) fn open(cfg: &'a LiveConfig, slots: usize) -> io::Result<SinkSession<'a>> {
        assert!(cfg.channels >= 1 && cfg.total_bytes > 0);
        assert_eq!(slots, cfg.pool_blocks as usize, "one buffer per pool block");
        if cfg.pool_blocks > MAX_POOL_BLOCKS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("a {slots}-slot sink pool is over the {MAX_POOL_BLOCKS}-slot maximum"),
            ));
        }
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
        let cfg = self.cfg;
        SinkHandler {
            cfg,
            ctrl_tx,
            snk_pool: &self.snk_pool,
            granter: &self.granter,
            snk_bufs,
            fair,
            ctl: self.ctl.as_ref(),
            grant_at: HashMap::new(),
            deferred: 0,
            verify_payload: cfg.dst_file.is_none(),
            total_blocks: cfg.total_blocks(),
            retired: AtomicBitmap::new(cfg.total_blocks()),
            low_water: 0,
            dc_seen: false,
            eof_data: 0,
            pending_acks: Vec::with_capacity(cfg.ack_batch()),
            pending_credits: Vec::with_capacity(cfg.pool_blocks as usize),
            delivered: 0,
            tally: Tally::default(),
        }
    }

    /// Close a session whose handler ran to `Done`: dataset-completion
    /// durability inside the timing window, the exactly-once and FSM
    /// invariants, and the sink half's report — the handler's tally
    /// merged into the receivers' `tally`.
    pub(crate) fn finish(
        &self,
        h: SinkHandler<'_>,
        mut tally: Tally,
        transport_threads: usize,
        uring: Option<UringStats>,
    ) -> io::Result<LiveReport> {
        tally.merge(&h.tally);
        if let SnkBackend::File(sink) = &self.front.backend {
            let t0 = Instant::now();
            sink.sync()?;
            tally.sync_ns = t0.elapsed().as_nanos() as u64;
        }
        let elapsed = self.start.elapsed();
        assert_eq!(h.delivered, h.total_blocks, "blocks lost in the pipeline");
        self.snk_pool.check_invariants();
        Ok(LiveReport::from_tally(
            self.cfg,
            elapsed,
            tally,
            transport_threads,
            self.front.backend.direct_active(),
            uring,
            self.ctl.as_ref().map(Controller::snapshot),
        ))
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
    pub(super) cfg: &'a LiveConfig,
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
    dc_seen: bool,
    eof_data: usize,
    pending_acks: Vec<BlockAck>,
    pending_credits: Vec<u32>,
    pub(crate) delivered: u64,
    /// Control frames, checksum failures, arrivals ahead of `low_water`,
    /// and the verify clock.
    pub(crate) tally: Tally,
}

impl SinkHandler<'_> {
    /// Drive the session to completion: replay `first_ctrl` (a frame the
    /// listener already read to size the session), then coalesce over
    /// the events the receivers or the ring driver send, until
    /// `DatasetComplete` and the last block.
    pub(crate) fn run(
        &mut self,
        first_ctrl: Option<CtrlMsg>,
        events: &Receiver<SinkEvt>,
    ) -> io::Result<()> {
        if let Some(msg) = first_ctrl {
            self.handle(SinkEvt::Ctrl(msg))?;
        }
        match drain_coalesced(self, events, SINK_EVENT_DRAIN)? {
            DrainEnd::Done => Ok(()),
            DrainEnd::Closed => Err(perr("event pipeline stopped before transfer completed")),
        }
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
            self.tally.ctrl += 1;
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

    /// Acks leave as one form, `AckBatch` — of one at `ctrl_batch = 1`.
    /// The batch's buffer comes back after the send, so a flush allocates
    /// nothing.
    fn flush_acks(&mut self) -> io::Result<()> {
        if self.pending_acks.is_empty() {
            return Ok(());
        }
        self.tally.ctrl += 1;
        let acks = std::mem::take(&mut self.pending_acks);
        let msg = CtrlMsg::AckBatch {
            session: SESSION,
            acks,
        };
        let sent = self.ctrl_tx.send(&msg);
        if let CtrlMsg::AckBatch { mut acks, .. } = msg {
            acks.clear();
            self.pending_acks = acks;
        }
        sent
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
            self.tally.ooo += 1;
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
                    || pattern_matches(
                        &buf[PAYLOAD_HEADER_LEN..PAYLOAD_HEADER_LEN + len as usize],
                        pattern_seed(seq),
                    ));
            if !ok {
                self.tally.checksum_failures += 1;
            }
        }
        let ns = t0.elapsed().as_nanos() as u64;
        self.tally.verify_ns += ns;
        self.tally.tails.verify.record(ns);
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
        !(self.pending_acks.is_empty() && self.pending_credits.is_empty())
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
                self.tally.ctrl += 1;
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
                        self.tally.ctrl += 1;
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
/// Without a `dst_file` the sink compares every block with the pattern
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
    mut first_ctrl: Option<CtrlMsg>,
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
    let (evt_tx, evt_rx) = bounded::<SinkEvt>(SINK_EVENTS);
    let mut h = sess.handler(ctrl_tx.as_ref(), snk_bufs, fair);

    let tally = std::thread::scope(|s| {
        let (front, fail) = (&*sess.front, &fail);
        let ctrl = {
            let evt_tx = evt_tx.clone();
            stage(s, fail, move |_| pump(&mut *ctrl_rx, &evt_tx))
        };
        let receivers: Vec<_> = data
            .into_iter()
            .map(|mut rx| {
                let evt_tx = evt_tx.clone();
                stage(s, fail, move |t| {
                    receive(&mut *rx, front, snk_bufs, &evt_tx, t)
                })
            })
            .collect();
        drop(evt_tx);
        // The handler runs on the scope's own thread.
        run_stage(fail, |_| h.run(first_ctrl.take(), &evt_rx));
        // Release any receiver blocked handing over an event, then join.
        drop(evt_rx);
        let mut tally = Tally::default();
        for r in receivers.into_iter().chain([ctrl]) {
            tally.merge(&r.join().expect("sink stage panicked"));
        }
        tally
    });

    if let Some(e) = fail.into_err() {
        return Err(e);
    }
    // Per-channel receivers plus the control pump — the O(channels)
    // thread zoo the ring backend collapses.
    sess.finish(h, tally, cfg.channels + 1, None)
}

/// Control pump: frames off the control link into the event queue, until
/// end-of-stream (normal once `DatasetComplete` has passed) or a link
/// error.
fn pump(ctrl_rx: &mut dyn CtrlRx, events: &Sender<SinkEvt>) -> io::Result<()> {
    while let Some(msg) = ctrl_rx.recv()? {
        if events.send(SinkEvt::Ctrl(msg)).is_err() {
            return Ok(()); // handler bailed; fail is set
        }
    }
    let _ = events.send(SinkEvt::CtrlEof);
    Ok(())
}

/// Receiver, one per data link — the "NIC". Each admitted frame's wire
/// image is read straight into the slot its header names — the credited,
/// pre-registered buffer — and a duplicate is discarded unread.
fn receive(
    rx: &mut dyn DataRx,
    front: &SinkFront,
    snk_bufs: &[&Mutex<SlotBuf>],
    events: &Sender<SinkEvt>,
    t: &mut Tally,
) -> io::Result<()> {
    while let Some(hdr) = rx.recv_header()? {
        if !front.admit(&hdr, t)? {
            rx.discard_wire(hdr.wire_len())?;
            continue;
        }
        let t0 = Instant::now();
        let mut dst = snk_bufs[hdr.slot as usize].lock();
        rx.recv_wire(&mut dst[..hdr.wire_len()])?;
        let ev = front.landed(&hdr, &dst, t0, t)?;
        drop(dst);
        if events.send(ev).is_err() {
            return Ok(()); // handler bailed; fail is set
        }
    }
    let _ = events.send(SinkEvt::DataEof);
    Ok(())
}

/// Where placed payload goes.
pub(crate) enum SnkBackend {
    /// Checksum-verify the pattern and discard.
    Verify,
    /// Write-behind `pwrite` into a real file at `seq * block_size`.
    File(FileSink),
}

impl SnkBackend {
    pub(crate) fn open(cfg: &LiveConfig) -> std::io::Result<SnkBackend> {
        match &cfg.dst_file {
            Some(path) => Ok(SnkBackend::File(FileSink::create(
                path,
                cfg.total_bytes,
                cfg.direct_io,
            )?)),
            None => Ok(SnkBackend::Verify),
        }
    }

    pub(crate) fn direct_active(&self) -> bool {
        matches!(self, SnkBackend::File(f) if f.direct_active())
    }
}

/// First-placement ledger, one bit per sequence: receivers claim a
/// sequence before placing, so a retransmit that raced a slow ack is
/// discarded instead of overwriting a slot the sink has since freed and
/// re-granted. One bit per block of the whole transfer (the table this
/// replaced spent a mutex per block — 1 byte + state and a pointer-chase
/// per check). The sink handler keeps a second one for the sequences it
/// has retired.
pub(crate) struct AtomicBitmap {
    words: Vec<AtomicU64>,
}

impl AtomicBitmap {
    pub(crate) fn new(bits: u64) -> AtomicBitmap {
        AtomicBitmap {
            words: (0..bits.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Atomically claim bit `i`; true if this caller newly set it.
    pub(crate) fn claim(&self, i: u64) -> bool {
        let mask = 1u64 << (i % 64);
        self.words[(i / 64) as usize].fetch_or(mask, Ordering::AcqRel) & mask == 0
    }

    pub(crate) fn is_set(&self, i: u64) -> bool {
        self.words[(i / 64) as usize].load(Ordering::Acquire) >> (i % 64) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_bitmap_claims_each_bit_once() {
        let bm = AtomicBitmap::new(130);
        assert!(bm.claim(0));
        assert!(!bm.claim(0));
        assert!(bm.claim(64));
        assert!(bm.claim(129));
        assert!(!bm.claim(64));
        assert!(!bm.claim(129));
        assert!(bm.claim(63));
    }
}
