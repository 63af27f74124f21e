//! The sink half: per-link receivers that land and check each block,
//! and a control pump, feeding one [`SinkSession`] that grants, frees
//! on arrival and acks. A receiver checks the bytes it lands as they
//! land ([`Landing`]), so the session never reads a payload byte: it
//! trusts the verdict each arrival carries. Each stage is a function;
//! [`SinkFront`] is all they share, whatever carries the bytes.

use super::{perr, run_stage, stage, Controller, Fail, Tally};
use crate::pipeline::{pattern_seed, LiveConfig, LiveReport, MAX_POOL_BLOCKS, SESSION, SINK_RKEY};
use crate::store::{BlockPool, FileSink, SlotBuf};
use crate::transport::{CtrlRx, CtrlTx, DataRx, Landing, SinkTransport, UringStats};
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use rftp_core::wire::{BlockAck, CtrlMsg, DataFrameHeader, PAYLOAD_HEADER_LEN};
use rftp_core::{AtomicSinkPool, Granter, PoolGeometry, WeightedFair};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Everything a sink session reacts to, on one channel.
pub(crate) enum SinkEvt {
    /// A data frame placed into its credited slot; `intact` is the
    /// receiver's verdict on its bytes ([`Landing::intact`]).
    Arrival {
        seq: u32,
        slot: u32,
        len: u32,
        intact: bool,
    },
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
/// driver → session), and how many events one drain takes.
pub(crate) const SINK_EVENTS: usize = 1024;
const SINK_EVENT_DRAIN: usize = 64;

/// The placement front: what every receiver of a session — the TCP/shm
/// reader threads and the uring driver's header-first links — decides
/// about a data frame, in one place. A
/// frame is *admitted* (valid for this session's geometry, and the first
/// arrival of its sequence) before any payload byte is read, checked
/// piece by piece as its bytes land ([`SinkFront::landing`]), and
/// *landed* once its wire image sits in the credited slot.
pub(crate) struct SinkFront {
    block_size: usize,
    pool_blocks: u32,
    total_bytes: u64,
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
            total_bytes: cfg.total_bytes,
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
    /// it into slot `hdr.slot`. A frame's length is its block's: a full
    /// block, or what is left at the tail — a shorter one would leave a
    /// hole in a file destination that every other check passes.
    pub(crate) fn admit(&self, hdr: &DataFrameHeader, tally: &mut Tally) -> io::Result<bool> {
        let offset = hdr.seq as u64 * self.block_size as u64;
        if hdr.session != SESSION
            || hdr.slot >= self.pool_blocks
            || hdr.seq as u64 >= self.total_blocks
            || hdr.len as u64 != (self.total_bytes - offset).min(self.block_size as u64)
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

    /// The check an admitted frame's bytes get as they land: the
    /// payload header, and against the pattern every payload byte —
    /// unless the payload goes to a file, which is not pattern data.
    pub(crate) fn landing(&self, hdr: &DataFrameHeader) -> Landing {
        let seed = matches!(self.backend, SnkBackend::Verify).then(|| pattern_seed(hdr.seq));
        Landing::new(hdr, seed)
    }

    /// The frame's wire image is in `slot`, checked by `land` as it
    /// landed: stop the place clock started at `t0` — the check's own
    /// time goes on the verify clock instead, so the two stay apart —
    /// write the payload behind to a file sink at its final offset
    /// (sparse placement *is* the reassembly), and name the arrival and
    /// its verdict for the session.
    pub(crate) fn landed(
        &self,
        hdr: &DataFrameHeader,
        slot: &[u8],
        land: &Landing,
        t0: Instant,
        tally: &mut Tally,
    ) -> io::Result<SinkEvt> {
        let check = land.check_ns();
        let ns = (t0.elapsed().as_nanos() as u64).saturating_sub(check);
        tally.tails.place.record(ns);
        tally.tails.verify.record(check);
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
            intact: land.intact(),
        })
    }
}

/// One sink session, whatever carries its bytes: the sink's protocol
/// brain — negotiation, credit grants, free on arrival, and the
/// coalesced sink→source control traffic (`AckBatch` for placements,
/// `CreditBatch` for grants, one flush window for both) — on one
/// thread. It owns the Fig. 6 slot FSM, the granter, the grant-loop
/// controller, the retired-sequence bitmap, the pending batches and the
/// session clock; only the placement front is shared, with the threads
/// that land the bytes. The two runners ([`run_sink_session`] and the
/// uring session in [`crate::uring`]) differ only in who feeds
/// [`SinkSession::run`] its events.
///
/// It never touches a slot's bytes: whoever landed a block checked it
/// ([`SinkFront::landing`]), and the arrival carries the verdict. So
/// the session holds no view of the slot buffers — wire slot `i` is
/// only a number to it, whether a standalone pool or a daemon's arena
/// lease backs it.
pub(crate) struct SinkSession<'a> {
    pub(super) cfg: &'a LiveConfig,
    /// `Arc` because the receivers and the shared uring driver place
    /// on other threads.
    pub(crate) front: Arc<SinkFront>,
    pub(super) snk_pool: AtomicSinkPool,
    granter: Granter,
    /// The grant-loop estimator (credit sent → data arrived), when this
    /// session runs adaptively. Drives the dwell window and the
    /// one-loop clamp on outstanding credits.
    pub(super) ctl: Option<Controller>,
    ctrl_tx: &'a dyn CtrlTx,
    fair: FairShare<'a>,
    /// When each outstanding slot's grant left, for the grant-loop RTT
    /// sample its arrival closes. Only maintained under `ctl`.
    grant_at: HashMap<u32, Instant>,
    /// Grant opportunities the depth clamp withheld; retried as blocks
    /// free (a clamped completion grant must not evaporate, or the
    /// credit loop leaks and the source starves into `MrRequest`s).
    deferred: u32,
    total_blocks: u64,
    /// One bit per sequence this session has retired and freed: the
    /// online exactly-once check.
    retired: AtomicBitmap,
    /// Lowest sequence not yet retired — every one below it is.
    low_water: u64,
    dc_seen: bool,
    /// Data links the session reads — one per channel on TCP and in
    /// process, the one notify stream on shm — and how many have
    /// reached end-of-stream.
    links: usize,
    eof_data: usize,
    pending_acks: Vec<BlockAck>,
    pending_credits: Vec<u32>,
    pub(crate) delivered: u64,
    /// Control frames, checksum failures and arrivals ahead of
    /// `low_water`.
    pub(crate) tally: Tally,
    start: Instant,
}

impl<'a> SinkSession<'a> {
    /// Open the session over `links` data links, answering on `ctrl_tx`
    /// and granting under `fair`; the clock starts here. A pool past
    /// [`MAX_POOL_BLOCKS`] is refused: it could grant more credits than
    /// the source's ring holds. (A hello census that disagrees with the
    /// request never gets here: `net::geometry_reject` refuses it at
    /// admission.)
    pub(crate) fn open(
        cfg: &'a LiveConfig,
        links: usize,
        ctrl_tx: &'a dyn CtrlTx,
        fair: FairShare<'a>,
    ) -> io::Result<Self> {
        assert!(cfg.channels >= 1 && cfg.total_bytes > 0 && links >= 1);
        if cfg.pool_blocks > MAX_POOL_BLOCKS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{} slots (max {MAX_POOL_BLOCKS})", cfg.pool_blocks),
            ));
        }
        Ok(SinkSession {
            cfg,
            front: Arc::new(SinkFront::open(cfg)?),
            snk_pool: AtomicSinkPool::new(PoolGeometry::new(
                cfg.block_size as u64,
                cfg.pool_blocks,
            )),
            granter: Granter::new(
                rftp_core::CreditMode::Proactive,
                cfg.initial_credits,
                cfg.grant_per_completion,
                4,
            ),
            ctl: cfg.adaptive.then(|| Controller::new(cfg)),
            ctrl_tx,
            fair,
            grant_at: HashMap::new(),
            deferred: 0,
            total_blocks: cfg.total_blocks(),
            retired: AtomicBitmap::new(cfg.total_blocks()),
            low_water: 0,
            dc_seen: false,
            links,
            eof_data: 0,
            pending_acks: Vec::with_capacity(cfg.ack_batch()),
            pending_credits: Vec::with_capacity(cfg.pool_blocks as usize),
            delivered: 0,
            tally: Tally::default(),
            start: Instant::now(),
        })
    }

    /// Drive the session to completion: replay `first_ctrl` (a frame the
    /// listener already read to size the session), then take the events
    /// the receivers or the ring driver send, at most
    /// `SINK_EVENT_DRAIN` at a time, until `DatasetComplete` and the
    /// last block. The flush rule is PROTOCOL `[P7-coalesce]`: a
    /// partial batch dwells up to the flush window for more events, and
    /// leaves before the next unbounded wait, so coalescing never costs
    /// latency. Each wait gets the full window, so the dwell extends
    /// while events keep arriving (adaptive batching under load) and
    /// ends after one quiet window.
    pub(crate) fn run(
        &mut self,
        first_ctrl: Option<CtrlMsg>,
        events: &Receiver<SinkEvt>,
    ) -> io::Result<()> {
        if let Some(msg) = first_ctrl {
            self.handle(SinkEvt::Ctrl(msg))?;
        }
        let mut batch = Vec::with_capacity(SINK_EVENT_DRAIN);
        while !self.done() {
            if events.recv_batch(&mut batch, SINK_EVENT_DRAIN).is_err() {
                self.flush()?;
                return Err(perr("event pipeline stopped before transfer completed"));
            }
            loop {
                for ev in batch.drain(..) {
                    self.handle(ev)?;
                }
                let pending = !(self.pending_acks.is_empty() && self.pending_credits.is_empty());
                if self.done() || !pending {
                    break;
                }
                // Re-read before every wait: an adaptive session rescales
                // it as its RTT estimate converges.
                let window = self.cfg.flush_window;
                let window = self.ctl.as_ref().map_or(window, |c| c.dwell(window));
                if events
                    .recv_batch_timeout(&mut batch, SINK_EVENT_DRAIN, window)
                    .is_err()
                {
                    break;
                }
            }
            self.flush()?;
        }
        Ok(())
    }

    /// `DatasetComplete` has come and every block has landed.
    pub(super) fn done(&self) -> bool {
        self.dc_seen && self.delivered == self.total_blocks
    }

    /// Send the pending acks, then the pending grants.
    pub(super) fn flush(&mut self) -> io::Result<()> {
        self.flush_acks()?;
        self.flush_credits()
    }

    /// Make a file sink's data durable — called once the session is
    /// done and before the links go down, so the source's end-of-stream
    /// means the dataset is on disk.
    pub(crate) fn sync(&self, t: &mut Tally) -> io::Result<()> {
        if let SnkBackend::File(sink) = &self.front.backend {
            let t0 = Instant::now();
            sink.sync()?;
            t.sync_ns = t0.elapsed().as_nanos() as u64;
        }
        Ok(())
    }

    /// Close a session that ran to done and whose data is durable
    /// ([`SinkSession::sync`]): the exactly-once and FSM invariants,
    /// and the sink half's report — the session's tally merged into
    /// the receivers' `tally`.
    pub(crate) fn finish(
        self,
        mut tally: Tally,
        transport_threads: usize,
        uring: Option<UringStats>,
    ) -> io::Result<LiveReport> {
        tally.merge(&self.tally);
        let elapsed = self.start.elapsed();
        assert_eq!(
            self.delivered, self.total_blocks,
            "blocks lost in the pipeline"
        );
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

    /// Pop up to `want` free slots into the pending grant batch. Under
    /// a daemon the arbiter clamps `want` to this session's fair share
    /// first; slots the pool could not actually supply are returned to
    /// the shared budget immediately. An adaptive session additionally
    /// clamps to the controller's depth target — withheld grants are
    /// deferred, not dropped, and retried as blocks free.
    fn accumulate(&mut self, want: u32) {
        let want = match self.ctl.as_ref().and_then(Controller::depth) {
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

    /// Free one placed block, whatever its place in the sequence:
    /// neither consumer needs the order (module doc), so the slot goes
    /// `DataReady → Free` with no hold in between. Its bytes were
    /// checked as they landed; a block that failed the check (`!intact`)
    /// counts as a checksum failure. Retiring a sequence twice is a
    /// protocol error — the receivers' claim bitmap admits each sequence
    /// once, so a second retirement means a transport handed over a
    /// frame it should have discarded.
    fn retire(&mut self, seq: u32, slot: u32, intact: bool) -> io::Result<()> {
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
            if let Some(c) = &self.ctl {
                // First-block latency: the credit-ramp figure. Proactive
                // grants should land this inside 2·RTT of session start.
                c.mark_first_block();
            }
        }
        if !intact {
            self.tally.checksum_failures += 1;
        }
        self.snk_pool
            .put_free(slot)
            .map_err(|e| perr(format!("FSM put_free: {e:?}")))?;
        if let Some((fair, id)) = self.fair {
            fair.release(id, 1); // the credit this block rode came home
        }
        let owed = self.granter.on_block_freed();
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

    /// Take one event; a full ack or grant batch leaves at once.
    pub(super) fn handle(&mut self, ev: SinkEvt) -> io::Result<()> {
        match ev {
            SinkEvt::Arrival {
                seq,
                slot,
                len,
                intact,
            } => {
                if let Some(c) = &self.ctl {
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
                self.retire(seq, slot, intact)?;
                let want = self.granter.on_completion();
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
                        let want = self.granter.on_accept();
                        self.accumulate(want);
                        self.flush_credits()
                    }
                    CtrlMsg::MrRequest { session } if session == SESSION => {
                        let free = self.snk_pool.free_count();
                        let want = self.granter.on_request(free);
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
                if self.eof_data == self.links && self.delivered < self.total_blocks {
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
/// the transport read *is* the placement), check each piece as it
/// lands, free each block once it has landed, ack placed blocks back to the source, and finish once
/// `DatasetComplete` has come and the last block has landed — the last
/// ack leaves at once, then the half closes its links itself.
///
/// `cfg` must agree with the source on `block_size`, `channels`, and
/// `total_bytes` (the session checks the `SessionRequest` against it);
/// pool size, destination file, and I/O mode are this side's own.
/// `first_ctrl` is a frame already read off the control link during
/// session setup (the TCP listener consumes the `SessionRequest` to
/// build `cfg`), replayed to the session before live traffic.
///
/// Without a `dst_file` the sink compares every block with the pattern
/// generator — pair a file *source* with a file *sink*, or every block
/// counts as a checksum failure.
pub fn run_split_sink(
    cfg: &LiveConfig,
    t: SinkTransport,
    first_ctrl: Option<CtrlMsg>,
) -> io::Result<LiveReport> {
    run_sink_pool(cfg, t, first_ctrl, None)
}

/// [`run_sink_session`] over slots the session owns: the window the
/// transport opens ([`CtrlTx::open_window`]) — before any credit leaves
/// — or else a pool of its own.
pub(crate) fn run_sink_pool(
    cfg: &LiveConfig,
    t: SinkTransport,
    first_ctrl: Option<CtrlMsg>,
    fair: FairShare<'_>,
) -> io::Result<LiveReport> {
    let slots = (t.ctrl_tx.open_window(cfg.pool_blocks, cfg.block_size)?)
        .unwrap_or_else(|| BlockPool::new(cfg.pool_blocks, cfg.block_size));
    let view: Vec<&Mutex<SlotBuf>> = slots.iter().collect();
    run_sink_session(cfg, t, first_ctrl, &view, fair)
}

/// The reusable per-session sink runner the daemon schedules: exactly
/// [`run_split_sink`], but the slot buffers are borrowed (a lease from
/// the daemon's shared arena — or [`run_sink_pool`]'s slots) and grants
/// can run under a [`WeightedFair`] arbiter. `bufs[i]` backs
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
    let SinkTransport {
        ctrl_tx,
        mut ctrl_rx,
        data,
        abort,
    } = t;
    let links = data.len();
    let mut sess = SinkSession::open(cfg, links, ctrl_tx.as_ref(), fair)?;
    let front = Arc::clone(&sess.front);
    let fail = Fail::new(abort);
    let (evt_tx, evt_rx) = bounded::<SinkEvt>(SINK_EVENTS);

    let tally = std::thread::scope(|s| {
        let (front, fail) = (&*front, &fail);
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
        // The session runs on the scope's own thread.
        run_stage(fail, |_| sess.run(first_ctrl.take(), &evt_rx));
        // Done, the last acks written: the data goes durable, then the
        // links go down. The control stream's FIN rides behind the last
        // ack, and the receivers and the pump read end-of-stream now
        // rather than when the source hangs up. A late duplicate still
        // on a link is not read; the source expects that once it has
        // sent `DatasetComplete`.
        let mut tally = Tally::default();
        if !fail.is_set() {
            tally = run_stage(fail, |t| sess.sync(t));
            if !fail.is_set() {
                fail.close();
            }
        }
        // Release any receiver blocked handing over an event, then join.
        drop(evt_rx);
        for r in receivers.into_iter().chain([ctrl]) {
            tally.merge(&r.join().unwrap_or_default());
        }
        tally
    });

    if let Some(e) = fail.into_err() {
        return Err(e);
    }
    // One receiver per data link plus the control pump — on TCP the
    // O(channels) thread zoo the ring backend collapses.
    sess.finish(tally, links + 1, None)
}

/// Control pump: frames off the control link into the event queue, until
/// end-of-stream (normal once `DatasetComplete` has passed, or once the
/// half has closed its links) or a link error.
fn pump(ctrl_rx: &mut dyn CtrlRx, events: &Sender<SinkEvt>) -> io::Result<()> {
    while let Some(msg) = ctrl_rx.recv()? {
        if events.send(SinkEvt::Ctrl(msg)).is_err() {
            return Ok(()); // session bailed; fail is set
        }
    }
    let _ = events.send(SinkEvt::CtrlEof);
    Ok(())
}

/// Receiver, one per data link — the "NIC". Each admitted frame's wire
/// image is read straight into the slot its header names — the credited,
/// pre-registered buffer — and checked piece by piece on this thread as
/// it lands; a duplicate is discarded unread.
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
        let mut land = front.landing(&hdr);
        let t0 = Instant::now();
        let mut dst = snk_bufs[hdr.slot as usize].lock();
        rx.recv_wire_checked(&mut dst[..hdr.wire_len()], &mut land)?;
        let ev = front.landed(&hdr, &dst, &land, t0, t)?;
        drop(dst);
        if events.send(ev).is_err() {
            return Ok(()); // session bailed; fail is set
        }
    }
    let _ = events.send(SinkEvt::DataEof);
    Ok(())
}

/// Where placed payload goes.
pub(crate) enum SnkBackend {
    /// Pattern data: the receiver that lands each block compares every
    /// payload byte with the pattern as it lands, and nothing is kept.
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
/// per check). The sink session keeps a second one for the sequences it
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

    // spec: [P7-exactly-once-placement]
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
