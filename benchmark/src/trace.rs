//! Outside-in tracing of the transport seam.
//!
//! The split pipeline talks to its transport only through four trait
//! objects ([`CtrlTx`], [`CtrlRx`], [`DataTx`], [`DataRx`]) held in
//! [`SourceTransport`] / [`SinkTransport`]. The decorators here wrap
//! those objects, time every call, and forward it **unchanged** to the
//! inner object — including `send_block` and `kick`, whose defaults
//! would otherwise bypass the io_uring and shm zero-copy paths and
//! measure a different program. `register`, `shutdown_write`, `abort`
//! and `transport_threads` are moved across as they are.
//!
//! Both ends of a transfer run in one process here, so source and sink
//! events share one clock ([`mono_ns`]) and a block's events share the
//! identifier `(session, seq)`. Events go into per-decorator buffers
//! (each decorator is driven by one pipeline thread, so the buffer lock
//! is never contended), preallocated from the expected block count, and
//! are merged only after the transfer: [`SeamAcc`] turns them into the
//! per-layer metrics and [`write_spans`] into span lines.

use crate::stats;
use crate::sys::mono_ns;
use parking_lot::Mutex;
use rftp_core::wire::{CtrlMsg, DataFrameHeader};
use rftp_live::store::SlotBuf;
use rftp_live::transport::{CtrlRx, CtrlTx, DataRx, DataTx, SinkTransport, SourceTransport};
use std::io::{self, Write};
use std::sync::Arc;

/// What one recorded event is. Interval events carry `t0..t1`; arrival
/// events carry the same instant in both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// Source `DataTx::send` / `send_block`: `seq`, `aux` = sink slot.
    SrcSend,
    /// Source `DataTx::kick`.
    SrcKick,
    /// Source `CtrlTx::send`: `seq` = frame class, `aux` = entries.
    SrcCtrlTx,
    /// Source `CtrlRx::recv` returned a frame: `seq` = frame class,
    /// `aux` = entries, `t0` = call, `t1` = return.
    SrcCtrlRx,
    /// One ack entry reached the source: `seq` = block.
    SrcAck,
    /// One credit reached the source: `aux` = slot.
    SrcGrant,
    /// Sink `DataRx::recv_header`: `t0` = call, `t1` = return.
    SnkHdr,
    /// Sink `DataRx::recv_wire` (the placement read).
    SnkWire,
    /// Sink `DataRx::discard_wire` (duplicate arrival).
    SnkDiscard,
    /// Sink `CtrlTx::send`: `seq` = frame class, `aux` = entries.
    SnkCtrlTx,
    /// One ack entry left the sink: `seq` = block, `t0` = send start.
    SnkAckOut,
    /// Sink `CtrlRx::recv` returned a frame.
    SnkCtrlRx,
    /// Set by the workload around a client session: just before the
    /// connect call, and just after the source half returned.
    SessionBegin,
    SessionEnd,
}

/// Frame classes, stored in `Ev::seq` of control events.
pub mod class {
    pub const OTHER: u32 = 0;
    pub const REQUEST: u32 = 1;
    pub const ACCEPT: u32 = 2;
    pub const CREDITS: u32 = 3;
    pub const MR_REQUEST: u32 = 4;
    pub const ACKS: u32 = 5;
    pub const DATASET_COMPLETE: u32 = 6;
}

#[derive(Debug, Clone, Copy)]
pub struct Ev {
    pub kind: Kind,
    pub ch: u8,
    pub seq: u32,
    pub aux: u32,
    pub t0: u64,
    pub t1: u64,
}

type Lane = Arc<Mutex<Vec<Ev>>>;

/// The event store of one traced session.
pub struct Recorder {
    lanes: Mutex<Vec<Lane>>,
    per_lane: usize,
    marks: Lane,
}

impl Recorder {
    /// `expected_blocks` sizes the per-decorator buffers up front so
    /// recording does not allocate while the transfer runs.
    pub fn new(expected_blocks: u64) -> Arc<Recorder> {
        Arc::new(Recorder {
            lanes: Mutex::new(Vec::new()),
            // An ack lane takes one arrival per block plus one frame
            // event per batch; a data lane at most one send per block.
            per_lane: (expected_blocks as usize)
                .saturating_mul(2)
                .clamp(64, 1 << 22),
            marks: Arc::new(Mutex::new(Vec::with_capacity(2))),
        })
    }

    fn lane(&self) -> Lane {
        let lane = Arc::new(Mutex::new(Vec::with_capacity(self.per_lane)));
        self.lanes.lock().push(Arc::clone(&lane));
        lane
    }

    pub fn mark(&self, kind: Kind) {
        let now = mono_ns();
        self.marks.lock().push(Ev {
            kind,
            ch: 0,
            seq: 0,
            aux: 0,
            t0: now,
            t1: now,
        });
    }

    /// Wrap every seam object of the source half.
    pub fn wrap_source(&self, t: SourceTransport) -> SourceTransport {
        let inner = Arc::clone(&t.data);
        let data: Vec<Box<dyn DataTx>> = (0..inner.len())
            .map(|ch| {
                Box::new(TraceDataTx {
                    inner: Arc::clone(&inner),
                    ch,
                    lane: self.lane(),
                }) as Box<dyn DataTx>
            })
            .collect();
        SourceTransport {
            ctrl_tx: Arc::new(TraceCtrlTx {
                inner: t.ctrl_tx,
                lane: self.lane(),
                sink_side: false,
            }),
            ctrl_rx: Box::new(TraceCtrlRx {
                inner: t.ctrl_rx,
                lane: self.lane(),
                sink_side: false,
            }),
            data: Arc::new(data),
            register: t.register,
            transport_threads: t.transport_threads,
            shutdown_write: t.shutdown_write,
            abort: t.abort,
        }
    }

    /// Wrap every seam object of the sink half.
    pub fn wrap_sink(&self, t: SinkTransport) -> SinkTransport {
        let data = t
            .data
            .into_iter()
            .enumerate()
            .map(|(ch, inner)| {
                Box::new(TraceDataRx {
                    inner,
                    ch: ch as u8,
                    lane: self.lane(),
                    last: None,
                }) as Box<dyn DataRx>
            })
            .collect();
        SinkTransport {
            ctrl_tx: Arc::new(TraceCtrlTx {
                inner: t.ctrl_tx,
                lane: self.lane(),
                sink_side: true,
            }),
            ctrl_rx: Box::new(TraceCtrlRx {
                inner: t.ctrl_rx,
                lane: self.lane(),
                sink_side: true,
            }),
            data,
            abort: t.abort,
        }
    }

    /// Every event recorded so far, ordered by the instant it took
    /// effect (see [`Ev::at`]). Call after both halves have returned.
    pub fn events(&self) -> Vec<Ev> {
        let mut all: Vec<Ev> = self.marks.lock().clone();
        for lane in self.lanes.lock().iter() {
            all.extend_from_slice(&lane.lock());
        }
        all.sort_by_key(Ev::at);
        all
    }
}

impl Ev {
    /// When the event changes protocol state: a send when it starts, a
    /// receive when it returns.
    pub fn at(&self) -> u64 {
        match self.kind {
            Kind::SrcSend | Kind::SrcKick | Kind::SrcCtrlTx | Kind::SnkCtrlTx | Kind::SnkAckOut => {
                self.t0
            }
            _ => self.t1,
        }
    }
}

/// Frame class and entry count of a control message.
fn classify(msg: &CtrlMsg) -> (u32, u32) {
    match msg {
        CtrlMsg::SessionRequest { .. } => (class::REQUEST, 0),
        CtrlMsg::SessionAccept { .. } => (class::ACCEPT, 0),
        CtrlMsg::Credits { credits, .. } => (class::CREDITS, credits.len() as u32),
        CtrlMsg::CreditBatch { slots, .. } => (class::CREDITS, slots.len() as u32),
        CtrlMsg::MrRequest { .. } => (class::MR_REQUEST, 0),
        CtrlMsg::BlockComplete { .. } => (class::ACKS, 1),
        CtrlMsg::AckBatch { acks, .. } => (class::ACKS, acks.len() as u32),
        CtrlMsg::DatasetComplete { .. } => (class::DATASET_COMPLETE, 0),
        _ => (class::OTHER, 0),
    }
}

/// Push one per-entry event for each ack and each credit in `msg`.
fn push_entries(out: &mut Vec<Ev>, msg: &CtrlMsg, ack: Kind, grant: Option<Kind>, at: u64) {
    let mut push = |kind, seq, aux| {
        out.push(Ev {
            kind,
            ch: 0,
            seq,
            aux,
            t0: at,
            t1: at,
        })
    };
    match msg {
        CtrlMsg::BlockComplete { seq, slot, .. } => push(ack, *seq, *slot),
        CtrlMsg::AckBatch { acks, .. } => acks.iter().for_each(|a| push(ack, a.seq, a.slot)),
        CtrlMsg::Credits { credits, .. } => {
            if let Some(g) = grant {
                credits.iter().for_each(|c| push(g, 0, c.slot));
            }
        }
        CtrlMsg::CreditBatch { slots, .. } => {
            if let Some(g) = grant {
                slots.iter().for_each(|&s| push(g, 0, s));
            }
        }
        _ => {}
    }
}

struct TraceCtrlTx {
    inner: Arc<dyn CtrlTx>,
    lane: Lane,
    sink_side: bool,
}

impl CtrlTx for TraceCtrlTx {
    fn send(&self, msg: &CtrlMsg) -> io::Result<()> {
        let t0 = mono_ns();
        let out = self.inner.send(msg);
        let t1 = mono_ns();
        let (seq, aux) = classify(msg);
        let mut lane = self.lane.lock();
        lane.push(Ev {
            kind: if self.sink_side {
                Kind::SnkCtrlTx
            } else {
                Kind::SrcCtrlTx
            },
            ch: 0,
            seq,
            aux,
            t0,
            t1,
        });
        if self.sink_side {
            push_entries(&mut lane, msg, Kind::SnkAckOut, None, t0);
        }
        out
    }
}

struct TraceCtrlRx {
    inner: Box<dyn CtrlRx>,
    lane: Lane,
    sink_side: bool,
}

impl CtrlRx for TraceCtrlRx {
    fn recv(&mut self) -> io::Result<Option<CtrlMsg>> {
        let t0 = mono_ns();
        let out = self.inner.recv();
        let t1 = mono_ns();
        if let Ok(Some(msg)) = &out {
            let (seq, aux) = classify(msg);
            let mut lane = self.lane.lock();
            lane.push(Ev {
                kind: if self.sink_side {
                    Kind::SnkCtrlRx
                } else {
                    Kind::SrcCtrlRx
                },
                ch: 0,
                seq,
                aux,
                t0,
                t1,
            });
            if !self.sink_side {
                push_entries(&mut lane, msg, Kind::SrcAck, Some(Kind::SrcGrant), t1);
            }
        }
        out
    }
}

/// Forwards to `inner[ch]` rather than owning the link: the transport's
/// own closures may share the `Arc`, so it cannot be taken apart.
struct TraceDataTx {
    inner: Arc<Vec<Box<dyn DataTx>>>,
    ch: usize,
    lane: Lane,
}

impl TraceDataTx {
    fn timed(
        &self,
        kind: Kind,
        hdr: Option<DataFrameHeader>,
        op: impl FnOnce() -> io::Result<()>,
    ) -> io::Result<()> {
        let t0 = mono_ns();
        let out = op();
        let t1 = mono_ns();
        self.lane.lock().push(Ev {
            kind,
            ch: self.ch as u8,
            seq: hdr.map_or(0, |h| h.seq),
            aux: hdr.map_or(0, |h| h.slot),
            t0,
            t1,
        });
        out
    }
}

impl DataTx for TraceDataTx {
    fn send(&self, hdr: DataFrameHeader, wire: &[u8]) -> io::Result<()> {
        self.timed(Kind::SrcSend, Some(hdr), || {
            self.inner[self.ch].send(hdr, wire)
        })
    }

    fn send_block(
        &self,
        hdr: DataFrameHeader,
        bufs: &[Mutex<SlotBuf>],
        block: u32,
    ) -> io::Result<()> {
        self.timed(Kind::SrcSend, Some(hdr), || {
            self.inner[self.ch].send_block(hdr, bufs, block)
        })
    }

    fn kick(&self) -> io::Result<()> {
        self.timed(Kind::SrcKick, None, || self.inner[self.ch].kick())
    }
}

struct TraceDataRx {
    inner: Box<dyn DataRx>,
    ch: u8,
    lane: Lane,
    /// Header of the frame whose wire image is still to be consumed.
    last: Option<DataFrameHeader>,
}

impl TraceDataRx {
    fn push(&self, kind: Kind, t0: u64) {
        let hdr = self.last;
        self.lane.lock().push(Ev {
            kind,
            ch: self.ch,
            seq: hdr.map_or(0, |h| h.seq),
            aux: hdr.map_or(0, |h| h.slot),
            t0,
            t1: mono_ns(),
        });
    }
}

impl DataRx for TraceDataRx {
    fn recv_header(&mut self) -> io::Result<Option<DataFrameHeader>> {
        let t0 = mono_ns();
        let out = self.inner.recv_header();
        if let Ok(Some(hdr)) = &out {
            self.last = Some(*hdr);
            self.push(Kind::SnkHdr, t0);
        }
        out
    }

    fn recv_wire(&mut self, buf: &mut [u8]) -> io::Result<()> {
        let t0 = mono_ns();
        let out = self.inner.recv_wire(buf);
        self.push(Kind::SnkWire, t0);
        out
    }

    fn discard_wire(&mut self, wire_len: usize) -> io::Result<()> {
        let t0 = mono_ns();
        let out = self.inner.discard_wire(wire_len);
        self.push(Kind::SnkDiscard, t0);
        out
    }
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

/// What the seam saw of one block.
#[derive(Clone, Copy, Default)]
struct Block {
    sends: u32,
    send_t0: u64,
    send_t1: u64,
    hdr_t1: u64,
    wire_t0: u64,
    wire_t1: u64,
    ack_out: u64,
    ack_in: u64,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Samples and counts pooled over the traced sessions of one
/// repetition; [`SeamAcc::finish`] reduces them to the per-layer metrics
/// sourced from the seam (S).
#[derive(Default)]
pub struct SeamAcc {
    tx: Vec<f64>,
    flight: Vec<f64>,
    rx_place: Vec<f64>,
    sink_hold: Vec<f64>,
    ack_flight: Vec<f64>,
    ack_rtt: Vec<f64>,
    idle: Vec<f64>,
    turnaround: Vec<f64>,
    ctrl_tx: Vec<f64>,
    inflight: Vec<f64>,
    ramp_ms: Vec<f64>,
    first_block_ms: Vec<f64>,
    connect_ms: Vec<f64>,
    transfer_ms: Vec<f64>,
    teardown_ms: Vec<f64>,
    kick_ns: u64,
    send_ns: u64,
    rx_wait_ns: u64,
    rx_lane_ns: u64,
    residual_ns: f64,
    clean_rtt_ns: f64,
    blocks: u64,
    data_frames: u64,
    rx_frames: u64,
    rx_discards: u64,
    ctrl_s2k: u64,
    ctrl_k2s: u64,
    acks: u64,
    ack_frames: u64,
    grants: u64,
    grant_frames: u64,
    pub spans: u64,
}

impl SeamAcc {
    /// Fold in one session's events (as [`Recorder::events`] returns
    /// them). `wire_image` is the bytes of one full block on the wire.
    pub fn add_session(&mut self, events: &[Ev]) {
        let n_blocks = events
            .iter()
            .filter(|e| matches!(e.kind, Kind::SrcSend | Kind::SnkHdr | Kind::SrcAck))
            .map(|e| e.seq as usize + 1)
            .max()
            .unwrap_or(0);
        let mut blocks = vec![Block::default(); n_blocks];
        let n_slots = events
            .iter()
            .filter(|e| matches!(e.kind, Kind::SrcSend | Kind::SrcGrant))
            .map(|e| e.aux as usize + 1)
            .max()
            .unwrap_or(0);
        // Per sink slot: when its credit reached the source and was not
        // yet used, and when a block was last sent into it.
        let mut granted_at: Vec<Option<u64>> = vec![None; n_slots];
        let mut sent_at: Vec<Option<u64>> = vec![None; n_slots];
        let mut inflight = 0i64;
        let mut inflight_curve: Vec<(u64, i64)> = Vec::new();
        let (mut begin, mut end) = (None, None);
        let (mut request_at, mut accept_at, mut dc_at) = (None, None, None);
        let (mut sink_first, mut sink_last) = (u64::MAX, 0u64);
        let mut rx_lanes = 0u8;

        for e in events {
            match e.kind {
                Kind::SrcSend => {
                    self.data_frames += 1;
                    self.send_ns += e.t1 - e.t0;
                    let b = &mut blocks[e.seq as usize];
                    b.sends += 1;
                    if b.sends == 1 {
                        (b.send_t0, b.send_t1) = (e.t0, e.t1);
                        inflight += 1;
                        inflight_curve.push((e.t0, inflight));
                        self.inflight.push(inflight as f64);
                        let slot = e.aux as usize;
                        if let Some(g) = granted_at[slot].take() {
                            self.idle.push(e.t0.saturating_sub(g) as f64);
                        }
                        sent_at[slot] = Some(e.t0);
                    }
                }
                Kind::SrcKick => self.kick_ns += e.t1 - e.t0,
                Kind::SrcCtrlTx => {
                    self.ctrl_s2k += 1;
                    self.ctrl_tx.push((e.t1 - e.t0) as f64);
                    match e.seq {
                        class::REQUEST => request_at = request_at.or(Some(e.t0)),
                        class::DATASET_COMPLETE => dc_at = Some(e.t0),
                        _ => {}
                    }
                }
                Kind::SrcCtrlRx => {
                    self.ctrl_k2s += 1;
                    match e.seq {
                        class::ACCEPT => accept_at = accept_at.or(Some(e.t1)),
                        class::ACKS => self.ack_frames += 1,
                        class::CREDITS => self.grant_frames += 1,
                        _ => {}
                    }
                }
                Kind::SrcAck => {
                    self.acks += 1;
                    let b = &mut blocks[e.seq as usize];
                    if b.ack_in == 0 {
                        b.ack_in = e.t1;
                        inflight -= 1;
                        inflight_curve.push((e.t1, inflight));
                    }
                }
                Kind::SrcGrant => {
                    self.grants += 1;
                    let slot = e.aux as usize;
                    if let Some(s) = sent_at[slot].take() {
                        self.turnaround.push(e.t1.saturating_sub(s) as f64);
                    }
                    granted_at[slot] = Some(e.t1);
                }
                Kind::SnkHdr => {
                    self.rx_frames += 1;
                    self.rx_wait_ns += e.t1 - e.t0;
                    rx_lanes = rx_lanes.max(e.ch + 1);
                    blocks[e.seq as usize].hdr_t1 = e.t1;
                }
                Kind::SnkWire => {
                    let b = &mut blocks[e.seq as usize];
                    (b.wire_t0, b.wire_t1) = (e.t0, e.t1);
                    self.rx_place.push((e.t1 - e.t0) as f64);
                }
                Kind::SnkDiscard => self.rx_discards += 1,
                Kind::SnkCtrlTx => self.ctrl_tx.push((e.t1 - e.t0) as f64),
                Kind::SnkAckOut => {
                    let b = &mut blocks[e.seq as usize];
                    if b.ack_out == 0 {
                        b.ack_out = e.t0;
                    }
                }
                Kind::SnkCtrlRx => {}
                Kind::SessionBegin => begin = Some(e.t0),
                Kind::SessionEnd => end = Some(e.t1),
            }
            if matches!(
                e.kind,
                Kind::SnkHdr | Kind::SnkWire | Kind::SnkDiscard | Kind::SnkCtrlTx | Kind::SnkCtrlRx
            ) {
                sink_first = sink_first.min(e.t0);
                sink_last = sink_last.max(e.t1);
            }
        }
        self.spans += events.len() as u64 + n_blocks as u64;
        self.blocks += n_blocks as u64;
        if sink_last > sink_first {
            self.rx_lane_ns += rx_lanes as u64 * (sink_last - sink_first);
        }

        for b in &blocks {
            if b.sends == 0 || b.ack_in == 0 {
                continue;
            }
            self.tx.push((b.send_t1 - b.send_t0) as f64);
            // Karn's rule, as the program applies it: a block that went
            // out more than once cannot attribute its ack to an attempt.
            if b.sends > 1 {
                continue;
            }
            let rtt = (b.ack_in - b.send_t0) as f64;
            self.ack_rtt.push(rtt);
            if b.wire_t1 == 0 || b.ack_out == 0 {
                continue; // this sink's data path is not behind the seam
            }
            let tx = (b.send_t1 - b.send_t0) as f64;
            let flight = b.hdr_t1 as f64 - b.send_t1 as f64;
            let place = (b.wire_t1 - b.wire_t0) as f64;
            let hold = b.ack_out as f64 - b.wire_t1 as f64;
            let ack_flight = b.ack_in as f64 - b.ack_out as f64;
            self.flight.push(flight);
            self.sink_hold.push(hold);
            self.ack_flight.push(ack_flight);
            self.residual_ns += (rtt - tx - flight - place - hold - ack_flight).abs();
            self.clean_rtt_ns += rtt;
        }

        // Ramp: session start until the in-flight window first reaches
        // nine tenths of the deepest it ever got.
        let peak = inflight_curve.iter().map(|&(_, n)| n).max().unwrap_or(0);
        let start = begin.or(request_at);
        if let (Some(start), true) = (start, peak > 0) {
            let want = (peak * 9 + 9) / 10;
            if let Some(&(t, _)) = inflight_curve.iter().find(|&&(_, n)| n >= want) {
                self.ramp_ms.push(t.saturating_sub(start) as f64 / 1e6);
            }
        }
        // First block as the sink's seam sees it: its first call into
        // the transport until the placement read of block 0 returned.
        if let Some(b0) = blocks.first().filter(|b| b.wire_t1 != 0) {
            self.first_block_ms
                .push(b0.wire_t1.saturating_sub(sink_first) as f64 / 1e6);
        }
        if let (Some(b), Some(a), Some(d), Some(e)) = (begin, accept_at, dc_at, end) {
            self.connect_ms.push(a.saturating_sub(b) as f64 / 1e6);
            self.transfer_ms.push(d.saturating_sub(a) as f64 / 1e6);
            self.teardown_ms.push(e.saturating_sub(d) as f64 / 1e6);
        }
    }

    /// The seam-sourced per-layer metrics every split transport has. A
    /// series the traced sessions never produced (no sink behind the
    /// seam, no retransmit, …) reads 0.
    pub fn finish(&self) -> Vec<(&'static str, f64)> {
        let p = |v: &[f64], q: f64| stats::percentile(v, q).unwrap_or(0.0);
        let blocks = self.blocks as f64;
        vec![
            ("split.inflight_blocks_p50", p(&self.inflight, 50.0)),
            ("transport.tx_ns_p50", p(&self.tx, 50.0)),
            ("transport.tx_ns_p99", p(&self.tx, 99.0)),
            (
                "transport.kick_ns_per_block",
                ratio(self.kick_ns as f64, blocks),
            ),
            ("transport.flight_ns_p50", p(&self.flight, 50.0)),
            ("transport.flight_ns_p99", p(&self.flight, 99.0)),
            (
                "transport.rx_wait_share",
                ratio(self.rx_wait_ns as f64, self.rx_lane_ns as f64),
            ),
            ("transport.rx_place_ns_p50", p(&self.rx_place, 50.0)),
            ("transport.rx_place_ns_p99", p(&self.rx_place, 99.0)),
            ("transport.rx_discards", self.rx_discards as f64),
            ("transport.data_frames", self.data_frames as f64),
            ("transport.ctrl_frames_s2k", self.ctrl_s2k as f64),
            ("transport.ctrl_frames_k2s", self.ctrl_k2s as f64),
            ("transport.ctrl_tx_ns_p50", p(&self.ctrl_tx, 50.0)),
            ("credit.ack_rtt_ns_p50", p(&self.ack_rtt, 50.0)),
            ("credit.ack_rtt_ns_p99", p(&self.ack_rtt, 99.0)),
            ("credit.sink_hold_ns_p50", p(&self.sink_hold, 50.0)),
            ("credit.sink_hold_ns_p99", p(&self.sink_hold, 99.0)),
            ("credit.ack_flight_ns_p50", p(&self.ack_flight, 50.0)),
            ("credit.idle_ns_p50", p(&self.idle, 50.0)),
            ("credit.idle_ns_p99", p(&self.idle, 99.0)),
            ("credit.turnaround_ns_p50", p(&self.turnaround, 50.0)),
            (
                "credit.grants_per_ack",
                ratio(self.grants as f64, self.acks as f64),
            ),
            (
                "credit.acks_per_frame",
                ratio(self.acks as f64, self.ack_frames as f64),
            ),
            (
                "credit.grants_per_frame",
                ratio(self.grants as f64, self.grant_frames as f64),
            ),
            ("credit.ramp_to_depth_ms", p(&self.ramp_ms, 50.0)),
            ("credit.ack_rtt_residual_share", self.residual_share()),
            ("trace.first_block_seam_ms", p(&self.first_block_ms, 50.0)),
            ("trace.spans", self.spans as f64),
        ]
    }

    /// Share of the clean blocks' ack round trips that the seam's spans
    /// (tx, flight, rx_place, sink_hold, ack_flight) do not account for.
    pub fn residual_share(&self) -> f64 {
        ratio(self.residual_ns, self.clean_rtt_ns)
    }

    /// Where a client session's time goes, as medians over the sessions
    /// folded in: connect call → `SessionAccept`, → `DatasetComplete`
    /// sent, → source half returned. The daemon's layer.
    pub fn session_phases(&self) -> [(&'static str, f64); 3] {
        let p50 = |v: &[f64]| stats::median(v).unwrap_or(0.0);
        [
            ("daemon.connect_to_accept_ms_p50", p50(&self.connect_ms)),
            ("daemon.transfer_ms_p50", p50(&self.transfer_ms)),
            ("daemon.teardown_ms_p50", p50(&self.teardown_ms)),
        ]
    }

    /// `wire_bytes` over the time spent inside `DataTx::send_block`: the
    /// source's copy rate into the window on shm (elsewhere that time is
    /// a socket write, not a copy).
    pub fn tx_copy_gbytes_per_s(&self, wire_bytes: u64) -> f64 {
        ratio(wire_bytes as f64, self.send_ns as f64)
    }

    /// Frames the source sent that never reached the sink's seam: what
    /// an impairment shim between the two dropped.
    pub fn frames_lost(&self) -> u64 {
        self.data_frames.saturating_sub(self.rx_frames)
    }

    #[cfg(test)]
    pub fn data_frames(&self) -> u64 {
        self.data_frames
    }

    pub fn ctrl_frames(&self) -> (u64, u64) {
        (self.ctrl_s2k, self.ctrl_k2s)
    }

    #[cfg(test)]
    pub fn rx_discards(&self) -> u64 {
        self.rx_discards
    }
}

/// Write one session's events as span lines, at most `cap` of them: per
/// acknowledged block a parent span `block` (first send start → ack at
/// the source) and under it one child per seam call on that block; calls
/// that belong to no block (control frames, kicks) have no parent.
/// Returns how many lines were written.
pub fn write_spans(
    out: &mut impl Write,
    session: u64,
    events: &[Ev],
    cap: usize,
) -> io::Result<usize> {
    use crate::json::Json;
    let mut written = 0usize;
    let mut line =
        |name: &str, id: String, parent: Json, t0: u64, t1: u64, ch: u8| -> io::Result<bool> {
            if written >= cap {
                return Ok(false);
            }
            written += 1;
            let span = Json::obj([
                ("name", Json::str(name)),
                ("id", Json::Str(id)),
                ("parent", parent),
                ("start_ns", Json::Int(t0 as i64)),
                ("end_ns", Json::Int(t1 as i64)),
                ("lane", Json::Int(ch as i64)),
            ]);
            writeln!(out, "{span}").map(|()| true)
        };
    let mut first_send: std::collections::HashMap<u32, u64> = Default::default();
    for e in events {
        let block_id = format!("{session}:{}", e.seq);
        let (name, parent) = match e.kind {
            Kind::SrcSend => {
                first_send.entry(e.seq).or_insert(e.t0);
                ("tx", Json::Str(block_id.clone()))
            }
            Kind::SnkHdr => ("rx_wait", Json::Str(block_id.clone())),
            Kind::SnkWire => ("rx_place", Json::Str(block_id.clone())),
            Kind::SnkDiscard => ("rx_discard", Json::Str(block_id.clone())),
            Kind::SnkAckOut => ("ack_out", Json::Str(block_id.clone())),
            Kind::SrcAck => {
                if let Some(t0) = first_send.remove(&e.seq) {
                    if !line("block", block_id.clone(), Json::Null, t0, e.t1, e.ch)? {
                        break;
                    }
                }
                ("ack_in", Json::Str(block_id.clone()))
            }
            Kind::SrcGrant => ("grant_in", Json::Null),
            Kind::SrcKick => ("kick", Json::Null),
            Kind::SrcCtrlTx => ("ctrl_tx_s2k", Json::Null),
            Kind::SnkCtrlTx => ("ctrl_tx_k2s", Json::Null),
            Kind::SrcCtrlRx => ("ctrl_rx_k2s", Json::Null),
            Kind::SnkCtrlRx => ("ctrl_rx_s2k", Json::Null),
            Kind::SessionBegin => ("session_begin", Json::Null),
            Kind::SessionEnd => ("session_end", Json::Null),
        };
        let id = format!("{block_id}/{name}@{}", e.t0);
        if !line(name, id, parent, e.t0, e.t1, e.ch)? {
            break;
        }
    }
    Ok(written)
}

/// At most this many span lines are kept per child; the metrics are
/// computed from every event, the file is a sample for reading.
const SPAN_LINES_PER_CHILD: usize = 50_000;

/// The span lines a child will write to its trace file at exit.
#[derive(Default)]
pub struct SpanLog {
    text: Vec<u8>,
    lines: usize,
}

impl SpanLog {
    pub fn keep(&mut self, session: u64, events: &[Ev]) {
        let cap = SPAN_LINES_PER_CHILD - self.lines;
        self.lines += write_spans(&mut self.text, session, events, cap)
            .expect("writing to a Vec cannot fail");
    }

    pub fn take(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: Kind, seq: u32, aux: u32, t0: u64, t1: u64) -> Ev {
        Ev {
            kind,
            ch: 0,
            seq,
            aux,
            t0,
            t1,
        }
    }

    /// One block, every seam call in order; the decomposition must add
    /// up except for the gap between header return and placement start.
    #[test]
    fn decomposition_telescopes() {
        let events = vec![
            ev(Kind::SessionBegin, 0, 0, 0, 0),
            ev(Kind::SrcCtrlTx, class::REQUEST, 0, 5, 6),
            ev(Kind::SrcCtrlRx, class::ACCEPT, 0, 7, 20),
            ev(Kind::SrcCtrlRx, class::CREDITS, 1, 21, 30),
            ev(Kind::SrcGrant, 0, 3, 30, 30),
            ev(Kind::SrcSend, 0, 3, 100, 150),
            ev(Kind::SnkHdr, 0, 3, 90, 160),
            ev(Kind::SnkWire, 0, 3, 170, 300),
            ev(Kind::SnkCtrlTx, class::ACKS, 1, 350, 355),
            ev(Kind::SnkAckOut, 0, 3, 350, 350),
            ev(Kind::SrcCtrlRx, class::ACKS, 1, 31, 400),
            ev(Kind::SrcAck, 0, 3, 400, 400),
            ev(Kind::SrcCtrlTx, class::DATASET_COMPLETE, 0, 410, 411),
            ev(Kind::SessionEnd, 0, 0, 500, 500),
        ];
        let mut acc = SeamAcc::default();
        acc.add_session(&events);
        let m: std::collections::HashMap<_, _> = acc
            .finish()
            .into_iter()
            .chain(acc.session_phases())
            .collect();
        assert_eq!(m["credit.ack_rtt_ns_p50"], 300.0);
        assert_eq!(m["transport.tx_ns_p50"], 50.0);
        assert_eq!(m["transport.flight_ns_p50"], 10.0);
        assert_eq!(m["transport.rx_place_ns_p50"], 130.0);
        assert_eq!(m["credit.sink_hold_ns_p50"], 50.0);
        assert_eq!(m["credit.ack_flight_ns_p50"], 50.0);
        // 300 - 50 - 10 - 130 - 50 - 50 = 10: header return → read start.
        assert!((m["credit.ack_rtt_residual_share"] - 10.0 / 300.0).abs() < 1e-12);
        assert_eq!(m["credit.idle_ns_p50"], 70.0);
        assert_eq!(m["credit.grants_per_ack"], 1.0);
        assert_eq!(m["transport.data_frames"], 1.0);
        assert_eq!(m["daemon.connect_to_accept_ms_p50"], 20.0 / 1e6);
        assert_eq!(m["daemon.teardown_ms_p50"], 90.0 / 1e6);
        assert_eq!(acc.frames_lost(), 0);
    }

    #[test]
    fn retransmitted_blocks_stay_out_of_the_rtt_sample() {
        let events = vec![
            ev(Kind::SrcSend, 0, 1, 10, 20),
            ev(Kind::SrcSend, 0, 1, 500, 510),
            ev(Kind::SnkHdr, 0, 1, 0, 520),
            ev(Kind::SrcAck, 0, 1, 600, 600),
        ];
        let mut acc = SeamAcc::default();
        acc.add_session(&events);
        let m: std::collections::HashMap<_, _> = acc.finish().into_iter().collect();
        assert_eq!(m["transport.data_frames"], 2.0);
        assert_eq!(m["credit.ack_rtt_ns_p50"], 0.0);
        assert_eq!(acc.frames_lost(), 1);
    }

    #[test]
    fn span_lines_are_capped_and_parented() {
        let events = vec![
            ev(Kind::SrcSend, 4, 1, 10, 20),
            ev(Kind::SrcAck, 4, 1, 90, 90),
        ];
        let mut out = Vec::new();
        assert_eq!(write_spans(&mut out, 7, &events, 10).unwrap(), 3);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"name\": \"block\", \"id\": \"7:4\", \"parent\": null, \"start_ns\": 10, \"end_ns\": 90"));
        assert!(text.contains("\"name\": \"tx\""));
        assert!(text.contains("\"parent\": \"7:4\""));
        let mut out = Vec::new();
        assert_eq!(write_spans(&mut out, 7, &events, 1).unwrap(), 1);
    }
}
