//! The sink's single data-path driver: per-session link state machines
//! ([`Sess`]), the multishot parser, the header-first fallback, and
//! [`MultiDriver`] in its pump and daemon harnesses.

use super::ring::{PbufRing, Ring, PBUF_BGID, RING_ENTRIES};
use super::source::UD_NOP;
use super::sys::*;
use crate::net::shutdown_all;
use crate::split::{perr, SinkEvt, SinkFront, Tally};
use crate::store::SlotBuf;
use crate::transport::UringStats;
use parking_lot::Mutex;
use rftp_core::wire::{DataFrameHeader, DATA_FRAME_HEADER_LEN};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fallback: cap on a session's concurrently-armed payload reads, so
/// each socket→slot copy stays cache-adjacent to its verify instead
/// of a burst of sibling copies evicting the block first.
const PLACE_CAP: u32 = 1;

/// Where one data link's framing state machine stands. Two modes:
///
/// * `Fx*` — the armed-read fallback (kernels where
///   `multishot_probe` fails): header-first, the 16-byte
///   [`DataFrameHeader`] is read and routed *before* the payload
///   read is committed, into either the credited slot's registered
///   buffer (`READ_FIXED` — the CQE is the placement) or a scratch
///   buffer (duplicate arrival).
/// * `Ms*` — multishot receive: one armed `RECV|MULTISHOT` per
///   socket, the kernel picks a provided buffer per completion, and
///   the driver parses the wire stream out of the buffers — headers
///   accumulate in the link's stash, payload bytes are copied into
///   the credited slot. Copy-routing costs a memcpy per block; the
///   CQE/syscall batching multishot buys is the trade.
#[derive(Clone, Copy)]
enum RxState {
    /// Both modes: `got` bytes of the next frame header are in the
    /// link's `hdr_buf`.
    Header {
        got: usize,
    },
    FxPlace {
        hdr: DataFrameHeader,
        base: u64,
        got: usize,
        t0: Instant,
    },
    FxDiscard {
        wire_len: usize,
        got: usize,
    },
    MsBody {
        hdr: DataFrameHeader,
        got: usize,
        t0: Instant,
    },
    MsDiscard {
        remaining: usize,
    },
    Eof,
}

struct Link {
    fd: i32,
    state: RxState,
    /// Boxed so its address is stable while a kernel read targets
    /// it (fallback header reads; the multishot parser uses it as
    /// its partial-header stash).
    hdr_buf: Box<[u8; DATA_FRAME_HEADER_LEN]>,
    scratch: Vec<u8>,
    /// Multishot only: the receive terminated on `ENOBUFS` and the
    /// link is parked until a provided buffer is recycled.
    parked: bool,
}

struct CtrlLink {
    fd: i32,
    buf: Box<[u8; 4096]>,
    dec: rftp_core::wire::FrameDecoder,
    eof: bool,
}

/// What one session's driver half hands back to its handler thread
/// at detach: the placement tally the driver accumulated on the
/// session's behalf, any driver-side error, and a snapshot of the
/// shared ring's counters.
pub(super) struct SessionStats {
    pub(super) tally: Tally,
    pub(super) err: Option<io::Error>,
    pub(super) ring: UringStats,
}

/// A daemon session's way home from the shared driver: the mailbox
/// its events are forwarded through, and where the detach handshake
/// delivers [`SessionStats`].
type Mailbox = (
    crossbeam::channel::Sender<SinkEvt>,
    std::sync::mpsc::SyncSender<SessionStats>,
);

/// One admitted session as the driver sees it: the placement front,
/// link state machines, the slot mapping, and the handler-side
/// plumbing.
pub(super) struct Sess {
    front: Arc<SinkFront>,
    /// Wire slot index → fixed-buffer index in the driver's
    /// registered table. Identity for a standalone sink (the pool
    /// *is* the table); an arena lease for daemon sessions — the
    /// stable global slot indices are what let one
    /// `register_buffers` call at daemon startup cover every future
    /// lease.
    lease: Vec<u32>,
    links: Vec<Link>,
    ctrl: CtrlLink,
    /// Driver-owned socket clones (control first), shut down to cut
    /// the session loose on a driver-side failure or detach.
    socks: Vec<TcpStream>,
    /// Events parsed this loop, not yet handed to the handler.
    emit: Vec<SinkEvt>,
    /// Daemon mode: the session thread's mailbox. `None` in pump
    /// mode (the session thread *is* the driver thread) — and after
    /// a failure, which is how the handler learns the source died.
    mailbox: Option<crossbeam::channel::Sender<SinkEvt>>,
    /// Daemon mode: where the detach handshake delivers
    /// [`SessionStats`].
    stats_tx: Option<std::sync::mpsc::SyncSender<SessionStats>>,
    /// Kernel ops currently in flight for this session (an armed
    /// multishot receive counts once: only its terminal CQE — no
    /// `F_MORE` — decrements).
    inflight: u32,
    err: Option<io::Error>,
    /// Detach requested: stop re-arming, drain to `inflight == 0`,
    /// then send stats and drop the entry.
    detaching: bool,
    /// Sockets already shut down (error/detach path ran).
    cut: bool,
    /// Fallback: payload reads armed right now, bounded by
    /// [`PLACE_CAP`].
    place_armed: u32,
    /// Fallback: links routed into `FxPlace` whose read is deferred
    /// until a slot under the cap frees up. Safe to defer: the
    /// header is already read, and the source wrote header +
    /// payload as one contiguous write, so the payload is on the
    /// wire (or in the socket buffer) no matter when the read arms.
    place_pending: VecDeque<usize>,
    pub(super) tally: Tally,
}

impl Sess {
    /// Build a session entry over driver-owned socket clones.
    pub(super) fn new(
        front: Arc<SinkFront>,
        lease: Vec<u32>,
        ctrl: TcpStream,
        data: Vec<TcpStream>,
        mailbox: Option<Mailbox>,
    ) -> Sess {
        let links = data
            .iter()
            .map(|s| Link {
                fd: s.as_raw_fd(),
                state: RxState::Header { got: 0 },
                hdr_buf: Box::new([0u8; DATA_FRAME_HEADER_LEN]),
                scratch: Vec::new(),
                parked: false,
            })
            .collect();
        let ctrl_link = CtrlLink {
            fd: ctrl.as_raw_fd(),
            buf: Box::new([0u8; 4096]),
            dec: rftp_core::wire::FrameDecoder::new(),
            eof: false,
        };
        let mut socks = vec![ctrl];
        socks.extend(data);
        let (mailbox, stats_tx) = mailbox.unzip();
        Sess {
            front,
            lease,
            links,
            ctrl: ctrl_link,
            socks,
            emit: Vec::new(),
            mailbox,
            stats_tx,
            inflight: 0,
            err: None,
            detaching: false,
            cut: false,
            place_armed: 0,
            place_pending: VecDeque::new(),
            tally: Tally::default(),
        }
    }
}

/// `user_data` link field naming a session's control socket.
const CTRL_LINK: u32 = u32::MAX;
/// `user_data` of the daemon driver's hub-wakeup read. (`UD_NOP` is
/// `u64::MAX`; session ids never reach `u32::MAX`, so neither
/// sentinel collides with `ud()`.)
const UD_WAKE: u64 = u64::MAX - 1;

/// Completion demultiplexing key: session id in the high word, link
/// index (or [`CTRL_LINK`]) in the low.
fn ud(sid: u32, link: u32) -> u64 {
    ((sid as u64) << 32) | link as u64
}

fn decode_header(buf: &[u8; DATA_FRAME_HEADER_LEN]) -> io::Result<DataFrameHeader> {
    DataFrameHeader::decode(&buf[..]).map_err(|e| perr(format!("bad data frame header: {e:?}")))
}

/// Feed one multishot completion's worth of wire-stream bytes into
/// link `i`'s parser. Returns a *session*-level error on a torn or
/// invalid frame.
fn ms_feed(
    sess: &mut Sess,
    slots: &[&Mutex<SlotBuf>],
    i: usize,
    mut bytes: &[u8],
    floor: Instant,
) -> io::Result<()> {
    while !bytes.is_empty() {
        match sess.links[i].state {
            RxState::Header { got } => {
                let take = (DATA_FRAME_HEADER_LEN - got).min(bytes.len());
                sess.links[i].hdr_buf[got..got + take].copy_from_slice(&bytes[..take]);
                bytes = &bytes[take..];
                let got = got + take;
                if got < DATA_FRAME_HEADER_LEN {
                    sess.links[i].state = RxState::Header { got };
                    continue;
                }
                let hdr = decode_header(&sess.links[i].hdr_buf)?;
                sess.links[i].state = if sess.front.admit(&hdr, &mut sess.tally)? {
                    RxState::MsBody {
                        hdr,
                        got: 0,
                        t0: Instant::now(),
                    }
                } else {
                    RxState::MsDiscard {
                        remaining: hdr.wire_len(),
                    }
                };
            }
            RxState::MsBody { hdr, got, t0 } => {
                let wire_len = hdr.wire_len();
                let take = (wire_len - got).min(bytes.len());
                let mut dst = slots[sess.lease[hdr.slot as usize] as usize].lock();
                dst[got..got + take].copy_from_slice(&bytes[..take]);
                bytes = &bytes[take..];
                let got = got + take;
                if got < wire_len {
                    sess.links[i].state = RxState::MsBody { hdr, got, t0 };
                    continue;
                }
                // Clock from max(armed, floor) — see `place_floor`.
                let ev = sess
                    .front
                    .landed(&hdr, &dst, t0.max(floor), &mut sess.tally)?;
                sess.emit.push(ev);
                sess.links[i].state = RxState::Header { got: 0 };
            }
            RxState::MsDiscard { remaining } => {
                let take = remaining.min(bytes.len());
                bytes = &bytes[take..];
                let remaining = remaining - take;
                sess.links[i].state = if remaining == 0 {
                    RxState::Header { got: 0 }
                } else {
                    RxState::MsDiscard { remaining }
                };
            }
            // EOF (or a stray fallback state): drop trailing bytes.
            _ => return Ok(()),
        }
    }
    Ok(())
}

/// The hub-wakeup socket the daemon driver arms a `READ` on, so
/// registration/detach messages interrupt a blocked `GETEVENTS`.
pub(super) struct WakeLink {
    pub(super) stream: UnixStream,
    pub(super) buf: Box<[u8; 64]>,
}

/// What `on_cqe`'s split-borrow inner blocks ask the driver to do
/// next, once the session borrow is released.
enum Next {
    None,
    /// Re-arm link `i`'s current state.
    Arm,
    /// Arm link `i`'s `FxPlace` read under the cap (or park it).
    ArmPlace,
    /// A block finished placing on link `i`: free its cap slot, arm
    /// a parked placement if any, then re-arm `i`'s header read.
    Placed,
    /// Record a session-level failure and cut the session loose.
    Fail(io::Error),
}

/// The sink's single data-path driver: one ring, one thread, every
/// admitted session's links. Two harnesses share it:
///
/// * **pump mode** (the standalone sink): one session, and
///   [`MultiDriver::pump`] is the event source its handler
///   ([`crate::split::SinkSession::handler`]) coalesces over — CQE batches in, a
///   batch of [`SinkEvt`]s out, dwell waits as `EXT_ARG` ring
///   timeouts;
/// * **daemon mode**: the driver loop forwards each session's
///   events through its mailbox to the session thread, which runs
///   the same handler + drain over [`crate::coalesce::channel_events`].
pub(super) struct MultiDriver<'a> {
    ring: &'a Ring,
    /// The registered fixed-buffer table; each session's `lease`
    /// maps wire slots into it.
    slots: &'a [&'a Mutex<SlotBuf>],
    /// Multishot receive active (vs the `Fx*` fallback).
    ms: bool,
    pbuf: Option<PbufRing>,
    pub(super) sessions: HashMap<u32, Sess>,
    /// `(sid, link)` pairs whose multishot receive died on
    /// `ENOBUFS`, re-armed as buffers recycle.
    starved: VecDeque<(u32, usize)>,
    queued: u32,
    cqes: Vec<Cqe>,
    /// The place-clock floor: the last instant this thread returned
    /// from a ring wait or finished retiring a completion. A
    /// block's place time clocks from `max(armed, floor)`, so it
    /// measures the driver's *observable wait* for that block's
    /// bytes — comparable to the TCP sink's per-thread blocking
    /// reads.
    place_floor: Instant,
    multishot_rearms: u64,
    pbuf_exhausted: u64,
    /// Ring-level failure: everything on the ring is dead.
    fatal: Option<io::Error>,
    pub(super) wake: Option<WakeLink>,
    wake_armed: bool,
    /// Teardown: stop re-arming the wake read.
    stopping: bool,
}

impl<'a> MultiDriver<'a> {
    pub(super) fn new(
        ring: &'a Ring,
        slots: &'a [&'a Mutex<SlotBuf>],
        ms: bool,
        pbuf: Option<PbufRing>,
    ) -> MultiDriver<'a> {
        MultiDriver {
            ring,
            slots,
            ms,
            pbuf,
            sessions: HashMap::new(),
            starved: VecDeque::new(),
            queued: 0,
            cqes: Vec::with_capacity(64),
            place_floor: Instant::now(),
            multishot_rearms: 0,
            pbuf_exhausted: 0,
            fatal: None,
            wake: None,
            wake_armed: false,
            stopping: false,
        }
    }

    pub(super) fn stats_snapshot(&self) -> UringStats {
        UringStats {
            enters: self.ring.enters.load(Ordering::Relaxed),
            cqes: self.ring.reaped.load(Ordering::Relaxed),
            multishot: self.ms,
            multishot_rearms: self.multishot_rearms,
            pbuf_exhausted: self.pbuf_exhausted,
            registrations: self.ring.registers.load(Ordering::Relaxed),
        }
    }

    fn push_sqe(&mut self, sqe: &Sqe) -> io::Result<()> {
        while !self.ring.sq_push(sqe) {
            // SQ full: flush what is queued to make room.
            self.ring.submit(self.queued)?;
            self.queued = 0;
        }
        self.queued += 1;
        Ok(())
    }

    pub(super) fn submit_queued(&mut self) -> io::Result<()> {
        if self.queued > 0 {
            self.ring.submit(self.queued)?;
            self.queued = 0;
        }
        Ok(())
    }

    /// Arm the hub-wakeup read (daemon mode).
    pub(super) fn arm_wake(&mut self) -> io::Result<()> {
        let Some(w) = &self.wake else { return Ok(()) };
        let sqe = Sqe {
            opcode: IORING_OP_READ,
            fd: w.stream.as_raw_fd(),
            addr: w.buf.as_ptr() as u64,
            len: w.buf.len() as u32,
            user_data: UD_WAKE,
            ..Default::default()
        };
        self.push_sqe(&sqe)?;
        self.wake_armed = true;
        Ok(())
    }

    /// (Re-)arm whatever receive link `i`'s state calls for.
    fn arm_link(&mut self, sid: u32, i: usize) -> io::Result<()> {
        let sess = self.sessions.get_mut(&sid).unwrap();
        let fd = sess.links[i].fd;
        let user_data = ud(sid, i as u32);
        let sqe = match sess.links[i].state {
            RxState::Eof => return Ok(()),
            RxState::Header { got } if !self.ms => Sqe {
                opcode: IORING_OP_READ,
                fd,
                addr: sess.links[i].hdr_buf.as_ptr() as u64 + got as u64,
                len: (DATA_FRAME_HEADER_LEN - got) as u32,
                user_data,
                ..Default::default()
            },
            RxState::Header { .. } | RxState::MsBody { .. } | RxState::MsDiscard { .. } => {
                sess.links[i].parked = false;
                Sqe {
                    opcode: IORING_OP_RECV,
                    flags: IOSQE_BUFFER_SELECT,
                    ioprio: IORING_RECV_MULTISHOT,
                    fd,
                    buf_index: PBUF_BGID,
                    user_data,
                    ..Default::default()
                }
            }
            RxState::FxPlace { hdr, base, got, .. } => Sqe {
                opcode: IORING_OP_READ_FIXED,
                fd,
                addr: base + got as u64,
                len: (hdr.wire_len() - got) as u32,
                buf_index: sess.lease[hdr.slot as usize] as u16,
                user_data,
                ..Default::default()
            },
            RxState::FxDiscard { wire_len, got } => {
                let want = (wire_len - got).min(64 * 1024);
                if sess.links[i].scratch.len() < want {
                    sess.links[i].scratch.resize(want, 0);
                }
                Sqe {
                    opcode: IORING_OP_READ,
                    fd,
                    addr: sess.links[i].scratch.as_ptr() as u64,
                    len: want as u32,
                    user_data,
                    ..Default::default()
                }
            }
        };
        sess.inflight += 1;
        self.push_sqe(&sqe)
    }

    /// Fallback: arm a `FxPlace` read if the session's cap has
    /// room, else park the link. Resets the place clock at true arm
    /// time so a parked link doesn't bill its queue wait as
    /// placement.
    fn arm_place(&mut self, sid: u32, i: usize) -> io::Result<()> {
        let sess = self.sessions.get_mut(&sid).unwrap();
        if sess.place_armed < PLACE_CAP {
            sess.place_armed += 1;
            if let RxState::FxPlace { ref mut t0, .. } = sess.links[i].state {
                *t0 = Instant::now();
            }
            self.arm_link(sid, i)
        } else {
            sess.place_pending.push_back(i);
            Ok(())
        }
    }

    fn arm_ctrl(&mut self, sid: u32) -> io::Result<()> {
        let sess = self.sessions.get_mut(&sid).unwrap();
        let sqe = Sqe {
            opcode: IORING_OP_READ,
            fd: sess.ctrl.fd,
            addr: sess.ctrl.buf.as_ptr() as u64,
            len: sess.ctrl.buf.len() as u32,
            user_data: ud(sid, CTRL_LINK),
            ..Default::default()
        };
        sess.inflight += 1;
        self.push_sqe(&sqe)
    }

    /// Insert a session and arm every opening read. The caller
    /// submits (pump's first loop / the daemon tick).
    pub(super) fn add_session(&mut self, sid: u32, sess: Sess) -> io::Result<()> {
        let links = sess.links.len();
        self.sessions.insert(sid, sess);
        for i in 0..links {
            self.arm_link(sid, i)?;
        }
        self.arm_ctrl(sid)
    }

    /// First-error-wins session failure: record it, cut the
    /// session's sockets (in-flight ops complete as errors
    /// promptly), and drop the mailbox so the handler thread sees
    /// the source close after draining what was already parsed.
    fn sess_fail(&mut self, sid: u32, e: io::Error) {
        let Some(sess) = self.sessions.get_mut(&sid) else {
            return;
        };
        if sess.err.is_none() {
            sess.err = Some(e);
        }
        if !sess.cut {
            sess.cut = true;
            shutdown_all(&sess.socks, Shutdown::Both);
        }
        sess.mailbox = None;
    }

    /// Daemon detach: stop re-arming, cut the sockets so armed ops
    /// drain, and let `finalize_sessions` complete the handshake at
    /// `inflight == 0`.
    pub(super) fn begin_detach(&mut self, sid: u32) {
        let Some(sess) = self.sessions.get_mut(&sid) else {
            return;
        };
        sess.detaching = true;
        sess.mailbox = None;
        if !sess.cut {
            sess.cut = true;
            shutdown_all(&sess.socks, Shutdown::Both);
        }
    }

    /// Complete the detach handshake for every drained session:
    /// send its stats (and any driver-side error) to the waiting
    /// session thread and drop the entry. No in-flight op can now
    /// land in the session's leased slots, so the caller may
    /// release the lease the moment it receives the stats.
    pub(super) fn finalize_sessions(&mut self) {
        let done: Vec<u32> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.detaching && s.inflight == 0)
            .map(|(&sid, _)| sid)
            .collect();
        for sid in done {
            let ring = self.stats_snapshot();
            let sess = self.sessions.remove(&sid).unwrap();
            if let Some(tx) = sess.stats_tx {
                let _ = tx.send(SessionStats {
                    tally: sess.tally,
                    err: sess.err,
                    ring,
                });
            }
        }
    }

    /// Forward freshly-parsed events to each daemon session's
    /// mailbox (batched per driver loop, so a CQE burst arrives at
    /// the handler as one `recv_batch`).
    fn deliver_mailboxes(&mut self) {
        for sess in self.sessions.values_mut() {
            if sess.emit.is_empty() {
                continue;
            }
            match &sess.mailbox {
                Some(tx) => {
                    for ev in sess.emit.drain(..) {
                        let _ = tx.send(ev);
                    }
                }
                None => sess.emit.clear(),
            }
        }
    }

    fn on_ctrl_cqe(&mut self, sid: u32, c: &Cqe) -> io::Result<()> {
        let mut next = Next::None;
        {
            let sess = self.sessions.get_mut(&sid).unwrap();
            let idle = sess.detaching || sess.err.is_some();
            if c.res == -ECANCELED {
                if !idle {
                    next = Next::Arm;
                }
            } else if c.res < 0 {
                if !idle {
                    next = Next::Fail(io::Error::from_raw_os_error(-c.res));
                }
            } else if c.res == 0 {
                if sess.ctrl.dec.pending_bytes() != 0 {
                    next = Next::Fail(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "control stream closed mid-frame",
                    ));
                } else {
                    sess.ctrl.eof = true;
                    sess.emit.push(SinkEvt::CtrlEof);
                }
            } else {
                let n = c.res as usize;
                let buf: &[u8] = &sess.ctrl.buf[..n];
                // Decode in place; the decoder owns a copy.
                let buf = buf.to_vec();
                sess.ctrl.dec.push(&buf);
                loop {
                    match sess.ctrl.dec.next_frame() {
                        Ok(Some(msg)) => sess.emit.push(SinkEvt::Ctrl(msg)),
                        Ok(None) => break,
                        Err(e) => {
                            next = Next::Fail(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("bad control frame: {e:?}"),
                            ));
                            break;
                        }
                    }
                }
                if matches!(next, Next::None) && !idle {
                    next = Next::Arm;
                }
            }
        }
        match next {
            Next::Arm => self.arm_ctrl(sid),
            Next::Fail(e) => {
                self.sess_fail(sid, e);
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Fallback-mode data completion: the ported header-first
    /// armed-read state machine.
    fn on_data_cqe_fx(&mut self, sid: u32, i: usize, c: &Cqe) -> io::Result<()> {
        let place_floor = self.place_floor;
        let mut next = Next::None;
        {
            let Self {
                sessions, slots, ..
            } = self;
            let sess = sessions.get_mut(&sid).unwrap();
            let idle = sess.detaching || sess.err.is_some();
            let st = sess.links[i].state;
            if c.res == -ECANCELED && !matches!(st, RxState::Eof) {
                // Dropped without side effects — retry in place (a
                // `FxPlace` link keeps the cap slot it holds).
                if !idle {
                    next = Next::Arm;
                }
            } else if c.res < 0 {
                if !idle {
                    next = Next::Fail(io::Error::from_raw_os_error(-c.res));
                }
            } else {
                let n = c.res as usize;
                match st {
                    RxState::Header { got: 0 } if n == 0 => {
                        sess.links[i].state = RxState::Eof;
                        sess.emit.push(SinkEvt::DataEof);
                    }
                    RxState::Header { .. }
                    | RxState::FxPlace { .. }
                    | RxState::FxDiscard { .. }
                        if n == 0 =>
                    {
                        next = Next::Fail(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "stream closed mid-frame",
                        ));
                    }
                    RxState::Header { got } => {
                        let got = got + n;
                        if got < DATA_FRAME_HEADER_LEN {
                            sess.links[i].state = RxState::Header { got };
                            next = Next::Arm;
                        } else {
                            let routed = decode_header(&sess.links[i].hdr_buf).and_then(|hdr| {
                                Ok((hdr, sess.front.admit(&hdr, &mut sess.tally)?))
                            });
                            match routed {
                                Err(e) => next = Next::Fail(e),
                                Ok((hdr, false)) => {
                                    sess.links[i].state = RxState::FxDiscard {
                                        wire_len: hdr.wire_len(),
                                        got: 0,
                                    };
                                    next = Next::Arm;
                                }
                                Ok((hdr, true)) => {
                                    // Route on the header, then
                                    // commit the payload read
                                    // straight into the credited
                                    // slot's registered buffer —
                                    // the CQE is the placement.
                                    let fixed = sess.lease[hdr.slot as usize] as usize;
                                    let base = slots[fixed].lock().as_ptr() as u64;
                                    sess.links[i].state = RxState::FxPlace {
                                        hdr,
                                        base,
                                        got: 0,
                                        t0: Instant::now(),
                                    };
                                    next = Next::ArmPlace;
                                }
                            }
                        }
                    }
                    RxState::FxPlace { hdr, got, t0, .. } => {
                        let got = got + n;
                        if got < hdr.wire_len() {
                            if let RxState::FxPlace { got: ref mut g, .. } = sess.links[i].state {
                                *g = got;
                            }
                            next = Next::Arm;
                        } else {
                            // Clock from max(armed, floor) — see
                            // `place_floor`.
                            let dst = slots[sess.lease[hdr.slot as usize] as usize].lock();
                            let t0 = t0.max(place_floor);
                            match sess.front.landed(&hdr, &dst, t0, &mut sess.tally) {
                                Err(e) => next = Next::Fail(e),
                                Ok(ev) => {
                                    sess.emit.push(ev);
                                    sess.links[i].state = RxState::Header { got: 0 };
                                    next = Next::Placed;
                                }
                            }
                        }
                    }
                    RxState::FxDiscard { wire_len, got } => {
                        let got = got + n;
                        if got < wire_len {
                            sess.links[i].state = RxState::FxDiscard { wire_len, got };
                        } else {
                            sess.links[i].state = RxState::Header { got: 0 };
                        }
                        next = Next::Arm;
                    }
                    _ => {}
                }
            }
        }
        match next {
            Next::None => Ok(()),
            Next::Arm => self.arm_link(sid, i),
            Next::ArmPlace => self.arm_place(sid, i),
            Next::Placed => {
                let parked = {
                    let sess = self.sessions.get_mut(&sid).unwrap();
                    sess.place_armed -= 1;
                    sess.place_pending.pop_front()
                };
                if let Some(j) = parked {
                    self.arm_place(sid, j)?;
                }
                self.arm_link(sid, i)
            }
            Next::Fail(e) => {
                self.sess_fail(sid, e);
                Ok(())
            }
        }
    }

    /// Multishot-mode data completion: recycle-and-parse. `more` is
    /// the CQE's `F_MORE` (the receive is still armed).
    fn on_data_cqe_ms(&mut self, sid: u32, i: usize, c: &Cqe, more: bool) -> io::Result<()> {
        let place_floor = self.place_floor;
        if c.res < 0 {
            let (idle, eof) = {
                let sess = self.sessions.get_mut(&sid).unwrap();
                (
                    sess.detaching || sess.err.is_some(),
                    matches!(sess.links[i].state, RxState::Eof),
                )
            };
            match -c.res {
                _ if idle || eof => return Ok(()),
                ECANCELED => {
                    self.multishot_rearms += 1;
                    return self.arm_link(sid, i);
                }
                ENOBUFS => {
                    // Buffer ring dry: park until a recycle.
                    self.pbuf_exhausted += 1;
                    self.sessions.get_mut(&sid).unwrap().links[i].parked = true;
                    self.starved.push_back((sid, i));
                    return Ok(());
                }
                e => {
                    self.sess_fail(sid, io::Error::from_raw_os_error(e));
                    return Ok(());
                }
            }
        }
        let bid = (c.flags & IORING_CQE_F_BUFFER != 0)
            .then_some((c.flags >> IORING_CQE_BUFFER_SHIFT) as u16);
        let mut fed = Ok(());
        if c.res == 0 {
            let sess = self.sessions.get_mut(&sid).unwrap();
            if !(sess.detaching || sess.err.is_some()) {
                match sess.links[i].state {
                    RxState::Header { got: 0 } => {
                        sess.links[i].state = RxState::Eof;
                        sess.emit.push(SinkEvt::DataEof);
                    }
                    RxState::Eof => {}
                    _ => {
                        fed = Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "stream closed mid-frame",
                        ))
                    }
                }
            }
        } else {
            let n = c.res as usize;
            let Self {
                sessions,
                slots,
                pbuf,
                ..
            } = self;
            let sess = sessions.get_mut(&sid).unwrap();
            if sess.detaching || sess.err.is_some() {
                // Draining a cut session: count the buffer back in,
                // parse nothing.
            } else {
                match bid {
                    None => {
                        fed = Err(perr("multishot completion without a buffer"));
                    }
                    Some(bid) => {
                        let bytes = &pbuf.as_ref().expect("ms without pbuf").buf(bid)[..n];
                        fed = ms_feed(sess, slots, i, bytes, place_floor);
                    }
                }
            }
        }
        // Recycle before re-arming: the returned buffer may be the
        // one that un-starves a parked link.
        if let Some(bid) = bid {
            self.pbuf.as_mut().expect("ms without pbuf").recycle(bid);
            self.drain_starved()?;
        }
        if let Err(e) = fed {
            self.sess_fail(sid, e);
            return Ok(());
        }
        let (rearm, parked) = {
            let sess = self.sessions.get_mut(&sid).unwrap();
            let dead =
                sess.detaching || sess.err.is_some() || matches!(sess.links[i].state, RxState::Eof);
            (!more && !dead, sess.links[i].parked)
        };
        if rearm && !parked {
            // Terminal CQE (`F_MORE` cleared) on a live link: the
            // kernel dropped the multishot arm; re-arm it.
            self.multishot_rearms += 1;
            return self.arm_link(sid, i);
        }
        Ok(())
    }

    /// Route one CQE. `Err` here is ring-fatal (a failed submit);
    /// session-level failures are recorded via `sess_fail`.
    fn on_cqe(&mut self, c: &Cqe) -> io::Result<()> {
        if c.user_data == UD_NOP {
            return Ok(());
        }
        if c.user_data == UD_WAKE {
            self.wake_armed = false;
            if !self.stopping {
                return self.arm_wake();
            }
            return Ok(());
        }
        let sid = (c.user_data >> 32) as u32;
        let link = (c.user_data & u32::MAX as u64) as u32;
        let more = c.flags & IORING_CQE_F_MORE != 0;
        {
            // A CQE for a removed session cannot happen (entries
            // only drop at `inflight == 0`), but route defensively.
            let Some(sess) = self.sessions.get_mut(&sid) else {
                if let Some(p) = &mut self.pbuf {
                    if c.flags & IORING_CQE_F_BUFFER != 0 {
                        p.recycle((c.flags >> IORING_CQE_BUFFER_SHIFT) as u16);
                    }
                }
                return Ok(());
            };
            if !more {
                sess.inflight = sess.inflight.saturating_sub(1);
            }
        }
        if link == CTRL_LINK {
            self.on_ctrl_cqe(sid, c)
        } else if self.ms {
            self.on_data_cqe_ms(sid, link as usize, c, more)
        } else {
            self.on_data_cqe_fx(sid, link as usize, c)
        }
    }

    /// Re-arm every live parked link. Runs after each recycle AND at
    /// every CQE-batch boundary: by batch end each buffer the batch
    /// delivered has been recycled, so the provided-buffer ring is
    /// as full as it gets. Without the batch-end pass, an `ENOBUFS`
    /// processed after the batch's last recycle parks its link with
    /// nothing left to wake it — the only still-armed link may stay
    /// silent forever while the remaining frames sit in the parked
    /// links' sockets (observed as a total transfer stall with a
    /// 1-buffer ring).
    fn drain_starved(&mut self) -> io::Result<()> {
        while let Some((s2, l2)) = self.starved.pop_front() {
            // A parked link has nothing in flight, so its session
            // may have failed or finalized while it waited — only
            // re-arm live ones.
            let live = self.sessions.get(&s2).is_some_and(|s| {
                !s.detaching && s.err.is_none() && !matches!(s.links[l2].state, RxState::Eof)
            });
            if live {
                self.multishot_rearms += 1;
                self.arm_link(s2, l2)?;
            }
        }
        Ok(())
    }

    /// The recv callback the handler coalesces over in pump mode:
    /// deliver at least one [`SinkEvt`] for session `sid`
    /// (`window: None` blocks; `Some(w)` is a dwell wait bounded by
    /// a *cumulative* deadline across its internal waits), or
    /// `false` when the wait timed out, every link is done, or the
    /// driver failed.
    pub(super) fn pump(
        &mut self,
        sid: u32,
        window: Option<Duration>,
        out: &mut Vec<SinkEvt>,
    ) -> bool {
        if self.fatal.is_some() || self.sessions.get(&sid).is_none_or(|s| s.err.is_some()) {
            return false;
        }
        self.place_floor = Instant::now();
        let deadline = window.map(|w| Instant::now() + w);
        loop {
            self.cqes.clear();
            self.ring.reap(&mut self.cqes);
            if self.cqes.is_empty() {
                if self.sessions.get(&sid).map_or(0, |s| s.inflight) == 0 {
                    return false; // every link EOF — nothing can arrive
                }
                let waited = match deadline {
                    // Hot path: hand re-armed reads to the kernel
                    // and wait for the next completion in ONE
                    // syscall.
                    None => {
                        let queued = std::mem::take(&mut self.queued);
                        self.ring.submit_and_wait(queued).map(|()| true)
                    }
                    // Dwell wait: flush first, then the timed wait
                    // (`-ETIME` and a fused submit don't mix). Each
                    // retry gets the *remaining* window, so partial
                    // reads can't stretch the dwell past the
                    // handler's flush deadline.
                    Some(d) => {
                        let now = Instant::now();
                        if d <= now {
                            return false; // dwell window exhausted
                        }
                        self.submit_queued()
                            .and_then(|()| self.ring.wait(Some(d - now)))
                    }
                };
                match waited {
                    Ok(true) => {
                        self.place_floor = Instant::now();
                        continue;
                    }
                    Ok(false) => {
                        // -ETIME: drain completions that raced the
                        // timeout into this dwell's batch rather
                        // than leaving them for the next pump.
                        if self.ring.cq_ready() > 0 {
                            continue;
                        }
                        return false;
                    }
                    Err(e) => {
                        self.fatal = Some(e);
                        return false;
                    }
                }
            }
            let cqes = std::mem::take(&mut self.cqes);
            for c in &cqes {
                let r = self.on_cqe(c);
                self.place_floor = Instant::now();
                if let Err(e) = r {
                    self.fatal = Some(e);
                    self.cqes = cqes;
                    return false;
                }
            }
            self.cqes = cqes;
            if let Err(e) = self.drain_starved() {
                self.fatal = Some(e);
                return false;
            }
            if let Some(sess) = self.sessions.get_mut(&sid) {
                if sess.err.is_some() {
                    return false;
                }
                out.append(&mut sess.emit);
            }
            if !out.is_empty() {
                // Flush the re-arms before handing the events over,
                // so the kernel fills slots while the handler
                // verifies and acks.
                if let Err(e) = self.submit_queued() {
                    self.fatal = Some(e);
                    return false;
                }
                return true;
            }
            // Partial reads advanced without yielding an event;
            // keep draining (the empty-reap path flushes `queued`).
        }
    }

    /// The error to surface for session `sid` after a `Closed`
    /// drain (ring-fatal first — it explains every session).
    pub(super) fn take_err(&mut self, sid: u32) -> Option<io::Error> {
        self.fatal
            .take()
            .or_else(|| self.sessions.get_mut(&sid).and_then(|s| s.err.take()))
    }

    /// One daemon-driver iteration: submit + block for completions
    /// (the armed wake read turns hub messages into CQEs), retire a
    /// batch, forward events. `Err` is ring-fatal.
    pub(super) fn daemon_tick(&mut self) -> io::Result<()> {
        self.place_floor = Instant::now();
        self.cqes.clear();
        self.ring.reap(&mut self.cqes);
        if self.cqes.is_empty() {
            let queued = std::mem::take(&mut self.queued);
            self.ring.submit_and_wait(queued)?;
            self.place_floor = Instant::now();
            self.ring.reap(&mut self.cqes);
        }
        let cqes = std::mem::take(&mut self.cqes);
        let mut r = Ok(());
        for c in &cqes {
            r = self.on_cqe(c);
            self.place_floor = Instant::now();
            if r.is_err() {
                break;
            }
        }
        self.cqes = cqes;
        r?;
        self.drain_starved()?;
        self.submit_queued()?;
        self.deliver_mailboxes();
        Ok(())
    }

    /// Ring-fatal failure in daemon mode: every session dies with
    /// it.
    pub(super) fn fail_all(&mut self, e: io::Error) {
        let sids: Vec<u32> = self.sessions.keys().copied().collect();
        for sid in sids {
            self.sess_fail(sid, perr(format!("shared uring driver failed: {e}")));
            self.begin_detach(sid);
        }
        self.fatal = Some(e);
    }

    /// Drain until no kernel op targets the slot buffers, provided
    /// buffers, or wake buffer — must run (after the sockets are
    /// shut down) before any of them can be freed.
    pub(super) fn quiesce(&mut self) {
        self.stopping = true;
        if let Some(w) = &self.wake {
            let _ = w.stream.shutdown(Shutdown::Both);
        }
        let _ = self.submit_queued();
        loop {
            let inflight: u32 = self.sessions.values().map(|s| s.inflight).sum();
            if inflight == 0 && !self.wake_armed {
                return;
            }
            if self.ring.wait(None).is_err() {
                return; // ring is gone; nothing more to drain
            }
            self.cqes.clear();
            self.ring.reap(&mut self.cqes);
            let cqes = std::mem::take(&mut self.cqes);
            for c in &cqes {
                if c.user_data == UD_WAKE {
                    self.wake_armed = false;
                    continue;
                }
                if c.user_data == UD_NOP {
                    continue;
                }
                if c.flags & IORING_CQE_F_MORE != 0 {
                    continue; // non-terminal: the op is still armed
                }
                let sid = (c.user_data >> 32) as u32;
                if let Some(sess) = self.sessions.get_mut(&sid) {
                    sess.inflight = sess.inflight.saturating_sub(1);
                }
            }
            self.cqes = cqes;
        }
    }
}

impl<'a> MultiDriver<'a> {
    /// Adopt a registered session: reject (via its stats channel)
    /// if its links cannot fit the ring alongside the sessions
    /// already armed, else insert and arm.
    pub(super) fn add_daemon_session(&mut self, sid: u32, sess: Sess) -> io::Result<()> {
        // Worst-case concurrently-armed ops: every session's links
        // + control, the newcomer's, and the wake read. The CQ is
        // 2x the SQ, so fitting the SQ bounds completions too.
        let armed: usize = self
            .sessions
            .values()
            .map(|s| s.links.len() + 1)
            .sum::<usize>()
            + 1;
        if armed + sess.links.len() + 1 > RING_ENTRIES as usize {
            if let Some(tx) = &sess.stats_tx {
                let _ = tx.send(SessionStats {
                    tally: Tally::default(),
                    err: Some(perr("shared uring driver is at link capacity")),
                    ring: self.stats_snapshot(),
                });
            }
            return Ok(());
        }
        self.add_session(sid, sess)
    }
}
