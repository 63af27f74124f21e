//! The sink's single data-path driver: per-session link state machines
//! ([`Sess`]) and [`MultiDriver`], the one loop that retires every
//! session's completions and forwards its events to the session's
//! handler thread — one session for a standalone sink, every admitted
//! session under the daemon.
//!
//! There is one receive path. Each data link reads the 16-byte
//! [`DataFrameHeader`] first and routes it before any payload byte is
//! read: a first arrival commits one `READ_FIXED` straight into the
//! credited slot's registered buffer (the CQE is the placement, no
//! user-space copy), and a duplicate is read into a scratch buffer and
//! dropped.

use super::ring::{Ring, RING_ENTRIES};
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
use std::time::Instant;

/// Cap on a session's concurrently-armed payload reads: a session's
/// blocks land one at a time, in the order their headers routed them,
/// so its handler verifies a steady stream instead of a burst of
/// sibling copies that evicts each block before its turn.
const PLACE_CAP: u32 = 1;

/// Where one data link's framing state machine stands.
#[derive(Clone, Copy)]
enum RxState {
    /// `got` bytes of the next frame header are in the link's
    /// `hdr_buf`.
    Header {
        got: usize,
    },
    /// A first arrival: `got` bytes of its wire image are in the
    /// credited slot, whose registered buffer starts at `base`.
    Place {
        hdr: DataFrameHeader,
        base: u64,
        got: usize,
        t0: Instant,
    },
    /// A duplicate: `got` of its `wire_len` bytes read and dropped.
    Discard {
        wire_len: usize,
        got: usize,
    },
    Eof,
}

struct Link {
    fd: i32,
    state: RxState,
    /// Boxed so its address is stable while a kernel read targets it.
    hdr_buf: Box<[u8; DATA_FRAME_HEADER_LEN]>,
    scratch: Vec<u8>,
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

/// A session's way home from the driver: the mailbox its events are
/// forwarded through, and where the detach handshake delivers
/// [`SessionStats`].
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
    /// registered table. Identity for a standalone sink (its pool
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
    /// The session thread's mailbox; `None` after a failure or a
    /// detach, which is how the handler learns the source is gone.
    mailbox: Option<crossbeam::channel::Sender<SinkEvt>>,
    /// Where the detach handshake delivers [`SessionStats`].
    stats_tx: std::sync::mpsc::SyncSender<SessionStats>,
    /// Kernel ops currently in flight for this session.
    inflight: u32,
    err: Option<io::Error>,
    /// Detach requested: stop re-arming, drain to `inflight == 0`,
    /// then send stats and drop the entry.
    detaching: bool,
    /// Sockets already shut down (error/detach path ran).
    cut: bool,
    /// Payload reads armed right now, bounded by [`PLACE_CAP`].
    place_armed: u32,
    /// Links routed into `Place` whose read is deferred until a
    /// slot under the cap frees up. Safe to defer: the
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
        (mailbox, stats_tx): Mailbox,
    ) -> Sess {
        let links = data
            .iter()
            .map(|s| Link {
                fd: s.as_raw_fd(),
                state: RxState::Header { got: 0 },
                hdr_buf: Box::new([0u8; DATA_FRAME_HEADER_LEN]),
                scratch: Vec::new(),
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
        Sess {
            front,
            lease,
            links,
            ctrl: ctrl_link,
            socks,
            emit: Vec::new(),
            mailbox: Some(mailbox),
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
/// `user_data` of the driver's hub-wakeup read. Session ids never
/// reach `u32::MAX`, so it never collides with `ud()`.
const UD_WAKE: u64 = u64::MAX - 1;

/// Completion demultiplexing key: session id in the high word, link
/// index (or [`CTRL_LINK`]) in the low.
fn ud(sid: u32, link: u32) -> u64 {
    ((sid as u64) << 32) | link as u64
}

fn decode_header(buf: &[u8; DATA_FRAME_HEADER_LEN]) -> io::Result<DataFrameHeader> {
    DataFrameHeader::decode(&buf[..]).map_err(|e| perr(format!("bad data frame header: {e:?}")))
}

/// The hub-wakeup socket the driver arms a `READ` on, so
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
    /// Arm link `i`'s `Place` read under the cap (or park it).
    ArmPlace,
    /// A block finished placing on link `i`: free its cap slot, arm
    /// a parked placement if any, then re-arm `i`'s header read.
    Placed,
    /// Record a session-level failure and cut the session loose.
    Fail(io::Error),
}

/// The sink's single data-path driver: one ring, one thread, every
/// admitted session's links. Each [`MultiDriver::tick`] retires a
/// batch of completions and forwards each session's events through
/// its mailbox to the session thread, which runs the handler
/// ([`crate::split::SinkSession::handler`]) over
/// [`crate::coalesce::channel_events`] — the same drain as every
/// other sink.
pub(super) struct MultiDriver<'a> {
    ring: &'a Ring,
    /// The registered fixed-buffer table; each session's `lease`
    /// maps wire slots into it.
    slots: &'a [&'a Mutex<SlotBuf>],
    pub(super) sessions: HashMap<u32, Sess>,
    queued: u32,
    cqes: Vec<Cqe>,
    /// The place-clock floor: the last instant this thread returned
    /// from a ring wait or finished retiring a completion. A
    /// block's place time clocks from `max(armed, floor)`, so it
    /// measures the driver's *observable wait* for that block's
    /// bytes — comparable to the TCP sink's per-thread blocking
    /// reads.
    place_floor: Instant,
    wake: WakeLink,
    wake_armed: bool,
    /// Teardown: stop re-arming the wake read.
    stopping: bool,
}

impl<'a> MultiDriver<'a> {
    pub(super) fn new(
        ring: &'a Ring,
        slots: &'a [&'a Mutex<SlotBuf>],
        wake: WakeLink,
    ) -> MultiDriver<'a> {
        MultiDriver {
            ring,
            slots,
            sessions: HashMap::new(),
            queued: 0,
            cqes: Vec::with_capacity(64),
            place_floor: Instant::now(),
            wake,
            wake_armed: false,
            stopping: false,
        }
    }

    pub(super) fn stats_snapshot(&self) -> UringStats {
        UringStats {
            enters: self.ring.enters.load(Ordering::Relaxed),
            cqes: self.ring.reaped.load(Ordering::Relaxed),
            registrations: self.ring.registers.load(Ordering::Relaxed),
            ..UringStats::default()
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

    /// Arm the hub-wakeup read.
    pub(super) fn arm_wake(&mut self) -> io::Result<()> {
        let sqe = Sqe {
            opcode: IORING_OP_READ,
            fd: self.wake.stream.as_raw_fd(),
            addr: self.wake.buf.as_ptr() as u64,
            len: self.wake.buf.len() as u32,
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
            RxState::Header { got } => Sqe {
                opcode: IORING_OP_READ,
                fd,
                addr: sess.links[i].hdr_buf.as_ptr() as u64 + got as u64,
                len: (DATA_FRAME_HEADER_LEN - got) as u32,
                user_data,
                ..Default::default()
            },
            RxState::Place { hdr, base, got, .. } => Sqe {
                opcode: IORING_OP_READ_FIXED,
                fd,
                addr: base + got as u64,
                len: (hdr.wire_len() - got) as u32,
                buf_index: sess.lease[hdr.slot as usize] as u16,
                user_data,
                ..Default::default()
            },
            RxState::Discard { wire_len, got } => {
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

    /// Arm a `Place` read if the session's cap has room, else park
    /// the link. Resets the place clock at true arm time so a parked
    /// link doesn't bill its queue wait as placement.
    fn arm_place(&mut self, sid: u32, i: usize) -> io::Result<()> {
        let sess = self.sessions.get_mut(&sid).unwrap();
        if sess.place_armed < PLACE_CAP {
            sess.place_armed += 1;
            if let RxState::Place { ref mut t0, .. } = sess.links[i].state {
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

    /// Adopt a registered session: reject (via its stats channel)
    /// if its links cannot fit the ring alongside the sessions
    /// already armed, else insert it and arm every opening read (the
    /// next [`MultiDriver::tick`] submits them).
    pub(super) fn add_session(&mut self, sid: u32, sess: Sess) -> io::Result<()> {
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
            let _ = sess.stats_tx.send(SessionStats {
                tally: Tally::default(),
                err: Some(perr("shared uring driver is at link capacity")),
                ring: self.stats_snapshot(),
            });
            return Ok(());
        }
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

    /// Detach: stop re-arming, cut the sockets so armed ops
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
            let _ = sess.stats_tx.send(SessionStats {
                tally: sess.tally,
                err: sess.err,
                ring,
            });
        }
    }

    /// Forward freshly-parsed events to each session's
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

    /// A data-link completion: advance the link's header / place /
    /// discard state machine.
    fn on_data_cqe(&mut self, sid: u32, i: usize, c: &Cqe) -> io::Result<()> {
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
                // `Place` link keeps the cap slot it holds).
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
                    RxState::Header { .. } | RxState::Place { .. } | RxState::Discard { .. }
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
                                    sess.links[i].state = RxState::Discard {
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
                                    sess.links[i].state = RxState::Place {
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
                    RxState::Place { hdr, got, t0, .. } => {
                        let got = got + n;
                        if got < hdr.wire_len() {
                            if let RxState::Place { got: ref mut g, .. } = sess.links[i].state {
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
                    RxState::Discard { wire_len, got } => {
                        let got = got + n;
                        if got < wire_len {
                            sess.links[i].state = RxState::Discard { wire_len, got };
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

    /// Route one CQE. `Err` here is ring-fatal (a failed submit);
    /// session-level failures are recorded via `sess_fail`.
    fn on_cqe(&mut self, c: &Cqe) -> io::Result<()> {
        if c.user_data == UD_WAKE {
            self.wake_armed = false;
            if !self.stopping {
                return self.arm_wake();
            }
            return Ok(());
        }
        let sid = (c.user_data >> 32) as u32;
        let link = (c.user_data & u32::MAX as u64) as u32;
        // A CQE for a removed session cannot happen (entries only
        // drop at `inflight == 0`), but route defensively.
        let Some(sess) = self.sessions.get_mut(&sid) else {
            return Ok(());
        };
        sess.inflight = sess.inflight.saturating_sub(1);
        if link == CTRL_LINK {
            self.on_ctrl_cqe(sid, c)
        } else {
            self.on_data_cqe(sid, link as usize, c)
        }
    }

    /// One driver iteration: submit + block for completions (the
    /// armed wake read turns hub messages into CQEs), retire a batch,
    /// forward events. `Err` is ring-fatal.
    pub(super) fn tick(&mut self) -> io::Result<()> {
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
        self.submit_queued()?;
        self.deliver_mailboxes();
        Ok(())
    }

    /// Ring-fatal failure: every session dies with it.
    pub(super) fn fail_all(&mut self, e: io::Error) {
        let sids: Vec<u32> = self.sessions.keys().copied().collect();
        for sid in sids {
            self.sess_fail(sid, perr(format!("shared uring driver failed: {e}")));
            self.begin_detach(sid);
        }
    }

    /// Drain until no kernel op targets the slot buffers or the wake
    /// buffer — must run (after the sockets are shut down) before
    /// any of them can be freed.
    pub(super) fn quiesce(&mut self) {
        self.stopping = true;
        let _ = self.wake.stream.shutdown(Shutdown::Both);
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
                let sid = (c.user_data >> 32) as u32;
                if let Some(sess) = self.sessions.get_mut(&sid) {
                    sess.inflight = sess.inflight.saturating_sub(1);
                }
            }
            self.cqes = cqes;
        }
    }
}
