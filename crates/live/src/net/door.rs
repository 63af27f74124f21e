//! The session front door of every socket family: the socket trait,
//! the raw connection set, hello assembly, the admission reads and the
//! accept policy. [`crate::shm`] implements the socket trait for unix
//! sockets.

use super::link::sink_transport_from_streams;
use super::{
    new_session_token, proto_err, read_hello, set_sockbuf, write_hello, KIND_CTRL, KIND_DATA,
};
use crate::transport::SinkTransport;
use parking_lot::Mutex;
use rftp_core::wire::{
    encode_stream_frame, reject_reason, CtrlMsg, CTRL_SLOT_LEN, FRAME_PREFIX_LEN,
};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the listener waits for a just-accepted connection to
/// produce its hello before dropping it.
pub(crate) const HELLO_TIMEOUT: Duration = Duration::from_secs(2);

/// How long a partial connection set may sit in the assembler before it
/// is presumed orphaned (its source died mid-negotiation) and swept.
pub(crate) const STALE_SESSION_TIMEOUT: Duration = Duration::from_secs(10);

/// What the session front door needs of a connected stream socket.
/// Implemented for `TcpStream` here and for `UnixStream` in
/// [`crate::shm`], so hello assembly, the admission ladder and the
/// accept policy are written once for every way into a sink.
pub(crate) trait SessionSocket: Read + Write + Send + Sized + 'static {
    fn try_clone(&self) -> io::Result<Self>;
    fn shutdown(&self, how: Shutdown) -> io::Result<()>;
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()>;
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()>;
    /// Tune a stream of hello `kind` as it joins its set.
    fn tune(&self, kind: u8, sockbuf: usize) -> io::Result<()>;
    /// How many data streams a control hello announcing `channels`
    /// opens, at indices `0..n`.
    fn data_streams(channels: usize) -> usize;
}

impl SessionSocket for TcpStream {
    fn try_clone(&self) -> io::Result<Self> {
        TcpStream::try_clone(self)
    }
    fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        TcpStream::shutdown(self, how)
    }
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, dur)
    }
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        TcpStream::set_nonblocking(self, nonblocking)
    }
    fn tune(&self, kind: u8, sockbuf: usize) -> io::Result<()> {
        if kind == KIND_CTRL {
            return self.set_nodelay(true);
        }
        set_sockbuf(self, sockbuf);
        Ok(())
    }
    fn data_streams(channels: usize) -> usize {
        channels
    }
}

/// Shutdown hooks over a set of socket handles. `try_clone`d handles
/// alias the underlying socket, so shutting the clone down shuts the
/// live stream down — that is exactly what lets these hooks unblock
/// readers and writers owned by other threads.
pub(crate) fn shutdown_all<S: SessionSocket>(socks: &[S], how: Shutdown) {
    for s in socks {
        let _ = s.shutdown(how); // already-gone peers are fine
    }
}

// ---------------------------------------------------------------------------
// Session setup
// ---------------------------------------------------------------------------

/// The raw connected socket set for one session, before a backend wraps
/// it: the control stream plus the data streams its hello opened (one
/// per channel on TCP, the one notify stream on shm), hellos already
/// exchanged and each stream tuned for its kind. The TCP backend wraps
/// these in blocking reader/writer threads; the io_uring backend hands
/// the same sockets to a ring — the wire is byte-identical either way.
pub(crate) struct SessionStreams<S = TcpStream> {
    pub(crate) ctrl: S,
    pub(crate) data: Vec<S>,
    /// The hello token this connection set announced (the daemon keys
    /// its session table on it; one-shot mode ignores it).
    pub(crate) token: u64,
    /// The channel count the control hello announced — what admission
    /// checks the `SessionRequest` against.
    pub(crate) channels: usize,
}

impl<S: SessionSocket> SessionStreams<S> {
    /// One aliasing handle per socket of the set, control first — what
    /// an abort hook shuts down to unblock the session's threads.
    pub(crate) fn handles(&self) -> io::Result<Vec<S>> {
        std::iter::once(&self.ctrl)
            .chain(&self.data)
            .map(S::try_clone)
            .collect()
    }
}

/// Dial a sink listening at `addr` and run the hello exchange: control
/// stream plus `channels` data streams, socket buffers on data sized to
/// `sockbuf` bytes (0 = OS defaults). All streams carry one fresh
/// session token.
pub(crate) fn connect_streams(
    addr: impl ToSocketAddrs + Copy,
    channels: usize,
    sockbuf: usize,
) -> io::Result<SessionStreams> {
    assert!(channels >= 1 && channels <= u16::MAX as usize);
    let token = new_session_token();
    let mut ctrl = TcpStream::connect(addr)?;
    ctrl.set_nodelay(true)?;
    write_hello(&mut ctrl, KIND_CTRL, channels as u16, token)?;
    let mut data = Vec::with_capacity(channels);
    for ch in 0..channels {
        let mut s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        set_sockbuf(&s, sockbuf);
        write_hello(&mut s, KIND_DATA, ch as u16, token)?;
        data.push(s);
    }
    Ok(SessionStreams {
        ctrl,
        data,
        token,
        channels,
    })
}

/// The sink half's accept socket.
pub struct NetListener(TcpListener);

impl NetListener {
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<NetListener> {
        Ok(NetListener(TcpListener::bind(addr)?))
    }

    /// The bound address — hand this to the peer (port 0 binds pick one).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.0.local_addr()
    }

    /// Accept one source's full connection set as raw streams, hellos
    /// consumed — see [`accept_set`].
    pub(crate) fn accept_streams(&self, sockbuf: usize) -> io::Result<SessionStreams> {
        accept_set(|| self.0.accept().map(|(s, _)| s), sockbuf)
    }

    /// Accept one source's full connection set, then read the opening
    /// `SessionRequest` (`read_admissible_request`) so the caller can
    /// size its half before any payload is in flight. Returns the
    /// connected transport and that first control frame — pass it to
    /// [`crate::run_split_sink`] as `first_ctrl`.
    pub fn accept_session(&self, sockbuf: usize) -> io::Result<(SinkTransport, CtrlMsg)> {
        let (streams, first) = read_admissible_request(self.accept_streams(sockbuf)?)?;
        Ok((sink_transport_from_streams(streams)?, first))
    }
}

/// Write one control frame straight to a raw stream (pre-transport:
/// admission replies go out before any backend wraps the session).
pub(crate) fn send_raw_ctrl(s: &mut impl Write, msg: &CtrlMsg) -> io::Result<()> {
    let mut buf = [0u8; FRAME_PREFIX_LEN + CTRL_SLOT_LEN];
    let n = encode_stream_frame(msg, &mut buf);
    s.write_all(&buf[..n])
}

/// Send a terminal admission reply and close the set down politely:
/// shut our write side, then drain until the peer closes (bounded) so
/// an immediate local close can't RST the reply out from under it.
pub(crate) fn reply_and_close<S: SessionSocket>(mut streams: SessionStreams<S>, msg: &CtrlMsg) {
    if send_raw_ctrl(&mut streams.ctrl, msg).is_ok() {
        let _ = streams.ctrl.shutdown(Shutdown::Write);
        shutdown_all(&streams.data, Shutdown::Both);
        // The drain is bounded in *total*, not just per read — a peer
        // trickling bytes cannot pin this thread (rejected sets are not
        // in the abort list, so nothing else would cut them loose).
        let deadline = Instant::now() + Duration::from_millis(500);
        let _ = streams
            .ctrl
            .set_read_timeout(Some(Duration::from_millis(100)));
        let mut sink = [0u8; 256];
        while Instant::now() < deadline {
            match streams.ctrl.read(&mut sink) {
                Ok(n) if n > 0 => {}
                _ => break, // peer closed, timed out, or errored
            }
        }
    }
}

/// The admission ladder's geometry rungs, for every sink: a zero block
/// (before slot math divides by it) or one past `slot_cap`, zero
/// channels, more than `max_channels` or other than the hello `census`,
/// or an empty job. The `SessionReject` such a request earns; `None`
/// when it passes or is no `SessionRequest` (the caller decides that).
pub(crate) fn geometry_reject(
    first: &CtrlMsg,
    census: usize,
    slot_cap: usize,
    max_channels: usize,
) -> Option<CtrlMsg> {
    let &CtrlMsg::SessionRequest {
        session,
        block_size,
        channels,
        total_bytes,
        ..
    } = first
    else {
        return None;
    };
    let channels = channels as usize;
    let reason = if block_size == 0 || block_size > slot_cap as u64 {
        reject_reason::BLOCK_TOO_LARGE
    } else if channels == 0 || channels > max_channels || channels != census || total_bytes == 0 {
        reject_reason::TOO_MANY_CHANNELS
    } else {
        return None;
    };
    Some(CtrlMsg::SessionReject { session, reason })
}

/// A one-shot sink's opening request ([`read_first_request`]), held to
/// the [`geometry_reject`] rungs that need no daemon: the sink sizes its
/// whole config from this frame, so one it cannot serve gets the typed
/// reject, and the caller `InvalidInput` instead of a config that panics.
pub(crate) fn read_admissible_request<S: SessionSocket>(
    mut streams: SessionStreams<S>,
) -> io::Result<(SessionStreams<S>, CtrlMsg)> {
    let first = read_first_request(&mut streams.ctrl)?;
    let Some(reply) = geometry_reject(&first, streams.channels, usize::MAX, usize::MAX) else {
        return Ok((streams, first));
    };
    reply_and_close(streams, &reply);
    let msg = format!("{first:?} over the hello census: {reply:?}");
    Err(io::Error::new(io::ErrorKind::InvalidInput, msg))
}

/// Byte-exact read of one length-prefixed control frame — never reads
/// past the frame, so whatever takes the stream over next (a
/// `FrameDecoder`, an io_uring) starts on a frame boundary.
pub(crate) fn read_one_ctrl_frame(s: &mut impl Read) -> io::Result<CtrlMsg> {
    use rftp_core::wire::{MAX_FRAME_BODY, MIN_FRAME_BODY};
    let mut prefix = [0u8; FRAME_PREFIX_LEN];
    s.read_exact(&mut prefix)?;
    let body_len = u16::from_be_bytes(prefix) as usize;
    if !(MIN_FRAME_BODY..=MAX_FRAME_BODY).contains(&body_len) {
        return Err(proto_err(format!("bad control frame length {body_len}")));
    }
    let mut body = vec![0u8; body_len];
    s.read_exact(&mut body)?;
    CtrlMsg::decode(&body).map_err(|e| proto_err(format!("bad control frame: {e:?}")))
}

/// Read an assembled set's opening `SessionRequest` off its control
/// stream before anything is sized or admitted. Bounded by
/// [`HELLO_TIMEOUT`]: a source that completes its hellos and then goes
/// silent is a timeout error here — it can neither park a one-shot sink
/// nor wedge a daemon's admission.
pub(crate) fn read_first_request<S: SessionSocket>(ctrl: &mut S) -> io::Result<CtrlMsg> {
    ctrl.set_read_timeout(Some(HELLO_TIMEOUT))?;
    let first = read_one_ctrl_frame(ctrl)?;
    ctrl.set_read_timeout(None)?;
    Ok(first)
}

/// One session's connections collected so far, keyed by hello token.
struct PendingSet<S> {
    ctrl: Option<S>,
    /// Channel count announced by the control hello (0 until it lands).
    channels: usize,
    /// Data streams that arrived before the control hello, by index.
    early: Vec<(u16, S)>,
    /// One slot per data stream the control hello opened.
    data: Vec<Option<S>>,
    placed: usize,
    since: Instant,
}

/// Parsed hello fields: (kind, index, token).
type Hello = (u8, u16, u64);

/// Completed hello exchanges, handed from the reader threads back to
/// the assembler's accept-loop side.
struct HelloQueue<S> {
    /// Sockets whose hello parsed cleanly, with the parsed fields.
    ready: Mutex<Vec<(S, Hello)>>,
    /// Reader threads still waiting on a hello (or about to push).
    outstanding: AtomicUsize,
}

/// Cap on concurrently pending hello reads: a flood of silent
/// connections sheds the newcomers instead of spawning threads without
/// bound. Generous next to any legitimate burst (a session opens
/// channels + 1 connections).
const MAX_PENDING_HELLOS: usize = 256;

/// Groups accepted connections into per-session sets by hello token,
/// tolerating the ways a client can fail mid-negotiation: a connection
/// that produces no hello within [`HELLO_TIMEOUT`], hangs up, or speaks
/// a bad hello is dropped; a connection that violates the protocol
/// inside its token (duplicate control, out-of-range or duplicate data
/// index) is dropped *alone* — its set survives, see the trust-model
/// note in the module docs; a partial set older than
/// [`STALE_SESSION_TIMEOUT`] is swept.
///
/// The grouping rule is one for every socket family: the control
/// hello's index is the session's channel count, and it opens
/// [`SessionSocket::data_streams`] data streams — one per channel on
/// TCP, the single notify stream (index 0) on shm.
///
/// Hello reads happen on short-lived reader threads: [`offer`] returns
/// immediately and [`poll`] assembles whatever hellos have landed, so
/// the accept loop that feeds [`offer`] never blocks on a client.
///
/// [`offer`]: StreamAssembler::offer
/// [`poll`]: StreamAssembler::poll
pub(crate) struct StreamAssembler<S = TcpStream> {
    pending: HashMap<u64, PendingSet<S>>,
    completed: Vec<SessionStreams<S>>,
    sockbuf: usize,
    hellos: Arc<HelloQueue<S>>,
}

impl<S: SessionSocket> StreamAssembler<S> {
    pub(crate) fn new(sockbuf: usize) -> StreamAssembler<S> {
        StreamAssembler {
            pending: HashMap::new(),
            completed: Vec::new(),
            sockbuf,
            hellos: Arc::new(HelloQueue {
                ready: Mutex::new(Vec::new()),
                outstanding: AtomicUsize::new(0),
            }),
        }
    }

    /// Feed one just-accepted connection: its hello is read on a
    /// short-lived helper thread (bounded by [`HELLO_TIMEOUT`]) and this
    /// call returns immediately. Collect assembled sets via [`poll`].
    ///
    /// [`poll`]: StreamAssembler::poll
    pub(crate) fn offer(&mut self, s: S) {
        // The reader does a blocking read with a timeout; make sure the
        // socket didn't inherit a listener's nonblocking flag.
        if s.set_nonblocking(false).is_err() {
            return;
        }
        if self.hellos.outstanding.load(Ordering::Acquire) >= MAX_PENDING_HELLOS {
            return; // connection flood: shed the newcomer, keep accepting
        }
        self.hellos.outstanding.fetch_add(1, Ordering::AcqRel);
        let q = Arc::clone(&self.hellos);
        let spawned = std::thread::Builder::new()
            .name("rftp-hello".into())
            .spawn(move || {
                let mut s = s;
                let _ = s.set_read_timeout(Some(HELLO_TIMEOUT));
                let hello = read_hello(&mut s);
                let _ = s.set_read_timeout(None);
                if let Ok(h) = hello {
                    q.ready.lock().push((s, h));
                }
                // Decrement *after* the push: a caller that sees zero
                // outstanding with an empty ready queue knows no hello
                // is still in flight.
                q.outstanding.fetch_sub(1, Ordering::AcqRel);
            })
            .is_ok();
        if !spawned {
            self.hellos.outstanding.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// True while any offered connection's hello is still being read (or
    /// has landed but not yet been [`poll`]ed).
    ///
    /// [`poll`]: StreamAssembler::poll
    pub(crate) fn hellos_pending(&self) -> bool {
        self.hellos.outstanding.load(Ordering::Acquire) > 0 || !self.hellos.ready.lock().is_empty()
    }

    /// Assemble every hello that has landed since the last call and pop
    /// one completed session set, if any. Never blocks.
    pub(crate) fn poll(&mut self) -> Option<SessionStreams<S>> {
        let batch: Vec<(S, Hello)> = {
            let mut ready = self.hellos.ready.lock();
            ready.drain(..).collect()
        };
        for (s, (kind, index, token)) in batch {
            self.assemble(s, kind, index, token);
        }
        self.completed.pop()
    }

    /// Place one hello-bearing connection into its token's pending set.
    /// A violation drops this connection only — the set survives, so a
    /// stranger who learned the token cannot destroy it.
    fn assemble(&mut self, s: S, kind: u8, index: u16, token: u64) {
        let set = self.pending.entry(token).or_insert_with(|| PendingSet {
            ctrl: None,
            channels: 0,
            early: Vec::new(),
            data: Vec::new(),
            placed: 0,
            since: Instant::now(),
        });
        let sockbuf = self.sockbuf;
        match kind {
            KIND_CTRL => {
                if set.ctrl.is_some() || index == 0 || s.tune(KIND_CTRL, sockbuf).is_err() {
                    return; // duplicate or malformed control: drop it alone
                }
                set.channels = index as usize;
                set.data = (0..S::data_streams(set.channels)).map(|_| None).collect();
                set.ctrl = Some(s);
                for (ix, es) in std::mem::take(&mut set.early) {
                    // A misindexed early stream is dropped alone too.
                    if place_data(&mut set.data, ix, es, sockbuf).is_ok() {
                        set.placed += 1;
                    }
                }
            }
            _ => {
                if set.ctrl.is_none() {
                    set.early.push((index, s));
                } else if place_data(&mut set.data, index, s, sockbuf).is_ok() {
                    set.placed += 1;
                }
            }
        }
        if set.ctrl.is_some() && set.placed == set.data.len() {
            let set = self.pending.remove(&token).unwrap();
            self.completed.push(SessionStreams {
                ctrl: set.ctrl.expect("complete set has control"),
                data: set
                    .data
                    .into_iter()
                    .map(|s| s.expect("complete set has every data stream"))
                    .collect(),
                token,
                channels: set.channels,
            });
        }
    }

    /// Drop partial sets older than [`STALE_SESSION_TIMEOUT`] — their
    /// sources died mid-negotiation and will never finish.
    pub(crate) fn sweep_stale(&mut self, now: Instant) {
        self.pending
            .retain(|_, set| now.duration_since(set.since) < STALE_SESSION_TIMEOUT);
    }
}

fn place_data<S: SessionSocket>(
    slots: &mut [Option<S>],
    index: u16,
    s: S,
    sockbuf: usize,
) -> io::Result<()> {
    let ix = index as usize;
    if ix >= slots.len() {
        return Err(proto_err(format!(
            "data stream index {ix} out of range for {} data streams",
            slots.len()
        )));
    }
    if slots[ix].is_some() {
        return Err(proto_err(format!("duplicate data stream index {ix}")));
    }
    s.tune(KIND_DATA, sockbuf)?;
    slots[ix] = Some(s);
    Ok(())
}

// ---------------------------------------------------------------------------
// Accept policy
// ---------------------------------------------------------------------------

/// What a failed `accept` means for the loop that called it.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum AcceptVerdict {
    /// Non-blocking listener, empty queue: nothing to take right now.
    Drained,
    /// Not the listener's fault — a signal, or a stranger's reset
    /// between SYN and accept (routine under load): accept again.
    Retry,
    /// Out of file descriptors during a burst: shed load and come back
    /// rather than taking down the sink (and its in-flight sessions).
    BackOff,
    /// The listener itself is broken.
    Fatal,
}

pub(super) fn accept_verdict(e: &io::Error) -> AcceptVerdict {
    // ENFILE/EMFILE have no stable `io::ErrorKind`; match the raw errno
    // (same values on Linux and the BSDs).
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    match e.kind() {
        io::ErrorKind::WouldBlock => AcceptVerdict::Drained,
        io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted => AcceptVerdict::Retry,
        _ if matches!(e.raw_os_error(), Some(ENFILE | EMFILE)) => AcceptVerdict::BackOff,
        _ => AcceptVerdict::Fatal,
    }
}

/// The accept policy of every listener, one-shot or daemon, blocking or
/// not: take one connection and [`offer`] it to `asm` — which hands the
/// hello read to a helper thread and returns at once, so a silent
/// client cannot stall the caller. `Ok(true)`: call again, there may be
/// more; `Ok(false)`: nothing to take right now (queue drained, or out
/// of descriptors and backed off 50 ms); `Err`: the listener is broken.
///
/// [`offer`]: StreamAssembler::offer
pub(crate) fn accept_into<S: SessionSocket>(
    accept: impl FnOnce() -> io::Result<S>,
    asm: &mut StreamAssembler<S>,
) -> io::Result<bool> {
    match accept() {
        Ok(s) => {
            asm.offer(s);
            Ok(true)
        }
        Err(e) => match accept_verdict(&e) {
            AcceptVerdict::Drained => Ok(false),
            AcceptVerdict::Retry => Ok(true),
            AcceptVerdict::BackOff => {
                std::thread::sleep(Duration::from_millis(50));
                Ok(false)
            }
            AcceptVerdict::Fatal => Err(e),
        },
    }
}

/// A one-shot sink's accept loop: one source's full connection set
/// (control + the data streams its hello opened, in any arrival order),
/// hellos consumed. Connections that stall or die during the hello, and
/// partial sets whose source gave up, are dropped — the loop keeps
/// accepting until some source completes a set.
pub(crate) fn accept_set<S: SessionSocket>(
    mut accept: impl FnMut() -> io::Result<S>,
    sockbuf: usize,
) -> io::Result<SessionStreams<S>> {
    let mut asm = StreamAssembler::new(sockbuf);
    loop {
        accept_into(&mut accept, &mut asm)?;
        // Drain the hello reads this connection may have unblocked
        // before parking in accept again; a set completes here the
        // moment its last hello lands.
        loop {
            if let Some(done) = asm.poll() {
                return Ok(done);
            }
            if !asm.hellos_pending() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        asm.sweep_stale(Instant::now());
    }
}
