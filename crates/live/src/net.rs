//! TCP backend for the split pipeline: one stream per link.
//!
//! The source [`connect_source`]s a control stream plus one data stream
//! per channel; the sink's [`NetListener`] accepts them and hands back a
//! connected [`SinkTransport`]. Each stream opens with a 16-byte hello
//! naming its role and its session, so the N+1 connections can land in
//! any order — and, under the daemon, interleaved with other sessions'
//! connections:
//!
//! ```text
//! offset  0..4    magic  "RFTP" (0x5246_5450, big-endian)
//!         4       kind   0 = control, 1 = data
//!         5       pad    0
//!         6..8    index  control: channel count; data: channel index (BE)
//!         8..16   token  client-chosen random session token (BE)
//! ```
//!
//! The token groups one source's connection set: all N+1 streams of a
//! session carry the same value, so [`StreamAssembler`] can assemble
//! many sessions' streams concurrently from one accept loop. The hello
//! is transport preamble, not protocol — the control and data frames
//! after it are unchanged.
//!
//! This module is also the **session front door of every socket
//! family**: the assembler, the bounded read of the opening
//! `SessionRequest` (`read_first_request`) and the accept policy
//! (`accept_into`) are generic over `SessionSocket`, which
//! [`crate::shm`] implements for unix sockets — an shm session is the
//! same hello grouping with one data stream (the notify stream, index
//! 0) whatever channel count its control hello announces.
//!
//! Assembly is *tolerant*: hellos are read on short-lived reader
//! threads under a deadline — never on the accept thread, so a silent
//! connection parks one helper, not the listener — a connection that
//! stalls, hangs up, or speaks garbage is dropped without disturbing
//! the accept loop, and a partial connection set whose source died
//! mid-negotiation is swept after [`STALE_SESSION_TIMEOUT`] — a dying
//! client can no longer wedge the listener.
//!
//! **Trust model.** The hello token is client-chosen and
//! unauthenticated: it exists to *group* one source's connections, not
//! to authenticate them. The assembler therefore treats a protocol
//! violation as a defect of the offending connection only — a duplicate
//! control hello or a bad data index drops that connection alone, so a
//! third party who learns a token in flight cannot destroy a victim's
//! pending set. What tokens cannot prevent is injection: a peer that
//! knows an unfinished session's token and an unfilled channel index
//! could contribute a stream to that set. Deployments needing stronger
//! isolation should run the listener on a trusted network (the paper's
//! setting) or behind an authenticating tunnel.
//!
//! After the hello the stream carries exactly one thing for its whole
//! life: length-prefixed control frames (both directions) on the control
//! stream, or `[DataFrameHeader | wire image]` records (source → sink
//! only) on a data stream.
//!
//! The mapping of "RDMA WRITE from a pinned buffer" onto a socket is a
//! vectored write straight from the slot buffer — no staging copy at the
//! sender. The 16-byte frame header goes into the slot's dead space, so
//! header and wire image are one iovec, and one `writev` per dispatcher
//! drain carries every frame the drain queued on the stream (the
//! doorbell, [`DataTx::kick`]). The receiver reads the header, then reads
//! the wire image directly into the slot the header names — the socket
//! read *is* the placement.
//!
//! Control streams run `TCP_NODELAY` (credit and ack latency is the
//! credit loop's round-trip). Data streams get their socket buffers sized
//! to the channel's share of the flight window (`SO_SNDBUF`/`SO_RCVBUF`),
//! because the default buffer is far below `block_size × depth` for the
//! block sizes the paper studies.

use crate::store::SlotBuf;
use crate::transport::{
    BufPool, CtrlRx, CtrlTx, DataRx, DataTx, Registered, SinkTransport, SourceTransport,
};
use parking_lot::Mutex;
use rftp_core::wire::{
    encode_stream_frame, reject_reason, CtrlMsg, DataFrameHeader, FrameDecoder, CTRL_SLOT_LEN,
    DATA_FRAME_HEADER_LEN, FRAME_PREFIX_LEN,
};
use std::collections::HashMap;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub(crate) const HELLO_MAGIC: u32 = 0x5246_5450; // "RFTP"
pub(crate) const HELLO_LEN: usize = 16;
pub(crate) const KIND_CTRL: u8 = 0;
pub(crate) const KIND_DATA: u8 = 1;

/// How long the listener waits for a just-accepted connection to
/// produce its hello before dropping it.
pub(crate) const HELLO_TIMEOUT: Duration = Duration::from_secs(2);

/// How long a partial connection set may sit in the assembler before it
/// is presumed orphaned (its source died mid-negotiation) and swept.
pub(crate) const STALE_SESSION_TIMEOUT: Duration = Duration::from_secs(10);

pub(crate) fn proto_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A fresh random session token for one connection set. Uses the
/// standard library's per-process random hasher seed — unpredictable
/// enough to keep concurrent clients from colliding, with no RNG dep.
pub(crate) fn new_session_token() -> u64 {
    use std::hash::{BuildHasher, Hash, Hasher};
    let mut h = std::collections::hash_map::RandomState::new().build_hasher();
    Instant::now().hash(&mut h);
    std::process::id().hash(&mut h);
    h.finish()
}

pub(crate) fn write_hello(s: &mut impl Write, kind: u8, index: u16, token: u64) -> io::Result<()> {
    let mut hello = [0u8; HELLO_LEN];
    hello[..4].copy_from_slice(&HELLO_MAGIC.to_be_bytes());
    hello[4] = kind;
    hello[6..8].copy_from_slice(&index.to_be_bytes());
    hello[8..16].copy_from_slice(&token.to_be_bytes());
    s.write_all(&hello)
}

pub(crate) fn read_hello(s: &mut impl Read) -> io::Result<(u8, u16, u64)> {
    let mut hello = [0u8; HELLO_LEN];
    s.read_exact(&mut hello)?;
    if hello[..4] != HELLO_MAGIC.to_be_bytes() {
        return Err(proto_err("connection is not an rftp stream"));
    }
    let kind = hello[4];
    if kind != KIND_CTRL && kind != KIND_DATA {
        return Err(proto_err(format!("unknown stream kind {kind}")));
    }
    let index = u16::from_be_bytes([hello[6], hello[7]]);
    let token = u64::from_be_bytes(hello[8..16].try_into().unwrap());
    Ok((kind, index, token))
}

// ---------------------------------------------------------------------------
// Socket tuning
// ---------------------------------------------------------------------------

/// Requested-vs-effective socket buffer sizes. The kernel silently
/// clamps `SO_SNDBUF`/`SO_RCVBUF` to `net.core.{w,r}mem_max`, so the
/// value a tuning flag *asked for* and the value the socket actually
/// *got* can differ wildly — this reports both so tuning runs stop
/// lying. Note the effective values are as the kernel reports them,
/// i.e. including its 2× bookkeeping doubling on Linux.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SockbufEffective {
    /// Bytes the caller requested for each direction.
    pub requested: usize,
    /// `SO_SNDBUF` read back after setting.
    pub sndbuf: usize,
    /// `SO_RCVBUF` read back after setting.
    pub rcvbuf: usize,
}

impl SockbufEffective {
    /// Whether the kernel clamped either direction below the request.
    /// Linux doubles the set value on read-back, so "honored" means
    /// effective ≥ 2× requested (conservatively, ≥ requested elsewhere).
    pub fn clamped(&self) -> bool {
        let floor = if cfg!(target_os = "linux") {
            self.requested.saturating_mul(2)
        } else {
            self.requested
        };
        self.sndbuf < floor || self.rcvbuf < floor
    }
}

/// Size both socket buffers to `bytes` (0 leaves the OS defaults) and
/// read back what the kernel actually granted. Uses raw `setsockopt`/
/// `getsockopt` — the std API has no knob for this, and the kernel
/// clamps to `net.core.{w,r}mem_max` on its own, so set failures are
/// advice we can ignore; the read-back is how we notice the clamp.
#[cfg(target_os = "linux")]
fn set_sockbuf(s: &impl std::os::fd::AsRawFd, bytes: usize) -> Option<SockbufEffective> {
    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    const SO_RCVBUF: i32 = 8;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const core::ffi::c_void,
            optlen: u32,
        ) -> i32;
        fn getsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *mut core::ffi::c_void,
            optlen: *mut u32,
        ) -> i32;
    }
    fn read_back(fd: i32, optname: i32) -> usize {
        let mut val: i32 = 0;
        let mut len = std::mem::size_of::<i32>() as u32;
        let rc = unsafe {
            getsockopt(
                fd,
                SOL_SOCKET,
                optname,
                &mut val as *mut i32 as *mut core::ffi::c_void,
                &mut len,
            )
        };
        if rc == 0 {
            val.max(0) as usize
        } else {
            0
        }
    }
    if bytes == 0 {
        return None;
    }
    let val = bytes.min(i32::MAX as usize) as i32;
    let p = &val as *const i32 as *const core::ffi::c_void;
    let n = std::mem::size_of::<i32>() as u32;
    let fd = s.as_raw_fd();
    unsafe {
        setsockopt(fd, SOL_SOCKET, SO_SNDBUF, p, n);
        setsockopt(fd, SOL_SOCKET, SO_RCVBUF, p, n);
    }
    Some(SockbufEffective {
        requested: bytes,
        sndbuf: read_back(fd, SO_SNDBUF),
        rcvbuf: read_back(fd, SO_RCVBUF),
    })
}

#[cfg(not(target_os = "linux"))]
fn set_sockbuf(_s: &impl std::os::fd::AsRawFd, _bytes: usize) -> Option<SockbufEffective> {
    None
}

/// Probe what the kernel would actually grant for a `bytes`-sized
/// socket-buffer request: set and read back on a throwaway loopback
/// connection subject to the same `net.core.{w,r}mem_max` clamps as
/// the real data sockets. `Ok(None)` when `bytes == 0` (OS defaults,
/// nothing to compare) or off Linux.
pub fn probe_sockbuf(bytes: usize) -> io::Result<Option<SockbufEffective>> {
    if bytes == 0 {
        return Ok(None);
    }
    let l = TcpListener::bind(("127.0.0.1", 0))?;
    let s = TcpStream::connect(l.local_addr()?)?;
    Ok(set_sockbuf(&s, bytes))
}

pub(crate) fn retry_interrupted<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    loop {
        match op() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            other => return other,
        }
    }
}

/// `read_exact`, except a clean end-of-stream *before the first byte*
/// returns `Ok(false)` instead of an error — the frame boundary is the
/// only place a peer may hang up.
pub(crate) fn read_exact_or_eof(s: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    let mut off = 0;
    while off < buf.len() {
        let n = retry_interrupted(|| s.read(&mut buf[off..]))?;
        if n == 0 {
            return if off == 0 {
                Ok(false)
            } else {
                Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed mid-frame",
                ))
            };
        }
        off += n;
    }
    Ok(true)
}

// ---------------------------------------------------------------------------
// Link endpoints
// ---------------------------------------------------------------------------

/// Whole-frame control sender over any byte stream (TCP for the
/// network backends, `UnixStream` for shm). Generic so the shm control
/// socket reuses the exact frame encoding — control-plane bytes are
/// identical across transports.
pub(crate) struct NetCtrlTx<S = TcpStream>(pub(crate) Mutex<S>);

impl<S: Write + Send> CtrlTx for NetCtrlTx<S> {
    fn send(&self, msg: &CtrlMsg) -> io::Result<()> {
        let mut buf = [0u8; FRAME_PREFIX_LEN + CTRL_SLOT_LEN];
        let n = encode_stream_frame(msg, &mut buf);
        // The lock scopes the whole frame: concurrent senders (dispatcher
        // MrRequests vs the control thread) never interleave bytes.
        retry_interrupted(|| self.0.lock().write_all(&buf[..n]))
    }
}

pub(crate) struct NetCtrlRx<S = TcpStream> {
    stream: S,
    dec: FrameDecoder,
    buf: Vec<u8>,
}

impl<S: Read + Send> NetCtrlRx<S> {
    pub(crate) fn new(stream: S) -> NetCtrlRx<S> {
        NetCtrlRx {
            stream,
            dec: FrameDecoder::new(),
            buf: vec![0u8; 4096],
        }
    }
}

impl<S: Read + Send> CtrlRx for NetCtrlRx<S> {
    fn recv(&mut self) -> io::Result<Option<CtrlMsg>> {
        loop {
            if let Some(msg) = self
                .dec
                .next_frame()
                .map_err(|e| proto_err(format!("bad control frame: {e:?}")))?
            {
                return Ok(Some(msg));
            }
            let n = retry_interrupted(|| self.stream.read(&mut self.buf))?;
            if n == 0 {
                return if self.dec.pending_bytes() == 0 {
                    Ok(None)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "control stream closed mid-frame",
                    ))
                };
            }
            self.dec.push(&self.buf[..n]);
        }
    }
}

/// The most iovecs one `writev` takes (Linux `IOV_MAX`): a queue that
/// reaches it is written at once rather than at the next kick.
const IOV_MAX: usize = 1024;

/// One data stream and the blocks queued on it for the next
/// [`DataTx::kick`], in send order.
struct Link {
    stream: TcpStream,
    /// `(block, frame length)`: the frame header is already in the
    /// slot's dead space, so each frame is the slot's first `len`
    /// framed bytes — one iovec.
    queue: Vec<(u32, usize)>,
}

impl Link {
    /// Write every queued frame, then `tail`, in one vectored write
    /// (more only on a short write). The queued blocks' slots are locked
    /// for the write in ascending index order — every flush on every
    /// link takes them in that order, so two never deadlock — and a
    /// block queued twice is locked once. The queue is empty afterwards,
    /// written or not: an error leaves the link dead anyway.
    fn flush(&mut self, pool: Option<&BufPool>, tail: &[IoSlice<'_>]) -> io::Result<()> {
        let Link { stream, queue } = self;
        let written = {
            let mut blocks: Vec<u32> = queue.iter().map(|&(block, _)| block).collect();
            blocks.sort_unstable();
            blocks.dedup();
            let mut guards: Vec<_> = match pool {
                Some(pool) => blocks.iter().map(|&b| pool[b as usize].lock()).collect(),
                None => Vec::new(),
            };
            let frames: Vec<&[u8]> = guards
                .iter_mut()
                .map(|g| &*g.framed_mut(DATA_FRAME_HEADER_LEN))
                .collect();
            let mut iov = Vec::with_capacity(queue.len() + tail.len());
            for (block, len) in queue.iter() {
                let at = blocks.binary_search(block).expect("queued block locked");
                iov.push(IoSlice::new(&frames[at][..*len]));
            }
            iov.extend_from_slice(tail);
            write_all_vectored(stream, &mut iov)
        };
        queue.clear();
        written
    }
}

/// `write_all` over iovecs: `writev` until every byte is out, moving
/// past whatever a short write took.
fn write_all_vectored(s: &mut impl Write, mut iov: &mut [IoSlice<'_>]) -> io::Result<()> {
    while !iov.is_empty() {
        let n = retry_interrupted(|| s.write_vectored(iov))?;
        if n == 0 {
            return Err(io::ErrorKind::WriteZero.into());
        }
        IoSlice::advance_slices(&mut iov, n);
    }
    Ok(())
}

/// A data stream's send side. With the source pool registered,
/// [`DataTx::send_block`] queues and [`DataTx::kick`] writes the queue
/// with one `writev` — one syscall per dispatcher drain, not per block.
/// A borrowed or owned image ([`DataTx::send`], and through it
/// [`DataTx::send_owned`]) is written at once, behind the queue: a WAN
/// delay line hands each frame over at the instant it is due, and
/// holding it for a kick would move it off that instant. Unregistered,
/// every call writes.
struct NetDataTx {
    link: Mutex<Link>,
    pool: Registered,
}

impl NetDataTx {
    fn new(stream: TcpStream, pool: Registered) -> NetDataTx {
        let link = Link {
            stream,
            queue: Vec::new(),
        };
        NetDataTx {
            link: Mutex::new(link),
            pool,
        }
    }
}

impl DataTx for NetDataTx {
    fn send(&self, hdr: DataFrameHeader, wire: &[u8]) -> io::Result<()> {
        debug_assert_eq!(wire.len(), hdr.wire_len());
        let mut encoded = [0u8; DATA_FRAME_HEADER_LEN];
        hdr.encode(&mut encoded);
        let tail = [IoSlice::new(&encoded), IoSlice::new(wire)];
        self.link.lock().flush(self.pool.get(), &tail)
    }

    /// Write the frame header into the slot's dead space, as the
    /// io_uring source does, and queue the block by index: header and
    /// wire image are then one contiguous iovec of the pinned slot. The
    /// link is locked before the slot, as in a flush.
    fn send_block(
        &self,
        hdr: DataFrameHeader,
        bufs: &[Mutex<SlotBuf>],
        block: u32,
    ) -> io::Result<()> {
        let Some(pool) = self.pool.get() else {
            let buf = bufs[block as usize].lock();
            return self.send(hdr, &buf[..hdr.wire_len()]);
        };
        debug_assert!(
            std::ptr::eq(pool.as_ptr(), bufs.as_ptr()),
            "send_block from a pool other than the registered one"
        );
        let mut link = self.link.lock();
        let mut slot = bufs[block as usize].lock();
        hdr.encode(slot.framed_mut(DATA_FRAME_HEADER_LEN));
        drop(slot); // a full queue's flush below locks it again
        let len = DATA_FRAME_HEADER_LEN + hdr.wire_len();
        link.queue.push((block, len));
        if link.queue.len() < IOV_MAX {
            return Ok(());
        }
        link.flush(Some(pool), &[])
    }

    fn kick(&self) -> io::Result<()> {
        self.link.lock().flush(self.pool.get(), &[])
    }
}

struct NetDataRx {
    stream: TcpStream,
    scratch: Vec<u8>,
}

impl DataRx for NetDataRx {
    fn recv_header(&mut self) -> io::Result<Option<DataFrameHeader>> {
        let mut hbuf = [0u8; DATA_FRAME_HEADER_LEN];
        if !read_exact_or_eof(&mut self.stream, &mut hbuf)? {
            return Ok(None);
        }
        DataFrameHeader::decode(&hbuf)
            .map(Some)
            .map_err(|e| proto_err(format!("bad data frame header: {e:?}")))
    }

    fn recv_wire(&mut self, buf: &mut [u8]) -> io::Result<()> {
        retry_interrupted(|| self.stream.read_exact(buf))
    }

    fn discard_wire(&mut self, wire_len: usize) -> io::Result<()> {
        if self.scratch.is_empty() {
            self.scratch.resize(64 * 1024, 0);
        }
        let mut left = wire_len;
        while left > 0 {
            let take = left.min(self.scratch.len());
            retry_interrupted(|| self.stream.read_exact(&mut self.scratch[..take]))?;
            left -= take;
        }
        Ok(())
    }
}

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

/// Connect the source half to a sink listening at `addr`: control stream
/// plus `channels` data streams, hellos sent, `TCP_NODELAY` on control,
/// socket buffers on data sized to `sockbuf` bytes (0 = OS defaults).
pub fn connect_source(
    addr: impl ToSocketAddrs + Copy,
    channels: usize,
    sockbuf: usize,
) -> io::Result<SourceTransport> {
    let streams = connect_streams(addr, channels, sockbuf)?;
    let handles = Arc::new(streams.handles()?);
    let pool = Registered::default();
    let data: Vec<Box<dyn DataTx>> = streams
        .data
        .into_iter()
        .map(|s| Box::new(NetDataTx::new(s, pool.clone())) as Box<dyn DataTx>)
        .collect();
    let ctrl_rd = streams.ctrl.try_clone()?;
    let shutdown_handles = handles.clone();
    Ok(SourceTransport {
        ctrl_tx: Arc::new(NetCtrlTx(Mutex::new(streams.ctrl))),
        ctrl_rx: Box::new(NetCtrlRx::new(ctrl_rd)),
        data: Arc::new(data),
        register: Box::new(move |bufs| {
            pool.set(bufs.clone())
                .map_err(|_| io::Error::other("a pool is already registered"))
        }),
        transport_threads: 0,
        shutdown_write: Box::new(move || shutdown_all(&shutdown_handles, Shutdown::Write)),
        abort: Arc::new(move || shutdown_all(&handles, Shutdown::Both)),
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
    /// `SessionRequest` ([`read_admissible_request`]) so the caller can
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

/// Wrap an assembled connection set as a TCP [`SinkTransport`] — the
/// tail of [`NetListener::accept_session`], callable on its own by the
/// daemon (whose admission ladder reads the `SessionRequest` itself).
pub(crate) fn sink_transport_from_streams(streams: SessionStreams) -> io::Result<SinkTransport> {
    let handles = streams.handles()?;
    let ctrl_wr = streams.ctrl.try_clone()?;
    let data: Vec<Box<dyn DataRx>> = streams
        .data
        .into_iter()
        .map(|stream| {
            Box::new(NetDataRx {
                stream,
                scratch: Vec::new(),
            }) as Box<dyn DataRx>
        })
        .collect();
    Ok(SinkTransport {
        ctrl_tx: Arc::new(NetCtrlTx(Mutex::new(ctrl_wr))),
        ctrl_rx: Box::new(NetCtrlRx::new(streams.ctrl)),
        data,
        abort: Arc::new(move || shutdown_all(&handles, Shutdown::Both)),
    })
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
enum AcceptVerdict {
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

fn accept_verdict(e: &io::Error) -> AcceptVerdict {
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

/// The default socket-buffer size for a transfer: each data stream
/// buffers its channel's share of one pool of blocks in each direction,
/// so the flight window fits in the kernel without tuning.
pub fn default_sockbuf(block_size: usize, channel_depth: usize) -> usize {
    (block_size + 64).saturating_mul(channel_depth.max(2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_roundtrip_over_loopback() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            write_hello(&mut s, KIND_DATA, 5, 0xFEED).unwrap();
            s
        });
        let (mut a, _) = l.accept().unwrap();
        assert_eq!(read_hello(&mut a).unwrap(), (KIND_DATA, 5, 0xFEED));
        drop(t.join().unwrap());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // A full hello's worth of bytes (16) that is not rftp.
            s.write_all(b"GET / HTTP/1.1\r\n").unwrap();
            s
        });
        let (mut a, _) = l.accept().unwrap();
        assert!(read_hello(&mut a).is_err());
        drop(t.join().unwrap());
    }

    /// Assemble until a set completes, or every offered hello has landed
    /// and been polled without completing one.
    fn settle<S: SessionSocket>(asm: &mut StreamAssembler<S>) -> Option<SessionStreams<S>> {
        loop {
            if let Some(s) = asm.poll() {
                return Some(s);
            }
            if !asm.hellos_pending() {
                return None;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A way in, as the assembler tests see it: `accept` takes the next
    /// queued connection off a listener, `connect` dials it. Both
    /// kernels complete a connect into the backlog, so the tests dial
    /// and accept from one thread.
    struct Door<S> {
        accept: Box<dyn Fn() -> S>,
        connect: Box<dyn Fn() -> S>,
    }

    impl<S: SessionSocket> Door<S> {
        /// Dial, say `hello`, and offer the accepted end to `asm`.
        /// Returns the client end — dropping it hangs up.
        fn dial(&self, asm: &mut StreamAssembler<S>, kind: u8, index: u16, token: u64) -> S {
            let mut c = (self.connect)();
            write_hello(&mut c, kind, index, token).unwrap();
            asm.offer((self.accept)());
            c
        }
    }

    fn tcp_door() -> Door<TcpStream> {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        Door {
            accept: Box::new(move || l.accept().unwrap().0),
            connect: Box::new(move || TcpStream::connect(addr).unwrap()),
        }
    }

    #[cfg(target_os = "linux")]
    fn unix_door(tag: &str) -> Door<std::os::unix::net::UnixStream> {
        let name = format!("rftp-door-{tag}-{}.sock", std::process::id());
        let l = crate::shm::ShmListener::bind(std::env::temp_dir().join(name)).unwrap();
        let path = l.path().to_path_buf();
        Door {
            accept: Box::new(move || l.accept().unwrap()),
            connect: Box::new(move || std::os::unix::net::UnixStream::connect(&path).unwrap()),
        }
    }

    /// A connection that never sends its hello must park a helper
    /// thread, not the accept path: `offer` returns immediately and a
    /// real session assembles while the silent one still pends.
    #[test]
    fn silent_connection_does_not_block_assembly() {
        silent_connection(tcp_door());
        #[cfg(target_os = "linux")]
        silent_connection(unix_door("silent"));
    }

    fn silent_connection<S: SessionSocket>(door: Door<S>) {
        let mut asm = StreamAssembler::new(0);
        let _silent = (door.connect)();
        let s = (door.accept)();
        let t0 = Instant::now();
        asm.offer(s);
        assert!(
            t0.elapsed() < Duration::from_millis(250),
            "offer blocked on the hello read: {:?}",
            t0.elapsed()
        );

        let _ctrl = door.dial(&mut asm, KIND_CTRL, 1, 0x1234);
        let _data = door.dial(&mut asm, KIND_DATA, 0, 0x1234);
        let set =
            settle(&mut asm).expect("session must assemble while the silent connection pends");
        assert_eq!(set.token, 0x1234);
        assert_eq!((set.channels, set.data.len()), (1, 1));
        assert!(
            t0.elapsed() < HELLO_TIMEOUT,
            "assembly waited out the silent connection's timeout"
        );
    }

    /// Tokens are unauthenticated, so a third party that learns one must
    /// not be able to destroy the owner's pending set: the duplicate
    /// control hello is dropped alone and the victim still assembles.
    #[test]
    fn duplicate_control_hello_drops_offender_not_the_victim_set() {
        duplicate_control(tcp_door());
        #[cfg(target_os = "linux")]
        duplicate_control(unix_door("dupctrl"));
    }

    fn duplicate_control<S: SessionSocket>(door: Door<S>) {
        let mut asm = StreamAssembler::new(0);
        const TOKEN: u64 = 0xDEAD_BEEF;
        let _victim_ctrl = door.dial(&mut asm, KIND_CTRL, 1, TOKEN);
        assert!(settle(&mut asm).is_none(), "set is still partial");

        // The attacker replays a control hello under the stolen token.
        let _attacker = door.dial(&mut asm, KIND_CTRL, 1, TOKEN);
        assert!(
            settle(&mut asm).is_none(),
            "duplicate control dropped alone"
        );

        // The victim's data stream still completes its set.
        let _victim_data = door.dial(&mut asm, KIND_DATA, 0, TOKEN);
        let set = settle(&mut asm).expect("victim's set must survive the attacker's duplicate");
        assert_eq!(set.token, TOKEN);
        assert_eq!(set.data.len(), 1);
    }

    /// Data hellos may land before their control hello: they wait, and
    /// when the control hello announces two channels each is placed or
    /// dropped *alone* — TCP places both indices; shm has exactly one
    /// data stream (the notify stream, index 0), so its index 1 is hung
    /// up on and the pair still assembles.
    #[test]
    fn early_data_stream_waits_for_its_control_hello() {
        early_data(tcp_door());
        #[cfg(target_os = "linux")]
        early_data(unix_door("early"));
    }

    fn early_data<S: SessionSocket>(door: Door<S>) {
        let mut asm = StreamAssembler::new(0);
        const TOKEN: u64 = 0xEA21;
        let _d0 = door.dial(&mut asm, KIND_DATA, 0, TOKEN);
        let mut d1 = door.dial(&mut asm, KIND_DATA, 1, TOKEN);
        assert!(settle(&mut asm).is_none(), "no control hello yet");

        let _ctrl = door.dial(&mut asm, KIND_CTRL, 2, TOKEN);
        let set = settle(&mut asm).expect("control hello completes the set");
        assert_eq!(set.channels, 2, "the announced count rides with the set");
        assert_eq!(set.data.len(), S::data_streams(2));
        d1.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let hung_up = matches!(d1.read(&mut [0u8; 1]), Ok(0));
        assert_eq!(hung_up, S::data_streams(2) < 2, "index 1 placed or dropped");
    }

    /// The accept policy as a table: which `accept` errors mean "queue
    /// empty", "try again", "shed load and come back" and "the listener
    /// is broken", and what `accept_into` does about each — the one-shot
    /// listeners used to `?` every one of these and die on a stranger's
    /// reset.
    #[test]
    fn accept_policy_classifies_every_error() {
        use io::ErrorKind::*;
        let table = [
            (io::Error::from(WouldBlock), AcceptVerdict::Drained),
            (io::Error::from(Interrupted), AcceptVerdict::Retry),
            (io::Error::from(ConnectionAborted), AcceptVerdict::Retry),
            (io::Error::from_raw_os_error(23), AcceptVerdict::BackOff), // ENFILE
            (io::Error::from_raw_os_error(24), AcceptVerdict::BackOff), // EMFILE
            (io::Error::from(PermissionDenied), AcceptVerdict::Fatal),
            (io::Error::from_raw_os_error(9), AcceptVerdict::Fatal), // EBADF
        ];
        let mut asm = StreamAssembler::<TcpStream>::new(0);
        for (e, want) in table {
            assert_eq!(accept_verdict(&e), want, "{e}");
            let again = accept_into(|| Err(e), &mut asm).ok();
            assert_eq!(
                again,
                (want != AcceptVerdict::Fatal).then_some(want == AcceptVerdict::Retry)
            );
        }
        assert!(!asm.hellos_pending(), "an error offers nothing");
    }

    /// A data link's send side over a real loopback stream, the peer
    /// end it writes to, and the pool it sends from: `blocks` slots of
    /// `block` bytes, each wire image a pattern salted by its index.
    /// With `registered` the pool is the link's registered one, as the
    /// `register` hook leaves it.
    fn doorbell_link(
        blocks: u32,
        block: usize,
        registered: bool,
    ) -> (NetDataTx, TcpStream, BufPool) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let tx = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (peer, _) = l.accept().unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let pool: BufPool = Arc::new(crate::store::BlockPool::new(blocks, block));
        for (i, slot) in pool.iter().enumerate() {
            for (j, b) in slot.lock().iter_mut().enumerate() {
                *b = (j as u8) ^ (i as u8).wrapping_mul(37);
            }
        }
        let reg = Registered::default();
        if registered {
            assert!(reg.set(pool.clone()).is_ok());
        }
        (NetDataTx::new(tx, reg), peer, pool)
    }

    /// The header a block is sent under in these tests: its own index as
    /// sequence and slot, the whole block as payload.
    fn block_hdr(block: u32, len: usize) -> DataFrameHeader {
        DataFrameHeader {
            session: 1,
            seq: block,
            slot: block,
            len: len as u32,
        }
    }

    /// The bytes one frame puts on the wire: header, then wire image.
    fn frame_bytes(hdr: DataFrameHeader, wire: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; DATA_FRAME_HEADER_LEN];
        hdr.encode(&mut out);
        out.extend_from_slice(&wire[..hdr.wire_len()]);
        out
    }

    fn block_frame(pool: &BufPool, block: u32, len: usize) -> Vec<u8> {
        frame_bytes(block_hdr(block, len), &pool[block as usize].lock())
    }

    fn read_n(peer: &mut TcpStream, n: usize) -> Vec<u8> {
        let mut got = vec![0u8; n];
        peer.read_exact(&mut got).unwrap();
        got
    }

    /// The doorbell contract on TCP: queued blocks put nothing on the
    /// wire, and one kick delivers every one of them byte-exact and in
    /// queue order — which is not the block order the flush locks the
    /// slots in.
    #[test]
    fn queued_blocks_leave_on_the_kick_in_queue_order() {
        const LEN: usize = 4096;
        let (tx, mut peer, pool) = doorbell_link(8, LEN, true);
        let mut want = Vec::new();
        // Block 2 twice, as a retransmit queued behind its first send:
        // locked once, sent twice.
        for b in [5u32, 2, 7, 0, 3, 2] {
            tx.send_block(block_hdr(b, LEN), &pool, b).unwrap();
            want.extend(block_frame(&pool, b, LEN));
        }

        peer.set_nonblocking(true).unwrap();
        let early = peer.read(&mut [0u8; 1]);
        assert!(
            matches!(&early, Err(e) if e.kind() == io::ErrorKind::WouldBlock),
            "bytes on the wire before the kick: {early:?}"
        );
        peer.set_nonblocking(false).unwrap();

        tx.kick().unwrap();
        assert_eq!(read_n(&mut peer, want.len()), want);
        tx.kick().unwrap(); // an empty queue writes nothing
        peer.set_nonblocking(true).unwrap();
        assert!(peer.read(&mut [0u8; 1]).is_err(), "nothing after the batch");
    }

    /// A 1 MiB batch against small socket buffers, drained by a reader
    /// that takes at least 512 ms over it. A blocking `writev` returns
    /// short only when its write timeout expires after some progress,
    /// so the 200 ms timeout makes the kernel cut the batch at least
    /// twice, and the flush must resume each time exactly where it
    /// stopped.
    #[test]
    fn a_batch_larger_than_the_send_buffer_survives_short_writes() {
        const LEN: usize = 16 << 10;
        const BLOCKS: u32 = 64;
        let (tx, mut peer, pool) = doorbell_link(BLOCKS, LEN, true);
        {
            let link = tx.link.lock();
            set_sockbuf(&link.stream, 8 << 10);
            set_sockbuf(&peer, 64 << 10);
            let timeout = Some(Duration::from_millis(200));
            link.stream.set_write_timeout(timeout).unwrap();
        }
        let mut want = Vec::new();
        for b in (0..BLOCKS).rev() {
            tx.send_block(block_hdr(b, LEN), &pool, b).unwrap();
            want.extend(block_frame(&pool, b, LEN));
        }
        let total = want.len();
        let reader = std::thread::spawn(move || {
            let mut got = Vec::with_capacity(total);
            let mut chunk = [0u8; 4096];
            while got.len() < total {
                match peer.read(&mut chunk).unwrap() {
                    0 => break,
                    n => got.extend_from_slice(&chunk[..n]),
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            got
        });
        tx.kick().unwrap();
        tx.link.lock().stream.shutdown(Shutdown::Write).unwrap();
        let got = reader.join().unwrap();
        assert_eq!(got.len(), total, "bytes lost or duplicated in the flush");
        assert!(got == want, "the batch arrived out of order or torn");
    }

    /// `send` of a borrowed image and `send_owned` of a handed-over one
    /// write at once, behind everything already queued on their link —
    /// channel order holds without a kick.
    #[test]
    fn send_after_queued_blocks_keeps_channel_order() {
        const LEN: usize = 1024;
        let (tx, mut peer, pool) = doorbell_link(4, LEN, true);
        let mut want = Vec::new();
        for b in [3u32, 1, 2] {
            tx.send_block(block_hdr(b, LEN), &pool, b).unwrap();
            want.extend(block_frame(&pool, b, LEN));
        }
        let hdr = block_hdr(77, 300);
        let wire: Vec<u8> = (0..hdr.wire_len()).map(|i| (i * 7) as u8).collect();
        tx.send(hdr, &wire).unwrap();
        want.extend(frame_bytes(hdr, &wire));
        assert_eq!(read_n(&mut peer, want.len()), want);

        want.clear();
        tx.send_block(block_hdr(0, LEN), &pool, 0).unwrap();
        want.extend(block_frame(&pool, 0, LEN));
        tx.send_owned(hdr, wire.clone().into()).unwrap();
        want.extend(frame_bytes(hdr, &wire));
        assert_eq!(read_n(&mut peer, want.len()), want);
    }

    /// With no pool registered there is nothing to queue by index: every
    /// call writes through, as the channel backend's does.
    #[test]
    fn an_unregistered_link_writes_through() {
        const LEN: usize = 2048;
        let (tx, mut peer, pool) = doorbell_link(2, LEN, false);
        tx.send_block(block_hdr(1, LEN), &pool, 1).unwrap();
        let want = block_frame(&pool, 1, LEN);
        assert_eq!(read_n(&mut peer, want.len()), want);
        let hdr = block_hdr(9, 64);
        let wire: Vec<u8> = (0..hdr.wire_len()).map(|i| i as u8).collect();
        tx.send_owned(hdr, wire.clone().into()).unwrap();
        let want = frame_bytes(hdr, &wire);
        assert_eq!(read_n(&mut peer, want.len()), want);
    }

    #[test]
    fn transport_pair_connects_and_frames_flow() {
        let listener = NetListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let src = std::thread::spawn(move || {
            let t = connect_source(addr, 2, 0).unwrap();
            t.ctrl_tx
                .send(&CtrlMsg::SessionRequest {
                    session: 1,
                    block_size: 4096,
                    channels: 2,
                    total_bytes: 8192,
                    notify_imm: true,
                })
                .unwrap();
            let hdr = DataFrameHeader {
                session: 1,
                seq: 7,
                slot: 3,
                len: 32,
            };
            let wire: Vec<u8> = (0..hdr.wire_len() as u8).map(|b| b ^ 0x5A).collect();
            t.data[1].send(hdr, &wire).unwrap();
            (t, hdr, wire)
        });
        let (mut sink, first) = listener.accept_session(0).unwrap();
        assert!(matches!(first, CtrlMsg::SessionRequest { channels: 2, .. }));
        let (src_t, hdr, wire) = src.join().unwrap();
        let got = sink.data[1].recv_header().unwrap().unwrap();
        assert_eq!(got, hdr);
        let mut buf = vec![0u8; got.wire_len()];
        sink.data[1].recv_wire(&mut buf).unwrap();
        assert_eq!(buf, wire);
        (src_t.shutdown_write)();
        assert!(sink.data[0].recv_header().unwrap().is_none());
        assert!(sink.data[1].recv_header().unwrap().is_none());
        assert!(sink.ctrl_rx.recv().unwrap().is_none());
    }
}
