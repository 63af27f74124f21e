//! TCP backend for the split pipeline: one stream per link.
//!
//! The source [`connect_source`]s a control stream plus one data stream
//! per channel; the sink's [`NetListener`] accepts them and hands back a
//! connected [`SinkTransport`](crate::SinkTransport). Each stream opens
//! with a 16-byte hello naming its role and its session, so the N+1
//! connections can land in any order — and, under the daemon,
//! interleaved with other sessions' connections:
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
//! session carry the same value, so `StreamAssembler` can assemble
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
//! mid-negotiation is swept after `STALE_SESSION_TIMEOUT` — a dying
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
//! header and wire image are one iovec, and one `writev` per sender
//! drain carries every frame the drain queued on the stream (the
//! doorbell, [`DataTx::kick`](crate::transport::DataTx::kick)). The
//! receiver reads the header, then reads the wire image directly into
//! the slot the header names — the socket read *is* the placement.
//!
//! Control streams run `TCP_NODELAY` (credit and ack latency is the
//! credit loop's round-trip). Data streams get their socket buffers sized
//! to the channel's share of the flight window (`SO_SNDBUF`/`SO_RCVBUF`),
//! because the default buffer is far below `block_size × depth` for the
//! block sizes the paper studies.
//!
//! The module is cut by concern: `link` holds the link endpoints (the
//! control framer and the data links each side runs), `door` the
//! session front door (socket family trait, hello assembly, admission
//! reads and accept policy).

mod door;
mod link;
#[cfg(test)]
mod tests;

pub use door::NetListener;
pub(crate) use door::{
    accept_into, accept_set, connect_streams, geometry_reject, read_admissible_request,
    read_first_request, reply_and_close, shutdown_all, SessionSocket, SessionStreams,
    StreamAssembler,
};
#[cfg(test)]
pub(crate) use door::{read_one_ctrl_frame, send_raw_ctrl};
pub use link::connect_source;
pub(crate) use link::{sink_transport_from_streams, NetCtrlRx, NetCtrlTx};

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

pub(crate) const HELLO_MAGIC: u32 = 0x5246_5450; // "RFTP"
pub(crate) const HELLO_LEN: usize = 16;
pub(crate) const KIND_CTRL: u8 = 0;
pub(crate) const KIND_DATA: u8 = 1;

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
/// i.e. including its 2× bookkeeping doubling.
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
    /// The kernel doubles the set value on read-back, so "honored" means
    /// effective ≥ 2× requested.
    pub fn clamped(&self) -> bool {
        let floor = self.requested.saturating_mul(2);
        self.sndbuf < floor || self.rcvbuf < floor
    }
}

/// Size both socket buffers to `bytes` (0 leaves the OS defaults) and
/// read back what the kernel actually granted. Uses raw `setsockopt`/
/// `getsockopt` — the std API has no knob for this, and the kernel
/// clamps to `net.core.{w,r}mem_max` on its own, so set failures are
/// advice we can ignore; the read-back is how we notice the clamp.
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
        // SAFETY: `val` and `len` are live locals, and `len` tells the
        // kernel `val`'s size.
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
    // SAFETY: `p` points at the live local `val`, `n` bytes long, which
    // the kernel only reads.
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

/// Probe what the kernel would actually grant for a `bytes`-sized
/// socket-buffer request: set and read back on a throwaway loopback
/// connection subject to the same `net.core.{w,r}mem_max` clamps as
/// the real data sockets. `Ok(None)` when `bytes == 0` (OS defaults,
/// nothing to compare).
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

/// The default socket-buffer size for a transfer: each data stream
/// buffers its channel's share of one pool of blocks in each direction,
/// so the flight window fits in the kernel without tuning.
pub fn default_sockbuf(block_size: usize, channel_depth: usize) -> usize {
    (block_size + 64).saturating_mul(channel_depth.max(2))
}
