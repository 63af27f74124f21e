//! Link endpoints: the control framer both sides speak and the TCP data
//! links, the source's queued `writev` sender and the sink's
//! header-first reader.

use super::door::{connect_streams, send_raw_ctrl, shutdown_all, SessionStreams};
use super::{proto_err, read_exact_or_eof, retry_interrupted};
use crate::store::SlotBuf;
use crate::transport::{
    BufPool, CtrlRx, CtrlTx, DataRx, DataTx, Landing, SinkTransport, SourceTransport,
};
use parking_lot::Mutex;
use rftp_core::wire::{CtrlMsg, DataFrameHeader, FrameDecoder, DATA_FRAME_HEADER_LEN};
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::{Arc, OnceLock};

/// Whole-frame control sender over any byte stream (TCP for the
/// network backends, `UnixStream` for shm). Generic so the shm control
/// socket reuses the exact frame encoding — control-plane bytes are
/// identical across transports.
pub(crate) struct NetCtrlTx<S = TcpStream>(pub(crate) Mutex<S>);

impl<S: Write + Send> CtrlTx for NetCtrlTx<S> {
    fn send(&self, msg: &CtrlMsg) -> io::Result<()> {
        // The lock scopes the whole frame: a frame from one thread never
        // interleaves with another's.
        send_raw_ctrl(&mut *self.0.lock(), msg)
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

    /// The stream, for a reader that takes a preamble off its front
    /// before the first frame (the shm window descriptor).
    pub(crate) fn get_ref(&self) -> &S {
        &self.stream
    }

    /// Bytes of the first frame that such a preamble reader already took
    /// off the stream.
    pub(crate) fn feed(&mut self, head: &[u8]) {
        self.dec.push(head);
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
pub(super) struct Link {
    pub(super) stream: TcpStream,
    /// `(block, frame length)`: the frame header is already in the
    /// slot's dead space, so each frame is the slot's first `len`
    /// framed bytes — one iovec.
    pub(super) queue: Vec<(u32, usize)>,
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

/// The source pool the `register` hook pinned, shared by every data
/// link of one transport.
pub(super) type Registered = Arc<OnceLock<BufPool>>;

/// A data stream's send side. With the source pool registered,
/// [`DataTx::send_block`] queues and [`DataTx::kick`] writes the queue
/// with one `writev` — one syscall per sender drain, not per block.
/// A borrowed image ([`DataTx::send`]) is written at once, behind the
/// queue: a WAN
/// delay line hands each frame over at the instant it is due, and
/// holding it for a kick would move it off that instant.
pub(super) struct NetDataTx {
    pub(super) link: Mutex<Link>,
    pool: Registered,
}

impl NetDataTx {
    pub(super) fn new(stream: TcpStream, pool: Registered) -> NetDataTx {
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
        // A block is sent by reference only once the `register` hook
        // has pinned its pool.
        let pool = (self.pool.get()).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "send_block with no registered pool",
            )
        })?;
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

    /// `read_exact`, with each `read`'s bytes checked the moment it
    /// returns: the kernel just copied them on this core, so the check
    /// reads them from cache, and it adds no syscall.
    fn recv_wire_checked(&mut self, buf: &mut [u8], land: &mut Landing) -> io::Result<()> {
        let mut got = 0;
        while got < buf.len() {
            let n = retry_interrupted(|| self.stream.read(&mut buf[got..]))?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed mid-frame",
                ));
            }
            got += n;
            land.advance(buf, got);
        }
        Ok(())
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
                .map_err(|_| io::Error::other("a pool is already registered"))?;
            Ok(None)
        }),
        transport_threads: 0,
        shutdown_write: Box::new(move || shutdown_all(&shutdown_handles, Shutdown::Write)),
        abort: Arc::new(move || shutdown_all(&handles, Shutdown::Both)),
    })
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
