//! Pluggable transport under the split (two-endpoint) pipeline.
//!
//! The split pipeline ([`crate::split`]) runs the source and sink halves
//! of a transfer as independent endpoints that talk *only* through this
//! layer: one control link carrying length-prefixed Fig. 7(a) frames in
//! both directions, plus N data links — one per parallel data channel —
//! carrying bulk frames ([`DataFrameHeader`] + wire image) one way,
//! source to sink. The layer has two backends:
//!
//! * **channels** ([`channel_transport`]) — in-process crossbeam
//!   channels, the loopback of the suite and the transport under
//!   [`crate::run_live`]. Control rides real encoded frame bytes; a data
//!   frame carries the *index* of the source's pinned block, and the
//!   receiver copies once from that block into the credited slot — the
//!   one-sided RDMA WRITE analogue (see [`channel_transport`]).
//! * **TCP** ([`crate::net`]) — real stream sockets, one per link, so
//!   the two halves can run as separate OS processes on separate hosts.
//!
//! Send sides are `&self` (internally synchronized): the dispatcher and
//! the retransmit watchdog share each data link, and several source
//! threads share the control link. Receive sides are `&mut self` —
//! exactly one thread drains each link.

use crate::store::{BlockPool, SlotBuf};
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use rftp_core::wire::{encode_stream_frame, CtrlMsg, DataFrameHeader, FrameDecoder};
use rftp_core::{CTRL_SLOT_LEN, FRAME_PREFIX_LEN};
use std::io;
use std::sync::{Arc, OnceLock, Weak};

/// The pinned block pool as a transport sees it: slot index → locked
/// slot buffer, shared between the pipeline and any in-flight sends.
pub type BufPool = Arc<BlockPool>;

/// The pool-registration hook of a [`SourceTransport`].
pub type RegisterFn = Box<dyn Fn(&BufPool) -> io::Result<()> + Send>;

/// Sending side of the control link. Implementations serialize whole
/// frames internally — a frame from one thread never interleaves with
/// another's.
pub trait CtrlTx: Send + Sync {
    fn send(&self, msg: &CtrlMsg) -> io::Result<()>;
}

/// Receiving side of the control link. `Ok(None)` is clean end-of-stream
/// (the peer closed at a frame boundary); a torn frame is an error.
pub trait CtrlRx: Send {
    fn recv(&mut self) -> io::Result<Option<CtrlMsg>>;
}

/// Sending side of one data link: ships one block as a frame header plus
/// the block's wire image (payload header + payload). Frames leave a
/// link in the order they were handed to it, whichever of the calls
/// below handed them over.
pub trait DataTx: Send + Sync {
    /// Ship a borrowed wire image, behind anything already queued on
    /// the link. The bytes are not referenced after the call returns
    /// (written, or copied).
    fn send(&self, hdr: DataFrameHeader, wire: &[u8]) -> io::Result<()>;

    /// Ship one block straight from its pinned pool slot. The default
    /// locks the slot and sends its wire image synchronously. A backend
    /// that holds the registered pool overrides this to *queue* the
    /// block by reference until [`DataTx::kick`] — legal because the
    /// block stays pinned until its ack retires it, no ack can come
    /// before the frame is written, and a retransmit rewrites
    /// byte-identical contents.
    fn send_block(
        &self,
        hdr: DataFrameHeader,
        bufs: &[Mutex<SlotBuf>],
        block: u32,
    ) -> io::Result<()> {
        let buf = bufs[block as usize].lock();
        self.send(hdr, &buf[..hdr.wire_len()])
    }

    /// [`DataTx::send`] of a copy the caller hands over (a WAN delay
    /// line's); a backend that would copy a borrowed image keeps it.
    fn send_owned(&self, hdr: DataFrameHeader, wire: Box<[u8]>) -> io::Result<()> {
        self.send(hdr, &wire)
    }

    /// Write everything [`DataTx::send_block`] queued since the last
    /// kick — called once per dispatcher drain, so a queueing backend
    /// pays one kernel crossing per *batch* of blocks (the doorbell):
    /// one `io_uring_enter` on the ring, one `writev` per link on TCP.
    /// A backend that writes in every call has nothing queued; for it
    /// this is a no-op.
    fn kick(&self) -> io::Result<()> {
        Ok(())
    }
}

/// Receiving side of one data link. Split in two so placement is
/// zero-copy: [`DataRx::recv_header`] yields the frame header naming the
/// credited slot, then exactly one of [`DataRx::recv_wire`] (read the
/// wire image straight into that slot's buffer) or
/// [`DataRx::discard_wire`] (duplicate arrival — consume the bytes
/// without placing them) must follow.
pub trait DataRx: Send {
    /// Next frame's header; `Ok(None)` at clean end-of-stream.
    fn recv_header(&mut self) -> io::Result<Option<DataFrameHeader>>;
    /// Read the frame's wire image into `buf` (exactly `hdr.wire_len()`
    /// bytes).
    fn recv_wire(&mut self, buf: &mut [u8]) -> io::Result<()>;
    /// Consume and drop the frame's wire image.
    fn discard_wire(&mut self, wire_len: usize) -> io::Result<()>;
}

/// Ring-level counters a completion-based (io_uring) backend reports
/// alongside its [`crate::pipeline::LiveReport`] — the syscall shape the
/// backend exists to improve, recorded instead of eyeballed. Stream
/// backends report `None`; on the shared daemon driver the counters are
/// ring totals across every session the driver served.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UringStats {
    /// `io_uring_enter` calls on the sink/source ring.
    pub enters: u64,
    /// CQEs reaped. The sink spends ≈ 2 per block: a header read and
    /// a `READ_FIXED` of the wire image into the credited slot.
    pub cqes: u64,
    /// Always 0 — the sink has no multishot receive. Kept only because
    /// the repo benchmark reads it.
    pub multishot_rearms: u64,
    /// Always 0 — the sink has no multishot receive. Kept only because
    /// the repo benchmark reads it.
    pub pbuf_exhausted: u64,
    /// `IORING_REGISTER_BUFFERS` calls on this ring. A daemon's shared
    /// ring registers the whole arena exactly once at startup; this
    /// staying at 1 across admissions is a regression guard against
    /// per-session re-registration.
    pub registrations: u64,
}

/// The source half's endpoints. `data` is shared (`Arc`) because the
/// dispatcher and the retransmit watchdog both send on the data links.
pub struct SourceTransport {
    pub ctrl_tx: Arc<dyn CtrlTx>,
    pub ctrl_rx: Box<dyn CtrlRx>,
    pub data: Arc<Vec<Box<dyn DataTx>>>,
    /// Hand the pinned source block pool to the transport before the
    /// transfer starts. A completion-based backend registers the slots
    /// as fixed buffers (the MR-registration analogue — the kernel pins
    /// and maps them once instead of per operation) so
    /// [`DataTx::send_block`] can reference them by index; the channel
    /// backend keeps it to carry block indices, the TCP backend to queue
    /// blocks by index until the kick.
    pub register: RegisterFn,
    /// Threads this transport runs for the data path beyond the
    /// pipeline's own (0 for the channel and TCP backends — the
    /// dispatcher's send or kick *is* the wire write; 1 for a
    /// completion-based backend's ring reaper). Reported so the
    /// O(channels) → O(1) claim is checkable from a bench run.
    pub transport_threads: usize,
    /// Half-close the source→sink direction of every link (control and
    /// data). Called once, after the sink's end-of-stream: the sink has
    /// closed its side by then, so this only lets go of the links.
    pub shutdown_write: Box<dyn Fn() + Send>,
    /// Tear every link down (error paths only): any peer or local thread
    /// blocked on a link errors out instead of hanging. Shared so the
    /// first failing thread can release all the others.
    pub abort: Arc<dyn Fn() + Send + Sync>,
}

/// The sink half's endpoints.
pub struct SinkTransport {
    pub ctrl_tx: Arc<dyn CtrlTx>,
    pub ctrl_rx: Box<dyn CtrlRx>,
    pub data: Vec<Box<dyn DataRx>>,
    /// Tear every link down, releasing the blocked readers: on an
    /// error, and on success once the handler is done — the last ack is
    /// already written and leaves ahead of the control stream's
    /// end-of-stream, so the sink never waits for the source to hang up.
    /// Shared so any failing sink thread can pull it.
    pub abort: Arc<dyn Fn() + Send + Sync>,
}

// ---------------------------------------------------------------------------
// Channel backend
// ---------------------------------------------------------------------------

/// One encoded control frame on a channel: the length-prefixed stream
/// bytes, exactly as a byte-stream transport would carry them.
type CtrlBytes = Vec<u8>;

/// The closing handle for a [`Closable`]: `take()`-ing the sender out
/// drops it, and the receiving side sees end-of-stream once every
/// sender is gone.
type Closer<T> = Arc<Mutex<Option<Sender<T>>>>;

/// A `Sender` whose hangup can be triggered from the shutdown hook via
/// its [`Closer`].
struct Closable<T>(Closer<T>);

impl<T> Closable<T> {
    fn new(tx: Sender<T>) -> (Closable<T>, Closer<T>) {
        let inner = Arc::new(Mutex::new(Some(tx)));
        (Closable(inner.clone()), inner)
    }

    fn send(&self, value: T) -> io::Result<()> {
        let guard = self.0.lock();
        let tx = guard
            .as_ref()
            .ok_or_else(|| io::Error::new(io::ErrorKind::BrokenPipe, "link closed"))?;
        tx.send(value)
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer gone"))
    }
}

struct ChanCtrlTx(Closable<CtrlBytes>);

impl CtrlTx for ChanCtrlTx {
    fn send(&self, msg: &CtrlMsg) -> io::Result<()> {
        let mut buf = [0u8; FRAME_PREFIX_LEN + CTRL_SLOT_LEN];
        let n = encode_stream_frame(msg, &mut buf);
        self.0.send(buf[..n].to_vec())
    }
}

struct ChanCtrlRx {
    rx: Receiver<CtrlBytes>,
    dec: FrameDecoder,
}

impl CtrlRx for ChanCtrlRx {
    fn recv(&mut self) -> io::Result<Option<CtrlMsg>> {
        loop {
            if let Some(msg) = self
                .dec
                .next_frame()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
            {
                return Ok(Some(msg));
            }
            match self.rx.recv() {
                Ok(bytes) => self.dec.push(&bytes),
                Err(_) => {
                    return if self.dec.pending_bytes() == 0 {
                        Ok(None)
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "control link closed mid-frame",
                        ))
                    };
                }
            }
        }
    }
}

/// The payload of one data frame on a channel link.
enum ChanWire {
    /// A private copy of the wire image, for [`DataTx::send`] callers
    /// that hold bytes rather than a registered pool.
    Bytes(Box<[u8]>),
    /// Index of the source's pinned block holding the wire image.
    Block(u32),
}

/// The source pool the `register` hook pinned, shared by every data
/// link of one transport (and, in process, by both ends of each link).
pub(crate) type Registered = Arc<OnceLock<BufPool>>;

struct ChanDataTx {
    link: Closable<(DataFrameHeader, ChanWire)>,
    pool: Registered,
}

impl DataTx for ChanDataTx {
    fn send(&self, hdr: DataFrameHeader, wire: &[u8]) -> io::Result<()> {
        debug_assert_eq!(wire.len(), hdr.wire_len());
        self.link.send((hdr, ChanWire::Bytes(wire.into())))
    }

    fn send_owned(&self, hdr: DataFrameHeader, wire: Box<[u8]>) -> io::Result<()> {
        self.link.send((hdr, ChanWire::Bytes(wire)))
    }

    /// The WRITE analogue: with the pool registered, only the block
    /// index crosses the link and the receiver does the single copy,
    /// source block → credited slot. Sound for the reason the io_uring
    /// `send_block` is: the block stays pinned until its ack retires it,
    /// and an ack is only ever sent after the copy. A frame that is
    /// still queued when its block has been retired and reused is a
    /// retransmit whose sequence the sink already claimed, so the sink
    /// discards it ([`DataRx::discard_wire`]) without reading the block.
    fn send_block(
        &self,
        hdr: DataFrameHeader,
        bufs: &[Mutex<SlotBuf>],
        block: u32,
    ) -> io::Result<()> {
        match self.pool.get() {
            Some(pool) => {
                debug_assert!(
                    std::ptr::eq(pool.as_ptr(), bufs.as_ptr()),
                    "send_block from a pool other than the registered one"
                );
                self.link.send((hdr, ChanWire::Block(block)))
            }
            None => {
                let buf = bufs[block as usize].lock();
                self.send(hdr, &buf[..hdr.wire_len()])
            }
        }
    }
}

struct ChanDataRx {
    rx: Receiver<(DataFrameHeader, ChanWire)>,
    pool: Registered,
    pending: Option<ChanWire>,
}

impl DataRx for ChanDataRx {
    fn recv_header(&mut self) -> io::Result<Option<DataFrameHeader>> {
        debug_assert!(self.pending.is_none(), "previous frame not consumed");
        match self.rx.recv() {
            Ok((hdr, wire)) => {
                self.pending = Some(wire);
                Ok(Some(hdr))
            }
            Err(_) => Ok(None),
        }
    }

    fn recv_wire(&mut self, buf: &mut [u8]) -> io::Result<()> {
        match self.pending.take().expect("recv_wire without a header") {
            ChanWire::Bytes(wire) => buf[..wire.len()].copy_from_slice(&wire),
            ChanWire::Block(block) => {
                let pool = self
                    .pool
                    .get()
                    .expect("block frame implies a registered pool");
                let src = pool[block as usize].lock();
                buf.copy_from_slice(&src[..buf.len()]);
            }
        }
        Ok(())
    }

    fn discard_wire(&mut self, _wire_len: usize) -> io::Result<()> {
        self.pending.take().expect("discard_wire without a header");
        Ok(())
    }
}

/// Build a connected in-process transport pair: `channels` data links of
/// `depth` frames each, control links deep enough that coalesced control
/// traffic never blocks on the link itself.
///
/// The source's `register` hook keeps the block pool, which makes
/// [`DataTx::send_block`] one-copy: the link carries block indices and
/// the sink end copies straight out of the pinned source block.
pub fn channel_transport(channels: usize, depth: usize) -> (SourceTransport, SinkTransport) {
    let (c_s2k_tx, c_s2k_rx) = bounded::<CtrlBytes>(1024);
    let (c_k2s_tx, c_k2s_rx) = bounded::<CtrlBytes>(1024);
    let (ctrl_tx, ctrl_closer) = Closable::new(c_s2k_tx);
    let (k2s_tx, k2s_closer) = Closable::new(c_k2s_tx);
    let mut data_tx: Vec<Box<dyn DataTx>> = Vec::with_capacity(channels);
    let mut data_rx: Vec<Box<dyn DataRx>> = Vec::with_capacity(channels);
    let mut data_closers = Vec::with_capacity(channels);
    let pool = Registered::default();
    for _ in 0..channels {
        let (tx, rx) = bounded(depth);
        let (link, closer) = Closable::new(tx);
        data_closers.push(closer);
        data_tx.push(Box::new(ChanDataTx {
            link,
            pool: pool.clone(),
        }));
        data_rx.push(Box::new(ChanDataRx {
            rx,
            pool: pool.clone(),
            pending: None,
        }));
    }
    // Closing the source→sink senders is both the graceful write
    // shutdown and the source's abort: the sink reads end-of-stream
    // either way, and a channel has no half-open state to preserve.
    let close_s2k = {
        let ctrl_closer = ctrl_closer.clone();
        let data_closers = data_closers.clone();
        move || {
            ctrl_closer.lock().take();
            for c in &data_closers {
                c.lock().take();
            }
        }
    };
    let s2k_ctrl = Arc::downgrade(&ctrl_closer);
    let s2k_data: Vec<_> = data_closers.iter().map(Arc::downgrade).collect();
    let source = SourceTransport {
        ctrl_tx: Arc::new(ChanCtrlTx(ctrl_tx)),
        ctrl_rx: Box::new(ChanCtrlRx {
            rx: c_k2s_rx,
            dec: FrameDecoder::new(),
        }),
        data: Arc::new(data_tx),
        register: Box::new(move |bufs| {
            pool.set(bufs.clone())
                .map_err(|_| io::Error::other("a pool is already registered"))
        }),
        transport_threads: 0,
        shutdown_write: Box::new(close_s2k.clone()),
        abort: Arc::new(close_s2k),
    };
    let sink = SinkTransport {
        ctrl_tx: Arc::new(ChanCtrlTx(k2s_tx)),
        ctrl_rx: Box::new(ChanCtrlRx {
            rx: c_s2k_rx,
            dec: FrameDecoder::new(),
        }),
        data: data_rx,
        // Close both directions: the sink's readers see end-of-stream
        // once the frames already queued are drained, and the source's
        // control reader once it has read every frame the sink sent.
        // The source→sink senders are held weakly, so a source that
        // drops its transport still hangs those links up by itself.
        abort: Arc::new(move || {
            k2s_closer.lock().take();
            if let Some(c) = s2k_ctrl.upgrade() {
                c.lock().take();
            }
            for c in s2k_data.iter().filter_map(Weak::upgrade) {
                c.lock().take();
            }
        }),
    };
    (source, sink)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_ctrl_roundtrip_and_eof() {
        let (src, mut snk) = channel_transport(1, 4);
        src.ctrl_tx
            .send(&CtrlMsg::MrRequest { session: 3 })
            .unwrap();
        assert_eq!(
            snk.ctrl_rx.recv().unwrap(),
            Some(CtrlMsg::MrRequest { session: 3 })
        );
        (src.shutdown_write)();
        assert_eq!(snk.ctrl_rx.recv().unwrap(), None);
        assert!(src
            .ctrl_tx
            .send(&CtrlMsg::MrRequest { session: 3 })
            .is_err());
    }

    #[test]
    fn channel_data_place_and_discard() {
        let (src, mut snk) = channel_transport(2, 4);
        let hdr = DataFrameHeader {
            session: 1,
            seq: 0,
            slot: 2,
            len: 8,
        };
        let wire: Vec<u8> = (0..hdr.wire_len() as u8).collect();
        src.data[0].send(hdr, &wire).unwrap();
        src.data[0].send(hdr, &wire).unwrap();
        let got = snk.data[0].recv_header().unwrap().unwrap();
        assert_eq!(got, hdr);
        let mut buf = vec![0u8; got.wire_len()];
        snk.data[0].recv_wire(&mut buf).unwrap();
        assert_eq!(buf, wire);
        let got = snk.data[0].recv_header().unwrap().unwrap();
        snk.data[0].discard_wire(got.wire_len()).unwrap();
        (src.shutdown_write)();
        assert!(snk.data[0].recv_header().unwrap().is_none());
        assert!(snk.data[1].recv_header().unwrap().is_none());
    }

    /// The pinned path's invariant: a first arrival copies byte-exactly
    /// out of the registered block, and a duplicate whose block has since
    /// been reused is discarded without that block ever being read.
    #[test]
    fn registered_send_block_copies_once_and_discard_never_reads_the_block() {
        let (src, mut snk) = channel_transport(1, 4);
        let pool: BufPool = Arc::new(BlockPool::new(2, 64));
        (src.register)(&pool).unwrap();
        assert!((src.register)(&pool).is_err(), "one pool per transport");

        let hdr = DataFrameHeader {
            session: 1,
            seq: 5,
            slot: 0,
            len: 64,
        };
        let fill = |salt: u8| {
            let mut buf = pool[1].lock();
            for (i, b) in buf[..hdr.wire_len()].iter_mut().enumerate() {
                *b = (i as u8) ^ salt;
            }
        };
        // Sequence 5 goes out twice from block 1: first send + retransmit.
        fill(0xA5);
        src.data[0].send_block(hdr, &pool, 1).unwrap();
        src.data[0].send_block(hdr, &pool, 1).unwrap();

        let got = snk.data[0].recv_header().unwrap().unwrap();
        assert_eq!(got, hdr);
        let mut placed = vec![0u8; got.wire_len()];
        snk.data[0].recv_wire(&mut placed).unwrap();
        let want: Vec<u8> = (0..hdr.wire_len()).map(|i| (i as u8) ^ 0xA5).collect();
        assert_eq!(placed, want, "first arrival must be byte-exact");

        // The ack retired block 1 and a loader is refilling it for a newer
        // sequence: it holds the block's lock. Discarding the stale frame
        // must complete regardless — i.e. without touching the block.
        fill(0x3C);
        let reuse = pool[1].lock();
        let got = snk.data[0].recv_header().unwrap().unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let discarder = std::thread::spawn(move || {
            snk.data[0].discard_wire(got.wire_len()).unwrap();
            done_tx.send(()).unwrap();
        });
        let finished = done_rx.recv_timeout(std::time::Duration::from_secs(10));
        drop(reuse);
        discarder.join().unwrap();
        assert!(finished.is_ok(), "discard_wire blocked on the reused block");
    }
}
