//! Source half: every data link's writes through one ring, one reaper
//! thread.

use super::ring::{probe, transfer_ring, Ring, RING_ENTRIES};
use super::sys::*;
use crate::net::{connect_streams, shutdown_all, NetCtrlRx, NetCtrlTx, SessionStreams};
use crate::store::SlotBuf;
use crate::transport::{BufPool, DataTx, SourceTransport};
use parking_lot::Mutex;
use rftp_core::wire::{DataFrameHeader, DATA_FRAME_HEADER_LEN};
use std::collections::VecDeque;
use std::io;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// `buf_index` sentinel for [`WriteOp`]s that carry their own copy
/// (the plain [`DataTx::send`] path) instead of a registered slot.
pub(super) const OWNED_BUF: u16 = u16::MAX;
/// `user_data` of the wakeup NOP the teardown path submits.
pub(super) const UD_NOP: u64 = u64::MAX;

/// One queued data-frame write: current wire position plus what is
/// left, so short-write continuations just advance and resubmit.
struct WriteOp {
    addr: u64,
    remaining: u32,
    buf_index: u16,
    /// Keep-alive for plain `send` copies (no registered buffer);
    /// `addr` points into it. Registered-slot ops carry `None` —
    /// the pool pin (block stays busy until its ack) is the
    /// lifetime guarantee.
    _own: Option<Box<[u8]>>,
}

/// Per-channel send state: at most one write in flight per socket
/// (two concurrent writes to one stream would interleave bytes and
/// corrupt the framing); the rest queue here in order.
struct Chan {
    fd: i32,
    cur: Option<WriteOp>,
    queue: VecDeque<WriteOp>,
}

struct SubState {
    chans: Vec<Chan>,
    /// SQEs pushed since the last doorbell.
    queued: u32,
    /// Reap scratch — completions are drained under this lock (by
    /// the doorbell or the reaper, whoever gets there first).
    cq_scratch: Vec<Cqe>,
}

/// Everything the N channel handles, the reaper, and the teardown
/// guard share.
struct SrcRing {
    ring: Ring,
    sub: Mutex<SubState>,
    /// CQEs submitted but not yet reaped (the teardown NOP
    /// included) — the reaper exits only at zero, so no kernel op
    /// can outlive the ring mappings.
    inflight: AtomicI64,
    shutdown: AtomicBool,
    dead: AtomicBool,
    err: Mutex<Option<String>>,
    /// The data sockets the ring writes to (owners of the fds in
    /// [`Chan`]); the failure path shuts them down to flush
    /// in-flight ops out as errors.
    socks: Vec<TcpStream>,
}

impl SrcRing {
    fn stored_err(&self) -> io::Error {
        let msg = self
            .err
            .lock()
            .clone()
            .unwrap_or_else(|| "io_uring transport failed".into());
        io::Error::new(io::ErrorKind::BrokenPipe, msg)
    }

    /// First-error-wins: record, mark dead, and shut the data links
    /// so every in-flight op completes (as an error) promptly.
    fn fail(&self, msg: String) {
        {
            let mut slot = self.err.lock();
            if slot.is_none() {
                *slot = Some(msg);
            }
        }
        self.dead.store(true, Ordering::Release);
        shutdown_all(&self.socks, Shutdown::Both);
    }

    fn push_sqe_locked(&self, st: &mut SubState, sqe: &Sqe) -> io::Result<()> {
        while !self.ring.sq_push(sqe) {
            // SQ full: flush what is queued to make room.
            self.ring.submit(st.queued)?;
            st.queued = 0;
        }
        st.queued += 1;
        self.inflight.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Queue the SQE for `chans[ch].cur` (which must be set).
    fn push_write_locked(&self, st: &mut SubState, ch: usize) -> io::Result<()> {
        let chan = &st.chans[ch];
        let op = chan.cur.as_ref().expect("push_write without a current op");
        let mut sqe = Sqe {
            fd: chan.fd,
            addr: op.addr,
            len: op.remaining,
            user_data: ch as u64,
            ..Default::default()
        };
        if op.buf_index == OWNED_BUF {
            sqe.opcode = IORING_OP_WRITE;
        } else {
            sqe.opcode = IORING_OP_WRITE_FIXED;
            sqe.buf_index = op.buf_index;
        }
        self.push_sqe_locked(st, &sqe)
    }

    /// Queue one frame on channel `ch`, keeping the one-in-flight-
    /// per-socket invariant.
    fn queue_op(&self, ch: usize, op: WriteOp) -> io::Result<()> {
        if self.dead.load(Ordering::Acquire) {
            return Err(self.stored_err());
        }
        let mut st = self.sub.lock();
        if st.chans[ch].cur.is_some() {
            st.chans[ch].queue.push_back(op);
            Ok(())
        } else {
            st.chans[ch].cur = Some(op);
            self.push_write_locked(&mut st, ch)
        }
    }

    /// Reap and retire every available completion: finished writes
    /// pop the next queued frame, short writes continue where they
    /// left off, errors trip the first-error-wins latch. Callers
    /// hold the submission lock — it doubles as the CQ consumer
    /// lock, so the doorbell and the reaper can both drain.
    fn drain_cqes_locked(&self, st: &mut SubState) {
        let mut cqes = std::mem::take(&mut st.cq_scratch);
        cqes.clear();
        self.ring.reap(&mut cqes);
        for c in &cqes {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            if c.user_data == UD_NOP {
                continue;
            }
            let ch = c.user_data as usize;
            let resubmit = {
                let chan = &mut st.chans[ch];
                if c.res == -ECANCELED && chan.cur.is_some() && !self.dead.load(Ordering::Acquire) {
                    // Dropped without side effects — retry in place.
                    true
                } else if c.res < 0 {
                    if !self.dead.load(Ordering::Acquire) {
                        let e = io::Error::from_raw_os_error(-c.res);
                        self.fail(format!("data channel {ch} write: {e}"));
                    }
                    // Stragglers on a dead transport just drain.
                    chan.cur = None;
                    chan.queue.clear();
                    false
                } else {
                    match chan.cur.as_mut() {
                        None => false, // cleared by the error path
                        Some(op) => {
                            let sent = c.res as u32;
                            if sent < op.remaining {
                                op.addr += sent as u64;
                                op.remaining -= sent;
                                true
                            } else {
                                chan.cur = chan.queue.pop_front();
                                chan.cur.is_some()
                            }
                        }
                    }
                }
            };
            if resubmit {
                if let Err(e) = self.push_write_locked(st, ch) {
                    self.fail(format!("io_uring submit: {e}"));
                }
            }
        }
        st.cq_scratch = cqes;
    }

    /// The doorbell: retire whatever has already completed (so
    /// short-write continuations resubmit on the dispatcher's
    /// schedule, not the reaper's), then submit everything queued
    /// since the last kick with one kernel crossing.
    fn kick(&self) -> io::Result<()> {
        if self.dead.load(Ordering::Acquire) {
            return Err(self.stored_err());
        }
        let mut st = self.sub.lock();
        self.drain_cqes_locked(&mut st);
        if st.queued > 0 {
            self.ring.submit(st.queued)?;
            st.queued = 0;
        }
        Ok(())
    }

    /// Wait until every queued data-frame write has fully left the
    /// ring. The write-side shutdown must run behind this: unlike
    /// the TCP backend's synchronous sends, a queued frame (e.g. a
    /// spurious retransmit whose original was acked in the
    /// meantime) can still be in flight when `DatasetComplete` goes
    /// out, and `SHUT_WR` would truncate it mid-frame — the sink
    /// sees a torn stream instead of a clean end-of-stream. Timed
    /// waits, because the reaper may consume the very CQE being
    /// waited on.
    fn drain_writes(&self) {
        loop {
            if self.dead.load(Ordering::Acquire) {
                return; // the error path owns the links now
            }
            {
                let mut st = self.sub.lock();
                self.drain_cqes_locked(&mut st);
                if st.queued > 0 {
                    if let Err(e) = self.ring.submit(st.queued) {
                        self.fail(format!("io_uring submit: {e}"));
                        return;
                    }
                    st.queued = 0;
                }
                if st
                    .chans
                    .iter()
                    .all(|c| c.cur.is_none() && c.queue.is_empty())
                {
                    return;
                }
            }
            if self.ring.wait(Some(Duration::from_millis(1))).is_err() {
                return;
            }
        }
    }

    /// The reaper: the source's single transport thread, the
    /// backstop for completions that land while the dispatcher is
    /// blocked elsewhere. Exits once the teardown guard raises
    /// `shutdown` and every expected CQE has drained.
    fn reap_loop(self: &Arc<SrcRing>) {
        loop {
            if self.shutdown.load(Ordering::Acquire) && self.inflight.load(Ordering::Acquire) == 0 {
                return;
            }
            if let Err(e) = self.ring.wait(None) {
                self.fail(format!("io_uring wait: {e}"));
                return;
            }
            let mut st = self.sub.lock();
            self.drain_cqes_locked(&mut st);
            // Continuations go out before the next block on the
            // wait — one crossing per batch.
            if st.queued > 0 {
                if let Err(e) = self.ring.submit(st.queued) {
                    self.fail(format!("io_uring submit: {e}"));
                }
                st.queued = 0;
            }
        }
    }
}

/// One channel's send handle over the shared ring.
struct UringDataTx {
    ch: usize,
    shared: Arc<SrcRing>,
}

impl DataTx for UringDataTx {
    fn send(&self, hdr: DataFrameHeader, wire: &[u8]) -> io::Result<()> {
        // No registered slot backs this payload, so carry an owned
        // copy (exactly what the channel backend does) and kick
        // immediately — this path is control-scale, not bulk.
        let mut own = vec![0u8; DATA_FRAME_HEADER_LEN + wire.len()].into_boxed_slice();
        hdr.encode(&mut own[..DATA_FRAME_HEADER_LEN]);
        own[DATA_FRAME_HEADER_LEN..].copy_from_slice(wire);
        let op = WriteOp {
            addr: own.as_ptr() as u64,
            remaining: own.len() as u32,
            buf_index: OWNED_BUF,
            _own: Some(own),
        };
        self.shared.queue_op(self.ch, op)?;
        self.shared.kick()
    }

    fn send_block(
        &self,
        hdr: DataFrameHeader,
        bufs: &[Mutex<SlotBuf>],
        block: u32,
    ) -> io::Result<()> {
        // Write the frame header into the slot's dead space so
        // header + wire image is one contiguous fixed-buffer write
        // — no linked SQEs, no staging copy. The block stays pinned
        // until its ack, so the kernel always reads stable bytes (a
        // retransmit rewrites identical ones).
        let (addr, total) = {
            let mut buf = bufs[block as usize].lock();
            let frame = buf.framed_mut(DATA_FRAME_HEADER_LEN);
            hdr.encode(&mut frame[..DATA_FRAME_HEADER_LEN]);
            (
                frame.as_ptr() as u64,
                (DATA_FRAME_HEADER_LEN + hdr.wire_len()) as u32,
            )
        };
        self.shared.queue_op(
            self.ch,
            WriteOp {
                addr,
                remaining: total,
                buf_index: block as u16,
                _own: None,
            },
        )
    }

    fn kick(&self) -> io::Result<()> {
        self.shared.kick()
    }
}

/// Joins the reaper on drop (stashed in the transport's `abort`
/// closure, so it lives exactly as long as the transport): raises
/// `shutdown`, wakes the reaper with a NOP, and waits for it to
/// drain every in-flight CQE before the ring can be unmapped.
struct ReaperGuard {
    shared: Arc<SrcRing>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for ReaperGuard {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let mut st = self.shared.sub.lock();
            let nop = Sqe {
                opcode: IORING_OP_NOP,
                user_data: UD_NOP,
                ..Default::default()
            };
            if self.shared.push_sqe_locked(&mut st, &nop).is_ok() {
                let queued = st.queued;
                st.queued = 0;
                let _ = self.shared.ring.submit(queued);
            }
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Connect the source half to a sink listening at `addr`, like
/// [`crate::net::connect_source`], but with every data link driven
/// through one io_uring: same hello exchange, same wire bytes, one
/// reaper thread instead of per-send blocking writes.
pub fn connect_source_uring(
    addr: impl ToSocketAddrs + Copy,
    channels: usize,
    sockbuf: usize,
) -> io::Result<SourceTransport> {
    probe()?;
    let streams = connect_streams(addr, channels, sockbuf)?;
    let handles = Arc::new(streams.handles()?);
    let SessionStreams { ctrl, data, .. } = streams;
    let ring = transfer_ring(false)?;
    assert!(channels as u32 + 2 <= RING_ENTRIES);

    let chans = data
        .iter()
        .map(|s| Chan {
            fd: s.as_raw_fd(),
            cur: None,
            queue: VecDeque::new(),
        })
        .collect();
    let shared = Arc::new(SrcRing {
        ring,
        sub: Mutex::new(SubState {
            chans,
            queued: 0,
            cq_scratch: Vec::with_capacity(64),
        }),
        inflight: AtomicI64::new(0),
        shutdown: AtomicBool::new(false),
        dead: AtomicBool::new(false),
        err: Mutex::new(None),
        socks: data,
    });
    let reaper = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("rftp-uring-src".into())
            .spawn(move || shared.reap_loop())?
    };
    let guard = ReaperGuard {
        shared: shared.clone(),
        handle: Some(reaper),
    };

    let ctrl_rd = ctrl.try_clone()?;
    let data_tx: Vec<Box<dyn DataTx>> = (0..channels)
        .map(|ch| {
            Box::new(UringDataTx {
                ch,
                shared: shared.clone(),
            }) as Box<dyn DataTx>
        })
        .collect();
    let reg_shared = shared.clone();
    let shutdown_shared = shared.clone();
    let shutdown_handles = handles.clone();
    Ok(SourceTransport {
        ctrl_tx: Arc::new(NetCtrlTx(Mutex::new(ctrl))),
        ctrl_rx: Box::new(NetCtrlRx::new(ctrl_rd)),
        data: Arc::new(data_tx),
        register: Box::new(move |bufs: &BufPool| {
            let view: Vec<&Mutex<SlotBuf>> = bufs.iter().collect();
            reg_shared.ring.register_pool(&view)
        }),
        transport_threads: 1,
        shutdown_write: Box::new(move || {
            shutdown_shared.drain_writes();
            shutdown_all(&shutdown_handles, Shutdown::Write)
        }),
        abort: Arc::new(move || {
            // `guard` rides in this closure so the reaper is joined
            // exactly when the transport is dropped.
            let _keep = &guard;
            shared.fail("transport aborted".into());
            shutdown_all(&handles, Shutdown::Both);
        }),
    })
}
