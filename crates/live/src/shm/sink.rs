//! The sink half: the control sender that grants the window, the notify
//! reader, the unix-socket way in and the session runner.

use super::fence::SnkWindow;
use super::window::SessionWindow;
use crate::net::{self, proto_err, read_exact_or_eof, shutdown_all, SessionSocket, SessionStreams};
use crate::split::{run_sink_session, FairShare};
use crate::store::SlotBuf;
use crate::transport::{CtrlTx, DataRx, SinkTransport};
use crate::{LiveConfig, LiveReport};
use parking_lot::Mutex;
use rftp_core::wire::{CtrlMsg, DataFrameHeader, DATA_FRAME_HEADER_LEN};
use std::io;
use std::net::Shutdown;
use std::os::unix::fs::PermissionsExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// The unix-socket family of the session front door: nothing to
/// tune, and an shm session's data plane is the window — whatever
/// channel count its control hello announces, the only data stream
/// is the notify stream at index 0.
impl SessionSocket for UnixStream {
    fn try_clone(&self) -> io::Result<Self> {
        UnixStream::try_clone(self)
    }
    fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        UnixStream::shutdown(self, how)
    }
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        UnixStream::set_read_timeout(self, dur)
    }
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        UnixStream::set_nonblocking(self, nonblocking)
    }
    fn tune(&self, _kind: u8, _sockbuf: usize) -> io::Result<()> {
        Ok(())
    }
    fn data_streams(_channels: usize) -> usize {
        1
    }
}

/// Sink control sender: the ordinary frame encoder, plus the window
/// re-arm — every credit leaving this endpoint grants its slot's
/// generation word first, so by the time the source reads the
/// credit, the slot is already writable shared memory.
struct ShmCtrlTx {
    inner: net::NetCtrlTx<UnixStream>,
    win: Arc<SnkWindow>,
}

impl CtrlTx for ShmCtrlTx {
    fn send(&self, msg: &CtrlMsg) -> io::Result<()> {
        if let CtrlMsg::CreditBatch { slots, .. } = msg {
            for &s in slots {
                self.win.grant(s);
            }
        }
        self.inner.send(msg)
    }
}

/// The session's one data link: it reads the notify stream.
/// `recv_wire` never reads a socket — the payload is already in the
/// slot the caller's buffer aliases; all that remains is the
/// publication check. This is the zero-copy place stage.
struct ShmDataRx {
    notify: UnixStream,
    win: Arc<SnkWindow>,
    pending: Option<DataFrameHeader>,
}

impl DataRx for ShmDataRx {
    fn recv_header(&mut self) -> io::Result<Option<DataFrameHeader>> {
        debug_assert!(self.pending.is_none(), "previous frame not consumed");
        let mut rec = [0u8; DATA_FRAME_HEADER_LEN];
        if !read_exact_or_eof(&mut self.notify, &mut rec)? {
            return Ok(None);
        }
        let hdr = DataFrameHeader::decode(&rec)
            .map_err(|e| proto_err(format!("bad shm notify record: {e:?}")))?;
        self.pending = Some(hdr);
        Ok(Some(hdr))
    }

    fn recv_wire(&mut self, buf: &mut [u8]) -> io::Result<()> {
        let hdr = self.pending.take().expect("recv_wire without a header");
        self.win.check_published(&hdr)?;
        // The caller's buffer is the slot's external SlotBuf view —
        // the same physical bytes the source stored. Nothing to
        // move; the check above was the whole place stage.
        debug_assert_eq!(
            buf.as_ptr() as usize,
            self.win.wire_at(hdr.slot) as usize,
            "shm sink buffer must alias the shared slot"
        );
        debug_assert_eq!(buf.len(), hdr.wire_len());
        Ok(())
    }

    fn discard_wire(&mut self, _wire_len: usize) -> io::Result<()> {
        // Duplicate notify: the payload never crossed the stream, so
        // there is nothing to drain — dropping the record is the
        // whole discard.
        self.pending.take().expect("discard_wire without a header");
        Ok(())
    }
}

/// Wrap one assembled shm connection pair plus a window into a
/// [`SinkTransport`]: one data link, the notify reader, whatever channel
/// count the control hello announced; control framing unchanged,
/// credits re-arming the window on their way out.
///
/// One reader, because arrivals — and so acks — must leave in the
/// order the source stored them: the source infers a loss from
/// three later acks on the same channel ([`rftp_core::LossDetector`]),
/// and readers racing on one stream hand records to the handler out
/// of that order whenever one of them is descheduled, which reads as
/// a loss and re-sends a block that arrived.
fn sink_transport_for_window(
    mut streams: SessionStreams<UnixStream>,
    win: Arc<SnkWindow>,
) -> io::Result<SinkTransport> {
    let handles = streams.handles()?;
    let ctrl_wr = streams.ctrl.try_clone()?;
    let notify = streams
        .data
        .pop()
        .expect("an shm set has its notify stream");
    let data: Vec<Box<dyn DataRx>> = vec![Box::new(ShmDataRx {
        notify,
        win: Arc::clone(&win),
        pending: None,
    })];
    Ok(SinkTransport {
        ctrl_tx: Arc::new(ShmCtrlTx {
            inner: net::NetCtrlTx(Mutex::new(ctrl_wr)),
            win,
        }),
        ctrl_rx: Box::new(net::NetCtrlRx::new(streams.ctrl)),
        data,
        abort: Arc::new(move || shutdown_all(&handles, Shutdown::Both)),
    })
}

/// One shm session's connection pair, hellos consumed: the control
/// stream (whose hello announced the channel count) and the notify
/// stream — assembled by the same `net::StreamAssembler` as a TCP
/// set, over unix sockets.
pub struct ShmSessionStreams(pub(crate) SessionStreams<UnixStream>);

/// The shm accept socket — a one-shot sink's, or the daemon's second
/// way in: a unix listener at a filesystem path. The path is
/// unlinked on drop (and any stale previous path is unlinked at
/// bind), so a crashed sink's leftover socket file does not shadow
/// the next run.
pub struct ShmListener {
    listener: UnixListener,
    path: PathBuf,
}

impl ShmListener {
    pub fn bind(path: impl AsRef<Path>) -> io::Result<ShmListener> {
        let path = path.as_ref().to_path_buf();
        if path.exists() {
            std::fs::remove_file(&path)?;
        }
        let listener = UnixListener::bind(&path)?;
        // Owner-only: connecting (= requesting admission) is
        // limited to the sink's own uid. The boundary between
        // sessions is the per-session window; this bounds who can
        // open a session at all.
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o600))?;
        Ok(ShmListener { listener, path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The daemon polls its shm endpoint from its one accept loop.
    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        self.listener.set_nonblocking(nonblocking)
    }

    /// One raw connection, hello unread — feed it to an assembler
    /// through [`net::accept_into`].
    pub(crate) fn accept(&self) -> io::Result<UnixStream> {
        self.listener.accept().map(|(s, _)| s)
    }

    /// Accept one source's (control, notify) pair and read the
    /// opening `SessionRequest` (bounded — a silent source times
    /// out rather than parking the sink; one no sink can serve is
    /// refused). Pass both to [`run_shm_sink`].
    pub fn accept_session(&self) -> io::Result<(ShmSessionStreams, CtrlMsg)> {
        let streams = net::accept_set(|| self.accept(), 0)?;
        let (streams, first) = net::read_admissible_request(streams)?;
        Ok((ShmSessionStreams(streams), first))
    }
}

impl Drop for ShmListener {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Run the sink half of an assembled shm session: create the memfd
/// window for **this session alone**, sized to its pool
/// (`cfg.pool_blocks` — under the daemon, the arena lease), ship the
/// descriptor + fd, lay external slot buffers over the window, and
/// run the standard sink pipeline — whose "placement" is now the
/// publication check alone.
pub(crate) fn run_shm_session(
    cfg: &LiveConfig,
    streams: SessionStreams<UnixStream>,
    first_ctrl: Option<CtrlMsg>,
    fair: FairShare<'_>,
) -> io::Result<LiveReport> {
    let sw = SessionWindow::create(cfg.pool_blocks as usize, cfg.block_size)?;
    sw.send_descriptor(&streams.ctrl)?;
    let (snk_bufs, win) = sw.into_sink();
    let view: Vec<&Mutex<SlotBuf>> = snk_bufs.iter().collect();
    let t = sink_transport_for_window(streams, Arc::new(win))?;
    run_sink_session(cfg, t, first_ctrl, &view, fair)
}

/// Run the sink half of an shm session accepted by [`ShmListener`]
/// over a fresh memfd window of `cfg.pool_blocks` slots.
pub fn run_shm_sink(
    cfg: &LiveConfig,
    sess: ShmSessionStreams,
    first_ctrl: Option<CtrlMsg>,
) -> io::Result<LiveReport> {
    run_shm_session(cfg, sess.0, first_ctrl, None)
}
