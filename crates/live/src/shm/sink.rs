//! The sink half between two processes: the memfd window its control
//! stream opens, the unix-socket way in and the session runner.

use super::link::window_sink;
use super::window::share_window;
use crate::net::{self, SessionSocket, SessionStreams};
use crate::split::{run_sink_pool, FairShare};
use crate::transport::SinkTransport;
use crate::{LiveConfig, LiveReport};
use rftp_core::wire::CtrlMsg;
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

/// Wrap one assembled shm connection pair into a [`SinkTransport`]: the
/// window's sink endpoints over the control and notify streams, the
/// window a memfd whose descriptor and fd leave on the control stream
/// ahead of every control frame.
fn sink_transport(mut streams: SessionStreams<UnixStream>) -> io::Result<SinkTransport> {
    let notify = streams
        .data
        .pop()
        .expect("an shm set has its notify stream");
    let desc_wr = streams.ctrl.try_clone()?;
    let map = Box::new(move |desc: &_| share_window(desc, &desc_wr).map(Arc::new));
    window_sink(streams.ctrl, notify, map)
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

/// Run the sink half of an assembled shm session: the sink pipeline
/// opens a memfd window for **this session alone**, sized to its pool
/// (`cfg.pool_blocks` — under the daemon, the arena lease), ships the
/// descriptor + fd and lands blocks in the window's slots — so its
/// "placement" is the publication check alone.
pub(crate) fn run_shm_session(
    cfg: &LiveConfig,
    streams: SessionStreams<UnixStream>,
    first_ctrl: Option<CtrlMsg>,
    fair: FairShare<'_>,
) -> io::Result<LiveReport> {
    run_sink_pool(cfg, sink_transport(streams)?, first_ctrl, fair)
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
