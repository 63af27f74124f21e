//! Portable stubs: the backend is Linux-only; every other platform
//! reports "unsupported" and the callers fall back to TCP.

use crate::net::NetListener;
use crate::pipeline::{LiveConfig, LiveReport};
use crate::transport::SourceTransport;
use rftp_core::wire::CtrlMsg;
use std::io;
use std::net::ToSocketAddrs;

/// Placeholder session handle; never constructible off-Linux.
pub struct UringSinkSession(());

pub fn uring_supported() -> bool {
    false
}

fn unsupported<T>() -> io::Result<T> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "io_uring transport requires Linux",
    ))
}

pub fn connect_source_uring(
    _addr: impl ToSocketAddrs,
    _channels: usize,
    _sockbuf: usize,
) -> io::Result<SourceTransport> {
    unsupported()
}

pub fn accept_source_uring(
    _listener: &NetListener,
    _sockbuf: usize,
) -> io::Result<(UringSinkSession, CtrlMsg)> {
    unsupported()
}

pub fn run_uring_sink(
    _cfg: &LiveConfig,
    _session: UringSinkSession,
    _first_ctrl: Option<CtrlMsg>,
) -> io::Result<LiveReport> {
    unsupported()
}

/// Placeholder hub handle; never constructible off-Linux.
pub(crate) struct UringHub(());

impl UringHub {
    pub(crate) fn stop(&self) {}
}

pub(crate) fn spawn_shared_uring_driver<'scope, 'env>(
    _scope: &'scope std::thread::Scope<'scope, 'env>,
    _slots: &'env [parking_lot::Mutex<crate::store::SlotBuf>],
) -> io::Result<(
    std::sync::Arc<UringHub>,
    std::thread::ScopedJoinHandle<'scope, crate::transport::UringStats>,
)> {
    unsupported()
}

pub(crate) fn run_shared_uring_session(
    _cfg: &LiveConfig,
    _streams: crate::net::SessionStreams,
    _first_ctrl: Option<CtrlMsg>,
    _snk_bufs: &[&parking_lot::Mutex<crate::store::SlotBuf>],
    _lease: &[u32],
    _hub: &UringHub,
    _fair: crate::split::FairShare<'_>,
) -> io::Result<LiveReport> {
    unsupported()
}
