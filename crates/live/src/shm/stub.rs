//! The shm transport off Linux: every entry point is `Unsupported`.

use crate::transport::SourceTransport;
use crate::{LiveConfig, LiveReport};
use rftp_core::wire::CtrlMsg;
use std::io;
use std::path::Path;

fn unsupported() -> io::Error {
    io::Error::new(
        io::ErrorKind::Unsupported,
        "shm transport requires Linux (memfd + SCM_RIGHTS)",
    )
}

pub fn shm_supported() -> bool {
    false
}

pub fn connect_source_shm(
    _path: impl AsRef<Path>,
    _channels: usize,
) -> io::Result<SourceTransport> {
    Err(unsupported())
}

pub struct ShmSessionStreams;

pub struct ShmListener;

impl ShmListener {
    pub fn bind(_path: impl AsRef<Path>) -> io::Result<ShmListener> {
        Err(unsupported())
    }

    pub fn accept_session(&self) -> io::Result<(ShmSessionStreams, CtrlMsg)> {
        Err(unsupported())
    }
}

pub fn run_shm_sink(
    _cfg: &LiveConfig,
    _sess: ShmSessionStreams,
    _first_ctrl: Option<CtrlMsg>,
) -> io::Result<LiveReport> {
    Err(unsupported())
}
