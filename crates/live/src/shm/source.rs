//! The source half: one-sided places into the window, notify records,
//! and the control reader that takes the descriptor off the front of
//! the control stream.

use super::fence::{PlaceOutcome, SrcWindow};
use super::window::{read_preamble, Preamble};
use crate::net::{
    self, proto_err, retry_interrupted, shutdown_all, write_hello, NetCtrlRx, KIND_CTRL, KIND_DATA,
};
use crate::transport::{CtrlRx, DataTx, SourceTransport};
use parking_lot::Mutex;
use rftp_core::wire::{CtrlMsg, DataFrameHeader, DATA_FRAME_HEADER_LEN};
use std::io::{self, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// The window as the source sees it, installed by the control reader
/// when the descriptor lands — always before any credit can arrive, as
/// the descriptor precedes every control frame on the same stream.
type Window = Arc<OnceLock<SrcWindow>>;

/// The session's one data link: the window is one and the notify stream
/// is one, so every channel's blocks leave through this link.
struct ShmDataTx {
    notify: Mutex<UnixStream>,
    window: Window,
}

impl DataTx for ShmDataTx {
    fn send(&self, hdr: DataFrameHeader, wire: &[u8]) -> io::Result<()> {
        let win = self.window.get().ok_or_else(|| {
            proto_err("shm window not established (no descriptor before first credit)")
        })?;
        match win.place(&hdr, wire)? {
            PlaceOutcome::Stale => Ok(()),
            PlaceOutcome::Placed | PlaceOutcome::Renotify => {
                let mut rec = [0u8; DATA_FRAME_HEADER_LEN];
                hdr.encode(&mut rec);
                retry_interrupted(|| self.notify.lock().write_all(&rec))
            }
        }
    }
}

/// Source control reader: the one-shot window descriptor (with its
/// `SCM_RIGHTS` fd) off the front of the control stream, then the TCP
/// backend's frame reader over the same stream.
pub(super) struct ShmCtrlRx {
    frames: NetCtrlRx<UnixStream>,
    /// Where the descriptor's window goes, until the preamble is read.
    window: Option<Window>,
}

impl ShmCtrlRx {
    pub(super) fn new(stream: UnixStream, window: Window) -> ShmCtrlRx {
        ShmCtrlRx {
            frames: NetCtrlRx::new(stream),
            window: Some(window),
        }
    }
}

impl CtrlRx for ShmCtrlRx {
    fn recv(&mut self) -> io::Result<Option<CtrlMsg>> {
        if let Some(window) = self.window.take() {
            match read_preamble(self.frames.get_ref())? {
                Preamble::Window(desc, map) => {
                    let _ = window.set(SrcWindow::new(map, &desc));
                }
                Preamble::Frame(head) => self.frames.feed(&head),
            }
        }
        self.frames.recv()
    }
}

/// Connect the source half of an shm session to a sink listening on
/// the unix socket at `path`. Two connections — control and notify —
/// carry hellos in the `net` format (the control hello announces
/// `channels`, the notify stream plays the data-stream role with index
/// 0); the window arrives back over control as the descriptor preamble.
pub fn connect_source_shm(path: impl AsRef<Path>, channels: usize) -> io::Result<SourceTransport> {
    assert!(channels >= 1 && channels <= u16::MAX as usize);
    let path = path.as_ref();
    let token = net::new_session_token();
    let mut ctrl = UnixStream::connect(path)?;
    write_hello(&mut ctrl, KIND_CTRL, channels as u16, token)?;
    let mut notify = UnixStream::connect(path)?;
    write_hello(&mut notify, KIND_DATA, 0, token)?;
    let window = Window::default();
    let data: Vec<Box<dyn DataTx>> = vec![Box::new(ShmDataTx {
        notify: Mutex::new(notify.try_clone()?),
        window: Arc::clone(&window),
    })];
    let ctrl_rx = ShmCtrlRx::new(ctrl.try_clone()?, window);
    let handles = Arc::new(vec![ctrl.try_clone()?, notify]);
    let shutdown_handles = Arc::clone(&handles);
    Ok(SourceTransport {
        ctrl_tx: Arc::new(net::NetCtrlTx(Mutex::new(ctrl))),
        ctrl_rx: Box::new(ctrl_rx),
        data: Arc::new(data),
        register: Box::new(|_| Ok(())),
        transport_threads: 0,
        shutdown_write: Box::new(move || shutdown_all(&shutdown_handles, Shutdown::Write)),
        abort: Arc::new(move || shutdown_all(&handles, Shutdown::Both)),
    })
}
