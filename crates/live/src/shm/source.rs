//! The source half between two processes: the notify stream each send
//! rings, and the control reader that takes the descriptor off the
//! front of the control stream and maps the window the loaders write
//! into.

use super::fence::SrcWindow;
use super::link::{Doorbell, SourceView, WindowTx};
use super::window::{read_preamble, Preamble};
use crate::net::{
    self, retry_interrupted, shutdown_all, write_hello, NetCtrlRx, KIND_CTRL, KIND_DATA,
};
use crate::transport::{CtrlRx, DataTx, LoadWindow, SourceTransport};
use parking_lot::Mutex;
use rftp_core::wire::{CtrlMsg, DataFrameHeader, DATA_FRAME_HEADER_LEN};
use std::io::{self, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;

/// The notify stream: one record per publication. The session has one
/// data link — the window is one and the notify stream is one — so
/// every channel's blocks leave through it.
impl Doorbell for Mutex<UnixStream> {
    fn ring(&self, hdr: &DataFrameHeader) -> io::Result<()> {
        let mut rec = [0u8; DATA_FRAME_HEADER_LEN];
        hdr.encode(&mut rec);
        retry_interrupted(|| self.lock().write_all(&rec))
    }
}

/// Source control reader: the one-shot window descriptor (with its
/// `SCM_RIGHTS` fd) off the front of the control stream, then the TCP
/// backend's frame reader over the same stream.
pub(super) struct ShmCtrlRx {
    frames: NetCtrlRx<UnixStream>,
    /// Where the descriptor's window goes, until the preamble is read.
    window: Option<SourceView>,
}

impl ShmCtrlRx {
    pub(super) fn new(stream: UnixStream, window: SourceView) -> ShmCtrlRx {
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
                    let _ = window.set(SrcWindow::new(Arc::new(map), &desc));
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
    let window = SourceView::default();
    let loads = Arc::clone(&window);
    let data: Vec<Box<dyn DataTx>> = vec![Box::new(WindowTx {
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
        register: Box::new(move |_| Ok(Some(Arc::clone(&loads) as Arc<dyn LoadWindow>))),
        transport_threads: 0,
        shutdown_write: Box::new(move || shutdown_all(&shutdown_handles, Shutdown::Write)),
        abort: Arc::new(move || shutdown_all(&handles, Shutdown::Both)),
    })
}
