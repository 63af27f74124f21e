//! The source half between two processes: the connection pair, and the
//! control reader that takes the descriptor off the front of the control
//! stream and maps the window the loaders write into.

use super::fence::SrcWindow;
use super::link::{window_source, SourceView};
use super::window::{read_preamble, Preamble};
use crate::net::{self, write_hello, NetCtrlRx, KIND_CTRL, KIND_DATA};
use crate::transport::{CtrlRx, SourceTransport};
use rftp_core::wire::CtrlMsg;
use std::io;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;

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
/// Each channel's data link rings the one notify stream.
pub fn connect_source_shm(path: impl AsRef<Path>, channels: usize) -> io::Result<SourceTransport> {
    assert!(channels >= 1 && channels <= u16::MAX as usize);
    let path = path.as_ref();
    let token = net::new_session_token();
    let mut ctrl = UnixStream::connect(path)?;
    write_hello(&mut ctrl, KIND_CTRL, channels as u16, token)?;
    let mut notify = UnixStream::connect(path)?;
    write_hello(&mut notify, KIND_DATA, 0, token)?;
    let window = SourceView::default();
    let ctrl_rx = ShmCtrlRx::new(ctrl.try_clone()?, Arc::clone(&window));
    window_source(ctrl, Box::new(ctrl_rx), notify, channels, window)
}
