//! The window's endpoints, whoever maps the window: a source data link
//! per channel that publishes what the loaders wrote and rings the one
//! notify stream, one sink data link that checks each publication in
//! place, and a sink control sender that opens the window and grants
//! each slot before its credit leaves. Every link rides a unix stream;
//! [`window_source`] and [`window_sink`] build both halves' endpoints
//! from a control stream and a notify stream — connected sockets between
//! two processes (`source`, `sink`), a socketpair each in one
//! ([`crate::channel_transport`], with the window mapped by
//! [`in_process`]).

use super::fence::{PlaceOutcome, SnkWindow, SrcWindow};
use super::window::WindowDesc;
use crate::net::{proto_err, read_exact_or_eof, shutdown_all, NetCtrlRx, NetCtrlTx};
use crate::store::{BlockPool, SlotBuf};
use crate::sys::Mapping;
use crate::transport::{
    CtrlRx, CtrlTx, DataRx, DataTx, LoadWindow, SinkTransport, SourceTransport,
};
use parking_lot::Mutex;
use rftp_core::wire::{CtrlMsg, DataFrameHeader, DATA_FRAME_HEADER_LEN};
use std::io::{self, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::sync::{Arc, OnceLock};

/// The source's view of the window, installed before the first credit:
/// off the descriptor (two processes), by the sink's open (one).
pub(crate) type SourceView = Arc<OnceLock<SrcWindow>>;

/// The sink's view of its window once [`CtrlTx::open_window`] opened
/// it: the control sender grants it, the data link checks it.
pub(crate) type SinkView = Arc<OnceLock<SnkWindow>>;

/// How a sink lays its window out: map the memory `desc` describes and
/// make it reachable from the source — before any credit leaves, as the
/// window rule wants.
pub(crate) type MapWindow = Box<dyn Fn(&WindowDesc) -> io::Result<Arc<Mapping>> + Send + Sync>;

/// The window once its source view is installed.
fn established(window: &OnceLock<SrcWindow>) -> io::Result<&SrcWindow> {
    window
        .get()
        .ok_or_else(|| proto_err("window not established (no descriptor before first credit)"))
}

/// What the `register` hook hands the loaders: they write each block
/// straight into its credited slot.
impl LoadWindow for OnceLock<SrcWindow> {
    fn load(
        &self,
        hdr: &DataFrameHeader,
        fill: &mut dyn FnMut(&mut [u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        established(self)?.load(hdr, fill)
    }
}

/// A source data link over the window: a send publishes the block and
/// writes its 16-byte record to the notify stream, which every channel's
/// link of the source shares.
struct WindowTx {
    notify: Arc<Mutex<UnixStream>>,
    window: SourceView,
}

impl WindowTx {
    /// Ring the doorbell for a publication, unless it was stale.
    fn notify(&self, hdr: DataFrameHeader, outcome: PlaceOutcome) -> io::Result<()> {
        if outcome == PlaceOutcome::Stale {
            return Ok(());
        }
        let mut rec = [0u8; DATA_FRAME_HEADER_LEN];
        hdr.encode(&mut rec);
        self.notify.lock().write_all(&rec)
    }
}

impl DataTx for WindowTx {
    /// A borrowed image is copied into its slot, then published.
    fn send(&self, hdr: DataFrameHeader, wire: &[u8]) -> io::Result<()> {
        let outcome = established(&self.window)?.place(&hdr, wire)?;
        self.notify(hdr, outcome)
    }

    /// The loaders wrote the block into its slot already (the window is
    /// what `register` returned), so a send only publishes it: no copy.
    fn send_block(&self, hdr: DataFrameHeader, _: &[Mutex<SlotBuf>], _: u32) -> io::Result<()> {
        let outcome = established(&self.window)?.publish(&hdr)?;
        self.notify(hdr, outcome)
    }
}

/// The sink's window once opened.
fn opened(win: &OnceLock<SnkWindow>) -> io::Result<&SnkWindow> {
    win.get()
        .ok_or_else(|| proto_err("window record before the window was opened"))
}

/// A sink data link over the window. `recv_wire` reads nothing — the
/// payload is already in the slot the caller's buffer aliases — so the
/// publication check is the whole place stage, and the receiver then
/// checks the bytes in place.
struct WindowRx {
    notify: UnixStream,
    win: SinkView,
    /// The record whose image the caller reads next.
    pending: Option<DataFrameHeader>,
}

impl DataRx for WindowRx {
    fn recv_header(&mut self) -> io::Result<Option<DataFrameHeader>> {
        debug_assert!(self.pending.is_none(), "previous frame not consumed");
        let mut rec = [0u8; DATA_FRAME_HEADER_LEN];
        if !read_exact_or_eof(&mut self.notify, &mut rec)? {
            return Ok(None);
        }
        let hdr = (DataFrameHeader::decode(&rec))
            .map_err(|e| proto_err(format!("bad shm notify record: {e:?}")))?;
        self.pending = Some(hdr);
        Ok(self.pending)
    }

    fn recv_wire(&mut self, buf: &mut [u8]) -> io::Result<()> {
        let hdr = self.pending.take().expect("recv_wire without a header");
        let win = opened(&self.win)?;
        win.check_published(&hdr)?;
        // The caller's buffer is the slot's view over the window — the
        // very bytes the source stored. Nothing to move.
        debug_assert_eq!(
            buf.as_ptr() as usize,
            win.wire_at(hdr.slot) as usize,
            "the sink buffer must alias the window slot"
        );
        debug_assert_eq!(buf.len(), hdr.wire_len());
        Ok(())
    }

    fn discard_wire(&mut self, _wire_len: usize) -> io::Result<()> {
        // A duplicate notify: the payload never crossed a link, so
        // dropping the record is the whole discard.
        self.pending.take().expect("discard_wire without a header");
        Ok(())
    }
}

/// The sink's control sender over a window: it opens the window, and
/// every credit leaving it grants its slot's generation word first, so
/// by the time the source reads the credit the slot is writable.
struct GrantTx {
    inner: NetCtrlTx<UnixStream>,
    map: MapWindow,
    win: SinkView,
}

impl CtrlTx for GrantTx {
    fn send(&self, msg: &CtrlMsg) -> io::Result<()> {
        if let CtrlMsg::CreditBatch { slots, .. } = msg {
            let win = opened(&self.win)?;
            for &s in slots {
                win.grant(s);
            }
        }
        self.inner.send(msg)
    }

    fn open_window(&self, slots: u32, block_size: usize) -> io::Result<Option<BlockPool>> {
        let desc = WindowDesc::packed(slots, block_size)?;
        let map = (self.map)(&desc)?;
        (self.win.set(SnkWindow::new(Arc::clone(&map), &desc)))
            .map_err(|_| io::Error::other("the window is already open"))?;
        Ok(Some(BlockPool::over(map, slots, block_size)))
    }
}

/// The source half over a window: the control stream `ctrl`, read by
/// `ctrl_rx` (a reader over a clone of it), and one data link per
/// channel, every one ringing the one `notify` stream — so a WAN shim
/// shapes each channel as its own lane while the sink's one reader
/// still takes the records in the order they were rung. `register`
/// hands the loaders `window`.
pub(crate) fn window_source(
    ctrl: UnixStream,
    ctrl_rx: Box<dyn CtrlRx>,
    notify: UnixStream,
    channels: usize,
    window: SourceView,
) -> io::Result<SourceTransport> {
    let handles = Arc::new([ctrl.try_clone()?, notify.try_clone()?]);
    let notify = Arc::new(Mutex::new(notify));
    let data = (0..channels).map(|_| {
        Box::new(WindowTx {
            notify: Arc::clone(&notify),
            window: Arc::clone(&window),
        }) as Box<dyn DataTx>
    });
    let shutdown_handles = Arc::clone(&handles);
    Ok(SourceTransport {
        ctrl_tx: Arc::new(NetCtrlTx(Mutex::new(ctrl))),
        ctrl_rx,
        data: Arc::new(data.collect()),
        register: Box::new(move |_| Ok(Some(Arc::clone(&window) as Arc<dyn LoadWindow>))),
        transport_threads: 0,
        shutdown_write: Box::new(move || shutdown_all(&*shutdown_handles, Shutdown::Write)),
        abort: Arc::new(move || shutdown_all(&*handles, Shutdown::Both)),
    })
}

/// The sink half over a window: the control stream `ctrl`, whose sender
/// opens the window by `map` and grants it on the credits' way out, and
/// one data link, the reader of the `notify` stream, whatever channel
/// count the source runs.
///
/// One reader, because arrivals — and so acks — must leave in the
/// order the source stored them: the source infers a loss from
/// three later acks on the same channel ([`rftp_core::LossDetector`]),
/// and readers racing on one stream hand records to the session out
/// of that order whenever one of them is descheduled, which reads as
/// a loss and re-sends a block that arrived.
pub(crate) fn window_sink(
    ctrl: UnixStream,
    notify: UnixStream,
    map: MapWindow,
) -> io::Result<SinkTransport> {
    let handles = [ctrl.try_clone()?, notify.try_clone()?];
    let win = SinkView::default();
    Ok(SinkTransport {
        ctrl_tx: Arc::new(GrantTx {
            inner: NetCtrlTx(Mutex::new(ctrl.try_clone()?)),
            map,
            win: Arc::clone(&win),
        }),
        ctrl_rx: Box::new(NetCtrlRx::new(ctrl)),
        data: vec![Box::new(WindowRx {
            notify,
            win,
            pending: None,
        })],
        abort: Arc::new(move || shutdown_all(&handles, Shutdown::Both)),
    })
}

/// The window in one process: anonymous memory both views share, the
/// source's view installed in memory — no memfd, no `SCM_RIGHTS`.
pub(crate) fn in_process(source: SourceView) -> MapWindow {
    Box::new(move |desc| {
        let map = Arc::new(Mapping::map(desc.window_len(), None)?);
        (source.set(SrcWindow::new(Arc::clone(&map), desc)))
            .map_err(|_| io::Error::other("the window is already open"))?;
        Ok(map)
    })
}
