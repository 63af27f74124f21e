//! The window's links, whatever carries their records: a source data
//! link that publishes what the loaders wrote and rings a doorbell, a
//! sink data link that checks each publication in place, and a sink
//! control sender that opens the window and grants each slot before its
//! credit leaves. Between two processes the records ride unix streams
//! (`source`, `sink`); in one they ride channels over one anonymous
//! mapping ([`in_process`]).

use super::fence::{PlaceOutcome, SnkWindow, SrcWindow};
use super::window::WindowDesc;
use crate::net::proto_err;
use crate::store::{BlockPool, SlotBuf};
use crate::sys::Mapping;
use crate::transport::{CtrlTx, DataRx, DataTx, LoadWindow};
use parking_lot::Mutex;
use rftp_core::wire::{CtrlMsg, DataFrameHeader};
use std::io;
use std::sync::{Arc, OnceLock};

/// The source's view of the window, installed before the first credit:
/// off the descriptor (two processes), by the sink's open (one).
pub(crate) type SourceView = Arc<OnceLock<SrcWindow>>;

/// The sink's view of its window once [`CtrlTx::open_window`] opened
/// it: the control sender grants it, the data links check it.
pub(crate) type SinkView = Arc<OnceLock<SnkWindow>>;

/// Where a window link's 16-byte notify records go.
pub(crate) trait Doorbell: Send + Sync {
    fn ring(&self, hdr: &DataFrameHeader) -> io::Result<()>;
}

/// Where a window link's notify records come from; `Ok(None)` at clean
/// end-of-stream.
pub(crate) trait Notices: Send {
    fn next(&mut self) -> io::Result<Option<DataFrameHeader>>;
}

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
/// rings the doorbell.
pub(crate) struct WindowTx<D> {
    pub(crate) notify: D,
    pub(crate) window: SourceView,
}

impl<D: Doorbell> WindowTx<D> {
    /// Ring the doorbell for a publication, unless it was stale.
    fn notify(&self, hdr: DataFrameHeader, outcome: PlaceOutcome) -> io::Result<()> {
        if outcome == PlaceOutcome::Stale {
            return Ok(());
        }
        self.notify.ring(&hdr)
    }
}

impl<D: Doorbell> DataTx for WindowTx<D> {
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
pub(crate) struct WindowRx<N> {
    pub(crate) notify: N,
    pub(crate) win: SinkView,
    /// The record whose image the caller reads next.
    pub(crate) pending: Option<DataFrameHeader>,
}

impl<N: Notices> DataRx for WindowRx<N> {
    fn recv_header(&mut self) -> io::Result<Option<DataFrameHeader>> {
        debug_assert!(self.pending.is_none(), "previous frame not consumed");
        self.pending = self.notify.next()?;
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
pub(crate) struct GrantTx<C> {
    pub(crate) inner: C,
    pub(crate) map: MapWindow,
    pub(crate) win: SinkView,
}

impl<C: CtrlTx> CtrlTx for GrantTx<C> {
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
