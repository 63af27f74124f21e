//! The live pipeline: a standalone source half and sink half joined
//! only by a [`crate::transport`].
//!
//! [`run_split_source`] (`source.rs`) runs loaders → sender and a
//! control stage against a
//! [`SourceTransport`](crate::transport::SourceTransport): the sender is
//! the one thread that sends — first sends, re-sends, credit requests
//! and `DatasetComplete`;
//! [`run_split_sink`] (`sink.rs`) runs per-link receivers and a
//! control pump → one sink session, which owns the slot FSM, the
//! granter and the coalescing drain, against a
//! [`SinkTransport`](crate::transport::SinkTransport); each half may run
//! the adaptive `Controller` (`controller.rs`). Nothing crosses except
//! control frames and data frames. Over the TCP backend ([`crate::net`])
//! the two halves are two OS processes; over the in-process backend
//! ([`run_split_pair`]) — shm's window links on socketpairs — they are
//! the single-process transfer [`run_live`](crate::run_live) reports on,
//! with the sink's slots a window the source's loaders write into.
//!
//! Every stage of either half is a function started the same way — by
//! `stage` on a scoped thread, or `run_stage` on the caller's: its
//! error trips the half's first-error latch (`Fail`), and what it
//! counted comes back as a `Tally` that the half merges at join into
//! its [`LiveReport`].
//!
//! Every transport sees the same protocol:
//!
//! * **Arrivals are in-band.** An RDMA WRITE is invisible to the sink
//!   CPU, so a verbs sink needs a completion notification to learn a
//!   block landed. Every live transport delivers the bytes *through*
//!   the sink's receiver — each arrival is its own notification, exactly
//!   the WRITE-with-immediate analogue, so the sink always runs
//!   imm-style.
//! * **Acks flow sink → source.** A send completing locally says nothing
//!   about remote placement. The sink acks placed blocks (coalesced
//!   `AckBatch`, its only ack form — one cap and one flush window for
//!   acks and grants alike, PROTOCOL `[P7-coalesce]`) and the source
//!   retires blocks on those acks.
//! * **Placement is the transport read.** The receiver reads each
//!   frame's wire image straight into the slot its credit named — the
//!   transport hands over the header first, then fills the credited
//!   buffer, so there is no intermediate copy on either side of the wire.
//!   On a window (shm, in process) the loader already wrote the slot,
//!   and the read is the publication check.
//!
//! * **Slots retire on arrival.** Both consumers a live sink has are
//!   offset-addressed — pattern verification is a function of the
//!   block's own sequence, checked by the receiver as the bytes land, a
//!   file sink `pwrite`s at `seq × block_size` at placement — so the
//!   session frees a slot the moment its block lands, in whatever order
//!   that is. A lost frame holds one
//!   slot until its re-send arrives, not the pool behind it; exactly-once
//!   is the receivers' claim-before-copy bitmap plus the session's
//!   retired-sequence bitmap. (The simulated sink, which feeds a
//!   *stream* consumer, still reassembles in order — §IV.C.)
//!
//! The source still sends first attempts in sequence order (loaders
//! finish out of order; the sender's reorder buffer puts them back).
//! Against a sink that freed in order this was load-bearing — later
//! sequences taking the last credits while an earlier one lagged filled
//! the pool with blocks the sink could not free, a head-of-line deadlock
//! (DESIGN.md).
//! This sink cannot be wedged that way; ordered dispatch stays because
//! it keeps the unplaced sequences one contiguous window, at most a pool
//! wide. For the same reason a loader takes a block *before* it claims a
//! sequence number.

mod controller;
mod sink;
mod source;

pub(crate) use controller::Controller;
pub use sink::run_split_sink;
pub(crate) use sink::{
    run_sink_pool, run_sink_session, FairShare, SinkEvt, SinkFront, SinkSession, SINK_EVENTS,
};
pub use source::run_split_source;

use crate::hist::StageTails;
use crate::pipeline::{LiveConfig, LiveReport};
use crate::transport::channel_transport;
use rftp_faults::WanProfile;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{Scope, ScopedJoinHandle};

pub(crate) fn perr(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, msg.into())
}

/// Whether `e` says only that the peer hung up — a write into a closed
/// link (`BrokenPipe`), or a socket whose peer closed with bytes unread
/// (`ConnectionReset`) — rather than why.
pub(crate) fn is_hangup(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::BrokenPipe | io::ErrorKind::ConnectionReset
    )
}

/// First-error-wins failure latch shared by every thread of a half.
/// Recording an error tears the transport down ([`SourceTransport::abort`]
/// / [`SinkTransport::abort`]), so peers and siblings blocked on a link
/// error out instead of hanging; lock-free waits poll [`Fail::is_set`].
pub(crate) struct Fail {
    err: OnceLock<io::Error>,
    /// The half finished and tore its links down itself ([`Fail::close`]).
    closed: AtomicBool,
    abort: Arc<dyn Fn() + Send + Sync>,
}

impl Fail {
    pub(crate) fn new(abort: Arc<dyn Fn() + Send + Sync>) -> Fail {
        Fail {
            err: OnceLock::new(),
            closed: AtomicBool::new(false),
            abort,
        }
    }

    /// Tear the transport down on success: the half's work is done, so
    /// a link error from here on is this teardown's echo in a stage
    /// still reading, and is not recorded.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
        (self.abort)();
    }

    pub(crate) fn is_set(&self) -> bool {
        self.err.get().is_some()
    }

    /// The first error recorded, if any.
    pub(crate) fn into_err(self) -> Option<io::Error> {
        self.err.into_inner()
    }
}

/// What a pipeline stage counted and clocked. Each stage thread fills its
/// own and the half merges them at join, so nothing on the per-block path
/// is shared; a half fills the fields its stages own.
#[derive(Default)]
pub(crate) struct Tally {
    /// Control frames sent and received.
    pub(crate) ctrl: u64,
    pub(crate) credit_requests: u64,
    /// Sends the fault injector ate.
    pub(crate) dropped: u64,
    pub(crate) retransmits: u64,
    pub(crate) fast_retransmits: u64,
    /// Arrivals discarded as already placed.
    pub(crate) duplicates: u64,
    pub(crate) checksum_failures: u64,
    /// Blocks retired ahead of the lowest unretired sequence.
    pub(crate) ooo: u64,
    /// Stage clocks, nanoseconds summed over the stage's threads; the
    /// load, place and verify clocks are their histograms' sums.
    pub(crate) dispatch_ns: u64,
    pub(crate) flush_ns: u64,
    pub(crate) sync_ns: u64,
    pub(crate) tails: StageTails,
}

impl Tally {
    pub(crate) fn merge(&mut self, o: &Tally) {
        self.ctrl += o.ctrl;
        self.credit_requests += o.credit_requests;
        self.dropped += o.dropped;
        self.retransmits += o.retransmits;
        self.fast_retransmits += o.fast_retransmits;
        self.duplicates += o.duplicates;
        self.checksum_failures += o.checksum_failures;
        self.ooo += o.ooo;
        self.dispatch_ns += o.dispatch_ns;
        self.flush_ns += o.flush_ns;
        self.sync_ns += o.sync_ns;
        self.tails.load.merge(&o.tails.load);
        self.tails.dispatch.merge(&o.tails.dispatch);
        self.tails.place.merge(&o.tails.place);
        self.tails.verify.merge(&o.tails.verify);
    }
}

/// How every pipeline stage runs, fails and reports, on the calling
/// thread: an `Err` goes into the first-error latch, and the stage's
/// tally comes back either way. A panic is its error too — so the
/// transport is torn down and the siblings and the peer error out
/// instead of waiting on a thread that is gone — recorded even once the
/// half has closed, as a panic is never a teardown's echo. The body is
/// `FnMut` so what it captures — queue ends above all — drops only once
/// the latch holds its error: a sibling that sees the queue close then
/// finds the root cause already recorded.
pub(crate) fn run_stage(fail: &Fail, mut body: impl FnMut(&mut Tally) -> io::Result<()>) -> Tally {
    let mut tally = Tally::default();
    match caught(|| body(&mut tally)) {
        Ok(Ok(())) => return tally,
        Ok(Err(_)) if fail.closed.load(Ordering::Acquire) => {}
        Ok(Err(e)) | Err(e) => drop(fail.err.set(e)),
    }
    (fail.abort)();
    tally
}

/// The one place a live thread's panic is caught — for [`run_stage`], a
/// daemon session, the ring driver's loop, a ring session, the ring
/// source's reaper and a WAN delay line: `body`'s value, or its panic
/// as an error that keeps the payload's message.
pub(crate) fn caught<T>(body: impl FnOnce() -> T) -> io::Result<T> {
    panic::catch_unwind(AssertUnwindSafe(body)).map_err(|payload| {
        let msg = (payload.downcast_ref::<&str>().copied())
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("(no message)");
        io::Error::other(format!("a pipeline thread panicked: {msg}"))
    })
}

/// [`run_stage`] on a thread of `scope`, which it keeps from panicking.
pub(crate) fn stage<'s>(
    scope: &'s Scope<'s, '_>,
    fail: &'s Fail,
    body: impl FnMut(&mut Tally) -> io::Result<()> + Send + 's,
) -> ScopedJoinHandle<'s, Tally> {
    scope.spawn(move || run_stage(fail, body))
}

/// Run both halves in this process over the in-process transport — the
/// split pipeline's loopback, shm's window links on socketpairs, whose
/// sink opens the window the source loads into — with the source behind
/// `wan`, so
/// control and data feel the profile's full RTT, loss, and rate cap
/// (the in-process form of a two-process `--wan` run; a clean profile
/// wraps nothing). Source takes the `src_file`/fault side of `cfg`, sink
/// the `dst_file` side. Returns `(source, sink)` reports.
pub fn run_split_pair(cfg: &LiveConfig, wan: &WanProfile) -> io::Result<(LiveReport, LiveReport)> {
    let (st, kt) = channel_transport(cfg.channels)?;
    let st = crate::netem::wrap_source(st, wan);
    let mut src_cfg = cfg.clone();
    src_cfg.dst_file = None;
    let mut snk_cfg = cfg.clone();
    snk_cfg.src_file = None;
    snk_cfg.src_rate = None;
    snk_cfg.fault_drop_p = 0.0;
    let mut sink = None;
    let source = std::thread::scope(|s| {
        s.spawn(|| sink = Some(run_split_sink(&snk_cfg, kt, None)));
        run_split_source(&src_cfg, st)
    });
    // A panic in a stage is the sink's error; outside them, the scope's.
    match (source, sink.expect("the scope joined the sink half")) {
        (Ok(source), Ok(sink)) => Ok((source, sink)),
        // When one half dies the other sees its links hang up; report
        // the root cause, not its echo.
        (Err(echo), Err(root)) if is_hangup(&echo) && !is_hangup(&root) => Err(root),
        (Err(e), _) | (_, Err(e)) => Err(e),
    }
}

#[cfg(test)]
mod tests;
