//! The live pipeline: a standalone source half and sink half joined
//! only by a [`crate::transport`].
//!
//! [`run_split_source`] (`source.rs`) runs loaders → dispatcher, a
//! control stage and the retransmit watchdog against a
//! [`SourceTransport`](crate::transport::SourceTransport);
//! [`run_split_sink`] (`sink.rs`) runs per-link receivers and a
//! control pump → handler against a
//! [`SinkTransport`](crate::transport::SinkTransport); each half may run
//! the adaptive `Controller` (`controller.rs`). Nothing crosses except
//! control frames and data frames. Over the TCP backend ([`crate::net`])
//! the two halves are two OS processes; over the in-process channel
//! backend ([`run_split_pair`]) they are the single-process transfer
//! [`run_live`](crate::run_live) reports on.
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
//!   acks and grants alike) and the source retires blocks on those acks.
//! * **Placement is the transport read.** The receiver reads each
//!   frame's wire image straight into the slot its credit named — the
//!   transport hands over the header first, then fills the credited
//!   buffer, so there is no intermediate copy on either side of the wire.
//!
//! * **Slots retire on arrival.** Both consumers a live sink has are
//!   offset-addressed — pattern verification is a function of the
//!   block's own sequence, a file sink `pwrite`s at `seq × block_size`
//!   at placement — so the handler verifies and frees a slot the moment
//!   its block lands, in whatever order that is. A lost frame holds one
//!   slot until its re-send arrives, not the pool behind it; exactly-once
//!   is the receivers' claim-before-copy bitmap plus the handler's
//!   retired-sequence bitmap. (The simulated sink, which feeds a
//!   *stream* consumer, still reassembles in order — §IV.C.)
//!
//! The source still dispatches in sequence order (loaders finish out of
//! order; the dispatcher's reorder buffer puts them back). Against a sink
//! that freed in order this was load-bearing — later sequences taking
//! the last credits while an earlier one lagged filled the pool with
//! blocks the sink could not free, a head-of-line deadlock (DESIGN.md).
//! This sink cannot be wedged that way; ordered dispatch stays because
//! it keeps the unplaced sequences one contiguous window, at most a pool
//! wide. For the same reason a loader takes a block *before* it claims a
//! sequence number.

mod controller;
mod sink;
mod source;

pub(crate) use controller::Controller;
pub use sink::run_split_sink;
pub(crate) use sink::{run_sink_session, FairShare, SinkEvt, SinkFront, SinkSession, SINK_EVENTS};
pub use source::run_split_source;

use crate::hist::StageTails;
use crate::pipeline::{LiveConfig, LiveReport};
use crate::store::{BlockPool, SlotBuf};
use crate::transport::channel_transport;
use parking_lot::Mutex;
use rftp_faults::WanProfile;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{Scope, ScopedJoinHandle};

pub(crate) fn perr(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, msg.into())
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

    pub(crate) fn set(&self, e: io::Error) {
        if !self.closed.load(Ordering::Acquire) {
            let _ = self.err.set(e);
        }
        (self.abort)();
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
    /// Stage clocks, nanoseconds summed over the stage's threads.
    pub(crate) load_ns: u64,
    pub(crate) dispatch_ns: u64,
    pub(crate) place_ns: u64,
    pub(crate) verify_ns: u64,
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
        self.load_ns += o.load_ns;
        self.dispatch_ns += o.dispatch_ns;
        self.place_ns += o.place_ns;
        self.verify_ns += o.verify_ns;
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
/// tally comes back either way. A panic trips the latch too — so the
/// transport is torn down and the siblings and the peer error out instead
/// of waiting on a thread that is gone — and then resumes, to surface
/// where the stage is joined. The body is `FnMut` so what it captures —
/// queue ends above all — drops only once the latch holds its error: a
/// sibling that sees the queue close then finds the root cause already
/// recorded.
pub(crate) fn run_stage(fail: &Fail, mut body: impl FnMut(&mut Tally) -> io::Result<()>) -> Tally {
    let mut tally = Tally::default();
    match panic::catch_unwind(AssertUnwindSafe(|| body(&mut tally))) {
        Ok(Ok(())) => {}
        Ok(Err(e)) => fail.set(e),
        Err(payload) => {
            fail.set(perr("a pipeline thread panicked"));
            panic::resume_unwind(payload);
        }
    }
    tally
}

/// [`run_stage`] on a thread of `scope`.
pub(crate) fn stage<'s>(
    scope: &'s Scope<'s, '_>,
    fail: &'s Fail,
    body: impl FnMut(&mut Tally) -> io::Result<()> + Send + 's,
) -> ScopedJoinHandle<'s, Tally> {
    scope.spawn(move || run_stage(fail, body))
}

/// Run both halves in this process over the in-proc channel transport —
/// the split pipeline's loopback — with the source behind `wan`, so
/// control and data feel the profile's full RTT, loss, and rate cap
/// (the in-process form of a two-process `--wan` run; a clean profile
/// wraps nothing). Source takes the `src_file`/fault side of `cfg`, sink
/// the `dst_file` side. Returns `(source, sink)` reports.
pub fn run_split_pair(cfg: &LiveConfig, wan: &WanProfile) -> io::Result<(LiveReport, LiveReport)> {
    let (st, kt) = channel_transport(cfg.channels, cfg.channel_depth);
    let st = crate::netem::wrap_source(st, wan);
    let mut src_cfg = cfg.clone();
    src_cfg.dst_file = None;
    let mut snk_cfg = cfg.clone();
    snk_cfg.src_file = None;
    snk_cfg.src_rate = None;
    snk_cfg.fault_drop_p = 0.0;
    // The sink's pool exists before either half starts, as a listening
    // sink's does in two-process mode. Zeroing it takes tens of
    // milliseconds at megabyte blocks; a source that started its clock
    // while the sink was still allocating would report that wait as
    // transfer time.
    let snk_bufs = BlockPool::new(snk_cfg.pool_blocks, snk_cfg.block_size);
    let view: Vec<&Mutex<SlotBuf>> = snk_bufs.iter().collect();
    std::thread::scope(|s| {
        let sink = s.spawn(|| run_sink_session(&snk_cfg, kt, None, &view, None));
        let source = run_split_source(&src_cfg, st);
        let sink = sink.join().expect("sink half panicked");
        match (source, sink) {
            (Ok(source), Ok(sink)) => Ok((source, sink)),
            // When one half dies the other sees its links hang up
            // (`BrokenPipe`); report the root cause, not its echo.
            (Err(echo), Err(root))
                if echo.kind() == io::ErrorKind::BrokenPipe
                    && root.kind() != io::ErrorKind::BrokenPipe =>
            {
                Err(root)
            }
            (Err(e), _) | (_, Err(e)) => Err(e),
        }
    })
}

#[cfg(test)]
mod tests;
