//! io_uring backend for the split pipeline: one ring per side — and
//! under the daemon, one ring for every session.
//!
//! The TCP backend ([`crate::net`]) spends a thread per link — N
//! receivers plus a control pump at the sink, and a blocking `writev`
//! per block at the source. This module keeps the exact same wire
//! format (the hello exchange and the `[DataFrameHeader | wire image]`
//! stream records of PROTOCOL.md §7 — a uring source interoperates with
//! a TCP sink and vice versa) but drives all N+1 sockets of a session
//! through **one io_uring**:
//!
//! * the pinned slot pool is registered with the kernel once as *fixed
//!   buffers* (`IORING_REGISTER_BUFFERS`) — the userspace analogue of
//!   RDMA memory registration — so every data send/receive is
//!   `WRITE_FIXED`/`READ_FIXED` naming a buffer index instead of
//!   re-pinning pages per call;
//! * the source queues one `WRITE_FIXED` per block (frame header
//!   written into the slot's dead space, so header + wire image is a
//!   single contiguous SQE) and submits the whole dispatcher drain with
//!   one `io_uring_enter` — the doorbell ([`crate::transport::DataTx::kick`]); one reaper
//!   thread retires completions for every channel;
//! * the sink runs a **single driver thread** for all data links. On
//!   kernels with `IORING_RECV_MULTISHOT` + provided-buffer rings
//!   (probed live via a socketpair round-trip, `multishot_probe`)
//!   each data socket is armed once and the kernel keeps posting CQEs,
//!   picking buffers from a registered pbuf ring; the driver
//!   reassembles frames from the byte runs, copies payload to the
//!   credited slot, recycles buffers by bumping the ring tail, re-arms
//!   on `!F_MORE`, and parks/recovers links on `ENOBUFS` (un-starving
//!   runs at every CQE-batch boundary). Kernels where that probe fails
//!   fall back to header-first re-armed
//!   reads (16 bytes of `DataFrameHeader`, routed *before* the payload
//!   read is committed `READ_FIXED` into the credited slot, or into a
//!   scratch buffer for duplicates). Either way control frames are
//!   read off the same ring and the ack/credit dwell is
//!   `IORING_ENTER_EXT_ARG` timed waits feeding the shared
//!   `drain_coalesced` loop;
//! * the daemon ([`crate::daemon`]) shares ONE ring and ONE driver
//!   thread (`MultiDriver`) across every admitted session: the whole
//!   slot arena is registered once at startup, leases map to
//!   fixed-buffer indices (admission never re-registers), CQEs demux
//!   by `user_data = sid << 32 | link`, and per-session mailboxes
//!   carry events to session threads — cross-session completion
//!   batching means one `GETEVENTS` drains arrivals for all sessions.
//!
//! There is nothing to set: the probe (run once per process) picks the
//! receive path, the caller picks the shape — one session pumps the
//! driver on its own thread ([`run_uring_sink`]), a daemon runs it as a
//! shared thread — and what a valid, first-time data frame is and what
//! happens when it lands is [`crate::split`]'s `SinkFront`, the same
//! one the TCP receivers call.
//!
//! Everything is raw syscalls (`io_uring_setup`/`enter`/`register` are
//! 425/426/427 on every Linux architecture) over `extern "C"` shims —
//! the workspace links no FFI crate, matching the raw `setsockopt` in
//! [`crate::net`]. [`uring_supported`] probes the running kernel; on
//! non-Linux targets or old kernels every entry point reports
//! `Unsupported` and callers fall back to the TCP backend.

#[cfg(target_os = "linux")]
mod driver;
#[cfg(target_os = "linux")]
mod ring;
#[cfg(target_os = "linux")]
mod sink;
#[cfg(target_os = "linux")]
mod source;
#[cfg(not(target_os = "linux"))]
mod stub;
#[cfg(target_os = "linux")]
mod sys;

#[cfg(target_os = "linux")]
pub(crate) use sink::{run_shared_uring_session, spawn_shared_uring_driver, UringHub};
#[cfg(not(target_os = "linux"))]
pub use stub::{
    accept_source_uring, connect_source_uring, run_uring_sink, uring_multishot, uring_supported,
    UringSinkSession,
};
#[cfg(not(target_os = "linux"))]
pub(crate) use stub::{run_shared_uring_session, spawn_shared_uring_driver, UringHub};
#[cfg(target_os = "linux")]
pub use {
    ring::{uring_multishot, uring_supported},
    sink::{accept_source_uring, run_uring_sink, UringSinkSession},
    source::connect_source_uring,
};
