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
//! * the sink runs a **single driver thread** for all data links, with
//!   one receive path on every kernel: each link reads the 16-byte
//!   `DataFrameHeader` first and routes it *before* the payload read is
//!   committed — `READ_FIXED` straight into the credited slot's
//!   registered buffer for a first arrival (the CQE is the placement;
//!   no user-space copy, the one-sided WRITE analogue), a scratch read
//!   for a duplicate. Control frames are read off the same ring, and
//!   each session's events go through its mailbox to the session's own
//!   thread, which runs the same handler and coalesced ack/credit dwell
//!   (`drain_coalesced`) as the TCP sink;
//! * the daemon ([`crate::daemon`]) shares ONE ring and ONE driver
//!   thread (`MultiDriver`) across every admitted session: the whole
//!   slot arena is registered once at startup, leases map to
//!   fixed-buffer indices (admission never re-registers), and CQEs
//!   demux by `user_data = sid << 32 | link` — cross-session completion
//!   batching means one `GETEVENTS` drains arrivals for all sessions.
//!
//! There is nothing to set: the probe (run once per process) says
//! whether the backend runs at all (5.11+), and there is one sink
//! harness — a standalone sink ([`run_uring_sink`]) is that shared
//! driver with one session over its own pool. What a valid,
//! first-time data frame is and what happens when it lands is
//! [`crate::split`]'s `SinkFront`, the same one the TCP receivers
//! call.
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
    accept_source_uring, connect_source_uring, run_uring_sink, uring_supported, UringSinkSession,
};
#[cfg(not(target_os = "linux"))]
pub(crate) use stub::{run_shared_uring_session, spawn_shared_uring_driver, UringHub};
#[cfg(target_os = "linux")]
pub use {
    ring::uring_supported,
    sink::{accept_source_uring, run_uring_sink, UringSinkSession},
    source::connect_source_uring,
};
