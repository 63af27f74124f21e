//! # rftp-live — the protocol pipeline on real threads
//!
//! The simulated engines in `rftp-core` prove the protocol's *timing*
//! behaviour; this crate proves its *concurrency* behaviour. It runs the
//! same middleware machinery — the Fig. 7 wire formats, the Fig. 6
//! buffer-block state machines, the proactive credit granter, and (at
//! the source's sender) the reassembly buffer — as a native
//! multi-threaded pipeline.
//!
//! There is **one** pipeline ([`split`]), and each half is a chain of
//! named stages started by one spawner: a source half (loaders, one
//! sender that sends first attempts in order and re-sends lost ones,
//! and a control stage) and a
//! sink half (per-link receivers that check each block's bytes as they
//! land, a control pump, and the one sink session that grants, and frees
//! each block the moment it lands — both live consumers are
//! offset-addressed, so no slot waits on sequence order), joined only by
//! a [`transport`] carrying encoded Fig. 7(a) control frames both ways
//! and data frames source → sink. What varies
//! is the transport:
//!
//! * **in-process** ([`channel_transport`]) — both halves in one address
//!   space over shm's window endpoints, their links on socketpairs: the
//!   loaders write each block straight into the credited sink slot, and
//!   the notify stream carries only the 16-byte record — the RDMA WRITE
//!   analogue, with no copy. [`run_live`] is this, with the two reports
//!   merged;
//! * **TCP** ([`net`]) — `rftp-live --listen` / `--connect` move a file
//!   between two OS processes; a WRITE becomes one vectored write of
//!   frame header + payload straight from the pinned block, read
//!   directly into the credited slot;
//! * **io_uring** ([`uring`]) and **shared memory** ([`shm`]) — the same
//!   halves over completion-based and zero-copy data paths, and the
//!   multi-session [`daemon`] on top.
//!
//! A transfer moves pattern data end to end with header validation and
//! a byte-for-byte pattern comparison at the sink, and reports real
//! wall-clock throughput. With a source and/or destination file
//! configured, the same pipeline runs **disk to disk**: the `store`
//! module supplies an aligned, `O_DIRECT`-capable block reader and a
//! write-behind sink that `pwrite`s each block at its final offset the
//! moment it is placed — loaders become the read-ahead scheduler and
//! sparse placement is the reassembly.

#![warn(clippy::undocumented_unsafe_blocks)]

// Every data path here stands on a Linux interface: io_uring fixed
// buffers, a memfd window passed over `SCM_RIGHTS`, `O_DIRECT`. Whether
// the running kernel grants them is probed at run time
// (`uring_supported`, `shm_supported`, the buffered fallback).
#[cfg(not(target_os = "linux"))]
compile_error!("rftp-live runs on Linux only; the simulator crates build anywhere");

pub mod args;
pub mod daemon;
pub mod hist;
pub mod net;
pub mod netem;
pub mod pipeline;
pub mod shm;
pub mod split;
pub mod store;
mod sys;
pub mod transport;
pub mod uring;

pub use daemon::{
    install_sigterm_hook, Daemon, DaemonConfig, DaemonHandle, DaemonReport, DaemonTransport,
    SessionSummary,
};
pub use hist::{NsHist, StageTails};
pub use net::{connect_source, NetListener};
pub use netem::{wrap_sink, wrap_source, WanProfile};
pub use pipeline::{run_live, try_run_live, LiveConfig, LiveReport, StageBreakdown};
pub use shm::{connect_source_shm, run_shm_sink, shm_supported, ShmListener, ShmSessionStreams};
pub use split::{run_split_pair, run_split_sink, run_split_source};
pub use store::{BlockPool, FileSink, FileSource, RatePacer, SlotBuf, STORE_ALIGN};
pub use transport::{channel_transport, SinkTransport, SourceTransport, UringStats};
pub use uring::{
    accept_source_uring, connect_source_uring, run_uring_sink, uring_supported, UringSinkSession,
};
