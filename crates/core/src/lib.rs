//! # rftp-core — the paper's RDMA data-transfer middleware
//!
//! This crate implements the primary contribution of *"Protocols for
//! Wide-Area Data-intensive Applications: Design and Performance Issues"*
//! (SC 2012): an application-layer data-transfer protocol for RDMA
//! networks, packaged as a middleware layer with buffer management,
//! credit-based flow control, connection management, and parallel
//! multi-channel transfer.
//!
//! * [`block`] — the buffer-block finite state machines of Fig. 6.
//! * [`pool`] — registered buffer pools built on those FSMs
//!   (`get_free_blk` / `put_free_blk` / ready-block delivery).
//! * [`wire`] — the control-message and payload-header formats of Fig. 7.
//! * [`credit`] — proactive credit flow control (the active-feedback
//!   design: up to two credits per completion → slow-start-like ramp),
//!   plus the RXIO-style request/response mode for ablation.
//! * [`reorder`] — out-of-order reassembly across parallel queue pairs.
//! * [`engine`] — the event-driven source and sink protocol engines
//!   (hybrid semantics: SEND/RECV control, RDMA WRITE bulk data).
//! * [`config`] — endpoint configuration (block size, channels, pools,
//!   notification mode, consume mode).
//! * [`harness`] — experiment wiring and transfer reports.
//! * [`stats`] — per-endpoint transfer statistics.
//!
//! ## Protocol summary
//!
//! A transfer is three phases over one control QP (SEND/RECV) and N data
//! QPs (RDMA WRITE):
//!
//! 1. **Negotiation** — `SessionRequest` (block size, channel count,
//!    session id) → `SessionAccept` (data QPNs) → channels connect →
//!    initial credits arrive proactively.
//! 2. **Transfer** — loader threads fill blocks; each loaded block pairs
//!    with a credit and fires as an RDMA WRITE on the next data channel;
//!    the source notifies completion (`BlockComplete`), the sink grants
//!    up to two fresh credits per notification and reassembles blocks
//!    in order by (session, seq) for the consumer. A starved source
//!    sends `MrRequest` and blocks until credits return.
//! 3. **Teardown** — `DatasetComplete` ends the session; follow-on jobs
//!    reuse queue pairs and registered pools.

pub mod arena;
pub mod block;
pub mod config;
pub mod credit;
pub mod engine;
pub mod estimator;
pub mod harness;
pub mod loss;
pub mod multi;
pub mod pool;
pub mod reorder;
pub mod stats;
pub mod wire;

/// The shared word-at-a-time test-data pattern, its verifier and the
/// checksum (re-exported so `rftp-live` verifies with the exact
/// definition the simulator uses).
pub use rftp_fabric::pattern;

pub use arena::{SlotArena, WeightedFair};
pub use block::{FsmError, SnkState, SrcState};
pub use config::{ConsumeMode, NotifyMode, RecoveryConfig, SinkConfig, SourceConfig, StoreConfig};
pub use credit::{CreditMode, CreditStock, Granter};
pub use engine::{SinkEngine, SourceEngine, CTRL_RING_SLOTS};
pub use estimator::{window_blocks, AdaptSnapshot, RttEstimator, MAX_POOL_BLOCKS};
pub use harness::{build_experiment, run_transfer, Experiment, TransferReport};
pub use loss::{Attempt, LossDetector, Verdict, MAX_RESENDS, REORDER_THRESHOLD};
pub use multi::{Endpoint, MultiEngine};
pub use pool::{AtomicSinkPool, AtomicSourcePool, BlockIdx, IndexQueue, PoolGeometry};
pub use reorder::ReorderBuffer;
pub use stats::{SinkStats, SourceStats};
pub use wire::{
    encode_stream_frame, BlockAck, Credit, CtrlMsg, DataFrameHeader, FrameDecoder, PayloadHeader,
    WireError, CTRL_SLOT_LEN, DATA_FRAME_HEADER_LEN, FRAME_PREFIX_LEN, MAX_ACKS_PER_BATCH,
    MAX_SLOTS_PER_CREDIT_BATCH, PAYLOAD_HEADER_LEN,
};
