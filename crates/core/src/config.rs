//! Protocol and endpoint configuration.

use crate::credit::CreditMode;
use rftp_netsim::time::{Bandwidth, SimDur};

/// How the source tells the sink a block landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotifyMode {
    /// The paper's design: plain RDMA WRITE for the payload, then a
    /// `BlockComplete` control message on the control queue pair once the
    /// source polls the WRITE's completion.
    CtrlMsg,
    /// Alternative: RDMA WRITE WITH IMMEDIATE — the immediate consumes a
    /// pre-posted receive at the sink's data QP and carries
    /// (slot, seq) packed into 32 bits. Saves the per-block control
    /// message at the cost of sink-side receive management.
    WriteImm,
}

/// How the sink disposes of delivered payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsumeMode {
    /// Discard (the `/dev/null` memory-to-memory experiments): a small
    /// per-byte CPU touch on the consumer thread.
    Null,
    /// Write to a disk array: a rate-limited FIFO device plus per-byte
    /// CPU for the write path. `direct_io` skips the kernel buffer copy
    /// (the paper's RFTP uses direct I/O; GridFTP does not).
    Disk { rate: Bandwidth, direct_io: bool },
}

/// A storage profile shared by the simulated harness and the live
/// pipeline — one description of a device drives both worlds.
///
/// The simulator consumes the `rate`/`direct_io` pair (via
/// [`StoreConfig::consume_mode`]) as a rate-limited FIFO device plus the
/// per-byte CPU cost of the chosen I/O mode. The live pipeline consumes
/// `direct_io` (open files with `O_DIRECT` when the filesystem allows)
/// and `readahead` (how many blocks the loader threads may hold in
/// flight ahead of the network — the disk/network overlap depth).
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    pub name: &'static str,
    /// Sustained sequential streaming rate (simulated device model).
    pub rate: Bandwidth,
    /// Use direct I/O (bypass the page cache). RFTP enables this; the
    /// paper notes GridFTP had not integrated direct I/O.
    pub direct_io: bool,
    /// Read-ahead depth for the live pipeline: the maximum number of
    /// source blocks in flight (loading/loaded/sending/unacked) at once.
    /// `0` serializes the transfer one block at a time (no disk/network
    /// overlap); `u32::MAX` lets the loaders fill the whole pool.
    pub readahead: u32,
}

impl StoreConfig {
    pub fn new(name: &'static str, rate: Bandwidth, direct_io: bool) -> StoreConfig {
        StoreConfig {
            name,
            rate,
            direct_io,
            readahead: u32::MAX,
        }
    }

    /// Flip to buffered POSIX writes (what GridFTP would do).
    pub fn buffered(mut self) -> StoreConfig {
        self.direct_io = false;
        self
    }

    /// The simulated-sink view of this device.
    pub fn consume_mode(&self) -> ConsumeMode {
        ConsumeMode::Disk {
            rate: self.rate,
            direct_io: self.direct_io,
        }
    }
}

/// Loss-recovery policy (retransmit watchdog + session resume).
///
/// The watchdog re-sends blocks whose completion never arrived (lost
/// `BlockComplete`, swallowed CQE); the resume path rebuilds the whole
/// session after a fatal QP error (link flap, transport retry budget
/// exhausted). Disabling recovery restores the seed behaviour: any
/// fabric error is fatal and panics the engine.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    pub enabled: bool,
    /// Initial RTO: the retransmit timeout until the first WRITE
    /// completion has been timed, after which the watchdog runs on
    /// [`crate::RttEstimator::rto`] and [`crate::LossDetector::verdict`]
    /// (scanning every quarter RTO). Must comfortably exceed the WAN RTT
    /// plus the fabric's loss-detection timeout (a few RTTs).
    pub retx_timeout: SimDur,
    /// First back-off before a session resume attempt; doubles per
    /// consecutive failure up to `resume_backoff_max`.
    pub resume_backoff: SimDur,
    pub resume_backoff_max: SimDur,
    /// Give up (engine fails) after this many resume attempts without a
    /// completed session.
    pub max_resume_attempts: u32,
}

impl Default for RecoveryConfig {
    fn default() -> RecoveryConfig {
        RecoveryConfig {
            enabled: true,
            retx_timeout: SimDur::from_secs(1),
            resume_backoff: SimDur::from_millis(10),
            resume_backoff_max: SimDur::from_millis(640),
            max_resume_attempts: 64,
        }
    }
}

impl RecoveryConfig {
    /// The seed behaviour: any fabric error is fatal.
    pub fn disabled() -> RecoveryConfig {
        RecoveryConfig {
            enabled: false,
            ..RecoveryConfig::default()
        }
    }
}

/// Everything a transfer job negotiates or assumes.
#[derive(Debug, Clone)]
pub struct SourceConfig {
    /// First session id (successive jobs increment it).
    pub first_session: u32,
    /// Proposed data bytes per block.
    pub block_size: u64,
    /// Parallel data channels to request (the paper's "streams").
    pub channels: u16,
    /// Blocks in the source's registered pool.
    pub pool_blocks: u32,
    /// Completion notification mode.
    pub notify: NotifyMode,
    /// Loader threads filling blocks concurrently (Fig. 2's thread pool).
    pub loader_threads: u32,
    /// Threads polling data-channel CQs (channels are spread over them).
    pub data_cq_threads: u32,
    /// Back the pool with real bytes (checksummable) instead of virtual.
    pub real_data: bool,
    /// Control send/recv ring depth. Must cover the per-RTT control
    /// message rate (≈ one `BlockComplete` per block); sized ~2x the
    /// pool by default so the ring never throttles notifications.
    pub ctrl_ring_slots: u32,
    /// Record per-completion progress samples into
    /// `SourceStats::timeline` (bounded; for ramp-up visualizations).
    pub record_timeline: bool,
    /// Record a human-readable protocol trace (control messages sent and
    /// received, with timestamps) into the stats; bounded at 10k lines.
    pub record_trace: bool,
    /// Total bytes of each job, in order. One "job" ≈ one file.
    pub jobs: Vec<u64>,
    /// Loss-recovery policy (on by default; see [`RecoveryConfig`]).
    pub recovery: RecoveryConfig,
}

impl SourceConfig {
    /// Paper-flavoured defaults for a single memory-to-memory job.
    pub fn new(block_size: u64, channels: u16, total_bytes: u64) -> SourceConfig {
        SourceConfig {
            first_session: 1,
            block_size,
            channels,
            pool_blocks: 64,
            notify: NotifyMode::CtrlMsg,
            loader_threads: 2,
            data_cq_threads: 2,
            real_data: false,
            ctrl_ring_slots: 256,
            record_timeline: false,
            record_trace: false,
            jobs: vec![total_bytes],
            recovery: RecoveryConfig::default(),
        }
    }

    /// Size the control rings and pool together: rings at twice the pool
    /// depth (so notifications for every in-flight block plus the credit
    /// traffic fit within one RTT of ring turnaround).
    pub fn with_pool(mut self, pool_blocks: u32) -> SourceConfig {
        self.pool_blocks = pool_blocks;
        self.ctrl_ring_slots = (pool_blocks * 2).max(256);
        self
    }

    pub fn total_bytes(&self) -> u64 {
        self.jobs.iter().sum()
    }

    /// Blocks needed for `job_bytes` at the configured block size.
    pub fn blocks_for(&self, job_bytes: u64) -> u64 {
        job_bytes.div_ceil(self.block_size)
    }
}

/// Sink-side policy.
#[derive(Debug, Clone)]
pub struct SinkConfig {
    /// Largest block size the sink will accept (else `SessionReject`).
    pub max_block_size: u64,
    /// Most data channels the sink will provision.
    pub max_channels: u16,
    /// Blocks in the sink's registered pool.
    pub pool_blocks: u32,
    /// Credit policy (paper default: proactive).
    pub credit_mode: CreditMode,
    /// Credits pushed with the accept.
    pub initial_credits: u32,
    /// Credits granted per completion notification (2 in the paper).
    pub grant_per_completion: u32,
    /// Credits granted per explicit request.
    pub grant_per_request: u32,
    /// Control send/recv ring depth (see `SourceConfig::ctrl_ring_slots`).
    pub ctrl_ring_slots: u32,
    /// Threads polling data CQs (only loaded in `WriteImm` mode).
    pub data_cq_threads: u32,
    /// Payload disposal.
    pub consume: ConsumeMode,
    pub real_data: bool,
    /// Record a protocol trace into the sink stats (see `SourceConfig`).
    pub record_trace: bool,
    /// Tolerate faults: self-repair the control QP after an error,
    /// honour `SessionResume`, and free duplicate blocks instead of
    /// failing. Off restores the seed's fail-fast behaviour.
    pub recovery: bool,
}

impl Default for SinkConfig {
    fn default() -> SinkConfig {
        SinkConfig {
            max_block_size: 256 << 20,
            max_channels: 32,
            pool_blocks: 64,
            credit_mode: CreditMode::Proactive,
            initial_credits: 2,
            grant_per_completion: 2,
            grant_per_request: 4,
            ctrl_ring_slots: 256,
            data_cq_threads: 2,
            consume: ConsumeMode::Null,
            real_data: false,
            record_trace: false,
            recovery: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_defaults() {
        let c = SourceConfig::new(4 << 20, 8, 1 << 30);
        assert_eq!(c.total_bytes(), 1 << 30);
        assert_eq!(c.blocks_for(1 << 30), 256);
        assert_eq!(c.blocks_for((1 << 30) + 1), 257); // short tail block
        assert_eq!(c.notify, NotifyMode::CtrlMsg);
    }

    // spec: [P4.1-initial-credits]
    #[test]
    fn sink_defaults_match_paper_policy() {
        let s = SinkConfig::default();
        assert_eq!(s.credit_mode, CreditMode::Proactive);
        assert_eq!(s.grant_per_completion, 2);
        assert_eq!(s.initial_credits, 2);
    }
}
