//! The live transfer's configuration, its report, and the single-process
//! entry point.
//!
//! There is one live data path: the split halves of [`crate::split`]
//! (source: loaders → dispatcher → wire, with a control stage and the
//! retransmit watchdog; sink: per-channel receivers and a control pump →
//! handler), joined by a [`crate::transport`]. [`run_live`] /
//! [`try_run_live`] run both halves in this process over the in-process
//! channel transport and [`LiveReport::merge`] their two reports into one.
//! That transport is a one-sided WRITE analogue — a data frame names the
//! source's pinned block and the sink end copies once into the credited
//! slot — so a single-address-space transfer still pays exactly one copy
//! per block.
//!
//! What lives here besides the entry point is what every transport
//! backend and both halves share: [`LiveConfig`] (and the largest pool a
//! sink opens, [`MAX_POOL_BLOCKS`]) and [`LiveReport`] /
//! [`StageBreakdown`], which each half builds from its stages' tallies.

use crate::split::Tally;
use rftp_core::engine::pattern_seed as engine_pattern_seed;
use rftp_core::wire::{MAX_ACKS_PER_BATCH, MAX_SLOTS_PER_CREDIT_BATCH, PAYLOAD_HEADER_LEN};
use std::path::PathBuf;
use std::time::Duration;

pub(crate) const SESSION: u32 = 1;

/// The largest pool a sink opens: the source keeps granted credits in a
/// ring of this many slots, so a larger pool could grant past it.
/// `rftp-live --pool` and `rftpd --session-slots` reject more at parse
/// time, and [`LiveConfig::apply_wan`] never sizes a pool past it.
pub const MAX_POOL_BLOCKS: u32 = 4096;

/// The symbolic rkey of the sink pool's region (channels address slots
/// directly in this model).
pub(crate) const SINK_RKEY: u64 = 0x11FE;

/// Configuration of one live transfer.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Payload bytes per block.
    pub block_size: usize,
    /// Blocks in each endpoint's pool.
    pub pool_blocks: u32,
    /// Parallel data channels.
    pub channels: usize,
    /// Loader threads at the source.
    pub loaders: usize,
    /// Total payload bytes to move.
    pub total_bytes: u64,
    /// Per-channel queue depth (the "send queue"); also the receivers'
    /// batch-drain limit.
    pub channel_depth: usize,
    /// Credits granted per completion notification (paper: 2).
    pub grant_per_completion: u32,
    pub initial_credits: u32,
    /// Max control entries coalesced per frame: completions per
    /// `AckBatch`, grants per `CreditBatch`. 1 = the unbatched wire (one
    /// frame per event: an `AckBatch` of one, a `CreditBatch` of one),
    /// for comparison runs. Clamped to the wire maxima.
    pub ctrl_batch: usize,
    /// Max-latency bound on coalescing: a partial control batch waits at
    /// most this long for more entries before it is flushed. Irrelevant
    /// at full throughput (batches fill first); bounds added latency
    /// when the pipeline trickles.
    pub flush_window: std::time::Duration,
    /// Fault injection: probability that a dispatched payload is dropped
    /// on the wire instead of reaching a receiver (0.0 = perfect
    /// fabric). Dropped blocks are recovered by the retransmit watchdog.
    pub fault_drop_p: f64,
    /// Seed for the drop RNG — same seed, same drop pattern.
    pub fault_seed: u64,
    /// A dispatched block still unacked after this long is retransmitted
    /// by the watchdog's timer (the watchdog runs when `fault_drop_p > 0`
    /// or `adaptive`; a loss the ack stream reveals is re-sent without
    /// waiting for it). Must comfortably exceed the pipeline's ack
    /// latency or healthy blocks are re-sent.
    pub retx_timeout: std::time::Duration,
    /// Source backend: read blocks from this file instead of filling
    /// pattern data. The file must hold at least `total_bytes`.
    pub src_file: Option<PathBuf>,
    /// Sink backend: `pwrite` placed blocks into this file (created and
    /// pre-sized) instead of verifying them against the pattern.
    pub dst_file: Option<PathBuf>,
    /// Open storage with `O_DIRECT` where the filesystem allows it
    /// (silently degrades to buffered I/O + `posix_fadvise` elsewhere).
    pub direct_io: bool,
    /// Model the source device's service rate, bytes/second: block reads
    /// are paced on a shared device timeline so a tmpfs- or page-cache-
    /// backed file behaves like the device a [`rftp_core::StoreConfig`]
    /// profile describes. `None` (default) reads at backing-store speed.
    pub src_rate: Option<f64>,
    /// Read-ahead depth: maximum source blocks in flight (loading →
    /// unacked) at once, i.e. how far the loaders may run ahead of the
    /// network. `0` serializes one block at a time (no disk/network
    /// overlap); `u32::MAX` (the default) lets the loaders fill the
    /// whole pool. Pacing keys off the source pool's free-depth
    /// watermark, so it costs nothing when the pool itself is the bound.
    pub readahead: u32,
    /// Run the adaptive controller: estimate RTT/loss from the live ack
    /// stream (RFC 6298) and derive the coalescing dwell window, the
    /// retransmit deadline, and — with [`LiveConfig::wan_rate_bps`] — a
    /// BDP-based in-flight depth target, instead of trusting the static
    /// `flush_window` / `retx_timeout` / pool-depth defaults that were
    /// tuned for loopback.
    pub adaptive: bool,
    /// Offered path rate in bits/s for the adaptive controller's BDP
    /// math (typically the `--wan` profile's rate cap). `None` disables
    /// the depth target; dwell and RTO still adapt.
    pub wan_rate_bps: Option<f64>,
}

impl LiveConfig {
    pub fn new(block_size: usize, channels: usize, total_bytes: u64) -> LiveConfig {
        LiveConfig {
            block_size,
            pool_blocks: 16,
            channels,
            loaders: 2,
            total_bytes,
            channel_depth: 8,
            grant_per_completion: 2,
            initial_credits: 2,
            ctrl_batch: MAX_ACKS_PER_BATCH,
            // Scale the dwell to the block service time (~block_size at
            // 2 GB/s): small blocks arrive microseconds apart and want a
            // short window; megabyte blocks are hundreds of microseconds
            // apart, and a window shorter than the gap never coalesces.
            // Capped at 1 ms — past that the dwell stops buying frames
            // and starts starving the credit loop (multi-MB blocks).
            flush_window: std::time::Duration::from_nanos(
                (block_size as u64 / 2).clamp(50_000, 1_000_000),
            ),
            fault_drop_p: 0.0,
            fault_seed: 0xFA_017,
            retx_timeout: std::time::Duration::from_millis(100),
            src_file: None,
            dst_file: None,
            direct_io: false,
            src_rate: None,
            readahead: u32::MAX,
            adaptive: false,
            wan_rate_bps: None,
        }
    }

    /// Adopt a storage profile (the same [`rftp_core::StoreConfig`]s the
    /// simulated disk harness consumes): I/O mode, modeled device rate,
    /// and read-ahead depth.
    pub fn apply_store(&mut self, store: &rftp_core::StoreConfig) {
        self.direct_io = store.direct_io;
        self.src_rate = Some(store.rate.bits_per_sec() as f64 / 8.0);
        self.readahead = store.readahead;
    }

    /// Adopt a WAN profile: turn the adaptive controller on, feed it the
    /// path's rate cap, and widen the pool / queues / retransmit deadline
    /// so the BDP target has headroom to converge upward. Static knobs
    /// the caller pinned tighter are only ever widened, never shrunk, and
    /// the pool is widened up to [`MAX_POOL_BLOCKS`] at most.
    pub fn apply_wan(&mut self, wan: &rftp_faults::WanProfile) {
        self.adaptive = true;
        self.wan_rate_bps = wan.rate_bps;
        let bdp = wan.bdp_bytes();
        if bdp > 0 {
            // 2× BDP in blocks, so a full window can be in flight while
            // the previous window's acks are still returning.
            let want = ((2 * bdp).div_ceil(self.block_size as u64))
                .min(MAX_POOL_BLOCKS as u64)
                .max(self.pool_blocks as u64) as u32;
            self.pool_blocks = want;
            self.initial_credits = self.initial_credits.max(want / 2);
            self.channel_depth = self
                .channel_depth
                .max((want as usize).div_ceil(self.channels.max(1)));
        }
        // A fixed 100 ms deadline fires spuriously past ~25 ms RTT; hold
        // a conservative floor until the estimator takes over.
        self.retx_timeout = self.retx_timeout.max(4 * wan.rtt());
    }

    pub(crate) fn total_blocks(&self) -> u64 {
        self.total_bytes.div_ceil(self.block_size as u64)
    }

    pub(crate) fn slot_bytes(&self) -> usize {
        self.block_size + PAYLOAD_HEADER_LEN
    }

    /// Completion entries per `AckBatch` frame.
    pub(crate) fn ack_batch(&self) -> usize {
        self.ctrl_batch.clamp(1, MAX_ACKS_PER_BATCH)
    }

    /// Slots per `CreditBatch` frame.
    pub(crate) fn credit_batch(&self) -> usize {
        self.ctrl_batch.clamp(1, MAX_SLOTS_PER_CREDIT_BATCH)
    }
}

/// Wall-clock nanoseconds per block spent in each pipeline stage, summed
/// across the threads that run the stage (loaders and receivers are
/// pools, so their clocks add).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageBreakdown {
    /// Header encode + pattern fill (or source-file read) at the loaders.
    pub load_ns: f64,
    /// Credit pairing, FSM transitions, and the transport send at the
    /// dispatcher.
    pub dispatch_ns: f64,
    /// Placement memcpy at the receivers.
    pub place_ns: f64,
    /// Header check + pattern comparison at the consumer.
    pub verify_ns: f64,
    /// Write-behind `pwrite` to the sink file at the receivers (zero in
    /// pattern mode).
    pub flush_ns: f64,
    /// The dataset-completion `fdatasync`, amortized per block (zero in
    /// pattern mode).
    pub sync_ns: f64,
}

/// Results of a live transfer.
#[derive(Debug, Clone)]
pub struct LiveReport {
    pub bytes: u64,
    pub blocks: u64,
    pub elapsed: std::time::Duration,
    /// Real wall-clock payload throughput, GB/s.
    pub gbytes_per_sec: f64,
    pub checksum_failures: u64,
    /// Blocks that reached the sink ahead of sequence.
    pub ooo_blocks: u64,
    /// Control messages sent (both directions, counted once at the
    /// sender). Coalesced batches count as one message — that is the
    /// point of coalescing.
    pub ctrl_msgs: u64,
    /// Control messages per payload block — the coalescing figure of
    /// merit (< 1 means the control plane is off the per-block path).
    pub ctrl_msgs_per_block: f64,
    pub credit_requests: u64,
    /// Payloads the fault injector dropped on the wire.
    pub dropped_payloads: u64,
    /// Blocks the watchdog re-sent, whichever trigger fired.
    pub retransmits: u64,
    /// The subset of `retransmits` triggered by ack inference (three
    /// later sends on the channel acked) rather than the timer. Only the
    /// source half counts them.
    pub fast_retransmits: u64,
    /// Arrivals the sink discarded as already-placed duplicates (a
    /// retransmit raced a slow ack).
    pub duplicate_payloads: u64,
    /// Per-stage cost of a block, merged from per-thread clocks at join.
    pub stages: StageBreakdown,
    /// Per-stage tail histograms (p50/p99), merged from per-thread
    /// histograms at join. A half fills the stages it runs; the
    /// single-process report carries all four.
    pub tails: crate::hist::StageTails,
    /// Threads this side ran for the data path itself — per-channel
    /// senders/receivers on stream backends, ring driver(s) on io_uring.
    /// The O(channels) → O(1) collapse is this number.
    pub transport_threads: usize,
    /// Whether storage I/O actually went through `O_DIRECT` (false in
    /// pattern mode, or when the filesystem rejected the flag and the
    /// buffered fallback served the transfer).
    pub direct_io_active: bool,
    /// Ring counters when this side ran on the io_uring backend
    /// (`None` on stream backends).
    pub uring: Option<crate::transport::UringStats>,
    /// Adaptive-controller state at end of run (`None` when the static
    /// configuration ran). The source half reports the ack-loop
    /// estimator; the sink half reports the grant-loop estimator plus
    /// first-block latency and the depth clamp; the single-process
    /// report is the source's estimator with the sink's two figures.
    pub adapt: Option<rftp_core::AdaptSnapshot>,
}

impl LiveReport {
    /// One half's report: its stages' merged `tally` over the transfer
    /// `cfg` describes.
    pub(crate) fn from_tally(
        cfg: &LiveConfig,
        elapsed: Duration,
        t: Tally,
        transport_threads: usize,
        direct_io_active: bool,
        uring: Option<crate::transport::UringStats>,
        adapt: Option<rftp_core::AdaptSnapshot>,
    ) -> LiveReport {
        let blocks = cfg.total_blocks();
        let per_block = |ns: u64| ns as f64 / blocks as f64;
        LiveReport {
            bytes: cfg.total_bytes,
            blocks,
            elapsed,
            gbytes_per_sec: cfg.total_bytes as f64 / 1e9 / elapsed.as_secs_f64().max(1e-9),
            checksum_failures: t.checksum_failures,
            ooo_blocks: t.ooo,
            ctrl_msgs: t.ctrl,
            ctrl_msgs_per_block: t.ctrl as f64 / blocks as f64,
            credit_requests: t.credit_requests,
            dropped_payloads: t.dropped,
            retransmits: t.retransmits,
            fast_retransmits: t.fast_retransmits,
            duplicate_payloads: t.duplicates,
            stages: StageBreakdown {
                load_ns: per_block(t.load_ns),
                dispatch_ns: per_block(t.dispatch_ns),
                place_ns: per_block(t.place_ns),
                verify_ns: per_block(t.verify_ns),
                flush_ns: per_block(t.flush_ns),
                sync_ns: per_block(t.sync_ns),
            },
            tails: t.tails,
            transport_threads,
            direct_io_active,
            uring,
            adapt,
        }
    }

    /// Fold the source's and the sink's reports of one transfer into one,
    /// each figure taken from the half that measures it.
    pub fn merge(src: LiveReport, snk: LiveReport) -> LiveReport {
        LiveReport {
            // The source's clock is the transfer's: it starts at the
            // session request, with the sink already up, and stops when
            // the sink has closed its side — after placement, verification
            // and the durability sync. (The sink's own clock also counts
            // its wait for the source to allocate and connect.)
            elapsed: src.elapsed,
            gbytes_per_sec: src.gbytes_per_sec,
            credit_requests: src.credit_requests,
            dropped_payloads: src.dropped_payloads,
            retransmits: src.retransmits,
            fast_retransmits: src.fast_retransmits,
            stages: StageBreakdown {
                load_ns: src.stages.load_ns,
                dispatch_ns: src.stages.dispatch_ns,
                ..snk.stages
            },
            tails: crate::hist::StageTails {
                load: src.tails.load,
                dispatch: src.tails.dispatch,
                ..snk.tails
            },
            transport_threads: src.transport_threads + snk.transport_threads,
            direct_io_active: src.direct_io_active || snk.direct_io_active,
            // The ack-loop estimator is the source's; the depth clamp and
            // the first-block latency are only ever measured at the sink.
            adapt: src.adapt.map(|a| rftp_core::AdaptSnapshot {
                effective_depth: snk.adapt.map_or(0, |k| k.effective_depth),
                first_block_us: snk.adapt.map_or(0.0, |k| k.first_block_us),
                ..a
            }),
            // Placement, verification and delivery counters are the
            // sink's, and so is `ctrl_msgs`: each half counts every frame
            // on the control link (sent + received), so the sink's figure
            // already is "both directions, counted once".
            ..snk
        }
    }
}

pub(crate) fn pattern_seed(seq: u32) -> u64 {
    engine_pattern_seed(SESSION, seq)
}

/// Run one transfer in this process; blocks until completion and returns
/// the report. Panics on protocol violations (they are bugs, not runtime
/// conditions) *and* on storage errors — use [`try_run_live`] to surface
/// the latter.
pub fn run_live(cfg: &LiveConfig) -> LiveReport {
    try_run_live(cfg).expect("storage backend failed")
}

/// [`run_live`], but storage errors (missing source file, unwritable
/// destination, short source) come back as `Err` instead of a panic.
///
/// Both halves run over the in-process transport
/// ([`crate::split::run_split_pair`]); the result is their two reports
/// [merged](LiveReport::merge).
pub fn try_run_live(cfg: &LiveConfig) -> std::io::Result<LiveReport> {
    let (src, snk) = crate::split::run_split_pair(cfg, &rftp_faults::WanProfile::clean())?;
    Ok(LiveReport::merge(src, snk))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug builds run the pattern word loops and copies far
    /// slower than release; scale test volumes so `cargo test` stays
    /// snappy while `cargo test --release` exercises the full sizes.
    const SCALE: u64 = if cfg!(debug_assertions) { 8 } else { 1 };

    #[test]
    fn unbatched_mode_sends_per_block_control() {
        let mut cfg = LiveConfig::new(64 * 1024, 2, (8 << 20) / SCALE);
        cfg.ctrl_batch = 1;
        let r = run_live(&cfg);
        assert_eq!(r.checksum_failures, 0);
        // One AckBatch of one per block plus credit grants.
        assert!(
            r.ctrl_msgs as f64 >= 1.5 * r.blocks as f64,
            "unbatched wire must pay per-block control: {} msgs for {} blocks",
            r.ctrl_msgs,
            r.blocks
        );
    }

    #[test]
    fn batched_and_unbatched_deliver_identical_bytes() {
        // Coalescing is a wire-format change only: both modes must
        // byte-verify every block and deliver the same count.
        let mk = |batch: usize| {
            let mut cfg = LiveConfig::new(32 * 1024, 3, (6 << 20) / SCALE);
            cfg.pool_blocks = 8;
            cfg.ctrl_batch = batch;
            run_live(&cfg)
        };
        let batched = mk(MAX_ACKS_PER_BATCH);
        let unbatched = mk(1);
        assert_eq!(batched.checksum_failures, 0);
        assert_eq!(unbatched.checksum_failures, 0);
        assert_eq!(batched.blocks, unbatched.blocks);
        assert!(
            batched.ctrl_msgs < unbatched.ctrl_msgs,
            "coalescing must cut message count: {} vs {}",
            batched.ctrl_msgs,
            unbatched.ctrl_msgs
        );
    }

    #[test]
    fn many_channels_and_loaders_verify() {
        let mut cfg = LiveConfig::new(128 * 1024, 8, (64 << 20) / SCALE);
        cfg.loaders = 4;
        cfg.pool_blocks = 32;
        let r = run_live(&cfg);
        assert_eq!(r.checksum_failures, 0);
        assert_eq!(r.blocks, 512 / SCALE);
    }

    #[test]
    fn tiny_pool_forces_credit_cycling() {
        let mut cfg = LiveConfig::new(256 * 1024, 2, (32 << 20) / SCALE);
        cfg.pool_blocks = 4;
        cfg.initial_credits = 1;
        cfg.grant_per_completion = 1;
        let r = run_live(&cfg);
        assert_eq!(r.checksum_failures, 0);
        assert_eq!(r.blocks, 128 / SCALE);
    }

    #[test]
    fn throughput_is_real_and_every_stage_clock_survives_the_merge() {
        // The full pipeline: loaders pattern-fill, one placement copy per
        // block, pattern verification. Release builds should beat
        // 0.2 GB/s on any machine; debug builds run a reduced volume with
        // a token floor (the word loops are unoptimized there).
        let mut cfg = LiveConfig::new(1 << 20, 4, (256 << 20) / SCALE);
        cfg.pool_blocks = 32;
        cfg.loaders = 4;
        let r = run_live(&cfg);
        assert_eq!(r.checksum_failures, 0);
        let floor = if cfg!(debug_assertions) { 0.005 } else { 0.2 };
        assert!(
            r.gbytes_per_sec > floor,
            "pipeline too slow: {:.3} GB/s",
            r.gbytes_per_sec
        );
        // Source-half and sink-half clocks must both reach the report.
        assert!(r.stages.load_ns > 0.0 && r.stages.dispatch_ns > 0.0);
        assert!(r.stages.place_ns > 0.0 && r.stages.verify_ns > 0.0);
        for (name, h) in [
            ("load", &r.tails.load),
            ("dispatch", &r.tails.dispatch),
            ("place", &r.tails.place),
            ("verify", &r.tails.verify),
        ] {
            assert_eq!(h.count(), r.blocks, "{name} histogram");
        }
    }

    #[test]
    fn dropped_payloads_recover_in_unbatched_mode() {
        let mut cfg = LiveConfig::new(32 * 1024, 2, (2 << 20) / SCALE);
        cfg.pool_blocks = 6;
        cfg.ctrl_batch = 1;
        cfg.fault_drop_p = 0.15;
        cfg.fault_seed = 3;
        cfg.retx_timeout = std::time::Duration::from_millis(25);
        let r = run_live(&cfg);
        assert_eq!(r.checksum_failures, 0);
        assert!(r.dropped_payloads >= 1, "fault injector never fired");
        assert!(r.retransmits >= r.dropped_payloads);
    }
}
