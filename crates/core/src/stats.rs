//! Transfer statistics collected by the protocol engines.

use rftp_netsim::time::{SimDur, SimTime};

/// One sample of transfer progress (recorded at block completions when
/// `SourceConfig::record_timeline` is set; used to visualize the credit
/// ramp-up the paper likens to TCP slow start).
#[derive(Debug, Clone, Copy)]
pub struct TimelinePoint {
    pub at: SimTime,
    /// Cumulative payload bytes completed.
    pub bytes: u64,
    /// Credits stocked at the source at this instant.
    pub credit_stock: usize,
    /// Blocks currently in flight (posted, not completed).
    pub inflight: u32,
}

/// Fault-recovery counters (all zero on a clean run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Blocks re-sent by the retransmit watchdog or a session resume.
    pub retransmits: u64,
    /// Of `retransmits`, the watchdog's re-sends of WRITEs that the
    /// completion order proved lost (the rest are timer or resume
    /// re-sends).
    pub fast_retransmits: u64,
    /// Session resume round-trips completed (source) / honoured (sink).
    pub reconnects: u64,
    /// Credits re-granted after loss detection or resume.
    pub credits_regranted: u64,
    /// Blocks that arrived more than once at the sink (freed, not
    /// double-placed).
    pub duplicate_blocks: u64,
    /// Fatal QP error completions observed.
    pub qp_errors: u64,
    /// Time spent in a degraded state (between detecting a fatal error
    /// and completing the resume handshake).
    pub degraded: SimDur,
}

/// Source-side transfer statistics.
#[derive(Debug, Clone, Default)]
pub struct SourceStats {
    pub blocks_sent: u64,
    pub bytes_sent: u64,
    pub ctrl_msgs_sent: u64,
    pub ctrl_msgs_received: u64,
    pub credit_requests: u64,
    /// Time spent with loaded blocks waiting but zero credits in stock.
    pub credit_starved: SimDur,
    /// Maximum credits ever stocked (shows the slow-start ramp height).
    pub max_credit_stock: usize,
    /// Posts rejected with SqFull and retried.
    pub sq_full_retries: u64,
    pub sessions_completed: u32,
    /// Loss-recovery counters (zero on a clean run).
    pub faults: FaultStats,
    pub started_at: SimTime,
    pub finished_at: SimTime,
    /// Progress samples (empty unless timeline recording is enabled).
    pub timeline: Vec<TimelinePoint>,
    /// Protocol trace lines (empty unless trace recording is enabled).
    pub trace: Vec<String>,
}

impl SourceStats {
    pub fn goodput_gbps(&self) -> f64 {
        rftp_netsim::gbps(self.bytes_sent, self.finished_at.since(self.started_at))
    }
}

/// Sink-side transfer statistics.
#[derive(Debug, Clone, Default)]
pub struct SinkStats {
    pub blocks_delivered: u64,
    pub bytes_delivered: u64,
    pub ctrl_msgs_sent: u64,
    pub ctrl_msgs_received: u64,
    pub credits_granted: u64,
    /// Blocks that arrived ahead of sequence (out-of-order across QPs).
    pub ooo_blocks: u64,
    /// Deepest reorder-buffer occupancy.
    pub max_reorder_depth: usize,
    /// Payload checksum mismatches (real-data mode only; must be zero).
    pub checksum_failures: u64,
    pub sessions_completed: u32,
    /// Loss-recovery counters (zero on a clean run).
    pub faults: FaultStats,
    pub finished_at: SimTime,
    /// Protocol trace lines (empty unless trace recording is enabled).
    pub trace: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput() {
        let s = SourceStats {
            bytes_sent: 1_250_000_000,
            started_at: SimTime::ZERO,
            finished_at: SimTime(1_000_000_000),
            ..SourceStats::default()
        };
        assert!((s.goodput_gbps() - 10.0).abs() < 1e-9);
    }
}
