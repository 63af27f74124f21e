//! The names the benchmark reports under. `BENCHMARK.json` at the
//! repository root lists exactly these (a test holds the two together),
//! and later changes cite them, so a name is never reused for another
//! quantity.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "lan-bulk-tcp",
        why: "loopback TCP, 1 MiB blocks, 2 channels: per-byte costs dominate (fill, writev, socket-to-slot copy, checksum)",
    },
    Workload {
        name: "lan-small-tcp",
        why: "same calls with 16 KiB blocks: per-block costs dominate (dispatch, syscalls, control frames, credit loop)",
    },
    Workload {
        name: "shm-bulk",
        why: "memfd transport, zero receiver copies: verify and load are the ceiling, the TCP copy is absent",
    },
    Workload {
        name: "inproc-bulk",
        why: "try_run_live in one address space: the pipeline.rs monolith, through its public entry point only",
    },
    Workload {
        name: "wan-ani-lossy",
        why: "49 ms RTT, 10 Gb/s cap, 0.1% loss over TCP: adaptive controller, RTO, ramp and retransmit do the work",
    },
    Workload {
        name: "daemon-mix",
        why: "one io_uring daemon, a bulk client beside back-to-back 256 KiB sessions: set-up, admission, fairness, teardown",
    },
    Workload {
        name: "sim-wan",
        why: "three simulated ANI-WAN transfers (two RFTP, one GridFTP), no live code: netsim kernel, fabric, engine, baselines",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which a change may worsen it.
    pub bound: f64,
}

/// Every workload reports every one of these, with tracing off.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "goodput_gbytes_per_s",
        unit: "GB/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s_per_gbyte",
        unit: "s/GB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "session_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "session_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

/// The traced pass reports every one of these on every workload; a
/// layer the workload does not run reads 0.
pub const PER_LAYER: &[PerLayer] = &[
    // live::split, source half
    lo("split.load_ns_per_block", "ns"),
    lo("split.dispatch_ns_per_block", "ns"),
    lo("split.credit_requests", "count"),
    hi("split.inflight_blocks_p50", "blocks"),
    // live::split, sink half
    lo("split.place_ns_per_block", "ns"),
    lo("split.place_p99_ns", "ns"),
    lo("split.verify_ns_per_block", "ns"),
    lo("split.verify_p99_ns", "ns"),
    lo("split.ooo_blocks_share", "ratio"),
    lo("split.ctrl_msgs_per_block", "1/block"),
    // live::transport / live::net
    lo("transport.tx_ns_p50", "ns"),
    lo("transport.tx_ns_p99", "ns"),
    lo("transport.kick_ns_per_block", "ns"),
    lo("transport.flight_ns_p50", "ns"),
    lo("transport.flight_ns_p99", "ns"),
    lo("transport.rx_wait_share", "ratio"),
    lo("transport.rx_place_ns_p50", "ns"),
    lo("transport.rx_place_ns_p99", "ns"),
    lo("transport.rx_discards", "count"),
    lo("transport.data_frames", "count"),
    lo("transport.ctrl_frames_s2k", "count"),
    lo("transport.ctrl_frames_k2s", "count"),
    lo("transport.ctrl_tx_ns_p50", "ns"),
    // credit loop
    lo("credit.ack_rtt_ns_p50", "ns"),
    lo("credit.ack_rtt_ns_p99", "ns"),
    lo("credit.sink_hold_ns_p50", "ns"),
    lo("credit.sink_hold_ns_p99", "ns"),
    lo("credit.ack_flight_ns_p50", "ns"),
    lo("credit.idle_ns_p50", "ns"),
    lo("credit.idle_ns_p99", "ns"),
    lo("credit.turnaround_ns_p50", "ns"),
    lo("credit.grants_per_ack", "ratio"),
    hi("credit.acks_per_frame", "ratio"),
    hi("credit.grants_per_frame", "ratio"),
    lo("credit.ramp_to_depth_ms", "ms"),
    lo("credit.ack_rtt_residual_share", "ratio"),
    // live::netem + core::estimator
    hi("netem.pipe_utilisation", "ratio"),
    hi("netem.bdp_bound_gbytes_per_s", "GB/s"),
    lo("estimator.srtt_us", "us"),
    lo("estimator.rttvar_us", "us"),
    hi("estimator.effective_depth", "blocks"),
    lo("estimator.dwell_ns", "ns"),
    lo("estimator.loss_rate", "ratio"),
    lo("estimator.first_block_ms", "ms"),
    lo("estimator.first_block_rtts", "ratio"),
    lo("split.retransmits", "count"),
    lo("split.dropped_payloads", "count"),
    lo("split.duplicate_payloads", "count"),
    lo("split.retx_per_drop", "ratio"),
    // live::shm
    hi("shm.tx_copy_gbytes_per_s", "GB/s"),
    lo("shm.place_ns_per_block", "ns"),
    // live::uring
    lo("uring.enters_per_block", "1/block"),
    lo("uring.cqes_per_block", "1/block"),
    lo("uring.multishot_rearms", "count"),
    lo("uring.pbuf_exhausted", "count"),
    lo("uring.registrations", "count"),
    lo("uring.place_ns_per_block", "ns"),
    // live::daemon + core::arena
    lo("daemon.connect_to_accept_ms_p50", "ms"),
    lo("daemon.transfer_ms_p50", "ms"),
    lo("daemon.teardown_ms_p50", "ms"),
    lo("daemon.session_solo_p50_ms", "ms"),
    lo("daemon.contention_ratio", "ratio"),
    hi("daemon.completed", "count"),
    lo("daemon.failed", "count"),
    lo("daemon.rejected_busy", "count"),
    lo("daemon.dropped_preadmission", "count"),
    lo("arena.lease_release_ns", "ns"),
    lo("arena.weightedfair_ns", "ns"),
    // live::pipeline
    lo("pipeline.load_ns_per_block", "ns"),
    lo("pipeline.dispatch_ns_per_block", "ns"),
    lo("pipeline.place_ns_per_block", "ns"),
    lo("pipeline.verify_ns_per_block", "ns"),
    lo("pipeline.ctrl_msgs_per_block", "1/block"),
    lo("pipeline.ooo_blocks_share", "ratio"),
    // fabric::pattern and the host's ceilings
    hi("pattern.fill_gbytes_per_s", "GB/s"),
    hi("pattern.checksum_gbytes_per_s", "GB/s"),
    hi("pattern.checksum_small_gbytes_per_s", "GB/s"),
    hi("host.memcpy_gbytes_per_s", "GB/s"),
    hi("host.loopback_gbytes_per_s", "GB/s"),
    hi("host.ceiling_share", "ratio"),
    // core::wire, core::pool, core::reorder
    lo("wire.ctrl_encode_ns", "ns"),
    lo("wire.ctrl_decode_ns", "ns"),
    lo("wire.data_header_ns", "ns"),
    lo("pool.indexqueue_op_ns", "ns"),
    lo("reorder.insert_pop_ns", "ns"),
    // live::store
    hi("store.read_block_gbytes_per_s", "GB/s"),
    hi("store.write_block_gbytes_per_s", "GB/s"),
    // netsim / fabric / core::engine / baselines
    lo("netsim.events", "count"),
    hi("netsim.events_per_s", "1/s"),
    lo("netsim.ns_per_event", "ns"),
    lo("sim.wall_s", "s"),
    lo("sim.rftp_small_wall_s", "s"),
    lo("sim.rftp_large_wall_s", "s"),
    lo("sim.gridftp_wall_s", "s"),
    hi("sim.goodput_gbps", "Gb/s"),
    // the tracer itself
    lo("trace.spans", "count"),
    lo("trace.first_block_seam_ms", "ms"),
    lo("trace.overhead_share", "ratio"),
];

pub fn workload_named(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// The contract's limits on names and units.
    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        (1..=16).contains(&s.len())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn registry_meets_the_contract_limits() {
        let mut seen = std::collections::HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(
                name_ok(m.name) && unit_ok(m.unit) && seen.insert(m.name),
                "{}",
                m.name
            );
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in PER_LAYER {
            assert!(
                name_ok(m.name) && unit_ok(m.unit) && seen.insert(m.name),
                "{}",
                m.name
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    /// `BENCHMARK.json` is this registry, written out. The test prints
    /// the expected text on a mismatch so the file can be regenerated.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let expected = Json::obj([
            (
                "command",
                Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
            ),
            ("paths", Json::Arr(vec![Json::str("benchmark")])),
            ("run_seconds", Json::Int(crate::RUN_SECONDS as i64)),
            (
                "workloads",
                Json::Arr(
                    WORKLOADS
                        .iter()
                        .map(|w| {
                            Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))])
                        })
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Json::Arr(
                    END_TO_END
                        .iter()
                        .map(|m| {
                            Json::obj([
                                ("name", Json::str(m.name)),
                                ("unit", Json::str(m.unit)),
                                ("better", Json::str(m.better.as_str())),
                                ("bound", Json::Num(m.bound)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "per_layer",
                Json::Arr(
                    PER_LAYER
                        .iter()
                        .map(|m| {
                            Json::obj([
                                ("name", Json::str(m.name)),
                                ("unit", Json::str(m.unit)),
                                ("better", Json::str(m.better.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .to_string();
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).unwrap_or_default();
        let squash = |s: &str| s.split_whitespace().collect::<String>();
        assert_eq!(
            squash(&on_disk),
            squash(&expected),
            "BENCHMARK.json is out of step with src/metrics.rs; expected:\n{expected}"
        );
    }
}
