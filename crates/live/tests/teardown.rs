//! How a transfer ends, on every sink engine. The source sends
//! `DatasetComplete` behind the last first send; the sink ends on its
//! last arrival, sends its last ack at once and closes its links itself;
//! the source ends on that ack and the sink's end-of-stream. A re-send
//! that finds a link already gone is not an error once every block has
//! been acked.
//!
//! Two groups: `tail_*` times the end of a transfer behind a long path,
//! `late_resend_*` makes the source re-send blocks the sink has already
//! delivered, after the sink has ended.

use rftp_live::net::{connect_source, default_sockbuf, NetListener};
use rftp_live::{
    connect_source_shm, connect_source_uring, run_shm_sink, run_split_pair, run_split_sink,
    run_split_source, shm_supported, uring_supported, wrap_source, Daemon, DaemonConfig,
    DaemonTransport, LiveConfig, LiveReport, ShmListener, SourceTransport, WanProfile,
};
use std::io;
use std::time::Duration;

/// Four blocks behind a 100 ms path take two round trips from the
/// `SessionRequest`: one for the opening grants, one for the blocks and
/// their acks. With `DatasetComplete` held back until the last ack the
/// end took a third round trip (`DatasetComplete` out, the sink's close
/// back) plus the sink's ack dwell.
// spec: [P7-teardown-source] [P7-teardown-sink]
#[test]
fn tail_four_blocks_end_two_round_trips_after_the_request() {
    let wan = WanProfile::parse("rtt=100ms").unwrap();
    let mut cfg = LiveConfig::new(64 * 1024, 2, 4 * 64 * 1024);
    cfg.apply_wan(&wan);
    // Every block rides the opening grants: one round trip buys them all.
    cfg.initial_credits = cfg.initial_credits.max(4);
    let (src, snk) = run_split_pair(&cfg, &wan).expect("wan transfer");
    assert_eq!((snk.blocks, snk.checksum_failures), (4, 0));
    assert_eq!(src.retransmits, 0, "a clean path re-sends nothing");
    let bound = Duration::from_millis(250);
    assert!(
        src.elapsed < bound,
        "the source ended {:?} after its SessionRequest (bound {bound:?} = 2.5 RTT)",
        src.elapsed
    );
}

/// A static config whose retransmit deadline (2 ms) is a tenth of the
/// shim's round trip (20 ms): the watchdog re-sends the tail blocks while
/// their acks are still on the way back, and those re-sends land after
/// the sink has ended and closed its links. 32 blocks of 64 KiB.
fn late_resend_cfg() -> (LiveConfig, WanProfile) {
    let mut cfg = LiveConfig::new(64 * 1024, 2, (2 << 20) + 4097);
    cfg.pool_blocks = 16;
    cfg.retx_timeout = Duration::from_millis(2);
    (cfg, WanProfile::parse("rtt=20ms").unwrap())
}

/// The books of a late-re-send run: every block delivered once and
/// verified byte for byte, and at least one re-send that the sink never
/// read — it was still on its way when the sink ended.
fn assert_late_resends(cfg: &LiveConfig, src: &LiveReport, snk: &LiveReport) {
    assert_eq!((snk.bytes, snk.blocks), (cfg.total_bytes, 33));
    assert_eq!(snk.checksum_failures, 0, "payload differs from the source");
    assert_eq!((src.bytes, src.blocks), (snk.bytes, snk.blocks));
    assert!(
        src.retransmits > snk.duplicate_payloads,
        "no re-send outlived the sink: {} re-sends, {} read as duplicates",
        src.retransmits,
        snk.duplicate_payloads
    );
}

/// The source half behind `wan` on a helper thread.
fn spawn_source(
    cfg: &LiveConfig,
    wan: &WanProfile,
    connect: impl FnOnce() -> io::Result<SourceTransport> + Send + 'static,
) -> std::thread::JoinHandle<io::Result<LiveReport>> {
    let (cfg, wan) = (cfg.clone(), wan.clone());
    std::thread::spawn(move || run_split_source(&cfg, wrap_source(connect()?, &wan)))
}

// spec: [P7-teardown-source] [P7-teardown-order]
#[test]
fn late_resend_to_an_ended_tcp_sink_is_not_an_error() {
    let (cfg, wan) = late_resend_cfg();
    let listener = NetListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let sockbuf = default_sockbuf(cfg.block_size, cfg.channel_depth);
    let channels = cfg.channels;
    let src = spawn_source(&cfg, &wan, move || connect_source(addr, channels, sockbuf));
    let (t, first) = listener.accept_session(sockbuf).unwrap();
    let snk = run_split_sink(&cfg, t, Some(first)).expect("tcp sink");
    let src = src.join().unwrap().expect("source half");
    assert_late_resends(&cfg, &src, &snk);
}

// spec: [P7-teardown-order]
#[test]
fn late_resend_to_an_ended_shm_sink_is_not_an_error() {
    if !shm_supported() {
        eprintln!("skipping: shm transport not supported on this host");
        return;
    }
    let (cfg, wan) = late_resend_cfg();
    let path = std::env::temp_dir().join(format!("rftp_teardown_{}.sock", std::process::id()));
    let listener = ShmListener::bind(&path).unwrap();
    let channels = cfg.channels;
    let dial = path.clone();
    let src = spawn_source(&cfg, &wan, move || connect_source_shm(&dial, channels));
    let (sess, first) = listener.accept_session().unwrap();
    let snk = run_shm_sink(&cfg, sess, Some(first)).expect("shm sink");
    let src = src.join().unwrap().expect("source half");
    assert_late_resends(&cfg, &src, &snk);
}

/// A uring daemon with the `daemon-mix` geometry: four sessions' worth
/// of 8-slot leases, so a session whose lease is still being released
/// when its client has already returned does not make the next one busy.
fn uring_daemon() -> Daemon {
    let cfg = DaemonConfig {
        transport: DaemonTransport::Uring,
        slot_cap: 256 * 1024,
        arena_slots: 32,
        session_slots: 8,
        max_sessions: 8,
        credit_budget: 32,
        interactive_cutoff: 32 << 20,
        interactive_weight: 8,
        dst_dir: None,
        ..DaemonConfig::default()
    };
    Daemon::bind("127.0.0.1:0", cfg).unwrap()
}

// spec: [P7-teardown-order]
#[test]
fn late_resend_to_an_ended_uring_daemon_session_is_not_an_error() {
    if !uring_supported() {
        eprintln!("skipping: io_uring not supported by this kernel");
        return;
    }
    let d = uring_daemon();
    let (addr, handle) = (d.local_addr().unwrap(), d.handle());
    let daemon = std::thread::spawn(move || d.run());
    let (cfg, wan) = late_resend_cfg();
    let sockbuf = default_sockbuf(cfg.block_size, cfg.channel_depth);
    let channels = cfg.channels;
    let src = spawn_source(&cfg, &wan, move || {
        connect_source_uring(addr, channels, sockbuf)
    });
    let src = src.join().unwrap().expect("source half");
    handle.shutdown();
    let report = daemon.join().unwrap().expect("daemon run");
    assert_eq!((report.completed, report.failed), (1, 0));
    let snk = report.sessions[0].result.as_ref().expect("daemon session");
    assert_late_resends(&cfg, &src, snk);
}

/// The `daemon-mix` shape: 200 back-to-back 256 KiB sessions of 64 KiB
/// blocks through one uring daemon while a bulk client streams beside
/// them. Every short session ends on the sink's close, as soon as its
/// last block lands; none may fail.
// spec: [P7-teardown-order]
#[test]
fn late_resend_back_to_back_short_sessions_through_one_daemon_all_succeed() {
    if !uring_supported() {
        eprintln!("skipping: io_uring not supported by this kernel");
        return;
    }
    let d = uring_daemon();
    let (addr, handle) = (d.local_addr().unwrap(), d.handle());
    let daemon = std::thread::spawn(move || d.run());
    let client = |block: usize, total: u64| {
        let mut cfg = LiveConfig::new(block, 1, total);
        cfg.pool_blocks = 8;
        let sockbuf = default_sockbuf(cfg.block_size, cfg.channel_depth);
        connect_source(addr, 1, sockbuf).and_then(|t| run_split_source(&cfg, t))
    };
    let stop = std::sync::atomic::AtomicBool::new(false);
    let (short, bulk) = std::thread::scope(|s| {
        let bulk = s.spawn(|| {
            let mut ok = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                client(256 * 1024, 32 << 20).map_err(|e| format!("bulk session {ok}: {e}"))?;
                ok += 1;
            }
            Ok::<u64, String>(ok)
        });
        let short = (0..200).try_fold(0u64, |ok, i| match client(64 * 1024, 256 * 1024) {
            Ok(r) if r.blocks == 4 => Ok(ok + 1),
            Ok(r) => Err(format!("short session {i} moved {} blocks", r.blocks)),
            Err(e) => Err(format!("short session {i}: {e}")),
        });
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        (short, bulk.join().expect("bulk client panicked"))
    });
    handle.shutdown();
    let report = daemon.join().unwrap().expect("daemon run");
    let (short_ok, bulk_ok) = (short.unwrap(), bulk.unwrap());
    assert_eq!(short_ok, 200);
    let failed: Vec<_> = report
        .sessions
        .iter()
        .filter_map(|s| s.result.as_ref().err())
        .collect();
    assert!(failed.is_empty(), "daemon-side failures: {failed:?}");
    assert_eq!(report.completed, short_ok + bulk_ok);
}
