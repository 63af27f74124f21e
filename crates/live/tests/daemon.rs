//! End-to-end tests for `rftpd`, the multi-session daemon: concurrent
//! sessions over one shared arena, typed admission replies, weighted-
//! fair credits, graceful drain, and crash isolation — all on loopback.

use rftp_live::net::connect_source;
use rftp_live::{
    run_split_source, Daemon, DaemonConfig, DaemonHandle, DaemonReport, DaemonTransport, LiveConfig,
};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Debug builds move bytes ~an order of magnitude slower; shrink the
/// payloads so the suite stays snappy under `cargo test`.
const SCALE: u64 = if cfg!(debug_assertions) { 4 } else { 1 };

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("rftpd_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A deterministic test file whose content depends on `seed`, so
/// concurrent sessions carry *different* bytes and a cross-placed block
/// cannot pass the byte-identity check.
fn write_test_file(path: &PathBuf, bytes: u64, seed: u64) {
    let mut f = std::fs::File::create(path).unwrap();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15 ^ seed.wrapping_mul(0x2545_F491_4F6C_DD1D);
    let mut left = bytes;
    while left > 0 {
        for w in chunk.chunks_exact_mut(8) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            w.copy_from_slice(&x.to_le_bytes());
        }
        let n = left.min(chunk.len() as u64) as usize;
        f.write_all(&chunk[..n]).unwrap();
        left -= n as u64;
    }
}

/// Bind a daemon on loopback and run it on a helper thread. Returns the
/// address, the shutdown handle, and the join handle for the report.
fn start_daemon(
    cfg: DaemonConfig,
) -> (
    std::net::SocketAddr,
    DaemonHandle,
    std::thread::JoinHandle<std::io::Result<DaemonReport>>,
) {
    let d = Daemon::bind("127.0.0.1:0", cfg).unwrap();
    let addr = d.local_addr().unwrap();
    let handle = d.handle();
    let jh = std::thread::spawn(move || d.run());
    (addr, handle, jh)
}

/// One in-process client: connect to the daemon and run the source
/// half. `uring_src` picks the client-side backend — the wire is
/// byte-identical, so either speaks to either daemon transport.
fn run_client(
    addr: std::net::SocketAddr,
    cfg: &LiveConfig,
    uring_src: bool,
) -> std::io::Result<rftp_live::LiveReport> {
    let sockbuf = rftp_live::net::default_sockbuf(cfg.block_size, cfg.channel_depth);
    let t = if uring_src {
        rftp_live::connect_source_uring(addr, cfg.channels, sockbuf)?
    } else {
        connect_source(addr, cfg.channels, sockbuf)?
    };
    run_split_source(cfg, t)
}

/// Shut the daemon down and return its report, asserting the run itself
/// (including the drained-arena slot accounting inside) succeeded.
fn drain(
    handle: &DaemonHandle,
    jh: std::thread::JoinHandle<std::io::Result<DaemonReport>>,
) -> DaemonReport {
    handle.shutdown();
    jh.join()
        .expect("daemon thread panicked (slot leak?)")
        .unwrap()
}

fn base_daemon_cfg() -> DaemonConfig {
    DaemonConfig {
        slot_cap: 64 * 1024,
        arena_slots: 32,
        session_slots: 8,
        max_sessions: 8,
        credit_budget: 32,
        dst_dir: None,
        ..DaemonConfig::default()
    }
}

/// Four sources at once, each with distinct content, through one shared
/// arena — every destination file must match its own source exactly.
fn concurrent_sessions_byte_identical(transport: DaemonTransport, mixed_src: bool, tag: &str) {
    let dir = tmp_dir(tag);
    let mut cfg = base_daemon_cfg();
    cfg.transport = transport;
    cfg.dst_dir = Some(dir.clone());
    let (addr, handle, jh) = start_daemon(cfg);

    let mut clients = Vec::new();
    for i in 0..4u64 {
        // Distinct sizes so each output file pairs with its source by
        // length alone; odd tails exercise the partial last block.
        let bytes = (4 << 20) / SCALE + 4097 + i * 131_072;
        let src = dir.join(format!("src-{i}.dat"));
        write_test_file(&src, bytes, i);
        let mut c = LiveConfig::new(64 * 1024, 2, bytes);
        c.src_file = Some(src.clone());
        let uring_src = mixed_src && i % 2 == 0;
        clients.push((
            src,
            bytes,
            std::thread::spawn(move || run_client(addr, &c, uring_src)),
        ));
    }
    let reports: Vec<_> = clients
        .into_iter()
        .map(|(src, bytes, jh)| (src, bytes, jh.join().unwrap().unwrap()))
        .collect();

    let report = drain(&handle, jh);
    assert_eq!(report.served, 4, "all four admitted: {report:?}");
    assert_eq!(report.completed, 4, "all four completed: {report:?}");
    assert_eq!(report.failed, 0);

    // Pair each session output with its source by file length, then
    // demand byte identity.
    for (src, bytes, _) in &reports {
        let want = std::fs::read(src).unwrap();
        let matching: Vec<PathBuf> = (0..4)
            .map(|n| dir.join(format!("session-{n}.dat")))
            .filter(|p| std::fs::metadata(p).is_ok_and(|m| m.len() == *bytes))
            .collect();
        assert_eq!(
            matching.len(),
            1,
            "exactly one session file of {bytes} bytes"
        );
        let got = std::fs::read(&matching[0]).unwrap();
        assert!(got == want, "session output differs from its source");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// spec: [P7-grouping] [P7.1-transparent]
#[test]
fn daemon_serves_four_concurrent_tcp_sessions_byte_identical() {
    concurrent_sessions_byte_identical(DaemonTransport::Tcp, false, "conc_tcp");
}

// spec: [P7-backend-interop] [P7.1-transparent]
#[test]
fn uring_daemon_serves_mixed_backend_sessions_byte_identical() {
    if !rftp_live::uring_supported() {
        eprintln!("skipping: io_uring transport unsupported on this kernel");
        return;
    }
    // Sink sessions on rings, sources alternating tcp/uring backends.
    concurrent_sessions_byte_identical(DaemonTransport::Uring, true, "conc_uring");
}

/// Loss on the shared uring driver: two concurrent sessions whose sources
/// drop a fifth of their frames and re-send after 100 µs, far inside the
/// ack dwell, so healthy blocks are re-sent too. Every re-send of a block
/// already placed must be read off its link and dropped (the driver's
/// `Discard` arm), never placed twice, while the other session shares the
/// ring; the drain then finds the arena whole.
#[test]
fn uring_daemon_sessions_recover_drops_exactly_once() {
    if !rftp_live::uring_supported() {
        eprintln!("skipping: io_uring transport unsupported on this kernel");
        return;
    }
    let mut cfg = base_daemon_cfg();
    cfg.transport = DaemonTransport::Uring;
    let (addr, handle, jh) = start_daemon(cfg);
    let mut c = LiveConfig::new(64 * 1024, 2, 8 << 20);
    c.fault_drop_p = 0.2;
    c.retx_timeout = Duration::from_micros(100);
    let clients: Vec<_> = (0..2)
        .map(|i| {
            let c = c.clone();
            std::thread::spawn(move || run_client(addr, &c, i == 0))
        })
        .collect();
    let sources: Vec<_> = clients
        .into_iter()
        .map(|jh| jh.join().unwrap().unwrap())
        .collect();

    let report = drain(&handle, jh);
    assert_eq!(report.completed, 2, "{report:?}");
    assert_eq!(report.failed, 0, "{report:?}");
    assert!(
        sources.iter().all(|s| s.dropped_payloads > 0),
        "fault injector must have fired on both sessions"
    );
    let sinks: Vec<_> = report
        .sessions
        .iter()
        .map(|s| s.result.as_ref().unwrap())
        .collect();
    for snk in &sinks {
        assert_eq!(snk.bytes, c.total_bytes);
        assert_eq!(snk.checksum_failures, 0, "output must be byte-identical");
    }
    assert!(
        sinks.iter().any(|s| s.duplicate_payloads > 0),
        "no re-send raced its ack"
    );
}

/// A uring daemon with a WAN configured: the source's shim carries the
/// lossy path, and the ring session behind it lands every block exactly
/// once with its controller running.
#[test]
fn uring_daemon_serves_a_lossy_wan_source_exactly_once() {
    if !rftp_live::uring_supported() {
        eprintln!("skipping: io_uring transport unsupported on this kernel");
        return;
    }
    let wan = rftp_live::WanProfile::parse("rtt=10ms,drop=0.05,seed=3").unwrap();
    let mut cfg = base_daemon_cfg();
    cfg.transport = DaemonTransport::Uring;
    cfg.wan = Some(wan.clone());
    let (addr, handle, jh) = start_daemon(cfg);
    let mut c = LiveConfig::new(64 * 1024, 2, (8 << 20) + 4097);
    c.apply_wan(&wan);
    let sockbuf = rftp_live::net::default_sockbuf(c.block_size, c.channel_depth);
    let t = rftp_live::wrap_source(connect_source(addr, c.channels, sockbuf).unwrap(), &wan);
    let src = run_split_source(&c, t).unwrap();

    let report = drain(&handle, jh);
    assert_eq!((report.completed, report.failed), (1, 0), "{report:?}");
    assert!(src.retransmits > 0, "5% loss dropped nothing");
    let snk = report.sessions[0].result.as_ref().unwrap();
    assert_eq!(
        (snk.bytes, snk.blocks, snk.checksum_failures),
        (c.total_bytes, c.total_bytes.div_ceil(64 * 1024), 0)
    );
    assert!(snk.adapt.is_some(), "the WAN session runs its controller");
    assert!(snk.uring.is_some(), "the session ran on the ring");
}

/// A full session table turns the next source away with a typed
/// `SessionBusy` — promptly, never a hang.
// spec: [P3-session-busy] [P7.1-busy] [P7.1-reply-then-drain] [P7.1-source-errors]
#[test]
fn admission_busy_on_full_session_table_is_typed_and_prompt() {
    let dir = tmp_dir("busy_table");
    let mut cfg = base_daemon_cfg();
    cfg.max_sessions = 1;
    let (addr, handle, jh) = start_daemon(cfg);

    // Occupy the one session slot with a rate-paced bulk transfer
    // (2 MB/s over 1 MB ≈ 0.5 s of held capacity).
    let src = dir.join("bulk.dat");
    write_test_file(&src, 1 << 20, 7);
    let mut bulk = LiveConfig::new(64 * 1024, 2, 1 << 20);
    bulk.src_file = Some(src);
    bulk.src_rate = Some(2.0 * 1024.0 * 1024.0);
    let bulk_jh = std::thread::spawn(move || run_client(addr, &bulk, false));
    std::thread::sleep(Duration::from_millis(150));

    let t0 = Instant::now();
    let err = run_client(addr, &LiveConfig::new(64 * 1024, 2, 1 << 20), false)
        .expect_err("second session must be refused while the table is full");
    let waited = t0.elapsed();
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused, "{err}");
    assert!(err.to_string().contains("busy"), "typed busy reply: {err}");
    let bound = Duration::from_millis(if cfg!(debug_assertions) { 1000 } else { 100 });
    assert!(waited < bound, "busy reply took {waited:?}");

    bulk_jh.join().unwrap().expect("bulk session unaffected");
    let report = drain(&handle, jh);
    assert_eq!(report.completed, 1);
    assert_eq!(report.rejected_busy, 1, "{report:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An exhausted slot arena (table has room, memory does not) is the
/// same typed busy reply.
// spec: [P3-session-busy] [P7.1-busy]
#[test]
fn admission_busy_on_exhausted_arena() {
    let dir = tmp_dir("busy_arena");
    let mut cfg = base_daemon_cfg();
    cfg.arena_slots = 8;
    cfg.session_slots = 8; // first session leases the whole arena
    cfg.max_sessions = 4;
    let (addr, handle, jh) = start_daemon(cfg);

    let src = dir.join("bulk.dat");
    write_test_file(&src, 1 << 20, 9);
    let mut bulk = LiveConfig::new(64 * 1024, 2, 1 << 20);
    bulk.src_file = Some(src);
    bulk.src_rate = Some(2.0 * 1024.0 * 1024.0);
    let bulk_jh = std::thread::spawn(move || run_client(addr, &bulk, false));
    std::thread::sleep(Duration::from_millis(150));

    let err = run_client(addr, &LiveConfig::new(64 * 1024, 2, 1 << 20), false)
        .expect_err("no slots left to lease");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused, "{err}");

    bulk_jh.join().unwrap().unwrap();
    let report = drain(&handle, jh);
    assert_eq!(report.rejected_busy, 1, "{report:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Impossible geometry (block larger than any arena slot) is a typed
/// `SessionReject`, distinct from transient busy.
// spec: [P7.1-reject] [P7.1-source-errors]
#[test]
fn admission_rejects_oversized_blocks() {
    let mut cfg = base_daemon_cfg();
    cfg.slot_cap = 64 * 1024;
    let (addr, handle, jh) = start_daemon(cfg);

    let err = run_client(addr, &LiveConfig::new(256 * 1024, 2, 1 << 20), false)
        .expect_err("block larger than slot cap");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    assert!(err.to_string().contains("rejected"), "{err}");

    let report = drain(&handle, jh);
    assert_eq!(report.rejected_geometry, 1, "{report:?}");
    assert_eq!(report.served, 0);
}

/// While a bulk transfer saturates the daemon, a small interactive
/// session must still get credits and finish — before the bulk does,
/// and promptly in absolute terms. The weighted-fair arbiter is what
/// makes this hold with a shared credit budget.
#[test]
fn bulk_cannot_starve_interactive_session() {
    let mut cfg = base_daemon_cfg();
    cfg.arena_slots = 16;
    cfg.session_slots = 8;
    cfg.credit_budget = 8; // scarce: bulk alone could hold all of it
    cfg.interactive_cutoff = 1 << 20;
    cfg.interactive_weight = 8;
    let (addr, handle, jh) = start_daemon(cfg);

    let bulk_done = Arc::new(AtomicBool::new(false));
    let bulk_bytes = (256 << 20) / SCALE;
    let bulk_jh = {
        let done = Arc::clone(&bulk_done);
        std::thread::spawn(move || {
            let r = run_client(addr, &LiveConfig::new(64 * 1024, 2, bulk_bytes), false);
            let end = Instant::now();
            done.store(true, Ordering::Release);
            (r, end)
        })
    };
    std::thread::sleep(Duration::from_millis(50));

    let t0 = Instant::now();
    let bulk_was_running = !bulk_done.load(Ordering::Acquire);
    let interactive = run_client(addr, &LiveConfig::new(64 * 1024, 1, 128 * 1024), false);
    let interactive_end = Instant::now();
    let latency = interactive_end - t0;
    interactive.expect("interactive session failed");
    let (bulk, bulk_end) = bulk_jh.join().unwrap();
    bulk.expect("bulk session failed");
    let report = drain(&handle, jh);

    assert_eq!(report.completed, 2, "{report:?}");
    assert!(
        bulk_was_running,
        "bulk finished before the interactive session even started — \
         grow bulk_bytes, the test never exercised contention"
    );
    assert!(
        interactive_end < bulk_end,
        "interactive session starved: it ended {:?} after t0, the bulk session {:?} after t0",
        interactive_end - t0,
        bulk_end.saturating_duration_since(t0)
    );
    assert!(
        latency < Duration::from_secs(2),
        "interactive session starved behind bulk: {latency:?}"
    );
}

/// SIGTERM starts a graceful drain: the in-flight session finishes and
/// the daemon exits with clean slot accounting (asserted inside
/// `Daemon::run`).
#[test]
fn sigterm_drains_in_flight_session_then_exits() {
    let dir = tmp_dir("sigterm");
    let mut cfg = base_daemon_cfg();
    cfg.dst_dir = Some(dir.clone());
    let (addr, handle, jh) = start_daemon(cfg);
    rftp_live::install_sigterm_hook(&handle);

    // A rate-paced session that is still mid-flight at signal time.
    let src = dir.join("src.dat");
    write_test_file(&src, 1 << 20, 3);
    let mut c = LiveConfig::new(64 * 1024, 2, 1 << 20);
    c.src_file = Some(src.clone());
    c.src_rate = Some(2.0 * 1024.0 * 1024.0);
    let client = std::thread::spawn(move || run_client(addr, &c, false));
    std::thread::sleep(Duration::from_millis(150));

    extern "C" {
        fn raise(sig: i32) -> i32;
    }
    unsafe {
        raise(15); // SIGTERM — the installed hook turns it into a drain
    }

    client
        .join()
        .unwrap()
        .expect("in-flight session must finish");
    let report = jh.join().unwrap().unwrap();
    assert_eq!(report.completed, 1, "{report:?}");
    assert_eq!(report.failed, 0);
    let want = std::fs::read(&src).unwrap();
    let got = std::fs::read(dir.join("session-0.dat")).unwrap();
    assert!(got == want, "drained session's bytes differ");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A source that dies mid-transfer fails its own session and nothing
/// else: the concurrent good session completes byte-identical, and the
/// crashed session's slots return to the arena (asserted at drain).
#[test]
fn session_crash_does_not_corrupt_neighbors() {
    let dir = tmp_dir("crash");
    let mut cfg = base_daemon_cfg();
    cfg.dst_dir = Some(dir.clone());
    let (addr, handle, jh) = start_daemon(cfg);

    // The victim: a separate OS process we can kill mid-flight.
    let mut crasher = std::process::Command::new(env!("CARGO_BIN_EXE_rftp-live"))
        .args(["--connect", &addr.to_string(), "--size", "2G"])
        .args(["--channels", "2", "--block", "64K"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // The neighbor: an in-process paced session overlapping the crash.
    let src = dir.join("good.dat");
    let bytes = (2 << 20) / SCALE + 999;
    write_test_file(&src, bytes, 11);
    let mut c = LiveConfig::new(64 * 1024, 2, bytes);
    c.src_file = Some(src.clone());
    let good = std::thread::spawn(move || run_client(addr, &c, false));
    std::thread::sleep(Duration::from_millis(100));

    crasher.kill().unwrap();
    crasher.wait().unwrap();

    good.join().unwrap().expect("neighbor session failed");
    let report = drain(&handle, jh);
    assert_eq!(report.completed, 1, "{report:?}");
    assert_eq!(report.failed, 1, "the crashed session is accounted");

    let want = std::fs::read(&src).unwrap();
    let good_out: Vec<PathBuf> = (0..2)
        .map(|n| dir.join(format!("session-{n}.dat")))
        .filter(|p| std::fs::metadata(p).is_ok_and(|m| m.len() == bytes))
        .collect();
    assert_eq!(good_out.len(), 1);
    let got = std::fs::read(&good_out[0]).unwrap();
    assert!(got == want, "neighbor bytes corrupted by the crash");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Back-to-back sessions reuse the same warm daemon — and the same
/// arena slots. The drain's accounting assert proves nothing leaked
/// across reuse.
#[test]
fn sequential_sessions_reuse_the_arena() {
    let mut cfg = base_daemon_cfg();
    cfg.arena_slots = 8;
    cfg.session_slots = 8; // every session leases the entire arena
    let (addr, handle, jh) = start_daemon(cfg);

    for i in 0..3 {
        let bytes = (2 << 20) / SCALE + i * 64 * 1024;
        let cfg = LiveConfig::new(64 * 1024, 2, bytes);
        // The previous session's sink thread may still be returning its
        // lease when we dial back in — a window the daemon answers with
        // a typed busy + retry hint. Behave like a real client: retry.
        let mut attempt = 0;
        loop {
            match run_client(addr, &cfg, false) {
                Ok(_) => break,
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused && attempt < 50 => {
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("sequential session {i}: {e}"),
            }
        }
    }
    let report = drain(&handle, jh);
    assert_eq!(report.served, 3, "{report:?}");
    assert_eq!(report.completed, 3);
}

/// `rftpd --session-slots` past the source's credit ring is refused at
/// parse time: a session pool that large would hang its transfer.
// spec: [P7-credit-slot-bound]
#[test]
fn session_slots_past_the_credit_ring_are_rejected_at_parse_time() {
    let mut rftpd = std::process::Command::new(env!("CARGO_BIN_EXE_rftpd"))
        .args(["--listen", "127.0.0.1:0", "--slots", "5000"])
        .args(["--session-slots", "4097"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let t0 = Instant::now();
    let status = loop {
        match rftpd.try_wait().unwrap() {
            Some(st) => break Some(st),
            None if t0.elapsed() > Duration::from_secs(10) => break None,
            None => std::thread::sleep(Duration::from_millis(25)),
        }
    };
    let _ = rftpd.kill();
    let _ = rftpd.wait();
    assert_eq!(status.and_then(|s| s.code()), Some(2), "must exit 2");
}
