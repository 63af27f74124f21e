//! Abort-path behaviour of every transport backend — channel, TCP, and
//! io_uring. A transfer that dies mid-flight must *fail*, promptly, on
//! both halves: the first error trips the shared failure latch, the
//! latch tears down every link, and every thread blocked on a link
//! errors out instead of hanging. These tests bound each half's exit
//! with a timeout, so a single leaked blocking read fails the suite.

use rftp_core::wire::DataFrameHeader;
use rftp_live::net::{connect_source, default_sockbuf, NetListener};
use rftp_live::{
    accept_source_uring, channel_transport, connect_source_uring, run_split_sink, run_split_source,
    run_uring_sink, uring_supported, LiveConfig, LiveReport,
};
use std::io;
use std::sync::mpsc;
use std::time::Duration;

/// Far more bytes than can move before the abort fires: the transfer is
/// guaranteed to still be mid-flight.
const ENDLESS: u64 = 64 << 30;
const ABORT_AFTER: Duration = Duration::from_millis(150);
/// A released thread exits in milliseconds; a hung one never does.
const JOIN_LIMIT: Duration = Duration::from_secs(15);

fn big_cfg(channels: usize) -> LiveConfig {
    LiveConfig::new(128 * 1024, channels, ENDLESS)
}

type HalfResult = io::Result<LiveReport>;

/// Run a pipeline half on its own thread, its result delivered through a
/// channel so the test can bound the wait.
fn spawn_half(f: impl FnOnce() -> HalfResult + Send + 'static) -> mpsc::Receiver<HalfResult> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx
}

fn must_finish(rx: &mpsc::Receiver<HalfResult>, who: &str) -> HalfResult {
    rx.recv_timeout(JOIN_LIMIT)
        .unwrap_or_else(|_| panic!("{who} still blocked {JOIN_LIMIT:?} after the abort"))
}

/// Assert the aborted transfer failed on both halves and neither hung —
/// the first error won the latch and the latch released every link.
fn assert_both_fail(src: mpsc::Receiver<HalfResult>, snk: mpsc::Receiver<HalfResult>) {
    let src = must_finish(&src, "source half");
    let snk = must_finish(&snk, "sink half");
    assert!(
        src.is_err(),
        "aborted source must error, got {:?}",
        src.map(|r| r.blocks)
    );
    assert!(
        snk.is_err(),
        "aborted sink must error, got {:?}",
        snk.map(|r| r.blocks)
    );
}

// ---------------------------------------------------------------------------
// Channel backend
// ---------------------------------------------------------------------------

// spec: [P7-peer-loss]
#[test]
fn channel_source_abort_trips_both_halves() {
    let cfg = big_cfg(3);
    let (st, kt) = channel_transport(cfg.channels).unwrap();
    let abort = st.abort.clone();
    let (sc, kc) = (cfg.clone(), cfg.clone());
    let src = spawn_half(move || run_split_source(&sc, st));
    let snk = spawn_half(move || run_split_sink(&kc, kt, None));
    std::thread::sleep(ABORT_AFTER);
    abort();
    assert_both_fail(src, snk);
}

#[test]
fn channel_sink_abort_trips_both_halves() {
    let cfg = big_cfg(3);
    let (st, kt) = channel_transport(cfg.channels).unwrap();
    let abort = kt.abort.clone();
    let (sc, kc) = (cfg.clone(), cfg.clone());
    let src = spawn_half(move || run_split_source(&sc, st));
    let snk = spawn_half(move || run_split_sink(&kc, kt, None));
    std::thread::sleep(ABORT_AFTER);
    abort();
    assert_both_fail(src, snk);
}

// ---------------------------------------------------------------------------
// TCP backend
// ---------------------------------------------------------------------------

/// Bind, connect, and hand back both running halves plus the chosen
/// side's abort hook. `abort_sink` picks which transport's hook to pull.
fn tcp_pair_with_abort(
    cfg: &LiveConfig,
    abort_sink: bool,
) -> (
    mpsc::Receiver<HalfResult>,
    mpsc::Receiver<HalfResult>,
    std::sync::Arc<dyn Fn() + Send + Sync>,
) {
    let listener = NetListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let sockbuf = default_sockbuf(cfg.block_size, cfg.channel_depth);
    let (channels, sc) = (cfg.channels, cfg.clone());
    let (src_tx, src_rx) = mpsc::channel();
    let (abort_tx, abort_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let r = (|| {
            let t = connect_source(addr, channels, sockbuf)?;
            if !abort_sink {
                let _ = abort_tx.send(t.abort.clone());
            }
            run_split_source(&sc, t)
        })();
        let _ = src_tx.send(r);
    });
    let (t, first) = listener.accept_session(sockbuf).unwrap();
    if abort_sink {
        let abort = t.abort.clone();
        let kc = cfg.clone();
        let snk = spawn_half(move || run_split_sink(&kc, t, Some(first)));
        return (src_rx, snk, abort);
    }
    let kc = cfg.clone();
    let snk = spawn_half(move || run_split_sink(&kc, t, Some(first)));
    let abort = abort_rx
        .recv_timeout(JOIN_LIMIT)
        .expect("source connected but never shared its abort hook");
    (src_rx, snk, abort)
}

// spec: [P7-peer-loss]
#[test]
fn tcp_source_abort_trips_both_halves() {
    let cfg = big_cfg(2);
    let (src, snk, abort) = tcp_pair_with_abort(&cfg, false);
    std::thread::sleep(ABORT_AFTER);
    abort();
    assert_both_fail(src, snk);
}

#[test]
fn tcp_sink_abort_trips_both_halves() {
    let cfg = big_cfg(2);
    let (src, snk, abort) = tcp_pair_with_abort(&cfg, true);
    std::thread::sleep(ABORT_AFTER);
    abort();
    assert_both_fail(src, snk);
}

/// The sink-side duplicate path (`recv_header` → `discard_wire`) over a
/// real socket: a retransmit raced ack must be consumed without
/// placement and must not desynchronize the stream — the next frame
/// still parses. After an abort, a reader blocked on the link unblocks
/// promptly instead of hanging on a half-dead socket.
// spec: [P7-route-before-read] [P7-exactly-once-placement]
#[test]
fn tcp_discard_wire_consumes_duplicates_and_unblocks_after_abort() {
    let listener = NetListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let sockbuf = default_sockbuf(4096, 4);
    let src = std::thread::spawn(move || {
        let t = connect_source(addr, 1, sockbuf).unwrap();
        // accept_session reads one opening control frame before
        // returning (normally the SessionRequest) — satisfy it.
        t.ctrl_tx
            .send(&rftp_core::wire::CtrlMsg::MrRequest { session: 7 })
            .unwrap();
        t
    });
    let (mut snk, _first) = listener.accept_session(sockbuf).unwrap();
    let src = src.join().unwrap();

    let hdr = DataFrameHeader {
        session: 7,
        seq: 5,
        slot: 1,
        len: 64,
    };
    let wire: Vec<u8> = (0..hdr.wire_len()).map(|i| i as u8).collect();
    // Original, duplicate, then one more original.
    src.data[0].send(hdr, &wire).unwrap();
    src.data[0].send(hdr, &wire).unwrap();
    let hdr2 = DataFrameHeader { seq: 6, ..hdr };
    src.data[0].send(hdr2, &wire).unwrap();

    let rx = &mut snk.data[0];
    assert_eq!(rx.recv_header().unwrap(), Some(hdr));
    let mut buf = vec![0u8; hdr.wire_len()];
    rx.recv_wire(&mut buf).unwrap();
    assert_eq!(buf, wire);
    // The duplicate: consume, don't place.
    assert_eq!(rx.recv_header().unwrap(), Some(hdr));
    rx.discard_wire(hdr.wire_len()).unwrap();
    // Stream is still framed correctly after the discard.
    assert_eq!(rx.recv_header().unwrap(), Some(hdr2));
    rx.discard_wire(hdr2.wire_len()).unwrap();

    // Park a reader on the drained link, then abort: the blocked
    // recv_header must return promptly (end-of-stream or error — either
    // tells the sink to trip its failure latch), never hang.
    let (tx, rx_done) = mpsc::channel();
    std::thread::spawn(move || {
        let r = (|| -> io::Result<()> {
            while let Some(h) = snk.data[0].recv_header()? {
                snk.data[0].discard_wire(h.wire_len())?;
            }
            Ok(())
        })();
        let _ = tx.send(r);
    });
    std::thread::sleep(Duration::from_millis(100));
    (src.abort)();
    // Ok(None) (clean EOF) and Err are both acceptable outcomes; hanging
    // is the only failure.
    let _ = rx_done
        .recv_timeout(JOIN_LIMIT)
        .expect("sink reader hung on the aborted link");
}

// ---------------------------------------------------------------------------
// io_uring backend
// ---------------------------------------------------------------------------

fn uring_or_skip() -> bool {
    if uring_supported() {
        return true;
    }
    eprintln!("skipping: io_uring transport unsupported on this kernel");
    false
}

#[test]
fn uring_source_abort_trips_both_halves() {
    if !uring_or_skip() {
        return;
    }
    let cfg = big_cfg(2);
    let listener = NetListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let sockbuf = default_sockbuf(cfg.block_size, cfg.channel_depth);
    let (sc, kc) = (cfg.clone(), cfg.clone());
    let (abort_tx, abort_rx) = mpsc::channel();
    let src = spawn_half(move || {
        let t = connect_source_uring(addr, sc.channels, sockbuf)?;
        let _ = abort_tx.send(t.abort.clone());
        run_split_source(&sc, t)
    });
    let (sess, first) = accept_source_uring(&listener, sockbuf).unwrap();
    let snk = spawn_half(move || run_uring_sink(&kc, sess, Some(first)));
    let abort = abort_rx
        .recv_timeout(JOIN_LIMIT)
        .expect("uring source never shared its abort hook");
    std::thread::sleep(ABORT_AFTER);
    abort();
    assert_both_fail(src, snk);
}

/// Remote teardown seen from the uring *source*: the TCP sink aborts its
/// links and every ring-queued send on the source side must fail the
/// transfer instead of wedging the dispatcher.
// spec: [P7-backend-interop]
#[test]
fn tcp_sink_abort_trips_uring_source() {
    if !uring_or_skip() {
        return;
    }
    let cfg = big_cfg(2);
    let listener = NetListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let sockbuf = default_sockbuf(cfg.block_size, cfg.channel_depth);
    let sc = cfg.clone();
    let src = spawn_half(move || {
        let t = connect_source_uring(addr, sc.channels, sockbuf)?;
        run_split_source(&sc, t)
    });
    let (t, first) = listener.accept_session(sockbuf).unwrap();
    let abort = t.abort.clone();
    let kc = cfg.clone();
    let snk = spawn_half(move || run_split_sink(&kc, t, Some(first)));
    std::thread::sleep(ABORT_AFTER);
    abort();
    assert_both_fail(src, snk);
}
