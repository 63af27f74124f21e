//! Sink runners: the one shared driver thread and its hub, and a
//! session's own half against it. A standalone sink is a
//! one-session driver over its own pool; a daemon runs one driver over
//! its whole arena for every session it admits.

use super::driver::{MultiDriver, Sess, SessionStats, WakeLink};
use super::ring::{probe, transfer_ring};
use crate::net::{read_admissible_request, NetCtrlTx, NetListener, SessionStreams};
use crate::pipeline::{LiveConfig, LiveReport};
use crate::split::{caught, perr, FairShare, SinkEvt, SinkSession, Tally, SINK_EVENTS};
use crate::store::{BlockPool, SlotBuf};
use crate::transport::UringStats;
use parking_lot::Mutex;
use rftp_core::wire::CtrlMsg;
use std::io;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// One accepted source connection set, ready for [`run_uring_sink`]
/// — the uring counterpart of [`NetListener::accept_session`].
pub struct UringSinkSession {
    streams: SessionStreams,
}

/// Accept one source's connection set for the io_uring sink and
/// read the opening `SessionRequest` so the caller can size its
/// half, mirroring [`NetListener::accept_session`] (a request no sink
/// can serve is refused the same way). Fails with `Unsupported` before
/// accepting anything if the kernel cannot run the backend.
pub fn accept_source_uring(
    listener: &NetListener,
    sockbuf: usize,
) -> io::Result<(UringSinkSession, CtrlMsg)> {
    probe()?;
    let (streams, first) = read_admissible_request(listener.accept_streams(sockbuf)?)?;
    Ok((UringSinkSession { streams }, first))
}

/// Run the sink half over one io_uring: the protocol brain is the
/// same `SinkSession` as the TCP sink, but placement and
/// control reads ride the ring on **one** driver thread — no
/// per-channel receivers, no control pump. It is the daemon's shared
/// driver with one session: the sink's own pool is the registered
/// table (identity lease), and this thread runs the session.
pub fn run_uring_sink(
    cfg: &LiveConfig,
    session: UringSinkSession,
    first_ctrl: Option<CtrlMsg>,
) -> io::Result<LiveReport> {
    let pool = BlockPool::new(cfg.pool_blocks, cfg.block_size);
    let view: Vec<&Mutex<SlotBuf>> = pool.iter().collect();
    let lease: Vec<u32> = (0..cfg.pool_blocks).collect();
    std::thread::scope(|scope| {
        // Pinning the pool is set-up, like allocating it: the driver
        // registers it before the session's clock starts.
        let (hub, _driver) = spawn_shared_uring_driver(scope, &pool)?;
        let run = caught(|| {
            run_shared_uring_session(cfg, session.streams, first_ctrl, &view, &lease, &hub, None)
        });
        // The session's panic is its error, so the driver is always
        // stopped, and the scope joins it. A driver-side error, a panic
        // in its loop too, reached the session through its stats.
        hub.stop();
        run?
    })
}

enum HubMsg {
    /// Adopt an admitted session under this id.
    Register(u32, Box<Sess>),
    Detach(u32),
    Stop,
}

/// Session threads' handle to the one shared driver thread. Every message is paired with a byte on the wake socket,
/// whose armed `READ` turns it into a CQE — so a driver blocked in
/// `GETEVENTS` notices registrations and detaches immediately.
pub(crate) struct UringHub {
    tx: std::sync::mpsc::Sender<HubMsg>,
    wake: Mutex<UnixStream>,
    next_sid: AtomicU32,
}

impl UringHub {
    fn send(&self, msg: HubMsg) -> io::Result<()> {
        self.tx
            .send(msg)
            .map_err(|_| perr("shared uring driver is gone"))?;
        use io::Write;
        // A failed wake write means the driver already tore the
        // socket down on its way out; the message error above (or
        // the stats channel) reports that.
        let _ = self.wake.lock().write(&[1u8]);
        Ok(())
    }

    /// Ask the driver to exit once every session has detached.
    pub(crate) fn stop(&self) {
        let _ = self.send(HubMsg::Stop);
    }
}

/// A session's place on the driver, given up by the detach handshake:
/// send the detach — the driver cuts the session's sockets, its final
/// acks riding out ahead of the FIN — and wait for the driver to drain
/// the session's ops and hand back its [`SessionStats`]. Until then the
/// ring may still `READ_FIXED` into the session's slots, so no lease may
/// come back before it; a drop — an early return, a panic — runs it too.
struct Registered<'s> {
    hub: &'s UringHub,
    sid: u32,
    stats: &'s std::sync::mpsc::Receiver<SessionStats>,
    detached: bool,
}

impl Registered<'_> {
    fn detach(&mut self) -> SessionStats {
        self.detached = true;
        let _ = self.hub.send(HubMsg::Detach(self.sid));
        self.stats.recv().unwrap_or_else(|_| SessionStats {
            tally: Tally::default(),
            err: Some(perr("uring driver exited before detach")),
            ring: UringStats::default(),
        })
    }
}

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        if !self.detached {
            self.detach();
        }
    }
}

/// The sink's one data-path thread: owns the ring over every slot a
/// session can lease (registered as fixed buffers **once**), then
/// loops adopting/detaching sessions and retiring completions until
/// told to stop. The ring is created here, on the thread that submits
/// (`SINGLE_ISSUER` pins submission to its creator).
fn driver_main(
    slots: &[Mutex<SlotBuf>],
    rx: std::sync::mpsc::Receiver<HubMsg>,
    wake_r: UnixStream,
    init_tx: std::sync::mpsc::SyncSender<io::Result<()>>,
) -> UringStats {
    let view: Vec<&Mutex<SlotBuf>> = slots.iter().collect();
    let ring = match transfer_ring(true).and_then(|r| r.register_pool(&view).map(|()| r)) {
        Ok(v) => {
            let _ = init_tx.send(Ok(()));
            v
        }
        Err(e) => {
            let _ = init_tx.send(Err(e));
            return UringStats::default();
        }
    };
    let wake = WakeLink {
        stream: wake_r,
        buf: Box::new([0u8; 64]),
    };
    let mut drv = MultiDriver::new(&ring, &view, wake);
    let run = caught(|| -> io::Result<()> {
        drv.arm_wake()?;
        drv.submit_queued()?;
        let mut stop = false;
        loop {
            loop {
                match rx.try_recv() {
                    Ok(HubMsg::Register(sid, sess)) => drv.add_session(sid, *sess)?,
                    Ok(HubMsg::Detach(sid)) => drv.begin_detach(sid),
                    Ok(HubMsg::Stop) => stop = true,
                    Err(std::sync::mpsc::TryRecvError::Empty) => break,
                    Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                        stop = true;
                        break;
                    }
                }
            }
            drv.finalize_sessions();
            if stop && drv.sessions.is_empty() {
                return Ok(());
            }
            drv.tick()?;
        }
    });
    if let Err(e) = run.and_then(|r| r) {
        drv.fail_all(e);
    }
    // Drain every kernel op targeting the arena or the wake buffer
    // before either can be freed — after a panic in the loop too — then
    // complete outstanding detach handshakes.
    drv.quiesce();
    drv.finalize_sessions();
    drv.stats_snapshot()
}

/// Spawn a shared uring driver over `slots` (a daemon's whole arena,
/// or a standalone sink's pool). Fails with `Unsupported` when the
/// kernel cannot run the ring backend, and with the driver's own error
/// when ring setup or registration fails — nothing is leaked either
/// way.
pub(crate) fn spawn_shared_uring_driver<'scope, 'env>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    slots: &'env [Mutex<SlotBuf>],
) -> io::Result<(
    Arc<UringHub>,
    std::thread::ScopedJoinHandle<'scope, UringStats>,
)> {
    probe()?;
    let (tx, rx) = std::sync::mpsc::channel::<HubMsg>();
    let (wake_w, wake_r) = UnixStream::pair()?;
    let (init_tx, init_rx) = std::sync::mpsc::sync_channel::<io::Result<()>>(1);
    let handle = scope.spawn(move || driver_main(slots, rx, wake_r, init_tx));
    let init = init_rx
        .recv()
        .unwrap_or_else(|_| Err(perr("uring driver thread died during init")));
    if let Err(e) = init {
        let _ = handle.join();
        // Pinning the slots is what fails in practice (ENOMEM under
        // a small RLIMIT_MEMLOCK), so say what to turn.
        return Err(io::Error::new(
            e.kind(),
            format!(
                "shared uring driver start-up over {} slots: {e} \
                 (shrink --slots / --pool or raise RLIMIT_MEMLOCK)",
                slots.len()
            ),
        ));
    }
    Ok((
        Arc::new(UringHub {
            tx,
            wake: Mutex::new(wake_w),
            next_sid: AtomicU32::new(0),
        }),
        handle,
    ))
}

/// Run one session's *own half* against a shared driver: register
/// the session's sockets with the hub, then drive the same
/// [`SinkSession`] as every other sink over a mailbox the
/// driver fills. Admission does **not** touch buffer registration —
/// the driver registered its slots once at start-up, and the lease
/// maps this session's wire slots onto those stable fixed-buffer
/// indices.
pub(crate) fn run_shared_uring_session(
    cfg: &LiveConfig,
    streams: SessionStreams,
    first_ctrl: Option<CtrlMsg>,
    snk_bufs: &[&Mutex<SlotBuf>],
    lease: &[u32],
    hub: &UringHub,
    fair: FairShare<'_>,
) -> io::Result<LiveReport> {
    assert_eq!(lease.len(), snk_bufs.len(), "lease covers the pool");
    let SessionStreams { ctrl, data, .. } = streams;

    // The driver owns the session's sockets: it cuts them at detach or
    // on a driver-side failure. This thread keeps a control clone for
    // the session's writes.
    let ctrl_tx = NetCtrlTx(Mutex::new(ctrl.try_clone()?));
    let mut sess = SinkSession::open(cfg, data.len(), &ctrl_tx, fair)?;
    let (evt_tx, evt_rx) = crossbeam::channel::bounded::<SinkEvt>(SINK_EVENTS);
    let (stats_tx, stats_rx) = std::sync::mpsc::sync_channel::<SessionStats>(1);
    let mailbox = (evt_tx, stats_tx);
    let entry = Sess::new(sess.front.clone(), lease.to_vec(), ctrl, data, mailbox);
    let sid = hub.next_sid.fetch_add(1, Ordering::Relaxed);

    // Register before answering the hello: the opening grants go
    // out only after the driver can be armed, so no data races the
    // first receive.
    let mut registered = Registered {
        hub,
        sid,
        stats: &stats_rx,
        detached: false,
    };
    let run = hub
        .send(HubMsg::Register(sid, Box::new(entry)))
        .and_then(|()| caught(|| sess.run(first_ctrl, &evt_rx))?);
    let mut synced = Tally::default();
    let durable = run.as_ref().map_or(Ok(()), |()| sess.sync(&mut synced));
    // The session is done, so the sockets go down now rather than when
    // the source hangs up; a late duplicate still on a data link is not
    // read.
    let stats = registered.detach();
    if let Err(e) = run {
        // The driver-side error is the root cause when both halves
        // failed (a closed mailbox surfaces here only as "pipeline
        // stopped").
        return Err(stats.err.unwrap_or(e));
    }
    durable?;
    let mut tally = stats.tally;
    tally.merge(&synced);
    // The data path lives on the ONE shared driver thread; this
    // session thread only runs the protocol brain.
    sess.finish(tally, 1, Some(stats.ring))
}

#[cfg(test)]
mod tests {
    use super::super::{connect_source_uring, uring_supported};
    use super::*;
    use std::net::TcpStream;
    use std::time::Duration;

    /// The capability probe must never panic, whatever the kernel.
    #[test]
    fn probe_is_total() {
        let _ = uring_supported();
    }

    /// One uring↔uring loopback transfer; `src_cfg` is the source's
    /// copy of the geometry, where a test sets its faults and its
    /// source file. `None` when the kernel cannot run the backend.
    fn loopback(cfg: &LiveConfig, src_cfg: LiveConfig) -> Option<(LiveReport, LiveReport)> {
        if !uring_supported() {
            eprintln!("skipping: io_uring not supported by this kernel");
            return None;
        }
        let listener = NetListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sockbuf = crate::net::default_sockbuf(cfg.block_size, cfg.channel_depth);
        let src = std::thread::spawn(move || {
            let t = connect_source_uring(addr, src_cfg.channels, sockbuf)?;
            crate::split::run_split_source(&src_cfg, t)
        });
        let (sess, first) = accept_source_uring(&listener, sockbuf).unwrap();
        let snk = run_uring_sink(cfg, sess, Some(first)).unwrap();
        let src = src.join().unwrap().unwrap();
        assert_eq!(snk.blocks, cfg.total_blocks());
        assert_eq!(snk.checksum_failures, 0, "output must be byte-identical");
        assert_eq!(
            snk.transport_threads, 1,
            "sink data path must be one thread"
        );
        assert_eq!(src.transport_threads, 1, "source adds one reaper thread");
        let ring = snk.uring.expect("uring report carries ring stats");
        assert_eq!(
            ring.registrations, 1,
            "the one-session driver registers the sink's pool once: {ring:?}"
        );
        Some((src, snk))
    }

    /// A session whose handler panics still leaves the driver: its
    /// `Registered` guard sends the detach while the panic unwinds, so
    /// a stopped driver exits instead of holding a session that no
    /// thread will collect.
    // spec: [P5-panic-fails-alone]
    #[test]
    fn a_panicking_session_still_detaches() {
        if !uring_supported() {
            eprintln!("skipping: io_uring not supported by this kernel");
            return;
        }
        let mut cfg = LiveConfig::new(4096, 1, 8192);
        cfg.pool_blocks = 2;
        let pool = BlockPool::new(cfg.pool_blocks, cfg.block_size);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut peer = Vec::new();
        let mut socks = Vec::new();
        for _ in 0..2 {
            peer.push(TcpStream::connect(addr).unwrap());
            socks.push(listener.accept().unwrap().0);
        }
        let data = socks.split_off(1);
        let ctrl = socks.pop().unwrap();
        let (evt_tx, _evt_rx) = crossbeam::channel::bounded(SINK_EVENTS);
        let (stats_tx, stats_rx) = std::sync::mpsc::sync_channel(1);
        let front = Arc::new(crate::split::SinkFront::open(&cfg).unwrap());
        let entry = Sess::new(front, vec![0, 1], ctrl, data, (evt_tx, stats_tx));
        std::thread::scope(|scope| {
            let (hub, driver) = spawn_shared_uring_driver(scope, &pool).unwrap();
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _registered = Registered {
                    hub: &hub,
                    sid: 0,
                    stats: &stats_rx,
                    detached: false,
                };
                hub.send(HubMsg::Register(0, Box::new(entry))).unwrap();
                panic!("a handler bug");
            }));
            assert!(unwound.is_err());
            hub.stop();
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while !driver.is_finished() && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            let exited = driver.is_finished();
            if !exited {
                // Let the scope join instead of hanging the suite.
                let _ = hub.send(HubMsg::Detach(0));
            }
            assert!(exited, "the driver kept a session whose handler panicked");
            driver.join().unwrap();
        });
    }

    /// Unwinding through a session's `Registered` runs the whole detach
    /// handshake: the unwind ends only once the driver has sent the
    /// session's stats — its ops on the session's slots drained — so a
    /// lease given back after it is one the ring no longer targets.
    #[test]
    fn unwinding_a_session_waits_for_its_stats() {
        if !uring_supported() {
            eprintln!("skipping: io_uring not supported by this kernel");
            return;
        }
        let mut cfg = LiveConfig::new(4096, 1, 8192);
        cfg.pool_blocks = 2;
        let pool = BlockPool::new(cfg.pool_blocks, cfg.block_size);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut peer = Vec::new();
        let mut socks = Vec::new();
        for _ in 0..2 {
            peer.push(TcpStream::connect(addr).unwrap());
            socks.push(listener.accept().unwrap().0);
        }
        let data = socks.split_off(1);
        let ctrl = socks.pop().unwrap();
        let (evt_tx, _evt_rx) = crossbeam::channel::bounded(SINK_EVENTS);
        let (stats_tx, stats_rx) = std::sync::mpsc::sync_channel(1);
        let front = Arc::new(crate::split::SinkFront::open(&cfg).unwrap());
        let entry = Sess::new(front, vec![0, 1], ctrl, data, (evt_tx, stats_tx));
        std::thread::scope(|scope| {
            let (hub, driver) = spawn_shared_uring_driver(scope, &pool).unwrap();
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _registered = Registered {
                    hub: &hub,
                    sid: 0,
                    stats: &stats_rx,
                    detached: false,
                };
                hub.send(HubMsg::Register(0, Box::new(entry))).unwrap();
                panic!("a handler bug");
            }));
            assert!(unwound.is_err());
            // The handshake took the stats before the unwind ended, so
            // none is left to arrive; the driver then dropped the session.
            let late = stats_rx.recv_timeout(Duration::from_millis(500));
            assert!(
                matches!(late, Err(std::sync::mpsc::RecvTimeoutError::Disconnected)),
                "the unwind ended before the driver sent the session's stats"
            );
            hub.stop();
            driver.join().unwrap();
        });
    }

    /// A standalone sink whose driver cannot start — a pool past the
    /// 1024-entry fixed-buffer table — fails with the driver's own
    /// error and what to turn, and its source fails rather than hangs.
    #[test]
    fn sink_whose_driver_cannot_start_fails_both_halves() {
        if !uring_supported() {
            eprintln!("skipping: io_uring not supported by this kernel");
            return;
        }
        let mut cfg = LiveConfig::new(4096, 1, 1 << 20);
        cfg.pool_blocks = 1025;
        let listener = NetListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let src_cfg = LiveConfig::new(4096, 1, 1 << 20);
        let src = std::thread::spawn(move || {
            let t = connect_source_uring(addr, src_cfg.channels, 0)?;
            crate::split::run_split_source(&src_cfg, t)
        });
        let (sess, first) = accept_source_uring(&listener, 0).unwrap();
        let err = run_uring_sink(&cfg, sess, Some(first)).unwrap_err();
        assert!(err.to_string().contains("--pool"), "{err}");
        assert!(
            src.join().unwrap().is_err(),
            "the source must see the sink go"
        );
    }

    /// Full uring↔uring loopback transfer: pattern data, checksum
    /// verified at the sink, one driver thread per side.
    #[test]
    fn uring_pattern_transfer_loopback() {
        let cfg = LiveConfig::new(64 * 1024, 4, 8 << 20);
        let Some((_, snk)) = loopback(&cfg, cfg.clone()) else {
            return;
        };
        assert!(
            snk.ctrl_msgs_per_block <= 1.0,
            "control plane not coalesced: {:.2}/blk",
            snk.ctrl_msgs_per_block
        );
    }

    /// Header-first pattern transfer: a header read and a payload
    /// read per block, so ≈ 2 CQEs.
    // spec: [P7-route-before-read]
    #[test]
    fn header_first_pattern_transfer() {
        let cfg = LiveConfig::new(64 * 1024, 4, 8 << 20);
        let Some((_, snk)) = loopback(&cfg, cfg.clone()) else {
            return;
        };
        let stats = snk.uring.expect("uring report carries ring stats");
        let per_block = stats.cqes as f64 / snk.blocks as f64;
        assert!(
            (2.0..3.0).contains(&per_block),
            "header + payload per block: {per_block:.2} CQEs/blk"
        );
    }

    /// Header-first file → file: `READ_FIXED` into the slot is the
    /// placement, the write-behind lands every block at its offset,
    /// and a ragged tail survives.
    #[test]
    fn header_first_file_to_file_is_byte_identical() {
        let dir = std::env::temp_dir();
        let tag = format!("rftp-uring-fx-{}", std::process::id());
        let (src_path, dst_path) = (dir.join(format!("{tag}.src")), dir.join(tag + ".dst"));
        let bytes: Vec<u8> = (0..(2u32 << 20) + 777)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        std::fs::write(&src_path, &bytes).unwrap();
        let mut cfg = LiveConfig::new(64 * 1024, 2, bytes.len() as u64);
        let mut src_cfg = cfg.clone();
        src_cfg.src_file = Some(src_path.clone());
        cfg.dst_file = Some(dst_path.clone());
        let ran = loopback(&cfg, src_cfg);
        let landed = std::fs::read(&dst_path);
        let _ = std::fs::remove_file(&src_path);
        let _ = std::fs::remove_file(&dst_path);
        if ran.is_none() {
            return;
        }
        assert!(landed.unwrap() == bytes, "destination differs from source");
    }

    /// Header-first under loss, with a deadline far inside the ack
    /// dwell so healthy blocks are re-sent too: every re-send of a
    /// block already placed must be read off the socket and dropped
    /// (the `Discard` arm), never placed twice.
    // spec: [P7-exactly-once-placement]
    #[test]
    fn header_first_drops_recover_exactly_once() {
        let cfg = LiveConfig::new(64 * 1024, 4, 8 << 20);
        let mut src_cfg = cfg.clone();
        src_cfg.fault_drop_p = 0.2;
        src_cfg.retx_timeout = Duration::from_micros(100);
        let Some((src, snk)) = loopback(&cfg, src_cfg) else {
            return;
        };
        assert!(src.dropped_payloads > 0, "fault injector must have fired");
        assert!(snk.duplicate_payloads > 0, "no re-send raced its ack");
        // (Not equality: a re-send still queued when the last ack
        // lands is never read.)
        assert!(
            snk.duplicate_payloads <= src.retransmits - src.dropped_payloads,
            "a re-send replaces a lost frame or is discarded: {} re-sends, {} drops, {} duplicates",
            src.retransmits,
            src.dropped_payloads,
            snk.duplicate_payloads
        );
    }
}
