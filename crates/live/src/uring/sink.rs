//! Sink runners: the standalone one-session pump, the daemon's shared
//! driver thread and its hub, and a daemon session's handler half.

use super::driver::{MultiDriver, Sess, SessionStats, WakeLink};
use super::ring::{probe, transfer_ring, PbufRing, Ring, RING_ENTRIES};
use crate::coalesce::channel_events;
use crate::net::{read_first_request, shutdown_all, NetCtrlTx, NetListener, SessionStreams};
use crate::pipeline::{LiveConfig, LiveReport};
use crate::split::{perr, FairShare, SinkEvt, SinkSession, Tally, SINK_EVENTS, SINK_EVENT_DRAIN};
use crate::store::{BlockPool, SlotBuf};
use crate::transport::UringStats;
use parking_lot::Mutex;
use rftp_core::wire::{CtrlMsg, DATA_FRAME_HEADER_LEN, PAYLOAD_HEADER_LEN};
use std::io;
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Smallest 4K-aligned provided-buffer length that holds one whole
/// wire frame (frame header + payload header + block), so a
/// saturated link's multishot completion covers a full block and
/// CQEs/block stays ~1.
fn pbuf_len(block_size: usize) -> usize {
    (DATA_FRAME_HEADER_LEN + PAYLOAD_HEADER_LEN + block_size + 4095) & !4095
}

/// Provided buffers a sink ring posts. A worst-case burst (every
/// buffer completing at once, plus re-arms) stays well inside the CQ
/// (2×[`RING_ENTRIES`]).
const PBUF_COUNT: u32 = 32;

/// How a sink ring receives. The kernel probe decides; nothing the
/// user sets does. Tests build their own to reach the header-first
/// fallback and a starved buffer ring on a kernel that has multishot.
#[derive(Clone, Copy)]
struct RecvPlan {
    /// Multishot receive into provided buffers (vs header-first
    /// `READ_FIXED`).
    multishot: bool,
    pbufs: u32,
}

impl RecvPlan {
    /// `Unsupported` when the kernel cannot run the backend at all.
    fn probed() -> io::Result<RecvPlan> {
        Ok(RecvPlan {
            multishot: probe()?,
            pbufs: PBUF_COUNT,
        })
    }
}

/// A sink's ring: created *on the calling thread* (`SINGLE_ISSUER`
/// pins submission to the creator), `bufs` registered as its
/// fixed-buffer table once, and — under a multishot plan — the
/// provided-buffer ring posted, each buffer holding one
/// `block_size` frame.
fn sink_ring(
    plan: RecvPlan,
    bufs: &[&Mutex<SlotBuf>],
    block_size: usize,
) -> io::Result<(Ring, Option<PbufRing>)> {
    let ring = transfer_ring(true)?;
    ring.register_pool(bufs)?;
    let pbuf = plan
        .multishot
        .then(|| PbufRing::new(&ring, plan.pbufs, pbuf_len(block_size)))
        .transpose()?;
    Ok((ring, pbuf))
}

/// One accepted source connection set, ready for [`run_uring_sink`]
/// — the uring counterpart of [`NetListener::accept_session`].
pub struct UringSinkSession {
    streams: SessionStreams,
}

/// Accept one source's connection set for the io_uring sink and
/// read the opening `SessionRequest` so the caller can size its
/// half, mirroring [`NetListener::accept_session`]. Fails with
/// `Unsupported` before accepting anything if the kernel cannot run
/// the backend.
pub fn accept_source_uring(
    listener: &NetListener,
    sockbuf: usize,
) -> io::Result<(UringSinkSession, CtrlMsg)> {
    probe()?;
    let mut streams = listener.accept_streams(sockbuf)?;
    let first = read_first_request(&mut streams.ctrl)?;
    Ok((UringSinkSession { streams }, first))
}

/// Run the sink half over one io_uring: the protocol brain is the
/// same `SinkSession` and handler as the TCP sink,
/// but placement, control reads, and the ack/credit dwell all ride
/// the ring on **one** thread — no per-channel receivers, no
/// control pump.
pub fn run_uring_sink(
    cfg: &LiveConfig,
    session: UringSinkSession,
    first_ctrl: Option<CtrlMsg>,
) -> io::Result<LiveReport> {
    run_uring_sink_with(cfg, session, first_ctrl, RecvPlan::probed()?)
}

/// [`run_uring_sink`] under an explicit [`RecvPlan`]: a one-session
/// [`MultiDriver`] in pump mode over the sink's own pool.
fn run_uring_sink_with(
    cfg: &LiveConfig,
    session: UringSinkSession,
    first_ctrl: Option<CtrlMsg>,
    plan: RecvPlan,
) -> io::Result<LiveReport> {
    let snk_bufs = BlockPool::new(cfg.pool_blocks, cfg.block_size);
    let snk_bufs: Vec<&Mutex<SlotBuf>> = snk_bufs.iter().collect();
    let SessionStreams { ctrl, data, .. } = session.streams;
    assert_eq!(data.len(), cfg.channels, "one data link per channel");
    assert!(cfg.channels as u32 + 2 <= RING_ENTRIES);
    // Pinning the pool and faulting in the provided buffers is
    // set-up, like allocating the pool: it happens before the
    // session's clock starts.
    let (ring, pbuf) = sink_ring(plan, &snk_bufs, cfg.block_size)?;
    let ctrl_tx = NetCtrlTx(Mutex::new(ctrl.try_clone()?));

    let sess = SinkSession::open(cfg, snk_bufs.len())?;
    let mut h = sess.handler(&ctrl_tx, &snk_bufs, None);
    let mut drv = MultiDriver::new(&ring, &snk_bufs, plan.multishot, pbuf);
    // Pump mode: one session, identity lease (the pool *is* the
    // registered table), no mailbox — `pump` feeds the handler
    // directly on this thread.
    let entry = Sess::new(
        sess.front.clone(),
        (0..cfg.pool_blocks).collect(),
        ctrl,
        data,
        None,
    );
    let run = drv
        .add_session(0, entry)
        .and_then(|()| h.run(first_ctrl, &mut |w, out| drv.pump(0, w, out)));
    // A closed pump is the echo; the driver knows the cause.
    let run = run.map_err(|e| drv.take_err(0).unwrap_or(e));
    // Quiesce before the slot buffers, provided buffers, or ring
    // can be freed: shut every link (the transfer is over either
    // way — the final acks are already flushed and ride out ahead
    // of the FIN), then drain the in-flight reads the shutdown
    // completes.
    drv.begin_detach(0);
    drv.quiesce();
    let ring_stats = drv.stats_snapshot();
    let tally = drv.sessions.remove(&0).expect("pump session").tally;
    drop(drv);
    drop(ring);
    run?;
    // The whole data path — all N links, placement, control, and
    // the dwell — is this one driver thread.
    sess.finish(h, tally, 1, Some(ring_stats))
}

enum HubMsg {
    /// Adopt an admitted session under this id.
    Register(u32, Box<Sess>),
    Detach(u32),
    Stop,
}

/// Session threads' handle to the daemon's one shared driver
/// thread. Every message is paired with a byte on the wake socket,
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

/// The daemon's one data-path thread: owns the shared ring over the
/// whole arena (registered as fixed buffers **once**), then loops
/// adopting/detaching sessions and retiring completions until told
/// to stop.
fn driver_main(
    plan: RecvPlan,
    slots: &[Mutex<SlotBuf>],
    slot_cap: usize,
    rx: std::sync::mpsc::Receiver<HubMsg>,
    wake_r: UnixStream,
    init_tx: std::sync::mpsc::SyncSender<io::Result<()>>,
) -> UringStats {
    let view: Vec<&Mutex<SlotBuf>> = slots.iter().collect();
    let (ring, pbuf) = match sink_ring(plan, &view, slot_cap) {
        Ok(v) => {
            let _ = init_tx.send(Ok(()));
            v
        }
        Err(e) => {
            let _ = init_tx.send(Err(e));
            return UringStats::default();
        }
    };
    let mut drv = MultiDriver::new(&ring, &view, plan.multishot, pbuf);
    drv.wake = Some(WakeLink {
        stream: wake_r,
        buf: Box::new([0u8; 64]),
    });
    let run = (|| -> io::Result<()> {
        drv.arm_wake()?;
        drv.submit_queued()?;
        let mut stop = false;
        loop {
            loop {
                match rx.try_recv() {
                    Ok(HubMsg::Register(sid, sess)) => drv.add_daemon_session(sid, *sess)?,
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
            drv.daemon_tick()?;
        }
    })();
    if let Err(e) = run {
        drv.fail_all(e);
    }
    // Drain every kernel op targeting the arena, the provided
    // buffers, or the wake buffer before any can be freed, then
    // complete outstanding detach handshakes.
    drv.quiesce();
    drv.finalize_sessions();
    drv.stats_snapshot()
}

/// Spawn the daemon's shared uring driver over the whole arena
/// (`slots`, every buffer sized `slot_cap`). Fails with
/// `Unsupported` when the kernel cannot run the ring backend, and
/// with the driver's own error when ring setup / registration /
/// pbuf posting fails — nothing is leaked either way.
pub(crate) fn spawn_shared_uring_driver<'scope, 'env>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    slots: &'env [Mutex<SlotBuf>],
    slot_cap: usize,
) -> io::Result<(
    Arc<UringHub>,
    std::thread::ScopedJoinHandle<'scope, UringStats>,
)> {
    let plan = RecvPlan::probed()?;
    let (tx, rx) = std::sync::mpsc::channel::<HubMsg>();
    let (wake_w, wake_r) = UnixStream::pair()?;
    let (init_tx, init_rx) = std::sync::mpsc::sync_channel::<io::Result<()>>(1);
    let handle = scope.spawn(move || driver_main(plan, slots, slot_cap, rx, wake_r, init_tx));
    let init = init_rx
        .recv()
        .unwrap_or_else(|_| Err(perr("uring driver thread died during init")));
    if let Err(e) = init {
        let _ = handle.join();
        // Pinning the arena is what fails in practice (ENOMEM under
        // a small RLIMIT_MEMLOCK), so say what to turn.
        return Err(io::Error::new(
            e.kind(),
            format!(
                "shared uring driver start-up over {} slots: {e} \
                 (shrink --slots or raise RLIMIT_MEMLOCK)",
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

/// Run one admitted daemon session's *handler half* against the
/// shared driver: register the session's sockets with the hub, then
/// drive the same [`SinkSession`] and handler as every other sink
/// over a mailbox the driver fills. Admission does
/// **not** touch buffer registration — the arena was registered
/// once at daemon startup, and the lease maps this session's wire
/// slots onto those stable fixed-buffer indices.
pub(crate) fn run_shared_uring_session(
    cfg: &LiveConfig,
    streams: SessionStreams,
    first_ctrl: Option<CtrlMsg>,
    snk_bufs: &[&Mutex<SlotBuf>],
    lease: &[u32],
    hub: &UringHub,
    fair: FairShare<'_>,
) -> io::Result<LiveReport> {
    let sess = SinkSession::open(cfg, snk_bufs.len())?;
    assert_eq!(lease.len(), snk_bufs.len(), "lease covers the pool");
    let SessionStreams { ctrl, data, .. } = streams;
    assert_eq!(data.len(), cfg.channels, "one data link per channel");

    // The driver gets its own socket clones (it cuts them on a
    // driver-side failure); this thread keeps the originals for the
    // handler's control writes and its own teardown.
    let drv_data = data
        .iter()
        .map(TcpStream::try_clone)
        .collect::<io::Result<Vec<_>>>()?;
    let ctrl_tx = NetCtrlTx(Mutex::new(ctrl.try_clone()?));
    let (evt_tx, evt_rx) = crossbeam::channel::bounded::<SinkEvt>(SINK_EVENTS);
    let (stats_tx, stats_rx) = std::sync::mpsc::sync_channel::<SessionStats>(1);
    let entry = Sess::new(
        sess.front.clone(),
        lease.to_vec(),
        ctrl.try_clone()?,
        drv_data,
        Some((evt_tx, stats_tx)),
    );
    let sid = hub.next_sid.fetch_add(1, Ordering::Relaxed);

    let mut h = sess.handler(&ctrl_tx, snk_bufs, fair);
    // Register before answering the hello: the opening grants go
    // out only after the driver can be armed, so no data races the
    // first receive.
    let run = hub
        .send(HubMsg::Register(sid, Box::new(entry)))
        .and_then(|()| h.run(first_ctrl, &mut channel_events(&evt_rx, SINK_EVENT_DRAIN)));

    // Detach handshake: cut our socket halves (the final acks are
    // already flushed and ride out ahead of the FIN), then wait for
    // the driver to drain its in-flight ops and hand back the
    // session's stats. Only after that may the caller release the
    // arena lease — no kernel op can target the leased slots.
    let _ = ctrl.shutdown(Shutdown::Both);
    shutdown_all(&data, Shutdown::Both);
    let _ = hub.send(HubMsg::Detach(sid));
    let stats = stats_rx.recv().unwrap_or_else(|_| SessionStats {
        tally: Tally::default(),
        err: Some(perr("uring driver exited before detach")),
        ring: UringStats::default(),
    });
    if let Err(e) = run {
        // The driver-side error is the root cause when both halves
        // failed (a closed mailbox surfaces here only as "pipeline
        // stopped").
        return Err(stats.err.unwrap_or(e));
    }
    // The data path lives on the daemon's ONE shared driver thread;
    // this session thread only runs the protocol brain.
    sess.finish(h, stats.tally, 1, Some(stats.ring))
}

#[cfg(test)]
mod tests {
    use super::super::{connect_source_uring, uring_supported};
    use super::*;
    use std::time::Duration;

    /// The capability probe must never panic, whatever the kernel.
    #[test]
    fn probe_is_total() {
        let _ = uring_supported();
    }

    /// One uring↔uring loopback transfer under `plan` (`None`: what
    /// the probe picks); `src_cfg` is the source's copy of the
    /// geometry, where a test sets its faults and its source file.
    /// `None` when the kernel cannot run the backend — or the plan.
    fn loopback(
        cfg: &LiveConfig,
        src_cfg: LiveConfig,
        plan: Option<RecvPlan>,
    ) -> Option<(LiveReport, LiveReport)> {
        let Ok(probed) = RecvPlan::probed() else {
            eprintln!("skipping: io_uring not supported by this kernel");
            return None;
        };
        let plan = plan.unwrap_or(probed);
        if plan.multishot && !probed.multishot {
            eprintln!("skipping: multishot receive unavailable");
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
        let snk = run_uring_sink_with(cfg, sess, Some(first), plan).unwrap();
        let src = src.join().unwrap().unwrap();
        assert_eq!(snk.blocks, cfg.total_blocks());
        assert_eq!(snk.checksum_failures, 0, "output must be byte-identical");
        assert_eq!(
            snk.transport_threads, 1,
            "sink data path must be one thread"
        );
        assert_eq!(src.transport_threads, 1, "source adds one reaper thread");
        Some((src, snk))
    }

    /// The header-first fallback, forced on a kernel that *has*
    /// multishot: pre-6.0 kernels run nothing else.
    const HEADER_FIRST: RecvPlan = RecvPlan {
        multishot: false,
        pbufs: 0,
    };

    /// Full uring↔uring loopback transfer: pattern data, checksum
    /// verified at the sink, one driver thread per side.
    #[test]
    fn uring_pattern_transfer_loopback() {
        let cfg = LiveConfig::new(64 * 1024, 4, 8 << 20);
        let Some((_, snk)) = loopback(&cfg, cfg.clone(), None) else {
            return;
        };
        assert!(
            snk.ctrl_msgs_per_block <= 1.0,
            "control plane not coalesced: {:.2}/blk",
            snk.ctrl_msgs_per_block
        );
    }

    /// Provided-buffer-ring exhaustion: with a single provided
    /// buffer over four concurrent links, multishot receives must
    /// park on `ENOBUFS` and recover on recycle — no lost and no
    /// double-placed block, byte-identical output — even while the
    /// fault injector forces drops and retransmits.
    #[test]
    fn pbuf_exhaustion_parks_and_recovers() {
        let cfg = LiveConfig::new(64 * 1024, 4, 8 << 20);
        let mut src_cfg = cfg.clone();
        src_cfg.fault_drop_p = 0.2;
        let starved = RecvPlan {
            multishot: true,
            pbufs: 1,
        };
        let Some((src, snk)) = loopback(&cfg, src_cfg, Some(starved)) else {
            return;
        };
        assert!(src.retransmits > 0, "fault injector must have fired");
        let stats = snk.uring.expect("uring report carries ring stats");
        assert!(stats.multishot);
        assert!(
            stats.pbuf_exhausted > 0,
            "a 1-buffer ring over 4 links must run dry: {stats:?}"
        );
        assert!(
            stats.multishot_rearms >= stats.pbuf_exhausted,
            "every parked link re-arms: {stats:?}"
        );
    }

    /// Header-first pattern transfer: a header read and a payload
    /// read per block, so ≈ 2 CQEs where multishot spends ≈ 1.
    #[test]
    fn header_first_pattern_transfer() {
        let cfg = LiveConfig::new(64 * 1024, 4, 8 << 20);
        let Some((_, snk)) = loopback(&cfg, cfg.clone(), Some(HEADER_FIRST)) else {
            return;
        };
        let stats = snk.uring.expect("uring report carries ring stats");
        assert!(!stats.multishot, "{stats:?}");
        assert_eq!((stats.multishot_rearms, stats.pbuf_exhausted), (0, 0));
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
        let ran = loopback(&cfg, src_cfg, Some(HEADER_FIRST));
        let landed = std::fs::read(&dst_path);
        let _ = std::fs::remove_file(&src_path);
        let _ = std::fs::remove_file(&dst_path);
        let Some((_, snk)) = ran else { return };
        assert!(!snk.uring.expect("ring stats").multishot);
        assert!(landed.unwrap() == bytes, "destination differs from source");
    }

    /// Header-first under loss, with a deadline far inside the ack
    /// dwell so healthy blocks are re-sent too: every re-send of a
    /// block already placed must be read off the socket and dropped
    /// (the `FxDiscard` arm), never placed twice.
    #[test]
    fn header_first_drops_recover_exactly_once() {
        let cfg = LiveConfig::new(64 * 1024, 4, 8 << 20);
        let mut src_cfg = cfg.clone();
        src_cfg.fault_drop_p = 0.2;
        src_cfg.retx_timeout = Duration::from_micros(100);
        let Some((src, snk)) = loopback(&cfg, src_cfg, Some(HEADER_FIRST)) else {
            return;
        };
        assert!(!snk.uring.expect("ring stats").multishot);
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
