//! `rftpd` — the persistent multi-session transfer daemon.
//!
//! The one-shot `--listen` sink serves exactly one source and exits;
//! real deployments of the paper's middleware run a *daemon*: one
//! registered buffer pool, many concurrent sessions, follow-on jobs
//! reusing the warm listener. This module is that daemon:
//!
//! * **One accept loop, N sessions, one front door.** A nonblocking
//!   accept loop feeds every incoming socket — TCP, and with
//!   [`DaemonConfig::shm_path`] the unix listener's — to a
//!   `StreamAssembler` under one accept policy
//!   (`net::accept_into`); the hello token groups each
//!   source's control + data connections into a session, interleaved
//!   arbitrarily with other sources' connections.
//! * **Shared pool arena.** All slot buffers are allocated (and, on the
//!   io_uring backend, registered) once at startup; each admitted
//!   session gets an all-or-nothing [`SlotArena`] lease and runs the
//!   ordinary sink protocol over the borrowed view — wire slot `i` is
//!   `lease[i]`, so per-session wire bytes are unchanged.
//! * **Admission control.** A session the daemon cannot serve *right
//!   now* gets a typed [`CtrlMsg::SessionBusy`] with a retry hint —
//!   never a hang; a session it can never serve (block too large for
//!   the arena's slots, too many channels) gets a typed
//!   [`CtrlMsg::SessionReject`]. The ladder (`serve_session`) is one
//!   generic function for tcp, uring and shm sets; what differs per
//!   family is only the *runner* it hands the admitted session to.
//! * **Weighted-fair credits.** Grants across sessions go through one
//!   [`WeightedFair`] arbiter, so a bulk transfer cannot starve an
//!   interactive one (small jobs get a higher weight). A session's
//!   guarantee is capped at its lease, so a small job's weight never
//!   reserves credits it has no slots for.
//! * **Graceful drain.** SIGTERM (or [`DaemonHandle::shutdown`]) stops
//!   admissions, lets in-flight sessions finish inside a bounded
//!   deadline, then aborts stragglers; slot accounting is asserted at
//!   exit — a drained daemon has every arena slot back.

use crate::net::{
    accept_into, geometry_reject, read_first_request, reply_and_close, shutdown_all,
    sink_transport_from_streams, SessionSocket, SessionStreams, StreamAssembler,
};
use crate::pipeline::{LiveConfig, LiveReport};
use crate::shm::ShmListener;
use crate::split::{caught, run_sink_session};
use crate::store::{BlockPool, SlotBuf};
use crate::transport::UringStats;
use crate::uring::{run_shared_uring_session, spawn_shared_uring_driver, UringHub};
use parking_lot::Mutex;
use rftp_core::{CtrlMsg, SlotArena, WeightedFair};
use std::io;
use std::net::{Shutdown, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which sink backend each admitted session runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DaemonTransport {
    Tcp,
    Uring,
}

/// Daemon-side knobs. Geometry (block size, channels, total bytes) is
/// per-session and comes from each source's `SessionRequest`; these are
/// the *shared* resources the sessions contend for.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    pub transport: DaemonTransport,
    /// Largest admissible per-session block size; every arena slot is
    /// allocated at this size and a session's blocks live in the prefix.
    pub slot_cap: usize,
    /// Total slots in the shared arena.
    pub arena_slots: u32,
    /// Target pool size per session (clamped down for small jobs).
    pub session_slots: u32,
    /// Concurrent admitted sessions beyond which admission replies busy.
    pub max_sessions: usize,
    /// Largest per-session channel count admission accepts; beyond it
    /// the request is a typed reject. Every admitted channel costs the
    /// sink a reader thread, so this caps what two cheap connections
    /// (the shm hello pair especially — TCP at least pays one socket
    /// per channel) can make the daemon spawn.
    pub max_channels: usize,
    /// Global outstanding-credit budget for the weighted-fair arbiter.
    pub credit_budget: u32,
    /// Jobs of at most this many bytes count as interactive …
    pub interactive_cutoff: u64,
    /// … and get this weight (bulk jobs get weight 1).
    pub interactive_weight: u32,
    /// Retry hint carried in `SessionBusy` replies.
    pub retry_after_ms: u32,
    /// How long a drain waits for in-flight sessions before aborting
    /// the stragglers.
    pub drain_deadline: Duration,
    /// Data socket buffer sizing (0 = OS default).
    pub sockbuf: usize,
    /// When set, session `n`'s payload is written to
    /// `<dst_dir>/session-<n>.dat`; otherwise payloads are
    /// pattern-verified and discarded.
    pub dst_dir: Option<PathBuf>,
    /// When set, the daemon also accepts *shared-memory* sessions at
    /// this unix socket path (created owner-only): each admitted shm
    /// session gets its **own** memfd window sized to its lease (fd
    /// shipped over `SCM_RIGHTS`), and placement is the source's own
    /// write — zero receiver copies. The arena lease the
    /// session holds is the admission/fairness currency, so shm, TCP
    /// and uring sessions contend for the one arena exactly as before,
    /// while no tenant ever maps another tenant's memory.
    pub shm_path: Option<PathBuf>,
    /// The WAN path the sources emulate (their shim carries every leg of
    /// it, [`crate::wrap_source`]): each admitted session's sink brain
    /// runs adaptively — dwell and credit depth from the measured RTT,
    /// the profile's rate as the depth target's rate term — on every
    /// engine, tcp, uring and shm alike.
    pub wan: Option<rftp_faults::WanProfile>,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            transport: DaemonTransport::Tcp,
            slot_cap: 256 * 1024,
            arena_slots: 64,
            session_slots: 16,
            max_sessions: 8,
            max_channels: 64,
            credit_budget: 64,
            interactive_cutoff: 4 * 1024 * 1024,
            interactive_weight: 4,
            retry_after_ms: 50,
            drain_deadline: Duration::from_secs(10),
            sockbuf: 0,
            dst_dir: None,
            shm_path: None,
            wan: None,
        }
    }
}

/// Outcome of one served (admitted) session.
#[derive(Debug)]
pub struct SessionSummary {
    /// Order of admission (also the `session-<n>.dat` index).
    pub index: u64,
    pub token: u64,
    /// `Ok` carries the session's transfer report; `Err` is the I/O
    /// error that ended it (a crashed source lands here — its neighbors
    /// don't).
    pub result: io::Result<LiveReport>,
}

/// What the daemon did over its lifetime, returned from [`Daemon::run`]
/// after the drain completes.
#[derive(Debug, Default)]
pub struct DaemonReport {
    /// Sessions admitted (= `sessions.len()`).
    pub served: u64,
    /// Admitted sessions that completed their dataset cleanly.
    pub completed: u64,
    /// Admitted sessions that ended in an error (crashed peer, …).
    pub failed: u64,
    /// Sessions turned away with `SessionBusy`.
    pub rejected_busy: u64,
    /// Sessions turned away with `SessionReject` (impossible geometry).
    pub rejected_geometry: u64,
    /// Connection sets dropped before admission (bad hello, protocol
    /// violation, peer died during negotiation).
    pub dropped_preadmission: u64,
    /// Shared uring driver counters, when the daemon ran one (uring
    /// transport): every admitted session's data path went through this
    /// one ring.
    pub uring: Option<UringStats>,
    /// Admitted sessions that ran the shared-memory transport (subset
    /// of `served`; only possible with [`DaemonConfig::shm_path`] set).
    pub shm_sessions: u64,
    pub sessions: Vec<SessionSummary>,
}

/// Cloneable remote control for a running daemon: tests and signal
/// handlers use it to start the drain.
#[derive(Clone)]
pub struct DaemonHandle {
    stop: Arc<AtomicBool>,
}

impl DaemonHandle {
    /// Begin a graceful drain: stop admitting, finish in-flight
    /// sessions, return from [`Daemon::run`].
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
    }
}

/// Route SIGTERM to this daemon handle: the default disposition kills
/// the process mid-transfer; with the hook installed, SIGTERM starts
/// the graceful drain instead. The handle installed last is the one
/// SIGTERM drains.
pub fn install_sigterm_hook(h: &DaemonHandle) {
    crate::sys::raise_on_sigterm(Arc::clone(&h.stop));
}

/// Accept-loop poll interval while the listener is idle.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Cuts an in-flight session loose: shuts down clones of every socket of
/// its set — whatever the family — so its blocked threads fail out.
type AbortHook = Box<dyn Fn() + Send>;

/// Shared state of a running daemon, borrowed by every session thread.
struct DaemonState {
    cfg: DaemonConfig,
    /// The one slot arena; a session's lease indexes into it.
    slots: BlockPool,
    arena: SlotArena,
    fair: WeightedFair,
    stop: Arc<AtomicBool>,
    active: AtomicUsize,
    admitted_seq: AtomicU64,
    /// Abort hooks for in-flight sessions by token, fired on the
    /// stragglers when the drain deadline passes.
    aborts: Mutex<Vec<(u64, AbortHook)>>,
    /// The report so far; `served` and `uring` are filled in at the end.
    report: Mutex<DaemonReport>,
}

/// A bound, not-yet-running daemon. [`Daemon::run`] consumes it and
/// blocks until a drain completes.
pub struct Daemon {
    listener: TcpListener,
    /// The second way in (owner-only unix socket, unlinked on drop),
    /// polled non-blocking from the same accept loop.
    shm: Option<ShmListener>,
    state: DaemonState,
}

impl Daemon {
    pub fn bind(addr: impl ToSocketAddrs, cfg: DaemonConfig) -> io::Result<Daemon> {
        assert!(cfg.slot_cap > 0 && cfg.arena_slots > 0 && cfg.session_slots > 0);
        assert!(cfg.max_sessions > 0 && cfg.max_channels > 0);
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        // The shm endpoint is just another way in: each admitted shm
        // session gets its own memfd window at admission time, so the
        // arena slots here stay ordinary process-private buffers for
        // every transport. The socket is owner-only — admission is
        // limited to the daemon's uid.
        let shm = match &cfg.shm_path {
            Some(p) => {
                let l = ShmListener::bind(p)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let slots = BlockPool::new(cfg.arena_slots, cfg.slot_cap);
        let arena = SlotArena::new(cfg.arena_slots);
        let fair = WeightedFair::new(cfg.credit_budget);
        Ok(Daemon {
            listener,
            shm,
            state: DaemonState {
                cfg,
                slots,
                arena,
                fair,
                stop: Arc::new(AtomicBool::new(false)),
                active: AtomicUsize::new(0),
                admitted_seq: AtomicU64::new(0),
                aborts: Mutex::new(Vec::new()),
                report: Mutex::new(DaemonReport::default()),
            },
        })
    }

    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    pub fn handle(&self) -> DaemonHandle {
        DaemonHandle {
            stop: Arc::clone(&self.state.stop),
        }
    }

    /// Serve until [`DaemonHandle::shutdown`] (or hooked SIGTERM), then
    /// drain and report. Asserts the arena's slot accounting on the way
    /// out: a clean drain leaks nothing. A uring daemon whose shared
    /// driver cannot start (`Unsupported` kernel, or the arena cannot be
    /// pinned) fails here, before it admits anyone.
    pub fn run(self) -> io::Result<DaemonReport> {
        let Daemon {
            listener,
            shm,
            state,
        } = self;
        let d = &state;
        let mut asm = StreamAssembler::new(d.cfg.sockbuf);
        let mut shm_asm = StreamAssembler::new(0);
        let mut last_sweep = Instant::now();

        let mut driver_stats: Option<UringStats> = None;
        std::thread::scope(|scope| -> io::Result<()> {
            // One shared ring for every uring session: the whole arena
            // is registered as fixed buffers exactly once, here, before
            // any admission — admission only hands out leases into the
            // already-registered table.
            let shared = match d.cfg.transport {
                DaemonTransport::Uring => Some(spawn_shared_uring_driver(scope, &d.slots)?),
                DaemonTransport::Tcp => None,
            };
            let hub = shared.as_ref().map(|(h, _)| Arc::clone(h));
            while !d.stop.load(Ordering::Acquire) {
                // One accept policy for both ways in (`accept_into`:
                // the hello read goes to a helper thread, routine
                // errors never end the loop). The 2 ms idle poll of the
                // tcp listener bounds shm accept latency too.
                if !accept_into(|| listener.accept().map(|(s, _)| s), &mut asm)? {
                    std::thread::sleep(ACCEPT_POLL);
                }
                // The shm endpoint shares the loop: drain its accept
                // queue, assemble (control, notify) pairs by hello
                // token, and serve them on the same ladder as TCP sets.
                if let Some(l) = &shm {
                    while accept_into(|| l.accept(), &mut shm_asm)? {}
                    while let Some(streams) = shm_asm.poll() {
                        scope.spawn(move || {
                            serve_session(d, streams, |cfg, s, first, _| run_shm(d, cfg, s, first))
                        });
                    }
                }
                while let Some(streams) = asm.poll() {
                    let hub = hub.clone();
                    scope.spawn(move || {
                        serve_session(d, streams, |cfg, s, first, lease| {
                            run_net(d, hub.as_deref(), cfg, s, first, lease)
                        })
                    });
                }
                if last_sweep.elapsed() >= Duration::from_secs(1) {
                    asm.sweep_stale(Instant::now());
                    shm_asm.sweep_stale(Instant::now());
                    last_sweep = Instant::now();
                }
            }

            // Drain: no more admissions (loop exited); wait for the
            // in-flight sessions, then cut the stragglers' sockets so
            // their threads fail out promptly and the scope can join.
            let deadline = Instant::now() + d.cfg.drain_deadline;
            while d.active.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            if d.active.load(Ordering::Acquire) > 0 {
                for (_, cut) in d.aborts.lock().iter() {
                    cut();
                }
            }
            // The driver exits once every session has detached (cut
            // stragglers detach on their error path), then hands back
            // its lifetime counters.
            if let Some((hub, jh)) = shared {
                hub.stop();
                driver_stats = jh.join().ok();
            }
            Ok(())
        })?;

        assert_eq!(
            d.arena.free_slots(),
            d.arena.total_slots() as usize,
            "drained daemon leaked arena slots"
        );

        let mut report = state.report.into_inner();
        report.served = report.sessions.len() as u64;
        report.uring = driver_stats;
        Ok(report)
    }
}

/// The admission ladder and the service of one assembled connection
/// set, whatever socket family it arrived on. Runs on its own thread;
/// everything it leases it returns before exiting. The only part that
/// varies by family is `run` — how an admitted session's sockets become
/// a running sink ([`run_net`], [`run_shm`]); it gets the session's
/// config as the ladder derived it from the parsed request, the
/// streams, that request (the sink's `first_ctrl`) and the arena lease.
fn serve_session<S: SessionSocket>(
    d: &DaemonState,
    mut streams: SessionStreams<S>,
    run: impl FnOnce(LiveConfig, SessionStreams<S>, CtrlMsg, &[u32]) -> io::Result<LiveReport>,
) {
    // --- Negotiation: read the opening SessionRequest, bounded. ---
    let Ok(
        first @ CtrlMsg::SessionRequest {
            session,
            block_size,
            channels,
            total_bytes,
            ..
        },
    ) = read_first_request(&mut streams.ctrl)
    else {
        // Peer died, stalled or spoke out of turn mid-negotiation: drop
        // the set; the listener itself never blocked on it.
        shutdown_all(&streams.data, Shutdown::Both);
        let _ = streams.ctrl.shutdown(Shutdown::Both);
        d.report.lock().dropped_preadmission += 1;
        return;
    };

    // --- Admission. Impossible geometry → typed reject; transient
    // saturation → typed busy with a retry hint. Never a hang. ---
    let busy = |streams| {
        let retry_after_ms = d.cfg.retry_after_ms;
        let msg = CtrlMsg::SessionBusy {
            session,
            retry_after_ms,
        };
        reply_and_close(streams, &msg);
        d.report.lock().rejected_busy += 1;
    };
    // The channel cap bounds what one hello can cost the daemon: a
    // threaded TCP session runs a reader thread per channel (thread-spawn
    // failure panics in the session scope and would take the whole
    // daemon down), a uring session arms a link per channel. An shm
    // session reads its one notify stream on one thread whatever it
    // announces; the cap holds it to the same rung.
    let (slot_cap, max_channels) = (d.cfg.slot_cap, d.cfg.max_channels);
    if let Some(reject) = geometry_reject(&first, streams.channels, slot_cap, max_channels) {
        reply_and_close(streams, &reject);
        d.report.lock().rejected_geometry += 1;
        return;
    }
    if d.stop.load(Ordering::Acquire) {
        // Draining: admit nothing new, tell the source to come back.
        return busy(streams);
    }
    let total_blocks = total_bytes.div_ceil(block_size).max(1);
    let want_slots = (d.cfg.session_slots as u64).min(total_blocks).max(1) as usize;
    let token = streams.token;
    let weight = if total_bytes <= d.cfg.interactive_cutoff {
        d.cfg.interactive_weight
    } else {
        1
    };
    let Some(held) = Held::admit(d, token, weight, want_slots) else {
        return busy(streams);
    };

    // --- Admitted: run the sink session over the lease; `held` gives
    // it all back on the way out. ---
    let index = d.admitted_seq.fetch_add(1, Ordering::AcqRel);
    let mut cfg = LiveConfig::new(block_size as usize, channels as usize, total_bytes);
    cfg.pool_blocks = held.lease.len() as u32;
    if let Some(wan) = &d.cfg.wan {
        // The pool stays the arena lease (the admission currency can't
        // grow per session), but the sink brain adapts its dwell window
        // and clamps its credit depth to the measured path.
        cfg.adaptive = true;
        cfg.wan_rate_bps = wan.rate_bps;
    }
    if let Some(dir) = &d.cfg.dst_dir {
        cfg.dst_file = Some(dir.join(format!("session-{index}.dat")));
    }
    // Keep socket clones around so the drain deadline can cut a
    // straggler loose (its blocked threads fail out with EOF/EPIPE). A
    // runner's panic is its session's error: the session fails alone.
    let result = streams.handles().and_then(|socks| {
        let cut = Box::new(move || shutdown_all(&socks, Shutdown::Both));
        d.aborts.lock().push((token, cut));
        caught(|| run(cfg, streams, first, &held.lease))?
    });
    drop(held);

    let mut r = d.report.lock();
    match &result {
        Ok(_) => r.completed += 1,
        Err(_) => r.failed += 1,
    }
    r.sessions.push(SessionSummary {
        index,
        token,
        result,
    });
}

/// What an admitted session holds of the daemon — its session-table
/// entry, arena lease, [`WeightedFair`] registration and abort hook —
/// given back by one drop on every way out of [`serve_session`], a
/// runner's panic too. A uring runner returns only after its detach
/// handshake, so the ring no longer targets the lease by then.
struct Held<'d> {
    d: &'d DaemonState,
    /// Its key in the arbiter and among the abort hooks.
    token: u64,
    /// Wire slot `i` of the session is arena slot `lease[i]`; empty
    /// until admitted.
    lease: Vec<u32>,
}

impl<'d> Held<'d> {
    /// Admit session `token`: a session-table entry first — so a burst
    /// can't both oversubscribe the table and strand a lease — then
    /// `want` arena slots, then the arbiter at `weight`, its guarantee
    /// capped at its lease (it can never have more credits out than it
    /// has slots). `None`, holding nothing, when the table or arena is
    /// full.
    fn admit(d: &'d DaemonState, token: u64, weight: u32, want: usize) -> Option<Held<'d>> {
        let ahead = d.active.fetch_add(1, Ordering::AcqRel);
        let lease = Vec::new();
        let mut held = Held { d, token, lease };
        if ahead >= d.cfg.max_sessions {
            return None;
        }
        held.lease = d.arena.lease(want)?;
        d.fair.register_leased(token, weight, want as u32);
        Some(held)
    }
}

impl Drop for Held<'_> {
    fn drop(&mut self) {
        let (d, token) = (self.d, self.token);
        if !self.lease.is_empty() {
            d.aborts.lock().retain(|(t, _)| *t != token);
            d.fair.deregister(token);
            d.arena.release(&self.lease);
        }
        d.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The tcp and uring runner: both take the same TCP connection set and
/// the leased view of the arena — wire slot `i` is arena slot
/// `lease[i]`; slots are `slot_cap`-sized and a session's blocks live
/// in the prefix. `hub` is the shared driver of a uring daemon (`None`:
/// a tcp daemon).
fn run_net(
    d: &DaemonState,
    hub: Option<&UringHub>,
    cfg: LiveConfig,
    streams: SessionStreams,
    first: CtrlMsg,
    lease: &[u32],
) -> io::Result<LiveReport> {
    let view: Vec<&Mutex<SlotBuf>> = lease.iter().map(|&g| &d.slots[g as usize]).collect();
    let fair = Some((&d.fair, streams.token));
    match hub {
        None => {
            let t = sink_transport_from_streams(streams)?;
            run_sink_session(&cfg, t, Some(first), &view, fair)
        }
        // The session joins the daemon's one driver ring — admission
        // touches no buffer registration (the arena was registered once
        // at startup; see the regression test below).
        Some(hub) => run_shared_uring_session(&cfg, streams, Some(first), &view, lease, hub, fair),
    }
}

/// The shm runner: a memfd window for **this session alone**, sized to
/// its lease (`cfg.pool_blocks`), descriptor and fd shipped over
/// `SCM_RIGHTS`, then the ordinary sink session — placement is the
/// source's own write into the window's slots, verified by the per-slot
/// publication word. The arena lease is pure accounting here (it bounds
/// concurrent shm memory to the arena's budget and keeps
/// admission/fairness transport-blind); the fd a tenant receives maps
/// its own window and nothing else, so a hostile or buggy session can
/// scribble only payloads it could already corrupt on the wire.
fn run_shm(
    d: &DaemonState,
    cfg: LiveConfig,
    streams: SessionStreams<std::os::unix::net::UnixStream>,
    first: CtrlMsg,
) -> io::Result<LiveReport> {
    d.report.lock().shm_sessions += 1;
    let fair = Some((&d.fair, streams.token));
    crate::shm::run_shm_session(&cfg, streams, Some(first), fair)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{connect_streams, read_one_ctrl_frame, send_raw_ctrl};
    use rftp_core::wire::reject_reason;
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    fn start(
        cfg: DaemonConfig,
    ) -> (
        std::net::SocketAddr,
        DaemonHandle,
        std::thread::JoinHandle<io::Result<DaemonReport>>,
    ) {
        let d = Daemon::bind("127.0.0.1:0", cfg).unwrap();
        let addr = d.local_addr().unwrap();
        let h = d.handle();
        let jh = std::thread::spawn(move || d.run());
        (addr, h, jh)
    }

    /// Session 1's opening `SessionRequest`.
    fn req(block_size: u64, channels: u16, total_bytes: u64) -> CtrlMsg {
        CtrlMsg::SessionRequest {
            session: 1,
            block_size,
            channels,
            total_bytes,
            notify_imm: false,
        }
    }

    /// Open an assembled set of either family with `first`, and read the
    /// daemon's first control frame back.
    fn ask<S: SessionSocket>(s: &mut SessionStreams<S>, first: &CtrlMsg) -> io::Result<CtrlMsg> {
        send_raw_ctrl(&mut s.ctrl, first).unwrap();
        s.ctrl.set_read_timeout(Some(Duration::from_secs(5)))?;
        read_one_ctrl_frame(&mut s.ctrl)
    }

    /// The shm counterpart of `connect_streams`: one (control, notify)
    /// pair on the daemon's unix socket, hellos sent, nothing else.
    fn shm_streams(sock: &std::path::Path, channels: u16) -> SessionStreams<UnixStream> {
        use crate::net::{new_session_token, write_hello, KIND_CTRL, KIND_DATA};
        let token = new_session_token();
        let mut ctrl = UnixStream::connect(sock).unwrap();
        write_hello(&mut ctrl, KIND_CTRL, channels, token).unwrap();
        let mut notify = UnixStream::connect(sock).unwrap();
        write_hello(&mut notify, KIND_DATA, 0, token).unwrap();
        SessionStreams {
            ctrl,
            data: vec![notify],
            token,
            channels: channels as usize,
        }
    }

    /// A server-side tcp set whose one data channel is open and whose
    /// peer has sent `first`; the peer's ends come back to keep alive.
    fn tcp_set(first: &CtrlMsg) -> (SessionStreams, Vec<std::net::TcpStream>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut peer: Vec<_> = (0..2)
            .map(|_| std::net::TcpStream::connect(addr).unwrap())
            .collect();
        let mut ours: Vec<_> = (0..2).map(|_| listener.accept().unwrap().0).collect();
        send_raw_ctrl(&mut peer[0], first).unwrap();
        let data = ours.split_off(1);
        let ctrl = ours.pop().unwrap();
        let token = crate::net::new_session_token();
        (
            SessionStreams {
                ctrl,
                data,
                token,
                channels: 1,
            },
            peer,
        )
    }

    /// The shm counterpart of [`tcp_set`]: a (control, notify) pair.
    fn shm_set(first: &CtrlMsg) -> (SessionStreams<UnixStream>, Vec<UnixStream>) {
        let ((ctrl, mut peer_ctrl), (notify, peer_notify)) =
            (UnixStream::pair().unwrap(), UnixStream::pair().unwrap());
        send_raw_ctrl(&mut peer_ctrl, first).unwrap();
        let token = crate::net::new_session_token();
        let streams = SessionStreams {
            ctrl,
            data: vec![notify],
            token,
            channels: 1,
        };
        (streams, vec![peer_ctrl, peer_notify])
    }

    /// A runner that panics fails its session alone, on either way in:
    /// the panic is the session's error, counted `failed`, and all the
    /// session held — its table entry, lease, arbiter registration and
    /// abort hook — comes back, so the next session gets a full lease.
    // spec: [P5-panic-fails-alone]
    #[test]
    fn a_panicking_runner_fails_alone_and_gives_everything_back() {
        fn check<S: SessionSocket, P>(open: impl Fn(&CtrlMsg) -> (SessionStreams<S>, P)) {
            let cfg = DaemonConfig {
                slot_cap: 64 * 1024,
                arena_slots: 4,
                session_slots: 4,
                max_sessions: 1,
                ..DaemonConfig::default()
            };
            let daemon = Daemon::bind("127.0.0.1:0", cfg).unwrap();
            let d = &daemon.state;
            let first = req(64 * 1024, 1, 1 << 20);
            let (streams, _peer) = open(&first);
            let token = streams.token;
            serve_session(d, streams, |_, _, _, _| -> io::Result<LiveReport> {
                panic!("a runner bug")
            });
            assert_eq!(d.arena.free_slots(), 4, "the lease came back");
            assert_eq!(d.active.load(Ordering::Acquire), 0, "the table entry");
            assert_eq!(d.fair.allow(token, 1000), 1000, "still in the arbiter");
            assert!(!d.aborts.lock().iter().any(|(t, _)| *t == token));
            {
                let r = d.report.lock();
                assert_eq!((r.failed, r.completed), (1, 0), "{:?}", *r);
                let err = r.sessions[0].result.as_ref().unwrap_err().to_string();
                assert!(err.contains("panicked: a runner bug"), "{err}");
            }
            let (streams, _peer) = open(&first);
            let mut leased = 0;
            serve_session(d, streams, |_, _, _, lease| {
                leased = lease.len();
                Err(io::Error::other("an honest runner's own error"))
            });
            assert_eq!(leased, 4, "the next session's lease is whole");
            assert_eq!(d.arena.free_slots(), 4);
        }
        check(tcp_set);
        check(shm_set);
    }

    /// A `SessionRequest` with `block_size: 0` used to divide-by-zero in
    /// the slot math, leak a session-table entry, and take down the
    /// whole daemon when the panic re-raised at scope join. It must be
    /// an ordinary typed reject — and admission must survive repeats.
    // spec: [P7.1-reject]
    #[test]
    fn zero_block_size_is_a_typed_reject_not_a_panic() {
        let (addr, handle, jh) = start(DaemonConfig::default());
        for _ in 0..2 {
            let mut streams = connect_streams(addr, 1, 0).unwrap();
            let reply = ask(&mut streams, &req(0, 1, 1 << 20)).unwrap();
            assert!(matches!(reply, CtrlMsg::SessionReject { .. }), "{reply:?}");
        }
        handle.shutdown();
        let report = jh.join().expect("daemon must not panic").unwrap();
        assert_eq!(report.rejected_geometry, 2, "{report:?}");
        assert_eq!(report.served, 0);
    }

    /// A channel count above the daemon's cap is a typed reject, not
    /// `channels` reader threads: each admitted channel costs a thread,
    /// and thread-spawn failure would panic through the session scope
    /// and take the whole daemon down.
    // spec: [P7.1-reject] [P7.2-max-channels]
    #[test]
    fn oversized_channel_count_is_a_typed_reject() {
        let cfg = DaemonConfig {
            max_channels: 2,
            ..DaemonConfig::default()
        };
        let (addr, handle, jh) = start(cfg);
        let mut streams = connect_streams(addr, 3, 0).unwrap();
        let reply = ask(&mut streams, &req(64 * 1024, 3, 1 << 20)).unwrap();
        assert!(matches!(reply, CtrlMsg::SessionReject { .. }), "{reply:?}");
        handle.shutdown();
        let report = jh.join().expect("daemon must not panic").unwrap();
        assert_eq!(report.rejected_geometry, 1, "{report:?}");
        assert_eq!(report.served, 0);
    }

    /// Two cheap unix connections must not be able to make the daemon
    /// spawn 65535 notify readers: the shm hello has no per-channel
    /// connection cost (unlike TCP), so the admission cap is the only
    /// bound. The reject must be typed, and the daemon must keep
    /// serving afterwards.
    // spec: [P7.2-max-channels]
    #[test]
    fn shm_hello_cannot_spawn_unbounded_channel_readers() {
        if !crate::shm::shm_supported() {
            eprintln!("skipping: shm transport not supported on this host");
            return;
        }
        let sock = std::env::temp_dir().join(format!("rftpd-chancap-{}.sock", std::process::id()));
        let cfg = DaemonConfig {
            slot_cap: 64 * 1024,
            shm_path: Some(sock.clone()),
            ..DaemonConfig::default()
        };
        let (_, handle, jh) = start(cfg);
        let first = req(64 * 1024, u16::MAX, 1 << 20);
        let reply = ask(&mut shm_streams(&sock, u16::MAX), &first).unwrap();
        assert!(matches!(reply, CtrlMsg::SessionReject { .. }), "{reply:?}");

        // The daemon survived and still admits a well-formed session.
        let client = {
            let sock = sock.clone();
            std::thread::spawn(move || {
                let cfg = LiveConfig::new(64 * 1024, 2, 1 << 20);
                let t = crate::shm::connect_source_shm(&sock, cfg.channels)?;
                crate::split::run_split_source(&cfg, t)
            })
        };
        client.join().unwrap().unwrap();
        handle.shutdown();
        let report = jh.join().expect("daemon must not panic").unwrap();
        assert_eq!(report.rejected_geometry, 1, "{report:?}");
        assert_eq!(report.completed, 1, "{report:?}");
        assert_eq!(report.shm_sessions, 1, "{report:?}");
    }

    /// The descriptor an admitted shm session receives must cover its
    /// own lease and nothing else — a tenant's fd maps a window created
    /// for that session, never the arena (one tenant reading or
    /// scribbling another's in-flight payloads through a shared slab fd
    /// was the isolation hole this pins shut).
    // spec: [P7.2-slot-address] [P7.2-window-per-session]
    #[test]
    fn shm_descriptor_covers_only_the_session_lease() {
        if !crate::shm::shm_supported() {
            eprintln!("skipping: shm transport not supported on this host");
            return;
        }
        let sock = std::env::temp_dir().join(format!("rftpd-leasewin-{}.sock", std::process::id()));
        let cfg = DaemonConfig {
            slot_cap: 256 * 1024,
            arena_slots: 64,
            session_slots: 8,
            shm_path: Some(sock.clone()),
            ..DaemonConfig::default()
        };
        let (_, handle, jh) = start(cfg);

        let block = 64 * 1024u64;
        let mut streams = shm_streams(&sock, 2);
        // 64 blocks >> 8 session slots
        send_raw_ctrl(&mut streams.ctrl, &req(block, 2, 4 << 20)).unwrap();
        let SessionStreams { mut ctrl, data, .. } = streams;
        // Read the descriptor head off the control stream (a plain read
        // discards the SCM_RIGHTS fd, which is fine — we only check the
        // claimed geometry here).
        ctrl.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut head = [0u8; crate::shm::DESC_HEAD_LEN];
        ctrl.read_exact(&mut head).unwrap();
        assert_eq!(
            u16::from_be_bytes([head[0], head[1]]),
            crate::shm::DESC_MAGIC,
            "not a descriptor"
        );
        let desc = crate::shm::decode_desc_head(head[2..].try_into().unwrap()).unwrap();
        assert_eq!(desc.slot_count, 8, "window must span exactly the lease");
        assert_eq!(desc.stride, SlotBuf::stride(block as usize) as u64);
        assert_eq!(
            desc.window_len() as u64,
            8 * desc.stride,
            "window must be the lease's 8 slots, not the 64-slot arena"
        );

        // Abandon the session (its thread fails out on EOF) and drain.
        drop(ctrl);
        drop(data);
        handle.shutdown();
        let report = jh.join().expect("daemon must not panic").unwrap();
        assert_eq!(report.served, 1, "{report:?}");
    }

    /// End-to-end over the shared uring driver: three concurrent uring
    /// sources against one daemon. Every session's data path must run
    /// on the daemon's ONE driver thread, and admission must not touch
    /// buffer registration — the arena is registered exactly once at
    /// driver startup, so the shared ring's `registrations` counter
    /// stays at 1 no matter how many sessions were admitted.
    #[test]
    fn shared_uring_daemon_one_thread_one_registration() {
        if !crate::uring::uring_supported() {
            eprintln!("skipping: io_uring not supported by this kernel");
            return;
        }
        let cfg = DaemonConfig {
            transport: DaemonTransport::Uring,
            slot_cap: 64 * 1024,
            arena_slots: 24,
            session_slots: 8,
            ..DaemonConfig::default()
        };
        let (addr, handle, jh) = start(cfg);
        let n = 3;
        let clients: Vec<_> = (0..n)
            .map(|_| {
                std::thread::spawn(move || {
                    let cfg = LiveConfig::new(64 * 1024, 2, 4 << 20);
                    let t = crate::uring::connect_source_uring(addr, cfg.channels, 0)?;
                    crate::split::run_split_source(&cfg, t)
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap().unwrap();
        }
        handle.shutdown();
        let report = jh.join().unwrap().unwrap();
        assert_eq!(report.completed, n as u64, "{report:?}");
        assert_eq!(report.failed, 0, "{report:?}");
        for s in &report.sessions {
            let r = s.result.as_ref().unwrap();
            assert_eq!(r.checksum_failures, 0);
            assert_eq!(
                r.transport_threads, 1,
                "all data paths share one driver thread"
            );
            assert!(r.uring.is_some(), "session report carries ring stats");
        }
        let stats = report.uring.expect("daemon reports its driver's stats");
        assert!(stats.enters > 0 && stats.cqes > 0);
        assert_eq!(
            stats.registrations, 1,
            "admission must never re-register buffers: {stats:?}"
        );
    }

    /// A uring daemon whose shared driver cannot start must refuse to
    /// run — not start and fail every session one by one: `Unsupported`
    /// where the kernel lacks the ring, and where it has one, an arena
    /// past the fixed-buffer table's 1024 entries fails registration with
    /// the driver's own error and what to turn.
    #[test]
    fn uring_daemon_whose_driver_cannot_start_fails_at_start() {
        let supported = crate::uring::uring_supported();
        let cfg = DaemonConfig {
            transport: DaemonTransport::Uring,
            slot_cap: 4096,
            arena_slots: if supported { 1025 } else { 64 },
            ..DaemonConfig::default()
        };
        let err = Daemon::bind("127.0.0.1:0", cfg).unwrap().run().unwrap_err();
        if supported {
            assert!(err.to_string().contains("shrink --slots"), "{err}");
        } else {
            assert_eq!(err.kind(), io::ErrorKind::Unsupported, "{err}");
        }
    }

    /// One daemon, two transports, one arena: an shm session (its own
    /// per-session memfd window) and a TCP session run concurrently,
    /// each against its own disjoint arena lease. Both must verify
    /// clean, and the report must count exactly one shm session —
    /// proof one admission ladder serves both the zero-copy path and
    /// the ordinary copy path.
    // spec: [P7.2-window-per-session]
    #[test]
    fn shm_and_tcp_sessions_share_one_arena() {
        if !crate::shm::shm_supported() {
            eprintln!("skipping: shm transport not supported on this host");
            return;
        }
        let sock = std::env::temp_dir().join(format!("rftpd-test-{}.sock", std::process::id()));
        let cfg = DaemonConfig {
            slot_cap: 64 * 1024,
            arena_slots: 24,
            session_slots: 8,
            shm_path: Some(sock.clone()),
            ..DaemonConfig::default()
        };
        let (addr, handle, jh) = start(cfg);

        let shm_client = {
            let sock = sock.clone();
            std::thread::spawn(move || {
                let cfg = LiveConfig::new(64 * 1024, 2, 4 << 20);
                let t = crate::shm::connect_source_shm(&sock, cfg.channels)?;
                crate::split::run_split_source(&cfg, t)
            })
        };
        let tcp_client = std::thread::spawn(move || {
            let cfg = LiveConfig::new(64 * 1024, 2, 4 << 20);
            let t = crate::net::connect_source(addr, cfg.channels, 0)?;
            crate::split::run_split_source(&cfg, t)
        });
        let shm_src = shm_client.join().unwrap().unwrap();
        let tcp_src = tcp_client.join().unwrap().unwrap();
        assert!(shm_src.blocks > 0 && tcp_src.blocks > 0);

        handle.shutdown();
        let report = jh.join().unwrap().unwrap();
        assert_eq!(report.completed, 2, "{report:?}");
        assert_eq!(report.failed, 0, "{report:?}");
        assert_eq!(report.shm_sessions, 1, "{report:?}");
        for s in &report.sessions {
            let r = s.result.as_ref().unwrap();
            assert_eq!(r.checksum_failures, 0);
        }
        assert!(!sock.exists(), "drained daemon must unlink its shm socket");
    }

    /// The admission ladder is one function, and this is what holds it to
    /// one behaviour: every rung, asked over tcp and over the shm socket
    /// of one daemon, answers with the same typed reply — and every set
    /// that came in is accounted for exactly once in the report.
    // spec: [P7.1-reject] [P7.1-busy] [P7.1-one-ladder]
    #[test]
    fn admission_ladder_is_identical_on_every_way_in() {
        const BLK: u64 = 64 * 1024;
        let shm = crate::shm::shm_supported();
        let sock = std::env::temp_dir().join(format!("rftpd-ladder-{}.sock", std::process::id()));
        let cfg = DaemonConfig {
            slot_cap: BLK as usize,
            arena_slots: 9,
            session_slots: 8,
            max_sessions: 2,
            max_channels: 2,
            retry_after_ms: 77,
            shm_path: shm.then(|| sock.clone()),
            ..DaemonConfig::default()
        };
        let (addr, handle, jh) = start(cfg);
        // One set per way in, hellos announcing `hello` channels, opened
        // with `first`: the daemon's replies.
        let ask_all = |hello: u16, first: &CtrlMsg| {
            let mut tcp = connect_streams(addr, hello as usize, 0).unwrap();
            let tcp = ask(&mut tcp, first);
            if shm {
                return vec![tcp, ask(&mut shm_streams(&sock, hello), first)];
            }
            vec![tcp]
        };
        let ways = 1 + shm as u64;

        // Geometry rungs: a typed reject with the same reason code.
        use reject_reason::{BLOCK_TOO_LARGE, TOO_MANY_CHANNELS};
        let geometry = [
            ("zero block", 1, req(0, 1, BLK), BLOCK_TOO_LARGE),
            ("block > slot_cap", 1, req(2 * BLK, 1, BLK), BLOCK_TOO_LARGE),
            ("zero channels", 1, req(BLK, 0, BLK), TOO_MANY_CHANNELS),
            ("channels > cap", 3, req(BLK, 3, BLK), TOO_MANY_CHANNELS),
            ("census ≠ request", 2, req(BLK, 1, BLK), TOO_MANY_CHANNELS),
            ("empty job", 1, req(BLK, 1, 0), TOO_MANY_CHANNELS),
        ];
        let reject = |reason| CtrlMsg::SessionReject { session: 1, reason };
        for (rung, hello, first, reason) in &geometry {
            for reply in ask_all(*hello, first) {
                assert_eq!(reply.unwrap(), reject(*reason), "{rung}");
            }
        }
        // A set that opens with anything but a SessionRequest is hung up
        // on, not answered.
        for reply in ask_all(1, &CtrlMsg::MrRequest { session: 1 }) {
            assert!(reply.is_err(), "{reply:?}");
        }

        // Saturation rungs: a typed busy carrying the retry hint. Session
        // A holds 8 of the 9 arena slots — the table has room, the arena
        // does not.
        let busy = CtrlMsg::SessionBusy {
            session: 1,
            retry_after_ms: 77,
        };
        let (small, big) = (req(BLK, 1, BLK), req(BLK, 1, 8 * BLK));
        let admitted = |m: CtrlMsg| matches!(m, CtrlMsg::SessionAccept { .. });
        let mut a = connect_streams(addr, 1, 0).unwrap();
        assert!(admitted(ask(&mut a, &big).unwrap()));
        for reply in ask_all(1, &big) {
            assert_eq!(reply.unwrap(), busy, "arena exhausted");
        }
        // Session B takes the last slot and the last table entry.
        let mut b = connect_streams(addr, 1, 0).unwrap();
        assert!(admitted(ask(&mut b, &small).unwrap()));
        // Sets that will ask only once the daemon is draining. Their
        // hellos go out here, so the two round trips below put them
        // through the accept loop before `shutdown` stops it.
        let mut late_tcp = connect_streams(addr, 1, 0).unwrap();
        let mut late_shm = shm.then(|| shm_streams(&sock, 1));
        for reply in ask_all(1, &small) {
            assert_eq!(reply.unwrap(), busy, "session table full");
        }
        handle.shutdown();
        assert_eq!(ask(&mut late_tcp, &small).unwrap(), busy, "draining");
        if let Some(s) = &mut late_shm {
            assert_eq!(ask(s, &small).unwrap(), busy, "draining");
        }

        // Abandon A and B (their threads fail out on EOF) and drain.
        drop((a, b));
        let r = jh.join().expect("daemon must not panic").unwrap();
        assert_eq!(r.rejected_geometry, ways * geometry.len() as u64);
        assert_eq!(r.dropped_preadmission, ways, "{r:?}");
        assert_eq!(r.rejected_busy, ways * 3, "{r:?}");
        assert_eq!((r.served, r.failed, r.shm_sessions), (2, 2, 0), "{r:?}");
    }

    /// A rejected peer that keeps trickling bytes on its control stream
    /// must not pin the reply thread past the drain's total bound — the
    /// daemon still shuts down promptly.
    // spec: [P7.1-reply-then-drain]
    #[test]
    fn trickling_peer_cannot_pin_a_rejected_session() {
        let cfg = DaemonConfig {
            slot_cap: 4096,
            ..DaemonConfig::default()
        };
        let (addr, handle, jh) = start(cfg);
        let mut streams = connect_streams(addr, 1, 0).unwrap();
        let reply = ask(&mut streams, &req(64 * 1024, 1, 1 << 20)).unwrap(); // block > slot_cap
        assert!(matches!(reply, CtrlMsg::SessionReject { .. }), "{reply:?}");

        let mut wr = streams.ctrl.try_clone().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let trickler = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    if wr.write_all(&[0]).is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            })
        };

        handle.shutdown();
        let t0 = Instant::now();
        let report = jh.join().unwrap().unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(3),
            "drain pinned by a trickling peer: {:?}",
            t0.elapsed()
        );
        assert_eq!(report.rejected_geometry, 1, "{report:?}");
        stop.store(true, Ordering::Release);
        trickler.join().unwrap();
    }
}
