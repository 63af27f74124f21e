//! The seven workloads. Each is set up once per child (bind, daemon
//! start, untimed warm-up), then asked for timed repetitions; every
//! repetition verifies its own output and accounts for its failures
//! here, in [`Rep::transfer`] and [`Rep::single`], and nowhere else.
//!
//! Load shape, fixed for every workload: one child process runs both
//! halves of a transfer (source on a helper thread, sink on the calling
//! thread) over real loopback sockets, a memfd, or in-process channels;
//! `channels = 2`, `loaders = 1`, `pool_blocks = 32` unless a workload
//! says otherwise; at most two sessions at once. Every loop is closed:
//! transfers are flow-controlled and each client starts its next
//! session only when the previous one has returned.

use crate::sys::{cpu_ns, mono_ns};
use crate::trace::{Kind, Recorder, SeamAcc, SpanLog};
use rftp_baselines::{run_gridftp, GridFtpConfig};
use rftp_core::{build_experiment, ConsumeMode, SinkConfig, SourceConfig};
use rftp_live::net::default_sockbuf;
use rftp_live::pipeline::LiveReport;
use rftp_live::{
    connect_source, connect_source_shm, run_shm_sink, run_split_sink, run_split_source,
    shm_supported, try_run_live, uring_supported, wrap_sink, wrap_source, Daemon, DaemonConfig,
    DaemonHandle, DaemonReport, DaemonTransport, LiveConfig, NetListener, ShmListener,
    SourceTransport, WanProfile,
};
use rftp_netsim::testbed::{self, Testbed};
use rftp_netsim::time::SimDur;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const KIB: u64 = 1 << 10;
const MIB: u64 = 1 << 20;
const GIB: u64 = 1 << 30;

const CHANNELS: usize = 2;
const LOADERS: usize = 1;
const POOL_BLOCKS: u32 = 32;

/// splitmix64: spreads `--seed` over the inputs derived from it.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a child was asked to do.
#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    /// Which of the run's children this is; decorrelates their inputs.
    pub child: u64,
    /// Smoke sizes: every repetition well under a second.
    pub quick: bool,
    /// Directory for unix sockets, span files and the store ceiling's
    /// file: inside the checkout, relative, so socket paths stay short.
    pub out_dir: PathBuf,
}

impl Plan {
    fn scale(&self, bytes: u64) -> u64 {
        if self.quick {
            bytes / 64
        } else {
            bytes
        }
    }

    /// `base` bytes plus a seed-derived ragged tail shorter than one
    /// block: the seed decides every transfer's exact size (and so its
    /// last block's length) without changing the amount of work.
    fn sized(&self, base: u64, block: u64, salt: u64) -> u64 {
        self.scale(base) + 1 + mix(self.seed ^ salt) % (block - 1)
    }
}

/// The outcome of one timed repetition (or of set-up, or of teardown).
#[derive(Debug, Default)]
pub struct Rep {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Verified payload bytes delivered.
    pub bytes: u64,
    pub wall_ns: u64,
    pub cpu_ns: u64,
    /// Client-visible time of each session in the repetition, ms.
    pub sessions_ms: Vec<f64>,
    /// Per-layer values (traced repetitions only).
    pub layer: Vec<(&'static str, f64)>,
    /// Values that must read the same in every repetition of the run.
    pub exact: Vec<(&'static str, String)>,
}

impl Rep {
    fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.errors.push(what.into());
    }

    /// An operation that could not even start.
    fn failed_op(&mut self, what: impl Into<String>) {
        self.attempted += 1;
        self.fail(what);
    }

    /// Verify one half's report against the configuration: the byte and
    /// block counts it claims, and (for the verifying half) checksums.
    fn half_ok(cfg: &LiveConfig, r: &LiveReport) -> Result<(), String> {
        let blocks = cfg.total_bytes.div_ceil(cfg.block_size as u64);
        if r.bytes != cfg.total_bytes || r.blocks != blocks {
            return Err(format!(
                "moved {} bytes in {} blocks, expected {} in {blocks}",
                r.bytes, r.blocks, cfg.total_bytes
            ));
        }
        if r.checksum_failures != 0 {
            return Err(format!("{} checksum failures", r.checksum_failures));
        }
        Ok(())
    }

    /// Account for one two-halved transfer: counted as attempted, failed
    /// on an error or panic on either side, a byte or block mismatch, a
    /// checksum failure, or the halves disagreeing. Returns both reports
    /// when the transfer is good, and only then adds its bytes.
    fn transfer(
        &mut self,
        what: &str,
        cfg: &LiveConfig,
        src: Result<LiveReport, String>,
        snk: Result<LiveReport, String>,
    ) -> Option<(LiveReport, LiveReport)> {
        self.attempted += 1;
        let checked = (|| {
            let (src, snk) = (src?, snk?);
            Rep::half_ok(cfg, &src).map_err(|e| format!("source {e}"))?;
            Rep::half_ok(cfg, &snk).map_err(|e| format!("sink {e}"))?;
            if src.blocks != snk.blocks {
                return Err(format!(
                    "source sent {} blocks, sink took {}",
                    src.blocks, snk.blocks
                ));
            }
            Ok((src, snk))
        })();
        match checked {
            Ok(pair) => {
                self.bytes += cfg.total_bytes;
                Some(pair)
            }
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Account for a transfer that reports once (the in-process
    /// pipeline, or a daemon client whose sink reports at drain).
    fn single(
        &mut self,
        what: &str,
        cfg: &LiveConfig,
        r: Result<LiveReport, String>,
    ) -> Option<LiveReport> {
        self.attempted += 1;
        match r.and_then(|r| Rep::half_ok(cfg, &r).map(|()| r)) {
            Ok(r) => {
                self.bytes += cfg.total_bytes;
                Some(r)
            }
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }
}

pub trait Workload {
    /// Bind, start what serves, and run the untimed warm-up.
    fn setup(&mut self) -> Rep;
    /// One timed repetition: a fixed amount of work, verified.
    fn rep(&mut self, traced: bool) -> Rep;
    /// Measurements the traced pass takes once, after the repetitions.
    fn traced_extras(&mut self) -> Rep {
        Rep::default()
    }
    /// Stop what `setup` started and check what it reports.
    fn finish(&mut self, _traced: bool) -> Rep {
        Rep::default()
    }
    /// Take the span lines gathered so far (at most the per-child cap).
    fn take_spans(&mut self) -> Vec<u8> {
        Vec::new()
    }
}

pub fn build(name: &str, plan: Plan) -> Option<Box<dyn Workload>> {
    Some(match name {
        "lan-bulk-tcp" => Box::new(Pair::tcp(plan, MIB, GIB, None)),
        "lan-small-tcp" => Box::new(Pair::tcp(plan, 16 * KIB, 512 * MIB, None)),
        "wan-ani-lossy" => Box::new(Pair::tcp(plan, 256 * KIB, GIB, Some(0.001))),
        "shm-bulk" => Box::new(Pair::shm(plan, MIB, 2 * GIB)),
        "inproc-bulk" => Box::new(Inproc::new(plan)),
        "daemon-mix" => Box::new(DaemonMix::new(plan)),
        "sim-wan" => Box::new(SimWan::new(plan)),
        _ => return None,
    })
}

fn live_cfg(block: u64, total: u64) -> LiveConfig {
    let mut cfg = LiveConfig::new(block as usize, CHANNELS, total);
    cfg.pool_blocks = POOL_BLOCKS;
    cfg.loaders = LOADERS;
    cfg
}

fn flat<T>(r: std::thread::Result<io::Result<T>>) -> Result<T, String> {
    match r {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err("panicked".into()),
    }
}

/// Per-layer values both halves of the split pipeline return (R).
fn split_layer(out: &mut Vec<(&'static str, f64)>, src: &LiveReport, snk: &LiveReport) {
    let blocks = snk.blocks.max(1) as f64;
    out.extend([
        ("split.load_ns_per_block", src.stages.load_ns),
        ("split.dispatch_ns_per_block", src.stages.dispatch_ns),
        ("split.credit_requests", src.credit_requests as f64),
        ("split.place_ns_per_block", snk.stages.place_ns),
        ("split.place_p99_ns", snk.tails.place.p99()),
        ("split.verify_ns_per_block", snk.stages.verify_ns),
        ("split.verify_p99_ns", snk.tails.verify.p99()),
        ("split.ooo_blocks_share", snk.ooo_blocks as f64 / blocks),
        ("split.ctrl_msgs_per_block", snk.ctrl_msgs_per_block),
        ("split.retransmits", src.retransmits as f64),
        ("split.duplicate_payloads", snk.duplicate_payloads as f64),
    ]);
}

/// Put the impairment shim (if any) and then the tracer (if any) around
/// a source transport. The tracer sits outermost, so it sees what the
/// pipeline sees: frames after the shim has delayed them.
fn dress_source(
    t: SourceTransport,
    wan: Option<&WanProfile>,
    rec: Option<&Recorder>,
) -> SourceTransport {
    let t = match wan {
        Some(w) => wrap_source(t, w),
        None => t,
    };
    match rec {
        Some(r) => r.wrap_source(t),
        None => t,
    }
}

/// Bytes a source puts on its data links for `cfg`: payload plus one
/// payload header per block.
fn wire_bytes(cfg: &LiveConfig) -> u64 {
    let blocks = cfg.total_bytes.div_ceil(cfg.block_size as u64);
    cfg.total_bytes + blocks * rftp_core::PAYLOAD_HEADER_LEN as u64
}

// ---------------------------------------------------------------------------
// Two halves over a listener: lan-bulk-tcp, lan-small-tcp, wan-ani-lossy,
// shm-bulk
// ---------------------------------------------------------------------------

enum Listener {
    Tcp(NetListener),
    Shm(ShmListener),
}

struct Pair {
    plan: Plan,
    block: u64,
    base_bytes: u64,
    /// Behind the `ani-wan` shim, dropping this share of data frames.
    wan_loss: Option<f64>,
    shm: bool,
    listener: Option<Listener>,
    reps: u64,
    /// Which of the seed's inputs the current repetition runs on.
    input: u64,
    spans: SpanLog,
}

impl Pair {
    fn tcp(plan: Plan, block: u64, base_bytes: u64, wan_loss: Option<f64>) -> Pair {
        Pair {
            plan,
            block,
            base_bytes,
            wan_loss,
            shm: false,
            listener: None,
            reps: 0,
            input: 0,
            spans: SpanLog::default(),
        }
    }

    fn shm(plan: Plan, block: u64, base_bytes: u64) -> Pair {
        Pair {
            shm: true,
            ..Pair::tcp(plan, block, base_bytes, None)
        }
    }

    /// The impairment profile of one transfer. Every transfer draws its
    /// own loss pattern from the seed, so a run's median is over as many
    /// patterns as it has repetitions; the warm-up runs loss-free, so
    /// set-up time does not depend on where a drop happened to fall.
    fn wan(&self, lossy: bool) -> Option<WanProfile> {
        let loss = if lossy {
            self.wan_loss?
        } else {
            self.wan_loss.map(|_| 0.0)?
        };
        let seed = mix(self.plan.seed ^ (self.plan.child << 32) ^ self.input);
        let spec = format!("ani-wan,drop={loss},seed={seed}");
        Some(WanProfile::parse(&spec).expect("preset spec parses"))
    }

    /// One transfer of `total` bytes: timed from just before the source
    /// connects until both halves have returned.
    fn transfer(&mut self, what: &str, total: u64, traced: bool, lossy: bool) -> Rep {
        let mut rep = Rep::default();
        let wan = self.wan(lossy);
        let wan = wan.as_ref();
        let mut cfg = live_cfg(self.block, total);
        if let Some(wan) = wan {
            cfg.apply_wan(wan);
        }
        let Some(listener) = &self.listener else {
            rep.failed_op(format!("{what}: transport unavailable on this host"));
            return rep;
        };
        let rec = traced.then(|| Recorder::new(total.div_ceil(self.block)));
        let sockbuf = default_sockbuf(cfg.block_size, cfg.channel_depth);
        let (c0, t0) = (cpu_ns(), mono_ns());
        let (src, snk, session_ns) = std::thread::scope(|s| {
            let source = s.spawn(|| -> io::Result<(LiveReport, u64)> {
                let begun = mono_ns();
                if let Some(r) = &rec {
                    r.mark(Kind::SessionBegin);
                }
                let t = match listener {
                    Listener::Tcp(l) => connect_source(l.local_addr()?, cfg.channels, sockbuf)?,
                    Listener::Shm(l) => connect_source_shm(l.path(), cfg.channels)?,
                };
                let report = run_split_source(&cfg, dress_source(t, wan, rec.as_deref()))?;
                if let Some(r) = &rec {
                    r.mark(Kind::SessionEnd);
                }
                Ok((report, mono_ns() - begun))
            });
            let snk = match listener {
                Listener::Tcp(l) => l.accept_session(sockbuf).and_then(|(t, first)| {
                    let t = match wan {
                        Some(w) => wrap_sink(t, w),
                        None => t,
                    };
                    let t = match &rec {
                        Some(r) => r.wrap_sink(t),
                        None => t,
                    };
                    run_split_sink(&cfg, t, Some(first))
                }),
                // The shm sink builds its own transport around the
                // window, so only the source side is behind the seam.
                Listener::Shm(l) => l
                    .accept_session()
                    .and_then(|(sess, first)| run_shm_sink(&cfg, sess, Some(first))),
            };
            let src = flat(source.join());
            let session_ns = src.as_ref().map_or(0, |(_, ns)| *ns);
            (
                src.map(|(r, _)| r),
                snk.map_err(|e| e.to_string()),
                session_ns,
            )
        });
        rep.wall_ns = mono_ns() - t0;
        rep.cpu_ns = cpu_ns() - c0;
        let Some((src, snk)) = rep.transfer(what, &cfg, src, snk) else {
            return rep;
        };
        rep.sessions_ms.push(session_ns as f64 / 1e6);
        let Some(rec) = rec else { return rep };

        // Traced: the seam's view (S), then what the halves return (R).
        let events = rec.events();
        let mut acc = SeamAcc::default();
        acc.add_session(&events);
        let mut layer = acc.finish();
        split_layer(&mut layer, &src, &snk);
        if self.shm {
            layer.extend([
                (
                    "shm.tx_copy_gbytes_per_s",
                    acc.tx_copy_gbytes_per_s(wire_bytes(&cfg)),
                ),
                ("shm.place_ns_per_block", snk.stages.place_ns),
            ]);
        }
        // Cross-checks that the tracer watched the program rather than
        // changed it: its counts are the program's own.
        let (s2k, k2s) = acc.ctrl_frames();
        if s2k + k2s != src.ctrl_msgs {
            rep.failed_op(format!(
                "{what}: seam counted {} control frames, the source reports {}",
                s2k + k2s,
                src.ctrl_msgs
            ));
        }
        if let (Some(wan), Some(snk_adapt), Some(src_adapt)) = (wan, snk.adapt, src.adapt) {
            let drops = acc.frames_lost();
            let rtt_us = wan.rtt().as_micros() as f64;
            let goodput = cfg.total_bytes as f64 / rep.wall_ns as f64;
            let bdp_bound = snk_adapt.effective_depth as f64 * cfg.block_size as f64
                / (snk_adapt.srtt_us.max(1.0) * 1e3);
            layer.extend([
                (
                    "netem.pipe_utilisation",
                    wan.rate_bps.map_or(0.0, |r| goodput * 8e9 / r),
                ),
                ("netem.bdp_bound_gbytes_per_s", bdp_bound),
                ("estimator.srtt_us", snk_adapt.srtt_us),
                ("estimator.rttvar_us", snk_adapt.rttvar_us),
                (
                    "estimator.effective_depth",
                    snk_adapt.effective_depth as f64,
                ),
                ("estimator.dwell_ns", snk_adapt.dwell_ns as f64),
                ("estimator.loss_rate", src_adapt.loss_rate),
                ("estimator.first_block_ms", snk_adapt.first_block_us / 1e3),
                (
                    "estimator.first_block_rtts",
                    snk_adapt.first_block_us / rtt_us,
                ),
                ("split.dropped_payloads", drops as f64),
                (
                    "split.retx_per_drop",
                    if drops > 0 {
                        src.retransmits as f64 / drops as f64
                    } else {
                        0.0
                    },
                ),
            ]);
        }
        if !self.shm && acc.residual_share() > 0.10 {
            rep.failed_op(format!(
                "{what}: {:.3} of the ack round trip is not explained by the seam's spans",
                acc.residual_share()
            ));
        }
        rep.layer = layer;
        self.spans.keep(self.plan.child * 1000 + self.reps, &events);
        rep
    }
}

impl Workload for Pair {
    fn setup(&mut self) -> Rep {
        let mut rep = Rep::default();
        let bound = if self.shm {
            if !shm_supported() {
                Err("shm transport unsupported on this host".to_string())
            } else {
                let path = self
                    .plan
                    .out_dir
                    .join(format!("shm-{}.sock", std::process::id()));
                ShmListener::bind(&path)
                    .map(Listener::Shm)
                    .map_err(|e| format!("bind {}: {e}", path.display()))
            }
        } else {
            NetListener::bind("127.0.0.1:0")
                .map(Listener::Tcp)
                .map_err(|e| format!("bind loopback: {e}"))
        };
        match bound {
            Ok(l) => self.listener = Some(l),
            Err(e) => {
                rep.failed_op(e);
                return rep;
            }
        }
        let warm = self.plan.sized(32 * MIB, self.block, 0x3A);
        self.transfer("warm-up", warm, false, false)
    }

    fn rep(&mut self, traced: bool) -> Rep {
        self.reps += 1;
        // A traced repetition repeats the inputs (size, loss pattern) of
        // the untraced one before it, so the pair differs in tracing only.
        if !traced {
            self.input = self.reps;
        }
        let total = self.plan.sized(self.base_bytes, self.block, self.input);
        self.transfer("transfer", total, traced, true)
    }

    fn take_spans(&mut self) -> Vec<u8> {
        self.spans.take()
    }
}

// ---------------------------------------------------------------------------
// inproc-bulk
// ---------------------------------------------------------------------------

struct Inproc {
    plan: Plan,
    reps: u64,
}

impl Inproc {
    fn new(plan: Plan) -> Inproc {
        Inproc { plan, reps: 0 }
    }

    fn transfer(&self, what: &str, total: u64, traced: bool) -> Rep {
        let mut rep = Rep::default();
        let cfg = live_cfg(MIB, total);
        let (c0, t0) = (cpu_ns(), mono_ns());
        let r = std::panic::catch_unwind(|| try_run_live(&cfg));
        rep.wall_ns = mono_ns() - t0;
        rep.cpu_ns = cpu_ns() - c0;
        let Some(r) = rep.single(what, &cfg, flat(r)) else {
            return rep;
        };
        rep.sessions_ms.push(rep.wall_ns as f64 / 1e6);
        if traced {
            // No transport seam exists inside one address space; the
            // monolith is visible only through what it returns (R).
            rep.layer = vec![
                ("pipeline.load_ns_per_block", r.stages.load_ns),
                ("pipeline.dispatch_ns_per_block", r.stages.dispatch_ns),
                ("pipeline.place_ns_per_block", r.stages.place_ns),
                ("pipeline.verify_ns_per_block", r.stages.verify_ns),
                ("pipeline.ctrl_msgs_per_block", r.ctrl_msgs_per_block),
                (
                    "pipeline.ooo_blocks_share",
                    r.ooo_blocks as f64 / r.blocks.max(1) as f64,
                ),
            ];
        }
        rep
    }
}

impl Workload for Inproc {
    fn setup(&mut self) -> Rep {
        self.transfer("warm-up", self.plan.sized(32 * MIB, MIB, 0x3A), false)
    }

    fn rep(&mut self, traced: bool) -> Rep {
        self.reps += 1;
        let total = self.plan.sized(2 * GIB, MIB, self.reps);
        self.transfer("transfer", total, traced)
    }
}

// ---------------------------------------------------------------------------
// daemon-mix
// ---------------------------------------------------------------------------

const BULK_BLOCK: u64 = 256 * KIB;
const SHORT_BLOCK: u64 = 64 * KIB;
const SHORT_BYTES: u64 = 256 * KIB;
/// Client B's median session time in a traced repetition: not a reported
/// metric, only the other side of the parent's phase-sum check.
pub const MIX_SESSION_P50: &str = "check.mix_session_p50_ms";
/// Bulk sessions of client A per repetition (256 MiB each).
const BULK_SESSIONS: usize = 3;
/// Sessions of the uncontended reference the traced pass adds.
const SOLO_SESSIONS: usize = 300;

/// The `daemon_cfg` geometry of `crates/bench/src/bin/net_throughput.rs`.
fn daemon_cfg() -> DaemonConfig {
    DaemonConfig {
        transport: DaemonTransport::Uring,
        slot_cap: 256 * 1024,
        arena_slots: 32,
        session_slots: 8,
        max_sessions: 8,
        credit_budget: 32,
        interactive_cutoff: 32 * MIB,
        interactive_weight: 8,
        ..DaemonConfig::default()
    }
}

struct RunningDaemon {
    addr: SocketAddr,
    handle: DaemonHandle,
    thread: std::thread::JoinHandle<io::Result<DaemonReport>>,
}

struct DaemonMix {
    plan: Plan,
    daemon: Option<RunningDaemon>,
    /// Client sessions that completed, for the drain check.
    sessions_ok: u64,
    bytes_ok: u64,
    windows: u64,
    mix_p50_ms: Option<f64>,
    spans: SpanLog,
}

/// What one client session against the daemon produced.
struct Session {
    report: Result<LiveReport, String>,
    ms: f64,
    ended_ns: u64,
    rec: Option<Arc<Recorder>>,
}

/// One plain tcp client session (tcp and uring speak one wire).
fn daemon_session(addr: SocketAddr, cfg: &LiveConfig, traced: bool) -> Session {
    let rec = traced.then(|| Recorder::new(cfg.total_bytes.div_ceil(cfg.block_size as u64)));
    let begun = mono_ns();
    if let Some(r) = &rec {
        r.mark(Kind::SessionBegin);
    }
    let sockbuf = default_sockbuf(cfg.block_size, cfg.channel_depth);
    let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let t = connect_source(addr, cfg.channels, sockbuf)?;
        run_split_source(cfg, dress_source(t, None, rec.as_deref()))
    }));
    if let Some(r) = &rec {
        r.mark(Kind::SessionEnd);
    }
    let ended_ns = mono_ns();
    Session {
        report: flat(report),
        ms: (ended_ns - begun) as f64 / 1e6,
        ended_ns,
        rec,
    }
}

impl DaemonMix {
    fn new(plan: Plan) -> DaemonMix {
        DaemonMix {
            plan,
            daemon: None,
            sessions_ok: 0,
            bytes_ok: 0,
            windows: 0,
            mix_p50_ms: None,
            spans: SpanLog::default(),
        }
    }

    fn client_cfg(block: u64, total: u64) -> LiveConfig {
        let mut cfg = LiveConfig::new(block as usize, 1, total);
        cfg.pool_blocks = 8;
        cfg.loaders = LOADERS;
        cfg
    }

    /// Account for one client session; the daemon's side of it is
    /// checked at drain, against these totals.
    fn account(
        &mut self,
        rep: &mut Rep,
        what: &str,
        cfg: &LiveConfig,
        report: Result<LiveReport, String>,
    ) -> Option<LiveReport> {
        let report = rep.single(what, cfg, report)?;
        self.sessions_ok += 1;
        self.bytes_ok += cfg.total_bytes;
        Some(report)
    }

    /// Back-to-back short sessions with nothing else running.
    fn solo(&mut self, n: usize, traced: bool) -> (Rep, Vec<f64>) {
        let mut rep = Rep::default();
        let mut ms = Vec::with_capacity(n);
        let Some(addr) = self.daemon.as_ref().map(|d| d.addr) else {
            return (rep, ms);
        };
        let cfg = DaemonMix::client_cfg(SHORT_BLOCK, SHORT_BYTES);
        for _ in 0..n {
            let s = daemon_session(addr, &cfg, traced);
            if self
                .account(&mut rep, "solo session", &cfg, s.report)
                .is_some()
            {
                ms.push(s.ms);
            }
        }
        (rep, ms)
    }
}

impl Workload for DaemonMix {
    fn setup(&mut self) -> Rep {
        let mut rep = Rep::default();
        if !uring_supported() {
            rep.failed_op("io_uring unsupported on this host (no tcp substitute is run)");
            return rep;
        }
        let daemon = match Daemon::bind("127.0.0.1:0", daemon_cfg()) {
            Ok(d) => d,
            Err(e) => {
                rep.failed_op(format!("bind daemon: {e}"));
                return rep;
            }
        };
        let addr = daemon.local_addr().expect("bound daemon has an address");
        let handle = daemon.handle();
        let thread = std::thread::spawn(move || daemon.run());
        self.daemon = Some(RunningDaemon {
            addr,
            handle,
            thread,
        });
        let cfg = DaemonMix::client_cfg(BULK_BLOCK, self.plan.sized(32 * MIB, BULK_BLOCK, 0x3A));
        let s = daemon_session(addr, &cfg, false);
        self.account(&mut rep, "warm-up", &cfg, s.report);
        rep
    }

    /// Client A runs [`BULK_SESSIONS`] bulk sessions back to back; client
    /// B runs short sessions back to back until A has stopped, so every A
    /// session is contended from start to end.
    fn rep(&mut self, traced: bool) -> Rep {
        let mut rep = Rep::default();
        let Some(addr) = self.daemon.as_ref().map(|d| d.addr) else {
            rep.failed_op("mix: no daemon is running");
            return rep;
        };
        self.windows += 1;
        let bulk_total = self.plan.sized(256 * MIB, BULK_BLOCK, self.windows);
        let bulk_cfg = DaemonMix::client_cfg(BULK_BLOCK, bulk_total);
        let short_cfg = DaemonMix::client_cfg(SHORT_BLOCK, SHORT_BYTES);
        let a_done = AtomicBool::new(false);
        let (c0, t0) = (cpu_ns(), mono_ns());
        let (bulk, short) = std::thread::scope(|s| {
            let a = s.spawn(|| {
                let mut out = Vec::new();
                for _ in 0..BULK_SESSIONS {
                    let sess = daemon_session(addr, &bulk_cfg, traced);
                    let failed = sess.report.is_err();
                    out.push(sess);
                    if failed {
                        break;
                    }
                }
                a_done.store(true, Ordering::Release);
                out
            });
            let mut short = Vec::new();
            while !a_done.load(Ordering::Acquire) {
                let sess = daemon_session(addr, &short_cfg, traced);
                let failed = sess.report.is_err();
                short.push(sess);
                if failed {
                    break;
                }
            }
            (a.join().unwrap_or_default(), short)
        });
        rep.cpu_ns = cpu_ns() - c0;

        let mut acc = SeamAcc::default();
        let mut sid = self.plan.child * 1_000_000 + self.windows * 10_000;
        let mut bulk_end = t0;
        let mut bulk_bytes = 0u64;
        let mut bulk_reports = Vec::new();
        for s in bulk {
            if let Some(r) = self.account(&mut rep, "bulk session", &bulk_cfg, s.report) {
                bulk_reports.push(r);
                bulk_end = bulk_end.max(s.ended_ns);
                bulk_bytes += bulk_cfg.total_bytes;
                if let Some(rec) = &s.rec {
                    let ev = rec.events();
                    acc.add_session(&ev);
                    sid += 1;
                    self.spans.keep(sid, &ev);
                }
            }
        }
        // Only B's sessions feed the latency metrics and the phase
        // split; A's are accounted as throughput.
        let mut short_acc = SeamAcc::default();
        for s in short {
            if self
                .account(&mut rep, "short session", &short_cfg, s.report)
                .is_some()
            {
                rep.sessions_ms.push(s.ms);
                if let Some(rec) = &s.rec {
                    let ev = rec.events();
                    short_acc.add_session(&ev);
                    sid += 1;
                    self.spans.keep(sid, &ev);
                }
            }
        }
        // Goodput is client A's bytes over the window its sessions
        // span; B's 256 KiB sessions are the latency probe, not load.
        rep.wall_ns = bulk_end - t0;
        rep.bytes = bulk_bytes;
        if traced {
            let mut layer = acc.finish();
            layer.extend(short_acc.session_phases());
            // Held against the three phases by the parent, over the run.
            let p50 = crate::stats::median(&rep.sessions_ms).unwrap_or(0.0);
            layer.push((MIX_SESSION_P50, p50));
            self.mix_p50_ms = Some(p50);
            // The source half is client A's; the sink half is inside
            // the daemon and reports when it drains (see `finish`).
            let mean = |f: fn(&LiveReport) -> f64| {
                bulk_reports.iter().map(f).sum::<f64>() / bulk_reports.len().max(1) as f64
            };
            layer.extend([
                ("split.load_ns_per_block", mean(|r| r.stages.load_ns)),
                (
                    "split.dispatch_ns_per_block",
                    mean(|r| r.stages.dispatch_ns),
                ),
                ("split.credit_requests", mean(|r| r.credit_requests as f64)),
                ("split.retransmits", mean(|r| r.retransmits as f64)),
            ]);
            rep.layer = layer;
        }
        rep
    }

    fn traced_extras(&mut self) -> Rep {
        let n = if self.plan.quick { 40 } else { SOLO_SESSIONS };
        let (mut rep, ms) = self.solo(n, false);
        if let Some(solo) = crate::stats::median(&ms) {
            rep.layer.push(("daemon.session_solo_p50_ms", solo));
            if let Some(mix) = self.mix_p50_ms {
                rep.layer.push(("daemon.contention_ratio", mix / solo));
            }
        }
        rep
    }

    /// Drain the daemon and hold its own account against the clients'.
    fn finish(&mut self, traced: bool) -> Rep {
        let mut rep = Rep::default();
        let Some(d) = self.daemon.take() else {
            return rep;
        };
        rep.attempted += 1;
        d.handle.shutdown();
        let report = match d.thread.join() {
            Ok(Ok(r)) => r,
            Ok(Err(e)) => {
                rep.fail(format!("daemon: {e}"));
                return rep;
            }
            Err(_) => {
                rep.fail("daemon: panicked");
                return rep;
            }
        };
        let sink_ok: Vec<&LiveReport> = report
            .sessions
            .iter()
            .filter_map(|s| s.result.as_ref().ok())
            .collect();
        let sink_bytes: u64 = sink_ok.iter().map(|r| r.bytes).sum();
        let sink_bad: u64 = sink_ok.iter().map(|r| r.checksum_failures).sum();
        let turned_away =
            report.rejected_busy + report.rejected_geometry + report.dropped_preadmission;
        if report.completed != report.served
            || report.failed != 0
            || turned_away != 0
            || report.completed != self.sessions_ok
            || sink_bytes != self.bytes_ok
            || sink_bad != 0
        {
            rep.fail(format!(
                "daemon: served {} completed {} failed {} turned away {turned_away}, \
                 {sink_bytes} bytes with {sink_bad} checksum failures; clients completed {} \
                 sessions, {} bytes",
                report.served, report.completed, report.failed, self.sessions_ok, self.bytes_ok
            ));
        }
        if traced {
            let blocks: u64 = sink_ok.iter().map(|r| r.blocks).sum();
            let per_block = |v: u64| v as f64 / blocks.max(1) as f64;
            let ring = report.uring.unwrap_or_default();
            let weighted = |f: fn(&LiveReport) -> f64| {
                sink_ok.iter().map(|r| f(r) * r.blocks as f64).sum::<f64>() / blocks.max(1) as f64
            };
            rep.layer = vec![
                (
                    "split.verify_ns_per_block",
                    weighted(|r| r.stages.verify_ns),
                ),
                (
                    "split.ctrl_msgs_per_block",
                    weighted(|r| r.ctrl_msgs_per_block),
                ),
                (
                    "split.ooo_blocks_share",
                    sink_ok.iter().map(|r| r.ooo_blocks).sum::<u64>() as f64 / blocks.max(1) as f64,
                ),
                (
                    "split.duplicate_payloads",
                    sink_ok.iter().map(|r| r.duplicate_payloads).sum::<u64>() as f64,
                ),
                ("uring.enters_per_block", per_block(ring.enters)),
                ("uring.cqes_per_block", per_block(ring.cqes)),
                ("uring.multishot_rearms", ring.multishot_rearms as f64),
                ("uring.pbuf_exhausted", ring.pbuf_exhausted as f64),
                ("uring.registrations", ring.registrations as f64),
                ("uring.place_ns_per_block", weighted(|r| r.stages.place_ns)),
                ("daemon.completed", report.completed as f64),
                ("daemon.failed", report.failed as f64),
                ("daemon.rejected_busy", report.rejected_busy as f64),
                (
                    "daemon.dropped_preadmission",
                    report.dropped_preadmission as f64,
                ),
            ];
        }
        rep
    }

    fn take_spans(&mut self) -> Vec<u8> {
        self.spans.take()
    }
}

// ---------------------------------------------------------------------------
// sim-wan
// ---------------------------------------------------------------------------

struct SimWan {
    plan: Plan,
    tb: Testbed,
}

/// One simulated point's outcome.
struct Point {
    wall_ns: u64,
    bytes: u64,
    gbps: f64,
    events: u64,
}

impl SimWan {
    fn new(plan: Plan) -> SimWan {
        SimWan {
            plan,
            tb: testbed::ani_wan(),
        }
    }

    /// RFTP memory-to-memory at one (block, streams) point, configured
    /// as the figure harnesses do (`rftp_point` in `crates/bench`).
    fn rftp(&self, block: u64, streams: u16, bytes: u64) -> Result<Point, String> {
        let tb = &self.tb;
        let want = (4 * tb.bdp_bytes() / block).clamp(16, 4096) as u32;
        let cfg = SourceConfig::new(block, streams, bytes).with_pool(want);
        let snk = SinkConfig {
            pool_blocks: want,
            ctrl_ring_slots: cfg.ctrl_ring_slots,
            consume: ConsumeMode::Null,
            ..SinkConfig::default()
        };
        let t0 = mono_ns();
        let out = std::panic::catch_unwind(|| {
            build_experiment(tb, cfg, snk).run_keep_world(SimDur::from_secs(36_000))
        });
        let wall_ns = mono_ns() - t0;
        let (r, sim) = out.map_err(|_| "the simulated transfer failed".to_string())?;
        if r.source.bytes_sent != bytes || r.sink.bytes_delivered != bytes {
            return Err(format!(
                "simulated {} bytes sent, {} delivered, expected {bytes}",
                r.source.bytes_sent, r.sink.bytes_delivered
            ));
        }
        if r.sink.checksum_failures != 0 {
            return Err(format!("{} checksum failures", r.sink.checksum_failures));
        }
        Ok(Point {
            wall_ns,
            bytes,
            gbps: r.goodput_gbps,
            events: sim.events_processed(),
        })
    }

    fn gridftp(&self, block: u64, streams: u32, bytes: u64) -> Result<Point, String> {
        let cfg = GridFtpConfig::tuned(&self.tb, streams, block, bytes);
        let t0 = mono_ns();
        let out = std::panic::catch_unwind(|| run_gridftp(&self.tb, &cfg));
        let wall_ns = mono_ns() - t0;
        let r = out.map_err(|_| "the simulated GridFTP transfer failed".to_string())?;
        if r.bytes_moved != bytes {
            return Err(format!(
                "GridFTP moved {} bytes, expected {bytes}",
                r.bytes_moved
            ));
        }
        Ok(Point {
            wall_ns,
            bytes,
            gbps: r.bandwidth_gbps,
            events: 0,
        })
    }

    /// The three points, serially on this thread.
    fn points(&self, scale: u64, traced: bool) -> Rep {
        let mut rep = Rep::default();
        let (c0, t0) = (cpu_ns(), mono_ns());
        let sized = |base: u64, block: u64, salt: u64| {
            base / scale + 1 + mix(self.plan.seed ^ salt) % (block - 1)
        };
        let runs: [(&'static str, Result<Point, String>); 3] = [
            (
                "sim.rftp_small_wall_s",
                self.rftp(128 * KIB, 8, sized(8 * GIB, 128 * KIB, 1)),
            ),
            (
                "sim.rftp_large_wall_s",
                self.rftp(4 * MIB, 1, sized(8 * GIB, 4 * MIB, 2)),
            ),
            (
                "sim.gridftp_wall_s",
                self.gridftp(4 * MIB, 8, sized(2 * GIB, 4 * MIB, 3)),
            ),
        ];
        rep.wall_ns = mono_ns() - t0;
        rep.cpu_ns = cpu_ns() - c0;
        let (mut events, mut event_ns) = (0u64, 0u64);
        for (name, run) in runs {
            rep.attempted += 1;
            match run {
                Ok(p) => {
                    rep.bytes += p.bytes;
                    rep.exact
                        .push((name, format!("{:?} Gb/s, {} bytes", p.gbps, p.bytes)));
                    if p.events > 0 {
                        events += p.events;
                        event_ns += p.wall_ns;
                    }
                    if traced {
                        rep.layer.push((name, p.wall_ns as f64 / 1e9));
                        if name == "sim.rftp_small_wall_s" {
                            rep.layer.push(("sim.goodput_gbps", p.gbps));
                        }
                    }
                }
                Err(e) => rep.fail(format!("{name}: {e}")),
            }
        }
        rep.sessions_ms.push(rep.wall_ns as f64 / 1e6);
        if traced && events > 0 {
            rep.layer.extend([
                ("sim.wall_s", rep.wall_ns as f64 / 1e9),
                ("netsim.events", events as f64),
                ("netsim.events_per_s", events as f64 * 1e9 / event_ns as f64),
                ("netsim.ns_per_event", event_ns as f64 / events as f64),
            ]);
        }
        rep
    }
}

impl Workload for SimWan {
    fn setup(&mut self) -> Rep {
        let mut rep = self.points(if self.plan.quick { 512 } else { 8 }, false);
        // The warm-up's sizes differ from the timed ones, so its values
        // are not part of the must-repeat set.
        rep.exact.clear();
        rep
    }

    fn rep(&mut self, traced: bool) -> Rep {
        self.points(if self.plan.quick { 16 } else { 1 }, traced)
    }
}
