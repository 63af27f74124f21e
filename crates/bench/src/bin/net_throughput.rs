//! Transport throughput gates: the split pipeline over the whole ladder
//! — `inproc` (channel transport, one address space), `tcp` (thread per
//! channel, vectored zero-copy framing), `uring` (one ring per side,
//! registered buffers, batched completions) and `shm` (memfd window, zero
//! receiver copies) — swept across channel count × block size, head to
//! head. How a point is run, written and gated is `rftp_bench::live`;
//! this file is the table of points. Three modes, one JSON schema:
//!
//! **Sweep** (default, `BENCH_net.json`): every supported rung at every
//! block × channels point, a tuned-vs-OS socket-buffer contrast, and the
//! gates at 8 channels × 256 KB, best of 3:
//! * **inproc**: under one control frame per block (coalescing works);
//! * **tcp**: an absolute floor well under a healthy run but far above a
//!   regression that re-introduces a copy or a per-block control
//!   round-trip, and ≤ 1 control frame per block;
//! * **uring** (when the kernel supports it): at least 0.75 of the
//!   median TCP gate run beside it (a same-run ratio: on loopback the ring
//!   buys threads and kernel crossings, not GB/s — DESIGN.md §12), ≤ 1 control
//!   frame per block, a lower mean place-stage latency than the TCP run,
//!   and one data-path thread where TCP spends one per channel;
//! * **shm**: at least TCP's best, ≤ 1 control frame per block, and a
//!   place stage at most a tenth of TCP's.
//!
//! `--gate-only` skips the sweep and runs just the gate points.
//!
//! **`--wan`** (`BENCH_wan.json`): the deterministic impairment shim on
//! loopback TCP across the paper's Table I paths (roce-lan, ib-lan,
//! ani-wan), a static knob grid (block × channels × depth) against the
//! adaptive credit/depth controller per preset. Gates: adaptive at least
//! the best static point per preset, at least 2× the worst static point
//! at the 49 ms WAN, zero retransmits on the clean path, first-block
//! latency under two round trips, and — from a same-run pair of adaptive
//! ani-wan transfers, one clean and one at 0.1 % loss — lossy goodput at
//! least 0.85 of clean (a drop must cost one ack round trip, not one
//! timeout). `--gate-only` runs the ani-wan preset alone.
//!
//! **`--daemon [--transport tcp|uring|shm]`** (`BENCH_net_daemon.json`):
//! aggregate throughput and the per-session fairness ratio (min/max
//! session GB/s) at 1, 2 and 4 concurrent sessions through one
//! `rftpd`-style daemon — one row per session, the daemon's counters as
//! labels — with TCP beside the uring and shm ladders for reference, plus
//! the interactive-under-bulk pair (interactive completion must stay
//! under 2× its solo time while a bulk session saturates the daemon;
//! not run under `--quick`). The uring daemon (ONE ring and ONE driver
//! thread for every admitted session) also gates on its shape: one driver
//! thread and exactly one buffer registration at 4 sessions, fairness
//! ≥ 0.9 everywhere.
//!
//! `--quick` runs reduced volumes for CI smoke and reports the gates
//! without enforcing them; `--out PATH` overrides the JSON location.

use rftp_bench::live::{
    connect, finish, ring_json, row, tuned_sockbuf, unix_sock_path, Args, Endpoint, Gates, Json,
    Op, Series, Transport,
};
use rftp_bench::MB;
use rftp_live::{
    run_split_source, Daemon, DaemonConfig, DaemonReport, DaemonTransport, LiveConfig, LiveReport,
    UringStats, WanProfile,
};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// TCP gate floor, GB/s, at 8 channels × 256 KB (best of 3, release
/// build) — the one absolute bar among the gates. Loopback moved ~1.75
/// GB/s on the reference machine; a transport that stages an extra copy
/// or serializes the control plane lands well below the floor.
const GATE_FLOOR_GBPS: f64 = 1.0;

/// io_uring gate bound at the same point: the ring's best of three as a
/// share of the *median* of the three TCP gate runs beside it, so the
/// host's speed cancels. On loopback the ring backend saves syscalls
/// and the per-channel receiver threads, not bytes per second: both
/// backends make the one kernel socket → slot copy (uring's is a
/// `READ_FIXED` into the registered slot), and on a 2-vCPU host five
/// runs read 0.85–1.28. The reference is TCP's median because
/// threaded TCP is bimodal there (by where its nine receivers land)
/// and best-of-3 reports the lucky mode.
const URING_OVER_TCP: f64 = 0.75;

/// The shm gate's place-latency bound: placement on the zero-copy shm
/// path is a publication-word check, not a copy, so its mean place
/// stage must land at or under this fraction of the TCP run's (whose
/// placement waits on a blocking socket → slot read).
const SHM_PLACE_RATIO: f64 = 0.1;

const GATE_BLOCK: u64 = 256 * 1024;

fn num4(v: f64) -> Json {
    Json::num(v, 4)
}

/// One sweep-table point, printed and recorded.
fn point(
    results: &mut Vec<Json>,
    name: &str,
    n: usize,
    t: Transport,
    (block, channels, total): (u64, usize, u64),
    tuned: bool,
) -> Series {
    let mut cfg = LiveConfig::new(block as usize, channels, total);
    cfg.pool_blocks = 32;
    cfg.loaders = 4;
    let sockbuf = if tuned { tuned_sockbuf(&cfg) } else { 0 };
    Series::run(name, n, t, &cfg, None, sockbuf).record(results)
}

fn run_sweep(args: &Args) -> ExitCode {
    let total = if args.quick { 32 * MB } else { 256 * MB };
    let blocks: &[u64] = match (args.gate_only, args.quick) {
        (true, _) => &[],
        (false, true) => &[64 * 1024, 256 * 1024],
        (false, false) => &[64 * 1024, 256 * 1024, 1024 * 1024],
    };
    let channel_sweep: &[usize] = if args.quick { &[1, 8] } else { &[1, 2, 4, 8] };
    let ladder = Transport::ladder();
    let labels: Vec<Json> = ladder.iter().map(|t| t.label().into()).collect();
    println!(
        "loopback sweep: {} MB per run{}, ladder: {labels:?}\n",
        total / MB,
        if args.quick { " (quick)" } else { "" },
    );
    let mut results = Vec::new();
    for &block in blocks {
        for &channels in channel_sweep {
            for &t in &ladder {
                point(&mut results, "sweep", 1, t, (block, channels, total), true);
            }
        }
    }

    // Socket-buffer contrast at the gate point: the same transfer with
    // the kernel's default buffers. On loopback the defaults are often
    // adequate (the "wire" has no bandwidth-delay product); the contrast
    // is in the JSON so WAN runs have a local reference.
    let gate_point = (GATE_BLOCK, 8, total);
    if !args.gate_only {
        point(
            &mut results,
            "os-sockbuf",
            1,
            Transport::Tcp,
            gate_point,
            false,
        );
    }

    // The gates: best of 3 at 8 × 256 KB with tuned buffers, every rung
    // head to head against the tcp runs beside it.
    let mut gates = Gates::new(args.quick);
    let mut gate = |t: Transport| point(&mut results, "gate", 3, t, gate_point, true);
    println!();
    let inproc = gate(Transport::Inproc);
    let tcp = gate(Transport::Tcp);
    let ctrl = |s: &Series| s.best().1.ctrl_msgs_per_block;
    let place = |s: &Series| s.best().1.stages.place_ns;
    gates.check("inproc_ctrl_msgs_per_block", ctrl(&inproc), Op::Lt, 1.0);
    gates.check("tcp_gbytes_per_sec", tcp.gbps(), Op::Ge, GATE_FLOOR_GBPS);
    gates.check("tcp_ctrl_msgs_per_block", ctrl(&tcp), Op::Le, 1.0);

    if Transport::Uring.supported() {
        let ring = gate(Transport::Uring);
        let over_tcp = ring.gbps() / tcp.median_gbps();
        gates.check("uring_over_tcp_median", over_tcp, Op::Ge, URING_OVER_TCP);
        gates.check("uring_ctrl_msgs_per_block", ctrl(&ring), Op::Le, 1.0);
        gates.check(
            "uring_place_over_tcp",
            place(&ring) / place(&tcp),
            Op::Lt,
            1.0,
        );
        let threads = ring.best().1.transport_threads as f64;
        gates.check("uring_threads", threads, Op::Le, 1.0);
    }
    // The shm gate: zero receiver copies must beat the copying TCP path
    // outright, and place in a tenth of its per-block place stage (a
    // word check vs a socket → slot read).
    if Transport::Shm.supported() {
        let shm = gate(Transport::Shm);
        gates.check("shm_over_tcp", shm.gbps() / tcp.gbps(), Op::Ge, 1.0);
        gates.check("shm_ctrl_msgs_per_block", ctrl(&shm), Op::Le, 1.0);
        let over = place(&shm) / place(&tcp);
        gates.check("shm_place_over_tcp", over, Op::Le, SHM_PLACE_RATIO);
    }

    let config = Json::obj()
        .with("wire", "loopback")
        .with("ladder", labels)
        .with("gate_block_size", GATE_BLOCK)
        .with("gate_channels", 8u32);
    finish(args, "sweep", config, results, gates)
}

// ---------------------------------------------------------------------------
// WAN mode: the impairment shim on real TCP, static grid vs adaptive.
// ---------------------------------------------------------------------------

/// Adaptive must clear the *worst* static grid point at the 49 ms WAN by
/// at least this factor — the cost of shipping LAN-tuned knobs to a long
/// path is the whole point of the figure.
const WAN_WORST_STATIC_RATIO: f64 = 2.0;
/// First-block latency bound at the ANI WAN, in round trips: proactive
/// initial credits mean data rides the very next one-way after the
/// handshake, so two RTTs is already generous.
const WAN_FIRST_BLOCK_RTTS: f64 = 2.0;

/// The paper's Table I paths, as bench arms. Every grid arm runs
/// `drop=0`: the grid measures the protocol's shape against RTT and
/// rate, and the zero-retransmit gate needs a clean path to be
/// meaningful.
const WAN_PRESETS: &[&str] = &["roce-lan,drop=0", "ib-lan,drop=0", "ani-wan,drop=0"];
/// The loss pair: the adaptive ani-wan arm twice in one run, at the
/// same volume, once clean and once losing one frame in a thousand. The
/// ratio of the two is what a drop costs, free of the host's speed.
const WAN_LOSS_PAIR: [&str; 2] = ["ani-wan,drop=0", "ani-wan,drop=0.001"];
/// Lossy goodput must hold this share of clean. A drop holds one sink
/// slot for the ack round trip its re-send takes while every other slot
/// keeps cycling, so three to seven drops per GiB cost a few per cent
/// (≈ 0.95); a sink that frees in sequence order stalls the pipe 25–40 ms
/// per drop (≈ 0.9), and recovery by timeout (100–200 ms each, the
/// window drained and refilled) is ≈ 0.6–0.7.
const WAN_LOSSY_OVER_CLEAN: f64 = 0.85;

/// One arm over shimmed loopback TCP, printed and recorded. `depth`
/// pins a static grid point: every knob fixed, controller off. `None` is
/// the adaptive arm: default config plus [`LiveConfig::apply_wan`] — the
/// pool and first grant are one credit loop of the profile's path up
/// front, then the controller tracks measured RTT at run time. Best of `tries`, so a scheduler
/// hiccup on a fast LAN preset doesn't decide a gate.
fn wan_arm(
    results: &mut Vec<Json>,
    point: &str,
    wan: &WanProfile,
    (block, channels, total): (u64, usize, u64),
    depth: Option<u32>,
    tries: usize,
) -> Series {
    let mut cfg = LiveConfig::new(block as usize, channels, total);
    match depth {
        Some(d) => cfg.pool_blocks = d,
        None => cfg.apply_wan(wan),
    }
    let sockbuf = tuned_sockbuf(&cfg);
    Series::run(point, tries, Transport::Tcp, &cfg, Some(wan), sockbuf).record(results)
}

fn run_wan(args: &Args) -> ExitCode {
    println!(
        "WAN grid: impairment shim on loopback TCP, static knobs vs adaptive controller{}\n",
        if args.quick { " (quick)" } else { "" },
    );
    let presets: &[&str] = if args.gate_only {
        &WAN_PRESETS[2..]
    } else {
        WAN_PRESETS
    };
    // The worst static point at 49 ms is window-bound near 5 MB/s, so
    // its total must stay small for the arm to finish in seconds; the
    // adaptive arm is rate-bound three orders of magnitude higher and
    // gets a total that dwarfs its ramp.
    let (static_total, wan_static_total, adaptive_total) = if args.quick {
        (16 * MB, 4 * MB, 16 * MB)
    } else {
        (64 * MB, 8 * MB, 96 * MB)
    };
    let adaptive_point = (256 * 1024, 4, adaptive_total);
    let mut results = Vec::new();
    let mut gates = Gates::new(args.quick);
    for spec in presets {
        let wan = WanProfile::parse(spec).expect("preset spec");
        let long_path = wan.rtt() >= Duration::from_millis(1);
        let grid_total = if long_path {
            wan_static_total
        } else {
            static_total
        };
        let mut grid = Vec::new();
        for block in [64 * 1024u64, 256 * 1024] {
            for channels in [1usize, 4] {
                for depth in [4u32, 16] {
                    let at = (block, channels, grid_total);
                    grid.push(wan_arm(&mut results, "grid", &wan, at, Some(depth), 1));
                }
            }
        }
        let adaptive = wan_arm(&mut results, "grid", &wan, adaptive_point, None, 3);

        // Gates, from the grid itself.
        let best_arm = grid.iter().max_by(|a, b| a.gbps().total_cmp(&b.gbps()));
        let best_arm = best_arm.expect("static grid per preset");
        let (mut adaptive_gbps, mut best) = (adaptive.gbps(), best_arm.gbps());
        // Sub-millisecond presets are CPU-noise-limited on loopback and
        // the two arms run near parity (the depth clamp deliberately
        // disengages there) — and the "best static" is the max over 8
        // single noisy runs, a winner's-curse overestimate. If the
        // first comparison loses there, decide by paired back-to-back
        // re-measures of exactly the contested pair (same methodology
        // as the daemon bench's near-parity aggregate gate). The 49 ms
        // preset is RTT-bound arithmetic and never re-measured.
        if !long_path && adaptive_gbps < best {
            let c = &best_arm.cfg;
            let (at, depth) = (
                (c.block_size as u64, c.channels, c.total_bytes),
                c.pool_blocks,
            );
            for _ in 0..2 {
                let s = wan_arm(&mut results, "paired-remeasure", &wan, at, Some(depth), 1);
                let a = wan_arm(
                    &mut results,
                    "paired-remeasure",
                    &wan,
                    adaptive_point,
                    None,
                    1,
                );
                best = best.max(s.gbps());
                adaptive_gbps = adaptive_gbps.max(a.gbps());
            }
        }
        println!();
        let gate = format!("adaptive_over_best_static[{}]", wan.name);
        gates.check(&gate, adaptive_gbps / best, Op::Ge, 1.0);
        if wan.name != "ani-wan" {
            continue;
        }
        // The 49 ms-specific gates: LAN-tuned knobs must cost >= 2x against
        // adaptive, a clean path must recover nothing, and the first block
        // must land within two round trips of session start.
        let (src, snk) = adaptive.best();
        let worst = grid.iter().map(Series::gbps).fold(f64::MAX, f64::min);
        let recovered = src.retransmits + snk.duplicate_payloads;
        let first_rtts = match snk.adapt.map(|s| s.first_block_us) {
            Some(us) if us > 0.0 => us / wan.rtt().as_micros() as f64,
            _ => f64::INFINITY,
        };
        let over_worst = adaptive.gbps() / worst;
        gates.check(
            "ani_over_worst_static",
            over_worst,
            Op::Ge,
            WAN_WORST_STATIC_RATIO,
        );
        gates.check(
            "ani_clean_retransmits_and_duplicates",
            recovered as f64,
            Op::Le,
            0.0,
        );
        gates.check(
            "ani_first_block_rtts",
            first_rtts,
            Op::Lt,
            WAN_FIRST_BLOCK_RTTS,
        );
    }

    // The loss pair runs last and apart from the grid: same arm, same
    // volume, back to back, so the ratio compares like with like.
    let loss_point = (256 * 1024, 4, if args.quick { 512 * MB } else { 1024 * MB });
    println!();
    let [clean, lossy] = WAN_LOSS_PAIR.map(|spec| {
        let wan = WanProfile::parse(spec).expect("loss-pair spec");
        wan_arm(&mut results, "loss-pair", &wan, loss_point, None, 3).gbps()
    });
    gates.check(
        "ani_lossy_over_clean",
        lossy / clean,
        Op::Ge,
        WAN_LOSSY_OVER_CLEAN,
    );

    let strs = |specs: &[&str]| specs.iter().map(|s| Json::from(*s)).collect::<Vec<_>>();
    let config = Json::obj()
        .with("wire", "loopback+netem-shim")
        .with("presets", strs(presets))
        .with("loss_pair", strs(&WAN_LOSS_PAIR));
    finish(args, "wan", config, results, gates)
}

// ---------------------------------------------------------------------------
// Daemon mode: many sessions through one shared arena.
// ---------------------------------------------------------------------------

/// The interactive-under-bulk gate bound: while a bulk session
/// saturates the daemon, an interactive session must complete in at
/// most this multiple of its solo time. The weighted-fair arbiter is
/// what holds this — without it, bulk's outstanding credits would eat
/// the whole budget.
const FAIRNESS_GATE_RATIO: f64 = 2.0;

fn daemon_cfg(transport: DaemonTransport) -> DaemonConfig {
    DaemonConfig {
        transport,
        slot_cap: 256 * 1024,
        arena_slots: 32,
        session_slots: 8,
        max_sessions: 8,
        credit_budget: 32,
        interactive_cutoff: 32 * MB,
        interactive_weight: 8,
        ..DaemonConfig::default()
    }
}

/// Start a daemon, run `f` against its endpoint, then drain it. The
/// daemon's own report rides along — it carries the shared-ring
/// counters and the per-session sink reports the rows need. A
/// [`Transport::Shm`] ladder runs the TCP daemon with an shm endpoint:
/// sessions arrive over the unix socket and place into the shared slab.
fn with_daemon<T>(t: Transport, f: impl FnOnce(&Endpoint) -> T) -> (T, DaemonReport) {
    let shm_path = (t == Transport::Shm).then(unix_sock_path);
    let cfg = DaemonConfig {
        shm_path: shm_path.clone(),
        ..daemon_cfg(match t {
            Transport::Uring => DaemonTransport::Uring,
            _ => DaemonTransport::Tcp,
        })
    };
    let d = Daemon::bind("127.0.0.1:0", cfg).expect("bind daemon");
    let at = shm_path.map_or(Endpoint::Net(d.local_addr().unwrap()), Endpoint::Unix);
    let handle = d.handle();
    let jh = std::thread::spawn(move || d.run());
    let out = f(&at);
    handle.shutdown();
    let report = jh.join().expect("daemon thread").expect("daemon report");
    (out, report)
}

/// One source session against a running daemon; the client-side report
/// carries its throughput.
fn daemon_client(
    t: Transport,
    at: &Endpoint,
    block: u64,
    channels: usize,
    total: u64,
) -> LiveReport {
    let mut cfg = LiveConfig::new(block as usize, channels, total);
    cfg.pool_blocks = 8;
    let link = connect(t, at, channels, tuned_sockbuf(&cfg));
    run_split_source(&cfg, link).expect("daemon session")
}

/// The sink reports of a drained daemon's sessions, in admission order.
fn session_sinks(d: &DaemonReport) -> Vec<&LiveReport> {
    let sinks = d.sessions.iter().map(|s| s.result.as_ref());
    sinks
        .collect::<Result<_, _>>()
        .expect("every session must complete cleanly")
}

struct ScalePoint {
    sessions: usize,
    fairness: f64,
    /// Sink-side data-path threads across all sessions (TCP spends
    /// one per channel per session; uring one for the whole daemon).
    data_path_threads: u64,
    /// The daemon's shared-ring counters.
    ring: Option<UringStats>,
}

/// `n` equal sessions concurrently: one row per session (the daemon's
/// sink half — which client fed which session is not observable), with
/// the point's figures as labels: aggregate GB/s over the whole wall
/// clock, the client-side per-session GB/s and their min/max ratio
/// (1.0 = perfectly fair), the thread shape and the daemon's counters.
fn daemon_scale_point(
    results: &mut Vec<Json>,
    point: &str,
    t: Transport,
    n: usize,
    per_session: u64,
) -> ScalePoint {
    let ((clients, wall), daemon) = with_daemon(t, |at| {
        let t0 = Instant::now();
        let joins: Vec<_> = (0..n)
            .map(|_| {
                let at = at.clone();
                std::thread::spawn(move || daemon_client(t, &at, 256 * 1024, 2, per_session))
            })
            .collect();
        let out: Vec<LiveReport> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        (out, t0.elapsed())
    });
    let per: Vec<f64> = clients.iter().map(|r| r.gbytes_per_sec).collect();
    let (lo, hi) = per
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &g| (lo.min(g), hi.max(g)));
    let sinks = session_sinks(&daemon);
    assert_eq!(sinks.len(), n, "every session must be admitted");
    // Every uring session reports `transport_threads == 1` — the SAME
    // thread, the daemon's one driver — so the daemon-wide count is
    // their maximum, not their sum.
    let threads = sinks.iter().map(|r| r.transport_threads as u64);
    let data_path_threads = match daemon.uring {
        Some(_) => threads.max().unwrap_or(0),
        None => threads.sum(),
    };
    let blocks: u64 = sinks.iter().map(|r| r.blocks).sum();
    let fairness = if hi > 0.0 { lo / hi } else { 0.0 };
    let aggregate = (n as u64 * per_session) as f64 / 1e9 / wall.as_secs_f64();
    println!(
        " {point} {:<5} {n} session(s): {aggregate:>6.3} GB/s aggregate, fairness {fairness:.3}",
        t.label()
    );
    let counters = Json::obj()
        .with("served", daemon.served)
        .with("completed", daemon.completed)
        .with("failed", daemon.failed)
        .with("rejected_busy", daemon.rejected_busy)
        .with("rejected_geometry", daemon.rejected_geometry)
        .with("dropped_preadmission", daemon.dropped_preadmission)
        .with("shm_sessions", daemon.shm_sessions)
        .with("uring", daemon.uring.map(|u| ring_json(&u, blocks)));
    let labels = Json::obj()
        .with("point", point)
        .with("transport", t.label())
        .with("sessions", n)
        .with("aggregate_gbytes_per_sec", num4(aggregate))
        .with("fairness_min_over_max", num4(fairness))
        .with(
            "client_gbytes_per_sec",
            per.into_iter().map(num4).collect::<Vec<_>>(),
        )
        .with("data_path_threads", data_path_threads)
        .with("daemon", counters);
    for (i, snk) in sinks.into_iter().enumerate() {
        let labels = labels.clone().with("session", i);
        results.push(row(&format!("  session {i}"), labels, 1, None, snk));
    }
    ScalePoint {
        sessions: n,
        fairness,
        data_path_threads,
        ring: daemon.uring,
    }
}

/// Interactive-under-bulk, one daemon instance: time a small session
/// solo, then again while a bulk session is mid-flight; returns
/// contended / solo and the two rows. Both sides take the best of three
/// trials — the interactive session finishes in tens of milliseconds, so
/// a single sample is at the mercy of the host scheduler; the minimum is
/// what the credit arbiter actually guarantees. A bulk session that
/// drained before any contended trial began yields an infinite ratio.
fn fairness_pair(t: Transport, bulk_bytes: u64, interactive_bytes: u64) -> (f64, Vec<Json>) {
    const TRIALS: usize = 3;
    let timed = |at: &Endpoint| {
        let t0 = Instant::now();
        let report = daemon_client(t, at, 64 * 1024, 2, interactive_bytes);
        (t0.elapsed(), report)
    };
    let ((solo, contended), daemon) = with_daemon(t, |at| {
        // Warm, then time the interactive session with the daemon idle.
        timed(at);
        let solo: Vec<_> = (0..TRIALS).map(|_| timed(at)).collect();
        let bulk = {
            let at = at.clone();
            std::thread::spawn(move || daemon_client(t, &at, 256 * 1024, 2, bulk_bytes))
        };
        std::thread::sleep(Duration::from_millis(100));
        // Only trials that start while bulk is still mid-flight
        // measure contention; once bulk drains, stop sampling.
        let contended: Vec<_> = (0..TRIALS)
            .map_while(|_| (!bulk.is_finished()).then(|| timed(at)))
            .collect();
        bulk.join().unwrap();
        (solo, contended)
    });
    // The interactive sessions ran one at a time, so the daemon admitted
    // them in trial order: the warm-up, the solo trials, the contended ones.
    let mut sinks = session_sinks(&daemon);
    sinks.retain(|r| r.bytes == interactive_bytes);
    let mut best_ms = [f64::INFINITY; 2];
    let mut rows = Vec::new();
    let arms = [("solo", &solo, 1), ("under-bulk", &contended, 1 + TRIALS)];
    for (k, (arm, trials, first)) in arms.into_iter().enumerate() {
        let fastest = trials.iter().enumerate().min_by_key(|(_, (d, _))| *d);
        let Some((i, (elapsed, src))) = fastest else {
            continue;
        };
        best_ms[k] = elapsed.as_secs_f64() * 1e3;
        let labels = Json::obj()
            .with("point", "fairness")
            .with("transport", t.label())
            .with("arm", arm)
            .with("bulk_bytes", bulk_bytes)
            .with("elapsed_ms", Json::num(best_ms[k], 3));
        let tag = format!("fairness {arm:<10} {:>8.3} ms", best_ms[k]);
        rows.push(row(&tag, labels, trials.len(), Some(src), sinks[first + i]));
    }
    (best_ms[1] / best_ms[0], rows)
}

fn run_daemon(args: &Args) -> ExitCode {
    let t = args.transport.unwrap_or(Transport::Tcp);
    let per_session = if args.quick { 16 * MB } else { 128 * MB };
    println!(
        "daemon scaling ({}): {} MB per session through one shared arena{}\n",
        t.label(),
        per_session / MB,
        if args.quick { " (quick)" } else { "" },
    );
    let mut results = Vec::new();
    let mut gates = Gates::new(args.quick);

    // The requested transport's 1/2/4-session ladder, with TCP beside the
    // uring and shm (zero-copy sessions through per-session memfd
    // windows) ones for reference.
    let mut ladder = |point: &str, t: Transport| -> Vec<ScalePoint> {
        let sessions = [1usize, 2, 4].into_iter();
        sessions
            .map(|n| daemon_scale_point(&mut results, point, t, n, per_session))
            .collect()
    };
    let mut points = ladder("scale", t);
    if t != Transport::Tcp {
        ladder("scale-tcp-ref", Transport::Tcp);
    }

    // Shared-ring gates: the whole daemon's data path on ONE driver
    // thread, registration exactly once, per-session fairness >= 0.9.
    if t == Transport::Uring {
        // Four quarter-second sessions on two vCPUs are as much start-up
        // skew as arbitration (a first measure lands under 0.9 one time
        // in three, at this commit and its parent alike), so a point that
        // misses is measured again, twice at most, before it counts.
        for _ in 0..2 {
            let Some(p) = points.iter_mut().find(|p| p.fairness < 0.9) else {
                break;
            };
            *p = daemon_scale_point(&mut results, "scale-remeasure", t, p.sessions, per_session);
        }
        let last = points.last().expect("scale points");
        let ring = last.ring.as_ref().expect("shared driver stats");
        let min_fairness = points.iter().map(|p| p.fairness).fold(f64::MAX, f64::min);
        println!();
        gates.check(
            "uring_data_path_threads",
            last.data_path_threads as f64,
            Op::Le,
            1.0,
        );
        gates.check(
            "uring_registrations",
            ring.registrations as f64,
            Op::Le,
            1.0,
        );
        gates.check("uring_min_fairness", min_fairness, Op::Ge, 0.9);
    }

    // Loopback contention at this margin is noisy across daemon
    // instances, not just across transfers — like the single-session
    // throughput gate, take the best of three independent instances and
    // stop early on a pass. Not run under `--quick`: the pair needs a
    // bulk session long enough to overlap three interactive ones.
    if !args.quick {
        println!();
        let mut pairs: Vec<(f64, Vec<Json>)> = Vec::new();
        while pairs.len() < 3 && pairs.iter().all(|p| p.0 > FAIRNESS_GATE_RATIO) {
            pairs.push(fairness_pair(t, 512 * MB, 16 * MB));
        }
        let best = pairs.into_iter().min_by(|a, b| a.0.total_cmp(&b.0));
        let (ratio, rows) = best.expect("at least one fairness attempt");
        results.extend(rows);
        gates.check(
            "interactive_under_bulk_over_solo",
            ratio,
            Op::Le,
            FAIRNESS_GATE_RATIO,
        );
    }

    let cfg = daemon_cfg(DaemonTransport::Tcp);
    let config = Json::obj()
        .with("wire", "loopback")
        .with("transport", t.label())
        .with("per_session_bytes", per_session)
        .with("arena_slots", cfg.arena_slots)
        .with("session_slots", cfg.session_slots)
        .with("credit_budget", cfg.credit_budget);
    finish(args, "daemon", config, results, gates)
}

fn main() -> ExitCode {
    let args = Args::parse(&[
        "--quick",
        "--gate-only",
        "--out",
        "--daemon",
        "--wan",
        "--transport",
    ]);
    if args.wan {
        run_wan(&args)
    } else if args.daemon {
        run_daemon(&args)
    } else {
        run_sweep(&args)
    }
}
