//! The one harness under the live benches: how a transfer is run
//! ([`Transport`], [`run_pair`], [`Series`]), written down ([`Json`],
//! [`report_json`], [`row`], [`finish`]) and gated ([`Gates`]), plus the
//! one argument parser ([`Args`]). `net_throughput` and `disk_throughput`
//! are tables of points over this module; nothing else in the crate names
//! a connector, a listener or a sink runner, and nothing else spells JSON.
//!
//! Every file the benches write has one shape. The envelope is
//! `{bench, mode, quick, host, config, results, gates}`; a row of
//! `results` is `{<point labels>, "runs": n, "source": {…}|null,
//! "sink": {…}}` where both halves are [`report_json`] — every
//! [`LiveReport`] field, so the key set never depends on which bench or
//! which transport wrote the row; a gate is `{name, value, op, bound,
//! pass}`. A row's headline GB/s is the sink's: the receive side clocks
//! the bytes as placed, verified and (into a file) synced.

use crate::{bs_label, MB};
use rftp_live::args::flag_value;
use rftp_live::net::{connect_source, default_sockbuf, probe_sockbuf, NetListener};
use rftp_live::{
    accept_source_uring, connect_source_shm, connect_source_uring, run_shm_sink, run_split_pair,
    run_split_sink, run_split_source, run_uring_sink, shm_supported, uring_multishot,
    uring_supported, wrap_sink, wrap_source, LiveConfig, LiveReport, NsHist, ShmListener,
    SourceTransport, UringStats, WanProfile,
};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Running a transfer
// ---------------------------------------------------------------------------

/// What joins the two halves of a bench transfer — the sweep ladder.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Transport {
    /// Both halves in this address space over the channel transport.
    Inproc,
    /// Loopback TCP, a thread per channel.
    Tcp,
    /// Loopback TCP driven by one ring per side.
    Uring,
    /// A memfd window; only headers, credits and acks cross a socket.
    Shm,
}

impl Transport {
    pub const ALL: [Transport; 4] = [
        Transport::Inproc,
        Transport::Tcp,
        Transport::Uring,
        Transport::Shm,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Transport::Inproc => "inproc",
            Transport::Tcp => "tcp",
            Transport::Uring => "uring",
            Transport::Shm => "shm",
        }
    }

    /// The rungs this host can run, in ladder order.
    pub fn ladder() -> Vec<Transport> {
        let all = Transport::ALL.into_iter();
        all.filter(|t| t.supported()).collect()
    }

    /// Whether this host can run the rung (a kernel / memfd probe).
    pub fn supported(self) -> bool {
        match self {
            Transport::Uring => uring_supported(),
            Transport::Shm => shm_supported(),
            Transport::Inproc | Transport::Tcp => true,
        }
    }
}

/// Where a listening sink — a one-shot listener or a daemon — is reached.
#[derive(Clone)]
pub enum Endpoint {
    Net(SocketAddr),
    Unix(PathBuf),
}

/// Fresh unix socket path for one shm listener (loopback's port-0 analogue).
pub fn unix_sock_path() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("rftp-bench-{}-{n}.sock", std::process::id()))
}

/// The source side's connector for `t`.
pub fn connect(t: Transport, at: &Endpoint, channels: usize, sockbuf: usize) -> SourceTransport {
    match (t, at) {
        (Transport::Tcp, Endpoint::Net(addr)) => connect_source(*addr, channels, sockbuf),
        (Transport::Uring, Endpoint::Net(addr)) => connect_source_uring(*addr, channels, sockbuf),
        (Transport::Shm, Endpoint::Unix(path)) => connect_source_shm(path, channels),
        _ => panic!("{} has no connector for this endpoint", t.label()),
    }
    .expect("connect to the sink")
}

/// One transfer: the source half on a helper thread, the sink half here;
/// returns `(source, sink)` reports. With a `wan` profile both endpoints
/// sit behind the impairment shim — the sink impairs inbound data, the
/// source inbound control, splitting the emulated RTT exactly like a
/// two-process run. `sockbuf = 0` leaves the OS socket-buffer defaults
/// (and means nothing to `Inproc` and `Shm`).
pub fn run_pair(
    t: Transport,
    cfg: &LiveConfig,
    wan: Option<&WanProfile>,
    sockbuf: usize,
) -> (LiveReport, LiveReport) {
    let clean = WanProfile::clean();
    let wan = wan.unwrap_or(&clean);
    if t == Transport::Inproc {
        return run_split_pair(cfg, wan).expect("in-process pair");
    }
    assert!(
        wan.is_identity() || t == Transport::Tcp,
        "the WAN shim wraps stream links only"
    );
    let source = |at: Endpoint| {
        let (cfg, wan) = (cfg.clone(), wan.clone());
        std::thread::spawn(move || {
            let link = wrap_source(connect(t, &at, cfg.channels, sockbuf), &wan);
            run_split_source(&cfg, link).expect("source half")
        })
    };
    let (src, snk) = if t == Transport::Shm {
        let path = unix_sock_path();
        let listener = ShmListener::bind(&path).expect("bind shm socket");
        let src = source(Endpoint::Unix(path));
        let (sess, first) = listener.accept_session().expect("accept shm");
        (src, run_shm_sink(cfg, sess, Some(first)))
    } else {
        let listener = NetListener::bind("127.0.0.1:0").expect("bind loopback");
        let src = source(Endpoint::Net(listener.local_addr().expect("bound address")));
        let snk = if t == Transport::Uring {
            let (sess, first) = accept_source_uring(&listener, sockbuf).expect("accept");
            run_uring_sink(cfg, sess, Some(first))
        } else {
            let (link, first) = listener.accept_session(sockbuf).expect("accept");
            run_split_sink(cfg, wrap_sink(link, wan), Some(first))
        };
        (src, snk)
    };
    (src.join().expect("source thread"), snk.expect("sink half"))
}

/// The socket-buffer size the benches tune to: one channel's share of a
/// pool of blocks in each direction.
pub fn tuned_sockbuf(cfg: &LiveConfig) -> usize {
    default_sockbuf(cfg.block_size, cfg.channel_depth)
}

/// `n` timed runs of one point, slowest first, and the labels that say
/// what was run. One untimed warm-up of at most 32 MB goes first so page
/// cache, file pages, allocator and TCP window ramp-up don't decide which
/// run wins — except for pinned knobs behind the WAN shim, where a
/// window-bound arm warms nothing and costs seconds. On a small shared
/// host a single run of a many-thread pipeline measures the scheduler as
/// much as the code, which is why gate points take the best of three.
pub struct Series {
    tag: String,
    pub labels: Json,
    pub cfg: LiveConfig,
    runs: Vec<(LiveReport, LiveReport)>,
}

impl Series {
    pub fn run(
        point: &str,
        n: usize,
        t: Transport,
        cfg: &LiveConfig,
        wan: Option<&WanProfile>,
        sockbuf: usize,
    ) -> Series {
        if wan.is_none() || cfg.adaptive {
            let mut warm = cfg.clone();
            warm.total_bytes = cfg.total_bytes.min(32 * MB);
            run_pair(t, &warm, wan, sockbuf);
        }
        let mut runs: Vec<_> = (0..n).map(|_| run_pair(t, cfg, wan, sockbuf)).collect();
        for (_, snk) in &runs {
            assert_eq!(snk.checksum_failures, 0, "corruption over {}", t.label());
        }
        runs.sort_by(|a, b| a.1.gbytes_per_sec.total_cmp(&b.1.gbytes_per_sec));
        let wan = wan.map(|w| {
            Json::obj()
                .with("preset", w.name.as_str())
                .with("rtt_us", w.rtt().as_micros() as u64)
                .with("rate_bps", w.rate_bps.map(|r| Json::num(r, 0)))
                .with("loss_p", Json::num(w.loss_p, 6))
        });
        let labels = Json::obj()
            .with("point", point)
            .with("transport", t.label())
            .with("block_size", cfg.block_size)
            .with("channels", cfg.channels)
            .with("pool_blocks", cfg.pool_blocks)
            .with("loaders", cfg.loaders)
            .with("total_bytes", cfg.total_bytes)
            .with("sockbuf_bytes", sockbuf)
            .with("adaptive", cfg.adaptive)
            // `null`: unbounded — the loaders may fill the whole pool.
            .with(
                "readahead",
                (cfg.readahead != u32::MAX).then_some(cfg.readahead),
            )
            .with(
                "src_rate_bytes_per_sec",
                cfg.src_rate.map(|r| Json::num(r, 0)),
            )
            .with("file_to_file", cfg.src_file.is_some())
            .with("direct_requested", cfg.direct_io)
            .with("wan", wan);
        let tag = format!(
            "{point:<16} {:<6} {:>5} x{} ch  {} ld  pool {:>3}",
            t.label(),
            bs_label(cfg.block_size as u64),
            cfg.channels,
            cfg.loaders,
            cfg.pool_blocks,
        );
        let cfg = cfg.clone();
        Series {
            tag,
            labels,
            cfg,
            runs,
        }
    }

    /// The fastest run's `(source, sink)` reports.
    pub fn best(&self) -> &(LiveReport, LiveReport) {
        self.runs.last().expect("a series has at least one run")
    }

    /// The fastest run's GB/s.
    pub fn gbps(&self) -> f64 {
        self.best().1.gbytes_per_sec
    }

    /// The middle run's GB/s.
    pub fn median_gbps(&self) -> f64 {
        self.runs[self.runs.len() / 2].1.gbytes_per_sec
    }

    /// [`Series::row`] appended to `results`; hands the series back for
    /// the gates to read.
    pub fn record(self, results: &mut Vec<Json>) -> Series {
        results.push(self.row());
        self
    }

    /// Print and build the row of this series' best run (the series'
    /// median GB/s rides along as its last label).
    pub fn row(&self) -> Json {
        let (src, snk) = self.best();
        let median = Json::num(self.median_gbps(), 4);
        let labels = self.labels.clone().with("median_gbytes_per_sec", median);
        row(&self.tag, labels, self.runs.len(), Some(src), snk)
    }
}

// ---------------------------------------------------------------------------
// Writing it down
// ---------------------------------------------------------------------------

/// A JSON value: objects keep insertion order, floats carry a fixed
/// precision, and a non-finite float is written as `null`.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64, usize),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

macro_rules! json_from {
    ($($t:ty => |$v:ident| $conv:expr,)*) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $conv
            }
        }
    )*};
}
json_from! {
    bool => |v| Json::Bool(v),
    u64 => |v| Json::Int(v as i64),
    u32 => |v| Json::Int(v as i64),
    usize => |v| Json::Int(v as i64),
    &str => |v| Json::Str(v.to_string()),
    String => |v| Json::Str(v),
    Vec<Json> => |v| Json::Arr(v),
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl Json {
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// `v` to `prec` decimals.
    pub fn num(v: f64, prec: usize) -> Json {
        Json::Num(v, prec)
    }

    /// Append one key to an object.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(pairs) => pairs.push((key.to_string(), value.into())),
            other => panic!("with({key}) on a non-object: {other:?}"),
        }
        self
    }

    /// An object's keys, in order (empty for anything else).
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The document text. Containers open one item per line down to the
    /// elements of `results` and `gates`, which take one line each.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let open = depth < 2;
        let item = |out: &mut String, i: usize| {
            out.push_str(if i > 0 { "," } else { "" });
            if open {
                out.push('\n');
                out.push_str(&"  ".repeat(depth + 1));
            } else if i > 0 {
                out.push(' ');
            }
        };
        let close = |out: &mut String, len: usize, bracket: char| {
            if open && len > 0 {
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
            }
            out.push(bracket);
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").unwrap(),
            Json::Num(v, prec) if v.is_finite() => write!(out, "{v:.prec$}").unwrap(),
            Json::Num(..) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    item(out, i);
                    v.write(out, depth + 1);
                }
                close(out, items.len(), ']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    item(out, i);
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                close(out, pairs.len(), '}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Ring counters, with the per-block rates the gates read (CQEs/block is
/// the kernel-crossing cost multishot receive collapses). `blocks` is
/// what the ring carried: one session's, or a daemon's total.
pub fn ring_json(s: &UringStats, blocks: u64) -> Json {
    let per_block = |n: u64| Json::num(n as f64 / blocks.max(1) as f64, 4);
    Json::obj()
        .with("enters", s.enters)
        .with("cqes", s.cqes)
        .with("enters_per_block", per_block(s.enters))
        .with("cqes_per_block", per_block(s.cqes))
        .with("multishot", s.multishot)
        .with("multishot_rearms", s.multishot_rearms)
        .with("pbuf_exhausted", s.pbuf_exhausted)
        .with("registrations", s.registrations)
}

/// One half's report, every field — the only place a [`LiveReport`]
/// becomes JSON. `adapt` and `uring` are objects or `null`; nothing else
/// varies with the transport or the mode.
pub fn report_json(r: &LiveReport) -> Json {
    let ns = |v: f64| Json::num(v, 0);
    let tail = |h: &NsHist| {
        Json::obj()
            .with("p50", ns(h.p50()))
            .with("p99", ns(h.p99()))
    };
    let adapt = r.adapt.map(|a| {
        Json::obj()
            .with("srtt_us", Json::num(a.srtt_us, 1))
            .with("rttvar_us", Json::num(a.rttvar_us, 1))
            .with("loss_rate", Json::num(a.loss_rate, 6))
            .with("effective_depth", a.effective_depth)
            .with("dwell_ns", a.dwell_ns)
            .with("first_block_us", Json::num(a.first_block_us, 1))
    });
    let stages = Json::obj()
        .with("load", ns(r.stages.load_ns))
        .with("dispatch", ns(r.stages.dispatch_ns))
        .with("place", ns(r.stages.place_ns))
        .with("verify", ns(r.stages.verify_ns))
        .with("flush", ns(r.stages.flush_ns))
        .with("sync", ns(r.stages.sync_ns));
    let tails = Json::obj()
        .with("load", tail(&r.tails.load))
        .with("dispatch", tail(&r.tails.dispatch))
        .with("place", tail(&r.tails.place))
        .with("verify", tail(&r.tails.verify));
    Json::obj()
        .with("bytes", r.bytes)
        .with("blocks", r.blocks)
        .with("elapsed_s", Json::num(r.elapsed.as_secs_f64(), 6))
        .with("gbytes_per_sec", Json::num(r.gbytes_per_sec, 4))
        .with("checksum_failures", r.checksum_failures)
        .with("ooo_blocks", r.ooo_blocks)
        .with("ctrl_msgs", r.ctrl_msgs)
        .with("ctrl_msgs_per_block", Json::num(r.ctrl_msgs_per_block, 4))
        .with("credit_requests", r.credit_requests)
        .with("dropped_payloads", r.dropped_payloads)
        .with("retransmits", r.retransmits)
        .with("fast_retransmits", r.fast_retransmits)
        .with("duplicate_payloads", r.duplicate_payloads)
        .with("stage_ns_per_block", stages)
        .with("tails_ns", tails)
        .with("transport_threads", r.transport_threads)
        .with("direct_io_active", r.direct_io_active)
        .with("adapt", adapt)
        .with("uring", r.uring.map(|u| ring_json(&u, r.blocks)))
}

/// Print one transfer's line and build its row: the point's labels, then
/// `runs`, `source` and `sink`. Load and dispatch are the source's clocks,
/// everything else the sink's.
pub fn row(
    tag: &str,
    labels: Json,
    runs: usize,
    src: Option<&LiveReport>,
    snk: &LiveReport,
) -> Json {
    let (s, k) = (src.map_or(snk.stages, |r| r.stages), snk.stages);
    println!(
        "  {tag}  {:>7.4} GB/s  {:.2} ctrl/blk  {} ooo  {} thr  {} retx  \
         load/disp/place/verify/flush/sync {:.0}/{:.0}/{:.0}/{:.0}/{:.0}/{:.0} ns/blk",
        snk.gbytes_per_sec,
        snk.ctrl_msgs_per_block,
        snk.ooo_blocks,
        snk.transport_threads,
        src.map_or(0, |r| r.retransmits),
        s.load_ns,
        s.dispatch_ns,
        k.place_ns,
        k.verify_ns,
        k.flush_ns,
        k.sync_ns,
    );
    labels
        .with("runs", runs)
        .with("source", src.map(report_json))
        .with("sink", report_json(snk))
}

// ---------------------------------------------------------------------------
// Gates
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
pub enum Op {
    Ge,
    Le,
    Lt,
}

/// The gate registry of one bench run: one line format, one JSON shape,
/// and the one place that knows `--quick` reports without enforcing.
pub struct Gates {
    quick: bool,
    failed: bool,
    rows: Vec<Json>,
}

impl Gates {
    pub fn new(quick: bool) -> Gates {
        Gates {
            quick,
            failed: false,
            rows: Vec::new(),
        }
    }

    /// Check `value op bound`, print and record it; returns whether it
    /// held. A non-finite value (a measurement that was never taken)
    /// fails every op.
    pub fn check(&mut self, name: &str, value: f64, op: Op, bound: f64) -> bool {
        let (sym, pass) = match op {
            Op::Ge => (">=", value >= bound),
            Op::Le => ("<=", value <= bound),
            Op::Lt => ("<", value < bound),
        };
        let verdict = match (pass, self.quick) {
            (true, _) => "ok",
            (false, true) => "quick",
            (false, false) => "FAIL",
        };
        println!("  gate {name}: {value:.4} {sym} {bound}  [{verdict}]");
        self.failed |= !pass;
        self.rows.push(
            Json::obj()
                .with("name", name)
                .with("value", Json::num(value, 4))
                .with("op", sym)
                .with("bound", Json::num(bound, 4))
                .with("pass", pass),
        );
        pass
    }

    /// The process exit code: non-zero only for a failed gate in a full run.
    pub fn exit_code(&self) -> u8 {
        (self.failed && !self.quick) as u8
    }
}

// ---------------------------------------------------------------------------
// Arguments and the envelope
// ---------------------------------------------------------------------------

/// The live benches' command line.
#[derive(Default)]
pub struct Args {
    /// Reduced volume for CI smoke; gates report but do not enforce.
    pub quick: bool,
    pub gate_only: bool,
    pub daemon: bool,
    pub wan: bool,
    pub out: Option<String>,
    pub transport: Option<Transport>,
    pub dir: Option<PathBuf>,
    pub disk_dir: Option<PathBuf>,
}

impl Args {
    /// Parse the process arguments. `accepted` names the flags the
    /// calling binary takes; anything else is refused.
    pub fn parse(accepted: &[&str]) -> Args {
        let mut a = Args::default();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            assert!(
                accepted.contains(&flag.as_str()),
                "unknown argument {flag} (accepted: {accepted:?})"
            );
            let mut value = || flag_value(&mut it, &flag).unwrap_or_else(|e| panic!("{e}"));
            match flag.as_str() {
                "--quick" => a.quick = true,
                "--gate-only" => a.gate_only = true,
                "--daemon" => a.daemon = true,
                "--wan" => a.wan = true,
                "--out" => a.out = Some(value()),
                "--dir" => a.dir = Some(value().into()),
                "--disk-dir" => a.disk_dir = Some(value().into()),
                "--transport" => {
                    let v = value();
                    let mut daemons = Transport::ALL.into_iter().skip(1); // not inproc
                    let t = daemons.find(|t| t.label() == v);
                    let t = t.unwrap_or_else(|| panic!("bad --transport {v} (tcp, uring or shm)"));
                    assert!(t.supported(), "--transport {v}: this host cannot run it");
                    a.transport = Some(t);
                }
                other => unreachable!("{other} is accepted but not parsed"),
            }
        }
        a
    }
}

/// Write `mode`'s envelope to `--out` (or the mode's committed file) and
/// turn the gates into the exit code.
pub fn finish(args: &Args, mode: &str, config: Json, results: Vec<Json>, gates: Gates) -> ExitCode {
    let (bench, default_out) = match mode {
        "sweep" => ("net_throughput", "BENCH_net.json"),
        "daemon" => ("net_throughput", "BENCH_net_daemon.json"),
        "wan" => ("net_throughput", "BENCH_wan.json"),
        "disk" => ("disk_throughput", "BENCH_disk.json"),
        other => panic!("no bench mode {other}"),
    };
    // Requested-vs-effective socket buffers at the gate point: the kernel
    // reports back what `setsockopt` actually took (doubled for
    // bookkeeping on Linux, clamped by `net.core.{w,r}mem_max`), so a WAN
    // reader can see whether this host honored the tuning.
    let sockbuf = probe_sockbuf(tuned_sockbuf(&LiveConfig::new(256 * 1024, 8, 1)));
    let sockbuf = sockbuf.ok().flatten().map(|e| {
        Json::obj()
            .with("requested", e.requested)
            .with("effective_sndbuf", e.sndbuf)
            .with("effective_rcvbuf", e.rcvbuf)
            .with("clamped", e.clamped())
    });
    let host = Json::obj()
        .with("uring", uring_supported())
        .with("multishot", uring_multishot())
        .with("shm", shm_supported())
        .with("sockbuf_effective", sockbuf);
    let code = gates.exit_code();
    let doc = Json::obj()
        .with("bench", bench)
        .with("mode", mode)
        .with("quick", args.quick)
        .with("host", host)
        .with("config", config)
        .with("results", results)
        .with("gates", gates.rows);
    let out = args.out.as_deref().unwrap_or(default_out);
    std::fs::write(out, doc.render()).expect("write bench JSON");
    println!("\nwrote {out}");
    if code != 0 {
        eprintln!("{bench} ({mode}) gate FAILED");
    }
    ExitCode::from(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_rounds_and_keeps_insertion_order() {
        let doc = Json::obj()
            .with("z\"\\\n", "a\"b\\c\u{1}")
            .with("a", Json::num(1.23456, 2))
            .with("nan", Json::num(f64::NAN, 3))
            .with("inf", Json::num(f64::NEG_INFINITY, 0))
            .with("none", None::<u64>)
            .with("list", vec![Json::from(7u64), Json::from(true)]);
        assert_eq!(doc.keys(), ["z\"\\\n", "a", "nan", "inf", "none", "list"]);
        let mut line = String::new();
        doc.write(&mut line, 2);
        let want = r#"{"z\"\\\u000a": "a\"b\\c\u0001", "a": 1.23, "nan": null, "inf": null, "none": null, "list": [7, true]}"#;
        assert_eq!(line, want);
        let open = Json::obj().with("k", vec![Json::obj().with("x", 1u32)]);
        assert_eq!(open.render(), "{\n  \"k\": [\n    {\"x\": 1}\n  ]\n}\n");
    }

    #[test]
    fn gates_hold_at_the_boundary_and_quick_never_fails_the_process() {
        for quick in [true, false] {
            let mut g = Gates::new(quick);
            assert!(g.check("ge", 1.0, Op::Ge, 1.0) && g.check("le", 1.0, Op::Le, 1.0));
            assert_eq!(g.exit_code(), 0);
            assert!(!g.check("lt", 1.0, Op::Lt, 1.0), "< excludes its bound");
            assert!(!g.check("unmeasured", f64::NAN, Op::Ge, 0.0));
            assert!(g.check("lt", 0.999, Op::Lt, 1.0));
            assert_eq!(g.exit_code(), !quick as u8);
            let passes: Vec<_> = g.rows.iter().map(|r| r.get("pass").cloned()).collect();
            assert_eq!(
                passes,
                [true, true, false, false, true].map(|p| Some(Json::Bool(p)))
            );
            assert_eq!(g.rows[2].keys(), ["name", "value", "op", "bound", "pass"]);
        }
    }

    fn small(adaptive: bool) -> LiveConfig {
        let mut cfg = LiveConfig::new(64 * 1024, 2, MB);
        cfg.adaptive = adaptive;
        cfg
    }

    /// 1 MiB over every rung this host supports, static and adaptive:
    /// the halves agree, and every report has the same keys — `adapt` and
    /// `uring` switch between an object and `null`, never in and out.
    #[test]
    fn every_rung_returns_two_agreeing_halves_with_one_key_set() {
        let keys = report_json(&run_pair(Transport::Inproc, &small(false), None, 0).1);
        for t in Transport::ladder() {
            for adaptive in [false, true] {
                let (src, snk) = run_pair(t, &small(adaptive), None, 0);
                let counts = (src.blocks, snk.blocks, snk.checksum_failures);
                assert_eq!(counts, (16, 16, 0), "{t:?}");
                for half in [&src, &snk] {
                    let json = report_json(half);
                    assert_eq!(json.keys(), keys.keys(), "{t:?}");
                    assert_eq!(json.get("adapt") != Some(&Json::Null), adaptive);
                }
                let ring = report_json(&snk).get("uring") != Some(&Json::Null);
                assert_eq!(ring, t == Transport::Uring);
            }
        }
    }

    #[test]
    fn a_wan_profile_costs_the_tcp_pair_at_least_one_round_trip() {
        let wan = WanProfile::parse("rtt=5ms").expect("spec");
        let (src, snk) = run_pair(Transport::Tcp, &small(false), Some(&wan), 0);
        assert_eq!((snk.blocks, snk.checksum_failures), (16, 0));
        assert!(src.elapsed >= wan.rtt(), "took {:?}", src.elapsed);
    }
}
