//! `rftp-live` — command-line front end for the native-thread pipeline.
//!
//! Runs one live transfer (real threads, real bytes, wall-clock timing)
//! and prints throughput, control-plane counts, and the per-stage cost
//! breakdown. One process by default; `--listen`/`--connect` split the
//! pipeline into two processes joined by TCP:
//!
//! ```text
//! rftp-live --size 1G --block 256K --channels 8 --loaders 4
//! rftp-live --batch 1 --fault drop=0.05       # unbatched wire + loss
//! rftp-live --src-file A --dst-file B --direct   # disk to disk
//!
//! host B$ rftp-live --listen 0.0.0.0:9040 --dst-file B
//! host A$ rftp-live --connect hostB:9040 --src-file A --channels 8
//! rftp-live --help
//! ```

use rftp_core::wire::CtrlMsg;
use rftp_live::args::{flag_parse, flag_path, flag_size, flag_value};
use rftp_live::pipeline::MAX_POOL_BLOCKS;
use rftp_live::{
    net, run_split_pair, run_split_sink, run_split_source, LiveConfig, LiveReport, WanProfile,
};
use std::path::PathBuf;

/// Which end of the transfer this process runs.
enum Mode {
    /// Both halves in this process (the original pipeline).
    Local,
    /// Sink half: bind, accept one source, receive.
    Listen(String),
    /// Source half: connect to a listening sink, send.
    Connect(String),
}

/// Socket backend for the two-process mode. The wire format is
/// identical (PROTOCOL.md §7), so the two ends may mix backends.
#[derive(Clone, Copy, PartialEq)]
enum Transport {
    Tcp,
    Uring,
    Shm,
}

impl Transport {
    fn label(self) -> &'static str {
        match self {
            Transport::Tcp => "",
            Transport::Uring => " (io_uring)",
            Transport::Shm => " (shm)",
        }
    }
}

struct Args {
    transport: Transport,
    mode: Mode,
    size: u64,
    block: u64,
    channels: usize,
    loaders: usize,
    batch: usize,
    pool: u32,
    depth: usize,
    fault_drop_p: f64,
    src_file: Option<PathBuf>,
    dst_file: Option<PathBuf>,
    direct: bool,
    readahead: u32,
    /// Socket buffer bytes per data stream; `None` = size from
    /// block × depth, `Some(0)` = leave the OS defaults.
    sockbuf: Option<u64>,
    /// The emulated WAN path: the source's shim carries it, and either
    /// end sizes and adapts its half to it.
    wan: Option<WanProfile>,
}

const HELP: &str = "rftp-live: the RFTP pipeline on real OS threads

USAGE: rftp-live [OPTIONS]

OPTIONS:
  --size <SIZE>      total payload, e.g. 1G (default 256M; in file mode
                     defaults to the source file's length)
  --block <SIZE>     block size, e.g. 256K (default 256K)
  --channels <N>     parallel data channels (default 4)
  --loaders <N>      source loader threads (default 2)
  --batch <N>        control entries coalesced per frame; 1 = one
                     message per block (default 16)
  --pool <N>         pool blocks per endpoint, at most 4096 (default 32)
  --depth <N>        per-channel queue depth (default 8)
  --fault drop=<P>   drop each payload with probability P (exercises
                     the retransmit path)
  --src-file <PATH>  read payload from this file instead of pattern fill
                     (a local run needs --dst-file with it)
  --dst-file <PATH>  write-behind placed blocks into this file instead
                     of verifying them against the pattern
  --direct           open files O_DIRECT where the filesystem allows
                     (falls back to buffered + fadvise elsewhere)
  --readahead <N>    read-ahead depth: source blocks in flight beyond
                     the one in service; 0 = no disk/network overlap
                     (default: fill the pool)

TWO-PROCESS MODE (the pipeline split over TCP):
  --listen <ADDR>    run the sink half: accept one source at ADDR
                     (e.g. 0.0.0.0:9040) and receive. Transfer geometry
                     (--size/--block/--channels/--loaders/--fault) is
                     the source's; only sink-side flags apply here.
  --connect <ADDR>   run the source half: connect to a listening sink
                     and send
  --sockbuf <SIZE>   per-data-stream socket buffer (SO_SNDBUF/SO_RCVBUF);
                     0 = OS defaults (default: sized from block x depth)
  --transport <T>    backend for --listen/--connect: tcp (thread per
                     channel, default), uring (one io_uring, registered
                     buffers, batched completions), or shm (same-host
                     shared-memory window: ADDR is a unix socket path,
                     payload is a one-sided write with zero receiver
                     copies). tcp and uring speak the same wire and may
                     mix ends; shm requires shm on both.
  --wan <SPEC>       emulate a WAN path and enable the adaptive
                     credit/depth controller. SPEC is a preset
                     (roce-lan, ib-lan, ani-wan) or preset,key=value
                     overrides (rtt=49ms, drop=0.01, rate=10e9,
                     jitter=1ms, seed=N). The source's shim carries the
                     whole path (data loss, reorder, rate cap and the
                     full round trip); a sink's --wan only sizes its
                     pool and runs its adaptive controller, on every
                     --transport. Run the same --wan on both ends of a
                     two-process pair; in local mode the shim wraps the
                     in-process transport
  --probe-uring      report whether this kernel can run the uring
                     backend (5.11+) and whether the shm transport
                     (memfd + SCM_RIGHTS fd passing) is available, then
                     exit (0 = uring supported, 3 = not)
  --help             this text";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        transport: Transport::Tcp,
        mode: Mode::Local,
        size: 0, // resolved after the loop: explicit > src-file len > 256M
        block: 256 << 10,
        channels: 4,
        loaders: 2,
        batch: 16,
        pool: 32,
        depth: 8,
        fault_drop_p: 0.0,
        src_file: None,
        dst_file: None,
        direct: false,
        readahead: u32::MAX,
        sockbuf: None,
        wan: None,
    };
    let mut geometry_flag_seen = false;
    let it = &mut std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--size" => (a.size, geometry_flag_seen) = (flag_size(it, "--size")?, true),
            "--block" => (a.block, geometry_flag_seen) = (flag_size(it, "--block")?, true),
            "--channels" => {
                (a.channels, geometry_flag_seen) = (flag_parse(it, "--channels")?, true)
            }
            "--loaders" => a.loaders = flag_parse(it, "--loaders")?,
            "--batch" => a.batch = flag_parse(it, "--batch")?,
            "--pool" => a.pool = flag_parse(it, "--pool")?,
            "--depth" => a.depth = flag_parse(it, "--depth")?,
            "--fault" => {
                let v = flag_value(it, "--fault")?;
                let p = v
                    .strip_prefix("drop=")
                    .and_then(|p| p.parse::<f64>().ok())
                    .ok_or("bad --fault (expected drop=<P>)")?;
                if !(0.0..1.0).contains(&p) {
                    return Err("--fault drop probability must be in [0, 1)".into());
                }
                a.fault_drop_p = p;
            }
            "--src-file" => a.src_file = Some(flag_path(it, "--src-file")?),
            "--dst-file" => a.dst_file = Some(flag_path(it, "--dst-file")?),
            "--direct" => a.direct = true,
            "--readahead" => a.readahead = flag_parse(it, "--readahead")?,
            "--listen" => a.mode = Mode::Listen(flag_value(it, "--listen")?),
            "--connect" => a.mode = Mode::Connect(flag_value(it, "--connect")?),
            "--sockbuf" => a.sockbuf = Some(flag_size(it, "--sockbuf")?),
            "--wan" => {
                let spec = flag_value(it, "--wan")?;
                a.wan = Some(WanProfile::parse(&spec).map_err(|e| format!("--wan: {e}"))?);
            }
            "--transport" => {
                a.transport = match flag_value(it, "--transport")?.as_str() {
                    "tcp" => Transport::Tcp,
                    "uring" => Transport::Uring,
                    "shm" => Transport::Shm,
                    other => return Err(format!("bad --transport {other} (tcp, uring, or shm)")),
                }
            }
            "--probe-uring" => {
                let uring_ok = rftp_live::uring_supported();
                if uring_ok {
                    println!("rftp-live: io_uring transport supported");
                } else {
                    println!("rftp-live: io_uring transport NOT supported on this kernel");
                }
                if rftp_live::shm_supported() {
                    println!("rftp-live: shm transport supported (memfd + SCM_RIGHTS fd passing)");
                } else {
                    println!("rftp-live: shm transport NOT supported on this host");
                }
                std::process::exit(if uring_ok { 0 } else { 3 });
            }
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    match &a.mode {
        Mode::Listen(_) => {
            // The sink's transfer geometry arrives in the SessionRequest;
            // local geometry flags could only disagree with it.
            if geometry_flag_seen {
                return Err("--size/--block/--channels are the source's to set; \
                     the sink learns them from the session handshake"
                    .into());
            }
            if a.src_file.is_some() || a.fault_drop_p > 0.0 {
                return Err("--src-file and --fault belong to the source (--connect) side".into());
            }
        }
        Mode::Connect(_) => {
            if a.dst_file.is_some() {
                return Err("--dst-file belongs to the sink (--listen) side".into());
            }
        }
        Mode::Local => {
            if a.transport != Transport::Tcp {
                return Err(
                    "--transport applies to the two-process mode (--listen/--connect)".into(),
                );
            }
            // Without a file to write, the local sink checks every block
            // against the test pattern, which a file's bytes never match.
            if a.src_file.is_some() && a.dst_file.is_none() {
                return Err("--src-file in a local run needs --dst-file \
                     (the sink can only verify pattern data)"
                    .into());
            }
        }
    }
    if a.size == 0 {
        a.size = match &a.src_file {
            Some(p) => std::fs::metadata(p)
                .map_err(|e| format!("--src-file {}: {e}", p.display()))?
                .len(),
            None => 256 << 20,
        };
        if a.size == 0 {
            return Err("source file is empty".into());
        }
    }
    if a.channels == 0 || a.loaders == 0 || a.batch == 0 || a.pool == 0 || a.depth == 0 {
        return Err("all counts must be >= 1".into());
    }
    if a.pool > MAX_POOL_BLOCKS {
        return Err(format!("--pool cannot exceed {MAX_POOL_BLOCKS}"));
    }
    Ok(a)
}

/// The flags over a final transfer geometry, then `--wan`: its pool and
/// depth targets derive from that geometry's block size.
fn build_cfg(a: &Args, block: usize, channels: usize, size: u64) -> LiveConfig {
    let mut cfg = LiveConfig::new(block, channels, size);
    cfg.loaders = a.loaders;
    cfg.ctrl_batch = a.batch;
    cfg.pool_blocks = a.pool;
    cfg.channel_depth = a.depth;
    cfg.fault_drop_p = a.fault_drop_p;
    cfg.src_file = a.src_file.clone();
    cfg.dst_file = a.dst_file.clone();
    cfg.direct_io = a.direct;
    cfg.readahead = a.readahead;
    if let Some(wan) = &a.wan {
        cfg.apply_wan(wan);
    }
    cfg
}

fn sockbuf_bytes(a: &Args, block: usize) -> usize {
    match a.sockbuf {
        Some(b) => b as usize,
        None => net::default_sockbuf(block, a.depth),
    }
}

fn print_report(a: &Args, r: &LiveReport) {
    println!(
        "\n  {:.3} GB/s   {} blocks in {:.3} s",
        r.gbytes_per_sec,
        r.blocks,
        r.elapsed.as_secs_f64()
    );
    println!(
        "  control: {} msgs ({:.2} per block), {} credit requests",
        r.ctrl_msgs, r.ctrl_msgs_per_block, r.credit_requests
    );
    println!(
        "  stages (ns/block): load {:.0}  dispatch {:.0}  place {:.0}  verify {:.0}  flush {:.0}  sync {:.0}",
        r.stages.load_ns,
        r.stages.dispatch_ns,
        r.stages.place_ns,
        r.stages.verify_ns,
        r.stages.flush_ns,
        r.stages.sync_ns
    );
    println!(
        "  integrity: {} checksum failures, {} out-of-order arrivals, {} duplicates",
        r.checksum_failures, r.ooo_blocks, r.duplicate_payloads
    );
    if a.src_file.is_some() || a.dst_file.is_some() {
        println!(
            "  direct I/O: {}",
            if r.direct_io_active {
                "active"
            } else {
                "buffered fallback"
            }
        );
    }
    if a.fault_drop_p > 0.0 || a.wan.is_some() {
        println!(
            "  faults: {} payloads dropped, {} retransmitted ({} ack-driven, {} on the timer)",
            r.dropped_payloads,
            r.retransmits,
            r.fast_retransmits,
            r.retransmits - r.fast_retransmits
        );
    }
    if let Some(ad) = &r.adapt {
        println!(
            "  adaptive: srtt {:.1} us (var {:.1})  loss {:.4}  depth {}  dwell {:.1} us  first block {:.1} us",
            ad.srtt_us,
            ad.rttvar_us,
            ad.loss_rate,
            ad.effective_depth,
            ad.dwell_ns as f64 / 1e3,
            ad.first_block_us
        );
    }
}

fn run(a: &Args) -> std::io::Result<LiveReport> {
    match &a.mode {
        Mode::Local => {
            // Both halves over the in-process transport (through the shim
            // under --wan), their two reports merged.
            let cfg = build_cfg(a, a.block as usize, a.channels, a.size);
            let clean = WanProfile::clean();
            let (src, snk) = run_split_pair(&cfg, a.wan.as_ref().unwrap_or(&clean))?;
            Ok(LiveReport::merge(src, snk))
        }
        Mode::Connect(addr) => {
            let cfg = build_cfg(a, a.block as usize, a.channels, a.size);
            println!(
                "rftp-live: source -> {addr}: {} MB in {} KB blocks, {} channels, {} loaders{}",
                a.size >> 20,
                a.block >> 10,
                a.channels,
                a.loaders,
                a.transport.label()
            );
            let sockbuf = sockbuf_bytes(a, cfg.block_size);
            report_sockbuf(a, sockbuf);
            let t = match a.transport {
                Transport::Tcp => net::connect_source(addr.as_str(), a.channels, sockbuf)?,
                Transport::Uring => {
                    rftp_live::connect_source_uring(addr.as_str(), a.channels, sockbuf)?
                }
                Transport::Shm => rftp_live::connect_source_shm(addr.as_str(), a.channels)?,
            };
            // The source's shim carries every leg of the emulated path,
            // so the sink's engine does not matter to it.
            let t = match &a.wan {
                Some(wan) => rftp_live::wrap_source(t, wan),
                None => t,
            };
            run_split_source(&cfg, t)
        }
        Mode::Listen(addr) => {
            if a.transport == Transport::Shm {
                let listener = rftp_live::ShmListener::bind(addr.as_str())?;
                println!("rftp-live: sink listening on shm socket {addr}");
                let (sess, first) = listener.accept_session()?;
                let a2 = sink_cfg(a, &first)?;
                return rftp_live::run_shm_sink(&a2, sess, Some(first));
            }
            let listener = net::NetListener::bind(addr.as_str())?;
            println!("rftp-live: sink listening on {}", listener.local_addr()?);
            // The accept consumes the SessionRequest (the sink's config
            // must agree with it). Block size is unknown until then, so
            // only an explicit --sockbuf resizes the sink's buffers; the
            // source side carries the block-sized default.
            let sockbuf = a.sockbuf.map_or(0, |b| b as usize);
            report_sockbuf(a, sockbuf);
            match a.transport {
                Transport::Tcp => {
                    let (t, first) = listener.accept_session(sockbuf)?;
                    let a2 = sink_cfg(a, &first)?;
                    run_split_sink(&a2, t, Some(first))
                }
                Transport::Uring => {
                    let (sess, first) = rftp_live::accept_source_uring(&listener, sockbuf)?;
                    let a2 = sink_cfg(a, &first)?;
                    rftp_live::run_uring_sink(&a2, sess, Some(first))
                }
                Transport::Shm => unreachable!("handled above"),
            }
        }
    }
}

/// Requested-vs-effective socket buffer report: the kernel clamps
/// `SO_SNDBUF`/`SO_RCVBUF` to `net.core.{w,r}mem_max` without a word,
/// so a tuning flag that silently got a fraction of its request makes
/// every run after it a lie. Probed on a throwaway loopback socket
/// subject to the same clamps as the data streams.
fn report_sockbuf(a: &Args, sockbuf: usize) {
    if a.transport == Transport::Shm || sockbuf == 0 {
        return; // no socket buffers on the data path, or OS defaults
    }
    if let Ok(Some(eff)) = net::probe_sockbuf(sockbuf) {
        println!(
            "rftp-live: sockbuf requested {} -> effective sndbuf {} rcvbuf {}{}",
            eff.requested,
            eff.sndbuf,
            eff.rcvbuf,
            if eff.clamped() {
                " [CLAMPED by net.core.wmem_max/rmem_max]"
            } else {
                ""
            }
        );
    }
}

/// Build the sink-half config from the source's `SessionRequest` —
/// the transfer geometry is the source's to set.
fn sink_cfg(a: &Args, first: &CtrlMsg) -> std::io::Result<LiveConfig> {
    let CtrlMsg::SessionRequest {
        block_size,
        channels,
        total_bytes,
        ..
    } = *first
    else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("peer opened with {first:?}, not a SessionRequest"),
        ));
    };
    let a2 = build_cfg(a, block_size as usize, channels as usize, total_bytes);
    println!(
        "rftp-live: sink: {} MB in {} KB blocks, {} channels{}",
        total_bytes >> 20,
        block_size >> 10,
        channels,
        a.transport.label()
    );
    Ok(a2)
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rftp-live: {e}\n\n{HELP}");
            std::process::exit(2);
        }
    };
    if matches!(a.mode, Mode::Local) {
        println!(
            "rftp-live: {} MB in {} KB blocks, {} channels, {} loaders, batch {}{}",
            a.size >> 20,
            a.block >> 10,
            a.channels,
            a.loaders,
            a.batch,
            if a.fault_drop_p > 0.0 {
                format!(", drop p={}", a.fault_drop_p)
            } else {
                String::new()
            }
        );
        if a.src_file.is_some() || a.dst_file.is_some() {
            println!(
                "  storage: {} -> {}, {}, readahead {}",
                a.src_file
                    .as_deref()
                    .map_or("<pattern>".into(), |p| p.display().to_string()),
                a.dst_file
                    .as_deref()
                    .map_or("<verify>".into(), |p| p.display().to_string()),
                if a.direct { "O_DIRECT" } else { "buffered" },
                if a.readahead == u32::MAX {
                    "pool".into()
                } else {
                    a.readahead.to_string()
                }
            );
        }
    }
    let r = match run(&a) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rftp-live: transfer failed: {e}");
            std::process::exit(1);
        }
    };
    print_report(&a, &r);
    if r.checksum_failures > 0 {
        eprintln!("rftp-live: VERIFICATION FAILED");
        std::process::exit(1);
    }
}
