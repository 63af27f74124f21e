//! `rftpd` — the persistent multi-session transfer daemon.
//!
//! Where `rftp-live --listen` serves one source and exits, `rftpd`
//! binds once and serves sources until told to drain: one shared slot
//! arena partitioned across concurrent sessions, typed busy/reject
//! admission replies, weighted-fair credit grants, graceful SIGTERM
//! drain.
//!
//! ```text
//! host B$ rftpd --listen 0.0.0.0:9040 --slots 64 --max-sessions 8
//! host A$ rftp-live --connect hostB:9040 --size 1G --channels 4
//! host C$ rftp-live --connect hostB:9040 --size 4K    # concurrently
//! host B$ kill -TERM <pid>                            # drain + report
//! ```

use rftp_live::args::{flag_parse, flag_path, flag_size, flag_value};
use rftp_live::pipeline::MAX_POOL_BLOCKS;
use rftp_live::{install_sigterm_hook, Daemon, DaemonConfig, DaemonReport, DaemonTransport};
use std::time::Duration;

const HELP: &str = "rftpd: the RFTP multi-session sink daemon

USAGE: rftpd --listen <ADDR> [OPTIONS]

OPTIONS:
  --listen <ADDR>        bind address, e.g. 0.0.0.0:9040 (required)
  --transport <T>        sink backend per session: tcp (default) or uring
  --slot-cap <SIZE>      largest admissible block size; every arena slot
                         is this big (default 256K)
  --slots <N>            total slots in the shared arena (default 64)
  --session-slots <N>    pool slots leased per session, clamped down for
                         small jobs; at most 4096 (default 16)
  --max-sessions <N>     concurrent sessions before admission replies
                         busy (default 8)
  --max-channels <N>     largest per-session channel count admission
                         accepts; more is a typed reject — each channel
                         costs a sink reader thread (default 64)
  --credit-budget <N>    global outstanding-credit budget for the
                         weighted-fair arbiter (default: --slots)
  --interactive <SIZE>   jobs up to this size count as interactive and
                         get a higher credit weight (default 4M)
  --retry-ms <N>         retry hint carried in busy replies (default 50)
  --drain-ms <N>         drain deadline: how long SIGTERM waits for
                         in-flight sessions before aborting them
                         (default 10000)
  --sockbuf <SIZE>       per-data-stream socket buffer; 0 = OS defaults
                         (default 0)
  --shm <PATH>           also accept zero-copy shared-memory sessions at
                         this unix socket path (Linux; same-host sources
                         connect with --transport shm). The socket is
                         created owner-only and every admitted session
                         gets its own memfd window, so tenants cannot
                         map each other's memory — but a session's peer
                         can always scribble its *own* window; pattern
                         verification detects, not prevents, that
  --dst-dir <PATH>       write session n's payload to
                         <PATH>/session-<n>.dat instead of
                         verifying it against the pattern
  --wan <SPEC>           the WAN path the sources emulate (their
                         rftp-live --wan shim carries the whole path):
                         adapt each session's dwell/credit depth to the
                         measured RTT, on every transport. SPEC as in
                         rftp-live --wan (preset or preset,key=value)
  --help                 this text

Transfer geometry (size, block, channels) is each source's to set;
rftpd learns it from every session's handshake.";

struct Args {
    listen: String,
    cfg: DaemonConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut listen: Option<String> = None;
    let mut cfg = DaemonConfig::default();
    let mut credit_budget: Option<u32> = None;
    let it = &mut std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--listen" => listen = Some(flag_value(it, "--listen")?),
            "--transport" => {
                cfg.transport = match flag_value(it, "--transport")?.as_str() {
                    "tcp" => DaemonTransport::Tcp,
                    "uring" => DaemonTransport::Uring,
                    other => return Err(format!("bad --transport {other} (tcp or uring)")),
                }
            }
            "--slot-cap" => cfg.slot_cap = flag_size(it, "--slot-cap")? as usize,
            "--slots" => cfg.arena_slots = flag_parse(it, "--slots")?,
            "--session-slots" => cfg.session_slots = flag_parse(it, "--session-slots")?,
            "--max-sessions" => cfg.max_sessions = flag_parse(it, "--max-sessions")?,
            "--max-channels" => cfg.max_channels = flag_parse(it, "--max-channels")?,
            "--credit-budget" => credit_budget = Some(flag_parse(it, "--credit-budget")?),
            "--interactive" => cfg.interactive_cutoff = flag_size(it, "--interactive")?,
            "--retry-ms" => cfg.retry_after_ms = flag_parse(it, "--retry-ms")?,
            "--drain-ms" => {
                cfg.drain_deadline = Duration::from_millis(flag_parse(it, "--drain-ms")?)
            }
            "--sockbuf" => cfg.sockbuf = flag_size(it, "--sockbuf")? as usize,
            "--shm" => cfg.shm_path = Some(flag_path(it, "--shm")?),
            "--dst-dir" => cfg.dst_dir = Some(flag_path(it, "--dst-dir")?),
            "--wan" => {
                let spec = flag_value(it, "--wan")?;
                cfg.wan =
                    Some(rftp_live::WanProfile::parse(&spec).map_err(|e| format!("--wan: {e}"))?);
            }
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if cfg.slot_cap == 0
        || cfg.arena_slots == 0
        || cfg.session_slots == 0
        || cfg.max_sessions == 0
        || cfg.max_channels == 0
    {
        return Err("all counts must be >= 1".into());
    }
    if cfg.session_slots > cfg.arena_slots {
        return Err("--session-slots cannot exceed --slots".into());
    }
    if cfg.session_slots > MAX_POOL_BLOCKS {
        return Err(format!("--session-slots cannot exceed {MAX_POOL_BLOCKS}"));
    }
    // One outstanding credit per arena slot is the natural budget: the
    // arbiter then partitions exactly the memory the arena holds.
    cfg.credit_budget = credit_budget.unwrap_or(cfg.arena_slots);
    if cfg.credit_budget == 0 {
        return Err("--credit-budget must be >= 1".into());
    }
    let listen = listen.ok_or("missing --listen <ADDR>")?;
    if cfg.transport == DaemonTransport::Uring && !rftp_live::uring_supported() {
        return Err("--transport uring: io_uring not supported on this kernel".into());
    }
    if cfg.shm_path.is_some() && !rftp_live::shm_supported() {
        return Err("--shm: shm transport not supported on this host".into());
    }
    Ok(Args { listen, cfg })
}

fn print_report(r: &DaemonReport) {
    println!(
        "\nrftpd: served {} sessions ({} completed, {} failed), \
         rejected {} busy / {} geometry, dropped {} pre-admission",
        r.served,
        r.completed,
        r.failed,
        r.rejected_busy,
        r.rejected_geometry,
        r.dropped_preadmission
    );
    for s in &r.sessions {
        match &s.result {
            Ok(rep) => println!(
                "  session {}: {} blocks, {:.3} GB/s, {} checksum failures, \
                 {} transport thread(s)",
                s.index,
                rep.blocks,
                rep.gbytes_per_sec,
                rep.checksum_failures,
                rep.transport_threads
            ),
            Err(e) => println!("  session {}: failed: {e}", s.index),
        }
    }
    if r.shm_sessions > 0 {
        // CI greps this line: these sessions placed payload with zero
        // receiver copies (source wrote straight into the leased slab).
        println!("  shm sessions: {} (zero receiver copies)", r.shm_sessions);
    }
    if let Some(st) = &r.uring {
        // Every admitted session's data path ran on the daemon's ONE
        // shared ring; CI greps this line to pin the thread shape.
        println!(
            "  shared uring driver: 1 thread, {} enters, {} cqes, {} buffer registration(s)",
            st.enters, st.cqes, st.registrations
        );
    }
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rftpd: {e}\n\n{HELP}");
            std::process::exit(2);
        }
    };
    let daemon = match Daemon::bind(a.listen.as_str(), a.cfg.clone()) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("rftpd: bind {}: {e}", a.listen);
            std::process::exit(1);
        }
    };
    let addr = daemon.local_addr().expect("bound listener has an address");
    install_sigterm_hook(&daemon.handle());
    println!(
        "rftpd: listening on {addr} ({} slots x {} KB, {} max sessions{})",
        a.cfg.arena_slots,
        a.cfg.slot_cap >> 10,
        a.cfg.max_sessions,
        if a.cfg.transport == DaemonTransport::Uring {
            ", io_uring"
        } else {
            ""
        }
    );
    if let Some(p) = &a.cfg.shm_path {
        println!(
            "rftpd: shm endpoint at {} (owner-only socket, one memfd window per session)",
            p.display()
        );
    }
    match daemon.run() {
        Ok(r) => {
            print_report(&r);
            let bad = r
                .sessions
                .iter()
                .any(|s| matches!(&s.result, Ok(rep) if rep.checksum_failures > 0));
            if bad {
                eprintln!("rftpd: VERIFICATION FAILED");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("rftpd: {e}");
            std::process::exit(1);
        }
    }
}
