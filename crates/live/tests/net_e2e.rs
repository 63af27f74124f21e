//! End-to-end transfers over real TCP sockets on loopback — the split
//! pipeline with the [`rftp_live::net`] backend, in-process (two thread
//! groups, two transports, one kernel socket pair per link) and as two
//! actual OS processes driving the `rftp-live` binary.

use rftp_live::net::{connect_source, NetListener};
use rftp_live::{run_split_sink, run_split_source, LiveConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Debug builds move bytes ~an order of magnitude slower; shrink the
/// payloads so the suite stays snappy under `cargo test`.
const SCALE: u64 = if cfg!(debug_assertions) { 4 } else { 1 };

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rftp_net_{}_{tag}", std::process::id()))
}

/// A deterministic, non-trivial test file (not the pipeline's own
/// pattern generator — the transfer must not be able to "verify" it by
/// regenerating it).
fn write_test_file(path: &PathBuf, bytes: u64) {
    let mut f = std::fs::File::create(path).unwrap();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
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

/// Run one transfer over TCP loopback inside this process: the source
/// half on a helper thread, the sink half here.
fn run_tcp_pair(
    src_cfg: LiveConfig,
    snk_cfg: LiveConfig,
) -> (
    std::io::Result<rftp_live::LiveReport>,
    std::io::Result<rftp_live::LiveReport>,
) {
    let listener = NetListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let channels = src_cfg.channels;
    let sockbuf = rftp_live::net::default_sockbuf(src_cfg.block_size, src_cfg.channel_depth);
    let src = std::thread::spawn(move || {
        let t = connect_source(addr, channels, sockbuf)?;
        run_split_source(&src_cfg, t)
    });
    let snk = (|| {
        let (t, first) = listener.accept_session(sockbuf)?;
        run_split_sink(&snk_cfg, t, Some(first))
    })();
    (src.join().unwrap(), snk)
}

#[test]
fn tcp_pattern_transfer_verifies_and_coalesces() {
    let cfg = LiveConfig::new(64 * 1024, 4, (32 << 20) / SCALE);
    let (src, snk) = run_tcp_pair(cfg.clone(), cfg.clone());
    let (src, snk) = (src.unwrap(), snk.unwrap());
    assert_eq!(snk.blocks, cfg.total_bytes.div_ceil(64 * 1024));
    assert_eq!(snk.checksum_failures, 0);
    assert!(
        src.ctrl_msgs_per_block < 1.0 && snk.ctrl_msgs_per_block < 1.0,
        "control plane not coalesced: src {:.2}/blk, snk {:.2}/blk",
        src.ctrl_msgs_per_block,
        snk.ctrl_msgs_per_block
    );
}

#[test]
fn tcp_file_to_file_is_byte_identical() {
    let src_path = tmp_path("f2f_src");
    let dst_path = tmp_path("f2f_dst");
    // An odd tail: the last block is partial.
    let bytes = (16 << 20) / SCALE + 12_345;
    write_test_file(&src_path, bytes);

    let mut src_cfg = LiveConfig::new(128 * 1024, 3, bytes);
    src_cfg.src_file = Some(src_path.clone());
    let mut snk_cfg = LiveConfig::new(128 * 1024, 3, bytes);
    snk_cfg.dst_file = Some(dst_path.clone());
    let (src, snk) = run_tcp_pair(src_cfg, snk_cfg);
    src.unwrap();
    let snk = snk.unwrap();
    assert_eq!(snk.checksum_failures, 0);

    let (a, b) = (
        std::fs::read(&src_path).unwrap(),
        std::fs::read(&dst_path).unwrap(),
    );
    assert_eq!(a.len(), b.len(), "size mismatch");
    assert!(a == b, "destination bytes differ from source");
    let _ = std::fs::remove_file(&src_path);
    let _ = std::fs::remove_file(&dst_path);
}

/// The tcp sink compares every payload byte with the pattern: a source
/// file holding each block's pattern but one flipped byte fails exactly
/// that block, and the transfer still completes.
#[test]
fn tcp_sink_fails_the_one_block_with_a_flipped_byte() {
    let path = tmp_path("one_flip_src");
    let block = 64 * 1024;
    let mut data = vec![0u8; 8 * block + 4321];
    for (seq, chunk) in data.chunks_mut(block).enumerate() {
        rftp_core::pattern::fill_pattern(chunk, rftp_core::engine::pattern_seed(1, seq as u32));
    }
    data[3 * block + 1000] ^= 0x40;
    std::fs::write(&path, &data).unwrap();

    let mut src_cfg = LiveConfig::new(block, 2, data.len() as u64);
    src_cfg.src_file = Some(path.clone());
    let snk_cfg = LiveConfig::new(block, 2, data.len() as u64);
    let (src, snk) = run_tcp_pair(src_cfg, snk_cfg);
    let _ = std::fs::remove_file(&path);
    src.unwrap();
    let snk = snk.unwrap();
    assert_eq!(snk.blocks, 9);
    assert_eq!(snk.checksum_failures, 1);
}

// spec: [P7-exactly-once-placement] [P8-exactly-once]
#[test]
fn tcp_drop_faults_recover_exactly_once() {
    let mut src_cfg = LiveConfig::new(32 * 1024, 2, (4 << 20) / SCALE);
    src_cfg.pool_blocks = 8;
    src_cfg.fault_drop_p = 0.15;
    src_cfg.fault_seed = 42;
    src_cfg.retx_timeout = Duration::from_millis(30);
    let mut snk_cfg = LiveConfig::new(32 * 1024, 2, src_cfg.total_bytes);
    snk_cfg.pool_blocks = 8;
    let (src, snk) = run_tcp_pair(src_cfg, snk_cfg);
    let (src, snk) = (src.unwrap(), snk.unwrap());
    assert_eq!(
        snk.checksum_failures, 0,
        "every block placed correctly once"
    );
    assert!(src.dropped_payloads >= 1, "fault injector never fired");
    assert!(src.retransmits >= 1, "drops must be recovered by re-send");
    // Any duplicate a raced retransmit produced was discarded, not placed
    // (checksums above prove placement integrity); here we just confirm
    // the accounting is coherent.
    assert_eq!(snk.blocks, src.blocks);
}

// ---------------------------------------------------------------------------
// The io_uring backend: the same wire format (PROTOCOL.md §7 is
// byte-identical across socket backends), so every TCP scenario must
// hold verbatim — including with the two backends mixed across sides.
// ---------------------------------------------------------------------------

fn uring_or_skip() -> bool {
    if rftp_live::uring_supported() {
        return true;
    }
    eprintln!("skipping: io_uring transport unsupported on this kernel");
    false
}

#[derive(Clone, Copy, PartialEq)]
enum Backend {
    Tcp,
    Uring,
}

/// Run one loopback transfer with each side on its chosen backend. The
/// wire never changes, so any (source, sink) pairing must interoperate.
fn run_mixed_pair(
    src_be: Backend,
    snk_be: Backend,
    src_cfg: LiveConfig,
    snk_cfg: LiveConfig,
) -> (
    std::io::Result<rftp_live::LiveReport>,
    std::io::Result<rftp_live::LiveReport>,
) {
    let listener = NetListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let channels = src_cfg.channels;
    let sockbuf = rftp_live::net::default_sockbuf(src_cfg.block_size, src_cfg.channel_depth);
    let src = std::thread::spawn(move || {
        let t = match src_be {
            Backend::Tcp => connect_source(addr, channels, sockbuf)?,
            Backend::Uring => rftp_live::connect_source_uring(addr, channels, sockbuf)?,
        };
        run_split_source(&src_cfg, t)
    });
    let snk = (|| match snk_be {
        Backend::Tcp => {
            let (t, first) = listener.accept_session(sockbuf)?;
            run_split_sink(&snk_cfg, t, Some(first))
        }
        Backend::Uring => {
            let (sess, first) = rftp_live::accept_source_uring(&listener, sockbuf)?;
            rftp_live::run_uring_sink(&snk_cfg, sess, Some(first))
        }
    })();
    (src.join().unwrap(), snk)
}

#[test]
fn uring_pattern_transfer_verifies_and_coalesces() {
    if !uring_or_skip() {
        return;
    }
    let cfg = LiveConfig::new(64 * 1024, 4, (32 << 20) / SCALE);
    let (src, snk) = run_mixed_pair(Backend::Uring, Backend::Uring, cfg.clone(), cfg.clone());
    let (src, snk) = (src.unwrap(), snk.unwrap());
    assert_eq!(snk.blocks, cfg.total_bytes.div_ceil(64 * 1024));
    assert_eq!(snk.checksum_failures, 0);
    assert!(
        src.ctrl_msgs_per_block < 1.0 && snk.ctrl_msgs_per_block < 1.0,
        "control plane not coalesced: src {:.2}/blk, snk {:.2}/blk",
        src.ctrl_msgs_per_block,
        snk.ctrl_msgs_per_block
    );
    // The tentpole's thread claim, checked where it is observable: the
    // uring sink's data path is ONE driver thread regardless of channels.
    assert_eq!(snk.transport_threads, 1);
}

#[test]
fn uring_file_to_file_is_byte_identical() {
    if !uring_or_skip() {
        return;
    }
    let src_path = tmp_path("ur_f2f_src");
    let dst_path = tmp_path("ur_f2f_dst");
    let bytes = (16 << 20) / SCALE + 12_345;
    write_test_file(&src_path, bytes);

    let mut src_cfg = LiveConfig::new(128 * 1024, 3, bytes);
    src_cfg.src_file = Some(src_path.clone());
    let mut snk_cfg = LiveConfig::new(128 * 1024, 3, bytes);
    snk_cfg.dst_file = Some(dst_path.clone());
    let (src, snk) = run_mixed_pair(Backend::Uring, Backend::Uring, src_cfg, snk_cfg);
    src.unwrap();
    assert_eq!(snk.unwrap().checksum_failures, 0);

    let (a, b) = (
        std::fs::read(&src_path).unwrap(),
        std::fs::read(&dst_path).unwrap(),
    );
    assert_eq!(a.len(), b.len(), "size mismatch");
    assert!(a == b, "destination bytes differ from source over io_uring");
    let _ = std::fs::remove_file(&src_path);
    let _ = std::fs::remove_file(&dst_path);
}

// spec: [P7-exactly-once-placement]
#[test]
fn uring_drop_faults_recover_exactly_once() {
    if !uring_or_skip() {
        return;
    }
    let mut src_cfg = LiveConfig::new(32 * 1024, 2, (4 << 20) / SCALE);
    src_cfg.pool_blocks = 8;
    src_cfg.fault_drop_p = 0.15;
    src_cfg.fault_seed = 42;
    src_cfg.retx_timeout = Duration::from_millis(30);
    let mut snk_cfg = LiveConfig::new(32 * 1024, 2, src_cfg.total_bytes);
    snk_cfg.pool_blocks = 8;
    let (src, snk) = run_mixed_pair(Backend::Uring, Backend::Uring, src_cfg, snk_cfg);
    let (src, snk) = (src.unwrap(), snk.unwrap());
    assert_eq!(
        snk.checksum_failures, 0,
        "every block placed correctly once"
    );
    assert!(src.dropped_payloads >= 1, "fault injector never fired");
    assert!(src.retransmits >= 1, "drops must be recovered by re-send");
    assert_eq!(snk.blocks, src.blocks);
}

// spec: [P7-backend-interop]
#[test]
fn mixed_backends_move_files_byte_identically() {
    if !uring_or_skip() {
        return;
    }
    for (src_be, snk_be, tag) in [
        (Backend::Uring, Backend::Tcp, "ur_src"),
        (Backend::Tcp, Backend::Uring, "ur_snk"),
    ] {
        let src_path = tmp_path(&format!("mix_{tag}_src"));
        let dst_path = tmp_path(&format!("mix_{tag}_dst"));
        let bytes = (8 << 20) / SCALE + 4_097;
        write_test_file(&src_path, bytes);

        let mut src_cfg = LiveConfig::new(128 * 1024, 3, bytes);
        src_cfg.src_file = Some(src_path.clone());
        let mut snk_cfg = LiveConfig::new(128 * 1024, 3, bytes);
        snk_cfg.dst_file = Some(dst_path.clone());
        let (src, snk) = run_mixed_pair(src_be, snk_be, src_cfg, snk_cfg);
        src.unwrap();
        assert_eq!(snk.unwrap().checksum_failures, 0);
        let (a, b) = (
            std::fs::read(&src_path).unwrap(),
            std::fs::read(&dst_path).unwrap(),
        );
        assert!(a == b, "mixed pairing {tag}: destination differs");
        let _ = std::fs::remove_file(&src_path);
        let _ = std::fs::remove_file(&dst_path);
    }
}

// ---------------------------------------------------------------------------
// The real thing: two OS processes driving the rftp-live binary.
// ---------------------------------------------------------------------------

fn rftp_live_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rftp-live"))
}

/// Spawn `rftp-live --listen 127.0.0.1:0 ...` and read the bound address
/// off its first stdout line.
fn spawn_sink(extra: &[&str]) -> (Child, String) {
    let mut child = rftp_live_cmd()
        .arg("--listen")
        .arg("127.0.0.1:0")
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rftp-live --listen");
    let mut line = String::new();
    BufReader::new(child.stdout.as_mut().unwrap())
        .read_line(&mut line)
        .unwrap();
    let addr = line
        .rsplit(' ')
        .next()
        .expect("listen line names an address")
        .trim()
        .to_string();
    assert!(addr.starts_with("127.0.0.1:"), "unexpected line: {line:?}");
    (child, addr)
}

fn wait_timeout(child: &mut Child, limit: Duration) -> Option<std::process::ExitStatus> {
    let t0 = Instant::now();
    while t0.elapsed() < limit {
        if let Some(st) = child.try_wait().unwrap() {
            return Some(st);
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    None
}

#[test]
fn two_processes_move_a_file_byte_identically() {
    let src_path = tmp_path("proc_src");
    let dst_path = tmp_path("proc_dst");
    write_test_file(&src_path, (24 << 20) / SCALE + 4097);

    let (mut sink, addr) = spawn_sink(&["--dst-file", dst_path.to_str().unwrap()]);
    let mut source = rftp_live_cmd()
        .args(["--connect", &addr, "--channels", "4", "--block", "128K"])
        .args(["--src-file", src_path.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rftp-live --connect");

    let src_status =
        wait_timeout(&mut source, Duration::from_secs(120)).expect("source process hung");
    let snk_status = wait_timeout(&mut sink, Duration::from_secs(30))
        .expect("sink process hung after source finished");
    assert!(src_status.success(), "source exited {src_status:?}");
    assert!(snk_status.success(), "sink exited {snk_status:?}");

    let (a, b) = (
        std::fs::read(&src_path).unwrap(),
        std::fs::read(&dst_path).unwrap(),
    );
    assert!(a == b, "destination differs from source across processes");
    let _ = std::fs::remove_file(&src_path);
    let _ = std::fs::remove_file(&dst_path);
}

/// The ANI WAN with residual loss turned up to 1%, rate-scaled so the
/// BDP-sized pools stay test-friendly. Both processes take the spec:
/// the source's shim carries the whole path (the full 49 ms RTT, the
/// lost data frames), and the sink sizes its pool to it.
const WAN_SPEC: &str = "ani-wan,drop=0.01,rate=500e6";

/// Read a counter off a process's report line, e.g.
/// `extract(&out, "retransmitted")` from "… 3 retransmitted".
fn count_before(stdout: &str, marker: &str) -> u64 {
    stdout
        .lines()
        .find_map(|l| {
            let ix = l.find(marker)?;
            l[..ix].trim().rsplit(' ').next()?.parse().ok()
        })
        .unwrap_or_else(|| panic!("no \"{marker}\" counter in output: {stdout:?}"))
}

/// Exactly-once through a lossy emulated WAN, two real processes over
/// TCP: dropped data frames are recovered by the adaptive watchdog,
/// raced retransmits are deduped before placement, and the destination
/// file is byte-identical — the paper's reliability claim, end to end.
#[test]
fn two_processes_exactly_once_through_lossy_wan_tcp() {
    let src_path = tmp_path("wan_tcp_src");
    let dst_path = tmp_path("wan_tcp_dst");
    // Fixed size (not SCALE-shrunk): ~512 data frames keep the 1% loss
    // from rounding to zero drops.
    write_test_file(&src_path, (32 << 20) + 4097);

    let (mut sink, addr) =
        spawn_sink(&["--dst-file", dst_path.to_str().unwrap(), "--wan", WAN_SPEC]);
    let mut source = rftp_live_cmd()
        .args(["--connect", &addr, "--channels", "4", "--block", "64K"])
        .args(["--wan", WAN_SPEC])
        .args(["--src-file", src_path.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rftp-live --connect --wan");

    let src_status =
        wait_timeout(&mut source, Duration::from_secs(180)).expect("source process hung");
    let snk_status = wait_timeout(&mut sink, Duration::from_secs(60))
        .expect("sink process hung after source finished");
    // Success implies zero checksum failures on both ends (the binary
    // exits 1 on verification failure).
    assert!(src_status.success(), "source exited {src_status:?}");
    assert!(snk_status.success(), "sink exited {snk_status:?}");

    let mut src_out = String::new();
    source
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut src_out)
        .unwrap();
    assert!(
        count_before(&src_out, "retransmitted") >= 1,
        "1% loss over ~512 frames must exercise the recovery path: {src_out:?}"
    );

    let (a, b) = (
        std::fs::read(&src_path).unwrap(),
        std::fs::read(&dst_path).unwrap(),
    );
    assert!(a == b, "destination differs from source through lossy WAN");
    let _ = std::fs::remove_file(&src_path);
    let _ = std::fs::remove_file(&dst_path);
}

/// The same lossy-WAN exactly-once contract with the io_uring sink: the
/// path is the source's shim, so the ring sink runs behind it exactly
/// as the threaded one does.
#[test]
fn two_processes_exactly_once_through_lossy_wan_uring() {
    if !uring_or_skip() {
        return;
    }
    let src_path = tmp_path("wan_ur_src");
    let dst_path = tmp_path("wan_ur_dst");
    write_test_file(&src_path, (32 << 20) + 4097);

    let (mut sink, addr) = spawn_sink(&[
        "--transport",
        "uring",
        "--dst-file",
        dst_path.to_str().unwrap(),
        "--wan",
        WAN_SPEC,
    ]);
    let mut source = rftp_live_cmd()
        .args(["--connect", &addr, "--channels", "4", "--block", "64K"])
        .args(["--wan", WAN_SPEC])
        .args(["--src-file", src_path.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rftp-live --connect --wan");

    let src_status =
        wait_timeout(&mut source, Duration::from_secs(180)).expect("source process hung");
    let snk_status = wait_timeout(&mut sink, Duration::from_secs(60))
        .expect("sink process hung after source finished");
    assert!(src_status.success(), "source exited {src_status:?}");
    assert!(snk_status.success(), "sink exited {snk_status:?}");

    let mut src_out = String::new();
    source
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut src_out)
        .unwrap();
    assert!(
        count_before(&src_out, "retransmitted") >= 1,
        "1% loss over ~512 frames must exercise the recovery path: {src_out:?}"
    );

    let (a, b) = (
        std::fs::read(&src_path).unwrap(),
        std::fs::read(&dst_path).unwrap(),
    );
    assert!(
        a == b,
        "destination differs from source through lossy WAN over io_uring"
    );
    let _ = std::fs::remove_file(&src_path);
    let _ = std::fs::remove_file(&dst_path);
}

/// Killing the sink process mid-transfer must fail the source promptly —
/// a broken-pipe style error, not a hang.
// spec: [P7-peer-loss]
#[test]
fn source_fails_cleanly_when_sink_is_killed() {
    let (mut sink, addr) = spawn_sink(&[]);
    // Big pattern-mode payload so the transfer is still in flight when
    // the sink dies.
    let mut source = rftp_live_cmd()
        .args(["--connect", &addr, "--size", "2G", "--channels", "2"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    std::thread::sleep(Duration::from_millis(300));
    sink.kill().unwrap();
    sink.wait().unwrap();

    let status = wait_timeout(&mut source, Duration::from_secs(10))
        .expect("source hung after its peer died");
    assert!(!status.success(), "source must report the dead peer");
    let mut err = String::new();
    source
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut err)
        .unwrap();
    assert!(
        err.contains("transfer failed"),
        "source stderr should explain: {err:?}"
    );
}

/// Killing the source process mid-transfer must fail the sink promptly.
// spec: [P7-peer-loss]
#[test]
fn sink_fails_cleanly_when_source_is_killed() {
    let (mut sink, addr) = spawn_sink(&[]);
    let mut source = rftp_live_cmd()
        .args(["--connect", &addr, "--size", "2G", "--channels", "2"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    std::thread::sleep(Duration::from_millis(300));
    source.kill().unwrap();
    source.wait().unwrap();

    let status =
        wait_timeout(&mut sink, Duration::from_secs(10)).expect("sink hung after its peer died");
    assert!(!status.success(), "sink must report the dead peer");
}

#[test]
fn two_processes_move_a_file_over_uring() {
    if !uring_or_skip() {
        return;
    }
    let src_path = tmp_path("ur_proc_src");
    let dst_path = tmp_path("ur_proc_dst");
    write_test_file(&src_path, (24 << 20) / SCALE + 4097);

    let (mut sink, addr) = spawn_sink(&[
        "--transport",
        "uring",
        "--dst-file",
        dst_path.to_str().unwrap(),
    ]);
    let mut source = rftp_live_cmd()
        .args(["--connect", &addr, "--channels", "4", "--block", "128K"])
        .args(["--transport", "uring"])
        .args(["--src-file", src_path.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rftp-live --connect --transport uring");

    let src_status =
        wait_timeout(&mut source, Duration::from_secs(120)).expect("source process hung");
    let snk_status = wait_timeout(&mut sink, Duration::from_secs(30))
        .expect("sink process hung after source finished");
    assert!(src_status.success(), "source exited {src_status:?}");
    assert!(snk_status.success(), "sink exited {snk_status:?}");

    let (a, b) = (
        std::fs::read(&src_path).unwrap(),
        std::fs::read(&dst_path).unwrap(),
    );
    assert!(a == b, "destination differs from source across processes");
    let _ = std::fs::remove_file(&src_path);
    let _ = std::fs::remove_file(&dst_path);
}

/// Peer death over the uring backend, both directions: the ring's
/// in-flight ops must complete with errors that trip the failure latch,
/// not wedge the driver.
// spec: [P7-peer-loss]
#[test]
fn uring_source_fails_cleanly_when_sink_is_killed() {
    if !uring_or_skip() {
        return;
    }
    let (mut sink, addr) = spawn_sink(&["--transport", "uring"]);
    let mut source = rftp_live_cmd()
        .args(["--connect", &addr, "--size", "2G", "--channels", "2"])
        .args(["--transport", "uring"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    std::thread::sleep(Duration::from_millis(300));
    sink.kill().unwrap();
    sink.wait().unwrap();

    let status = wait_timeout(&mut source, Duration::from_secs(10))
        .expect("uring source hung after its peer died");
    assert!(!status.success(), "source must report the dead peer");
    let mut err = String::new();
    source
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut err)
        .unwrap();
    assert!(
        err.contains("transfer failed"),
        "source stderr should explain: {err:?}"
    );
}

// spec: [P7-peer-loss]
#[test]
fn uring_sink_fails_cleanly_when_source_is_killed() {
    if !uring_or_skip() {
        return;
    }
    let (mut sink, addr) = spawn_sink(&["--transport", "uring"]);
    let mut source = rftp_live_cmd()
        .args(["--connect", &addr, "--size", "2G", "--channels", "2"])
        .args(["--transport", "uring"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    std::thread::sleep(Duration::from_millis(300));
    source.kill().unwrap();
    source.wait().unwrap();

    let status = wait_timeout(&mut sink, Duration::from_secs(10))
        .expect("uring sink hung after its peer died");
    assert!(!status.success(), "sink must report the dead peer");
}

// ---------------------------------------------------------------------------
// Listener robustness: clients that die (or stall) during negotiation
// must not wedge the accept path.
// ---------------------------------------------------------------------------

/// A client that connects and immediately dies — plus one that sends
/// garbage and stalls — must not wedge the one-shot listener: the next
/// well-behaved source is still served.
#[test]
fn half_dead_clients_cannot_wedge_the_listener() {
    use std::net::TcpStream;

    let listener = NetListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    // Victim 1: connects and dies instantly (EOF mid-hello).
    drop(TcpStream::connect(addr).unwrap());
    // Victim 2: writes garbage and then stalls, holding its socket
    // open — the per-socket hello timeout must cut it loose.
    let mut stall = TcpStream::connect(addr).unwrap();
    stall.write_all(b"NOPE").unwrap();

    // The real source, arriving behind both corpses.
    let cfg = LiveConfig::new(64 * 1024, 2, (8 << 20) / SCALE);
    let src_cfg = cfg.clone();
    let sockbuf = rftp_live::net::default_sockbuf(cfg.block_size, cfg.channel_depth);
    let src = std::thread::spawn(move || {
        let t = connect_source(addr, src_cfg.channels, sockbuf)?;
        run_split_source(&src_cfg, t)
    });

    let (t, first) = listener
        .accept_session(sockbuf)
        .expect("dead clients wedged the listener");
    let snk = run_split_sink(&cfg, t, Some(first)).unwrap();
    src.join().unwrap().unwrap();
    assert_eq!(snk.checksum_failures, 0);
    drop(stall);
}

/// A source that completes its hellos and then goes silent forever must
/// produce a bounded timeout error from `accept_session`, not park the
/// sink. (`connect_source` performs exactly the hello exchange and
/// nothing more until the source half runs.)
#[test]
fn silent_post_hello_client_times_out_the_one_shot_accept() {
    let listener = NetListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let _silent = std::thread::spawn(move || {
        let t = connect_source(addr, 2, 0).unwrap();
        // Hold the connected transport without ever sending the
        // SessionRequest.
        std::thread::sleep(Duration::from_secs(6));
        drop(t);
    });

    let t0 = Instant::now();
    let err = match listener.accept_session(0) {
        Ok(_) => panic!("a silent peer must not be accepted as a session"),
        Err(e) => e,
    };
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "timeout not bounded: {:?}",
        t0.elapsed()
    );
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "unexpected error: {err}"
    );
}

/// A one-shot sink sizes its whole config from the peer's opening
/// request, so a request it cannot serve — a hello census of two
/// streams under `channels: 3`, or `block_size: 0` — must get the typed
/// `SessionReject` and a clean exit 1, not abort the process.
// spec: [P7.1-one-ladder]
#[test]
fn one_shot_sink_rejects_an_unservable_request() {
    use rftp_core::wire::{encode_stream_frame, CtrlMsg, CTRL_SLOT_LEN, FRAME_PREFIX_LEN};
    use std::net::TcpStream;

    let hello = |s: &mut TcpStream, kind: u8, index: u16| {
        let mut h = [0u8; 16];
        h[..4].copy_from_slice(&0x5246_5450u32.to_be_bytes()); // "RFTP"
        h[4] = kind;
        h[6..8].copy_from_slice(&index.to_be_bytes());
        h[8..].copy_from_slice(&0x7E57_0001u64.to_be_bytes());
        s.write_all(&h).unwrap();
    };
    for (census, block_size, channels) in [(2u16, 64 * 1024, 3u16), (1, 0, 1)] {
        let (mut sink, addr) = spawn_sink(&[]);
        let mut ctrl = TcpStream::connect(&addr).unwrap();
        hello(&mut ctrl, 0, census);
        let data: Vec<TcpStream> = (0..census)
            .map(|ch| {
                let mut s = TcpStream::connect(&addr).unwrap();
                hello(&mut s, 1, ch);
                s
            })
            .collect();
        let request = CtrlMsg::SessionRequest {
            session: 1,
            block_size,
            channels,
            total_bytes: 1 << 20,
            notify_imm: true,
        };
        let mut frame = [0u8; FRAME_PREFIX_LEN + CTRL_SLOT_LEN];
        let n = encode_stream_frame(&request, &mut frame);
        ctrl.write_all(&frame[..n]).unwrap();

        ctrl.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut prefix = [0u8; FRAME_PREFIX_LEN];
        ctrl.read_exact(&mut prefix).unwrap();
        let mut body = vec![0u8; u16::from_be_bytes(prefix) as usize];
        ctrl.read_exact(&mut body).unwrap();
        let reply = CtrlMsg::decode(&body).unwrap();
        assert!(
            matches!(reply, CtrlMsg::SessionReject { session: 1, .. }),
            "census {census}, {request:?}: {reply:?}"
        );
        drop((ctrl, data));
        let status = wait_timeout(&mut sink, Duration::from_secs(10)).expect("sink hung");
        assert_eq!(status.code(), Some(1), "census {census}, {request:?}");
    }
}

#[test]
fn unknown_flags_are_rejected_with_usage() {
    let out = rftp_live_cmd().arg("--frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --frobnicate"), "{err}");
    assert!(err.contains("USAGE"), "usage text missing: {err}");

    // A flag missing its value is the same class of error.
    let out = rftp_live_cmd().args(["--connect"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    // And cross-role flags are refused up front, before any socket opens.
    let out = rftp_live_cmd()
        .args(["--listen", "127.0.0.1:0", "--size", "1M"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

/// A pool past the source's credit ring would hang the transfer once the
/// ring fills: refused at parse time, like any bad count.
// spec: [P7-credit-slot-bound]
#[test]
fn pool_past_the_credit_ring_is_rejected_at_parse_time() {
    let mut run = rftp_live_cmd()
        .args(["--size", "2G", "--block", "16K", "--pool", "4097"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let status = wait_timeout(&mut run, Duration::from_secs(10));
    let _ = run.kill();
    let _ = run.wait();
    assert_eq!(
        status.and_then(|s| s.code()),
        Some(2),
        "--pool 4097 must exit 2"
    );
}

/// A local run from a file has no pattern for the sink to check, so
/// without a file to write it could only fail verification: refused at
/// parse time, before the (here absent) file is opened.
#[test]
fn local_src_file_without_dst_file_is_rejected_at_parse_time() {
    let out = rftp_live_cmd()
        .args(["--src-file", "/nonexistent/rftp-src.bin", "--block", "256K"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--dst-file"), "{err}");
}
