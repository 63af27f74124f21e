//! The tracer observes the program; it must not alter it. Each test
//! runs a 64 MiB transfer with every seam object wrapped and asserts
//! byte-identical completion and that the decorators' counts equal the
//! program's own, exactly.

use crate::trace::{Kind, Recorder, SeamAcc};
use rftp_live::net::default_sockbuf;
use rftp_live::pipeline::LiveReport;
use rftp_live::{
    accept_source_uring, connect_source, connect_source_shm, connect_source_uring, run_shm_sink,
    run_split_sink, run_split_source, run_uring_sink, shm_supported, uring_supported, wrap_sink,
    wrap_source, LiveConfig, NetListener, ShmListener, WanProfile,
};

const TOTAL: u64 = (64 << 20) + 777; // ragged tail on purpose
const BLOCK: usize = 256 * 1024;

fn cfg() -> LiveConfig {
    let mut cfg = LiveConfig::new(BLOCK, 2, TOTAL);
    cfg.pool_blocks = 32;
    cfg.loaders = 1;
    cfg
}

fn seam(rec: &Recorder) -> SeamAcc {
    let mut acc = SeamAcc::default();
    acc.add_session(&rec.events());
    acc
}

fn assert_complete(cfg: &LiveConfig, src: &LiveReport, snk: &LiveReport) {
    let blocks = TOTAL.div_ceil(cfg.block_size as u64);
    assert_eq!((src.bytes, src.blocks), (TOTAL, blocks));
    assert_eq!((snk.bytes, snk.blocks), (TOTAL, blocks));
    assert_eq!(snk.checksum_failures, 0);
}

/// The counts every source-side trace must reproduce: one first send
/// per block plus one per retransmit that reached the wire, and every
/// control frame the source counted (sent and received).
fn assert_source_counts(acc: &SeamAcc, src: &LiveReport) {
    assert_eq!(
        acc.data_frames(),
        src.blocks + src.retransmits - src.dropped_payloads
    );
    let (s2k, k2s) = acc.ctrl_frames();
    assert_eq!(s2k + k2s, src.ctrl_msgs);
}

#[test]
fn tcp_wrapped_transfer_matches_the_programs_counts() {
    let cfg = cfg();
    let rec = Recorder::new(TOTAL.div_ceil(BLOCK as u64));
    let listener = NetListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let sockbuf = default_sockbuf(cfg.block_size, cfg.channel_depth);
    let (src, snk) = std::thread::scope(|s| {
        let source = s.spawn(|| {
            rec.mark(Kind::SessionBegin);
            let t = rec.wrap_source(connect_source(addr, 2, sockbuf).unwrap());
            let r = run_split_source(&cfg, t).unwrap();
            rec.mark(Kind::SessionEnd);
            r
        });
        let (t, first) = listener.accept_session(sockbuf).unwrap();
        let snk = run_split_sink(&cfg, rec.wrap_sink(t), Some(first)).unwrap();
        (source.join().unwrap(), snk)
    });
    assert_complete(&cfg, &src, &snk);
    let acc = seam(&rec);
    assert_source_counts(&acc, &src);
    assert_eq!((src.retransmits, acc.frames_lost()), (0, 0));
    assert_eq!(acc.rx_discards(), snk.duplicate_payloads);
    // The sink counts the frames it sent plus those it received: the
    // same frames the source received and sent.
    assert_eq!(snk.ctrl_msgs, src.ctrl_msgs);
    let m: std::collections::HashMap<_, _> = acc.finish().into_iter().collect();
    assert!(m["credit.ack_rtt_ns_p50"] > 0.0);
    assert!(
        m["credit.ack_rtt_residual_share"] <= 0.10,
        "{}",
        m["credit.ack_rtt_residual_share"]
    );
    assert!(m["credit.grants_per_ack"] <= 2.0);
    assert!(acc.session_phases().iter().all(|(_, ms)| *ms > 0.0));
}

/// Loss on the path: the source's retransmits and the sink's duplicate
/// discards are the program's own counters, reproduced from outside.
#[test]
fn lossy_wrapped_transfer_reproduces_retransmits_and_duplicates() {
    let wan = WanProfile::parse("rtt=4ms,drop=0.03,seed=11").unwrap();
    let mut cfg = cfg();
    cfg.apply_wan(&wan);
    let rec = Recorder::new(TOTAL.div_ceil(BLOCK as u64));
    let listener = NetListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let sockbuf = default_sockbuf(cfg.block_size, cfg.channel_depth);
    let (src, snk) = std::thread::scope(|s| {
        let source = s.spawn(|| {
            let t = wrap_source(connect_source(addr, 2, sockbuf).unwrap(), &wan);
            run_split_source(&cfg, rec.wrap_source(t)).unwrap()
        });
        let (t, first) = listener.accept_session(sockbuf).unwrap();
        let t = rec.wrap_sink(wrap_sink(t, &wan));
        let snk = run_split_sink(&cfg, t, Some(first)).unwrap();
        (source.join().unwrap(), snk)
    });
    assert_complete(&cfg, &src, &snk);
    let acc = seam(&rec);
    assert_source_counts(&acc, &src);
    assert!(
        src.retransmits > 0,
        "3% loss over 257 frames dropped nothing"
    );
    assert_eq!(acc.rx_discards(), snk.duplicate_payloads);
    // Every frame the shim dropped was sent again; a retransmit whose
    // original did arrive is discarded as a duplicate instead.
    assert_eq!(
        acc.frames_lost() + snk.duplicate_payloads,
        src.retransmits,
        "lost {} duplicates {} retransmits {}",
        acc.frames_lost(),
        snk.duplicate_payloads,
        src.retransmits
    );
}

#[test]
fn uring_wrapped_source_keeps_the_zero_copy_path() {
    if !uring_supported() {
        eprintln!("skipped: io_uring unsupported on this host");
        return;
    }
    let cfg = cfg();
    let rec = Recorder::new(TOTAL.div_ceil(BLOCK as u64));
    let listener = NetListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let sockbuf = default_sockbuf(cfg.block_size, cfg.channel_depth);
    let (src, snk) = std::thread::scope(|s| {
        let source = s.spawn(|| {
            let t = connect_source_uring(addr, 2, sockbuf).unwrap();
            assert_eq!(t.transport_threads, 1);
            let t = rec.wrap_source(t);
            assert_eq!(t.transport_threads, 1, "field must be carried across");
            run_split_source(&cfg, t).unwrap()
        });
        let (sess, first) = accept_source_uring(&listener, sockbuf).unwrap();
        let snk = run_uring_sink(&cfg, sess, Some(first)).unwrap();
        (source.join().unwrap(), snk)
    });
    assert_complete(&cfg, &src, &snk);
    let acc = seam(&rec);
    assert_source_counts(&acc, &src);
    assert_eq!(src.transport_threads, 1);
    // Queued sends only reach the ring through `kick`: had the decorator
    // fallen back to the default `send_block`, or swallowed `kick`, the
    // transfer would not have completed at all.
    let m: std::collections::HashMap<_, _> = acc.finish().into_iter().collect();
    assert!(m["transport.kick_ns_per_block"] > 0.0);
}

#[test]
fn shm_wrapped_source_matches_the_programs_counts() {
    if !shm_supported() {
        eprintln!("skipped: shm transport unsupported on this host");
        return;
    }
    let cfg = cfg();
    let rec = Recorder::new(TOTAL.div_ceil(BLOCK as u64));
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("seam-test-{}.sock", std::process::id()));
    let listener = ShmListener::bind(&path).unwrap();
    let (src, snk) = std::thread::scope(|s| {
        let source = s.spawn(|| {
            let t = rec.wrap_source(connect_source_shm(&path, 2).unwrap());
            run_split_source(&cfg, t).unwrap()
        });
        let (sess, first) = listener.accept_session().unwrap();
        let snk = run_shm_sink(&cfg, sess, Some(first)).unwrap();
        (source.join().unwrap(), snk)
    });
    assert_complete(&cfg, &src, &snk);
    let acc = seam(&rec);
    assert_source_counts(&acc, &src);
    assert_eq!(snk.ctrl_msgs, src.ctrl_msgs);
}
