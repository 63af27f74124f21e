//! Unit tests of the shm transport: the window, the generation word
//! and both halves over a real unix socket.

use super::fence::*;
use super::sink::*;
use super::source::*;
use super::window::*;
use crate::net;
use crate::store::{SlotBuf, STORE_ALIGN};
use crate::transport::{CtrlRx, CtrlTx};
use crate::LiveConfig;
use parking_lot::Mutex;
use rftp_core::wire::{CtrlMsg, DataFrameHeader};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn temp_sock(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("rftp-shm-{tag}-{}-{n}.sock", std::process::id()))
}

/// The probe must succeed on any Linux this suite runs on —
/// memfd + SCM_RIGHTS predate every supported kernel, and the
/// CI shm-smoke job assumes it.
#[test]
fn probe_reports_shm_support() {
    assert!(shm_supported());
}

#[test]
fn descriptor_roundtrips_and_validates() {
    let stride = SlotBuf::stride(64 * 1024) as u64;
    let desc = WindowDesc {
        stride,
        window_len: stride * 4,
        block_cap: 64 * 1024,
        offsets: (0..4).map(|i| i * stride).collect(),
    };
    desc.validate().unwrap();
    let bytes = desc.encode();
    assert_eq!(&bytes[..2], &DESC_MAGIC.to_be_bytes());
    let head: [u8; DESC_HEAD_LEN - 2] = bytes[2..DESC_HEAD_LEN].try_into().unwrap();
    let (slots, s, wl, cap) = decode_desc_head(&head).unwrap();
    assert_eq!((slots, s, wl, cap), (4, stride, stride * 4, 64 * 1024));

    // Misaligned stride, slot past the window end, cap beyond
    // the slot's payload room: each refused before any mapping.
    let mut bad = desc.clone();
    bad.stride += 1;
    assert!(bad.validate().is_err());
    let mut bad = desc.clone();
    bad.offsets[3] = bad.window_len;
    assert!(bad.validate().is_err());
    let mut bad = desc.clone();
    bad.block_cap = (bad.stride - STORE_ALIGN as u64 + 1) as u32;
    assert!(bad.validate().is_err());

    // Aliased offsets: two credited slots sharing memory would
    // let concurrent places tear each other — refused as a
    // typed descriptor error, both exact duplicates and partial
    // (sub-stride) overlaps.
    let mut bad = desc.clone();
    bad.offsets[2] = bad.offsets[1];
    let err = bad.validate().unwrap_err();
    assert!(err.to_string().contains("overlap"), "{err}");
    let mut bad = desc.clone();
    bad.offsets[2] = bad.offsets[1] + STORE_ALIGN as u64;
    assert!(bad.validate().is_err());
}

/// An fd whose size cannot be read (here: a socket) must be a
/// typed error — falling through to mmap would silently lose
/// the short-fd SIGBUS guard.
#[test]
fn unseekable_window_fd_is_a_typed_error() {
    let (a, _b) = UnixStream::pair().unwrap();
    let err = match map_window(a.as_raw_fd(), 4096) {
        Ok(_) => panic!("mapping an unseekable fd must fail"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("size unreadable"), "{err}");
}

/// The per-slot generation protocol end to end on a real window:
/// grant → fresh place → duplicate re-notify without touching
/// memory → stale drop → write without grant is a typed error,
/// and a bogus slot index is a typed error (never wild memory).
#[test]
fn place_follows_grant_epochs() {
    let block = 4 * 1024usize;
    let stride = SlotBuf::stride(block);
    let len = stride * 2;
    let fd = memfd_create(len).unwrap();
    let map = map_window(fd.as_raw_fd(), len).unwrap();
    let desc = WindowDesc {
        stride: stride as u64,
        window_len: len as u64,
        block_cap: block as u32,
        offsets: vec![0, stride as u64],
    };
    let snk_map = map_window(fd.as_raw_fd(), len).unwrap();
    let snk = SnkWindow::owned(snk_map, fd, desc.offsets.clone(), block as u32);
    let src = SrcWindow::new(map, &desc);

    let hdr = |seq: u32, slot: u32, len: u32| DataFrameHeader {
        session: 1,
        seq,
        slot,
        len,
    };
    let wire = |h: &DataFrameHeader| vec![0xC3u8; h.wire_len()];

    // Slot outside the table: typed error, not a wild write.
    let bad = hdr(0, 7, 16);
    assert!(src.place(&bad, &wire(&bad)).is_err());

    // Writing before any grant: slots start epoch-0 GRANTED in a
    // fresh window, so emulate a used slot by granting and
    // placing once first.
    snk.grant(0);
    let h0 = hdr(0, 0, 16);
    assert_eq!(src.place(&h0, &wire(&h0)).unwrap(), PlaceOutcome::Placed);
    snk.check_published(&h0).unwrap();

    // Watchdog duplicate of the same seq: renotify, no rewrite.
    assert_eq!(src.place(&h0, &wire(&h0)).unwrap(), PlaceOutcome::Renotify);
    snk.check_published(&h0).unwrap();

    // A newer block without a fresh grant is a protocol fault.
    let h2 = hdr(2, 0, 16);
    assert!(src.place(&h2, &wire(&h2)).is_err());

    // Re-grant, place the newer block, then a stale resend of
    // the *old* block must be dropped — this is exactly the
    // credits-overtake-acks race that could otherwise tear the
    // slot the sink is verifying.
    snk.grant(0);
    assert_eq!(src.place(&h2, &wire(&h2)).unwrap(), PlaceOutcome::Placed);
    assert_eq!(src.place(&h0, &wire(&h0)).unwrap(), PlaceOutcome::Stale);
    snk.check_published(&h2).unwrap();

    // The sink side refuses an epoch mismatch: grant again (the
    // word moves on) and the old notify must now fail the check.
    snk.grant(0);
    assert!(snk.check_published(&h2).is_err());
}

/// A descriptor whose fd is shorter than the window it claims
/// must produce a typed error at map time — never a mapping
/// that SIGBUSes on first write (the "sink crashed mid-setup"
/// ladder rung).
#[test]
fn short_window_fd_is_a_typed_error_not_a_sigbus() {
    let (a, b) = UnixStream::pair().unwrap();
    let stride = SlotBuf::stride(64 * 1024) as u64;
    let desc = WindowDesc {
        stride,
        window_len: stride * 16,
        block_cap: 64 * 1024,
        offsets: (0..16).map(|i| i * stride).collect(),
    };
    // The fd backs one page, not the claimed 16 strides.
    let short_fd = memfd_create(4096).unwrap();
    send_with_fd(&a, &desc.encode(), short_fd.as_raw_fd()).unwrap();
    let window = Arc::new(OnceLock::new());
    let mut rx = ShmCtrlRx::new(b, Arc::clone(&window));
    let err = rx.recv().unwrap_err();
    assert!(
        err.to_string().contains("refusing a mapping"),
        "want the typed map guard, got: {err}"
    );
    assert!(window.get().is_none());
}

/// A control stream that opens with an ordinary frame instead of
/// the descriptor (daemon busy/reject path) must flow through
/// frame decoding untouched.
#[test]
fn rejection_frame_instead_of_descriptor_decodes_normally() {
    let (a, b) = UnixStream::pair().unwrap();
    let mut rx = ShmCtrlRx::new(b, Arc::default());
    let tx = net::NetCtrlTx(Mutex::new(a));
    let busy = CtrlMsg::SessionBusy {
        session: 1,
        retry_after_ms: 50,
    };
    tx.send(&busy).unwrap();
    assert_eq!(rx.recv().unwrap(), Some(busy));
}

/// Full shm↔shm loopback transfer: pattern data, checksum
/// verified at the sink, zero transport threads either side —
/// and the place stage must be fence-cheap, far under the
/// copying backends.
#[test]
fn shm_pattern_transfer_loopback() {
    let cfg = LiveConfig::new(64 * 1024, 4, 8 << 20);
    let path = temp_sock("loop");
    let listener = ShmListener::bind(&path).unwrap();
    let src_cfg = cfg.clone();
    let src_path = path.clone();
    let src = std::thread::spawn(move || {
        let t = connect_source_shm(&src_path, src_cfg.channels)?;
        crate::split::run_split_source(&src_cfg, t)
    });
    let (sess, first) = listener.accept_session().unwrap();
    assert_eq!(sess.0.channels, cfg.channels);
    let snk = run_shm_sink(&cfg, sess, Some(first)).unwrap();
    let src = src.join().unwrap().unwrap();
    assert_eq!(snk.blocks, cfg.total_blocks());
    assert_eq!(snk.checksum_failures, 0, "output must be byte-identical");
    assert_eq!(src.transport_threads, 0, "source sends are stores");
    // One notify reader: arrivals, and so acks, keep the order the
    // source stored them in, so the ack stream never reads as a
    // loss.
    assert_eq!(snk.ooo_blocks, 0, "arrivals out of store order");
    assert_eq!(src.fast_retransmits, 0, "a clean run read as lossy");
    assert!(
        snk.stages.place_ns < 2_000.0,
        "zero-copy place should be fence-cheap, got {} ns/blk",
        snk.stages.place_ns
    );
}

/// Retransmits under fault injection must never tear a slot the
/// sink verified: the seq rule turns duplicates into re-notifies
/// and stale resends into drops, so the transfer still lands
/// byte-identical.
#[test]
fn fault_injected_retransmits_never_tear_slots() {
    let cfg = LiveConfig::new(16 * 1024, 4, 4 << 20);
    let path = temp_sock("fault");
    let listener = ShmListener::bind(&path).unwrap();
    let mut src_cfg = cfg.clone();
    src_cfg.fault_drop_p = 0.2;
    src_cfg.retx_timeout = Duration::from_millis(25);
    let src_path = path.clone();
    let src = std::thread::spawn(move || {
        let t = connect_source_shm(&src_path, src_cfg.channels)?;
        crate::split::run_split_source(&src_cfg, t)
    });
    let (sess, first) = listener.accept_session().unwrap();
    let snk = run_shm_sink(&cfg, sess, Some(first)).unwrap();
    let src = src.join().unwrap().unwrap();
    assert_eq!(snk.blocks, cfg.total_blocks());
    assert_eq!(snk.checksum_failures, 0, "no torn slots");
    assert!(src.retransmits > 0, "fault injector must have fired");
}

/// An shm session is one data link whatever its hello announces: eight
/// channels land byte-exact through one notify reader, and the sink
/// runs that reader plus its control pump — two transport threads, not
/// one per channel. Held under the one-shot sink and under the daemon's
/// shm way in.
#[test]
fn an_eight_channel_session_runs_one_receiver() {
    use crate::daemon::{Daemon, DaemonConfig};
    let cfg = LiveConfig::new(64 * 1024, 8, 4 << 20);
    let source = |path: PathBuf, cfg: LiveConfig| {
        std::thread::spawn(move || {
            let t = connect_source_shm(&path, cfg.channels)?;
            crate::split::run_split_source(&cfg, t)
        })
    };

    let path = temp_sock("eight");
    let listener = ShmListener::bind(&path).unwrap();
    let src = source(path, cfg.clone());
    let (sess, first) = listener.accept_session().unwrap();
    assert_eq!(
        sess.0.channels, 8,
        "the hello still announces every channel"
    );
    let one_shot = run_shm_sink(&cfg, sess, Some(first)).unwrap();
    src.join().unwrap().unwrap();

    let path = temp_sock("eight-daemon");
    let daemon_cfg = DaemonConfig {
        slot_cap: cfg.block_size,
        shm_path: Some(path.clone()),
        ..DaemonConfig::default()
    };
    let d = Daemon::bind("127.0.0.1:0", daemon_cfg).unwrap();
    let handle = d.handle();
    let daemon = std::thread::spawn(move || d.run());
    source(path, cfg.clone()).join().unwrap().unwrap();
    handle.shutdown();
    let report = daemon.join().unwrap().unwrap();
    assert_eq!(
        (report.completed, report.shm_sessions),
        (1, 1),
        "{report:?}"
    );
    let served = report.sessions[0].result.as_ref().unwrap();

    for snk in [&one_shot, served] {
        assert_eq!(snk.blocks, cfg.total_blocks());
        assert_eq!(snk.checksum_failures, 0, "output must be byte-identical");
        assert_eq!(
            snk.transport_threads, 2,
            "one notify reader + the control pump"
        );
    }
}
