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

// spec: [P7.2-descriptor] [P7.2-slot-address] [P7.2-desc-validate]
#[test]
fn descriptor_roundtrips_and_validates() {
    let stride = SlotBuf::stride(64 * 1024) as u64;
    let desc = WindowDesc {
        slot_count: 4,
        stride,
        block_cap: 64 * 1024,
    };
    desc.validate().unwrap();
    let bytes = desc.encode();
    assert_eq!(bytes.len(), DESC_HEAD_LEN);
    assert_eq!(&bytes[..2], &DESC_MAGIC.to_be_bytes());
    let head: [u8; DESC_HEAD_LEN - 2] = bytes[2..].try_into().unwrap();
    assert_eq!(decode_desc_head(&head).unwrap(), desc);
    assert_eq!(desc.window_len() as u64, 4 * stride);

    // Misaligned stride, cap beyond the slot's payload room, no slots:
    // each refused before any mapping.
    let mut bad = desc.clone();
    bad.stride += 1;
    assert!(bad.validate().is_err());
    let mut bad = desc.clone();
    bad.block_cap = (bad.stride - STORE_ALIGN as u64 + 1) as u32;
    assert!(bad.validate().is_err());
    let mut bad = desc.clone();
    bad.slot_count = 0;
    assert!(bad.validate().is_err());

    // `slot_count × stride` past the 1 TiB window cap, and past u64:
    // refused, not wrapped into a small window.
    let mut bad = desc.clone();
    bad.slot_count = 1 << 20;
    bad.stride = 2 << 20;
    let err = bad.validate().unwrap_err();
    assert!(err.to_string().contains("window cap"), "{err}");
    bad.stride = u64::MAX - (STORE_ALIGN as u64 - 1);
    assert!(bad.validate().is_err());

    // A version-1 head (it carried a window length and an offset
    // table) is refused by its version field.
    let mut v1 = head;
    v1[..2].copy_from_slice(&1u16.to_be_bytes());
    let err = decode_desc_head(&v1).unwrap_err();
    assert!(err.to_string().contains("version 1 unsupported"), "{err}");
}

/// An fd whose size cannot be read (here: a socket) must be a
/// typed error — falling through to mmap would silently lose
/// the short-fd SIGBUS guard.
// spec: [P7.2-desc-validate]
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
// spec: [P7.2-publish-epoch]
#[test]
fn place_follows_grant_epochs() {
    let block = 4 * 1024usize;
    let stride = SlotBuf::stride(block);
    let len = stride * 2;
    let fd = memfd_create(len).unwrap();
    let map = map_window(fd.as_raw_fd(), len).unwrap();
    let desc = WindowDesc {
        slot_count: 2,
        stride: stride as u64,
        block_cap: block as u32,
    };
    let snk_map = map_window(fd.as_raw_fd(), len).unwrap();
    let snk = SnkWindow::new(Arc::new(snk_map), &desc);
    let src = SrcWindow::new(Arc::new(map), &desc);

    let hdr = |seq: u32, slot: u32, len: u32| DataFrameHeader {
        session: 1,
        seq,
        slot,
        len,
    };
    let wire = |h: &DataFrameHeader| vec![0xC3u8; h.wire_len()];

    // Slot outside the window: typed error, not a wild write.
    let bad = hdr(0, 7, 16);
    assert!(src.place(&bad, &wire(&bad)).is_err());

    // Writing before any grant: a fresh window's slots are not
    // granted, so the place is refused.
    let h0 = hdr(0, 0, 16);
    assert!(src.place(&h0, &wire(&h0)).is_err());
    snk.grant(0);
    assert_eq!(src.place(&h0, &wire(&h0)).unwrap(), PlaceOutcome::Placed);
    snk.check_published(&h0).unwrap();

    // A re-sent duplicate of the same seq: renotify, no rewrite.
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

/// A source window and the sink's view of the same memfd: `slots`
/// slots of `block` payload bytes.
fn window_pair(slots: u32, block: usize) -> (SrcWindow, SnkWindow) {
    let stride = SlotBuf::stride(block);
    let len = stride * slots as usize;
    let fd = memfd_create(len).unwrap();
    let desc = WindowDesc {
        slot_count: slots,
        stride: stride as u64,
        block_cap: block as u32,
    };
    let src_map = map_window(fd.as_raw_fd(), len).unwrap();
    let snk_map = map_window(fd.as_raw_fd(), len).unwrap();
    let src = SrcWindow::new(Arc::new(src_map), &desc);
    (src, SnkWindow::new(Arc::new(snk_map), &desc))
}

/// The first `n` bytes of `slot`'s wire image, as the sink sees them.
fn slot_bytes(snk: &SnkWindow, slot: u32, n: usize) -> Vec<u8> {
    // SAFETY: `n` is within the slot's wire image in the sink's live
    // mapping, and no thread writes the window during the read.
    unsafe { std::slice::from_raw_parts(snk.wire_at(slot), n) }.to_vec()
}

/// A loader's two steps: load writes the image into the granted slot
/// and leaves it unpublished until the send publishes it. A slot
/// whose word is not `GRANTED` — still being written, published, or a
/// seq the slot already held — is a typed error, and `fill` never runs:
/// not a byte of the slot changes.
// spec: [P7.2-load-needs-granted]
#[test]
fn a_load_needs_a_granted_slot_and_writes_nothing_otherwise() {
    let (src, snk) = window_pair(2, 4096);
    let hdr = |seq: u32| DataFrameHeader {
        session: 1,
        seq,
        slot: 0,
        len: 16,
    };
    let fill_with = |byte: u8| {
        move |room: &mut [u8]| -> std::io::Result<()> {
            room[..hdr(0).wire_len()].fill(byte);
            Ok(())
        }
    };
    snk.grant(0);
    let room_len = std::cell::Cell::new(0);
    let h0 = hdr(0);
    src.load(&h0, &mut |room| {
        room_len.set(room.len());
        fill_with(0xA5)(room)
    })
    .unwrap();
    assert_eq!(room_len.get(), SlotBuf::stride(4096) - STORE_ALIGN + 24);
    // Loaded, not yet published: the sink must not trust it.
    assert!(snk.check_published(&h0).is_err());
    let before = slot_bytes(&snk, 0, h0.wire_len());
    assert_eq!(before, vec![0xA5; h0.wire_len()]);

    let refused = |h: &DataFrameHeader| {
        let mut called = false;
        let err = src
            .load(h, &mut |room| {
                called = true;
                fill_with(0x5A)(room)
            })
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(!called, "fill ran on a refused slot");
        assert_eq!(slot_bytes(&snk, 0, h0.wire_len()), before, "a byte changed");
    };
    // WRITING: a second block into the slot before any re-grant.
    refused(&hdr(1));
    assert_eq!(src.publish(&h0).unwrap(), PlaceOutcome::Placed);
    snk.check_published(&h0).unwrap();
    // PUBLISHED: still no re-grant.
    refused(&hdr(2));
    // Granted again, but for a seq no newer than the slot's last.
    snk.grant(0);
    refused(&h0);
    // Outside the window.
    let mut far = hdr(3);
    far.slot = 9;
    assert!(src.load(&far, &mut fill_with(0)).is_err());
}

/// A re-send whose slot the sink has re-granted since is stale: it
/// publishes nothing and notifies nothing, the slot's word stays
/// `GRANTED` for the next loader, and the bytes stay as they were.
// spec: [P6-original-credit] [P7.2-resend]
#[test]
fn a_resend_after_the_regrant_is_stale_and_leaves_the_slot() {
    let (src, snk) = window_pair(1, 4096);
    let hdr = |seq: u32| DataFrameHeader {
        session: 1,
        seq,
        slot: 0,
        len: 32,
    };
    let h0 = hdr(0);
    snk.grant(0);
    src.load(&h0, &mut |room| {
        room[..h0.wire_len()].fill(0x11);
        Ok(())
    })
    .unwrap();
    assert_eq!(src.publish(&h0).unwrap(), PlaceOutcome::Placed);
    assert_eq!(src.publish(&h0).unwrap(), PlaceOutcome::Renotify);
    let bytes = slot_bytes(&snk, 0, h0.wire_len());

    snk.grant(0);
    assert_eq!(src.publish(&h0).unwrap(), PlaceOutcome::Stale);
    assert_eq!(slot_bytes(&snk, 0, h0.wire_len()), bytes);
    assert!(
        snk.check_published(&h0).is_err(),
        "a stale re-send published"
    );
    // The word is still the grant: the next block loads and publishes
    // under it, and the old seq stays stale after that too.
    let h1 = hdr(1);
    src.load(&h1, &mut |room| {
        room[..h1.wire_len()].fill(0x22);
        Ok(())
    })
    .unwrap();
    assert_eq!(src.publish(&h0).unwrap(), PlaceOutcome::Stale);
    assert_eq!(src.publish(&h1).unwrap(), PlaceOutcome::Placed);
    snk.check_published(&h1).unwrap();
    // A seq never loaded into the slot cannot be published.
    assert!(src.publish(&hdr(5)).is_err());
}

/// A file → file transfer over shm whose last block is ragged lands
/// byte-identical with `O_DIRECT` reads on and off: the loaders read
/// straight into the window's slots, whose payloads are aligned, and
/// the tail through the buffered fallback.
// spec: [P7.2-credit-is-rkey]
#[test]
fn shm_file_transfer_with_a_ragged_tail_is_byte_identical() {
    let size = (3 << 20) + 777;
    let data: Vec<u8> = (0..size as u32)
        .map(|i| i.wrapping_mul(0x9E37_79B9).to_le_bytes()[3])
        .collect();
    for direct in [false, true] {
        let dir = std::env::temp_dir();
        let tag = format!("rftp-shm-file-{}-{direct}", std::process::id());
        let (src_file, dst_file) = (
            dir.join(format!("{tag}.src")),
            dir.join(format!("{tag}.dst")),
        );
        std::fs::write(&src_file, &data).unwrap();
        let mut cfg = LiveConfig::new(64 * 1024, 2, size as u64);
        cfg.direct_io = direct;
        let mut src_cfg = cfg.clone();
        src_cfg.src_file = Some(src_file.clone());
        cfg.dst_file = Some(dst_file.clone());
        let path = temp_sock("file");
        let listener = ShmListener::bind(&path).unwrap();
        let src = std::thread::spawn(move || {
            let t = connect_source_shm(&path, src_cfg.channels)?;
            crate::split::run_split_source(&src_cfg, t)
        });
        let (sess, first) = listener.accept_session().unwrap();
        let snk = run_shm_sink(&cfg, sess, Some(first));
        let src = src.join().unwrap();
        let got = std::fs::read(&dst_file);
        std::fs::remove_file(&src_file).ok();
        std::fs::remove_file(&dst_file).ok();
        let (src, snk) = (src.unwrap(), snk.unwrap());
        assert_eq!(
            (src.blocks, snk.blocks),
            (cfg.total_blocks(), cfg.total_blocks())
        );
        assert!(got.unwrap() == data, "direct_io {direct}: the copy differs");
    }
}

/// A descriptor whose fd is shorter than the window it claims
/// must produce a typed error at map time — never a mapping
/// that SIGBUSes on first write (the "sink crashed mid-setup"
/// ladder rung).
// spec: [P7.2-desc-validate]
#[test]
fn short_window_fd_is_a_typed_error_not_a_sigbus() {
    let (a, b) = UnixStream::pair().unwrap();
    let stride = SlotBuf::stride(64 * 1024) as u64;
    let desc = WindowDesc {
        slot_count: 16,
        stride,
        block_cap: 64 * 1024,
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
// spec: [P7.2-busy-fallthrough]
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
/// and the median block's place stage must be fence-cheap, far under the
/// copying backends.
// spec: [P7.2-notify-record]
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
    // The median block, not the mean: one descheduled receiver can
    // hold a block for milliseconds, while a copy slows every block.
    let place = snk.tails.place.p50();
    assert!(
        place < 2_000.0,
        "zero-copy place should be fence-cheap, got a median {place} ns/blk"
    );
}

/// Retransmits under fault injection must never tear a slot the
/// sink verified: the seq rule turns duplicates into re-notifies
/// and stale resends into drops, so the transfer still lands
/// byte-identical.
// spec: [P7.2-notify-record] [P7.2-resend] [P7.2-dup-notify]
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
// spec: [P7.2-streams]
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

/// The sink's unix socket is created owner-only, and a source pointed
/// at a path nobody listens on gets a typed connect error: there is no
/// fallback to TCP.
// spec: [P7.2-no-fallback] [P7.2-owner-only]
#[test]
fn the_socket_is_owner_only_and_a_missing_one_is_a_connect_error() {
    use std::os::unix::fs::PermissionsExt;
    let path = temp_sock("mode");
    let listener = ShmListener::bind(&path).unwrap();
    let mode = std::fs::metadata(&path).unwrap().permissions().mode();
    assert_eq!(mode & 0o777, 0o600, "mode {mode:o}");
    drop(listener);
    let err = connect_source_shm(&path, 1).err().expect("nobody listens");
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "{err}");
}
