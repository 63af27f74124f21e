//! Every sink engine checks every payload byte as it lands. A source
//! data link that sends one chosen block with one byte flipped — past
//! the first 64 KiB of the wire image, at an offset inside a word —
//! must make the sink count exactly that block as a checksum failure,
//! while every other block lands intact: threaded TCP, in process,
//! io_uring (where the kernel has it) and shm. A block shortened in both
//! its headers passes every byte check, so into a file destination it
//! would leave a hole: every engine must refuse it as `InvalidData`.
//!
//! On shm the loaders write each block straight into the sink's window,
//! and a send only publishes it, so there the corruption goes in through
//! the window the `register` hook returns: it edits the chosen block's
//! image as it is loaded.

use parking_lot::Mutex;
use rftp_core::wire::{DataFrameHeader, PayloadHeader, PAYLOAD_HEADER_LEN};
use rftp_live::net::{connect_source, NetListener};
use rftp_live::transport::{DataTx, LoadWindow};
use rftp_live::{
    accept_source_uring, channel_transport, connect_source_shm, run_shm_sink, run_split_sink,
    run_split_source, run_uring_sink, uring_supported, LiveConfig, LiveReport, ShmListener,
    SlotBuf, SourceTransport,
};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The sequence whose first send is corrupted.
const BAD_SEQ: u32 = 5;
/// Wire-image offset of the flipped byte: the 24-byte payload header,
/// one 64 KiB step, and 3 bytes into the next word.
const FLIP_AT: usize = 24 + 65_536 + 3;

/// Blocks in the transfer.
const BLOCKS: u64 = 16;

/// 256 KiB blocks: a block's image lands in several pieces on every
/// engine that copies, and the flip sits past the first of them.
fn cfg() -> LiveConfig {
    let mut cfg = LiveConfig::new(256 * 1024, 2, BLOCKS * 256 * 1024);
    cfg.pool_blocks = 8;
    cfg
}

/// Flip one byte of a wire image, or shorten it to `len` in its
/// payload header.
fn corrupt(wire: &mut [u8], shorten: Option<u32>) {
    let Some(len) = shorten else {
        wire[FLIP_AT] ^= 0x10;
        return;
    };
    let mut payload = PayloadHeader::decode(&wire[..PAYLOAD_HEADER_LEN]).unwrap();
    payload.len = len;
    payload.encode(&mut wire[..PAYLOAD_HEADER_LEN]);
}

/// A source data link that sends [`BAD_SEQ`]'s first frame through
/// [`DataTx::send`] as a copy with one byte flipped, and every other
/// frame as the link would. Behind a window ([`FlipLoad`] already
/// corrupted the loaded image) it only shortens the frame header.
struct FlipOne {
    links: Arc<Vec<Box<dyn DataTx>>>,
    ch: usize,
    flipped: Arc<AtomicBool>,
    /// Shorten the frame to this payload length, in both headers,
    /// instead of flipping a byte.
    shorten: Option<u32>,
    /// The `register` hook returned a window.
    windowed: Arc<AtomicBool>,
}

impl DataTx for FlipOne {
    fn send(&self, hdr: DataFrameHeader, wire: &[u8]) -> io::Result<()> {
        self.links[self.ch].send(hdr, wire)
    }

    fn send_block(
        &self,
        hdr: DataFrameHeader,
        bufs: &[Mutex<SlotBuf>],
        block: u32,
    ) -> io::Result<()> {
        if hdr.seq == BAD_SEQ && !self.flipped.swap(true, Ordering::AcqRel) {
            let short = DataFrameHeader {
                len: self.shorten.unwrap_or(hdr.len),
                ..hdr
            };
            if self.windowed.load(Ordering::Acquire) {
                return self.links[self.ch].send_block(short, bufs, block);
            }
            let mut wire = bufs[block as usize].lock()[..hdr.wire_len()].to_vec();
            corrupt(&mut wire, self.shorten);
            return self.links[self.ch].send(short, &wire[..short.wire_len()]);
        }
        self.links[self.ch].send_block(hdr, bufs, block)
    }

    fn kick(&self) -> io::Result<()> {
        self.links[self.ch].kick()
    }
}

fn flip_one(t: SourceTransport) -> SourceTransport {
    wrap(t, None)
}

/// [`BAD_SEQ`], not the last block, goes out 1 000 bytes long.
fn shorten_one(t: SourceTransport) -> SourceTransport {
    wrap(t, Some(1000))
}

/// A window whose load of [`BAD_SEQ`] leaves the image corrupted as
/// [`FlipOne`] would send it.
struct FlipLoad {
    inner: Arc<dyn LoadWindow>,
    shorten: Option<u32>,
}

impl LoadWindow for FlipLoad {
    fn load(
        &self,
        hdr: &DataFrameHeader,
        fill: &mut dyn FnMut(&mut [u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        if hdr.seq != BAD_SEQ {
            return self.inner.load(hdr, fill);
        }
        self.inner.load(hdr, &mut |room| {
            fill(room)?;
            corrupt(room, self.shorten);
            Ok(())
        })
    }
}

fn wrap(t: SourceTransport, shorten: Option<u32>) -> SourceTransport {
    let flipped = Arc::new(AtomicBool::new(false));
    let windowed = Arc::new(AtomicBool::new(false));
    let data = (0..t.data.len()).map(|ch| {
        Box::new(FlipOne {
            links: Arc::clone(&t.data),
            ch,
            flipped: Arc::clone(&flipped),
            shorten,
            windowed: Arc::clone(&windowed),
        }) as Box<dyn DataTx>
    });
    let data = Arc::new(data.collect());
    let inner_register = t.register;
    let register = move |bufs: &_| {
        let window = inner_register(bufs)?.map(|inner| {
            windowed.store(true, Ordering::Release);
            Arc::new(FlipLoad { inner, shorten }) as Arc<dyn LoadWindow>
        });
        Ok(window)
    };
    SourceTransport {
        data,
        register: Box::new(register),
        ..t
    }
}

/// One failure, and only the corrupted block's: the transfer still
/// completes with every block landed.
fn assert_one_failure(src: LiveReport, snk: LiveReport) {
    assert_eq!(snk.blocks, BLOCKS, "every block lands");
    assert_eq!(src.blocks, BLOCKS);
    assert_eq!(
        snk.checksum_failures, 1,
        "exactly the flipped block fails its check"
    );
}

#[test]
fn threaded_tcp_sink_catches_one_flipped_byte() {
    let cfg = cfg();
    let listener = NetListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let src_cfg = cfg.clone();
    let src = std::thread::spawn(move || {
        let t = flip_one(connect_source(addr, src_cfg.channels, 0)?);
        run_split_source(&src_cfg, t)
    });
    let (t, first) = listener.accept_session(0).unwrap();
    let snk = run_split_sink(&cfg, t, Some(first)).unwrap();
    assert_one_failure(src.join().unwrap().unwrap(), snk);
}

#[test]
fn in_process_sink_catches_one_flipped_byte() {
    let cfg = cfg();
    let (st, kt) = channel_transport(cfg.channels).unwrap();
    let st = flip_one(st);
    let (src, snk) = std::thread::scope(|s| {
        let sink = s.spawn(|| run_split_sink(&cfg, kt, None));
        let src = run_split_source(&cfg, st).unwrap();
        (src, sink.join().unwrap().unwrap())
    });
    assert_one_failure(src, snk);
}

#[test]
fn uring_sink_catches_one_flipped_byte() {
    if !uring_supported() {
        eprintln!("skipping: io_uring not supported by this kernel");
        return;
    }
    let cfg = cfg();
    let listener = NetListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let src_cfg = cfg.clone();
    let src = std::thread::spawn(move || {
        let t = flip_one(connect_source(addr, src_cfg.channels, 0)?);
        run_split_source(&src_cfg, t)
    });
    let (sess, first) = accept_source_uring(&listener, 0).unwrap();
    let snk = run_uring_sink(&cfg, sess, Some(first)).unwrap();
    assert_one_failure(src.join().unwrap().unwrap(), snk);
}

#[test]
fn shm_sink_catches_one_flipped_byte() {
    let cfg = cfg();
    let path = std::env::temp_dir().join(format!("rftp-flip-{}.sock", std::process::id()));
    let listener = ShmListener::bind(&path).unwrap();
    let src_cfg = cfg.clone();
    let src = std::thread::spawn(move || {
        let t = flip_one(connect_source_shm(&path, src_cfg.channels)?);
        run_split_source(&src_cfg, t)
    });
    let (sess, first) = listener.accept_session().unwrap();
    let snk = run_shm_sink(&cfg, sess, Some(first)).unwrap();
    assert_one_failure(src.join().unwrap().unwrap(), snk);
}

/// A file → file transfer of [`BLOCKS`] blocks for the `engine` test:
/// the source's and the sink's configurations, and both paths to remove.
fn file_pair(engine: &str) -> (LiveConfig, LiveConfig, [PathBuf; 2]) {
    let dir = std::env::temp_dir();
    let tag = format!("rftp-short-{}-{engine}", std::process::id());
    let (src, dst) = (
        dir.join(format!("{tag}.src")),
        dir.join(format!("{tag}.dst")),
    );
    let data: Vec<u8> = (0..BLOCKS as u32 * 256 * 1024)
        .map(|i| i.wrapping_mul(0x9E37_79B9).to_le_bytes()[3])
        .collect();
    std::fs::write(&src, data).unwrap();
    let (mut src_cfg, mut snk_cfg) = (cfg(), cfg());
    src_cfg.src_file = Some(src.clone());
    snk_cfg.dst_file = Some(dst.clone());
    (src_cfg, snk_cfg, [src, dst])
}

/// The sink refused the shortened block, and the source did not
/// succeed without it.
fn assert_refused(src: io::Result<LiveReport>, snk: io::Result<LiveReport>, files: [PathBuf; 2]) {
    for f in files {
        std::fs::remove_file(f).ok();
    }
    let err = snk.expect_err("the sink placed a short block");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    assert!(src.is_err(), "the source finished without the block");
}

// spec: [P7-frame-len]
#[test]
fn threaded_tcp_sink_refuses_a_short_block() {
    let (src_cfg, cfg, files) = file_pair("tcp");
    let listener = NetListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let src = std::thread::spawn(move || {
        let t = shorten_one(connect_source(addr, src_cfg.channels, 0)?);
        run_split_source(&src_cfg, t)
    });
    let (t, first) = listener.accept_session(0).unwrap();
    let snk = run_split_sink(&cfg, t, Some(first));
    assert_refused(src.join().unwrap(), snk, files);
}

// spec: [P7-frame-len]
#[test]
fn in_process_sink_refuses_a_short_block() {
    let (src_cfg, cfg, files) = file_pair("inproc");
    let (st, kt) = channel_transport(cfg.channels).unwrap();
    let st = shorten_one(st);
    let (src, snk) = std::thread::scope(|s| {
        let sink = s.spawn(|| run_split_sink(&cfg, kt, None));
        let src = run_split_source(&src_cfg, st);
        (src, sink.join().unwrap())
    });
    assert_refused(src, snk, files);
}

// spec: [P7-frame-len]
#[test]
fn uring_sink_refuses_a_short_block() {
    if !uring_supported() {
        eprintln!("skipping: io_uring not supported by this kernel");
        return;
    }
    let (src_cfg, cfg, files) = file_pair("uring");
    let listener = NetListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let src = std::thread::spawn(move || {
        let t = shorten_one(connect_source(addr, src_cfg.channels, 0)?);
        run_split_source(&src_cfg, t)
    });
    let (sess, first) = accept_source_uring(&listener, 0).unwrap();
    let snk = run_uring_sink(&cfg, sess, Some(first));
    assert_refused(src.join().unwrap(), snk, files);
}

// spec: [P7-frame-len]
#[test]
fn shm_sink_refuses_a_short_block() {
    let (src_cfg, cfg, files) = file_pair("shm");
    let path = std::env::temp_dir().join(format!("rftp-short-{}.sock", std::process::id()));
    let listener = ShmListener::bind(&path).unwrap();
    let src = std::thread::spawn(move || {
        let t = shorten_one(connect_source_shm(&path, src_cfg.channels)?);
        run_split_source(&src_cfg, t)
    });
    let (sess, first) = listener.accept_session().unwrap();
    let snk = run_shm_sink(&cfg, sess, Some(first));
    assert_refused(src.join().unwrap(), snk, files);
}
