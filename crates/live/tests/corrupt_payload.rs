//! Every sink engine checks every payload byte as it lands. A source
//! data link that sends one chosen block with one byte flipped — past
//! the first 64 KiB of the wire image, at an offset inside a word —
//! must make the sink count exactly that block as a checksum failure,
//! while every other block lands intact: threaded TCP, in process,
//! io_uring (where the kernel has it) and shm.

use parking_lot::Mutex;
use rftp_core::wire::DataFrameHeader;
use rftp_live::net::{connect_source, NetListener};
use rftp_live::transport::DataTx;
use rftp_live::{
    accept_source_uring, channel_transport, connect_source_shm, run_shm_sink, run_split_sink,
    run_split_source, run_uring_sink, uring_supported, LiveConfig, LiveReport, ShmListener,
    SlotBuf, SourceTransport,
};
use std::io;
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

/// A source data link that sends [`BAD_SEQ`]'s first frame through
/// [`DataTx::send`] as a copy with one byte flipped, and every other
/// frame as the link would.
struct FlipOne {
    links: Arc<Vec<Box<dyn DataTx>>>,
    ch: usize,
    flipped: Arc<AtomicBool>,
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
            let mut wire = bufs[block as usize].lock()[..hdr.wire_len()].to_vec();
            wire[FLIP_AT] ^= 0x10;
            return self.links[self.ch].send(hdr, &wire);
        }
        self.links[self.ch].send_block(hdr, bufs, block)
    }

    fn kick(&self) -> io::Result<()> {
        self.links[self.ch].kick()
    }
}

fn flip_one(t: SourceTransport) -> SourceTransport {
    let flipped = Arc::new(AtomicBool::new(false));
    let data = (0..t.data.len()).map(|ch| {
        Box::new(FlipOne {
            links: Arc::clone(&t.data),
            ch,
            flipped: Arc::clone(&flipped),
        }) as Box<dyn DataTx>
    });
    SourceTransport {
        data: Arc::new(data.collect()),
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
    let (st, kt) = channel_transport(cfg.channels, cfg.channel_depth);
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
