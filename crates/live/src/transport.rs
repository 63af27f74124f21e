//! Pluggable transport under the split (two-endpoint) pipeline.
//!
//! The split pipeline ([`crate::split`]) runs the source and sink halves
//! of a transfer as independent endpoints that talk *only* through this
//! layer: one control link carrying length-prefixed Fig. 7(a) frames in
//! both directions, plus N data links — one per parallel data channel —
//! carrying bulk frames ([`DataFrameHeader`] + wire image) one way,
//! source to sink. Two of its backends:
//!
//! * **in process** ([`channel_transport`]) — both halves in one
//!   process, the loopback of the suite and the transport under
//!   [`crate::run_live`]: shm's window endpoints ([`crate::shm`]) with
//!   their control and notify streams on socketpairs and the window one
//!   anonymous mapping, so a loader writes each block straight into the
//!   credited sink slot and a data frame is its 16-byte notify record —
//!   the one-sided RDMA WRITE analogue, with no copy.
//! * **TCP** ([`crate::net`]) — real stream sockets, one per link, so
//!   the two halves can run as separate OS processes on separate hosts.
//!
//! Send sides are `&self` (internally synchronized), though after the
//! `SessionRequest` one source thread, its sender, makes every send
//! call; a link may still hand frames to threads of its own (a WAN delay
//! line). Receive sides are `&mut self` — exactly one thread drains each
//! link.

use crate::net::NetCtrlRx;
use crate::shm::{in_process, window_sink, window_source, SourceView};
use crate::store::{BlockPool, SlotBuf};
use parking_lot::Mutex;
use rftp_core::pattern::pattern_matches_at;
use rftp_core::wire::{CtrlMsg, DataFrameHeader, PayloadHeader, PAYLOAD_HEADER_LEN};
use std::io;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Instant;

/// The pinned block pool as a transport sees it: slot index → locked
/// slot buffer, shared between the pipeline and any in-flight sends.
pub type BufPool = Arc<BlockPool>;

/// The pool-registration hook of a [`SourceTransport`]. A one-sided
/// transport answers with its window ([`LoadWindow`]), and the loaders
/// then write each block straight into a credited sink slot instead of
/// the pool; every other transport answers `None`.
pub type RegisterFn = Box<dyn Fn(&BufPool) -> io::Result<Option<Arc<dyn LoadWindow>>> + Send>;

/// A one-sided transport's window as the source's loaders see it: each
/// credited sink slot is a place to load a block, so the bytes reach
/// the sink without a source-side copy. A block loaded here is then
/// sent with [`DataTx::send_block`] under the same header, which only
/// publishes it; the `bufs` and `block` it is given are bookkeeping.
pub trait LoadWindow: Send + Sync {
    /// Load block `hdr.seq` into sink slot `hdr.slot`: claim the slot
    /// inside its grant, then let `fill` write the wire image (payload
    /// header + payload) into the slice it is given — the slot's whole
    /// payload room, so an aligned read of a short tail fits. A slot the
    /// sink has not granted is an `InvalidData` error, and nothing is
    /// written.
    fn load(
        &self,
        hdr: &DataFrameHeader,
        fill: &mut dyn FnMut(&mut [u8]) -> io::Result<()>,
    ) -> io::Result<()>;
}

/// Sending side of the control link. Implementations serialize whole
/// frames internally — a frame from one thread never interleaves with
/// another's.
pub trait CtrlTx: Send + Sync {
    fn send(&self, msg: &CtrlMsg) -> io::Result<()>;

    /// The sink's slot memory, when the transport brings it: a window of
    /// `slots` slots for `block_size` payload bytes that the source's
    /// loaders write into, opened by the sink's control sender because
    /// the credits it sends grant those slots. The sink calls this once,
    /// before its first credit leaves — the window's rule (PROTOCOL
    /// §7.2) — and lands every block in place. `None`, the default: the
    /// sink lands blocks in a pool of its own.
    fn open_window(&self, _slots: u32, _block_size: usize) -> io::Result<Option<BlockPool>> {
        Ok(None)
    }
}

/// Receiving side of the control link. `Ok(None)` is clean end-of-stream
/// (the peer closed at a frame boundary); a torn frame is an error.
pub trait CtrlRx: Send {
    fn recv(&mut self) -> io::Result<Option<CtrlMsg>>;
}

/// Sending side of one data link: ships one block as a frame header plus
/// the block's wire image (payload header + payload). Frames leave a
/// link in the order they were handed to it, whichever of the calls
/// below handed them over.
pub trait DataTx: Send + Sync {
    /// Ship a borrowed wire image, behind anything already queued on
    /// the link. The bytes are not referenced after the call returns
    /// (written, or copied).
    fn send(&self, hdr: DataFrameHeader, wire: &[u8]) -> io::Result<()>;

    /// Ship one block of the registered pool `bufs`. A stream backend
    /// *queues* the block by reference until [`DataTx::kick`] — legal
    /// because the block stays pinned until its ack retires it, no ack
    /// can come before the frame is written, and a retransmit rewrites
    /// byte-identical contents. A link whose transport returned a
    /// [`LoadWindow`] from `register` publishes the block the loader
    /// already wrote into its sink slot.
    fn send_block(
        &self,
        hdr: DataFrameHeader,
        bufs: &[Mutex<SlotBuf>],
        block: u32,
    ) -> io::Result<()>;

    /// Write everything [`DataTx::send_block`] queued since the last
    /// kick — called once per sender drain, so a queueing backend
    /// pays one kernel crossing per *batch* of blocks (the doorbell):
    /// one `io_uring_enter` on the ring, one `writev` per link on TCP.
    /// A backend that writes in every call has nothing queued; for it
    /// this is a no-op.
    fn kick(&self) -> io::Result<()> {
        Ok(())
    }
}

/// Receiving side of one data link. Split in two so placement is
/// zero-copy: [`DataRx::recv_header`] yields the frame header naming the
/// credited slot, then exactly one of [`DataRx::recv_wire`] /
/// [`DataRx::recv_wire_checked`] (read the wire image straight into that
/// slot's buffer) or [`DataRx::discard_wire`] (duplicate arrival —
/// consume the bytes without placing them) must follow.
///
/// The sink reads through [`DataRx::recv_wire_checked`], so the thread
/// that lands a block's bytes also checks them ([`Landing`]). A backend
/// that copies the image in pieces overrides it to check each piece
/// right after it lands, while the piece is still in this core's cache:
/// the TCP link after every `read`. The default checks the whole image
/// once [`DataRx::recv_wire`] returns — right for a window link, which
/// copies nothing (shm, and the in-process pair), and for wrappers that
/// only implement `recv_wire`.
pub trait DataRx: Send {
    /// Next frame's header; `Ok(None)` at clean end-of-stream.
    fn recv_header(&mut self) -> io::Result<Option<DataFrameHeader>>;
    /// Read the frame's wire image into `buf` (exactly `hdr.wire_len()`
    /// bytes).
    fn recv_wire(&mut self, buf: &mut [u8]) -> io::Result<()>;
    /// [`DataRx::recv_wire`], telling `land` about the bytes as they
    /// land: each call of [`Landing::advance`] names a longer prefix of
    /// `buf` that is in place, the last one all of it.
    fn recv_wire_checked(&mut self, buf: &mut [u8], land: &mut Landing) -> io::Result<()> {
        self.recv_wire(buf)?;
        land.advance(buf, buf.len());
        Ok(())
    }
    /// Consume and drop the frame's wire image.
    fn discard_wire(&mut self, wire_len: usize) -> io::Result<()>;
}

/// The check of one admitted frame's wire image, made piece by piece as
/// the image lands — on the receiving thread, while each piece is still
/// in its cache — so no later pass reads the block again. It holds the
/// 24-byte [`PayloadHeader`] to the frame header (session, sequence,
/// length) and compares each payload byte with the pattern stream for
/// the block's seed ([`pattern_matches_at`]); without a seed (a file
/// destination) it checks the header only.
pub struct Landing {
    hdr: DataFrameHeader,
    seed: Option<u64>,
    /// Bytes of the wire image already checked.
    checked: usize,
    /// No checked byte has differed so far.
    ok: bool,
    ns: u64,
}

impl Landing {
    /// The check of the frame `hdr` names; `seed` is its block's pattern
    /// seed, `None` to check the header only.
    pub fn new(hdr: &DataFrameHeader, seed: Option<u64>) -> Landing {
        Landing {
            hdr: *hdr,
            seed,
            checked: 0,
            ok: true,
            ns: 0,
        }
    }

    /// `image[..landed]` is now in place: check what landed since the
    /// last call — the payload header once all 24 bytes are in, each
    /// newly landed payload range against the pattern at its offset.
    pub fn advance(&mut self, image: &[u8], landed: usize) {
        // A header still short of its 24 bytes waits for the call that
        // completes it.
        if landed <= self.checked || landed < PAYLOAD_HEADER_LEN {
            return;
        }
        let t0 = Instant::now();
        if self.checked == 0 {
            let want = &self.hdr;
            self.ok &= PayloadHeader::decode(&image[..PAYLOAD_HEADER_LEN])
                .is_ok_and(|h| h.session == want.session && h.seq == want.seq && h.len == want.len);
        }
        if let Some(seed) = self.seed {
            let start = self.checked.max(PAYLOAD_HEADER_LEN);
            let offset = start - PAYLOAD_HEADER_LEN;
            self.ok &= pattern_matches_at(&image[start..landed], seed, offset);
        }
        self.checked = landed;
        self.ns += t0.elapsed().as_nanos() as u64;
    }

    /// Whether the whole image landed and every byte of it checked out:
    /// a receiver that stopped telling the check about its bytes leaves
    /// the block failed, never passed unread.
    pub fn intact(&self) -> bool {
        self.ok && self.checked == self.hdr.wire_len()
    }

    /// Nanoseconds spent checking.
    pub fn check_ns(&self) -> u64 {
        self.ns
    }
}

/// Ring-level counters a completion-based (io_uring) backend reports
/// alongside its [`crate::pipeline::LiveReport`] — the syscall shape the
/// backend exists to improve, recorded instead of eyeballed. Stream
/// backends report `None`; on the shared daemon driver the counters are
/// ring totals across every session the driver served.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UringStats {
    /// `io_uring_enter` calls on the sink/source ring.
    pub enters: u64,
    /// CQEs reaped. The sink spends ≈ 2 per block: a header read and
    /// a `READ_FIXED` of the wire image into the credited slot.
    pub cqes: u64,
    /// Always 0 — the sink has no multishot receive. Kept only because
    /// the repo benchmark reads it.
    pub multishot_rearms: u64,
    /// Always 0 — the sink has no multishot receive. Kept only because
    /// the repo benchmark reads it.
    pub pbuf_exhausted: u64,
    /// `IORING_REGISTER_BUFFERS` calls on this ring. A daemon's shared
    /// ring registers the whole arena exactly once at startup; this
    /// staying at 1 across admissions is a regression guard against
    /// per-session re-registration.
    pub registrations: u64,
}

/// The source half's endpoints. `data` is shared (`Arc`) so a wrapper —
/// the WAN shim, a test's link — can hold the links it wraps.
pub struct SourceTransport {
    pub ctrl_tx: Arc<dyn CtrlTx>,
    pub ctrl_rx: Box<dyn CtrlRx>,
    pub data: Arc<Vec<Box<dyn DataTx>>>,
    /// Hand the pinned source block pool to the transport before the
    /// transfer starts. A completion-based backend registers the slots
    /// as fixed buffers (the MR-registration analogue — the kernel pins
    /// and maps them once instead of per operation) so
    /// [`DataTx::send_block`] can reference them by index; the TCP
    /// backend keeps it to queue blocks by index until the kick. A window
    /// backend (shm, in process) returns its window instead, and the
    /// pool is never written.
    pub register: RegisterFn,
    /// Threads this transport runs for the data path beyond the
    /// pipeline's own (0 for the channel and TCP backends — the
    /// sender's send or kick *is* the wire write; 1 for a
    /// completion-based backend's ring reaper). Reported so the
    /// O(channels) → O(1) claim is checkable from a bench run.
    pub transport_threads: usize,
    /// Half-close the source→sink direction of every link (control and
    /// data). Called once, after the sink's end-of-stream: the sink has
    /// closed its side by then, so this only lets go of the links.
    pub shutdown_write: Box<dyn Fn() + Send>,
    /// Tear every link down (error paths only): any peer or local thread
    /// blocked on a link errors out instead of hanging. Shared so the
    /// first failing thread can release all the others.
    pub abort: Arc<dyn Fn() + Send + Sync>,
}

/// The sink half's endpoints. A transport that brings the sink's slot
/// memory — a window the source loads into — hands it over through its
/// control sender ([`CtrlTx::open_window`]).
pub struct SinkTransport {
    pub ctrl_tx: Arc<dyn CtrlTx>,
    pub ctrl_rx: Box<dyn CtrlRx>,
    pub data: Vec<Box<dyn DataRx>>,
    /// Tear every link down, releasing the blocked readers: on an
    /// error, and on success once the session is done — the last ack is
    /// already written and leaves ahead of the control stream's
    /// end-of-stream, so the sink never waits for the source to hang up.
    /// Shared so any failing sink thread can pull it.
    pub abort: Arc<dyn Fn() + Send + Sync>,
}

/// Build a connected in-process transport pair: shm's window endpoints
/// ([`crate::shm`]) with their links on socketpairs — one control
/// stream, one notify stream that each of the source's `channels` data
/// links rings, and one sink receiver — and the window one anonymous
/// mapping whose source view is installed in memory, with no memfd and
/// no `SCM_RIGHTS`.
///
/// The sink's control sender opens the window ([`CtrlTx::open_window`]),
/// the source's `register` hook returns it to the loaders, and
/// [`DataTx::send_block`] publishes the block the loader wrote into its
/// credited slot and writes its notify record — so no byte of a block
/// is copied after it is loaded. Running out of descriptors is an error.
pub fn channel_transport(channels: usize) -> io::Result<(SourceTransport, SinkTransport)> {
    let (src_ctrl, snk_ctrl) = UnixStream::pair()?;
    let (src_notify, snk_notify) = UnixStream::pair()?;
    let view = SourceView::default();
    let ctrl_rx = Box::new(NetCtrlRx::new(src_ctrl.try_clone()?));
    let source = window_source(src_ctrl, ctrl_rx, src_notify, channels, Arc::clone(&view))?;
    Ok((source, window_sink(snk_ctrl, snk_notify, in_process(view))?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_ctrl_roundtrip_and_eof() {
        let (src, mut snk) = channel_transport(1).unwrap();
        src.ctrl_tx
            .send(&CtrlMsg::MrRequest { session: 3 })
            .unwrap();
        assert_eq!(
            snk.ctrl_rx.recv().unwrap(),
            Some(CtrlMsg::MrRequest { session: 3 })
        );
        (src.shutdown_write)();
        assert_eq!(snk.ctrl_rx.recv().unwrap(), None);
        assert!(src
            .ctrl_tx
            .send(&CtrlMsg::MrRequest { session: 3 })
            .is_err());
    }

    /// Payload bytes per slot in the window tests.
    const BLOCK: usize = 4096;

    /// An in-process pair with its window open at `slots` slots of
    /// [`BLOCK`] bytes: the sink's slot views and the window the
    /// source's loaders write into.
    fn windowed(
        channels: usize,
        slots: u32,
    ) -> (
        SourceTransport,
        SinkTransport,
        BlockPool,
        Arc<dyn LoadWindow>,
    ) {
        let (src, snk) = channel_transport(channels).unwrap();
        let pool = (snk.ctrl_tx.open_window(slots, BLOCK).unwrap())
            .expect("the in-process sink lands blocks in a window");
        let bookkeeping: BufPool = Arc::new(BlockPool::new(1, BLOCK));
        let window = ((src.register)(&bookkeeping).unwrap())
            .expect("the in-process source loads into the window");
        (src, snk, pool, window)
    }

    /// Grant `slots` the way the sink does: a credit leaving its
    /// control link grants each slot's generation word first.
    fn grant(snk: &SinkTransport, slots: &[u32]) {
        let credit = CtrlMsg::CreditBatch {
            session: 1,
            rkey: 0,
            slot_len: 0,
            slots: slots.to_vec(),
        };
        snk.ctrl_tx.send(&credit).unwrap();
    }

    /// The header of `seq` in `slot`, a full block long.
    fn block_hdr(seq: u32, slot: u32) -> DataFrameHeader {
        DataFrameHeader {
            session: 1,
            seq,
            slot,
            len: BLOCK as u32,
        }
    }

    /// Load `hdr`'s image as `byte`s into its slot, as a loader does.
    fn load(window: &dyn LoadWindow, hdr: &DataFrameHeader, byte: u8) -> io::Result<()> {
        window.load(hdr, &mut |room| {
            room[..hdr.wire_len()].fill(byte);
            Ok(())
        })
    }

    /// The wire image in the sink's slot `slot`.
    fn slot_image(pool: &BlockPool, hdr: &DataFrameHeader) -> Vec<u8> {
        pool[hdr.slot as usize].lock()[..hdr.wire_len()].to_vec()
    }

    /// The header comes first and names the slot; the image is already
    /// in that slot, so reading it only checks its publication. A
    /// second send of the same sequence is a record with nothing
    /// behind it to discard.
    // spec: [P7-route-before-read]
    #[test]
    fn channel_data_place_and_discard() {
        let (src, mut snk, pool, _) = windowed(2, 4);
        grant(&snk, &[2]);
        let hdr = DataFrameHeader {
            session: 1,
            seq: 0,
            slot: 2,
            len: 8,
        };
        let wire: Vec<u8> = (0..hdr.wire_len() as u8).collect();
        src.data[0].send(hdr, &wire).unwrap();
        src.data[0].send(hdr, &wire).unwrap();
        let got = snk.data[0].recv_header().unwrap().unwrap();
        assert_eq!(got, hdr);
        snk.data[0]
            .recv_wire(&mut pool[2].lock()[..got.wire_len()])
            .unwrap();
        assert_eq!(slot_image(&pool, &hdr), wire);
        let got = snk.data[0].recv_header().unwrap().unwrap();
        snk.data[0].discard_wire(got.wire_len()).unwrap();
        (src.shutdown_write)();
        assert!(snk.data[0].recv_header().unwrap().is_none());
    }

    /// A frame's image, payload header and `len` pattern bytes.
    fn image(hdr: &DataFrameHeader, seed: u64) -> Vec<u8> {
        let mut wire = vec![0u8; hdr.wire_len()];
        PayloadHeader {
            session: hdr.session,
            seq: hdr.seq,
            offset: 0,
            len: hdr.len,
        }
        .encode(&mut wire[..PAYLOAD_HEADER_LEN]);
        rftp_core::pattern::fill_pattern(&mut wire[PAYLOAD_HEADER_LEN..], seed);
        wire
    }

    /// Land `wire` in pieces ending at each of `cuts`, checking as it goes.
    fn land_in(hdr: &DataFrameHeader, seed: Option<u64>, wire: &[u8], cuts: &[usize]) -> bool {
        let mut land = Landing::new(hdr, seed);
        for &end in cuts {
            land.advance(wire, end);
        }
        land.intact()
    }

    /// The piecewise check passes an intact image however it is cut —
    /// the header split across pieces too — and fails one flipped
    /// payload byte in any piece, a payload header naming another
    /// block, and an image that was never wholly reported.
    #[test]
    fn landing_checks_every_piece_and_the_header() {
        let hdr = DataFrameHeader {
            session: 1,
            seq: 9,
            slot: 0,
            len: 100,
        };
        let wire = image(&hdr, 77);
        let cuts = [5, 24, 30, 77, 77, 124];
        assert!(land_in(&hdr, Some(77), &wire, &cuts));
        assert!(land_in(&hdr, Some(77), &wire, &[124]));
        for k in [24, 29, 30, 31, 76, 77, 123] {
            let mut bad = wire.clone();
            bad[k] ^= 0x04;
            assert!(!land_in(&hdr, Some(77), &bad, &cuts), "flip at {k}");
        }
        assert!(!land_in(&hdr, Some(78), &wire, &cuts), "another seed");
        assert!(!land_in(&hdr, Some(77), &wire, &cuts[..4]), "short");
        let other = DataFrameHeader { seq: 10, ..hdr };
        assert!(!land_in(&other, Some(77), &wire, &cuts), "another seq");

        // No seed (a file destination): the header alone is checked.
        let mut file = wire.clone();
        file[60] ^= 0xFF;
        assert!(land_in(&hdr, None, &file, &cuts));
        file[6] ^= 0x01;
        assert!(!land_in(&hdr, None, &file, &cuts), "header seq byte");
    }

    /// A load into a slot the sink has not granted — never granted, or
    /// published and not granted again — is `InvalidData`, the loader's
    /// fill never runs, not a byte of the slot changes, and nothing
    /// reaches the sink.
    // spec: [P7.2-load-needs-granted]
    #[test]
    fn a_load_into_an_ungranted_slot_is_refused_and_writes_nothing() {
        let (src, mut snk, pool, window) = windowed(1, 2);
        let refused = |hdr: &DataFrameHeader| {
            let before = slot_image(&pool, hdr);
            let mut called = false;
            let err = window
                .load(hdr, &mut |_| {
                    called = true;
                    Ok(())
                })
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(!called, "the fill ran on a refused slot");
            assert_eq!(slot_image(&pool, hdr), before, "a byte changed");
        };
        refused(&block_hdr(0, 1));
        grant(&snk, &[0]);
        let first = block_hdr(0, 0);
        load(&*window, &first, 0xA5).unwrap();
        src.data[0].send_block(first, &[], 0).unwrap();
        refused(&block_hdr(1, 0));
        (src.shutdown_write)();
        assert_eq!(snk.data[0].recv_header().unwrap(), Some(first));
        snk.data[0]
            .recv_wire(&mut pool[0].lock()[..first.wire_len()])
            .unwrap();
        assert!(
            snk.data[0].recv_header().unwrap().is_none(),
            "a refused load was sent"
        );
    }

    /// A re-send of a published sequence — by reference or as a borrowed
    /// image with other bytes — only re-notifies: the sink reads a
    /// duplicate record, discards it, and the slot keeps what the sink
    /// holds there.
    // spec: [P7.2-resend] [P7.2-dup-notify]
    #[test]
    fn a_resend_of_a_published_block_renotifies_and_leaves_the_slot() {
        let (src, mut snk, pool, window) = windowed(1, 1);
        grant(&snk, &[0]);
        let hdr = block_hdr(5, 0);
        load(&*window, &hdr, 0xA5).unwrap();
        src.data[0].send_block(hdr, &[], 0).unwrap();
        assert_eq!(snk.data[0].recv_header().unwrap(), Some(hdr));
        snk.data[0]
            .recv_wire(&mut pool[0].lock()[..hdr.wire_len()])
            .unwrap();
        assert_eq!(slot_image(&pool, &hdr), vec![0xA5; hdr.wire_len()]);

        // The sink now owns what the slot holds; a re-send must not
        // write it.
        pool[0].lock()[..hdr.wire_len()].fill(0x77);
        src.data[0].send_block(hdr, &[], 0).unwrap();
        src.data[0].send(hdr, &vec![0x3C; hdr.wire_len()]).unwrap();
        for _ in 0..2 {
            assert_eq!(snk.data[0].recv_header().unwrap(), Some(hdr));
            snk.data[0].discard_wire(hdr.wire_len()).unwrap();
        }
        assert_eq!(slot_image(&pool, &hdr), vec![0x77; hdr.wire_len()]);
    }

    /// A re-send whose slot the sink has since granted again, and a
    /// loader has reloaded with a newer block, is stale: by reference or
    /// as a borrowed image, it never reaches the sink, and the newer
    /// block is the next record the sink reads, intact.
    // spec: [P7.2-resend]
    #[test]
    fn a_stale_resend_never_reaches_the_sink() {
        let (src, mut snk, pool, window) = windowed(1, 1);
        grant(&snk, &[0]);
        let old = block_hdr(5, 0);
        load(&*window, &old, 0xA5).unwrap();
        src.data[0].send_block(old, &[], 0).unwrap();
        assert_eq!(snk.data[0].recv_header().unwrap(), Some(old));
        snk.data[0]
            .recv_wire(&mut pool[0].lock()[..old.wire_len()])
            .unwrap();

        grant(&snk, &[0]);
        let new = block_hdr(9, 0);
        load(&*window, &new, 0x3C).unwrap();
        src.data[0].send_block(old, &[], 0).unwrap();
        src.data[0].send(old, &vec![0xA5; old.wire_len()]).unwrap();
        src.data[0].send_block(new, &[], 0).unwrap();
        (src.shutdown_write)();
        assert_eq!(snk.data[0].recv_header().unwrap(), Some(new));
        snk.data[0]
            .recv_wire(&mut pool[0].lock()[..new.wire_len()])
            .unwrap();
        assert_eq!(slot_image(&pool, &new), vec![0x3C; new.wire_len()]);
        assert!(
            snk.data[0].recv_header().unwrap().is_none(),
            "a stale re-send arrived"
        );
    }
}
