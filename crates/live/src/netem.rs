//! Deterministic WAN impairment over any live transport.
//!
//! A path's wide-area character — propagation delay, jitter, a rate
//! cap, loss, reorder — is injected between the pipeline and any
//! backend by wrapping the source's transport endpoints
//! ([`wrap_source`]), driven by a seeded
//! [`WanProfile`]: the same profile + seed
//! replays the identical impairment, and an identity profile returns
//! the transport untouched. Each leg is delayed where it starts: data
//! frames (per-channel loss, adjacent reorder, serialization against
//! one shared rate clock, one-way delay and jitter) on a per-channel
//! delay line in front of the source's [`DataTx`], source→sink control
//! on a line in front of its [`CtrlTx`], acks and credits as they reach
//! its [`CtrlRx`]. The sink is never wrapped, so every sink engine sits
//! behind the same path.
//!
//! A send stamps its frame with a deliver-at instant and returns, so
//! back-to-back frames pipeline instead of serializing one delay each,
//! and the in-flight bandwidth-delay product lives in the lines, not in
//! socket buffers that `wmem_max` clamps. Control frames are delayed
//! but never dropped or reordered: only data frames have a recovery
//! path (the source's re-sends + claim-bitmap dedup).

use crate::store::SlotBuf;
use crate::transport::{BufPool, CtrlRx, CtrlTx, DataTx, SinkTransport, SourceTransport};
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use rftp_core::wire::{CtrlMsg, DataFrameHeader, PayloadHeader, PAYLOAD_HEADER_LEN};
pub use rftp_faults::{WanDice, WanProfile};
use std::io;
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sleep with sub-scheduler-quantum precision: coarse-sleep to within
/// [`SPIN_WINDOW`] of the deadline, then spin. LAN presets have one-way
/// delays (6.5–13 µs) far below what `nanosleep` wakes up for reliably;
/// burning the tail keeps the emulated RTT honest at both scales.
pub(crate) fn sleep_until(deadline: Instant) {
    const SPIN_WINDOW: Duration = Duration::from_micros(60);
    let now = Instant::now();
    if deadline <= now {
        return;
    }
    let d = deadline - now;
    if d > SPIN_WINDOW {
        std::thread::sleep(d - SPIN_WINDOW);
    }
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

/// Delay-line queue depth. In-flight frames are bounded by the source's
/// credited pool, so this only needs to exceed the largest pool the
/// adaptive controller will size (one credit loop, ~1050 blocks on the
/// ANI WAN at 64 KiB blocks; [`crate::pipeline::MAX_POOL_BLOCKS`] at
/// most).
const LINE_DEPTH: usize = 8192;

/// The path one profile instantiates: all data channels serialize
/// against one rate cap, like frames on one wire.
struct Path {
    wan: WanProfile,
    link_free: Mutex<Instant>,
}

impl Path {
    /// Deliver-at instant of a frame sent now: queue behind whatever the
    /// link is already carrying for `wire_len` bytes of serialization
    /// (none for control frames), then propagate.
    fn schedule(&self, wire_len: usize, dice: &mut WanDice) -> Instant {
        let mut at = Instant::now();
        if let (Some(r), 1..) = (self.wan.rate_bps, wire_len) {
            let mut free = self.link_free.lock();
            *free = (*free).max(at) + Duration::from_secs_f64(wire_len as f64 * 8.0 / r);
            at = *free;
        }
        at + self.wan.one_way + dice.jitter(self.wan.jitter)
    }
}

// ---------------------------------------------------------------------------
// Delay lines
// ---------------------------------------------------------------------------

/// One outbound leg: items go in with the instant they are due at the
/// peer, and one thread at the far end hands them, in queue order, to
/// the inner link once that instant has passed.
struct Line<T> {
    tx: Mutex<Option<Sender<(T, Instant)>>>,
    far: Mutex<Option<JoinHandle<()>>>,
}

impl<T: Send + 'static> Line<T> {
    /// Start the far end: `deliver` sends one item on the inner link,
    /// `idle` is the inner link's doorbell, rung whenever nothing queued
    /// is due yet (a completion-based backend submits its batch there).
    /// The far end stops at the first inner error; sends fail from then.
    fn spawn(
        name: &str,
        mut deliver: impl FnMut(T) -> io::Result<()> + Send + 'static,
        mut idle: impl FnMut() -> io::Result<()> + Send + 'static,
    ) -> Line<T> {
        let (tx, rx) = bounded(LINE_DEPTH);
        let far = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || drop(drain_line(&rx, &mut deliver, &mut idle)))
            .expect("spawn netem delay line");
        Line {
            tx: Mutex::new(Some(tx)),
            far: Mutex::new(Some(far)),
        }
    }

    fn push(&self, item: T, at: Instant) -> io::Result<()> {
        match self.tx.lock().as_ref().map(|tx| tx.send((item, at))) {
            Some(Ok(())) => Ok(()),
            _ => Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "emulated link closed",
            )),
        }
    }
}

impl<T> Line<T> {
    /// Close the line and wait until everything on it was delivered (or
    /// the far end stopped at an inner error). `Err` is its panic.
    fn flush(&self) -> std::thread::Result<()> {
        self.tx.lock().take();
        self.far.lock().take().map_or(Ok(()), JoinHandle::join)
    }
}

impl<T> Drop for Line<T> {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// The far end of a [`Line`]: until every sender is gone, sleep to each
/// item's instant and deliver it, ringing `idle` before any wait.
fn drain_line<T>(
    rx: &Receiver<(T, Instant)>,
    deliver: &mut impl FnMut(T) -> io::Result<()>,
    idle: &mut impl FnMut() -> io::Result<()>,
) -> io::Result<()> {
    let mut unrung = false;
    loop {
        let (item, at) = match rx.try_recv() {
            Ok(next) => next,
            Err(_) => {
                if std::mem::take(&mut unrung) {
                    idle()?;
                }
                match rx.recv() {
                    Ok(next) => next,
                    Err(_) => return Ok(()),
                }
            }
        };
        if unrung && at > Instant::now() {
            idle()?;
        }
        sleep_until(at);
        deliver(item)?;
        unrung = true;
    }
}

// ---------------------------------------------------------------------------
// Control legs: delay only
// ---------------------------------------------------------------------------

/// The source→sink control leg.
struct NetemCtrlTx {
    line: Line<CtrlMsg>,
    path: Arc<Path>,
    dice: Mutex<WanDice>,
}

impl CtrlTx for NetemCtrlTx {
    fn send(&self, msg: &CtrlMsg) -> io::Result<()> {
        // The draw and the push under one lock: queue order is draw order.
        let mut dice = self.dice.lock();
        let at = self.path.schedule(0, &mut dice);
        self.line.push(msg.clone(), at)
    }
}

enum CtrlEvt {
    Msg(CtrlMsg, Instant),
    Fail(io::Error),
}

struct NetemCtrlRx {
    rx: Receiver<CtrlEvt>,
}

impl CtrlRx for NetemCtrlRx {
    fn recv(&mut self) -> io::Result<Option<CtrlMsg>> {
        match self.rx.recv() {
            Err(_) => Ok(None),
            Ok(CtrlEvt::Fail(e)) => Err(e),
            Ok(CtrlEvt::Msg(msg, at)) => {
                sleep_until(at);
                Ok(Some(msg))
            }
        }
    }
}

/// The sink→source control leg: a feeder thread reads the inner
/// endpoint eagerly and stamps each frame with arrival + delay, so the
/// returning stream is pipelined like the outbound legs.
fn delay_ctrl_rx(
    mut inner: Box<dyn CtrlRx>,
    path: Arc<Path>,
    mut dice: WanDice,
) -> Box<dyn CtrlRx> {
    let (tx, rx) = bounded(LINE_DEPTH);
    std::thread::Builder::new()
        .name("netem-ctrl".into())
        .spawn(move || loop {
            let evt = match inner.recv() {
                Ok(Some(msg)) => CtrlEvt::Msg(msg, path.schedule(0, &mut dice)),
                Ok(None) => break,
                Err(e) => CtrlEvt::Fail(e),
            };
            let failed = matches!(evt, CtrlEvt::Fail(_));
            if tx.send(evt).is_err() || failed {
                break;
            }
        })
        .expect("spawn netem control feeder");
    Box::new(NetemCtrlRx { rx })
}

// ---------------------------------------------------------------------------
// Data legs: delay + jitter + rate + loss + reorder
// ---------------------------------------------------------------------------

/// What a data line carries: the index of a block of the registered
/// pool, handed to the inner link by reference as the frame leaves the
/// line, or a wire image its sender handed over.
enum Wire {
    Block(u32),
    Bytes(Box<[u8]>),
}

type Frame = (DataFrameHeader, Wire);

/// The pool the inner `register` hook was handed, and whether it
/// answered with a window to load into.
type Registered = (BufPool, bool);

/// One data channel's leg, shared by its [`DataTx`] and the transport's
/// write shutdown (which flushes it).
struct DataLeg {
    line: Line<Frame>,
    path: Arc<Path>,
    /// The channel's draws, in the order every frame makes them: loss,
    /// the jitter inside [`Path::schedule`], reorder; and at most one
    /// frame held back for reordering — it swaps with its successor,
    /// the minimal adjacent transposition real multi-path reorder
    /// produces at the receiver.
    shaper: Mutex<(WanDice, Option<(Frame, Instant)>)>,
}

impl DataLeg {
    /// Release a frame held for reordering — at write shutdown it was
    /// merely delayed, not lost — then flush the line.
    fn flush(&self) -> std::thread::Result<()> {
        if let Some((frame, at)) = self.shaper.lock().1.take() {
            let _ = self.line.push(frame, at);
        }
        self.line.flush()
    }

    /// Loss, serialization, delay and reorder for one frame, then onto
    /// the line.
    fn shape(&self, hdr: DataFrameHeader, wire: Wire) -> io::Result<()> {
        let mut guard = self.shaper.lock();
        let (dice, stash) = &mut *guard;
        if dice.roll(self.path.wan.loss_p) {
            return Ok(()); // lost on the wire; the source re-sends it
        }
        let at = self.path.schedule(hdr.wire_len(), dice);
        if stash.is_none() && dice.roll(self.path.wan.reorder_p) {
            *stash = Some(((hdr, wire), at));
            return Ok(());
        }
        self.line.push((hdr, wire), at)?;
        match stash.take() {
            Some((late, at)) => self.line.push(late, at),
            None => Ok(()),
        }
    }
}

struct NetemDataTx(Arc<DataLeg>);

impl DataTx for NetemDataTx {
    fn send(&self, hdr: DataFrameHeader, wire: &[u8]) -> io::Result<()> {
        self.0.shape(hdr, Wire::Bytes(wire.into()))
    }

    /// A block of the registered pool (`bufs`, by the trait's contract)
    /// rides the line by index: it stays pinned until an ack retires
    /// it, and no ack can come before one of its frames left the line.
    fn send_block(&self, hdr: DataFrameHeader, _: &[Mutex<SlotBuf>], block: u32) -> io::Result<()> {
        self.0.shape(hdr, Wire::Block(block))
    }
}

/// Hand a frame leaving a data line to the inner link. A block still
/// holding the frame's sequence goes by reference
/// ([`DataTx::send_block`]), as the source would have sent it with no
/// path in between: the inner link queues it, and the line's idle
/// doorbell ([`DataTx::kick`]) puts the queue on the wire, so the line
/// neither allocates nor copies per frame. A retransmit still on the
/// line after its block was retired and reused carries the new bytes
/// under its old header: a duplicate, which the sink discards. It goes
/// as a copy of the block's current bytes, written at once
/// ([`DataTx::send_owned`]), rather than queued by reference, so a link
/// that frames a queued block from the block itself never sees the
/// block under two headers. The block is unlocked before any send: a
/// link's write locks the blocks it has queued, and this block may be
/// one of them. A block loaded into the inner link's window (shm) never
/// touched the pool: it always goes by reference, and the window's own
/// per-slot record turns a late one into a re-notify or a stale drop.
fn deliver(inner: &dyn DataTx, pool: &OnceLock<Registered>, (hdr, wire): Frame) -> io::Result<()> {
    let block = match wire {
        Wire::Bytes(bytes) => return inner.send_owned(hdr, bytes),
        Wire::Block(block) => block,
    };
    let (pool, windowed) = pool.get().expect("a block frame implies a registered pool");
    if *windowed {
        return inner.send_block(hdr, pool, block);
    }
    let stale = {
        let buf = pool[block as usize].lock();
        let held = PayloadHeader::decode(&buf[..PAYLOAD_HEADER_LEN]);
        (!held.is_ok_and(|p| p.seq == hdr.seq)).then(|| buf[..hdr.wire_len()].into())
    };
    match stale {
        None => inner.send_block(hdr, pool, block),
        Some(copy) => inner.send_owned(hdr, copy),
    }
}

// ---------------------------------------------------------------------------
// Public wrappers
// ---------------------------------------------------------------------------

/// Put the whole emulated path in front of the source half: its data
/// frames pick up loss, reorder, serialization against the rate cap,
/// propagation delay and jitter on their way out; its control frames
/// pick up propagation delay and jitter on the way out and on the way
/// back. `shutdown_write` flushes both outbound legs before it
/// half-closes. An identity profile returns the transport untouched.
pub fn wrap_source(t: SourceTransport, p: &WanProfile) -> SourceTransport {
    if p.is_identity() {
        return t;
    }
    let path = Arc::new(Path {
        wan: p.clone(),
        link_free: Mutex::new(Instant::now()),
    });
    let pool = Arc::new(OnceLock::<Registered>::new());
    let legs: Vec<Arc<DataLeg>> = (0..t.data.len())
        .map(|ch| {
            let (inner, doorbell) = (Arc::clone(&t.data), Arc::clone(&t.data));
            let from = Arc::clone(&pool);
            Arc::new(DataLeg {
                line: Line::spawn(
                    "netem-data",
                    move |frame| deliver(&*inner[ch], &from, frame),
                    move || doorbell[ch].kick(),
                ),
                path: Arc::clone(&path),
                shaper: Mutex::new((p.dice(1 + ch as u64), None)),
            })
        })
        .collect();
    let inner_register = t.register;
    let register = move |bufs: &BufPool| {
        let window = inner_register(bufs)?;
        let _ = pool.set((Arc::clone(bufs), window.is_some()));
        Ok(window)
    };
    let inner_ctrl = t.ctrl_tx;
    let ctrl = Arc::new(NetemCtrlTx {
        line: Line::spawn(
            "netem-ctrl",
            move |m: CtrlMsg| inner_ctrl.send(&m),
            || Ok(()),
        ),
        path: Arc::clone(&path),
        dice: Mutex::new(p.dice(0)),
    });
    let shutdown_write = {
        let (legs, ctrl, inner) = (legs.clone(), Arc::clone(&ctrl), t.shutdown_write);
        move || {
            for leg in &legs {
                leg.flush().expect("a netem data line panicked");
            }
            ctrl.line.flush().expect("the netem control line panicked");
            inner()
        }
    };
    let data = legs
        .into_iter()
        .map(|leg| Box::new(NetemDataTx(leg)) as Box<dyn DataTx>);
    SourceTransport {
        ctrl_tx: ctrl,
        ctrl_rx: delay_ctrl_rx(t.ctrl_rx, path, p.dice(0x51)),
        data: Arc::new(data.collect()),
        register: Box::new(register),
        shutdown_write: Box::new(shutdown_write),
        ..t
    }
}

/// The sink half needs no shim — [`wrap_source`] carries every leg of
/// the path — so this returns its argument. Kept because the benchmark
/// package calls it.
pub fn wrap_sink(t: SinkTransport, _p: &WanProfile) -> SinkTransport {
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{channel_transport, DataRx};

    fn hdr(seq: u32) -> DataFrameHeader {
        DataFrameHeader {
            session: 1,
            seq,
            slot: 0,
            len: 64,
        }
    }

    fn try_send_frame(t: &SourceTransport, ch: usize, seq: u32) -> io::Result<()> {
        let h = hdr(seq);
        let wire: Vec<u8> = (0..h.wire_len()).map(|i| (i as u8) ^ seq as u8).collect();
        t.data[ch].send(h, &wire)
    }

    fn send_frame(t: &SourceTransport, ch: usize, seq: u32) {
        try_send_frame(t, ch, seq).unwrap();
    }

    fn drain_seqs(rx: &mut dyn DataRx) -> Vec<u32> {
        let mut seqs = Vec::new();
        while let Some(h) = rx.recv_header().unwrap() {
            rx.discard_wire(h.wire_len()).unwrap();
            seqs.push(h.seq);
        }
        seqs
    }

    /// The source half behind `spec`, and the sink half as it is.
    fn shimmed(spec: &str, channels: usize, depth: usize) -> (SourceTransport, SinkTransport) {
        let (src, snk) = channel_transport(channels, depth);
        (wrap_source(src, &WanProfile::parse(spec).unwrap()), snk)
    }

    #[test]
    fn identity_profile_is_a_passthrough() {
        let (src, mut snk) = shimmed("rate=none", 1, 8);
        send_frame(&src, 0, 0);
        let t0 = Instant::now();
        let got = snk.data[0].recv_header().unwrap().unwrap();
        assert_eq!(got.seq, 0);
        assert!(t0.elapsed() < Duration::from_millis(5));
        snk.data[0].discard_wire(got.wire_len()).unwrap();
    }

    #[test]
    fn data_and_ctrl_pick_up_one_way_delay() {
        let (mut src, mut snk) = shimmed("rtt=20ms", 1, 8);

        let t0 = Instant::now();
        send_frame(&src, 0, 7);
        let got = snk.data[0].recv_header().unwrap().unwrap();
        let data_lat = t0.elapsed();
        assert_eq!(got.seq, 7);
        assert!(data_lat >= Duration::from_millis(10), "{data_lat:?}");
        let mut buf = vec![0u8; got.wire_len()];
        snk.data[0].recv_wire(&mut buf).unwrap();
        assert_eq!(buf[1], 1 ^ 7);

        let t1 = Instant::now();
        src.ctrl_tx
            .send(&CtrlMsg::MrRequest { session: 1 })
            .unwrap();
        let msg = snk.ctrl_rx.recv().unwrap();
        assert_eq!(msg, Some(CtrlMsg::MrRequest { session: 1 }));
        assert!(t1.elapsed() >= Duration::from_millis(10));

        let t2 = Instant::now();
        snk.ctrl_tx
            .send(&CtrlMsg::MrRequest { session: 2 })
            .unwrap();
        let msg = src.ctrl_rx.recv().unwrap();
        assert_eq!(msg, Some(CtrlMsg::MrRequest { session: 2 }));
        assert!(t2.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn back_to_back_ctrl_frames_pipeline_instead_of_serializing() {
        let (src, mut snk) = shimmed("rtt=40ms", 1, 8);
        let t0 = Instant::now();
        for s in 0..10 {
            src.ctrl_tx
                .send(&CtrlMsg::MrRequest { session: s })
                .unwrap();
        }
        for s in 0..10 {
            assert_eq!(
                snk.ctrl_rx.recv().unwrap(),
                Some(CtrlMsg::MrRequest { session: s })
            );
        }
        let lat = t0.elapsed();
        // One latency shift for the burst, not ten stacked delays.
        assert!(lat >= Duration::from_millis(15), "{lat:?}");
        assert!(
            lat < Duration::from_millis(120),
            "delays serialized: {lat:?}"
        );
    }

    #[test]
    fn certain_loss_drops_every_data_frame_but_no_ctrl() {
        let (src, mut snk) = shimmed("drop=1.0", 1, 8);
        for s in 0..4 {
            send_frame(&src, 0, s);
        }
        src.ctrl_tx
            .send(&CtrlMsg::MrRequest { session: 9 })
            .unwrap();
        (src.shutdown_write)();
        assert_eq!(drain_seqs(snk.data[0].as_mut()), Vec::<u32>::new());
        // Control is the reliable channel: delayed, never dropped.
        assert_eq!(
            snk.ctrl_rx.recv().unwrap(),
            Some(CtrlMsg::MrRequest { session: 9 })
        );
    }

    #[test]
    fn certain_reorder_swaps_adjacent_frames() {
        let (src, mut snk) = shimmed("reorder=1.0", 1, 16);
        for s in 0..4 {
            send_frame(&src, 0, s);
        }
        (src.shutdown_write)();
        // Every frame stashes and swaps with its successor: 1,0,3,2.
        assert_eq!(drain_seqs(snk.data[0].as_mut()), vec![1, 0, 3, 2]);
    }

    #[test]
    fn trailing_reorder_stash_is_flushed_at_eof() {
        let (src, mut snk) = shimmed("reorder=1.0", 1, 16);
        for s in 0..3 {
            send_frame(&src, 0, s);
        }
        (src.shutdown_write)();
        // 0 stashes, 1 passes, 0 flushes behind it, 2 stashes → EOF flush.
        assert_eq!(drain_seqs(snk.data[0].as_mut()), vec![1, 0, 2]);
    }

    /// The write shutdown drains both outbound legs before it
    /// half-closes: a frame and a control message still on their lines
    /// arrive ahead of end-of-stream instead of being cut off by it.
    #[test]
    fn write_shutdown_delivers_what_is_still_on_the_lines() {
        let (src, mut snk) = shimmed("rtt=40ms", 1, 8);
        send_frame(&src, 0, 5);
        src.ctrl_tx
            .send(&CtrlMsg::MrRequest { session: 3 })
            .unwrap();
        (src.shutdown_write)();
        assert_eq!(drain_seqs(snk.data[0].as_mut()), vec![5]);
        assert_eq!(
            snk.ctrl_rx.recv().unwrap(),
            Some(CtrlMsg::MrRequest { session: 3 })
        );
        assert_eq!(snk.ctrl_rx.recv().unwrap(), None);
        assert!(try_send_frame(&src, 0, 6).is_err(), "the line is closed");
    }

    #[test]
    fn rate_cap_spaces_deliveries_by_serialization_time() {
        // 1 Mbit/s over ~88-byte frames: ~0.7 ms each; 8 frames ≥ 4.9 ms
        // of serialization even though the sends are instantaneous.
        let (src, mut snk) = shimmed("rate=1M", 1, 16);
        let t0 = Instant::now();
        for s in 0..8 {
            send_frame(&src, 0, s);
        }
        (src.shutdown_write)();
        let seqs = drain_seqs(snk.data[0].as_mut());
        let lat = t0.elapsed();
        assert_eq!(seqs, (0..8).collect::<Vec<_>>());
        assert!(lat >= Duration::from_millis(4), "{lat:?}");
    }

    #[test]
    fn same_seed_replays_the_same_survivors() {
        let survivors = |seed: u64| -> Vec<u32> {
            let (src, mut snk) = shimmed(&format!("drop=0.5,seed={seed}"), 1, 64);
            for s in 0..32 {
                send_frame(&src, 0, s);
            }
            (src.shutdown_write)();
            drain_seqs(snk.data[0].as_mut())
        };
        let a = survivors(7);
        assert_eq!(a, survivors(7), "same seed must replay the same drops");
        assert_ne!(a, survivors(8), "different seed draws a different pattern");
        assert!(!a.is_empty() && a.len() < 32, "p=0.5 drops some, not all");
    }

    /// Moving the data leg from the sink's inbound side to the source's
    /// outbound side did not change the loss and reorder process: per
    /// channel, the same dice lane makes the same draws in the same
    /// order. The lists are what the sink-side shim delivered for this
    /// profile and these sends.
    #[test]
    fn seeded_survivors_match_the_sink_side_shim() {
        let (src, mut snk) = shimmed("drop=0.25,reorder=0.25,seed=7", 2, 64);
        for s in 0..24 {
            send_frame(&src, 0, s);
            send_frame(&src, 1, 100 + s);
        }
        (src.shutdown_write)();
        let got = [
            drain_seqs(snk.data[0].as_mut()),
            drain_seqs(snk.data[1].as_mut()),
        ];
        assert_eq!(got, SINK_SIDE_SURVIVORS.map(<[u32]>::to_vec));
    }

    const SINK_SIDE_SURVIVORS: [&[u32]; 2] = [
        &[
            0, 3, 1, 4, 5, 7, 6, 8, 10, 9, 11, 12, 13, 15, 16, 17, 18, 19, 21, 22,
        ],
        &[
            102, 100, 104, 105, 106, 107, 108, 111, 112, 114, 117, 118, 120, 122, 123,
        ],
    ];

    /// An inner data link that notes how each frame reached it, and
    /// fails if a pool block is locked while it is called.
    struct Recorder {
        pool: BufPool,
        log: Arc<Mutex<Vec<(u32, &'static str)>>>,
    }

    impl Recorder {
        fn note(&self, hdr: DataFrameHeader, how: &'static str) -> io::Result<()> {
            let unlocked = self.pool.iter().all(|b| b.try_lock().is_some());
            assert!(unlocked, "a block is locked across the send");
            self.log.lock().push((hdr.seq, how));
            Ok(())
        }
    }

    impl DataTx for Recorder {
        fn send(&self, hdr: DataFrameHeader, _: &[u8]) -> io::Result<()> {
            self.note(hdr, "send")
        }
        fn send_block(&self, hdr: DataFrameHeader, _: &[Mutex<SlotBuf>], _: u32) -> io::Result<()> {
            self.note(hdr, "block")
        }
        fn send_owned(&self, hdr: DataFrameHeader, wire: Box<[u8]>) -> io::Result<()> {
            assert_eq!(wire.len(), hdr.wire_len());
            self.note(hdr, "copy")
        }
    }

    /// A block that still holds the frame's sequence leaves the line by
    /// reference; a retransmit whose block was since reused for another
    /// sequence leaves as a copy, with no block locked while the inner
    /// link takes it (a TCP link's write locks the blocks it queued).
    #[test]
    fn a_block_goes_by_reference_and_a_reused_one_as_an_unlocked_copy() {
        let pool: BufPool = Arc::new(crate::store::BlockPool::new(1, 64));
        let log = Arc::new(Mutex::new(Vec::new()));
        let (src, _snk) = channel_transport(1, 8);
        let rec = Recorder {
            pool: Arc::clone(&pool),
            log: Arc::clone(&log),
        };
        let src = wrap_source(
            SourceTransport {
                data: Arc::new(vec![Box::new(rec) as Box<dyn DataTx>]),
                ..src
            },
            &WanProfile::parse("rtt=2ms").unwrap(),
        );
        (src.register)(&pool).unwrap();
        let frame = |seq| DataFrameHeader {
            session: 1,
            seq,
            slot: 0,
            len: 40,
        };
        PayloadHeader {
            session: 1,
            seq: 6,
            offset: 0,
            len: 40,
        }
        .encode(&mut pool[0].lock()[..PAYLOAD_HEADER_LEN]);
        src.data[0].send_block(frame(6), &pool, 0).unwrap();
        src.data[0].send_block(frame(5), &pool, 0).unwrap();
        (src.shutdown_write)();
        assert_eq!(*log.lock(), [(6, "block"), (5, "copy")]);
    }

    /// Tearing the inner links down must not leave the shim hanging or
    /// swallowing sends: the inbound control feeder surfaces
    /// end-of-stream (a channel abort reads as EOF), and once the data
    /// line's inner send fails, sends error instead of vanishing.
    #[test]
    fn feeder_propagates_inner_errors() {
        let (mut src, snk) = shimmed("rtt=1ms", 1, 8);
        (snk.abort)();
        assert!(src.ctrl_rx.recv().unwrap().is_none());
        (src.abort)();
        let t0 = Instant::now();
        while try_send_frame(&src, 0, 0).is_ok() {
            assert!(t0.elapsed() < Duration::from_secs(5), "line never failed");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}
