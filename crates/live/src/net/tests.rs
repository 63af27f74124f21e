//! Unit tests of the TCP backend and the session front door.

use super::door::*;
use super::link::*;
use super::*;
use crate::transport::{BufPool, DataTx, Registered};
use rftp_core::wire::{CtrlMsg, DataFrameHeader, DATA_FRAME_HEADER_LEN};
use std::net::Shutdown;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn hello_roundtrip_over_loopback() {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = l.local_addr().unwrap();
    let t = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        write_hello(&mut s, KIND_DATA, 5, 0xFEED).unwrap();
        s
    });
    let (mut a, _) = l.accept().unwrap();
    assert_eq!(read_hello(&mut a).unwrap(), (KIND_DATA, 5, 0xFEED));
    drop(t.join().unwrap());
}

/// No request means nothing to probe; a request is honoured only when
/// both directions read back at least twice it (the kernel's doubling),
/// and clamped when either falls short.
#[test]
fn sockbuf_clamp_rule() {
    assert_eq!(probe_sockbuf(0).unwrap(), None);
    let eff = |sndbuf, rcvbuf| SockbufEffective {
        requested: 1000,
        sndbuf,
        rcvbuf,
    };
    assert!(!eff(2000, 2000).clamped());
    assert!(!eff(4096, 2000).clamped());
    assert!(eff(1999, 2000).clamped());
    assert!(eff(2000, 1999).clamped());
    assert!(
        eff(1000, 1000).clamped(),
        "an undoubled read-back is a clamp"
    );
}

#[test]
fn bad_magic_is_rejected() {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = l.local_addr().unwrap();
    let t = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        // A full hello's worth of bytes (16) that is not rftp.
        s.write_all(b"GET / HTTP/1.1\r\n").unwrap();
        s
    });
    let (mut a, _) = l.accept().unwrap();
    assert!(read_hello(&mut a).is_err());
    drop(t.join().unwrap());
}

/// Assemble until a set completes, or every offered hello has landed
/// and been polled without completing one.
fn settle<S: SessionSocket>(asm: &mut StreamAssembler<S>) -> Option<SessionStreams<S>> {
    loop {
        if let Some(s) = asm.poll() {
            return Some(s);
        }
        if !asm.hellos_pending() {
            return None;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A way in, as the assembler tests see it: `accept` takes the next
/// queued connection off a listener, `connect` dials it. Both
/// kernels complete a connect into the backlog, so the tests dial
/// and accept from one thread.
struct Door<S> {
    accept: Box<dyn Fn() -> S>,
    connect: Box<dyn Fn() -> S>,
}

impl<S: SessionSocket> Door<S> {
    /// Dial, say `hello`, and offer the accepted end to `asm`.
    /// Returns the client end — dropping it hangs up.
    fn dial(&self, asm: &mut StreamAssembler<S>, kind: u8, index: u16, token: u64) -> S {
        let mut c = (self.connect)();
        write_hello(&mut c, kind, index, token).unwrap();
        asm.offer((self.accept)());
        c
    }
}

fn tcp_door() -> Door<TcpStream> {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = l.local_addr().unwrap();
    Door {
        accept: Box::new(move || l.accept().unwrap().0),
        connect: Box::new(move || TcpStream::connect(addr).unwrap()),
    }
}

fn unix_door(tag: &str) -> Door<std::os::unix::net::UnixStream> {
    let name = format!("rftp-door-{tag}-{}.sock", std::process::id());
    let l = crate::shm::ShmListener::bind(std::env::temp_dir().join(name)).unwrap();
    let path = l.path().to_path_buf();
    Door {
        accept: Box::new(move || l.accept().unwrap()),
        connect: Box::new(move || std::os::unix::net::UnixStream::connect(&path).unwrap()),
    }
}

/// A connection that never sends its hello must park a helper
/// thread, not the accept path: `offer` returns immediately and a
/// real session assembles while the silent one still pends.
#[test]
fn silent_connection_does_not_block_assembly() {
    silent_connection(tcp_door());
    silent_connection(unix_door("silent"));
}

fn silent_connection<S: SessionSocket>(door: Door<S>) {
    let mut asm = StreamAssembler::new(0);
    let _silent = (door.connect)();
    let s = (door.accept)();
    let t0 = Instant::now();
    asm.offer(s);
    assert!(
        t0.elapsed() < Duration::from_millis(250),
        "offer blocked on the hello read: {:?}",
        t0.elapsed()
    );

    let _ctrl = door.dial(&mut asm, KIND_CTRL, 1, 0x1234);
    let _data = door.dial(&mut asm, KIND_DATA, 0, 0x1234);
    let set = settle(&mut asm).expect("session must assemble while the silent connection pends");
    assert_eq!(set.token, 0x1234);
    assert_eq!((set.channels, set.data.len()), (1, 1));
    assert!(
        t0.elapsed() < HELLO_TIMEOUT,
        "assembly waited out the silent connection's timeout"
    );
}

/// Tokens are unauthenticated, so a third party that learns one must
/// not be able to destroy the owner's pending set: the duplicate
/// control hello is dropped alone and the victim still assembles.
#[test]
fn duplicate_control_hello_drops_offender_not_the_victim_set() {
    duplicate_control(tcp_door());
    duplicate_control(unix_door("dupctrl"));
}

fn duplicate_control<S: SessionSocket>(door: Door<S>) {
    let mut asm = StreamAssembler::new(0);
    const TOKEN: u64 = 0xDEAD_BEEF;
    let _victim_ctrl = door.dial(&mut asm, KIND_CTRL, 1, TOKEN);
    assert!(settle(&mut asm).is_none(), "set is still partial");

    // The attacker replays a control hello under the stolen token.
    let _attacker = door.dial(&mut asm, KIND_CTRL, 1, TOKEN);
    assert!(
        settle(&mut asm).is_none(),
        "duplicate control dropped alone"
    );

    // The victim's data stream still completes its set.
    let _victim_data = door.dial(&mut asm, KIND_DATA, 0, TOKEN);
    let set = settle(&mut asm).expect("victim's set must survive the attacker's duplicate");
    assert_eq!(set.token, TOKEN);
    assert_eq!(set.data.len(), 1);
}

/// Data hellos may land before their control hello: they wait, and
/// when the control hello announces two channels each is placed or
/// dropped *alone* — TCP places both indices; shm has exactly one
/// data stream (the notify stream, index 0), so its index 1 is hung
/// up on and the pair still assembles.
#[test]
fn early_data_stream_waits_for_its_control_hello() {
    early_data(tcp_door());
    early_data(unix_door("early"));
}

fn early_data<S: SessionSocket>(door: Door<S>) {
    let mut asm = StreamAssembler::new(0);
    const TOKEN: u64 = 0xEA21;
    let _d0 = door.dial(&mut asm, KIND_DATA, 0, TOKEN);
    let mut d1 = door.dial(&mut asm, KIND_DATA, 1, TOKEN);
    assert!(settle(&mut asm).is_none(), "no control hello yet");

    let _ctrl = door.dial(&mut asm, KIND_CTRL, 2, TOKEN);
    let set = settle(&mut asm).expect("control hello completes the set");
    assert_eq!(set.channels, 2, "the announced count rides with the set");
    assert_eq!(set.data.len(), S::data_streams(2));
    d1.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let hung_up = matches!(d1.read(&mut [0u8; 1]), Ok(0));
    assert_eq!(hung_up, S::data_streams(2) < 2, "index 1 placed or dropped");
}

/// The accept policy as a table: which `accept` errors mean "queue
/// empty", "try again", "shed load and come back" and "the listener
/// is broken", and what `accept_into` does about each — the one-shot
/// listeners used to `?` every one of these and die on a stranger's
/// reset.
#[test]
fn accept_policy_classifies_every_error() {
    use io::ErrorKind::*;
    let table = [
        (io::Error::from(WouldBlock), AcceptVerdict::Drained),
        (io::Error::from(Interrupted), AcceptVerdict::Retry),
        (io::Error::from(ConnectionAborted), AcceptVerdict::Retry),
        (io::Error::from_raw_os_error(23), AcceptVerdict::BackOff), // ENFILE
        (io::Error::from_raw_os_error(24), AcceptVerdict::BackOff), // EMFILE
        (io::Error::from(PermissionDenied), AcceptVerdict::Fatal),
        (io::Error::from_raw_os_error(9), AcceptVerdict::Fatal), // EBADF
    ];
    let mut asm = StreamAssembler::<TcpStream>::new(0);
    for (e, want) in table {
        assert_eq!(accept_verdict(&e), want, "{e}");
        let again = accept_into(|| Err(e), &mut asm).ok();
        assert_eq!(
            again,
            (want != AcceptVerdict::Fatal).then_some(want == AcceptVerdict::Retry)
        );
    }
    assert!(!asm.hellos_pending(), "an error offers nothing");
}

/// A data link's send side over a real loopback stream, the peer
/// end it writes to, and the pool it sends from: `blocks` slots of
/// `block` bytes, each wire image a pattern salted by its index,
/// registered with the link as the `register` hook leaves it.
fn doorbell_link(blocks: u32, block: usize) -> (NetDataTx, TcpStream, BufPool) {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let tx = TcpStream::connect(l.local_addr().unwrap()).unwrap();
    let (peer, _) = l.accept().unwrap();
    peer.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let pool: BufPool = Arc::new(crate::store::BlockPool::new(blocks, block));
    for (i, slot) in pool.iter().enumerate() {
        for (j, b) in slot.lock().iter_mut().enumerate() {
            *b = (j as u8) ^ (i as u8).wrapping_mul(37);
        }
    }
    let reg = Registered::default();
    assert!(reg.set(pool.clone()).is_ok());
    (NetDataTx::new(tx, reg), peer, pool)
}

/// The header a block is sent under in these tests: its own index as
/// sequence and slot, the whole block as payload.
fn block_hdr(block: u32, len: usize) -> DataFrameHeader {
    DataFrameHeader {
        session: 1,
        seq: block,
        slot: block,
        len: len as u32,
    }
}

/// The bytes one frame puts on the wire: header, then wire image.
fn frame_bytes(hdr: DataFrameHeader, wire: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; DATA_FRAME_HEADER_LEN];
    hdr.encode(&mut out);
    out.extend_from_slice(&wire[..hdr.wire_len()]);
    out
}

fn block_frame(pool: &BufPool, block: u32, len: usize) -> Vec<u8> {
    frame_bytes(block_hdr(block, len), &pool[block as usize].lock())
}

fn read_n(peer: &mut TcpStream, n: usize) -> Vec<u8> {
    let mut got = vec![0u8; n];
    peer.read_exact(&mut got).unwrap();
    got
}

/// The doorbell contract on TCP: queued blocks put nothing on the
/// wire, and one kick delivers every one of them byte-exact and in
/// queue order — which is not the block order the flush locks the
/// slots in.
#[test]
fn queued_blocks_leave_on_the_kick_in_queue_order() {
    const LEN: usize = 4096;
    let (tx, mut peer, pool) = doorbell_link(8, LEN);
    let mut want = Vec::new();
    // Block 2 twice, as a retransmit queued behind its first send:
    // locked once, sent twice.
    for b in [5u32, 2, 7, 0, 3, 2] {
        tx.send_block(block_hdr(b, LEN), &pool, b).unwrap();
        want.extend(block_frame(&pool, b, LEN));
    }

    peer.set_nonblocking(true).unwrap();
    let early = peer.read(&mut [0u8; 1]);
    assert!(
        matches!(&early, Err(e) if e.kind() == io::ErrorKind::WouldBlock),
        "bytes on the wire before the kick: {early:?}"
    );
    peer.set_nonblocking(false).unwrap();

    tx.kick().unwrap();
    assert_eq!(read_n(&mut peer, want.len()), want);
    tx.kick().unwrap(); // an empty queue writes nothing
    peer.set_nonblocking(true).unwrap();
    assert!(peer.read(&mut [0u8; 1]).is_err(), "nothing after the batch");
}

/// A 1 MiB batch against small socket buffers, drained by a reader
/// that takes at least 512 ms over it. A blocking `writev` returns
/// short only when its write timeout expires after some progress,
/// so the 200 ms timeout makes the kernel cut the batch at least
/// twice, and the flush must resume each time exactly where it
/// stopped.
#[test]
fn a_batch_larger_than_the_send_buffer_survives_short_writes() {
    const LEN: usize = 16 << 10;
    const BLOCKS: u32 = 64;
    let (tx, mut peer, pool) = doorbell_link(BLOCKS, LEN);
    {
        let link = tx.link.lock();
        set_sockbuf(&link.stream, 8 << 10);
        set_sockbuf(&peer, 64 << 10);
        let timeout = Some(Duration::from_millis(200));
        link.stream.set_write_timeout(timeout).unwrap();
    }
    let mut want = Vec::new();
    for b in (0..BLOCKS).rev() {
        tx.send_block(block_hdr(b, LEN), &pool, b).unwrap();
        want.extend(block_frame(&pool, b, LEN));
    }
    let total = want.len();
    let reader = std::thread::spawn(move || {
        let mut got = Vec::with_capacity(total);
        let mut chunk = [0u8; 4096];
        while got.len() < total {
            match peer.read(&mut chunk).unwrap() {
                0 => break,
                n => got.extend_from_slice(&chunk[..n]),
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        got
    });
    tx.kick().unwrap();
    tx.link.lock().stream.shutdown(Shutdown::Write).unwrap();
    let got = reader.join().unwrap();
    assert_eq!(got.len(), total, "bytes lost or duplicated in the flush");
    assert!(got == want, "the batch arrived out of order or torn");
}

/// `send` of a borrowed image and `send_owned` of a handed-over one
/// write at once, behind everything already queued on their link —
/// channel order holds without a kick.
#[test]
fn send_after_queued_blocks_keeps_channel_order() {
    const LEN: usize = 1024;
    let (tx, mut peer, pool) = doorbell_link(4, LEN);
    let mut want = Vec::new();
    for b in [3u32, 1, 2] {
        tx.send_block(block_hdr(b, LEN), &pool, b).unwrap();
        want.extend(block_frame(&pool, b, LEN));
    }
    let hdr = block_hdr(77, 300);
    let wire: Vec<u8> = (0..hdr.wire_len()).map(|i| (i * 7) as u8).collect();
    tx.send(hdr, &wire).unwrap();
    want.extend(frame_bytes(hdr, &wire));
    assert_eq!(read_n(&mut peer, want.len()), want);

    want.clear();
    tx.send_block(block_hdr(0, LEN), &pool, 0).unwrap();
    want.extend(block_frame(&pool, 0, LEN));
    tx.send_owned(hdr, wire.clone().into()).unwrap();
    want.extend(frame_bytes(hdr, &wire));
    assert_eq!(read_n(&mut peer, want.len()), want);
}

#[test]
fn transport_pair_connects_and_frames_flow() {
    let listener = NetListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let src = std::thread::spawn(move || {
        let t = connect_source(addr, 2, 0).unwrap();
        t.ctrl_tx
            .send(&CtrlMsg::SessionRequest {
                session: 1,
                block_size: 4096,
                channels: 2,
                total_bytes: 8192,
                notify_imm: true,
            })
            .unwrap();
        let hdr = DataFrameHeader {
            session: 1,
            seq: 7,
            slot: 3,
            len: 32,
        };
        let wire: Vec<u8> = (0..hdr.wire_len() as u8).map(|b| b ^ 0x5A).collect();
        t.data[1].send(hdr, &wire).unwrap();
        (t, hdr, wire)
    });
    let (mut sink, first) = listener.accept_session(0).unwrap();
    assert!(matches!(first, CtrlMsg::SessionRequest { channels: 2, .. }));
    let (src_t, hdr, wire) = src.join().unwrap();
    let got = sink.data[1].recv_header().unwrap().unwrap();
    assert_eq!(got, hdr);
    let mut buf = vec![0u8; got.wire_len()];
    sink.data[1].recv_wire(&mut buf).unwrap();
    assert_eq!(buf, wire);
    (src_t.shutdown_write)();
    assert!(sink.data[0].recv_header().unwrap().is_none());
    assert!(sink.data[1].recv_header().unwrap().is_none());
    assert!(sink.ctrl_rx.recv().unwrap().is_none());
}
