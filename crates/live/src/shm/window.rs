//! The window between two processes: memfd creation and mapping,
//! `SCM_RIGHTS` fd passing, the window descriptor, a session's own
//! window and the capability probe.

use crate::net::{proto_err, retry_interrupted};
use crate::store::{SlotBuf, STORE_ALIGN};
use crate::sys::{self, Mapping};
use std::io::{self, IoSlice, IoSliceMut, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::unix::net::UnixStream;

const SOL_SOCKET: i32 = 1;
const SCM_RIGHTS: i32 = 1;

/// 64-bit Linux `struct cmsghdr`: 16-byte header, data follows.
/// For one fd: CMSG_LEN(4) = 20, CMSG_SPACE(4) = 24.
const CMSG_HDR: usize = 16;
const CMSG_LEN_ONE_FD: usize = CMSG_HDR + 4;
const CMSG_SPACE_ONE_FD: usize = 24;

pub(super) fn memfd_create(len: usize) -> io::Result<OwnedFd> {
    let file = std::fs::File::from(sys::memfd_create(c"rftp-shm-window")?);
    file.set_len(len as u64)?;
    Ok(file.into())
}

/// Map `len` bytes of the window `fd`, shared. A short or unsized fd
/// is a typed error here — this is the guard that turns "sink died,
/// fd truncated" into a session abort instead of a later SIGBUS at a
/// wild address.
pub(crate) fn map_window(fd: RawFd, len: usize) -> io::Result<Mapping> {
    if len == 0 {
        return Err(proto_err("shm window has zero length"));
    }
    // mmap happily maps beyond a short file and delivers the
    // SIGBUS at first touch instead — the one failure mode a
    // one-sided writer cannot recover from. Check the fd really
    // backs the claimed length (a sink that died mid-setup, or
    // a hostile descriptor, leaves it short) and fail typed. An
    // fd whose size cannot even be read (a pipe, a socket) is
    // refused outright — mapping it blind would forfeit exactly
    // the guard this check exists for.
    let size = sys::seek_end(fd).map_err(|e| {
        proto_err(format!(
            "shm window fd size unreadable ({e}) — refusing to map an \
             unverifiable length"
        ))
    })?;
    if size < len as u64 {
        return Err(proto_err(format!(
            "shm window fd holds {size} bytes but the descriptor claims {len} — \
             refusing a mapping that would fault on first write"
        )));
    }
    Mapping::map(len, Some(fd))
}

// -----------------------------------------------------------------
// SCM_RIGHTS fd passing
// -----------------------------------------------------------------

/// Send `bytes` on `sock` with `fd` attached as an `SCM_RIGHTS`
/// control message. The fd rides with the *first* byte, so whatever a
/// short `sendmsg` leaves goes after it as plain bytes.
pub(crate) fn send_with_fd(sock: &UnixStream, bytes: &[u8], fd: RawFd) -> io::Result<()> {
    let mut cmsg = [0u8; CMSG_SPACE_ONE_FD];
    cmsg[..8].copy_from_slice(&(CMSG_LEN_ONE_FD as u64).to_ne_bytes());
    cmsg[8..12].copy_from_slice(&SOL_SOCKET.to_ne_bytes());
    cmsg[12..16].copy_from_slice(&SCM_RIGHTS.to_ne_bytes());
    cmsg[16..20].copy_from_slice(&fd.to_ne_bytes());
    let n = retry_interrupted(|| {
        sys::send_msg(
            sock.as_raw_fd(),
            &[IoSlice::new(bytes)],
            &cmsg[..CMSG_LEN_ONE_FD],
        )
    })?;
    if n == 0 {
        return Err(io::ErrorKind::WriteZero.into());
    }
    (&mut &*sock).write_all(&bytes[n..])
}

/// One `recvmsg` into `buf`, capturing the first `SCM_RIGHTS` fd
/// from the control data into `out` (if `out` is still empty) and
/// closing any extras a hostile peer packed in.
fn recvmsg_with_fd(
    sock: &UnixStream,
    buf: &mut [u8],
    out: &mut Option<OwnedFd>,
) -> io::Result<usize> {
    // Room for a few control messages; a flood beyond this is
    // truncated by the kernel (MSG_CTRUNC) and the extra fds closed
    // on its side of the truncation.
    let mut cmsg = [0u8; 4 * CMSG_SPACE_ONE_FD];
    let (n, controllen) = retry_interrupted(|| {
        sys::recv_msg(sock.as_raw_fd(), &mut [IoSliceMut::new(buf)], &mut cmsg)
    })?;
    // Walk the control messages we actually received.
    let mut off = 0usize;
    while off + CMSG_HDR <= controllen {
        let clen = u64::from_ne_bytes(cmsg[off..off + 8].try_into().unwrap()) as usize;
        if clen < CMSG_HDR || off + clen > controllen {
            break;
        }
        let level = i32::from_ne_bytes(cmsg[off + 8..off + 12].try_into().unwrap());
        let ctype = i32::from_ne_bytes(cmsg[off + 12..off + 16].try_into().unwrap());
        if level == SOL_SOCKET && ctype == SCM_RIGHTS {
            let mut doff = off + CMSG_HDR;
            while doff + 4 <= off + clen {
                let fd = i32::from_ne_bytes(cmsg[doff..doff + 4].try_into().unwrap());
                if fd >= 0 {
                    // SAFETY: `recvmsg` just installed this fd for us, and
                    // nothing else owns it; an extra one closes on drop.
                    let fd = unsafe { OwnedFd::from_raw_fd(fd) };
                    out.get_or_insert(fd);
                }
                doff += 4;
            }
        }
        // Advance by the space-aligned length.
        off += clen.next_multiple_of(8);
    }
    Ok(n)
}

/// `read_exact` over `recvmsg`, capturing any `SCM_RIGHTS` fd that
/// arrives with the bytes — descriptor reads can fragment, and the
/// fd lands with whichever segment the kernel delivered first.
fn read_exact_with_fd(
    sock: &UnixStream,
    buf: &mut [u8],
    out: &mut Option<OwnedFd>,
) -> io::Result<()> {
    let mut off = 0;
    while off < buf.len() {
        let n = recvmsg_with_fd(sock, &mut buf[off..], out)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "control stream closed inside shm window descriptor",
            ));
        }
        off += n;
    }
    Ok(())
}

// -----------------------------------------------------------------
// Window descriptor
// -----------------------------------------------------------------

/// Descriptor magic — deliberately an *illegal* control-frame length
/// prefix (frame bodies are capped far below 0xFFFF), so the source
/// control reader can distinguish "window descriptor" from "ordinary
/// frame" (daemon busy/reject) on the first two bytes.
pub(crate) const DESC_MAGIC: u16 = 0xFFFF;
const DESC_VERSION: u16 = 2;
pub(crate) const DESC_HEAD_LEN: usize = 20;
/// Ceiling on a descriptor's slot count — a corrupt or hostile
/// descriptor cannot make the source allocate without bound.
const MAX_DESC_SLOTS: u32 = 1 << 20;
/// Ceiling on a descriptor's window length (1 TiB).
const MAX_WINDOW_LEN: u64 = 1 << 40;

/// The sink's window geometry as shipped to the source: slot `i` sits at
/// window byte `i × stride`, so the geometry is the whole rkey table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WindowDesc {
    /// Credited slots in the window.
    pub(crate) slot_count: u32,
    /// Bytes per slot in the window (header dead space + padded
    /// payload, see [`SlotBuf::stride`]).
    pub(crate) stride: u64,
    /// Max payload bytes per block this window's slots can hold.
    pub(crate) block_cap: u32,
}

impl WindowDesc {
    /// The packed window of `slots` slots for `block_cap` payload bytes
    /// each — the layout of a [`crate::store::BlockPool`] — validated.
    pub(crate) fn packed(slots: u32, block_cap: usize) -> io::Result<WindowDesc> {
        let desc = WindowDesc {
            slot_count: slots,
            stride: SlotBuf::stride(block_cap) as u64,
            block_cap: u32::try_from(block_cap).map_err(|_| proto_err("block cap past u32"))?,
        };
        desc.validate()?;
        Ok(desc)
    }

    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(DESC_HEAD_LEN);
        b.extend_from_slice(&DESC_MAGIC.to_be_bytes());
        b.extend_from_slice(&DESC_VERSION.to_be_bytes());
        b.extend_from_slice(&self.slot_count.to_be_bytes());
        b.extend_from_slice(&self.stride.to_be_bytes());
        b.extend_from_slice(&self.block_cap.to_be_bytes());
        b
    }

    /// Bytes the window spans, `slot_count × stride` (checked by
    /// [`WindowDesc::validate`]).
    pub(crate) fn window_len(&self) -> usize {
        (self.slot_count as u64 * self.stride) as usize
    }

    /// Validate a received descriptor before mapping anything: a
    /// page-multiple stride with room for the block cap, a bounded slot
    /// count and a bounded window. Slots at `i × stride` cannot overlap
    /// or straddle each other, so this is the whole bounds check that
    /// makes a later "write to unmapped slot" impossible instead of a
    /// SIGBUS.
    pub(crate) fn validate(&self) -> io::Result<()> {
        if !self.stride.is_multiple_of(STORE_ALIGN as u64) || self.stride < 2 * STORE_ALIGN as u64 {
            return Err(proto_err(format!(
                "shm descriptor: bad stride {}",
                self.stride
            )));
        }
        if self.slot_count == 0 || self.slot_count > MAX_DESC_SLOTS {
            return Err(proto_err(format!(
                "shm descriptor: bad slot count {}",
                self.slot_count
            )));
        }
        let payload_room = self.stride - STORE_ALIGN as u64;
        if self.block_cap == 0 || self.block_cap as u64 > payload_room {
            return Err(proto_err(format!(
                "shm descriptor: block cap {} exceeds slot payload room {payload_room}",
                self.block_cap
            )));
        }
        if (self.slot_count as u64)
            .checked_mul(self.stride)
            .is_none_or(|len| len > MAX_WINDOW_LEN)
        {
            return Err(proto_err(format!(
                "shm descriptor: {} slots of {} bytes exceed the {MAX_WINDOW_LEN}-byte window cap",
                self.slot_count, self.stride
            )));
        }
        Ok(())
    }
}

/// Parse and validate the fixed head (after the 2 magic bytes already
/// consumed).
pub(crate) fn decode_desc_head(head: &[u8; DESC_HEAD_LEN - 2]) -> io::Result<WindowDesc> {
    let version = u16::from_be_bytes([head[0], head[1]]);
    if version != DESC_VERSION {
        return Err(proto_err(format!(
            "shm descriptor version {version} unsupported"
        )));
    }
    let desc = WindowDesc {
        slot_count: u32::from_be_bytes(head[2..6].try_into().unwrap()),
        stride: u64::from_be_bytes(head[6..14].try_into().unwrap()),
        block_cap: u32::from_be_bytes(head[14..18].try_into().unwrap()),
    };
    desc.validate()?;
    Ok(desc)
}

/// What opens a source's control stream.
pub(super) enum Preamble {
    /// The sink's window, its descriptor validated and mapped.
    Window(WindowDesc, Mapping),
    /// The first two bytes of an ordinary frame: the sink rejected the
    /// session (daemon busy / geometry) before mapping anything, and the
    /// rejection reaches the pipeline through its normal control path.
    Frame([u8; 2]),
}

/// Read the preamble off the front of a source's control stream: the
/// window descriptor with the memfd its `SCM_RIGHTS` carries, or, if the
/// first two bytes are a legal frame prefix rather than the magic, those
/// two bytes.
pub(super) fn read_preamble(ctrl: &UnixStream) -> io::Result<Preamble> {
    let mut fd: Option<OwnedFd> = None;
    let mut magic = [0u8; 2];
    read_exact_with_fd(ctrl, &mut magic, &mut fd)?;
    if u16::from_be_bytes(magic) != DESC_MAGIC {
        return Ok(Preamble::Frame(magic));
    }
    let mut head = [0u8; DESC_HEAD_LEN - 2];
    read_exact_with_fd(ctrl, &mut head, &mut fd)?;
    let desc = decode_desc_head(&head)?;
    let fd =
        fd.ok_or_else(|| proto_err("shm descriptor arrived without an SCM_RIGHTS window fd"))?;
    let map = map_window(fd.as_raw_fd(), desc.window_len())?;
    Ok(Preamble::Window(desc, map))
}

// -----------------------------------------------------------------
// Per-session window
// -----------------------------------------------------------------

/// Create a memfd window for exactly one session, as `desc` lays it
/// out, and ship the descriptor preamble on `ctrl` with the fd
/// attached. This is the isolation boundary of the transport — a
/// session's peer maps *this* window and nothing else, so one tenant can
/// never read or scribble another tenant's in-flight payloads (the
/// daemon's arena lease for an shm session is accounting, not memory).
/// The mapping keeps the memfd alive; the fd itself closes on return.
pub(super) fn share_window(desc: &WindowDesc, ctrl: &UnixStream) -> io::Result<Mapping> {
    let fd = memfd_create(desc.window_len())?;
    let map = map_window(fd.as_raw_fd(), desc.window_len())?;
    send_with_fd(ctrl, &desc.encode(), fd.as_raw_fd())?;
    Ok(map)
}

// -----------------------------------------------------------------
// Capability probe
// -----------------------------------------------------------------

/// Whether this host can run the shm transport: memfd creation,
/// `SCM_RIGHTS` passing over a unix socketpair, and a shared
/// mapping of the received fd that actually aliases the original.
/// Mirrors `uring_supported`'s live-probe approach — run the real
/// mechanism once rather than sniffing kernel versions.
pub fn shm_supported() -> bool {
    fn run() -> io::Result<bool> {
        let fd = memfd_create(STORE_ALIGN)?;
        let m1 = map_window(fd.as_raw_fd(), STORE_ALIGN)?;
        // SAFETY: byte 0 lies inside the live one-page mapping `m1`.
        unsafe { m1.base().write(0xA5) };
        let (a, b) = UnixStream::pair()?;
        send_with_fd(&a, &[0x51], fd.as_raw_fd())?;
        let mut byte = [0u8; 1];
        let mut passed: Option<OwnedFd> = None;
        read_exact_with_fd(&b, &mut byte, &mut passed)?;
        let passed = match passed {
            Some(f) => f,
            None => return Ok(false),
        };
        let m2 = map_window(passed.as_raw_fd(), STORE_ALIGN)?;
        // SAFETY: bytes 0 and 1 lie inside the live one-page mappings
        // `m1` and `m2`, and this thread is their only user.
        unsafe {
            if m2.base().read() != 0xA5 {
                return Ok(false);
            }
            m2.base().add(1).write(0x5A);
            Ok(byte[0] == 0x51 && m1.base().add(1).read() == 0x5A)
        }
    }
    run().unwrap_or(false)
}
