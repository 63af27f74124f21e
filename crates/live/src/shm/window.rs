//! The window: memfd creation and mapping, `SCM_RIGHTS` fd passing, the
//! window descriptor, a session's own window and the capability probe.

use super::fence::SnkWindow;
use crate::net::{proto_err, retry_interrupted};
use crate::store::{Mapping, SlotBuf, STORE_ALIGN};
use parking_lot::Mutex;
use std::io::{self, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::unix::net::UnixStream;

// -----------------------------------------------------------------
// Raw syscall shims (no libc dep; precedent: `net`, `uring`)
// -----------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
const SYS_MEMFD_CREATE: i64 = 319;
#[cfg(target_arch = "aarch64")]
const SYS_MEMFD_CREATE: i64 = 279;

const MFD_CLOEXEC: u32 = 1;
const MSG_NOSIGNAL: i32 = 0x4000;
const MSG_CMSG_CLOEXEC: i32 = 0x4000_0000;
const SOL_SOCKET: i32 = 1;
const SCM_RIGHTS: i32 = 1;

#[repr(C)]
struct IoVec {
    base: *mut core::ffi::c_void,
    len: usize,
}

/// 64-bit Linux `struct msghdr` — `repr(C)` field order matches the
/// kernel/glibc layout (natural alignment inserts the same padding
/// after `namelen` and `flags` as the C definition).
#[repr(C)]
struct MsgHdr {
    name: *mut core::ffi::c_void,
    namelen: u32,
    iov: *mut IoVec,
    iovlen: usize,
    control: *mut core::ffi::c_void,
    controllen: usize,
    flags: i32,
}

/// 64-bit Linux `struct cmsghdr`: 16-byte header, data follows.
/// For one fd: CMSG_LEN(4) = 20, CMSG_SPACE(4) = 24.
const CMSG_HDR: usize = 16;
const CMSG_LEN_ONE_FD: usize = CMSG_HDR + 4;
const CMSG_SPACE_ONE_FD: usize = 24;

extern "C" {
    fn syscall(num: i64, ...) -> i64;
    fn ftruncate(fd: i32, len: i64) -> i32;
    fn sendmsg(fd: i32, msg: *const MsgHdr, flags: i32) -> isize;
    fn recvmsg(fd: i32, msg: *mut MsgHdr, flags: i32) -> isize;
    fn close(fd: i32) -> i32;
    fn lseek(fd: i32, offset: i64, whence: i32) -> i64;
}

const SEEK_END: i32 = 2;

pub(super) fn memfd_create(len: usize) -> io::Result<OwnedFd> {
    let name = b"rftp-shm-window\0";
    let fd = unsafe { syscall(SYS_MEMFD_CREATE, name.as_ptr(), MFD_CLOEXEC) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    let fd = unsafe { OwnedFd::from_raw_fd(fd as RawFd) };
    let rc = unsafe { ftruncate(fd.as_raw_fd(), len as i64) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(fd)
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
    let size = unsafe { lseek(fd, 0, SEEK_END) };
    if size < 0 {
        return Err(proto_err(format!(
            "shm window fd size unreadable ({}) — refusing to map an \
             unverifiable length",
            io::Error::last_os_error()
        )));
    }
    if (size as u64) < len as u64 {
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
    let mut iov = IoVec {
        base: bytes.as_ptr() as *mut core::ffi::c_void,
        len: bytes.len(),
    };
    let msg = MsgHdr {
        name: std::ptr::null_mut(),
        namelen: 0,
        iov: &mut iov,
        iovlen: 1,
        control: cmsg.as_mut_ptr() as *mut core::ffi::c_void,
        controllen: CMSG_LEN_ONE_FD,
        flags: 0,
    };
    let n = retry_interrupted(|| {
        // SAFETY: `msg` points at `iov`, `bytes` and `cmsg`, all alive
        // for the call, and the kernel only reads them.
        let n = unsafe { sendmsg(sock.as_raw_fd(), &msg, MSG_NOSIGNAL) };
        if n < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(n as usize)
        }
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
    let mut iov = IoVec {
        base: buf.as_mut_ptr() as *mut core::ffi::c_void,
        len: buf.len(),
    };
    let mut msg = MsgHdr {
        name: std::ptr::null_mut(),
        namelen: 0,
        iov: &mut iov,
        iovlen: 1,
        control: cmsg.as_mut_ptr() as *mut core::ffi::c_void,
        controllen: cmsg.len(),
        flags: 0,
    };
    let n = retry_interrupted(|| {
        let n = unsafe { recvmsg(sock.as_raw_fd(), &mut msg, MSG_CMSG_CLOEXEC) };
        if n < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(n as usize)
        }
    })?;
    // Walk the control messages we actually received.
    let mut off = 0usize;
    while off + CMSG_HDR <= msg.controllen {
        let clen = u64::from_ne_bytes(cmsg[off..off + 8].try_into().unwrap()) as usize;
        if clen < CMSG_HDR || off + clen > msg.controllen {
            break;
        }
        let level = i32::from_ne_bytes(cmsg[off + 8..off + 12].try_into().unwrap());
        let ctype = i32::from_ne_bytes(cmsg[off + 12..off + 16].try_into().unwrap());
        if level == SOL_SOCKET && ctype == SCM_RIGHTS {
            let mut doff = off + CMSG_HDR;
            while doff + 4 <= off + clen {
                let fd = i32::from_ne_bytes(cmsg[doff..doff + 4].try_into().unwrap());
                if fd >= 0 {
                    if out.is_none() {
                        *out = Some(unsafe { OwnedFd::from_raw_fd(fd) });
                    } else {
                        unsafe { close(fd) };
                    }
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
pub(super) const DESC_MAGIC: u16 = 0xFFFF;
const DESC_VERSION: u16 = 1;
pub(super) const DESC_HEAD_LEN: usize = 28;
/// Ceiling on a descriptor's slot count — a corrupt or hostile
/// descriptor cannot make the source allocate without bound.
const MAX_DESC_SLOTS: usize = 1 << 20;
/// Ceiling on a descriptor's window length (1 TiB).
const MAX_WINDOW_LEN: u64 = 1 << 40;

/// The sink's window geometry as shipped to the source: the rkey
/// table of this transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WindowDesc {
    /// Bytes per slot in the window (header dead space + padded
    /// payload, see [`SlotBuf::stride`]).
    pub(crate) stride: u64,
    /// Total mapped window bytes.
    pub(crate) window_len: u64,
    /// Max payload bytes per block this window's slots can hold.
    pub(crate) block_cap: u32,
    /// Window byte offset of each wire slot index.
    pub(crate) offsets: Vec<u64>,
}

impl WindowDesc {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(DESC_HEAD_LEN + self.offsets.len() * 8);
        b.extend_from_slice(&DESC_MAGIC.to_be_bytes());
        b.extend_from_slice(&DESC_VERSION.to_be_bytes());
        b.extend_from_slice(&(self.offsets.len() as u32).to_be_bytes());
        b.extend_from_slice(&self.stride.to_be_bytes());
        b.extend_from_slice(&self.window_len.to_be_bytes());
        b.extend_from_slice(&self.block_cap.to_be_bytes());
        for off in &self.offsets {
            b.extend_from_slice(&off.to_be_bytes());
        }
        b
    }

    /// Validate a received descriptor before trusting any offset:
    /// every slot must lie whole and aligned inside the claimed
    /// window, or the source refuses the session — this is the
    /// bounds check that makes a later "write to unmapped slot"
    /// structurally impossible instead of a SIGBUS.
    pub(crate) fn validate(&self) -> io::Result<()> {
        if self.stride == 0
            || !self.stride.is_multiple_of(STORE_ALIGN as u64)
            || self.stride < 2 * STORE_ALIGN as u64
        {
            return Err(proto_err(format!(
                "shm descriptor: bad stride {}",
                self.stride
            )));
        }
        if self.window_len == 0 || self.window_len > MAX_WINDOW_LEN {
            return Err(proto_err(format!(
                "shm descriptor: bad window length {}",
                self.window_len
            )));
        }
        if self.offsets.is_empty() || self.offsets.len() > MAX_DESC_SLOTS {
            return Err(proto_err(format!(
                "shm descriptor: bad slot count {}",
                self.offsets.len()
            )));
        }
        let payload_room = self.stride - STORE_ALIGN as u64;
        if self.block_cap == 0 || self.block_cap as u64 > payload_room {
            return Err(proto_err(format!(
                "shm descriptor: block cap {} exceeds slot payload room {payload_room}",
                self.block_cap
            )));
        }
        for &off in &self.offsets {
            if !off.is_multiple_of(STORE_ALIGN as u64)
                || off
                    .checked_add(self.stride)
                    .is_none_or(|end| end > self.window_len)
            {
                return Err(proto_err(format!(
                    "shm descriptor: slot offset {off} out of window"
                )));
            }
        }
        // No two slots may alias: overlapping offsets would let one
        // credited write tear another, and the desync would surface
        // later as a confusing publication failure instead of a
        // typed descriptor error here.
        let mut sorted = self.offsets.clone();
        sorted.sort_unstable();
        for pair in sorted.windows(2) {
            if pair[1] - pair[0] < self.stride {
                return Err(proto_err(format!(
                    "shm descriptor: slot offsets {} and {} overlap (stride {})",
                    pair[0], pair[1], self.stride
                )));
            }
        }
        Ok(())
    }
}

/// Parse the fixed head (after the 2 magic bytes already consumed).
pub(super) fn decode_desc_head(
    head: &[u8; DESC_HEAD_LEN - 2],
) -> io::Result<(usize, u64, u64, u32)> {
    let version = u16::from_be_bytes([head[0], head[1]]);
    if version != DESC_VERSION {
        return Err(proto_err(format!(
            "shm descriptor version {version} unsupported"
        )));
    }
    let slots = u32::from_be_bytes(head[2..6].try_into().unwrap()) as usize;
    if slots == 0 || slots > MAX_DESC_SLOTS {
        return Err(proto_err(format!("shm descriptor: bad slot count {slots}")));
    }
    let stride = u64::from_be_bytes(head[6..14].try_into().unwrap());
    let window_len = u64::from_be_bytes(head[14..22].try_into().unwrap());
    let block_cap = u32::from_be_bytes(head[22..26].try_into().unwrap());
    Ok((slots, stride, window_len, block_cap))
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
    let (slots, stride, window_len, block_cap) = decode_desc_head(&head)?;
    let mut table = vec![0u8; slots * 8];
    read_exact_with_fd(ctrl, &mut table, &mut fd)?;
    let offsets = table
        .chunks_exact(8)
        .map(|c| u64::from_be_bytes(c.try_into().unwrap()))
        .collect();
    let desc = WindowDesc {
        stride,
        window_len,
        block_cap,
        offsets,
    };
    desc.validate()?;
    let fd =
        fd.ok_or_else(|| proto_err("shm descriptor arrived without an SCM_RIGHTS window fd"))?;
    let map = map_window(fd.as_raw_fd(), desc.window_len as usize)?;
    Ok(Preamble::Window(desc, map))
}

// -----------------------------------------------------------------
// Per-session window
// -----------------------------------------------------------------

/// A freshly-created memfd window for exactly one session: its own
/// fd, its own mapping, offsets `0, stride, 2·stride, …`. This is
/// the isolation boundary of the transport — a session's peer maps
/// *this* window and nothing else, so one tenant can never read or
/// scribble another tenant's in-flight payloads (the daemon hands
/// each admitted shm session one of these; the lease it holds in
/// the shared arena is accounting, not memory).
pub(crate) struct SessionWindow {
    fd: OwnedFd,
    map: Mapping,
    desc: WindowDesc,
}

impl SessionWindow {
    pub(crate) fn create(slots: usize, block_cap: usize) -> io::Result<SessionWindow> {
        let stride = SlotBuf::stride(block_cap);
        let window_len = stride
            .checked_mul(slots)
            .ok_or_else(|| proto_err("shm window size overflow"))?;
        let fd = memfd_create(window_len)?;
        let map = map_window(fd.as_raw_fd(), window_len)?;
        let desc = WindowDesc {
            stride: stride as u64,
            window_len: window_len as u64,
            block_cap: block_cap as u32,
            offsets: (0..slots).map(|i| (i * stride) as u64).collect(),
        };
        Ok(SessionWindow { fd, map, desc })
    }

    /// Ship the descriptor preamble with the window fd attached.
    pub(crate) fn send_descriptor(&self, ctrl: &UnixStream) -> io::Result<()> {
        send_with_fd(ctrl, &self.desc.encode(), self.fd.as_raw_fd())
    }

    /// The sink's side of the window: external slot views over it — the
    /// sink pipeline's buffers alias the very bytes the source stores —
    /// and the sink window, which keeps the fd and mapping alive for the
    /// session.
    pub(crate) fn into_sink(self) -> (Vec<Mutex<SlotBuf>>, SnkWindow) {
        let stride = self.desc.stride as usize;
        let cap = self.desc.block_cap as usize;
        // SAFETY: slot `i` lies whole inside the mapping, which `create`
        // sized to `slots × stride`, and the window returned beside the
        // views keeps the mapping alive while the session uses them.
        let bufs = (0..self.desc.offsets.len())
            .map(|i| Mutex::new(unsafe { SlotBuf::external(self.map.base().add(i * stride), cap) }))
            .collect();
        let win = SnkWindow::owned(self.map, self.fd, self.desc.offsets, cap as u32);
        (bufs, win)
    }
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
