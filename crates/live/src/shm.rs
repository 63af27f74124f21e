//! Shared-memory one-sided transport: the sink's credited slot pool
//! *is* a memfd window both processes map, and a source "send" is a
//! store into the credited slot's memory — a real one-sided WRITE with
//! zero receiver-side payload copies. Only three things ever cross a
//! socket:
//!
//! * **control** (`UnixStream`) — the exact length-prefixed control
//!   frames every other backend speaks (credits, acks, session setup;
//!   PROTOCOL.md is byte-identical on this plane), plus a one-shot
//!   *window descriptor* preamble that also ferries the memfd file
//!   descriptor via `SCM_RIGHTS`;
//! * **notify** (`UnixStream`) — 16-byte [`DataFrameHeader`] records,
//!   source → sink: the WRITE-with-notification doorbell. The payload
//!   itself never touches this stream;
//! * **the window** — payload bytes, written exactly once, by the
//!   source, directly into the slot the credit named.
//!
//! Session set-up is not this module's: both sockets open with the
//! `net.rs` hello and are grouped by the one
//! `net::StreamAssembler` — this module only implements its
//! socket trait for `UnixStream` (nothing to tune; a control hello opens
//! one data stream, the notify stream at index 0) — and under the
//! daemon the pair climbs the one admission ladder, which hands it back
//! to `run_shm_session`, the same runner [`run_shm_sink`] calls.
//!
//! ## Window descriptor
//!
//! Sent by the sink on the control socket before any control frame,
//! with the memfd attached to the same `sendmsg`:
//!
//! ```text
//! offset  0..2    magic    0xFFFF (impossible frame length: control
//!                          frame bodies are capped at MAX_FRAME_BODY,
//!                          so a source reading the control stream can
//!                          always tell descriptor from frame)
//!         2..4    version  1
//!         4..8    slots    credited slot count (BE)
//!         8..16   stride   bytes per slot in the window (BE)
//!         16..24  len      total window length in bytes (BE)
//!         24..28  cap      max payload bytes per block (BE)
//!         28..    offsets  slots × u64 BE — window byte offset of each
//!                          wire slot index (the "rkey table"; every
//!                          sink here emits 0,stride,2·stride…, but any
//!                          non-overlapping in-window table is legal)
//! ```
//!
//! A daemon that *rejects* a session (busy/geometry) replies with an
//! ordinary control frame and no descriptor — the source's control
//! reader sees a legal frame prefix instead of 0xFFFF and falls back to
//! plain frame decoding, so rejection needs no shared memory at all.
//!
//! ## Publication protocol (per slot)
//!
//! The first 8 bytes of each slot's stride are dead space on the wire
//! (the wire image starts at `STORE_ALIGN - PAYLOAD_HEADER_LEN`; see
//! [`SlotBuf::external`]) and hold one `AtomicU64` generation word:
//! `(epoch << 2) | state`, state ∈ {GRANTED=0, WRITING=1,
//! PUBLISHED=2}. Ownership alternates one-sidedly:
//!
//! * **sink, at credit time**: bump the epoch and release-store
//!   `(e, GRANTED)` — the slot now belongs to the source;
//! * **source, at place time**: acquire-load the word, require
//!   `GRANTED`, CAS to `(e, WRITING)`, copy the wire image in, then
//!   release-store `(e, PUBLISHED)` — the fence that replaces the
//!   receiver copy — and write one notify record;
//! * **sink, at notify time**: acquire-load and require exactly
//!   `(e, PUBLISHED)` for the epoch it granted — anything else means a
//!   stale or torn write and fails the session loudly instead of
//!   verifying garbage.
//!
//! A retransmitted duplicate can therefore never tear a slot under
//! verification: the source keeps a per-slot `(last seq, epoch)` record
//! and a resend of an already-placed seq re-notifies without touching
//! memory, while a *stale* resend (the slot was since re-credited to a
//! newer block) is dropped entirely — see [`SrcWindow::place`].
//!
//! ## Trust model
//!
//! Same-host, same trust domain as the hello token (net.rs): the peer
//! holds a writable mapping of **its own session's window** — one memfd
//! created for that session alone ([`SessionWindow`]), so under the
//! daemon a tenant can scribble its own in-flight payloads (the sink's
//! pattern comparison detects that, as with an RDMA rkey holder writing
//! your pinned memory) but can never see or corrupt another session's.
//! The unix sockets are created owner-only (0600): admission itself is
//! limited to the daemon's uid.

#[cfg(target_os = "linux")]
mod imp {
    use crate::net::{
        self, proto_err, read_exact_or_eof, retry_interrupted, shutdown_all, write_hello,
        SessionSocket, SessionStreams, KIND_CTRL, KIND_DATA,
    };
    use crate::split::{run_sink_session, FairShare};
    use crate::store::{Mapping, SlotBuf, STORE_ALIGN};
    use crate::transport::{CtrlRx, CtrlTx, DataRx, DataTx, SinkTransport, SourceTransport};
    use crate::{LiveConfig, LiveReport};
    use parking_lot::Mutex;
    use rftp_core::wire::{
        CtrlMsg, DataFrameHeader, FrameDecoder, DATA_FRAME_HEADER_LEN, PAYLOAD_HEADER_LEN,
    };
    use std::io::{self, Read, Write};
    use std::net::Shutdown;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::os::unix::fs::PermissionsExt;
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, OnceLock};
    use std::time::Duration;

    // -----------------------------------------------------------------
    // Raw syscall shims (no libc dep; precedent: net.rs, uring.rs)
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

    fn memfd_create(len: usize) -> io::Result<OwnedFd> {
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

    /// One `sendmsg` carrying `bytes` (or as much as the kernel takes)
    /// with `fd` attached as an `SCM_RIGHTS` control message. Returns
    /// the byte count sent; the fd rides with the *first* byte, so a
    /// short send continues with plain writes.
    fn sendmsg_with_fd(sock: &UnixStream, bytes: &[u8], fd: RawFd) -> io::Result<usize> {
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
            let n = unsafe { sendmsg(sock.as_raw_fd(), &msg, MSG_NOSIGNAL) };
            if n < 0 {
                Err(io::Error::last_os_error())
            } else {
                Ok(n as usize)
            }
        })?;
        Ok(n)
    }

    /// Send `bytes` on `sock` with `fd` attached to the leading
    /// `sendmsg`; any remainder after a short send goes as plain bytes.
    pub(crate) fn send_with_fd(sock: &UnixStream, bytes: &[u8], fd: RawFd) -> io::Result<()> {
        let n = sendmsg_with_fd(sock, bytes, fd)?;
        if n == 0 {
            return Err(io::ErrorKind::WriteZero.into());
        }
        if n < bytes.len() {
            let mut s = sock;
            s.write_all(&bytes[n..])?;
        }
        Ok(())
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
    const DESC_MAGIC: u16 = 0xFFFF;
    const DESC_VERSION: u16 = 1;
    const DESC_HEAD_LEN: usize = 28;
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
    fn decode_desc_head(head: &[u8; DESC_HEAD_LEN - 2]) -> io::Result<(usize, u64, u64, u32)> {
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

    // -----------------------------------------------------------------
    // Per-slot generation word
    // -----------------------------------------------------------------

    /// Slot states in the low 2 bits of the generation word; the epoch
    /// lives in the upper 62 and is bumped by the sink at every grant.
    const SLOT_GRANTED: u64 = 0;
    const SLOT_WRITING: u64 = 1;
    const SLOT_PUBLISHED: u64 = 2;

    fn word_of(epoch: u64, state: u64) -> u64 {
        (epoch << 2) | state
    }

    /// The generation word lives in the first 8 bytes of the slot's
    /// stride — dead space the wire image never touches (the image
    /// starts at `STORE_ALIGN - PAYLOAD_HEADER_LEN`).
    unsafe fn slot_word<'a>(base: *mut u8, off: u64) -> &'a AtomicU64 {
        &*(base.add(off as usize) as *const AtomicU64)
    }

    /// Where a slot's wire image (payload header + payload) begins,
    /// matching [`SlotBuf::external`]'s deref region.
    unsafe fn wire_ptr(base: *mut u8, off: u64) -> *mut u8 {
        base.add(off as usize + STORE_ALIGN - PAYLOAD_HEADER_LEN)
    }

    // -----------------------------------------------------------------
    // Source half
    // -----------------------------------------------------------------

    /// What the source last placed into one sink slot: the block seq and
    /// the grant epoch it was published under. `seq == -1` means the
    /// slot was never written by this session.
    struct SentEntry {
        seq: i64,
        epoch: u64,
    }

    /// Outcome of a one-sided place attempt.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum PlaceOutcome {
        /// Fresh write: wire image stored, slot published — notify.
        Placed,
        /// Duplicate of the block already published in this slot —
        /// memory untouched, but the notify record is worth resending
        /// (the ack may be slow, and re-notifying is idempotent at the
        /// sink, which dedups on seq).
        Renotify,
        /// Stale retransmit: the slot has since been re-credited to a
        /// newer block. Dropped entirely — writing would tear the
        /// successor, notifying would lie.
        Stale,
    }

    /// The source's view of the sink's window: the mapping, the rkey
    /// table, and the per-slot send history that makes retransmits
    /// tear-proof.
    ///
    /// **Why the seq rule exists.** Credits can overtake acks: the sink
    /// flushes a freed slot's re-grant immediately while the block's
    /// ack may dwell in a coalescing batch. A slot can therefore be
    /// re-credited and re-dispatched to a *new* block while the old
    /// block's retransmit watchdog still considers it in flight. The
    /// per-slot `(last seq, epoch)` record disambiguates every case by
    /// seq comparison — the dispatcher pairs blocks to slots in seq
    /// order, so per-slot seqs are strictly monotonic:
    ///
    /// * `hdr.seq > last`: first placement of a newer block — the word
    ///   must be `GRANTED` (anything else is a protocol fault, failed
    ///   loudly rather than hung);
    /// * `hdr.seq == last`: watchdog resend of the same block —
    ///   re-notify if the slot still holds it published, else stale;
    /// * `hdr.seq < last`: stale resend for a slot that moved on — drop.
    pub(crate) struct SrcWindow {
        map: Mapping,
        block_cap: u32,
        offsets: Vec<u64>,
        sent: Vec<Mutex<SentEntry>>,
    }

    impl SrcWindow {
        fn new(map: Mapping, desc: &WindowDesc) -> SrcWindow {
            let sent = (0..desc.offsets.len())
                .map(|_| Mutex::new(SentEntry { seq: -1, epoch: 0 }))
                .collect();
            SrcWindow {
                map,
                block_cap: desc.block_cap,
                offsets: desc.offsets.clone(),
                sent,
            }
        }

        /// One-sided place of `wire` into the slot `hdr` names. This is
        /// the transport's entire data path: bounds checks, the
        /// generation-word handshake, one `memcpy` into shared memory,
        /// one release fence. No socket, no receiver copy.
        pub(crate) fn place(&self, hdr: &DataFrameHeader, wire: &[u8]) -> io::Result<PlaceOutcome> {
            let slot = hdr.slot as usize;
            if slot >= self.offsets.len() {
                return Err(proto_err(format!(
                    "shm place: slot {slot} outside the {}-slot window",
                    self.offsets.len()
                )));
            }
            if hdr.len > self.block_cap {
                return Err(proto_err(format!(
                    "shm place: payload {} exceeds window block cap {}",
                    hdr.len, self.block_cap
                )));
            }
            debug_assert_eq!(wire.len(), hdr.wire_len());
            let off = self.offsets[slot];
            let word = unsafe { slot_word(self.map.base(), off) };
            let mut entry = self.sent[slot].lock();
            let seq = hdr.seq as i64;
            if seq < entry.seq {
                return Ok(PlaceOutcome::Stale);
            }
            if seq == entry.seq {
                // Same block resent: if the slot still holds it
                // published under the same grant, the bytes are already
                // there (byte-identical by protocol) — never rewrite a
                // slot the sink may be verifying.
                let w = word.load(Ordering::Acquire);
                return if w == word_of(entry.epoch, SLOT_PUBLISHED) {
                    Ok(PlaceOutcome::Renotify)
                } else {
                    Ok(PlaceOutcome::Stale)
                };
            }
            // Fresh block for this slot: the sink must have re-granted.
            let w = word.load(Ordering::Acquire);
            if w & 0b11 != SLOT_GRANTED {
                return Err(proto_err(format!(
                    "shm place: slot {slot} not granted (word {w:#x}) for seq {} — \
                     window desynchronized",
                    hdr.seq
                )));
            }
            let epoch = w >> 2;
            if word
                .compare_exchange(
                    w,
                    word_of(epoch, SLOT_WRITING),
                    Ordering::Acquire,
                    Ordering::Relaxed,
                )
                .is_err()
            {
                return Err(proto_err(format!(
                    "shm place: slot {slot} changed hands mid-claim — window desynchronized"
                )));
            }
            unsafe {
                std::ptr::copy_nonoverlapping(
                    wire.as_ptr(),
                    wire_ptr(self.map.base(), off),
                    wire.len(),
                );
            }
            // The fence that replaces the receiver copy: everything
            // stored above happens-before any sink thread that
            // acquire-loads PUBLISHED.
            word.store(word_of(epoch, SLOT_PUBLISHED), Ordering::Release);
            entry.seq = seq;
            entry.epoch = epoch;
            Ok(PlaceOutcome::Placed)
        }
    }

    /// State shared by every source-side endpoint of one shm session:
    /// the notify stream all channels write their doorbell records to,
    /// and the window, installed by the control reader when the
    /// descriptor lands (always before any credit can arrive — the
    /// descriptor precedes every control frame on the same stream).
    pub(crate) struct ShmSourceState {
        notify: Mutex<UnixStream>,
        window: OnceLock<SrcWindow>,
    }

    /// One data channel's send endpoint. All channels share the session
    /// state: the window is one, the notify stream is one — a "channel"
    /// on this transport is purely a pipeline-concurrency construct.
    struct ShmDataTx {
        shared: Arc<ShmSourceState>,
    }

    impl DataTx for ShmDataTx {
        fn send(&self, hdr: DataFrameHeader, wire: &[u8]) -> io::Result<()> {
            let win = self.shared.window.get().ok_or_else(|| {
                proto_err("shm window not established (no descriptor before first credit)")
            })?;
            match win.place(&hdr, wire)? {
                PlaceOutcome::Stale => Ok(()),
                PlaceOutcome::Placed | PlaceOutcome::Renotify => {
                    let mut rec = [0u8; DATA_FRAME_HEADER_LEN];
                    hdr.encode(&mut rec);
                    retry_interrupted(|| self.shared.notify.lock().write_all(&rec))
                }
            }
        }
    }

    /// Source control reader: consumes the one-shot window descriptor
    /// (with its `SCM_RIGHTS` fd) off the front of the control stream,
    /// then decodes ordinary frames exactly like the TCP reader.
    struct ShmCtrlRx {
        stream: UnixStream,
        dec: FrameDecoder,
        buf: Vec<u8>,
        shared: Arc<ShmSourceState>,
        desc_done: bool,
    }

    impl ShmCtrlRx {
        /// Read the descriptor preamble. If the first two bytes are a
        /// legal frame prefix instead of the descriptor magic, the sink
        /// rejected the session before mapping anything (daemon busy /
        /// geometry) — feed the bytes to the frame decoder and carry on;
        /// the pipeline will surface the rejection through its normal
        /// control path.
        fn consume_descriptor(&mut self) -> io::Result<()> {
            let mut fd: Option<OwnedFd> = None;
            let mut magic = [0u8; 2];
            read_exact_with_fd(&self.stream, &mut magic, &mut fd)?;
            if u16::from_be_bytes(magic) != DESC_MAGIC {
                self.dec.push(&magic);
                self.desc_done = true;
                return Ok(());
            }
            let mut head = [0u8; DESC_HEAD_LEN - 2];
            read_exact_with_fd(&self.stream, &mut head, &mut fd)?;
            let (slots, stride, window_len, block_cap) = decode_desc_head(&head)?;
            let mut table = vec![0u8; slots * 8];
            read_exact_with_fd(&self.stream, &mut table, &mut fd)?;
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
            let fd = fd.ok_or_else(|| {
                proto_err("shm descriptor arrived without an SCM_RIGHTS window fd")
            })?;
            let map = map_window(fd.as_raw_fd(), desc.window_len as usize)?;
            let _ = self.shared.window.set(SrcWindow::new(map, &desc));
            self.desc_done = true;
            Ok(())
        }
    }

    impl CtrlRx for ShmCtrlRx {
        fn recv(&mut self) -> io::Result<Option<CtrlMsg>> {
            if !self.desc_done {
                self.consume_descriptor()?;
            }
            loop {
                if let Some(msg) = self
                    .dec
                    .next_frame()
                    .map_err(|e| proto_err(format!("bad control frame: {e:?}")))?
                {
                    return Ok(Some(msg));
                }
                let n = retry_interrupted(|| self.stream.read(&mut self.buf))?;
                if n == 0 {
                    return if self.dec.pending_bytes() == 0 {
                        Ok(None)
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "control stream closed mid-frame",
                        ))
                    };
                }
                self.dec.push(&self.buf[..n]);
            }
        }
    }

    /// The unix-socket family of the session front door: nothing to
    /// tune, and an shm session's data plane is the window — whatever
    /// channel count its control hello announces, the only data stream
    /// is the notify stream at index 0.
    impl SessionSocket for UnixStream {
        fn try_clone(&self) -> io::Result<Self> {
            UnixStream::try_clone(self)
        }
        fn shutdown(&self, how: Shutdown) -> io::Result<()> {
            UnixStream::shutdown(self, how)
        }
        fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
            UnixStream::set_read_timeout(self, dur)
        }
        fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
            UnixStream::set_nonblocking(self, nonblocking)
        }
        fn tune(&self, _kind: u8, _sockbuf: usize) -> io::Result<()> {
            Ok(())
        }
        fn data_streams(_channels: usize) -> usize {
            1
        }
    }

    /// Connect the source half of an shm session to a sink listening on
    /// the unix socket at `path`. Two connections — control and notify —
    /// carry hellos in the net.rs format (the notify stream plays the
    /// data-stream role with index 0); the window arrives back over
    /// control as the descriptor preamble.
    pub fn connect_source_shm(
        path: impl AsRef<Path>,
        channels: usize,
    ) -> io::Result<SourceTransport> {
        assert!(channels >= 1 && channels <= u16::MAX as usize);
        let path = path.as_ref();
        let token = net::new_session_token();
        let mut ctrl = UnixStream::connect(path)?;
        write_hello(&mut ctrl, KIND_CTRL, channels as u16, token)?;
        let mut notify = UnixStream::connect(path)?;
        write_hello(&mut notify, KIND_DATA, 0, token)?;
        let shared = Arc::new(ShmSourceState {
            notify: Mutex::new(notify.try_clone()?),
            window: OnceLock::new(),
        });
        let ctrl_rd = ctrl.try_clone()?;
        let data: Vec<Box<dyn DataTx>> = (0..channels)
            .map(|_| {
                Box::new(ShmDataTx {
                    shared: Arc::clone(&shared),
                }) as Box<dyn DataTx>
            })
            .collect();
        let handles = Arc::new(vec![ctrl.try_clone()?, notify]);
        let shutdown_handles = Arc::clone(&handles);
        Ok(SourceTransport {
            ctrl_tx: Arc::new(net::NetCtrlTx(Mutex::new(ctrl))),
            ctrl_rx: Box::new(ShmCtrlRx {
                stream: ctrl_rd,
                dec: FrameDecoder::new(),
                buf: vec![0u8; 4096],
                shared,
                desc_done: false,
            }),
            data: Arc::new(data),
            register: Box::new(|_| Ok(())),
            transport_threads: 0,
            shutdown_write: Box::new(move || shutdown_all(&shutdown_handles, Shutdown::Write)),
            abort: Arc::new(move || shutdown_all(&handles, Shutdown::Both)),
        })
    }

    // -----------------------------------------------------------------
    // Sink half
    // -----------------------------------------------------------------

    /// The sink's view of its own window: the slot base, the offset
    /// table it described to the peer, and the epoch it granted each
    /// slot at — what a published word must match before the payload is
    /// trusted. Owns the mapping and memfd: every window is created for
    /// exactly one session and dies with it.
    pub(crate) struct SnkWindow {
        base: *mut u8,
        block_cap: u32,
        offsets: Vec<u64>,
        /// Epoch granted per wire slot; a notify is only honoured when
        /// the slot word reads exactly `(expected, PUBLISHED)`.
        expected: Vec<AtomicU64>,
        _own: (Mapping, OwnedFd),
    }

    unsafe impl Send for SnkWindow {}
    unsafe impl Sync for SnkWindow {}

    impl SnkWindow {
        pub(crate) fn owned(
            map: Mapping,
            fd: OwnedFd,
            offsets: Vec<u64>,
            block_cap: u32,
        ) -> SnkWindow {
            let expected = (0..offsets.len()).map(|_| AtomicU64::new(0)).collect();
            SnkWindow {
                base: map.base(),
                block_cap,
                offsets,
                expected,
                _own: (map, fd),
            }
        }

        /// Hand slot ownership to the source: bump the epoch past
        /// whatever the word holds and release-store `GRANTED` — the
        /// bump-from-live-value keeps an earlier published word in this
        /// window from ever matching a new grant. Called by the control
        /// sender *before* the credit frame's bytes leave, so the grant
        /// is visible strictly before the credit that announces it.
        fn grant(&self, slot: u32) {
            let s = slot as usize;
            if s >= self.offsets.len() {
                return; // granter never emits out-of-pool slots; defensive
            }
            let word = unsafe { slot_word(self.base, self.offsets[s]) };
            let epoch = (word.load(Ordering::Acquire) >> 2).wrapping_add(1);
            self.expected[s].store(epoch, Ordering::Release);
            word.store(word_of(epoch, SLOT_GRANTED), Ordering::Release);
        }

        /// The acquire side of publication: require the slot word to
        /// read exactly `(granted epoch, PUBLISHED)`. Anything else —
        /// an old epoch, a `WRITING` state, a never-granted slot — is a
        /// stale or torn one-sided write and fails the session rather
        /// than letting verification read bytes still in flight.
        fn check_published(&self, hdr: &DataFrameHeader) -> io::Result<()> {
            let s = hdr.slot as usize;
            if s >= self.offsets.len() {
                return Err(proto_err(format!(
                    "shm notify names slot {s} outside the {}-slot window",
                    self.offsets.len()
                )));
            }
            if hdr.len > self.block_cap {
                return Err(proto_err(format!(
                    "shm notify claims {} payload bytes, window block cap is {}",
                    hdr.len, self.block_cap
                )));
            }
            let expected = self.expected[s].load(Ordering::Acquire);
            let word = unsafe { slot_word(self.base, self.offsets[s]) };
            let w = word.load(Ordering::Acquire);
            if w != word_of(expected, SLOT_PUBLISHED) {
                return Err(proto_err(format!(
                    "shm slot {s} not cleanly published (word {w:#x}, granted epoch \
                     {expected}) — torn or stale one-sided write"
                )));
            }
            Ok(())
        }
    }

    /// Sink control sender: the ordinary frame encoder, plus the window
    /// re-arm — every credit leaving this endpoint grants its slot's
    /// generation word first, so by the time the source reads the
    /// credit, the slot is already writable shared memory.
    struct ShmCtrlTx {
        inner: net::NetCtrlTx<UnixStream>,
        win: Arc<SnkWindow>,
    }

    impl CtrlTx for ShmCtrlTx {
        fn send(&self, msg: &CtrlMsg) -> io::Result<()> {
            if let CtrlMsg::CreditBatch { slots, .. } = msg {
                for &s in slots {
                    self.win.grant(s);
                }
            }
            self.inner.send(msg)
        }
    }

    /// One sink data channel: a reader of the shared notify stream.
    /// `recv_wire` never reads a socket — the payload is already in the
    /// slot the caller's buffer aliases; all that remains is the
    /// publication check. This is the zero-copy place stage.
    struct ShmDataRx {
        notify: Arc<Mutex<UnixStream>>,
        win: Arc<SnkWindow>,
        pending: Option<DataFrameHeader>,
    }

    impl DataRx for ShmDataRx {
        fn recv_header(&mut self) -> io::Result<Option<DataFrameHeader>> {
            debug_assert!(self.pending.is_none(), "previous frame not consumed");
            let mut rec = [0u8; DATA_FRAME_HEADER_LEN];
            let got = {
                let mut s = self.notify.lock();
                read_exact_or_eof(&mut *s, &mut rec)?
            };
            if !got {
                return Ok(None);
            }
            let hdr = DataFrameHeader::decode(&rec)
                .map_err(|e| proto_err(format!("bad shm notify record: {e:?}")))?;
            self.pending = Some(hdr);
            Ok(Some(hdr))
        }

        fn recv_wire(&mut self, buf: &mut [u8]) -> io::Result<()> {
            let hdr = self.pending.take().expect("recv_wire without a header");
            self.win.check_published(&hdr)?;
            // The caller's buffer is the slot's external SlotBuf view —
            // the same physical bytes the source stored. Nothing to
            // move; the check above was the whole place stage.
            debug_assert_eq!(
                buf.as_ptr() as usize,
                unsafe { wire_ptr(self.win.base, self.win.offsets[hdr.slot as usize]) } as usize,
                "shm sink buffer must alias the shared slot"
            );
            debug_assert_eq!(buf.len(), hdr.wire_len());
            Ok(())
        }

        fn discard_wire(&mut self, _wire_len: usize) -> io::Result<()> {
            // Duplicate notify: the payload never crossed the stream, so
            // there is nothing to drain — dropping the record is the
            // whole discard.
            self.pending.take().expect("discard_wire without a header");
            Ok(())
        }
    }

    /// Wrap one assembled shm connection pair plus a window into a
    /// [`SinkTransport`]: `channels` notify readers over the one
    /// stream, control framing unchanged, credits re-arming the window
    /// on their way out.
    fn sink_transport_for_window(
        mut streams: SessionStreams<UnixStream>,
        channels: usize,
        win: Arc<SnkWindow>,
    ) -> io::Result<SinkTransport> {
        let handles = streams.handles()?;
        let ctrl_wr = streams.ctrl.try_clone()?;
        let notify = streams
            .data
            .pop()
            .expect("an shm set has its notify stream");
        let notify = Arc::new(Mutex::new(notify));
        let data: Vec<Box<dyn DataRx>> = (0..channels)
            .map(|_| {
                Box::new(ShmDataRx {
                    notify: Arc::clone(&notify),
                    win: Arc::clone(&win),
                    pending: None,
                }) as Box<dyn DataRx>
            })
            .collect();
        Ok(SinkTransport {
            ctrl_tx: Arc::new(ShmCtrlTx {
                inner: net::NetCtrlTx(Mutex::new(ctrl_wr)),
                win,
            }),
            ctrl_rx: Box::new(net::NetCtrlRx::new(streams.ctrl)),
            data,
            abort: Arc::new(move || shutdown_all(&handles, Shutdown::Both)),
        })
    }

    /// One shm session's connection pair, hellos consumed: the control
    /// stream (whose hello announced the channel count) and the notify
    /// stream — assembled by the same `net::StreamAssembler` as a TCP
    /// set, over unix sockets.
    pub struct ShmSessionStreams(pub(crate) SessionStreams<UnixStream>);

    /// The shm accept socket — a one-shot sink's, or the daemon's second
    /// way in: a unix listener at a filesystem path. The path is
    /// unlinked on drop (and any stale previous path is unlinked at
    /// bind), so a crashed sink's leftover socket file does not shadow
    /// the next run.
    pub struct ShmListener {
        listener: UnixListener,
        path: PathBuf,
    }

    impl ShmListener {
        pub fn bind(path: impl AsRef<Path>) -> io::Result<ShmListener> {
            let path = path.as_ref().to_path_buf();
            if path.exists() {
                std::fs::remove_file(&path)?;
            }
            let listener = UnixListener::bind(&path)?;
            // Owner-only: connecting (= requesting admission) is
            // limited to the sink's own uid. The boundary between
            // sessions is the per-session window; this bounds who can
            // open a session at all.
            std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o600))?;
            Ok(ShmListener { listener, path })
        }

        pub fn path(&self) -> &Path {
            &self.path
        }

        /// The daemon polls its shm endpoint from its one accept loop.
        pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
            self.listener.set_nonblocking(nonblocking)
        }

        /// One raw connection, hello unread — feed it to an assembler
        /// through [`net::accept_into`].
        pub(crate) fn accept(&self) -> io::Result<UnixStream> {
            self.listener.accept().map(|(s, _)| s)
        }

        /// Accept one source's (control, notify) pair and read the
        /// opening `SessionRequest` (bounded — a silent source times
        /// out rather than parking the sink). Pass both to
        /// [`run_shm_sink`].
        pub fn accept_session(&self) -> io::Result<(ShmSessionStreams, CtrlMsg)> {
            let mut streams = net::accept_set(|| self.accept(), 0)?;
            let first = net::read_first_request(&mut streams.ctrl)?;
            Ok((ShmSessionStreams(streams), first))
        }
    }

    impl Drop for ShmListener {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.path);
        }
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

        /// External slot views over the window — the sink pipeline's
        /// buffers alias the very bytes the source stores.
        pub(crate) fn slot_bufs(&self) -> Vec<Mutex<SlotBuf>> {
            let stride = self.desc.stride as usize;
            let cap = self.desc.block_cap as usize;
            (0..self.desc.offsets.len())
                .map(|i| {
                    Mutex::new(unsafe { SlotBuf::external(self.map.base().add(i * stride), cap) })
                })
                .collect()
        }

        /// Consume into the sink window (keeps fd + mapping alive for
        /// the session; call after [`SessionWindow::slot_bufs`] — the
        /// mapping's base address does not move).
        pub(crate) fn into_sink_window(self) -> SnkWindow {
            let block_cap = self.desc.block_cap;
            SnkWindow::owned(self.map, self.fd, self.desc.offsets, block_cap)
        }
    }

    /// Run the sink half of an assembled shm session: create the memfd
    /// window for **this session alone**, sized to its pool
    /// (`cfg.pool_blocks` — under the daemon, the arena lease), ship the
    /// descriptor + fd, lay external slot buffers over the window, and
    /// run the standard sink pipeline — whose "placement" is now the
    /// publication check alone.
    pub(crate) fn run_shm_session(
        cfg: &LiveConfig,
        streams: SessionStreams<UnixStream>,
        first_ctrl: Option<CtrlMsg>,
        fair: FairShare<'_>,
    ) -> io::Result<LiveReport> {
        let sw = SessionWindow::create(cfg.pool_blocks as usize, cfg.block_size)?;
        sw.send_descriptor(&streams.ctrl)?;
        let snk_bufs = sw.slot_bufs();
        let win = Arc::new(sw.into_sink_window());
        let view: Vec<&Mutex<SlotBuf>> = snk_bufs.iter().collect();
        let t = sink_transport_for_window(streams, cfg.channels, win)?;
        run_sink_session(cfg, t, first_ctrl, &view, fair)
    }

    /// Run the sink half of an shm session accepted by [`ShmListener`]
    /// over a fresh memfd window of `cfg.pool_blocks` slots.
    pub fn run_shm_sink(
        cfg: &LiveConfig,
        sess: ShmSessionStreams,
        first_ctrl: Option<CtrlMsg>,
    ) -> io::Result<LiveReport> {
        run_shm_session(cfg, sess.0, first_ctrl, None)
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

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::atomic::AtomicU32;

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
            let shared = Arc::new(ShmSourceState {
                notify: Mutex::new(a.try_clone().unwrap()),
                window: OnceLock::new(),
            });
            let mut rx = ShmCtrlRx {
                stream: b,
                dec: FrameDecoder::new(),
                buf: vec![0u8; 4096],
                shared: Arc::clone(&shared),
                desc_done: false,
            };
            let err = rx.recv().unwrap_err();
            assert!(
                err.to_string().contains("refusing a mapping"),
                "want the typed map guard, got: {err}"
            );
            assert!(shared.window.get().is_none());
        }

        /// A control stream that opens with an ordinary frame instead of
        /// the descriptor (daemon busy/reject path) must flow through
        /// frame decoding untouched.
        #[test]
        fn rejection_frame_instead_of_descriptor_decodes_normally() {
            let (a, b) = UnixStream::pair().unwrap();
            let shared = Arc::new(ShmSourceState {
                notify: Mutex::new(a.try_clone().unwrap()),
                window: OnceLock::new(),
            });
            let mut rx = ShmCtrlRx {
                stream: b,
                dec: FrameDecoder::new(),
                buf: vec![0u8; 4096],
                shared,
                desc_done: false,
            };
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
    }
}

#[cfg(target_os = "linux")]
pub(crate) use imp::run_shm_session;
#[cfg(target_os = "linux")]
pub use imp::{connect_source_shm, run_shm_sink, shm_supported, ShmListener, ShmSessionStreams};

// ---------------------------------------------------------------------------
// Stubs for unsupported platforms
// ---------------------------------------------------------------------------

#[cfg(not(target_os = "linux"))]
mod stub {
    use crate::transport::SourceTransport;
    use crate::{LiveConfig, LiveReport};
    use rftp_core::wire::CtrlMsg;
    use std::io;
    use std::path::Path;

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "shm transport requires Linux (memfd + SCM_RIGHTS)",
        )
    }

    pub fn shm_supported() -> bool {
        false
    }

    pub fn connect_source_shm(
        _path: impl AsRef<Path>,
        _channels: usize,
    ) -> io::Result<SourceTransport> {
        Err(unsupported())
    }

    pub struct ShmSessionStreams;

    pub struct ShmListener;

    impl ShmListener {
        pub fn bind(_path: impl AsRef<Path>) -> io::Result<ShmListener> {
            Err(unsupported())
        }

        pub fn accept_session(&self) -> io::Result<(ShmSessionStreams, CtrlMsg)> {
            Err(unsupported())
        }
    }

    pub fn run_shm_sink(
        _cfg: &LiveConfig,
        _sess: ShmSessionStreams,
        _first_ctrl: Option<CtrlMsg>,
    ) -> io::Result<LiveReport> {
        Err(unsupported())
    }
}

#[cfg(not(target_os = "linux"))]
pub use stub::{connect_source_shm, run_shm_sink, shm_supported, ShmListener, ShmSessionStreams};
