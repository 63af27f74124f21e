//! io_uring backend for the split pipeline: one ring per side — and
//! under the daemon, one ring for every session.
//!
//! The TCP backend ([`crate::net`]) spends a thread per link — N
//! receivers plus a control pump at the sink, and a blocking `writev`
//! per block at the source. This module keeps the exact same wire
//! format (the hello exchange and the `[DataFrameHeader | wire image]`
//! stream records of PROTOCOL.md §7 — a uring source interoperates with
//! a TCP sink and vice versa) but drives all N+1 sockets of a session
//! through **one io_uring**:
//!
//! * the pinned slot pool is registered with the kernel once as *fixed
//!   buffers* (`IORING_REGISTER_BUFFERS`) — the userspace analogue of
//!   RDMA memory registration — so every data send/receive is
//!   `WRITE_FIXED`/`READ_FIXED` naming a buffer index instead of
//!   re-pinning pages per call;
//! * the source queues one `WRITE_FIXED` per block (frame header
//!   written into the slot's dead space, so header + wire image is a
//!   single contiguous SQE) and submits the whole dispatcher drain with
//!   one `io_uring_enter` — the doorbell ([`DataTx::kick`]); one reaper
//!   thread retires completions for every channel;
//! * the sink runs a **single driver thread** for all data links. On
//!   kernels with `IORING_RECV_MULTISHOT` + provided-buffer rings
//!   (probed live via a socketpair round-trip, [`multishot_probe`])
//!   each data socket is armed once and the kernel keeps posting CQEs,
//!   picking buffers from a registered pbuf ring; the driver
//!   reassembles frames from the byte runs, copies payload to the
//!   credited slot, recycles buffers by bumping the ring tail, re-arms
//!   on `!F_MORE`, and parks/recovers links on `ENOBUFS` (un-starving
//!   runs at every CQE-batch boundary). Kernels where that probe fails
//!   fall back to header-first re-armed
//!   reads (16 bytes of `DataFrameHeader`, routed *before* the payload
//!   read is committed `READ_FIXED` into the credited slot, or into a
//!   scratch buffer for duplicates). Either way control frames are
//!   read off the same ring and the ack/credit dwell is
//!   `IORING_ENTER_EXT_ARG` timed waits feeding the shared
//!   `drain_coalesced` loop;
//! * the daemon ([`crate::daemon`]) shares ONE ring and ONE driver
//!   thread ([`MultiDriver`]) across every admitted session: the whole
//!   slot arena is registered once at startup, leases map to
//!   fixed-buffer indices (admission never re-registers), CQEs demux
//!   by `user_data = sid << 32 | link`, and per-session mailboxes
//!   carry events to session threads — cross-session completion
//!   batching means one `GETEVENTS` drains arrivals for all sessions.
//!
//! There is nothing to set: the probe (run once per process) picks the
//! receive path, the caller picks the shape — one session pumps the
//! driver on its own thread ([`run_uring_sink`]), a daemon runs it as a
//! shared thread — and what a valid, first-time data frame is and what
//! happens when it lands is [`crate::split`]'s `SinkFront`, the same
//! one the TCP receivers call.
//!
//! Everything is raw syscalls (`io_uring_setup`/`enter`/`register` are
//! 425/426/427 on every Linux architecture) over `extern "C"` shims —
//! the workspace links no FFI crate, matching the raw `setsockopt` in
//! [`crate::net`]. [`uring_supported`] probes the running kernel; on
//! non-Linux targets or old kernels every entry point reports
//! `Unsupported` and callers fall back to the TCP backend.

#[cfg(target_os = "linux")]
pub use linux::{
    accept_source_uring, connect_source_uring, run_uring_sink, uring_multishot, uring_supported,
    UringSinkSession,
};
#[cfg(target_os = "linux")]
pub(crate) use linux::{run_shared_uring_session, spawn_shared_uring_driver, UringHub};

#[cfg(target_os = "linux")]
mod linux {
    use crate::coalesce::channel_events;
    use crate::net::{
        connect_streams, shutdown_all, NetCtrlRx, NetCtrlTx, NetListener, SessionStreams,
    };
    use crate::pipeline::{LiveConfig, LiveReport};
    use crate::split::{perr, FairShare, PlaceTally, SinkEvt, SinkFront, SinkSession};
    use crate::store::{BlockPool, SlotBuf};
    use crate::transport::{BufPool, DataTx, SourceTransport, UringStats};
    use parking_lot::Mutex;
    use rftp_core::wire::{CtrlMsg, DataFrameHeader, DATA_FRAME_HEADER_LEN, PAYLOAD_HEADER_LEN};
    use std::collections::{HashMap, VecDeque};
    use std::io;
    use std::net::{Shutdown, TcpStream, ToSocketAddrs};
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU16, AtomicU32, AtomicU64, Ordering};
    use std::sync::{Arc, OnceLock};
    use std::time::{Duration, Instant};

    // -----------------------------------------------------------------
    // Raw io_uring ABI (uapi/linux/io_uring.h)
    // -----------------------------------------------------------------

    const SYS_IO_URING_SETUP: i64 = 425;
    const SYS_IO_URING_ENTER: i64 = 426;
    const SYS_IO_URING_REGISTER: i64 = 427;

    const IORING_OFF_SQ_RING: i64 = 0;
    const IORING_OFF_CQ_RING: i64 = 0x800_0000;
    const IORING_OFF_SQES: i64 = 0x1000_0000;

    /// Don't interrupt the ring owner signal-style to run completion
    /// task-work; batch it onto the next kernel transition (5.19+).
    const IORING_SETUP_COOP_TASKRUN: u32 = 1 << 8;
    const IORING_SETUP_SINGLE_ISSUER: u32 = 1 << 12;
    /// Run completion task-work only inside `GETEVENTS` enters — the
    /// strictest batching; requires `SINGLE_ISSUER` (6.1+).
    const IORING_SETUP_DEFER_TASKRUN: u32 = 1 << 13;

    const IORING_ENTER_GETEVENTS: u32 = 1 << 0;
    const IORING_ENTER_EXT_ARG: u32 = 1 << 3;

    const IORING_FEAT_SINGLE_MMAP: u32 = 1 << 0;
    const IORING_FEAT_EXT_ARG: u32 = 1 << 8;

    const IORING_REGISTER_BUFFERS: u32 = 0;
    const IORING_REGISTER_PROBE: u32 = 8;
    /// Register a provided-buffer ring for a buffer group (5.19+).
    const IORING_REGISTER_PBUF_RING: u32 = 22;

    /// The armed op stays armed (multishot) / a sibling CQE is owed.
    const IORING_CQE_F_MORE: u32 = 1 << 1;
    /// The CQE consumed a provided buffer; its id is in the high bits
    /// of `Cqe::flags`.
    const IORING_CQE_F_BUFFER: u32 = 1 << 0;
    const IORING_CQE_BUFFER_SHIFT: u32 = 16;

    const IORING_OP_NOP: u8 = 0;
    const IORING_OP_READ_FIXED: u8 = 4;
    const IORING_OP_WRITE_FIXED: u8 = 5;
    const IORING_OP_READ: u8 = 22;
    const IORING_OP_WRITE: u8 = 23;
    const IORING_OP_RECV: u8 = 27;

    /// `RECV` flag in `Sqe::ioprio`: keep the receive armed across
    /// completions — one SQE, many CQEs (6.0+).
    const IORING_RECV_MULTISHOT: u16 = 1 << 1;
    /// `Sqe::flags`: the kernel picks the receive buffer from the
    /// provided-buffer group named by `Sqe::buf_index`.
    const IOSQE_BUFFER_SELECT: u8 = 1 << 5;

    const ETIME: i32 = 62;
    /// The provided-buffer group ran dry: the multishot receive
    /// terminates and must be re-armed once buffers are recycled.
    const ENOBUFS: i32 = 105;
    /// The kernel can drop a poll-armed socket op with `-ECANCELED`
    /// without transferring any bytes (poll races on busy streams).
    /// Such ops are resubmitted verbatim, not treated as link failure.
    const ECANCELED: i32 = 125;

    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct SqringOffsets {
        head: u32,
        tail: u32,
        ring_mask: u32,
        ring_entries: u32,
        flags: u32,
        dropped: u32,
        array: u32,
        resv1: u32,
        user_addr: u64,
    }

    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct CqringOffsets {
        head: u32,
        tail: u32,
        ring_mask: u32,
        ring_entries: u32,
        overflow: u32,
        cqes: u32,
        flags: u32,
        resv1: u32,
        user_addr: u64,
    }

    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct IoUringParams {
        sq_entries: u32,
        cq_entries: u32,
        flags: u32,
        sq_thread_cpu: u32,
        sq_thread_idle: u32,
        features: u32,
        wq_fd: u32,
        resv: [u32; 3],
        sq_off: SqringOffsets,
        cq_off: CqringOffsets,
    }

    /// One 64-byte submission queue entry (the non-`SQE128` layout).
    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct Sqe {
        opcode: u8,
        flags: u8,
        ioprio: u16,
        fd: i32,
        off: u64,
        addr: u64,
        len: u32,
        op_flags: u32,
        user_data: u64,
        buf_index: u16,
        personality: u16,
        splice_fd_in: i32,
        addr3: u64,
        _pad2: u64,
    }

    /// One 16-byte completion queue entry.
    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct Cqe {
        user_data: u64,
        res: i32,
        flags: u32,
    }

    #[repr(C)]
    struct IoVec {
        base: *mut core::ffi::c_void,
        len: usize,
    }

    /// `IORING_ENTER_EXT_ARG` payload: a timed `GETEVENTS` wait.
    #[repr(C)]
    struct GeteventsArg {
        sigmask: u64,
        sigmask_sz: u32,
        pad: u32,
        ts: u64,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    mod sys {
        pub(crate) use crate::store::sys::{mmap, munmap};
        use core::ffi::c_long;
        extern "C" {
            pub fn syscall(num: c_long, ...) -> c_long;
        }
    }

    // -----------------------------------------------------------------
    // Ring core
    // -----------------------------------------------------------------

    struct MmapRegion {
        ptr: *mut u8,
        len: usize,
    }

    impl MmapRegion {
        fn map(fd: i32, len: usize, off: i64) -> io::Result<MmapRegion> {
            const PROT_RW: i32 = 0x3;
            const MAP_SHARED_POPULATE: i32 = 0x1 | 0x8000;
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_RW,
                    MAP_SHARED_POPULATE,
                    fd,
                    off,
                )
            };
            if ptr as i64 == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(MmapRegion {
                ptr: ptr as *mut u8,
                len,
            })
        }

        /// # Safety
        /// `off` must lie inside the mapping (callers use kernel-supplied
        /// ring offsets, which do).
        unsafe fn at(&self, off: u32) -> *mut u8 {
            debug_assert!((off as usize) < self.len);
            self.ptr.add(off as usize)
        }
    }

    impl Drop for MmapRegion {
        fn drop(&mut self) {
            unsafe {
                sys::munmap(self.ptr as *mut core::ffi::c_void, self.len);
            }
        }
    }

    /// One io_uring instance: fd, mapped rings, and raw pointers into
    /// them. SQ production must be externally serialized (the source
    /// holds its submit lock; the sink driver is single-threaded); CQ
    /// consumption is single-consumer (reaper thread / sink driver).
    /// Kernel-shared indices are accessed as atomics.
    ///
    /// The mappings are unmapped on drop — owners must quiesce first
    /// (no in-flight operations), or the kernel could complete an op
    /// into memory the allocator has already reused.
    struct Ring {
        fd: OwnedFd,
        features: u32,
        sq_entries: u32,
        sq_mask: u32,
        cq_mask: u32,
        sq_khead: *const AtomicU32,
        sq_ktail: *const AtomicU32,
        sq_array: *mut u32,
        cq_khead: *const AtomicU32,
        cq_ktail: *const AtomicU32,
        cq_cqes: *const Cqe,
        sqes: *mut Sqe,
        /// `io_uring_enter` calls made ([`UringStats::enters`]).
        enters: AtomicU64,
        /// `IORING_REGISTER_BUFFERS` calls on this ring.
        registers: AtomicU64,
        /// CQEs reaped ([`UringStats::cqes`]).
        reaped: AtomicU64,
        // Held for Drop; the raw pointers above point into these.
        _sq_map: MmapRegion,
        _cq_map: Option<MmapRegion>,
        _sqes_map: MmapRegion,
    }

    // SAFETY: see the struct docs — SQ writes are serialized by the
    // owners, CQ reads are single-consumer, and the shared head/tail
    // words are only touched through atomics.
    unsafe impl Send for Ring {}
    unsafe impl Sync for Ring {}

    impl Ring {
        fn new(entries: u32, setup_flags: u32) -> io::Result<Ring> {
            let mut p = IoUringParams {
                flags: setup_flags,
                ..Default::default()
            };
            let r = unsafe {
                sys::syscall(
                    SYS_IO_URING_SETUP as core::ffi::c_long,
                    entries as usize,
                    &mut p as *mut IoUringParams,
                )
            };
            if r < 0 {
                return Err(io::Error::last_os_error());
            }
            let fd = unsafe { OwnedFd::from_raw_fd(r as i32) };
            let raw = fd.as_raw_fd();

            let sq_len = p.sq_off.array as usize + p.sq_entries as usize * 4;
            let cq_len =
                p.cq_off.cqes as usize + p.cq_entries as usize * std::mem::size_of::<Cqe>();
            let single = p.features & IORING_FEAT_SINGLE_MMAP != 0;
            let sq_map = MmapRegion::map(
                raw,
                if single { sq_len.max(cq_len) } else { sq_len },
                IORING_OFF_SQ_RING,
            )?;
            let cq_map = if single {
                None
            } else {
                Some(MmapRegion::map(raw, cq_len, IORING_OFF_CQ_RING)?)
            };
            let sqes_map = MmapRegion::map(
                raw,
                p.sq_entries as usize * std::mem::size_of::<Sqe>(),
                IORING_OFF_SQES,
            )?;

            let cq_base = cq_map.as_ref().unwrap_or(&sq_map);
            unsafe {
                Ok(Ring {
                    features: p.features,
                    sq_entries: p.sq_entries,
                    sq_mask: *(sq_map.at(p.sq_off.ring_mask) as *const u32),
                    cq_mask: *(cq_base.at(p.cq_off.ring_mask) as *const u32),
                    sq_khead: sq_map.at(p.sq_off.head) as *const AtomicU32,
                    sq_ktail: sq_map.at(p.sq_off.tail) as *const AtomicU32,
                    sq_array: sq_map.at(p.sq_off.array) as *mut u32,
                    cq_khead: cq_base.at(p.cq_off.head) as *const AtomicU32,
                    cq_ktail: cq_base.at(p.cq_off.tail) as *const AtomicU32,
                    cq_cqes: cq_base.at(p.cq_off.cqes) as *const Cqe,
                    sqes: sqes_map.ptr as *mut Sqe,
                    fd,
                    enters: AtomicU64::new(0),
                    registers: AtomicU64::new(0),
                    reaped: AtomicU64::new(0),
                    _sq_map: sq_map,
                    _cq_map: cq_map,
                    _sqes_map: sqes_map,
                })
            }
        }

        fn enter(
            &self,
            to_submit: u32,
            min_complete: u32,
            flags: u32,
            arg: *const core::ffi::c_void,
            argsz: usize,
        ) -> io::Result<u32> {
            self.enters.fetch_add(1, Ordering::Relaxed);
            loop {
                let r = unsafe {
                    sys::syscall(
                        SYS_IO_URING_ENTER as core::ffi::c_long,
                        self.fd.as_raw_fd() as usize,
                        to_submit as usize,
                        min_complete as usize,
                        flags as usize,
                        arg,
                        argsz,
                    )
                };
                if r >= 0 {
                    return Ok(r as u32);
                }
                let e = io::Error::last_os_error();
                if e.kind() != io::ErrorKind::Interrupted {
                    return Err(e);
                }
            }
        }

        fn register(&self, opcode: u32, arg: *const core::ffi::c_void, nr: u32) -> io::Result<()> {
            let r = unsafe {
                sys::syscall(
                    SYS_IO_URING_REGISTER as core::ffi::c_long,
                    self.fd.as_raw_fd() as usize,
                    opcode as usize,
                    arg,
                    nr as usize,
                )
            };
            if r < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Queue one SQE without telling the kernel (callers batch a
        /// [`Ring::submit`] per drain — the doorbell). Returns `false`
        /// when the SQ is full: submit, then retry.
        fn sq_push(&self, sqe: &Sqe) -> bool {
            unsafe {
                let head = (*self.sq_khead).load(Ordering::Acquire);
                let tail = (*self.sq_ktail).load(Ordering::Relaxed);
                if tail.wrapping_sub(head) >= self.sq_entries {
                    return false;
                }
                let idx = tail & self.sq_mask;
                *self.sqes.add(idx as usize) = *sqe;
                *self.sq_array.add(idx as usize) = idx;
                (*self.sq_ktail).store(tail.wrapping_add(1), Ordering::Release);
                true
            }
        }

        /// Hand `queued` SQEs to the kernel.
        fn submit(&self, queued: u32) -> io::Result<()> {
            let mut left = queued;
            while left > 0 {
                left -= self.enter(left, 0, 0, std::ptr::null(), 0)?;
            }
            Ok(())
        }

        fn cq_ready(&self) -> u32 {
            unsafe {
                (*self.cq_ktail)
                    .load(Ordering::Acquire)
                    .wrapping_sub((*self.cq_khead).load(Ordering::Relaxed))
            }
        }

        /// Block until at least one CQE is available. `Ok(false)` means
        /// the `timeout` (an `EXT_ARG` timed wait) expired first.
        fn wait(&self, timeout: Option<Duration>) -> io::Result<bool> {
            if self.cq_ready() > 0 {
                return Ok(true);
            }
            match timeout {
                None => {
                    self.enter(0, 1, IORING_ENTER_GETEVENTS, std::ptr::null(), 0)?;
                    Ok(true)
                }
                Some(w) => {
                    let ts = Timespec {
                        tv_sec: w.as_secs() as i64,
                        tv_nsec: w.subsec_nanos() as i64,
                    };
                    let arg = GeteventsArg {
                        sigmask: 0,
                        sigmask_sz: 0,
                        pad: 0,
                        ts: &ts as *const Timespec as u64,
                    };
                    let r = self.enter(
                        0,
                        1,
                        IORING_ENTER_GETEVENTS | IORING_ENTER_EXT_ARG,
                        &arg as *const GeteventsArg as *const core::ffi::c_void,
                        std::mem::size_of::<GeteventsArg>(),
                    );
                    match r {
                        Ok(_) => Ok(true),
                        Err(e) if e.raw_os_error() == Some(ETIME) => Ok(false),
                        Err(e) => Err(e),
                    }
                }
            }
        }

        /// Hand `queued` SQEs to the kernel *and* block for at least one
        /// CQE with a single `io_uring_enter` — the hot-path doorbell
        /// and wakeup fused into one syscall. Timed (dwell) waits keep
        /// the two-syscall shape: a `-ETIME` return would leave the
        /// submitted count ambiguous.
        fn submit_and_wait(&self, queued: u32) -> io::Result<()> {
            let mut left = queued;
            loop {
                let flags = if self.cq_ready() > 0 {
                    0 // nothing to wait for; just flush the SQ
                } else {
                    IORING_ENTER_GETEVENTS
                };
                if left == 0 && flags == 0 {
                    return Ok(());
                }
                left -= self.enter(left, 1, flags, std::ptr::null(), 0)?;
                if left == 0 {
                    return Ok(());
                }
            }
        }

        /// Drain every available CQE into `out`; returns how many.
        fn reap(&self, out: &mut Vec<Cqe>) -> usize {
            unsafe {
                let tail = (*self.cq_ktail).load(Ordering::Acquire);
                let mut head = (*self.cq_khead).load(Ordering::Relaxed);
                let n = tail.wrapping_sub(head);
                out.reserve(n as usize);
                for _ in 0..n {
                    out.push(*self.cq_cqes.add((head & self.cq_mask) as usize));
                    head = head.wrapping_add(1);
                }
                (*self.cq_khead).store(head, Ordering::Release);
                self.reaped.fetch_add(n as u64, Ordering::Relaxed);
                n as usize
            }
        }

        /// Register every slot of a pinned pool as a fixed buffer,
        /// indexed by pool block — the MR-registration analogue. Takes
        /// a borrowed buffer view so a daemon session can register the
        /// arena slots it leased rather than a pool it owns.
        fn register_pool(&self, bufs: &[&Mutex<SlotBuf>]) -> io::Result<()> {
            if bufs.len() >= OWNED_BUF as usize || bufs.len() > 1024 {
                return Err(perr(format!(
                    "pool of {} blocks exceeds the fixed-buffer limit",
                    bufs.len()
                )));
            }
            let iovecs: Vec<IoVec> = bufs
                .iter()
                .map(|b| {
                    let (base, len) = b.lock().registration_parts();
                    IoVec {
                        base: base as *mut core::ffi::c_void,
                        len,
                    }
                })
                .collect();
            self.register(
                IORING_REGISTER_BUFFERS,
                iovecs.as_ptr() as *const core::ffi::c_void,
                iovecs.len() as u32,
            )?;
            self.registers.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }

        /// Which opcodes the kernel supports (`IORING_REGISTER_PROBE`).
        fn probe_op_supported(&self, ops: &[u8]) -> io::Result<Vec<bool>> {
            const NOPS: usize = 64;
            // struct io_uring_probe: 16-byte header + 8 bytes per op.
            let mut raw = [0u8; 16 + NOPS * 8];
            self.register(
                IORING_REGISTER_PROBE,
                raw.as_mut_ptr() as *const core::ffi::c_void,
                NOPS as u32,
            )?;
            let last_op = raw[0] as usize;
            Ok(ops
                .iter()
                .map(|&op| {
                    let op = op as usize;
                    const IO_URING_OP_SUPPORTED: u8 = 1;
                    op <= last_op && op < NOPS && raw[16 + op * 8 + 2] & IO_URING_OP_SUPPORTED != 0
                })
                .collect())
        }
    }

    // -----------------------------------------------------------------
    // Provided-buffer ring (multishot receive backing)
    // -----------------------------------------------------------------

    /// One entry of a provided-buffer ring (`struct io_uring_buf`).
    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct PbufEntry {
        addr: u64,
        len: u32,
        bid: u16,
        resv: u16,
    }

    /// `IORING_REGISTER_PBUF_RING` argument (`struct io_uring_buf_reg`).
    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct PbufReg {
        ring_addr: u64,
        ring_entries: u32,
        bgid: u16,
        flags: u16,
        resv: [u64; 3],
    }

    /// The one buffer group every data link shares. Demultiplexing is by
    /// `user_data` (session/link), not by group — the group only says
    /// where the bytes landed.
    const PBUF_BGID: u16 = 0;
    /// Byte offset of the kernel-read tail inside the pbuf ring: it
    /// overlays `resv` of entry 0 (the uapi union of `io_uring_buf` and
    /// `io_uring_buf_ring`).
    const PBUF_TAIL_OFF: usize = 14;

    /// A provided-buffer ring plus the buffers behind it: the kernel
    /// picks one per multishot-receive completion and reports its id in
    /// the CQE; the driver parses the bytes out and recycles the id.
    ///
    /// The descriptor ring is written only at the local tail (each
    /// buffer is in the ring at most once, so the kernel can never own
    /// the entry being overwritten), and only `addr`/`len`/`bid` are
    /// touched — entry 0's `resv` bytes *are* the shared tail word, so a
    /// full-entry write there would clobber it.
    ///
    /// Teardown: the owner must quiesce the ring (no in-flight receives)
    /// before dropping this, exactly like the slot buffers — the
    /// backing memory is plain userspace allocations.
    struct PbufRing {
        ring: *mut u8,
        layout: std::alloc::Layout,
        mask: u32,
        tail: u16,
        bufs: Vec<Box<[u8]>>,
    }

    // SAFETY: single-owner (the sink driver thread); the raw pointer is
    // an owned allocation, shared with the kernel only via io_uring.
    unsafe impl Send for PbufRing {}

    impl PbufRing {
        /// Allocate `count` buffers of `buf_len` bytes, register the
        /// descriptor ring with `ring`, and hand every buffer to the
        /// kernel. Fails on pre-5.19 kernels (`EINVAL`), which is how
        /// the multishot probe detects them.
        fn new(ring: &Ring, count: u32, buf_len: usize) -> io::Result<PbufRing> {
            let entries = count.max(1).next_power_of_two();
            let layout = std::alloc::Layout::from_size_align(
                entries as usize * std::mem::size_of::<PbufEntry>(),
                4096,
            )
            .map_err(|_| perr("pbuf ring layout overflow"))?;
            let mem = unsafe { std::alloc::alloc_zeroed(layout) };
            if mem.is_null() {
                return Err(io::Error::new(
                    io::ErrorKind::OutOfMemory,
                    "pbuf ring allocation failed",
                ));
            }
            let reg = PbufReg {
                ring_addr: mem as u64,
                ring_entries: entries,
                bgid: PBUF_BGID,
                ..Default::default()
            };
            if let Err(e) = ring.register(
                IORING_REGISTER_PBUF_RING,
                &reg as *const PbufReg as *const core::ffi::c_void,
                1,
            ) {
                unsafe { std::alloc::dealloc(mem, layout) };
                return Err(e);
            }
            let mut p = PbufRing {
                ring: mem,
                layout,
                mask: entries - 1,
                tail: 0,
                bufs: Vec::with_capacity(count as usize),
            };
            for bid in 0..count {
                p.bufs.push(vec![0u8; buf_len].into_boxed_slice());
                p.recycle(bid as u16);
            }
            Ok(p)
        }

        /// Hand buffer `bid` (back) to the kernel.
        fn recycle(&mut self, bid: u16) {
            let idx = (self.tail as u32 & self.mask) as usize;
            unsafe {
                let e = (self.ring as *mut PbufEntry).add(idx);
                std::ptr::addr_of_mut!((*e).addr).write(self.bufs[bid as usize].as_ptr() as u64);
                std::ptr::addr_of_mut!((*e).len).write(self.bufs[bid as usize].len() as u32);
                std::ptr::addr_of_mut!((*e).bid).write(bid);
                self.tail = self.tail.wrapping_add(1);
                (*(self.ring.add(PBUF_TAIL_OFF) as *const AtomicU16))
                    .store(self.tail, Ordering::Release);
            }
        }

        fn buf(&self, bid: u16) -> &[u8] {
            &self.bufs[bid as usize]
        }
    }

    impl Drop for PbufRing {
        fn drop(&mut self) {
            unsafe { std::alloc::dealloc(self.ring, self.layout) };
        }
    }

    // -----------------------------------------------------------------
    // Capability probe
    // -----------------------------------------------------------------

    /// SQ depth for transfer rings: far above the in-flight ceiling of
    /// either side (one write per channel at the source, one read per
    /// link at the sink), so the only submit path is the batched kick.
    const RING_ENTRIES: u32 = 256;

    /// The capability probe itself: `Ok(multishot)` when ring setup,
    /// `EXT_ARG` timed waits, the fixed-buffer opcodes and fixed-buffer
    /// registration all work — `multishot` saying whether multishot
    /// receive over a provided-buffer ring does too (functionally
    /// probed: pbuf rings are 5.19+, multishot recv 6.0+) — or why the
    /// backend cannot run. Builds throw-away rings and runs a socketpair
    /// round trip, so callers go through [`probe`], which runs it once.
    fn ring_caps() -> io::Result<bool> {
        let ring = Ring::new(8, 0)?; // ENOSYS / EPERM land here
        if ring.features & IORING_FEAT_EXT_ARG == 0 {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "kernel io_uring lacks IORING_FEAT_EXT_ARG (needs 5.11+)",
            ));
        }
        let need = [
            IORING_OP_NOP,
            IORING_OP_READ_FIXED,
            IORING_OP_WRITE_FIXED,
            IORING_OP_READ,
            IORING_OP_WRITE,
        ];
        if ring.probe_op_supported(&need)?.iter().any(|ok| !ok) {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "kernel io_uring lacks fixed-buffer read/write opcodes",
            ));
        }
        // Fixed-buffer registration must actually work (memlock limits
        // can forbid it even when the opcodes exist).
        let probe_buf = Mutex::new(SlotBuf::new(4096));
        ring.register_pool(&[&probe_buf])?;
        Ok(multishot_probe())
    }

    /// [`ring_caps`], computed once per process: the kernel does not
    /// change under a running program, and a source connect or a daemon
    /// admission has no business building probe rings. (`io::Error` is
    /// not `Clone`; its kind and text are.)
    fn probe() -> io::Result<bool> {
        static PROBE: OnceLock<Result<bool, (io::ErrorKind, String)>> = OnceLock::new();
        PROBE
            .get_or_init(|| ring_caps().map_err(|e| (e.kind(), e.to_string())))
            .clone()
            .map_err(|(kind, msg)| io::Error::new(kind, msg))
    }

    /// Functional probe for multishot receive over a provided-buffer
    /// ring: registering a pbuf ring and arming `RECV|MULTISHOT` can
    /// each *appear* to work on kernels that reject the combination at
    /// completion time, so real bytes go through a socketpair and the
    /// CQE must come back buffer-tagged. Any failure is just `false` —
    /// the fallback ladder (header-first `READ_FIXED`) takes over.
    fn multishot_probe() -> bool {
        fn run() -> io::Result<bool> {
            let ring = Ring::new(8, 0)?;
            if !ring.probe_op_supported(&[IORING_OP_RECV])?[0] {
                return Ok(false);
            }
            let mut pbuf = PbufRing::new(&ring, 2, 4096)?;
            let (a, b) = std::os::unix::net::UnixStream::pair()?;
            let sqe = Sqe {
                opcode: IORING_OP_RECV,
                flags: IOSQE_BUFFER_SELECT,
                ioprio: IORING_RECV_MULTISHOT,
                fd: a.as_raw_fd(),
                buf_index: PBUF_BGID,
                user_data: 1,
                ..Default::default()
            };
            if !ring.sq_push(&sqe) {
                return Ok(false);
            }
            ring.submit(1)?;
            use std::io::Write;
            (&b).write_all(b"ping")?;
            let mut ok = false;
            let mut shut = false;
            let mut cqes = Vec::new();
            // Wait for the data CQE *first* — cutting the pair before the
            // armed receive fires discards the queued ping on AF_UNIX and
            // fails the probe on kernels that support multishot fine.
            // Only then shut the pair down and drain to the terminal CQE
            // so no op outlives the ring mappings.
            for _ in 0..16 {
                let fired = ring.wait(Some(Duration::from_millis(250)))?;
                cqes.clear();
                ring.reap(&mut cqes);
                let mut terminal = false;
                for c in &cqes {
                    if c.res == 4 && c.flags & IORING_CQE_F_BUFFER != 0 {
                        ok = true;
                        pbuf.recycle((c.flags >> IORING_CQE_BUFFER_SHIFT) as u16);
                    }
                    if c.flags & IORING_CQE_F_MORE == 0 {
                        terminal = true;
                    }
                }
                if terminal {
                    break;
                }
                if (ok || !fired) && !shut {
                    shut = true;
                    let _ = a.shutdown(Shutdown::Both);
                    let _ = b.shutdown(Shutdown::Both);
                }
            }
            Ok(ok)
        }
        run().unwrap_or(false)
    }

    /// Whether this kernel can run the io_uring backend: ring setup,
    /// `EXT_ARG` timed waits, fixed-buffer registration, and the
    /// fixed-buffer read/write opcodes all probe healthy.
    pub fn uring_supported() -> bool {
        probe().is_ok()
    }

    /// Whether the sink runs the multishot-receive + provided-buffer-ring
    /// path on this kernel. `false` while [`uring_supported`] is `true`
    /// means the header-first `READ_FIXED` fallback carries transfers.
    pub fn uring_multishot() -> bool {
        probe().unwrap_or(false)
    }

    /// Build a transfer ring.
    ///
    /// `single_issuer` promises every `io_uring_enter` comes from the
    /// thread that created the ring; that unlocks `DEFER_TASKRUN`, which
    /// keeps completion task-work out of signal context so it stops
    /// interrupting the driver mid-verify. The source ring submits from
    /// two threads (dispatcher + reaper), so it only gets `COOP_TASKRUN`.
    /// Each flag combination degrades to the next on older kernels.
    fn transfer_ring(single_issuer: bool) -> io::Result<Ring> {
        if single_issuer {
            let flags = IORING_SETUP_SINGLE_ISSUER | IORING_SETUP_DEFER_TASKRUN;
            if let Ok(r) = Ring::new(RING_ENTRIES, flags) {
                return Ok(r);
            }
        }
        if let Ok(r) = Ring::new(RING_ENTRIES, IORING_SETUP_COOP_TASKRUN) {
            return Ok(r);
        }
        Ring::new(RING_ENTRIES, 0)
    }

    // -----------------------------------------------------------------
    // Source half
    // -----------------------------------------------------------------

    /// `buf_index` sentinel for [`WriteOp`]s that carry their own copy
    /// (the plain [`DataTx::send`] path) instead of a registered slot.
    const OWNED_BUF: u16 = u16::MAX;
    /// `user_data` of the wakeup NOP the teardown path submits.
    const UD_NOP: u64 = u64::MAX;

    /// One queued data-frame write: current wire position plus what is
    /// left, so short-write continuations just advance and resubmit.
    struct WriteOp {
        addr: u64,
        remaining: u32,
        buf_index: u16,
        /// Keep-alive for plain `send` copies (no registered buffer);
        /// `addr` points into it. Registered-slot ops carry `None` —
        /// the pool pin (block stays busy until its ack) is the
        /// lifetime guarantee.
        _own: Option<Box<[u8]>>,
    }

    /// Per-channel send state: at most one write in flight per socket
    /// (two concurrent writes to one stream would interleave bytes and
    /// corrupt the framing); the rest queue here in order.
    struct Chan {
        fd: i32,
        cur: Option<WriteOp>,
        queue: VecDeque<WriteOp>,
    }

    struct SubState {
        chans: Vec<Chan>,
        /// SQEs pushed since the last doorbell.
        queued: u32,
        /// Reap scratch — completions are drained under this lock (by
        /// the doorbell or the reaper, whoever gets there first).
        cq_scratch: Vec<Cqe>,
    }

    /// Everything the N channel handles, the reaper, and the teardown
    /// guard share.
    struct SrcRing {
        ring: Ring,
        sub: Mutex<SubState>,
        /// CQEs submitted but not yet reaped (the teardown NOP
        /// included) — the reaper exits only at zero, so no kernel op
        /// can outlive the ring mappings.
        inflight: AtomicI64,
        shutdown: AtomicBool,
        dead: AtomicBool,
        err: Mutex<Option<String>>,
        /// The data sockets the ring writes to (owners of the fds in
        /// [`Chan`]); the failure path shuts them down to flush
        /// in-flight ops out as errors.
        socks: Vec<TcpStream>,
    }

    impl SrcRing {
        fn stored_err(&self) -> io::Error {
            let msg = self
                .err
                .lock()
                .clone()
                .unwrap_or_else(|| "io_uring transport failed".into());
            io::Error::new(io::ErrorKind::BrokenPipe, msg)
        }

        /// First-error-wins: record, mark dead, and shut the data links
        /// so every in-flight op completes (as an error) promptly.
        fn fail(&self, msg: String) {
            {
                let mut slot = self.err.lock();
                if slot.is_none() {
                    *slot = Some(msg);
                }
            }
            self.dead.store(true, Ordering::Release);
            shutdown_all(&self.socks, Shutdown::Both);
        }

        fn push_sqe_locked(&self, st: &mut SubState, sqe: &Sqe) -> io::Result<()> {
            while !self.ring.sq_push(sqe) {
                // SQ full: flush what is queued to make room.
                self.ring.submit(st.queued)?;
                st.queued = 0;
            }
            st.queued += 1;
            self.inflight.fetch_add(1, Ordering::AcqRel);
            Ok(())
        }

        /// Queue the SQE for `chans[ch].cur` (which must be set).
        fn push_write_locked(&self, st: &mut SubState, ch: usize) -> io::Result<()> {
            let chan = &st.chans[ch];
            let op = chan.cur.as_ref().expect("push_write without a current op");
            let mut sqe = Sqe {
                fd: chan.fd,
                addr: op.addr,
                len: op.remaining,
                user_data: ch as u64,
                ..Default::default()
            };
            if op.buf_index == OWNED_BUF {
                sqe.opcode = IORING_OP_WRITE;
            } else {
                sqe.opcode = IORING_OP_WRITE_FIXED;
                sqe.buf_index = op.buf_index;
            }
            self.push_sqe_locked(st, &sqe)
        }

        /// Queue one frame on channel `ch`, keeping the one-in-flight-
        /// per-socket invariant.
        fn queue_op(&self, ch: usize, op: WriteOp) -> io::Result<()> {
            if self.dead.load(Ordering::Acquire) {
                return Err(self.stored_err());
            }
            let mut st = self.sub.lock();
            if st.chans[ch].cur.is_some() {
                st.chans[ch].queue.push_back(op);
                Ok(())
            } else {
                st.chans[ch].cur = Some(op);
                self.push_write_locked(&mut st, ch)
            }
        }

        /// Reap and retire every available completion: finished writes
        /// pop the next queued frame, short writes continue where they
        /// left off, errors trip the first-error-wins latch. Callers
        /// hold the submission lock — it doubles as the CQ consumer
        /// lock, so the doorbell and the reaper can both drain.
        fn drain_cqes_locked(&self, st: &mut SubState) {
            let mut cqes = std::mem::take(&mut st.cq_scratch);
            cqes.clear();
            self.ring.reap(&mut cqes);
            for c in &cqes {
                self.inflight.fetch_sub(1, Ordering::AcqRel);
                if c.user_data == UD_NOP {
                    continue;
                }
                let ch = c.user_data as usize;
                let resubmit = {
                    let chan = &mut st.chans[ch];
                    if c.res == -ECANCELED
                        && chan.cur.is_some()
                        && !self.dead.load(Ordering::Acquire)
                    {
                        // Dropped without side effects — retry in place.
                        true
                    } else if c.res < 0 {
                        if !self.dead.load(Ordering::Acquire) {
                            let e = io::Error::from_raw_os_error(-c.res);
                            self.fail(format!("data channel {ch} write: {e}"));
                        }
                        // Stragglers on a dead transport just drain.
                        chan.cur = None;
                        chan.queue.clear();
                        false
                    } else {
                        match chan.cur.as_mut() {
                            None => false, // cleared by the error path
                            Some(op) => {
                                let sent = c.res as u32;
                                if sent < op.remaining {
                                    op.addr += sent as u64;
                                    op.remaining -= sent;
                                    true
                                } else {
                                    chan.cur = chan.queue.pop_front();
                                    chan.cur.is_some()
                                }
                            }
                        }
                    }
                };
                if resubmit {
                    if let Err(e) = self.push_write_locked(st, ch) {
                        self.fail(format!("io_uring submit: {e}"));
                    }
                }
            }
            st.cq_scratch = cqes;
        }

        /// The doorbell: retire whatever has already completed (so
        /// short-write continuations resubmit on the dispatcher's
        /// schedule, not the reaper's), then submit everything queued
        /// since the last kick with one kernel crossing.
        fn kick(&self) -> io::Result<()> {
            if self.dead.load(Ordering::Acquire) {
                return Err(self.stored_err());
            }
            let mut st = self.sub.lock();
            self.drain_cqes_locked(&mut st);
            if st.queued > 0 {
                self.ring.submit(st.queued)?;
                st.queued = 0;
            }
            Ok(())
        }

        /// Wait until every queued data-frame write has fully left the
        /// ring. The write-side shutdown must run behind this: unlike
        /// the TCP backend's synchronous sends, a queued frame (e.g. a
        /// spurious retransmit whose original was acked in the
        /// meantime) can still be in flight when `DatasetComplete` goes
        /// out, and `SHUT_WR` would truncate it mid-frame — the sink
        /// sees a torn stream instead of a clean end-of-stream. Timed
        /// waits, because the reaper may consume the very CQE being
        /// waited on.
        fn drain_writes(&self) {
            loop {
                if self.dead.load(Ordering::Acquire) {
                    return; // the error path owns the links now
                }
                {
                    let mut st = self.sub.lock();
                    self.drain_cqes_locked(&mut st);
                    if st.queued > 0 {
                        if let Err(e) = self.ring.submit(st.queued) {
                            self.fail(format!("io_uring submit: {e}"));
                            return;
                        }
                        st.queued = 0;
                    }
                    if st
                        .chans
                        .iter()
                        .all(|c| c.cur.is_none() && c.queue.is_empty())
                    {
                        return;
                    }
                }
                if self.ring.wait(Some(Duration::from_millis(1))).is_err() {
                    return;
                }
            }
        }

        /// The reaper: the source's single transport thread, the
        /// backstop for completions that land while the dispatcher is
        /// blocked elsewhere. Exits once the teardown guard raises
        /// `shutdown` and every expected CQE has drained.
        fn reap_loop(self: &Arc<SrcRing>) {
            loop {
                if self.shutdown.load(Ordering::Acquire)
                    && self.inflight.load(Ordering::Acquire) == 0
                {
                    return;
                }
                if let Err(e) = self.ring.wait(None) {
                    self.fail(format!("io_uring wait: {e}"));
                    return;
                }
                let mut st = self.sub.lock();
                self.drain_cqes_locked(&mut st);
                // Continuations go out before the next block on the
                // wait — one crossing per batch.
                if st.queued > 0 {
                    if let Err(e) = self.ring.submit(st.queued) {
                        self.fail(format!("io_uring submit: {e}"));
                    }
                    st.queued = 0;
                }
            }
        }
    }

    /// One channel's send handle over the shared ring.
    struct UringDataTx {
        ch: usize,
        shared: Arc<SrcRing>,
    }

    impl DataTx for UringDataTx {
        fn send(&self, hdr: DataFrameHeader, wire: &[u8]) -> io::Result<()> {
            // No registered slot backs this payload, so carry an owned
            // copy (exactly what the channel backend does) and kick
            // immediately — this path is control-scale, not bulk.
            let mut own = vec![0u8; DATA_FRAME_HEADER_LEN + wire.len()].into_boxed_slice();
            hdr.encode(&mut own[..DATA_FRAME_HEADER_LEN]);
            own[DATA_FRAME_HEADER_LEN..].copy_from_slice(wire);
            let op = WriteOp {
                addr: own.as_ptr() as u64,
                remaining: own.len() as u32,
                buf_index: OWNED_BUF,
                _own: Some(own),
            };
            self.shared.queue_op(self.ch, op)?;
            self.shared.kick()
        }

        fn send_block(
            &self,
            hdr: DataFrameHeader,
            bufs: &[Mutex<SlotBuf>],
            block: u32,
        ) -> io::Result<()> {
            // Write the frame header into the slot's dead space so
            // header + wire image is one contiguous fixed-buffer write
            // — no linked SQEs, no staging copy. The block stays pinned
            // until its ack, so the kernel always reads stable bytes (a
            // retransmit rewrites identical ones).
            let (addr, total) = {
                let mut buf = bufs[block as usize].lock();
                let frame = buf.framed_mut(DATA_FRAME_HEADER_LEN);
                hdr.encode(&mut frame[..DATA_FRAME_HEADER_LEN]);
                (
                    frame.as_ptr() as u64,
                    (DATA_FRAME_HEADER_LEN + hdr.wire_len()) as u32,
                )
            };
            self.shared.queue_op(
                self.ch,
                WriteOp {
                    addr,
                    remaining: total,
                    buf_index: block as u16,
                    _own: None,
                },
            )
        }

        fn kick(&self) -> io::Result<()> {
            self.shared.kick()
        }
    }

    /// Joins the reaper on drop (stashed in the transport's `abort`
    /// closure, so it lives exactly as long as the transport): raises
    /// `shutdown`, wakes the reaper with a NOP, and waits for it to
    /// drain every in-flight CQE before the ring can be unmapped.
    struct ReaperGuard {
        shared: Arc<SrcRing>,
        handle: Option<std::thread::JoinHandle<()>>,
    }

    impl Drop for ReaperGuard {
        fn drop(&mut self) {
            self.shared.shutdown.store(true, Ordering::Release);
            {
                let mut st = self.shared.sub.lock();
                let nop = Sqe {
                    opcode: IORING_OP_NOP,
                    user_data: UD_NOP,
                    ..Default::default()
                };
                if self.shared.push_sqe_locked(&mut st, &nop).is_ok() {
                    let queued = st.queued;
                    st.queued = 0;
                    let _ = self.shared.ring.submit(queued);
                }
            }
            if let Some(h) = self.handle.take() {
                let _ = h.join();
            }
        }
    }

    /// Connect the source half to a sink listening at `addr`, like
    /// [`crate::net::connect_source`], but with every data link driven
    /// through one io_uring: same hello exchange, same wire bytes, one
    /// reaper thread instead of per-send blocking writes.
    pub fn connect_source_uring(
        addr: impl ToSocketAddrs + Copy,
        channels: usize,
        sockbuf: usize,
    ) -> io::Result<SourceTransport> {
        probe()?;
        let SessionStreams {
            ctrl,
            data,
            token: _,
        } = connect_streams(addr, channels, sockbuf)?;
        let ring = transfer_ring(false)?;
        assert!(channels as u32 + 2 <= RING_ENTRIES);

        let mut handles = vec![ctrl.try_clone()?];
        for s in &data {
            handles.push(s.try_clone()?);
        }
        let handles = Arc::new(handles);
        let chans = data
            .iter()
            .map(|s| Chan {
                fd: s.as_raw_fd(),
                cur: None,
                queue: VecDeque::new(),
            })
            .collect();
        let shared = Arc::new(SrcRing {
            ring,
            sub: Mutex::new(SubState {
                chans,
                queued: 0,
                cq_scratch: Vec::with_capacity(64),
            }),
            inflight: AtomicI64::new(0),
            shutdown: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            err: Mutex::new(None),
            socks: data,
        });
        let reaper = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("rftp-uring-src".into())
                .spawn(move || shared.reap_loop())?
        };
        let guard = ReaperGuard {
            shared: shared.clone(),
            handle: Some(reaper),
        };

        let ctrl_rd = ctrl.try_clone()?;
        let data_tx: Vec<Box<dyn DataTx>> = (0..channels)
            .map(|ch| {
                Box::new(UringDataTx {
                    ch,
                    shared: shared.clone(),
                }) as Box<dyn DataTx>
            })
            .collect();
        let reg_shared = shared.clone();
        let shutdown_shared = shared.clone();
        let shutdown_handles = handles.clone();
        Ok(SourceTransport {
            ctrl_tx: Arc::new(NetCtrlTx(Mutex::new(ctrl))),
            ctrl_rx: Box::new(NetCtrlRx::new(ctrl_rd)),
            data: Arc::new(data_tx),
            register: Box::new(move |bufs: &BufPool| {
                let view: Vec<&Mutex<SlotBuf>> = bufs.iter().collect();
                reg_shared.ring.register_pool(&view)
            }),
            transport_threads: 1,
            shutdown_write: Box::new(move || {
                shutdown_shared.drain_writes();
                shutdown_all(&shutdown_handles, Shutdown::Write)
            }),
            abort: Arc::new(move || {
                // `guard` rides in this closure so the reaper is joined
                // exactly when the transport is dropped.
                let _keep = &guard;
                shared.fail("transport aborted".into());
                shutdown_all(&handles, Shutdown::Both);
            }),
        })
    }

    // -----------------------------------------------------------------
    // Sink half
    // -----------------------------------------------------------------

    /// Where one data link's framing state machine stands. Two modes:
    ///
    /// * `Fx*` — the armed-read fallback (kernels where
    ///   [`multishot_probe`] fails): header-first, the 16-byte
    ///   [`DataFrameHeader`] is read and routed *before* the payload
    ///   read is committed, into either the credited slot's registered
    ///   buffer (`READ_FIXED` — the CQE is the placement) or a scratch
    ///   buffer (duplicate arrival).
    /// * `Ms*` — multishot receive: one armed `RECV|MULTISHOT` per
    ///   socket, the kernel picks a provided buffer per completion, and
    ///   the driver parses the wire stream out of the buffers — headers
    ///   accumulate in the link's stash, payload bytes are copied into
    ///   the credited slot. Copy-routing costs a memcpy per block; the
    ///   CQE/syscall batching multishot buys is the trade.
    #[derive(Clone, Copy)]
    enum RxState {
        FxHeader {
            got: usize,
        },
        FxPlace {
            hdr: DataFrameHeader,
            base: u64,
            got: usize,
            t0: Instant,
        },
        FxDiscard {
            wire_len: usize,
            got: usize,
        },
        MsHeader {
            got: usize,
        },
        MsBody {
            hdr: DataFrameHeader,
            got: usize,
            t0: Instant,
        },
        MsDiscard {
            remaining: usize,
        },
        Eof,
    }

    struct Link {
        fd: i32,
        state: RxState,
        /// Boxed so its address is stable while a kernel read targets
        /// it (fallback header reads; the multishot parser uses it as
        /// its partial-header stash).
        hdr_buf: Box<[u8; DATA_FRAME_HEADER_LEN]>,
        scratch: Vec<u8>,
        /// Multishot only: the receive terminated on `ENOBUFS` and the
        /// link is parked until a provided buffer is recycled.
        parked: bool,
    }

    struct CtrlLink {
        fd: i32,
        buf: Box<[u8; 4096]>,
        dec: rftp_core::wire::FrameDecoder,
        eof: bool,
    }

    /// What one session's driver half hands back to its handler thread
    /// at detach: the placement tally the driver accumulated on the
    /// session's behalf, any driver-side error, and a snapshot of the
    /// shared ring's counters.
    struct SessionStats {
        tally: PlaceTally,
        err: Option<io::Error>,
        ring: UringStats,
    }

    /// A daemon session's way home from the shared driver: the mailbox
    /// its events are forwarded through, and where the detach handshake
    /// delivers [`SessionStats`].
    type Mailbox = (
        crossbeam::channel::Sender<SinkEvt>,
        std::sync::mpsc::SyncSender<SessionStats>,
    );

    /// One admitted session as the driver sees it: the placement front,
    /// link state machines, the slot mapping, and the handler-side
    /// plumbing.
    struct Sess {
        front: Arc<SinkFront>,
        /// Wire slot index → fixed-buffer index in the driver's
        /// registered table. Identity for a standalone sink (the pool
        /// *is* the table); an arena lease for daemon sessions — the
        /// stable global slot indices are what let one
        /// `register_buffers` call at daemon startup cover every future
        /// lease.
        lease: Vec<u32>,
        links: Vec<Link>,
        ctrl: CtrlLink,
        /// Driver-owned socket clones (control first), shut down to cut
        /// the session loose on a driver-side failure or detach.
        socks: Vec<TcpStream>,
        /// Events parsed this loop, not yet handed to the handler.
        emit: Vec<SinkEvt>,
        /// Daemon mode: the session thread's mailbox. `None` in pump
        /// mode (the session thread *is* the driver thread) — and after
        /// a failure, which is how the handler learns the source died.
        mailbox: Option<crossbeam::channel::Sender<SinkEvt>>,
        /// Daemon mode: where the detach handshake delivers
        /// [`SessionStats`].
        stats_tx: Option<std::sync::mpsc::SyncSender<SessionStats>>,
        /// Kernel ops currently in flight for this session (an armed
        /// multishot receive counts once: only its terminal CQE — no
        /// `F_MORE` — decrements).
        inflight: u32,
        err: Option<io::Error>,
        /// Detach requested: stop re-arming, drain to `inflight == 0`,
        /// then send stats and drop the entry.
        detaching: bool,
        /// Sockets already shut down (error/detach path ran).
        cut: bool,
        /// Fallback: payload reads armed right now, bounded by
        /// [`PLACE_CAP`].
        place_armed: u32,
        /// Fallback: links routed into `FxPlace` whose read is deferred
        /// until a slot under the cap frees up. Safe to defer: the
        /// header is already read, and the source wrote header +
        /// payload as one contiguous write, so the payload is on the
        /// wire (or in the socket buffer) no matter when the read arms.
        place_pending: VecDeque<usize>,
        tally: PlaceTally,
    }

    impl Sess {
        /// Build a session entry over driver-owned socket clones. `ms`
        /// is the driver's receive mode — it picks the links' opening
        /// state.
        fn new(
            ms: bool,
            front: Arc<SinkFront>,
            lease: Vec<u32>,
            ctrl: TcpStream,
            data: Vec<TcpStream>,
            mailbox: Option<Mailbox>,
        ) -> Sess {
            let init = if ms {
                RxState::MsHeader { got: 0 }
            } else {
                RxState::FxHeader { got: 0 }
            };
            let links = data
                .iter()
                .map(|s| Link {
                    fd: s.as_raw_fd(),
                    state: init,
                    hdr_buf: Box::new([0u8; DATA_FRAME_HEADER_LEN]),
                    scratch: Vec::new(),
                    parked: false,
                })
                .collect();
            let ctrl_link = CtrlLink {
                fd: ctrl.as_raw_fd(),
                buf: Box::new([0u8; 4096]),
                dec: rftp_core::wire::FrameDecoder::new(),
                eof: false,
            };
            let mut socks = vec![ctrl];
            socks.extend(data);
            let (mailbox, stats_tx) = mailbox.unzip();
            Sess {
                front,
                lease,
                links,
                ctrl: ctrl_link,
                socks,
                emit: Vec::new(),
                mailbox,
                stats_tx,
                inflight: 0,
                err: None,
                detaching: false,
                cut: false,
                place_armed: 0,
                place_pending: VecDeque::new(),
                tally: PlaceTally::default(),
            }
        }
    }

    /// `user_data` link field naming a session's control socket.
    const CTRL_LINK: u32 = u32::MAX;
    /// `user_data` of the daemon driver's hub-wakeup read. (`UD_NOP` is
    /// `u64::MAX`; session ids never reach `u32::MAX`, so neither
    /// sentinel collides with `ud()`.)
    const UD_WAKE: u64 = u64::MAX - 1;

    /// Completion demultiplexing key: session id in the high word, link
    /// index (or [`CTRL_LINK`]) in the low.
    fn ud(sid: u32, link: u32) -> u64 {
        ((sid as u64) << 32) | link as u64
    }

    fn decode_header(buf: &[u8; DATA_FRAME_HEADER_LEN]) -> io::Result<DataFrameHeader> {
        DataFrameHeader::decode(&buf[..]).map_err(|e| perr(format!("bad data frame header: {e:?}")))
    }

    /// Feed one multishot completion's worth of wire-stream bytes into
    /// link `i`'s parser. Returns a *session*-level error on a torn or
    /// invalid frame.
    fn ms_feed(
        sess: &mut Sess,
        slots: &[&Mutex<SlotBuf>],
        i: usize,
        mut bytes: &[u8],
        floor: Instant,
    ) -> io::Result<()> {
        while !bytes.is_empty() {
            match sess.links[i].state {
                RxState::MsHeader { got } => {
                    let take = (DATA_FRAME_HEADER_LEN - got).min(bytes.len());
                    sess.links[i].hdr_buf[got..got + take].copy_from_slice(&bytes[..take]);
                    bytes = &bytes[take..];
                    let got = got + take;
                    if got < DATA_FRAME_HEADER_LEN {
                        sess.links[i].state = RxState::MsHeader { got };
                        continue;
                    }
                    let hdr = decode_header(&sess.links[i].hdr_buf)?;
                    sess.links[i].state = if sess.front.admit(&hdr, &mut sess.tally)? {
                        RxState::MsBody {
                            hdr,
                            got: 0,
                            t0: Instant::now(),
                        }
                    } else {
                        RxState::MsDiscard {
                            remaining: hdr.wire_len(),
                        }
                    };
                }
                RxState::MsBody { hdr, got, t0 } => {
                    let wire_len = hdr.wire_len();
                    let take = (wire_len - got).min(bytes.len());
                    let mut dst = slots[sess.lease[hdr.slot as usize] as usize].lock();
                    dst[got..got + take].copy_from_slice(&bytes[..take]);
                    bytes = &bytes[take..];
                    let got = got + take;
                    if got < wire_len {
                        sess.links[i].state = RxState::MsBody { hdr, got, t0 };
                        continue;
                    }
                    // Clock from max(armed, floor) — see `place_floor`.
                    let ev = sess
                        .front
                        .landed(&hdr, &dst, t0.max(floor), &mut sess.tally)?;
                    sess.emit.push(ev);
                    sess.links[i].state = RxState::MsHeader { got: 0 };
                }
                RxState::MsDiscard { remaining } => {
                    let take = remaining.min(bytes.len());
                    bytes = &bytes[take..];
                    let remaining = remaining - take;
                    sess.links[i].state = if remaining == 0 {
                        RxState::MsHeader { got: 0 }
                    } else {
                        RxState::MsDiscard { remaining }
                    };
                }
                // EOF (or a stray fallback state): drop trailing bytes.
                _ => return Ok(()),
            }
        }
        Ok(())
    }

    /// The hub-wakeup socket the daemon driver arms a `READ` on, so
    /// registration/detach messages interrupt a blocked `GETEVENTS`.
    struct WakeLink {
        stream: UnixStream,
        buf: Box<[u8; 64]>,
    }

    /// What `on_cqe`'s split-borrow inner blocks ask the driver to do
    /// next, once the session borrow is released.
    enum Next {
        None,
        /// Re-arm link `i`'s current state.
        Arm,
        /// Arm link `i`'s `FxPlace` read under the cap (or park it).
        ArmPlace,
        /// A block finished placing on link `i`: free its cap slot, arm
        /// a parked placement if any, then re-arm `i`'s header read.
        Placed,
        /// Record a session-level failure and cut the session loose.
        Fail(io::Error),
    }

    /// The sink's single data-path driver: one ring, one thread, every
    /// admitted session's links. Two harnesses share it:
    ///
    /// * **pump mode** (the standalone sink): one session, and
    ///   [`MultiDriver::pump`] is the event source its handler
    ///   ([`SinkSession::handler`]) coalesces over — CQE batches in, a
    ///   batch of [`SinkEvt`]s out, dwell waits as `EXT_ARG` ring
    ///   timeouts;
    /// * **daemon mode**: the driver loop forwards each session's
    ///   events through its mailbox to the session thread, which runs
    ///   the same handler + drain over [`channel_events`].
    struct MultiDriver<'a> {
        ring: &'a Ring,
        /// The registered fixed-buffer table; each session's `lease`
        /// maps wire slots into it.
        slots: &'a [&'a Mutex<SlotBuf>],
        /// Multishot receive active (vs the `Fx*` fallback).
        ms: bool,
        pbuf: Option<PbufRing>,
        sessions: HashMap<u32, Sess>,
        /// `(sid, link)` pairs whose multishot receive died on
        /// `ENOBUFS`, re-armed as buffers recycle.
        starved: VecDeque<(u32, usize)>,
        queued: u32,
        cqes: Vec<Cqe>,
        /// The place-clock floor: the last instant this thread returned
        /// from a ring wait or finished retiring a completion. A
        /// block's place time clocks from `max(armed, floor)`, so it
        /// measures the driver's *observable wait* for that block's
        /// bytes — comparable to the TCP sink's per-thread blocking
        /// reads.
        place_floor: Instant,
        multishot_rearms: u64,
        pbuf_exhausted: u64,
        /// Ring-level failure: everything on the ring is dead.
        fatal: Option<io::Error>,
        wake: Option<WakeLink>,
        wake_armed: bool,
        /// Teardown: stop re-arming the wake read.
        stopping: bool,
    }

    impl<'a> MultiDriver<'a> {
        fn new(
            ring: &'a Ring,
            slots: &'a [&'a Mutex<SlotBuf>],
            ms: bool,
            pbuf: Option<PbufRing>,
        ) -> MultiDriver<'a> {
            MultiDriver {
                ring,
                slots,
                ms,
                pbuf,
                sessions: HashMap::new(),
                starved: VecDeque::new(),
                queued: 0,
                cqes: Vec::with_capacity(64),
                place_floor: Instant::now(),
                multishot_rearms: 0,
                pbuf_exhausted: 0,
                fatal: None,
                wake: None,
                wake_armed: false,
                stopping: false,
            }
        }

        fn stats_snapshot(&self) -> UringStats {
            UringStats {
                enters: self.ring.enters.load(Ordering::Relaxed),
                cqes: self.ring.reaped.load(Ordering::Relaxed),
                multishot: self.ms,
                multishot_rearms: self.multishot_rearms,
                pbuf_exhausted: self.pbuf_exhausted,
                registrations: self.ring.registers.load(Ordering::Relaxed),
            }
        }

        fn push_sqe(&mut self, sqe: &Sqe) -> io::Result<()> {
            while !self.ring.sq_push(sqe) {
                // SQ full: flush what is queued to make room.
                self.ring.submit(self.queued)?;
                self.queued = 0;
            }
            self.queued += 1;
            Ok(())
        }

        fn submit_queued(&mut self) -> io::Result<()> {
            if self.queued > 0 {
                self.ring.submit(self.queued)?;
                self.queued = 0;
            }
            Ok(())
        }

        /// Arm the hub-wakeup read (daemon mode).
        fn arm_wake(&mut self) -> io::Result<()> {
            let Some(w) = &self.wake else { return Ok(()) };
            let sqe = Sqe {
                opcode: IORING_OP_READ,
                fd: w.stream.as_raw_fd(),
                addr: w.buf.as_ptr() as u64,
                len: w.buf.len() as u32,
                user_data: UD_WAKE,
                ..Default::default()
            };
            self.push_sqe(&sqe)?;
            self.wake_armed = true;
            Ok(())
        }

        /// (Re-)arm whatever receive link `i`'s state calls for.
        fn arm_link(&mut self, sid: u32, i: usize) -> io::Result<()> {
            let sess = self.sessions.get_mut(&sid).unwrap();
            let fd = sess.links[i].fd;
            let user_data = ud(sid, i as u32);
            let sqe = match sess.links[i].state {
                RxState::Eof => return Ok(()),
                RxState::MsHeader { .. } | RxState::MsBody { .. } | RxState::MsDiscard { .. } => {
                    sess.links[i].parked = false;
                    Sqe {
                        opcode: IORING_OP_RECV,
                        flags: IOSQE_BUFFER_SELECT,
                        ioprio: IORING_RECV_MULTISHOT,
                        fd,
                        buf_index: PBUF_BGID,
                        user_data,
                        ..Default::default()
                    }
                }
                RxState::FxHeader { got } => Sqe {
                    opcode: IORING_OP_READ,
                    fd,
                    addr: sess.links[i].hdr_buf.as_ptr() as u64 + got as u64,
                    len: (DATA_FRAME_HEADER_LEN - got) as u32,
                    user_data,
                    ..Default::default()
                },
                RxState::FxPlace { hdr, base, got, .. } => Sqe {
                    opcode: IORING_OP_READ_FIXED,
                    fd,
                    addr: base + got as u64,
                    len: (hdr.wire_len() - got) as u32,
                    buf_index: sess.lease[hdr.slot as usize] as u16,
                    user_data,
                    ..Default::default()
                },
                RxState::FxDiscard { wire_len, got } => {
                    let want = (wire_len - got).min(64 * 1024);
                    if sess.links[i].scratch.len() < want {
                        sess.links[i].scratch.resize(want, 0);
                    }
                    Sqe {
                        opcode: IORING_OP_READ,
                        fd,
                        addr: sess.links[i].scratch.as_ptr() as u64,
                        len: want as u32,
                        user_data,
                        ..Default::default()
                    }
                }
            };
            sess.inflight += 1;
            self.push_sqe(&sqe)
        }

        /// Fallback: arm a `FxPlace` read if the session's cap has
        /// room, else park the link. Resets the place clock at true arm
        /// time so a parked link doesn't bill its queue wait as
        /// placement.
        fn arm_place(&mut self, sid: u32, i: usize) -> io::Result<()> {
            let sess = self.sessions.get_mut(&sid).unwrap();
            if sess.place_armed < PLACE_CAP {
                sess.place_armed += 1;
                if let RxState::FxPlace { ref mut t0, .. } = sess.links[i].state {
                    *t0 = Instant::now();
                }
                self.arm_link(sid, i)
            } else {
                sess.place_pending.push_back(i);
                Ok(())
            }
        }

        fn arm_ctrl(&mut self, sid: u32) -> io::Result<()> {
            let sess = self.sessions.get_mut(&sid).unwrap();
            let sqe = Sqe {
                opcode: IORING_OP_READ,
                fd: sess.ctrl.fd,
                addr: sess.ctrl.buf.as_ptr() as u64,
                len: sess.ctrl.buf.len() as u32,
                user_data: ud(sid, CTRL_LINK),
                ..Default::default()
            };
            sess.inflight += 1;
            self.push_sqe(&sqe)
        }

        /// Insert a session and arm every opening read. The caller
        /// submits (pump's first loop / the daemon tick).
        fn add_session(&mut self, sid: u32, sess: Sess) -> io::Result<()> {
            let links = sess.links.len();
            self.sessions.insert(sid, sess);
            for i in 0..links {
                self.arm_link(sid, i)?;
            }
            self.arm_ctrl(sid)
        }

        /// First-error-wins session failure: record it, cut the
        /// session's sockets (in-flight ops complete as errors
        /// promptly), and drop the mailbox so the handler thread sees
        /// the source close after draining what was already parsed.
        fn sess_fail(&mut self, sid: u32, e: io::Error) {
            let Some(sess) = self.sessions.get_mut(&sid) else {
                return;
            };
            if sess.err.is_none() {
                sess.err = Some(e);
            }
            if !sess.cut {
                sess.cut = true;
                shutdown_all(&sess.socks, Shutdown::Both);
            }
            sess.mailbox = None;
        }

        /// Daemon detach: stop re-arming, cut the sockets so armed ops
        /// drain, and let `finalize_sessions` complete the handshake at
        /// `inflight == 0`.
        fn begin_detach(&mut self, sid: u32) {
            let Some(sess) = self.sessions.get_mut(&sid) else {
                return;
            };
            sess.detaching = true;
            sess.mailbox = None;
            if !sess.cut {
                sess.cut = true;
                shutdown_all(&sess.socks, Shutdown::Both);
            }
        }

        /// Complete the detach handshake for every drained session:
        /// send its stats (and any driver-side error) to the waiting
        /// session thread and drop the entry. No in-flight op can now
        /// land in the session's leased slots, so the caller may
        /// release the lease the moment it receives the stats.
        fn finalize_sessions(&mut self) {
            let done: Vec<u32> = self
                .sessions
                .iter()
                .filter(|(_, s)| s.detaching && s.inflight == 0)
                .map(|(&sid, _)| sid)
                .collect();
            for sid in done {
                let ring = self.stats_snapshot();
                let sess = self.sessions.remove(&sid).unwrap();
                if let Some(tx) = sess.stats_tx {
                    let _ = tx.send(SessionStats {
                        tally: sess.tally,
                        err: sess.err,
                        ring,
                    });
                }
            }
        }

        /// Forward freshly-parsed events to each daemon session's
        /// mailbox (batched per driver loop, so a CQE burst arrives at
        /// the handler as one `recv_batch`).
        fn deliver_mailboxes(&mut self) {
            for sess in self.sessions.values_mut() {
                if sess.emit.is_empty() {
                    continue;
                }
                match &sess.mailbox {
                    Some(tx) => {
                        for ev in sess.emit.drain(..) {
                            let _ = tx.send(ev);
                        }
                    }
                    None => sess.emit.clear(),
                }
            }
        }

        fn on_ctrl_cqe(&mut self, sid: u32, c: &Cqe) -> io::Result<()> {
            let mut next = Next::None;
            {
                let sess = self.sessions.get_mut(&sid).unwrap();
                let idle = sess.detaching || sess.err.is_some();
                if c.res == -ECANCELED {
                    if !idle {
                        next = Next::Arm;
                    }
                } else if c.res < 0 {
                    if !idle {
                        next = Next::Fail(io::Error::from_raw_os_error(-c.res));
                    }
                } else if c.res == 0 {
                    if sess.ctrl.dec.pending_bytes() != 0 {
                        next = Next::Fail(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "control stream closed mid-frame",
                        ));
                    } else {
                        sess.ctrl.eof = true;
                        sess.emit.push(SinkEvt::CtrlEof);
                    }
                } else {
                    let n = c.res as usize;
                    let buf: &[u8] = &sess.ctrl.buf[..n];
                    // Decode in place; the decoder owns a copy.
                    let buf = buf.to_vec();
                    sess.ctrl.dec.push(&buf);
                    loop {
                        match sess.ctrl.dec.next_frame() {
                            Ok(Some(msg)) => sess.emit.push(SinkEvt::Ctrl(msg)),
                            Ok(None) => break,
                            Err(e) => {
                                next = Next::Fail(io::Error::new(
                                    io::ErrorKind::InvalidData,
                                    format!("bad control frame: {e:?}"),
                                ));
                                break;
                            }
                        }
                    }
                    if matches!(next, Next::None) && !idle {
                        next = Next::Arm;
                    }
                }
            }
            match next {
                Next::Arm => self.arm_ctrl(sid),
                Next::Fail(e) => {
                    self.sess_fail(sid, e);
                    Ok(())
                }
                _ => Ok(()),
            }
        }

        /// Fallback-mode data completion: the ported header-first
        /// armed-read state machine.
        fn on_data_cqe_fx(&mut self, sid: u32, i: usize, c: &Cqe) -> io::Result<()> {
            let place_floor = self.place_floor;
            let mut next = Next::None;
            {
                let Self {
                    sessions, slots, ..
                } = self;
                let sess = sessions.get_mut(&sid).unwrap();
                let idle = sess.detaching || sess.err.is_some();
                let st = sess.links[i].state;
                if c.res == -ECANCELED && !matches!(st, RxState::Eof) {
                    // Dropped without side effects — retry in place (a
                    // `FxPlace` link keeps the cap slot it holds).
                    if !idle {
                        next = Next::Arm;
                    }
                } else if c.res < 0 {
                    if !idle {
                        next = Next::Fail(io::Error::from_raw_os_error(-c.res));
                    }
                } else {
                    let n = c.res as usize;
                    match st {
                        RxState::FxHeader { got } => {
                            if n == 0 {
                                if got == 0 {
                                    sess.links[i].state = RxState::Eof;
                                    sess.emit.push(SinkEvt::DataEof);
                                } else {
                                    next = Next::Fail(io::Error::new(
                                        io::ErrorKind::UnexpectedEof,
                                        "stream closed mid-frame",
                                    ));
                                }
                            } else {
                                let got = got + n;
                                if got < DATA_FRAME_HEADER_LEN {
                                    sess.links[i].state = RxState::FxHeader { got };
                                    next = Next::Arm;
                                } else {
                                    let routed =
                                        decode_header(&sess.links[i].hdr_buf).and_then(|hdr| {
                                            Ok((hdr, sess.front.admit(&hdr, &mut sess.tally)?))
                                        });
                                    match routed {
                                        Err(e) => next = Next::Fail(e),
                                        Ok((hdr, false)) => {
                                            sess.links[i].state = RxState::FxDiscard {
                                                wire_len: hdr.wire_len(),
                                                got: 0,
                                            };
                                            next = Next::Arm;
                                        }
                                        Ok((hdr, true)) => {
                                            // Route on the header, then
                                            // commit the payload read
                                            // straight into the credited
                                            // slot's registered buffer —
                                            // the CQE is the placement.
                                            let fixed = sess.lease[hdr.slot as usize] as usize;
                                            let base = slots[fixed].lock().as_ptr() as u64;
                                            sess.links[i].state = RxState::FxPlace {
                                                hdr,
                                                base,
                                                got: 0,
                                                t0: Instant::now(),
                                            };
                                            next = Next::ArmPlace;
                                        }
                                    }
                                }
                            }
                        }
                        RxState::FxPlace { hdr, got, t0, .. } => {
                            if n == 0 {
                                next = Next::Fail(io::Error::new(
                                    io::ErrorKind::UnexpectedEof,
                                    "stream closed mid-frame",
                                ));
                            } else {
                                let got = got + n;
                                if got < hdr.wire_len() {
                                    if let RxState::FxPlace { got: ref mut g, .. } =
                                        sess.links[i].state
                                    {
                                        *g = got;
                                    }
                                    next = Next::Arm;
                                } else {
                                    // Clock from max(armed, floor) — see
                                    // `place_floor`.
                                    let dst = slots[sess.lease[hdr.slot as usize] as usize].lock();
                                    let t0 = t0.max(place_floor);
                                    match sess.front.landed(&hdr, &dst, t0, &mut sess.tally) {
                                        Err(e) => next = Next::Fail(e),
                                        Ok(ev) => {
                                            sess.emit.push(ev);
                                            sess.links[i].state = RxState::FxHeader { got: 0 };
                                            next = Next::Placed;
                                        }
                                    }
                                }
                            }
                        }
                        RxState::FxDiscard { wire_len, got } => {
                            if n == 0 {
                                next = Next::Fail(io::Error::new(
                                    io::ErrorKind::UnexpectedEof,
                                    "stream closed mid-frame",
                                ));
                            } else {
                                let got = got + n;
                                if got < wire_len {
                                    sess.links[i].state = RxState::FxDiscard { wire_len, got };
                                } else {
                                    sess.links[i].state = RxState::FxHeader { got: 0 };
                                }
                                next = Next::Arm;
                            }
                        }
                        _ => {}
                    }
                }
            }
            match next {
                Next::None => Ok(()),
                Next::Arm => self.arm_link(sid, i),
                Next::ArmPlace => self.arm_place(sid, i),
                Next::Placed => {
                    let parked = {
                        let sess = self.sessions.get_mut(&sid).unwrap();
                        sess.place_armed -= 1;
                        sess.place_pending.pop_front()
                    };
                    if let Some(j) = parked {
                        self.arm_place(sid, j)?;
                    }
                    self.arm_link(sid, i)
                }
                Next::Fail(e) => {
                    self.sess_fail(sid, e);
                    Ok(())
                }
            }
        }

        /// Multishot-mode data completion: recycle-and-parse. `more` is
        /// the CQE's `F_MORE` (the receive is still armed).
        fn on_data_cqe_ms(&mut self, sid: u32, i: usize, c: &Cqe, more: bool) -> io::Result<()> {
            let place_floor = self.place_floor;
            if c.res < 0 {
                let (idle, eof) = {
                    let sess = self.sessions.get_mut(&sid).unwrap();
                    (
                        sess.detaching || sess.err.is_some(),
                        matches!(sess.links[i].state, RxState::Eof),
                    )
                };
                match -c.res {
                    _ if idle || eof => return Ok(()),
                    ECANCELED => {
                        self.multishot_rearms += 1;
                        return self.arm_link(sid, i);
                    }
                    ENOBUFS => {
                        // Buffer ring dry: park until a recycle.
                        self.pbuf_exhausted += 1;
                        self.sessions.get_mut(&sid).unwrap().links[i].parked = true;
                        self.starved.push_back((sid, i));
                        return Ok(());
                    }
                    e => {
                        self.sess_fail(sid, io::Error::from_raw_os_error(e));
                        return Ok(());
                    }
                }
            }
            let bid = (c.flags & IORING_CQE_F_BUFFER != 0)
                .then_some((c.flags >> IORING_CQE_BUFFER_SHIFT) as u16);
            let mut fed = Ok(());
            if c.res == 0 {
                let sess = self.sessions.get_mut(&sid).unwrap();
                if !(sess.detaching || sess.err.is_some()) {
                    match sess.links[i].state {
                        RxState::MsHeader { got: 0 } => {
                            sess.links[i].state = RxState::Eof;
                            sess.emit.push(SinkEvt::DataEof);
                        }
                        RxState::Eof => {}
                        _ => {
                            fed = Err(io::Error::new(
                                io::ErrorKind::UnexpectedEof,
                                "stream closed mid-frame",
                            ))
                        }
                    }
                }
            } else {
                let n = c.res as usize;
                let Self {
                    sessions,
                    slots,
                    pbuf,
                    ..
                } = self;
                let sess = sessions.get_mut(&sid).unwrap();
                if sess.detaching || sess.err.is_some() {
                    // Draining a cut session: count the buffer back in,
                    // parse nothing.
                } else {
                    match bid {
                        None => {
                            fed = Err(perr("multishot completion without a buffer"));
                        }
                        Some(bid) => {
                            let bytes = &pbuf.as_ref().expect("ms without pbuf").buf(bid)[..n];
                            fed = ms_feed(sess, slots, i, bytes, place_floor);
                        }
                    }
                }
            }
            // Recycle before re-arming: the returned buffer may be the
            // one that un-starves a parked link.
            if let Some(bid) = bid {
                self.pbuf.as_mut().expect("ms without pbuf").recycle(bid);
                self.drain_starved()?;
            }
            if let Err(e) = fed {
                self.sess_fail(sid, e);
                return Ok(());
            }
            let (rearm, parked) = {
                let sess = self.sessions.get_mut(&sid).unwrap();
                let dead = sess.detaching
                    || sess.err.is_some()
                    || matches!(sess.links[i].state, RxState::Eof);
                (!more && !dead, sess.links[i].parked)
            };
            if rearm && !parked {
                // Terminal CQE (`F_MORE` cleared) on a live link: the
                // kernel dropped the multishot arm; re-arm it.
                self.multishot_rearms += 1;
                return self.arm_link(sid, i);
            }
            Ok(())
        }

        /// Route one CQE. `Err` here is ring-fatal (a failed submit);
        /// session-level failures are recorded via `sess_fail`.
        fn on_cqe(&mut self, c: &Cqe) -> io::Result<()> {
            if c.user_data == UD_NOP {
                return Ok(());
            }
            if c.user_data == UD_WAKE {
                self.wake_armed = false;
                if !self.stopping {
                    return self.arm_wake();
                }
                return Ok(());
            }
            let sid = (c.user_data >> 32) as u32;
            let link = (c.user_data & u32::MAX as u64) as u32;
            let more = c.flags & IORING_CQE_F_MORE != 0;
            {
                // A CQE for a removed session cannot happen (entries
                // only drop at `inflight == 0`), but route defensively.
                let Some(sess) = self.sessions.get_mut(&sid) else {
                    if let Some(p) = &mut self.pbuf {
                        if c.flags & IORING_CQE_F_BUFFER != 0 {
                            p.recycle((c.flags >> IORING_CQE_BUFFER_SHIFT) as u16);
                        }
                    }
                    return Ok(());
                };
                if !more {
                    sess.inflight = sess.inflight.saturating_sub(1);
                }
            }
            if link == CTRL_LINK {
                self.on_ctrl_cqe(sid, c)
            } else if self.ms {
                self.on_data_cqe_ms(sid, link as usize, c, more)
            } else {
                self.on_data_cqe_fx(sid, link as usize, c)
            }
        }

        /// Re-arm every live parked link. Runs after each recycle AND at
        /// every CQE-batch boundary: by batch end each buffer the batch
        /// delivered has been recycled, so the provided-buffer ring is
        /// as full as it gets. Without the batch-end pass, an `ENOBUFS`
        /// processed after the batch's last recycle parks its link with
        /// nothing left to wake it — the only still-armed link may stay
        /// silent forever while the remaining frames sit in the parked
        /// links' sockets (observed as a total transfer stall with a
        /// 1-buffer ring).
        fn drain_starved(&mut self) -> io::Result<()> {
            while let Some((s2, l2)) = self.starved.pop_front() {
                // A parked link has nothing in flight, so its session
                // may have failed or finalized while it waited — only
                // re-arm live ones.
                let live = self.sessions.get(&s2).is_some_and(|s| {
                    !s.detaching && s.err.is_none() && !matches!(s.links[l2].state, RxState::Eof)
                });
                if live {
                    self.multishot_rearms += 1;
                    self.arm_link(s2, l2)?;
                }
            }
            Ok(())
        }

        /// The recv callback the handler coalesces over in pump mode:
        /// deliver at least one [`SinkEvt`] for session `sid`
        /// (`window: None` blocks; `Some(w)` is a dwell wait bounded by
        /// a *cumulative* deadline across its internal waits), or
        /// `false` when the wait timed out, every link is done, or the
        /// driver failed.
        fn pump(&mut self, sid: u32, window: Option<Duration>, out: &mut Vec<SinkEvt>) -> bool {
            if self.fatal.is_some() || self.sessions.get(&sid).is_none_or(|s| s.err.is_some()) {
                return false;
            }
            self.place_floor = Instant::now();
            let deadline = window.map(|w| Instant::now() + w);
            loop {
                self.cqes.clear();
                self.ring.reap(&mut self.cqes);
                if self.cqes.is_empty() {
                    if self.sessions.get(&sid).map_or(0, |s| s.inflight) == 0 {
                        return false; // every link EOF — nothing can arrive
                    }
                    let waited = match deadline {
                        // Hot path: hand re-armed reads to the kernel
                        // and wait for the next completion in ONE
                        // syscall.
                        None => {
                            let queued = std::mem::take(&mut self.queued);
                            self.ring.submit_and_wait(queued).map(|()| true)
                        }
                        // Dwell wait: flush first, then the timed wait
                        // (`-ETIME` and a fused submit don't mix). Each
                        // retry gets the *remaining* window, so partial
                        // reads can't stretch the dwell past the
                        // handler's flush deadline.
                        Some(d) => {
                            let now = Instant::now();
                            if d <= now {
                                return false; // dwell window exhausted
                            }
                            self.submit_queued()
                                .and_then(|()| self.ring.wait(Some(d - now)))
                        }
                    };
                    match waited {
                        Ok(true) => {
                            self.place_floor = Instant::now();
                            continue;
                        }
                        Ok(false) => {
                            // -ETIME: drain completions that raced the
                            // timeout into this dwell's batch rather
                            // than leaving them for the next pump.
                            if self.ring.cq_ready() > 0 {
                                continue;
                            }
                            return false;
                        }
                        Err(e) => {
                            self.fatal = Some(e);
                            return false;
                        }
                    }
                }
                let cqes = std::mem::take(&mut self.cqes);
                for c in &cqes {
                    let r = self.on_cqe(c);
                    self.place_floor = Instant::now();
                    if let Err(e) = r {
                        self.fatal = Some(e);
                        self.cqes = cqes;
                        return false;
                    }
                }
                self.cqes = cqes;
                if let Err(e) = self.drain_starved() {
                    self.fatal = Some(e);
                    return false;
                }
                if let Some(sess) = self.sessions.get_mut(&sid) {
                    if sess.err.is_some() {
                        return false;
                    }
                    out.append(&mut sess.emit);
                }
                if !out.is_empty() {
                    // Flush the re-arms before handing the events over,
                    // so the kernel fills slots while the handler
                    // verifies and acks.
                    if let Err(e) = self.submit_queued() {
                        self.fatal = Some(e);
                        return false;
                    }
                    return true;
                }
                // Partial reads advanced without yielding an event;
                // keep draining (the empty-reap path flushes `queued`).
            }
        }

        /// The error to surface for session `sid` after a `Closed`
        /// drain (ring-fatal first — it explains every session).
        fn take_err(&mut self, sid: u32) -> Option<io::Error> {
            self.fatal
                .take()
                .or_else(|| self.sessions.get_mut(&sid).and_then(|s| s.err.take()))
        }

        /// One daemon-driver iteration: submit + block for completions
        /// (the armed wake read turns hub messages into CQEs), retire a
        /// batch, forward events. `Err` is ring-fatal.
        fn daemon_tick(&mut self) -> io::Result<()> {
            self.place_floor = Instant::now();
            self.cqes.clear();
            self.ring.reap(&mut self.cqes);
            if self.cqes.is_empty() {
                let queued = std::mem::take(&mut self.queued);
                self.ring.submit_and_wait(queued)?;
                self.place_floor = Instant::now();
                self.ring.reap(&mut self.cqes);
            }
            let cqes = std::mem::take(&mut self.cqes);
            let mut r = Ok(());
            for c in &cqes {
                r = self.on_cqe(c);
                self.place_floor = Instant::now();
                if r.is_err() {
                    break;
                }
            }
            self.cqes = cqes;
            r?;
            self.drain_starved()?;
            self.submit_queued()?;
            self.deliver_mailboxes();
            Ok(())
        }

        /// Ring-fatal failure in daemon mode: every session dies with
        /// it.
        fn fail_all(&mut self, e: io::Error) {
            let sids: Vec<u32> = self.sessions.keys().copied().collect();
            for sid in sids {
                self.sess_fail(sid, perr(format!("shared uring driver failed: {e}")));
                self.begin_detach(sid);
            }
            self.fatal = Some(e);
        }

        /// Drain until no kernel op targets the slot buffers, provided
        /// buffers, or wake buffer — must run (after the sockets are
        /// shut down) before any of them can be freed.
        fn quiesce(&mut self) {
            self.stopping = true;
            if let Some(w) = &self.wake {
                let _ = w.stream.shutdown(Shutdown::Both);
            }
            let _ = self.submit_queued();
            loop {
                let inflight: u32 = self.sessions.values().map(|s| s.inflight).sum();
                if inflight == 0 && !self.wake_armed {
                    return;
                }
                if self.ring.wait(None).is_err() {
                    return; // ring is gone; nothing more to drain
                }
                self.cqes.clear();
                self.ring.reap(&mut self.cqes);
                let cqes = std::mem::take(&mut self.cqes);
                for c in &cqes {
                    if c.user_data == UD_WAKE {
                        self.wake_armed = false;
                        continue;
                    }
                    if c.user_data == UD_NOP {
                        continue;
                    }
                    if c.flags & IORING_CQE_F_MORE != 0 {
                        continue; // non-terminal: the op is still armed
                    }
                    let sid = (c.user_data >> 32) as u32;
                    if let Some(sess) = self.sessions.get_mut(&sid) {
                        sess.inflight = sess.inflight.saturating_sub(1);
                    }
                }
                self.cqes = cqes;
            }
        }
    }
    /// Smallest 4K-aligned provided-buffer length that holds one whole
    /// wire frame (frame header + payload header + block), so a
    /// saturated link's multishot completion covers a full block and
    /// CQEs/block stays ~1.
    fn pbuf_len(block_size: usize) -> usize {
        (DATA_FRAME_HEADER_LEN + PAYLOAD_HEADER_LEN + block_size + 4095) & !4095
    }

    /// Provided buffers a sink ring posts. A worst-case burst (every
    /// buffer completing at once, plus re-arms) stays well inside the CQ
    /// (2×[`RING_ENTRIES`]).
    const PBUF_COUNT: u32 = 32;

    /// Fallback: cap on a session's concurrently-armed payload reads, so
    /// each socket→slot copy stays cache-adjacent to its verify instead
    /// of a burst of sibling copies evicting the block first.
    const PLACE_CAP: u32 = 1;

    /// How a sink ring receives. The kernel probe decides; nothing the
    /// user sets does. Tests build their own to reach the header-first
    /// fallback and a starved buffer ring on a kernel that has multishot.
    #[derive(Clone, Copy)]
    struct RecvPlan {
        /// Multishot receive into provided buffers (vs header-first
        /// `READ_FIXED`).
        multishot: bool,
        pbufs: u32,
    }

    impl RecvPlan {
        /// `Unsupported` when the kernel cannot run the backend at all.
        fn probed() -> io::Result<RecvPlan> {
            Ok(RecvPlan {
                multishot: probe()?,
                pbufs: PBUF_COUNT,
            })
        }
    }

    /// A sink's ring: created *on the calling thread* (`SINGLE_ISSUER`
    /// pins submission to the creator), `bufs` registered as its
    /// fixed-buffer table once, and — under a multishot plan — the
    /// provided-buffer ring posted, each buffer holding one
    /// `block_size` frame.
    fn sink_ring(
        plan: RecvPlan,
        bufs: &[&Mutex<SlotBuf>],
        block_size: usize,
    ) -> io::Result<(Ring, Option<PbufRing>)> {
        let ring = transfer_ring(true)?;
        ring.register_pool(bufs)?;
        let pbuf = plan
            .multishot
            .then(|| PbufRing::new(&ring, plan.pbufs, pbuf_len(block_size)))
            .transpose()?;
        Ok((ring, pbuf))
    }

    /// One accepted source connection set, ready for [`run_uring_sink`]
    /// — the uring counterpart of [`NetListener::accept_session`].
    pub struct UringSinkSession {
        streams: SessionStreams,
    }

    /// Accept one source's connection set for the io_uring sink and
    /// read the opening `SessionRequest` so the caller can size its
    /// half, mirroring [`NetListener::accept_session`]. Fails with
    /// `Unsupported` before accepting anything if the kernel cannot run
    /// the backend.
    pub fn accept_source_uring(
        listener: &NetListener,
        sockbuf: usize,
    ) -> io::Result<(UringSinkSession, CtrlMsg)> {
        probe()?;
        let mut streams = listener.accept_streams(sockbuf)?;
        // Bounded like `accept_session`: a silent post-hello peer is a
        // timeout error, not a parked sink.
        streams
            .ctrl
            .set_read_timeout(Some(crate::net::HELLO_TIMEOUT))?;
        let first = crate::net::read_one_ctrl_frame(&mut streams.ctrl)?;
        streams.ctrl.set_read_timeout(None)?;
        Ok((UringSinkSession { streams }, first))
    }

    /// Run the sink half over one io_uring: the protocol brain is the
    /// same [`SinkSession`] and handler as the TCP sink,
    /// but placement, control reads, and the ack/credit dwell all ride
    /// the ring on **one** thread — no per-channel receivers, no
    /// control pump.
    pub fn run_uring_sink(
        cfg: &LiveConfig,
        session: UringSinkSession,
        first_ctrl: Option<CtrlMsg>,
    ) -> io::Result<LiveReport> {
        run_uring_sink_with(cfg, session, first_ctrl, RecvPlan::probed()?)
    }

    /// [`run_uring_sink`] under an explicit [`RecvPlan`]: a one-session
    /// [`MultiDriver`] in pump mode over the sink's own pool.
    fn run_uring_sink_with(
        cfg: &LiveConfig,
        session: UringSinkSession,
        first_ctrl: Option<CtrlMsg>,
        plan: RecvPlan,
    ) -> io::Result<LiveReport> {
        let snk_bufs = BlockPool::new(cfg.pool_blocks, cfg.block_size);
        let snk_bufs: Vec<&Mutex<SlotBuf>> = snk_bufs.iter().collect();
        let SessionStreams {
            ctrl,
            data,
            token: _,
        } = session.streams;
        assert_eq!(data.len(), cfg.channels, "one data link per channel");
        assert!(cfg.channels as u32 + 2 <= RING_ENTRIES);
        // Pinning the pool and faulting in the provided buffers is
        // set-up, like allocating the pool: it happens before the
        // session's clock starts.
        let (ring, pbuf) = sink_ring(plan, &snk_bufs, cfg.block_size)?;
        let ctrl_tx = NetCtrlTx(Mutex::new(ctrl.try_clone()?));

        let sess = SinkSession::open(cfg, snk_bufs.len())?;
        let mut h = sess.handler(&ctrl_tx, &snk_bufs, None);
        let mut drv = MultiDriver::new(&ring, &snk_bufs, plan.multishot, pbuf);
        // Pump mode: one session, identity lease (the pool *is* the
        // registered table), no mailbox — `pump` feeds the handler
        // directly on this thread.
        let entry = Sess::new(
            plan.multishot,
            sess.front.clone(),
            (0..cfg.pool_blocks).collect(),
            ctrl,
            data,
            None,
        );
        let run = drv
            .add_session(0, entry)
            .and_then(|()| h.run(first_ctrl, &mut |w, out| drv.pump(0, w, out)));
        // A closed pump is the echo; the driver knows the cause.
        let run = run.map_err(|e| drv.take_err(0).unwrap_or(e));
        // Quiesce before the slot buffers, provided buffers, or ring
        // can be freed: shut every link (the transfer is over either
        // way — the final acks are already flushed and ride out ahead
        // of the FIN), then drain the in-flight reads the shutdown
        // completes.
        drv.begin_detach(0);
        drv.quiesce();
        let ring_stats = drv.stats_snapshot();
        let tally = drv.sessions.remove(&0).map(|s| s.tally);
        drop(drv);
        drop(ring);
        run?;
        // The whole data path — all N links, placement, control, and
        // the dwell — is this one driver thread.
        sess.finish(h, tally.unwrap_or_default(), 1, Some(ring_stats))
    }

    // -----------------------------------------------------------------
    // Shared daemon driver: one ring, one thread, every session
    // -----------------------------------------------------------------

    enum HubMsg {
        /// Adopt an admitted session under this id.
        Register(u32, Box<Sess>),
        Detach(u32),
        Stop,
    }

    /// Session threads' handle to the daemon's one shared driver
    /// thread. Every message is paired with a byte on the wake socket,
    /// whose armed `READ` turns it into a CQE — so a driver blocked in
    /// `GETEVENTS` notices registrations and detaches immediately.
    pub(crate) struct UringHub {
        tx: std::sync::mpsc::Sender<HubMsg>,
        wake: Mutex<UnixStream>,
        next_sid: AtomicU32,
        /// Whether the shared ring runs multishot receive (vs the
        /// `READ_FIXED` fallback).
        ms: bool,
    }

    impl UringHub {
        fn send(&self, msg: HubMsg) -> io::Result<()> {
            self.tx
                .send(msg)
                .map_err(|_| perr("shared uring driver is gone"))?;
            use io::Write;
            // A failed wake write means the driver already tore the
            // socket down on its way out; the message error above (or
            // the stats channel) reports that.
            let _ = self.wake.lock().write(&[1u8]);
            Ok(())
        }

        /// Ask the driver to exit once every session has detached.
        pub(crate) fn stop(&self) {
            let _ = self.send(HubMsg::Stop);
        }
    }

    impl<'a> MultiDriver<'a> {
        /// Adopt a registered session: reject (via its stats channel)
        /// if its links cannot fit the ring alongside the sessions
        /// already armed, else insert and arm.
        fn add_daemon_session(&mut self, sid: u32, sess: Sess) -> io::Result<()> {
            // Worst-case concurrently-armed ops: every session's links
            // + control, the newcomer's, and the wake read. The CQ is
            // 2x the SQ, so fitting the SQ bounds completions too.
            let armed: usize = self
                .sessions
                .values()
                .map(|s| s.links.len() + 1)
                .sum::<usize>()
                + 1;
            if armed + sess.links.len() + 1 > RING_ENTRIES as usize {
                if let Some(tx) = &sess.stats_tx {
                    let _ = tx.send(SessionStats {
                        tally: PlaceTally::default(),
                        err: Some(perr("shared uring driver is at link capacity")),
                        ring: self.stats_snapshot(),
                    });
                }
                return Ok(());
            }
            self.add_session(sid, sess)
        }
    }

    /// The daemon's one data-path thread: owns the shared ring over the
    /// whole arena (registered as fixed buffers **once**), then loops
    /// adopting/detaching sessions and retiring completions until told
    /// to stop.
    fn driver_main(
        plan: RecvPlan,
        slots: &[Mutex<SlotBuf>],
        slot_cap: usize,
        rx: std::sync::mpsc::Receiver<HubMsg>,
        wake_r: UnixStream,
        init_tx: std::sync::mpsc::SyncSender<io::Result<()>>,
    ) -> UringStats {
        let view: Vec<&Mutex<SlotBuf>> = slots.iter().collect();
        let (ring, pbuf) = match sink_ring(plan, &view, slot_cap) {
            Ok(v) => {
                let _ = init_tx.send(Ok(()));
                v
            }
            Err(e) => {
                let _ = init_tx.send(Err(e));
                return UringStats::default();
            }
        };
        let mut drv = MultiDriver::new(&ring, &view, plan.multishot, pbuf);
        drv.wake = Some(WakeLink {
            stream: wake_r,
            buf: Box::new([0u8; 64]),
        });
        let run = (|| -> io::Result<()> {
            drv.arm_wake()?;
            drv.submit_queued()?;
            let mut stop = false;
            loop {
                loop {
                    match rx.try_recv() {
                        Ok(HubMsg::Register(sid, sess)) => drv.add_daemon_session(sid, *sess)?,
                        Ok(HubMsg::Detach(sid)) => drv.begin_detach(sid),
                        Ok(HubMsg::Stop) => stop = true,
                        Err(std::sync::mpsc::TryRecvError::Empty) => break,
                        Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                            stop = true;
                            break;
                        }
                    }
                }
                drv.finalize_sessions();
                if stop && drv.sessions.is_empty() {
                    return Ok(());
                }
                drv.daemon_tick()?;
            }
        })();
        if let Err(e) = run {
            drv.fail_all(e);
        }
        // Drain every kernel op targeting the arena, the provided
        // buffers, or the wake buffer before any can be freed, then
        // complete outstanding detach handshakes.
        drv.quiesce();
        drv.finalize_sessions();
        drv.stats_snapshot()
    }

    /// Spawn the daemon's shared uring driver over the whole arena
    /// (`slots`, every buffer sized `slot_cap`). Fails with
    /// `Unsupported` when the kernel cannot run the ring backend, and
    /// with the driver's own error when ring setup / registration /
    /// pbuf posting fails — nothing is leaked either way.
    pub(crate) fn spawn_shared_uring_driver<'scope, 'env>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        slots: &'env [Mutex<SlotBuf>],
        slot_cap: usize,
    ) -> io::Result<(
        Arc<UringHub>,
        std::thread::ScopedJoinHandle<'scope, UringStats>,
    )> {
        let plan = RecvPlan::probed()?;
        let (tx, rx) = std::sync::mpsc::channel::<HubMsg>();
        let (wake_w, wake_r) = UnixStream::pair()?;
        let (init_tx, init_rx) = std::sync::mpsc::sync_channel::<io::Result<()>>(1);
        let handle = scope.spawn(move || driver_main(plan, slots, slot_cap, rx, wake_r, init_tx));
        let init = init_rx
            .recv()
            .unwrap_or_else(|_| Err(perr("uring driver thread died during init")));
        if let Err(e) = init {
            let _ = handle.join();
            // Pinning the arena is what fails in practice (ENOMEM under
            // a small RLIMIT_MEMLOCK), so say what to turn.
            return Err(io::Error::new(
                e.kind(),
                format!(
                    "shared uring driver start-up over {} slots: {e} \
                     (shrink --slots or raise RLIMIT_MEMLOCK)",
                    slots.len()
                ),
            ));
        }
        Ok((
            Arc::new(UringHub {
                tx,
                wake: Mutex::new(wake_w),
                next_sid: AtomicU32::new(0),
                ms: plan.multishot,
            }),
            handle,
        ))
    }

    /// Run one admitted daemon session's *handler half* against the
    /// shared driver: register the session's sockets with the hub, then
    /// drive the same [`SinkSession`] and handler as every other sink
    /// over a mailbox the driver fills. Admission does
    /// **not** touch buffer registration — the arena was registered
    /// once at daemon startup, and the lease maps this session's wire
    /// slots onto those stable fixed-buffer indices.
    pub(crate) fn run_shared_uring_session(
        cfg: &LiveConfig,
        streams: SessionStreams,
        first_ctrl: Option<CtrlMsg>,
        snk_bufs: &[&Mutex<SlotBuf>],
        lease: &[u32],
        hub: &UringHub,
        fair: FairShare<'_>,
    ) -> io::Result<LiveReport> {
        let sess = SinkSession::open(cfg, snk_bufs.len())?;
        assert_eq!(lease.len(), snk_bufs.len(), "lease covers the pool");
        let SessionStreams {
            ctrl,
            data,
            token: _,
        } = streams;
        assert_eq!(data.len(), cfg.channels, "one data link per channel");

        // The driver gets its own socket clones (it cuts them on a
        // driver-side failure); this thread keeps the originals for the
        // handler's control writes and its own teardown.
        let drv_data = data
            .iter()
            .map(TcpStream::try_clone)
            .collect::<io::Result<Vec<_>>>()?;
        let ctrl_tx = NetCtrlTx(Mutex::new(ctrl.try_clone()?));
        let (evt_tx, evt_rx) = crossbeam::channel::bounded::<SinkEvt>(1024);
        let (stats_tx, stats_rx) = std::sync::mpsc::sync_channel::<SessionStats>(1);
        let entry = Sess::new(
            hub.ms,
            sess.front.clone(),
            lease.to_vec(),
            ctrl.try_clone()?,
            drv_data,
            Some((evt_tx, stats_tx)),
        );
        let sid = hub.next_sid.fetch_add(1, Ordering::Relaxed);

        let mut h = sess.handler(&ctrl_tx, snk_bufs, fair);
        // Register before answering the hello: the opening grants go
        // out only after the driver can be armed, so no data races the
        // first receive.
        let run = hub
            .send(HubMsg::Register(sid, Box::new(entry)))
            .and_then(|()| h.run(first_ctrl, &mut channel_events(&evt_rx, 64)));

        // Detach handshake: cut our socket halves (the final acks are
        // already flushed and ride out ahead of the FIN), then wait for
        // the driver to drain its in-flight ops and hand back the
        // session's stats. Only after that may the caller release the
        // arena lease — no kernel op can target the leased slots.
        let _ = ctrl.shutdown(Shutdown::Both);
        shutdown_all(&data, Shutdown::Both);
        let _ = hub.send(HubMsg::Detach(sid));
        let stats = stats_rx.recv().unwrap_or_else(|_| SessionStats {
            tally: PlaceTally::default(),
            err: Some(perr("uring driver exited before detach")),
            ring: UringStats {
                multishot: hub.ms,
                ..Default::default()
            },
        });
        if let Err(e) = run {
            // The driver-side error is the root cause when both halves
            // failed (a closed mailbox surfaces here only as "pipeline
            // stopped").
            return Err(stats.err.unwrap_or(e));
        }
        // The data path lives on the daemon's ONE shared driver thread;
        // this session thread only runs the protocol brain.
        sess.finish(h, stats.tally, 1, Some(stats.ring))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// The raw ABI structs must match uapi/linux/io_uring.h exactly
        /// — a silent size drift corrupts the rings.
        #[test]
        fn abi_struct_sizes_match_kernel() {
            assert_eq!(std::mem::size_of::<IoUringParams>(), 120);
            assert_eq!(std::mem::size_of::<Sqe>(), 64);
            assert_eq!(std::mem::size_of::<Cqe>(), 16);
            assert_eq!(std::mem::size_of::<SqringOffsets>(), 40);
            assert_eq!(std::mem::size_of::<CqringOffsets>(), 40);
            // struct io_uring_buf / io_uring_buf_reg
            assert_eq!(std::mem::size_of::<PbufEntry>(), 16);
            assert_eq!(std::mem::size_of::<PbufReg>(), 40);
        }

        /// The capability probe must never panic, whatever the kernel.
        #[test]
        fn probe_is_total() {
            let _ = uring_supported();
        }

        /// One uring↔uring loopback transfer under `plan` (`None`: what
        /// the probe picks); `src_cfg` is the source's copy of the
        /// geometry, where a test sets its faults and its source file.
        /// `None` when the kernel cannot run the backend — or the plan.
        fn loopback(
            cfg: &LiveConfig,
            src_cfg: LiveConfig,
            plan: Option<RecvPlan>,
        ) -> Option<(LiveReport, LiveReport)> {
            let Ok(probed) = RecvPlan::probed() else {
                eprintln!("skipping: io_uring not supported by this kernel");
                return None;
            };
            let plan = plan.unwrap_or(probed);
            if plan.multishot && !probed.multishot {
                eprintln!("skipping: multishot receive unavailable");
                return None;
            }
            let listener = NetListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let sockbuf = crate::net::default_sockbuf(cfg.block_size, cfg.channel_depth);
            let src = std::thread::spawn(move || {
                let t = connect_source_uring(addr, src_cfg.channels, sockbuf)?;
                crate::split::run_split_source(&src_cfg, t)
            });
            let (sess, first) = accept_source_uring(&listener, sockbuf).unwrap();
            let snk = run_uring_sink_with(cfg, sess, Some(first), plan).unwrap();
            let src = src.join().unwrap().unwrap();
            assert_eq!(snk.blocks, cfg.total_blocks());
            assert_eq!(snk.checksum_failures, 0, "output must be byte-identical");
            assert_eq!(
                snk.transport_threads, 1,
                "sink data path must be one thread"
            );
            assert_eq!(src.transport_threads, 1, "source adds one reaper thread");
            Some((src, snk))
        }

        /// The header-first fallback, forced on a kernel that *has*
        /// multishot: pre-6.0 kernels run nothing else.
        const HEADER_FIRST: RecvPlan = RecvPlan {
            multishot: false,
            pbufs: 0,
        };

        /// Full uring↔uring loopback transfer: pattern data, checksum
        /// verified at the sink, one driver thread per side.
        #[test]
        fn uring_pattern_transfer_loopback() {
            let cfg = LiveConfig::new(64 * 1024, 4, 8 << 20);
            let Some((_, snk)) = loopback(&cfg, cfg.clone(), None) else {
                return;
            };
            assert!(
                snk.ctrl_msgs_per_block <= 1.0,
                "control plane not coalesced: {:.2}/blk",
                snk.ctrl_msgs_per_block
            );
        }

        /// Provided-buffer-ring exhaustion: with a single provided
        /// buffer over four concurrent links, multishot receives must
        /// park on `ENOBUFS` and recover on recycle — no lost and no
        /// double-placed block, byte-identical output — even while the
        /// fault injector forces drops and retransmits.
        #[test]
        fn pbuf_exhaustion_parks_and_recovers() {
            let cfg = LiveConfig::new(64 * 1024, 4, 8 << 20);
            let mut src_cfg = cfg.clone();
            src_cfg.fault_drop_p = 0.2;
            let starved = RecvPlan {
                multishot: true,
                pbufs: 1,
            };
            let Some((src, snk)) = loopback(&cfg, src_cfg, Some(starved)) else {
                return;
            };
            assert!(src.retransmits > 0, "fault injector must have fired");
            let stats = snk.uring.expect("uring report carries ring stats");
            assert!(stats.multishot);
            assert!(
                stats.pbuf_exhausted > 0,
                "a 1-buffer ring over 4 links must run dry: {stats:?}"
            );
            assert!(
                stats.multishot_rearms >= stats.pbuf_exhausted,
                "every parked link re-arms: {stats:?}"
            );
        }

        /// Header-first pattern transfer: a header read and a payload
        /// read per block, so ≈ 2 CQEs where multishot spends ≈ 1.
        #[test]
        fn header_first_pattern_transfer() {
            let cfg = LiveConfig::new(64 * 1024, 4, 8 << 20);
            let Some((_, snk)) = loopback(&cfg, cfg.clone(), Some(HEADER_FIRST)) else {
                return;
            };
            let stats = snk.uring.expect("uring report carries ring stats");
            assert!(!stats.multishot, "{stats:?}");
            assert_eq!((stats.multishot_rearms, stats.pbuf_exhausted), (0, 0));
            let per_block = stats.cqes as f64 / snk.blocks as f64;
            assert!(
                (2.0..3.0).contains(&per_block),
                "header + payload per block: {per_block:.2} CQEs/blk"
            );
        }

        /// Header-first file → file: `READ_FIXED` into the slot is the
        /// placement, the write-behind lands every block at its offset,
        /// and a ragged tail survives.
        #[test]
        fn header_first_file_to_file_is_byte_identical() {
            let dir = std::env::temp_dir();
            let tag = format!("rftp-uring-fx-{}", std::process::id());
            let (src_path, dst_path) = (dir.join(format!("{tag}.src")), dir.join(tag + ".dst"));
            let bytes: Vec<u8> = (0..(2u32 << 20) + 777)
                .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
                .collect();
            std::fs::write(&src_path, &bytes).unwrap();
            let mut cfg = LiveConfig::new(64 * 1024, 2, bytes.len() as u64);
            let mut src_cfg = cfg.clone();
            src_cfg.src_file = Some(src_path.clone());
            cfg.dst_file = Some(dst_path.clone());
            let ran = loopback(&cfg, src_cfg, Some(HEADER_FIRST));
            let landed = std::fs::read(&dst_path);
            let _ = std::fs::remove_file(&src_path);
            let _ = std::fs::remove_file(&dst_path);
            let Some((_, snk)) = ran else { return };
            assert!(!snk.uring.expect("ring stats").multishot);
            assert!(landed.unwrap() == bytes, "destination differs from source");
        }

        /// Header-first under loss, with a deadline far inside the ack
        /// dwell so healthy blocks are re-sent too: every re-send of a
        /// block already placed must be read off the socket and dropped
        /// (the `FxDiscard` arm), never placed twice.
        #[test]
        fn header_first_drops_recover_exactly_once() {
            let cfg = LiveConfig::new(64 * 1024, 4, 8 << 20);
            let mut src_cfg = cfg.clone();
            src_cfg.fault_drop_p = 0.2;
            src_cfg.retx_timeout = Duration::from_micros(100);
            let Some((src, snk)) = loopback(&cfg, src_cfg, Some(HEADER_FIRST)) else {
                return;
            };
            assert!(!snk.uring.expect("ring stats").multishot);
            assert!(src.dropped_payloads > 0, "fault injector must have fired");
            assert!(snk.duplicate_payloads > 0, "no re-send raced its ack");
            // (Not equality: a re-send still queued when the last ack
            // lands is never read.)
            assert!(
                snk.duplicate_payloads <= src.retransmits - src.dropped_payloads,
                "a re-send replaces a lost frame or is discarded: {} re-sends, {} drops, {} duplicates",
                src.retransmits,
                src.dropped_payloads,
                snk.duplicate_payloads
            );
        }
    }
}

/// Portable stubs: the backend is Linux-only; every other platform
/// reports "unsupported" and the callers fall back to TCP.
#[cfg(not(target_os = "linux"))]
mod stub {
    use crate::net::NetListener;
    use crate::pipeline::{LiveConfig, LiveReport};
    use crate::transport::SourceTransport;
    use rftp_core::wire::CtrlMsg;
    use std::io;
    use std::net::ToSocketAddrs;

    /// Placeholder session handle; never constructible off-Linux.
    pub struct UringSinkSession(());

    pub fn uring_supported() -> bool {
        false
    }

    pub fn uring_multishot() -> bool {
        false
    }

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "io_uring transport requires Linux",
        ))
    }

    pub fn connect_source_uring(
        _addr: impl ToSocketAddrs,
        _channels: usize,
        _sockbuf: usize,
    ) -> io::Result<SourceTransport> {
        unsupported()
    }

    pub fn accept_source_uring(
        _listener: &NetListener,
        _sockbuf: usize,
    ) -> io::Result<(UringSinkSession, CtrlMsg)> {
        unsupported()
    }

    pub fn run_uring_sink(
        _cfg: &LiveConfig,
        _session: UringSinkSession,
        _first_ctrl: Option<CtrlMsg>,
    ) -> io::Result<LiveReport> {
        unsupported()
    }

    /// Placeholder hub handle; never constructible off-Linux.
    pub(crate) struct UringHub(());

    impl UringHub {
        pub(crate) fn stop(&self) {}
    }

    pub(crate) fn spawn_shared_uring_driver<'scope, 'env>(
        _scope: &'scope std::thread::Scope<'scope, 'env>,
        _slots: &'env [parking_lot::Mutex<crate::store::SlotBuf>],
        _slot_cap: usize,
    ) -> io::Result<(
        std::sync::Arc<UringHub>,
        std::thread::ScopedJoinHandle<'scope, crate::transport::UringStats>,
    )> {
        unsupported()
    }

    pub(crate) fn run_shared_uring_session(
        _cfg: &LiveConfig,
        _streams: crate::net::SessionStreams,
        _first_ctrl: Option<CtrlMsg>,
        _snk_bufs: &[&parking_lot::Mutex<crate::store::SlotBuf>],
        _lease: &[u32],
        _hub: &UringHub,
        _fair: crate::split::FairShare<'_>,
    ) -> io::Result<LiveReport> {
        unsupported()
    }
}

#[cfg(not(target_os = "linux"))]
pub use stub::{
    accept_source_uring, connect_source_uring, run_uring_sink, uring_multishot, uring_supported,
    UringSinkSession,
};
#[cfg(not(target_os = "linux"))]
pub(crate) use stub::{run_shared_uring_session, spawn_shared_uring_driver, UringHub};
