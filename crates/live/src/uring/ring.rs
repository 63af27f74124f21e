//! One ring: [`Ring`] (setup, submit, wait, reap, fixed-buffer
//! registration), the provided-buffer ring behind multishot receive, and
//! the once-per-process capability probe.

use super::source::OWNED_BUF;
use super::sys::{self, *};
use crate::split::perr;
use crate::store::SlotBuf;
use parking_lot::Mutex;
use std::io;
use std::net::Shutdown;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::sync::atomic::{AtomicU16, AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// One io_uring instance: fd, mapped rings, and raw pointers into
/// them. SQ production must be externally serialized (the source
/// holds its submit lock; the sink driver is single-threaded); CQ
/// consumption is single-consumer (reaper thread / sink driver).
/// Kernel-shared indices are accessed as atomics.
///
/// The mappings are unmapped on drop — owners must quiesce first
/// (no in-flight operations), or the kernel could complete an op
/// into memory the allocator has already reused.
pub(super) struct Ring {
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
    /// `io_uring_enter` calls made ([`crate::UringStats::enters`]).
    pub(super) enters: AtomicU64,
    /// `IORING_REGISTER_BUFFERS` calls on this ring.
    pub(super) registers: AtomicU64,
    /// CQEs reaped ([`crate::UringStats::cqes`]).
    pub(super) reaped: AtomicU64,
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
        let cq_len = p.cq_off.cqes as usize + p.cq_entries as usize * std::mem::size_of::<Cqe>();
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
    pub(super) fn sq_push(&self, sqe: &Sqe) -> bool {
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
    pub(super) fn submit(&self, queued: u32) -> io::Result<()> {
        let mut left = queued;
        while left > 0 {
            left -= self.enter(left, 0, 0, std::ptr::null(), 0)?;
        }
        Ok(())
    }

    pub(super) fn cq_ready(&self) -> u32 {
        unsafe {
            (*self.cq_ktail)
                .load(Ordering::Acquire)
                .wrapping_sub((*self.cq_khead).load(Ordering::Relaxed))
        }
    }

    /// Block until at least one CQE is available. `Ok(false)` means
    /// the `timeout` (an `EXT_ARG` timed wait) expired first.
    pub(super) fn wait(&self, timeout: Option<Duration>) -> io::Result<bool> {
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
    pub(super) fn submit_and_wait(&self, queued: u32) -> io::Result<()> {
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
    pub(super) fn reap(&self, out: &mut Vec<Cqe>) -> usize {
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
    pub(super) fn register_pool(&self, bufs: &[&Mutex<SlotBuf>]) -> io::Result<()> {
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

/// The one buffer group every data link shares. Demultiplexing is by
/// `user_data` (session/link), not by group — the group only says
/// where the bytes landed.
pub(super) const PBUF_BGID: u16 = 0;
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
pub(super) struct PbufRing {
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
    pub(super) fn new(ring: &Ring, count: u32, buf_len: usize) -> io::Result<PbufRing> {
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
    pub(super) fn recycle(&mut self, bid: u16) {
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

    pub(super) fn buf(&self, bid: u16) -> &[u8] {
        &self.bufs[bid as usize]
    }
}

impl Drop for PbufRing {
    fn drop(&mut self) {
        unsafe { std::alloc::dealloc(self.ring, self.layout) };
    }
}

/// SQ depth for transfer rings: far above the in-flight ceiling of
/// either side (one write per channel at the source, one read per
/// link at the sink), so the only submit path is the batched kick.
pub(super) const RING_ENTRIES: u32 = 256;

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
pub(super) fn probe() -> io::Result<bool> {
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
pub(super) fn transfer_ring(single_issuer: bool) -> io::Result<Ring> {
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
