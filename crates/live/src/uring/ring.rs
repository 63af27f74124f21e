//! One ring: [`Ring`] (setup, submit, wait, reap, fixed-buffer
//! registration) and the once-per-process capability probe.

use super::source::OWNED_BUF;
use super::sys::{self, *};
use crate::split::perr;
use crate::store::SlotBuf;
use parking_lot::Mutex;
use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
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

    /// Whether the kernel supports every opcode in `ops`
    /// (`IORING_REGISTER_PROBE`).
    fn ops_supported(&self, ops: &[u8]) -> io::Result<bool> {
        const NOPS: usize = 64;
        // struct io_uring_probe: 16-byte header + 8 bytes per op.
        let mut raw = [0u8; 16 + NOPS * 8];
        self.register(
            IORING_REGISTER_PROBE,
            raw.as_mut_ptr() as *const core::ffi::c_void,
            NOPS as u32,
        )?;
        let last_op = raw[0] as usize;
        Ok(ops.iter().all(|&op| {
            let op = op as usize;
            const IO_URING_OP_SUPPORTED: u8 = 1;
            op <= last_op && op < NOPS && raw[16 + op * 8 + 2] & IO_URING_OP_SUPPORTED != 0
        }))
    }
}

/// SQ depth for transfer rings: far above the in-flight ceiling of
/// either side (one write per channel at the source, one read per
/// link at the sink), so the only submit path is the batched kick.
pub(super) const RING_ENTRIES: u32 = 256;

/// The capability probe itself: `Ok` when ring setup, `EXT_ARG` timed
/// waits, the fixed-buffer opcodes and fixed-buffer registration all
/// work (5.11+), or why the backend cannot run. Builds a throw-away
/// ring, so callers go through [`probe`], which runs it once.
fn ring_caps() -> io::Result<()> {
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
    if !ring.ops_supported(&need)? {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "kernel io_uring lacks fixed-buffer read/write opcodes",
        ));
    }
    // Fixed-buffer registration must actually work (memlock limits
    // can forbid it even when the opcodes exist).
    let probe_buf = Mutex::new(SlotBuf::new(4096));
    ring.register_pool(&[&probe_buf])
}

/// [`ring_caps`], computed once per process: the kernel does not
/// change under a running program, and a source connect or a daemon
/// admission has no business building probe rings. (`io::Error` is
/// not `Clone`; its kind and text are.)
pub(super) fn probe() -> io::Result<()> {
    static PROBE: OnceLock<Result<(), (io::ErrorKind, String)>> = OnceLock::new();
    PROBE
        .get_or_init(|| ring_caps().map_err(|e| (e.kind(), e.to_string())))
        .clone()
        .map_err(|(kind, msg)| io::Error::new(kind, msg))
}

/// Whether this kernel can run the io_uring backend: ring setup,
/// `EXT_ARG` timed waits, fixed-buffer registration, and the
/// fixed-buffer read/write opcodes all probe healthy.
pub fn uring_supported() -> bool {
    probe().is_ok()
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
