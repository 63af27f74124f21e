//! Every kernel call std does not wrap: one `extern "C"` block, and a
//! safe wrapper per call whose argument types vouch for every byte the
//! kernel touches — [`Mapping`] for `mmap` and `munmap`.
//! `io_uring_enter` and `io_uring_register` act on memory that the
//! ring's SQEs and registered buffers name, which no wrapper can vouch
//! for: their one owner, `uring::Ring`, calls `syscall` under its own
//! `SAFETY` argument.

use crate::uring::abi::IoUringParams;
use parking_lot::Mutex;
use std::ffi::{c_long, c_void, CStr};
use std::io::{self, IoSlice, IoSliceMut};
use std::os::fd::{FromRawFd, OwnedFd, RawFd};
use std::ptr::null_mut;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

extern "C" {
    pub(crate) fn syscall(num: c_long, ...) -> c_long;
    fn sendmsg(fd: i32, msg: *const MsgHdr, flags: i32) -> isize;
    fn recvmsg(fd: i32, msg: *mut MsgHdr, flags: i32) -> isize;
    fn lseek(fd: i32, offset: i64, whence: i32) -> i64;
    fn setsockopt(fd: i32, level: i32, name: i32, val: *const c_void, len: u32) -> i32;
    fn getsockopt(fd: i32, level: i32, name: i32, val: *mut c_void, len: *mut u32) -> i32;
    fn posix_fadvise(fd: i32, offset: i64, len: i64, advice: i32) -> i32;
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
    fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    fn sysconf(name: i32) -> c_long;
    fn signal(signum: i32, handler: usize) -> usize;
}

#[cfg(target_arch = "x86_64")]
const SYS_MEMFD_CREATE: c_long = 319;
#[cfg(target_arch = "aarch64")]
const SYS_MEMFD_CREATE: c_long = 279;
// The io_uring calls have one number on every architecture.
const SYS_IO_URING_SETUP: c_long = 425;
pub(crate) const SYS_IO_URING_ENTER: c_long = 426;
pub(crate) const SYS_IO_URING_REGISTER: c_long = 427;

/// A call's `-1` as the thread's `errno`; any other value as itself.
pub(crate) fn cvt<T: PartialEq + From<i8>>(r: T) -> io::Result<T> {
    if r == T::from(-1) {
        Err(io::Error::last_os_error())
    } else {
        Ok(r)
    }
}

/// `memfd_create(2)`: a new anonymous memory file, closed on exec.
pub(crate) fn memfd_create(name: &CStr) -> io::Result<OwnedFd> {
    const MFD_CLOEXEC: u32 = 1;
    // SAFETY: `name` is NUL-terminated and outlives the call.
    let fd = cvt(unsafe { syscall(SYS_MEMFD_CREATE, name.as_ptr(), MFD_CLOEXEC) })?;
    // SAFETY: the kernel just returned this fd, and nothing else owns it.
    Ok(unsafe { OwnedFd::from_raw_fd(fd as RawFd) })
}

/// `lseek(2)` to the end of `fd`: its size. Fails on an fd that has
/// none (a pipe, a socket) or is not open.
pub(crate) fn seek_end(fd: RawFd) -> io::Result<u64> {
    const SEEK_END: i32 = 2;
    // SAFETY: `lseek` reads and writes no memory.
    cvt(unsafe { lseek(fd, 0, SEEK_END) }).map(|n| n as u64)
}

/// 64-bit Linux `struct msghdr` — `repr(C)` field order matches the
/// kernel/glibc layout (natural alignment inserts the same padding
/// after `namelen` and `flags` as the C definition). `iov` is an array
/// of `IoSlice` or `IoSliceMut`, which std lays out as `struct iovec`.
#[repr(C)]
struct MsgHdr {
    name: *mut c_void,
    namelen: u32,
    iov: *mut c_void,
    iovlen: usize,
    control: *mut c_void,
    controllen: usize,
    flags: i32,
}

impl MsgHdr {
    fn new(iov: *mut c_void, iovlen: usize, control: *mut u8, controllen: usize) -> MsgHdr {
        let (name, namelen, control, flags) = (null_mut(), 0, control.cast(), 0);
        MsgHdr {
            name,
            namelen,
            iov,
            iovlen,
            control,
            controllen,
            flags,
        }
    }
}

/// `sendmsg(2)` of `data` with the encoded control messages `control`,
/// and no `SIGPIPE`: the bytes sent.
pub(crate) fn send_msg(fd: RawFd, data: &[IoSlice<'_>], control: &[u8]) -> io::Result<usize> {
    const MSG_NOSIGNAL: i32 = 0x4000;
    let iov = data.as_ptr().cast_mut().cast();
    let msg = MsgHdr::new(iov, data.len(), control.as_ptr().cast_mut(), control.len());
    // SAFETY: `msg` names `data`'s buffers and `control`, all alive for
    // the call, and the kernel only reads them.
    cvt(unsafe { sendmsg(fd, &msg, MSG_NOSIGNAL) }).map(|n| n as usize)
}

/// `recvmsg(2)` into `data`, with control messages into `control` and
/// any fd they carry closed on exec: the bytes read, and how many bytes
/// of `control` the kernel filled.
pub(crate) fn recv_msg(
    fd: RawFd,
    data: &mut [IoSliceMut<'_>],
    control: &mut [u8],
) -> io::Result<(usize, usize)> {
    const MSG_CMSG_CLOEXEC: i32 = 0x4000_0000;
    let iov = data.as_mut_ptr().cast();
    let mut msg = MsgHdr::new(iov, data.len(), control.as_mut_ptr(), control.len());
    // SAFETY: `msg` names `data`'s buffers and `control`, all borrowed
    // exclusively for the call, and the kernel writes no more than the
    // lengths it is given.
    let n = cvt(unsafe { recvmsg(fd, &mut msg, MSG_CMSG_CLOEXEC) })?;
    Ok((n as usize, msg.controllen))
}

/// `setsockopt(2)` of an `int` option.
pub(crate) fn set_sockopt(fd: RawFd, level: i32, name: i32, val: i32) -> io::Result<()> {
    let len = std::mem::size_of::<i32>() as u32;
    // SAFETY: the kernel reads `len` bytes from the live local `val`.
    cvt(unsafe { setsockopt(fd, level, name, (&raw const val).cast(), len) }).map(drop)
}

/// `getsockopt(2)` of an `int` option.
pub(crate) fn get_sockopt(fd: RawFd, level: i32, name: i32) -> io::Result<i32> {
    let (mut val, mut len) = (0i32, std::mem::size_of::<i32>() as u32);
    // SAFETY: `val` and `len` are live locals, and `len` tells the
    // kernel `val`'s size.
    cvt(unsafe { getsockopt(fd, level, name, (&raw mut val).cast(), &mut len) })?;
    Ok(val)
}

/// `posix_fadvise(2)`: `fd` is read front to back.
pub(crate) fn fadvise_sequential(fd: RawFd) -> io::Result<()> {
    const POSIX_FADV_SEQUENTIAL: i32 = 2;
    // SAFETY: `posix_fadvise` reads and writes no memory.
    match unsafe { posix_fadvise(fd, 0, 0, POSIX_FADV_SEQUENTIAL) } {
        0 => Ok(()),
        e => Err(io::Error::from_raw_os_error(e)),
    }
}

/// A read+write mapping, unmapped on drop — the one owner of mapped
/// memory in this crate, and so of `mmap(2)` and `munmap(2)`: anonymous
/// and private for a `BlockPool`, shared over a memfd for an shm session
/// window, shared and populated over an io_uring fd for a ring's queues.
/// The raw pointer is shared across threads (`Send + Sync`): the pool
/// hands each slot to one owner at a time behind its mutex, the shm
/// window publishes through per-slot atomics, the ring through the
/// kernel's head and tail words.
pub(crate) struct Mapping {
    base: *mut u8,
    len: usize,
}

// SAFETY: `base`/`len` never change after construction and name memory
// this value alone unmaps; what is stored *in* the mapping is
// synchronised by its users (see the type's doc).
unsafe impl Send for Mapping {}
// SAFETY: as for `Send`; `&Mapping` hands out addresses, never access.
unsafe impl Sync for Mapping {}

impl Mapping {
    const MAP_SHARED: i32 = 0x01;

    /// Map `len` bytes read+write: of `fd` from offset 0, shared, or —
    /// with no fd — fresh anonymous private memory, which the kernel
    /// zero-fills a page at a time on first touch.
    pub(crate) fn map(len: usize, fd: Option<RawFd>) -> io::Result<Mapping> {
        const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;
        match fd {
            Some(fd) => Mapping::mmap(len, Self::MAP_SHARED, fd, 0),
            None => Mapping::mmap(len, MAP_PRIVATE_ANONYMOUS, -1, 0),
        }
    }

    /// Map `len` bytes of a kernel object's `fd` (an io_uring's queues)
    /// at `offset`, shared, every page populated up front.
    pub(crate) fn map_kernel(fd: RawFd, len: usize, offset: i64) -> io::Result<Mapping> {
        const MAP_POPULATE: i32 = 0x8000;
        Mapping::mmap(len, Self::MAP_SHARED | MAP_POPULATE, fd, offset)
    }

    /// A failed map is a typed error, never a raw `MAP_FAILED` pointer
    /// escaping.
    fn mmap(len: usize, flags: i32, fd: RawFd, offset: i64) -> io::Result<Mapping> {
        const PROT_READ_WRITE: i32 = 1 | 2;
        // SAFETY: a null hint lets the kernel choose the address, so no
        // existing mapping is replaced; the result is checked below.
        let p = unsafe { mmap(null_mut(), len, PROT_READ_WRITE, flags, fd, offset) };
        if p as isize == -1 || p.is_null() {
            let e = io::Error::last_os_error();
            return Err(io::Error::new(
                e.kind(),
                format!("mmap of {len} bytes failed: {e}"),
            ));
        }
        let base = p.cast();
        Ok(Mapping { base, len })
    }

    pub(crate) fn base(&self) -> *mut u8 {
        self.base
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The address `off` bytes into the mapping, which must lie inside
    /// it.
    pub(crate) fn at(&self, off: usize) -> *mut u8 {
        assert!(
            off < self.len,
            "offset {off} outside a {}-byte mapping",
            self.len
        );
        self.base.wrapping_add(off)
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: `base..base+len` is exactly what `map` mapped, and no
        // view of it outlives `self` (a `BlockPool` drops its slots
        // first; the shm windows keep their mapping beside their views).
        unsafe { munmap(self.base.cast(), self.len) };
    }
}

/// `madvise(2)` with `MADV_DONTNEED` over `buf`, which must be whole
/// pages: the kernel takes them back, and in private anonymous memory
/// they read as zeros from then on.
pub(crate) fn discard(buf: &mut [u8]) -> io::Result<()> {
    const MADV_DONTNEED: i32 = 4;
    const SC_PAGESIZE: i32 = 30;
    // SAFETY: `sysconf` reads and writes no memory.
    let page = cvt(unsafe { sysconf(SC_PAGESIZE) })? as usize;
    if !(buf.as_ptr() as usize).is_multiple_of(page) || !buf.len().is_multiple_of(page) {
        return Err(io::ErrorKind::InvalidInput.into());
    }
    // SAFETY: `buf` is whole pages (checked above, since the kernel
    // would round a partial one up), borrowed exclusively by this call;
    // `MADV_DONTNEED` unmaps nothing, it only changes what they read as.
    cvt(unsafe { madvise(buf.as_mut_ptr().cast(), buf.len(), MADV_DONTNEED) }).map(drop)
}

/// The flag SIGTERM raises, once [`raise_on_sigterm`] installed one.
static SIGTERM_FLAG: Mutex<Option<Arc<AtomicBool>>> = Mutex::new(None);

extern "C" fn on_sigterm(_sig: i32) {
    // A `try_lock` never blocks, so this is async-signal-safe. A SIGTERM
    // that finds the lock held (an install in progress) is lost; the
    // operator's next one lands.
    if let Some(Some(flag)) = SIGTERM_FLAG.try_lock().as_deref() {
        flag.store(true, Ordering::Release);
    }
}

/// `signal(2)`: from now on SIGTERM raises `flag` — the last one
/// installed — instead of killing the process. glibc's `signal` keeps
/// the handler and restarts interrupted calls.
pub(crate) fn raise_on_sigterm(flag: Arc<AtomicBool>) {
    const SIGTERM: i32 = 15;
    *SIGTERM_FLAG.lock() = Some(flag);
    // SAFETY: `on_sigterm` has the C handler signature and touches only
    // a lock it never blocks on and an atomic.
    unsafe { signal(SIGTERM, on_sigterm as extern "C" fn(i32) as usize) };
}

/// `io_uring_setup(2)`: a new ring's fd; the kernel writes the ring's
/// geometry into `p`.
pub(crate) fn io_uring_setup(entries: u32, p: &mut IoUringParams) -> io::Result<OwnedFd> {
    // SAFETY: `p` is a live `io_uring_params`, borrowed exclusively, and
    // all the kernel reads and writes.
    let fd = cvt(unsafe { syscall(SYS_IO_URING_SETUP, entries as usize, &raw mut *p) })?;
    // SAFETY: the kernel just returned this fd, and nothing else owns it.
    Ok(unsafe { OwnedFd::from_raw_fd(fd as RawFd) })
}
