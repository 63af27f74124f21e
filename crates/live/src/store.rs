//! Real-file storage backends for the live pipeline.
//!
//! This is the pipeline's first contact with the kernel I/O path: an
//! aligned block reader feeding the loader threads (the paper's
//! `Loading` state overlapping disk with the network) and a write-behind
//! sink that `pwrite`s blocks at `seq * block_size` the moment their
//! placement bit is claimed. Sparse positioned writes *are* the
//! reassembly — no reorder buffer ever holds payload, the file's address
//! space does — with one batched `fdatasync` at dataset completion.
//!
//! Direct I/O (`O_DIRECT`) is supported where the filesystem allows it,
//! with a transparent buffered fallback (tmpfs, for one, rejects
//! `O_DIRECT`): every open tries the direct flag first when asked, and a
//! buffered handle always exists for the cases direct I/O cannot express
//! (unaligned tail blocks, unaligned offsets). Buffered sources are
//! advised `POSIX_FADV_SEQUENTIAL` so kernel read-ahead works with the
//! pipeline's own block read-ahead rather than against it.
//!
//! `O_DIRECT` demands 4 KiB-aligned buffers, offsets, and lengths, so
//! block buffers are [`SlotBuf`]s: one aligned region per slot, laid out
//! so the *payload* (not the wire header) sits on the alignment
//! boundary. The wire view — header immediately followed by payload —
//! is unchanged; the header simply ends where the aligned payload
//! begins. An endpoint's slots come from one [`BlockPool`]: a single
//! demand-paged mapping, so building a pool touches no payload page.

use crate::sys::Mapping;
use parking_lot::Mutex;
use rftp_core::wire::PAYLOAD_HEADER_LEN;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::fd::AsRawFd;
use std::os::unix::fs::{FileExt, OpenOptionsExt};
use std::path::Path;
use std::sync::Arc;

/// Alignment for direct I/O: buffer addresses, file offsets, and request
/// lengths are all multiples of this (the ubiquitous 4 KiB logical block).
pub const STORE_ALIGN: usize = 4096;

// `O_DIRECT` is not in std; its value is architecture-specific.
#[cfg(any(target_arch = "aarch64", target_arch = "arm"))]
const O_DIRECT: i32 = 0o200000;
#[cfg(not(any(target_arch = "aarch64", target_arch = "arm")))]
const O_DIRECT: i32 = 0o40000;

/// Try to open `path` with `O_DIRECT` in the given mode; `None` when the
/// filesystem refuses (the caller falls back to its buffered handle).
fn open_direct(path: &Path, write: bool) -> Option<File> {
    OpenOptions::new()
        .read(!write)
        .write(write)
        .custom_flags(O_DIRECT)
        .open(path)
        .ok()
}

fn direct_ok(buf_ptr: *const u8, len: usize, offset: u64) -> bool {
    (buf_ptr as usize).is_multiple_of(STORE_ALIGN)
        && len.is_multiple_of(STORE_ALIGN)
        && offset.is_multiple_of(STORE_ALIGN as u64)
}

/// One pool slot's buffer: a single aligned allocation holding the wire
/// image (payload header + payload), laid out so the payload begins on a
/// [`STORE_ALIGN`] boundary. Dereferences to the wire byte slice —
/// `buf[0..PAYLOAD_HEADER_LEN]` is the header, `buf[PAYLOAD_HEADER_LEN..]`
/// the (alignment-padded) payload region — so pipeline code indexes it
/// exactly like the plain boxed slices it replaces, while the storage
/// layer gets `O_DIRECT`-legal payload addresses for free.
pub struct SlotBuf {
    ptr: std::ptr::NonNull<u8>,
    layout: std::alloc::Layout,
    len: usize,
    /// Whether this slot owns its allocation. `false` for external
    /// (mapped) slots: the memory belongs to a shared window whose
    /// lifetime outlives the slot, and Drop must not free it.
    owned: bool,
}

// SAFETY: a slot's memory is reached only through the slot, so moving
// the slot moves all access to it; the raw pointer is only a consequence
// of manual aligned allocation.
unsafe impl Send for SlotBuf {}
// SAFETY: `&SlotBuf` reads the memory and writes nothing.
unsafe impl Sync for SlotBuf {}

impl SlotBuf {
    /// Allocate a zeroed slot for `block_size` payload bytes. The usable
    /// payload region is `block_size` rounded up to [`STORE_ALIGN`], so
    /// an aligned-length direct read of a short tail block has room.
    pub fn new(block_size: usize) -> SlotBuf {
        assert!(block_size > 0);
        let padded = block_size.next_multiple_of(STORE_ALIGN);
        let layout = std::alloc::Layout::from_size_align(STORE_ALIGN + padded, STORE_ALIGN)
            .expect("slot layout");
        // SAFETY: `layout` is non-zero in size.
        let raw = unsafe { std::alloc::alloc_zeroed(layout) };
        let ptr = std::ptr::NonNull::new(raw).unwrap_or_else(|| {
            std::alloc::handle_alloc_error(layout);
        });
        SlotBuf {
            ptr,
            layout,
            len: PAYLOAD_HEADER_LEN + padded,
            owned: true,
        }
    }

    /// Total allocation bytes a slot for `block_size` occupies —
    /// [`STORE_ALIGN`] of dead space (frame prefix + header region)
    /// followed by the payload padded to the next [`STORE_ALIGN`]
    /// multiple. The stride of a packed slot window.
    pub fn stride(block_size: usize) -> usize {
        STORE_ALIGN + block_size.next_multiple_of(STORE_ALIGN)
    }

    /// View `stride(block_size)` bytes of mapped memory at `base` as a
    /// slot; Drop leaves the memory to its mapping. [`slot_views`] is
    /// the one caller.
    ///
    /// # Safety
    /// `base` is [`STORE_ALIGN`]-aligned, valid for `stride(block_size)`
    /// bytes while the view is used, and shared with no other view.
    unsafe fn external(base: *mut u8, block_size: usize) -> SlotBuf {
        assert!(block_size > 0);
        assert!((base as usize).is_multiple_of(STORE_ALIGN));
        let padded = block_size.next_multiple_of(STORE_ALIGN);
        let layout = std::alloc::Layout::from_size_align(STORE_ALIGN + padded, STORE_ALIGN)
            .expect("slot layout");
        SlotBuf {
            ptr: std::ptr::NonNull::new(base).expect("external slot base"),
            layout,
            len: PAYLOAD_HEADER_LEN + padded,
            owned: false,
        }
    }

    /// Base pointer and total byte length of the allocation, for
    /// registering the whole slot (dead space included) as a fixed
    /// buffer with a kernel ring. The registration must cover the
    /// frame region returned by [`SlotBuf::framed_mut`].
    pub(crate) fn registration_parts(&self) -> (*mut u8, usize) {
        (self.ptr.as_ptr(), self.layout.size())
    }

    /// Mutable view starting `frame_len` bytes *before* the wire slice,
    /// spanning the frame prefix plus the full wire image. Lets a
    /// transport prepend a `frame_len`-byte link header in the slot's
    /// dead space so header + payload go out as one contiguous write
    /// from the registered buffer.
    pub(crate) fn framed_mut(&mut self, frame_len: usize) -> &mut [u8] {
        assert!(frame_len <= STORE_ALIGN - PAYLOAD_HEADER_LEN);
        // SAFETY: the span starts inside the slot's leading STORE_ALIGN
        // bytes (asserted) and ends where the wire image does, inside the
        // `layout`-sized memory `ptr` names; `&mut self` makes it the one
        // view for its life.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.ptr
                    .as_ptr()
                    .add(STORE_ALIGN - PAYLOAD_HEADER_LEN - frame_len),
                frame_len + self.len,
            )
        }
    }
}

impl Drop for SlotBuf {
    fn drop(&mut self) {
        if self.owned {
            // SAFETY: `new` allocated `ptr` with `layout`, and nothing
            // else frees it.
            unsafe { std::alloc::dealloc(self.ptr.as_ptr(), self.layout) };
        }
    }
}

impl std::ops::Deref for SlotBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // SAFETY: the wire image starts PAYLOAD_HEADER_LEN bytes before
        // the aligned payload boundary at STORE_ALIGN and is `len` bytes
        // long, inside the slot's memory, borrowed for `&self`.
        unsafe {
            std::slice::from_raw_parts(
                self.ptr.as_ptr().add(STORE_ALIGN - PAYLOAD_HEADER_LEN),
                self.len,
            )
        }
    }
}

impl std::ops::DerefMut for SlotBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.framed_mut(0)
    }
}

impl std::fmt::Debug for SlotBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SlotBuf({} bytes aligned {})", self.len, STORE_ALIGN)
    }
}

/// The `Mutex<SlotBuf>` views of the first `n` slots for `block_size`
/// payload bytes laid over `map`, slot `i` at `i × SlotBuf::stride`:
/// page-aligned, disjoint, and backed by `map` alone.
///
/// # Safety
///
/// `map` must stay mapped while any returned view is used.
pub(crate) unsafe fn slot_views(map: &Mapping, n: usize, block_size: usize) -> Vec<Mutex<SlotBuf>> {
    let stride = SlotBuf::stride(block_size);
    assert!(n.checked_mul(stride).is_some_and(|len| len <= map.len()));
    (0..n)
        // SAFETY: slot `i` is bytes `i·stride .. (i+1)·stride` of `map`
        // (asserted above) — disjoint from every other view, page-aligned
        // because the base and the stride are — and the caller keeps
        // `map` mapped while the views are used.
        .map(|i| Mutex::new(unsafe { SlotBuf::external(map.at(i * stride), block_size) }))
        .collect()
}

/// One endpoint's block pool — the source's pinned blocks, a sink's
/// credited slots, the daemon's arena: `slots` buffers, each a
/// [`SlotBuf`] for `block_size` payload bytes, indexable as a slice.
///
/// The pool is one anonymous private mapping of
/// `slots × SlotBuf::stride(block_size)` bytes and the slots are views
/// into it. `alloc_zeroed` at [`STORE_ALIGN`] alignment is served as
/// `posix_memalign` plus an explicit `memset`, which writes every page
/// of a BDP-sized pool before the session handshake can finish; a fresh
/// mapping reads as zeros just the same, but the kernel supplies each
/// page on first touch — when a loader fills it or a socket copy lands
/// in it. A mapping is page-aligned and the stride a page multiple, so
/// every payload stays `O_DIRECT`- and fixed-buffer-legal; dropping the
/// pool is one `munmap`.
pub struct BlockPool {
    slots: Vec<Mutex<SlotBuf>>,
    // Declared after the views into it: fields drop in order.
    _map: Arc<Mapping>,
}

impl BlockPool {
    pub fn new(slots: u32, block_size: usize) -> BlockPool {
        assert!(slots > 0);
        let len = SlotBuf::stride(block_size)
            .checked_mul(slots as usize)
            .expect("pool size overflows");
        // Like a failed allocation, a refused mapping is not a condition
        // a transfer can run through.
        let map = Mapping::map(len, None).unwrap_or_else(|e| panic!("block pool: {e}"));
        BlockPool::over(Arc::new(map), slots, block_size)
    }

    /// The pool laid over `map`, which another owner may share — a
    /// window whose source view loads into these very slots.
    pub(crate) fn over(map: Arc<Mapping>, slots: u32, block_size: usize) -> BlockPool {
        // SAFETY: `_map` is declared after `slots`, so this pool's hold
        // on the mapping ends only after every view has dropped.
        let slots = unsafe { slot_views(&map, slots as usize, block_size) };
        BlockPool { slots, _map: map }
    }

    /// Hand slot `i`'s pages back to the kernel once nothing will write
    /// the slot again — a source's block acked after its last load — so
    /// they are freed while a transfer's last acks are still on their
    /// way instead of when the pool drops. The slot stays mapped: a late
    /// read (a re-send queued behind its block's ack) sees zeros, and
    /// the sink discards that frame unread as a duplicate.
    pub(crate) fn release(&self, i: usize) {
        let mut slot = self.slots[i].lock();
        // The whole slot, dead space included. Best effort: a slot that
        // keeps its pages only costs memory.
        let _ = crate::sys::discard(slot.framed_mut(STORE_ALIGN - PAYLOAD_HEADER_LEN));
    }
}

impl std::ops::Deref for BlockPool {
    type Target = [Mutex<SlotBuf>];
    fn deref(&self) -> &[Mutex<SlotBuf>] {
        &self.slots
    }
}

/// Global token-bucket pacer emulating a storage device's service rate:
/// each request reserves the next slot on a single modeled device
/// timeline (lock-free CAS) and sleeps until the device would have
/// delivered its bytes. This is how a [`rftp_core::StoreConfig`] rate
/// preset applies to the live pipeline when the backing store (tmpfs,
/// page cache) is faster than the device being modeled — and it gives
/// the read-ahead benchmarks a deterministic service time where a
/// host-cached virtual disk gives none.
#[derive(Debug)]
pub struct RatePacer {
    bytes_per_sec: f64,
    start: std::time::Instant,
    /// Nanoseconds since `start` at which the modeled device frees up.
    next_ns: std::sync::atomic::AtomicU64,
}

impl RatePacer {
    pub fn new(bytes_per_sec: f64) -> RatePacer {
        assert!(bytes_per_sec > 0.0);
        RatePacer {
            bytes_per_sec,
            start: std::time::Instant::now(),
            next_ns: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Account `len` delivered bytes; blocks until the modeled device
    /// would have finished delivering them. Concurrent callers serialize
    /// on the device timeline, not on each other — the reservation is a
    /// single CAS, and the wait is a plain sleep that releases the core
    /// to the rest of the pipeline (that release *is* the overlap
    /// read-ahead buys).
    pub fn pace(&self, len: usize) {
        use std::sync::atomic::Ordering;
        let cost = (len as f64 * 1e9 / self.bytes_per_sec) as u64;
        let mut prev = self.next_ns.load(Ordering::Acquire);
        let slot_end = loop {
            let now = self.start.elapsed().as_nanos() as u64;
            let end = prev.max(now) + cost;
            match self
                .next_ns
                .compare_exchange_weak(prev, end, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break end,
                Err(p) => prev = p,
            }
        };
        let now = self.start.elapsed().as_nanos() as u64;
        if slot_end > now {
            std::thread::sleep(std::time::Duration::from_nanos(slot_end - now));
        }
    }
}

/// The aligned block reader: source file of a file-to-file transfer.
/// Loader threads call [`FileSource::read_block`] concurrently
/// (positioned reads share the handle without a seek cursor).
#[derive(Debug)]
pub struct FileSource {
    buffered: File,
    direct: Option<File>,
    len: u64,
}

impl FileSource {
    /// Open `path`; with `want_direct`, additionally try an `O_DIRECT`
    /// handle, falling back silently where the filesystem refuses.
    pub fn open(path: &Path, want_direct: bool) -> io::Result<FileSource> {
        let buffered = File::open(path)?;
        let len = buffered.metadata()?.len();
        let direct = if want_direct {
            open_direct(path, false)
        } else {
            None
        };
        if direct.is_none() {
            // Stream front to back: kernel read-ahead then works with the
            // loaders' own. Advice only, so a refusal changes nothing.
            let _ = crate::sys::fadvise_sequential(buffered.as_raw_fd());
        }
        Ok(FileSource {
            buffered,
            direct,
            len,
        })
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether reads actually go through `O_DIRECT`.
    pub fn direct_active(&self) -> bool {
        self.direct.is_some()
    }

    /// Read exactly `len` bytes at `offset` into `buf[..len]`. `buf` may
    /// be longer than `len` (a [`SlotBuf`] payload region): the direct
    /// path issues one aligned-length request into it and lets the tail
    /// of a short final block come back short.
    pub fn read_block(&self, buf: &mut [u8], len: usize, offset: u64) -> io::Result<()> {
        assert!(buf.len() >= len);
        if let Some(direct) = &self.direct {
            let want = len.next_multiple_of(STORE_ALIGN);
            if want <= buf.len() && direct_ok(buf.as_ptr(), want, offset) {
                let n = direct.read_at(&mut buf[..want], offset)?;
                if n >= len {
                    return Ok(());
                }
                // Short direct read (EOF mid-request or an impatient
                // kernel): finish through the buffered handle, which has
                // no alignment constraints on the remainder.
                return self
                    .buffered
                    .read_exact_at(&mut buf[n..len], offset + n as u64);
            }
        }
        self.buffered.read_exact_at(&mut buf[..len], offset)
    }
}

/// The write-behind sink: destination file of a transfer. Pre-sized at
/// creation so out-of-order positioned writes land in a file of the
/// final length — sparse placement is the reassembly. Receiver threads
/// call [`FileSink::write_block`] concurrently; nothing is durable until
/// [`FileSink::sync`] (the batched `fdatasync` at dataset completion).
#[derive(Debug)]
pub struct FileSink {
    buffered: File,
    direct: Option<File>,
}

impl FileSink {
    /// Create (or truncate) `path` and pre-size it to `total_bytes`.
    pub fn create(path: &Path, total_bytes: u64, want_direct: bool) -> io::Result<FileSink> {
        let buffered = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        buffered.set_len(total_bytes)?;
        let direct = if want_direct {
            open_direct(path, true)
        } else {
            None
        };
        Ok(FileSink { buffered, direct })
    }

    /// Whether full-block writes actually go through `O_DIRECT`.
    pub fn direct_active(&self) -> bool {
        self.direct.is_some()
    }

    /// Write `payload` at `offset`. Full aligned blocks take the direct
    /// handle when available; unaligned tails (or unaligned block sizes)
    /// take the buffered handle — `O_DIRECT` cannot express them.
    pub fn write_block(&self, payload: &[u8], offset: u64) -> io::Result<()> {
        if let Some(direct) = &self.direct {
            if direct_ok(payload.as_ptr(), payload.len(), offset) {
                return direct.write_all_at(payload, offset);
            }
        }
        self.buffered.write_all_at(payload, offset)
    }

    /// The dataset-completion `fdatasync`: one syscall for the whole
    /// transfer instead of one per block (write-behind's other half).
    pub fn sync(&self) -> io::Result<()> {
        self.buffered.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rftp_core::wire::PAYLOAD_HEADER_LEN as HDR;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir();
        dir.join(format!("rftp_store_{}_{name}", std::process::id()))
    }

    #[test]
    fn slot_buf_payload_is_aligned() {
        for bs in [512usize, 4096, 65536, 65536 + 1000] {
            let buf = SlotBuf::new(bs);
            assert_eq!(buf.len(), HDR + bs.next_multiple_of(STORE_ALIGN));
            let payload_ptr = buf[HDR..].as_ptr() as usize;
            assert_eq!(payload_ptr % STORE_ALIGN, 0, "payload must be aligned");
            assert!(buf.iter().all(|&b| b == 0), "fresh slots are zeroed");
        }
    }

    #[test]
    fn slot_buf_is_writable_through_deref() {
        let mut buf = SlotBuf::new(8192);
        buf[0] = 0xAB;
        buf[HDR] = 0xCD;
        let last = buf.len() - 1;
        buf[last] = 0xEF;
        assert_eq!((buf[0], buf[HDR], buf[last]), (0xAB, 0xCD, 0xEF));
    }

    /// Bytes of `map` the kernel currently backs with a page.
    fn resident_bytes(map: &Mapping) -> usize {
        extern "C" {
            fn mincore(addr: *mut core::ffi::c_void, len: usize, vec: *mut u8) -> i32;
        }
        let mut pages = vec![0u8; map.len().div_ceil(STORE_ALIGN)];
        // SAFETY: `pages` holds one byte per page of the live mapping.
        let rc = unsafe { mincore(map.base().cast(), map.len(), pages.as_mut_ptr()) };
        assert_eq!(rc, 0, "mincore: {}", io::Error::last_os_error());
        pages.iter().filter(|&&p| p & 1 == 1).count() * STORE_ALIGN
    }

    /// A 256 MiB pool costs address space, not memory, until blocks
    /// land in it — and then only the slots that were written.
    /// (Counted on the pool's own pages: `VmRSS` would also see what the
    /// tests running beside this one allocate.)
    #[test]
    fn block_pool_is_paged_in_by_use_not_by_construction() {
        let (slots, bs) = (1024usize, 256 * 1024);
        let pool = BlockPool::new(slots as u32, bs);
        assert_eq!(pool.len(), slots);
        assert_eq!(
            resident_bytes(&pool._map),
            0,
            "construction touched the pool"
        );

        // Reading a never-written slot sees zeros.
        assert!(pool[slots - 1].lock().iter().all(|&b| b == 0));
        for i in [0, 7, 500] {
            pool[i].lock()[HDR..HDR + bs].fill(0xA5);
        }
        let resident = resident_bytes(&pool._map);
        // Well under the pool even where transparent huge pages round
        // each touch up to 2 MiB.
        assert!(
            resident >= 3 * bs && resident < slots * bs / 8,
            "three written slots and one read one left {resident} bytes resident"
        );
        assert!(pool[7].lock()[HDR..HDR + bs].iter().all(|&b| b == 0xA5));
        assert!(
            pool[8].lock().iter().all(|&b| b == 0),
            "neighbour untouched"
        );

        // A released slot gives its pages back and reads as zeros again;
        // its neighbours keep theirs.
        let resident = resident_bytes(&pool._map);
        pool.release(7);
        assert!(
            resident_bytes(&pool._map) <= resident - bs,
            "slot 7 still resident"
        );
        assert!(pool[7].lock().iter().all(|&b| b == 0));
        assert!(pool[500].lock()[HDR..HDR + bs].iter().all(|&b| b == 0xA5));
    }

    /// Every slot is a view into the one mapping — aligned payload,
    /// registration span inside the mapping and clear of its neighbours,
    /// nothing for a slot to free on its own — so the pool's drop is the
    /// mapping's single `munmap`.
    #[test]
    fn block_pool_slots_tile_one_mapping() {
        for bs in [512usize, 4096, 65536 + 1000] {
            let pool = BlockPool::new(5, bs);
            let stride = SlotBuf::stride(bs);
            assert_eq!(pool._map.len(), 5 * stride);
            for (i, slot) in pool.iter().enumerate() {
                let slot = slot.lock();
                assert!(!slot.owned, "slot {i} would free mapped memory");
                assert_eq!(slot.len(), HDR + bs.next_multiple_of(STORE_ALIGN));
                assert_eq!(slot[HDR..].as_ptr() as usize % STORE_ALIGN, 0);
                let (base, len) = slot.registration_parts();
                assert_eq!(base, pool._map.at(i * stride));
                assert_eq!(len, stride);
            }
        }
    }

    #[test]
    fn file_round_trip_with_unaligned_tail() {
        let path = tmp("roundtrip");
        let total = 3 * 4096 + 777u64; // unaligned tail
        let data: Vec<u8> = (0..total).map(|i| (i * 7 % 251) as u8).collect();

        let sink = FileSink::create(&path, total, true).expect("create");
        // Write out of order: tail first.
        sink.write_block(&data[3 * 4096..], 3 * 4096).unwrap();
        sink.write_block(&data[..4096], 0).unwrap();
        sink.write_block(&data[4096..3 * 4096], 4096).unwrap();
        sink.sync().unwrap();
        drop(sink);

        let src = FileSource::open(&path, true).expect("open");
        assert_eq!(src.len(), total);
        let mut buf = SlotBuf::new(4096);
        let mut got = Vec::new();
        for (seq, chunk) in data.chunks(4096).enumerate() {
            src.read_block(&mut buf[HDR..], chunk.len(), seq as u64 * 4096)
                .unwrap();
            got.extend_from_slice(&buf[HDR..HDR + chunk.len()]);
        }
        assert_eq!(got, data, "bytes must survive the round trip");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pacer_enforces_the_modeled_rate() {
        // 64 MB/s device, 8 x 64 KiB requests = 512 KiB -> >= 8 ms.
        let pacer = RatePacer::new(64.0 * 1024.0 * 1024.0);
        let t0 = std::time::Instant::now();
        for _ in 0..8 {
            pacer.pace(64 * 1024);
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= std::time::Duration::from_millis(7),
            "pacer let 512 KiB through a 64 MB/s device in {elapsed:?}"
        );
    }

    #[test]
    fn direct_falls_back_where_unsupported() {
        // tmpfs (and many CI filesystems) reject O_DIRECT; the handles
        // must degrade to buffered I/O and still move correct bytes.
        let path = tmp("fallback");
        let sink = FileSink::create(&path, 4096, true).expect("create");
        let mut buf = SlotBuf::new(4096);
        buf[HDR..HDR + 4096].copy_from_slice(&[0x5A; 4096]);
        sink.write_block(&buf[HDR..HDR + 4096], 0).unwrap();
        sink.sync().unwrap();
        drop(sink);
        let back = std::fs::read(&path).unwrap();
        assert_eq!(back, vec![0x5A; 4096]);
        std::fs::remove_file(&path).ok();
    }
}
