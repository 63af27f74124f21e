//! The raw io_uring ABI (uapi/linux/io_uring.h): flag and opcode
//! constants and the `repr(C)` structs the kernel shares. The calls
//! themselves are [`crate::sys`]'s.

pub(super) const IORING_OFF_SQ_RING: i64 = 0;
pub(super) const IORING_OFF_CQ_RING: i64 = 0x800_0000;
pub(super) const IORING_OFF_SQES: i64 = 0x1000_0000;

/// Don't interrupt the ring owner signal-style to run completion
/// task-work; batch it onto the next kernel transition (5.19+).
pub(super) const IORING_SETUP_COOP_TASKRUN: u32 = 1 << 8;
pub(super) const IORING_SETUP_SINGLE_ISSUER: u32 = 1 << 12;
/// Run completion task-work only inside `GETEVENTS` enters — the
/// strictest batching; requires `SINGLE_ISSUER` (6.1+).
pub(super) const IORING_SETUP_DEFER_TASKRUN: u32 = 1 << 13;

pub(super) const IORING_ENTER_GETEVENTS: u32 = 1 << 0;
pub(super) const IORING_ENTER_EXT_ARG: u32 = 1 << 3;

pub(super) const IORING_FEAT_SINGLE_MMAP: u32 = 1 << 0;
pub(super) const IORING_FEAT_EXT_ARG: u32 = 1 << 8;

pub(super) const IORING_REGISTER_BUFFERS: u32 = 0;
pub(super) const IORING_REGISTER_PROBE: u32 = 8;

pub(super) const IORING_OP_NOP: u8 = 0;
pub(super) const IORING_OP_READ_FIXED: u8 = 4;
pub(super) const IORING_OP_WRITE_FIXED: u8 = 5;
pub(super) const IORING_OP_READ: u8 = 22;
pub(super) const IORING_OP_WRITE: u8 = 23;

pub(super) const ETIME: i32 = 62;
/// The kernel can drop a poll-armed socket op with `-ECANCELED`
/// without transferring any bytes (poll races on busy streams).
/// Such ops are resubmitted verbatim, not treated as link failure.
pub(super) const ECANCELED: i32 = 125;

#[repr(C)]
#[derive(Clone, Copy, Default)]
pub(super) struct SqringOffsets {
    pub(super) head: u32,
    pub(super) tail: u32,
    pub(super) ring_mask: u32,
    pub(super) ring_entries: u32,
    pub(super) flags: u32,
    pub(super) dropped: u32,
    pub(super) array: u32,
    pub(super) resv1: u32,
    pub(super) user_addr: u64,
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
pub(super) struct CqringOffsets {
    pub(super) head: u32,
    pub(super) tail: u32,
    pub(super) ring_mask: u32,
    pub(super) ring_entries: u32,
    pub(super) overflow: u32,
    pub(super) cqes: u32,
    pub(super) flags: u32,
    pub(super) resv1: u32,
    pub(super) user_addr: u64,
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
pub(crate) struct IoUringParams {
    pub(super) sq_entries: u32,
    pub(super) cq_entries: u32,
    pub(super) flags: u32,
    pub(super) sq_thread_cpu: u32,
    pub(super) sq_thread_idle: u32,
    pub(super) features: u32,
    pub(super) wq_fd: u32,
    pub(super) resv: [u32; 3],
    pub(super) sq_off: SqringOffsets,
    pub(super) cq_off: CqringOffsets,
}

/// One 64-byte submission queue entry (the non-`SQE128` layout).
#[repr(C)]
#[derive(Clone, Copy, Default)]
pub(super) struct Sqe {
    pub(super) opcode: u8,
    pub(super) flags: u8,
    pub(super) ioprio: u16,
    pub(super) fd: i32,
    pub(super) off: u64,
    pub(super) addr: u64,
    pub(super) len: u32,
    pub(super) op_flags: u32,
    pub(super) user_data: u64,
    pub(super) buf_index: u16,
    pub(super) personality: u16,
    pub(super) splice_fd_in: i32,
    pub(super) addr3: u64,
    pub(super) _pad2: u64,
}

/// One 16-byte completion queue entry.
#[repr(C)]
#[derive(Clone, Copy, Default)]
pub(super) struct Cqe {
    pub(super) user_data: u64,
    pub(super) res: i32,
    pub(super) flags: u32,
}

#[repr(C)]
pub(super) struct IoVec {
    pub(super) base: *mut core::ffi::c_void,
    pub(super) len: usize,
}

/// `IORING_ENTER_EXT_ARG` payload: a timed `GETEVENTS` wait.
#[repr(C)]
pub(crate) struct GeteventsArg {
    pub(super) sigmask: u64,
    pub(super) sigmask_sz: u32,
    pub(super) pad: u32,
    pub(super) ts: u64,
}

#[repr(C)]
pub(super) struct Timespec {
    pub(super) tv_sec: i64,
    pub(super) tv_nsec: i64,
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
    }
}
