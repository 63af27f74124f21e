//! Registered memory regions.
//!
//! RDMA requires all buffers touched by the NIC to be *registered*:
//! pinned, mapped, and given local/remote keys. Registration is expensive
//! (per-page pinning), which is why the paper's middleware pre-registers
//! a buffer pool and reuses regions across transfers; the cost model here
//! lets the MR-reuse ablation quantify that choice.
//!
//! A region's backing is either **real bytes** (used by correctness tests,
//! which checksum end-to-end) or **virtual** (length-only, used by large
//! bandwidth experiments where simulating 20 GB of memcpy would dominate
//! wall time without affecting any reported metric).

use crate::ids::{MrId, Rkey};

/// Backing store of a memory region.
#[derive(Debug, Clone)]
pub enum Backing {
    /// Actual bytes: data written by SEND/WRITE is observable.
    Real(Vec<u8>),
    /// Length-only: transfers are accounted but carry no bytes.
    Virtual(u64),
}

impl Backing {
    /// Allocate a zeroed real backing of `len` bytes.
    pub fn zeroed(len: usize) -> Backing {
        Backing::Real(vec![0; len])
    }

    pub fn len(&self) -> u64 {
        match self {
            Backing::Real(v) => v.len() as u64,
            Backing::Virtual(n) => *n,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn is_real(&self) -> bool {
        matches!(self, Backing::Real(_))
    }
}

/// A registered memory region on one host.
#[derive(Debug)]
pub struct MemoryRegion {
    id: MrId,
    rkey: Rkey,
    backing: Backing,
    /// Regions are invalidated (not freed) on deregistration so stale
    /// rkeys fault like real hardware.
    valid: bool,
}

/// Slice of a *local* MR referenced by a work request (what an SGE holds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MrSlice {
    pub mr: MrId,
    pub offset: u64,
    pub len: u64,
}

impl MrSlice {
    pub fn new(mr: MrId, offset: u64, len: u64) -> MrSlice {
        MrSlice { mr, offset, len }
    }

    /// The whole of `mr`, given its length.
    pub fn whole(mr: MrId, len: u64) -> MrSlice {
        MrSlice { mr, offset: 0, len }
    }
}

/// Slice of a *remote* MR targeted by RDMA WRITE/READ: the (rkey, offset)
/// pair the sink advertises as a credit in the paper's protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteSlice {
    pub rkey: Rkey,
    pub offset: u64,
}

/// Why an MR access faulted. Mirrors `IBV_WC_REM_ACCESS_ERR` and friends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MrError {
    UnknownRegion,
    StaleKey,
    OutOfBounds { offset: u64, len: u64, region: u64 },
}

impl MemoryRegion {
    pub(crate) fn new(id: MrId, nonce: u32, backing: Backing) -> MemoryRegion {
        MemoryRegion {
            id,
            rkey: Rkey::new(id, nonce),
            backing,
            valid: true,
        }
    }

    pub fn id(&self) -> MrId {
        self.id
    }

    pub fn rkey(&self) -> Rkey {
        self.rkey
    }

    pub fn len(&self) -> u64 {
        self.backing.len()
    }

    pub fn is_empty(&self) -> bool {
        self.backing.is_empty()
    }

    pub fn is_valid(&self) -> bool {
        self.valid
    }

    pub(crate) fn invalidate(&mut self) {
        self.valid = false;
    }

    /// 4 KiB pages covered — the unit of registration (pinning) cost.
    pub fn pages(&self) -> u64 {
        self.backing.len().div_ceil(4096).max(1)
    }

    fn check(&self, key: Option<Rkey>, offset: u64, len: u64) -> Result<(), MrError> {
        if !self.valid {
            return Err(MrError::StaleKey);
        }
        if let Some(k) = key {
            if k != self.rkey {
                return Err(MrError::StaleKey);
            }
        }
        if offset.checked_add(len).is_none_or(|end| end > self.len()) {
            return Err(MrError::OutOfBounds {
                offset,
                len,
                region: self.len(),
            });
        }
        Ok(())
    }

    /// Validate a local access.
    pub fn check_local(&self, offset: u64, len: u64) -> Result<(), MrError> {
        self.check(None, offset, len)
    }

    /// Validate a remote access with the presented rkey.
    pub fn check_remote(&self, key: Rkey, offset: u64, len: u64) -> Result<(), MrError> {
        self.check(Some(key), offset, len)
    }

    /// Read bytes out (empty for virtual backing).
    pub fn bytes(&self, offset: u64, len: u64) -> &[u8] {
        match &self.backing {
            Backing::Real(v) => &v[offset as usize..(offset + len) as usize],
            Backing::Virtual(_) => &[],
        }
    }

    /// Write into the region (no-op for virtual backing; data is dropped
    /// but the transfer is still fully accounted).
    pub fn write_bytes(&mut self, offset: u64, data: &[u8]) {
        if let Backing::Real(v) = &mut self.backing {
            v[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        }
    }

    /// Fill a range with a deterministic pattern (test data generator).
    /// The pattern depends only on `(seed, index-within-range)`, so a
    /// receiver can recompute it without knowing where in the sender's
    /// region the data lived. Word-at-a-time; see [`crate::pattern`].
    pub fn fill_pattern(&mut self, offset: u64, len: u64, seed: u64) {
        if let Backing::Real(v) = &mut self.backing {
            crate::pattern::fill_pattern(&mut v[offset as usize..(offset + len) as usize], seed);
        }
    }

    /// Checksum of a range (0 for virtual backing); see [`crate::pattern`].
    pub fn checksum(&self, offset: u64, len: u64) -> u64 {
        match &self.backing {
            Backing::Virtual(_) => 0,
            Backing::Real(v) => {
                crate::pattern::checksum(&v[offset as usize..(offset + len) as usize])
            }
        }
    }

    /// Whether a range holds exactly the [`Self::fill_pattern`] stream
    /// for `seed` (never, for virtual backing: it holds no bytes to
    /// compare); see [`crate::pattern::pattern_matches`].
    pub fn matches_pattern(&self, offset: u64, len: u64, seed: u64) -> bool {
        self.backing.is_real() && crate::pattern::pattern_matches(self.bytes(offset, len), seed)
    }
}

/// Copy `len` bytes from one MR to another. Virtual endpoints make the
/// copy a pure accounting operation.
pub fn copy_between(
    src: &MemoryRegion,
    src_off: u64,
    dst: &mut MemoryRegion,
    dst_off: u64,
    len: u64,
) {
    let data = src.bytes(src_off, if src.backing_is_real() { len } else { 0 });
    if !data.is_empty() {
        dst.write_bytes(dst_off, data);
    }
}

impl MemoryRegion {
    fn backing_is_real(&self) -> bool {
        self.backing.is_real()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mr(len: usize) -> MemoryRegion {
        MemoryRegion::new(MrId(0), 1, Backing::zeroed(len))
    }

    #[test]
    fn bounds_checking() {
        let m = mr(100);
        assert!(m.check_local(0, 100).is_ok());
        assert!(m.check_local(50, 50).is_ok());
        assert_eq!(
            m.check_local(50, 51),
            Err(MrError::OutOfBounds {
                offset: 50,
                len: 51,
                region: 100
            })
        );
        // Overflowing offset+len must not wrap.
        assert!(m.check_local(u64::MAX, 2).is_err());
    }

    #[test]
    fn rkey_validation() {
        let m = mr(10);
        assert!(m.check_remote(m.rkey(), 0, 10).is_ok());
        let bad = Rkey::new(MrId(0), 999);
        assert_eq!(m.check_remote(bad, 0, 10), Err(MrError::StaleKey));
    }

    #[test]
    fn invalidation_faults_stale_keys() {
        let mut m = mr(10);
        let k = m.rkey();
        m.invalidate();
        assert_eq!(m.check_remote(k, 0, 1), Err(MrError::StaleKey));
        assert_eq!(m.check_local(0, 1), Err(MrError::StaleKey));
    }

    #[test]
    fn copy_and_checksum() {
        let mut a = mr(64);
        let mut b = mr(64);
        a.fill_pattern(0, 64, 42);
        copy_between(&a, 0, &mut b, 0, 64);
        assert_eq!(a.checksum(0, 64), b.checksum(0, 64));
        assert_ne!(a.checksum(0, 64), mr(64).checksum(0, 64));
    }

    #[test]
    fn pattern_is_position_dependent() {
        let mut a = mr(128);
        a.fill_pattern(0, 128, 7);
        let h1 = a.checksum(0, 64);
        let h2 = a.checksum(64, 64);
        assert_ne!(h1, h2);
    }

    #[test]
    fn virtual_backing_accounts_without_bytes() {
        let v = MemoryRegion::new(MrId(1), 1, Backing::Virtual(1 << 30));
        assert_eq!(v.len(), 1 << 30);
        assert!(v.check_local(0, 1 << 30).is_ok());
        assert_eq!(v.checksum(0, 100), 0);
        assert!(!v.matches_pattern(0, 100, 7));
        assert!(v.bytes(0, 0).is_empty());
    }

    #[test]
    fn matches_pattern_accepts_exactly_the_filled_range() {
        let mut m = mr(256);
        m.fill_pattern(40, 100, 9);
        assert!(m.matches_pattern(40, 100, 9));
        assert!(!m.matches_pattern(40, 100, 10), "wrong seed");
        // One byte early or late starts the comparison off the stream.
        assert!(!m.matches_pattern(39, 100, 9), "one byte early");
        assert!(!m.matches_pattern(41, 100, 9), "one byte late");
        // A range one byte longer than the fill takes in a zero byte.
        assert!(!m.matches_pattern(40, 101, 9), "one byte past the end");
        assert!(m.matches_pattern(40, 99, 9), "a prefix still matches");
    }

    #[test]
    fn page_math() {
        assert_eq!(mr(1).pages(), 1);
        assert_eq!(mr(4096).pages(), 1);
        assert_eq!(mr(4097).pages(), 2);
        assert_eq!(mr(1 << 20).pages(), 256);
    }

    #[test]
    fn copy_real_to_virtual_and_back() {
        let mut a = mr(32);
        a.fill_pattern(0, 32, 1);
        let mut v = MemoryRegion::new(MrId(1), 1, Backing::Virtual(32));
        copy_between(&a, 0, &mut v, 0, 32); // drops data, no panic
        let mut c = mr(32);
        copy_between(&v, 0, &mut c, 0, 32); // copies nothing
        assert_eq!(c.checksum(0, 32), mr(32).checksum(0, 32));
    }
}
