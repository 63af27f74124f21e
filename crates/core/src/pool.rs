//! Registered buffer pools.
//!
//! The middleware pre-registers one large memory region per endpoint and
//! carves it into fixed-size blocks (payload header + negotiated block
//! size). Registration happens once and regions are reused across blocks
//! and sessions — the "reuse of memory regions" optimization §III.A calls
//! out (and the `ablation_mr` bench quantifies).
//!
//! [`AtomicSourcePool`] and [`AtomicSinkPool`] wrap the block FSMs of
//! [`crate::block`] with free-list bookkeeping. They know nothing about
//! the fabric or the sockets, so the simulated engines and the live
//! pipeline run on the same two pools:
//!
//! * block handout and return go through a multi-producer multi-consumer
//!   queue of *indices* — a bounded Vyukov ring ([`IndexQueue`]), one CAS
//!   per operation, no lock and no condvar. It is FIFO and starts out
//!   holding `0..n`, so a single-threaded caller (the simulator) sees the
//!   same block order a plain `VecDeque` free list would give;
//! * per-block FSM transitions are a compare-exchange on that block's own
//!   `AtomicU8` — threads working different blocks never touch the same
//!   cache line of state, and an illegal transition fails loudly with an
//!   [`FsmError`].

use crate::block::{FsmError, SnkState, SrcState};
use crate::wire::PAYLOAD_HEADER_LEN;
use std::sync::atomic::{AtomicU32, AtomicU8, AtomicUsize, Ordering};

/// Index of a block within a pool.
pub type BlockIdx = u32;

/// Geometry shared by both pools.
#[derive(Debug, Clone, Copy)]
pub struct PoolGeometry {
    /// Negotiated data bytes per block.
    pub block_size: u64,
    /// Number of blocks.
    pub blocks: u32,
}

impl PoolGeometry {
    pub fn new(block_size: u64, blocks: u32) -> PoolGeometry {
        assert!(block_size > 0 && blocks > 0);
        PoolGeometry { block_size, blocks }
    }

    /// Bytes per slot: payload header + data.
    pub fn slot_bytes(&self) -> u64 {
        self.block_size + PAYLOAD_HEADER_LEN as u64
    }

    /// Total registered bytes.
    pub fn total_bytes(&self) -> u64 {
        self.slot_bytes() * self.blocks as u64
    }

    /// Byte offset of block `i` within the pool's MR.
    pub fn offset(&self, i: BlockIdx) -> u64 {
        assert!(i < self.blocks);
        i as u64 * self.slot_bytes()
    }
}

/// A bounded MPMC queue of block indices (Dmitry Vyukov's array queue).
/// Push and pop are lock-free: one fetch-add claim plus one store each,
/// with a per-cell sequence number resolving producer/consumer races.
///
/// Capacity is rounded up to a power of two. `push` fails only when the
/// queue is full — for a pool free-list sized to hold every index, that
/// is unreachable and callers treat it as a bug.
#[derive(Debug)]
pub struct IndexQueue {
    cells: Vec<QueueCell>,
    mask: usize,
    enq: AtomicUsize,
    deq: AtomicUsize,
}

#[derive(Debug)]
struct QueueCell {
    seq: AtomicUsize,
    val: AtomicU32,
}

impl IndexQueue {
    pub fn new(capacity: usize) -> IndexQueue {
        let cap = capacity.max(2).next_power_of_two();
        IndexQueue {
            cells: (0..cap)
                .map(|i| QueueCell {
                    seq: AtomicUsize::new(i),
                    val: AtomicU32::new(u32::MAX),
                })
                .collect(),
            mask: cap - 1,
            enq: AtomicUsize::new(0),
            deq: AtomicUsize::new(0),
        }
    }

    /// Construct pre-filled with `0..count` (a pool's initial free list).
    pub fn full(count: u32) -> IndexQueue {
        let q = IndexQueue::new(count as usize);
        for i in 0..count {
            q.push(i).expect("freshly sized queue cannot be full");
        }
        q
    }

    /// Approximate occupancy (exact when quiescent).
    pub fn len(&self) -> usize {
        self.enq
            .load(Ordering::Relaxed)
            .saturating_sub(self.deq.load(Ordering::Relaxed))
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueue `v`; returns `Err(v)` if the queue is full.
    pub fn push(&self, v: u32) -> Result<(), u32> {
        let mut pos = self.enq.load(Ordering::Relaxed);
        loop {
            let cell = &self.cells[pos & self.mask];
            let seq = cell.seq.load(Ordering::Acquire);
            match seq as isize - pos as isize {
                0 => {
                    // The cell is ours to claim for this lap.
                    match self.enq.compare_exchange_weak(
                        pos,
                        pos + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            cell.val.store(v, Ordering::Relaxed);
                            cell.seq.store(pos + 1, Ordering::Release);
                            return Ok(());
                        }
                        Err(p) => pos = p,
                    }
                }
                d if d < 0 => return Err(v), // a full lap behind: queue full
                _ => pos = self.enq.load(Ordering::Relaxed), // racing producer advanced it
            }
        }
    }

    /// Enqueue `v` under a caller-held capacity invariant, riding out
    /// the ring's transient-full window.
    ///
    /// `push` can report full even when occupancy is below capacity: a
    /// consumer re-arms its cell's sequence only *after* winning the
    /// dequeue CAS (see `try_pop`), so a producer lapping onto that cell
    /// reads a stale sequence until the consumer's store lands. When the
    /// caller guarantees occupancy can never actually reach capacity-plus
    /// (a pool free list only ever holds pool-many blocks), full always
    /// means "a dequeuer is mid-re-arm" — wait it out. The yield matters
    /// on single-core hosts, where the preempted dequeuer needs the CPU
    /// back to finish its store.
    pub fn push_must(&self, v: u32) {
        let mut spins = 0u32;
        while self.push(v).is_err() {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Dequeue, or `None` when empty.
    pub fn try_pop(&self) -> Option<u32> {
        let mut pos = self.deq.load(Ordering::Relaxed);
        loop {
            let cell = &self.cells[pos & self.mask];
            let seq = cell.seq.load(Ordering::Acquire);
            match seq as isize - (pos + 1) as isize {
                0 => {
                    match self.deq.compare_exchange_weak(
                        pos,
                        pos + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            let v = cell.val.load(Ordering::Relaxed);
                            // Re-arm the cell for the producers' next lap.
                            cell.seq.store(pos + self.mask + 1, Ordering::Release);
                            return Some(v);
                        }
                        Err(p) => pos = p,
                    }
                }
                d if d < 0 => return None, // cell not yet published: empty
                _ => pos = self.deq.load(Ordering::Relaxed),
            }
        }
    }
}

const fn src_code(s: SrcState) -> u8 {
    match s {
        SrcState::Free => 0,
        SrcState::Loading => 1,
        SrcState::Loaded => 2,
        SrcState::StartSending => 3,
        SrcState::Waiting => 4,
    }
}

fn src_state(code: u8) -> SrcState {
    match code {
        0 => SrcState::Free,
        1 => SrcState::Loading,
        2 => SrcState::Loaded,
        3 => SrcState::StartSending,
        4 => SrcState::Waiting,
        other => unreachable!("corrupt source state code {other}"),
    }
}

const fn snk_code(s: SnkState) -> u8 {
    match s {
        SnkState::Free => 0,
        SnkState::Waiting => 1,
        SnkState::DataReady => 2,
    }
}

fn snk_state(code: u8) -> SnkState {
    match code {
        0 => SnkState::Free,
        1 => SnkState::Waiting,
        2 => SnkState::DataReady,
        other => unreachable!("corrupt sink state code {other}"),
    }
}

/// Source-side pool: blocks move Free → Loading → Loaded →
/// StartSending → Waiting → Free (the Fig. 6a state machine). `&self`
/// everywhere; handout and return go through the [`IndexQueue`] free list
/// and each transition is a CAS on the block's own state byte.
///
/// ```
/// use rftp_core::{AtomicSourcePool, PoolGeometry};
/// let p = AtomicSourcePool::new(PoolGeometry::new(1 << 20, 4));
/// let b = p.get_free().unwrap();     // get_free_blk
/// p.loaded(b).unwrap();
/// p.start_sending(b).unwrap();
/// p.posted(b).unwrap();
/// p.complete(b).unwrap();            // back on the free list
/// assert_eq!(p.free_count(), 4);
/// ```
#[derive(Debug)]
pub struct AtomicSourcePool {
    geo: PoolGeometry,
    states: Vec<AtomicU8>,
    free: IndexQueue,
}

impl AtomicSourcePool {
    pub fn new(geo: PoolGeometry) -> AtomicSourcePool {
        AtomicSourcePool {
            geo,
            states: (0..geo.blocks)
                .map(|_| AtomicU8::new(src_code(SrcState::Free)))
                .collect(),
            free: IndexQueue::full(geo.blocks),
        }
    }

    pub fn geometry(&self) -> PoolGeometry {
        self.geo
    }

    pub fn state(&self, i: BlockIdx) -> SrcState {
        src_state(self.states[i as usize].load(Ordering::Acquire))
    }

    /// Approximate free count (exact when quiescent).
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Blocks currently held by the pipeline (not `Free`) — the free-depth
    /// watermark read-ahead pacing keys off: loaders stop prefetching once
    /// `in_flight()` reaches the configured read-ahead depth, so the pool's
    /// free depth is the throttle. Approximate under concurrency (exact
    /// when quiescent), which is all pacing needs.
    pub fn in_flight(&self) -> usize {
        (self.geo.blocks as usize).saturating_sub(self.free.len())
    }

    fn transition(
        &self,
        i: BlockIdx,
        f: impl Fn(SrcState) -> Result<SrcState, FsmError>,
    ) -> Result<(), FsmError> {
        let cell = &self.states[i as usize];
        let mut cur = cell.load(Ordering::Acquire);
        loop {
            let next = src_code(f(src_state(cur))?);
            match cell.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return Ok(()),
                Err(now) => cur = now,
            }
        }
    }

    /// `get_free_blk`: pop a free block and reserve it for loading.
    /// Non-blocking — an empty free list returns `None` and the caller
    /// decides how to wait.
    pub fn get_free(&self) -> Option<BlockIdx> {
        let i = self.free.try_pop()?;
        self.transition(i, SrcState::reserve)
            .expect("free list held a non-free block");
        Some(i)
    }

    pub fn loaded(&self, i: BlockIdx) -> Result<(), FsmError> {
        self.transition(i, SrcState::loaded)
    }

    pub fn start_sending(&self, i: BlockIdx) -> Result<(), FsmError> {
        self.transition(i, SrcState::start_sending)
    }

    pub fn posted(&self, i: BlockIdx) -> Result<(), FsmError> {
        self.transition(i, SrcState::posted)
    }

    /// Completion success: block returns to the free list.
    pub fn complete(&self, i: BlockIdx) -> Result<(), FsmError> {
        self.transition(i, SrcState::complete)?;
        // push_must: a concurrent dequeuer mid-re-arm can make the ring
        // look transiently full; occupancy itself can never overflow.
        self.free.push_must(i);
        Ok(())
    }

    /// Completion failure: block goes back to Loaded for re-send.
    pub fn send_failed(&self, i: BlockIdx) -> Result<(), FsmError> {
        self.transition(i, SrcState::send_failed)
    }

    /// Release a reservation without loading: Loading → Free, back on the
    /// free list. Lock-free loaders need this for the end-of-job race —
    /// a block must be held *before* the sequence counter is consulted
    /// (holding-order prevents pool starvation), so the loser of the last
    /// sequence ends up with a reserved block and nothing to load into it.
    pub fn abandon(&self, i: BlockIdx) -> Result<(), FsmError> {
        self.transition(i, |s| match s {
            SrcState::Loading => Ok(SrcState::Free),
            other => Err(FsmError {
                op: "abandon",
                actual: other.name(),
            }),
        })?;
        // push_must: a concurrent dequeuer mid-re-arm can make the ring
        // look transiently full; occupancy itself can never overflow.
        self.free.push_must(i);
        Ok(())
    }

    /// Quiescent-state invariant check (caller must have stopped all
    /// concurrent users; the counts race otherwise).
    pub fn check_invariants(&self) {
        let free_states = (0..self.geo.blocks)
            .filter(|&i| self.state(i) == SrcState::Free)
            .count();
        assert_eq!(free_states, self.free.len(), "free list out of sync");
    }
}

/// Sink-side pool: blocks move Free → Waiting (granted as a credit) →
/// DataReady → Free (the Fig. 6b state machine).
#[derive(Debug)]
pub struct AtomicSinkPool {
    geo: PoolGeometry,
    states: Vec<AtomicU8>,
    free: IndexQueue,
}

impl AtomicSinkPool {
    pub fn new(geo: PoolGeometry) -> AtomicSinkPool {
        AtomicSinkPool {
            geo,
            states: (0..geo.blocks)
                .map(|_| AtomicU8::new(snk_code(SnkState::Free)))
                .collect(),
            free: IndexQueue::full(geo.blocks),
        }
    }

    pub fn geometry(&self) -> PoolGeometry {
        self.geo
    }

    pub fn state(&self, i: BlockIdx) -> SnkState {
        snk_state(self.states[i as usize].load(Ordering::Acquire))
    }

    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    fn transition(
        &self,
        i: BlockIdx,
        f: impl Fn(SnkState) -> Result<SnkState, FsmError>,
    ) -> Result<(), FsmError> {
        let cell = &self.states[i as usize];
        let mut cur = cell.load(Ordering::Acquire);
        loop {
            let next = snk_code(f(snk_state(cur))?);
            match cell.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return Ok(()),
                Err(now) => cur = now,
            }
        }
    }

    /// Advertise a free block as a credit.
    pub fn grant(&self) -> Option<BlockIdx> {
        let i = self.free.try_pop()?;
        self.transition(i, SnkState::grant)
            .expect("free list held a non-free block");
        Some(i)
    }

    /// A finish notification arrived for block `i`.
    pub fn ready(&self, i: BlockIdx) -> Result<(), FsmError> {
        self.transition(i, SnkState::ready)
    }

    /// `put_free_blk`: application consumed the payload.
    pub fn put_free(&self, i: BlockIdx) -> Result<(), FsmError> {
        self.transition(i, SnkState::put_free)?;
        // push_must: a concurrent dequeuer mid-re-arm can make the ring
        // look transiently full; occupancy itself can never overflow.
        self.free.push_must(i);
        Ok(())
    }

    /// Reclaim a granted-but-unused block at session teardown.
    pub fn revoke(&self, i: BlockIdx) -> Result<(), FsmError> {
        self.transition(i, SnkState::revoke)?;
        // push_must: a concurrent dequeuer mid-re-arm can make the ring
        // look transiently full; occupancy itself can never overflow.
        self.free.push_must(i);
        Ok(())
    }

    /// Quiescent-state invariant check.
    pub fn check_invariants(&self) {
        let free_states = (0..self.geo.blocks)
            .filter(|&i| self.state(i) == SnkState::Free)
            .count();
        assert_eq!(free_states, self.free.len(), "free list out of sync");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> PoolGeometry {
        PoolGeometry::new(128 * 1024, 8)
    }

    // spec: [P2-slot-layout]
    #[test]
    fn geometry_math() {
        let g = geo();
        assert_eq!(g.slot_bytes(), 128 * 1024 + PAYLOAD_HEADER_LEN as u64);
        assert_eq!(g.total_bytes(), g.slot_bytes() * 8);
        assert_eq!(g.offset(0), 0);
        assert_eq!(g.offset(3), 3 * g.slot_bytes());
    }

    // spec: [P2-slot-layout]
    #[test]
    #[should_panic]
    fn geometry_offset_bounds() {
        geo().offset(8);
    }

    #[test]
    fn source_pool_cycle() {
        let p = AtomicSourcePool::new(geo());
        assert_eq!(p.free_count(), 8);
        let b = p.get_free().unwrap();
        assert_eq!(p.state(b), SrcState::Loading);
        p.loaded(b).unwrap();
        p.start_sending(b).unwrap();
        p.posted(b).unwrap();
        assert_eq!(p.free_count(), 7);
        p.complete(b).unwrap();
        assert_eq!(p.free_count(), 8);
        p.check_invariants();
    }

    #[test]
    fn source_pool_exhaustion() {
        let p = AtomicSourcePool::new(PoolGeometry::new(1024, 2));
        assert!(p.get_free().is_some());
        assert!(p.get_free().is_some());
        assert!(p.get_free().is_none());
    }

    #[test]
    fn source_pool_resend() {
        let p = AtomicSourcePool::new(geo());
        let b = p.get_free().unwrap();
        p.loaded(b).unwrap();
        p.start_sending(b).unwrap();
        p.posted(b).unwrap();
        p.send_failed(b).unwrap();
        assert_eq!(p.state(b), SrcState::Loaded);
        // Block is not on the free list while in Loaded.
        assert_eq!(p.free_count(), 7);
        p.check_invariants();
    }

    #[test]
    fn source_pool_rejects_illegal() {
        let p = AtomicSourcePool::new(geo());
        let b = p.get_free().unwrap();
        assert!(p.complete(b).is_err()); // Loading -> complete is illegal
        p.check_invariants();
    }

    #[test]
    fn sink_pool_cycle() {
        let p = AtomicSinkPool::new(geo());
        let b = p.grant().unwrap();
        assert_eq!(p.state(b), SnkState::Waiting);
        assert_eq!(p.free_count(), 7);
        p.ready(b).unwrap();
        p.put_free(b).unwrap();
        assert_eq!(p.free_count(), 8);
        p.check_invariants();
    }

    #[test]
    fn sink_pool_grant_order_is_fifo() {
        let p = AtomicSinkPool::new(geo());
        let a = p.grant().unwrap();
        let b = p.grant().unwrap();
        assert_ne!(a, b);
        p.ready(a).unwrap();
        p.put_free(a).unwrap();
        p.ready(b).unwrap();
        p.put_free(b).unwrap();
        // Freed blocks recycle in order.
        let order: Vec<_> = (0..8).map(|_| p.grant().unwrap()).collect();
        assert_eq!(order[6], a);
        assert_eq!(order[7], b);
    }

    #[test]
    fn atomic_source_pool_in_flight_watermark() {
        let p = AtomicSourcePool::new(geo());
        assert_eq!(p.in_flight(), 0);
        let a = p.get_free().unwrap();
        let b = p.get_free().unwrap();
        assert_eq!(p.in_flight(), 2);
        p.loaded(a).unwrap();
        p.start_sending(a).unwrap();
        p.posted(a).unwrap();
        p.complete(a).unwrap();
        assert_eq!(p.in_flight(), 1);
        p.abandon(b).unwrap();
        assert_eq!(p.in_flight(), 0);
        p.check_invariants();
    }

    // spec: [P2-sink-fsm]
    #[test]
    fn sink_pool_rejects_double_ready() {
        let p = AtomicSinkPool::new(geo());
        let b = p.grant().unwrap();
        p.ready(b).unwrap();
        assert!(p.ready(b).is_err());
    }
}
