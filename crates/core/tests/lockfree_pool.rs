//! Concurrency tests for the lock-free block pools and the index ring
//! under them.
//!
//! The properties the live pipeline stakes its correctness on:
//!
//! * **No double handout** — two threads can never hold the same block
//!   (or ring slot) at the same time.
//! * **No lost slots** — every block handed out and returned is handed
//!   out again; after quiescence the free count equals the pool size.
//! * **FSM integrity** — concurrent drivers can only move each block
//!   through the legal Fig. 6 cycle; invalid transitions are rejected,
//!   never silently applied.
//!
//! The stress tests run the real multi-threaded interleavings (seeded
//! workloads, oversubscribed on purpose); the proptests run randomized
//! operation sequences against an inline Fig. 6 state model.

use proptest::prelude::*;
use rftp_core::{AtomicSinkPool, AtomicSourcePool, IndexQueue, PoolGeometry};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

fn geo(blocks: u32) -> PoolGeometry {
    PoolGeometry::new(4096, blocks)
}

/// Cheap deterministic per-thread RNG for interleaving jitter.
fn next_rand(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

#[test]
fn index_queue_conserves_values_under_contention() {
    const CAP: u32 = 64;
    const PER_THREAD: usize = 20_000;
    let q = IndexQueue::full(CAP);
    let popped_total = AtomicU64::new(0);
    // One ownership flag per value: set while some thread holds it. A
    // double-pop trips the assert; a lost value shows up in the final
    // drain count.
    let held: Vec<AtomicBool> = (0..CAP).map(|_| AtomicBool::new(false)).collect();
    std::thread::scope(|s| {
        for t in 0..4 {
            let (q, held, popped_total) = (&q, &held, &popped_total);
            s.spawn(move || {
                let mut rng = 0x1234_5678u64 ^ (t as u64) << 32;
                let mut ops = 0usize;
                while ops < PER_THREAD {
                    if let Some(v) = q.try_pop() {
                        assert!(
                            !held[v as usize].swap(true, Ordering::AcqRel),
                            "value {v} handed to two holders"
                        );
                        if next_rand(&mut rng).is_multiple_of(4) {
                            std::thread::yield_now();
                        }
                        held[v as usize].store(false, Ordering::Release);
                        // push_must: with all CAP values circulating, a
                        // dequeuer preempted mid-re-arm makes the ring look
                        // transiently full to a lapping producer.
                        q.push_must(v);
                        popped_total.fetch_add(1, Ordering::Relaxed);
                        ops += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    assert_eq!(popped_total.load(Ordering::Relaxed), 4 * PER_THREAD as u64);
    // Every value must be back exactly once.
    let mut drained: Vec<u32> = std::iter::from_fn(|| q.try_pop()).collect();
    drained.sort_unstable();
    assert_eq!(drained, (0..CAP).collect::<Vec<_>>());
}

#[test]
fn index_queue_rejects_overflow_and_underflow() {
    let q = IndexQueue::new(4);
    assert!(q.try_pop().is_none());
    for v in 0..4 {
        q.push(v).unwrap();
    }
    assert_eq!(q.push(99), Err(99), "full ring must reject, not drop");
    assert_eq!(q.try_pop(), Some(0));
    q.push(99).unwrap();
    assert_eq!(q.len(), 4);
}

#[test]
fn atomic_source_pool_full_cycle_under_contention() {
    const BLOCKS: u32 = 8;
    const PER_THREAD: usize = 5_000;
    let pool = AtomicSourcePool::new(geo(BLOCKS));
    // Ownership ledger: a block must never be live in two threads.
    let held: Vec<AtomicBool> = (0..BLOCKS).map(|_| AtomicBool::new(false)).collect();
    let cycles = AtomicU64::new(0);
    // 6 threads over 8 blocks: starvation and handoff races guaranteed.
    std::thread::scope(|s| {
        for t in 0..6 {
            let (pool, held, cycles) = (&pool, &held, &cycles);
            s.spawn(move || {
                let mut rng = 0xFEED_u64 ^ (t as u64) << 40;
                let mut done = 0usize;
                while done < PER_THREAD {
                    let Some(b) = pool.get_free() else {
                        std::thread::yield_now();
                        continue;
                    };
                    assert!(
                        !held[b as usize].swap(true, Ordering::AcqRel),
                        "block {b} handed to two threads"
                    );
                    // The flag must drop *before* the call that pushes the
                    // block back on the free list (`complete`/`abandon`):
                    // the push is the ownership handoff, and another thread
                    // may legitimately re-acquire the block the instant it
                    // lands — holding the flag across the push would trip
                    // the double-hand assert on a correct interleaving.
                    match next_rand(&mut rng) % 8 {
                        // Mostly the full happy path...
                        0..=5 => {
                            pool.loaded(b).unwrap();
                            pool.start_sending(b).unwrap();
                            pool.posted(b).unwrap();
                            held[b as usize].store(false, Ordering::Release);
                            pool.complete(b).unwrap();
                        }
                        // ...sometimes a failed send...
                        6 => {
                            pool.loaded(b).unwrap();
                            pool.start_sending(b).unwrap();
                            pool.posted(b).unwrap();
                            pool.send_failed(b).unwrap();
                            pool.start_sending(b).unwrap();
                            pool.posted(b).unwrap();
                            held[b as usize].store(false, Ordering::Release);
                            pool.complete(b).unwrap();
                        }
                        // ...sometimes an abandoned reservation.
                        _ => {
                            held[b as usize].store(false, Ordering::Release);
                            pool.abandon(b).unwrap();
                        }
                    }
                    cycles.fetch_add(1, Ordering::Relaxed);
                    done += 1;
                }
            });
        }
    });
    assert_eq!(cycles.load(Ordering::Relaxed), 6 * PER_THREAD as u64);
    assert_eq!(pool.free_count(), BLOCKS as usize, "blocks leaked");
    pool.check_invariants();
    // Every block must be individually reusable after the storm.
    for _ in 0..BLOCKS {
        let b = pool.get_free().expect("pool exhausted after quiescence");
        pool.loaded(b).unwrap();
        pool.start_sending(b).unwrap();
        pool.posted(b).unwrap();
        pool.complete(b).unwrap();
    }
}

// spec: [P4.3-revoke]
#[test]
fn atomic_sink_pool_grant_ready_free_under_contention() {
    const BLOCKS: u32 = 8;
    const PER_THREAD: usize = 5_000;
    let pool = AtomicSinkPool::new(geo(BLOCKS));
    let held: Vec<AtomicBool> = (0..BLOCKS).map(|_| AtomicBool::new(false)).collect();
    std::thread::scope(|s| {
        for t in 0..6 {
            let (pool, held) = (&pool, &held);
            s.spawn(move || {
                let mut rng = 0xBEEF_u64 ^ (t as u64) << 40;
                let mut done = 0usize;
                while done < PER_THREAD {
                    let Some(b) = pool.grant() else {
                        std::thread::yield_now();
                        continue;
                    };
                    assert!(
                        !held[b as usize].swap(true, Ordering::AcqRel),
                        "slot {b} granted to two threads"
                    );
                    // Drop the flag before `revoke`/`put_free` push the slot
                    // back: the push is the handoff, and a peer may re-grant
                    // the slot immediately (see the source-pool test).
                    if next_rand(&mut rng).is_multiple_of(8) {
                        // Credit revoked before any payload landed.
                        held[b as usize].store(false, Ordering::Release);
                        pool.revoke(b).unwrap();
                    } else {
                        pool.ready(b).unwrap();
                        held[b as usize].store(false, Ordering::Release);
                        pool.put_free(b).unwrap();
                    }
                    done += 1;
                }
            });
        }
    });
    assert_eq!(pool.free_count(), BLOCKS as usize, "slots leaked");
    pool.check_invariants();
}

// spec: [P2-source-fsm]
#[test]
fn atomic_source_pool_rejects_illegal_transitions() {
    let pool = AtomicSourcePool::new(geo(2));
    let b = pool.get_free().unwrap();
    // Loading → Posted skips Sending.
    assert!(pool.posted(b).is_err());
    // Completing a block that was never posted.
    assert!(pool.complete(b).is_err());
    pool.loaded(b).unwrap();
    assert!(pool.loaded(b).is_err(), "double load must be rejected");
    pool.start_sending(b).unwrap();
    pool.posted(b).unwrap();
    assert!(pool.abandon(b).is_err(), "abandon is Loading-only");
    pool.complete(b).unwrap();
    pool.check_invariants();
}

// ---- model-based property tests ----
//
// Drive the atomic pools with randomized operation sequences and check
// every result against a direct Fig. 6 state model. (The pools are
// compared per-index on FSM semantics, not on handout order: free blocks
// are interchangeable, and the ring hands them out FIFO where the
// sequential pools scan — both are legal.) Single-threaded by
// construction; real-interleaving coverage is the stress tests above.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum M {
    Free,
    Loading,
    Loaded,
    StartSending,
    Waiting,
}

#[derive(Debug, Clone)]
enum SrcOp {
    Get,
    Loaded(u32),
    StartSending(u32),
    Posted(u32),
    Complete(u32),
    SendFailed(u32),
    Abandon(u32),
}

fn src_op() -> impl Strategy<Value = SrcOp> {
    prop_oneof![
        Just(SrcOp::Get),
        (0u32..8).prop_map(SrcOp::Loaded),
        (0u32..8).prop_map(SrcOp::StartSending),
        (0u32..8).prop_map(SrcOp::Posted),
        (0u32..8).prop_map(SrcOp::Complete),
        (0u32..8).prop_map(SrcOp::SendFailed),
        (0u32..8).prop_map(SrcOp::Abandon),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    // spec: [P2-source-fsm] [P8-blocks-conserved]
    #[test]
    fn atomic_source_pool_obeys_fig6a_model(ops in proptest::collection::vec(src_op(), 1..200)) {
        let pool = AtomicSourcePool::new(geo(8));
        let mut model = [M::Free; 8];
        for op in ops {
            match op {
                SrcOp::Get => match pool.get_free() {
                    Some(b) => {
                        prop_assert_eq!(model[b as usize], M::Free, "handed out non-free block {}", b);
                        model[b as usize] = M::Loading;
                    }
                    None => prop_assert!(
                        model.iter().all(|&s| s != M::Free),
                        "pool empty while model holds free blocks"
                    ),
                },
                SrcOp::Loaded(i) => {
                    let legal = model[i as usize] == M::Loading;
                    prop_assert_eq!(pool.loaded(i).is_ok(), legal, "loaded({})", i);
                    if legal { model[i as usize] = M::Loaded; }
                }
                SrcOp::StartSending(i) => {
                    let legal = model[i as usize] == M::Loaded;
                    prop_assert_eq!(pool.start_sending(i).is_ok(), legal, "start_sending({})", i);
                    if legal { model[i as usize] = M::StartSending; }
                }
                SrcOp::Posted(i) => {
                    let legal = model[i as usize] == M::StartSending;
                    prop_assert_eq!(pool.posted(i).is_ok(), legal, "posted({})", i);
                    if legal { model[i as usize] = M::Waiting; }
                }
                SrcOp::Complete(i) => {
                    let legal = model[i as usize] == M::Waiting;
                    prop_assert_eq!(pool.complete(i).is_ok(), legal, "complete({})", i);
                    if legal { model[i as usize] = M::Free; }
                }
                SrcOp::SendFailed(i) => {
                    let legal = model[i as usize] == M::Waiting;
                    prop_assert_eq!(pool.send_failed(i).is_ok(), legal, "send_failed({})", i);
                    if legal { model[i as usize] = M::Loaded; }
                }
                SrcOp::Abandon(i) => {
                    let legal = model[i as usize] == M::Loading;
                    prop_assert_eq!(pool.abandon(i).is_ok(), legal, "abandon({})", i);
                    if legal { model[i as usize] = M::Free; }
                }
            }
            prop_assert_eq!(
                pool.free_count(),
                model.iter().filter(|&&s| s == M::Free).count(),
                "free count diverged from model"
            );
        }
    }

    // spec: [P2-sink-fsm] [P8-blocks-conserved]
    #[test]
    fn atomic_sink_pool_obeys_fig6b_model(ops in proptest::collection::vec(
        (0u8..4, 0u32..8),
        1..200,
    )) {
        #[derive(Clone, Copy, PartialEq, Eq)]
        enum K { Free, Waiting, DataReady }
        let pool = AtomicSinkPool::new(geo(8));
        let mut model = [K::Free; 8];
        for (kind, i) in ops {
            match kind {
                0 => match pool.grant() {
                    Some(b) => {
                        prop_assert!(model[b as usize] == K::Free, "granted non-free slot {}", b);
                        model[b as usize] = K::Waiting;
                    }
                    None => prop_assert!(model.iter().all(|&s| s != K::Free)),
                },
                1 => {
                    let legal = model[i as usize] == K::Waiting;
                    prop_assert_eq!(pool.ready(i).is_ok(), legal, "ready({})", i);
                    if legal { model[i as usize] = K::DataReady; }
                }
                2 => {
                    let legal = model[i as usize] == K::DataReady;
                    prop_assert_eq!(pool.put_free(i).is_ok(), legal, "put_free({})", i);
                    if legal { model[i as usize] = K::Free; }
                }
                _ => {
                    let legal = model[i as usize] == K::Waiting;
                    prop_assert_eq!(pool.revoke(i).is_ok(), legal, "revoke({})", i);
                    if legal { model[i as usize] = K::Free; }
                }
            }
        }
        pool.check_invariants();
    }
}
