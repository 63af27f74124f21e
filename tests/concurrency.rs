//! Real-thread stress tests for the middleware's shared data structures.
//!
//! The simulation models the middleware's thread pool in virtual time,
//! but the pool / reorder / credit structures are the ones a native
//! multi-threaded runtime shares: the block pools lock-free, the reorder
//! buffer and credit stock behind locks. These tests hammer them from
//! real OS threads (parking_lot mutexes, crossbeam channels) and check
//! the same conservation invariants the property tests check
//! sequentially.

use parking_lot::Mutex;
use rftp_core::wire::Credit;
use rftp_core::{AtomicSinkPool, AtomicSourcePool, CreditStock, PoolGeometry, ReorderBuffer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn source_pool_under_contention() {
    // 8 workers race through the full block lifecycle 2000 times each.
    let pool = AtomicSourcePool::new(PoolGeometry::new(4096, 16));
    let cycles = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                let mut done = 0;
                while done < 2000 {
                    let Some(b) = pool.get_free() else {
                        std::thread::yield_now();
                        continue;
                    };
                    pool.loaded(b).unwrap();
                    pool.start_sending(b).unwrap();
                    pool.posted(b).unwrap();
                    pool.complete(b).unwrap();
                    cycles.fetch_add(1, Ordering::Relaxed);
                    done += 1;
                }
            });
        }
    });
    assert_eq!(cycles.load(Ordering::Relaxed), 16_000);
    pool.check_invariants();
    assert_eq!(pool.free_count(), 16, "all blocks must return to the pool");
}

#[test]
fn sink_pool_grant_consume_pipeline() {
    // Granter thread advertises blocks; consumer threads mark them ready
    // and free them, via a crossbeam channel — the sink's actual shape.
    let pool = AtomicSinkPool::new(PoolGeometry::new(4096, 32));
    let (tx, rx) = crossbeam::channel::bounded::<u32>(64);
    let granted = AtomicU64::new(0);
    let consumed = AtomicU64::new(0);
    const TOTAL: u64 = 20_000;

    std::thread::scope(|s| {
        s.spawn(|| {
            let mut n = 0u64;
            while n < TOTAL {
                match pool.grant() {
                    Some(b) => {
                        granted.fetch_add(1, Ordering::Relaxed);
                        tx.send(b).unwrap();
                        n += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
            drop(tx);
        });
        for _ in 0..4 {
            let (rx, pool, consumed) = (rx.clone(), &pool, &consumed);
            s.spawn(move || {
                for b in rx.iter() {
                    pool.ready(b).unwrap();
                    pool.put_free(b).unwrap();
                    consumed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(granted.load(Ordering::Relaxed), TOTAL);
    assert_eq!(consumed.load(Ordering::Relaxed), TOTAL);
    pool.check_invariants();
    assert_eq!(pool.free_count(), 32);
}

#[test]
fn reorder_buffer_from_parallel_producers() {
    // N producer threads deliver disjoint sequence slices out of order
    // into one shared reorder buffer; the in-order output must be exact.
    const N: u32 = 8192;
    let buf = Arc::new(Mutex::new(ReorderBuffer::new()));
    let delivered = Arc::new(Mutex::new(Vec::with_capacity(N as usize)));
    std::thread::scope(|s| {
        for t in 0..8u32 {
            let buf = Arc::clone(&buf);
            let delivered = Arc::clone(&delivered);
            s.spawn(move || {
                // Each thread owns seqs ≡ t (mod 8), pushed descending —
                // maximal disorder within its slice.
                let mut seqs: Vec<u32> = (0..N).filter(|x| x % 8 == t).collect();
                seqs.reverse();
                for seq in seqs {
                    let out = {
                        let mut b = buf.lock();
                        b.push(seq, seq)
                    };
                    if !out.is_empty() {
                        delivered.lock().extend(out.into_iter().map(|(_, v)| v));
                    }
                }
            });
        }
    });
    let d = delivered.lock();
    assert_eq!(d.len(), N as usize);
    assert!(
        d.windows(2).all(|w| w[0] + 1 == w[1]),
        "in-order delivery violated"
    );
    assert!(buf.lock().is_drained());
}

#[test]
fn credit_stock_producer_consumer() {
    // A granter deposits batches while a dispatcher drains; totals must
    // balance and the request debounce must never double-fire.
    let stock = Arc::new(Mutex::new(CreditStock::new()));
    const BATCHES: u32 = 5_000;
    let taken = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        {
            let stock = Arc::clone(&stock);
            s.spawn(move || {
                for i in 0..BATCHES {
                    let mut st = stock.lock();
                    st.deposit((0..2).map(|k| Credit {
                        slot: i * 2 + k,
                        rkey: 7,
                        offset: 0,
                        len: 4096,
                    }));
                }
            });
        }
        for _ in 0..3 {
            let stock = Arc::clone(&stock);
            let taken = Arc::clone(&taken);
            s.spawn(move || loop {
                let got = {
                    let mut st = stock.lock();
                    st.take()
                };
                if got.is_some() {
                    if taken.fetch_add(1, Ordering::Relaxed) + 1 == BATCHES as u64 * 2 {
                        break;
                    }
                } else if taken.load(Ordering::Relaxed) >= BATCHES as u64 * 2 {
                    break;
                } else {
                    std::thread::yield_now();
                }
            });
        }
    });
    let st = stock.lock();
    assert_eq!(st.received_total, BATCHES as u64 * 2);
    assert_eq!(st.consumed_total, BATCHES as u64 * 2);
    assert!(st.is_empty());
}

/// Deterministic simulations are independent across threads: the same
/// experiment run on 8 threads concurrently produces identical results
/// (no hidden global state in the simulator).
#[test]
fn parallel_simulations_are_independent_and_identical() {
    use rftp_core::{run_transfer, SourceConfig};
    use rftp_netsim::testbed;

    let run = || {
        let mut cfg = SourceConfig::new(1 << 20, 4, 256 << 20);
        cfg.pool_blocks = 32;
        let r = run_transfer(&testbed::roce_lan(), cfg);
        (r.elapsed, r.source.ctrl_msgs_sent, r.sink.credits_granted)
    };
    let baseline = run();
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8).map(|_| s.spawn(run)).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in results {
        assert_eq!(r, baseline);
    }
}
