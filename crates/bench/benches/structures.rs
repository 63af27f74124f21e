//! Microbenchmarks of the middleware's hot-path data structures: these
//! run per block (tens of thousands of times per simulated second), so
//! their real-world cost is what the simulator's cost model charges for
//! protocol processing.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rftp_core::wire::{Credit, CtrlMsg, PayloadHeader, CTRL_SLOT_LEN};
use rftp_core::{AtomicSinkPool, AtomicSourcePool, CreditStock, PoolGeometry, ReorderBuffer};
use rftp_netsim::time::SimDur;
use rftp_netsim::LatencyHistogram;

fn bench_pools(c: &mut Criterion) {
    let mut g = c.benchmark_group("pools");
    g.bench_function("source_block_cycle", |b| {
        let pool = AtomicSourcePool::new(PoolGeometry::new(1 << 20, 64));
        b.iter(|| {
            let blk = pool.get_free().unwrap();
            pool.loaded(blk).unwrap();
            pool.start_sending(blk).unwrap();
            pool.posted(blk).unwrap();
            pool.complete(blk).unwrap();
            black_box(blk)
        });
    });
    g.bench_function("sink_block_cycle", |b| {
        let pool = AtomicSinkPool::new(PoolGeometry::new(1 << 20, 64));
        b.iter(|| {
            let blk = pool.grant().unwrap();
            pool.ready(blk).unwrap();
            pool.put_free(blk).unwrap();
            black_box(blk)
        });
    });
    g.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire");
    let msg = CtrlMsg::Credits {
        session: 7,
        credits: (0..8)
            .map(|i| Credit {
                slot: i,
                rkey: 0xABCD_0000_0000 + i as u64,
                offset: i as u64 * (4 << 20),
                len: 4 << 20,
            })
            .collect(),
    };
    g.bench_function("encode_credits_x8", |b| {
        let mut buf = [0u8; CTRL_SLOT_LEN];
        b.iter(|| black_box(msg.encode(&mut buf)));
    });
    let mut buf = [0u8; CTRL_SLOT_LEN];
    let n = msg.encode(&mut buf);
    g.bench_function("decode_credits_x8", |b| {
        b.iter(|| black_box(CtrlMsg::decode(&buf[..n]).unwrap()));
    });
    let hdr = PayloadHeader {
        session: 1,
        seq: 12345,
        offset: 1 << 33,
        len: 4 << 20,
    };
    g.bench_function("payload_header_roundtrip", |b| {
        let mut hb = [0u8; 24];
        b.iter(|| {
            hdr.encode(&mut hb);
            black_box(PayloadHeader::decode(&hb).unwrap())
        });
    });
    g.finish();
}

fn bench_reorder(c: &mut Criterion) {
    let mut g = c.benchmark_group("reorder");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("in_order_1024", |b| {
        b.iter(|| {
            let mut r = ReorderBuffer::new();
            for i in 0..1024u32 {
                black_box(r.push(i, i));
            }
        });
    });
    g.bench_function("stride8_1024", |b| {
        // The multi-QP arrival pattern: 8 interleaved channels.
        b.iter(|| {
            let mut r = ReorderBuffer::new();
            for base in (0..1024u32).step_by(8) {
                for lane in (0..8).rev() {
                    black_box(r.push(base + lane, ()));
                }
            }
        });
    });
    g.finish();
}

fn bench_credits(c: &mut Criterion) {
    c.bench_function("credit_deposit_take", |b| {
        let mut stock = CreditStock::new();
        let credits: Vec<Credit> = (0..2)
            .map(|i| Credit {
                slot: i,
                rkey: 1,
                offset: 0,
                len: 4096,
            })
            .collect();
        b.iter(|| {
            stock.deposit(credits.iter().copied());
            black_box(stock.take());
            black_box(stock.take());
        });
    });
}

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("latency_histogram_record", |b| {
        let mut h = LatencyHistogram::new();
        let mut x = 1u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(SimDur(x >> 40));
        });
    });
}

criterion_group!(
    benches,
    bench_pools,
    bench_wire,
    bench_reorder,
    bench_credits,
    bench_histogram
);
criterion_main!(benches);
