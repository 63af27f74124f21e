//! Scheduler-kernel microbenchmarks: the calendar queue that now drives
//! the simulator versus the reference binary heap it replaced, on the
//! three workload shapes that dominate real runs, the test-data pattern's
//! per-byte kernels, plus the end-to-end native pipeline's wall-clock
//! throughput.
//!
//! Each queue iteration drives a steady-state churn: pre-fill a pending
//! window, then push-one/pop-one through a pre-generated delta tape so
//! the cost measured is queue discipline, not tape generation. The
//! workloads:
//!
//! * `uniform` — deltas spread across the wheel window (the background
//!   mix of link, CPU, and timer events);
//! * `bursty_same_instant` — long same-timestamp trains (completion
//!   storms: every fragment of a block arriving in one instant), the
//!   case the calendar queue's batch bucket drain targets;
//! * `far_future_heavy` — half the pushes land past the wheel horizon
//!   (RTO timers, session timeouts) and must take the overflow heap and
//!   later be promoted.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rftp_core::pattern::{checksum, fill_pattern, pattern_matches};
use rftp_live::{run_live, LiveConfig};
use rftp_netsim::kernel::{reference::HeapQueue, CalendarQueue};
use rftp_netsim::time::SimTime;

/// Events churned per iteration (beyond the pre-filled window).
const OPS: usize = 16 * 1024;
/// Pending events held while churning.
const WINDOW: usize = 1024;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pre-generated push deltas for one workload shape.
fn tape(name: &str) -> Vec<u64> {
    let mut state = 0x5EED_0000_0000_0000 ^ name.len() as u64;
    let mut out = Vec::with_capacity(OPS + WINDOW);
    while out.len() < OPS + WINDOW {
        match name {
            "uniform" => out.push(splitmix(&mut state) % (1 << 24)),
            "bursty_same_instant" => {
                // A train of 64 events on one instant, then a short hop.
                out.push(1 + splitmix(&mut state) % (1 << 18));
                out.extend(std::iter::repeat_n(0, 63));
            }
            "far_future_heavy" => {
                let r = splitmix(&mut state);
                out.push(if r.is_multiple_of(2) {
                    r % (1 << 22)
                } else {
                    (1 << 26) + r % (1 << 38)
                });
            }
            other => panic!("unknown tape {other}"),
        }
    }
    out.truncate(OPS + WINDOW);
    out
}

/// The push/pop surface both kernels share, so one driver measures both.
trait EventQueue {
    fn push(&mut self, at: SimTime, seq: u64, ev: u64);
    fn pop(&mut self) -> Option<(SimTime, u64, u64)>;
}

impl EventQueue for CalendarQueue<u64> {
    fn push(&mut self, at: SimTime, seq: u64, ev: u64) {
        CalendarQueue::push(self, at, seq, ev)
    }
    fn pop(&mut self) -> Option<(SimTime, u64, u64)> {
        CalendarQueue::pop(self)
    }
}

impl EventQueue for HeapQueue<u64> {
    fn push(&mut self, at: SimTime, seq: u64, ev: u64) {
        HeapQueue::push(self, at, seq, ev)
    }
    fn pop(&mut self) -> Option<(SimTime, u64, u64)> {
        HeapQueue::pop(self)
    }
}

/// Steady-state churn: pre-fill WINDOW events, then push-one/pop-one
/// through the tape, then drain. `now` tracks the popped clock so every
/// push is legal (never in the past) exactly as the scheduler's are.
fn churn<Q: EventQueue>(mut q: Q, deltas: &[u64]) -> u64 {
    let mut now = SimTime(0);
    let mut seq = 0u64;
    let mut acc = 0u64;
    for &d in &deltas[..WINDOW] {
        q.push(SimTime(now.0 + d), seq, seq);
        seq += 1;
    }
    for &d in &deltas[WINDOW..] {
        q.push(SimTime(now.0 + d), seq, seq);
        seq += 1;
        let (at, s, _) = q.pop().expect("window never empties");
        now = at;
        acc ^= s;
    }
    while let Some((_, s, _)) = q.pop() {
        acc ^= s;
    }
    acc
}

fn bench_scheduler(c: &mut Criterion) {
    for shape in ["uniform", "bursty_same_instant", "far_future_heavy"] {
        let deltas = tape(shape);
        let mut g = c.benchmark_group(format!("scheduler/{shape}"));
        g.throughput(Throughput::Elements(deltas.len() as u64));
        g.bench_function("calendar_queue", |b| {
            b.iter(|| black_box(churn(CalendarQueue::new(), &deltas)))
        });
        g.bench_function("binary_heap", |b| {
            b.iter(|| black_box(churn(HeapQueue::new(), &deltas)))
        });
        g.finish();
    }
}

fn bench_pattern(c: &mut Criterion) {
    // The two per-byte stages of every pattern-mode transfer — the
    // loaders' fill and the sink's verify — beside the file-comparison
    // checksum, at a small and a bulk block size.
    for (label, len) in [("16K", 16 << 10), ("1M", 1 << 20)] {
        let mut buf = vec![0u8; len];
        fill_pattern(&mut buf, 7);
        let mut g = c.benchmark_group(format!("pattern/{label}"));
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function("fill_pattern", |b| {
            b.iter(|| fill_pattern(black_box(&mut buf), black_box(7)))
        });
        g.bench_function("pattern_matches", |b| {
            b.iter(|| assert!(pattern_matches(black_box(&buf), black_box(7))))
        });
        g.bench_function("checksum", |b| b.iter(|| checksum(black_box(&buf))));
        g.finish();
    }
}

fn bench_live_pipeline(c: &mut Criterion) {
    // The full native pipeline, wall clock: loaders pattern-fill, the
    // dispatcher stages blocks through the recycled wire slab, receivers
    // place, the consumer checksums. Bytes/sec here is the number the
    // zero-copy work moves.
    let mut g = c.benchmark_group("live_pipeline");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(8));
    for (label, block, channels, loaders) in
        [("256K_c4", 256 << 10, 4, 2), ("1M_c4", 1 << 20, 4, 2)]
    {
        let total: u64 = 128 << 20;
        let mut cfg = LiveConfig::new(block, channels, total);
        cfg.loaders = loaders;
        cfg.pool_blocks = 32;
        g.throughput(Throughput::Bytes(total));
        g.bench_function(label, |b| {
            b.iter(|| {
                let r = run_live(&cfg);
                assert_eq!(r.checksum_failures, 0);
                black_box(r.blocks)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_scheduler, bench_pattern, bench_live_pipeline);
criterion_main!(benches);
