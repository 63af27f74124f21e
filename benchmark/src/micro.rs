//! Microbenchmarks (source M): each times one layer's public functions
//! directly, in the traced child, as that layer's ceiling on this host.
//! Every loop runs for a fixed span of wall time, passes its inputs and
//! results through `black_box`, and reports bytes or calls per second of
//! the time actually spent.

use crate::sys::mono_ns;
use rftp_core::pattern::{checksum, fill_pattern};
use rftp_core::wire::{
    encode_stream_frame, BlockAck, CtrlMsg, DataFrameHeader, FrameDecoder, CTRL_SLOT_LEN,
    DATA_FRAME_HEADER_LEN, FRAME_PREFIX_LEN,
};
use rftp_core::{IndexQueue, ReorderBuffer, SlotArena, WeightedFair};
use rftp_live::{FileSink, FileSource};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;

const MIB: usize = 1 << 20;

/// Run `op` in batches of `batch` until `budget_ms` of wall time has
/// passed; returns nanoseconds per call.
fn ns_per_call(budget_ms: u64, batch: u32, mut op: impl FnMut()) -> f64 {
    let deadline = mono_ns() + budget_ms * 1_000_000;
    let (mut calls, t0) = (0u64, mono_ns());
    loop {
        for _ in 0..batch {
            op();
        }
        calls += batch as u64;
        let now = mono_ns();
        if now >= deadline {
            return (now - t0) as f64 / calls as f64;
        }
    }
}

/// GB/s of an operation that touches `bytes` per call.
fn gbytes_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / ns
}

fn loopback_gbytes_per_s(total: usize) -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let writer = std::thread::spawn(move || -> std::io::Result<()> {
        let mut s = TcpStream::connect(addr)?;
        let block = vec![0x5Au8; MIB];
        for _ in 0..total / MIB {
            s.write_all(&block)?;
        }
        Ok(())
    });
    let (mut s, _) = listener.accept()?;
    let mut block = vec![0u8; MIB];
    let t0 = mono_ns();
    for _ in 0..total / MIB {
        s.read_exact(&mut block)?;
        black_box(&block);
    }
    let ns = (mono_ns() - t0) as f64;
    writer.join().expect("loopback writer panicked")?;
    Ok(total as f64 / ns)
}

/// `FileSource::read_block` and `FileSink::write_block` at 1 MiB on a
/// file in `dir`, written once beforehand so its pages exist.
fn store_gbytes_per_s(dir: &Path, budget_ms: u64) -> std::io::Result<(f64, f64)> {
    const BLOCKS: usize = 64;
    let path = dir.join(format!("store-{}.bin", std::process::id()));
    let block = vec![0xC3u8; MIB];
    let sink = FileSink::create(&path, (BLOCKS * MIB) as u64, false)?;
    for i in 0..BLOCKS {
        sink.write_block(&block, (i * MIB) as u64)?;
    }
    let mut i = 0usize;
    let mut err = None;
    let write_ns = ns_per_call(budget_ms, 8, || {
        if let Err(e) = sink.write_block(black_box(&block), ((i % BLOCKS) * MIB) as u64) {
            err = Some(e);
        }
        i += 1;
    });
    let src = FileSource::open(&path, false)?;
    let mut buf = vec![0u8; MIB];
    let read_ns = ns_per_call(budget_ms, 8, || {
        if let Err(e) = src.read_block(&mut buf, MIB, ((i % BLOCKS) * MIB) as u64) {
            err = Some(e);
        }
        black_box(&buf);
        i += 1;
    });
    std::fs::remove_file(&path)?;
    match err {
        Some(e) => Err(e),
        None => Ok((gbytes_per_s(MIB, read_ns), gbytes_per_s(MIB, write_ns))),
    }
}

/// All layer ceilings, as `(per-layer metric, value)`. `budget_ms` is
/// the wall time spent on each loop. `scratch` holds the store file.
pub fn run(budget_ms: u64, scratch: &Path) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();

    // fabric::pattern
    let mut big = vec![0u8; MIB];
    let small_len = 16 * 1024;
    let mut seed = 1u64;
    let fill = ns_per_call(budget_ms, 4, || {
        fill_pattern(black_box(&mut big), seed);
        seed += 1;
    });
    out.push(("pattern.fill_gbytes_per_s", gbytes_per_s(MIB, fill)));
    let sum = ns_per_call(budget_ms, 4, || {
        black_box(checksum(black_box(&big)));
    });
    out.push(("pattern.checksum_gbytes_per_s", gbytes_per_s(MIB, sum)));
    let sum_small = ns_per_call(budget_ms, 64, || {
        black_box(checksum(black_box(&big[..small_len])));
    });
    out.push((
        "pattern.checksum_small_gbytes_per_s",
        gbytes_per_s(small_len, sum_small),
    ));

    // Host ceilings. The copy rotates over more memory than the last
    // level cache holds, like a pool of 1 MiB blocks does.
    let ring: Vec<Vec<u8>> = (0..32).map(|i| vec![i as u8; MIB]).collect();
    let mut k = 0usize;
    let copy = ns_per_call(budget_ms, 4, || {
        big.copy_from_slice(black_box(&ring[k % ring.len()]));
        black_box(&big);
        k += 1;
    });
    out.push(("host.memcpy_gbytes_per_s", gbytes_per_s(MIB, copy)));
    let total = (budget_ms as usize * 2).max(16) * MIB;
    out.push((
        "host.loopback_gbytes_per_s",
        loopback_gbytes_per_s(total).map_err(|e| format!("loopback ceiling: {e}"))?,
    ));

    // core::wire: a 16-entry AckBatch through the stream framing, and
    // the data frame header both ways.
    let acks = CtrlMsg::AckBatch {
        session: 1,
        acks: (0..16)
            .map(|i| BlockAck {
                seq: i,
                slot: i,
                len: MIB as u32,
            })
            .collect(),
    };
    let mut frame = [0u8; FRAME_PREFIX_LEN + CTRL_SLOT_LEN];
    let mut n = 0usize;
    let enc = ns_per_call(budget_ms, 256, || {
        n = encode_stream_frame(black_box(&acks), &mut frame);
        black_box(&frame);
    });
    out.push(("wire.ctrl_encode_ns", enc));
    let mut decoder = FrameDecoder::new();
    let dec = ns_per_call(budget_ms, 256, || {
        decoder.push(black_box(&frame[..n]));
        black_box(decoder.next_frame().expect("frame decodes"));
    });
    out.push(("wire.ctrl_decode_ns", dec));
    let mut hdr_buf = [0u8; DATA_FRAME_HEADER_LEN];
    let mut seq = 0u32;
    let hdr = ns_per_call(budget_ms, 1024, || {
        DataFrameHeader {
            session: 1,
            seq,
            slot: seq & 31,
            len: MIB as u32,
        }
        .encode(&mut hdr_buf);
        black_box(DataFrameHeader::decode(black_box(&hdr_buf)).expect("header decodes"));
        seq = seq.wrapping_add(1);
    });
    out.push(("wire.data_header_ns", hdr));

    // core::pool: one push and one pop of the lock-free index ring.
    let q = IndexQueue::full(32);
    let op = ns_per_call(budget_ms, 1024, || {
        let v = q.try_pop().expect("ring holds 32");
        q.push(black_box(v)).expect("ring has room");
    });
    out.push(("pool.indexqueue_op_ns", op / 2.0));

    // core::reorder: pairs arriving swapped, so every other insert parks
    // and the next one releases a run of two.
    let mut reorder = ReorderBuffer::<u32>::new();
    let mut next = 0u32;
    let ins = ns_per_call(budget_ms, 512, || {
        black_box(reorder.push(next + 1, next + 1));
        black_box(reorder.push(next, next));
        next += 2;
    });
    out.push(("reorder.insert_pop_ns", ins / 2.0));

    // core::arena: the daemon's per-session lease and per-grant arbiter.
    let arena = SlotArena::new(32);
    let lease = ns_per_call(budget_ms, 256, || {
        let slots = arena.lease(8).expect("arena has 32 free");
        arena.release(black_box(&slots));
    });
    out.push(("arena.lease_release_ns", lease));
    let fair = WeightedFair::new(32);
    fair.register(1, 1);
    fair.register(2, 8);
    let wf = ns_per_call(budget_ms, 1024, || {
        let got = fair.allow(1, black_box(2));
        fair.release(1, got);
    });
    out.push(("arena.weightedfair_ns", wf));

    // live::store
    let (read, write) =
        store_gbytes_per_s(scratch, budget_ms).map_err(|e| format!("store ceiling: {e}"))?;
    out.push(("store.read_block_gbytes_per_s", read));
    out.push(("store.write_block_gbytes_per_s", write));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_grows_with_work() {
        // black_box is a hint: check the loop was not optimised away by
        // confirming a larger input takes longer per call.
        let small = vec![1u8; 4 * 1024];
        let large = vec![1u8; 256 * 1024];
        let a = ns_per_call(20, 16, || {
            black_box(checksum(black_box(&small)));
        });
        let b = ns_per_call(20, 16, || {
            black_box(checksum(black_box(&large)));
        });
        assert!(b > a * 8.0, "checksum of 64x the bytes took {b} vs {a} ns");
    }

    #[test]
    fn every_ceiling_is_positive() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).expect("create out/");
        let out = run(5, &dir).expect("microbenchmarks run");
        assert_eq!(out.len(), 14);
        for (name, v) in out {
            assert!(v.is_finite() && v > 0.0, "{name} = {v}");
        }
    }
}
