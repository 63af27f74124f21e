//! End-to-end tests of the disk-to-disk fast path: real files through
//! the real thread pipeline, byte integrity checked at the file level
//! (the sink only validates headers when it writes to a file).

use rftp_core::pattern::checksum;
use rftp_core::wire::PAYLOAD_HEADER_LEN as HDR;
use rftp_live::{try_run_live, FileSink, FileSource, LiveConfig, SlotBuf, STORE_ALIGN};
use std::path::PathBuf;

/// Scratch directory: tmpfs when the host has it (fast, and the medium
/// the bench gates run on), the system temp dir otherwise.
fn scratch(name: &str) -> PathBuf {
    let base = PathBuf::from("/dev/shm");
    let dir = if base.is_dir() {
        base
    } else {
        std::env::temp_dir()
    };
    dir.join(format!("rftp_e2e_{}_{name}", std::process::id()))
}

/// Deterministic, position-dependent bytes — NOT the pipeline's seeded
/// pattern, so a test passing cannot be the consumer's pattern checksum
/// accidentally covering for broken file plumbing.
fn write_source(path: &PathBuf, total: u64) {
    let mut data = Vec::with_capacity(total as usize);
    let mut x = 0x9E3779B97F4A7C15u64 ^ total;
    while (data.len() as u64) < total {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        data.extend_from_slice(&x.to_le_bytes());
    }
    data.truncate(total as usize);
    std::fs::write(path, &data).expect("write source");
}

fn file_checksum(path: &PathBuf) -> (u64, u64) {
    let data = std::fs::read(path).expect("read back");
    (data.len() as u64, checksum(&data))
}

fn cleanup(paths: &[&PathBuf]) {
    for p in paths {
        std::fs::remove_file(p).ok();
    }
}

/// The acceptance-criteria transfer: >= 256 MiB, file to file, byte
/// identical. Uses an unaligned total so the tail block exercises the
/// buffered fallback even when O_DIRECT engages.
#[test]
fn transfer_256mib_is_byte_identical() {
    let total: u64 = (256 << 20) + 12_345;
    let src = scratch("big_src");
    let dst = scratch("big_dst");
    write_source(&src, total);

    let mut cfg = LiveConfig::new(256 << 10, 8, total);
    cfg.loaders = 2;
    cfg.pool_blocks = 32;
    cfg.src_file = Some(src.clone());
    cfg.dst_file = Some(dst.clone());
    let r = try_run_live(&cfg).expect("transfer failed");
    assert_eq!(r.bytes, total);
    assert_eq!(r.checksum_failures, 0, "header validation failed");
    assert!(r.stages.flush_ns > 0.0, "write-behind clock never ticked");

    assert_eq!(
        file_checksum(&src),
        file_checksum(&dst),
        "destination must be byte-identical to source"
    );
    cleanup(&[&src, &dst]);
}

/// Satellite: seeded-shuffle out-of-order delivery into the file sink.
/// Sparse positioned writes are the reassembly, so any delivery order
/// must produce the same bytes as in-order delivery and as the source.
#[test]
fn shuffled_placement_matches_in_order_and_source() {
    let block = 4096usize;
    let blocks = 64u64;
    let total = blocks * block as u64 + 777; // unaligned tail block
    let src = scratch("shuffle_src");
    let in_order = scratch("shuffle_inorder");
    let shuffled = scratch("shuffle_shuffled");
    write_source(&src, total);
    let data = std::fs::read(&src).unwrap();

    let order: Vec<usize> = {
        // Fisher–Yates with a fixed-seed xorshift: same shuffle every run.
        let mut order: Vec<usize> = (0..data.len().div_ceil(block)).collect();
        let mut x = 0xC0FFEEu64;
        for i in (1..order.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        order
    };
    assert_ne!(
        order,
        (0..order.len()).collect::<Vec<_>>(),
        "shuffle degenerate"
    );

    for (path, seqs) in [
        (&in_order, (0..order.len()).collect::<Vec<_>>()),
        (&shuffled, order),
    ] {
        let sink = FileSink::create(path, total, true).expect("create sink");
        for seq in seqs {
            let off = seq * block;
            let end = (off + block).min(data.len());
            sink.write_block(&data[off..end], off as u64)
                .expect("pwrite");
        }
        sink.sync().expect("fdatasync");
    }

    let want = file_checksum(&src);
    assert_eq!(
        file_checksum(&in_order),
        want,
        "in-order placement broke bytes"
    );
    assert_eq!(
        file_checksum(&shuffled),
        want,
        "shuffled placement broke bytes"
    );
    cleanup(&[&src, &in_order, &shuffled]);
}

/// Satellite: fault injection x file sink. Retransmit duplicates must be
/// discarded by the placement-bitmap claim *before* the pwrite — a
/// double-write could land after the slot was re-granted and corrupt the
/// file, so byte identity under heavy loss is the proof the claim gates
/// the flush.
#[test]
fn fault_drops_never_double_write_the_file() {
    let total: u64 = 8 << 20;
    let src = scratch("fault_src");
    let dst = scratch("fault_dst");
    write_source(&src, total);

    let mut cfg = LiveConfig::new(32 << 10, 2, total);
    cfg.pool_blocks = 8;
    cfg.loaders = 2;
    cfg.fault_drop_p = 0.2;
    cfg.fault_seed = 7;
    cfg.retx_timeout = std::time::Duration::from_millis(25);
    cfg.src_file = Some(src.clone());
    cfg.dst_file = Some(dst.clone());
    let r = try_run_live(&cfg).expect("transfer failed");
    assert!(r.dropped_payloads >= 1, "fault injector never fired");
    assert!(
        r.retransmits >= r.dropped_payloads,
        "every drop needs a re-send"
    );
    assert_eq!(
        file_checksum(&src),
        file_checksum(&dst),
        "file corrupted under loss: a duplicate must have out-raced its claim"
    );
    cleanup(&[&src, &dst]);
}

/// readahead = 0 (no disk/network overlap — the ablation leg of the
/// bench gate) must still complete and produce identical bytes.
#[test]
fn zero_readahead_serializes_but_completes() {
    let total: u64 = 4 << 20;
    let src = scratch("ra0_src");
    let dst = scratch("ra0_dst");
    write_source(&src, total);

    let mut cfg = LiveConfig::new(64 << 10, 4, total);
    cfg.src_file = Some(src.clone());
    cfg.dst_file = Some(dst.clone());
    cfg.readahead = 0;
    let r = try_run_live(&cfg).expect("transfer failed");
    assert_eq!(r.blocks, 64);
    assert_eq!(file_checksum(&src), file_checksum(&dst));
    cleanup(&[&src, &dst]);
}

/// `--direct` must work wherever the test runs: either O_DIRECT engages
/// or the buffered fallback serves the transfer — bytes identical in
/// both cases, and the report says which path was taken.
#[test]
fn direct_flag_degrades_gracefully() {
    let total: u64 = (4 << 20) + 999; // force an unaligned tail
    let src = scratch("direct_src");
    let dst = scratch("direct_dst");
    write_source(&src, total);

    let mut cfg = LiveConfig::new(256 << 10, 4, total);
    cfg.src_file = Some(src.clone());
    cfg.dst_file = Some(dst.clone());
    cfg.direct_io = true;
    let r = try_run_live(&cfg).expect("transfer failed");
    // Either outcome is legal; the flag must never break the bytes.
    let _ = r.direct_io_active;
    assert_eq!(file_checksum(&src), file_checksum(&dst));
    cleanup(&[&src, &dst]);
}

/// Pattern source into a file sink: the mixed mode (memory-to-disk).
#[test]
fn pattern_to_file_writes_the_seeded_pattern() {
    let total: u64 = 2 << 20;
    let dst = scratch("p2f_dst");
    let mut cfg = LiveConfig::new(64 << 10, 2, total);
    cfg.dst_file = Some(dst.clone());
    let r = try_run_live(&cfg).expect("transfer failed");
    assert_eq!(r.checksum_failures, 0);

    // Rebuild the expected pattern stream and compare.
    let data = std::fs::read(&dst).unwrap();
    assert_eq!(data.len() as u64, total);
    let mut want = vec![0u8; total as usize];
    for (seq, chunk) in want.chunks_mut(64 << 10).enumerate() {
        rftp_core::pattern::fill_pattern(chunk, rftp_core::engine::pattern_seed(1, seq as u32));
    }
    assert_eq!(
        checksum(&data),
        checksum(&want),
        "sink file must hold the pattern"
    );
    cleanup(&[&dst]);
}

/// A short source file is a storage error, not a panic.
#[test]
fn short_source_is_an_error() {
    let src = scratch("short_src");
    write_source(&src, 4096);
    let mut cfg = LiveConfig::new(4096, 1, 8192);
    cfg.src_file = Some(src.clone());
    let err = try_run_live(&cfg).expect_err("short source must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    cleanup(&[&src]);
}

/// Its twin on the other half: a destination that cannot be created is
/// reported as the sink's own error, not as the broken pipe the source
/// half sees once the sink is gone.
#[test]
fn unwritable_destination_is_an_error() {
    let dst = scratch("no_such_dir").join("dst");
    let mut cfg = LiveConfig::new(4096, 1, 8192);
    cfg.dst_file = Some(dst);
    let err = try_run_live(&cfg).expect_err("unwritable destination must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "{err}");
}

/// File-to-file with O_DIRECT-compatible aligned buffers end to end:
/// a SlotBuf round trip through FileSource/FileSink at the store layer,
/// plus alignment invariants the pipeline relies on.
#[test]
fn store_layer_slotbuf_roundtrip() {
    let src = scratch("layer_src");
    write_source(&src, 64 * 1024);
    let reader = FileSource::open(&src, true).expect("open");
    let mut buf = SlotBuf::new(16 * 1024);
    assert_eq!(buf[HDR..].as_ptr() as usize % STORE_ALIGN, 0);
    reader
        .read_block(&mut buf[HDR..], 16 * 1024, 16 * 1024)
        .expect("read");
    let data = std::fs::read(&src).unwrap();
    assert_eq!(&buf[HDR..HDR + 16 * 1024], &data[16 * 1024..32 * 1024]);
    cleanup(&[&src]);
}
