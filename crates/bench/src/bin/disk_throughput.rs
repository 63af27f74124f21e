//! Disk-to-disk fast-path gate: real files through the live pipeline
//! (both halves in this process — the `inproc` rung of
//! `rftp_bench::live`, which also runs, writes and gates every point).
//!
//! Three experiments, one JSON:
//!
//! * **tmpfs sweep** (`--dir`, default `/dev/shm`): what does the
//!   storage plumbing itself cost? File-to-file over loaders × block
//!   size at 8 channels, beside a pattern-mode (memory-to-memory)
//!   reference at 256K/8ch, best of 3 each. Their ratio rides on the
//!   `file-best` row as `file_over_pattern` and is not gated: on this
//!   host it is a measurement of the scheduler (DESIGN.md §9).
//! * **read-ahead contrast** (paced source): does read-ahead actually
//!   buy overlap? The source is paced to a modeled device rate (the
//!   same `StoreConfig` rate notion the sim harness uses) chosen near
//!   the pipeline's own per-block cost — the regime where overlap
//!   matters most. Gate: full read-ahead ≥ 1.3× over `readahead = 0`.
//!   A modeled rate is used because a host-cached virtual disk gives no
//!   stable latency to hide (the raw `O_DIRECT` numbers are still
//!   recorded, unguarded, from the real-disk runs below).
//! * **real disk** (`--disk-dir`, default `target/disk_bench`): the
//!   same contrast with `O_DIRECT` against the actual backing device,
//!   informational.
//!
//! `--quick` runs a reduced volume and reports without enforcing (CI
//! smoke); the committed `BENCH_disk.json` comes from a full run.

use rftp_bench::live::{finish, Args, Gates, Json, Op, Series, Transport};
use rftp_bench::MB;
use rftp_live::LiveConfig;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const CHANNELS: usize = 8;
const GATE_BLOCK: u64 = 256 * 1024;
const GATE_LOADERS: usize = 2;
const GATE_READAHEAD_SPEEDUP: f64 = 1.3;
/// Modeled source-device rate for the read-ahead contrast, bytes/sec.
/// Near the pipeline's own per-block service rate: a much faster device
/// leaves nothing to overlap, a much slower one drowns the pipeline in
/// read time — either way the contrast shrinks. 0.7 GB/s ≈ a mid-range
/// NVMe against this pipeline's ~1.5 GB/s memory path.
const PACED_RATE: f64 = 0.7e9;

/// Deterministic source bytes (not the pipeline's seeded pattern, so a
/// broken read path cannot be masked by pattern fill).
fn write_source(path: &Path, total: u64) {
    let mut data = Vec::with_capacity(total as usize);
    let mut x = 0xD15C_BE0E_u64 ^ total;
    while (data.len() as u64) < total {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        data.extend_from_slice(&x.to_le_bytes());
    }
    data.truncate(total as usize);
    std::fs::write(path, &data).expect("write bench source");
    // Flush the dirty pages now: an O_DIRECT reader otherwise forces
    // synchronous writeback block by block, and whichever contrast run
    // goes first would pay for the whole file.
    if let Ok(f) = std::fs::File::open(path) {
        f.sync_all().ok();
    }
}

/// Run one point: the gate geometry (256K × 8 channels, 2 loaders,
/// 32-block pools, whole-pool read-ahead) as `tune` alters it, over
/// `files` = (source, destination) or pattern data.
fn point(
    name: &str,
    n: usize,
    (block, total): (u64, u64),
    files: Option<(&Path, &Path)>,
    tune: impl FnOnce(&mut LiveConfig),
) -> Series {
    let mut cfg = LiveConfig::new(block as usize, CHANNELS, total);
    cfg.pool_blocks = 32;
    cfg.loaders = GATE_LOADERS;
    cfg.src_file = files.map(|f| f.0.to_path_buf());
    cfg.dst_file = files.map(|f| f.1.to_path_buf());
    tune(&mut cfg);
    Series::run(name, n, Transport::Inproc, &cfg, None, 0)
}

fn main() -> ExitCode {
    let args = Args::parse(&["--quick", "--out", "--dir", "--disk-dir"]);
    let tmpfs_dir = args.dir.clone().unwrap_or_else(|| {
        if Path::new("/dev/shm").is_dir() {
            "/dev/shm".into()
        } else {
            std::env::temp_dir()
        }
    });
    let disk_dir = args.disk_dir.clone();
    let disk_dir = disk_dir.unwrap_or_else(|| PathBuf::from("target/disk_bench"));
    let total = if args.quick { 32 * MB } else { 256 * MB };
    let reps = if args.quick { 1 } else { 3 };
    println!(
        "disk fast-path sweep: {} MB per run{}  (tmpfs: {}, disk: {})\n",
        total / MB,
        if args.quick { " (quick)" } else { "" },
        tmpfs_dir.display(),
        disk_dir.display()
    );
    let bench_files = |dir: &Path| {
        let file = |end: &str| dir.join(format!("rftp_bench_{end}_{}.bin", std::process::id()));
        write_source(&file("src"), total);
        (file("src"), file("dst"))
    };
    let mut results = Vec::new();
    let gate_point = (GATE_BLOCK, total);
    let (src, dst) = bench_files(&tmpfs_dir);
    let files = Some((src.as_path(), dst.as_path()));

    // ---- tmpfs sweep: plumbing cost across loaders x block size ----
    for block in [64 * 1024u64, 256 * 1024, 1024 * 1024] {
        for loaders in [1usize, 2, 4] {
            let with_loaders = |c: &mut LiveConfig| c.loaders = loaders;
            point("tmpfs-file", 1, (block, total), files, with_loaders).record(&mut results);
        }
    }

    // ---- file-to-file beside pattern at the reference point ----
    let pattern = point("tmpfs-pattern", reps, gate_point, None, |_| {}).record(&mut results);
    let mut file = point("tmpfs-file-best", reps, gate_point, files, |_| {});
    let file_over_pattern = Json::num(file.gbps() / pattern.gbps(), 4);
    file.labels = file.labels.with("file_over_pattern", file_over_pattern);
    file.record(&mut results);

    // ---- the gate: read-ahead contrast against a modeled device ----
    let [ra_full, ra_zero] = [("paced-ra-full", u32::MAX), ("paced-ra-0", 0)].map(|(name, ra)| {
        let paced = |c: &mut LiveConfig| (c.readahead, c.src_rate) = (ra, Some(PACED_RATE));
        point(name, reps, gate_point, files, paced)
            .record(&mut results)
            .gbps()
    });
    std::fs::remove_file(&src).ok();
    std::fs::remove_file(&dst).ok();

    // ---- real disk, O_DIRECT: same contrast, informational ----
    std::fs::create_dir_all(&disk_dir).expect("create disk bench dir");
    let (src, dst) = bench_files(&disk_dir);
    for (name, ra) in [("disk-ra-full", u32::MAX), ("disk-ra-0", 0)] {
        let direct = |c: &mut LiveConfig| (c.readahead, c.direct_io) = (ra, true);
        point(name, 1, gate_point, Some((&src, &dst)), direct).record(&mut results);
    }
    std::fs::remove_file(&src).ok();
    std::fs::remove_file(&dst).ok();

    let mut gates = Gates::new(args.quick);
    println!();
    gates.check(
        "readahead_speedup",
        ra_full / ra_zero,
        Op::Ge,
        GATE_READAHEAD_SPEEDUP,
    );
    let config = Json::obj()
        .with("paced_rate_bytes_per_sec", Json::num(PACED_RATE, 0))
        .with("tmpfs_dir", tmpfs_dir.display().to_string())
        .with("disk_dir", disk_dir.display().to_string());
    finish(&args, "disk", config, results, gates)
}
