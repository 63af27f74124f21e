//! # rftp-bench — experiment harnesses for every table and figure
//!
//! One binary per exhibit in the paper's evaluation:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1` | Table I (testbed description) |
//! | `fig3`   | Fig. 3: RDMA semantics on RoCE (bandwidth + CPU vs block size, I/O depth 1 and 64) |
//! | `fig4`   | Fig. 4: the same on InfiniBand |
//! | `fig8`   | Fig. 8: GridFTP vs RFTP on the RoCE LAN |
//! | `fig9`   | Fig. 9: GridFTP vs RFTP on the InfiniBand LAN |
//! | `fig10`  | Fig. 10: GridFTP vs RFTP on the ANI WAN |
//! | `fig11`  | Fig. 11: RFTP memory-to-memory vs memory-to-disk |
//! | `ablation_*` | design-choice ablations (credits, ramp, depth, QPs, RNR, UD, MR reuse, semantics) |
//!
//! Each binary prints an aligned table; pass `--full` for paper-scale
//! data volumes (hundreds of GB simulated) or `--csv` to also write
//! `results/<name>.csv`. All runs are deterministic.

pub mod live;

use rftp_baselines::{run_gridftp, GridFtpConfig};
use rftp_core::{build_experiment, ConsumeMode, SinkConfig, SourceConfig};
use rftp_netsim::testbed::Testbed;
use rftp_netsim::time::SimDur;
use std::fmt::Write as _;
use std::io::Write as _;

pub const KB: u64 = 1 << 10;
pub const MB: u64 = 1 << 20;
pub const GB: u64 = 1 << 30;

/// Command-line switches shared by all harness binaries.
#[derive(Debug, Clone, Default)]
pub struct HarnessOpts {
    /// Paper-scale volumes (900 GB-class) instead of CI-scale.
    pub full: bool,
    /// Also write `results/<name>.csv`.
    pub csv: bool,
    /// Extra free-form args (panel selectors etc.).
    pub rest: Vec<String>,
}

impl HarnessOpts {
    pub fn parse() -> HarnessOpts {
        let mut o = HarnessOpts::default();
        for a in std::env::args().skip(1) {
            match a.as_str() {
                "--full" => o.full = true,
                "--csv" => o.csv = true,
                other => o.rest.push(other.to_string()),
            }
        }
        o
    }

    /// Per-point transfer volume: CI-scale by default, paper-scale with
    /// `--full` (the paper moved 900 GB per LAN point).
    pub fn volume(&self, ci: u64, paper: u64) -> u64 {
        if self.full {
            paper
        } else {
            ci
        }
    }
}

/// A table being accumulated for stdout + optional CSV.
pub struct Table {
    name: &'static str,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(name: &'static str, header: &[&str]) -> Table {
        Table {
            name,
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Print aligned to stdout; optionally write CSV.
    pub fn emit(&self, opts: &HarnessOpts) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, "{:>w$}  ", c, w = widths[i]);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for r in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(r, &widths));
        }
        print!("{out}");
        if opts.csv {
            std::fs::create_dir_all("results").expect("mkdir results");
            let path = format!("results/{}.csv", self.name);
            let mut f = std::fs::File::create(&path).expect("create csv");
            let _ = writeln!(f, "{}", self.header.join(","));
            for r in &self.rows {
                let _ = writeln!(f, "{}", r.join(","));
            }
            eprintln!("wrote {path}");
        }
    }
}

/// Human block-size label (128K, 4M, ...).
pub fn bs_label(bytes: u64) -> String {
    if bytes >= MB {
        format!("{}M", bytes / MB)
    } else {
        format!("{}K", bytes / KB)
    }
}

/// One RFTP measurement point.
pub struct RftpPoint {
    pub gbps: f64,
    pub client_cpu: f64,
    pub server_cpu: f64,
}

/// Run RFTP memory-to-memory at one (block size, streams) point.
pub fn rftp_point(tb: &Testbed, block: u64, streams: u16, bytes: u64) -> RftpPoint {
    rftp_point_with(tb, block, streams, bytes, ConsumeMode::Null)
}

/// Run RFTP with an explicit consume mode (Fig. 11's disk runs).
pub fn rftp_point_with(
    tb: &Testbed,
    block: u64,
    streams: u16,
    bytes: u64,
    consume: ConsumeMode,
) -> RftpPoint {
    // Pool sizing: the credit loop spans ~2 RTT (data + RC ack, then
    // completion notification + fresh grant), so sustaining line rate
    // needs ~2x BDP of blocks in flight; 4x gives scheduling headroom.
    // (The WriteImm ablation halves this loop — see ablation_notify.)
    let want = (4 * tb.bdp_bytes() / block).clamp(16, 4096) as u32;
    let cfg = SourceConfig::new(block, streams, bytes).with_pool(want);
    let snk = SinkConfig {
        pool_blocks: want,
        ctrl_ring_slots: cfg.ctrl_ring_slots,
        consume,
        ..SinkConfig::default()
    };
    // Large blocks make fragment counts small; keep the default fragment
    // size. Runs are bounded by a 10-hour simulated guard.
    let r = build_experiment(tb, cfg, snk).run(SimDur::from_secs(36_000));
    RftpPoint {
        gbps: r.goodput_gbps,
        client_cpu: r.src_cpu_pct,
        server_cpu: r.dst_cpu_pct,
    }
}

/// One GridFTP measurement point.
pub fn gridftp_point(tb: &Testbed, block: u64, streams: u32, bytes: u64) -> RftpPoint {
    let cfg = GridFtpConfig::tuned(tb, streams, block, bytes);
    let r = run_gridftp(tb, &cfg);
    RftpPoint {
        gbps: r.bandwidth_gbps,
        client_cpu: r.client_cpu_pct,
        server_cpu: r.server_cpu_pct,
    }
}

/// Standard block-size sweep used by Figs. 8–10 (the paper's x-axis).
pub const FTP_BLOCK_SIZES: [u64; 6] = [128 * KB, 512 * KB, 2 * MB, 8 * MB, 16 * MB, 64 * MB];

/// Block sizes for the semantics study (Figs. 3–4).
pub const IO_BLOCK_SIZES: [u64; 8] = [
    4 * KB,
    16 * KB,
    64 * KB,
    128 * KB,
    512 * KB,
    MB,
    4 * MB,
    16 * MB,
];

/// Evaluate `f` over `inputs` on a bounded pool of OS threads, returning
/// results in input order. Each point is an independent deterministic
/// simulation, so parallelism changes wall-clock time and nothing else —
/// this is what makes `--full` paper-scale sweeps practical.
pub fn parallel_map<I, T, F>(inputs: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(inputs.len().max(1));
    let n = inputs.len();
    let jobs: Vec<std::sync::Mutex<Option<I>>> = inputs
        .into_iter()
        .map(|i| std::sync::Mutex::new(Some(i)))
        .collect();
    let results: Vec<std::sync::Mutex<Option<T>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let input = jobs[i].lock().unwrap().take().expect("job taken twice");
                let out = f(input);
                *results[i].lock().unwrap() = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker died"))
        .collect()
}

pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bs_labels() {
        assert_eq!(bs_label(128 * KB), "128K");
        assert_eq!(bs_label(4 * MB), "4M");
        assert_eq!(bs_label(64 * MB), "64M");
    }

    #[test]
    fn parallel_map_preserves_order() {
        let inputs: Vec<u64> = (0..100).collect();
        let out = parallel_map(inputs, |x| x * x);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(empty, |x: u32| x).is_empty());
        assert_eq!(parallel_map(vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_map_runs_real_simulations_consistently() {
        // Two identical points must produce identical results even when
        // computed on different worker threads.
        let tb = rftp_netsim::testbed::roce_lan();
        let out = parallel_map(vec![(), ()], |_| {
            gridftp_point(&tb, 4 * MB, 2, 256 * MB).gbps
        });
        assert_eq!(out[0], out[1]);
    }

    #[test]
    fn harness_volume_picks() {
        let quick = HarnessOpts::default();
        assert_eq!(quick.volume(1, 100), 1);
        let full = HarnessOpts {
            full: true,
            ..HarnessOpts::default()
        };
        assert_eq!(full.volume(1, 100), 100);
    }

    #[test]
    fn table_alignment_and_rows() {
        let mut t = Table::new("test_table", &["a", "longer"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn rftp_and_gridftp_points_are_sane() {
        let tb = rftp_netsim::testbed::roce_lan();
        let r = rftp_point(&tb, 4 * MB, 2, 512 * MB);
        let g = gridftp_point(&tb, 4 * MB, 2, 512 * MB);
        assert!(r.gbps > g.gbps);
        assert!(g.client_cpu > r.server_cpu);
    }
}
