//! Live pipeline: run the RFTP middleware on REAL operating-system
//! threads — crossbeam-channel queue pairs, real memory placement, the
//! actual Fig. 7 wire encodings — and measure true wall-clock
//! throughput. This is the concurrency proof for the same data
//! structures the simulator exercises in virtual time.
//!
//! ```text
//! cargo run --release --example live_pipeline
//! cargo run --release --example live_pipeline -- --fault drop=0.05
//! ```
//!
//! With `--fault drop=<p>` every dispatched payload is lost with
//! probability `p`; the source's re-sends recover each loss and the
//! run still ends byte-verified (drops/retx columns show the damage).

use rftp_live::{run_live, LiveConfig};

fn parse_fault_drop() -> f64 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match &args[..] {
        [] => return 0.0,
        [flag, spec] if flag == "--fault" => spec.clone(),
        [arg] if arg.starts_with("--fault=") => arg["--fault=".len()..].to_string(),
        _ => usage(&format!("unrecognized arguments: {}", args.join(" "))),
    };
    let Some(p) = spec.strip_prefix("drop=") else {
        usage(&format!("unknown fault spec: {spec}"));
    };
    match p.parse::<f64>() {
        Ok(p) if (0.0..1.0).contains(&p) => p,
        _ => usage(&format!("drop probability must be in [0, 1): {p}")),
    }
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!("usage: live_pipeline [--fault drop=<p>]");
    std::process::exit(2);
}

fn main() {
    let drop_p = parse_fault_drop();
    println!("RFTP middleware on native threads (pattern-verified end to end)\n");
    println!(
        "{:>9} {:>9} {:>8} {:>8} {:>12} {:>10} {:>8} {:>6} {:>6}",
        "block",
        "channels",
        "loaders",
        "blocks",
        "GB/s (real)",
        "ctrl msgs",
        "ooo",
        "drops",
        "retx"
    );
    for (block, channels, loaders) in [
        (256 << 10, 1, 1),
        (256 << 10, 4, 2),
        (1 << 20, 4, 2),
        (1 << 20, 8, 4),
        (4 << 20, 8, 4),
    ] {
        let mut cfg = LiveConfig::new(block, channels, 512 << 20);
        cfg.loaders = loaders;
        cfg.pool_blocks = 32;
        cfg.fault_drop_p = drop_p;
        let r = run_live(&cfg);
        assert_eq!(r.checksum_failures, 0, "integrity violated");
        println!(
            "{:>8}K {:>9} {:>8} {:>8} {:>12.2} {:>10} {:>8} {:>6} {:>6}",
            block >> 10,
            channels,
            loaders,
            r.blocks,
            r.gbytes_per_sec,
            r.ctrl_msgs,
            r.ooo_blocks,
            r.dropped_payloads,
            r.retransmits
        );
    }
    if drop_p > 0.0 {
        println!(
            "\nEvery run moved 512 MB with zero checksum failures despite {:.1}% payload loss.",
            drop_p * 100.0
        );
    } else {
        println!(
            "\nEvery run moved 512 MB with zero checksum failures and strict in-order delivery."
        );
    }
}
