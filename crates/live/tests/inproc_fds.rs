//! The in-process pair opens sockets for its links; a transfer, clean or
//! failed, gives every descriptor back. One test in this binary, so no
//! other test opens or closes descriptors while it counts.

use rftp_live::{try_run_live, LiveConfig};

/// Descriptors this process holds open.
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

#[test]
fn in_process_runs_leave_no_descriptor_behind() {
    let before = open_fds();
    let cfg = LiveConfig::new(64 * 1024, 4, 4 << 20);
    for _ in 0..3 {
        let r = try_run_live(&cfg).expect("clean run");
        assert_eq!(r.checksum_failures, 0);
    }
    let mut failing = cfg.clone();
    let missing = std::env::temp_dir().join(format!("rftp-no-dir-{}", std::process::id()));
    failing.dst_file = Some(missing.join("x"));
    for _ in 0..3 {
        try_run_live(&failing).expect_err("the sink cannot open its file");
    }
    assert_eq!(open_fds(), before, "descriptors leaked");
}
