//! The three things the benchmark asks the operating system directly:
//! a monotonic clock whose readings mean the same in parent and child,
//! the process CPU clock (all threads), and the peak resident set.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clk: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_MONOTONIC: i32 = 1;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

fn read_clock(clk: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target this repository builds for),
    // and both clock ids are valid constants, so the call only writes
    // those 16 bytes.
    let rc = unsafe { clock_gettime(clk, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clk}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// `CLOCK_MONOTONIC` in nanoseconds. System-wide, so a reading taken in
/// the parent just before it spawns a child can be subtracted from one
/// taken in the child: that is how set-up time includes process start.
pub fn mono_ns() -> u64 {
    read_clock(CLOCK_MONOTONIC)
}

/// CPU time this process has consumed, all threads, in nanoseconds.
pub fn cpu_ns() -> u64 {
    read_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// Peak resident set of this process (`VmHWM`), in KiB.
pub fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_and_rss_reads() {
        let (m0, c0) = (mono_ns(), cpu_ns());
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(mono_ns() > m0);
        assert!(cpu_ns() > c0);
        assert!(vm_hwm_kib().expect("VmHWM") > 0);
    }
}
