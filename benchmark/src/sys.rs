//! What the harness reads from the operating system: process CPU time,
//! peak resident set, and the CPU count recorded next to every result.

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has consumed, summed over all its threads
/// (live and exited), at nanosecond resolution. `/proc/self/stat` has
/// the same number in 10 ms ticks — 2 % of a `sedov` step.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` with the C layout
    // for this platform, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// `VmHWM` of this process in MB (10^6 bytes): the peak resident set so
/// far.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb as f64 * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let t0 = process_cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_seconds() > t0, "no CPU time for {x}");
    }

    #[test]
    fn vm_hwm_is_parsed_and_present() {
        assert_eq!(
            parse_vm_hwm_kb("Name:\tx\nVmHWM:\t  123456 kB\n"),
            Some(123456)
        );
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
