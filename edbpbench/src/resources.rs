//! The calling thread's CPU time and this process's peak resident set.

/// Peak resident set (`VmHWM`) in KiB from the text of a
/// `/proc/<pid>/status` file.
pub fn parse_status_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_status_hwm_kib(&status).unwrap_or(0) as f64 / 1024.0
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU seconds (user plus system) the calling thread has used so far.
///
/// Unlike `/proc/thread-self/schedstat`, which the kernel refreshes only at
/// scheduler ticks, this clock includes the slice now running, so it can
/// time calls of a few microseconds.
pub fn thread_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, laid out as the C struct on 64-bit Linux.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_hwm_is_read_in_kib() {
        let status =
            "Name:\tedbpbench\nVmPeak:\t  20000 kB\nVmHWM:\t   10240 kB\nVmRSS:\t 9000 kB\n";
        assert_eq!(parse_status_hwm_kib(status), Some(10240));
        assert_eq!(parse_status_hwm_kib("Name:\tx\n"), None);
        assert_eq!(parse_status_hwm_kib("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn thread_cpu_time_counts_this_threads_work_only() {
        let before = thread_cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        assert_ne!(std::hint::black_box(x), 1);
        let busy = thread_cpu_seconds() - before;
        assert!(busy > 0.0);
        let sleeping = thread_cpu_seconds();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(thread_cpu_seconds() - sleeping < 0.025);
    }

    #[test]
    fn peak_rss_covers_a_touched_allocation() {
        let v = vec![1u8; 32 << 20];
        assert_eq!(std::hint::black_box(&v)[12345], 1);
        assert!(peak_rss_mib() >= 32.0);
    }
}
