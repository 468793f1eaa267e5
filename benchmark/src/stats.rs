//! Order statistics, the CPU clocks and the `/proc` reader behind the CPU
//! and memory metrics.

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count); sorts in
/// place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// `(p50, p99)` of a batch of samples; sorts in place.
pub fn p50_p99(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    (percentile(samples, 0.50), percentile(samples, 0.99))
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

// From the C library `std` already links; the `libc` crate is not among
// the vendored ones.
extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec`.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User + system CPU time consumed so far by every thread of this
/// process, finished ones included, in nanoseconds. The scheduler's own
/// run-time sum: `/proc/self/stat` reports the same figure cut to 10 ms
/// ticks, which on a short region reads the same run after run.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU time consumed so far by the calling thread, in
/// nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Confine the calling thread, and every thread it starts from now on,
/// to the first CPU it is allowed on; returns that CPU, or `None` (and
/// changes nothing) if the kernel refuses.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is writable and `size` bytes long.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().position(|&w| w != 0)?;
    let bit = mask[word].trailing_zeros();
    mask = [0; 16];
    mask[word] = 1 << bit;
    // SAFETY: `mask` is readable and `size` bytes long.
    (unsafe { sched_setaffinity(0, size, mask.as_ptr()) } == 0).then_some(word * 64 + bit as usize)
}

/// `VmHWM` in kB from the text of `/proc/self/status`.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn p50_p99_sorts_first() {
        let mut v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(p50_p99(&mut v), (100.0, 198.0));
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tdfbench\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(51200));
        assert_eq!(vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn peak_rss_is_read_live() {
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn cpu_clocks_advance_with_work_and_the_process_covers_the_thread() {
        let (process0, thread0) = (process_cpu_ns(), thread_cpu_ns());
        assert!(thread0 > 0 && process0 >= thread0);
        let mut x = 1u64;
        while thread_cpu_ns() - thread0 < 2_000_000 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(process_cpu_ns() - process0 >= 2_000_000);
    }

    #[test]
    fn pinning_leaves_one_allowed_cpu() {
        // On a thread of its own, so the other tests keep their CPUs.
        let (cpu, left) = std::thread::spawn(|| {
            let cpu = pin_to_one_cpu();
            (
                cpu,
                std::thread::available_parallelism().map_or(0, usize::from),
            )
        })
        .join()
        .expect("pinning does not panic");
        assert!(cpu.is_some());
        assert_eq!(left, 1);
    }
}
