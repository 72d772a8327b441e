//! Machine facts recorded with every result, the process's peak memory,
//! the memory-bandwidth calibration, and small statistics helpers.

use std::time::Instant;

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Size in bytes of the level-3 cache of cpu0, read from sysfs; `None`
/// when sysfs does not list one.
pub fn l3_bytes() -> Option<u64> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    for entry in std::fs::read_dir(base).ok()?.flatten() {
        let dir = entry.path();
        let level = std::fs::read_to_string(dir.join("level")).unwrap_or_default();
        if level.trim() != "3" {
            continue;
        }
        let size = std::fs::read_to_string(dir.join("size")).ok()?;
        return parse_cache_size(size.trim());
    }
    None
}

/// Parses sysfs cache sizes such as `107520K`, `32M` or `1024`.
fn parse_cache_size(s: &str) -> Option<u64> {
    let (digits, scale) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * scale)
}

extern "C" {
    /// glibc: returns free heap memory to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns freed heap memory to the kernel and resets this process's
/// `VmHWM` to its current RSS, so that the next [`peak_rss_mb`] reads the
/// peak since now, over live data only. Without the trim, heap kept after
/// an op that needed more memory than usual raises the reading of every
/// later op. Where the kernel refuses the reset, `VmHWM` keeps the peak
/// since the process started.
pub fn reset_peak_rss() {
    // SAFETY: `malloc_trim` takes a plain integer, touches only the
    // allocator's own free lists, and is safe to call at any time from
    // any thread.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Machine-wide CPU ticks from `/proc/stat`: (all, steal). Steal is time
/// the hypervisor gave the virtual CPUs to something else.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

/// Result of [`write_bandwidth`].
pub struct Bandwidth {
    /// Median single-thread sequential write rate, GB/s (1e9 bytes).
    pub write_gbs: f64,
    /// Size of the array written.
    pub array_bytes: u64,
}

/// Plain single-threaded sequential write over an array of `array_bytes`
/// (pre-faulted once), timed `passes` times; reports the median rate.
pub fn write_bandwidth(array_bytes: u64, passes: usize) -> Bandwidth {
    let words = (array_bytes / 8) as usize;
    let mut buf = vec![0u64; words];
    // First touch faults the pages in; it is not timed.
    fill(&mut buf, 1);
    let mut rates = Vec::with_capacity(passes);
    for pass in 0..passes {
        let t0 = Instant::now();
        fill(&mut buf, pass as u64 + 2);
        let s = t0.elapsed().as_secs_f64();
        rates.push((words * 8) as f64 / s / 1e9);
    }
    std::hint::black_box(&buf);
    Bandwidth {
        write_gbs: median(&rates),
        array_bytes: (words * 8) as u64,
    }
}

fn fill(buf: &mut [u64], v: u64) {
    for x in buf.iter_mut() {
        *x = v;
    }
    std::hint::black_box(buf);
}

/// Median of the values (mean of the middle two for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest percentile, to a tenth, that has at least ten samples
/// above it, with its value (nearest-rank); `None` for fewer than 11
/// samples.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 11 {
        return None;
    }
    // Rank n - 10 leaves exactly ten samples above; round its percentile
    // down to a tenth (in integers), which can only lower the rank.
    let tenths = (n - 10) * 1000 / n;
    let rank = (tenths * n).div_ceil(1000).max(1);
    Some((tenths as f64 / 10.0, v[rank - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("107520K"), Some(107520 << 10));
        assert_eq!(parse_cache_size("32M"), Some(32 << 20));
        assert_eq!(parse_cache_size("4096"), Some(4096));
        assert_eq!(parse_cache_size("x"), None);
    }

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((90.0, 90.0)));
        // 60 samples: p83.3 is the 50th value, with ten above it.
        let v: Vec<f64> = (1..=60).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((83.3, 50.0)));
        let v: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((99.9, 19_980.0)));
    }
}
