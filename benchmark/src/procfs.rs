//! CPU time and peak memory of this process, read from `/proc` (pure std).

/// Kernel clock ticks per second as `/proc/<pid>/stat` reports them:
/// `USER_HZ`, fixed at 100 on every Linux ABI.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds from a `/proc/<pid>/stat` line. Covers every
/// thread of the process, including ones that already exited.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    // The command name sits in parentheses and may itself hold spaces or
    // parentheses; fields are counted from the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the name: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// Peak resident set (`VmHWM`) in MB (10^6 bytes) from a
/// `/proc/<pid>/status` document.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: u64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb as f64 * 1024.0 / 1e6)
}

pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    parse_cpu_seconds(&stat).ok_or_else(|| "/proc/self/stat: no utime/stime".to_string())
}

pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_peak_rss_mb(&status).ok_or_else(|| "/proc/self/status: no VmHWM".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured in this container; utime/stime edited to non-zero values.
    const STAT: &str =
        "7023 (focus bench) x) R 6978 7023 6978 0 -1 4194304 81 0 0 0 312 45 0 0 20 0 \
        1 0 2734878 2703360 309 18446744073709551615 94132176740352 94132176760233 \
        140727155387648 0 0 0 0 0 0 0 0 0 17 0 0 0 0 0 0 94132176776240 94132176777856 \
        94133016313856 140727155389922 140727155389942 140727155389942 140727155392491 0";

    const STATUS: &str = "Name:\tcat\nUmask:\t0022\nState:\tR (running)\nVmPeak:\t    3348 kB\n\
        VmSize:\t    3348 kB\nVmHWM:\t    1532 kB\nVmRSS:\t    1532 kB\nThreads:\t1\n";

    #[test]
    fn cpu_seconds_skip_a_name_with_spaces_and_parentheses() {
        assert_eq!(parse_cpu_seconds(STAT), Some(3.57));
        assert_eq!(parse_cpu_seconds("1 (x) R 2 3"), None);
        assert_eq!(parse_cpu_seconds("no parenthesis"), None);
    }

    #[test]
    fn peak_rss_reads_vmhwm_not_vmrss() {
        let mb = parse_peak_rss_mb(STATUS).unwrap();
        assert!((mb - 1.568768).abs() < 1e-9, "{mb}");
        assert_eq!(parse_peak_rss_mb("VmRSS:\t 10 kB\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.5);
    }
}
