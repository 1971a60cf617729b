//! Pure-std process-memory introspection: peak resident-set size.
//!
//! Linux keeps the high-water mark of a process's resident set in
//! `/proc/self/status` as `VmHWM` (kilobytes). Reading it costs one small
//! pseudo-file read — cheap enough to sample at stage boundaries —
//! and needs no dependency. On every other platform the sampler reports
//! `None` and the `mem.peak_rss_bytes` gauge is simply never set.

/// The process's peak resident-set size in bytes (`VmHWM`), or `None`
/// when the platform does not expose it.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        #[expect(
            clippy::disallowed_methods,
            reason = "kernel pseudo-file: /proc/self/status is a few hundred bytes by \
                      construction; the kernel, not user input, bounds it"
        )]
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        parse_vm_hwm(&status)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Extracts `VmHWM: <n> kB` from a `/proc/<pid>/status` document.
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
fn parse_vm_hwm(status: &str) -> Option<u64> {
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb.saturating_mul(1024));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_vm_hwm_line() {
        let status = "Name:\tfocus\nVmPeak:\t  123 kB\nVmHWM:\t   2048 kB\nThreads:\t4\n";
        assert_eq!(parse_vm_hwm(status), Some(2048 * 1024));
    }

    #[test]
    fn missing_or_malformed_hwm_is_none() {
        assert_eq!(parse_vm_hwm("Name:\tfocus\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tnonsense kB\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_sampler_reports_a_positive_peak() {
        let bytes = peak_rss_bytes().expect("/proc/self/status has VmHWM");
        assert!(bytes > 0);
    }
}
