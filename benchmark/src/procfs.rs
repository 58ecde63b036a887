//! Host counters from `/proc/self` (no `libc` crate is available offline).

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/self/stat`. Fixed at 100
/// on every Linux ABI Rust targets; `sysconf(_SC_CLK_TCK)` would need libc.
const TICKS_PER_SEC: f64 = 100.0;

/// What the kernel has accounted to this process so far.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HostCounters {
    /// CPU seconds in user mode.
    pub user_s: f64,
    /// CPU seconds in kernel mode.
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: u64,
    /// Peak resident set (`VmHWM`), in kB.
    pub vm_hwm_kb: u64,
    /// Current resident set (`VmRSS`), in kB.
    pub vm_rss_kb: u64,
}

/// Extracts `(minflt, utime, stime)` from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may itself contain spaces and parentheses,
/// so fields are counted from the last `)`.
pub fn parse_stat(text: &str) -> Option<(u64, u64, u64)> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    // `rest` starts at field 3 (state): minflt is field 10, utime 14, stime 15.
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some((field(10)?, field(14)?, field(15)?))
}

/// Extracts a `kB` value (`VmHWM`, `VmRSS`, …) from `/proc/<pid>/status`.
pub fn parse_status_kb(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
}

/// Reads this process's counters; zeros where `/proc` is unreadable.
pub fn read_self() -> HostCounters {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let (minor_faults, utime, stime) = parse_stat(&stat).unwrap_or_default();
    HostCounters {
        user_s: utime as f64 / TICKS_PER_SEC,
        sys_s: stime as f64 / TICKS_PER_SEC,
        minor_faults,
        vm_hwm_kb: parse_status_kb(&status, "VmHWM").unwrap_or(0),
        vm_rss_kb: parse_status_kb(&status, "VmRSS").unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_a_hostile_command_name() {
        let text = "4242 (a b) c)) R 1 4242 4242 0 -1 4194304 333012 0 7 0 213 47 0 0 20 0 1 0 \
                    100 200 300";
        assert_eq!(parse_stat(text), Some((333_012, 213, 47)));
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn status_keys_parse_in_kb() {
        let text = "Name:\tbenchmark\nVmHWM:\t 1275904 kB\nVmRSS:\t    3320 kB\n";
        assert_eq!(parse_status_kb(text, "VmHWM"), Some(1_275_904));
        assert_eq!(parse_status_kb(text, "VmRSS"), Some(3_320));
        assert_eq!(parse_status_kb(text, "VmSwap"), None);
    }

    #[test]
    fn live_read_sees_this_process() {
        let c = read_self();
        assert!(c.vm_hwm_kb > 0 && c.vm_rss_kb > 0);
        assert!(c.vm_hwm_kb >= c.vm_rss_kb);
    }
}
