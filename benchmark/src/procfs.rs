//! Process CPU time and peak memory, read from `/proc/self`.

/// Clock ticks per second of `utime`/`stime` in `/proc/<pid>/stat`:
/// `USER_HZ`, which Linux fixes at 100 on every mainstream target.
const TICKS_PER_SECOND: f64 = 100.0;

/// `(utime, stime)` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may itself contain spaces and parentheses,
/// so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// The value of a `Key:   <n> kB` line in the text of
/// `/proc/<pid>/status`, in KiB.
pub fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// User + system CPU seconds this process (all threads) has consumed.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let (utime, stime) = parse_stat_cpu_ticks(&stat).expect("utime/stime in /proc/self/stat");
    (utime + stime) as f64 / TICKS_PER_SECOND
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_kib(&status, "VmHWM").expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let stat = "4242 (a b) c) S 1 4242 4242 0 -1 4194560 917 0 0 0 \
                    1234 56 0 0 20 0 3 0 100 1000 10 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some((1234, 56)));
        assert_eq!(parse_stat_cpu_ticks("no paren here"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_lines_parse_to_kib() {
        let status = "Name:\tbench\nVmPeak:\t  204800 kB\nVmHWM:\t   51200 kB\nThreads:\t3\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(51200));
        assert_eq!(parse_status_kib(status, "VmPeak"), Some(204800));
        assert_eq!(parse_status_kib(status, "VmRSS"), None);
        assert_eq!(parse_status_kib(status, "Threads"), None);
    }

    #[test]
    fn live_readings_are_positive() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
