//! Host-side resource readings from `/proc/self`.

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// reports them in `USER_HZ`, which is 100 on every architecture the
/// benchmark runs on; without libc there is no `sysconf` to ask.
const USER_HZ: f64 = 100.0;

/// Peak resident set size in KiB from the text of `/proc/self/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// User + system CPU seconds of all threads from the text of
/// `/proc/self/stat`. The command name (field 2) may contain spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); utime and stime are
    // fields 14 and 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak RSS of this process so far, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// CPU seconds this process has consumed so far.
pub fn cpu_seconds() -> Option<f64> {
    parse_cpu_seconds(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_from_a_status_fixture() {
        let status =
            "Name:\tduetbench\nVmPeak:\t  300000 kB\nVmHWM:\t  250880 kB\nVmRSS:\t  1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(250_880));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots kB\n"), None);
    }

    #[test]
    fn cpu_seconds_survive_a_hostile_command_name() {
        // comm = "a) R (b": spaces and parentheses inside field 2.
        let stat = "4242 (a) R (b) S 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    271 33 0 0 20 0 3 0 12345 1000000 2000 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some(3.04));
        assert_eq!(parse_cpu_seconds("4242 (x) S 1 2 3"), None);
        assert_eq!(parse_cpu_seconds("no parenthesis"), None);
    }

    #[test]
    fn live_readings_are_available_on_linux() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
        assert!(cpu_seconds().is_some());
    }
}
