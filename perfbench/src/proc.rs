//! What the operating system says about this process: CPU time consumed
//! and peak resident memory, read from `/proc`. On a system without
//! `/proc` both read 0 and the metrics built on them say so.

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat`. Linux has reported 100 to user space on every
/// architecture since 2.6; without libc there is no `sysconf` to ask.
const USER_HZ: f64 = 100.0;

/// User + system CPU time of the whole process (all threads: the server,
/// the mediator workers and the load generator), in microseconds.
pub fn cpu_time_us() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    parse_cpu_ticks(&stat).map_or(0.0, |ticks| ticks as f64 / USER_HZ * 1e6)
}

/// `utime + stime` from the text of `/proc/<pid>/stat`. The command name
/// (field 2) may itself contain spaces and parentheses, so fields are
/// counted from the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command name come state (3) ... utime (14), stime (15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn rss_peak_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    parse_vm_hwm_kb(&status).map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (a b) c) S 1 2 3 4 5 6 7 8 9 10 700 300 0 0 20 0 5 0 1 2 3";
        assert_eq!(parse_cpu_ticks(stat), Some(1000));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tx\nVmPeak:\t  9 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_sane_on_linux() {
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(rss_peak_mb() > 0.0);
            assert!(cpu_time_us() >= 0.0);
        }
        assert!(nproc() >= 1);
    }
}
