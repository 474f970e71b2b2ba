//! Process CPU time and peak memory, read from Linux `/proc` for this
//! process or a child daemon.

use std::path::PathBuf;

/// Clock ticks per second of the `/proc/<pid>/stat` CPU fields. Linux fixes
/// this user-visible `USER_HZ` at 100 regardless of the kernel's tick rate.
const USER_HZ: f64 = 100.0;

fn proc_file(pid: Option<u32>, file: &str) -> PathBuf {
    match pid {
        Some(p) => PathBuf::from(format!("/proc/{p}/{file}")),
        None => PathBuf::from(format!("/proc/self/{file}")),
    }
}

/// User + system CPU seconds of the process (all its threads, live and
/// exited), `None` for `pid`s that are gone or unreadable.
pub fn cpu_s(pid: Option<u32>) -> Option<f64> {
    let stat = std::fs::read_to_string(proc_file(pid, "stat")).ok()?;
    parse_cpu_s(&stat)
}

/// Parses utime + stime out of a `/proc/<pid>/stat` line. The command name
/// may contain spaces and parentheses, so fields are counted from its last
/// closing parenthesis.
fn parse_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // fields[0] is the state (field 3); utime and stime are fields 14 and 15
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn rss_peak_mb(pid: Option<u32>) -> Option<f64> {
    let status = std::fs::read_to_string(proc_file(pid, "status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPUs available to this process (the `nproc` the load is sized for).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_fields_are_found_past_a_hostile_command_name() {
        let stat = "42 (a) b (c)) S 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 1 1 1";
        assert_eq!(parse_cpu_s(stat), Some(3.0));
        assert_eq!(parse_cpu_s("garbage"), None);
    }

    #[test]
    fn this_process_is_readable() {
        assert!(cpu_s(None).is_some());
        assert!(rss_peak_mb(None).unwrap() > 0.0);
    }
}
