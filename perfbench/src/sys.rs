//! Process accounting and host provenance, read from `/proc` and
//! `/sys` (Linux); every reader degrades to "unknown" elsewhere.

use std::fs;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, 100 on every Linux target this benchmark runs on).
pub const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system, all threads) the process has used so
/// far, from `/proc/self/stat`; `None` where that file is unreadable.
pub fn cpu_seconds() -> Option<f64> {
    parse_stat_cpu(&fs::read_to_string("/proc/self/stat").ok()?)
}

/// User + system ticks of a `/proc/<pid>/stat` line, in seconds. The
/// command name may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the command: state is field 3 of the line, utime 14, stime 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Size string of the unified cache at `level` of CPU 0, as `/sys`
/// reports it (e.g. `2048K`).
pub fn cache_size(level: u32) -> String {
    (0..8)
        .find_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let lvl = fs::read_to_string(format!("{dir}/level")).ok()?;
            let ty = fs::read_to_string(format!("{dir}/type")).ok()?;
            (lvl.trim() == level.to_string() && ty.trim() == "Unified")
                .then(|| fs::read_to_string(format!("{dir}/size")).ok())
                .flatten()
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the checkout in the working directory, read from
/// `.git` without running git; "unknown" outside a git checkout.
pub fn git_commit() -> String {
    let read = |p: &str| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}
