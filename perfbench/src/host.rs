//! Readings of the benchmark process from `/proc` (Linux).

use std::fs;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn status_kb(field: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Threads of this process right now.
pub fn threads() -> u64 {
    status_kb("Threads:")
}

/// Peak resident set size (VmHWM) in kB.
pub fn vm_hwm_kb() -> u64 {
    status_kb("VmHWM:")
}

/// Time this process's threads have spent runnable but waiting for a CPU,
/// in ns (second field of each `/proc/self/task/*/schedstat`).
pub fn runqueue_wait_ns() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .filter_map(|t| fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .sum()
}
