//! Process-level readings from `/proc/self` (Linux only, like the
//! reactor's default backend).

use std::fs;

/// Cores this process may use (1 when undetectable); printed with every
/// result that depends on threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn status_field(field: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {field} field"))
}

/// Peak resident set size of this process so far (`VmHWM`), in MB. Each
/// workload runs in a process of its own, so this is per workload.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM") as f64 / 1024.0
}

/// Live threads of this process.
pub fn threads() -> u64 {
    status_field("Threads")
}

/// User + system CPU time of the whole process so far, in milliseconds.
/// `/proc/self/stat` counts in clock ticks; Linux fixes `USER_HZ` at 100
/// on every architecture this repo builds for, so a tick is 10 ms.
pub fn cpu_ms() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, with `state` as field 3.
    let after_comm = &stat[stat.rfind(')').expect("comm field is parenthesised") + 1..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |field: usize| -> u64 { fields[field - 3].parse().expect("numeric stat field") };
    (ticks(14) + ticks(15)) as f64 * 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        assert!(peak_rss_mb() > 0.0);
        assert!(threads() >= 1);
        assert!(cpu_ms() >= 0.0);
    }
}
