//! What `/proc` says about this process and the machine.

use std::fs;

fn status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Peak resident set (`VmHWM`) of this process, in kB.
pub fn self_hwm_kb() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_kb(&s, "VmHWM:"))
        .unwrap_or(0)
}

/// Restarts the peak at the current resident set, so that what the
/// harness allocated while preparing inputs (and has freed since) is
/// not charged to the program. Where the kernel refuses, the peak
/// simply keeps covering the preparation too.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Summed `VmHWM` of the live `swbfs-rankd` children of this process,
/// found by `PPid` — call while the fabric is up.
pub fn rankd_children_hwm_kb() -> u64 {
    let me = std::process::id().to_string();
    let Ok(dir) = fs::read_dir("/proc") else {
        return 0;
    };
    dir.flatten()
        .filter(|e| {
            e.file_name()
                .to_string_lossy()
                .bytes()
                .all(|b| b.is_ascii_digit())
        })
        .filter_map(|e| fs::read_to_string(e.path().join("status")).ok())
        .filter(|s| {
            let field = |k: &str| s.lines().find_map(|l| l.strip_prefix(k)).map(str::trim);
            field("PPid:") == Some(me.as_str()) && field("Name:") == Some("swbfs-rankd")
        })
        .filter_map(|s| status_kb(&s, "VmHWM:"))
        .sum()
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Confines this process, and with it every thread and `swbfs-rankd` it
/// starts later, to the highest-numbered CPU it may run on; returns that
/// CPU, or `None` where the kernel refuses (the run then goes unpinned).
///
/// On this kind of machine (two vCPUs of a shared host) a wake-up that
/// crosses CPUs costs ~45 us against ~6 us on one CPU, and which pairs
/// of threads and daemons share a CPU is the scheduler's choice of the
/// moment: unpinned, the socket fabric's throughput moved 5-12 % from run
/// to run on unchanged code, pinned 2-3 % (README, lesson 7). The other
/// CPU is left to whatever drives the benchmark.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `bytes` long and outlives both calls.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().rfind(|(_, &w)| w != 0)?;
    let cpu = word * 64 + (63 - bits.leading_zeros() as usize);
    let mut one = [0u64; 16];
    one[word] = 1 << (cpu % 64);
    // SAFETY: as above.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(cpu)
}

/// `nproc`, CPU model, kernel and THP mode: recorded with every noise
/// table, because the numbers mean nothing without the machine.
pub fn machine_fingerprint() -> String {
    let read = |p: &str| fs::read_to_string(p).unwrap_or_default();
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = read("/proc/cpuinfo");
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    let kernel = read("/proc/sys/kernel/osrelease");
    let thp = read("/sys/kernel/mm/transparent_hugepage/enabled");
    let thp = thp
        .split('[')
        .nth(1)
        .and_then(|s| s.split(']').next())
        .unwrap_or("unknown");
    let mem_kb = status_kb(&read("/proc/meminfo"), "MemTotal:").unwrap_or(0);
    format!(
        "nproc={cpus}; cpu={model}; kernel={}; thp={thp}; mem={} MB",
        kernel.trim(),
        mem_kb / 1024
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_fields() {
        let s = "Name:\tswperf\nPPid:\t12\nVmHWM:\t   20480 kB\n";
        assert_eq!(status_kb(s, "VmHWM:"), Some(20480));
        assert_eq!(status_kb(s, "VmRSS:"), None);
    }

    #[test]
    fn own_peak_is_visible() {
        assert!(self_hwm_kb() > 0);
        reset_peak_rss();
        assert!(self_hwm_kb() > 0);
        assert_eq!(rankd_children_hwm_kb(), 0, "no fabric is up in this test");
        assert!(machine_fingerprint().contains("nproc="));
    }
}
