//! Host facts and confinement: pin the process to one CPU, and read the
//! kernel's per-thread scheduler counters and the peak resident set.

use std::fs;

/// `cpu_set_t` as glibc lays it out: 1024 bits.
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Parses a kernel CPU list such as `0-3,6` into CPU numbers.
pub fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        match part.split_once('-') {
            Some((a, b)) => {
                if let (Ok(a), Ok(b)) = (a.parse::<usize>(), b.parse::<usize>()) {
                    cpus.extend(a..=b);
                }
            }
            None => cpus.extend(part.parse::<usize>().ok()),
        }
    }
    cpus
}

fn status_field(path: &str, key: &str) -> Option<String> {
    let status = fs::read_to_string(path).ok()?;
    status.lines().find_map(|line| line.strip_prefix(key).map(|rest| rest.trim().to_owned()))
}

/// The CPUs this thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    status_field("/proc/thread-self/status", "Cpus_allowed_list:")
        .map(|l| parse_cpu_list(&l))
        .unwrap_or_default()
}

/// Confines the calling thread — and every thread it spawns afterwards —
/// to the highest-numbered CPU it is currently allowed, and returns that
/// CPU. Fails when the kernel refuses or the confinement does not read
/// back.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let cpu = *allowed_cpus().last().ok_or("cannot read Cpus_allowed_list")?;
    if cpu >= CPU_SET_WORDS * 64 {
        return Err(format!("cpu {cpu} is outside a 1024-bit cpu set"));
    }
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised array of exactly
    // `size_of_val(&mask)` bytes, the layout of glibc's `cpu_set_t`; the
    // kernel only reads it. Pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity failed: {}", std::io::Error::last_os_error()));
    }
    check_confined(cpu)?;
    Ok(cpu)
}

/// Checks that every thread of the process is confined to `cpu` alone.
pub fn check_confined(cpu: usize) -> Result<(), String> {
    let tasks = fs::read_dir("/proc/self/task").map_err(|e| e.to_string())?;
    for task in tasks.flatten() {
        let path = task.path().join("status");
        let Some(list) = status_field(&path.to_string_lossy(), "Cpus_allowed_list:") else {
            continue; // the thread exited while we looked
        };
        if parse_cpu_list(&list) != [cpu] {
            return Err(format!("thread {:?} runs on cpus {list}, not {cpu}", task.file_name()));
        }
    }
    Ok(())
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("/proc/self/status", "VmHWM:")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One thread's scheduler counters from `/proc/<pid>/task/<tid>/schedstat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    /// Nanoseconds on the CPU.
    pub cpu_ns: u64,
    /// Nanoseconds runnable but waiting on a run queue.
    pub runq_ns: u64,
    /// Times the thread was switched in.
    pub slices: u64,
}

impl SchedStat {
    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &SchedStat) -> SchedStat {
        SchedStat {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            runq_ns: self.runq_ns.saturating_sub(earlier.runq_ns),
            slices: self.slices.saturating_sub(earlier.slices),
        }
    }

    /// Adds another thread's counters.
    pub fn add(&mut self, other: &SchedStat) {
        self.cpu_ns += other.cpu_ns;
        self.runq_ns += other.runq_ns;
        self.slices += other.slices;
    }
}

/// Every live thread of this process: `(tid, name, counters)`.
pub fn thread_schedstats() -> Vec<(u32, String, SchedStat)> {
    let mut out = Vec::new();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else { return out };
    for task in tasks.flatten() {
        let Some(tid) = task.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let dir = task.path();
        let (Ok(comm), Ok(stat)) =
            (fs::read_to_string(dir.join("comm")), fs::read_to_string(dir.join("schedstat")))
        else {
            continue;
        };
        let f: Vec<u64> = stat.split_whitespace().filter_map(|v| v.parse().ok()).collect();
        if f.len() == 3 {
            let s = SchedStat { cpu_ns: f[0], runq_ns: f[1], slices: f[2] };
            out.push((tid, comm.trim().to_owned(), s));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-2,5\n"), vec![0, 1, 2, 5]);
        assert_eq!(parse_cpu_list("7"), vec![7]);
        assert!(parse_cpu_list("").is_empty());
    }
}
