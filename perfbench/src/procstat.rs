//! Process and host context from `/proc`: per-thread CPU and run-queue
//! wait (`schedstat`), host steal (`/proc/stat`), peak RSS (`VmHWM`) and
//! bytes written (`/proc/self/io`).

use std::collections::HashMap;
use std::fs;

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_default()
}

/// This thread's kernel task id.
pub fn current_tid() -> u64 {
    fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .unwrap_or(0)
}

/// `tid → (cpu_ns, wait_ns)` for every thread of this process.
fn task_times() -> HashMap<u64, (u64, u64)> {
    let mut out = HashMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let text = read(&format!("/proc/self/task/{tid}/schedstat"));
        let mut fields = text
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        if let (Some(cpu), Some(wait)) = (fields.next(), fields.next()) {
            out.insert(tid, (cpu, wait));
        }
    }
    out
}

/// `(steal, total)` jiffies summed over all CPUs.
fn steal_jiffies() -> (u64, u64) {
    let text = read("/proc/stat");
    let Some(line) = text.lines().next() else {
        return (0, 0);
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already inside user.
    let total: u64 = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Peak resident set size of this process, MB.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes this process has passed to `write`-family calls.
pub fn written_bytes() -> u64 {
    read("/proc/self/io")
        .lines()
        .find_map(|l| l.strip_prefix("wchar:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

extern "C" {
    /// glibc's wrappers of the affinity system calls.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread — and so every thread it creates later — to
/// the lowest-numbered CPU it may run on, and return that CPU. Always
/// the same CPU, so runs of two commits meet the same vCPU.
pub fn pin_to_first_cpu() -> std::io::Result<usize> {
    // A 1024-bit set, the size glibc's `cpu_set_t` uses.
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, initialized buffer of exactly `bytes`
    // bytes for the duration of each call, and pid 0 names the calling
    // thread; the kernel writes at most `bytes` bytes into it.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..mask.len() * 64)
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or_else(|| std::io::Error::other("empty CPU affinity mask"))?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the kernel only reads the buffer.
    if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

/// What a measured window cost the process and the host.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowCost {
    /// CPU of the measuring (client) thread, µs.
    pub client_cpu_us: f64,
    /// CPU of every other thread of the process, µs.
    pub other_cpu_us: f64,
    /// Run-queue wait of every thread of the process, µs.
    pub wait_us: f64,
    /// Host steal as a share of all CPU time, percent.
    pub steal_pct: f64,
}

/// Start-of-window readings; [`ProcWindow::finish`] turns them into a
/// [`WindowCost`].
pub struct ProcWindow {
    client_tid: u64,
    tasks: HashMap<u64, (u64, u64)>,
    steal: (u64, u64),
}

impl ProcWindow {
    /// Start a window whose client is the calling thread.
    pub fn start() -> Self {
        ProcWindow {
            client_tid: current_tid(),
            tasks: task_times(),
            steal: steal_jiffies(),
        }
    }

    pub fn finish(&self) -> WindowCost {
        let mut cost = WindowCost::default();
        for (tid, (cpu, wait)) in task_times() {
            let (cpu0, wait0) = self.tasks.get(&tid).copied().unwrap_or((0, 0));
            let cpu_us = cpu.saturating_sub(cpu0) as f64 / 1e3;
            if tid == self.client_tid {
                cost.client_cpu_us += cpu_us;
            } else {
                cost.other_cpu_us += cpu_us;
            }
            cost.wait_us += wait.saturating_sub(wait0) as f64 / 1e3;
        }
        let (steal, total) = steal_jiffies();
        let d_total = total.saturating_sub(self.steal.1);
        if d_total > 0 {
            cost.steal_pct = 100.0 * steal.saturating_sub(self.steal.0) as f64 / d_total as f64;
        }
        cost
    }
}
