//! Host record, std-only: process CPU from `/proc/self/stat`, host
//! steal from `/proc/stat`, peak RSS from `/proc/self/status`. Numbers
//! from different hosts are never compared.

/// Kernel clock ticks per second of the `/proc` tick counters
/// (`USER_HZ`, 100 on every mainstream Linux configuration).
const USER_HZ: f64 = 100.0;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// User + system CPU seconds consumed by this process so far (all
/// threads, including exited ones); 0 when `/proc` is unavailable.
pub fn process_cpu_s() -> f64 {
    let Some(stat) = read("/proc/self/stat") else {
        return 0.0;
    };
    // the command name is parenthesised and may contain spaces: fields
    // are counted after its closing parenthesis (utime and stime are
    // fields 14 and 15, i.e. the 12th and 13th after it)
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / USER_HZ
}

/// Host-wide steal seconds summed over all CPUs so far (time the
/// hypervisor ran someone else while this guest wanted to run).
pub fn host_steal_s() -> f64 {
    read("/proc/stat")
        .and_then(|s| {
            let line = s.lines().next()?.to_string();
            let steal = line.split_whitespace().nth(8)?.parse::<f64>().ok()?;
            Some(steal / USER_HZ)
        })
        .unwrap_or(0.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
            let kb = line.split_whitespace().nth(1)?.parse::<f64>().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Wall, process CPU and host steal seconds over one window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process user + system CPU seconds.
    pub cpu_s: f64,
    /// Host steal seconds, summed over all CPUs.
    pub steal_s: f64,
}

impl Span {
    /// Wall seconds less the host steal: the time the host did not take
    /// away. On a host that steals nothing it is the wall time. The
    /// session workloads' rounds stall on a stolen CPU (their threads
    /// meet at every step), and their round walls grow by about the
    /// steal seen over the round.
    pub fn unstolen_s(&self) -> f64 {
        self.wall_s - self.steal_s
    }
}

/// CPU and steal consumed over one measurement window.
pub struct Window {
    cpu0: f64,
    steal0: f64,
    wall0: std::time::Instant,
}

impl Window {
    /// Opens a window now.
    pub fn open() -> Self {
        Window {
            cpu0: process_cpu_s(),
            steal0: host_steal_s(),
            wall0: std::time::Instant::now(),
        }
    }

    /// Wall, CPU and steal since the window opened.
    pub fn span(&self) -> Span {
        Span {
            wall_s: self.wall0.elapsed().as_secs_f64(),
            cpu_s: process_cpu_s() - self.cpu0,
            steal_s: host_steal_s() - self.steal0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_are_readable() {
        let w = Window::open();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let s = w.span();
        assert!(s.wall_s > 0.0 && s.cpu_s >= 0.0 && s.steal_s >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
