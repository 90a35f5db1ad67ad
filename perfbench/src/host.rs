//! Host and process readings from `/proc`: process CPU, peak resident
//! memory, and the host-wide tick counters that show CPU steal.

use std::fs;

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s followed by
/// fourteen `long` counters.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// User plus system CPU seconds this process has spent, all threads
/// (exited ones included), at microsecond resolution.
pub fn process_cpu_s() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        counters: [0; 14],
    };
    // SAFETY: `u` is a valid, writable `struct rusage` for the duration of
    // the call, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    secs(u.utime) + secs(u.stime)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Host-wide CPU tick counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTicks {
    pub user: u64,
    pub sys: u64,
    pub idle: u64,
    pub steal: u64,
}

impl HostTicks {
    pub fn read() -> HostTicks {
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let line = stat.lines().next().unwrap_or_default();
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        let at = |i: usize| v.get(i).copied().unwrap_or(0);
        // user nice system idle iowait irq softirq steal
        HostTicks {
            user: at(0) + at(1),
            sys: at(2) + at(5) + at(6),
            idle: at(3) + at(4),
            steal: at(7),
        }
    }

    pub fn since(&self, start: &HostTicks) -> HostTicks {
        HostTicks {
            user: self.user.saturating_sub(start.user),
            sys: self.sys.saturating_sub(start.sys),
            idle: self.idle.saturating_sub(start.idle),
            steal: self.steal.saturating_sub(start.steal),
        }
    }
}

/// Host noise over one measured phase: the host's tick deltas next to the
/// process's own CPU, so a steal-driven outlier can be recognised as one.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoiseRecord {
    pub wall_s: f64,
    pub host: HostTicks,
    pub process_cpu_s: f64,
}

impl NoiseRecord {
    pub fn to_json(self) -> serde_json::Value {
        let total = (self.host.user + self.host.sys + self.host.idle + self.host.steal).max(1);
        serde_json::json!({
            "wall_s": self.wall_s,
            "host_user_ticks": self.host.user,
            "host_sys_ticks": self.host.sys,
            "host_idle_ticks": self.host.idle,
            "host_steal_ticks": self.host.steal,
            "host_steal_share": self.host.steal as f64 / total as f64,
            "process_cpu_s": self.process_cpu_s,
        })
    }
}

/// Marks the start of a measured phase; [`PhaseClock::stop`] yields the
/// wall time, process CPU, and host ticks the phase consumed.
pub struct PhaseClock {
    wall: std::time::Instant,
    cpu_s: f64,
    host: HostTicks,
}

impl PhaseClock {
    pub fn start() -> PhaseClock {
        PhaseClock {
            wall: std::time::Instant::now(),
            cpu_s: process_cpu_s(),
            host: HostTicks::read(),
        }
    }

    pub fn stop(&self) -> NoiseRecord {
        NoiseRecord {
            wall_s: self.wall.elapsed().as_secs_f64(),
            host: HostTicks::read().since(&self.host),
            process_cpu_s: process_cpu_s() - self.cpu_s,
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
