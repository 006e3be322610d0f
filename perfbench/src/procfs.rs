//! Process, thread and host counters read from `/proc`.
//!
//! CPU times come from the `utime + stime` fields of `stat` files, in
//! clock ticks. Linux fixes the tick exported to user space (`USER_HZ`)
//! at 100 per second on every architecture this benchmark targets.

use std::fs;

/// Clock ticks per second in `/proc/*/stat` CPU fields.
const USER_HZ: f64 = 100.0;

/// Thread-name prefix of the serving pool's workers (`authsearch-pool-N`).
pub const POOL_THREAD_PREFIX: &str = "authsearch-pool";
/// Thread-name prefix of the event-driven server core. The kernel keeps
/// 15 bytes of a thread name, so `authsearch-reactor` reads back as
/// `authsearch-reac`; matching by prefix covers both.
pub const REACTOR_THREAD_PREFIX: &str = "authsearch-reac";

/// `utime + stime` in seconds from the text of a `stat` file. The
/// command name sits in parentheses and may contain spaces, so fields
/// are counted from the last `)`.
fn stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state(3) ... utime(14) stime(15), so 11 and 12 here.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// CPU seconds used by the whole process so far, threads that have
/// exited included.
pub fn process_cpu_s() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    stat_cpu_s(&stat).ok_or_else(|| "unparsable /proc/self/stat".to_string())
}

/// The ids and names of the process's live threads. Listing
/// `/proc/self/task` while threads exit can skip a live entry, so the
/// server's threads are looked up once, by name, and then read by id.
fn threads() -> Result<Vec<(u32, String)>, String> {
    let dir = fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
    Ok(dir
        .flatten()
        .filter_map(|entry| {
            let tid = entry.file_name().to_str()?.parse().ok()?;
            let comm = fs::read_to_string(entry.path().join("comm")).ok()?;
            Some((tid, comm.trim_end().to_string()))
        })
        .collect())
}

fn thread_cpu_s(tid: u32) -> Result<f64, String> {
    let path = format!("/proc/self/task/{tid}/stat");
    let stat = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    stat_cpu_s(&stat).ok_or_else(|| format!("unparsable {path}"))
}

/// CPU seconds of the server's threads, split by role.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerCpu {
    pub pool_s: f64,
    pub reactor_s: f64,
}

/// The server's threads: the serving pool's workers and the reactor.
#[derive(Debug, Clone, Default)]
pub struct ServerThreads {
    pub pool: Vec<u32>,
    pub reactor: Vec<u32>,
}

impl ServerThreads {
    /// Find the server's `pool_workers` pool threads and its one reactor
    /// by name prefix (the kernel keeps 15 bytes of a name). A thread
    /// that was just joined can linger in the listing for a moment, so
    /// the lookup is retried briefly; then any other count is an error:
    /// a missing thread would turn into a reported zero, and an extra
    /// one means an earlier server is still running.
    pub fn find(pool_workers: usize) -> Result<ServerThreads, String> {
        let mut last = ServerThreads::default();
        for _ in 0..10 {
            let all = threads()?;
            let with = |prefix: &str| {
                all.iter()
                    .filter(|(_, name)| name.starts_with(prefix))
                    .map(|&(tid, _)| tid)
                    .collect::<Vec<_>>()
            };
            last = ServerThreads {
                pool: with(POOL_THREAD_PREFIX),
                reactor: with(REACTOR_THREAD_PREFIX),
            };
            if last.pool.len() == pool_workers && last.reactor.len() == 1 {
                return Ok(last);
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        Err(format!(
            "{} threads named {POOL_THREAD_PREFIX}* where {pool_workers} were spawned, \
             {} named {REACTOR_THREAD_PREFIX}* where 1 was",
            last.pool.len(),
            last.reactor.len()
        ))
    }

    /// CPU used so far by each role. Every thread must still be alive.
    pub fn cpu(&self) -> Result<ServerCpu, String> {
        let sum = |tids: &[u32]| {
            tids.iter()
                .map(|&t| thread_cpu_s(t))
                .sum::<Result<f64, _>>()
        };
        Ok(ServerCpu {
            pool_s: sum(&self.pool)?,
            reactor_s: sum(&self.reactor)?,
        })
    }
}

/// Host-wide CPU tick counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTicks {
    pub steal: u64,
    pub total: u64,
}

pub fn host_ticks() -> Result<HostTicks, String> {
    let stat = fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    parse_host_ticks(&stat).ok_or_else(|| "unparsable /proc/stat".to_string())
}

fn parse_host_ticks(stat: &str) -> Option<HostTicks> {
    let line = stat.lines().next()?;
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let values: Vec<u64> = fields.map(|f| f.parse().ok()).collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user, so only the first 8 add up.
    let total = values.iter().take(8).sum();
    Some(HostTicks {
        steal: *values.get(7)?,
        total,
    })
}

/// Share of host CPU time stolen by the hypervisor between two readings.
pub fn steal_share(before: HostTicks, after: HostTicks) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The CPU model name, or "unknown".
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, name)| name.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_counts_fields_after_the_last_paren() {
        let stat = "42 (a) b (c)) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3";
        assert_eq!(stat_cpu_s(stat), Some(3.0));
    }

    #[test]
    fn host_ticks_sum_the_first_eight_fields() {
        let stat = "cpu  10 0 5 80 1 0 2 2 7 0\ncpu0 1 2 3\n";
        let t = parse_host_ticks(stat).expect("parses");
        assert_eq!((t.steal, t.total), (2, 100));
        let later = HostTicks {
            steal: 12,
            total: 200,
        };
        assert!((steal_share(t, later) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn live_process_counters_read() {
        assert!(process_cpu_s().expect("stat") >= 0.0);
        assert!(peak_rss_mib().expect("status") > 0.0);
        let all = threads().expect("tasks");
        let (main, _) = all.first().expect("at least the test thread");
        assert!(thread_cpu_s(*main).expect("own stat") >= 0.0);
    }
}
