//! Order statistics, `/proc` readers and the host calibration spin.

use std::time::Instant;

/// `[q1, median, q3]` as Python's `statistics.quantiles(values, n=4)` gives
/// them (the exclusive method), so the spread printed here is the spread the
/// driver computes. One value is its own three quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n == 1 {
        return [x[0]; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0;
    }
    out
}

/// Median of `values` (Python's `statistics.median`).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n % 2 == 1 {
        x[n / 2]
    } else {
        (x[n / 2 - 1] + x[n / 2]) / 2.0
    }
}

/// `(utime, stime)` in clock ticks from the text of `/proc/<pid>/stat`. The
/// command name may hold spaces and parentheses, so fields are counted from
/// the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command name: state is field 3, utime 14, stime 15.
    let utime = fields.nth(11)?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// The value in kB of one `Key:   123 kB` line of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// `(highest CPU, number of CPUs)` of a `Cpus_allowed_list` value such as
/// `0-3,8,10-11`.
pub fn parse_cpu_list(list: &str) -> Option<(u32, u32)> {
    let mut highest = None;
    let mut count = 0;
    for part in list.trim().split(',') {
        let (lo, hi) = match part.split_once('-') {
            Some((lo, hi)) => (lo.parse::<u32>().ok()?, hi.parse::<u32>().ok()?),
            None => {
                let cpu = part.parse::<u32>().ok()?;
                (cpu, cpu)
            }
        };
        if hi < lo {
            return None;
        }
        count += hi - lo + 1;
        highest = highest.max(Some(hi));
    }
    highest.map(|h| (h, count))
}

/// `(highest CPU, number of CPUs)` this process may run on.
pub fn cpus_allowed() -> Option<(u32, u32)> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    parse_cpu_list(line)
}

/// Clock ticks per second of `/proc/<pid>/stat` on Linux (`USER_HZ`).
const CLK_TCK: f64 = 100.0;

/// CPU seconds (user + system) the live threads of this process have used:
/// the scheduler's exact per-thread run times from
/// `/proc/self/task/*/schedstat`, or, where the kernel keeps none,
/// `utime + stime` of `/proc/self/stat`, which is sampled at 10 ms ticks and
/// misjudges threads that run in bursts shorter than that.
pub fn cpu_seconds() -> f64 {
    let run_ns = |task: std::fs::DirEntry| -> Option<u64> {
        let text = std::fs::read_to_string(task.path().join("schedstat")).ok()?;
        text.split_ascii_whitespace().next()?.parse().ok()
    };
    let exact: Option<u64> = std::fs::read_dir("/proc/self/task")
        .ok()
        .and_then(|tasks| tasks.map(|t| run_ns(t.ok()?)).sum());
    if let Some(ns) = exact {
        return ns as f64 / 1e9;
    }
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .map_or(0, |(u, s)| u + s);
    ticks as f64 / CLK_TCK
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, "VmHWM"))
        .unwrap_or(0);
    kb as f64 / 1024.0
}

/// Wall nanoseconds of a fixed xorshift spin: the host's speed right now.
/// Two sessions whose timings disagree by the ratio of their `calib_ns`
/// disagree about the host, not about the program.
pub fn calib_ns() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..4_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The latency percentiles are `atp_sim`'s; this pins the rule they are
    /// read by: nearest rank, so p99 of 1 000 samples has ten beyond it.
    #[test]
    fn percentile_is_nearest_rank() {
        use atp_sim::stats::percentile_sorted as percentile;
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 0.99)).count(), 10);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
        assert_eq!(
            quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]),
            [2.0, 8.0, 32.0]
        );
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let stat = "4242 (a b) c) R 1 2 3 4 5 6 7 8 9 10 111 22 0 0 20 0 9 0 100 200 300";
        assert_eq!(parse_stat_cpu_ticks(stat), Some((111, 22)));
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no paren"), None);
    }

    #[test]
    fn status_parser_reads_kb_lines() {
        let status = "Name:\tatpbench\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\nThreads:\t9\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(5120));
        assert_eq!(parse_status_kb(status, "VmPeak"), Some(9000));
        assert_eq!(parse_status_kb(status, "VmRSS"), None);
        assert_eq!(parse_status_kb(status, "Threads"), None);
    }

    #[test]
    fn cpu_list_parser_handles_ranges_and_singles() {
        assert_eq!(parse_cpu_list("0-1\n"), Some((1, 2)));
        assert_eq!(parse_cpu_list("3"), Some((3, 1)));
        assert_eq!(parse_cpu_list("0-3,8,10-11"), Some((11, 7)));
        assert_eq!(parse_cpu_list(""), None);
        assert_eq!(parse_cpu_list("3-1"), None);
    }

    #[test]
    fn proc_readers_work_on_this_host() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpus_allowed().is_some());
        let _ = cpu_seconds();
    }
}
