//! Process-level counters read from `/proc/self` (Linux only; zeros elsewhere).

/// Kernel clock ticks per second for `utime`/`stime` (USER_HZ; 100 on every Linux ABI).
const TICKS_PER_SEC: f64 = 100.0;

/// Process-wide CPU and fault counters (exited threads included) plus the machine's context
/// switches.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSnapshot {
    utime_ticks: u64,
    stime_ticks: u64,
    minor_faults: u64,
    ctx_switches: u64,
}

/// What happened between two snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcDelta {
    pub user_ms: f64,
    pub sys_ms: f64,
    pub minor_faults: u64,
    /// Context switches on the whole machine (`ctxt` of `/proc/stat`): per-thread counts die
    /// with their threads, and in the benchmark's VM the benchmark is the only load.
    pub ctx_switches: u64,
}

impl ProcDelta {
    pub fn cpu_ms(&self) -> f64 {
        self.user_ms + self.sys_ms
    }

    pub fn add(&mut self, other: &ProcDelta) {
        self.user_ms += other.user_ms;
        self.sys_ms += other.sys_ms;
        self.minor_faults += other.minor_faults;
        self.ctx_switches += other.ctx_switches;
    }
}

/// Fields of `/proc/<pid>/stat` after the parenthesised command name, 0-based from `state`.
const STAT_MINFLT: usize = 7;
const STAT_UTIME: usize = 11;
const STAT_STIME: usize = 12;

fn parse_stat(stat: &str) -> Option<(u64, u64, u64)> {
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let field = |i: usize| fields.get(i)?.parse::<u64>().ok();
    Some((field(STAT_UTIME)?, field(STAT_STIME)?, field(STAT_MINFLT)?))
}

fn status_value(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))?
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

pub fn snapshot() -> ProcSnapshot {
    let (utime_ticks, stime_ticks, minor_faults) = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .unwrap_or_default();
    let ctx_switches = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| status_value(&s, "ctxt"))
        .unwrap_or(0);
    ProcSnapshot {
        utime_ticks,
        stime_ticks,
        minor_faults,
        ctx_switches,
    }
}

impl ProcSnapshot {
    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &ProcSnapshot) -> ProcDelta {
        let ms = |now: u64, then: u64| now.saturating_sub(then) as f64 * 1000.0 / TICKS_PER_SEC;
        ProcDelta {
            user_ms: ms(self.utime_ticks, earlier.utime_ticks),
            sys_ms: ms(self.stime_ticks, earlier.stime_ticks),
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}

/// The hardware threads this process may run on, as `/proc/self/status` lists them (`1`,
/// `0-1`); `unknown` where it does not.
pub fn cpus_allowed() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
            Some(line.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Resets the peak-RSS high-water mark to the current resident set, so that the next
/// [`peak_rss_mb`] reports the peak since now.  Where the kernel refuses, peaks stay
/// process-wide.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`) since the last reset, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_value(&s, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_and_parens_in_the_command_name() {
        let stat = "42 (e2e (x) y) S 1 42 42 0 -1 4194304 1234 0 5 0 250 75 0 0 20 0 3 0";
        assert_eq!(parse_stat(stat), Some((250, 75, 1234)));
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn reads_status_keys() {
        let status = "Name:\te2e\nVmHWM:\t  204800 kB\nctxt 17\n";
        assert_eq!(status_value(status, "VmHWM"), Some(204_800));
        assert_eq!(status_value(status, "ctxt"), Some(17));
        assert_eq!(status_value(status, "VmSwap"), None);
    }

    #[test]
    fn deltas_subtract_and_convert_ticks() {
        let earlier = ProcSnapshot {
            utime_ticks: 10,
            stime_ticks: 5,
            minor_faults: 100,
            ctx_switches: 50,
        };
        let later = ProcSnapshot {
            utime_ticks: 30,
            stime_ticks: 10,
            minor_faults: 160,
            ctx_switches: 78,
        };
        let delta = later.since(&earlier);
        assert_eq!(delta.user_ms, 200.0);
        assert_eq!(delta.sys_ms, 50.0);
        assert_eq!(delta.cpu_ms(), 250.0);
        assert_eq!(delta.minor_faults, 60);
        assert_eq!(delta.ctx_switches, 28);
    }
}
