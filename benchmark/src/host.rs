//! What the host was doing while the benchmark measured: `/proc`
//! parsers, the disturbance signal that decides which blocks count, and
//! the pinning of the benchmark to one CPU.
//!
//! On a shared 2-vCPU sandbox any wall-clock number taken while the
//! hypervisor steals the CPU, or another process uses it, moves by
//! 30–100 %. Each measured block is therefore bracketed by two
//! [`HostSample`]s, and its *disturbance* — stolen plus foreign CPU as a
//! share of the capacity of the CPUs the benchmark may run on — is what
//! [`crate::pass`] corrects the block's times with.
//!
//! Rank threads that wait for each other across virtual CPUs stall
//! whenever the hypervisor takes *either* CPU away, and every wake-up of
//! an idle virtual CPU waits for the hypervisor to schedule it: on two
//! stolen vCPUs sixteen rank threads were measured up to five times
//! slower, and by a factor that no host signal predicts. On one CPU the
//! threads take turns, the CPU never idles, and a stolen tick costs about
//! a tick. [`pin_to_one_cpu`] is therefore the first thing a run does.

use std::sync::OnceLock;
use std::time::Instant;

/// Kernel clock ticks per second for `/proc` CPU fields (`USER_HZ`). It
/// is 100 on every Linux this runs on; without libc there is no
/// `sysconf` to ask.
pub const TICKS_PER_S: f64 = 100.0;

/// Share of the machine's CPU capacity that stolen plus foreign time may
/// take before a block is counted as disturbed in the report (the
/// issue's 5 %). Reporting only: the correction uses the share itself.
pub const DISTURBED: f64 = 0.05;

/// The CPUs this process may run on, fixed at the first call (so call
/// [`pin_to_one_cpu`] first). Empty when `/proc` does not say.
pub fn allowed_cpus() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| parse_cpu_list(&read("/proc/self/status")).unwrap_or_default())
}

/// The `Cpus_allowed_list` field of `/proc/self/status` (`0-1`, `0,2-3`).
pub fn parse_cpu_list(status: &str) -> Option<Vec<usize>> {
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let (lo, hi): (usize, usize) = (lo.trim().parse().ok()?, hi.trim().parse().ok()?);
        cpus.extend(lo..=hi);
    }
    Some(cpus)
}

extern "C" {
    /// The C library's `sched_setaffinity(2)`; `std` links it already.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts this thread, and every thread it spawns afterwards, to the
/// last CPU it is allowed on (the first one takes most interrupts).
/// Returns that CPU, or `None` where the kernel refuses or `/proc` does
/// not list the allowed CPUs; the run then goes on unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpu = *parse_cpu_list(&read("/proc/self/status"))?.last()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// CPU times from `/proc/stat`, in clock ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuTimes {
    /// user + nice + system + irq + softirq: time some process ran.
    pub busy: u64,
    /// idle + iowait.
    pub idle: u64,
    /// Time the hypervisor ran something else on our virtual CPUs.
    pub steal: u64,
}

impl CpuTimes {
    /// Sums the `cpuN` lines of `/proc/stat` for the CPUs in `cpus`: what
    /// happened on the CPUs this process can use. With `cpus` empty it
    /// reads the aggregate `cpu ` line. The guest fields are already
    /// included in user/nice and are not added again.
    pub fn parse(stat: &str, cpus: &[usize]) -> Option<CpuTimes> {
        let line = |label: &str| -> Option<CpuTimes> {
            let mut f = stat.lines().find_map(|l| {
                let mut words = l.split_whitespace();
                (words.next() == Some(label)).then_some(words)
            })?;
            let f: Vec<u64> = f.by_ref().map(|x| x.parse().ok()).collect::<Option<_>>()?;
            if f.len() < 4 {
                return None;
            }
            let at = |i: usize| f.get(i).copied().unwrap_or(0);
            Some(CpuTimes {
                busy: at(0) + at(1) + at(2) + at(5) + at(6),
                idle: at(3) + at(4),
                steal: at(7),
            })
        };
        if cpus.is_empty() {
            return line("cpu");
        }
        let mut total = CpuTimes::default();
        for cpu in cpus {
            let t = line(&format!("cpu{cpu}"))?;
            total.busy += t.busy;
            total.idle += t.idle;
            total.steal += t.steal;
        }
        Some(total)
    }

    fn total(&self) -> u64 {
        self.busy + self.idle + self.steal
    }
}

/// utime + stime of this process from `/proc/self/stat`, in ticks. The
/// command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_self_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut f = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = f.nth(11)?.parse().ok()?;
    let stime: u64 = f.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `kB` field of `/proc/self/status` (e.g. `VmHWM`, `VmRSS`), in bytes.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    let line = status
        .lines()
        .find(|l| l.strip_prefix(key).is_some_and(|r| r.starts_with(':')))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Reads the resident-set high-water mark (`VmHWM`, bytes) and restarts
/// it from the current resident set (`/proc/self/clear_refs`), so each
/// block reports its own peak and the run reports their median: a single
/// process-wide maximum moves by 10 % with allocator-arena luck. Where
/// the kernel refuses the restart, every block reads the process peak.
pub fn peak_rss_restart() -> u64 {
    let peak = parse_status_kb(&read("/proc/self/status"), "VmHWM").unwrap_or(0);
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    peak
}

/// Current resident set (`VmRSS`) of this process, in bytes.
pub fn rss_bytes() -> u64 {
    parse_status_kb(&read("/proc/self/status"), "VmRSS").unwrap_or(0)
}

/// One reading of the clocks a block is bracketed by.
#[derive(Clone, Copy, Debug)]
pub struct HostSample {
    at: Instant,
    sys: CpuTimes,
    own_ticks: u64,
}

impl HostSample {
    /// Reads the wall clock, `/proc/stat` and `/proc/self/stat`.
    pub fn now() -> HostSample {
        HostSample {
            at: Instant::now(),
            sys: CpuTimes::parse(&read("/proc/stat"), allowed_cpus()).unwrap_or_default(),
            own_ticks: parse_self_ticks(&read("/proc/self/stat")).unwrap_or(0),
        }
    }

    /// When the sample was taken.
    pub fn at(&self) -> Instant {
        self.at
    }

    /// What happened between `self` and the later sample `end`.
    pub fn until(&self, end: &HostSample) -> HostDelta {
        let own = end.own_ticks.saturating_sub(self.own_ticks);
        let busy = end.sys.busy.saturating_sub(self.sys.busy);
        HostDelta {
            wall_s: end.at.duration_since(self.at).as_secs_f64(),
            capacity: end.sys.total().saturating_sub(self.sys.total()),
            steal: end.sys.steal.saturating_sub(self.sys.steal),
            foreign: busy.saturating_sub(own),
            own,
        }
    }
}

/// Tick counts over one bracketed interval.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HostDelta {
    /// Wall-clock seconds between the two samples.
    pub wall_s: f64,
    /// Ticks the allowed CPUs offered (busy + idle + steal).
    pub capacity: u64,
    /// Ticks the hypervisor took.
    pub steal: u64,
    /// Ticks other processes ran (system busy minus our own).
    pub foreign: u64,
    /// Ticks this process ran (user + system).
    pub own: u64,
}

impl HostDelta {
    /// Stolen plus foreign CPU as a share of capacity.
    pub fn disturbance(&self) -> f64 {
        self.steal_frac() + self.foreign_frac()
    }

    /// Stolen CPU as a share of capacity.
    pub fn steal_frac(&self) -> f64 {
        crate::stats::ratio(self.steal as f64, self.capacity as f64)
    }

    /// Other processes' CPU as a share of capacity.
    pub fn foreign_frac(&self) -> f64 {
        crate::stats::ratio(self.foreign as f64, self.capacity as f64)
    }

    /// Whether the interval stayed within [`DISTURBED`].
    pub fn quiet(&self) -> bool {
        self.disturbance() <= DISTURBED
    }

    /// This process's CPU seconds over the interval.
    pub fn own_cpu_s(&self) -> f64 {
        self.own as f64 / TICKS_PER_S
    }

    /// Element-wise sum, for totals over a pass.
    pub fn add(&mut self, other: &HostDelta) {
        self.wall_s += other.wall_s;
        self.capacity += other.capacity;
        self.steal += other.steal;
        self.foreign += other.foreign;
        self.own += other.own;
    }
}

/// The one-line context every report starts with: a number means
/// nothing without the machine and build it came from.
pub fn describe() -> String {
    // The machine's CPUs, not the one this process is pinned to.
    let nproc = read("/proc/stat")
        .lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .count();
    let load = read("/proc/loadavg");
    let load = load
        .split_whitespace()
        .take(3)
        .collect::<Vec<_>>()
        .join(" ");
    let mut features = Vec::new();
    for (name, on) in [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ] {
        if on {
            features.push(name);
        }
    }
    format!(
        "host: nproc={nproc} pinned to cpus={:?} loadavg=[{load}] git={} rustc=[{}] target-cpu features=[{}] \
         (root .cargo/config.toml sets target-cpu=native)",
        allowed_cpus(),
        git_sha(),
        tool_version("rustc"),
        features.join(",")
    )
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` in an exported tree.
fn git_sha() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let head = read(&format!("{root}/.git/HEAD"));
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => read(&format!("{root}/.git/{r}")).trim().to_string(),
        None => head.to_string(),
    };
    if sha.len() >= 12 {
        sha[..12].to_string()
    } else {
        "unknown".to_string()
    }
}

fn tool_version(tool: &str) -> String {
    std::process::Command::new(tool)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "cpu  100 5 50 800 20 3 7 15 9 1\n\
                        cpu0 50 2 25 400 10 1 3 7 4 0\n\
                        intr 12345\n";

    #[test]
    fn proc_stat_splits_busy_idle_and_steal() {
        let t = CpuTimes::parse(STAT, &[]).unwrap();
        assert_eq!(t.busy, 100 + 5 + 50 + 3 + 7);
        assert_eq!(t.idle, 800 + 20);
        assert_eq!(t.steal, 15);
        assert_eq!(t.total(), 1000);
    }

    #[test]
    fn proc_stat_sums_only_the_allowed_cpus() {
        let stat = format!("{STAT}cpu1 50 3 25 400 10 2 4 8 5 1\n");
        let one = CpuTimes::parse(&stat, &[1]).unwrap();
        assert_eq!(
            (one.busy, one.idle, one.steal),
            (50 + 3 + 25 + 2 + 4, 410, 8)
        );
        // Both CPUs add up to the aggregate line.
        assert_eq!(CpuTimes::parse(&stat, &[0, 1]), CpuTimes::parse(&stat, &[]));
        // `cpu1` must not match `cpu10`, and a missing CPU is an error.
        assert_eq!(CpuTimes::parse("cpu10 1 2 3 4\n", &[1]), None);
        assert_eq!(CpuTimes::parse(&stat, &[2]), None);
    }

    #[test]
    fn proc_stat_tolerates_old_kernels_and_rejects_garbage() {
        // Four fields (Linux 2.4): no iowait, irq, softirq or steal.
        let t = CpuTimes::parse("cpu 1 2 3 4\n", &[]).unwrap();
        assert_eq!((t.busy, t.idle, t.steal), (6, 4, 0));
        assert_eq!(CpuTimes::parse("cpu0 1 2 3 4\n", &[]), None);
        assert_eq!(CpuTimes::parse("cpu 1 x 3 4\n", &[]), None);
        assert_eq!(CpuTimes::parse("", &[]), None);
    }

    #[test]
    fn cpu_lists_expand_ranges() {
        let status = "Name:\tx\nCpus_allowed:\t3\nCpus_allowed_list:\t0-1\n";
        assert_eq!(parse_cpu_list(status), Some(vec![0, 1]));
        assert_eq!(
            parse_cpu_list("Cpus_allowed_list:\t0,2-4,7\n"),
            Some(vec![0, 2, 3, 4, 7])
        );
        assert_eq!(parse_cpu_list("Cpus_allowed_list:\tx\n"), None);
        assert_eq!(parse_cpu_list("Name:\tx\n"), None);
    }

    #[test]
    fn self_stat_counts_fields_after_the_command_name() {
        // A command name with spaces and a ')' must not shift fields.
        let stat = "4242 (my (odd) name) S 1 2 3 4 5 6 7 8 9 10 1234 56 0 0 20 0 9 0 100";
        assert_eq!(parse_self_ticks(stat), Some(1234 + 56));
        assert_eq!(parse_self_ticks("4242 (short) S 1 2"), None);
        assert_eq!(parse_self_ticks("no parens"), None);
    }

    #[test]
    fn status_kb_fields_convert_to_bytes() {
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(2048 * 1024));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1024 * 1024));
        // A key that is a prefix of another field's name must not match it.
        assert_eq!(parse_status_kb(status, "Vm"), None);
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn disturbance_is_steal_plus_foreign_over_capacity() {
        let d = HostDelta {
            wall_s: 1.0,
            capacity: 200,
            steal: 4,
            foreign: 8,
            own: 150,
        };
        assert!((d.disturbance() - 0.06).abs() < 1e-12);
        assert!(!d.quiet());
        assert!(HostDelta { steal: 2, ..d }.quiet());
        assert!((d.steal_frac() - 0.02).abs() < 1e-12);
        assert!((d.foreign_frac() - 0.04).abs() < 1e-12);
        assert_eq!(HostDelta::default().disturbance(), 0.0);
        assert_eq!(d.own_cpu_s(), 1.5);
    }

    #[test]
    fn pinning_leaves_this_thread_one_cpu() {
        // Only this test's thread is pinned; `allowed_cpus` reads the
        // process's main thread and is not touched.
        if let Some(cpu) = pin_to_one_cpu() {
            let mine = parse_cpu_list(&read("/proc/thread-self/status"));
            assert_eq!(mine, Some(vec![cpu]));
        }
    }

    #[test]
    fn live_samples_parse_on_this_host() {
        let a = HostSample::now();
        let b = HostSample::now();
        let d = a.until(&b);
        assert!(d.wall_s >= 0.0);
        assert!(peak_rss_restart() > 0);
        assert!(rss_bytes() > 0);
    }
}
