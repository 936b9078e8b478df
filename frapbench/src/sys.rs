//! Process and machine facts read from the kernel: CPU clocks per
//! process and per thread, peak RSS growth, thread names, and the machine
//! stamp every result carries.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn gettid() -> i32;
}

const PR_SET_TIMERSLACK: i32 = 29;

/// Sets the calling thread's timer slack to 1 ns, so its sleeps end when
/// asked rather than up to 50 µs later.
pub fn precise_sleeps() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
    // only the calling thread's scheduling attributes.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read_clock(clock: i32) -> Option<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// CPU time consumed by every thread of this process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    read_clock(CLOCK_PROCESS_CPUTIME_ID).unwrap_or(0)
}

/// CPU time consumed by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    read_clock(CLOCK_THREAD_CPUTIME_ID).unwrap_or(0)
}

/// CPU time of another thread of this process, by kernel thread id, in
/// nanoseconds. Uses the kernel's per-thread CPU clock id encoding (the
/// one `pthread_getcpuclockid` returns); `None` once the thread is gone.
pub fn tid_cpu_ns(tid: i32) -> Option<u64> {
    // CPUCLOCK_SCHED (2) | CPUCLOCK_PERTHREAD_MASK (4), tid in the high bits.
    read_clock(((!tid) << 3) | 6)
}

/// Kernel thread id of the calling thread.
pub fn current_tid() -> i32 {
    // SAFETY: gettid takes no arguments and cannot fail.
    unsafe { gettid() }
}

/// Every live thread of this process as `(tid, name)`.
pub fn threads() -> Vec<(i32, String)> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out: Vec<(i32, String)> = dir
        .filter_map(|e| {
            let e = e.ok()?;
            let tid: i32 = e.file_name().to_str()?.parse().ok()?;
            let comm = std::fs::read_to_string(e.path().join("comm")).ok()?;
            Some((tid, comm.trim_end().to_string()))
        })
        .collect();
    out.sort();
    out
}

/// Summed CPU nanoseconds of the live threads whose name starts with
/// `prefix`.
pub fn named_threads_cpu_ns(prefix: &str) -> u64 {
    threads()
        .iter()
        .filter(|(_, name)| name.starts_with(prefix))
        .filter_map(|&(tid, _)| tid_cpu_ns(tid))
        .sum()
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    Some(line.split_whitespace().nth(1)?.parse::<f64>().ok()? / 1024.0)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:").unwrap_or(0.0)
}

/// The resident set at the end of set-up, against which the measured
/// phase's peak is read: what set-up built (inputs included) is not
/// counted, what the measured work adds is.
pub struct RssBaseline {
    rss_mb: f64,
    /// Whether the kernel reset the peak (`VmHWM`) to the current RSS.
    reset: bool,
}

impl RssBaseline {
    /// Resets the peak resident set to the current one (writing 5 to
    /// `/proc/self/clear_refs`) and records it.
    pub fn take() -> RssBaseline {
        let reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
        RssBaseline {
            rss_mb: status_mb("VmRSS:").unwrap_or(0.0),
            reset,
        }
    }

    /// Peak resident set since [`RssBaseline::take`], in MiB; NaN (which
    /// fails the run) if the peak could not be reset, since it would then
    /// count set-up's peak.
    pub fn peak_mb(&self) -> f64 {
        match status_mb("VmHWM:") {
            Some(peak) if self.reset => peak,
            _ => f64::NAN,
        }
    }

    /// [`RssBaseline::peak_mb`] above the resident set at
    /// [`RssBaseline::take`], in MiB.
    pub fn peak_growth_mb(&self) -> f64 {
        self.peak_mb() - self.rss_mb
    }
}

/// Sleeps until `deadline`, spinning through the last stretch so wakes
/// land close to it.
pub fn sleep_until(deadline: std::time::Instant) {
    loop {
        let now = std::time::Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

fn first_line(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit the checkout was made from: `git rev-parse HEAD`, or
/// "unknown" where git cannot tell (an exported source tree).
fn git_commit() -> String {
    command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

/// The facts a result is only comparable under: machine, toolchain,
/// source revision, and how many threads and connections each side ran.
pub struct Stamp {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
    pub commit: String,
}

impl Stamp {
    pub fn collect() -> Stamp {
        Stamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: first_line("/proc/cpuinfo", "model name")
                .unwrap_or_else(|| "unknown".into()),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".into()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            commit: git_commit(),
        }
    }
}
