//! Sample summaries and the process facts every result carries.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The `q`-quantile of `samples` (`0 ≤ q ≤ 1`), interpolating linearly
/// between order statistics; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) of a process, in MiB; `None` off Linux or
/// once the process is gone.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets this process's `VmHWM` to its current resident set, so the next
/// [`peak_rss_mb`] covers only what runs after the call (input generation
/// and oracles stay out of the figure). Best effort: a kernel without
/// `clear_refs` leaves the high-water mark as it was.
pub fn reset_peak_rss() {
    let _ = std::fs::write(Path::new("/proc/self/clear_refs"), "5");
}

/// The ROADMAP's usable-parallelism probe: one std thread spinning a fixed
/// unit of work, then two threads spinning one unit each at once.
/// `usable_cores = 2 · one / two` is about 2 where two cores really run
/// in parallel and about 1 where they do not, whatever `nproc` says.
#[derive(Debug, Clone, Copy)]
pub struct ParallelismProbe {
    pub one_thread_s: f64,
    pub two_threads_s: f64,
}

impl ParallelismProbe {
    pub fn measure() -> Self {
        fn spin() -> u64 {
            let mut x = std::hint::black_box(0x2545_f491_4f6c_dd1du64);
            for _ in 0..40_000_000u32 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x)
        }
        let timed = |threads: usize| {
            let t0 = Instant::now();
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads).map(|_| s.spawn(spin)).collect();
                for h in handles {
                    h.join().expect("probe thread panicked");
                }
            });
            t0.elapsed().as_secs_f64()
        };
        ParallelismProbe {
            one_thread_s: timed(1),
            two_threads_s: timed(2),
        }
    }

    pub fn usable_cores(&self) -> f64 {
        2.0 * self.one_thread_s / self.two_threads_s
    }
}

/// Moves the calling thread round the vCPUs it may run on, one per op, with
/// `taskset`.
///
/// On the 2-vCPU machine the benchmark was sized on, each vCPU runs at a
/// speed of its own that changes every few seconds: in one second a fixed
/// loop pinned to each took 7.0 ms on one and 10.6 ms on the other. The
/// kernel leaves a busy thread on one vCPU for tens of seconds, so the
/// median of a sequential op reads the luck of that one vCPU. Rotating the
/// thread makes every run read every vCPU. The rotation is inactive where
/// the thread may use one vCPU only or `taskset` fails, and the thread's
/// own vCPU list is restored when the rotation is dropped.
#[derive(Debug)]
pub struct CpuRotation {
    tid: String,
    allowed: String,
    cpus: Vec<usize>,
    next: usize,
}

impl CpuRotation {
    /// A rotation over the calling thread's allowed vCPUs.
    pub fn new() -> Self {
        let tid = std::fs::read_link("/proc/thread-self")
            .ok()
            .and_then(|p| Some(p.file_name()?.to_str()?.to_string()))
            .unwrap_or_default();
        let allowed = std::fs::read_to_string("/proc/thread-self/status")
            .ok()
            .and_then(|s| {
                let line = s.lines().find(|l| l.starts_with("Cpus_allowed_list:"))?;
                Some(line.split_whitespace().nth(1)?.to_string())
            })
            .unwrap_or_default();
        let cpus = parse_cpu_list(&allowed).filter(|c| c.len() > 1 && !tid.is_empty());
        CpuRotation {
            tid,
            allowed,
            cpus: cpus.unwrap_or_default(),
            next: 0,
        }
    }

    /// How many vCPUs the rotation visits; 0 when it is inactive.
    pub fn cpus(&self) -> usize {
        self.cpus.len()
    }

    /// Pins the thread to the next vCPU of the rotation.
    pub fn advance(&mut self) {
        self.visit(self.next);
        self.next += 1;
    }

    /// Pins the thread to vCPU `i` of the rotation (modulo its length); a
    /// failure stops the rotation.
    pub fn visit(&mut self, i: usize) {
        if self.cpus.is_empty() {
            return;
        }
        let cpu = self.cpus[i % self.cpus.len()];
        if !self.taskset(&cpu.to_string()) {
            self.cpus.clear();
            self.taskset(&self.allowed);
        }
    }

    fn taskset(&self, list: &str) -> bool {
        Command::new("taskset")
            .args(["-p", "-c", list, &self.tid])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success())
    }
}

impl Default for CpuRotation {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for CpuRotation {
    fn drop(&mut self) {
        if !self.cpus.is_empty() {
            self.taskset(&self.allowed);
        }
    }
}

/// The vCPU ids of a kernel CPU list such as `0-3,6`.
fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        cpus.extend(lo.parse::<usize>().ok()?..=hi.parse().ok()?);
    }
    Some(cpus)
}

/// Host steal: vCPU time the hypervisor gave to other guests while this
/// machine wanted to run, from the aggregate line of `/proc/stat`. A meter
/// started before some work reads, after it, the stolen share of all vCPU
/// time in between — a share, so it needs no tick rate and scales with the
/// length of the work.
#[derive(Debug, Clone, Copy)]
pub struct StealMeter {
    start: Option<(u64, u64)>,
}

impl StealMeter {
    pub fn start() -> Self {
        StealMeter { start: cpu_ticks() }
    }

    /// Stolen share of all vCPU time since [`StealMeter::start`]; 0 where
    /// the kernel reports no steal.
    pub fn share(&self) -> f64 {
        match (self.start, cpu_ticks()) {
            (Some((steal0, total0)), Some((steal1, total1))) if total1 > total0 => {
                steal1.saturating_sub(steal0) as f64 / (total1 - total0) as f64
            }
            _ => 0.0,
        }
    }
}

/// Steal and total (user through steal) CPU ticks over all vCPUs.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(quantile(&s, 0.9), 4.6);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("0-2,5"), Some(vec![0, 1, 2, 5]));
        assert_eq!(parse_cpu_list("3"), Some(vec![3]));
        assert_eq!(parse_cpu_list("x"), None);
    }
}
