//! The host as the benchmark sees it: CPU mask, CPU time, peak memory, a
//! calibration kernel, and the file system under the scratch directory.

use std::path::Path;
use std::time::Instant;

/// 1024-bit CPU set, the layout `sched_{get,set}affinity` expect.
type CpuSet = [u64; 16];

/// `struct rusage` on 64-bit Linux: two `timeval`s then 14 longs.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a valid, writable 128-byte buffer and its size is
    // passed alongside; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024).filter(|c| set[c / 64] >> (c % 64) & 1 == 1).collect()
}

/// Confine the calling thread (and every thread it spawns afterwards) to
/// the first `k` CPUs it is currently allowed. The mask is the workload's
/// machine size: `RunConfig::default().threads` reads it.
pub fn pin_to_first(k: usize) -> Result<(), String> {
    let cpus = allowed_cpus();
    if cpus.len() < k {
        return Err(format!("need {k} CPUs, allowed {}", cpus.len()));
    }
    let mut set: CpuSet = [0; 16];
    for &c in &cpus[..k] {
        set[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `set` is a valid 128-byte CPU set and its size is passed
    // alongside; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    if rc != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(())
}

/// Run `f` on a fresh thread confined to the first `k` allowed CPUs and
/// return its result. Threads `f` spawns inherit the mask.
pub fn on_cpus<R: Send>(k: usize, f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| {
        s.spawn(|| {
            pin_to_first(k).expect("mask is a subset of the current one");
            let r = f();
            crate::trace::flush_thread();
            r
        })
        .join()
        .expect("masked thread panicked")
    })
}

/// User + system CPU seconds of the whole process so far.
pub fn cpu_seconds() -> f64 {
    let mut ru = Rusage { utime: [0; 2], stime: [0; 2], rest: [0; 14] };
    // SAFETY: `ru` has the size and layout of `struct rusage`;
    // RUSAGE_SELF (0) is always valid.
    if unsafe { getrusage(0, &mut ru) } != 0 {
        return 0.0;
    }
    (ru.utime[0] + ru.stime[0]) as f64 + (ru.utime[1] + ru.stime[1]) as f64 * 1e-6
}

/// Seconds the hypervisor ran something else while a CPU of this thread's
/// mask had work to do (`steal` in `/proc/stat`, in ticks of 1/100 s).
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: u64 = allowed_cpus()
        .iter()
        .filter_map(|c| stat.lines().find(|l| l.starts_with(&format!("cpu{c} "))))
        .filter_map(|l| l.split_whitespace().nth(8)?.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Peak resident set (`VmHWM`) of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .unwrap_or(0.0);
    kb * 1024.0 / 1e6
}

/// A fixed amount of arithmetic plus one pass over a 64 MB buffer, in
/// milliseconds: tells a slow host from a slow program.
pub fn calibrate_ms() -> f64 {
    let mut buf = vec![1u64; 8 << 20];
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    buf[0] = x;
    let sum = buf.iter().fold(0u64, |a, &b| a.wrapping_add(b));
    std::hint::black_box(sum);
    buf[1] = sum;
    std::hint::black_box(&buf);
    t0.elapsed().as_secs_f64() * 1e3
}

/// File-system type holding `path` (longest matching mount point in
/// `/proc/mounts`), e.g. `ext4` or `tmpfs`.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best = (0usize, String::from("unknown"));
    for line in mounts.lines() {
        let mut f = line.split_whitespace();
        if let (Some(_dev), Some(mount), Some(fs)) = (f.next(), f.next(), f.next()) {
            if path.starts_with(mount) && mount.len() >= best.0 {
                best = (mount.len(), fs.to_string());
            }
        }
    }
    best.1
}

/// One line of host facts for logs and the baseline file.
pub fn facts() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name").map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("cpus_allowed={} cpu=\"{}\"", allowed_cpus().len(), model)
}
