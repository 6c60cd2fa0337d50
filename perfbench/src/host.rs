//! Host-side measurements read from procfs: process CPU time and the
//! resident-set high-water mark. Linux only.

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// User plus system CPU seconds of this process, all threads included.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = read("/proc/self/stat")?;
    // Fields after the parenthesised command name, which may hold spaces:
    // state is field 3, utime field 14, stime field 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    // SAFETY: sysconf only reads a configuration value; it takes no
    // pointers and has no preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz <= 0 {
        return Err("sysconf(_SC_CLK_TCK) failed".to_string());
    }
    Ok((ticks(11)? + ticks(12)?) / hz as f64)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = read("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
