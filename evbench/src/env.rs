//! The environment a result was measured in, and the process's own memory.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// What every result is printed with.
pub struct Environment {
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// Filesystem type holding the work directory (the journal directory of
    /// `reg-durable`), from the mount table.
    pub filesystem: String,
    /// Median of 100 `write` + `fdatasync` pairs of 64 bytes on that
    /// filesystem, in microseconds.
    pub fsync_us_p50: f64,
}

/// Probes the machine; `dir` must exist.
pub fn probe(dir: &Path) -> std::io::Result<Environment> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let path = dir.join("fsync-probe");
    let mut file = std::fs::File::create(&path)?;
    let mut samples = Vec::with_capacity(100);
    for _ in 0..100 {
        let t = Instant::now();
        file.write_all(&[0xA5; 64])?;
        file.sync_data()?;
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(file);
    std::fs::remove_file(&path)?;
    Ok(Environment {
        nproc,
        filesystem: filesystem_of(dir).unwrap_or_else(|| "unknown".into()),
        fsync_us_p50: crate::stats::median(&samples),
    })
}

/// The filesystem type of the longest mount point that prefixes `dir`.
fn filesystem_of(dir: &Path) -> Option<String> {
    let dir = dir.canonicalize().ok()?;
    let table = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    let mut best: Option<(usize, String)> = None;
    for line in table.lines() {
        // `id parent major:minor root mount-point options... - fstype source`
        let fields: Vec<&str> = line.split(' ').collect();
        let mount = fields.get(4)?;
        let dash = fields.iter().position(|f| *f == "-")?;
        let fstype = fields.get(dash + 1)?;
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map(|(_, fs)| fs)
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine-wide CPU time counters (`/proc/stat`, in ticks).
pub fn cpu_ticks() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    line.split_whitespace().map(|t| t.parse().ok()).collect()
}

/// The share of CPU time stolen by the hypervisor since `before` was read:
/// a busy host slows every timing of the run.
pub fn steal_share_since(before: &Option<Vec<u64>>) -> Option<f64> {
    let (before, after) = (before.as_ref()?, cpu_ticks()?);
    let delta: Vec<u64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let total: u64 = delta.iter().sum();
    // Fields: user nice system idle iowait irq softirq steal ...
    let steal = *delta.get(7)?;
    (total > 0).then(|| steal as f64 / total as f64)
}
