//! Host identity and memory high-water marks for every result record.

use dsmc_bench::json;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// CPU model name from `/proc/cpuinfo` (`unknown` elsewhere).
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Cache levels of CPU 0, as `L1d 48K, L1i 32K, L2 2048K, …`.
fn cache_sizes() -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = base.join(format!("index{i}"));
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).map(|s| s.trim().to_string());
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            break;
        };
        let suffix = match kind.as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.push(format!("L{level}{suffix} {size}"));
    }
    if out.is_empty() {
        "unknown".into()
    } else {
        out.join(", ")
    }
}

/// The source revision: `git rev-parse HEAD` where the tree is a git
/// checkout, otherwise an FNV-64 digest of the sources the benchmark
/// builds from (a plain export of the tree has no git metadata).
fn source_rev() -> String {
    if Path::new(".git").exists() {
        let git = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output();
        if let Ok(out) = git {
            let rev = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if out.status.success() && !rev.is_empty() {
                return rev;
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "vendor", "perfbench/src"] {
        collect_sources(Path::new(root), &mut files);
    }
    files.extend(
        ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"]
            .iter()
            .map(|p| p.into()),
    );
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-fnv64:{h:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if matches!(
            p.extension().and_then(|x| x.to_str()),
            Some("rs") | Some("toml")
        ) {
            out.push(p);
        }
    }
}

/// The identity block of a result record.
pub fn identity(
    seed: u64,
    sim_seed: u64,
    campaign_seed: u64,
    shard_workers: usize,
) -> json::Object {
    let mut j = json::Object::new();
    j.str("cpu_model", &cpu_model());
    j.int(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as i64,
    );
    j.str("caches", &cache_sizes());
    j.int("rayon_threads", rayon::current_num_threads() as i64);
    j.int("shard_workers", shard_workers as i64);
    j.str("source_rev", &source_rev());
    j.int("workload_seed", seed as i64);
    j.str("sim_seed", &format!("{sim_seed:#x}"));
    j.str("campaign_seed", &format!("{campaign_seed:#x}"));
    j
}

/// Samples the peak resident set of this process's children (the
/// campaign workers) while they run, from `/proc`.
///
/// `getrusage(RUSAGE_CHILDREN)` will not do: its high-water mark carries
/// over what the process that launched the benchmark had resident, so a
/// run started by a `cargo run` that first built the benchmark reports
/// cargo's footprint.
pub struct ChildPeak {
    stop: Arc<AtomicBool>,
    peak_kb: Arc<AtomicU64>,
    poller: std::thread::JoinHandle<()>,
}

/// How often [`ChildPeak`] looks at the children.
const CHILD_POLL: Duration = Duration::from_millis(10);

impl ChildPeak {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak_kb = Arc::new(AtomicU64::new(0));
        let (s, p) = (stop.clone(), peak_kb.clone());
        let me = std::process::id().to_string();
        let poller = std::thread::spawn(move || {
            while !s.load(Ordering::Relaxed) {
                p.fetch_max(children_hwm_kb(&me), Ordering::Relaxed);
                std::thread::sleep(CHILD_POLL);
            }
        });
        Self {
            stop,
            peak_kb,
            poller,
        }
    }

    /// Stop sampling; the largest child peak seen, in MB.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.poller
            .join()
            .expect("the child-peak poller only reads /proc");
        self.peak_kb.load(Ordering::Relaxed) as f64 / 1024.0
    }
}

/// `VmHWM` field of a `/proc/<pid>/status` text, in kB.
fn hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse().ok())
}

/// Largest `VmHWM` among the live processes whose parent is `parent`.
fn children_hwm_kb(parent: &str) -> u64 {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return 0;
    };
    let mut peak = 0;
    for e in entries.flatten() {
        let dir = e.path();
        let Ok(stat) = std::fs::read_to_string(dir.join("stat")) else {
            continue;
        };
        // `pid (comm) state ppid …`: the command may hold spaces.
        let ppid = stat
            .rsplit_once(')')
            .and_then(|(_, rest)| rest.split_whitespace().nth(1));
        if ppid != Some(parent) {
            continue;
        }
        if let Some(kb) = std::fs::read_to_string(dir.join("status"))
            .ok()
            .and_then(|t| hwm_kb(&t))
        {
            peak = peak.max(kb);
        }
    }
    peak
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| hwm_kb(&t))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_peak_sees_a_running_child() {
        let peak = ChildPeak::start();
        let mut child = std::process::Command::new("sleep")
            .arg("0.3")
            .spawn()
            .expect("`sleep` runs");
        child.wait().expect("`sleep` ends");
        assert!(peak.finish() > 0.0);
    }
}
