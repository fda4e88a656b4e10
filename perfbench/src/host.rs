//! Facts about the host that let a reader tell a slow machine from a slow
//! program: core count, CPU, compiler, commit, and how long this process
//! waited for a CPU.

use std::fs;
use std::path::Path;

/// Host facts recorded with every result.
#[derive(Debug, Clone)]
pub struct HostFacts {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub commit: String,
}

impl HostFacts {
    pub fn collect() -> HostFacts {
        HostFacts {
            nproc: nproc(),
            cpu_model: fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|s| {
                    s.lines()
                        .find(|l| l.starts_with("model name"))
                        .and_then(|l| l.split_once(':'))
                        .map(|(_, v)| v.trim().to_string())
                })
                .unwrap_or_else(|| "unknown".to_string()),
            rustc: env!("PERFBENCH_RUSTC"),
            commit: commit(Path::new(".git")).unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from the git directory without running
/// git; `None` outside a repository.
fn commit(git: &Path) -> Option<String> {
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// Seconds the calling thread has spent runnable but waiting for a CPU
/// (the second field of `/proc/thread-self/schedstat`).
pub fn run_queue_wait_s() -> Option<f64> {
    let text = fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let wait: u64 = text.split_whitespace().nth(1)?.parse().ok()?;
    Some(wait as f64 * 1e-9)
}
