//! Facts about the host and build that every result carries, so results
//! from different hosts or toolchains are never compared silently, plus
//! the process's peak resident memory.

use std::path::Path;

/// Host and build facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostFacts {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
    /// Cargo profile the benchmark was built with.
    pub profile: String,
}

impl HostFacts {
    /// Collects the facts; the commit is read from `.git` under `root`.
    pub fn collect(root: &Path) -> Self {
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            commit: git_commit(root).unwrap_or_else(|| "unknown".to_string()),
            profile: env!("PERFBENCH_PROFILE").to_string(),
        }
    }

    /// The facts as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"rustc\":\"{}\",\"commit\":\"{}\",\"profile\":\"{}\"}}",
            self.nproc,
            self.rustc.replace('"', "'"),
            self.commit,
            self.profile
        )
    }
}

/// Resolves `HEAD` by reading the files under `root/.git` directly, so no
/// process is started and nothing outside `root` is read.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
