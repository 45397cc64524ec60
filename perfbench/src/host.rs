//! The host record printed beside every result: what ran, where, how
//! built, and on which seed.

use std::fs;

/// Facts about the host and build that a figure depends on.
#[derive(Debug, Clone)]
pub struct HostRecord {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Compiler that built the benchmark.
    pub rustc: String,
    /// Commit of the checkout, when it is a git checkout.
    pub commit: String,
    /// Cargo profile and its optimisation settings.
    pub profile: String,
}

impl HostRecord {
    /// Read the record for this process, run from the repository root.
    pub fn read() -> Self {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        HostRecord {
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            commit: git_commit().unwrap_or_else(|| "unknown (not a git checkout)".into()),
            profile: format!("{} (lto=fat, codegen-units=1)", env!("PERFBENCH_PROFILE")),
        }
    }
}

/// `HEAD`'s commit, read from `.git` without running git.
fn git_commit() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(c) = fs::read_to_string(format!(".git/{r}")) {
        return Some(c.trim().to_string());
    }
    fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find(|l| l.ends_with(r))
        .and_then(|l| l.split(' ').next())
        .map(str::to_string)
}
