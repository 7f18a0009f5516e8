//! Host facts recorded next to every number.

use std::path::Path;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub commit: String,
}

fn first_line_after(text: &str, key: &str) -> Option<String> {
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// The checked-out commit, read from `.git` without running git; a
/// checkout that is not a repository reports "unknown".
fn commit_id() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .ok()
            .map(|s| s.trim().to_string()),
    }
}

impl Host {
    pub fn detect() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|t| first_line_after(&t, "model name"))
                .unwrap_or_else(|| "unknown".into()),
            commit: commit_id().unwrap_or_else(|| "unknown".into()),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("nproc", Json::Num(self.nproc as f64)),
            ("cpu_model", Json::str(&self.cpu_model)),
            ("commit", Json::str(&self.commit)),
        ])
    }
}

/// Filesystem type and device of `dir`: the mount with the longest mount
/// point that is a prefix of the canonical path, and `st_dev`.
pub fn filesystem_of(dir: &Path) -> (String, u64) {
    use std::os::unix::fs::MetadataExt;
    let device = std::fs::metadata(dir).map_or(0, |m| m.dev());
    let canonical = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let fs = mounts
        .lines()
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let (_, point, fs) = (parts.next()?, parts.next()?, parts.next()?);
            canonical
                .starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs);
    (fs, device)
}
