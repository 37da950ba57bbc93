//! The run record's host fingerprint and process memory readings.

use std::path::Path;
use std::process::Command;

use tigr_server::json::{obj, Json};

/// Worker threads this host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM`) of this process so far, in MiB (0 where
/// `/proc` is unavailable).
pub fn rss_peak_mb() -> f64 {
    let kib: Option<u64> = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        });
    kib.unwrap_or(0) as f64 / 1024.0
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".into())
}

/// Filesystem type of the mount holding `dir` (longest matching mount
/// point in `/proc/self/mountinfo`).
pub fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    info.lines()
        .filter_map(|line| {
            let (pre, post) = line.split_once(" - ")?;
            let mount = pre.split(' ').nth(4)?;
            let fstype = post.split(' ').next()?;
            dir.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// FNV-1a64 over the workspace crates' and the benchmark's sources, in
/// path order: identifies the code measured when no git metadata is
/// around.
fn source_hash(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench/src"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        let name = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        for b in name.bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Host, toolchain and code identity for the run record.
pub fn fingerprint(root: &Path, tmp: &Path) -> Json {
    obj([
        ("nproc", nproc().into()),
        ("cpu_model", cpu_model().into()),
        ("rustc", command_line("rustc", &["--version"]).into()),
        (
            "git_sha",
            command_line("git", &["rev-parse", "HEAD"]).into(),
        ),
        ("source_fnv1a64", source_hash(root).into()),
        ("tmp_filesystem", filesystem_of(tmp).into()),
    ])
}
