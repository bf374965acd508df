//! The provenance stamped on every result: host width, toolchain, commit,
//! and the size of the Rust code under test.

use std::path::Path;
use std::process::{Command, Stdio};

/// `nproc` of the host on which the bounds in `BENCHMARK.json` were fixed.
pub const RECORDED_NPROC: usize = 2;

/// Directories skipped by the line count: the benchmark itself and build
/// output.
const SKIP_DIRS: [&str; 3] = ["perfbench", "target", "vendor"];

#[derive(Debug, Clone)]
pub struct Stamp {
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
    pub rust_lines: usize,
}

/// First stdout line of a command, or `"unknown"` when it cannot run. The
/// child is always waited for. Git may not search above the working
/// directory, so a checkout that is not a repository reads as `"unknown"`.
fn first_line(program: &str, args: &[&str]) -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Lines of `.rs` files under `dir`, skipping hidden directories and
/// [`SKIP_DIRS`].
fn rust_lines(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut total = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if !name.starts_with('.') && !SKIP_DIRS.contains(&name.as_str()) {
                total += rust_lines(&path);
            }
        } else if name.ends_with(".rs") {
            total += std::fs::read_to_string(&path).map_or(0, |s| s.lines().count());
        }
    }
    total
}

/// Collects the stamp for a run started at the repository root.
pub fn collect() -> Stamp {
    Stamp {
        nproc: lkp::runtime::resolve_threads(0),
        rustc: first_line("rustc", &["--version"]),
        commit: first_line("git", &["rev-parse", "--short=12", "HEAD"]),
        rust_lines: rust_lines(Path::new(".")),
    }
}

impl Stamp {
    /// The stamp as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"recorded_nproc\":{},\"rustc\":\"{}\",\"commit\":\"{}\",\"rust_lines\":{}}}",
            self.nproc,
            RECORDED_NPROC,
            self.rustc.replace('"', "'"),
            self.commit.replace('"', "'"),
            self.rust_lines
        )
    }
}
