//! `lkp-lint` — in-repo static analysis for the invariants the compiler
//! cannot see.
//!
//! Every layer of this workspace rests on conventions that are enforced
//! nowhere in the type system: the training/serving hot paths must stay
//! allocation-free, kernel assembly must never run under a lock, the
//! bitwise-equivalence gates assume no wall-clock reads or hash-order
//! iteration inside the deterministic core, and every `unsafe` block needs a
//! written justification. This crate turns those conventions into
//! machine-checked rules:
//!
//! | lint            | rule |
//! |-----------------|------|
//! | `hotpath-alloc` | no allocating calls (`Vec::new`, `vec![`, `to_vec`, `collect`, `Box::new`, `format!`, `String::from`) in the configured hot-path modules |
//! | `lock-scope`    | no expensive-work calls (`assemble*`, `compute*`, `eigen*`, `gram*`, `matmul*`, `prewarm*`, `pump*`, `rank*`) inside the lexical scope of a live `.lock()` guard |
//! | `determinism`   | no `Instant::now` / `SystemTime`, and no `HashMap`/`HashSet` iteration, inside the bitwise-pinned core |
//! | `unsafe-audit`  | every `unsafe` keyword is immediately preceded by a `// SAFETY:` comment |
//!
//! Findings print as `file:line: [lint] message` and are suppressible only
//! by an inline `// lint:allow(<name>): <reason>` on the offending line or
//! the line directly above — the reason is mandatory and checked (a bare
//! allow is itself a finding, and suppresses nothing).
//!
//! The engine is a lexical pass, not a parser (see [`lexer`]): comments and
//! literal contents are stripped before any rule matches, so documentation
//! can mention `Vec::new()` freely. Known limits are documented per lint in
//! `docs/LINTS.md` — the rules are tuned to this repo's idioms (rustfmt
//! formatting, guard bindings named on the `.lock()` line).

pub mod config;
pub mod lexer;
pub mod lints;
pub mod suppress;

pub use config::LintConfig;

use lexer::{brace_depths, scan, test_regions, Scanned};
use std::path::Path;

/// Which rule produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lint {
    /// L1: allocating call in a hot-path module.
    HotpathAlloc,
    /// L2: expensive work inside a live lock-guard scope.
    LockScope,
    /// L3: clock read or hash-order iteration in the deterministic core.
    Determinism,
    /// L4: `unsafe` without an immediately preceding `// SAFETY:` comment.
    UnsafeAudit,
    /// A malformed suppression: missing reason or unknown lint name.
    BadAllow,
}

impl Lint {
    /// The name used in output and in `lint:allow(<name>)`.
    pub fn name(self) -> &'static str {
        match self {
            Lint::HotpathAlloc => "hotpath-alloc",
            Lint::LockScope => "lock-scope",
            Lint::Determinism => "determinism",
            Lint::UnsafeAudit => "unsafe-audit",
            Lint::BadAllow => "bad-allow",
        }
    }

    /// Parses a `lint:allow` name. [`Lint::BadAllow`] is not suppressible
    /// and therefore not parseable.
    pub fn from_allow_name(name: &str) -> Option<Self> {
        match name {
            "hotpath-alloc" => Some(Lint::HotpathAlloc),
            "lock-scope" => Some(Lint::LockScope),
            "determinism" => Some(Lint::Determinism),
            "unsafe-audit" => Some(Lint::UnsafeAudit),
            _ => None,
        }
    }
}

impl std::fmt::Display for Lint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One violation, anchored to a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// The rule that fired.
    pub lint: Lint,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.lint, self.message
        )
    }
}

/// A scanned file plus the derived structure every analyzer shares.
pub struct FileView<'a> {
    /// Workspace-relative path with `/` separators.
    pub rel_path: &'a str,
    /// Code/comment channels from the lexer.
    pub scanned: &'a Scanned,
    /// Brace depth at the start of each line.
    pub depth_start: &'a [usize],
    /// Lines inside `#[cfg(test)]` / `#[test]` items.
    pub in_test: &'a [bool],
}

/// Lints one file's source text. `rel_path` decides which rules apply (see
/// [`LintConfig`]); suppressions are resolved here, so the returned findings
/// are final.
pub fn lint_source(rel_path: &str, source: &str, config: &LintConfig) -> Vec<Finding> {
    let scanned = scan(source);
    let depth_start = brace_depths(&scanned.code);
    let in_test = test_regions(&scanned.code);
    let view = FileView {
        rel_path,
        scanned: &scanned,
        depth_start: &depth_start,
        in_test: &in_test,
    };

    let mut findings = Vec::new();
    if config.is_hot_path(rel_path) {
        lints::hotpath_alloc::check(&view, config, &mut findings);
    }
    if config.is_lock_scope(rel_path) {
        lints::lock_scope::check(&view, config, &mut findings);
    }
    if config.is_deterministic_core(rel_path) {
        lints::determinism::check(&view, config, &mut findings);
    }
    lints::unsafe_audit::check(&view, &mut findings);

    suppress::apply(rel_path, &scanned, &mut findings);
    findings.sort_by(|a, b| (a.line, a.lint.name()).cmp(&(b.line, b.lint.name())));
    findings
}

/// Walks the workspace tree at `root` and lints every `.rs` file under the
/// configured source roots. Returns `(findings, files_scanned)`.
pub fn lint_tree(root: &Path, config: &LintConfig) -> (Vec<Finding>, usize) {
    let mut files = Vec::new();
    for dir in &config.source_roots {
        collect_rs_files(&root.join(dir), root, config, &mut files);
    }
    files.sort();
    let mut findings = Vec::new();
    let scanned = files.len();
    for rel in files {
        let source = match std::fs::read_to_string(root.join(&rel)) {
            Ok(s) => s,
            Err(_) => continue,
        };
        findings.extend(lint_source(&rel, &source, config));
    }
    (findings, scanned)
}

fn collect_rs_files(dir: &Path, root: &Path, config: &LintConfig, out: &mut Vec<String>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if config.excluded_dirs.iter().any(|d| d == name.as_ref()) {
                continue;
            }
            collect_rs_files(&path, root, config, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_names_round_trip() {
        for lint in [
            Lint::HotpathAlloc,
            Lint::LockScope,
            Lint::Determinism,
            Lint::UnsafeAudit,
        ] {
            assert_eq!(Lint::from_allow_name(lint.name()), Some(lint));
        }
        assert_eq!(Lint::from_allow_name("bad-allow"), None);
        assert_eq!(Lint::from_allow_name("nonsense"), None);
    }

    #[test]
    fn findings_format_as_file_line_lint() {
        let f = Finding {
            path: "crates/x/src/lib.rs".into(),
            line: 7,
            lint: Lint::HotpathAlloc,
            message: "allocating call `Vec::new`".into(),
        };
        assert_eq!(
            f.to_string(),
            "crates/x/src/lib.rs:7: [hotpath-alloc] allocating call `Vec::new`"
        );
    }
}
