//! Which rules apply where. Paths are workspace-relative with `/`
//! separators; a list entry matches a file when it is a prefix of (or equal
//! to) the file's path, so `crates/serve/src/cache` covers both `cache.rs`
//! and everything under `cache/`.

/// The rule configuration: module lists, token lists, and walk roots.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Modules whose non-test code must stay allocation-free (L1).
    pub hot_path_modules: Vec<String>,
    /// Files L2 (lock-scope) applies to. Defaults to every `src/` tree —
    /// test code synchronizes with mutexes freely.
    pub lock_scope_modules: Vec<String>,
    /// The bitwise-pinned deterministic core (L3): no clock reads, no
    /// hash-order iteration.
    pub deterministic_modules: Vec<String>,
    /// Allocating calls denied on hot paths (L1 token list).
    pub alloc_tokens: Vec<String>,
    /// Expensive-work call prefixes denied under a live lock guard (L2): an
    /// identifier starting with one of these, called inside a guard scope,
    /// is a finding (`assemble` also catches `assemble_kernel`, …).
    pub expensive_call_prefixes: Vec<String>,
    /// Directories walked by [`crate::lint_tree`].
    pub source_roots: Vec<String>,
    /// Directory names skipped during the walk (anywhere in the tree).
    pub excluded_dirs: Vec<String>,
}

fn strings(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

impl LintConfig {
    /// The workspace's production configuration — the module lists CI
    /// enforces. Kept in one place so `docs/LINTS.md` has a single source of
    /// truth to mirror.
    pub fn repo_default() -> Self {
        LintConfig {
            hot_path_modules: strings(&[
                "crates/dpp/src/workspace.rs",
                "crates/dpp/src/map.rs",
                "crates/dpp/src/map_dual.rs",
                "crates/dpp/src/esp.rs",
                "crates/dpp/src/batch.rs",
                "crates/serve/src/ranker.rs",
                "crates/serve/src/cache",
                "crates/linalg/src/eigen.rs",
                "crates/core/src/trainer/update.rs",
                "crates/data/src/delta.rs",
                "crates/nn/src/embedding.rs",
                "crates/nn/src/optim.rs",
            ]),
            lock_scope_modules: strings(&["crates/", "src/"]),
            deterministic_modules: strings(&[
                "crates/dpp/src/",
                "crates/linalg/src/",
                "crates/eval/src/",
                "crates/serve/src/frontend/core.rs",
                "crates/core/src/trainer/update.rs",
                "crates/data/src/delta.rs",
            ]),
            alloc_tokens: strings(&[
                "Vec::new",
                "vec!",
                "to_vec",
                "collect",
                "Box::new",
                "format!",
                "String::from",
            ]),
            expensive_call_prefixes: strings(&[
                "assemble", "compute", "eigen", "gram", "matmul", "prewarm", "pump", "rank",
            ]),
            source_roots: strings(&["crates", "src", "examples"]),
            excluded_dirs: strings(&["target", "fixtures", "vendor"]),
        }
    }

    fn matches(list: &[String], rel_path: &str) -> bool {
        list.iter().any(|m| rel_path.starts_with(m.as_str()))
    }

    /// Whether `rel_path` is in the allocation-free hot-path set (L1).
    pub fn is_hot_path(&self, rel_path: &str) -> bool {
        Self::matches(&self.hot_path_modules, rel_path)
    }

    /// Whether L2 applies to `rel_path`. Only `src/` trees are checked:
    /// integration tests and benches may hold locks around anything.
    pub fn is_lock_scope(&self, rel_path: &str) -> bool {
        Self::matches(&self.lock_scope_modules, rel_path) && rel_path.contains("src/")
    }

    /// Whether `rel_path` is in the bitwise-pinned deterministic core (L3).
    pub fn is_deterministic_core(&self, rel_path: &str) -> bool {
        Self::matches(&self.deterministic_modules, rel_path)
    }
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig::repo_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repo_default_scopes() {
        let c = LintConfig::repo_default();
        assert!(c.is_hot_path("crates/dpp/src/workspace.rs"));
        assert!(c.is_hot_path("crates/serve/src/cache/per_worker.rs"));
        assert!(c.is_hot_path("crates/serve/src/cache.rs"));
        assert!(!c.is_hot_path("crates/serve/src/frontend/core.rs"));
        assert!(c.is_deterministic_core("crates/linalg/src/eigen.rs"));
        assert!(c.is_deterministic_core("crates/serve/src/frontend/core.rs"));
        assert!(!c.is_deterministic_core("crates/serve/src/frontend/driver.rs"));
        assert!(c.is_lock_scope("crates/serve/src/ranker.rs"));
        assert!(!c.is_lock_scope("crates/serve/tests/robustness.rs"));
        // The refresh pipeline's hot halves: delta planning and the
        // warm-start update engine are both allocation-free and
        // bitwise-pinned.
        assert!(c.is_hot_path("crates/core/src/trainer/update.rs"));
        assert!(c.is_deterministic_core("crates/core/src/trainer/update.rs"));
        assert!(c.is_hot_path("crates/data/src/delta.rs"));
        assert!(c.is_deterministic_core("crates/data/src/delta.rs"));
        assert!(!c.is_hot_path("crates/core/src/trainer/fit.rs"));
        assert!(!c.is_deterministic_core("crates/core/src/trainer/mod.rs"));
        // The optimizer: gradient accumulation and Adam steps run per
        // instance and per batch.
        assert!(c.is_hot_path("crates/nn/src/embedding.rs"));
        assert!(c.is_hot_path("crates/nn/src/optim.rs"));
        assert!(!c.is_hot_path("crates/nn/src/dense.rs"));
    }
}
