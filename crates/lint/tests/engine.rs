//! Proves each lint is live: fixture files with seeded violations must
//! produce findings at exactly the expected `file:line`, the lexer-noise
//! fixture (every token hidden in strings/comments) must produce none, and
//! malformed suppressions must both survive as findings and suppress
//! nothing.
//!
//! Fixtures live under `tests/fixtures/` (not compiled as test targets, and
//! excluded from the production walk by `excluded_dirs`); each is linted
//! under a *pretend* workspace path that turns the relevant rules on.

use lkp_lint::{lint_source, Finding, Lint, LintConfig};

fn lines_of(findings: &[Finding], lint: Lint) -> Vec<usize> {
    findings
        .iter()
        .filter(|f| f.lint == lint)
        .map(|f| f.line)
        .collect()
}

fn assert_only(findings: &[Finding], lint: Lint) {
    let other: Vec<_> = findings.iter().filter(|f| f.lint != lint).collect();
    assert!(other.is_empty(), "unexpected extra findings: {other:?}");
}

#[test]
fn l1_hotpath_alloc_fires_on_every_alloc_token() {
    let findings = lint_source(
        "crates/dpp/src/workspace.rs",
        include_str!("fixtures/l1_hotpath.rs"),
        &LintConfig::repo_default(),
    );
    assert_eq!(
        lines_of(&findings, Lint::HotpathAlloc),
        vec![6, 14, 18, 22, 26, 30, 34],
        "findings: {findings:?}"
    );
    assert_only(&findings, Lint::HotpathAlloc);
}

#[test]
fn l1_is_scoped_to_hot_path_modules() {
    let findings = lint_source(
        "crates/serve/src/frontend/driver.rs",
        include_str!("fixtures/l1_hotpath.rs"),
        &LintConfig::repo_default(),
    );
    assert!(
        lines_of(&findings, Lint::HotpathAlloc).is_empty(),
        "L1 must not apply outside the configured modules: {findings:?}"
    );
}

#[test]
fn l2_lock_scope_fires_under_live_guards_only() {
    let findings = lint_source(
        "crates/runtime/src/fixture.rs",
        include_str!("fixtures/l2_lock.rs"),
        &LintConfig::repo_default(),
    );
    assert_eq!(
        lines_of(&findings, Lint::LockScope),
        vec![22, 30, 65],
        "findings: {findings:?}"
    );
    assert_only(&findings, Lint::LockScope);
}

#[test]
fn l3_determinism_fires_on_clocks_and_hash_iteration() {
    let findings = lint_source(
        "crates/eval/src/fixture.rs",
        include_str!("fixtures/l3_determinism.rs"),
        &LintConfig::repo_default(),
    );
    assert_eq!(
        lines_of(&findings, Lint::Determinism),
        vec![5, 13, 17, 18, 23, 31, 36],
        "findings: {findings:?}"
    );
    assert_only(&findings, Lint::Determinism);
}

#[test]
fn l4_unsafe_audit_fires_everywhere_including_tests() {
    let findings = lint_source(
        "crates/serve/tests/fixture.rs", // outside every L1–L3 module list
        include_str!("fixtures/l4_unsafe.rs"),
        &LintConfig::repo_default(),
    );
    assert_eq!(
        lines_of(&findings, Lint::UnsafeAudit),
        vec![5, 9, 34, 43],
        "findings: {findings:?}"
    );
    assert_only(&findings, Lint::UnsafeAudit);
}

#[test]
fn lexer_noise_produces_zero_findings() {
    // Linted as a module where L1, L2, AND L3 all apply: every token in the
    // fixture sits inside a string or comment, so nothing may fire.
    let findings = lint_source(
        "crates/dpp/src/map.rs",
        include_str!("fixtures/lexer_noise.rs"),
        &LintConfig::repo_default(),
    );
    assert!(findings.is_empty(), "findings: {findings:?}");
}

#[test]
fn suppressions_silence_findings_and_malformed_ones_are_findings() {
    let findings = lint_source(
        "crates/dpp/src/workspace.rs",
        include_str!("fixtures/suppressions.rs"),
        &LintConfig::repo_default(),
    );
    // Valid allows (trailing at line 6, above-with-continuation at 10–12)
    // silence their sites; bare/typo'd/non-adjacent ones do not.
    assert_eq!(
        lines_of(&findings, Lint::HotpathAlloc),
        vec![17, 22, 28],
        "findings: {findings:?}"
    );
    assert_eq!(
        lines_of(&findings, Lint::BadAllow),
        vec![16, 21],
        "findings: {findings:?}"
    );
}

#[test]
fn tree_walk_skips_fixture_directories() {
    // The production walk must never lint these seeded-violation files.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let (findings, scanned) = lkp_lint::lint_tree(&root, &LintConfig::repo_default());
    assert!(scanned > 0, "walk found no files");
    assert!(
        findings.iter().all(|f| !f.path.contains("fixtures/")),
        "fixture file leaked into the walk: {findings:?}"
    );
}
