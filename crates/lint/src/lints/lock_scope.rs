//! L2 `lock-scope`: expensive work must never run while a `.lock()` guard is
//! live (kernel assembly under a shared lock serializes every concurrent
//! caller behind it).
//!
//! Scope tracking is lexical, tuned to this repo's rustfmt-normal idioms:
//!
//! - `let guard = x.lock()…;` opens a guard scope that runs to the end of
//!   the enclosing brace block, or to an explicit `drop(guard)` — whichever
//!   comes first.
//! - A `.lock()` with no `let` on its line is a temporary: the guard lives
//!   only until that statement's end, so only its own line is checked.
//!
//! Within a live scope, any call to an identifier starting with one of the
//! configured expensive prefixes (`assemble`, `compute`, `eigen`, `gram`,
//! `matmul`, `prewarm`, `pump`, `rank`) is a finding.

use super::{ident_before, is_ident, next_nonspace_in, prefix_matches, token_matches};
use crate::{FileView, Finding, Lint, LintConfig};

/// A live guard: the region of lines still under its lock.
struct GuardScope {
    /// Binding name (`None` for a same-line temporary).
    name: Option<String>,
    /// Brace depth at the `.lock()` line's start; the scope dies when a
    /// line *starts* shallower than the binding's statement.
    depth: usize,
    /// First line (0-based) of the scope.
    start: usize,
    /// Last line (0-based, inclusive) of the scope.
    end: usize,
}

/// Runs L2 over one file.
pub fn check(view: &FileView<'_>, config: &LintConfig, findings: &mut Vec<Finding>) {
    let code = &view.scanned.code;
    let scopes = guard_scopes(view);
    for scope in &scopes {
        for (idx, line) in code
            .iter()
            .enumerate()
            .take(scope.end + 1)
            .skip(scope.start)
        {
            if view.in_test[idx] {
                continue;
            }
            for prefix in &config.expensive_call_prefixes {
                for at in prefix_matches(line, prefix) {
                    // The match must start an identifier that is *called*:
                    // walk to the identifier's end, then require `(`. (Not
                    // `:` — that would misfire on struct-field initializers
                    // like `prewarmed: guard.prewarmed`.)
                    let end = at
                        + line[at..]
                            .char_indices()
                            .take_while(|&(_, c)| is_ident(c))
                            .last()
                            .map_or(0, |(i, c)| i + c.len_utf8());
                    if !next_nonspace_in(line, end, &['(']) {
                        continue;
                    }
                    let guard = scope.name.as_deref().unwrap_or("<temporary>");
                    findings.push(Finding {
                        path: view.rel_path.to_string(),
                        line: idx + 1,
                        lint: Lint::LockScope,
                        message: format!(
                            "expensive call `{}…` inside the scope of lock guard \
                             `{guard}` (taken line {}) — move the work outside the \
                             lock or justify with `lint:allow(lock-scope): <reason>`",
                            &line[at..end],
                            scope.start + 1,
                        ),
                    });
                }
            }
        }
    }
}

/// Finds every `.lock()` call and derives its guard's lexical scope.
fn guard_scopes(view: &FileView<'_>) -> Vec<GuardScope> {
    let code = &view.scanned.code;
    let mut scopes = Vec::new();
    for (idx, line) in code.iter().enumerate() {
        if view.in_test[idx] {
            continue;
        }
        let Some(at) = line.find(".lock()") else {
            continue;
        };
        // A let binding is only a *guard* binding when the statement ends
        // right after the lock (modulo `.unwrap()` / `.expect(…)` / `?`):
        // `let len = x.lock().unwrap().len();` consumes the guard within the
        // statement, so it scopes like a temporary.
        let name = binding_name(line, at)
            .filter(|_| guard_reaches_statement_end(&line[at + ".lock()".len()..]));
        let end = match &name {
            // Temporary guard: dies at the statement's end; the statement is
            // (in rustfmt-normal code) this line.
            None => idx,
            Some(name) => {
                let depth = view.depth_start[idx];
                let mut end = code.len() - 1;
                for (j, later) in code.iter().enumerate().skip(idx + 1) {
                    if view.depth_start[j] < depth.max(1) {
                        end = j - 1;
                        break;
                    }
                    let dropped = token_matches(later, "drop").iter().any(|&d| {
                        later[d + 4..]
                            .trim_start()
                            .strip_prefix('(')
                            .is_some_and(|rest| rest.trim_start().starts_with(name.as_str()))
                    });
                    if dropped {
                        end = j;
                        break;
                    }
                }
                end
            }
        };
        scopes.push(GuardScope {
            name,
            depth: view.depth_start[idx],
            start: idx,
            end,
        });
    }
    // depth recorded for future analyzers; silence the unused-field warning
    // without dropping the structural information.
    let _ = scopes.first().map(|s| s.depth);
    scopes
}

/// Whether the statement tail after `.lock()` keeps the guard alive past
/// the statement: only unwrap/expect adapters and `?` may intervene before
/// the terminating `;`. (String contents are already blanked, so
/// `.expect("stats lock")` appears here as `.expect("")`.)
fn guard_reaches_statement_end(tail: &str) -> bool {
    let mut rest = tail.trim();
    while let Some(next) = rest
        .strip_prefix(".unwrap()")
        .or_else(|| rest.strip_prefix(".expect(\"\")"))
        .or_else(|| rest.strip_prefix('?'))
    {
        rest = next.trim_start();
    }
    rest.starts_with(';')
}

/// If the `.lock()` at `at` is bound by a `let` on the same line, the
/// binding's name (the identifier directly before `=`, so `let mut g =`,
/// `if let Ok(mut g) =`, and `while let Some(g) =` all resolve to `g`).
fn binding_name(line: &str, at: usize) -> Option<String> {
    let head = &line[..at];
    let let_pos = token_matches(head, "let").into_iter().next_back()?;
    let eq = head[let_pos..].find('=').map(|p| let_pos + p)?;
    ident_before(head, eq)
        .filter(|name| *name != "mut" && *name != "let")
        .map(|name| name.to_string())
}
