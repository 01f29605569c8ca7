//! rcbr-lint: the in-tree determinism linter.
//!
//! The runtime's headline invariant — the sharded signaling engine is
//! bit-identical to the sequential replay under every fault mode — is
//! *structural*. rustc and clippy enforce most of it on every build (no
//! host clock, no hash order, no `unsafe`, no unnamed panics, private
//! counters, disjoint salts, phase-locked state moved only at quiescence:
//! `clippy.toml`, the type system and DESIGN.md §7). This linter checks the
//! three rules whose compiler replacements would change a signature the
//! benchmark compiles against: superstep counts for leases and measurement
//! windows are named, and salts come from the one registry.
//!
//! Architecture (all in-tree, no dependencies — the build environment is
//! offline and the linter must never be able to break the build it
//! gates):
//!
//! * [`lexer`] — a small Rust tokenizer: identifiers, literals, and
//!   punctuation with line numbers; strings and comments can never
//!   produce identifier tokens, so rules match real code only.
//! * [`source`] — per-file metadata: `#[cfg(test)]` regions and
//!   `lint:allow(rule)` suppressions.
//! * [`config`] — a minimal TOML-subset reader for `lint.toml`.
//! * [`rules`] — the registry: one table entry per rule; see
//!   `DESIGN.md §7` for the catalog.
//! * [`diag`] — diagnostics and the canonical (sorted, byte-stable)
//!   human + JSON rendering.
//!
//! The `lint` binary scans the workspace, prints `file:line` diagnostics,
//! writes `results/lint_report.json`, and exits nonzero under `--deny`.

pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod source;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use config::Config;
use diag::{Diagnostic, LintReport, RuleSummary};
use source::SourceFile;

/// Lint a single source text, as the file `rel_path` of `crate_name`.
/// Returns the diagnostics plus per-rule suppression counts. This is the
/// entry point the fixture tests drive directly.
pub fn check_source(
    rel_path: &str,
    crate_name: &str,
    is_test_target: bool,
    source: &str,
    cfg: &Config,
) -> (
    Vec<Diagnostic>,
    std::collections::BTreeMap<&'static str, usize>,
) {
    let file = SourceFile::new(rel_path, crate_name, is_test_target, source);
    let mut violations = Vec::new();
    let suppressed = rules::check_file(&file, cfg, &mut violations);
    (violations, suppressed)
}

/// Walk upward from `start` to the directory holding `lint.toml`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("lint.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Classify a workspace-relative path into (crate directory name,
/// is-test-target).
fn classify(rel: &str) -> (String, bool) {
    let parts: Vec<&str> = rel.split('/').collect();
    let crate_name = match parts.as_slice() {
        ["crates", name, ..] => (*name).to_string(),
        _ => "workspace-root".to_string(),
    };
    let is_test = parts
        .iter()
        .any(|p| matches!(*p, "tests" | "benches" | "examples" | "fixtures"));
    (crate_name, is_test)
}

/// Collect every `.rs` file under the workspace `root`, skipping `target`,
/// hidden directories, and the `lint.toml` `[lint] exclude` prefixes.
/// Sorted, so discovery order is deterministic.
pub fn collect_files(root: &Path, cfg: &Config) -> io::Result<Vec<PathBuf>> {
    let excludes = cfg.list("lint", "exclude");
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with('.') || name == "target" {
                continue;
            }
            let rel = rel_path(root, &path);
            if excludes
                .iter()
                .any(|e| rel == *e || rel.starts_with(&format!("{e}/")))
            {
                continue;
            }
            let ty = entry.file_type()?;
            if ty.is_dir() {
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Workspace-relative path with forward slashes.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lint an explicit file list (paths under `root`). The report is
/// canonical: independent of the order of `files`.
pub fn run_lint_files(root: &Path, cfg: &Config, files: &[PathBuf]) -> io::Result<LintReport> {
    let mut violations = Vec::new();
    let mut suppressed = std::collections::BTreeMap::new();
    for path in files {
        let rel = rel_path(root, path);
        let (crate_name, is_test) = classify(&rel);
        let source = fs::read_to_string(path)?;
        let file = SourceFile::new(&rel, &crate_name, is_test, &source);
        for (rule, n) in rules::check_file(&file, cfg, &mut violations) {
            *suppressed.entry(rule).or_insert(0) += n;
        }
    }
    let rules = rules::RULES
        .iter()
        .map(|r| RuleSummary {
            id: r.id.to_string(),
            summary: r.summary.to_string(),
            violations: violations.iter().filter(|d| d.rule == r.id).count(),
            suppressed: suppressed.get(r.id).copied().unwrap_or(0),
        })
        .collect();
    let mut report = LintReport {
        files_scanned: files.len(),
        rules,
        violations,
        suppressed: suppressed.values().sum(),
    };
    report.canonicalize();
    Ok(report)
}

/// Lint the whole workspace under `root`.
pub fn run_lint(root: &Path, cfg: &Config) -> io::Result<LintReport> {
    let files = collect_files(root, cfg)?;
    run_lint_files(root, cfg, &files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(
            classify("crates/rcbr-runtime/src/engine.rs"),
            ("rcbr-runtime".to_string(), false)
        );
        assert_eq!(
            classify("crates/rcbr-net/tests/delta_resync.rs"),
            ("rcbr-net".to_string(), true)
        );
        assert_eq!(
            classify("src/lib.rs"),
            ("workspace-root".to_string(), false)
        );
        assert_eq!(
            classify("crates/rcbr-lint/tests/fixtures/lease_units/trip.rs"),
            ("rcbr-lint".to_string(), true)
        );
    }
}
