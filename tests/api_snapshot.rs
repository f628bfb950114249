//! Public-API snapshot: every `pub` item declaration across the
//! workspace crates, pinned to a committed text file. An accidental
//! signature change, removal, or addition to the typed public surface
//! fails this test; a deliberate one is re-blessed with:
//!
//! ```text
//! MS_BLESS=1 cargo test --test api_snapshot
//! ```
//!
//! and reviewed as part of the diff (the snapshot file *is* the API
//! changelog). Wired into `scripts/check.sh`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Workspace-relative source roots that define the public surface.
const SOURCE_ROOTS: &[&str] = &[
    "src",
    "crates/prof/src",
    "crates/ir/src",
    "crates/analysis/src",
    "crates/core/src",
    "crates/trace/src",
    "crates/sim/src",
    "crates/workloads/src",
    "crates/conform/src",
    "crates/bench/src",
];

/// Item kinds that make up the API surface. `pub(crate)` and friends
/// never match because of the following `(`.
const KINDS: &[&str] = &[
    "pub fn ",
    "pub const fn ",
    "pub unsafe fn ",
    "pub async fn ",
    "pub struct ",
    "pub enum ",
    "pub trait ",
    "pub type ",
    "pub const ",
    "pub static ",
    "pub mod ",
    "pub use ",
];

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Extracts the normalized `pub` declarations of one file: each
/// declaration is cut at its body (`{`), terminator (`;`) or value
/// (`=`), whitespace-collapsed, and prefixed with the file's
/// workspace-relative path.
fn declarations_of(path: &Path, rel: &str, out: &mut Vec<String>) {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    let mut i = 0;
    while i < lines.len() {
        let trimmed = lines[i].trim_start();
        // Test modules are not public API even if items inside say `pub`.
        if trimmed.starts_with("#[cfg(test)]") {
            break;
        }
        if KINDS.iter().any(|k| trimmed.starts_with(k)) {
            let mut decl = String::new();
            for line in &lines[i..] {
                let piece = line.trim();
                if !decl.is_empty() {
                    decl.push(' ');
                }
                decl.push_str(piece);
                i += 1;
                if piece.contains('{') || piece.contains(';') || piece.contains('=') {
                    break;
                }
            }
            let cut = decl.find(['{', ';', '=']).unwrap_or(decl.len());
            let sig = decl[..cut].trim_end().to_string();
            out.push(format!("{rel}: {sig}"));
        } else {
            i += 1;
        }
    }
}

fn snapshot() -> String {
    let root = workspace_root();
    let mut decls = Vec::new();
    for src in SOURCE_ROOTS {
        for file in rust_files(&root.join(src)) {
            let rel = file.strip_prefix(&root).unwrap().to_string_lossy().replace('\\', "/");
            declarations_of(&file, &rel, &mut decls);
        }
    }
    decls.sort();
    let mut out = String::from(
        "# Public API snapshot — every `pub` declaration in the workspace.\n\
         # Regenerate deliberately with: MS_BLESS=1 cargo test --test api_snapshot\n",
    );
    for d in &decls {
        writeln!(out, "{d}").unwrap();
    }
    out
}

#[test]
fn public_api_matches_snapshot() {
    let got = snapshot();
    let path = workspace_root().join("tests/api_snapshot.txt");
    if std::env::var_os("MS_BLESS").is_some() {
        std::fs::write(&path, &got).expect("write snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .expect("tests/api_snapshot.txt exists (MS_BLESS=1 to create)");
    if got != want {
        let got_lines: std::collections::BTreeSet<_> = got.lines().collect();
        let want_lines: std::collections::BTreeSet<_> = want.lines().collect();
        let mut diff = String::new();
        for l in want_lines.difference(&got_lines) {
            writeln!(diff, "- {l}").unwrap();
        }
        for l in got_lines.difference(&want_lines) {
            writeln!(diff, "+ {l}").unwrap();
        }
        panic!(
            "public API surface changed; if deliberate, re-bless with \
             MS_BLESS=1 cargo test --test api_snapshot\n{diff}"
        );
    }
}

#[test]
fn snapshot_covers_the_new_surface() {
    // Sanity: the snapshot actually sees the API this PR introduces.
    let s = snapshot();
    for needle in [
        "pub fn select(&self, ctx: &ProgramContext)",
        "pub struct ProgramContext",
        "pub struct SelectorBuilder",
        "pub enum Strategy",
        "pub struct CostModel",
        "pub fn summary(&self) -> &'static str",
        "pub enum SweepSpec",
        "pub enum BenchError",
        "pub enum BuildError",
        "pub struct CellCache",
        "pub fn run_suite(",
    ] {
        assert!(s.contains(needle), "snapshot is missing `{needle}`");
    }
}
