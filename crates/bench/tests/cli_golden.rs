//! Pins the user-facing CLI text: `run -- help` and `run -- list` are
//! golden files, so a flag or subcommand rename shows up as a reviewed
//! diff instead of silently drifting away from the docs.
//!
//! When a deliberate CLI change alters the text, regenerate with:
//!
//! ```text
//! MS_BLESS=1 cargo test -p ms-bench --test cli_golden
//! ```
//!
//! and update the command tables in `EXPERIMENTS.md` to match.

use std::path::PathBuf;

use ms_bench::cli;

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

fn assert_golden(name: &str, got: &str) {
    let path = golden(name);
    if std::env::var_os("MS_BLESS").is_some() {
        std::fs::write(&path, got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden file exists (MS_BLESS=1 to create)");
    assert_eq!(
        got, want,
        "`{name}` changed; if intentional, re-bless with MS_BLESS=1 and \
         update EXPERIMENTS.md"
    );
}

#[test]
fn help_text_is_stable() {
    assert_golden("help.txt", &cli::help_text());
}

#[test]
fn list_text_is_stable() {
    assert_golden("list.txt", &cli::list_text());
}

#[test]
fn policies_text_is_stable() {
    assert_golden("policies.txt", &cli::policies_text());
}

#[test]
fn list_text_names_every_benchmark_and_sweep() {
    // Structural backstop independent of the golden bytes: `list` must
    // enumerate the full registry, whatever the formatting.
    let text = cli::list_text();
    for w in ms_workloads::suite() {
        assert!(text.contains(w.name), "list must mention benchmark `{}`", w.name);
    }
    for name in ms_bench::sweeps::SweepSpec::ALL.map(|s| s.name()) {
        assert!(text.contains(name), "list must mention sweep `{name}`");
    }
}
