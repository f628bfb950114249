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
use std::process::Command;

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

/// `--seed` takes the hex form `run -- help` shows and a `FAIL seed`
/// line prints, so a failure re-runs as printed.
#[test]
fn fuzz_accepts_the_hex_seed_it_prints() {
    let dir = std::env::temp_dir().join(format!("ms-hex-seed-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_run"))
        .args(["fuzz", "--seeds", "1", "--seed", "0x2a", "--out"])
        .arg(&dir)
        .output()
        .expect("spawn run binary");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("base seed 0x2a"), "{stdout}");
}
