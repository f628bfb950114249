#!/bin/sh
# Tier-1 gate: everything a PR must keep green, in the order a failure
# is cheapest to notice. Runs fully offline (no network, no extra
# toolchain components beyond rustfmt).
#
#   ./scripts/check.sh
#
# 1. release build of every crate (examples included),
# 2. the full test suite on default features (`heavy-tests` scales the
#    randomized suites up and is opt-in: cargo test --features heavy-tests),
# 3. the repository benchmark's unit tests (benchmark/, its own
#    workspace): they build the traced replay against the `ms_bench`
#    API it calls, so an API change fails here, not in the benchmark run,
# 4. rustdoc with warnings denied (missing docs and broken intra-doc
#    links fail the build),
# 5. formatting,
# 6. public-API snapshot: every `pub` declaration must match
#    tests/api_snapshot.txt (MS_BLESS=1 to re-bless deliberately),
# 7. docs gate: the metric tables in EXPERIMENTS.md / docs/METRICS.md /
#    docs/PROFILING.md must only name fields and counters that still
#    exist in the source; every PR that CHANGES.md tags `[perf_opt]`
#    must have a row in PROFILING.md's accepted-speed-changes table;
#    every relative markdown link must resolve; every
#    backticked repository path (`crates/...`, `docs/...`, ...) in a
#    document that describes the current tree must exist; every
#    docs/*.md must be routed from docs/INDEX.md,
# 8. profiler smoke: one small `run -- perf` must exit 0 and write its
#    Chrome pipeline view (docs/PROFILING.md; comparing timings is the
#    repository benchmark's job, see BENCHMARK.json),
# 9. trace smoke: one `run -- trace` must write the JSONL event trace
#    and Chrome view byte-identical to the library's golden files
#    (crates/bench/tests/golden/compress-cf-4pu-trace.*), tying the CLI
#    path to the pinned artifacts (docs/TRACING.md),
# 10. conformance fuzz smoke: 25 random programs x every selection
#    strategy must match the sequential reference model, and an 8-seed
#    `--inject` sweep must exit 1 with exactly 48 `FAIL seed` lines (8
#    seeds x 6 policies), so the CLI's fuzz path is shown to catch a
#    real engine fault under every policy (docs/CONFORMANCE.md);
#    that sweep runs at `--jobs 1` and `--jobs 2` and must print
#    byte-identical output, so the streamed checker stays deterministic
#    on worker threads that reuse engine state,
# 11. cached-rerun smoke: a small sweep run twice with one `--cache-dir`
#    must write artifacts byte-identical to the same sweep run uncached,
#    and the second run must serve every cell from the content-addressed
#    cell cache (zero cells simulated: its `[cell cache ...]` line
#    reports 0 misses),
# 12. grid digests: the repository benchmark's smoke run must write all
#    408 grid files byte-identical to benchmark/expected/grids.txt (and
#    replay every workload with no differing output), so a timing-model
#    change that moves a single cycle fails here, not only in the
#    benchmark harness,
# 13. long-trace digests: the 18 one-million-instruction `dd` runs on
#    8 PUs (the benchmark's `long_trace` workload, run once) must print
#    stats lines identical to benchmark/expected/long_trace.txt, so the
#    engine is pinned on a large working set too, not only on the
#    60k-instruction grid cells.
set -eu
cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release --examples"
cargo build --workspace --release --examples

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> benchmark unit tests (benchmark/, builds the traced replay)"
cargo test --offline -q --manifest-path benchmark/Cargo.toml --bins

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> public API snapshot (tests/api_snapshot.txt)"
# An unreviewed signature change to the typed public surface fails here;
# deliberate changes are re-blessed with MS_BLESS=1 and show up in the diff.
cargo test --release -q --test api_snapshot

echo "==> docs gate (metric tables vs. source)"
# Every backticked snake_case or dotted name opening a markdown table
# row in the metric docs, indented rows (a table inside a list) included,
# must appear somewhere in the crates' source: a renamed or removed
# counter/field must take its documentation row with it.
docs_fail=0
for doc in EXPERIMENTS.md docs/METRICS.md docs/TRACING.md docs/PROFILING.md; do
    [ -f "$doc" ] || { echo "missing $doc"; docs_fail=1; continue; }
done
for doc in EXPERIMENTS.md docs/METRICS.md docs/PROFILING.md; do
    fields=$(grep -o '^ *| `[a-z][a-z0-9_.]*`' "$doc" | sed 's/^ *| `//; s/`$//' | sort -u)
    for f in $fields; do
        if ! grep -rqF "$f" crates/*/src; then
            echo "$doc documents \`$f\` but it does not appear in crates/*/src"
            docs_fail=1
        fi
    done
done
# Every PR that CHANGES.md tags `[perf_opt]` (as `PR 15: [perf_opt]` or
# `- PR 26 [perf_opt]`) must keep a `| PR <n> |` row in PROFILING.md's
# accepted-speed-changes table: no accepted number without its row.
accepted=$(awk '/^## /{f = ($0 == "## Accepted speed changes")} f' docs/PROFILING.md)
[ -n "$accepted" ] || { echo "docs/PROFILING.md has no '## Accepted speed changes' section"; docs_fail=1; }
for pr in $(grep -o '^\(- \)\{0,1\}PR [0-9][0-9]*:\{0,1\} \[perf_opt\]' CHANGES.md \
    | sed 's/^- //; s/^PR //; s/[: ].*//'); do
    if ! printf '%s\n' "$accepted" | grep -q "^| PR $pr |"; then
        echo "CHANGES.md tags PR $pr [perf_opt] but docs/PROFILING.md's accepted speed changes table has no row for it"
        docs_fail=1
    fi
done
# Relative markdown links must resolve: a moved or renamed file must
# take every `[text](path)` pointing at it along. External links
# (scheme prefixes) and intra-page anchors are out of scope.
for doc in $(git ls-files '*.md'); do
    dir=$(dirname "$doc")
    links=$(grep -o '](\./\{0,1\}[A-Za-z0-9_.-]\{1,\}\.md[#)]' "$doc" \
        | sed 's/^](//; s/[#)]$//' || true)
    nested=$(grep -o ']([A-Za-z0-9_-]\{1,\}/[A-Za-z0-9_./-]\{1,\}\.md[#)]' "$doc" \
        | sed 's/^](//; s/[#)]$//' || true)
    updir=$(grep -o '](\.\./[A-Za-z0-9_./-]\{1,\}\.md[#)]' "$doc" \
        | sed 's/^](//; s/[#)]$//' || true)
    for link in $links $nested $updir; do
        if [ ! -f "$dir/$link" ]; then
            echo "$doc links to \`$link\` but $dir/$link does not exist"
            docs_fail=1
        fi
    done
done
# Backticked repository paths must exist: a deleted or renamed file
# must take every `crates/...`-style mention of it along. A trailing
# `:line` is dropped, a glob must match something, and a git-ignored
# path (an output that building or running writes) counts as present.
# Checked are the root documents that describe the current tree and
# every markdown file below the root; the other root files are history,
# plans or reference text and may name paths that are gone.
for doc in README.md DESIGN.md EXPERIMENTS.md ROADMAP.md $(git ls-files '*/*.md'); do
    paths=$(grep -o '`\(crates\|tests\|scripts\|docs\|examples\|src\|benchmark\)/[^` ]*`' "$doc" \
        | tr -d '`' | sed 's/:[0-9]*$//' | sort -u || true)
    while IFS= read -r path; do
        [ -n "$path" ] || continue
        # Unquoted on purpose: a glob expands to its matches.
        set -- $path
        if [ ! -e "$1" ] && ! git check-ignore -q "$path"; then
            echo "$doc names \`$path\` but it does not exist"
            docs_fail=1
        fi
    done <<PATHS
$paths
PATHS
done
# Every docs/*.md must be reachable from the index's routing table.
for doc in docs/*.md; do
    base=$(basename "$doc")
    [ "$base" = "INDEX.md" ] && continue
    if ! grep -q "($base)" docs/INDEX.md; then
        echo "docs/INDEX.md does not route to $doc"
        docs_fail=1
    fi
done
[ "$docs_fail" -eq 0 ] || { echo "docs gate failed"; exit 1; }

echo "==> profiler smoke (run -- perf, docs/PROFILING.md)"
smoke_dir=target/perf-smoke
rm -rf "$smoke_dir"
cargo run -p ms-bench --release --bin run -q -- perf --reps 1 --insts 2000 --out "$smoke_dir"
[ -f "$smoke_dir/perf/pipeline.chrome.json" ] \
    || { echo "perf did not write $smoke_dir/perf/pipeline.chrome.json"; exit 1; }

echo "==> trace smoke (run -- trace vs crates/bench/tests/golden, docs/TRACING.md)"
trace_dir=target/trace-smoke
rm -rf "$trace_dir"
cargo run -p ms-bench --release --bin run -q -- trace compress --insts 2000 --out "$trace_dir"
for ext in jsonl chrome.json; do
    cmp "$trace_dir/trace/compress-cf.$ext" "crates/bench/tests/golden/compress-cf-4pu-trace.$ext" \
        || { echo "run -- trace wrote a $ext differing from the golden file"; exit 1; }
done

echo "==> conformance fuzz smoke (run -- fuzz --seeds 25)"
# Differential check: the engine vs the sequential reference model on
# random programs under every selection policy; failures shrink to
# .msir repros.
cargo run -p ms-bench --release --bin run -q -- fuzz --seeds 25 --out target/fuzz-smoke
# The same loop with the engine's test-only fault switched on must fail,
# serially and on two worker threads alike.
for jobs in 1 2; do
    inject_status=0
    inject_out=$(cargo run -p ms-bench --release --bin run -q -- fuzz --seeds 8 --inject \
        --jobs "$jobs" --out target/fuzz-inject-smoke) || inject_status=$?
    [ "$inject_status" -eq 1 ] \
        || { echo "fuzz --inject --jobs $jobs exited $inject_status, expected 1"; exit 1; }
    # One line per (seed, policy): a result two policies share is still
    # reported under each policy's own label.
    fails=$(echo "$inject_out" | grep -c "^FAIL seed" || true)
    [ "$fails" -eq 48 ] \
        || { echo "fuzz --inject --jobs $jobs printed $fails FAIL seed lines, expected 48"; exit 1; }
    if [ "$jobs" -eq 1 ]; then
        serial_out=$inject_out
    elif [ "$inject_out" != "$serial_out" ]; then
        echo "fuzz --inject printed different output at --jobs 1 and --jobs 2"
        exit 1
    fi
done

echo "==> cached-rerun smoke (run -- forwarding --cache-dir, EXPERIMENTS.md)"
# The same grid three times: uncached for the reference tree, then
# twice through one cell cache, a cold pass that fills it and a warm
# pass that must simulate nothing. Both cached trees must be
# byte-identical to the uncached one, and the warm pass must print
# "0 misses" on its `[cell cache ...]` line.
cache_smoke=target/cache-smoke
rm -rf "$cache_smoke"
cargo run -p ms-bench --release --bin run -q -- forwarding --jobs 2 --out "$cache_smoke/uncached"
for pass in cold warm; do
    printed=$(cargo run -p ms-bench --release --bin run -q -- forwarding --jobs 2 \
        --cache-dir "$cache_smoke/cellcache" --out "$cache_smoke/$pass")
    diff -r "$cache_smoke/uncached/forwarding" "$cache_smoke/$pass/forwarding" \
        || { echo "$pass cached run's artifacts differ from the uncached run"; exit 1; }
done
counts=$(echo "$printed" | sed -n 's/^\[cell cache *-> \(.*\)\]$/\1/p')
[ -n "$counts" ] || { echo "warm cached run printed no [cell cache ...] line"; exit 1; }
echo "$counts" | grep -q ', 0 misses$' \
    || { echo "warm cached run simulated cells: $counts"; exit 1; }

echo "==> grid digests (benchmark run --smoke vs benchmark/expected/grids.txt)"
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --smoke

echo "==> long-trace digests (benchmark measure long_trace vs benchmark/expected/long_trace.txt)"
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
    measure --workload long_trace --seed 0x5eed --seconds 0 --trace 0

echo "All checks passed."
