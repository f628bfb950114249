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
#    docs/PROFILING.md / docs/OBSERVABILITY.md must only name fields
#    that still exist in the source; every relative markdown link must
#    resolve; every docs/*.md must be routed from docs/INDEX.md,
# 8. profiler smoke: one small `run -- perf` must exit 0 and write its
#    Chrome pipeline view (docs/PROFILING.md; comparing timings is the
#    repository benchmark's job, see BENCHMARK.json),
# 9. conformance fuzz smoke: 25 random programs x every selection
#    strategy must match the sequential reference model
#    (docs/CONFORMANCE.md),
# 10. run-ledger smoke: a small sweep must leave a run record that
#    passes `run -- runs-validate` and shows up in `run -- runs`;
#    target/experiments/runs/ is pruned to the newest 50 records
#    (docs/OBSERVABILITY.md),
# 11. cached-rerun smoke: the same sweep run twice with one `--cache-dir`
#    must write artifacts byte-identical to step 10's uncached run, and
#    the second run must serve every cell from the content-addressed
#    cell cache (zero cells simulated, per its run record's footer),
# 12. grid digests: the repository benchmark's smoke run must write all
#    408 grid files byte-identical to benchmark/expected/grids.txt (and
#    replay every workload with no differing output), so a timing-model
#    change that moves a single cycle fails here, not only in the
#    benchmark harness.
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
# Every backticked snake_case name opening a markdown table row in the
# metric docs must appear somewhere in the crates' source: a renamed or
# removed counter/field must take its documentation row with it.
docs_fail=0
for doc in EXPERIMENTS.md docs/METRICS.md docs/TRACING.md docs/PROFILING.md \
           docs/OBSERVABILITY.md; do
    [ -f "$doc" ] || { echo "missing $doc"; docs_fail=1; continue; }
done
for doc in EXPERIMENTS.md docs/METRICS.md docs/PROFILING.md docs/OBSERVABILITY.md; do
    fields=$(grep -o '^| `[a-z][a-z0-9_]*`' "$doc" | sed 's/^| `//; s/`$//' | sort -u)
    for f in $fields; do
        if ! grep -rq "$f" crates/*/src; then
            echo "$doc documents \`$f\` but it does not appear in crates/*/src"
            docs_fail=1
        fi
    done
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

echo "==> conformance fuzz smoke (run -- fuzz --seeds 25)"
# Differential check: the engine vs the sequential reference model on
# random programs under every selection policy; failures shrink to
# .msir repros.
cargo run -p ms-bench --release --bin run -q -- fuzz --seeds 25 --out target/fuzz-smoke

echo "==> run-ledger smoke (run -- runs, docs/OBSERVABILITY.md)"
# The perf/fuzz steps above each left a run record; add the
# cheapest sweep so the sweep scheduler's telemetry path is exercised
# too, then assert the ledger round-trips: every record validates and
# the listing surfaces the sweep we just ran.
cargo run -p ms-bench --release --bin run -q -- forwarding --jobs 2 --out target/ledger-smoke
cargo run -p ms-bench --release --bin run -q -- runs-validate
# Filter by command: record ids have one-second resolution, and several
# smoke steps can finish inside the same second.
runs_listing=$(cargo run -p ms-bench --release --bin run -q -- runs --cmd forwarding --last 1)
echo "$runs_listing" | grep -q "forwarding" \
    || { echo "runs --cmd forwarding does not show the sweep just run"; exit 1; }
cargo run -p ms-bench --release --bin run -q -- runs --cmd perf --last 3
# Keep the ledger bounded: newest 50 records, oldest pruned (the
# UTC-stamp filename prefix makes lexicographic order chronological).
runs_dir=target/experiments/runs
if [ -d "$runs_dir" ]; then
    total=$(ls "$runs_dir"/*.jsonl 2>/dev/null | wc -l)
    if [ "$total" -gt 50 ]; then
        ls "$runs_dir"/*.jsonl | sort | head -n "$((total - 50))" | while IFS= read -r old; do
            rm -f "$old"
        done
        echo "    (pruned $((total - 50)) old run record(s), keeping the newest 50)"
    fi
fi

echo "==> cached-rerun smoke (run -- forwarding --cache-dir, EXPERIMENTS.md)"
# The same grid twice through one cell cache: a cold pass that fills
# it, then a warm pass that must simulate nothing. Both trees must be
# byte-identical to step 10's uncached forwarding tree. The warm run's
# own record (the path it prints) must say "cache_misses":0.
cache_smoke=target/cache-smoke
rm -rf "$cache_smoke"
for pass in cold warm; do
    printed=$(cargo run -p ms-bench --release --bin run -q -- forwarding --jobs 2 --quiet \
        --cache-dir "$cache_smoke/cellcache" --out "$cache_smoke/$pass")
    diff -r target/ledger-smoke/forwarding "$cache_smoke/$pass/forwarding" \
        || { echo "$pass cached run's artifacts differ from the uncached run"; exit 1; }
done
record=$(echo "$printed" | sed -n 's/^\[run record *-> \(.*\)\]$/\1/p')
[ -n "$record" ] || { echo "warm cached run printed no run record"; exit 1; }
tail -n 1 "$record" | grep -q '"cache_misses":0' \
    || { echo "warm cached run simulated cells ($record):"; tail -n 1 "$record"; exit 1; }

echo "==> grid digests (benchmark run --smoke vs benchmark/expected/grids.txt)"
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --smoke

echo "All checks passed."
