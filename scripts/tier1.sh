#!/usr/bin/env bash
# Tier-1 verification gate: release build, full workspace test suite,
# then quick paper_figures smoke runs. A --quick run writes only
# quick-suffixed artifacts (the --bench smoke writes
# BENCH_paper_figures_quick.json at the repo root), and the gate fails if
# any committed full-run artifact changed while it ran.
set -euo pipefail
cd "$(dirname "$0")/.."

# full_artifact_sums: checksums of the committed full-run artifacts — the
# tracked results/* and BENCH_*.json files, quick-suffixed ones left out
# (outside a git checkout, the files present).
full_artifact_sums() {
    { git ls-files -- results 'BENCH_*.json' 2>/dev/null || ls -d results/* BENCH_*.json; } |
        grep -v '_quick' | xargs -d '\n' sha256sum
}
full_artifacts_before=$(full_artifact_sums)

# timed_smoke <label> <args...>: runs `paper_figures <args...>` in release
# and fails the gate if it takes 10 s or more, timed in milliseconds
# (`$SECONDS` counts whole-second boundaries crossed, so it can read a
# 9.1 s run as 10 s).
timed_smoke() {
    local label=$1
    shift
    local start end elapsed_ms
    start=$(date +%s%N)
    cargo run --release -p dolbie-bench --bin paper_figures -- "$@"
    end=$(date +%s%N)
    elapsed_ms=$(((end - start) / 1000000))
    echo "$label smoke took ${elapsed_ms} ms"
    if [ "$elapsed_ms" -ge 10000 ]; then
        echo "FAIL: $label smoke exceeded the 10 s budget" >&2
        exit 1
    fi
}

echo "== tier-1: format check (vendored crates included) =="
cargo fmt --all --check

echo "== tier-1: clippy over every target, tests included (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== tier-1: release build =="
cargo build --release --workspace

echo "== tier-1: workspace tests =="
cargo test --workspace -q

echo "== tier-1: perfbench tests (the benchmark builds against the current dolbie-net API) =="
cargo test --offline --locked --release --manifest-path perfbench/Cargo.toml

# --locked above fails a change that would add or bump a perfbench/Cargo.lock
# entry, but not one that only prunes an entry: cargo keeps such a lock as it
# is, and the benchmark's own unlocked `cargo run` rewrites it. Resolve
# unlocked, as the benchmark does, and fail if the lock changed.
echo "== tier-1: perfbench/Cargo.lock unchanged by an unlocked resolve =="
lock_before=$(mktemp)
cp perfbench/Cargo.lock "$lock_before"
cargo metadata --offline --format-version 1 --manifest-path perfbench/Cargo.toml >/dev/null
if ! cmp -s "$lock_before" perfbench/Cargo.lock; then
    diff "$lock_before" perfbench/Cargo.lock || true
    cp "$lock_before" perfbench/Cargo.lock
    rm -f "$lock_before"
    echo "FAIL: resolving perfbench rewrote perfbench/Cargo.lock, a benchmark file (diff above; restored)" >&2
    exit 1
fi
rm -f "$lock_before"

echo "== tier-1: paper_figures smoke (quick fig3 fig4 regret, --bench) =="
cargo run --release -p dolbie-bench --bin paper_figures -- --quick --bench fig3 fig4 regret

echo "== tier-1: kernel parity matrix and dolbie-core lib tests, release (the vectorized code the benchmark runs) =="
cargo test --release -p dolbie-core --lib --test kernel_parity -q

if [ "$(uname -m)" = x86_64 ]; then
    echo "== tier-1: the same under a portable x86-64 (SSE2) build (the lanes' other codegen must give the same bits) =="
    RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/portable \
        cargo test --release -p dolbie-core --lib --test kernel_parity -q
fi

echo "== tier-1: large-N engine pin invariant (N=1e5 x 1e4 rounds, release) =="
cargo test --release -p dolbie-core --lib -q -- --ignored \
    sum_stays_pinned_after_1e4_rounds_at_1e5_workers

echo "== tier-1: large-N smoke (quick sweep to N=1e5, all kernels bitwise vs split, gated, <10 s) =="
timed_smoke large-N --quick --gate large_n

echo "== tier-1: chaos smoke (~20 random fault x membership cases, five invariants, <10 s) =="
timed_smoke chaos --quick chaos

echo "== tier-1: tcp smoke (real loopback TCP on the quick (N, M, loss) grid: N = 4 to 256, M in {1,4}, lossy links, every cell bitwise vs sequential, quick-suffixed artifacts, <10 s) =="
timed_smoke tcp --quick tcp

echo "== tier-1: sharded-crash smoke (seeded kills + lossy links over real TCP, quick-suffixed artifacts, <10 s) =="
timed_smoke sharded-crash --quick chaos_net

echo "== tier-1: mc smoke (exhaustive crash-only interleaving check, N=3 x 3 rounds, <10 s) =="
timed_smoke mc --quick mc

echo "== tier-1: committed full-run artifacts unchanged by the smokes =="
if ! diff <(echo "$full_artifacts_before") <(full_artifact_sums); then
    echo "FAIL: a tier-1 step rewrote a committed full-run artifact (checksum diff above)" >&2
    exit 1
fi

echo "== tier-1: OK =="
