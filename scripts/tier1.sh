#!/usr/bin/env bash
# Tier-1 verification gate: release build, full workspace test suite,
# then a quick paper_figures smoke run in --bench mode, which also
# refreshes BENCH_paper_figures.json at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: format check =="
cargo fmt --check

echo "== tier-1: clippy (deny warnings) =="
cargo clippy --workspace -- -D warnings

echo "== tier-1: rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== tier-1: release build =="
cargo build --release --workspace

echo "== tier-1: criterion benches build (a type they name must still exist) =="
cargo build --release --workspace --benches

echo "== tier-1: workspace tests =="
cargo test --workspace -q

echo "== tier-1: perfbench tests (the benchmark builds against the current dolbie-net API; --locked fails a change that would rewrite perfbench/Cargo.lock) =="
cargo test --offline --locked --release --manifest-path perfbench/Cargo.toml

echo "== tier-1: paper_figures smoke (quick fig3 fig4 regret, --bench) =="
cargo run --release -p dolbie-bench --bin paper_figures -- --quick --bench fig3 fig4 regret

echo "== tier-1: kernel parity matrix, release (the vectorized code the benchmark runs) =="
cargo test --release -p dolbie-core --test kernel_parity -q

echo "== tier-1: large-N engine pin invariant (N=1e5 x 1e4 rounds, release) =="
cargo test --release -p dolbie-core --lib -q -- --ignored \
    sum_stays_pinned_after_1e4_rounds_at_1e5_workers

echo "== tier-1: large-N smoke (quick sweep to N=1e5, all kernels bitwise vs split, gated, <10 s) =="
smoke_start=$SECONDS
cargo run --release -p dolbie-bench --bin paper_figures -- --quick --gate large_n
smoke_elapsed=$((SECONDS - smoke_start))
echo "large-N smoke took ${smoke_elapsed}s"
if [ "$smoke_elapsed" -ge 10 ]; then
    echo "FAIL: large-N smoke exceeded the 10 s budget" >&2
    exit 1
fi

echo "== tier-1: chaos smoke (~20 random fault x membership cases, five invariants, <10 s) =="
smoke_start=$SECONDS
cargo run --release -p dolbie-bench --bin paper_figures -- --quick chaos
smoke_elapsed=$((SECONDS - smoke_start))
echo "chaos smoke took ${smoke_elapsed}s"
if [ "$smoke_elapsed" -ge 10 ]; then
    echo "FAIL: chaos smoke exceeded the 10 s budget" >&2
    exit 1
fi

echo "== tier-1: net smoke (real loopback TCP, bitwise vs sequential, <10 s) =="
smoke_start=$SECONDS
cargo run --release -p dolbie-bench --bin paper_figures -- --quick net
smoke_elapsed=$((SECONDS - smoke_start))
echo "net smoke took ${smoke_elapsed}s"
if [ "$smoke_elapsed" -ge 10 ]; then
    echo "FAIL: net smoke exceeded the 10 s budget" >&2
    exit 1
fi

echo "== tier-1: net-scale smoke (M = 1 tree, fleets to N=256, <10 s) =="
smoke_start=$SECONDS
cargo run --release -p dolbie-bench --bin paper_figures -- --quick net_scale
smoke_elapsed=$((SECONDS - smoke_start))
echo "net-scale smoke took ${smoke_elapsed}s"
if [ "$smoke_elapsed" -ge 10 ]; then
    echo "FAIL: net-scale smoke exceeded the 10 s budget" >&2
    exit 1
fi

echo "== tier-1: sharded smoke (two-level control plane, M in {1,4}, bitwise vs sequential, <10 s) =="
smoke_start=$SECONDS
cargo run --release -p dolbie-bench --bin paper_figures -- --quick shard_scale
smoke_elapsed=$((SECONDS - smoke_start))
echo "sharded smoke took ${smoke_elapsed}s"
if [ "$smoke_elapsed" -ge 10 ]; then
    echo "FAIL: sharded smoke exceeded the 10 s budget" >&2
    exit 1
fi

echo "== tier-1: sharded-crash smoke (seeded kills + lossy links over real TCP, quick-suffixed artifacts, <10 s) =="
smoke_start=$SECONDS
cargo run --release -p dolbie-bench --bin paper_figures -- --quick chaos_net
smoke_elapsed=$((SECONDS - smoke_start))
echo "sharded-crash smoke took ${smoke_elapsed}s"
if [ "$smoke_elapsed" -ge 10 ]; then
    echo "FAIL: sharded-crash smoke exceeded the 10 s budget" >&2
    exit 1
fi

echo "== tier-1: mc smoke (exhaustive crash-only interleaving check, N=3 x 3 rounds, <10 s) =="
smoke_start=$SECONDS
cargo run --release -p dolbie-bench --bin paper_figures -- --quick mc
smoke_elapsed=$((SECONDS - smoke_start))
echo "mc smoke took ${smoke_elapsed}s"
if [ "$smoke_elapsed" -ge 10 ]; then
    echo "FAIL: mc smoke exceeded the 10 s budget" >&2
    exit 1
fi

echo "== tier-1: OK =="
