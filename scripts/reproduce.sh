#!/usr/bin/env bash
# Reproducibility check: regenerates every figure, table and benchmark
# summary with a full `paper_figures all` run (about five minutes on two
# cores) and fails if any tracked file changed other than the six that
# carry wall-clock timings. Needs only git and cargo.
#
#     bash scripts/reproduce.sh              # every target
#     bash scripts/reproduce.sh fig3 large_n # only these targets
#
# The `tcp` target's largest cells hold 4 096 worker threads; leave it
# out on a host that cannot start that many.
#
# The run rewrites the committed artifacts in place: the timing files
# always differ, so inspect them with `git diff` and restore them with
# `git checkout -- results 'BENCH_*.json'` unless they are to be
# re-recorded (quoted, so git matches only tracked files). Builds with
# the repo's cargo config (see README "Install / build"); set RUSTFLAGS
# to check another codegen.
set -euo pipefail
cd "$(dirname "$0")/.."

# The tracked files a full run rewrites with timings.
timing_files=(
    BENCH_large_n.json
    BENCH_mc.json
    BENCH_shard.json
    results/fig11_utilization.csv
    results/large_n_scaling.csv
    results/tcp_sweep.csv
)

# The full-run artifacts must start out as committed, so the check below
# compares the run against them (quick-suffixed ones are not written).
dirty=$(git diff --name-only HEAD -- results 'BENCH_*.json' | grep -v '_quick' || true)
if [ -n "$dirty" ]; then
    echo "FAIL: committed artifacts already differ from HEAD; commit or restore them first:" >&2
    echo "$dirty" >&2
    exit 1
fi

tracked_sums() {
    git ls-files -z | xargs -0 sha256sum
}
before=$(tracked_sums)

cargo run --release -p dolbie-bench --bin paper_figures -- "${@:-all}"

changed=$({ diff <(echo "$before") <(tracked_sums) || true; } | sed -n 's/^> [0-9a-f]*  //p')
unexpected=$(grep -vxF -f <(printf '%s\n' "${timing_files[@]}") <<<"$changed" || true)

echo "== timing files rewritten =="
grep -xF -f <(printf '%s\n' "${timing_files[@]}") <<<"$changed" || echo "(none)"
if [ -n "$unexpected" ]; then
    echo "FAIL: the run changed tracked files that carry no timings:" >&2
    echo "$unexpected" >&2
    exit 1
fi
echo "== reproduce: OK (every tracked result outside the timing files is byte-identical) =="
