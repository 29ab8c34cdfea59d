#!/usr/bin/env bash
# Multi-process smoke of the dolbie-net runtime.
#
# Flat mode (default): spawns a real `dolbie_node master` process (the
# one-shard coordinator tree in one process) plus N real worker processes
# over loopback TCP, waits for a clean converge-and-shutdown, and asserts
# the master's self-verification against the sequential engine passed.
#
# Sharded mode (--sharded M): spawns a real `dolbie_node root` process,
# M real `dolbie_node shard` processes dialing its backbone, and N real
# worker processes spread over the shard-masters' listeners — the full
# two-level control plane as separate OS processes — and asserts the
# root drives the complete horizon with a healthy O(M) backbone.
#
#   scripts/run_net_demo.sh [--sharded M] [workers] [rounds]
#
# workers defaults to 4 (at least 2), rounds to 500.
set -euo pipefail
cd "$(dirname "$0")/.."

SHARDS=0
while :; do
    case "${1:-}" in
        --sharded)
            SHARDS="${2:?--sharded requires a shard count}"
            case "$SHARDS" in
                '' | *[!0-9]* | 0)
                    echo "error: invalid --sharded '$SHARDS' (expected a positive integer)" >&2
                    exit 2
                    ;;
            esac
            shift 2
            ;;
        -*)
            echo "error: unknown option '$1' (usage: $0 [--sharded M] [workers] [rounds])" >&2
            exit 2
            ;;
        *) break ;;
    esac
done
WORKERS="${1:-4}"
ROUNDS="${2:-500}"
case "$WORKERS" in
    '' | *[!0-9]* | 0 | 1)
        echo "error: invalid worker count '$WORKERS' (expected an integer >= 2)" >&2
        exit 2
        ;;
esac
NODE=target/release/dolbie_node

if [ "$SHARDS" -gt "$WORKERS" ]; then
    echo "error: --sharded $SHARDS exceeds the worker count $WORKERS" >&2
    exit 2
fi

echo "== net demo: building dolbie_node =="
cargo build --release -p dolbie-net --bin dolbie_node

workdir=$(mktemp -d)
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

# Polls a node log for its `listening on <addr>` announcement.
await_addr() { # log pid sed_pattern what
    local log="$1" pid="$2" pattern="$3" what="$4" addr=""
    for _ in $(seq 1 50); do
        addr=$(sed -n "$pattern" "$log" | head -n1)
        [ -n "$addr" ] && break
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "FAIL: $what exited before listening" >&2
            cat "$log" >&2
            exit 1
        fi
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "FAIL: $what never announced its address" >&2
        cat "$log" >&2
        exit 1
    fi
    echo "$addr"
}

if [ "$SHARDS" -gt 0 ]; then
    root_log="$workdir/root.log"
    echo "== net demo: sharded control plane — 1 root, $SHARDS shard-masters, $WORKERS workers, $ROUNDS rounds =="
    "$NODE" root --listen 127.0.0.1:0 --shards "$SHARDS" --workers "$WORKERS" \
        --rounds "$ROUNDS" --env chaos --env-seed 7 >"$root_log" 2>&1 &
    root_pid=$!
    pids+=("$root_pid")
    root_addr=$(await_addr "$root_log" "$root_pid" 's|^root listening on \(.*\), awaiting.*|\1|p' root)
    echo "root is listening on $root_addr"

    # Shard k of M serves floor(N/M) workers, plus one of the N mod M
    # extras — the same even layout the root announces over the backbone.
    per=$((WORKERS / SHARDS))
    extra=$((WORKERS % SHARDS))
    for k in $(seq 0 $((SHARDS - 1))); do
        shard_log="$workdir/shard_$k.log"
        "$NODE" shard --connect "$root_addr" --listen 127.0.0.1:0 \
            --shard "$k" --shards "$SHARDS" >"$shard_log" 2>&1 &
        shard_pid=$!
        pids+=("$shard_pid")
        shard_addr=$(await_addr "$shard_log" "$shard_pid" \
            's|^shard .* listening on \(.*\), dialing.*|\1|p' "shard $k")
        echo "shard $k is listening on $shard_addr"
        local_n=$per
        [ "$k" -lt "$extra" ] && local_n=$((per + 1))
        for i in $(seq 1 "$local_n"); do
            "$NODE" worker --connect "$shard_addr" >"$workdir/worker_${k}_${i}.log" 2>&1 &
            pids+=("$!")
        done
    done

    status=0
    for pid in "${pids[@]}"; do
        if ! wait "$pid"; then
            status=1
        fi
    done
    pids=()

    echo "---- root output ----"
    cat "$root_log"
    if [ "$status" -ne 0 ]; then
        echo "FAIL: a node process exited nonzero" >&2
        for log in "$workdir"/shard_*.log "$workdir"/worker_*.log; do
            echo "---- $(basename "$log") ----" >&2
            cat "$log" >&2
        done
        exit 1
    fi
    if ! grep -q "^root completed $ROUNDS rounds" "$root_log"; then
        echo "FAIL: root did not complete the full horizon" >&2
        exit 1
    fi
    if grep -q "membership epochs crossed" "$root_log"; then
        echo "FAIL: a healthy run crossed a membership epoch" >&2
        exit 1
    fi
    echo "== net demo: OK — $SHARDS shard-master processes and $WORKERS worker processes drove $ROUNDS rounds through the root's O(M) backbone =="
    exit 0
fi

master_log="$workdir/master.log"
echo "== net demo: master on an ephemeral port, $WORKERS workers, $ROUNDS rounds =="
"$NODE" master --listen 127.0.0.1:0 --workers "$WORKERS" --rounds "$ROUNDS" \
    --env chaos --env-seed 7 --verify >"$master_log" 2>&1 &
master_pid=$!
pids+=("$master_pid")

# The master prints its resolved address once the listener is up.
addr=$(await_addr "$master_log" "$master_pid" 's/^listening on //p' master)
echo "master is listening on $addr"

for i in $(seq 1 "$WORKERS"); do
    "$NODE" worker --connect "$addr" >"$workdir/worker_$i.log" 2>&1 &
    pids+=("$!")
done

status=0
for pid in "${pids[@]}"; do
    if ! wait "$pid"; then
        status=1
    fi
done
pids=()

echo "---- master output ----"
cat "$master_log"
if [ "$status" -ne 0 ]; then
    echo "FAIL: a node process exited nonzero" >&2
    for i in $(seq 1 "$WORKERS"); do
        echo "---- worker $i ----" >&2
        cat "$workdir/worker_$i.log" >&2
    done
    exit 1
fi
if ! grep -q "verify: OK" "$master_log"; then
    echo "FAIL: master did not report bitwise verification" >&2
    exit 1
fi
echo "== net demo: OK — $WORKERS worker processes joined, converged, and shut down cleanly; trajectory bitwise identical to the sequential engine =="
