#!/usr/bin/env bash
# Mutation matrix: applies each one-line mutant of scripts/mutants.txt to
# a scratch copy of this checkout, runs the test binaries the entry
# names, and writes one CSV row per (mutant, binary): killed, survived,
# timeout, or unviable (the mutant does not build). Needs only git, sed,
# tar, timeout and cargo.
#
#     bash scripts/mutants.sh --check              # every original text present once
#     bash scripts/mutants.sh [--out FILE] [--label L] [--workdir DIR]
#
# A full run takes tens of minutes (each mutant rebuilds dolbie-core's
# tests, dolbie-net, dolbie-mc and paper_figures in debug and runs the
# tests its entry names), so it is not a tier-1 step; tier-1 runs --check. The unmutated copy runs first, as
# the `none` row, and every binary must pass there. The `failed` column
# names the failing tests, or for chaos_net the failing cases, `[loss]`
# marking a case with worker or backbone loss; `label` tells runs of
# different revisions apart in one file.
set -euo pipefail
cd "$(dirname "$0")/.."
# A `&` in a replacement is literal text, not the matched pattern.
shopt -u patsub_replacement 2>/dev/null || true

catalogue=scripts/mutants.txt
out=results/mutation_matrix.csv
label=$(git rev-parse --short HEAD 2>/dev/null || echo worktree)
workdir=${TMPDIR:-/tmp}/dolbie-mutants
check=false
budget=900 # seconds per binary run
while [ $# -gt 0 ]; do
    case $1 in
        --check) check=true ;;
        --out) out=$2; shift ;;
        --label) label=$2; shift ;;
        --workdir) workdir=$2; shift ;;
        *) echo "usage: $0 [--check] [--out FILE] [--label L] [--workdir DIR]" >&2; exit 2 ;;
    esac
    shift
done

ids=() files=() originals=() replacements=() binaries=()
entry_id= entry_file= entry_original= entry_replacement= entry_binaries=
flush_entry() {
    if [ -n "$entry_id" ]; then
        ids+=("$entry_id") files+=("$entry_file") originals+=("$entry_original")
        replacements+=("$entry_replacement") binaries+=("$entry_binaries")
    fi
    entry_id= entry_file= entry_original= entry_replacement= entry_binaries=
}
while IFS= read -r line || [ -n "$line" ]; do
    case $line in
        '#'*) ;;
        '') flush_entry ;;
        'id: '*) entry_id=${line#id: } ;;
        'file: '*) entry_file=${line#file: } ;;
        'original: '*) entry_original=${line#original: } ;;
        'replacement: '*) entry_replacement=${line#replacement: } ;;
        'binaries: '*) entry_binaries=${line#binaries: } ;;
        *) echo "FAIL: $catalogue: unparsed line: $line" >&2; exit 1 ;;
    esac
done <"$catalogue"
flush_entry

# occurrences <file> <text>: how many times <text> occurs in <file>, 0, 1 or 2 (two or more).
occurrences() {
    local content rest
    content=$(<"$1")
    rest=${content#*"$2"}
    if [ "$rest" = "$content" ]; then echo 0
    elif [[ $rest == *"$2"* ]]; then echo 2
    else echo 1
    fi
}

status=0
for k in "${!ids[@]}"; do
    if [ ! -f "${files[$k]}" ]; then
        echo "FAIL: mutant ${ids[$k]}: ${files[$k]} does not exist" >&2
        status=1
        continue
    fi
    case $(occurrences "${files[$k]}" "${originals[$k]}") in
        1) ;;
        0) echo "FAIL: mutant ${ids[$k]}: original text is gone from ${files[$k]}" >&2; status=1 ;;
        *) echo "FAIL: mutant ${ids[$k]}: original text occurs more than once in ${files[$k]}" >&2; status=1 ;;
    esac
done
if [ $status -ne 0 ]; then
    exit 1
fi
if $check; then
    echo "mutants: all ${#ids[@]} catalogued original texts present"
    exit 0
fi

# The scratch copy: this checkout's tracked files, with its own target dir
# (a tracked file deleted in the worktree is left out, as a build of the
# worktree leaves it out). Extracted with fresh mtimes (-m): cargo judges
# freshness by mtime, and a target dir kept from an earlier run holds that
# run's last mutant, newer than this checkout's files.
root=$PWD
rm -rf "$workdir/src"
mkdir -p "$workdir/src"
git ls-files -z | tar -c --null --ignore-failed-read -T - | tar -x -m -C "$workdir/src"
export CARGO_TARGET_DIR=$workdir/target
cd "$workdir/src"
log=$workdir/log.txt

build() {
    cargo build -q -p dolbie-core -p dolbie-net -p dolbie-mc --tests &&
        cargo build -q -p dolbie-bench --bin paper_figures
}

# run_binary <name>: sets `verdict` and `failed` for one binary run.
run_binary() {
    local code=0
    verdict= failed=
    case $1 in
        core-lib) timeout $budget cargo test -p dolbie-core --lib >"$log" 2>&1 || code=$? ;;
        kernel_parity)
            timeout $budget cargo test -p dolbie-core --test kernel_parity >"$log" 2>&1 || code=$? ;;
        net-lib) timeout $budget cargo test -p dolbie-net --lib >"$log" 2>&1 || code=$? ;;
        shard_parity | shard_crash)
            timeout $budget cargo test -p dolbie-net --test "$1" >"$log" 2>&1 || code=$? ;;
        chaos_net)
            rm -f results/chaos_net.csv
            timeout $budget cargo run -q -p dolbie-bench --bin paper_figures -- chaos_net \
                >"$log" 2>&1 || code=$?
            if [ -f results/chaos_net.csv ]; then
                # case,n,shards,rounds,...,worker_drop_p,backbone_drop_p,passed
                failed=$(awk -F, 'NR > 1 && $10 == 0 {
                    printf "%scase%s%s", sep, $1, ($8 + $9 > 0 ? "[loss]" : ""); sep = ";" }' \
                    results/chaos_net.csv)
            fi ;;
        tcp)
            timeout $budget cargo run -q -p dolbie-bench --bin paper_figures -- --quick tcp \
                >"$log" 2>&1 || code=$? ;;
        mc-lib) timeout $budget cargo test -p dolbie-mc --lib >"$log" 2>&1 || code=$? ;;
        mc_acceptance)
            timeout $budget cargo test -p dolbie-mc --test mc_acceptance >"$log" 2>&1 || code=$? ;;
        mc-determinism)
            timeout $budget cargo test -p dolbie-mc --test determinism >"$log" 2>&1 || code=$? ;;
        *) echo "FAIL: unknown binary $1" >&2; exit 1 ;;
    esac
    if [ "$1" != chaos_net ]; then
        failed=$(sed -n 's/^test \(.*\) \.\.\. FAILED$/\1/p' "$log" | paste -sd ';' -)
    fi
    if [ $code -eq 124 ]; then
        verdict=timeout
    elif [ $code -ne 0 ] || [ -n "$failed" ]; then
        verdict=killed
        if [ -z "$failed" ]; then
            failed=$(grep -m1 -o "panicked at .*" "$log" | tr ',' ' ' || true)
        fi
    else
        verdict=survived
    fi
}

mkdir -p "$(dirname "$root/$out")"
if [ ! -s "$root/$out" ]; then
    echo "label,mutant,binary,verdict,failed" >"$root/$out"
fi
all_binaries=$(printf '%s\n' "${binaries[@]}" | tr ' ' '\n' | awk 'NF && !seen[$0]++' | paste -sd ' ' -)

echo "== mutants: baseline (no mutant): $all_binaries =="
build
for b in $all_binaries; do
    run_binary "$b"
    echo "$label,none,$b,$verdict,$failed" >>"$root/$out"
    echo "  none × $b: $verdict"
    if [ "$verdict" != survived ]; then
        echo "FAIL: $b fails on the unmutated copy (log: $log)" >&2
        exit 1
    fi
done

for k in "${!ids[@]}"; do
    id=${ids[$k]}
    file=${files[$k]}
    cp "$file" "$workdir/pristine"
    content=$(cat "$file"; printf x)
    content=${content%x}
    printf '%s' "${content/"${originals[$k]}"/"${replacements[$k]}"}" >"$file"
    echo "== mutant $id: $file =="
    if ! build >"$log" 2>&1; then
        for b in ${binaries[$k]}; do
            echo "$label,$id,$b,unviable," >>"$root/$out"
        done
        echo "  unviable (does not build)"
    else
        for b in ${binaries[$k]}; do
            run_binary "$b"
            echo "$label,$id,$b,$verdict,$failed" >>"$root/$out"
            echo "  $id × $b: $verdict${failed:+ ($failed)}"
        done
    fi
    cp "$workdir/pristine" "$file"
done
echo "== mutants: matrix appended to $out =="
