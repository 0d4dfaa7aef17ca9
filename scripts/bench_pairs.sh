#!/usr/bin/env bash
# Alternating parent/change pairs of the whole-stack benchmark: the
# protocol a host-speed claim needs on a noisy machine (benchmark/README.md,
# "`check`, and the noise behind each bound").
#
# The parent revision is exported with `git archive` into a temporary
# directory; the change is this checkout's working tree. Each side is built
# once, in release, into a target directory of its own. Pair i runs every
# named workload once per side with seed FIRST_SEED + i, the same seconds on
# both sides; even pairs run the parent first, odd pairs the change first.
#
# Every run prints one line with its end-to-end values. At the end, one row
# per (workload, end-to-end metric of BENCHMARK.json), plus an `iterations`
# row per workload: each side's median and quartiles over its runs, the
# change's median against the parent's, the pairs the change won out of
# the pairs the row rests on (ties, and pairs where a side printed no
# value, count for neither side), and whether the claim rule holds: at
# least nine tenths of all pairs won and the medians further apart than
# the parent's quartile distance. `iterations` is the count from each
# run's first line: the work done in the fixed run time, untimed build
# and teardown of every iteration included, so a change that only moved
# work out of the timed region shows there. Two more rows per workload,
# lower is better, read from each run's rusage after it exits, say where
# host time went: `minflt_per_iter`, the run's minor page faults over the
# iterations it executed (timed, plus one untimed per setup), and
# `sys_share`, its sys CPU over its total CPU. Any failed operation or
# non-zero exit makes the script exit 1.
#
# Usage: scripts/bench_pairs.sh [--smoke] PARENT_REV [WORKLOADS [SECONDS [PAIRS [FIRST_SEED]]]]
#   WORKLOADS   comma-separated names, or `all` (default)
#   SECONDS     measuring time of one run (default 10, as BENCHMARK.json)
#   PAIRS       default 10
#   FIRST_SEED  default 1
#   --smoke     pass `--smoke` to every run (plumbing check, not numbers)
# Builds and run logs go to a directory made by `mktemp -d` (honours
# TMPDIR), removed at exit.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"

# Untimed iterations a run executes before its timed ones: one per setup
# (benchmark/src/runner.rs, `SETUPS`; a smoke run sets up once).
setups=5
smoke=()
if [[ "${1:-}" == "--smoke" ]]; then
  smoke=(--smoke)
  setups=1
  shift
fi
if [[ $# -lt 1 ]]; then
  sed -n '/^# Usage:/,/^# TMPDIR/p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi
parent="$1"
workloads="${2:-all}"
seconds="${3:-10}"
pairs="${4:-10}"
first_seed="${5:-1}"

if [[ "$workloads" == "all" ]]; then
  workloads="$(awk -F'"' '/"workloads"/ { on = 1 } on && /"name"/ { print $4 } on && /\]/ { exit }' \
    "$root/BENCHMARK.json" | paste -sd, -)"
fi
IFS=, read -r -a names <<<"$workloads"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/parent" "$work/runs"
git -C "$root" archive "$parent" | tar -x -C "$work/parent"

build() { # side source_dir
  echo "== building $1 ($2) =="
  (cd "$2" && CARGO_TARGET_DIR="$work/target-$1" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
}
build parent "$work/parent"
build change "$root"
declare -A src=([parent]="$work/parent" [change]="$root")

results="$work/results.tsv" # side pair workload metric value
: >"$results"
status=0
for ((i = 0; i < pairs; i++)); do
  seed=$((first_seed + i))
  if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
  for w in "${names[@]}"; do
    for side in "${order[@]}"; do
      log="$work/runs/$side.$w.$i.txt"
      # The subshell reads its own /proc stat after the run has exited and
      # been reaped: fields 11, 16 and 17 (cminflt, cutime, cstime) are
      # then the run's minor faults and user and sys CPU ticks.
      if ! (
        cd "${src[$side]}" || exit 1
        "$work/target-$side/release/gpufs-benchmark" \
          --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 "${smoke[@]}" >"$log"
        rc=$?
        read -r -a stat <"/proc/$BASHPID/stat"
        echo "${stat[10]} ${stat[15]} ${stat[16]}" >"$log.rusage"
        exit "$rc"
      ); then
        status=1
      fi
      minflt="" utime=0 stime=0
      if [[ -f "$log.rusage" ]]; then read -r minflt utime stime <"$log.rusage"; fi
      # The first line reads "... N iterations, ..., F failed"; metric
      # rows are "name value unit kind q1 .. q3 .. n ..". Faults are per
      # executed iteration: the timed ones plus one untimed one per setup.
      awk -v side="$side" -v pair="$i" -v w="$w" -v setups="$setups" \
        -v minflt="$minflt" -v utime="$utime" -v stime="$stime" '
        NR == 1 {
          for (k = 2; k <= NF; k++) if ($k == "iterations,") {
            print side, pair, w, "iterations", $(k - 1)
            if (minflt != "") print side, pair, w, "minflt_per_iter", minflt / ($(k - 1) + setups)
          }
          if (utime + stime > 0) print side, pair, w, "sys_share", stime / (utime + stime)
          print side, pair, w, "failed", $(NF - 1)
        }
        $5 == "q1" { print side, pair, w, $1, $2 }
      ' "$log" | tee -a "$results" |
        awk -v side="$side" -v pair="$i" -v seed="$seed" -v w="$w" '
          { line = line " " $4 "=" $5 }
          END { printf "pair %d seed %d %-14s %-6s%s\n", pair, seed, w, side, line }'
    done
  done
done

awk -v pairs="$pairs" '
  # End-to-end metric names and directions, from BENCHMARK.json.
  FNR == NR {
    if ($0 ~ /"end_to_end"/) on = 1
    else if (on && $0 ~ /\]/) on = 0
    if (on && match($0, /"name": *"[^"]*"/)) {
      split(substr($0, RSTART, RLENGTH), a, "\"")
      name = a[4]
      match($0, /"better": *"[^"]*"/)
      split(substr($0, RSTART, RLENGTH), b, "\"")
      metrics[++m] = name; better[name] = b[4]
    }
    next
  }
  {
    if (!($3 in seen)) { seen[$3] = 1; order[++nw] = $3 }
    v[$1, $3, $4, $2] = $5
    if ($4 == "failed") failed[$1] += $5
  }
  # Quartiles exactly as benchmark/src/stats.rs computes them.
  function quart(side, w, name, k,    n, i, j, x, t, pos, frac) {
    n = 0
    for (i = 0; i < pairs; i++)
      if ((side, w, name, i) in v) x[++n] = v[side, w, name, i]
    for (i = 2; i <= n; i++)
      for (j = i; j > 1 && x[j - 1] > x[j]; j--) { t = x[j]; x[j] = x[j - 1]; x[j - 1] = t }
    if (n == 0) return 0
    if (n == 1) return x[1]
    pos = (n + 1) * k / 4
    j = int(pos); if (j < 1) j = 1; if (j > n - 1) j = n - 1
    frac = pos - j
    return x[j] + (x[j + 1] - x[j]) * frac
  }
  END {
    metrics[++m] = "iterations"; better["iterations"] = "higher"
    metrics[++m] = "minflt_per_iter"; better["minflt_per_iter"] = "lower"
    metrics[++m] = "sys_share"; better["sys_share"] = "lower"
    printf "\n%-14s %-15s %30s %30s %8s %6s %s\n", "workload", "metric",
      "parent median [q1, q3]", "change median [q1, q3]", "change", "wins/n", "claim rule"
    for (iw = 1; iw <= nw; iw++) {
      w = order[iw]
      for (im = 1; im <= m; im++) {
        name = metrics[im]; up = better[name] == "higher"
        pm = quart("parent", w, name, 2); cm = quart("change", w, name, 2)
        pq1 = quart("parent", w, name, 1); pq3 = quart("parent", w, name, 3)
        wins = 0; n = 0
        for (i = 0; i < pairs; i++) {
          if (!(("parent", w, name, i) in v) || !(("change", w, name, i) in v)) continue
          n++
          p = v["parent", w, name, i]; c = v["change", w, name, i]
          if ((up && c > p) || (!up && c < p)) wins++
        }
        gain = up ? cm - pm : pm - cm
        met = (wins >= 0.9 * pairs && gain > pq3 - pq1) ? "met" : "-"
        printf "%-14s %-15s %12.6g [%.6g, %.6g] %12.6g [%.6g, %.6g] %+7.2f%% %3d/%-2d %s\n",
          w, name, pm, pq1, pq3, cm, quart("change", w, name, 1), quart("change", w, name, 3),
          pm == 0 ? 0 : 100 * (cm - pm) / pm, wins, n, met
      }
    }
    printf "\nfailed operations: parent %d, change %d\n", failed["parent"], failed["change"]
  }
' "$root/BENCHMARK.json" "$results"

if grep -q ' failed [1-9]' "$results" 2>/dev/null; then status=1; fi
exit "$status"
