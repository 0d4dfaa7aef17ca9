#!/bin/sh
# Self-agreement: two full sets of one build (five runs of every workload
# each), compared by `check`. The benchmark is only fit to judge a change
# if it agrees with itself: no row may come out `worse`, and a row that
# comes out `unresolved` says the sandbox was too noisy to tell.
#
#   benchmark/agree.sh [seed]     (from anywhere; default seed 1)
set -eu
cd "$(dirname "$0")/.."
seed="${1:-1}"
bench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}
mkdir -p benchmark/out
bench run --all --seed "$seed" --out benchmark/out/agree-a.json
bench run --all --seed "$seed" --out benchmark/out/agree-b.json
bench check benchmark/out/agree-a.json benchmark/out/agree-b.json
