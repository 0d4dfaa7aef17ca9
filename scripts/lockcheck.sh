#!/usr/bin/env bash
# Run the whole test suite with the lockcheck detector active, plus the
# shim's own detector/semantics tests both with and without the feature.
#
# The workspace dev-dependency turns the `lockcheck` feature on for every
# `cargo test` already; this script makes the contract explicit for CI:
#
#   1. the shim's detector tests (seeded ABBA + hold-and-wait regressions,
#      waiver accounting, semantics equivalence) pass with the feature on;
#   2. the same shim still passes its plain API tests with the feature
#      off — the exact code `cargo build --release` ships;
#   3. the full workspace suite runs clean under the detector: zero
#      lock-order cycles, zero wait-for cycles, zero unwaived
#      held-across-RPC findings (waivers live in lockcheck.toml);
#   4. the host file system's lock-scope and descriptor-race tests and
#      the GPU-memory pool's concurrent build/drop test once more, by name.
#
# Usage: scripts/lockcheck.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== shim detector + semantics tests (feature on) =="
cargo test -q -p parking_lot --features lockcheck

echo "== shim API tests (feature off, the release configuration) =="
cargo test -q -p parking_lot

echo "== full workspace under the detector =="
LOCKCHECK=1 cargo test -q

# Synthetic preads outside `HostFs::inner`, beside a thread that changes
# the namespace, with the detector's reports asserted empty.
echo "== hostfs lock scope: synthetic preads beside namespace churn =="
LOCKCHECK=1 cargo test -q -p hostfs synthetic_preads_stay_exact_beside_namespace_churn

# Four threads build and drop same-capacity GPUs through the process-wide
# arena pool; every new GPU must read as zero, with no detector reports.
echo "== gpusim arena pool: same-capacity GPUs built and dropped on four threads =="
LOCKCHECK=1 cargo test -q -p gpusim concurrent_same_capacity_gpus_always_start_zeroed

# One thread preads or pwrites a descriptor while another makes the last
# close of its unlinked file; every call must return bytes or a bad-
# descriptor error, never panic.
echo "== hostfs descriptor race: pread/pwrite against the last close =="
LOCKCHECK=1 cargo test -q -p hostfs descriptor_race

echo "lockcheck: all suites green"
