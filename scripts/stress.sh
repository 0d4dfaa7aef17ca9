#!/usr/bin/env bash
# Repeat-run the concurrency stress suite (tests/stress.rs).
#
# Each test process already runs 10 internal rounds; repeating the whole
# binary re-rolls thread scheduling, block dispatch seeds, and the order
# concurrent serves reach the host file system across processes, which is what shakes out the rare
# interleavings (the PR-2 concurrency bugs reproduced about once in seven
# full-suite runs).
#
# The suite includes the dirty-page-loss replay (the benchmark's parked
# `tenant_mix` geometry, full size in release builds), which lost a page
# about once in a hundred replays before the pin/evict race was fixed,
# and the two tenant-isolation checks, whose p99s follow the real-time
# schedule.
#
# After it, the tests that once failed only now and then are looped on
# their own, 20 times each: the deterministic pin/evict interleavings, and
# the two tier-1 tests that used to depend on scheduling luck. With them
# go the two tests that hold the DMA ring under the daemon's worker bound:
# 28 concurrent faults served by the daemon alone, and the
# `evict_random`-shaped kernel whose 28 real threads race for the ring.
# Last, the replacement policy: the three `cache::reclaim` tests of the
# hand and its reference counts, and the two-block sweep of one tree
# (the suite above runs that one too; here it gets 20 more processes).
# With them go the waits that park on a `simtime::ClockBoard`: the
# daemon-turn test that hands freed turns to parked callers in issue
# order, the write throttle, the flusher draining in the background,
# the cache-exhaustion give-up that fires with nothing left to notify,
# and the board's own wait tests (its quantum fallback, `notify_first`
# order, a seat ahead woken by the seat behind), so every park/unpark
# handoff is re-rolled too.
#
# Finally the whole `gpufs` lib test binary runs 5 times, unfiltered and in
# debug as the tier-1 suite builds it: the loops above filter by test name,
# so they cannot catch a test disturbed by the others sharing its process
# (the read-batch allocation pin once counted the lock checker's
# bookkeeping for locks other test threads held).
#
# Usage: scripts/stress.sh [RUNS]   (default: 10)
set -euo pipefail
cd "$(dirname "$0")/.."
runs="${1:-10}"
cargo build -q --release --test stress
for i in $(seq 1 "$runs"); do
  echo "== stress run $i/$runs =="
  cargo test -q --release --test stress
done
echo "all $runs stress runs green"

flaky_runs=20
for i in $(seq 1 "$flaky_runs"); do
  echo "== once-flaky run $i/$flaky_runs =="
  cargo test -q --release -p gpufs --lib -- \
    parked throttle_blocks_writers per_host_stats_sum concurrent_single_page_faults \
    a_hit_since_the_last_sweep a_saturated_count the_last_slot_of_a_full_leaf \
    a_freed_turn_goes_to_the_earliest_issued_waiter cache_exhaustion_is_reported_not_hung \
    flusher_drains_dirty_pages_in_background
  cargo test -q --release -p simtime --lib board::tests
  cargo test -q --release --test stress stress_concurrent_sweeps
  cargo test -q --release --test integration evict_random_miniature
done
echo "all $flaky_runs once-flaky runs green"

lib_runs=5
for i in $(seq 1 "$lib_runs"); do
  echo "== whole lib binary run $i/$lib_runs =="
  cargo test -q -p gpufs --lib
done
echo "all $lib_runs whole lib binary runs green"
