#!/usr/bin/env bash
# Builds and runs the concurrency-sensitive test suites under ThreadSanitizer
# and under AddressSanitizer + UndefinedBehaviorSanitizer. These are the
# suites that exercise real threads (runtime, chaos, parameter server, the
# experiment thread pool and the ParallelRunner built on it, plus the
# lock-free obs instruments recorded from those threads) and the fault plan
# itself, plus the single-threaded sim suite for its memory safety.
# net_test runs the whole transport suite under both sanitizers: the
# multiplexed pipelined ShardClient (receiver threads, pending-table
# handoff, reconnects) against the epoll event-loop server, so its
# loop/pool/connection lifetimes are TSan/ASan proven on every CI run,
# including the start/stop hammer. runtime_test's TCP runs go through the
# same server. The calendar-queue
# and tuner equivalence property suites ride along for ASan's sake: the
# pooled event queue recycles nodes through a free list and moves payloads
# out mid-callback, exactly the lifetime pattern ASan proves sound
# (DESIGN.md §12 pool lifetime rules). compression_property_test rides along
# the same way: the codec's error-feedback residuals grow lazily per worker
# and the round-trip checks hammer span views over reallocating buffers.
# exactly_once_property_test races copies of one push through the server's
# watermark and kills links mid-batch, so TSan proves the watermark locking
# and ASan the connection teardown. chunk_merge_property_test rides along
# for ASan: the chunk merger indexes a reused accumulator and bitmap by
# gradient index, where an off-by-one would read stale memory instead of
# crashing. wire_codec_property_test rides along for ASan+UBSan: the wire
# codec copies arrays with bulk memcpy into exactly sized frames and out of
# payloads whose counts are corrupt or cut short, where a missed bound would
# read or write past a heap block. push_alloc_test is deliberately absent:
# it replaces the global operator new, which both sanitizers own. sim_test
# covers the single-threaded DES under ASan+UBSan; the address mode also
# compiles with
# -D_GLIBCXX_ASSERTIONS, so an operator[] past a vector's size but inside
# its capacity (invisible to ASan alone) still aborts.
#
# Usage: scripts/sanitize.sh [thread|address|all]   (default: all)
set -euo pipefail

cd "$(dirname "$0")/.."

SUITES=(runtime_test runtime_chaos_test consistency_hammer_test ps_test
        fault_test thread_pool_test parallel_runner_test obs_test net_test
        exactly_once_property_test sim_test calendar_queue_property_test
        tuner_equivalence_test compression_property_test
        chunk_merge_property_test wire_codec_property_test)
MODE="${1:-all}"

run_mode() {
  local sanitizer="$1"
  local build_dir="build-${sanitizer}san"
  echo "=== ${sanitizer} sanitizer ==="
  cmake -B "${build_dir}" -S . -DSPECSYNC_SANITIZE="${sanitizer}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "${build_dir}" -j --target "${SUITES[@]}"
  for suite in "${SUITES[@]}"; do
    echo "--- ${suite} (${sanitizer}) ---"
    "${build_dir}/tests/${suite}"
  done
}

case "${MODE}" in
  thread)  run_mode thread ;;
  address) run_mode address ;;
  all)     run_mode thread; run_mode address ;;
  *) echo "usage: $0 [thread|address|all]" >&2; exit 2 ;;
esac

echo "sanitize.sh: all suites clean"
