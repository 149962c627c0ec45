#!/usr/bin/env bash
# Builds and runs the concurrency-sensitive test suites under ThreadSanitizer
# and under AddressSanitizer + UndefinedBehaviorSanitizer. These are the
# suites that exercise real threads (runtime, chaos, parameter server, the
# experiment thread pool and the ParallelRunner built on it, plus the
# lock-free obs instruments recorded from those threads) and the fault plan
# itself, plus the single-threaded sim suite for its memory safety.
# runtime_test and runtime_chaos_test run training on worker threads only:
# every worker calls the scheduler under the runtime's one mutex, waits at
# the shared gate, pushes to the shared store and draws from the shared
# fault plan, so TSan proves those handoffs. Each worker's notify outbox
# has one owner and no lock; TSan would flag a second thread touching it.
# net_test runs the whole transport suite under both sanitizers: the
# caller-driven ShardClient (no threads of its own; each caller reads its
# replies and reconnects inline) against the epoll event-loop server (one
# loop per core, each executing the requests it reads, fed new connections
# by loop 0 through a locked inbox), so the server's start/stop against its
# callers' threads, the inbox hand-off, the executor and store shared by
# concurrent loops, its connection lifetimes and out-queues, and the
# client's socket and reply-buffer handling are TSan/ASan proven on every
# CI run, including the start/stop hammer. runtime_test's TCP runs go
# through the same server. The
# calendar-queue and tuner equivalence property suites ride along for
# ASan's sake: the
# pooled event queue recycles nodes through a free list and moves payloads
# out mid-callback, exactly the lifetime pattern ASan proves sound
# (DESIGN.md §12 pool lifetime rules). compression_property_test rides along
# the same way: the codec's error-feedback residuals grow lazily per worker
# and the round-trip checks hammer span views over reallocating buffers.
# exactly_once_property_test drives copies of one push through the server's
# watermark and kills links mid-batch, so TSan proves the watermark locking
# and ASan the connection teardown. candidate_deltas_property_test rides
# along for ASan+UBSan: the tuner's radix sort scatters through computed
# offsets into a ping-pong buffer. chunk_merge_property_test rides along
# for ASan: an open gradient sum adds chunks into one reused workspace's
# accumulator and bitmap, indexed by factor row, and an abandoned sum's
# bitmap words are cleared at the next open, where an off-by-one would read
# stale memory instead of crashing. mf_gradient_property_test rides along for the same reason: the
# MF gradient kernel reuses a per-thread row accumulator and occupancy
# bitmap across batches and models of every size and indexes both by factor
# row, where a missed bound would read another batch's leftovers;
# -D_GLIBCXX_ASSERTIONS catches an index past a shrunk vector's size.
# tensor_test rides along for ASan+UBSan: SparseUpdate::AssignOccupied, the
# drain both accumulators emit through, sizes its arrays once and writes
# them through raw pointers, where a miscounted size would write past the
# end, and reads the accumulator through bounds-asserted subspans.
# wire_codec_property_test rides along for ASan+UBSan: the wire codec
# copies arrays with bulk memcpy into exactly sized frames and out of
# payloads whose counts are corrupt or cut short, where a missed bound would
# read or write past a heap block. consistency_property_test rides along for
# ASan too: the per-shard controller is now the only SSP for both engines
# (BSP, SSP, PSSP and DSSP all run on it), and its [worker][shard] clock and
# write-set tables are indexed under crash churn, where a bad index would
# read another worker's row. protocol_test rides along for both: the worker
# protocol's per-worker tables are indexed under crash churn (ASan) and, in
# the runtime, read across worker threads (TSan). obs_integration_test
# rides along for TSan: the runtime has no scheduler thread, so the
# scheduler's audit records and retune instants are written from whichever
# worker thread delivers the notify or fires the check, under the runtime's
# scheduler mutex, while the other workers record their own spans.
# speed_model_property_test rides along for ASan+UBSan: the one speed
# model indexes its per-worker multipliers by worker ids the suite draws at
# random and scans its contention events in reverse.
# shard_route_property_test rides along for ASan+UBSan: sorted routing
# turns lower_bound iterators into entry ranges, where a cut past the end
# would hand PushRoute a range outside the gradient.
# push_alloc_test is deliberately absent:
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
        tuner_equivalence_test candidate_deltas_property_test
        compression_property_test
        shard_route_property_test tensor_test
        chunk_merge_property_test mf_gradient_property_test
        wire_codec_property_test consistency_property_test protocol_test
        obs_integration_test speed_model_property_test)
MODE="${1:-all}"

run_mode() {
  local sanitizer="$1"
  local build_dir="build-${sanitizer}san"
  echo "=== ${sanitizer} sanitizer ==="
  cmake -B "${build_dir}" -S . -DSPECSYNC_SANITIZE="${sanitizer}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "${build_dir}" -j "$(nproc)" --target "${SUITES[@]}"
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
