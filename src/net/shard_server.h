// Compatibility names for the shard server (net/event_loop_server.h).
//
// EventLoopServer is the only shard server. The names below exist only so
// benchmarks/e2e/e2e_bench.cc, which is frozen, keeps compiling; new code
// constructs EventLoopServer directly.
#pragma once

#include <memory>
#include <utility>

#include "net/event_loop_server.h"

namespace specsync::net {

// Exists only because benchmarks/e2e/e2e_bench.cc spells it.
using ShardServerBase = EventLoopServer;

// Exists only because benchmarks/e2e/e2e_bench.cc calls it.
inline std::unique_ptr<EventLoopServer> MakeShardServer(
    ParameterServer* store, ShardServerConfig config,
    obs::MetricsRegistry* metrics = nullptr,
    obs::SpanRecorder* spans = nullptr) {
  return std::make_unique<EventLoopServer>(store, std::move(config), metrics,
                                           spans);
}

}  // namespace specsync::net
