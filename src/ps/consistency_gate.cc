#include "ps/consistency_gate.h"

#include <chrono>
#include <utility>

#include "common/check.h"

namespace specsync {

ConsistencyGate::ConsistencyGate(
    std::unique_ptr<ConsistencyController> controller)
    : controller_(std::move(controller)) {
  SPECSYNC_CHECK(controller_ != nullptr);
}

bool ConsistencyGate::WaitToStart(WorkerId worker,
                                  IterationId next_iteration) {
  std::unique_lock lock(mutex_);
  if (shutdown_) return false;
  if (controller_->MayStart(worker, next_iteration)) {
    return true;
  }
  ++blocks_;
  const auto block_begin = std::chrono::steady_clock::now();
  admitted_.wait(lock, [&] {
    return shutdown_ || controller_->MayStart(worker, next_iteration);
  });
  blocked_wall_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    block_begin)
          .count();
  return !shutdown_;
}

void ConsistencyGate::OnPush(WorkerId worker, IterationId iteration,
                             SimTime now,
                             std::span<const std::size_t> touched_shards) {
  {
    std::scoped_lock lock(mutex_);
    controller_->OnPush(worker, iteration, now, touched_shards);
  }
  admitted_.notify_all();
}

void ConsistencyGate::OnWorkerDown(WorkerId worker) {
  {
    std::scoped_lock lock(mutex_);
    controller_->OnWorkerDown(worker);
  }
  admitted_.notify_all();
}

void ConsistencyGate::OnWorkerUp(WorkerId worker) {
  {
    std::scoped_lock lock(mutex_);
    controller_->OnWorkerUp(worker);
  }
  admitted_.notify_all();
}

void ConsistencyGate::Shutdown() {
  {
    std::scoped_lock lock(mutex_);
    shutdown_ = true;
  }
  admitted_.notify_all();
}

std::uint64_t ConsistencyGate::blocks() const {
  std::scoped_lock lock(mutex_);
  return blocks_;
}

double ConsistencyGate::blocked_wall_seconds() const {
  std::scoped_lock lock(mutex_);
  return blocked_wall_seconds_;
}

}  // namespace specsync
