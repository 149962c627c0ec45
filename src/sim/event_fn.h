// Move-only callable with inline storage, sized for DES event callbacks.
//
// Every simulated event carries a small closure (a handful of ids, a SimTime,
// maybe a shared_ptr to an in-flight attempt). std::function heap-allocates
// most of them (libstdc++'s small-object buffer is 16 bytes) and, being
// copyable, forces a second allocation when an event is copied out of a
// container. EventFn keeps closures up to kInlineBytes in the event node
// itself — pooled by the calendar queue, so steady-state simulation performs
// zero allocations per event — and transparently boxes the rare larger
// closure on the heap (the box pointer then lives inline).
//
// Move-only by design: an event fires exactly once, so nothing ever needs to
// copy one. Moving an EventFn relocates the closure into the destination and
// leaves the source empty.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "common/check.h"

namespace specsync {

class EventFn {
 public:
  // Covers every closure the cluster loop schedules (the largest captures
  // [this, worker, ShardRoute, shared_ptr] = 64 bytes). Closures above the
  // limit still work — they are boxed — so this is a perf knob, not an API
  // limit.
  static constexpr std::size_t kInlineBytes = 64;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& fn) {  // NOLINT(google-explicit-constructor): mirrors std::function
    using Decayed = std::decay_t<F>;
    if constexpr (sizeof(Decayed) <= kInlineBytes &&
                  alignof(Decayed) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Decayed>) {
      ::new (static_cast<void*>(buffer_)) Decayed(std::forward<F>(fn));
      ops_ = &InlineOps<Decayed>::kOps;
    } else {
      // Boxed fallback: the inline slot holds only the owning pointer.
      ::new (static_cast<void*>(buffer_))
          Decayed*(new Decayed(std::forward<F>(fn)));
      ops_ = &BoxedOps<Decayed>::kOps;
    }
  }

  EventFn(EventFn&& other) noexcept { MoveFrom(std::move(other)); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(std::move(other));
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() {
    SPECSYNC_CHECK(ops_ != nullptr) << "invoking an empty EventFn";
    ops_->invoke(buffer_);
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-constructs dst from src's closure and destroys src's.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename F>
  struct InlineOps {
    static void Invoke(void* storage) { (*std::launder(static_cast<F*>(storage)))(); }
    static void Relocate(void* dst, void* src) noexcept {
      F* from = std::launder(static_cast<F*>(src));
      ::new (dst) F(std::move(*from));
      from->~F();
    }
    static void Destroy(void* storage) noexcept {
      std::launder(static_cast<F*>(storage))->~F();
    }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  template <typename F>
  struct BoxedOps {
    static F* Get(void* storage) {
      return *std::launder(static_cast<F**>(storage));
    }
    static void Invoke(void* storage) { (*Get(storage))(); }
    static void Relocate(void* dst, void* src) noexcept {
      ::new (dst) F*(Get(src));  // ownership transfers with the pointer
    }
    static void Destroy(void* storage) noexcept { delete Get(storage); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  void MoveFrom(EventFn&& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buffer_, other.buffer_);
      other.ops_ = nullptr;
    }
  }

  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buffer_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buffer_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace specsync
