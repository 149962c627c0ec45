// Minimal leveled logger.
//
// The library logs sparingly (scheduler decisions, epoch boundaries) and only
// through this interface, so tests can silence or capture output. Not designed
// for cross-thread message ordering guarantees beyond line atomicity.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>

namespace specsync {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

const char* LogLevelName(LogLevel level);

// Global logging configuration. Thread-safe.
class Logger {
 public:
  using Sink = std::function<void(LogLevel, const std::string&)>;

  static Logger& Get();

  void set_min_level(LogLevel level);
  // One relaxed load: SPECSYNC_LOG asks this before evaluating anything.
  bool Enabled(LogLevel level) const {
    return level >= min_level_.load(std::memory_order_relaxed);
  }

  // Replaces the sink; pass nullptr to restore the default (stderr) sink.
  void set_sink(Sink sink);

  void Write(LogLevel level, const std::string& message);

 private:
  Logger();

  std::atomic<LogLevel> min_level_{LogLevel::kInfo};
  std::mutex mutex_;  // guards sink_
  Sink sink_;
};

namespace internal {

class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  ~LogMessage() { Logger::Get().Write(level_, stream_.str()); }

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

// Discards everything streamed into it (disabled SPECSYNC_LOG lines and the
// suppressed occurrences of SPECSYNC_LOG_EVERY_N).
class NullLogMessage {
 public:
  template <typename T>
  NullLogMessage& operator<<(const T&) {
    return *this;
  }
};

// Occurrence gate for SPECSYNC_LOG_EVERY_N: returns true on the 1st, N+1-th,
// 2N+1-th, ... call. Thread-safe; each call site owns one counter.
inline bool ShouldLogEveryN(std::atomic<std::uint64_t>& counter,
                            std::uint64_t n) {
  return counter.fetch_add(1, std::memory_order_relaxed) % n == 0;
}

}  // namespace internal
}  // namespace specsync

// A line below the minimum level costs one atomic load: its operands are
// never evaluated and no message is built.
#define SPECSYNC_LOG(level)                                                \
  if (!::specsync::Logger::Get().Enabled(::specsync::LogLevel::level))     \
    ::specsync::internal::NullLogMessage();                                \
  else                                                                     \
    ::specsync::internal::LogMessage(::specsync::LogLevel::level)

// Rate-limited logging for per-event warnings that would otherwise flood the
// sink (dropped messages, failed metric writes): emits the first occurrence
// and every n-th after it, counting per call site.
//
//   SPECSYNC_LOG_EVERY_N(kWarning, 100) << "queue overflow, dropped " << k;
#define SPECSYNC_LOG_EVERY_N(level, n)                                        \
  if (static std::atomic<std::uint64_t> specsync_log_occurrences_{0};         \
      !::specsync::internal::ShouldLogEveryN(specsync_log_occurrences_, (n))) \
    ::specsync::internal::NullLogMessage();                                   \
  else                                                                        \
    ::specsync::internal::LogMessage(::specsync::LogLevel::level)
