#include "common/logging.h"

#include <iostream>

namespace specsync {

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

Logger& Logger::Get() {
  static Logger* instance = new Logger();  // never destroyed; avoids
                                           // shutdown-order issues
  return *instance;
}

Logger::Logger() = default;

void Logger::set_min_level(LogLevel level) {
  min_level_.store(level, std::memory_order_relaxed);
}

void Logger::set_sink(Sink sink) {
  std::scoped_lock lock(mutex_);
  sink_ = std::move(sink);
}

void Logger::Write(LogLevel level, const std::string& message) {
  if (!Enabled(level)) return;
  Sink sink;
  {
    std::scoped_lock lock(mutex_);
    sink = sink_;
  }
  if (sink) {
    sink(level, message);
  } else {
    std::ostringstream line;
    line << "[" << LogLevelName(level) << "] " << message << "\n";
    std::cerr << line.str();  // single << keeps the line atomic enough
  }
}

}  // namespace specsync
