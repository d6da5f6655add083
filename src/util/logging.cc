#include "src/util/logging.h"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace androne {

namespace {

std::mutex g_log_mutex;
// Read on every ALOG statement (including the ~hundreds of thousands per
// world that the level filter suppresses), so it must not take the output
// mutex: a relaxed atomic load keeps the disabled-log fast path to a few
// instructions.
std::atomic<LogLevel> g_min_level{LogLevel::kInfo};

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
  }
  return "?";
}

void SetMinLogLevel(LogLevel level) {
  g_min_level.store(level, std::memory_order_relaxed);
}

LogLevel GetMinLogLevel() {
  return g_min_level.load(std::memory_order_relaxed);
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* tag)
    : level_(level), tag_(tag) {}

LogMessage::~LogMessage() {
  std::lock_guard<std::mutex> lock(g_log_mutex);
  std::fprintf(stderr, "%s/%s: %s\n", LogLevelName(level_), tag_,
               stream_.str().c_str());
}

}  // namespace internal

}  // namespace androne
