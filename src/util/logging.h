// Minimal leveled stream logger. Subsystems tag messages so flight logs can
// be separated from, e.g., Binder traffic. Lines go to stderr.
#ifndef SRC_UTIL_LOGGING_H_
#define SRC_UTIL_LOGGING_H_

#include <sstream>
#include <string>

namespace androne {

enum class LogLevel { kDebug = 0, kInfo, kWarning, kError };

const char* LogLevelName(LogLevel level);

// Global minimum level; messages below it are dropped. Defaults to kInfo.
void SetMinLogLevel(LogLevel level);
LogLevel GetMinLogLevel();

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* tag);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  const char* tag_;
  std::ostringstream stream_;
};

// Swallows the stream when the message is below the minimum level.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal

// Usage: ALOG(kInfo, "vdc") << "virtual drone " << id << " started";
#define ALOG(level, tag)                                        \
  if (::androne::LogLevel::level < ::androne::GetMinLogLevel()) \
    ;                                                           \
  else                                                          \
    ::androne::internal::LogMessage(::androne::LogLevel::level, tag).stream()

}  // namespace androne

#endif  // SRC_UTIL_LOGGING_H_
