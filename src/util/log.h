// Minimal leveled logger. Library code logs sparingly (round summaries,
// corpus generation progress); bench binaries raise the level to Info.
//
// The streaming helpers check the threshold *before* constructing the
// stream: `log_debug() << expensive()` below the threshold neither
// formats nor evaluates operator<< into the stream (the chained values
// are still evaluated by the language, but nothing is stringified).
#pragma once

#include <optional>
#include <sstream>
#include <string>

namespace patchdb::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

void set_log_level(LogLevel level) noexcept;
LogLevel log_level() noexcept;

/// True when `level` passes the current threshold.
bool log_enabled(LogLevel level) noexcept;

/// Emit one line at `level` (thread-safe; no-op when below the
/// threshold). The line is assembled into one buffer and written with a
/// single unlocked-stdio-free fwrite — no printf-family formatting on
/// the emit path.
void log_line(LogLevel level, const std::string& message);

namespace detail {
/// Holds the ostringstream only when the level passed the threshold at
/// construction; otherwise operator<< is a no-op and the destructor
/// emits nothing.
class LogStream {
 public:
  explicit LogStream(LogLevel level, bool enabled) : level_(level) {
    if (enabled) stream_.emplace();
  }
  ~LogStream() {
    if (stream_.has_value()) log_line(level_, stream_->str());
  }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;
  LogStream(LogStream&&) = default;

  template <typename T>
  LogStream& operator<<(const T& value) {
    if (stream_.has_value()) *stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::optional<std::ostringstream> stream_;
};
}  // namespace detail

inline detail::LogStream log_debug() {
  return detail::LogStream(LogLevel::kDebug, log_enabled(LogLevel::kDebug));
}
inline detail::LogStream log_info() {
  return detail::LogStream(LogLevel::kInfo, log_enabled(LogLevel::kInfo));
}
inline detail::LogStream log_warn() {
  return detail::LogStream(LogLevel::kWarn, log_enabled(LogLevel::kWarn));
}
inline detail::LogStream log_error() {
  return detail::LogStream(LogLevel::kError, log_enabled(LogLevel::kError));
}

}  // namespace patchdb::util
