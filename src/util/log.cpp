#include "util/log.h"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace patchdb::util {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};
std::mutex g_io_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?????";
}

}  // namespace

void set_log_level(LogLevel level) noexcept { g_level.store(level); }
LogLevel log_level() noexcept { return g_level.load(); }

bool log_enabled(LogLevel level) noexcept {
  return level >= g_level.load(std::memory_order_relaxed);
}

void log_line(LogLevel level, const std::string& message) {
  if (!log_enabled(level)) return;

  // Assemble the whole line up front so the critical section is one
  // write call — no printf-family formatting anywhere on this path.
  std::string line;
  line.reserve(message.size() + 16);
  line.push_back('[');
  line += level_name(level);
  line += "] ";
  line += message;
  line.push_back('\n');

  std::lock_guard lock(g_io_mutex);
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace patchdb::util
