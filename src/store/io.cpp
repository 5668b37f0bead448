#include "store/io.h"

#include <atomic>
#include <fstream>
#include <mutex>
#include <optional>
#include <system_error>
#include <utility>

#include "obs/metrics.h"
#include "util/file.h"
#include "util/hash.h"

namespace patchdb::store {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kTrailerTag = "#fnv1a64 ";
constexpr std::size_t kHexDigits = 16;
// Tag + 16 hex digits + newline.
constexpr std::size_t kTrailerSize = kTrailerTag.size() + kHexDigits + 1;

std::mutex g_fault_mutex;
FaultPlan g_fault_plan;
std::atomic<std::size_t> g_write_index{0};

void raw_write(const fs::path& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("store: cannot open " + path.string());
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.flush();
  if (!out) throw std::runtime_error("store: short write to " + path.string());
}

}  // namespace

void set_fault_plan(const FaultPlan& plan) noexcept {
  std::lock_guard lock(g_fault_mutex);
  g_fault_plan = plan;
  g_write_index.store(0, std::memory_order_relaxed);
}

void clear_fault_plan() noexcept {
  std::lock_guard lock(g_fault_mutex);
  g_fault_plan = FaultPlan{};
  g_write_index.store(0, std::memory_order_relaxed);
}

std::size_t fault_write_count() noexcept {
  return g_write_index.load(std::memory_order_relaxed);
}

std::string read_file(const fs::path& path) {
  std::optional<std::string> content = util::read_file(path);
  if (!content) throw std::runtime_error("store: cannot read " + path.string());
  return std::move(*content);
}

void atomic_write_file(const fs::path& path, std::string_view content) {
  const std::size_t index = g_write_index.fetch_add(1, std::memory_order_relaxed);
  FaultPlan plan;
  {
    std::lock_guard lock(g_fault_mutex);
    plan = g_fault_plan;
  }
  if (index == plan.fail_write) {
    if (plan.truncate) {
      // A torn, non-atomic writer: half the bytes land at the final
      // path. Readers must reject this via the checksum trailer.
      raw_write(path, content.substr(0, content.size() / 2));
    }
    throw FaultInjected("store: injected fault at write " +
                        std::to_string(index) + " (" + path.string() + ")");
  }

  fs::path tmp = path;
  tmp += ".tmp";
  raw_write(tmp, content);
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    throw std::runtime_error("store: cannot rename into " + path.string());
  }
  PATCHDB_COUNTER_ADD("store.writes", 1);
  PATCHDB_COUNTER_ADD("store.bytes", content.size());
}

std::string with_checksum_trailer(std::string body) {
  if (body.empty() || body.back() != '\n') body += '\n';
  const std::uint64_t checksum = util::fnv1a64(body);
  body += kTrailerTag;
  body += util::to_hex(checksum);
  body += '\n';
  return body;
}

std::string_view strip_checksum_trailer(std::string_view sealed,
                                        const std::string& what) {
  const auto fail = [&what](const char* why) -> std::string_view {
    PATCHDB_COUNTER_ADD("store.checksum_failures", 1);
    throw std::runtime_error("store: " + what + ": " + why);
  };
  if (sealed.size() < kTrailerSize + 1 || sealed.back() != '\n') {
    return fail("missing checksum trailer");
  }
  const std::string_view trailer = sealed.substr(sealed.size() - kTrailerSize);
  if (trailer.substr(0, kTrailerTag.size()) != kTrailerTag) {
    return fail("missing checksum trailer");
  }
  std::uint64_t recorded = 0;
  if (!util::parse_hex(trailer.substr(kTrailerTag.size(), kHexDigits), recorded)) {
    return fail("malformed checksum trailer");
  }
  const std::string_view body = sealed.substr(0, sealed.size() - kTrailerSize);
  if (body.empty() || body.back() != '\n') {
    return fail("checksum trailer is not on its own line");
  }
  if (util::fnv1a64(body) != recorded) {
    return fail("checksum mismatch (corrupted or truncated file)");
  }
  return body;
}

std::string seal(std::string_view version, std::string_view body) {
  std::string document;
  document.reserve(version.size() + body.size() + kTrailerSize + 2);
  document += version;
  document += '\n';
  document += body;
  return with_checksum_trailer(std::move(document));
}

std::string_view open_sealed(std::string_view sealed, std::string_view version,
                             const std::string& name) {
  const std::string_view body = strip_checksum_trailer(sealed, name);
  if (body.substr(0, version.size()) != version || body.size() <= version.size() ||
      body[version.size()] != '\n') {
    throw std::runtime_error("store: " + name + ": unsupported version (expected " +
                             std::string(version) + ")");
  }
  return body.substr(version.size() + 1);
}

}  // namespace patchdb::store
