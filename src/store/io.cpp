#include "store/io.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
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

/// An open file descriptor, closed when it goes out of scope.
class Descriptor {
 public:
  Descriptor(const fs::path& path, int flags) : path_(path) {
    fd_ = ::open(path.c_str(), flags | O_CLOEXEC, 0644);
    if (fd_ < 0) throw std::runtime_error("store: cannot open " + path.string());
  }
  ~Descriptor() {
    if (fd_ >= 0) ::close(fd_);
  }
  Descriptor(const Descriptor&) = delete;
  Descriptor& operator=(const Descriptor&) = delete;

  void write(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::write(fd_, bytes.data(), bytes.size());
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("store: cannot write " + path_.string());
      bytes.remove_prefix(static_cast<std::size_t>(n));
    }
  }

  /// fsync. A filesystem that cannot sync a directory answers EINVAL;
  /// it offers nothing stronger to ask for, so that one case passes.
  void sync(bool directory = false) {
    if (::fsync(fd_) != 0 && !(directory && errno == EINVAL)) {
      throw std::runtime_error("store: cannot fsync " + path_.string());
    }
    PATCHDB_COUNTER_ADD("store.fsyncs", 1);
  }

  void close() {
    if (::close(std::exchange(fd_, -1)) != 0) {
      throw std::runtime_error("store: cannot close " + path_.string());
    }
  }

 private:
  fs::path path_;
  int fd_ = -1;
};

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

void atomic_write_file(const fs::path& path,
                       const std::function<void(const ChunkSink&)>& produce) {
  const std::size_t index = g_write_index.fetch_add(1, std::memory_order_relaxed);
  FaultPlan plan;
  {
    std::lock_guard lock(g_fault_mutex);
    plan = g_fault_plan;
  }
  fs::path tmp = path;
  tmp += ".tmp";
  std::size_t bytes = 0;
  try {
    Descriptor file(tmp, O_WRONLY | O_CREAT | O_TRUNC);
    produce([&](std::string_view chunk) {
      file.write(chunk);
      bytes += chunk.size();
    });
    if (index == plan.fail_write) {
      if (plan.truncate) {
        // A torn, non-atomic writer: half the bytes land at the final
        // path. Readers must reject this via their checksums.
        file.close();
        fs::resize_file(tmp, bytes / 2);
        fs::rename(tmp, path);
      }
      throw FaultInjected("store: injected fault at write " + std::to_string(index) +
                          " (" + path.string() + ")");
    }
    file.sync();
    file.close();
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) throw std::runtime_error("store: cannot rename into " + path.string());
  } catch (...) {
    std::error_code ignored;
    fs::remove(tmp, ignored);
    throw;
  }
  // The rename is durable once the directory entry is.
  const fs::path dir = path.has_parent_path() ? path.parent_path() : fs::path(".");
  Descriptor(dir, O_RDONLY | O_DIRECTORY).sync(/*directory=*/true);
  PATCHDB_COUNTER_ADD("store.writes", 1);
  PATCHDB_COUNTER_ADD("store.bytes", bytes);
}

void atomic_write_file(const fs::path& path, std::string_view content) {
  atomic_write_file(path, [content](const ChunkSink& sink) { sink(content); });
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
