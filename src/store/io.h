// Crash-safe, durable file I/O for the store. atomic_write_file is the
// one writer: it writes a temporary sibling, fsyncs it, renames it into
// place and fsyncs the directory, so a killed export or checkpoint
// never leaves a half-written file at its final path, and a completed
// write survives a power loss. Documents that must be tamper-evident
// (manifest, features, checkpoints) are "sealed": a version line, the
// body, and a trailing FNV-1a checksum line. seal() writes that shape
// and open_sealed() checks it, trailer first, for every one of them.
//
// A fault-injection hook covers the whole write path for the kill-point
// tests: fail the Nth write before it commits (simulating a crash
// between rounds) or leave a deliberately torn file at the destination
// (simulating a non-atomic writer, which fsck and resume must detect).
//
// Obs counters: store.writes, store.bytes, store.fsyncs (files and
// directories), store.checksum_failures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace patchdb::store {

/// Thrown (only) by the fault-injection hook so tests can distinguish a
/// planted crash from a real I/O error.
class FaultInjected : public std::runtime_error {
 public:
  explicit FaultInjected(const std::string& what) : std::runtime_error(what) {}
};

/// Test hook: make the Nth atomic_write_file call fail once its
/// content is written. With `truncate` the faulting write leaves half
/// the content at the destination (a torn, non-atomic write); without
/// it the destination is untouched (a crash before the rename
/// committed).
struct FaultPlan {
  static constexpr std::size_t kNever = static_cast<std::size_t>(-1);
  /// 0-based index of the write to fail; kNever disables the hook.
  std::size_t fail_write = kNever;
  bool truncate = false;
};

/// Install a plan (resets the write counter) / disarm the hook.
void set_fault_plan(const FaultPlan& plan) noexcept;
void clear_fault_plan() noexcept;

/// Writes performed since the last set/clear_fault_plan (test aid for
/// sweeping every kill point).
std::size_t fault_write_count() noexcept;

/// Read a whole file; throws std::runtime_error when unreadable.
std::string read_file(const std::filesystem::path& path);

/// Takes the next piece of a file's content.
using ChunkSink = std::function<void(std::string_view)>;

/// Write `<path>.tmp` from the pieces `produce` hands its sink, fsync
/// it, rename it over `path`, then fsync `path`'s directory. Throws
/// std::runtime_error on I/O failure and FaultInjected when the armed
/// fault plan fires; either way no `.tmp` file is left behind.
void atomic_write_file(const std::filesystem::path& path,
                       const std::function<void(const ChunkSink&)>& produce);

/// atomic_write_file for content already in one piece.
void atomic_write_file(const std::filesystem::path& path, std::string_view content);

/// Append the checksum trailer line ("#fnv1a64 <16 hex>\n") covering
/// every preceding byte. A missing final newline is added first so the
/// trailer is always a line of its own.
std::string with_checksum_trailer(std::string body);

/// Verify and strip the trailer; returns the body. Throws
/// std::runtime_error (and bumps store.checksum_failures) when the
/// trailer is missing, malformed, or does not match — i.e. any flipped
/// or truncated byte anywhere in the document.
std::string_view strip_checksum_trailer(std::string_view sealed,
                                        const std::string& what);

/// `version` on a line of its own, `body`, then the checksum trailer:
/// how manifest.csv, features.csv and checkpoint.csv are written.
std::string seal(std::string_view version, std::string_view body);

/// Verify a seal()ed document's trailer, then its version line, and
/// return the body. Throws std::runtime_error naming `name` when either
/// fails ("unsupported version" for the latter).
std::string_view open_sealed(std::string_view sealed, std::string_view version,
                             const std::string& name);

}  // namespace patchdb::store
