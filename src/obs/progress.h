// Heartbeat progress reporting for long-running loops. A Progress
// object wraps one loop (augmentation rounds, streaming-link seed rows,
// checkpointed build phases); tick() is cheap enough to call per
// iteration (one relaxed load on the disabled fast path) and prints a
// rate/ETA line to stderr at most once per configured interval:
//
//   [progress] link.rows: 2048/8017 (25.5%)  1843.2/s  eta 3s
//
// Reporting is off by default. Every binary's --progress switch has its
// obs::ObsSession set a one-second interval through
// set_progress_interval_ms(); 0 disables globally, so instrumented
// loops cost nothing in normal runs and tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace patchdb::obs {

/// Global heartbeat interval in milliseconds. 0 (the default) disables
/// all Progress output.
void set_progress_interval_ms(std::uint64_t interval_ms);
std::uint64_t progress_interval_ms() noexcept;

class Progress {
 public:
  /// `label` names the loop in every line; `total` of 0 means the item
  /// count is unknown (lines then omit percentage and ETA).
  explicit Progress(std::string label, std::uint64_t total = 0);
  /// Prints the final line (if reporting is enabled and anything was
  /// ticked) unless finish() already did.
  ~Progress();
  Progress(const Progress&) = delete;
  Progress& operator=(const Progress&) = delete;

  /// Advance by `n` items. Thread-safe; the periodic line is printed by
  /// whichever caller crosses the interval.
  void tick(std::uint64_t n = 1);

  /// Items ticked so far.
  std::uint64_t done() const noexcept {
    return done_.load(std::memory_order_relaxed);
  }

  /// Print the closing `label: done/total ... total Ns` line now (when
  /// enabled). Idempotent; the destructor calls it.
  void finish();

 private:
  void emit(bool final_line);

  std::string label_;
  std::uint64_t total_;
  std::uint64_t interval_ms_;
  std::int64_t start_us_;
  std::atomic<std::uint64_t> done_{0};
  std::atomic<std::int64_t> next_emit_us_;
  std::atomic<bool> finished_{false};
};

}  // namespace patchdb::obs
