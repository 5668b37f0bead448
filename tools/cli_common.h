// Shared command-line plumbing for the patchdb tools (patchdb,
// patchdbd, patchdb_client): strict flag parsing, and the mapping from
// the obs flags to an obs::ArtifactRequest.
//
// The parsing is deliberately strict. `--nvd 4OO` used to reach
// std::stoull and either silently truncate ("4") or escape as an
// uncaught std::invalid_argument; now every numeric flag goes through
// util::parse_size, which accepts only a complete non-negative decimal
// integer, and a bad value prints the flag and the offending text and
// exits 2 (the usage-error exit the tools already use).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "util/strings.h"

namespace patchdb::cli {

/// util::parse_size of a numeric flag value. Exits 2 with a message
/// naming the flag and the bad text on anything that is not a complete
/// non-negative integer (letters, trailing junk, signs, overflow, empty
/// string).
inline std::size_t parse_size(const std::string& tool, const std::string& flag,
                              const std::string& raw) {
  std::size_t value = 0;
  if (!util::parse_size(raw, value)) {
    std::fprintf(stderr, "%s: %s expects a non-negative integer, got \"%s\"\n",
                 tool.c_str(), flag.c_str(), raw.c_str());
    std::exit(2);
  }
  return value;
}

/// `--flag value` parser over argv[first..]. Numeric lookups are
/// strict: a malformed value is a usage error (exit 2), never an
/// exception or a silent truncation. A command that declares its flags
/// through accept() also rejects every flag it does not know.
class Flags {
 public:
  Flags(int argc, char** argv, int first, std::string tool = "patchdb")
      : tool_(std::move(tool)) {
    for (int i = first; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  /// Declare the command's flags: each of `values` takes the next
  /// argument, each of `switches` stands alone. Returns false after
  /// naming the first argument that starts with "--" and is in neither
  /// list (the caller exits 2). positional() then skips a value only
  /// after a value flag.
  bool accept(const std::vector<std::string>& values,
              std::vector<std::string> switches) {
    switches_ = std::move(switches);
    for (std::size_t i = 0; i < args_.size(); ++i) {
      const std::string& a = args_[i];
      if (a.rfind("--", 0) != 0 || is_switch(a)) continue;
      if (std::find(values.begin(), values.end(), a) == values.end()) {
        std::fprintf(stderr, "%s: unknown flag \"%s\"\n", tool_.c_str(),
                     a.c_str());
        return false;
      }
      ++i;  // the flag's value
    }
    return true;
  }

  std::string value(const std::string& name, std::string fallback) const {
    for (std::size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] == name) return args_[i + 1];
    }
    return fallback;
  }

  std::size_t value(const std::string& name, std::size_t fallback) const {
    const std::string raw = value(name, std::string());
    return raw.empty() ? fallback : parse_size(tool_, name, raw);
  }

  bool has(const std::string& name) const {
    for (const std::string& a : args_) {
      if (a == name) return true;
    }
    return false;
  }

  /// First argument that is not a flag or a flag value. Without an
  /// accept() declaration every flag is taken to have a value.
  std::string positional() const {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i].rfind("--", 0) == 0) {
        if (!is_switch(args_[i])) ++i;  // skip the flag's value
        continue;
      }
      return args_[i];
    }
    return {};
  }

  const std::string& tool() const noexcept { return tool_; }

 private:
  bool is_switch(const std::string& arg) const {
    return std::find(switches_.begin(), switches_.end(), arg) !=
           switches_.end();
  }

  std::string tool_;
  std::vector<std::string> args_;
  std::vector<std::string> switches_;
};

/// The obs artifacts and progress heartbeat the pipeline commands'
/// flags ask for: --metrics-out, --trace-out, --sample-ms (default 50),
/// --progress and --progress-ms. obs::ArtifactSession acts on it.
inline obs::ArtifactRequest artifact_request(const Flags& flags) {
  obs::ArtifactRequest request;
  request.metrics_out = flags.value("--metrics-out", std::string());
  request.trace_out = flags.value("--trace-out", std::string());
  request.sample_ms = flags.value("--sample-ms", std::size_t{50});
  request.progress = flags.has("--progress");
  request.progress_ms = flags.value("--progress-ms", std::size_t{0});
  return request;
}

}  // namespace patchdb::cli
