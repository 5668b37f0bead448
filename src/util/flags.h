// The one argv parser of every binary: patchdb, patchdbd,
// patchdb_client, the experiment benches and the google-benchmark
// micro benches (after benchmark::Initialize has taken its own
// --benchmark_* flags out of argv). bench_diff keeps its own loop,
// because its rule flags repeat.
//
// `--name value` and a bare `--name` switch are the only flag forms.
// A binary declares its flags through accept(); any other argument
// that starts with "--", `--name=value` included, is a usage error that
// names the argument, and the binary exits 2. So do a value flag with
// nothing after it and a positional argument past the number the binary
// takes. Numeric values parse through util::parse_size, which accepts
// only a complete non-negative decimal integer: `--nvd 4OO` names the
// flag and the text and exits 2, instead of truncating to 4 or escaping
// as an exception.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/strings.h"

namespace patchdb::util {

class Flags {
 public:
  /// The arguments are argv[first..argc); `tool` prefixes every message.
  Flags(int argc, char** argv, int first, std::string tool)
      : tool_(std::move(tool)) {
    for (int i = first; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  /// Declare the flags: each of `values` takes the next argument, each
  /// of `switches` stands alone, and at most `max_positionals` other
  /// arguments may appear. Returns false after naming the first
  /// argument that breaks the declaration (the caller exits 2).
  bool accept(const std::vector<std::string>& values,
              std::vector<std::string> switches,
              std::size_t max_positionals = SIZE_MAX) {
    switches_ = std::move(switches);
    std::size_t positionals = 0;
    for (std::size_t i = 0; i < args_.size(); ++i) {
      const std::string& a = args_[i];
      if (a.rfind("--", 0) != 0) {
        if (++positionals > max_positionals) {
          return fail("unexpected argument \"" + a + "\"");
        }
        continue;
      }
      if (is_switch(a)) continue;
      if (std::find(values.begin(), values.end(), a) == values.end()) {
        return fail("unknown flag \"" + a + "\"");
      }
      if (++i == args_.size()) return fail(a + " needs a value");
    }
    return true;
  }

  std::string value(const std::string& name, std::string fallback) const {
    for (std::size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] == name) return args_[i + 1];
    }
    return fallback;
  }

  /// Exits 2, naming the flag and the text, on anything that is not a
  /// complete non-negative integer.
  std::size_t value(const std::string& name, std::size_t fallback) const {
    const std::string raw = value(name, std::string());
    if (raw.empty()) return fallback;
    std::size_t parsed = 0;
    if (!util::parse_size(raw, parsed)) {
      fail(name + " expects a non-negative integer, got \"" + raw + "\"");
      std::exit(2);
    }
    return parsed;
  }

  bool has(const std::string& name) const {
    return std::find(args_.begin(), args_.end(), name) != args_.end();
  }

  /// The first argument that is not a flag or a flag value, or "" when
  /// there is none. Without an accept() declaration every flag is taken
  /// to have a value.
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

  bool fail(const std::string& message) const {
    std::fprintf(stderr, "%s: %s\n", tool_.c_str(), message.c_str());
    return false;
  }

  std::string tool_;
  std::vector<std::string> args_;
  std::vector<std::string> switches_;
};

}  // namespace patchdb::util
