// Hashing helpers: FNV-1a for content hashing and deterministic
// generation of git-style 40-hex commit identifiers for the simulated
// repositories.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace patchdb::util {

constexpr std::uint64_t fnv1a64(std::string_view data,
                                std::uint64_t seed = 0xcbf29ce484222325ULL) noexcept {
  std::uint64_t h = seed;
  for (char c : data) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Render a 64-bit value as fixed-width lowercase hex.
inline std::string to_hex(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[value & 0xF];
    value >>= 4;
  }
  return out;
}

/// Inverse of to_hex: exactly 16 lowercase hex digits. Returns false,
/// leaving `out` unchanged, on any other text.
inline bool parse_hex(std::string_view text, std::uint64_t& out) noexcept {
  if (text.size() != 16) return false;
  std::uint64_t value = 0;
  for (char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  out = value;
  return true;
}

/// Deterministic git-style commit id (40 hex chars) derived from content:
/// the FNV-1a hashes of `content` under three seeds, 16 + 16 + 8 hex
/// digits, computed in one pass over the bytes.
inline std::string commit_id(std::string_view content) {
  std::uint64_t a = 0xcbf29ce484222325ULL;
  std::uint64_t b = 0x84222325cbf29ce4ULL;
  std::uint64_t c = 0x9e3779b97f4a7c15ULL;
  for (char ch : content) {
    const auto byte = static_cast<std::uint8_t>(ch);
    a = (a ^ byte) * 0x100000001b3ULL;
    b = (b ^ byte) * 0x100000001b3ULL;
    c = (c ^ byte) * 0x100000001b3ULL;
  }
  std::string id = to_hex(a);
  id += to_hex(b);
  id.append(to_hex(c), 0, 8);
  return id;
}

}  // namespace patchdb::util
