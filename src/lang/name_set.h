// Internal to src/lang: the one set of names the lexer and the taxonomy
// look words up in (keywords, memory operators, a fragment's distinct
// variables). Names are short, so a cheap hash and open addressing beat
// std::unordered_set's node per name and full-length hash.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace patchdb::lang {

/// A cheap hash of a non-empty short name: its first and last eight
/// bytes (which overlap below 16) and its length, mixed by one multiply.
/// NameSet compares names in full, so the hash only picks the first
/// slot.
inline std::uint64_t name_hash(std::string_view name) {
  std::uint64_t head = 0;
  std::uint64_t tail = 0;
  std::memcpy(&head, name.data(), std::min<std::size_t>(name.size(), 8));
  if (name.size() > 8) std::memcpy(&tail, name.data() + name.size() - 8, 8);
  return (head ^ std::rotl(tail, 29) ^ name.size()) * 0x9e3779b97f4a7c15ULL;
}

/// An open-addressing set of names, sized on construction to stay at
/// most half full. A free slot is a view with no data, which no name
/// taken from a string has.
class NameSet {
 public:
  explicit NameSet(std::size_t max_names)
      : slots_(std::bit_ceil(std::max<std::size_t>(2 * max_names, 16))),
        shift_(64 - std::countr_zero(slots_.size())) {}

  /// A set holding `names`, which must outlive it.
  template <typename Names>
  static NameSet of(const Names& names) {
    NameSet set(std::size(names));
    for (const std::string_view name : names) set.insert(name, name_hash(name));
    return set;
  }

  /// Adds `name`; true when it was not in the set yet.
  bool insert(std::string_view name, std::uint64_t hash) {
    std::string_view& slot = slots_[find(name, hash)];
    if (slot.data() != nullptr) return false;
    slot = name;
    return true;
  }

  bool contains(std::string_view name, std::uint64_t hash) const {
    return slots_[find(name, hash)].data() != nullptr;
  }

 private:
  /// The slot holding `name`, or the free slot where it belongs.
  std::size_t find(std::string_view name, std::uint64_t hash) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash >> shift_;; i = (i + 1) & mask) {
      if (slots_[i].data() == nullptr || slots_[i] == name) return i;
    }
  }

  std::vector<std::string_view> slots_;
  int shift_;
};

}  // namespace patchdb::lang
