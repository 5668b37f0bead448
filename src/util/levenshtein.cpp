#include "util/levenshtein.h"

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

namespace patchdb::util {

namespace {

constexpr std::size_t kWordBits = 64;

std::size_t byte(char c) { return static_cast<unsigned char>(c); }

/// Distance for a pattern of 1..64 bytes: one word of vertical deltas.
std::size_t myers_word(std::string_view pattern, std::string_view text) {
  std::array<std::uint64_t, 256> peq{};
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    peq[byte(pattern[i])] |= std::uint64_t{1} << i;
  }
  const std::uint64_t last = std::uint64_t{1} << (pattern.size() - 1);
  std::uint64_t vp = ~std::uint64_t{0};  // column 0: D[i][0] = i
  std::uint64_t vn = 0;
  std::size_t dist = pattern.size();
  for (const char c : text) {
    const std::uint64_t eq = peq[byte(c)];
    const std::uint64_t d0 = (((eq & vp) + vp) ^ vp) | eq | vn;
    std::uint64_t hp = vn | ~(d0 | vp);
    std::uint64_t hn = d0 & vp;
    dist += (hp & last) != 0;
    dist -= (hn & last) != 0;
    hp = (hp << 1) | 1;  // row 0: D[0][j] = j, a +1 step per column
    hn <<= 1;
    vp = hn | ~(d0 | hp);
    vn = hp & d0;
  }
  return dist;
}

/// Distance for a pattern over 64 bytes: ceil(m/64) words per column,
/// each block taking the horizontal delta of its top row from the block
/// above (Myers' block decomposition).
std::size_t myers_blocks(std::string_view pattern, std::string_view text) {
  const std::size_t words = (pattern.size() + kWordBits - 1) / kWordBits;
  std::vector<std::uint64_t> peq(256 * words, 0);  // peq[byte * words + word]
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    peq[byte(pattern[i]) * words + i / kWordBits] |= std::uint64_t{1}
                                                     << (i % kWordBits);
  }
  std::vector<std::uint64_t> vp(words, ~std::uint64_t{0});
  std::vector<std::uint64_t> vn(words, 0);
  const std::uint64_t last = std::uint64_t{1} << ((pattern.size() - 1) % kWordBits);
  std::size_t dist = pattern.size();
  for (const char c : text) {
    const std::uint64_t* eq = &peq[byte(c) * words];
    std::uint64_t hp_in = 1;  // row 0 steps +1 per column
    std::uint64_t hn_in = 0;
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t x = eq[w] | hn_in;
      const std::uint64_t d0 = (((x & vp[w]) + vp[w]) ^ vp[w]) | x | vn[w];
      std::uint64_t hp = vn[w] | ~(d0 | vp[w]);
      std::uint64_t hn = d0 & vp[w];
      const std::uint64_t hp_out = hp >> (kWordBits - 1);
      const std::uint64_t hn_out = hn >> (kWordBits - 1);
      if (w + 1 == words) {
        dist += (hp & last) != 0;
        dist -= (hn & last) != 0;
      }
      hp = (hp << 1) | hp_in;
      hn = (hn << 1) | hn_in;
      vp[w] = hn | ~(d0 | hp);
      vn[w] = hp & d0;
      hp_in = hp_out;
      hn_in = hn_out;
    }
  }
  return dist;
}

}  // namespace

std::size_t levenshtein(std::string_view a, std::string_view b) {
  while (!a.empty() && !b.empty() && a.front() == b.front()) {
    a.remove_prefix(1);
    b.remove_prefix(1);
  }
  while (!a.empty() && !b.empty() && a.back() == b.back()) {
    a.remove_suffix(1);
    b.remove_suffix(1);
  }
  if (a.size() < b.size()) std::swap(a, b);  // b is the shorter: the pattern
  if (b.empty()) return a.size();
  return b.size() <= kWordBits ? myers_word(b, a) : myers_blocks(b, a);
}

}  // namespace patchdb::util
