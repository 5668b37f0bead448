#include "core/streaming_link.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/link_kernel.h"
#include "core/query.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace patchdb::core {

namespace {

/// One cached candidate. Lexicographic (distance, column) order is the
/// tie rule the dense greedy implements implicitly by scanning columns
/// left to right with a strict `<`.
struct Entry {
  float d;
  std::uint32_t col;
};

bool lex_less(const Entry& a, const Entry& b) noexcept {
  return a.d < b.d || (a.d == b.d && a.col < b.col);
}

/// Candidates cached per distinct seed row. A longer list absorbs more
/// collisions before a fallback re-scan; no length changes a result.
constexpr std::size_t kTopK = 24;

/// Pool blocks per pass-1 tile: 2,048 columns, whose 60-dim packed
/// floats fit in a typical L2 slice. Each pass-1 chunk runs all of its
/// rows over one tile before it moves on to the next.
constexpr std::size_t kTileBlocks = 32;

/// Bit-identical feature rows collapsed into groups. Ids follow first
/// occurrence, so a group's id order is the order of its lowest member;
/// each group lists its members in ascending row order.
struct RowGroups {
  std::vector<std::uint32_t> group_of;  // row -> group
  std::vector<std::uint32_t> start;     // group g: members[start[g], start[g+1])
  std::vector<std::uint32_t> members;

  std::size_t size() const noexcept { return start.size() - 1; }
  std::uint32_t first(std::size_t g) const noexcept { return members[start[g]]; }
};

/// Hash of a row's bit pattern. Only speed depends on it: equal hashes
/// are confirmed by content.
std::uint64_t hash_row(std::span<const double> row) noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const double v : row) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    h = (h ^ bits) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  return h;
}

/// Group the raw double rows: hash every row in parallel, then one pass
/// in row order over an open-addressing table of each group's first
/// row, comparing content on equal hashes.
RowGroups group_rows(const feature::FeatureMatrix& matrix) {
  PATCHDB_TRACE_SPAN("nearest_link.group");
  const std::size_t n = matrix.rows();
  const std::size_t bytes = matrix.cols() * sizeof(double);
  std::vector<std::uint64_t> hash(n);
  util::default_pool().parallel_for(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hash[i] = hash_row(matrix[i]);
  });

  constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();
  std::size_t mask = 1;
  while (mask < 2 * n) mask <<= 1;  // at most half full
  std::vector<std::uint32_t> table(mask--, kEmpty);
  RowGroups g;
  g.group_of.resize(n);
  g.start.assign(1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t slot = hash[i] & mask;
    for (; table[slot] != kEmpty; slot = (slot + 1) & mask) {
      const std::uint32_t first = table[slot];
      if (hash[first] == hash[i] &&
          std::memcmp(matrix[i].data(), matrix[first].data(), bytes) == 0) {
        break;
      }
    }
    if (table[slot] == kEmpty) {
      table[slot] = static_cast<std::uint32_t>(i);
      g.group_of[i] = static_cast<std::uint32_t>(g.start.size() - 1);
      g.start.push_back(0);
    } else {
      g.group_of[i] = g.group_of[table[slot]];
    }
    ++g.start[g.group_of[i] + 1];
  }
  for (std::size_t k = 1; k < g.start.size(); ++k) g.start[k] += g.start[k - 1];
  g.members.resize(n);
  std::vector<std::uint32_t> fill(g.start.begin(), g.start.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    g.members[fill[g.group_of[i]]++] = static_cast<std::uint32_t>(i);
  }
  return g;
}

/// The scaled rows of each group's first member, through
/// scale_features' arithmetic.
std::vector<float> scale_groups(const feature::FeatureMatrix& matrix,
                                std::span<const double> weights,
                                const RowGroups& groups) {
  std::vector<std::uint32_t> firsts(groups.size());
  for (std::size_t g = 0; g < firsts.size(); ++g) firsts[g] = groups.first(g);
  return scale_features(matrix, weights, firsts);
}

/// A greedy pick: the distance, the pool column, and its group.
/// Candidates compare by (d, member) — the dense scan's first-win order.
struct Pick {
  float d = std::numeric_limits<float>::infinity();
  std::uint32_t member = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t group = 0;
};

bool pick_less(const Pick& a, const Pick& b) noexcept {
  return a.d < b.d || (a.d == b.d && a.member < b.member);
}

}  // namespace

LinkResult streaming_nearest_link(const feature::FeatureMatrix& security,
                                  const feature::FeatureMatrix& wild,
                                  std::span<const double> weights,
                                  StreamingLinkStats* stats) {
  const std::size_t dims = weights.size();
  if (dims != security.cols() || dims != wild.cols()) {
    throw std::invalid_argument("streaming_nearest_link: bad weight vector");
  }
  const std::size_t m = security.rows();
  const std::size_t n = wild.rows();
  if (n < m) {
    throw std::invalid_argument("streaming_nearest_link: need cols >= rows");
  }
  LinkResult result;
  if (m == 0) return result;

  PATCHDB_TRACE_SPAN("nearest_link.streaming");
  PATCHDB_COUNTER_ADD("nearest_link.links", m);

  // ---- Distinct vectors. Bit-identical rows give bit-identical cells,
  // so pass 1 and every re-scan run over distinct seeds (mu) x distinct
  // pool vectors (nu). Heap entries are indexed by group, not by row or
  // column; only the greedy below walks the original rows and columns.
  const RowGroups rows = group_rows(security);
  const RowGroups cols = group_rows(wild);
  const std::size_t mu = rows.size();
  const std::size_t nu = cols.size();
  PATCHDB_COUNTER_ADD("nearest_link.distinct_rows", mu);
  PATCHDB_COUNTER_ADD("nearest_link.distinct_cols", nu);

  // k clamps to the distinct pool and the last tile ends with it.
  const std::size_t k = std::min(kTopK, nu);
  const std::size_t blocks = (nu + kLinkGroupCols - 1) / kLinkGroupCols;
  const std::size_t tiles = (blocks + kTileBlocks - 1) / kTileBlocks;

  // Same scale-then-cast as the dense kernel: identical float inputs.
  // The row-major scaled pool is freed once it is packed.
  const std::vector<float> sec = scale_groups(security, weights, rows);
  const PackedCorpus pool = pack_corpus(scale_groups(wild, weights, cols), dims);

  // ---- Pass 1: the default pool splits the distinct seed rows, and
  // each chunk streams the pack a tile at a time for its own rows. One
  // thread fills each row's top-k heap (flat: row r owns [r*k, r*k+k))
  // in column order, as a serial scan would, so there is nothing to
  // merge; the heap is sorted ascending once the pack is done.
  std::vector<Entry> entries(mu * k);
  std::vector<std::uint32_t> heap_size(mu, 0);
  obs::Progress row_progress("link.rows", mu);

  util::default_pool().parallel_for(mu, [&](std::size_t row_begin,
                                            std::size_t row_end) {
    float lane[kLinkGroupCols];
    for (std::size_t block_lo = 0; block_lo < blocks; block_lo += kTileBlocks) {
      const std::size_t block_hi = std::min(block_lo + kTileBlocks, blocks);
      for (std::size_t r = row_begin; r < row_end; ++r) {
        const float* a = sec.data() + r * dims;
        Entry* h = entries.data() + r * k;
        std::uint32_t sz = heap_size[r];
        for (std::size_t b = block_lo; b < block_hi; ++b) {
          // Exact blocked kernel over the whole block: lane i holds the
          // float squared distance with scalar-identical accumulation
          // (padded lanes compute garbage, never read).
          const std::size_t c0 = b * kLinkGroupCols;
          const std::size_t gw = std::min(kLinkGroupCols, nu - c0);
          sq_cell_block(a, pool.blocks.data() + c0 * dims, dims, lane);
          if (sz == k) {
            // Vectorized block rejection: the scalar loop below skips
            // any lane with sq > front^2 * (1 + 2^-21), so when every
            // lane clears that bar the whole block is a no-op and the
            // branchy per-lane pass can be skipped. The bar is
            // rounded *up* to float (nextafter) so a lane is never
            // skipped here that the scalar screen would scan; the
            // heap front only shrinks within a block, so the bar
            // taken before the scan is the loosest one. Padded lanes
            // can only force the scan, never suppress it.
            const double fsq = static_cast<double>(h[0].d) *
                               static_cast<double>(h[0].d);
            if (fsq > 1e-60) {
              const float cut = std::nextafterf(
                  static_cast<float>(fsq * (1.0 + 0x1p-21)), HUGE_VALF);
              int any = 0;
              for (std::size_t i = 0; i < kLinkGroupCols; ++i) {
                any |= lane[i] <= cut;
              }
              if (!any) continue;
            }
          }
          for (std::size_t i = 0; i < gw; ++i) {
            const float sq = lane[i];
            if (sz == k) {
              // Cheap pre-sqrt rejection: if sq exceeds the front's
              // square by more than a float ulp's worth, the rounded
              // root is strictly above the front and can't enter.
              // (Guard excludes denormal fronts where the relative
              // margin stops covering one ulp.)
              const double fsq = static_cast<double>(h[0].d) *
                                 static_cast<double>(h[0].d);
              if (fsq > 1e-60 &&
                  static_cast<double>(sq) > fsq * (1.0 + 0x1p-21)) {
                continue;
              }
            }
            const Entry e{std::sqrt(sq), static_cast<std::uint32_t>(c0 + i)};
            if (sz < k) {
              h[sz++] = e;
              std::push_heap(h, h + sz, lex_less);
            } else if (lex_less(e, h[0])) {
              std::pop_heap(h, h + k, lex_less);
              h[k - 1] = e;
              std::push_heap(h, h + k, lex_less);
            }
          }
        }
        heap_size[r] = sz;
      }
    }
    for (std::size_t r = row_begin; r < row_end; ++r) {
      Entry* h = entries.data() + r * k;
      std::sort_heap(h, h + heap_size[r], lex_less);
    }
    row_progress.tick(row_end - row_begin);
  });

  // Pool group g's unused columns are members[next[g], start[g+1]):
  // members of a group tie for every row, so the dense first-win scan
  // takes them in ascending order and a cursor replaces used[].
  std::vector<std::uint32_t> next(cols.start.begin(), cols.start.end() - 1);
  const auto live = [&](std::uint32_t g) {
    return next[g] < cols.start[g + 1];
  };

  // Exact full-row re-scan over the distinct pool, identical to the
  // dense path's collision handling: the minimum of (distance, lowest
  // unused member) over the live groups, which is the (distance,
  // column) minimum over the unused columns. It runs serially through
  // the blocked SIMD kernel over pass 1's pack: l2_cell_block is
  // per-lane bit-identical to the scalar l2_cell, so every value
  // compared is a float the dense matrix also holds.
  auto full_row_rescan = [&](std::size_t r) {
    const float* a = sec.data() + r * dims;
    Pick best;
    float block[kLinkGroupCols];
    for (std::size_t c0 = 0; c0 < nu; c0 += kLinkGroupCols) {
      const std::size_t w = std::min(kLinkGroupCols, nu - c0);
      l2_cell_block(a, pool.blocks.data() + c0 * dims, dims, block);
      for (std::size_t c = 0; c < w; ++c) {
        const auto id = static_cast<std::uint32_t>(c0 + c);
        if (block[c] > best.d || !live(id)) continue;
        const Pick cand{block[c], cols.members[next[id]], id};
        if (pick_less(cand, best)) best = cand;
      }
    }
    return best;
  };

  // ---- Pass 2: greedy selection (Algorithm 1 lines 5-17) over the
  // original rows. The dense loop's argmin over unassigned rows uses
  // each row's ORIGINAL full-row minimum (u is never refreshed on
  // collisions), so the processing order is static: ascending
  // (u, row), where u is the row's distinct list head.
  std::vector<std::pair<float, std::uint32_t>> order(m);
  for (std::size_t r = 0; r < m; ++r) {
    order[r] = {entries[rows.group_of[r] * k].d,
                static_cast<std::uint32_t>(r)};
  }
  std::sort(order.begin(), order.end());

  std::vector<std::uint32_t> cursor(mu, 0);
  result.candidate.assign(m, 0);
  std::size_t topk_hits = 0;
  std::size_t fallbacks = 0;

  for (const auto& step : order) {
    const std::uint32_t r = step.second;
    const std::uint32_t u = rows.group_of[r];
    const Entry* h = entries.data() + u * k;
    const std::uint32_t sz = heap_size[u];
    std::uint32_t pos = cursor[u];
    while (pos < sz && !live(h[pos].col)) ++pos;
    cursor[u] = pos;

    // The list's best live candidate: the lowest unused member among
    // the live groups tied at the first live distance.
    Pick pick;
    for (std::uint32_t i = pos; i < sz && h[i].d == h[pos].d; ++i) {
      if (!live(h[i].col)) continue;
      const Pick cand{h[i].d, cols.members[next[h[i].col]], h[i].col};
      if (pick_less(cand, pick)) pick = cand;
    }
    // It is the minimum over every unused column when no group outside
    // the list can beat it. Outside groups order at or after the list's
    // last entry under (distance, group id); group ids follow first
    // members, so an outside group tied at that distance has only
    // members above the last entry's first member. A list that holds
    // every group has no outside.
    const bool whole = sz < k || sz == nu;
    const bool decided =
        pos < sz &&
        (whole || !pick_less(Pick{h[sz - 1].d, cols.first(h[sz - 1].col)},
                             pick));
    if (decided) {
      ++topk_hits;
    } else {
      // List exhausted by earlier links, or it cannot rule out a tie
      // outside it: tracked full-row re-scan.
      ++fallbacks;
      pick = full_row_rescan(u);
    }
    result.candidate[r] = pick.member;
    result.total_distance += static_cast<double>(pick.d);
    ++next[pick.group];
  }

  // Pass 1 runs the exact kernel over every distinct cell.
  const std::uint64_t cells = static_cast<std::uint64_t>(mu) * nu;
  PATCHDB_COUNTER_ADD("distance.tiles", tiles);
  PATCHDB_COUNTER_ADD("distance.cells", cells);
  PATCHDB_COUNTER_ADD("distance.flops", cells * (3 * dims + 1));
  PATCHDB_COUNTER_ADD("nearest_link.topk_hits", topk_hits);
  PATCHDB_COUNTER_ADD("nearest_link.fallback_rescans", fallbacks);
  // Every fallback is one full-row scan: the dense path's meaning.
  PATCHDB_COUNTER_ADD("nearest_link.rescans", fallbacks);

  if (stats != nullptr) {
    stats->tiles = tiles;
    stats->exact_cells = cells;
    stats->topk_hits = topk_hits;
    stats->fallback_rescans = fallbacks;
    stats->distinct_rows = mu;
    stats->distinct_cols = nu;
    stats->threads = std::min(util::default_pool().size(), mu);
    // One heap per distinct seed with its size and greedy cursor. The
    // pack replaces the row-major scaled pool and, like the scaled
    // seeds, is input-sized.
    stats->working_set_bytes =
        mu * (k * sizeof(Entry) + 2 * sizeof(std::uint32_t));
  }
  return result;
}

LinkResult streaming_nearest_link(const feature::FeatureMatrix& security,
                                  const feature::FeatureMatrix& wild,
                                  StreamingLinkStats* stats) {
  return streaming_nearest_link(security, wild, maxabs_weights(security, wild),
                                stats);
}

}  // namespace patchdb::core
