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

/// Norm of one scaled row, accumulated in double so the screening
/// bounds lose almost nothing to rounding.
double row_norm_s(const float* v, std::size_t dims) noexcept {
  double total = 0.0;
  for (std::size_t j = 0; j < dims; ++j) {
    const double x = v[j];
    total += x * x;
  }
  return std::sqrt(total);
}

/// Conservative relative margin for comparing a double-precision
/// squared bound against an exact float-kernel distance: the float
/// kernel's sequential accumulation is off by at most ~(dims+2) float
/// ulps relative, the double side by ~dims double ulps. 4x headroom.
double screening_margin(std::size_t dims) noexcept {
  return 4.0 * static_cast<double>(dims + 2) * 0x1p-24 + 1e-7;
}

/// Candidates cached per distinct seed row. A longer list absorbs more
/// collisions before a fallback re-scan; no length changes a result.
constexpr std::size_t kTopK = 24;

/// Pool blocks per pass-1 tile: 2,048 columns, whose 60-dim packed
/// floats fit in a typical L2 slice. Tiles are the unit of sharding.
constexpr std::size_t kTileBlocks = 32;

/// Private pass-1 tallies, one per shard, padded so neighboring shards
/// never share a cache line (the whole point is no contended writes).
struct alignas(64) ShardTally {
  std::uint64_t pruned = 0;
  std::uint64_t exact = 0;
  std::uint64_t tiles = 0;
};

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

/// The distinct pool as pass 1 and every re-scan read it: one pack, and
/// each block's range of column norms for the screen — block b's real
/// columns (padded lanes excluded) have norms in [lo[b], hi[b]].
struct Pool {
  PackedCorpus pack;
  std::vector<double> lo;
  std::vector<double> hi;
};

/// Scale the distinct pool, pack it and take each block's norm range
/// from the row-major rows, which are freed on return.
Pool pack_pool(const feature::FeatureMatrix& wild,
               std::span<const double> weights, const RowGroups& cols) {
  const std::vector<float> scaled = scale_groups(wild, weights, cols);
  const std::size_t dims = weights.size();
  const std::size_t nu = cols.size();
  const std::size_t blocks = (nu + kLinkGroupCols - 1) / kLinkGroupCols;
  Pool pool{pack_corpus(scaled, dims), std::vector<double>(blocks),
            std::vector<double>(blocks)};
  util::default_pool().parallel_for(blocks, [&](std::size_t begin, std::size_t end) {
    for (std::size_t b = begin; b < end; ++b) {
      const std::size_t c0 = b * kLinkGroupCols;
      const std::size_t c1 = std::min(c0 + kLinkGroupCols, nu);
      double mn = row_norm_s(scaled.data() + c0 * dims, dims);
      double mx = mn;
      for (std::size_t c = c0 + 1; c < c1; ++c) {
        const double norm = row_norm_s(scaled.data() + c * dims, dims);
        mn = std::min(mn, norm);
        mx = std::max(mx, norm);
      }
      pool.lo[b] = mn;
      pool.hi[b] = mx;
    }
  });
  return pool;
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
  // so pass 1, the merge and every re-scan run over distinct seeds (mu)
  // x distinct pool vectors (nu). Heap entries are indexed by group,
  // not by row or column; only the greedy below walks the original rows
  // and columns.
  const RowGroups rows = group_rows(security);
  const RowGroups cols = group_rows(wild);
  const std::size_t mu = rows.size();
  const std::size_t nu = cols.size();
  PATCHDB_COUNTER_ADD("nearest_link.distinct_rows", mu);
  PATCHDB_COUNTER_ADD("nearest_link.distinct_cols", nu);

  // k clamps to the distinct pool and the last tile ends with it; the
  // shards are the default pool's workers, at most one per tile.
  const std::size_t k = std::min(kTopK, nu);
  const std::size_t blocks = (nu + kLinkGroupCols - 1) / kLinkGroupCols;
  const std::size_t tiles_total = (blocks + kTileBlocks - 1) / kTileBlocks;
  const std::size_t shards = std::min(util::default_pool_threads(), tiles_total);

  // Same scale-then-cast as the dense kernel: identical float inputs.
  const std::vector<float> sec = scale_groups(security, weights, rows);
  const Pool pool = pack_pool(wild, weights, cols);

  std::vector<double> row_norm(mu);  // ||a||
  util::default_pool().parallel_for(mu, [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      row_norm[r] = row_norm_s(sec.data() + r * dims, dims);
    }
  });

  const double margin = screening_margin(dims);
  const double sqf = 1.0 - 2.0 * margin;  // factor on squared bounds

  // ---- Pass 1: worker-sharded tile stream over the pack. Shard s owns
  // the contiguous tile range [s*T/S, (s+1)*T/S) and fills private
  // per-row top-k heaps (flat: row r owns [r*(k+1), r*(k+1)+k)) plus
  // private tallies — no shared mutable state until the merge below.
  std::vector<std::vector<Entry>> shard_entries(shards);
  std::vector<std::vector<std::uint32_t>> shard_sizes(shards);
  std::vector<ShardTally> tally(shards);
  obs::Progress tile_progress("link.tiles", tiles_total);

  util::default_pool().parallel_for(shards, [&](std::size_t shard_begin,
                                                std::size_t shard_end) {
    for (std::size_t s = shard_begin; s < shard_end; ++s) {
      const std::size_t tile_lo = s * tiles_total / shards;
      const std::size_t tile_hi = (s + 1) * tiles_total / shards;
      std::vector<Entry>& entries = shard_entries[s];
      std::vector<std::uint32_t>& heap_size = shard_sizes[s];
      entries.resize(mu * (k + 1));
      heap_size.assign(mu, 0);

      float lane[kLinkGroupCols];
      std::uint64_t pruned = 0;
      std::uint64_t exact = 0;

      for (std::size_t t = tile_lo; t < tile_hi; ++t) {
        const std::size_t block_lo = t * kTileBlocks;
        const std::size_t block_hi = std::min(block_lo + kTileBlocks, blocks);
        for (std::size_t r = 0; r < mu; ++r) {
          const float* a = sec.data() + r * dims;
          const double na_s = row_norm[r];
          Entry* h = entries.data() + r * (k + 1);
          std::uint32_t sz = heap_size[r];
          for (std::size_t b = block_lo; b < block_hi; ++b) {
            const std::size_t c0 = b * kLinkGroupCols;
            const std::size_t gw = std::min(kLinkGroupCols, nu - c0);
            if (sz == k) {
              // Hoisted Cauchy-Schwarz screen, one decision per block:
              // ||a-b||^2 >= (||a|| - ||b||)^2, and the gap from ||a||
              // to the block's norm range lower-bounds every column's
              // gap. The significance guard keeps catastrophic
              // cancellation from producing an overconfident bound;
              // both conditions imply the per-column originals, so
              // nothing a serial per-cell screen would keep is lost.
              const double fsq = static_cast<double>(h[0].d) *
                                 static_cast<double>(h[0].d);
              const double bd = na_s < pool.lo[b] ? pool.lo[b] - na_s
                                : na_s > pool.hi[b] ? na_s - pool.hi[b]
                                                    : 0.0;
              if (bd > (na_s + pool.hi[b]) * 1e-9 && bd * bd * sqf > fsq) {
                pruned += gw;
                continue;
              }
            }
            // Exact blocked kernel over the whole block: lane i holds
            // the float squared distance with scalar-identical
            // accumulation (padded lanes compute garbage, never read).
            exact += gw;
            sq_cell_block(a, pool.pack.blocks.data() + c0 * dims, dims, lane);
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
        tile_progress.tick();
      }
      tally[s].pruned = pruned;
      tally[s].exact = exact;
      tally[s].tiles = tile_hi - tile_lo;
    }
  });

  // ---- Deterministic merge: per row, the k lexicographically smallest
  // of the shard top-k union. Columns are unique so (d, col) is a total
  // order — the merged list is the same for every shard count, and it
  // equals the serial top-k because an entry among the k global minima
  // is always inside its own shard's top-k.
  std::vector<Entry> entries(mu * (k + 1));
  std::vector<std::uint32_t> heap_size(mu, 0);
  util::default_pool().parallel_for(mu, [&](std::size_t begin, std::size_t end) {
    std::vector<Entry> scratch;
    scratch.reserve(shards * k);
    for (std::size_t r = begin; r < end; ++r) {
      scratch.clear();
      for (std::size_t s = 0; s < shards; ++s) {
        const Entry* h = shard_entries[s].data() + r * (k + 1);
        scratch.insert(scratch.end(), h, h + shard_sizes[s][r]);
      }
      std::sort(scratch.begin(), scratch.end(), lex_less);
      const std::size_t keep = std::min<std::size_t>(k, scratch.size());
      std::copy_n(scratch.begin(), keep, entries.begin() + r * (k + 1));
      heap_size[r] = static_cast<std::uint32_t>(keep);
    }
  });

  std::uint64_t pruned_total = 0;
  std::uint64_t exact_total = 0;
  std::uint64_t tiles = 0;
  for (const ShardTally& t : tally) {
    pruned_total += t.pruned;
    exact_total += t.exact;
    tiles += t.tiles;
  }

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
  // column) minimum over the unused columns. It runs through the
  // blocked SIMD kernel over pass 1's pack: l2_cell_block is per-lane
  // bit-identical to the scalar l2_cell, so every value compared is a
  // float the dense matrix also holds. Fixed block ranges scan in
  // parallel and merge under the same total order, so the parallel
  // re-scan is deterministic.
  auto full_row_rescan = [&](std::size_t r) {
    const float* a = sec.data() + r * dims;
    std::vector<Pick> range_best(shards);
    util::default_pool().parallel_for(
        shards, [&](std::size_t range_begin, std::size_t range_end) {
          for (std::size_t s = range_begin; s < range_end; ++s) {
            Pick best;
            const std::size_t b_lo = s * blocks / shards;
            const std::size_t b_hi = (s + 1) * blocks / shards;
            float block[kLinkGroupCols];
            for (std::size_t b = b_lo; b < b_hi; ++b) {
              const std::size_t c0 = b * kLinkGroupCols;
              const std::size_t w = std::min(kLinkGroupCols, nu - c0);
              l2_cell_block(a, pool.pack.blocks.data() + c0 * dims, dims, block);
              for (std::size_t c = 0; c < w; ++c) {
                const auto id = static_cast<std::uint32_t>(c0 + c);
                if (block[c] > best.d || !live(id)) continue;
                const Pick cand{block[c], cols.members[next[id]], id};
                if (pick_less(cand, best)) best = cand;
              }
            }
            range_best[s] = best;
          }
        });
    Pick out;
    for (const Pick& rb : range_best) {
      if (pick_less(rb, out)) out = rb;
    }
    return out;
  };

  // ---- Pass 2: greedy selection (Algorithm 1 lines 5-17) over the
  // original rows. The dense loop's argmin over unassigned rows uses
  // each row's ORIGINAL full-row minimum (u is never refreshed on
  // collisions), so the processing order is static: ascending
  // (u, row), where u is the row's distinct list head.
  std::vector<std::pair<float, std::uint32_t>> order(m);
  for (std::size_t r = 0; r < m; ++r) {
    order[r] = {entries[rows.group_of[r] * (k + 1)].d,
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
    const Entry* h = entries.data() + u * (k + 1);
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

  PATCHDB_COUNTER_ADD("distance.tiles", tiles);
  PATCHDB_COUNTER_ADD("distance.cells", exact_total);
  PATCHDB_COUNTER_ADD("distance.flops", exact_total * (3 * dims + 1));
  PATCHDB_COUNTER_ADD("nearest_link.topk_hits", topk_hits);
  PATCHDB_COUNTER_ADD("nearest_link.fallback_rescans", fallbacks);
  // Every fallback is one full-row scan: the dense path's meaning.
  PATCHDB_COUNTER_ADD("nearest_link.rescans", fallbacks);
  PATCHDB_COUNTER_ADD("nearest_link.streaming.pruned_cells", pruned_total);

  if (stats != nullptr) {
    stats->tiles = tiles;
    stats->pruned_cells = pruned_total;
    stats->exact_cells = exact_total;
    stats->topk_hits = topk_hits;
    stats->fallback_rescans = fallbacks;
    stats->distinct_rows = mu;
    stats->distinct_cols = nu;
    stats->threads = shards;
    // Shard-private and merged heaps with their sizes, cursors, row
    // norms and block norm ranges. The pack replaces the row-major
    // scaled pool and, like the scaled seeds, is input-sized.
    stats->working_set_bytes =
        (shards + 1) * mu * ((k + 1) * sizeof(Entry) + sizeof(std::uint32_t)) +
        mu * (sizeof(std::uint32_t) + sizeof(double)) +
        2 * blocks * sizeof(double);
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
