#pragma once

// Split derivation at a tree node: the SS method, the SSE method (gini
// lower bounds -> alive intervals -> exact re-evaluation) and the direct
// method (full sort, every point evaluated) used for small in-memory nodes
// and as the quality baseline.
//
// All three consume a NodeStats built by collect_stats() in one sequential
// pass over the node's data; SSE makes one further pass to gather the
// points of alive intervals.

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "clouds/categorical.hpp"
#include "clouds/cost_hooks.hpp"
#include "clouds/intervals.hpp"
#include "clouds/split.hpp"
#include "data/record.hpp"
#include "io/scan.hpp"

namespace pdc::clouds {

/// Everything one pass over a node's data yields: interval class-frequency
/// histograms for every numeric attribute, count matrices for every
/// categorical attribute, and the node's class counts.
struct NodeStats {
  std::vector<IntervalHist> hists;  ///< size kNumNumeric
  std::vector<CountMatrix> cats;    ///< size kNumCategorical
  data::ClassCounts counts{};

  /// Zeroed stats with boundaries built from the node's sample.
  static NodeStats with_boundaries(std::span<const data::Record> sample,
                                   int q);

  /// One interval lookup per numeric attribute, for a pass that adds
  /// records to these stats: build them when the pass starts and drop them
  /// when it ends.
  std::vector<IntervalLookup> lookups() const {
    std::vector<IntervalLookup> out;
    out.reserve(hists.size());
    for (const auto& h : hists) out.emplace_back(h.bounds);
    return out;
  }

  /// Adds a block of records to every histogram and count matrix, one
  /// attribute at a time; `lookups` come from lookups().
  void add_block(std::span<const data::Record> block,
                 std::span<const IntervalLookup> lookups) {
    add_records<false>(block, {}, lookups);
  }

  /// Adds block[sel[0]], block[sel[1]], ...: one child's share of a block
  /// that a partition pass routes.
  void add_block(std::span<const data::Record> block,
                 std::span<const std::uint32_t> sel,
                 std::span<const IntervalLookup> lookups) {
    add_records<true>(block, sel, lookups);
  }

 private:
  template <bool kSelected>
  void add_records(std::span<const data::Record> block,
                   std::span<const std::uint32_t> sel,
                   std::span<const IntervalLookup> lookups) {
    const std::size_t n = kSelected ? sel.size() : block.size();
    const auto at = [&](std::size_t i) -> const data::Record& {
      return kSelected ? block[sel[i]] : block[i];
    };
    for (std::size_t a = 0; a < hists.size(); ++a) {
      auto* freq = hists[a].freq.data();
      lookups[a].for_each(
          n, [&](std::size_t i) { return at(i).num[a]; },
          [&](std::size_t i, std::size_t j) {
            ++freq[j][static_cast<std::size_t>(at(i).label)];
          });
    }
    for (auto& m : cats) {
      for (std::size_t i = 0; i < n; ++i) m.add(at(i));
    }
    for (std::size_t i = 0; i < n; ++i) {
      ++counts[static_cast<std::size_t>(at(i).label)];
    }
  }
};

/// A node's records, in memory or streamed from the rank's disk.
using RecordScan = io::RecordScan<data::Record>;

/// One pass of `scan` adding every record to `stats` (whose boundaries
/// must already be set), charged per record, a block at a time.
void accumulate_stats(const RecordScan& scan, NodeStats& stats,
                      const CostHooks& hooks);

/// accumulate_stats inside a "histogram-build" span.  This is the paper's
/// "evaluation of interval boundaries" data scan.
void collect_stats(const RecordScan& scan, NodeStats& stats,
                   const CostHooks& hooks);

/// Best split among the interval boundaries of one numeric attribute.
SplitCandidate evaluate_boundaries(const IntervalHist& hist, int attr,
                                   const CostHooks& hooks);

/// Best split among all boundary points and all categorical splits — the
/// full SS method decision given collected stats (gini_min in the paper).
SplitCandidate ss_split(const NodeStats& stats, const CostHooks& hooks);

/// An interval whose gini lower bound beats gini_min, queued for exact
/// re-evaluation.
struct AliveInterval {
  int attr = 0;
  std::size_t interval = 0;
  float lo = 0.0f;               ///< exclusive; -inf encoded by lowest float
  float hi = 0.0f;               ///< inclusive; +inf encoded by highest float
  bool unbounded_lo = false;
  bool unbounded_hi = false;
  data::ClassCounts before{};    ///< counts strictly left of the interval
  data::ClassCounts inside{};
  data::ClassCounts after{};
  double gini_est = 0.0;

  bool contains(float v) const {
    const bool above = unbounded_lo | (v > lo);
    const bool below = unbounded_hi | (v <= hi);
    return above & below;
  }
};

/// Lookup of the alive intervals the records of a block fall in.  The alive
/// list must be sorted by (attr, interval) — find_alive_intervals and the
/// parallel share step both produce it so — which makes one attribute's
/// intervals disjoint with strictly ascending upper edges.  A record then
/// hits at most one interval per attribute: the first whose upper edge is
/// not below the value, confirmed with AliveInterval::contains.
class AliveIndex {
 public:
  explicit AliveIndex(std::span<const AliveInterval> alive) : alive_(alive) {
    hi_.reserve(alive.size());
    for (std::size_t k = 0; k < alive.size(); ++k) {
      const auto& iv = alive[k];
      if (attrs_.empty() || attrs_.back().attr != iv.attr) {
        attrs_.push_back({iv.attr, k, k});
      }
      ++attrs_.back().end;
      // The unbounded upper edge is +inf as a search key so that +inf
      // itself finds the last interval (contains() ignores hi there).
      hi_.push_back(iv.unbounded_hi ? std::numeric_limits<float>::infinity()
                                    : iv.hi);
    }
  }

  /// Calls f(i, k, v) for every record block[i] and alive interval k that
  /// contains the record's value v of k's attribute.  It runs one attribute
  /// at a time across the block, so the search's trip count is fixed for
  /// the whole run; each interval therefore sees its points in record
  /// order, and each record its hits in ascending k.
  ///
  /// Each run first lists a chunk's hits without a data-dependent branch
  /// (a value above every upper edge probes the attribute's last interval,
  /// which then rejects it), then visits them.
  template <typename F>
  void for_each_block(std::span<const data::Record> block, F&& f) const {
    constexpr std::size_t kChunk = 256;
    std::array<std::uint32_t, kChunk> hit_i;
    std::array<std::uint32_t, kChunk> hit_k;
    for (const auto& a : attrs_) {
      const float* hi = hi_.data() + a.begin;
      const std::size_t n = a.end - a.begin;
      const auto attr = static_cast<std::size_t>(a.attr);
      for (std::size_t c = 0; c < block.size(); c += kChunk) {
        const std::size_t end = std::min(block.size(), c + kChunk);
        std::size_t hits = 0;
        for (std::size_t i = c; i < end; ++i) {
          const float v = block[i].num[attr];
          const std::size_t k =
              a.begin + std::min(lower_bound_index(hi, n, v), n - 1);
          hit_i[hits] = static_cast<std::uint32_t>(i);
          hit_k[hits] = static_cast<std::uint32_t>(k);
          hits += alive_[k].contains(v) ? 1 : 0;
        }
        for (std::size_t h = 0; h < hits; ++h) {
          f(hit_i[h], hit_k[h], block[hit_i[h]].num[attr]);
        }
      }
    }
  }

 private:
  struct AttrRange {
    int attr;
    std::size_t begin;  ///< first alive index of the attribute
    std::size_t end;
  };
  std::span<const AliveInterval> alive_;
  std::vector<AttrRange> attrs_;  ///< attributes with an alive interval
  std::vector<float> hi_;         ///< upper-edge search keys, per alive index
};

/// Determine the alive intervals of every numeric attribute given the
/// current global minimum gini.
std::vector<AliveInterval> find_alive_intervals(const NodeStats& stats,
                                                double gini_min,
                                                const CostHooks& hooks);

/// Ratio of points inside alive intervals to the node size — the paper's
/// "survival ratio", the knob that drives SSE's second-pass I/O volume.
double survival_ratio(std::span<const AliveInterval> alive,
                      const data::ClassCounts& node_counts);

/// A (value, label) point harvested from an alive interval.
struct AlivePoint {
  float value;
  std::int8_t label;
};

/// Order-preserving sort key of a point value: unsigned order of keys is
/// the float order, refined so that -0 sorts just below +0 and every NaN
/// (either sign, any payload) shares the largest key, above +inf.
inline std::uint32_t alive_sort_key(float v) {
  if (std::isnan(v)) return std::numeric_limits<std::uint32_t>::max();
  const auto bits = std::bit_cast<std::uint32_t>(v);
  // Negative values flip every bit (larger magnitude sorts lower); the
  // rest flip only the sign bit so that they sort above all negatives.
  const auto neg = static_cast<std::uint32_t>(
      static_cast<std::int32_t>(bits) >> 31);
  return bits ^ (neg | 0x80000000u);
}

/// Buckets below this size are insertion-sorted instead of radix-sorted.
inline constexpr std::size_t kAliveSortSmall = 64;

/// Sorts `points` stably by alive_sort_key: a single-valued bucket is left
/// as it is, a small one is insertion-sorted, any other gets an LSD radix
/// sort over the key bytes that vary.  Returns the number of non-NaN
/// points, which form the sorted prefix (NaNs come last).
std::size_t sort_alive_points(std::vector<AlivePoint>& points);

/// Exact evaluation of one alive interval given its harvested points:
/// sorts them and computes gini at every distinct value.  NaN points are
/// never a threshold; they stay right of every split, as Split::goes_left
/// sends them.
SplitCandidate evaluate_alive_interval(const AliveInterval& iv,
                                       std::vector<AlivePoint> points,
                                       const CostHooks& hooks);

/// Diagnostics from an SSE split derivation.
struct SseDiag {
  double gini_boundary = 0.0;  ///< best gini among boundaries/categoricals
  double gini_final = 0.0;
  std::size_t alive_intervals = 0;
  double survival = 0.0;       ///< fraction of points requiring the 2nd pass
  std::uint64_t second_pass_points = 0;
};

/// The full sequential SSE method: boundary evaluation, aliveness, one
/// extra pass of `scan` to harvest alive points, exact re-evaluation.
SplitCandidate sse_split(const NodeStats& stats, const RecordScan& scan,
                         const CostHooks& hooks, SseDiag* diag = nullptr);

/// Direct method: sort every numeric attribute and evaluate gini at every
/// distinct point; categorical attributes from the count matrices.  Used
/// in-memory for small nodes and as the quality reference.  NaN values are
/// handled as in evaluate_alive_interval.
SplitCandidate direct_split(std::span<const data::Record> records,
                            const CostHooks& hooks);

}  // namespace pdc::clouds
