#pragma once

// Interval machinery for the SS/SSE methods.
//
// CLOUDS divides the range of each numeric attribute into q intervals that
// contain approximately the same number of points, using a pre-drawn random
// sample set S.  Gini is then evaluated only at the q-1 interior interval
// boundaries (one pass over the data fills the per-interval class frequency
// vectors), instead of at every distinct attribute value.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "clouds/gini.hpp"
#include "data/record.hpp"

namespace pdc::clouds {

/// Branchless std::lower_bound over ascending `first[0, n)`: the index of the
/// first element not less than `v`, or n.  Every probe is the same `<` that
/// std::lower_bound applies, so the result is identical for every float
/// (NaN compares false everywhere and lands at 0, as it does there); the
/// halving loop has a fixed trip count per n and compiles to a conditional
/// move instead of a data-dependent branch.
inline std::size_t lower_bound_index(const float* first, std::size_t n,
                                     float v) {
  if (n == 0) return 0;
  std::size_t lo = 0;
  while (n > 1) {
    const std::size_t half = n / 2;
    lo = (first[lo + half - 1] < v) ? lo + half : lo;
    n -= half;
  }
  return lo + (first[lo] < v ? 1 : 0);
}

/// Exact interval lookup over one histogram's ascending boundaries.  A
/// statistics pass builds one per numeric attribute when it starts and
/// drops it when it ends.
///
/// A monotone map b(v) = (clamp(v, lo, hi) - lo) * scale sends every value
/// into one of 4(m+1) buckets, [lo, hi] being the m boundaries' finite range;
/// start[k] counts the boundaries in buckets below k, and the boundaries
/// are padded with R copies of +inf, R being the largest bucket
/// population.  Then
///
///   interval(v) = start[b(v)] + #{t < R : pad[start[b(v)] + t] < v}
///
/// is the number of boundaries below v -- std::lower_bound's index -- for
/// every non-NaN float: since b is monotone, a boundary in a lower bucket
/// is below v, one in a higher bucket is not, and the window holds the rest
/// (padding never counts).  NaN lands in the last interval, right of every
/// boundary, where Split::goes_left sends it.  A window wider than
/// kLinearWindow (a boundary cluster) is searched with lower_bound_index
/// instead of counted, so no layout is slower than a plain binary search.
class IntervalLookup {
 public:
  static constexpr std::uint32_t kLinearWindow = 16;

  explicit IntervalLookup(std::span<const float> bounds)
      : last_(static_cast<std::uint32_t>(bounds.size())) {
    const auto buckets = static_cast<std::uint32_t>(4 * (bounds.size() + 1));
    top_ = static_cast<float>(buckets - 1);
    float lo = std::numeric_limits<float>::infinity();
    float hi = -lo;
    for (const float b : bounds) {
      if (std::isfinite(b)) {
        lo = std::min(lo, b);
        hi = std::max(hi, b);
      }
    }
    // A single finite boundary, or a range so wide that hi - lo overflows
    // (scale 0), puts every value in bucket 0: still exact, just one window.
    if (lo < hi) {
      const float scale = static_cast<float>(buckets) / (hi - lo);
      if (std::isfinite(scale)) {
        lo_ = lo;
        hi_ = hi;
        scale_ = scale;
      }
    }
    start_.assign(buckets, 0);
    for (const float b : bounds) ++start_[bucket(b)];
    std::uint32_t sum = 0;
    for (auto& c : start_) {
      window_ = std::max(window_, c);
      sum += std::exchange(c, sum);
    }
    pad_.assign(bounds.begin(), bounds.end());
    pad_.resize(bounds.size() + window_,
                std::numeric_limits<float>::infinity());
  }

  /// R, the widest window a lookup examines.
  std::uint32_t window() const { return window_; }

  /// Calls f(i, j) for i = 0 .. n-1, in order, where j is the interval of
  /// value(i): the first j with value(i) <= bounds[j], else the last.  The
  /// window is fixed for the whole run, so the count loop's trip count is
  /// too and its branch predicts perfectly.
  template <class Value, class F>
  void for_each(std::size_t n, Value&& value, F&& f) const {
    if (window_ == 1) {
      for (std::size_t i = 0; i < n; ++i) f(i, counted<1>(value(i)));
    } else if (window_ <= kLinearWindow) {
      for (std::size_t i = 0; i < n; ++i) f(i, counted(value(i)));
    } else {
      for (std::size_t i = 0; i < n; ++i) f(i, searched(value(i)));
    }
  }

 private:
  /// Monotone in v, and branch-free: v is clamped to [lo, hi] first (NaN
  /// to lo), so the scaled offset is finite and non-negative.
  std::uint32_t bucket(float v) const {
    const float above = lo_ < v ? v : lo_;
    const float inside = above < hi_ ? above : hi_;
    const float x = (inside - lo_) * scale_;
    return static_cast<std::uint32_t>(x < top_ ? x : top_);
  }

  /// The count over the window; `kWindow` > 0 fixes its width at compile
  /// time (the common one-boundary-per-bucket layout).
  template <std::uint32_t kWindow = 0>
  std::size_t counted(float v) const {
    const std::uint32_t s = start_[bucket(v)];
    const float* w = pad_.data() + s;
    const std::uint32_t width = kWindow > 0 ? kWindow : window_;
    std::uint32_t j = s;
    for (std::uint32_t t = 0; t < width; ++t) j += w[t] < v ? 1u : 0u;
    return std::isnan(v) ? last_ : j;
  }

  std::size_t searched(float v) const {
    const std::uint32_t s = start_[bucket(v)];
    const std::size_t j = s + lower_bound_index(pad_.data() + s, window_, v);
    return std::isnan(v) ? last_ : j;
  }

  float lo_ = 0.0f;               ///< the finite boundaries' range
  float hi_ = 0.0f;
  float scale_ = 0.0f;
  float top_ = 0.0f;              ///< highest bucket index, as a float
  std::uint32_t window_ = 0;      ///< R: the largest bucket population
  std::uint32_t last_ = 0;        ///< NaN's interval: bounds.size()
  std::vector<std::uint32_t> start_;  ///< boundaries in lower buckets
  std::vector<float> pad_;        ///< bounds, then R copies of +inf
};

/// Equi-depth interior boundaries from sample values: at most q-1 ascending
/// distinct cut points; interval j covers (b[j-1], b[j]] with b[-1] = -inf
/// and b[q-1] = +inf.  Fewer boundaries are returned when the sample has
/// fewer distinct values.  NaN sample values are dropped first: they would
/// break the sort's strict weak ordering, and IntervalLookup puts NaN in the
/// last interval whatever the bounds are.
inline std::vector<float> equi_depth_boundaries(std::vector<float> sample,
                                                int q) {
  std::erase_if(sample, [](float v) { return std::isnan(v); });
  std::vector<float> bounds;
  if (q <= 1 || sample.empty()) return bounds;
  std::sort(sample.begin(), sample.end());
  bounds.reserve(static_cast<std::size_t>(q - 1));
  const auto n = sample.size();
  for (int j = 1; j < q; ++j) {
    // Upper edge of the j-th equi-depth bucket of the sample.
    const auto idx = std::min(n - 1, n * static_cast<std::size_t>(j) /
                                         static_cast<std::size_t>(q));
    const float b = sample[idx];
    if (bounds.empty() || b > bounds.back()) bounds.push_back(b);
  }
  // A boundary equal to the sample maximum would make the last interval
  // empty for the sample; it still works for unseen data, so keep it.
  return bounds;
}

/// Per-attribute interval histogram: boundaries plus one class frequency
/// vector per interval.  There are bounds.size() + 1 intervals; interval j
/// covers (bounds[j-1], bounds[j]], and IntervalLookup says which one a
/// value falls in.
struct IntervalHist {
  std::vector<float> bounds;            ///< ascending interior boundaries
  std::vector<data::ClassCounts> freq;  ///< size bounds.size() + 1

  void reset_counts() {
    freq.assign(bounds.size() + 1, data::ClassCounts{});
  }

  std::size_t interval_count() const { return bounds.size() + 1; }

  /// Class counts at or below boundary j (i.e. the left side of the split
  /// "value <= bounds[j]"), computed by prefix sum over intervals 0..j.
  /// The paper performs exactly this prefix-sum step before evaluating gini
  /// at the boundary points.
  std::vector<data::ClassCounts> prefix_counts() const {
    std::vector<data::ClassCounts> prefix(bounds.size());
    data::ClassCounts acc{};
    for (std::size_t j = 0; j < bounds.size(); ++j) {
      acc += freq[j];
      prefix[j] = acc;
    }
    return prefix;
  }

  data::ClassCounts total_counts() const {
    data::ClassCounts acc{};
    for (const auto& f : freq) acc += f;
    return acc;
  }
};

/// Builds interval histograms (zeroed counts) for all numeric attributes
/// from the node's sample records.
inline std::vector<IntervalHist> build_interval_hists(
    std::span<const data::Record> sample, int q) {
  std::vector<IntervalHist> hists(data::kNumNumeric);
  std::vector<float> values(sample.size());
  for (int a = 0; a < data::kNumNumeric; ++a) {
    for (std::size_t i = 0; i < sample.size(); ++i) {
      values[i] = sample[i].num[static_cast<std::size_t>(a)];
    }
    hists[static_cast<std::size_t>(a)].bounds =
        equi_depth_boundaries(values, q);
    hists[static_cast<std::size_t>(a)].reset_counts();
  }
  return hists;
}

}  // namespace pdc::clouds
