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
#include <span>
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

/// Equi-depth interior boundaries from sample values: at most q-1 ascending
/// distinct cut points; interval j covers (b[j-1], b[j]] with b[-1] = -inf
/// and b[q-1] = +inf.  Fewer boundaries are returned when the sample has
/// fewer distinct values.  NaN sample values are dropped first: they would
/// break the sort's strict weak ordering, and IntervalHist::interval_of puts
/// NaN in the last interval whatever the bounds are.
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
/// vector per interval.  There are bounds.size() + 1 intervals.
struct IntervalHist {
  std::vector<float> bounds;            ///< ascending interior boundaries
  std::vector<data::ClassCounts> freq;  ///< size bounds.size() + 1

  void reset_counts() {
    freq.assign(bounds.size() + 1, data::ClassCounts{});
  }

  std::size_t interval_count() const { return bounds.size() + 1; }

  /// Index of the interval containing `v`: first j with v <= bounds[j],
  /// else the last interval.  NaN also lands in the last interval, right of
  /// every boundary, as Split::goes_left (v <= threshold) routes it.
  std::size_t interval_of(float v) const {
    const std::size_t j = lower_bound_index(bounds.data(), bounds.size(), v);
    return std::isnan(v) ? bounds.size() : j;
  }

  void add(float v, std::int8_t label) {
    ++freq[interval_of(v)][static_cast<std::size_t>(label)];
  }

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
