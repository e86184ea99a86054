#include "clouds/splitters.hpp"

#include <array>
#include <cmath>
#include <limits>
#include <utility>

#include "clouds/estimate.hpp"
#include "obs/mem_gauge.hpp"

namespace pdc::clouds {

NodeStats NodeStats::with_boundaries(std::span<const data::Record> sample,
                                     int q) {
  NodeStats stats;
  stats.hists = build_interval_hists(sample, q);
  stats.cats = make_count_matrices();
  return stats;
}

void collect_stats(const RecordScan& scan, NodeStats& stats,
                   const CostHooks& hooks) {
  auto sp = hooks.span("histogram-build", "clouds");
  // Per-record charging (not one bulk charge after the pass) so compute
  // accrues between block reaps — what the async pipeline hides I/O under.
  scan([&](const data::Record& r) {
    stats.add(r);
    hooks.charge_scan(static_cast<std::uint64_t>(data::kNumAttributes));
  });
  sp.set_n(scan.count());
}

SplitCandidate evaluate_boundaries(const IntervalHist& hist, int attr,
                                   const CostHooks& hooks) {
  SplitCandidate best;
  const auto prefix = hist.prefix_counts();
  const auto total = hist.total_counts();
  for (std::size_t j = 0; j < hist.bounds.size(); ++j) {
    const auto& left = prefix[j];
    const auto right = total - left;
    if (data::total(left) == 0 || data::total(right) == 0) continue;
    Split s;
    s.kind = Split::Kind::kNumeric;
    s.attr = static_cast<std::int8_t>(attr);
    s.threshold = hist.bounds[j];
    best.consider(split_gini(left, right), s);
  }
  hooks.charge_gini(hist.bounds.size());
  return best;
}

SplitCandidate ss_split(const NodeStats& stats, const CostHooks& hooks) {
  auto sp = hooks.span("gini-evaluation", "clouds");
  SplitCandidate best;
  for (int a = 0; a < data::kNumNumeric; ++a) {
    best.consider(
        evaluate_boundaries(stats.hists[static_cast<std::size_t>(a)], a,
                            hooks));
  }
  for (const auto& m : stats.cats) {
    best.consider(best_categorical_split(m));
    hooks.charge_gini(m.counts.size() * m.counts.size());
  }
  return best;
}

std::vector<AliveInterval> find_alive_intervals(const NodeStats& stats,
                                                double gini_min,
                                                const CostHooks& hooks) {
  std::vector<AliveInterval> alive;
  for (int a = 0; a < data::kNumNumeric; ++a) {
    const auto& hist = stats.hists[static_cast<std::size_t>(a)];
    const auto total = hist.total_counts();
    data::ClassCounts before{};
    for (std::size_t j = 0; j < hist.interval_count(); ++j) {
      const auto& inside = hist.freq[j];
      const auto after = total - before - inside;
      // Intervals with <= 1 point cannot contain a split strictly better
      // than its boundaries.
      if (data::total(inside) > 1) {
        const double est = gini_lower_bound(before, inside, after);
        if (est < gini_min) {
          AliveInterval iv;
          iv.attr = a;
          iv.interval = j;
          iv.unbounded_lo = (j == 0);
          iv.unbounded_hi = (j == hist.bounds.size());
          iv.lo = iv.unbounded_lo ? std::numeric_limits<float>::lowest()
                                  : hist.bounds[j - 1];
          iv.hi = iv.unbounded_hi ? std::numeric_limits<float>::max()
                                  : hist.bounds[j];
          iv.before = before;
          iv.inside = inside;
          iv.after = after;
          iv.gini_est = est;
          alive.push_back(iv);
        }
      }
      before += inside;
    }
    hooks.charge_gini(hist.interval_count() * (1u << data::kNumClasses));
  }
  return alive;
}

double survival_ratio(std::span<const AliveInterval> alive,
                      const data::ClassCounts& node_counts) {
  const double n = static_cast<double>(data::total(node_counts));
  if (n <= 0.0) return 0.0;
  double inside = 0.0;
  for (const auto& iv : alive) {
    inside += static_cast<double>(data::total(iv.inside));
  }
  return inside / n;
}

namespace {

bool single_key(std::span<const AlivePoint> points) {
  const std::uint32_t k = alive_sort_key(points.front().value);
  for (const auto& pt : points) {
    if (alive_sort_key(pt.value) != k) return false;
  }
  return true;
}

void insertion_sort(std::span<AlivePoint> points) {
  for (std::size_t i = 1; i < points.size(); ++i) {
    const AlivePoint pt = points[i];
    const std::uint32_t k = alive_sort_key(pt.value);
    std::size_t j = i;
    for (; j > 0 && alive_sort_key(points[j - 1].value) > k; --j) {
      points[j] = points[j - 1];
    }
    points[j] = pt;
  }
}

void radix_sort(std::vector<AlivePoint>& points) {
  constexpr int kDigits = 4;
  const std::size_t n = points.size();
  std::array<std::array<std::size_t, 256>, kDigits> counts{};
  for (const auto& pt : points) {
    const std::uint32_t k = alive_sort_key(pt.value);
    for (int d = 0; d < kDigits; ++d) ++counts[d][(k >> (8 * d)) & 0xFFu];
  }
  std::vector<AlivePoint> scratch(n);
  const std::uint32_t first = alive_sort_key(points.front().value);
  bool in_scratch = false;
  for (int d = 0; d < kDigits; ++d) {
    const unsigned shift = 8u * static_cast<unsigned>(d);
    auto& offsets = counts[d];
    if (offsets[(first >> shift) & 0xFFu] == n) continue;  // constant digit
    std::size_t sum = 0;
    for (auto& c : offsets) sum += std::exchange(c, sum);
    const auto& src = in_scratch ? scratch : points;
    auto& dst = in_scratch ? points : scratch;
    for (const auto& pt : src) {
      dst[offsets[(alive_sort_key(pt.value) >> shift) & 0xFFu]++] = pt;
    }
    in_scratch = !in_scratch;
  }
  if (in_scratch) points.swap(scratch);
}

}  // namespace

std::size_t sort_alive_points(std::vector<AlivePoint>& points) {
  if (points.empty()) return 0;
  if (!single_key(points)) {
    if (points.size() < kAliveSortSmall) {
      insertion_sort(points);
    } else {
      radix_sort(points);
    }
  }
  std::size_t m = points.size();
  while (m > 0 && std::isnan(points[m - 1].value)) --m;
  return m;
}

SplitCandidate evaluate_alive_interval(const AliveInterval& iv,
                                       std::vector<AlivePoint> points,
                                       const CostHooks& hooks) {
  SplitCandidate best;
  if (points.empty()) return best;
  const std::size_t m = sort_alive_points(points);
  hooks.charge_sort(points.size());

  const data::ClassCounts node_total = [&] {
    data::ClassCounts t = iv.before;
    t += iv.inside;
    t += iv.after;
    return t;
  }();

  data::ClassCounts left = iv.before;
  std::size_t i = 0;
  while (i < m) {
    const float v = points[i].value;
    while (i < points.size() && points[i].value == v) {
      ++left[static_cast<std::size_t>(points[i].label)];
      ++i;
    }
    const auto right = node_total - left;
    if (data::total(right) == 0) break;  // split at max value: useless
    Split s;
    s.kind = Split::Kind::kNumeric;
    s.attr = static_cast<std::int8_t>(iv.attr);
    s.threshold = v;
    best.consider(split_gini(left, right), s);
  }
  hooks.charge_gini(points.size());
  return best;
}

SplitCandidate sse_split(const NodeStats& stats, const RecordScan& scan,
                         const CostHooks& hooks, SseDiag* diag) {
  SplitCandidate best = ss_split(stats, hooks);
  const double gini_boundary = best.valid
                                   ? best.gini
                                   : std::numeric_limits<double>::infinity();
  auto alive = find_alive_intervals(stats, gini_boundary, hooks);

  std::uint64_t harvested = 0;
  if (!alive.empty()) {
    auto sp = hooks.span("alive-evaluation", "clouds", alive.size());
    // Second pass: harvest the points that fall inside alive intervals.
    obs::MemCharge harvest_mem(hooks.mem, 0);
    std::vector<std::vector<AlivePoint>> buckets(alive.size());
    for (std::size_t k = 0; k < alive.size(); ++k) {
      buckets[k].reserve(
          static_cast<std::size_t>(data::total(alive[k].inside)));
    }
    const AliveIndex index(alive);
    scan([&](const data::Record& r) {
      index.for_each(r, [&](std::size_t k, float v) {
        // pdc: incore(alive point harvest: survival-bounded, one bucket per interval, freed after evaluation)
        buckets[k].push_back({v, r.label});
        harvest_mem.add(sizeof(AlivePoint));
        ++harvested;
      });
      hooks.charge_scan(alive.size());
    });

    for (std::size_t k = 0; k < alive.size(); ++k) {
      best.consider(
          evaluate_alive_interval(alive[k], std::move(buckets[k]), hooks));
    }
  }

  if (diag) {
    diag->gini_boundary = gini_boundary;
    diag->gini_final = best.gini;
    diag->alive_intervals = alive.size();
    diag->survival = survival_ratio(alive, stats.counts);
    diag->second_pass_points = harvested;
  }
  return best;
}

SplitCandidate direct_split(std::span<const data::Record> records,
                            const CostHooks& hooks) {
  SplitCandidate best;
  if (records.empty()) return best;

  data::ClassCounts total{};
  for (const auto& r : records) {
    ++total[static_cast<std::size_t>(r.label)];
  }

  std::vector<AlivePoint> column(records.size());
  for (int a = 0; a < data::kNumNumeric; ++a) {
    for (std::size_t i = 0; i < records.size(); ++i) {
      column[i] = {records[i].num[static_cast<std::size_t>(a)],
                   records[i].label};
    }
    const std::size_t m = sort_alive_points(column);
    hooks.charge_sort(column.size());

    data::ClassCounts left{};
    std::size_t i = 0;
    while (i < m) {
      const float v = column[i].value;
      while (i < column.size() && column[i].value == v) {
        ++left[static_cast<std::size_t>(column[i].label)];
        ++i;
      }
      const auto right = total - left;
      if (data::total(right) == 0) break;  // all records left: useless
      Split s;
      s.kind = Split::Kind::kNumeric;
      s.attr = static_cast<std::int8_t>(a);
      s.threshold = v;
      best.consider(split_gini(left, right), s);
    }
    hooks.charge_gini(column.size());
  }

  auto cats = make_count_matrices();
  for (const auto& r : records) {
    for (auto& m : cats) m.add(r);
  }
  hooks.charge_scan(records.size() *
                    static_cast<std::uint64_t>(data::kNumCategorical));
  for (const auto& m : cats) {
    best.consider(best_categorical_split(m));
    hooks.charge_gini(m.counts.size() * m.counts.size());
  }
  return best;
}

}  // namespace pdc::clouds
