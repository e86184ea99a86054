// Tests for the CLOUDS split-derivation kernels: gini, intervals,
// categorical subset search, the gini lower bound (key SSE invariant), and
// the equivalence of SSE and the direct method.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <random>
#include <vector>

#include "clouds/categorical.hpp"
#include "clouds/estimate.hpp"
#include "clouds/gini.hpp"
#include "clouds/intervals.hpp"
#include "clouds/splitters.hpp"
#include "data/agrawal.hpp"
#include "mp/clock.hpp"
#include "mp/runtime.hpp"
#include "pclouds/alive.hpp"

namespace pdc::clouds {
namespace {

using data::ClassCounts;
using data::Record;

std::int64_t draw(std::mt19937& rng, int bound) {
  return static_cast<std::int64_t>(rng() % static_cast<unsigned>(bound));
}

TEST(Gini, PureSetIsZero) {
  EXPECT_DOUBLE_EQ(gini(ClassCounts{{{100, 0}}}), 0.0);
  EXPECT_DOUBLE_EQ(gini(ClassCounts{{{0, 7}}}), 0.0);
}

TEST(Gini, EvenSplitIsHalf) {
  EXPECT_DOUBLE_EQ(gini(ClassCounts{{{50, 50}}}), 0.5);
}

TEST(Gini, EmptySetIsZeroByConvention) {
  EXPECT_DOUBLE_EQ(gini(ClassCounts{}), 0.0);
}

TEST(Gini, BoundedByTheory) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    ClassCounts c{{{draw(rng, 1000), draw(rng, 1000)}}};
    const double g = gini(c);
    EXPECT_GE(g, 0.0);
    EXPECT_LE(g, 0.5 + 1e-12);  // 1 - 1/k for k = 2
  }
}

TEST(Gini, SplitGiniIsWeightedAverage) {
  const ClassCounts l{{{30, 10}}};
  const ClassCounts r{{{5, 55}}};
  const double expect = (40.0 / 100.0) * gini(l) + (60.0 / 100.0) * gini(r);
  EXPECT_DOUBLE_EQ(split_gini(l, r), expect);
}

TEST(Gini, PerfectSplitGivesZero) {
  EXPECT_DOUBLE_EQ(split_gini(ClassCounts{{{40, 0}}}, ClassCounts{{{0, 60}}}),
                   0.0);
}

TEST(Intervals, BoundariesSortedDistinctAndAtMostQMinus1) {
  std::mt19937 rng(3);
  std::vector<float> sample(1000);
  for (auto& v : sample) {
    v = static_cast<float>(rng() % 100);  // many duplicates
  }
  for (int q : {2, 5, 10, 50, 200}) {
    auto b = equi_depth_boundaries(sample, q);
    EXPECT_LE(static_cast<int>(b.size()), q - 1);
    EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
    EXPECT_TRUE(std::adjacent_find(b.begin(), b.end()) == b.end());
  }
}

TEST(Intervals, EquiDepthOnUniformSample) {
  std::vector<float> sample(10'000);
  std::mt19937 rng(11);
  std::uniform_real_distribution<float> u(0.0f, 1.0f);
  for (auto& v : sample) v = u(rng);
  const int q = 10;
  auto b = equi_depth_boundaries(sample, q);
  ASSERT_EQ(b.size(), 9u);
  // Boundaries should be near the deciles.
  for (std::size_t j = 0; j < b.size(); ++j) {
    EXPECT_NEAR(b[j], 0.1f * static_cast<float>(j + 1), 0.03f);
  }
}

TEST(Intervals, NanSampleValuesDoNotMoveTheBounds) {
  std::mt19937 rng(5);
  std::uniform_real_distribution<float> u(-50.0f, 50.0f);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> clean;
  std::vector<float> with_nans;
  for (int i = 0; i < 2000; ++i) {
    const float v = u(rng);
    clean.push_back(v);
    with_nans.push_back(v);
    if (i % 3 == 0) with_nans.push_back(nan);
  }
  with_nans.push_back(nan);
  for (int q : {2, 10, 200}) {
    EXPECT_EQ(equi_depth_boundaries(with_nans, q),
              equi_depth_boundaries(clean, q))
        << "q=" << q;
  }
  EXPECT_TRUE(equi_depth_boundaries({nan, nan}, 10).empty());
}

TEST(Intervals, DegenerateSamples) {
  EXPECT_TRUE(equi_depth_boundaries({}, 10).empty());
  EXPECT_TRUE(equi_depth_boundaries({1.0f, 1.0f, 1.0f}, 10).size() <= 1);
  EXPECT_TRUE(equi_depth_boundaries({1.0f, 2.0f}, 1).empty());
}

/// The intervals `lookup` gives `values`, through its block form.
std::vector<std::size_t> intervals_of(const IntervalLookup& lookup,
                                      std::span<const float> values) {
  std::vector<std::size_t> out(values.size());
  lookup.for_each(
      values.size(), [&](std::size_t i) { return values[i]; },
      [&](std::size_t i, std::size_t j) { out[i] = j; });
  return out;
}

TEST(Intervals, IntervalOfMatchesLinearScan) {
  // IntervalLookup must return exactly std::lower_bound's index for every
  // non-NaN float, across bound counts that exercise each halving depth,
  // and the last interval for NaN (right of every boundary, where
  // Split::goes_left sends it).  The linear reference is the first j with
  // v <= bounds[j], else the last interval.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  constexpr float kLowest = std::numeric_limits<float>::lowest();
  constexpr float kMax = std::numeric_limits<float>::max();

  std::vector<std::vector<float>> bound_sets;
  std::mt19937 rng(17);
  std::uniform_real_distribution<float> u(-1000.0f, 1000.0f);
  for (std::size_t n : {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63,
                        64, 65, 127, 128, 129, 255, 256, 257, 1023, 1024,
                        1025, 1100}) {
    std::vector<float> b;
    while (b.size() < n) b.push_back(u(rng));
    std::sort(b.begin(), b.end());
    b.erase(std::unique(b.begin(), b.end()), b.end());
    while (b.size() < n) b.push_back(std::nextafter(b.back(), kInf));
    bound_sets.push_back(b);
  }
  bound_sets.push_back({1.0f, 3.0f, 7.0f});
  bound_sets.push_back({kLowest, -1.0f, -0.0f, 1.0f, kMax});
  bound_sets.push_back({-kInf, 0.0f, kInf});
  bound_sets.push_back({-0.0f});
  bound_sets.push_back({0.0f});

  const std::vector<float> specials = {
      -kInf, kLowest, -1.0f, -0.0f, 0.0f,
      std::numeric_limits<float>::denorm_min(), 1.0f, kMax, kInf, kNaN,
      -kNaN};

  for (const auto& bounds : bound_sets) {
    IntervalHist h;
    h.bounds = bounds;
    h.reset_counts();
    ASSERT_EQ(h.interval_count(), bounds.size() + 1);
    const IntervalLookup lookup(h.bounds);
    auto linear = [&](float v) -> std::size_t {
      for (std::size_t j = 0; j < h.bounds.size(); ++j) {
        if (v <= h.bounds[j]) return j;
      }
      return h.bounds.size();
    };
    auto check = [&](float v) {
      const auto want =
          std::isnan(v)
              ? bounds.size()
              : static_cast<std::size_t>(
                    std::lower_bound(bounds.begin(), bounds.end(), v) -
                    bounds.begin());
      const auto got = intervals_of(lookup, std::span(&v, 1))[0];
      EXPECT_EQ(got, want) << "v=" << v << " n=" << bounds.size();
      EXPECT_EQ(got, linear(v)) << "v=" << v << " n=" << bounds.size();
    };
    for (float b : bounds) {
      check(b);
      check(std::nextafter(b, -kInf));
      check(std::nextafter(b, kInf));
    }
    for (float v : specials) check(v);
    for (float v : {-5.0f, 0.0f, 1.0f, 1.5f, 3.0f, 3.1f, 7.0f, 100.0f}) {
      check(v);
    }
  }
}

/// First j with v <= bounds[j], else bounds.size() (NaN included).
std::size_t linear_interval(std::span<const float> bounds, float v) {
  for (std::size_t j = 0; j < bounds.size(); ++j) {
    if (v <= bounds[j]) return j;
  }
  return bounds.size();
}

TEST(Intervals, BucketedLookupIsExactOnEveryFloatClass) {
  // The bucketed lookup against the linear-scan reference over every float
  // class and over boundary layouts that stress the bucket map: none, one,
  // infinite ends, a range whose width overflows (scale 0), and a cluster
  // that forces the lower_bound fallback.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kLowest = std::numeric_limits<float>::lowest();
  constexpr float kMax = std::numeric_limits<float>::max();
  constexpr float kDenorm = std::numeric_limits<float>::denorm_min();
  constexpr float kMinNormal = std::numeric_limits<float>::min();

  std::vector<float> cluster = {-1.0e30f};
  for (float v = 1.0f; cluster.size() < 200; v = std::nextafter(v, kInf)) {
    cluster.push_back(v);
  }
  cluster.push_back(1.0e30f);
  std::mt19937 rng(29);
  std::vector<float> sample(6000);
  std::uniform_real_distribution<float> salary(20000.0f, 150000.0f);
  for (auto& v : sample) v = salary(rng);
  const std::vector<std::vector<float>> bound_sets = {
      {},
      {1.5f},
      {-kInf, -1.0f, 0.0f, 2.0f, kInf},
      {-kInf},
      {kInf},
      {kLowest, kMax},
      {kLowest, -1.0f, kMax},
      {-kDenorm, -0.0f, kDenorm, kMinNormal},
      cluster,
      equi_depth_boundaries(sample, 600),
  };

  std::vector<float> specials = {
      0.0f, -0.0f, kInf, -kInf, kLowest, kMax, -kMax, kDenorm, -kDenorm,
      kMinNormal, -kMinNormal, kMinNormal / 2, 1.0f, -1.0f, 1.0e30f,
      -1.0e30f};
  for (const std::uint32_t payload : {0x400000u, 0x1u, 0x2a2a2au, 0x7fffffu}) {
    specials.push_back(std::bit_cast<float>(0x7f800000u | payload));
    specials.push_back(std::bit_cast<float>(0xff800000u | payload));
  }

  std::size_t probes = 0;
  for (const auto& bounds : bound_sets) {
    const IntervalLookup lookup(bounds);
    std::vector<float> values = specials;
    for (const float b : bounds) {
      values.push_back(b);
      values.push_back(std::nextafter(b, -kInf));
      values.push_back(std::nextafter(b, kInf));
    }
    std::uniform_int_distribution<std::uint32_t> bits;
    for (int i = 0; i < (1 << 17); ++i) {
      values.push_back(std::bit_cast<float>(bits(rng)));
    }
    const auto got = intervals_of(lookup, values);
    for (std::size_t i = 0; i < values.size(); ++i) {
      const float v = values[i];
      ASSERT_EQ(got[i], linear_interval(bounds, v))
          << "v=" << v << " bits=" << std::bit_cast<std::uint32_t>(v)
          << " n=" << bounds.size();
    }
    probes += values.size();
  }
  EXPECT_GE(probes, 1000000u);
  EXPECT_GT(IntervalLookup(cluster).window(), IntervalLookup::kLinearWindow);
}

TEST(Intervals, PrefixCountsAccumulate) {
  IntervalHist h;
  h.bounds = {10.0f, 20.0f};
  h.reset_counts();
  const std::vector<float> values = {5.0f, 10.0f, 15.0f, 25.0f};
  const std::vector<std::size_t> labels = {0, 1, 0, 1};
  const auto js = intervals_of(IntervalLookup(h.bounds), values);
  for (std::size_t i = 0; i < values.size(); ++i) ++h.freq[js[i]][labels[i]];
  auto prefix = h.prefix_counts();
  ASSERT_EQ(prefix.size(), 2u);
  EXPECT_EQ(prefix[0], (ClassCounts{{{1, 1}}}));  // <= 10
  EXPECT_EQ(prefix[1], (ClassCounts{{{2, 1}}}));  // <= 20
  EXPECT_EQ(h.total_counts(), (ClassCounts{{{2, 2}}}));
}

TEST(Categorical, CountMatrixAccumulatesAndFlattens) {
  CountMatrix m(data::kZipcode);
  Record r{};
  r.cat[data::kZipcode] = 3;
  r.label = 1;
  m.add(r);
  r.cat[data::kZipcode] = 3;
  r.label = 0;
  m.add(r);
  EXPECT_EQ(m.counts[3], (ClassCounts{{{1, 1}}}));
  auto flat = m.flatten();
  ASSERT_EQ(flat.size(), static_cast<std::size_t>(
                             data::kCatCardinality[data::kZipcode] *
                             data::kNumClasses));
  CountMatrix m2(data::kZipcode);
  m2.unflatten(flat);
  EXPECT_EQ(m2.counts[3], m.counts[3]);
}

TEST(Categorical, ExhaustiveFindsPerfectSubset) {
  // elevel in {0,2,4} -> class 0, {1,3} -> class 1: separable.
  CountMatrix m(data::kELevel);
  m.counts[0] = {{{10, 0}}};
  m.counts[1] = {{{0, 20}}};
  m.counts[2] = {{{5, 0}}};
  m.counts[3] = {{{0, 5}}};
  m.counts[4] = {{{9, 0}}};
  auto best = best_categorical_split(m);
  ASSERT_TRUE(best.valid);
  EXPECT_DOUBLE_EQ(best.gini, 0.0);
  // value 0 always on the left by construction.
  EXPECT_TRUE(best.split.subset & 1u);
  EXPECT_EQ(best.split.subset, 0b10101u);
}

TEST(Categorical, GreedyNeverBeatsExhaustiveButIsClose) {
  std::mt19937 rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    CountMatrix m(data::kELevel);  // cardinality 5: exhaustive is exact
    for (auto& c : m.counts) c = {{{draw(rng, 50), draw(rng, 50)}}};
    const auto exact = detail::exhaustive_subset(m);
    const auto greedy = detail::greedy_subset(m);
    if (exact.valid && greedy.valid) {
      EXPECT_GE(greedy.gini + 1e-12, exact.gini);
      EXPECT_LE(greedy.gini, exact.gini + 0.05);  // small card: near-exact
    }
  }
}

TEST(Categorical, DegenerateMatrixHasNoSplit) {
  CountMatrix m(data::kELevel);
  m.counts[2] = {{{10, 5}}};  // single populated value: nothing to split
  auto best = best_categorical_split(m);
  EXPECT_FALSE(best.valid);
}

// ---- gini lower bound: the SSE soundness property ----

double brute_force_min_gini(const ClassCounts& before,
                            const ClassCounts& inside,
                            const ClassCounts& after) {
  // Enumerate every integer apportionment of the interval counts.
  double best = split_gini(before, inside + after);
  for (std::int64_t t0 = 0; t0 <= inside[0]; ++t0) {
    for (std::int64_t t1 = 0; t1 <= inside[1]; ++t1) {
      ClassCounts l = before;
      l[0] += t0;
      l[1] += t1;
      ClassCounts r = after;
      r[0] += inside[0] - t0;
      r[1] += inside[1] - t1;
      best = std::min(best, split_gini(l, r));
    }
  }
  return best;
}

TEST(GiniLowerBound, NeverExceedsAnyDiscreteSplit) {
  std::mt19937 rng(23);
  for (int trial = 0; trial < 300; ++trial) {
    ClassCounts before{{{draw(rng, 30), draw(rng, 30)}}};
    ClassCounts inside{{{draw(rng, 12), draw(rng, 12)}}};
    ClassCounts after{{{draw(rng, 30), draw(rng, 30)}}};
    const double bound = gini_lower_bound(before, inside, after);
    const double brute = brute_force_min_gini(before, inside, after);
    EXPECT_LE(bound, brute + 1e-12)
        << "trial " << trial << " bound " << bound << " brute " << brute;
  }
}

TEST(GiniLowerBound, TightWhenIntervalEmpty) {
  const ClassCounts before{{{10, 3}}};
  const ClassCounts inside{};
  const ClassCounts after{{{2, 9}}};
  EXPECT_DOUBLE_EQ(gini_lower_bound(before, inside, after),
                   split_gini(before, after));
}

TEST(GiniLowerBound, ZeroWhenPerfectSeparationPossible) {
  // All class-0 points can go left, all class-1 right.
  const ClassCounts before{{{5, 0}}};
  const ClassCounts inside{{{7, 9}}};
  const ClassCounts after{{{0, 4}}};
  EXPECT_DOUBLE_EQ(gini_lower_bound(before, inside, after), 0.0);
}

// ---- SS / SSE / direct equivalences ----

std::vector<Record> random_records(std::size_t n, int function,
                                   std::uint64_t seed) {
  data::AgrawalGenerator gen(
      {.function = function, .seed = seed, .label_noise = 0.05});
  return gen.make_range(0, n);
}

TEST(Splitters, CollectStatsCountsEveryRecord) {
  auto records = random_records(2000, 2, 5);
  std::vector<Record> sample(records.begin(), records.begin() + 100);
  auto stats = NodeStats::with_boundaries(sample, 20);
  RecordScan src(records);
  CostHooks hooks;
  collect_stats(src, stats, hooks);
  EXPECT_EQ(data::total(stats.counts), 2000);
  for (int a = 0; a < data::kNumNumeric; ++a) {
    EXPECT_EQ(data::total(stats.hists[a].total_counts()), 2000);
  }
  for (const auto& m : stats.cats) {
    EXPECT_EQ(data::total(m.total()), 2000);
  }
}

TEST(Splitters, SsBestIsAmongBoundaryGinis) {
  auto records = random_records(3000, 2, 6);
  std::vector<Record> sample(records.begin(), records.begin() + 200);
  auto stats = NodeStats::with_boundaries(sample, 16);
  RecordScan src(records);
  CostHooks hooks;
  collect_stats(src, stats, hooks);
  auto best = ss_split(stats, hooks);
  ASSERT_TRUE(best.valid);
  EXPECT_GE(best.gini, 0.0);
  EXPECT_LE(best.gini, gini(stats.counts) + 1e-12);
}

class SseEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SseEquivalence, SseMatchesDirectOptimum) {
  // Because gini_lower_bound is a true lower bound, SSE must find a split
  // with exactly the direct method's optimal gini, for ANY interval layout.
  auto [function, q, n] = GetParam();
  auto records =
      random_records(static_cast<std::size_t>(n), function,
                     static_cast<std::uint64_t>(function * 100 + q));
  std::vector<Record> sample;
  for (std::size_t i = 0; i < records.size(); i += 10) {
    sample.push_back(records[i]);
  }
  auto stats = NodeStats::with_boundaries(sample, q);
  RecordScan src(records);
  CostHooks hooks;
  collect_stats(src, stats, hooks);
  SseDiag diag;
  auto sse = sse_split(stats, src, hooks, &diag);
  auto direct = direct_split(records, hooks);
  ASSERT_TRUE(sse.valid);
  ASSERT_TRUE(direct.valid);
  EXPECT_NEAR(sse.gini, direct.gini, 1e-9)
      << "q=" << q << " n=" << n << " f=" << function;
  EXPECT_LE(diag.gini_final, diag.gini_boundary + 1e-12);
  EXPECT_GE(diag.survival, 0.0);
  EXPECT_LE(diag.survival, 1.0 * data::kNumNumeric);  // per-attr overlap
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SseEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 6),
                       ::testing::Values(4, 16, 64),
                       ::testing::Values(500, 3000)));

TEST(Splitters, LargerQShrinksSurvival) {
  auto records = random_records(5000, 2, 9);
  std::vector<Record> sample;
  for (std::size_t i = 0; i < records.size(); i += 5) {
    sample.push_back(records[i]);
  }
  CostHooks hooks;
  double survival_small_q = 0.0;
  double survival_large_q = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    const int q = pass == 0 ? 8 : 128;
    auto stats = NodeStats::with_boundaries(sample, q);
    RecordScan src(records);
    collect_stats(src, stats, hooks);
    SseDiag diag;
    (void)sse_split(stats, src, hooks, &diag);
    (pass == 0 ? survival_small_q : survival_large_q) = diag.survival;
  }
  EXPECT_LE(survival_large_q, survival_small_q + 1e-9);
}

TEST(Splitters, DirectOnSeparableDataIsPerfect) {
  // Label = (age <= 50): one threshold separates perfectly.
  std::vector<Record> records;
  std::mt19937 rng(31);
  for (int i = 0; i < 500; ++i) {
    Record r{};
    r.num[data::kAge] = static_cast<float>(rng() % 80);
    r.label = r.num[data::kAge] <= 50.0f ? 0 : 1;
    records.push_back(r);
  }
  CostHooks hooks;
  auto best = direct_split(records, hooks);
  ASSERT_TRUE(best.valid);
  EXPECT_NEAR(best.gini, 0.0, 1e-12);
  EXPECT_EQ(best.split.kind, Split::Kind::kNumeric);
  EXPECT_EQ(static_cast<int>(best.split.attr), data::kAge);
}

TEST(Splitters, EmptyDataYieldsNoSplit) {
  CostHooks hooks;
  EXPECT_FALSE(direct_split({}, hooks).valid);
}

TEST(Splitters, SingleClassDataYieldsNoUsefulGain) {
  std::vector<Record> records;
  for (int i = 0; i < 100; ++i) {
    Record r{};
    r.num[data::kAge] = static_cast<float>(i);
    r.label = 0;
    records.push_back(r);
  }
  CostHooks hooks;
  auto best = direct_split(records, hooks);
  // A split may exist but cannot improve gini below 0 (already pure).
  if (best.valid) {
    EXPECT_DOUBLE_EQ(best.gini, 0.0);
  }
}

/// One (alive index, value bits) hit; bits so that NaN compares equal.
using Hit = std::pair<std::size_t, std::uint32_t>;

/// The hits of `r`, found by testing every alive interval.
std::vector<Hit> brute_force_hits(std::span<const AliveInterval> alive,
                                  const Record& r) {
  std::vector<Hit> hits;
  for (std::size_t k = 0; k < alive.size(); ++k) {
    const float v = r.num[static_cast<std::size_t>(alive[k].attr)];
    if (alive[k].contains(v)) {
      hits.emplace_back(k, std::bit_cast<std::uint32_t>(v));
    }
  }
  return hits;
}

void expect_index_matches_brute_force(std::span<const AliveInterval> alive,
                                      std::span<const Record> records) {
  const AliveIndex index(alive);
  std::vector<std::vector<Hit>> got(records.size());
  index.for_each_block(records, [&](std::size_t i, std::size_t k, float v) {
    got[i].emplace_back(k, std::bit_cast<std::uint32_t>(v));
  });
  for (std::size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(got[i], brute_force_hits(alive, records[i]))
        << "alive=" << alive.size() << " salary=" << records[i].num[0];
  }
}

TEST(Splitters, AliveIndexMatchesContainsScanOnFoundIntervals) {
  CostHooks hooks;
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    for (int q : {2, 7, 33, 200}) {
      const int function = 1 + static_cast<int>(seed % 7);
      auto records = random_records(3000, function, seed);
      std::vector<Record> sample;
      for (std::size_t i = 0; i < records.size(); i += 7) {
        sample.push_back(records[i]);
      }
      auto stats = NodeStats::with_boundaries(sample, q);
      RecordScan src(records);
      collect_stats(src, stats, hooks);
      const auto best = ss_split(stats, hooks);
      // Thresholds from "nothing alive" through the real SSE one to "every
      // interval with two or more points alive".
      const double sse_min = best.valid ? best.gini : 0.5;
      const double inf = std::numeric_limits<double>::infinity();
      for (double gini_min : {0.0, sse_min, 0.5, inf}) {
        const auto alive = find_alive_intervals(stats, gini_min, hooks);
        expect_index_matches_brute_force(alive, records);
        expect_index_matches_brute_force(alive, sample);
      }
    }
  }
}

/// A hand-built alive interval (lo, hi]; an unbounded side takes the
/// encoding find_alive_intervals gives it.
AliveInterval make_alive(int attr, std::size_t interval, float lo, float hi,
                         bool unbounded_lo = false,
                         bool unbounded_hi = false) {
  AliveInterval iv;
  iv.attr = attr;
  iv.interval = interval;
  iv.unbounded_lo = unbounded_lo;
  iv.unbounded_hi = unbounded_hi;
  iv.lo = unbounded_lo ? std::numeric_limits<float>::lowest() : lo;
  iv.hi = unbounded_hi ? std::numeric_limits<float>::max() : hi;
  return iv;
}

TEST(Splitters, AliveIndexMatchesContainsScanOnEdgeCases) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kLowest = std::numeric_limits<float>::lowest();
  constexpr float kMax = std::numeric_limits<float>::max();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

  // Probe values: every edge used below, one ULP either side, specials.
  std::vector<float> probes = {-kInf, kLowest, -0.0f, 0.0f, kMax, kInf, kNaN};
  for (float e : {-3.0f, 0.0f, 1.0f, 3.0f, 7.0f, 9.0f}) {
    probes.push_back(e);
    probes.push_back(std::nextafter(e, -kInf));
    probes.push_back(std::nextafter(e, kInf));
  }
  std::vector<Record> records;
  for (float v : probes) {
    Record r{};
    r.num.fill(v);
    records.push_back(r);
  }
  std::mt19937 rng(5);
  for (int i = 0; i < 500; ++i) {
    Record r{};
    for (auto& v : r.num) v = probes[rng() % probes.size()];
    records.push_back(r);
  }

  std::vector<std::vector<AliveInterval>> lists(5);
  // lists[0] stays empty.  lists[1]: one attribute with a single, fully
  // unbounded interval (it alone contains NaN).
  lists[1].push_back(make_alive(2, 0, 0.0f, 0.0f, true, true));
  // lists[2]: adjacent intervals sharing their edges, the first and last
  // unbounded; attributes 0, 2, 4 and 5 have no alive interval.
  lists[2].push_back(make_alive(1, 0, 0.0f, -3.0f, true, false));
  lists[2].push_back(make_alive(1, 1, -3.0f, 0.0f));
  lists[2].push_back(make_alive(1, 2, 0.0f, 1.0f));
  lists[2].push_back(make_alive(1, 3, 1.0f, 0.0f, false, true));
  lists[2].push_back(make_alive(3, 1, 1.0f, 3.0f));
  // lists[3]: gaps between alive intervals, on several attributes.
  lists[3].push_back(make_alive(0, 0, 0.0f, -3.0f, true, false));
  lists[3].push_back(make_alive(0, 2, 0.0f, 1.0f));
  lists[3].push_back(make_alive(0, 5, 7.0f, 9.0f));
  lists[3].push_back(make_alive(3, 0, 0.0f, 1.0f, true, false));
  lists[3].push_back(make_alive(3, 4, 9.0f, 0.0f, false, true));
  lists[3].push_back(make_alive(5, 1, -0.0f, 3.0f));
  lists[3].push_back(make_alive(5, 2, 3.0f, 7.0f));
  // lists[4]: finite edges at the float extremes and at -0.0/+0.0.
  lists[4].push_back(make_alive(4, 1, kLowest, -0.0f));
  lists[4].push_back(make_alive(4, 2, 0.0f, kMax));
  lists[4].push_back(make_alive(4, 3, kMax, 0.0f, false, true));
  for (const auto& alive : lists) {
    expect_index_matches_brute_force(alive, records);
  }
}

TEST(Splitters, CostHooksAdvanceClock) {
  mp::Clock clock;
  CostHooks hooks{&clock, mp::Machine{}};
  auto records = random_records(1000, 2, 13);
  std::vector<Record> sample(records.begin(), records.begin() + 50);
  auto stats = NodeStats::with_boundaries(sample, 10);
  RecordScan src(records);
  collect_stats(src, stats, hooks);
  EXPECT_GT(clock.snapshot().compute_s, 0.0);
  const double after_collect = clock.snapshot().compute_s;
  (void)sse_split(stats, src, hooks);
  EXPECT_GT(clock.snapshot().compute_s, after_collect);
}

// ---- Alive-point sort kernel and exact interval evaluation ----

using Points = std::vector<AlivePoint>;

std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

/// Random points whose values are drawn from `pool`, labels from {0, 1}.
Points draw_points(std::mt19937& rng, std::span<const float> pool,
                   std::size_t n) {
  Points pts(n);
  for (auto& pt : pts) {
    pt = {pool[rng() % pool.size()], static_cast<std::int8_t>(rng() % 2)};
  }
  return pts;
}

/// Random points whose value bits are `base` with the bits of `vary`
/// randomized: keeps whole key bytes constant to exercise digit skipping.
Points draw_bit_points(std::mt19937& rng, std::uint32_t base,
                       std::uint32_t vary, std::size_t n) {
  Points pts(n);
  for (auto& pt : pts) {
    float v = std::bit_cast<float>((base & ~vary) |
                                   (static_cast<std::uint32_t>(rng()) & vary));
    if (std::isnan(v)) v = 1.0f;
    pt = {v, static_cast<std::int8_t>(rng() % 2)};
  }
  return pts;
}

/// Sorts with the kernel and checks it against std::sort's value order and
/// against std::stable_sort by key (which pins stability, -0 before +0).
void expect_sort_matches_reference(const Points& input) {
  Points got = input;
  const std::size_t m = sort_alive_points(got);
  ASSERT_EQ(got.size(), input.size());
  EXPECT_EQ(m, input.size());

  Points by_value = input;
  std::sort(by_value.begin(), by_value.end(),
            [](const AlivePoint& a, const AlivePoint& b) {
              return a.value < b.value;
            });
  Points stable = input;
  std::stable_sort(stable.begin(), stable.end(),
                   [](const AlivePoint& a, const AlivePoint& b) {
                     return alive_sort_key(a.value) < alive_sort_key(b.value);
                   });
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].value, by_value[i].value) << "n=" << got.size()
                                               << " i=" << i;
    ASSERT_EQ(bits(got[i].value), bits(stable[i].value)) << "i=" << i;
    ASSERT_EQ(got[i].label, stable[i].label) << "unstable at i=" << i;
  }
}

TEST(AliveSort, KeyIsTheFloatOrderWithSignedZeroAndNanLast) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kDenorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> ascending = {
      -kInf, std::numeric_limits<float>::lowest(), -1.5f, -1.0f,
      -std::numeric_limits<float>::min(), -kDenorm, -0.0f, 0.0f, kDenorm,
      std::numeric_limits<float>::min(), 1.0f, 1.5f,
      std::numeric_limits<float>::max(), kInf};
  for (std::size_t i = 1; i < ascending.size(); ++i) {
    EXPECT_LT(alive_sort_key(ascending[i - 1]), alive_sort_key(ascending[i]))
        << ascending[i - 1] << " vs " << ascending[i];
  }
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(alive_sort_key(nan), alive_sort_key(-nan));
  EXPECT_GT(alive_sort_key(-nan), alive_sort_key(kInf));
}

TEST(AliveSort, MatchesStdSortOnRandomMultisets) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kDenorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> specials = {
      -kInf, kInf, -0.0f, 0.0f, kDenorm, -kDenorm, 3 * kDenorm,
      std::numeric_limits<float>::lowest(), std::numeric_limits<float>::max(),
      std::numeric_limits<float>::min(), -1.0f, 1.0f, 20000.0f, 150000.0f};
  std::mt19937 rng(42);
  std::vector<std::size_t> sizes = {0, 1, 2, 3, 17, 200, 1000, 5000};
  for (std::size_t d = kAliveSortSmall - 2; d <= kAliveSortSmall + 2; ++d) {
    sizes.push_back(d);
  }
  for (std::size_t n : sizes) {
    std::vector<float> wide(specials);
    for (int i = 0; i < 40; ++i) {
      wide.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(rng())));
      if (std::isnan(wide.back())) wide.back() = 2.0f;
    }
    expect_sort_matches_reference(draw_points(rng, specials, n));
    expect_sort_matches_reference(draw_points(rng, wide, n));
    // Few distinct values: long runs of duplicates.
    const std::vector<float> few = {-0.0f, 0.0f, 7.0f};
    expect_sort_matches_reference(draw_points(rng, few, n));
    // One value: the single-value check skips the sort.
    const std::vector<float> one = {12.5f};
    expect_sort_matches_reference(draw_points(rng, one, n));
    // Constant key bytes: only the low byte, only the top byte, only the
    // middle bytes, or a narrow band of one exponent vary.
    expect_sort_matches_reference(draw_bit_points(rng, 0x47000000u, 0xFFu, n));
    expect_sort_matches_reference(
        draw_bit_points(rng, 0x00123456u, 0xFF000000u, n));
    expect_sort_matches_reference(
        draw_bit_points(rng, 0x45000000u, 0x00FFFF00u, n));
    expect_sort_matches_reference(
        draw_bit_points(rng, 0xC7000000u, 0x007FFFFFu, n));
  }
}

TEST(AliveSort, NanPointsFormTheTailAndAreNotCounted) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::mt19937 rng(9);
  const std::vector<float> pool = {nan, -nan, -2.0f, 0.0f, 3.0f, 4.0f};
  for (std::size_t n : {std::size_t{1}, std::size_t{8}, kAliveSortSmall,
                        std::size_t{500}}) {
    Points pts = draw_points(rng, pool, n);
    const auto nans = static_cast<std::size_t>(std::count_if(
        pts.begin(), pts.end(),
        [](const AlivePoint& pt) { return std::isnan(pt.value); }));
    const std::size_t m = sort_alive_points(pts);
    ASSERT_EQ(m, n - nans);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::isnan(pts[i].value), i >= m) << "i=" << i;
      if (i > 0 && i < m) {
        EXPECT_LE(pts[i - 1].value, pts[i].value);
      }
    }
  }
}

/// Reference evaluation: the same group loop after a comparison std::sort.
SplitCandidate reference_evaluate(const AliveInterval& iv, Points points,
                                  const CostHooks& hooks) {
  SplitCandidate best;
  if (points.empty()) return best;
  std::sort(points.begin(), points.end(),
            [](const AlivePoint& a, const AlivePoint& b) {
              return a.value < b.value;
            });
  hooks.charge_sort(points.size());
  data::ClassCounts node_total = iv.before;
  node_total += iv.inside;
  node_total += iv.after;
  data::ClassCounts left = iv.before;
  std::size_t i = 0;
  while (i < points.size()) {
    const float v = points[i].value;
    while (i < points.size() && points[i].value == v) {
      ++left[static_cast<std::size_t>(points[i].label)];
      ++i;
    }
    const auto right = node_total - left;
    if (data::total(right) == 0) break;
    Split s;
    s.kind = Split::Kind::kNumeric;
    s.attr = static_cast<std::int8_t>(iv.attr);
    s.threshold = v;
    best.consider(split_gini(left, right), s);
  }
  hooks.charge_gini(points.size());
  return best;
}

/// An alive interval holding exactly `points`, with random outside counts.
AliveInterval interval_for(std::mt19937& rng, const Points& points) {
  AliveInterval iv;
  iv.attr = static_cast<int>(rng() % data::kNumNumeric);
  for (const auto& pt : points) {
    ++iv.inside[static_cast<std::size_t>(pt.label)];
  }
  for (std::size_t c = 0; c < iv.before.v.size(); ++c) {
    iv.before[c] = draw(rng, 50);
    iv.after[c] = rng() % 3 == 0 ? 0 : draw(rng, 50);
  }
  return iv;
}

void expect_same_candidate(const SplitCandidate& got,
                           const SplitCandidate& want) {
  ASSERT_EQ(got.valid, want.valid);
  if (!want.valid) return;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.gini),
            std::bit_cast<std::uint64_t>(want.gini));
  EXPECT_EQ(got.split, want.split);
  EXPECT_EQ(bits(got.split.threshold), bits(want.split.threshold));
}

TEST(Splitters, EvaluateAliveIntervalMatchesStdSortReference) {
  std::mt19937 rng(77);
  for (int trial = 0; trial < 1200; ++trial) {
    // Value pools from very coarse (one value) to nearly distinct; -0.0 is
    // left out because std::sort's pick between equal +-0 is unspecified.
    std::vector<float> pool;
    const int distinct = 1 + static_cast<int>(draw(rng, trial % 2 ? 8 : 400));
    for (int i = 0; i < distinct; ++i) {
      pool.push_back(static_cast<float>(draw(rng, 2000)) * 0.25f - 100.0f);
    }
    pool.push_back(0.0f);
    const std::size_t n = 1 + static_cast<std::size_t>(draw(rng, 300));
    const Points pts = draw_points(rng, pool, n);
    const AliveInterval iv = interval_for(rng, pts);

    mp::Clock got_clock;
    mp::Clock want_clock;
    const auto got =
        evaluate_alive_interval(iv, pts, CostHooks{&got_clock, mp::Machine{}});
    const auto want =
        reference_evaluate(iv, pts, CostHooks{&want_clock, mp::Machine{}});
    expect_same_candidate(got, want);
    EXPECT_EQ(got_clock.snapshot().compute_s, want_clock.snapshot().compute_s);
  }
}

TEST(Splitters, SignedZeroThresholdIsPermutationInvariant) {
  // The best split is at zero; its group holds both -0 and +0.
  Points pts = {{-0.0f, 0}, {0.0f, 0}, {-0.0f, 0}, {0.0f, 0},
                {-1.0f, 0}, {1.0f, 1}, {2.0f, 1}};
  AliveInterval iv;
  for (const auto& pt : pts) ++iv.inside[static_cast<std::size_t>(pt.label)];
  std::vector<Record> records(pts.size());
  std::vector<std::size_t> order(pts.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  CostHooks hooks;
  int perms = 0;
  do {
    Points permuted;
    for (std::size_t i = 0; i < order.size(); ++i) {
      permuted.push_back(pts[order[i]]);
      records[i] = Record{};
      records[i].num[0] = pts[order[i]].value;
      records[i].label = pts[order[i]].label;
    }
    const auto alive = evaluate_alive_interval(iv, permuted, hooks);
    ASSERT_TRUE(alive.valid);
    ASSERT_EQ(bits(alive.split.threshold), bits(-0.0f)) << "perm " << perms;
    const auto direct = direct_split(records, hooks);
    ASSERT_TRUE(direct.valid);
    ASSERT_EQ(direct.split.attr, 0);
    ASSERT_EQ(bits(direct.split.threshold), bits(-0.0f)) << "perm " << perms;
    ++perms;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(perms, 5040);
}

/// Class counts of `records` on each side of `s`, as goes_left routes them.
std::pair<ClassCounts, ClassCounts> routed_counts(std::span<const Record> rs,
                                                  const Split& s) {
  ClassCounts left{};
  ClassCounts right{};
  for (const auto& r : rs) {
    ++(s.goes_left(r) ? left : right)[static_cast<std::size_t>(r.label)];
  }
  return {left, right};
}

TEST(Splitters, EvaluateAliveIntervalNeverSplitsAtNan) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Points pts = {{1.0f, 0}, {2.0f, 0}, {nan, 1}, {3.0f, 0},
                      {4.0f, 1}, {5.0f, 1}, {-nan, 0}, {6.0f, 1}};
  AliveInterval iv;
  for (const auto& pt : pts) ++iv.inside[static_cast<std::size_t>(pt.label)];
  CostHooks hooks;
  const auto best = evaluate_alive_interval(iv, pts, hooks);
  ASSERT_TRUE(best.valid);
  EXPECT_FALSE(std::isnan(best.split.threshold));
  EXPECT_EQ(best.split.threshold, 3.0f);
  // NaN points count on the right, where goes_left sends them.
  std::vector<Record> records(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    records[i].num[0] = pts[i].value;
    records[i].label = pts[i].label;
  }
  const auto [left, right] = routed_counts(records, best.split);
  EXPECT_EQ(best.gini, split_gini(left, right));

  const Points all_nan = {{nan, 0}, {nan, 1}, {-nan, 1}};
  AliveInterval nan_iv;
  nan_iv.inside = {{1, 2}};
  EXPECT_FALSE(evaluate_alive_interval(nan_iv, all_nan, hooks).valid);
}

TEST(Splitters, DirectSplitNeverSplitsAtNan) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  auto records = random_records(8, 1, 31);
  const std::vector<float> values = {1.0f, 2.0f, nan, 3.0f,
                                     4.0f, 5.0f, -nan, 6.0f};
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].num.fill(values[i]);
  }
  CostHooks hooks;
  const auto best = direct_split(records, hooks);
  ASSERT_TRUE(best.valid);
  if (best.split.kind == Split::Kind::kNumeric) {
    EXPECT_FALSE(std::isnan(best.split.threshold));
  }
  const auto [left, right] = routed_counts(records, best.split);
  EXPECT_EQ(best.gini, split_gini(left, right));
  EXPECT_GT(data::total(left), 0);
  EXPECT_GT(data::total(right), 0);
}

TEST(Splitters, BoundaryGiniMatchesRoutedPartitionWithNans) {
  // Salary separates the classes at 199.5; a fifth of the records carry a
  // NaN salary and class 0.  goes_left sends every NaN right, so the gini
  // a boundary reports must count them right too.  The sample (which sets
  // the boundaries) holds no NaN; every other attribute is constant.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<Record> records;
  std::vector<Record> sample;
  for (int i = 0; i < 400; ++i) {
    Record r{};
    r.num[0] = static_cast<float>(i);
    r.label = static_cast<std::int8_t>(i < 200 ? 0 : 1);
    records.push_back(r);
    if (i % 10 == 0) sample.push_back(r);
  }
  for (int i = 0; i < 100; ++i) {
    Record r{};
    r.num[0] = nan;
    records.push_back(r);
  }
  CostHooks hooks;
  auto stats = NodeStats::with_boundaries(sample, 16);
  const RecordScan scan(records);
  collect_stats(scan, stats, hooks);
  EXPECT_EQ(stats.hists[0].freq.back()[0], 100);

  const auto ss = ss_split(stats, hooks);
  ASSERT_TRUE(ss.valid);
  ASSERT_EQ(ss.split.kind, Split::Kind::kNumeric);
  ASSERT_EQ(ss.split.attr, 0);
  const auto [left, right] = routed_counts(records, ss.split);
  EXPECT_EQ(ss.gini, split_gini(left, right));

  const auto sse = sse_split(stats, scan, hooks);
  ASSERT_TRUE(sse.valid);
  EXPECT_LE(sse.gini, ss.gini);
  const auto [sse_left, sse_right] = routed_counts(records, sse.split);
  EXPECT_EQ(sse.gini, split_gini(sse_left, sse_right));
}

TEST(Splitters, AliveParallelMatchesOneRankAtEveryP) {
  auto records = random_records(6000, 2, 61);
  std::vector<Record> sample;
  for (std::size_t i = 0; i < records.size(); i += 10) {
    sample.push_back(records[i]);
  }
  CostHooks hooks;
  auto stats = NodeStats::with_boundaries(sample, 24);
  RecordScan src(records);
  collect_stats(src, stats, hooks);
  const auto boundary = ss_split(stats, hooks);
  const auto alive = find_alive_intervals(stats, boundary.gini, hooks);
  ASSERT_FALSE(alive.empty());

  struct Run {
    SplitCandidate best;
    double survival = 0.0;
    std::uint64_t shipped = 0;
  };
  auto run_at = [&](int p) {
    std::vector<Run> ranks(static_cast<std::size_t>(p));
    mp::Runtime rt(p);
    rt.run([&](mp::Comm& comm) {
      // This rank's strided share, scanned in the same order.
      std::vector<Record> share;
      for (std::size_t i = static_cast<std::size_t>(comm.rank());
           i < records.size(); i += static_cast<std::size_t>(p)) {
        share.push_back(records[i]);
      }
      const auto out = pclouds::evaluate_alive_parallel(
          comm, alive, boundary, stats.counts, RecordScan(share), {});
      ranks[static_cast<std::size_t>(comm.rank())] = {out.best, out.survival,
                                                      out.points_shipped};
    });
    Run total = ranks.front();
    total.shipped = 0;
    for (const auto& r : ranks) {
      expect_same_candidate(r.best, total.best);
      EXPECT_EQ(r.survival, total.survival);
      total.shipped += r.shipped;
    }
    return total;
  };
  const Run one = run_at(1);
  EXPECT_GT(one.shipped, 0u);
  for (int p : {3, 8}) {
    const Run got = run_at(p);
    expect_same_candidate(got.best, one.best);
    EXPECT_EQ(got.survival, one.survival);
    EXPECT_EQ(got.shipped, one.shipped);
  }
}

}  // namespace
}  // namespace pdc::clouds
