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
#include "clouds/record_source.hpp"
#include "clouds/splitters.hpp"
#include "data/agrawal.hpp"

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

TEST(Intervals, DegenerateSamples) {
  EXPECT_TRUE(equi_depth_boundaries({}, 10).empty());
  EXPECT_TRUE(equi_depth_boundaries({1.0f, 1.0f, 1.0f}, 10).size() <= 1);
  EXPECT_TRUE(equi_depth_boundaries({1.0f, 2.0f}, 1).empty());
}

TEST(Intervals, IntervalOfMatchesLinearScan) {
  // interval_of must return exactly std::lower_bound's index for every
  // float, across bound counts that exercise each halving depth.  The
  // linear reference is the first j with !(bounds[j] < v) — v <= bounds[j]
  // for every non-NaN v, and 0 for NaN, as std::lower_bound gives.
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
    auto linear = [&](float v) -> std::size_t {
      for (std::size_t j = 0; j < h.bounds.size(); ++j) {
        if (!(h.bounds[j] < v)) return j;
      }
      return h.bounds.size();
    };
    auto check = [&](float v) {
      const auto want = static_cast<std::size_t>(
          std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
      const auto got = h.interval_of(v);
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

TEST(Intervals, PrefixCountsAccumulate) {
  IntervalHist h;
  h.bounds = {10.0f, 20.0f};
  h.reset_counts();
  h.add(5.0f, 0);
  h.add(10.0f, 1);
  h.add(15.0f, 0);
  h.add(25.0f, 1);
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
  MemorySource src(records);
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
  MemorySource src(records);
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
  MemorySource src(records);
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
    MemorySource src(records);
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
  for (const auto& r : records) {
    std::vector<Hit> got;
    index.for_each(r, [&](std::size_t k, float v) {
      got.emplace_back(k, std::bit_cast<std::uint32_t>(v));
    });
    ASSERT_EQ(got, brute_force_hits(alive, r))
        << "alive=" << alive.size() << " salary=" << r.num[0];
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
      MemorySource src(records);
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
  MemorySource src(records);
  collect_stats(src, stats, hooks);
  EXPECT_GT(clock.snapshot().compute_s, 0.0);
  const double after_collect = clock.snapshot().compute_s;
  (void)sse_split(stats, src, hooks);
  EXPECT_GT(clock.snapshot().compute_s, after_collect);
}

}  // namespace
}  // namespace pdc::clouds
