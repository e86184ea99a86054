// Property tests over seeded random instances: invariants the paper's
// techniques rely on, checked on ~100 random inputs each.
//
//  - SSE soundness: an alive interval's gini lower bound never exceeds the
//    exact best gini achievable inside that interval (so pruning intervals
//    whose bound beats gini_min can never discard the optimum).
//  - QuantileSketch rank error stays within a fixed bound across
//    distributions (uniform, clustered, heavy duplicates).
//  - LPT assignment never leaves a rank idle while another rank holds two
//    or more tasks (with positive costs), and its makespan respects the
//    classic (4/3 - 1/3p) OPT bound via the trivial lower bounds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "clouds/quantile_sketch.hpp"
#include "clouds/splitters.hpp"
#include "data/dataset.hpp"
#include "dc/lpt.hpp"

namespace pdc {
namespace {

using data::Record;

// ---- SSE gini lower bounds ----

/// Random records with class structure: label correlates with a noisy
/// linear threshold so real splits exist, plus pure noise columns.
std::vector<Record> random_node(std::mt19937_64& rng, int n) {
  std::uniform_real_distribution<float> value(0.0f, 100.0f);
  std::bernoulli_distribution noise(0.15);
  std::uniform_int_distribution<int> cat(0, 4);
  std::vector<Record> out(static_cast<std::size_t>(n));
  for (auto& r : out) {
    for (auto& v : r.num) v = value(rng);
    for (auto& c : r.cat) c = static_cast<std::int8_t>(cat(rng));
    const bool group_a = r.num[0] + 0.5f * r.num[1] < 75.0f;
    r.label = static_cast<std::int8_t>(group_a != noise(rng) ? 0 : 1);
  }
  return out;
}

TEST(Invariants, GiniLowerBoundNeverExceedsExactGiniInTheInterval) {
  std::mt19937_64 rng(2026);
  std::size_t alive_checked = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const auto records = random_node(rng, 400);
    auto stats = clouds::NodeStats::with_boundaries(records, /*q=*/16);
    clouds::RecordScan source(records);
    clouds::collect_stats(source, stats, {});

    const auto boundary_best = clouds::ss_split(stats, {});
    if (!boundary_best.valid) continue;
    const auto alive =
        clouds::find_alive_intervals(stats, boundary_best.gini, {});

    for (const auto& iv : alive) {
      // Exact evaluation of the interval: every point of the attribute
      // that falls inside it.
      std::vector<clouds::AlivePoint> points;
      for (const auto& r : records) {
        const float v = r.num[static_cast<std::size_t>(iv.attr)];
        if (iv.contains(v)) points.push_back({v, r.label});
      }
      const auto exact = clouds::evaluate_alive_interval(iv, points, {});
      if (!exact.valid) continue;
      EXPECT_GE(exact.gini + 1e-9, iv.gini_est)
          << "trial " << trial << " attr " << iv.attr << " interval "
          << iv.interval;
      ++alive_checked;
    }
  }
  // The property must actually have been exercised.
  EXPECT_GT(alive_checked, 100u);
}

// ---- quantile sketch rank error ----

/// A value with duplicates occupies a whole rank interval; the sketch is
/// correct if phi falls within `eps` of that interval.
double rank_distance(const std::vector<float>& sorted, float v, double phi) {
  const double n = static_cast<double>(sorted.size());
  const double lo = static_cast<double>(
                        std::lower_bound(sorted.begin(), sorted.end(), v) -
                        sorted.begin()) /
                    n;
  const double hi = static_cast<double>(
                        std::upper_bound(sorted.begin(), sorted.end(), v) -
                        sorted.begin()) /
                    n;
  if (phi < lo) return lo - phi;
  if (phi > hi) return phi - hi;
  return 0.0;
}

TEST(Invariants, SketchRankErrorStaysWithinBound) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<float> data;
    const int shape = trial % 3;
    std::normal_distribution<float> normal(
        50.0f, static_cast<float>(trial % 7) + 1.0f);
    std::uniform_real_distribution<float> uniform(-1.0f, 1.0f);
    std::uniform_int_distribution<int> dup(0, 9);
    for (int i = 0; i < 3000; ++i) {
      if (shape == 0) {
        data.push_back(uniform(rng));
      } else if (shape == 1) {
        data.push_back(normal(rng));
      } else {
        data.push_back(static_cast<float>(dup(rng)));  // heavy duplicates
      }
    }
    clouds::QuantileSketch s(256);
    for (float v : data) s.add(v);
    auto sorted = data;
    std::sort(sorted.begin(), sorted.end());
    for (double phi : {0.1, 0.25, 0.5, 0.75, 0.9}) {
      const float est = s.quantile(phi);
      EXPECT_LE(rank_distance(sorted, est, phi), 0.05)
          << "trial " << trial << " phi " << phi;
    }
  }
}

// ---- LPT assignment ----

TEST(Invariants, LptNeverIdlesARankWhileAnotherHoldsTwoTasks) {
  std::mt19937_64 rng(31);
  std::uniform_int_distribution<int> ntasks(0, 40);
  std::uniform_int_distribution<int> nprocs(1, 8);
  std::uniform_real_distribution<double> cost(0.1, 10.0);
  for (int trial = 0; trial < 100; ++trial) {
    const int t = ntasks(rng);
    const int p = nprocs(rng);
    std::vector<double> costs(static_cast<std::size_t>(t));
    for (auto& c : costs) c = cost(rng);

    const auto a = dc::lpt_assign(costs, p);
    std::vector<int> held(static_cast<std::size_t>(p), 0);
    for (int owner : a.owner) ++held[static_cast<std::size_t>(owner)];

    const bool any_idle =
        std::any_of(held.begin(), held.end(), [](int h) { return h == 0; });
    const int max_held = t == 0 ? 0 : *std::max_element(held.begin(),
                                                        held.end());
    if (any_idle) {
      EXPECT_LE(max_held, 1)
          << "trial " << trial << ": rank idle while another holds "
          << max_held << " tasks (t=" << t << ", p=" << p << ")";
    }
    if (t >= p) {
      EXPECT_FALSE(any_idle) << "trial " << trial << " t=" << t << " p=" << p;
    }

    // Makespan sanity: never below the trivial OPT lower bound, and within
    // the provable list-scheduling bound total/p + (1 - 1/p) * largest.
    if (t > 0) {
      const double total = std::accumulate(costs.begin(), costs.end(), 0.0);
      const double largest = *std::max_element(costs.begin(), costs.end());
      EXPECT_GE(a.makespan, std::max(total / p, largest) - 1e-9);
      EXPECT_LE(a.makespan, total / p + (1.0 - 1.0 / p) * largest + 1e-9)
          << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace pdc
