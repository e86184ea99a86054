// Unit tests for the split-derivation combiners: every approach must match
// the sequential ss_split / find_alive_intervals results exactly, for any
// processor count, and the alive-interval parallel evaluation must match
// the sequential sse_split optimum.

#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "clouds/splitters.hpp"
#include "data/agrawal.hpp"
#include "mp/runtime.hpp"
#include "pclouds/alive.hpp"
#include "pclouds/combiners.hpp"
#include "pclouds/stats_codec.hpp"

namespace pdc::pclouds {
namespace {

using clouds::CostHooks;
using clouds::NodeStats;
using clouds::RecordScan;
using data::Record;

struct Workload {
  std::vector<Record> records;
  std::vector<Record> sample;
  NodeStats global;  ///< stats over the full dataset
  clouds::SplitCandidate seq_best;
  std::vector<clouds::AliveInterval> seq_alive;
};

Workload make_workload(int q, std::uint64_t seed) {
  Workload w;
  data::AgrawalGenerator gen({.function = 2, .seed = seed,
                              .label_noise = 0.05});
  w.records = gen.make_range(0, 4000);
  for (std::size_t i = 0; i < w.records.size(); i += 10) {
    w.sample.push_back(w.records[i]);
  }
  w.global = NodeStats::with_boundaries(w.sample, q);
  RecordScan src(w.records);
  CostHooks hooks;
  clouds::collect_stats(src, w.global, hooks);
  w.seq_best = clouds::ss_split(w.global, hooks);
  w.seq_alive =
      clouds::find_alive_intervals(w.global, w.seq_best.gini, hooks);
  return w;
}

/// Split the records round-robin across p ranks; each rank gets local
/// NodeStats with the same (sample-derived) boundaries.
NodeStats local_stats_of(const Workload& w, int rank, int p, int q) {
  auto stats = NodeStats::with_boundaries(w.sample, q);
  for (std::size_t i = static_cast<std::size_t>(rank); i < w.records.size();
       i += static_cast<std::size_t>(p)) {
    stats.add(w.records[i]);
  }
  return stats;
}

class CombinerMatrix
    : public ::testing::TestWithParam<std::tuple<int, CombineMethod>> {};

TEST_P(CombinerMatrix, MatchesSequentialBoundaryDerivation) {
  const auto [p, method] = GetParam();
  const int q = 32;
  const auto w = make_workload(q, 3);

  mp::Runtime rt(p);
  rt.run([&](mp::Comm& comm) {
    const auto local = local_stats_of(w, comm.rank(), p, q);
    BoundaryDerivation bd;
    if (method == CombineMethod::kDistributed) {
      bd = derive_distributed(comm, local, /*want_alive=*/true, {});
    } else if (method == CombineMethod::kVoting) {
      // vote_k = 5 makes 2k >= kNumAttributes: every attribute is a
      // candidate and voting must degenerate to the exact derivation.
      bd = derive_voting(comm, local, /*vote_k=*/5, /*hist_bits=*/0,
                         /*want_alive=*/true, {});
    } else {
      // The replication path receives the pre-combined global stats, as
      // the driver would deliver them.
      bd = derive_replicated(comm, method, w.global, /*want_alive=*/true,
                             {});
    }
    EXPECT_EQ(bd.counts, w.global.counts);
    ASSERT_TRUE(bd.gini_min.valid);
    EXPECT_NEAR(bd.gini_min.gini, w.seq_best.gini, 1e-12);
    EXPECT_EQ(bd.gini_min.split, w.seq_best.split);

    ASSERT_EQ(bd.alive.size(), w.seq_alive.size());
    for (std::size_t i = 0; i < bd.alive.size(); ++i) {
      EXPECT_EQ(bd.alive[i].attr, w.seq_alive[i].attr);
      EXPECT_EQ(bd.alive[i].interval, w.seq_alive[i].interval);
      EXPECT_EQ(bd.alive[i].inside, w.seq_alive[i].inside);
      EXPECT_NEAR(bd.alive[i].gini_est, w.seq_alive[i].gini_est, 1e-12);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CombinerMatrix,
    ::testing::Combine(
        ::testing::Values(1, 2, 4, 7),
        ::testing::Values(CombineMethod::kReplicationAttribute,
                          CombineMethod::kReplicationInterval,
                          CombineMethod::kReplicationHybrid,
                          CombineMethod::kDistributed,
                          CombineMethod::kVoting)));

// The hybrid assignment chunks `total_boundary_items` contiguously across
// ranks; a small node can have fewer boundary items than ranks, leaving
// empty chunks.  Exactly-at-threshold (items == p, one item per rank) and
// below (items < p, idle ranks) must both still derive the sequential
// answer on every rank.
class HybridSmallNode : public ::testing::TestWithParam<int> {};

TEST_P(HybridSmallNode, AtAndBelowTheItemThresholdMatchesSequential) {
  const int p = GetParam();
  const int q = 1;  // one boundary per numeric attribute: 6 items total
  const auto w = make_workload(q, 17);
  std::size_t items = 0;
  for (const auto& h : w.global.hists) items += h.bounds.size();
  ASSERT_LE(items, 6u);
  ASSERT_LT(items, 7u) << "p=7 must leave at least one rank idle";

  mp::Runtime rt(p);
  rt.run([&](mp::Comm& comm) {
    const auto bd = derive_replicated(comm, CombineMethod::kReplicationHybrid,
                                      w.global, /*want_alive=*/true, {});
    EXPECT_EQ(bd.counts, w.global.counts);
    ASSERT_TRUE(bd.gini_min.valid);
    EXPECT_NEAR(bd.gini_min.gini, w.seq_best.gini, 1e-12);
    EXPECT_EQ(bd.gini_min.split, w.seq_best.split);
    EXPECT_EQ(bd.alive.size(), w.seq_alive.size());
  });
}

// items == p ("exactly at"), items < p (idle ranks), p = 1 (degenerate).
INSTANTIATE_TEST_SUITE_P(Procs, HybridSmallNode, ::testing::Values(1, 6, 7));

TEST(HybridSmallNode, SmallNodeRecordThresholdIsInclusive) {
  // An exactly-at-threshold node (node_records == derived_small_threshold)
  // is on the small side: its interval budget has already shrunk to
  // interval_threshold.  The derivation is conservative — q_for truncates,
  // so a slightly larger node can share the same budget — but it must
  // never classify a node as small while its budget still exceeds the
  // threshold.
  PcloudsConfig cfg;
  cfg.clouds.q_root = 400;
  cfg.interval_threshold = 10;
  const std::uint64_t root = 8000;
  const auto thr = cfg.derived_small_threshold(root);
  ASSERT_GT(thr, 0u);
  EXPECT_EQ(cfg.clouds.q_for(thr, root), cfg.interval_threshold);
  // The first genuinely large node: budget strictly above the threshold.
  const std::uint64_t first_large =
      (root * (static_cast<std::uint64_t>(cfg.interval_threshold) + 1) +
       static_cast<std::uint64_t>(cfg.clouds.q_root) - 1) /
      static_cast<std::uint64_t>(cfg.clouds.q_root);
  EXPECT_GT(first_large, thr);
  EXPECT_GT(cfg.clouds.q_for(first_large, root), cfg.interval_threshold);
}

// A rank holding zero records (p exceeds this node's record spread) must
// merge cleanly: its empty statistics contribute nothing, and both the
// distributed and the voting combiner still reach the sequential answer.
TEST(ZeroRecordRank, EmptyLocalStatsMergeExactly) {
  const int p = 4;
  const int q = 24;
  const auto w = make_workload(q, 19);

  mp::Runtime rt(p);
  rt.run([&](mp::Comm& comm) {
    // Ranks 0..2 share the records round-robin; rank 3 holds none.
    auto local = NodeStats::with_boundaries(w.sample, q);
    if (comm.rank() < p - 1) {
      for (std::size_t i = static_cast<std::size_t>(comm.rank());
           i < w.records.size(); i += static_cast<std::size_t>(p - 1)) {
        local.add(w.records[i]);
      }
    }
    for (const auto& bd :
         {derive_distributed(comm, local, /*want_alive=*/true, {}),
          derive_voting(comm, local, /*vote_k=*/5, /*hist_bits=*/0,
                        /*want_alive=*/true, {})}) {
      EXPECT_EQ(bd.counts, w.global.counts);
      ASSERT_TRUE(bd.gini_min.valid);
      EXPECT_NEAR(bd.gini_min.gini, w.seq_best.gini, 1e-12);
      EXPECT_EQ(bd.gini_min.split, w.seq_best.split);
      EXPECT_EQ(bd.alive.size(), w.seq_alive.size());
    }
  });
}

// The voting wire codec under the same condition: an all-zero local blob
// is a valid stream and decodes back to zeros of the right length.
TEST(ZeroRecordRank, EmptyVotedBlobRoundTrips) {
  const auto w = make_workload(16, 23);
  const auto empty = NodeStats::with_boundaries(w.sample, 16);
  const std::vector<int> candidates = {0, 7};
  const auto blob = encode_voted_stats(empty, candidates, /*hist_bits=*/4);
  std::size_t flat_len = static_cast<std::size_t>(data::kNumClasses);
  for (const int attr : candidates) flat_len += voted_attr_len(empty, attr);
  const auto flat = decode_voted_stats(blob, flat_len);
  for (const auto v : flat) EXPECT_EQ(v, 0);
}

TEST(StatsCodec, EncodeDecodeRoundTrip) {
  const auto w = make_workload(16, 5);
  const auto blob = encode_stats(w.global);
  auto decoded = NodeStats::with_boundaries(w.sample, 16);
  decode_stats(blob, decoded);
  EXPECT_EQ(decoded.counts, w.global.counts);
  for (int a = 0; a < data::kNumNumeric; ++a) {
    EXPECT_EQ(decoded.hists[a].freq, w.global.hists[a].freq);
  }
  for (int c = 0; c < data::kNumCategorical; ++c) {
    EXPECT_EQ(decoded.cats[c].flatten(), w.global.cats[c].flatten());
  }
}

TEST(StatsCodec, CombineIsElementwiseSum) {
  const auto w = make_workload(16, 7);
  const auto blob = encode_stats(w.global);
  const auto doubled = combine_stats_blobs(blob, blob);
  auto decoded = NodeStats::with_boundaries(w.sample, 16);
  decode_stats(doubled, decoded);
  EXPECT_EQ(data::total(decoded.counts), 2 * data::total(w.global.counts));
}

TEST(StatsCodec, EmptyBlobIsIdentity) {
  const auto w = make_workload(16, 9);
  const auto blob = encode_stats(w.global);
  EXPECT_EQ(combine_stats_blobs({}, blob), blob);
  EXPECT_EQ(combine_stats_blobs(blob, {}), blob);
}

TEST(StatsCodec, ShardedCombineEqualsWholeDataset) {
  const int p = 4;
  const int q = 24;
  const auto w = make_workload(q, 11);
  std::vector<std::byte> acc;
  for (int r = 0; r < p; ++r) {
    acc = combine_stats_blobs(std::move(acc),
                              encode_stats(local_stats_of(w, r, p, q)));
  }
  EXPECT_EQ(acc, encode_stats(w.global));
}

class AliveParallelP : public ::testing::TestWithParam<int> {};

TEST_P(AliveParallelP, MatchesSequentialSseOptimum) {
  const int p = GetParam();
  const int q = 24;
  const auto w = make_workload(q, 13);

  // Sequential SSE reference.
  RecordScan src(w.records);
  CostHooks hooks;
  auto stats = w.global;
  const auto seq = clouds::sse_split(stats, src, hooks);
  ASSERT_TRUE(seq.valid);

  mp::Runtime rt(p);
  rt.run([&](mp::Comm& comm) {
    // Local second-pass scan over this rank's strided share.
    std::vector<Record> share;
    for (std::size_t i = static_cast<std::size_t>(comm.rank());
         i < w.records.size(); i += static_cast<std::size_t>(p)) {
      share.push_back(w.records[i]);
    }
    const auto outcome =
        evaluate_alive_parallel(comm, w.seq_alive, w.seq_best,
                                w.global.counts, RecordScan(share), {});
    EXPECT_NEAR(outcome.best.gini, seq.gini, 1e-12);
    EXPECT_GE(outcome.survival, 0.0);
  });
}

INSTANTIATE_TEST_SUITE_P(Procs, AliveParallelP, ::testing::Values(1, 2, 4, 8));

TEST(AliveParallel, NoAliveIntervalsReturnsBoundaryBest) {
  mp::Runtime rt(3);
  rt.run([&](mp::Comm& comm) {
    clouds::SplitCandidate boundary;
    boundary.consider(0.25, clouds::Split{});
    const auto outcome =
        evaluate_alive_parallel(comm, {}, boundary,
                                data::ClassCounts{{{10, 10}}},
                                RecordScan(std::span<const Record>{}), {});
    EXPECT_DOUBLE_EQ(outcome.best.gini, 0.25);
    EXPECT_DOUBLE_EQ(outcome.survival, 0.0);
    EXPECT_EQ(outcome.points_shipped, 0u);
  });
}

}  // namespace
}  // namespace pdc::pclouds
