// Collective-operation tests: results match a serial reference for every
// primitive, across a sweep of processor counts, and modeled clocks are
// charged per Table 1 and synchronized at every collective.  Also the
// runtime's own contract: error propagation and the run report.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/wire.hpp"
#include "mp/runtime.hpp"

namespace pdc::mp {
namespace {

class CollectivesP : public ::testing::TestWithParam<int> {
 protected:
  int p() const { return GetParam(); }
};

TEST_P(CollectivesP, AllReduceSumsOverRanks) {
  Runtime rt(p());
  rt.run([&](Comm& comm) {
    const auto sum = comm.all_reduce<std::int64_t>(comm.rank() + 1);
    EXPECT_EQ(sum, static_cast<std::int64_t>(p()) * (p() + 1) / 2);
  });
}

TEST_P(CollectivesP, AllReduceWithMinOp) {
  Runtime rt(p());
  rt.run([&](Comm& comm) {
    const double v = 100.0 - comm.rank();
    const double m = comm.all_reduce<double>(
        v, [](double a, double b) { return std::min(a, b); });
    EXPECT_DOUBLE_EQ(m, 100.0 - (p() - 1));
  });
}

TEST_P(CollectivesP, AllReduceVecIsElementwise) {
  Runtime rt(p());
  rt.run([&](Comm& comm) {
    std::vector<std::int64_t> mine = {comm.rank(), 1, 2 * comm.rank()};
    auto out = comm.all_reduce_vec<std::int64_t>(mine);
    const std::int64_t ranks = static_cast<std::int64_t>(p()) * (p() - 1) / 2;
    EXPECT_EQ(out[0], ranks);
    EXPECT_EQ(out[1], p());
    EXPECT_EQ(out[2], 2 * ranks);
  });
}

TEST_P(CollectivesP, PrefixSumIsInclusiveScan) {
  Runtime rt(p());
  rt.run([&](Comm& comm) {
    const auto scan = comm.prefix_sum<std::int64_t>(comm.rank() + 1);
    const std::int64_t r = comm.rank() + 1;
    EXPECT_EQ(scan, r * (r + 1) / 2);
  });
}

TEST_P(CollectivesP, AllToAllBroadcastDeliversEveryBlock) {
  Runtime rt(p());
  rt.run([&](Comm& comm) {
    // Variable-size blocks: rank r contributes r+1 copies of r.
    std::vector<int> mine(static_cast<std::size_t>(comm.rank() + 1),
                          comm.rank());
    auto blocks = comm.all_to_all_broadcast<int>(mine);
    ASSERT_EQ(blocks.size(), static_cast<std::size_t>(p()));
    for (int r = 0; r < p(); ++r) {
      ASSERT_EQ(blocks[r].size(), static_cast<std::size_t>(r + 1));
      for (int v : blocks[r]) EXPECT_EQ(v, r);
    }
  });
}

TEST_P(CollectivesP, AllGatherConcatenatesInRankOrder) {
  Runtime rt(p());
  rt.run([&](Comm& comm) {
    std::vector<int> mine = {comm.rank() * 2, comm.rank() * 2 + 1};
    auto all = comm.all_gather<int>(mine);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(2 * p()));
    for (int i = 0; i < 2 * p(); ++i) EXPECT_EQ(all[i], i);
  });
}

TEST_P(CollectivesP, AllFoldFoldsEverySlotInRankOrder) {
  Runtime rt(p());
  rt.run([&](Comm& comm) {
    // Appending is not commutative: the result spells out the fold order.
    // Rank r publishes r+1 bytes of value r.
    using Bytes = std::vector<std::byte>;
    const auto r = static_cast<std::size_t>(comm.rank());
    const auto got = comm.all_fold(
        Bytes(r + 1, std::byte(r)), [](const Bytes& b) { return b; },
        [](Bytes acc, const Bytes& b) {
          acc.insert(acc.end(), b.begin(), b.end());
          return acc;
        });
    Bytes want;
    for (int q = 0; q < p(); ++q) {
      want.insert(want.end(), static_cast<std::size_t>(q + 1),
                  std::byte(q));
    }
    EXPECT_EQ(got, want);
  });
}

TEST_P(CollectivesP, GatherOnlyRootReceives) {
  Runtime rt(p());
  const int root = p() - 1;
  rt.run([&](Comm& comm) {
    std::vector<int> mine = {comm.rank() * 10};
    auto got = comm.gather<int>(root, mine);
    if (comm.rank() == root) {
      ASSERT_EQ(got.size(), static_cast<std::size_t>(p()));
      for (int r = 0; r < p(); ++r) {
        ASSERT_EQ(got[r].size(), 1u);
        EXPECT_EQ(got[r][0], r * 10);
      }
    } else {
      EXPECT_TRUE(got.empty());
    }
  });
}

TEST_P(CollectivesP, BroadcastSendsRootBlockEverywhere) {
  Runtime rt(p());
  rt.run([&](Comm& comm) {
    std::vector<double> mine;
    if (comm.rank() == 0) mine = {3.5, 4.5, 5.5};
    auto got = comm.broadcast<double>(0, mine);
    EXPECT_EQ(got, (std::vector<double>{3.5, 4.5, 5.5}));
  });
}

TEST_P(CollectivesP, MinLocFindsOwnerOfMinimum) {
  Runtime rt(p());
  rt.run([&](Comm& comm) {
    // Rank p/2 has the smallest value.
    const int special = p() / 2;
    const double v = (comm.rank() == special) ? -1.0 : comm.rank() + 1.0;
    auto [best, owner] = comm.min_loc<double>(v);
    EXPECT_DOUBLE_EQ(best, -1.0);
    EXPECT_EQ(owner, special);
  });
}

TEST_P(CollectivesP, MinLocBreaksTiesByLowestRank) {
  Runtime rt(p());
  rt.run([&](Comm& comm) {
    auto [best, owner] = comm.min_loc<double>(7.0);
    EXPECT_DOUBLE_EQ(best, 7.0);
    EXPECT_EQ(owner, 0);
  });
}

TEST_P(CollectivesP, AllToAllRoutesPersonalizedBlocks) {
  Runtime rt(p());
  rt.run([&](Comm& comm) {
    // Rank s sends {s*100 + d} repeated (d+1) times to rank d.
    std::vector<std::vector<int>> out(static_cast<std::size_t>(p()));
    for (int d = 0; d < p(); ++d) {
      out[d].assign(static_cast<std::size_t>(d + 1), comm.rank() * 100 + d);
    }
    auto in = comm.all_to_all<int>(out);
    ASSERT_EQ(in.size(), static_cast<std::size_t>(p()));
    for (int s = 0; s < p(); ++s) {
      ASSERT_EQ(in[s].size(), static_cast<std::size_t>(comm.rank() + 1));
      for (int v : in[s]) EXPECT_EQ(v, s * 100 + comm.rank());
    }
  });
}

TEST_P(CollectivesP, CollectiveSynchronizesModeledClocks) {
  Runtime rt(p());
  auto report = rt.run([&](Comm& comm) {
    comm.clock().add_compute(comm.rank() == 0 ? 5.0 : 1.0);
    comm.barrier();
    // After the barrier every clock must sit at the same modeled time.
    const double t = comm.clock().total();
    const double tmax = comm.all_reduce<double>(
        t, [](double a, double b) { return std::max(a, b); });
    const double tmin = comm.all_reduce<double>(
        t, [](double a, double b) { return std::min(a, b); });
    EXPECT_DOUBLE_EQ(tmax, tmin);
  });
  // Slow rank had no idle; fast ranks idled 4s at the barrier.
  for (std::size_t r = 1; r < report.clocks.size(); ++r) {
    if (p() > 1) {
      EXPECT_NEAR(report.clocks[r].idle_s, 4.0, 1e-9);
    }
  }
  EXPECT_NEAR(report.clocks[0].idle_s, 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(ProcCounts, CollectivesP,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16));

TEST(Collectives, Table1CostsAreChargedExactly) {
  Machine m;
  const int p = 8;
  Runtime rt(p, m);
  CostModel cost(m);
  auto report = rt.run([&](Comm& comm) {
    std::vector<std::byte> block(256);
    (void)comm.all_to_all_broadcast<std::byte>(block);
    (void)comm.all_reduce<double>(1.0);
    (void)comm.prefix_sum<double>(1.0);
    // Unequal blocks: the fold is charged by the largest one.
    const auto mine =
        std::vector<std::byte>(16 * static_cast<std::size_t>(comm.rank() + 1));
    (void)comm.all_fold(
        mine, [](const std::vector<std::byte>& b) { return b.size(); },
        [](std::size_t acc, const std::vector<std::byte>& b) {
          return acc + b.size();
        });
  });
  const double expected = cost.all_to_all_broadcast(p, 256) +
                          cost.global_combine(p, sizeof(double)) +
                          cost.prefix_sum(p, sizeof(double)) +
                          cost.all_to_all_broadcast(p, 16 * p);
  for (const auto& c : report.clocks) {
    EXPECT_DOUBLE_EQ(c.comm_s, expected);
  }
}

TEST(Collectives, SingleRankCollectivesAreFreeAndCorrect) {
  Runtime rt(1);
  auto report = rt.run([&](Comm& comm) {
    EXPECT_EQ(comm.all_reduce<int>(42), 42);
    EXPECT_EQ(comm.prefix_sum<int>(7), 7);
    auto blocks =
        comm.all_to_all_broadcast<int>(std::vector<int>{1, 2, 3});
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0], (std::vector<int>{1, 2, 3}));
    comm.barrier();
  });
  EXPECT_DOUBLE_EQ(report.clocks[0].comm_s, 0.0);
}

// An all_fold whose fold throws on rank `thrower` of `comm`; every rank then
// enters further collectives, which must unblock instead of hanging.
void fold_throwing_on(Comm& comm, int thrower) {
  (void)comm.all_fold(
      std::vector<std::byte>(8),
      [](const std::vector<std::byte>& b) { return b.size(); },
      [&](std::size_t acc, const std::vector<std::byte>& b) {
        if (comm.rank() == thrower) throw std::runtime_error("fold");
        return acc + b.size();
      });
  comm.barrier();
}

TEST(Collectives, AllFoldThrowOnOneRankUnblocksEveryone) {
  Runtime rt(4);
  EXPECT_THROW(rt.run([&](Comm& world) {
                 fold_throwing_on(world, 2);
                 world.barrier();
               }),
               std::runtime_error);
}

TEST(Collectives, AllFoldThrowInsideGroupUnblocksEveryone) {
  Runtime rt(4);
  EXPECT_THROW(rt.run([&](Comm& world) {
                 Comm sub = world.split(world.rank() % 2);
                 // Group 1 is world ranks {1, 3}; its rank 0 is world rank 1.
                 if (world.rank() % 2 == 1) {
                   fold_throwing_on(sub, 0);
                 } else {
                   sub.barrier();
                 }
                 world.barrier();
               }),
               std::runtime_error);
}

TEST(Collectives, ExceptionInCollectivePropagates) {
  Runtime rt(4);
  EXPECT_THROW(rt.run([&](Comm& comm) {
                 if (comm.rank() == 0) throw std::logic_error("bad");
                 comm.barrier();
               }),
               std::logic_error);
}

TEST(Collectives, AllReduceVecRejectsUnequalLengths) {
  Runtime rt(4);
  EXPECT_THROW(rt.run([&](Comm& comm) {
                 const std::vector<int> mine(comm.rank() == 2 ? 4 : 5, 1);
                 (void)comm.all_reduce_vec<int>(mine);
                 comm.barrier();
               }),
               WireError);
}

TEST(Collectives, ManyCollectivesBackToBackDoNotInterfere) {
  Runtime rt(6);
  rt.run([&](Comm& comm) {
    for (int i = 0; i < 200; ++i) {
      const auto s = comm.all_reduce<std::int64_t>(i + comm.rank());
      const std::int64_t ranks = 6L * 5 / 2;
      EXPECT_EQ(s, 6L * i + ranks);
    }
  });
}

TEST(Runtime, RejectsNonPositiveProcessorCount) {
  EXPECT_THROW(Runtime(0), std::invalid_argument);
  EXPECT_THROW(Runtime(-3), std::invalid_argument);
}

TEST(Runtime, ReportBalanceIsOneWhenUniform) {
  Runtime rt(4);
  auto report = rt.run([&](Comm& comm) { comm.clock().add_compute(2.0); });
  EXPECT_DOUBLE_EQ(report.balance(), 1.0);
  EXPECT_DOUBLE_EQ(report.max_compute(), 2.0);
  EXPECT_DOUBLE_EQ(report.parallel_time(), 2.0);
}

TEST(Runtime, ReportBalanceDropsWhenSkewed) {
  Runtime rt(4);
  auto report = rt.run([&](Comm& comm) {
    comm.clock().add_compute(comm.rank() == 0 ? 4.0 : 1.0);
  });
  // mean busy = (4+1+1+1)/4 = 1.75, max = 4.
  EXPECT_DOUBLE_EQ(report.balance(), 1.75 / 4.0);
}

}  // namespace
}  // namespace pdc::mp
