// The divide-and-conquer framework on a problem that is not a classifier:
// parallel out-of-core sorting by recursive range bisection.
//
//   ./dc_framework [nprocs] [keys]
//
// The paper's Section 3 techniques are generic; this example instantiates
// DcProblem for sorting.  Large tasks are range-bisected with data
// parallelism (one streaming pass computes the range, partitioning streams
// the keys into the children); once a task is small it is shipped to a
// single owner (delayed task parallelism) which sorts it in memory.
// Because the D&C tree's leaves cover disjoint, ordered key ranges, the
// concatenation of the sorted leaves is the sorted dataset.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "dc/driver.hpp"
#include "io/scratch.hpp"
#include "mp/runtime.hpp"

namespace {

using pdc::dc::DcProblem;
using pdc::dc::Task;

struct SortedRun {
  std::uint64_t lo = 0;  ///< inclusive lower bound of the task's range
  std::vector<std::uint64_t> keys;
};

class RangeSortProblem final : public DcProblem<std::uint64_t> {
 public:
  RangeSortProblem(std::map<std::uint64_t, SortedRun>* runs, std::mutex* mu)
      : runs_(runs), mu_(mu) {}

  std::vector<std::byte> local_stats(const Scan& scan, const Task&) override {
    Range r;
    scan([&](std::span<const std::uint64_t> blk) {
      for (const std::uint64_t v : blk) {
        r.lo = std::min(r.lo, v);
        r.hi = std::max(r.hi, v);
      }
    });
    return pdc::mp::to_bytes(r);
  }

  std::vector<std::byte> combine(std::vector<std::byte> a,
                                 const std::vector<std::byte>& b) override {
    if (a.empty()) return b;
    if (b.empty()) return a;
    auto ra = pdc::mp::value_from_bytes<Range>(a);
    const auto rb = pdc::mp::value_from_bytes<Range>(b);
    ra.lo = std::min(ra.lo, rb.lo);
    ra.hi = std::max(ra.hi, rb.hi);
    return pdc::mp::to_bytes(ra);
  }

  std::optional<Router> decide(pdc::mp::Comm&,
                               const std::vector<std::byte>& blob,
                               const Scan&, const Task& task) override {
    const auto r = pdc::mp::value_from_bytes<Range>(blob);
    ranges_[task.id] = r;
    if (r.lo == r.hi) return std::nullopt;  // constant run: nothing to do
    const std::uint64_t mid = r.lo + (r.hi - r.lo) / 2;
    return Router{[mid](std::span<const std::uint64_t> blk,
                        std::span<std::uint8_t> child) {
      for (std::size_t i = 0; i < blk.size(); ++i) {
        child[i] = blk[i] <= mid ? 0 : 1;
      }
    }};
  }

  void on_leaf(pdc::mp::Comm& comm, const Task& task) override {
    // A pure data-parallel leaf (constant keys): record it once, on rank 0.
    if (comm.rank() == 0 && task.global_n > 0) {
      std::lock_guard lock(*mu_);
      (*runs_)[ranges_[task.id].lo] =
          SortedRun{ranges_[task.id].lo,
                    std::vector<std::uint64_t>(task.global_n,
                                               ranges_[task.id].lo)};
    }
  }

  void solve_sequential(const Task&,
                        std::vector<std::uint64_t> data) override {
    if (data.empty()) return;
    std::sort(data.begin(), data.end());
    const std::uint64_t key = data.front();
    std::lock_guard lock(*mu_);
    (*runs_)[key] = SortedRun{key, std::move(data)};
  }

 private:
  struct Range {
    std::uint64_t lo = ~std::uint64_t{0};
    std::uint64_t hi = 0;
  };

  std::map<std::uint64_t, SortedRun>* runs_;
  std::mutex* mu_;
  std::map<std::int64_t, Range> ranges_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace pdc;

  const int p = argc > 1 ? std::atoi(argv[1]) : 4;
  const std::uint64_t n = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                   : 200'000;

  io::ScratchArena arena("dcsort", p);
  mp::Runtime rt(p);

  std::map<std::uint64_t, SortedRun> runs;  // keyed by range start
  std::mutex mu;

  const auto report = rt.run([&](mp::Comm& comm) {
    io::LocalDisk disk(arena.rank_dir(comm.rank()), &comm.cost(),
                       &comm.clock());
    // Each rank holds a random slice of the keys.
    std::vector<std::uint64_t> mine;
    for (std::uint64_t i = 0; i < n; ++i) {
      if (i % static_cast<std::uint64_t>(p) ==
          static_cast<std::uint64_t>(comm.rank())) {
        mine.push_back((i * 0x9E3779B97F4A7C15ull) >> 24);
      }
    }
    disk.write_file<std::uint64_t>("keys.dat", mine);

    dc::DcConfig cfg;
    cfg.strategy = dc::Strategy::kMixed;
    cfg.small_threshold = n / 16;  // ship subranges once they are small
    cfg.memory_bytes = 1 << 20;
    dc::DcDriver<std::uint64_t> driver(cfg, disk);
    RangeSortProblem problem(&runs, &mu);
    driver.run(comm, problem, "keys.dat");
  });

  // Stitch the runs: ranges are disjoint, so ordering by range start must
  // yield a globally sorted sequence.
  std::uint64_t total = 0;
  std::uint64_t previous = 0;
  bool sorted = true;
  for (const auto& [lo, run] : runs) {
    if (std::getenv("PDC_DEBUG_RUNS") && !run.keys.empty()) {
      std::printf("  run lo=%llu n=%zu min=%llu max=%llu\n",
                  (unsigned long long)lo, run.keys.size(),
                  (unsigned long long)run.keys.front(),
                  (unsigned long long)run.keys.back());
    }
    for (const auto k : run.keys) {
      if (k < previous) sorted = false;
      previous = k;
      ++total;
    }
  }

  std::printf("parallel out-of-core range sort: %llu keys on %d procs\n",
              static_cast<unsigned long long>(n), p);
  std::printf("  sorted runs      : %zu\n", runs.size());
  std::printf("  keys accounted   : %llu (%s)\n",
              static_cast<unsigned long long>(total),
              total == n ? "complete" : "MISSING KEYS");
  std::printf("  globally sorted  : %s\n", sorted ? "yes" : "NO");
  std::printf("  modeled runtime  : %.3f s (compute %.3f, comm %.3f, io %.3f)\n",
              report.parallel_time(), report.max_compute(),
              report.max_comm(), report.max_io());
  return (sorted && total == n) ? 0 : 1;
}
