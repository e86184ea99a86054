#pragma once

// Sequential CLOUDS: decision tree construction, in-core and out-of-core.
//
// The out-of-core build is the p=1 instance of the paper's framework: node
// data lives in per-node files on the local disk, each node is processed by
// streaming passes (one for SS, up to two for SSE), and partitioning
// streams the node's records into its children's files while updating the
// children's statistics on the fly.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "clouds/cost_hooks.hpp"
#include "clouds/splitters.hpp"
#include "clouds/tree.hpp"
#include "data/record.hpp"
#include "io/local_disk.hpp"
#include "io/memory_budget.hpp"
#include "io/pipeline.hpp"

namespace pdc::clouds {

enum class SplitMethod : int { kSS = 0, kSSE = 1, kDirect = 2 };

struct CloudsConfig {
  SplitMethod method = SplitMethod::kSSE;

  /// Number of intervals at the root; q shrinks proportionally with node
  /// size, never below q_min (the paper uses q_root = 10,000 and switches
  /// techniques when q reaches 10).
  int q_root = 1000;
  int q_min = 10;

  /// Sampling rate for the pre-drawn sample set S when the caller does not
  /// supply a sample explicitly.
  double sample_rate = 0.05;

  // --- stopping criteria: "until each partition consists entirely or
  // --- dominantly of examples from one class", plus practical guards.
  double purity_stop = 1.0;   ///< leaf when max class fraction >= this
  std::int64_t min_records = 2;
  std::int32_t max_depth = 24;

  /// Async double-buffered streaming for the out-of-core passes; off by
  /// default (the synchronous path is the differential-test oracle).
  io::PipelineConfig pipeline;

  /// Interval budget for a node of n records out of n_root.
  int q_for(std::uint64_t node_records, std::uint64_t root_records) const {
    if (root_records == 0) return q_min;
    const double frac = static_cast<double>(node_records) /
                        static_cast<double>(root_records);
    const int q = static_cast<int>(frac * q_root);
    return std::max(q_min, std::min(q_root, q));
  }
};

/// The shared stopping rule: leaf when the node is (dominantly) pure, too
/// small, or too deep.  Used by the sequential builder and by pCLOUDS so
/// both grow identical trees.
bool stop_expansion(const CloudsConfig& cfg, const data::ClassCounts& counts,
                    std::int32_t depth);

/// Aggregated build diagnostics (fed by every node's split derivation).
struct BuildStats {
  std::size_t nodes_processed = 0;
  std::size_t leaves = 0;
  std::uint64_t records_scanned = 0;   ///< across all passes
  std::uint64_t second_pass_points = 0;
  double survival_sum = 0.0;           ///< sum of per-node survival ratios
  std::size_t survival_samples = 0;
  double root_survival = 0.0;          ///< survival ratio at the root node
  std::size_t out_of_core_nodes = 0;
  std::size_t in_core_nodes = 0;

  double mean_survival() const {
    return survival_samples == 0 ? 0.0
                                 : survival_sum /
                                       static_cast<double>(survival_samples);
  }
};

class CloudsBuilder {
 public:
  explicit CloudsBuilder(CloudsConfig cfg, CostHooks hooks = {})
      : cfg_(cfg), hooks_(hooks) {}

  /// In-core build.  `sample` is the node-filtered pre-drawn sample set S;
  /// pass an empty span to have the builder take a deterministic
  /// every-k-th subsample of `data`.
  DecisionTree build(std::span<const data::Record> data,
                     std::span<const data::Record> sample = {});

  /// Out-of-core build: `file` on `disk` holds the training records; the
  /// sample set stays in memory.  Nodes whose data fits in `budget` are
  /// loaded and finished in-core; larger nodes are processed by streaming.
  DecisionTree build_out_of_core(io::LocalDisk& disk, const std::string& file,
                                 std::vector<data::Record> sample,
                                 const io::MemoryBudget& budget);

  const BuildStats& stats() const { return stats_; }
  const CloudsConfig& config() const { return cfg_; }

 private:
  struct InCoreTask {
    std::int32_t node;
    std::vector<data::Record> data;
    std::vector<data::Record> sample;
    std::int32_t depth;
  };

  bool should_stop(const data::ClassCounts& counts, std::int32_t depth) const;
  SplitCandidate derive_split(const RecordScan& scan,
                              std::span<const data::Record> sample,
                              std::span<const data::Record> records_if_memory,
                              std::uint64_t root_records);
  void build_subtree_in_core(DecisionTree& tree, InCoreTask task,
                             std::uint64_t root_records);

  CloudsConfig cfg_;
  CostHooks hooks_;
  BuildStats stats_;
};

}  // namespace pdc::clouds
